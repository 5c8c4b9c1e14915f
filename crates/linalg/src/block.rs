//! Multi-anchor sparse block propagation: k anchored rows through one
//! chain as a single short, fat sparse block.
//!
//! The anchored fast path ([`crate::spvec`]) propagates **one** sparse row
//! per query. When a micro-batch carries k anchored queries over the *same*
//! meta-path span, propagating them one at a time pays the per-chain
//! overhead k times: one scratch accumulator prepared per anchor per link,
//! one counter round-trip per anchor per link, and k cold passes over the
//! link matrix's rows. [`SparseBlock`] stacks the k anchor rows CSR-style
//! and [`spmm_block_chain`] pushes the whole block through each link in one
//! pass — per-link scatter state is prepared once and the link matrix's
//! rows stay hot across anchors — which wins even on one core by amortizing
//! chain overhead across the batch.
//!
//! Each row of the block runs the same row kernel as
//! [`crate::spvec::spvm_with`], so every propagated row is bit-identical
//! to the row the per-anchor kernel (and therefore the materialized matrix
//! product) produces.

use crate::csr::{Csr, ScatterScratch};
use crate::spvec::SparseVec;

/// A stack of k sparse row vectors over one shared dimension — the carrier
/// of batched multi-anchor propagation.
///
/// Stored CSR-style (`indptr` over k rows, concatenated `indices`/`values`)
/// so a propagation pass writes one pair of growing arrays instead of k
/// separate vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseBlock {
    pub(crate) dim: usize,
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f64>,
}

impl SparseBlock {
    /// An empty block (zero rows) over dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        Self {
            dim,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Stack `rows` into one block.
    ///
    /// # Panics
    /// Panics when the rows disagree on dimension.
    pub fn from_rows(rows: &[SparseVec]) -> Self {
        let dim = rows.first().map(SparseVec::dim).unwrap_or(0);
        let mut block = Self::empty(dim);
        for row in rows {
            block.push_row(row);
        }
        block
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics when `row.dim()` differs from the block's dimension.
    pub fn push_row(&mut self, row: &SparseVec) {
        assert_eq!(
            row.dim(),
            self.dim,
            "SparseBlock::push_row: row dim {} vs block dim {}",
            row.dim(),
            self.dim
        );
        self.indices.extend_from_slice(row.indices());
        self.values.extend_from_slice(row.values());
        self.indptr.push(self.indices.len());
    }

    /// The block of unit rows `e_a` for each anchor — k anchored
    /// propagations about to start from scratch.
    ///
    /// # Panics
    /// Panics when an anchor is out of bounds.
    pub fn from_units(dim: usize, anchors: &[usize]) -> Self {
        let mut block = Self::empty(dim);
        for &a in anchors {
            assert!(
                a < dim,
                "SparseBlock::from_units: anchor {a} out of bounds for dim {dim}"
            );
            block.indices.push(a as u32);
            block.values.push(1.0);
            block.indptr.push(block.indices.len());
        }
        block
    }

    /// Number of rows (anchors) in the block.
    #[inline]
    pub fn k(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Shared dimension of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total stored entries across all rows.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `(indices, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// All rows, borrowed as the scatter kernel's input.
    pub(crate) fn rows(&self) -> crate::scatter::Rows<'_> {
        crate::scatter::Rows::new(&self.indptr, &self.indices, &self.values)
    }

    /// Copy row `i` out as a standalone [`SparseVec`].
    pub fn row_vec(&self, i: usize) -> SparseVec {
        let (idx, vals) = self.row(i);
        SparseVec::from_sorted_unchecked(self.dim, idx.to_vec(), vals.to_vec())
    }

    /// Split the block back into its rows.
    pub fn into_rows(self) -> Vec<SparseVec> {
        (0..self.k()).map(|i| self.row_vec(i)).collect()
    }

    /// Copy rows `range` out as a standalone block — the unit a parallel
    /// worker propagates independently.
    ///
    /// # Panics
    /// Panics when the range exceeds `k()`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> SparseBlock {
        let (lo, hi) = (self.indptr[range.start], self.indptr[range.end]);
        SparseBlock {
            dim: self.dim,
            indptr: self.indptr[range.start..=range.end]
                .iter()
                .map(|&p| p - lo)
                .collect(),
            indices: self.indices[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Append every row of `other` after this block's rows — how parallel
    /// workers' partial blocks join back together in row order.
    ///
    /// # Panics
    /// Panics when the dimensions disagree.
    pub fn append(&mut self, other: &SparseBlock) {
        assert_eq!(
            other.dim, self.dim,
            "SparseBlock::append: block dim {} vs {}",
            other.dim, self.dim
        );
        let base = self.indices.len();
        self.indices.extend_from_slice(&other.indices);
        self.values.extend_from_slice(&other.values);
        self.indptr
            .extend(other.indptr[1..].iter().map(|&p| p + base));
    }
}

/// One link of a block propagation: every row of `block` through `m`, in
/// one pass sharing `scratch`. Each row runs the same row kernel as
/// [`crate::spvec::spvm_with`], so row `i` of the result is bit-identical
/// to `spvm_with(&block.row_vec(i), m, ..)`.
///
/// # Panics
/// Panics when `block.dim() != m.nrows()`.
pub fn spmm_block_with(block: &SparseBlock, m: &Csr, scratch: &mut ScatterScratch) -> SparseBlock {
    assert_eq!(
        block.dim(),
        m.nrows(),
        "spmm_block: block dim {} vs matrix rows {}",
        block.dim(),
        m.nrows()
    );
    crate::scatter::propagate(block.rows(), m, scratch)
}

/// Propagate every row of `block` through the chain `M₁·M₂·…·Mₙ`,
/// allocating fresh scratch. The batched counterpart of k separate
/// [`crate::spvec::spvm_chain`] calls: one scratch, one pass per link.
///
/// # Panics
/// Panics on a dimension mismatch at any link.
pub fn spmm_block_chain(block: &SparseBlock, mats: &[&Csr]) -> SparseBlock {
    spmm_block_chain_with(block, mats, &mut ScatterScratch::new())
}

/// [`spmm_block_chain`] reusing a caller-owned [`ScatterScratch`].
///
/// # Panics
/// Panics on a dimension mismatch at any link.
pub fn spmm_block_chain_with(
    block: &SparseBlock,
    mats: &[&Csr],
    scratch: &mut ScatterScratch,
) -> SparseBlock {
    crate::counters::with(|c| {
        c.block_anchors
            .fetch_add(block.k() as u64, std::sync::atomic::Ordering::Relaxed);
    });
    let mut cur = None;
    for &m in mats {
        let next = spmm_block_with(cur.as_ref().unwrap_or(block), m, scratch);
        cur = Some(next);
    }
    cur.unwrap_or_else(|| block.clone())
}

/// [`spmm_block_chain`] with the anchor rows partitioned across
/// `config.threads()` workers by the driver in [`crate::pool`]. Rows of the
/// block are independent, so each worker runs the exact serial chain over
/// its slice and the partial blocks are appended in row order —
/// bit-identical to the serial chain by construction. Partitioning is
/// flop-balanced on the first link, so hub anchors don't pile onto one
/// worker.
///
/// # Panics
/// Panics on a dimension mismatch at any link.
pub fn spmm_block_chain_parallel(
    block: &SparseBlock,
    mats: &[&Csr],
    config: crate::pool::ParallelConfig,
) -> SparseBlock {
    let threads = config.threads().min(block.k()).max(1);
    if threads == 1 || mats.is_empty() {
        return spmm_block_chain(block, mats);
    }
    let weights = block.rows().flops(mats[0]);
    let parts = crate::pool::run_balanced(&weights, threads, |range| {
        crate::scatter::with_thread_scratch(|scratch| {
            spmm_block_chain_with(&block.slice_rows(range), mats, scratch)
        })
    });
    let mut parts = parts.into_iter();
    let mut out = parts
        .next()
        .expect("a block of k >= 2 rows has a row block");
    for part in parts {
        out.append(&part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spvec::{spvm_chain, spvm_with};

    fn chain3() -> (Csr, Csr, Csr) {
        let a = Csr::from_triplets(
            4,
            3,
            [
                (0u32, 0u32, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (3, 2, 5.0),
            ],
        );
        let b = Csr::from_triplets(
            3,
            5,
            [(0u32, 1u32, 2.0), (0, 4, 1.0), (1, 0, 1.0), (2, 3, 4.0)],
        );
        let c = Csr::from_triplets(
            5,
            2,
            [(0u32, 0u32, 1.0), (1, 1, 2.0), (3, 0, 3.0), (4, 1, 1.0)],
        );
        (a, b, c)
    }

    #[test]
    fn block_construction_round_trips() {
        let rows = vec![
            SparseVec::new(5, vec![0, 3], vec![1.0, -2.0]),
            SparseVec::zeros(5),
            SparseVec::new(5, vec![2], vec![7.0]),
        ];
        let block = SparseBlock::from_rows(&rows);
        assert_eq!(block.k(), 3);
        assert_eq!(block.dim(), 5);
        assert_eq!(block.nnz(), 3);
        assert_eq!(block.row(0), (&[0u32, 3][..], &[1.0, -2.0][..]));
        assert_eq!(block.row(1).0.len(), 0);
        assert_eq!(block.row_vec(2), rows[2]);
        assert_eq!(block.clone().into_rows(), rows);

        let units = SparseBlock::from_units(4, &[3, 0, 2]);
        assert_eq!(units.k(), 3);
        assert_eq!(units.row_vec(0), SparseVec::unit(4, 3));
        assert_eq!(units.row_vec(1), SparseVec::unit(4, 0));
        assert_eq!(SparseBlock::empty(9).k(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_anchor_panics() {
        let _ = SparseBlock::from_units(3, &[3]);
    }

    #[test]
    #[should_panic(expected = "row dim")]
    fn mismatched_row_dim_panics() {
        let mut block = SparseBlock::empty(4);
        block.push_row(&SparseVec::zeros(5));
    }

    #[test]
    fn one_link_matches_per_row_spvm_bitwise() {
        let (a, _, _) = chain3();
        let block = SparseBlock::from_units(4, &[0, 1, 2, 3]);
        let got = spmm_block_with(&block, &a, &mut ScatterScratch::new());
        for i in 0..4 {
            let single = spvm_with(&SparseVec::unit(4, i), &a, &mut ScatterScratch::new());
            assert_eq!(got.row(i).0, single.indices(), "row {i} structure");
            let same_bits = got
                .row(i)
                .1
                .iter()
                .zip(single.values())
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same_bits, "row {i} values");
        }
    }

    #[test]
    fn chain_matches_per_anchor_propagation_bitwise() {
        let (a, b, c) = chain3();
        let anchors = [3usize, 0, 2];
        let block = SparseBlock::from_units(4, &anchors);
        let got = spmm_block_chain(&block, &[&a, &b, &c]);
        assert_eq!(got.k(), anchors.len());
        assert_eq!(got.dim(), 2);
        for (i, &x) in anchors.iter().enumerate() {
            let single = spvm_chain(&SparseVec::unit(4, x), &[&a, &b, &c]);
            assert_eq!(got.row(i).0, single.indices(), "anchor {x} structure");
            let same_bits = got
                .row(i)
                .1
                .iter()
                .zip(single.values())
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same_bits, "anchor {x} values");
        }
    }

    #[test]
    fn slice_and_append_round_trip() {
        let rows = vec![
            SparseVec::new(5, vec![0, 3], vec![1.0, -2.0]),
            SparseVec::zeros(5),
            SparseVec::new(5, vec![2], vec![7.0]),
            SparseVec::new(5, vec![1, 4], vec![0.5, 9.0]),
        ];
        let block = SparseBlock::from_rows(&rows);
        let head = block.slice_rows(0..2);
        let tail = block.slice_rows(2..4);
        assert_eq!(head.k(), 2);
        assert_eq!(head.row_vec(0), rows[0]);
        assert_eq!(tail.row_vec(1), rows[3]);
        let mut stitched = SparseBlock::empty(5);
        stitched.append(&head);
        stitched.append(&tail);
        assert_eq!(stitched, block);
        // empty slices append as no-ops
        stitched.append(&block.slice_rows(1..1));
        assert_eq!(stitched, block);
    }

    #[test]
    #[should_panic(expected = "block dim")]
    fn appending_a_mismatched_dim_panics() {
        let mut block = SparseBlock::empty(4);
        block.append(&SparseBlock::empty(5));
    }

    #[test]
    fn parallel_chain_is_bit_identical_to_serial() {
        let (a, b, c) = chain3();
        let anchors = [3usize, 0, 2, 1, 3, 0];
        let block = SparseBlock::from_units(4, &anchors);
        let want = spmm_block_chain(&block, &[&a, &b, &c]);
        for threads in [1, 2, 4, 16] {
            let got = spmm_block_chain_parallel(
                &block,
                &[&a, &b, &c],
                crate::pool::ParallelConfig::with_threads(threads),
            );
            assert_eq!(got.indptr, want.indptr, "threads={threads}");
            assert_eq!(got.indices, want.indices, "threads={threads}");
            let same_bits = got
                .values
                .iter()
                .zip(&want.values)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same_bits, "threads={threads}");
        }
        // degenerate shapes route through the serial path
        let empty = SparseBlock::empty(4);
        assert_eq!(
            spmm_block_chain_parallel(&empty, &[&a], crate::pool::ParallelConfig::with_threads(4)),
            spmm_block_chain(&empty, &[&a])
        );
        assert_eq!(
            spmm_block_chain_parallel(&block, &[], crate::pool::ParallelConfig::with_threads(4)),
            block
        );
    }

    #[test]
    fn empty_chain_clones_the_block() {
        let block = SparseBlock::from_units(4, &[1, 2]);
        assert_eq!(spmm_block_chain(&block, &[]), block);
    }

    #[test]
    fn zero_row_block_propagates_to_zero_rows() {
        let (a, b, _) = chain3();
        let got = spmm_block_chain(&SparseBlock::empty(4), &[&a, &b]);
        assert_eq!(got.k(), 0);
        assert_eq!(got.dim(), 5);
    }

    #[test]
    fn cancellation_does_not_duplicate_entries_per_row() {
        // both rows drive acc[0] through 1 → 0 → 1; each must emit once
        let m = Csr::from_triplets(3, 2, [(0u32, 0u32, 1.0), (1, 0, -1.0), (2, 0, 1.0)]);
        let row = SparseVec::new(3, vec![0, 1, 2], vec![1.0, 1.0, 1.0]);
        let block = SparseBlock::from_rows(&[row.clone(), row]);
        let got = spmm_block_with(&block, &m, &mut ScatterScratch::new());
        for i in 0..2 {
            assert_eq!(got.row(i), (&[0u32][..], &[1.0][..]));
        }
    }
}
