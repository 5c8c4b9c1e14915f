//! The one row-scatter kernel behind every sparse product in the crate.
//!
//! [`Csr::spgemm`], [`crate::spvec::spvm`] and
//! [`crate::block::spmm_block_with`] all compute rows of `lhs · rhs` where
//! `lhs` is a run of sparse rows: a whole matrix or a row range of one, a
//! k-row [`SparseBlock`], or a single [`crate::SparseVec`]. [`Rows`] borrows
//! any of them as CSR-shaped slices, and [`scatter_rows`] multiplies them
//! into a [`SparseBlock`]. Keeping one loop means one place to reason about
//! bit-identity, and every output row of every kernel is the same function
//! of its input row.

use std::cell::Cell;
use std::ops::Range;

use crate::block::SparseBlock;
use crate::csr::Csr;

/// A row is gathered densely when `flops * DENSE_ROW_FACTOR >= ncols`: its
/// exact multiply-add count, which bounds its output nnz from above, says
/// it may fill a quarter of the columns or more. Below that the sorted
/// touched list is cheaper than a walk over every column.
const DENSE_ROW_FACTOR: usize = 4;

/// Reusable dense-accumulator scratch for the sparse products
/// ([`Csr::spgemm_with`], [`crate::spvec::spvm_with`],
/// [`crate::block::spmm_block_with`]).
///
/// Each output row is scattered into `acc`, one slot per output column,
/// and every column the row reaches gets its `seen` marker set. The row is
/// then gathered back out in ascending column order, one of two ways,
/// chosen by the row's exact multiply-add count:
///
/// - **dense rows** walk every column once and emit the marked ones
///   without a branch, so no list of columns is kept or sorted;
/// - **sparse rows** also push each newly marked column onto `touched`,
///   then sort that list and emit exactly those columns.
///
/// Either way the emitted set is the set of columns the row reached, with
/// explicit and cancelled zeros included, and each column's additions
/// happen in the same order, so the two gathers produce the same bits.
///
/// The buffers are as wide as the widest product seen, so chained products
/// (`spmm_chain`, `spvm_chain`) pay for them once instead of per link.
///
/// Invariant between uses: `acc` is all zeros, `seen` is all clear and
/// `touched` is empty. Every gather restores it as it emits, so a scratch
/// can be shared freely across calls (but not across threads).
#[derive(Debug, Default)]
pub struct ScatterScratch {
    acc: Vec<f64>,
    seen: Vec<u8>,
    touched: Vec<u32>,
}

impl ScatterScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow `acc` and `seen` together to at least `ncols` clear slots.
    fn prepare(&mut self, ncols: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.acc.len() < ncols {
            self.acc.resize(ncols, 0.0);
            self.seen.resize(ncols, 0);
            crate::counters::with(|c| {
                c.scratch_allocs.fetch_add(1, Relaxed);
            });
        } else {
            crate::counters::with(|c| {
                c.scratch_reuses.fetch_add(1, Relaxed);
            });
        }
    }
}

thread_local! {
    static THREAD_SCRATCH: Cell<ScatterScratch> = Cell::new(ScatterScratch::new());
}

/// Run `f` with this thread's own scratch, so repeated products on one
/// thread (a server worker's, or the caller's block of a parallel product)
/// reuse one set of buffers. The scratch is taken out of its slot for the
/// call: a nested call gets a fresh one, and a panic drops the buffers
/// instead of leaving dirty ones behind.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut ScatterScratch) -> R) -> R {
    THREAD_SCRATCH.with(|slot| {
        let mut scratch = slot.take();
        let out = f(&mut scratch);
        slot.set(scratch);
        out
    })
}

/// A borrowed run of sparse rows: row `i` is
/// `indices[indptr[i]..indptr[i + 1]]` with parallel `values`.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    indptr: &'a [usize],
    indices: &'a [u32],
    values: &'a [f64],
}

impl<'a> Rows<'a> {
    pub(crate) fn new(indptr: &'a [usize], indices: &'a [u32], values: &'a [f64]) -> Self {
        debug_assert!(!indptr.is_empty());
        Self {
            indptr,
            indices,
            values,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Rows `range` of this run.
    pub(crate) fn slice(self, range: Range<usize>) -> Self {
        Self {
            indptr: &self.indptr[range.start..=range.end],
            ..self
        }
    }

    /// Exact multiply-adds of each row of `self · rhs`: each entry
    /// `(i, k)` scatters row `k` of `rhs`.
    pub(crate) fn flops(self, rhs: &Csr) -> Vec<usize> {
        let rp = rhs.parts().0;
        self.indptr
            .windows(2)
            .map(|w| {
                self.indices[w[0]..w[1]]
                    .iter()
                    .map(|&k| rp[k as usize + 1] - rp[k as usize])
                    .sum()
            })
            .collect()
    }
}

/// An empty output block for `rows` rows of width `dim` doing `flops`
/// multiply-adds, with its arrays reserved so the rows append without
/// reallocating: the expected nnz (capped by `flops`, which bounds it from
/// above) plus room for one dense gather.
pub(crate) fn output(dim: usize, rows: usize, flops: usize) -> SparseBlock {
    let expected = crate::chain::spmm_nnz_estimate(rows, dim, flops as f64).ceil() as usize;
    let dense_room = if flops.saturating_mul(DENSE_ROW_FACTOR) >= dim {
        dim
    } else {
        0
    };
    let nnz = expected.min(flops) + dense_room;
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0);
    SparseBlock {
        dim,
        indptr,
        indices: Vec::with_capacity(nnz),
        values: Vec::with_capacity(nnz),
    }
}

/// One link of a vector or block propagation: the rows of `lhs · m`,
/// counted as one `spvm` call per row.
pub(crate) fn propagate(lhs: Rows<'_>, m: &Csr, scratch: &mut ScatterScratch) -> SparseBlock {
    let flops = lhs.flops(m);
    let total: usize = flops.iter().sum();
    crate::counters::with(|c| {
        use std::sync::atomic::Ordering::Relaxed;
        c.spvm_calls.fetch_add(lhs.len() as u64, Relaxed);
        c.spvm_flops.fetch_add(total as u64, Relaxed);
    });
    let mut out = output(m.ncols(), lhs.len(), total);
    scatter_rows(lhs, &flops, m, scratch, &mut out);
    out
}

/// Append the rows of `lhs · rhs` to `out`, given each row's exact
/// multiply-add count in `flops` (see [`Rows::flops`]).
pub(crate) fn scatter_rows(
    lhs: Rows<'_>,
    flops: &[usize],
    rhs: &Csr,
    scratch: &mut ScatterScratch,
    out: &mut SparseBlock,
) {
    debug_assert_eq!(flops.len(), lhs.len());
    debug_assert_eq!(out.dim, rhs.ncols());
    let ncols = rhs.ncols();
    let (rp, ri, rv) = rhs.parts();
    scratch.prepare(ncols);
    let ScatterScratch { acc, seen, touched } = scratch;
    for (r, &row_flops) in flops.iter().enumerate() {
        let dense = row_flops * DENSE_ROW_FACTOR >= ncols;
        let (lo, hi) = (lhs.indptr[r], lhs.indptr[r + 1]);
        for (&k, &va) in lhs.indices[lo..hi].iter().zip(&lhs.values[lo..hi]) {
            let span = rp[k as usize]..rp[k as usize + 1];
            let (cols, vals) = (&ri[span.clone()], &rv[span]);
            if dense {
                for (&c, &vb) in cols.iter().zip(vals) {
                    acc[c as usize] += va * vb;
                    seen[c as usize] = 1;
                }
            } else {
                for (&c, &vb) in cols.iter().zip(vals) {
                    if seen[c as usize] == 0 {
                        seen[c as usize] = 1;
                        touched.push(c);
                    }
                    acc[c as usize] += va * vb;
                }
            }
        }
        if dense {
            gather_dense(&mut acc[..ncols], &mut seen[..ncols], out);
        } else {
            touched.sort_unstable();
            out.indices.extend_from_slice(touched);
            out.values.reserve(touched.len());
            for &c in touched.iter() {
                out.values.push(acc[c as usize]);
                acc[c as usize] = 0.0;
                seen[c as usize] = 0;
            }
            touched.clear();
        }
        out.indptr.push(out.indices.len());
    }
}

/// Emit every marked column of one row in ascending order, clearing `acc`
/// and `seen` as it goes. Each column is written to the next free slot
/// and the slot is kept only when the column is marked (`len += seen[c]`),
/// so the walk has no data-dependent branch.
fn gather_dense(acc: &mut [f64], seen: &mut [u8], out: &mut SparseBlock) {
    let ncols = acc.len();
    let base = out.indices.len();
    out.indices.resize(base + ncols, 0);
    out.values.resize(base + ncols, 0.0);
    let (idx, val) = (&mut out.indices[base..], &mut out.values[base..]);
    let mut len = 0;
    for c in 0..ncols {
        idx[len] = c as u32;
        val[len] = acc[c];
        len += seen[c] as usize;
        acc[c] = 0.0;
        seen[c] = 0;
    }
    out.indices.truncate(base + len);
    out.values.truncate(base + len);
}
