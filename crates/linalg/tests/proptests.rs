//! Property tests for the linear-algebra kernels.

use proptest::prelude::*;

use hin_linalg::eigen::jacobi_eigen;
use hin_linalg::solve::solve_linear;
use hin_linalg::vector::dot;
use hin_linalg::{Csr, DMat};

fn triplets(n: usize, max: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..n as u32, 0..n as u32, -10.0f64..10.0), 0..max)
}

fn rect_triplets(nr: usize, nc: usize, max: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..nr as u32, 0..nc as u32, -10.0f64..10.0), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_get_matches_triplet_sum(ts in triplets(6, 20)) {
        let m = Csr::from_triplets(6, 6, ts.clone());
        // accumulate expected values
        let mut expect = std::collections::HashMap::new();
        for (r, c, v) in ts {
            *expect.entry((r, c)).or_insert(0.0) += v;
        }
        for ((r, c), v) in expect {
            prop_assert!((m.get(r as usize, c as usize) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_transpose_is_involution(ts in triplets(7, 30)) {
        let m = Csr::from_triplets(7, 7, ts);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_is_linear(ts in triplets(5, 15),
                        x in prop::collection::vec(-5.0f64..5.0, 5),
                        y in prop::collection::vec(-5.0f64..5.0, 5),
                        a in -3.0f64..3.0) {
        let m = Csr::from_triplets(5, 5, ts);
        // M(ax + y) == a·Mx + My
        let axy: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let lhs = m.matvec(&axy);
        let mx = m.matvec(&x);
        let my = m.matvec(&y);
        for i in 0..5 {
            prop_assert!((lhs[i] - (a * mx[i] + my[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn matvec_t_equals_transpose_matvec(ts in triplets(6, 25),
                                        x in prop::collection::vec(-5.0f64..5.0, 6)) {
        let m = Csr::from_triplets(6, 6, ts);
        let a = m.matvec_t(&x);
        let b = m.transpose().matvec(&x);
        for i in 0..6 {
            prop_assert!((a[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn spgemm_associates_with_dense(ts1 in triplets(5, 12), ts2 in triplets(5, 12)) {
        let a = Csr::from_triplets(5, 5, ts1);
        let b = Csr::from_triplets(5, 5, ts2);
        let sparse = a.spgemm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-9);
    }

    #[test]
    fn jacobi_reconstructs_symmetric(vals in prop::collection::vec(-5.0f64..5.0, 10)) {
        // build a 4x4 symmetric matrix from 10 free entries
        let mut m = DMat::zeros(4, 4);
        let mut it = vals.into_iter();
        for r in 0..4 {
            for c in r..4 {
                let v = it.next().expect("10 entries");
                m.set(r, c, v);
                m.set(c, r, v);
            }
        }
        let e = jacobi_eigen(&m, 1e-13, 100);
        // eigenvalue sum = trace
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - m.trace()).abs() < 1e-7);
        // eigenvectors orthonormal
        for i in 0..4 {
            for j in 0..4 {
                let d = dot(&e.vectors.col(i), &e.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn solve_linear_residual(vals in prop::collection::vec(-3.0f64..3.0, 9),
                             b in prop::collection::vec(-3.0f64..3.0, 3)) {
        let mut m = DMat::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, vals[r * 3 + c]);
            }
            m.add_to(r, r, 6.0); // diagonal dominance → nonsingular
        }
        let x = solve_linear(&m, &b).expect("dominant");
        let res = m.matvec(&x);
        for i in 0..3 {
            prop_assert!((res[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn codec_round_trip_is_byte_identical(ts in triplets(9, 40)) {
        let m = Csr::from_triplets(9, 9, ts);
        let mut bytes = Vec::new();
        m.to_writer(&mut bytes).expect("vec writes cannot fail");
        assert_eq!(bytes.len(), m.encoded_len());
        let back = Csr::from_reader(&mut bytes.as_slice()).expect("own output decodes");
        prop_assert_eq!(&back, &m);
        // and re-encoding is deterministic: Csr → bytes → Csr → bytes fixed point
        let mut again = Vec::new();
        back.to_writer(&mut again).expect("vec writes cannot fail");
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn codec_rejects_any_single_byte_corruption_or_truncation(ts in triplets(5, 12),
                                                              cut in 0usize..1000) {
        let m = Csr::from_triplets(5, 5, ts);
        let mut bytes = Vec::new();
        m.to_writer(&mut bytes).expect("vec writes cannot fail");
        // truncation anywhere is a typed error, never a panic
        let cut = cut % bytes.len();
        prop_assert!(Csr::from_reader(&mut &bytes[..cut]).is_err());
        // flipping one byte is caught (magic/version/checksum/validation)
        bytes[cut] = bytes[cut].wrapping_add(1);
        prop_assert!(Csr::from_reader(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn arena_views_are_content_equal_and_kernel_transparent(ts in triplets(8, 30)) {
        use hin_linalg::{ArenaBuf, ArenaEntry};
        use std::sync::Arc;

        let m = Csr::from_triplets(8, 8, ts);
        // hand-build the arena layout: [indptr u64s | data f64 bits | indices u32s]
        let (indptr, indices, data) = m.parts();
        let mut bytes = Vec::new();
        for &p in indptr {
            bytes.extend_from_slice(&(p as u64).to_le_bytes());
        }
        let data_off = bytes.len();
        for &v in data {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let indices_off = bytes.len();
        for &c in indices {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        let entry = ArenaEntry {
            nrows: 8,
            ncols: 8,
            nnz: m.nnz(),
            indptr_off: 0,
            indices_off,
            data_off,
        };
        let buf = Arc::new(ArenaBuf::from_bytes(&bytes));
        let view = Csr::from_arena(&buf, entry).expect("valid layout mounts");
        prop_assert_eq!(&view, &m, "views compare equal to owned by content");
        // kernels must not see the backing: same product either way
        prop_assert_eq!(view.spgemm(&view.transpose()), m.spgemm(&m.transpose()));

        // hostile mutations of the entry are typed errors, never panics
        for bad in [
            ArenaEntry { indptr_off: 4, ..entry },             // misaligned
            ArenaEntry { nnz: entry.nnz + 1, ..entry },        // arrays overrun
            ArenaEntry { nrows: usize::MAX, ..entry },         // length overflow
            ArenaEntry { data_off: bytes.len(), ..entry },     // out of bounds
            ArenaEntry { indices_off: 0, ..entry },            // aliases indptr: cols unsorted unless empty
        ] {
            if let Ok(v) = Csr::from_arena(&buf, bad) {
                // an accepted alias must still satisfy every CSR invariant
                prop_assert!(v.nnz() == 0 || v.parts().0.len() == v.nrows() + 1);
            }
        }
    }

    #[test]
    fn parallel_spgemm_is_bit_identical_to_serial(ts1 in rect_triplets(9, 7, 40),
                                                  ts2 in rect_triplets(7, 8, 40)) {
        let a = Csr::from_triplets(9, 7, ts1);
        let b = Csr::from_triplets(7, 8, ts2);
        let serial = a.spgemm(&b);
        let (si, sj, sv) = serial.parts();
        for threads in [1usize, 2, 4] {
            let par = a.spgemm_parallel(&b, threads);
            let (pi, pj, pv) = par.parts();
            prop_assert_eq!(pi, si, "indptr differs at {} threads", threads);
            prop_assert_eq!(pj, sj, "indices differ at {} threads", threads);
            for (x, y) in sv.iter().zip(pv) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                                "value bits differ at {} threads", threads);
            }
        }
    }

    #[test]
    fn parallel_spmm_chain_is_bit_identical_to_serial(ts1 in rect_triplets(8, 6, 30),
                                                      ts2 in rect_triplets(6, 7, 30),
                                                      ts3 in rect_triplets(7, 5, 30)) {
        use hin_linalg::{spmm_chain, spmm_chain_parallel};
        let a = Csr::from_triplets(8, 6, ts1);
        let b = Csr::from_triplets(6, 7, ts2);
        let c = Csr::from_triplets(7, 5, ts3);
        let mats = [&a, &b, &c];
        let serial = spmm_chain(&mats);
        let (si, sj, sv) = serial.parts();
        for threads in [1usize, 2, 4] {
            let par = spmm_chain_parallel(&mats, threads);
            let (pi, pj, pv) = par.parts();
            prop_assert_eq!(pi, si, "indptr differs at {} threads", threads);
            prop_assert_eq!(pj, sj, "indices differ at {} threads", threads);
            for (x, y) in sv.iter().zip(pv) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                                "value bits differ at {} threads", threads);
            }
        }
    }

    #[test]
    fn parallel_block_chain_is_bit_identical_to_serial(ts1 in rect_triplets(8, 6, 30),
                                                       ts2 in rect_triplets(6, 7, 30),
                                                       ts3 in rect_triplets(7, 5, 30),
                                                       anchors in prop::collection::vec(0usize..8, 1..7)) {
        use hin_linalg::{spmm_block_chain, spmm_block_chain_parallel, ParallelConfig, SparseBlock};
        let a = Csr::from_triplets(8, 6, ts1);
        let b = Csr::from_triplets(6, 7, ts2);
        let c = Csr::from_triplets(7, 5, ts3);
        let mats = [&a, &b, &c];
        let block = SparseBlock::from_units(8, &anchors);
        let serial = spmm_block_chain(&block, &mats);
        for threads in [1usize, 2, 4] {
            let par = spmm_block_chain_parallel(&block, &mats, ParallelConfig::with_threads(threads));
            prop_assert_eq!(par.k(), serial.k(), "row count at {} threads", threads);
            for i in 0..serial.k() {
                let (si, sv) = serial.row(i);
                let (pi, pv) = par.row(i);
                prop_assert_eq!(pi, si, "row {} indices at {} threads", i, threads);
                for (x, y) in sv.iter().zip(pv) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(),
                                    "row {} value bits at {} threads", i, threads);
                }
            }
        }
    }

    #[test]
    fn every_product_kernel_is_bit_identical_to_a_dense_order_oracle(
        ta in prop::collection::vec(kernel_entry(KA_ROWS, KA_COLS), 0..40),
        tb in prop::collection::vec(kernel_entry(KA_COLS, KB_COLS), 0..40),
    ) {
        use hin_linalg::{spmm_block_with, spvm_with, ScatterScratch, SparseBlock, SparseVec};
        let (a, b) = kernel_operands(ta, tb);
        let want = dense_order_oracle(&a, &b);
        let same = |got: (&[usize], &[u32], &[f64]), kernel: &str| -> Result<(), String> {
            prop_assert_eq!(got.0, &want.0[..], "{}: indptr", kernel);
            prop_assert_eq!(got.1, &want.1[..], "{}: indices", kernel);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.2), bits(&want.2), "{}: value bits", kernel);
            Ok(())
        };
        same(a.spgemm(&b).parts(), "spgemm")?;
        for threads in [1usize, 2, 4] {
            same(a.spgemm_parallel(&b, threads).parts(), &format!("spgemm_parallel x{threads}"))?;
        }
        // one scratch across every row: a gather that left it dirty would
        // corrupt the rows after it
        let mut scratch = ScatterScratch::new();
        let rows: Vec<SparseVec> = (0..KA_ROWS).map(|r| SparseVec::from_csr_row(&a, r)).collect();
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for row in &rows {
            let got = spvm_with(row, &b, &mut scratch);
            indices.extend_from_slice(got.indices());
            values.extend_from_slice(got.values());
            indptr.push(indices.len());
        }
        same((&indptr, &indices, &values), "spvm_with")?;
        let block = spmm_block_with(&SparseBlock::from_rows(&rows), &b, &mut scratch);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..block.k() {
            let (idx, vals) = block.row(i);
            indices.extend_from_slice(idx);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        same((&indptr, &indices, &values), "spmm_block_with")?;
    }

    #[test]
    fn row_normalized_preserves_sparsity(ts in triplets(6, 20)) {
        let m = Csr::from_triplets(6, 6, ts);
        let n = m.row_normalized();
        prop_assert_eq!(m.nnz(), n.nnz());
        for r in 0..6 {
            prop_assert_eq!(m.row_indices(r), n.row_indices(r));
        }
    }
}

/// Shape of the oracle test's operands `a` (`KA_ROWS × KA_COLS`) and `b`
/// (`KA_COLS × KB_COLS`). The kernels gather a row densely when its
/// multiply-adds × 4 ≥ the output width, here 16: 4 multiply-adds.
const KA_ROWS: usize = 13;
const KA_COLS: usize = 9;
const KB_COLS: usize = 16;

/// One random triplet: negative weights, stored zeros, small integers that
/// cancel exactly, and fractions whose sums round.
fn kernel_entry(nr: usize, nc: usize) -> impl Strategy<Value = (u32, u32, f64)> {
    (0..nr as u32, 0..nc as u32, -3i8..=3, 0.0f64..1.0).prop_map(|(r, c, w, f)| {
        let v = if f < 0.5 {
            f64::from(w)
        } else {
            f64::from(w) * f
        };
        (r, c, v)
    })
}

/// The oracle test's operands; rows 0..5 of `b` and rows 9.. of `a` are
/// fixed. Row 10 of `a` stays empty. Rows 0 and 1 of `b` hold exactly 4
/// and 3 entries, so row 11 of `a` (one entry on row 0) sits exactly at
/// the dense-row rule and row 9 (one entry on row 1) just below it. Row 12
/// stays below it too while its column 3 goes 1 → 0 → 1 through rows 2, 3
/// and 4 of `b`: cancelled, then revived.
fn kernel_operands(ta: Vec<(u32, u32, f64)>, tb: Vec<(u32, u32, f64)>) -> (Csr, Csr) {
    let ta = ta.into_iter().filter(|&(r, _, _)| r < 9).chain([
        (9, 1, -1.5),
        (11, 0, 2.0),
        (12, 2, 1.0),
        (12, 3, 1.0),
        (12, 4, 1.0),
    ]);
    let tb = tb
        .into_iter()
        .filter(|&(r, _, _)| r >= 5)
        .chain([(0, 1, 1.0), (0, 5, -0.0), (0, 9, 0.25), (0, 15, -3.0)])
        .chain([(1, 0, 0.5), (1, 7, 0.0), (1, 14, -2.0)])
        .chain([(2, 3, 1.0), (3, 3, -1.0), (4, 3, 1.0)]);
    (
        Csr::from_triplets(KA_ROWS, KA_COLS, ta),
        Csr::from_triplets(KA_COLS, KB_COLS, tb),
    )
}

/// `a · b` computed independently of the kernels: each row adds
/// `a[r,k] * b[k,c]` into a dense row in `a`'s and then `b`'s row order,
/// and emits every column it reached in ascending order — explicit and
/// cancelled zeros included.
fn dense_order_oracle(a: &Csr, b: &Csr) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
    for r in 0..a.nrows() {
        let mut acc = vec![0.0f64; b.ncols()];
        let mut touched = vec![false; b.ncols()];
        for (&k, &va) in a.row_indices(r).iter().zip(a.row_values(r)) {
            for (&c, &vb) in b
                .row_indices(k as usize)
                .iter()
                .zip(b.row_values(k as usize))
            {
                acc[c as usize] += va * vb;
                touched[c as usize] = true;
            }
        }
        for c in (0..b.ncols()).filter(|&c| touched[c]) {
            indices.push(c as u32);
            values.push(acc[c]);
        }
        indptr.push(indices.len());
    }
    (indptr, indices, values)
}
