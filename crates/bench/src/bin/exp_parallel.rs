//! Parallel-kernel experiment: what do the row-parallel SpMM kernels and
//! the multi-anchor block kernel buy over their serial / per-anchor
//! baselines?
//!
//! Three phases over deterministic random sparse matrices:
//!
//! 1. **Parallel SpGEMM** — one product, serial `spgemm` vs
//!    `spgemm_parallel` on the pool. Results must be bit-identical; the
//!    ≥ 1.5× scaling gate only applies on machines with ≥ 2 cores (a
//!    1-core box still runs the parallel code path and records the
//!    numbers for trend tracking).
//! 2. **Parallel chain** — a 3-matrix `spmm_chain` vs
//!    `spmm_chain_parallel`, same identity and the same core-gated
//!    assertion.
//! 3. **Block batch** — k same-span anchors propagated one `spvm_chain`
//!    at a time (fresh scratch per anchor, exactly what k independent
//!    anchored queries cost) vs one `spmm_block_chain` over a k-row
//!    [`SparseBlock`]. Rows must be bit-identical; the ≥ 1.3× gate is
//!    unconditional — the win is amortized scratch, not parallelism, so
//!    it holds on a single core.
//!
//! Emits a single JSON object (also written to `BENCH_parallel.json` at
//! the repo root) so the kernel-perf trajectory is recorded.
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_parallel`
//! CI smoke: `cargo run --release -p hin-bench --bin exp_parallel -- --smoke`

use std::time::Instant;

use hin_linalg::{
    spmm_block_chain, spmm_chain, spmm_chain_parallel, spvm_chain, Csr, SparseBlock, SparseVec,
};

/// Deterministic 64-bit LCG (top-33-bit output) — no `rand` dependency,
/// same matrices on every run and every machine.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A random sparse matrix with ~`nnz` entries and small-integer weights
/// (1..=3), so every product entry is exact and bit-comparison is sound.
fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Csr {
    let mut s = seed;
    let triplets: Vec<(u32, u32, f64)> = (0..nnz)
        .map(|_| {
            let r = (lcg(&mut s) as usize % nrows) as u32;
            let c = (lcg(&mut s) as usize % ncols) as u32;
            let w = (lcg(&mut s) % 3 + 1) as f64;
            (r, c, w)
        })
        .collect();
    Csr::from_triplets(nrows, ncols, triplets)
}

/// Min, median and max of one phase's timed reps, in ms. The gates read
/// the median; the report prints all three so the spread is visible.
struct Reps {
    min: f64,
    median: f64,
    max: f64,
}

/// Time `reps` runs of `run`, returning their [`Reps`] plus the last
/// result.
fn time_reps<R>(reps: usize, mut run: impl FnMut() -> R) -> (Reps, R) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        out = Some(run());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    let reps = Reps {
        min: times[0],
        median: times[times.len() / 2],
        max: times[times.len() - 1],
    };
    (reps, out.expect("reps >= 1"))
}

/// Record `key` as the median (the figure the gates use) and
/// `key_min`/`key_max` next to it.
fn set_reps(report: &mut hin_bench::JsonReport, key: &str, reps: &Reps) {
    report.set(key, format!("{:.3}", reps.median));
    report.set(&format!("{key}_min"), format!("{:.3}", reps.min));
    report.set(&format!("{key}_max"), format!("{:.3}", reps.max));
}

/// Panic unless two matrices are bit-identical (structure and value bits).
fn assert_bit_identical(got: &Csr, want: &Csr, context: &str) {
    let (gi, gj, gv) = got.parts();
    let (wi, wj, wv) = want.parts();
    assert_eq!(gi, wi, "{context}: indptr differs");
    assert_eq!(gj, wj, "{context}: indices differ");
    for (g, w) in gv.iter().zip(wv) {
        assert_eq!(g.to_bits(), w.to_bits(), "{context}: value bits differ");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, m, deg, reps, k_anchors) = if smoke {
        (8_000usize, 6_000usize, 6usize, 3usize, 32usize)
    } else {
        (30_000, 20_000, 8, 7, 48)
    };
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    // Force ≥ 2 so the pool path (partition, spawn, append) actually runs
    // even on a 1-core box; the scaling gate below stays core-gated.
    let threads = hin_linalg::kernel_threads().max(2);

    let a = random_csr(n, m, deg * n, 0xA5A5);
    let b = random_csr(m, n, deg * m, 0x5A5A);
    let c = random_csr(n, m, deg * n, 0xC3C3);

    // ── phase 1: serial vs parallel SpGEMM ───────────────────────────────
    let (serial_spgemm, serial_product) = time_reps(reps, || a.spgemm(&b));
    let (parallel_spgemm, parallel_product) = time_reps(reps, || a.spgemm_parallel(&b, threads));
    assert_bit_identical(&parallel_product, &serial_product, "spgemm");
    let (serial_spgemm_ms, parallel_spgemm_ms) = (serial_spgemm.median, parallel_spgemm.median);
    let spgemm_speedup = serial_spgemm_ms / parallel_spgemm_ms.max(1e-9);

    // ── phase 2: serial vs parallel chain ────────────────────────────────
    let mats = [&a, &b, &c];
    let (serial_chain, serial_chain_product) = time_reps(reps, || spmm_chain(&mats));
    let (parallel_chain, parallel_chain_product) =
        time_reps(reps, || spmm_chain_parallel(&mats, threads));
    assert_bit_identical(&parallel_chain_product, &serial_chain_product, "spmm_chain");
    let (serial_chain_ms, parallel_chain_ms) = (serial_chain.median, parallel_chain.median);
    let chain_speedup = serial_chain_ms / parallel_chain_ms.max(1e-9);

    // ── phase 3: per-anchor rows vs one block propagation ────────────────
    let anchors: Vec<usize> = (0..k_anchors).map(|i| (i * 7919) % n).collect();
    let span = [&a, &b];
    let (per_anchor, per_anchor_rows) = time_reps(reps, || {
        anchors
            .iter()
            .map(|&x| spvm_chain(&SparseVec::unit(n, x), &span))
            .collect::<Vec<SparseVec>>()
    });
    let (block, block_rows) = time_reps(reps, || {
        spmm_block_chain(&SparseBlock::from_units(n, &anchors), &span).into_rows()
    });
    assert_eq!(block_rows.len(), per_anchor_rows.len());
    for (i, (got, want)) in block_rows.iter().zip(&per_anchor_rows).enumerate() {
        assert_eq!(got.indices(), want.indices(), "block row {i}: indices");
        for (g, w) in got.values().iter().zip(want.values()) {
            assert_eq!(g.to_bits(), w.to_bits(), "block row {i}: value bits");
        }
    }
    let (per_anchor_ms, block_ms) = (per_anchor.median, block.median);
    let block_speedup = per_anchor_ms / block_ms.max(1e-9);

    let mut report = hin_bench::JsonReport::new();
    report.set("smoke", smoke);
    report.stamp_env(None);
    report.set("pool_threads", threads);
    report.set("n", n);
    report.set("m", m);
    report.set("nnz_a", a.nnz());
    report.set("nnz_b", b.nnz());
    report.set("reps", reps);
    set_reps(&mut report, "serial_spgemm_ms", &serial_spgemm);
    set_reps(&mut report, "parallel_spgemm_ms", &parallel_spgemm);
    report.set("spgemm_speedup", format!("{spgemm_speedup:.2}"));
    set_reps(&mut report, "serial_chain_ms", &serial_chain);
    set_reps(&mut report, "parallel_chain_ms", &parallel_chain);
    report.set("chain_speedup", format!("{chain_speedup:.2}"));
    report.set("k_anchors", k_anchors);
    set_reps(&mut report, "per_anchor_ms", &per_anchor);
    set_reps(&mut report, "block_ms", &block);
    report.set("block_speedup", format!("{block_speedup:.2}"));
    report.print_and_write("BENCH_parallel.json");

    // ── acceptance gates ─────────────────────────────────────────────────
    // Scaling needs hardware that can actually run the workers in
    // parallel; on one core the run still verifies bit-identity and
    // records the numbers.
    if cores >= 2 {
        assert!(
            spgemm_speedup >= 1.5,
            "parallel spgemm must be ≥ 1.5× serial on {cores} cores \
             (serial {serial_spgemm_ms:.3} ms vs parallel \
             {parallel_spgemm_ms:.3} ms = {spgemm_speedup:.2}×)"
        );
        assert!(
            chain_speedup >= 1.5,
            "parallel spmm_chain must be ≥ 1.5× serial on {cores} cores \
             (serial {serial_chain_ms:.3} ms vs parallel \
             {parallel_chain_ms:.3} ms = {chain_speedup:.2}×)"
        );
    } else {
        eprintln!(
            "note: {cores} core(s) available — parallel scaling assertions \
             skipped, timings recorded for trend tracking"
        );
    }
    assert!(
        block_speedup >= 1.3,
        "block batching {k_anchors} anchors must be ≥ 1.3× the per-anchor \
         loop even on one core (per-anchor {per_anchor_ms:.3} ms vs block \
         {block_ms:.3} ms = {block_speedup:.2}×)"
    );
}
