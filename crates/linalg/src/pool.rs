//! Row-block partitioning and the one parallel driver behind the
//! row-parallel sparse kernels.
//!
//! Every output row of a sparse product is independent, so the parallel
//! kernels ([`Csr::spgemm_parallel`](crate::csr::Csr::spgemm_parallel),
//! [`crate::chain::spmm_chain_parallel`],
//! [`crate::block::spmm_block_chain_parallel`]) all go through one
//! driver: partition the rows into contiguous blocks balanced by each
//! row's exact multiply-add count ([`row_blocks`]), then run the blocks
//! ([`run_blocks`]).
//!
//! - **The caller runs block 0.** The other blocks each get a
//!   `std::thread::scope` worker, spawned before the calling thread starts
//!   on block 0 with its own thread-local scratch, so no thread idles
//!   waiting and the serial case spawns nothing. Scoped threads need no
//!   long-lived pool state, and borrowed operands flow into the workers
//!   without `Arc` ceremony.
//! - **Appends replace the stitch.** Block 0 writes into output arrays
//!   reserved for the whole product, and the other blocks' rows are
//!   appended after it in row order, so only the rows of blocks 1.. are
//!   copied once.
//! - **One dispatch strategy.** One static block per worker.
//!
//! Rows inside a block run the *exact* serial row kernel and blocks are
//! joined in row order, so the parallel product is bit-identical to the
//! serial one by construction.
//!
//! # Thread-count resolution
//!
//! The effective worker count is resolved in precedence order:
//!
//! 1. an explicit [`set_kernel_threads`] call (how `hin-serve`'s
//!    `ServeConfig` kernel-threads knob plumbs through),
//! 2. the `HIN_KERNEL_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! [`kernel_threads`] reports the resolved value; benchmark reports stamp
//! it so every recorded number names the worker count that produced it.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default kernel worker count.
pub const KERNEL_THREADS_ENV: &str = "HIN_KERNEL_THREADS";

/// Process-wide explicit worker count; `0` = unset (fall through to the
/// environment / hardware default).
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Worker-count configuration for the parallel kernels.
///
/// A thin value type so callers can resolve, clamp and pass thread counts
/// explicitly (the proptests force `{1, 2, 4}` through it regardless of the
/// machine); [`ParallelConfig::default`] resolves the process-wide count
/// the same way [`kernel_threads`] does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl ParallelConfig {
    /// Exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Resolve from the environment: `HIN_KERNEL_THREADS` when set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        let threads = std::env::var(KERNEL_THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self { threads }
    }

    /// The configured worker count (≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParallelConfig {
    /// The process-wide resolution: explicit [`set_kernel_threads`] >
    /// `HIN_KERNEL_THREADS` > hardware parallelism.
    fn default() -> Self {
        Self {
            threads: kernel_threads(),
        }
    }
}

/// Pin the process-wide kernel worker count (the `ServeConfig` plumbing).
/// `0` clears the override, falling back to environment/hardware
/// resolution.
pub fn set_kernel_threads(threads: usize) {
    KERNEL_THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count the parallel kernels use when the caller doesn't pass
/// one: explicit [`set_kernel_threads`] > `HIN_KERNEL_THREADS` >
/// [`std::thread::available_parallelism`]. Always ≥ 1.
pub fn kernel_threads() -> usize {
    match KERNEL_THREADS.load(Ordering::Relaxed) {
        0 => ParallelConfig::from_env().threads(),
        n => n,
    }
}

/// Partition `0..nrows` into at most `threads` contiguous blocks balanced
/// by `row_weight` (typically per-row multiply-add counts, so nnz-heavy
/// rows don't pile onto one worker). Blocks are non-empty and cover the
/// range in order; fewer than `threads` blocks come back when there are
/// fewer rows (or all the weight fits earlier).
pub fn row_blocks(
    nrows: usize,
    threads: usize,
    mut row_weight: impl FnMut(usize) -> usize,
) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    if nrows == 0 {
        return Vec::new();
    }
    if threads == 1 || nrows == 1 {
        // one block spanning every row — not a 0..nrows index list
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..nrows];
    }
    // Every row weighs at least 1 so empty rows still advance the split
    // points and no block degenerates to zero rows.
    let weights: Vec<u64> = (0..nrows).map(|r| row_weight(r).max(1) as u64).collect();
    let total: u64 = weights.iter().sum();
    let per_block = total.div_ceil(threads as u64).max(1);
    let mut blocks = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (r, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= per_block && r + 1 < nrows {
            blocks.push(start..r + 1);
            start = r + 1;
            acc = 0;
        }
    }
    blocks.push(start..nrows);
    blocks
}

/// Run `work` over each block, returning per-block results in block
/// order: the first block on the calling thread, every other block on its
/// own scoped worker thread. A single block spawns nothing.
pub fn run_blocks<T: Send>(
    blocks: Vec<Range<usize>>,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let Some((first, rest)) = blocks.split_first() else {
        return Vec::new();
    };
    if rest.is_empty() {
        return vec![work(first.clone())];
    }
    let work = &work;
    std::thread::scope(|s| {
        let workers: Vec<_> = rest
            .iter()
            .map(|block| s.spawn(move || work(block.clone())))
            .collect();
        let mut out = Vec::with_capacity(blocks.len());
        out.push(work(first.clone()));
        out.extend(workers.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        out
    })
}

/// The parallel kernels' driver: partition `0..weights.len()` into at most
/// `threads` blocks balanced by `weights` (each row's exact multiply-add
/// count), count them, and [`run_blocks`] them.
pub(crate) fn run_balanced<T: Send>(
    weights: &[usize],
    threads: usize,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let blocks = row_blocks(weights.len(), threads, |r| weights[r]);
    crate::counters::with(|c| {
        c.row_blocks
            .fetch_add(blocks.len() as u64, Ordering::Relaxed);
    });
    run_blocks(blocks, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution_and_clamping() {
        assert_eq!(ParallelConfig::with_threads(0).threads(), 1);
        assert_eq!(ParallelConfig::with_threads(4).threads(), 4);
        assert!(ParallelConfig::from_env().threads() >= 1);
        assert!(kernel_threads() >= 1);
        // explicit override wins, clearing falls back
        set_kernel_threads(7);
        assert_eq!(kernel_threads(), 7);
        assert_eq!(ParallelConfig::default().threads(), 7);
        set_kernel_threads(0);
        assert!(kernel_threads() >= 1);
    }

    #[test]
    fn blocks_cover_contiguously_and_balance_weight() {
        // skewed weights: the heavy head must not drag the whole range
        // into one block
        let w = [100usize, 1, 1, 1, 1, 1, 1, 100];
        let blocks = row_blocks(8, 3, |r| w[r]);
        assert!(!blocks.is_empty() && blocks.len() <= 3);
        assert_eq!(blocks[0].start, 0);
        assert_eq!(blocks.last().unwrap().end, 8);
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "contiguous cover");
            assert!(!pair[0].is_empty());
        }
        // uniform weights split near-evenly
        let even = row_blocks(100, 4, |_| 1);
        assert_eq!(even.len(), 4);
        assert!(even.iter().all(|b| b.len() >= 20));
    }

    #[test]
    fn degenerate_block_shapes() {
        assert!(row_blocks(0, 4, |_| 1).is_empty());
        assert_eq!(row_blocks(1, 4, |_| 1), vec![0..1]);
        assert_eq!(row_blocks(5, 1, |_| 1), vec![0..5]);
        // more threads than rows: at most one block per row
        let blocks = row_blocks(3, 8, |_| 1);
        assert!(blocks.len() <= 3);
        assert_eq!(blocks.last().unwrap().end, 3);
    }

    #[test]
    fn run_blocks_returns_in_block_order() {
        let blocks = row_blocks(64, 4, |_| 1);
        let want: Vec<usize> = blocks.iter().map(|b| b.start).collect();
        let got = run_blocks(blocks, |b| b.start);
        assert_eq!(got, want);
        // the single-block inline path
        #[allow(clippy::single_range_in_vec_init)]
        let one_block = vec![0..9];
        assert_eq!(run_blocks(one_block, |b| b.end), vec![9]);
        assert!(run_blocks(Vec::new(), |b| b.end).is_empty());
    }

    #[test]
    fn caller_runs_the_first_block_and_workers_the_rest() {
        let caller = std::thread::current().id();
        let ran_on = run_blocks(row_blocks(64, 3, |_| 1), |_| std::thread::current().id());
        assert_eq!(ran_on.len(), 3);
        assert_eq!(ran_on[0], caller, "block 0 runs on the calling thread");
        assert!(ran_on[1..].iter().all(|&id| id != caller));
    }
}
