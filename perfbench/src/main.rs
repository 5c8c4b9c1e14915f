//! `perfbench` — the repository's benchmark of the meta-path serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_local|cold_chains|anchored_open|hot_remote> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload is served through the public API for
//! `--seconds` and the end-to-end metrics are printed; with `--trace 1` the
//! workload is replayed one layer at a time and the per-layer metrics are
//! printed. Human-readable lines come first; the last line of standard
//! output is one JSON object. Every answer is checked against a reference;
//! a wrong answer makes the exit code 1. See `perfbench/README.md`.

mod layers;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use stats::{median, Latency};
use workload::{deploy, drive, Budget, Load, Mix, Tally, Workload};

/// Independent deployments per end-to-end run. Each is set up from scratch
/// and serves an equal slice of the measured window; latencies pool across
/// them. Cache placement hashes differently in every deployment, so
/// pooling averages over placements instead of sampling one.
const DEPLOYMENTS: usize = 3;

/// Set-ups per end-to-end run; `setup_s` is their median. The first
/// [`DEPLOYMENTS`] of them serve the measured window, the rest are only
/// timed, because a 0.1 s set-up is easily moved by noise from outside the
/// program.
const SETUPS: usize = 5;

/// Length of the slices a measured window is cut into to see when other
/// guests took the machine's CPUs.
const SLICE: Duration = Duration::from_secs(1);

/// Largest share of the machine's CPU time other guests may take during a
/// slice for the slice to count as undisturbed.
const STEAL_CLEAN: f64 = 0.02;

/// A run's command line.
pub struct Args {
    /// The workload to serve.
    pub workload: Workload,
    /// Seed of the network, anchors and submission order.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer replay instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <hot_local|cold_chains|anchored_open|hot_remote> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                        return Err(bad(&"must be in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One printed metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line of a run.
pub struct Report {
    /// Every answer matched its reference and every self-check held.
    pub correct: bool,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that failed: errors, shed, timed out, or wrong.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result as one JSON line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The environment every report is stamped with.
fn stamp(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rate = match args.workload.load() {
        Load::Open { rate_qps } => format!("{rate_qps}"),
        Load::Closed { clients } => format!("closed loop, {clients} client(s)"),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} kernel_threads={} rustc=\"{}\" open_loop_rate_qps={rate}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hin_linalg::kernel_threads(),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
}

/// Peak resident memory of this process since the last reset, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far: time this
/// machine's CPUs were runnable but handed to other guests, and all time.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A stretch of a measured window and the share of the machine's CPU time
/// other guests took during it.
struct Slice {
    start: Instant,
    end: Instant,
    steal: f64,
}

/// Run `window` while a sampler thread reads the machine's steal counters
/// every [`SLICE`]; the slices cover the whole of the window.
fn sliced<T>(window: impl FnOnce() -> T) -> (T, Vec<Slice>) {
    let sample = || (Instant::now(), cpu_ticks());
    let first = sample();
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let (out, mut samples) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut samples = vec![first];
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(SLICE)
            {
                samples.push(sample());
            }
            samples
        });
        let out = window();
        drop(stop);
        (out, sampler.join().expect("steal sampler panicked"))
    });
    samples.push(sample());
    let slices = samples
        .windows(2)
        .map(|w| {
            let (t0, (s0, n0)) = w[0];
            let (t1, (s1, n1)) = w[1];
            Slice {
                start: t0,
                end: t1,
                steal: s1.saturating_sub(s0) as f64 / n1.saturating_sub(n0).max(1) as f64,
            }
        })
        .collect();
    (out, slices)
}

/// Reset the peak-resident-memory high-water mark to the current size.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The inputs every run shares: the mix and its reference answers, made
/// from the seed outside any timed section.
pub struct Prepared {
    /// The workload's queries.
    pub mix: Mix,
    /// One reference answer per distinct query.
    pub reference: Vec<hin_query::QueryOutput>,
}

impl Prepared {
    fn new(args: &Args) -> Prepared {
        let t = Instant::now();
        let hin = std::sync::Arc::new(workload::network(args.seed));
        let mix = Mix::build(args.workload, &hin, args.seed);
        let reference = workload::reference_answers(hin, &mix);
        println!(
            "# inputs: {} distinct queries, submission cycle {}, reference answers in {:.3} s",
            mix.queries.len(),
            mix.seq.len(),
            t.elapsed().as_secs_f64()
        );
        Prepared { mix, reference }
    }
}

/// Serve the workload for `--seconds` and report the end-to-end metrics.
///
/// The window is split between [`DEPLOYMENTS`] fresh deployments, and each
/// deployment's window into slices of [`SLICE`]. `p50_ms`, `p99_ms` and
/// `throughput_qps` are taken over the pooled answers of the slices that
/// [`stats::keep_slices`] keeps, so stretches when other guests took the
/// machine's CPUs do not count. Correctness counts every answer.
fn end_to_end(args: &Args, inputs: &Prepared) -> Report {
    let (mix, reference) = (&inputs.mix, &inputs.reference);
    let mut setup_tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut peaks = Vec::with_capacity(DEPLOYMENTS);
    let mut rss_reset = true;
    let mut served = workload::Served::default();
    let mut slices = Vec::new();
    let share = Duration::from_secs_f64(args.seconds / DEPLOYMENTS as f64);
    for i in 0..SETUPS {
        let t = Instant::now();
        let deployment = deploy(args.workload, args.seed, mix, reference, &mut setup_tally);
        setup_s.push(t.elapsed().as_secs_f64());
        if i >= DEPLOYMENTS {
            deployment.shutdown();
            continue;
        }
        rss_reset &= reset_peak_rss();
        let (window, window_slices) = sliced(|| {
            drive(
                args.workload.load(),
                &|q| deployment.submit(q),
                mix,
                reference,
                Budget::For(share),
                None,
            )
        });
        peaks.push(peak_rss_mb());
        deployment.shutdown();
        if let Some(l) = Latency::of(&window.tally.lat_ms) {
            println!(
                "#   deployment {i}: {:.2} queries/s, p50 {:.4} ms, p99 {:.4} ms, n = {}",
                l.n as f64 / window.window_s,
                l.p50,
                l.p99,
                l.n
            );
        }
        slices.extend(window_slices);
        served.absorb(window);
    }

    let t = &served.tally;
    assert_eq!(t.attempted, t.ok + t.failed(), "attempted = ok + failed");
    let setup = median(&setup_s);
    println!(
        "setup_s          {setup:.4} s   (median of {SETUPS} set-ups: {setup_s:.4?}; {} warm-up answers checked)",
        setup_tally.attempted
    );
    let mut correct = setup_tally.failed() == 0 && t.wrong == 0;
    for problem in [&setup_tally.first_problem, &t.first_problem]
        .into_iter()
        .flatten()
    {
        println!("# problem: {problem}");
    }
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: setup,
        unit: "s",
    }];

    let len_s: Vec<f64> = slices
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64())
        .collect();
    let steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
    let keep = stats::keep_slices(&steal, &len_s, STEAL_CLEAN);
    let kept_s: f64 = len_s
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(l, _)| l)
        .sum();
    let mean_steal = |kept_only: bool| {
        let (mut stolen, mut time) = (0.0, 0.0);
        for ((s, l), &k) in steal.iter().zip(&len_s).zip(&keep) {
            if k || !kept_only {
                stolen += s * l;
                time += l;
            }
        }
        100.0 * stolen / time.max(f64::MIN_POSITIVE)
    };
    println!(
        "# cpu steal (other guests' share of machine CPU time): {:.1}% over {:.3} s of windows; {} of {} slices kept ({kept_s:.3} s, {:.1}% steal)",
        mean_steal(false),
        served.window_s,
        keep.iter().filter(|&&k| k).count(),
        slices.len(),
        mean_steal(true),
    );
    let per_slice: Vec<String> = steal.iter().map(|s| format!("{:.1}", 100.0 * s)).collect();
    println!("# steal per slice, %: {}", per_slice.join(" "));
    if mean_steal(true) > 100.0 * STEAL_CLEAN {
        println!(
            "# warning: even the kept slices were disturbed by other guests; timings are inflated"
        );
    }
    let kept_lat: Vec<f64> = t
        .lat_ms
        .iter()
        .zip(&t.done)
        .filter(|&(_, &done)| {
            let i = slices.partition_point(|s| s.end < done);
            keep.get(i).copied().unwrap_or(false)
        })
        .map(|(&l, _)| l)
        .collect();
    match (Latency::of(&kept_lat), Latency::of(&t.lat_ms)) {
        (Some(l), Some(whole)) => {
            let qps = l.n as f64 / kept_s;
            println!(
                "p50_ms           {:.4} ms  (n = {} answers in kept slices; all {} answers: p50 {:.4} ms)",
                l.p50, l.n, whole.n, whole.p50
            );
            println!(
                "p99_ms           {:.4} ms  ({} samples beyond it, max {:.4} ms, mean {:.4} ms; all answers: p99 {:.4} ms, {} beyond, max {:.4} ms)",
                l.p99, l.beyond_p99, l.max, l.mean, whole.p99, whole.beyond_p99, whole.max
            );
            println!(
                "throughput_qps   {qps:.2} queries/s  ({} correct answers in {kept_s:.3} s of kept slices; all: {} in {:.3} s)",
                l.n, t.ok, served.window_s
            );
            if l.beyond_p99 < 10 {
                println!(
                    "# warning: only {} samples beyond p99; the run is too short for its p99",
                    l.beyond_p99
                );
            }
            metrics.push(Metric {
                name: "p50_ms",
                value: l.p50,
                unit: "ms",
            });
            metrics.push(Metric {
                name: "p99_ms",
                value: l.p99,
                unit: "ms",
            });
            metrics.push(Metric {
                name: "throughput_qps",
                value: qps,
                unit: "queries/s",
            });
        }
        _ => {
            println!("# problem: no query was answered correctly in the kept slices");
            correct = false;
        }
    }
    for (f, template) in Mix::families(args.workload).into_iter().enumerate() {
        let lat: Vec<f64> = t
            .lat_ms
            .iter()
            .zip(&t.lat_family)
            .filter(|&(_, &g)| g == f)
            .map(|(&l, _)| l)
            .collect();
        if let Some(l) = Latency::of(&lat) {
            println!(
                "#   family {f:>2}: p50 {:>9.4} ms  p99 {:>9.4} ms  n = {:<6} {template}",
                l.p50, l.p99, l.n
            );
        }
    }
    let success = t.ok as f64 / t.attempted.max(1) as f64;
    println!(
        "success_ratio    {success:.6}  (attempted {}, ok {}, wrong {}, errors {}; error_rate {:.6})",
        t.attempted,
        t.ok,
        t.wrong,
        t.errors,
        t.failed() as f64 / t.attempted.max(1) as f64
    );
    // Later deployments start on heap pages their torn-down predecessors
    // left with the allocator; the first window alone shows the program's
    // own footprint.
    let peak_rss = peaks[0];
    println!("peak_rss_mb      {peak_rss:.3} MiB  (first window; all windows {peaks:.3?})");
    if !rss_reset {
        // the mark would still hold the reference engine's peak
        println!("# problem: the peak-memory mark could not be reset after set-up");
        correct = false;
    }
    if let Load::Open { .. } = args.workload.load() {
        println!(
            "# open loop: generator at most {:.3} ms late",
            served.late_max_ms
        );
    }
    metrics.extend([
        Metric {
            name: "success_ratio",
            value: success,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ]);
    Report {
        correct,
        attempted: t.attempted,
        failed: t.failed(),
        metrics,
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    stamp(&args);
    let inputs = Prepared::new(&args);
    let report = if args.trace {
        layers::run(&args, &inputs)
    } else {
        end_to_end(&args, &inputs)
    };
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
