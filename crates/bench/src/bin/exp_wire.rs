//! Wire-protocol experiment: what does crossing a process boundary cost,
//! and how fast does the supervision stack put a dead shard back?
//!
//! Three measurements against the same synthetic bibliographic network:
//!
//! 1. **Wire tax** — the serving workload through an in-process `Server`
//!    vs through `ShardListener` + `RemoteServerHandle` on loopback TCP,
//!    per-query latency histograms for both, plus a byte-identity parity
//!    check between the two answer streams.
//! 2. **Retry overhead** — the same remote workload with seeded frame
//!    corruption on ~10% of responses; the checksum rejects the frame,
//!    the client retries, and the latency delta is the price of the
//!    retry schedule (answers must stay byte-identical throughout).
//! 3. **Time-to-recovery** — a remote shard with a kill budget dies
//!    mid-workload; the router's supervisor fails over to a local server
//!    warm-started from the last checkpoint. The failover duration lands
//!    in the router's histogram, and a probe loop measures wall-clock
//!    time from the first typed failure to the first correct answer.
//!
//! Emits a single JSON object (also written to `BENCH_wire.json` at the
//! repo root) so the fault-tolerance trajectory is recorded from the
//! first PR that serves across processes.
//!
//! Run with: `cargo run --release -p hin-bench --bin exp_wire`
//! CI smoke: `cargo run --release -p hin-bench --bin exp_wire -- --smoke`

use std::sync::Arc;
use std::time::{Duration, Instant};

use hin_query::{ExecPolicy, QueryError, QueryOutput};
use hin_serve::faultinject::{FaultConfig, FaultInjector};
use hin_serve::{
    FailoverConfig, RemoteConfig, RemoteServerHandle, Router, RouterConfig, ServeConfig, Server,
    ShardListener, SupervisorConfig,
};
use hin_synth::DblpConfig;
use hin_telemetry::Histogram;

fn eager_serve() -> ServeConfig {
    ServeConfig {
        workers: 2,
        exec: ExecPolicy::eager(),
        ..ServeConfig::default()
    }
}

/// Run every query through `submit`, waiting each ticket, recording
/// per-query latency; returns the answer stream for parity checks.
fn timed_pass(
    queries: &[String],
    hist: &Histogram,
    submit: impl Fn(String) -> hin_serve::Ticket,
) -> Vec<Result<QueryOutput, QueryError>> {
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let t0 = Instant::now();
        let got = submit(q.clone()).wait();
        hist.record_duration(t0.elapsed());
        answers.push(got);
    }
    answers
}

fn quantiles_us(hist: &Histogram) -> (f64, u64, u64) {
    let snap = hist.snapshot();
    (
        snap.mean() / 1e3,
        snap.quantile(0.5) / 1_000,
        snap.quantile(0.99) / 1_000,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_papers, anchors, passes) = if smoke { (600, 8, 2) } else { (2_500, 24, 5) };

    let data = DblpConfig {
        n_areas: 4,
        authors_per_area: 60,
        n_papers,
        noise: 0.05,
        seed: 11,
        ..Default::default()
    }
    .generate();
    let hin = Arc::new(data.hin);
    let queries = hin_bench::serve_workload(anchors);

    // ── 1. wire tax: in-process server vs loopback remote ────────────────
    let local = Server::start(Arc::clone(&hin), eager_serve());
    let local_hist = Histogram::new();
    // warm pass populates the cache so both sides measure the serving
    // path, not first-touch materialization
    let reference = timed_pass(&queries, &Histogram::new(), |q| local.submit(q));
    for _ in 0..passes {
        timed_pass(&queries, &local_hist, |q| local.submit(q));
    }

    let listener = ShardListener::start(Arc::clone(&hin), eager_serve()).expect("bind shard");
    let remote = RemoteServerHandle::connect(listener.local_addr(), RemoteConfig::default());
    let remote_hist = Histogram::new();
    let mut mismatches = 0usize;
    let warm = timed_pass(&queries, &Histogram::new(), |q| remote.submit(q));
    mismatches += warm.iter().zip(&reference).filter(|(g, w)| g != w).count();
    for _ in 0..passes {
        let answers = timed_pass(&queries, &remote_hist, |q| remote.submit(q));
        mismatches += answers
            .iter()
            .zip(&reference)
            .filter(|(g, w)| g != w)
            .count();
    }
    let clean_stats = remote.shutdown();
    listener.shutdown();
    let (local_mean_us, local_p50_us, local_p99_us) = quantiles_us(&local_hist);
    let (remote_mean_us, remote_p50_us, remote_p99_us) = quantiles_us(&remote_hist);

    // ── 2. retry overhead under seeded frame corruption ──────────────────
    let listener = ShardListener::start_with_faults(
        Arc::clone(&hin),
        eager_serve(),
        FaultInjector::new(FaultConfig {
            seed: 0x11BE,
            corrupt_per_mille: 100,
            ..FaultConfig::default()
        }),
    )
    .expect("bind faulty shard");
    let faulty = RemoteServerHandle::connect(
        listener.local_addr(),
        RemoteConfig {
            retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            ..RemoteConfig::default()
        },
    );
    let faulty_hist = Histogram::new();
    let warm = timed_pass(&queries, &Histogram::new(), |q| faulty.submit(q));
    mismatches += warm.iter().zip(&reference).filter(|(g, w)| g != w).count();
    for _ in 0..passes {
        let answers = timed_pass(&queries, &faulty_hist, |q| faulty.submit(q));
        mismatches += answers
            .iter()
            .zip(&reference)
            .filter(|(g, w)| g != w)
            .count();
    }
    let faulty_stats = faulty.shutdown();
    let corrupted = listener.fault_stats().corrupted;
    listener.shutdown();
    let (faulty_mean_us, faulty_p50_us, faulty_p99_us) = quantiles_us(&faulty_hist);

    // ── 3. failover: kill the remote, time the warm resurrection ─────────
    let dir = std::env::temp_dir().join(format!("exp_wire_{}", std::process::id()));
    let router = Router::new(RouterConfig {
        serve: eager_serve(),
        ..RouterConfig::default()
    });
    router.register("dblp", Arc::clone(&hin));
    for q in &queries {
        let _ = router.submit("dblp", q.clone()).wait();
    }
    let written = router.checkpoint(&dir).expect("checkpoint");
    router.evict("dblp");

    let kill_after = (queries.len() / 2).max(5) as u64;
    let listener = ShardListener::start_with_faults(
        Arc::clone(&hin),
        eager_serve(),
        FaultInjector::new(FaultConfig {
            kill_after: Some(kill_after),
            ..FaultConfig::default()
        }),
    )
    .expect("bind doomed shard");
    router.register_remote(
        "dblp",
        listener.local_addr(),
        RemoteConfig {
            retries: 1,
            connect_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(10),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
            ..RemoteConfig::default()
        },
        SupervisorConfig {
            interval: Duration::from_millis(25),
            ping_timeout: Duration::from_millis(250),
            failure_threshold: 2,
            failover: Some(FailoverConfig {
                hin: Arc::clone(&hin),
                checkpoint: written[0].1.clone(),
            }),
        },
    );

    // drive the shard into its kill budget, then probe until the router
    // answers correctly again: that wall-clock gap is the outage window
    let probe = &queries[0];
    let want = &reference[0];
    let mut first_failure: Option<Instant> = None;
    let outage_deadline = Instant::now() + Duration::from_secs(60);
    let recovery_wall_ms = loop {
        assert!(
            Instant::now() < outage_deadline,
            "failover never restored service"
        );
        let got = router
            .submit("dblp", probe.clone())
            .wait_timeout(Duration::from_secs(10));
        match (&got, first_failure) {
            (Err(QueryError::Unavailable(_)), None) => first_failure = Some(Instant::now()),
            (got, Some(t0)) if got == want => break t0.elapsed().as_secs_f64() * 1e3,
            _ => {}
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let stats = router.stats();
    let failover_snap = stats.failover_ns.clone();
    // after recovery the whole workload must still be byte-identical
    let recovered = timed_pass(&queries, &Histogram::new(), |q| {
        router.submit("dblp", q.clone())
    });
    mismatches += recovered
        .iter()
        .zip(&reference)
        .filter(|(g, w)| g != w)
        .count();
    assert!(listener.fault_stats().killed >= 1, "the kill budget fired");
    let _ = listener.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut report = hin_bench::JsonReport::new();
    report.set("smoke", smoke);
    report.stamp_env(None);
    report.set("workload_queries", queries.len());
    report.set("passes", passes);
    report.set("result_mismatches", mismatches);
    report.set("local_mean_us", format!("{local_mean_us:.1}"));
    report.set("local_p50_us", local_p50_us);
    report.set("local_p99_us", local_p99_us);
    report.set("remote_mean_us", format!("{remote_mean_us:.1}"));
    report.set("remote_p50_us", remote_p50_us);
    report.set("remote_p99_us", remote_p99_us);
    report.set(
        "wire_tax_mean_us",
        format!("{:.1}", remote_mean_us - local_mean_us),
    );
    report.set("clean_retries", clean_stats.retries);
    report.set("corrupt_mean_us", format!("{faulty_mean_us:.1}"));
    report.set("corrupt_p50_us", faulty_p50_us);
    report.set("corrupt_p99_us", faulty_p99_us);
    report.set(
        "retry_overhead_mean_us",
        format!("{:.1}", faulty_mean_us - remote_mean_us),
    );
    report.set("corrupt_frames", corrupted);
    report.set("corrupt_retries", faulty_stats.retries);
    report.set("failovers", stats.failovers);
    report.set(
        "failover_ms_mean",
        format!("{:.2}", failover_snap.mean() / 1e6),
    );
    report.set(
        "failover_ms_max",
        format!("{:.2}", failover_snap.max() as f64 / 1e6),
    );
    report.set("recovery_wall_ms", format!("{recovery_wall_ms:.1}"));
    report.print_and_write("BENCH_wire.json");

    // ── acceptance gates ─────────────────────────────────────────────────
    assert_eq!(
        mismatches, 0,
        "remote, corrupted-wire, and post-failover answers must all be \
         byte-identical to the in-process reference"
    );
    assert!(
        faulty_stats.retries > 0,
        "10% frame corruption must exercise the retry schedule"
    );
    assert_eq!(stats.failovers, 1, "exactly one warm failover");
    assert!(
        !failover_snap.is_empty(),
        "time-to-recovery was recorded in the failover histogram"
    );
}
