//! The traced run: the workload replayed one layer at a time — kernel,
//! engine, snapshot, server, router, wire — timing only calls into each
//! layer's public functions and reading each layer's public counters.
//!
//! Every answer a replay produces is checked against the reference, and
//! every kernel result against its serial or per-anchor twin. Spans are
//! recorded around each call and written to `perfbench/traces/` at exit.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hin_core::Hin;
use hin_linalg::counters::{self, KernelCounters};
use hin_linalg::{
    spmm_block_chain, spmm_chain_order, spvm_chain, Csr, MatSummary, PlanTree, SparseBlock,
    SparseVec,
};
use hin_query::{parse, resolve, CacheSnapshot, Engine, QueryOutput};
use hin_serve::{
    RemoteConfig, RemoteServerHandle, Router, RouterConfig, ServeConfig, Server, ServerStats,
    ShardListener, TelemetryConfig, Ticket, EXEC_OUTCOMES,
};

use crate::stats::{median, spread, Latency};
use crate::trace::{Recorder, Tracer};
use crate::workload::{self, warm, Budget, Load, Mix, Tally, Workload, DATASET};
use crate::{Args, Metric, Prepared, Report};

/// Fresh servers the under-load server replay is repeated on; counts that
/// depend on cache placement are reported as the median with their range.
const REPEATS: usize = 3;

/// How a per-layer number behaves across runs of one seed.
#[derive(Clone, Copy)]
enum Kind {
    /// A timing: varies with the machine.
    Time,
    /// A count that repeats exactly for a seed: single-threaded,
    /// deterministic replay. Only these can back a count-based claim.
    Exact,
    /// A count that depends on thread timing or per-process hashing;
    /// reported as a median of repeats with its range.
    Varies,
}

/// The per-layer metrics of one traced run, printed as they are added.
struct Layers {
    metrics: Vec<Metric>,
    correct: bool,
    tally: Tally,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, kind: Kind, note: &str) {
        let tag = match kind {
            Kind::Time => "time",
            Kind::Exact => "exact",
            Kind::Varies => "varies",
        };
        println!("{name:<34} {value:>14.4} {unit:<9} [{tag}] {note}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// A count measured once per repeat: the median, with the range. Equal
    /// repeats do not make a count exact by construction, so these are
    /// always marked as varying.
    fn put_counts(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        let (mid, lo, hi) = spread(values);
        let note = if lo == hi {
            format!("same in all {} repeats", values.len())
        } else {
            format!("median of {} repeats, range {lo}..{hi}", values.len())
        };
        self.put(name, mid, unit, Kind::Varies, &note);
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("# problem: {what}");
            self.correct = false;
        }
    }
}

/// Run the per-layer replay of `args.workload`.
pub fn run(args: &Args, inputs: &Prepared) -> Report {
    let (w, mix, reference) = (args.workload, &inputs.mix, &inputs.reference[..]);
    let sink = Arc::new(KernelCounters::default());
    let tracer = Tracer::new();
    let mut out = Layers {
        metrics: Vec::new(),
        correct: true,
        tally: Tally::default(),
    };
    out.check(
        counters::install(Arc::clone(&sink)),
        "kernel counters were already installed; flop counts would read 0",
    );
    let seconds = args.seconds;

    // synth: network generation alone
    let gen: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(workload::network(args.seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.put(
        "synth.generate_s",
        median(&gen),
        "s",
        Kind::Time,
        "median of 3 generations",
    );

    let deployment = workload::deploy(w, args.seed, mix, reference, &mut out.tally);
    let hin = Arc::clone(&deployment.hin);
    served(&mut out, w, &deployment, mix, reference, seconds, &tracer);
    deployment.shutdown();

    server_under_load(&mut out, w, &hin, mix, reference, &sink);
    kernels(&mut out, w, &hin, mix, &tracer, &sink);
    engine(&mut out, w, &hin, mix, reference, &tracer);
    ladder(&mut out, w, &hin, mix, reference, seconds, &tracer);

    println!("# span self time ({} spans):", tracer.len());
    for (name, (n, total, own)) in tracer.self_times() {
        println!("#   {name:<28} n={n:<7} total {total:>10.3} ms  self {own:>10.3} ms");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", w.name(), args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({}): {e}", path.display()),
    }
    if let Some(problem) = &out.tally.first_problem {
        println!("# problem: {problem}");
    }
    let t = &out.tally;
    assert_eq!(t.attempted, t.ok + t.failed(), "attempted = ok + failed");
    Report {
        correct: out.correct && t.wrong == 0,
        attempted: t.attempted,
        failed: t.failed(),
        metrics: out.metrics,
    }
}

/// The workload's own path in four equal windows, alternating untraced and
/// traced so drift between windows cancels: the ratio of mean latencies is
/// the benchmark's tracing overhead. A traced latency ends after its
/// request's spans are recorded, so it carries what recording costs.
fn served(
    out: &mut Layers,
    w: Workload,
    deployment: &workload::Deployment,
    mix: &Mix,
    reference: &[QueryOutput],
    seconds: f64,
    tracer: &Tracer,
) {
    let window = Budget::For(Duration::from_secs_f64(seconds * 0.075));
    let submit = |q: String| deployment.submit(q);
    let (mut plain, mut traced) = ((0.0, 0usize, 0.0), (0.0, 0usize, 0.0));
    let (mut late_max_ms, mut attempted, mut failed) = (0.0f64, 0, 0);
    for round in 0..4 {
        let tracing = round % 2 == 1;
        let s = workload::drive(
            w.load(),
            &submit,
            mix,
            reference,
            window,
            tracing.then_some(tracer),
        );
        let sum = if tracing { &mut traced } else { &mut plain };
        sum.0 += s.tally.lat_ms.iter().sum::<f64>();
        sum.1 += s.tally.lat_ms.len();
        sum.2 += s.window_s;
        if tracing {
            late_max_ms = late_max_ms.max(s.late_max_ms);
            attempted += s.tally.attempted;
            failed += s.tally.failed();
        }
        out.tally.merge(s.tally);
    }
    let mean = |(sum, n, _): (f64, usize, f64)| sum / n.max(1) as f64;
    let qps = |(_, n, secs): (f64, usize, f64)| n as f64 / secs.max(f64::MIN_POSITIVE);
    let note = format!(
        "mean latency {:.4} ms traced / {:.4} ms untraced; {:.1} / {:.1} answers/s",
        mean(traced),
        mean(plain),
        qps(traced),
        qps(plain)
    );
    out.put(
        "trace.overhead_ratio",
        mean(traced) / mean(plain),
        "ratio",
        Kind::Time,
        &note,
    );
    out.put(
        "loadgen.late_max_ms",
        late_max_ms,
        "ms",
        Kind::Time,
        "traced windows",
    );
    out.put(
        "loadgen.attempted",
        attempted as f64,
        "count",
        Kind::Varies,
        "traced windows",
    );
    out.put(
        "loadgen.failed",
        failed as f64,
        "count",
        Kind::Varies,
        "traced windows",
    );
}

/// Queries per repeat of the under-load server replay: fixed per workload,
/// so counts compare across runs.
fn load_queries(w: Workload) -> usize {
    match w {
        Workload::HotLocal | Workload::HotRemote => 6000,
        // the repeats pool to at least 1100 samples for the queue-wait p99
        Workload::ColdChains | Workload::AnchoredOpen => 370,
    }
}

/// Start a server the way the workload configures it and warm it the way
/// set-up does.
fn warm_server(
    w: Workload,
    hin: &Arc<Hin>,
    config: ServeConfig,
    mix: &Mix,
    reference: &[QueryOutput],
    tally: &mut Tally,
) -> Server {
    let server = Server::start(Arc::clone(hin), config);
    warm(w, &|q| server.submit(q), mix, reference, tally);
    server
}

/// The counts the under-load server replay reports, with their units, in
/// the order [`server_under_load`] measures them.
const LOAD_COUNTS: [(&str, &str); 13] = [
    ("serve.server.batch_anchors_mean", "anchors"),
    ("serve.server.shed", "count"),
    ("query.engine.mode_full", "count"),
    ("query.engine.mode_sparse_row", "count"),
    ("query.engine.mode_block_row", "count"),
    ("query.engine.promotions", "count"),
    ("query.cache.hit_ratio", "ratio"),
    ("query.cache.misses", "count"),
    ("query.cache.evictions", "count"),
    ("query.cache.coalesced_waits", "count"),
    ("query.cache.dup_computes", "count"),
    ("query.cache.bytes_over_budget", "bytes"),
    ("linalg.scratch_reuse_ratio", "ratio"),
];

/// The server layer under the workload's load shape, with the server's
/// telemetry capturing every query's stage times: queue wait, dispatch,
/// execution mode and cache outcome, repeated on fresh servers. Stage
/// times pool across the repeats; counts are reported per repeat.
fn server_under_load(
    out: &mut Layers,
    w: Workload,
    hin: &Arc<Hin>,
    mix: &Mix,
    reference: &[QueryOutput],
    sink: &KernelCounters,
) {
    let n = load_queries(w);
    let budget = w.serve_config().cache.byte_budget;
    let (mut queue_wait, mut dispatch, mut scratch_uses) = (Vec::new(), Vec::new(), Vec::new());
    let mut reps: Vec<[f64; LOAD_COUNTS.len()]> = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let config = ServeConfig {
            telemetry: TelemetryConfig {
                enabled: true,
                slow_query: Duration::ZERO, // capture every query
                slow_log: n,
            },
            ..w.serve_config()
        };
        let server = warm_server(w, hin, config, mix, reference, &mut out.tally);
        let handle = server.handle();
        let before = server.stats();
        let k0 = sink.snapshot();
        let stop = AtomicBool::new(false);
        let peak_bytes = AtomicUsize::new(0);
        let served = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    peak_bytes.fetch_max(server.engine().cache().bytes(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let submit = |q: String| server.submit(q);
            let served =
                workload::drive(w.load(), &submit, mix, reference, Budget::Queries(n), None);
            stop.store(true, Ordering::Relaxed);
            served
        });
        let k1 = sink.snapshot();
        let after = server.shutdown();
        // captures land after replies; after shutdown every one is in
        for q in handle.slow_queries() {
            queue_wait.push(q.queue_wait_ns as f64 / 1e3);
            dispatch.push(q.dispatch_ns as f64 / 1e3);
        }
        let d = |f: fn(&ServerStats) -> u64| (f(&after) - f(&before)) as f64;
        let mode = |m: usize| {
            (0..EXEC_OUTCOMES.len())
                .map(|o| after.exec_ns[m][o].count() - before.exec_ns[m][o].count())
                .sum::<u64>() as f64
        };
        let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
        let anchors_n = after.batch_anchors.count() - before.batch_anchors.count();
        let anchors_sum = after.batch_anchors.sum() - before.batch_anchors.sum();
        let allocs = (k1.scratch_allocs - k0.scratch_allocs) as f64;
        let reuses = (k1.scratch_reuses - k0.scratch_reuses) as f64;
        let over = budget.map_or(0, |b| peak_bytes.load(Ordering::Relaxed).saturating_sub(b));
        reps.push([
            anchors_sum as f64 / anchors_n.max(1) as f64,
            d(|s| s.shed + s.shed_expired),
            mode(0),
            mode(1),
            mode(2),
            d(|s| s.promotions),
            hits / (hits + misses).max(1.0),
            misses,
            d(|s| s.cache_evictions),
            d(|s| s.cache_coalesced_waits),
            d(|s| s.cache_dup_computes),
            over as f64,
            reuses / (allocs + reuses).max(1.0),
        ]);
        scratch_uses.push(allocs + reuses);
        out.tally.merge(served.tally);
    }
    for (samples, p50, p99) in [
        (
            &queue_wait,
            "serve.server.queue_wait_p50_us",
            Some("serve.server.queue_wait_p99_us"),
        ),
        (&dispatch, "serve.server.dispatch_p50_us", None),
    ] {
        let Some(l) = Latency::of(samples) else {
            out.check(false, "the server captured no stage samples");
            return;
        };
        let note = format!(
            "{} samples from {REPEATS} fresh servers × {n} queries; {} beyond p99",
            l.n, l.beyond_p99
        );
        out.put(p50, l.p50, "us", Kind::Time, &note);
        if let Some(p99) = p99 {
            out.put(p99, l.p99, "us", Kind::Time, &note);
        }
    }
    for (i, (name, unit)) in LOAD_COUNTS.into_iter().enumerate() {
        out.put_counts(name, &reps.iter().map(|r| r[i]).collect::<Vec<f64>>(), unit);
    }
    println!("#   kernel scratch uses per repeat (the reuse ratio's base): {scratch_uses:?}");
}

/// A resolved meta-path of the mix, with the anchors its queries use.
struct Chain<'h> {
    mats: Vec<&'h Csr>,
    anchors: Vec<usize>,
}

/// Every distinct multi-step path of the workload's families, with up to
/// 32 anchors each, in family order.
fn chains<'h>(hin: &'h Hin, mix: &Mix) -> Vec<Chain<'h>> {
    let mut out: Vec<(Vec<hin_similarity::PathStep>, Chain<'h>)> = Vec::new();
    for q in &mix.queries {
        let resolved = resolve(hin, &parse(q).expect("mix queries parse")).expect("and resolve");
        let steps = resolved.path.steps().to_vec();
        if steps.len() < 2 {
            continue;
        }
        let i = match out.iter().position(|(s, _)| *s == steps) {
            Some(i) => i,
            None => {
                let mats = steps.iter().map(|s| s.matrix(hin)).collect();
                out.push((
                    steps,
                    Chain {
                        mats,
                        anchors: Vec::new(),
                    },
                ));
                out.len() - 1
            }
        };
        let anchors = &mut out[i].1.anchors;
        if let Some(from) = resolved.from {
            if anchors.len() < 32 {
                anchors.push(from.id as usize);
            }
        }
    }
    out.into_iter().map(|(_, c)| c).collect()
}

/// A way to multiply two matrices, and the span name its products record.
struct Product<'f> {
    span: &'static str,
    mul: &'f dyn Fn(&Csr, &Csr) -> Csr,
}

/// Multiply a planned chain with `product`, recording one span per
/// product.
fn eval<'a>(
    mats: &[&'a Csr],
    tree: &PlanTree,
    product: &Product<'_>,
    rec: &mut Recorder<'_>,
    parent: u64,
    request: u64,
) -> Cow<'a, Csr> {
    match tree {
        PlanTree::Leaf(i) => Cow::Borrowed(mats[*i]),
        PlanTree::Span(..) => unreachable!("unpriced chains have no pre-priced spans"),
        PlanTree::Mul(l, r) => {
            let left = eval(mats, l, product, rec, parent, request);
            let right = eval(mats, r, product, rec, parent, request);
            Cow::Owned(rec.span(product.span, parent, request, || {
                (product.mul)(&left, &right)
            }))
        }
    }
}

/// Kernel layer: every chain of the mix through `Csr::spgemm` (serial and
/// row-parallel), and every anchor through `spvm_chain` and the block
/// kernel, on the network's own adjacency matrices.
fn kernels(
    out: &mut Layers,
    w: Workload,
    hin: &Hin,
    mix: &Mix,
    tracer: &Tracer,
    sink: &KernelCounters,
) {
    let chains = chains(hin, mix);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rec = tracer.recorder();
    let (mut serial_ms, mut parallel_ms, mut spvm_us, mut block_us) =
        (vec![], vec![], vec![], vec![]);
    let (mut gemm_flops, mut spvm_flops) = (Vec::new(), Vec::new());
    let mut agree = true;
    let serial_mul = |a: &Csr, b: &Csr| a.spgemm(b);
    let parallel_mul = |a: &Csr, b: &Csr| a.spgemm_parallel(b, threads);
    let serial_product = Product {
        span: "linalg.spgemm",
        mul: &serial_mul,
    };
    let parallel_product = Product {
        span: "linalg.spgemm_parallel",
        mul: &parallel_mul,
    };
    for _ in 0..3 {
        let (mut s_ms, mut p_ms, mut flops) = (0.0, 0.0, 0u64);
        for c in &chains {
            let summaries: Vec<MatSummary> = c.mats.iter().map(|m| MatSummary::from(*m)).collect();
            let plan = spmm_chain_order(&summaries);
            let req = rec.request();
            let k0 = sink.snapshot();
            let (span, t) = (rec.reserve(), Instant::now());
            let serial = eval(&c.mats, &plan.tree, &serial_product, &mut rec, span, req);
            s_ms += t.elapsed().as_secs_f64() * 1e3;
            rec.record_as(span, "linalg.chain", 0, req, t, Instant::now());
            flops += sink.snapshot().spgemm_flops - k0.spgemm_flops;
            let (span, t) = (rec.reserve(), Instant::now());
            let par = eval(&c.mats, &plan.tree, &parallel_product, &mut rec, span, req);
            p_ms += t.elapsed().as_secs_f64() * 1e3;
            rec.record_as(span, "linalg.chain_parallel", 0, req, t, Instant::now());
            agree &= *serial == *par;
        }
        gemm_flops.push(flops as f64);
        serial_ms.push(s_ms);
        parallel_ms.push(p_ms);

        let (mut per, mut blocked, mut n, mut flops) = (0.0, 0.0, 0usize, 0u64);
        for c in chains.iter().filter(|c| !c.anchors.is_empty()) {
            let dim = c.mats[0].nrows();
            let k0 = sink.snapshot();
            let t = Instant::now();
            let rows: Vec<SparseVec> = c
                .anchors
                .iter()
                .map(|&a| {
                    rec.span("linalg.spvm_chain", 0, 0, || {
                        spvm_chain(&SparseVec::unit(dim, a), &c.mats)
                    })
                })
                .collect();
            per += t.elapsed().as_secs_f64() * 1e6;
            flops += sink.snapshot().spvm_flops - k0.spvm_flops;
            let t = Instant::now();
            let block = rec.span("linalg.block_chain", 0, 0, || {
                spmm_block_chain(&SparseBlock::from_units(dim, &c.anchors), &c.mats)
            });
            blocked += t.elapsed().as_secs_f64() * 1e6;
            agree &= block.into_rows() == rows;
            n += c.anchors.len();
        }
        spvm_flops.push(flops as f64);
        spvm_us.push(per / n.max(1) as f64);
        block_us.push(blocked / n.max(1) as f64);
    }
    tracer.absorb(rec);
    out.check(
        agree,
        "a parallel or block kernel result differs from its serial twin",
    );
    let flops = gemm_flops[0];
    out.check(
        gemm_flops.iter().all(|&f| f == flops),
        "SpGEMM flops differ between replays",
    );
    let ms = median(&serial_ms);
    let note = format!(
        "{} chains of the {} mix, median of 3 replays",
        chains.len(),
        w.name()
    );
    out.put(
        "linalg.spgemm.flops",
        flops,
        "count",
        Kind::Exact,
        "per replay; single-threaded",
    );
    out.put("linalg.spgemm.ms", ms, "ms", Kind::Time, &note);
    out.put(
        "linalg.spgemm.mflops_per_s",
        flops / ms / 1e3,
        "Mflop/s",
        Kind::Time,
        "",
    );
    let speedup = ms / median(&parallel_ms);
    out.put(
        "linalg.spgemm_parallel.speedup",
        speedup,
        "ratio",
        Kind::Time,
        &format!("{threads} threads vs serial"),
    );
    let anchors: usize = chains.iter().map(|c| c.anchors.len()).sum();
    out.check(
        spvm_flops.iter().all(|&f| f == spvm_flops[0]),
        "spvm flops differ between replays",
    );
    out.put(
        "linalg.spvm.flops",
        spvm_flops[0],
        "count",
        Kind::Exact,
        &format!("per replay of {anchors} anchors; single-threaded"),
    );
    out.put(
        "linalg.spvm.us_per_anchor",
        median(&spvm_us),
        "us",
        Kind::Time,
        "spvm_chain per anchor",
    );
    out.put(
        "linalg.block.us_per_anchor",
        median(&block_us),
        "us",
        Kind::Time,
        "one block per chain",
    );
}

/// Engine layer: `Engine::plan` and `Engine::execute_traced` on a warm
/// engine, and first executions on fresh engines, all configured like the
/// workload's server.
fn engine(
    out: &mut Layers,
    w: Workload,
    hin: &Arc<Hin>,
    mix: &Mix,
    reference: &[QueryOutput],
    tracer: &Tracer,
) {
    let config = w.serve_config();
    let fresh = || Engine::with_config(Arc::clone(hin), config.cache, config.exec);
    let mut rec = tracer.recorder();
    let warm_engine = fresh();
    for id in workload::warm_ids(w, mix) {
        let got = warm_engine.execute(&mix.queries[id]);
        out.tally
            .note(mix, reference, id, got, Duration::ZERO, Instant::now());
    }
    let n = mix.seq.len().min(400);
    let (mut plan_us, mut exec_us) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for pos in 0..n {
        let id = mix.at(pos);
        let q = &mix.queries[id];
        let req = rec.request();
        let t = Instant::now();
        let plan = rec.span("query.engine.plan", 0, req, || warm_engine.plan(q));
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(plan.is_ok(), "a mix query failed to plan");
        let (got, trace) = rec.span("query.engine.execute", 0, req, || {
            warm_engine.execute_traced(q)
        });
        exec_us.push(trace.exec_ns as f64 / 1e3);
        out.tally
            .note(mix, reference, id, got, Duration::ZERO, Instant::now());
    }
    out.put(
        "query.plan.p50_us",
        median(&plan_us),
        "us",
        Kind::Time,
        &format!("n = {n}, warm engine"),
    );
    out.put(
        "query.engine.exec_warm_p50_us",
        median(&exec_us),
        "us",
        Kind::Time,
        &format!("n = {n}, execute_traced exec_ns"),
    );

    let mut cold_ms = Vec::new();
    for &head in &mix.heads {
        let family: Vec<usize> = (0..mix.queries.len())
            .filter(|&id| mix.family_of[id] == mix.family_of[head])
            .take(3)
            .collect();
        for id in family {
            let e = fresh();
            let (got, trace) = rec.span("query.engine.execute_cold", 0, rec.request(), || {
                e.execute_traced(&mix.queries[id])
            });
            cold_ms.push(trace.exec_ns as f64 / 1e6);
            out.tally
                .note(mix, reference, id, got, Duration::ZERO, Instant::now());
        }
    }
    out.put(
        "query.engine.exec_cold_p50_ms",
        median(&cold_ms),
        "ms",
        Kind::Time,
        &format!("n = {}, fresh engine each", cold_ms.len()),
    );

    // snapshot layer: the warm engine's cache, encoded and restored
    let (mut write_ms, mut restore_ms, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..3 {
        let snapshot = warm_engine.snapshot(None);
        let t = Instant::now();
        let image = rec.span("query.snapshot.write", 0, 0, || snapshot.to_bytes());
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = image.len();
        let target = fresh();
        let t = Instant::now();
        let import = rec.span("query.snapshot.restore", 0, 0, || {
            CacheSnapshot::from_bytes(&image).map(|s| target.restore(&s))
        });
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(
            import.is_ok_and(|i| i.rejected == 0),
            "a snapshot image failed to restore",
        );
    }
    tracer.absorb(rec);
    out.put(
        "query.snapshot.bytes",
        bytes as f64,
        "bytes",
        Kind::Varies,
        "warm engine's cache, whole",
    );
    out.put(
        "query.snapshot.write_ms",
        median(&write_ms),
        "ms",
        Kind::Time,
        "CacheSnapshot::to_bytes",
    );
    out.put(
        "query.snapshot.restore_ms",
        median(&restore_ms),
        "ms",
        Kind::Time,
        "from_bytes + Engine::restore",
    );
}

/// One query, sequentially, through each layer in turn on equally warmed
/// stacks: the engine directly, its server, a twin server with telemetry
/// off, a router and its server's own handle, and a loopback shard over
/// the wire. A layer's tax is the median paired difference against the
/// layer below.
fn ladder(
    out: &mut Layers,
    w: Workload,
    hin: &Arc<Hin>,
    mix: &Mix,
    reference: &[QueryOutput],
    seconds: f64,
    tracer: &Tracer,
) {
    let config = w.serve_config();
    let quiet = ServeConfig {
        telemetry: TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        },
        ..config.clone()
    };
    let tally = &mut out.tally;
    let server = warm_server(w, hin, config.clone(), mix, reference, tally);
    let server_off = warm_server(w, hin, quiet, mix, reference, tally);
    let router = Router::new(RouterConfig::default());
    router.register_with(DATASET, Arc::clone(hin), config.clone());
    warm(w, &|q| router.submit(DATASET, q), mix, reference, tally);
    let router_server = router.handle(DATASET).expect("registered just now");
    let shard = ShardListener::start(Arc::clone(hin), config).expect("start the loopback shard");
    let remote = RemoteServerHandle::connect(shard.local_addr(), RemoteConfig::default());
    warm(w, &|q| remote.submit(q), mix, reference, tally);

    let layers: [(&'static str, &dyn Fn(String) -> Ticket); 5] = [
        ("serve.server.submit_wait", &|q| server.submit(q)),
        ("serve.server_quiet.submit_wait", &|q| server_off.submit(q)),
        ("serve.router.submit_wait", &|q| router.submit(DATASET, q)),
        ("serve.router_server.submit_wait", &|q| {
            router_server.submit(q)
        }),
        ("serve.wire.submit_wait", &|q| remote.submit(q)),
    ];
    let mut rec = tracer.recorder();
    let mut us: [Vec<f64>; 6] = Default::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.25);
    let mut pos = 0;
    while pos < mix.seq.len().min(3000) && (pos < 50 || Instant::now() < deadline) {
        let id = mix.at(pos);
        let q = &mix.queries[id];
        let req = rec.request();
        // rotate which layer goes first, so no layer always runs on the
        // caches the previous one warmed
        for k in 0..us.len() {
            let i = (k + pos) % us.len();
            let t = Instant::now();
            let got = match i {
                0 => rec.span("query.engine.execute", 0, req, || {
                    server.engine().execute(q)
                }),
                _ => {
                    let (name, submit) = layers[i - 1];
                    rec.span(name, 0, req, || submit(q.clone()).wait())
                }
            };
            us[i].push(t.elapsed().as_secs_f64() * 1e6);
            out.tally
                .note(mix, reference, id, got, Duration::ZERO, Instant::now());
        }
        pos += 1;
    }
    tracer.absorb(rec);
    let stats = remote.shutdown();
    let _ = shard.shutdown();
    let _ = router.shutdown();
    let _ = server_off.shutdown();
    let _ = server.shutdown();

    let tax = |upper: usize, lower: usize| {
        let d: Vec<f64> = us[upper]
            .iter()
            .zip(&us[lower])
            .map(|(u, l)| u - l)
            .collect();
        median(&d)
    };
    let note = format!("median paired difference over {pos} sequential queries");
    out.put(
        "serve.server.tax_us",
        tax(1, 0),
        "us",
        Kind::Time,
        &format!("Server submit→wait minus Engine::execute; {note}"),
    );
    out.put(
        "serve.router.tax_us",
        tax(3, 4),
        "us",
        Kind::Time,
        &format!("Router::submit minus its server's handle; {note}"),
    );
    out.put(
        "serve.wire.tax_us",
        tax(5, 1),
        "us",
        Kind::Time,
        &format!("RemoteServerHandle minus local Server; {note}"),
    );
    out.put(
        "telemetry.overhead_ratio",
        median(&us[1]) / median(&us[2]),
        "ratio",
        Kind::Time,
        "median Server latency, telemetry on / off",
    );
    out.put(
        "serve.remote.retries",
        stats.retries as f64,
        "count",
        Kind::Varies,
        "ladder's remote handle",
    );
    out.put(
        "serve.remote.exhausted",
        stats.exhausted as f64,
        "count",
        Kind::Varies,
        "",
    );
    out.put(
        "serve.remote.breaker_rejected",
        stats.breaker_rejected as f64,
        "count",
        Kind::Varies,
        "",
    );
    if let Load::Open { .. } = w.load() {
        println!("# ladder: sequential replay; the open-loop schedule applies to the served windows only");
    }
}
