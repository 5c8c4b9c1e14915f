//! The four workloads: the seeded network, each workload's query mix,
//! serving configuration and load shape, set-up, reference answers, and
//! the closed- and open-loop load generators that serve a mix and check every
//! answer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hin_core::{Hin, NodeRef};
use hin_query::{CacheConfig, Engine, ExecPolicy, QueryError, QueryOutput};
use hin_serve::{
    RemoteConfig, RemoteServerHandle, Router, RouterConfig, ServeConfig, ShardListener,
    SupervisorConfig, Ticket,
};
use hin_synth::DblpConfig;

use crate::trace::Tracer;

/// The key every workload registers its network under.
pub const DATASET: &str = "dblp";

/// Worker threads of every server the benchmark starts.
pub const SERVE_WORKERS: usize = 2;

/// Anchors drawn per query family in the `hot_*` and `cold_chains` mixes.
pub const ANCHORS_PER_FAMILY: usize = 64;

/// The fixed arrival rate of `anchored_open`, in queries per second. At
/// twice this rate its median latency on 2 cores already climbs past
/// 10 ms, a sign of a growing queue.
pub const OPEN_LOOP_RATE_QPS: f64 = 150.0;

/// The network every workload serves: a DBLP-shaped star schema of 4000
/// papers and 800 authors, generated from `seed`.
pub fn network(seed: u64) -> Hin {
    DblpConfig {
        n_papers: 4000,
        authors_per_area: 200,
        seed,
        ..Default::default()
    }
    .generate()
    .hin
}

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Working set fits the cache; routing, queueing and assembly do the
    /// work.
    HotLocal,
    /// Heavy chains through a cache far smaller than their products.
    ColdChains,
    /// Open-loop anchored traffic over every author.
    AnchoredOpen,
    /// The `hot_local` mix through the wire protocol to a loopback shard.
    HotRemote,
}

/// How requests arrive.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Each client submits its next query when the previous one answers.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
    /// One generator submits on a fixed schedule regardless of answers.
    Open {
        /// Arrivals per second.
        rate_qps: f64,
    },
}

/// Where an anchored family draws its anchors from.
#[derive(Clone, Copy, Debug)]
enum Anchor {
    Author,
    Venue,
    Paper,
    /// The verb takes no anchor.
    Unanchored,
}

/// One query family: a template whose `{}` is replaced by an anchor name.
type Family = (&'static str, Anchor);

/// PathSim, top-k, pathcount and rank over the working set of the `hot_*`
/// workloads.
const HOT_FAMILIES: [Family; 12] = [
    (
        "pathsim author-paper-venue-paper-author from {}",
        Anchor::Author,
    ),
    (
        "pathsim author-paper-term-paper-author from {}",
        Anchor::Author,
    ),
    ("topk 10 author-paper-author from {}", Anchor::Author),
    ("pathcount author-paper-venue from {}", Anchor::Author),
    (
        "pathcount author-paper-term from {} limit 10",
        Anchor::Author,
    ),
    (
        "topk 10 author-paper-venue-paper-author from {}",
        Anchor::Author,
    ),
    (
        "pathsim venue-paper-author-paper-venue from {}",
        Anchor::Venue,
    ),
    (
        "pathsim venue-paper-term-paper-venue from {}",
        Anchor::Venue,
    ),
    (
        "pathcount paper-author-paper-venue from {} limit 10",
        Anchor::Paper,
    ),
    ("rank venue-paper-author limit 10", Anchor::Unanchored),
    ("rank venue-paper-term limit 10", Anchor::Unanchored),
    ("rank author-paper-term limit 10", Anchor::Unanchored),
];

/// The `cold_chains` mix: three expensive SpGEMM chains (APVPA twice,
/// APTPA) and two cheaper ones (VPTPV, PAPV).
///
/// Five families, so that the median lands inside the two APVPA families'
/// cluster rather than in the gap between the cheap and the heavy ones: a
/// median that falls between clusters jumps from run to run.
const HEAVY_FAMILIES: [Family; 5] = [
    (
        "pathsim author-paper-venue-paper-author from {}",
        Anchor::Author,
    ),
    (
        "pathsim author-paper-term-paper-author from {}",
        Anchor::Author,
    ),
    (
        "topk 10 author-paper-venue-paper-author from {}",
        Anchor::Author,
    ),
    (
        "pathsim venue-paper-term-paper-venue from {}",
        Anchor::Venue,
    ),
    (
        "pathcount paper-author-paper-venue from {} limit 10",
        Anchor::Paper,
    ),
];

/// Author-anchored families for the open-loop workload.
const ANCHORED_FAMILIES: [Family; 6] = [
    (
        "pathsim author-paper-venue-paper-author from {}",
        Anchor::Author,
    ),
    (
        "pathsim author-paper-term-paper-author from {}",
        Anchor::Author,
    ),
    ("topk 10 author-paper-author from {}", Anchor::Author),
    ("pathcount author-paper-venue from {}", Anchor::Author),
    (
        "pathcount author-paper-term from {} limit 10",
        Anchor::Author,
    ),
    (
        "topk 10 author-paper-venue-paper-author from {}",
        Anchor::Author,
    ),
];

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::HotLocal,
        Workload::ColdChains,
        Workload::AnchoredOpen,
        Workload::HotRemote,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLocal => "hot_local",
            Workload::ColdChains => "cold_chains",
            Workload::AnchoredOpen => "anchored_open",
            Workload::HotRemote => "hot_remote",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How requests arrive.
    pub fn load(self) -> Load {
        match self {
            Workload::HotLocal | Workload::HotRemote => Load::Closed { clients: 2 },
            Workload::ColdChains => Load::Closed { clients: 1 },
            Workload::AnchoredOpen => Load::Open {
                rate_qps: OPEN_LOOP_RATE_QPS,
            },
        }
    }

    /// The serving configuration of the workload's server (the shard's,
    /// for `hot_remote`).
    pub fn serve_config(self) -> ServeConfig {
        let (cache, exec) = match self {
            Workload::HotLocal | Workload::HotRemote => {
                (CacheConfig::unbounded(), ExecPolicy::default())
            }
            Workload::ColdChains => (CacheConfig::bounded(256 << 10), ExecPolicy::eager()),
            Workload::AnchoredOpen => (CacheConfig::bounded(2 << 20), ExecPolicy::default()),
        };
        ServeConfig {
            workers: SERVE_WORKERS,
            cache,
            exec,
            ..ServeConfig::default()
        }
    }

    fn families(self) -> &'static [Family] {
        match self {
            Workload::HotLocal | Workload::HotRemote => &HOT_FAMILIES,
            Workload::ColdChains => &HEAVY_FAMILIES,
            Workload::AnchoredOpen => &ANCHORED_FAMILIES,
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator for anchor choice and
/// submission order.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from the network generator's
    /// use of the same seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// A workload's queries: the distinct texts and the order they are
/// submitted in.
pub struct Mix {
    /// Distinct query texts; a query's id is its index here.
    pub queries: Vec<String>,
    /// Family index of each distinct query.
    pub family_of: Vec<usize>,
    /// The first query id of each family.
    pub heads: Vec<usize>,
    /// Submission order, as query ids; the load loops walk it cyclically.
    pub seq: Vec<usize>,
}

impl Mix {
    /// The template of each family, in family order.
    pub fn families(workload: Workload) -> Vec<&'static str> {
        workload.families().iter().map(|f| f.0).collect()
    }

    /// Build `workload`'s mix over `hin`, choosing anchors and order from
    /// `seed`. Anchors are nodes with at least one paper, so every query
    /// has an answer.
    pub fn build(workload: Workload, hin: &Hin, seed: u64) -> Mix {
        let mut rng = Rng::new(seed);
        let per_family = match workload {
            Workload::AnchoredOpen => usize::MAX, // every author with a paper
            _ => ANCHORS_PER_FAMILY,
        };
        let authors = anchors(hin, "author", "paper", per_family, &mut rng);
        let venues = anchors(hin, "venue", "paper", per_family, &mut rng);
        let papers = anchors(hin, "paper", "author", per_family, &mut rng);

        let mut mix = Mix {
            queries: Vec::new(),
            family_of: Vec::new(),
            heads: Vec::new(),
            seq: Vec::new(),
        };
        let mut ids: HashMap<String, usize> = HashMap::new();
        // per family, the query ids of its anchors in anchor order
        let mut by_family: Vec<Vec<usize>> = Vec::new();
        let count = per_family.min(authors.len());
        for (f, &(template, anchor)) in workload.families().iter().enumerate() {
            let pool: &[String] = match anchor {
                Anchor::Author => &authors,
                Anchor::Venue => &venues,
                Anchor::Paper => &papers,
                Anchor::Unanchored => &[],
            };
            let mut family_ids = Vec::with_capacity(count);
            for a in 0..count {
                let text = match anchor {
                    Anchor::Unanchored => template.to_string(),
                    _ => template.replace("{}", &pool[a % pool.len()]),
                };
                let id = *ids.entry(text.clone()).or_insert_with(|| {
                    mix.queries.push(text);
                    mix.family_of.push(f);
                    mix.queries.len() - 1
                });
                family_ids.push(id);
            }
            mix.heads.push(family_ids[0]);
            by_family.push(family_ids);
        }
        // every (family, anchor) pair once per cycle, in seeded order
        mix.seq = by_family.concat();
        rng.shuffle(&mut mix.seq);
        mix
    }

    /// The query id at submission position `pos` (cyclic).
    pub fn at(&self, pos: usize) -> usize {
        self.seq[pos % self.seq.len()]
    }
}

/// Up to `count` names of `ty` nodes linked to at least one `via` node, in
/// seeded order (all of them when `count` exceeds the candidates).
fn anchors(hin: &Hin, ty: &str, via: &str, count: usize, rng: &mut Rng) -> Vec<String> {
    let ty = hin.type_by_name(ty).expect("the DBLP schema has this type");
    let via = hin
        .type_by_name(via)
        .expect("the DBLP schema has this type");
    let adj = hin
        .adjacency(ty, via)
        .expect("the DBLP schema links these types");
    let mut ids: Vec<u32> = (0..hin.node_count(ty) as u32)
        .filter(|&id| adj.row_nnz(id as usize) > 0)
        .collect();
    rng.shuffle(&mut ids);
    ids.truncate(count);
    ids.into_iter()
        .map(|id| hin.node_name(NodeRef { ty, id }).to_string())
        .collect()
}

/// One reference answer per distinct query, from a single-threaded,
/// unbounded, eager engine.
///
/// # Panics
/// Panics when a reference query fails: every workload is built of
/// queries that have answers.
pub fn reference_answers(hin: Arc<Hin>, mix: &Mix) -> Vec<QueryOutput> {
    hin_linalg::set_kernel_threads(1);
    let engine = Engine::with_config(hin, CacheConfig::unbounded(), ExecPolicy::eager());
    let answers = mix
        .queries
        .iter()
        .map(|q| {
            engine
                .execute(q)
                .unwrap_or_else(|e| panic!("reference query `{q}` failed: {e}"))
        })
        .collect();
    hin_linalg::set_kernel_threads(0); // back to the hardware default
    answers
}

/// Exact equality: same verb, object type, names, and score bit patterns.
fn same_answer(got: &QueryOutput, want: &QueryOutput) -> bool {
    got.verb == want.verb
        && got.object_type == want.object_type
        && got.items.len() == want.items.len()
        && got
            .items
            .iter()
            .zip(&want.items)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
}

/// Outcomes of a batch of served queries.
#[derive(Default)]
pub struct Tally {
    /// Queries submitted.
    pub attempted: u64,
    /// Answered, and equal to the reference.
    pub ok: u64,
    /// Answered, but different from the reference.
    pub wrong: u64,
    /// Errors of any kind: shed, unavailable, timed out, failed.
    pub errors: u64,
    /// Latency of each correct answer, ms.
    pub lat_ms: Vec<f64>,
    /// Family of each entry of `lat_ms`.
    pub lat_family: Vec<usize>,
    /// Completion time of each entry of `lat_ms`.
    pub done: Vec<Instant>,
    /// The first wrong answer or error, for the report.
    pub first_problem: Option<String>,
}

/// Most answers per second a load loop reserves room for. A load loop's
/// answer records are reserved up front, so their memory is touched page
/// by page as answers arrive. A vector that doubled inside the measured
/// window would add a step to `peak_rss_mb` that depends on how many
/// answers the window happened to hold.
const MAX_ANSWER_RATE: f64 = 100_000.0;

impl Tally {
    /// An empty tally with room for `answers` answers.
    fn with_capacity(answers: usize) -> Tally {
        Tally {
            lat_ms: Vec::with_capacity(answers),
            lat_family: Vec::with_capacity(answers),
            done: Vec::with_capacity(answers),
            ..Tally::default()
        }
    }

    /// Record one answer to query `id`, checked against `reference`.
    pub fn note(
        &mut self,
        mix: &Mix,
        reference: &[QueryOutput],
        id: usize,
        got: Result<QueryOutput, QueryError>,
        latency: Duration,
        done: Instant,
    ) {
        self.attempted += 1;
        let problem = match got {
            Ok(out) if same_answer(&out, &reference[id]) => {
                self.ok += 1;
                self.lat_ms.push(latency.as_secs_f64() * 1e3);
                self.lat_family.push(mix.family_of[id]);
                self.done.push(done);
                return;
            }
            Ok(_) => {
                self.wrong += 1;
                "wrong answer".to_string()
            }
            Err(e) => {
                self.errors += 1;
                format!("error: {e}")
            }
        };
        self.first_problem
            .get_or_insert_with(|| format!("{problem} to `{}`", mix.queries[id]));
    }

    /// Wrong answers plus errors.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.lat_ms.extend(other.lat_ms);
        self.lat_family.extend(other.lat_family);
        self.done.extend(other.done);
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }
}

/// Anything queries can be submitted to: a router, a server, a remote
/// handle.
pub type Submit<'a> = dyn Fn(String) -> Ticket + Sync + 'a;

/// Submit `ids` all at once, then wait for and check every answer.
fn pass(
    submit: &Submit<'_>,
    ids: impl IntoIterator<Item = usize>,
    mix: &Mix,
    reference: &[QueryOutput],
    tally: &mut Tally,
) {
    let tickets: Vec<(usize, Instant, Ticket)> = ids
        .into_iter()
        .map(|id| (id, Instant::now(), submit(mix.queries[id].clone())))
        .collect();
    for (id, t0, ticket) in tickets {
        let got = ticket.wait();
        let done = Instant::now();
        tally.note(mix, reference, id, got, done - t0, done);
    }
}

/// A running deployment of one workload.
pub struct Deployment {
    /// The router every query goes through.
    pub router: Router,
    /// The loopback shard behind the router (`hot_remote` only).
    shard: Option<ShardListener>,
    /// The network being served.
    pub hin: Arc<Hin>,
}

impl Deployment {
    /// Submit one query through the router.
    pub fn submit(&self, query: String) -> Ticket {
        self.router.submit(DATASET, query)
    }

    /// Stop the router (and shard), joining every thread they started.
    pub fn shutdown(self) {
        let _ = self.router.shutdown();
        if let Some(shard) = self.shard {
            let _ = shard.shutdown();
        }
    }
}

/// Generate the network from `seed`, register it, and warm it — the work
/// `setup_s` times. Answers served while warming are checked into
/// `tally`.
///
/// # Panics
/// Panics when the loopback shard cannot be started or warmed.
pub fn deploy(
    workload: Workload,
    seed: u64,
    mix: &Mix,
    reference: &[QueryOutput],
    tally: &mut Tally,
) -> Deployment {
    let hin = Arc::new(network(seed));
    let router = Router::new(RouterConfig::default());
    let mut shard = None;
    match workload {
        Workload::HotRemote => {
            let listener = ShardListener::start(Arc::clone(&hin), workload.serve_config())
                .expect("start the loopback shard");
            warm_remote(&hin, listener.local_addr(), mix);
            router.register_remote(
                DATASET,
                listener.local_addr(),
                RemoteConfig::default(),
                SupervisorConfig::default(),
            );
            shard = Some(listener);
        }
        _ => {
            router.register_with(DATASET, Arc::clone(&hin), workload.serve_config());
        }
    }
    warm(
        workload,
        &|q| router.submit(DATASET, q),
        mix,
        reference,
        tally,
    );
    Deployment { router, shard, hin }
}

/// The queries set-up serves to warm a deployment. The `hot_*` workloads
/// serve every distinct query once: promotion needs several lazy runs per
/// span, and one pass leaves the whole working set materialized (for
/// `hot_remote` the shard is already warm; the pass dials the router's
/// connections). The others serve one query per family, which spins up
/// threads and pools without pretending to warm a cache too small to hold
/// their products.
pub fn warm_ids(workload: Workload, mix: &Mix) -> Vec<usize> {
    match workload {
        Workload::HotLocal | Workload::HotRemote => (0..mix.queries.len()).collect(),
        Workload::ColdChains | Workload::AnchoredOpen => mix.heads.clone(),
    }
}

/// The warm-up pass of set-up, through `submit`.
pub fn warm(
    workload: Workload,
    submit: &Submit<'_>,
    mix: &Mix,
    reference: &[QueryOutput],
    tally: &mut Tally,
) {
    pass(submit, warm_ids(workload, mix), mix, reference, tally);
}

/// Warm the shard at `addr` through the `Warm` RPC: materialize every
/// family's products in a local engine, encode its cache as a snapshot
/// image, and stream it to the shard.
fn warm_remote(hin: &Arc<Hin>, addr: std::net::SocketAddr, mix: &Mix) {
    let engine = Engine::with_config(
        Arc::clone(hin),
        CacheConfig::unbounded(),
        ExecPolicy::eager(),
    );
    for &id in &mix.heads {
        engine
            .execute(&mix.queries[id])
            .unwrap_or_else(|e| panic!("checkpoint query `{}` failed: {e}", mix.queries[id]));
    }
    let image = engine.snapshot(None).to_bytes();
    let client = RemoteServerHandle::connect(addr, RemoteConfig::default());
    let (loaded, _rejected) = client
        .warm(&image, Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("warm the loopback shard: {e}"));
    assert!(loaded > 0, "the shard loaded none of the checkpoint");
    client.shutdown();
}

/// How much a load loop serves.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Submit until this much time has passed.
    For(Duration),
    /// Submit exactly this many queries.
    Queries(usize),
}

impl Budget {
    /// The most answers a load loop may record under this budget.
    fn answers(self) -> usize {
        match self {
            Budget::For(d) => ((d.as_secs_f64() * MAX_ANSWER_RATE) as usize).min(1 << 24),
            Budget::Queries(n) => n,
        }
    }
}

/// What a load loop measured.
#[derive(Default)]
pub struct Served {
    /// Outcomes and latencies.
    pub tally: Tally,
    /// Wall time from the first submission (or due time) to the last answer.
    pub window_s: f64,
    /// Open loop: how far behind schedule the generator fell, at worst.
    pub late_max_ms: f64,
}

impl Served {
    /// Pool another window's measurements into this one.
    pub fn absorb(&mut self, other: Served) {
        self.tally.merge(other.tally);
        self.window_s += other.window_s;
        self.late_max_ms = self.late_max_ms.max(other.late_max_ms);
    }
}

/// Serve `mix` under `load` until `budget` is spent, checking every answer.
/// With a tracer, each request records `e2e.request` with `e2e.submit` and
/// `e2e.wait` children.
pub fn drive(
    load: Load,
    submit: &Submit<'_>,
    mix: &Mix,
    reference: &[QueryOutput],
    budget: Budget,
    tracer: Option<&Tracer>,
) -> Served {
    match load {
        Load::Closed { clients } => closed_loop(clients, submit, mix, reference, budget, tracer),
        Load::Open { rate_qps } => open_loop(rate_qps, submit, mix, reference, budget, tracer),
    }
}

fn closed_loop(
    clients: usize,
    submit: &Submit<'_>,
    mix: &Mix,
    reference: &[QueryOutput],
    budget: Budget,
    tracer: Option<&Tracer>,
) -> Served {
    // clients draw positions from one counter, so the mix is walked in
    // order whatever the client count
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = Tally::with_capacity(budget.answers());
                    let mut rec = tracer.map(Tracer::recorder);
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let more = match budget {
                            Budget::For(d) => start.elapsed() < d,
                            Budget::Queries(n) => pos < n,
                        };
                        if !more {
                            break;
                        }
                        let id = mix.at(pos);
                        let query = mix.queries[id].clone();
                        let t0 = Instant::now();
                        let ticket = submit(query);
                        let t1 = Instant::now();
                        let got = ticket.wait();
                        let t2 = Instant::now();
                        if let Some(r) = rec.as_mut() {
                            let req = r.request();
                            let root = r.record("e2e.request", 0, req, t0, t2);
                            r.record("e2e.submit", root, req, t0, t1);
                            r.record("e2e.wait", root, req, t1, t2);
                        }
                        // taken after the spans are recorded, so a traced
                        // latency carries what tracing costs
                        let done = Instant::now();
                        tally.note(mix, reference, id, got, done - t0, done);
                    }
                    if let (Some(t), Some(r)) = (tracer, rec) {
                        t.absorb(r);
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    // the first client's tally has room for every answer of the window
    let mut tallies = tallies.into_iter();
    let mut tally = tallies.next().unwrap_or_default();
    for t in tallies {
        tally.merge(t);
    }
    Served {
        tally,
        window_s,
        late_max_ms: 0.0,
    }
}

/// One generator thread submits on a fixed schedule and hands tickets, in
/// order, to a collector (this thread). Latency runs from each query's due
/// time to the collector receiving its answer, so a stalled generator or a
/// slow predecessor is charged to the queries behind it.
fn open_loop(
    rate_qps: f64,
    submit: &Submit<'_>,
    mix: &Mix,
    reference: &[QueryOutput],
    budget: Budget,
    tracer: Option<&Tracer>,
) -> Served {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Ticket)>();
    let start = Instant::now();
    let (tally, late_max_ms) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut late_max = Duration::ZERO;
            for k in 0.. {
                let offset = Duration::from_secs_f64(k as f64 / rate_qps);
                let more = match budget {
                    Budget::For(d) => offset < d,
                    Budget::Queries(n) => k < n,
                };
                if !more {
                    break;
                }
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submitted = Instant::now();
                late_max = late_max.max(submitted - due);
                let id = mix.at(k);
                let ticket = submit(mix.queries[id].clone());
                if tx.send((id, due, submitted, ticket)).is_err() {
                    break; // collector gone: it panicked, the scope reports it
                }
            }
            late_max.as_secs_f64() * 1e3
        });
        let mut tally = Tally::with_capacity(budget.answers());
        let mut rec = tracer.map(Tracer::recorder);
        for (id, due, submitted, ticket) in rx {
            let got = ticket.wait();
            let answered = Instant::now();
            if let Some(r) = rec.as_mut() {
                let req = r.request();
                let root = r.record("e2e.request", 0, req, due, answered);
                r.record("e2e.submit", root, req, due, submitted);
                r.record("e2e.wait", root, req, submitted, answered);
            }
            // taken after the spans are recorded, so a traced latency
            // carries what tracing costs
            let done = Instant::now();
            tally.note(mix, reference, id, got, done - due, done);
        }
        if let (Some(t), Some(r)) = (tracer, rec) {
            t.absorb(r);
        }
        let late = generator.join().expect("generator thread panicked");
        (tally, late)
    });
    Served {
        tally,
        window_s: start.elapsed().as_secs_f64(),
        late_max_ms,
    }
}
