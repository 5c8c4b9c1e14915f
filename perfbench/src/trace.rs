//! Spans recorded by the benchmark around each public call it makes.
//!
//! A span is `(id, parent, request, name, start, end)`, with times in
//! nanoseconds since the tracer's epoch. Each thread records into its own
//! [`Recorder`] (no shared lock on the measured path); recorders are
//! absorbed into the [`Tracer`] when their thread is done, and the whole
//! trace is written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the trace, starting at 1.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Spans of one request share this identifier.
    pub request: u64,
    /// Layer-qualified name, e.g. `serve.router.submit_wait`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// The in-memory trace of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A per-thread recorder sharing this trace's clock and id space.
    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Fold a finished recorder's spans into the trace.
    pub fn absorb(&self, recorder: Recorder<'_>) {
        self.spans
            .lock()
            .expect("trace lock poisoned by a panicking recorder")
            .extend(recorder.spans);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace lock").len()
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is a
    /// span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("trace lock");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("trace lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One thread's span buffer.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    /// A fresh request identifier.
    pub fn request(&self) -> u64 {
        self.tracer.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// A span id for a span recorded later with [`Recorder::record_as`],
    /// so spans it causes can name it as their parent before it ends.
    pub fn reserve(&self) -> u64 {
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished interval; returns its span id (the `parent` of
    /// spans it caused).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end)
    }

    /// [`Recorder::record`] under an id from [`Recorder::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let ns = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }
}
