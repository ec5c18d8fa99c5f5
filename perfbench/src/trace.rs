//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds a name, start and end, its parent span (the enclosing
//! span on the same thread) and a task id (one per campaign cell, session
//! or shard). Spans stay in memory until the traced iteration ends. Self
//! time is a span's duration minus the part of it its child spans cover.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Campaign cell, session or shard the work belongs to.
    pub task: u64,
    /// Recording thread (benchmark-local numbering).
    pub thread: u64,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// This thread's benchmark-local id.
pub fn thread_id() -> u64 {
    THREAD.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for task `task`; the innermost
    /// open span on this thread becomes its parent.
    pub fn span<R>(&self, name: &'static str, task: u64, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let thread = thread_id();
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                task,
                thread,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[idx].end_ns = end_ns;
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock poisoned")
    }
}

/// [`Tracer::span`] when tracing, a plain call of `f` otherwise.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, task: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.span(name, task, f),
        None => f(),
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, ns, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Summed self time of the spans named `name`, seconds.
pub fn self_secs(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum::<u64>() as f64
        / 1e9
}

/// Summed self time of every span recorded on `thread`, seconds: how much
/// of that thread's time the spans account for.
pub fn thread_self_secs(spans: &[Span], selfs: &[u64], thread: u64) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.thread == thread)
        .map(|(_, &t)| t)
        .sum::<u64>() as f64
        / 1e9
}

/// Durations of the spans named `name`, seconds, in span order.
pub fn durations_secs(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}
