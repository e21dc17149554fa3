//! In-memory span recorder for the traced runs.
//!
//! Every layer boundary the benchmark can see from outside the program (its
//! own calls into public functions, and the trait seams it wraps) opens a
//! [`Frame`] on a thread-local stack. Closing a frame folds its duration
//! into a per-layer aggregate (count, total, self time) and charges the
//! duration to the enclosing frame as child time, so a layer's self time is
//! its span minus the part its children covered.
//!
//! Frames opened with [`span_with_prefix`] are additionally recorded one by one (name,
//! start, end, parent span, request id); frames opened with [`enter`] —
//! provider reads and source calls, which happen thousands of times per
//! target — are only aggregated. Everything stays in memory until
//! [`write_spans`] writes it out at the end of the run.
//!
//! Recording is off unless [`set_enabled`] turned it on; the untraced runs
//! never reach this module at all, because they do not install the
//! wrappers that call it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One layer's aggregate over every frame closed under its name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Frames closed.
    pub count: u64,
    /// Summed frame durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child frames), in nanoseconds.
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }

    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing recorded span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer name.
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u64,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    /// `(span id, request id)` for frames recorded as spans.
    span: Option<(u64, u64)>,
    /// A leading phase of this frame that is still open: closed by
    /// [`close_prefix`] when the first child of interest starts.
    prefix: Option<&'static str>,
}

#[derive(Default)]
struct Local {
    stack: Vec<Frame>,
    aggs: BTreeMap<&'static str, Agg>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

struct Global {
    aggs: BTreeMap<&'static str, Agg>,
    spans: Vec<Span>,
}

fn global() -> &'static Mutex<Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Mutex::new(Global {
            aggs: BTreeMap::new(),
            spans: Vec::new(),
        })
    })
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn since_origin(t: Instant) -> u64 {
    t.saturating_duration_since(origin()).as_nanos() as u64
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes the frame when dropped.
#[must_use = "the frame closes when the guard drops"]
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            exit();
        }
    }
}

fn push(name: &'static str, span: Option<u64>, prefix: Option<&'static str>) -> Guard {
    if !enabled() {
        return Guard { active: false };
    }
    let span = span.map(|request| (NEXT_SPAN.fetch_add(1, Ordering::Relaxed), request));
    LOCAL.with(|l| {
        l.borrow_mut().stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
            span,
            prefix,
        })
    });
    Guard { active: true }
}

/// Opens an aggregated-only frame for layer `name`.
pub fn enter(name: &'static str) -> Guard {
    push(name, None, None)
}

/// Opens a frame for layer `name` that is also recorded as a span of
/// `request`; its leading phase, up to the first [`close_prefix`] call
/// inside it, is accounted to the layer `prefix` instead of `name`.
pub fn span_with_prefix(name: &'static str, prefix: &'static str, request: u64) -> Guard {
    push(name, Some(request), Some(prefix))
}

fn parent_span(stack: &[Frame]) -> Option<u64> {
    stack.iter().rev().find_map(|f| f.span.map(|(id, _)| id))
}

fn request_of(stack: &[Frame]) -> u64 {
    stack
        .iter()
        .rev()
        .find_map(|f| f.span.map(|(_, r)| r))
        .unwrap_or(0)
}

/// Ends the open leading phase of the innermost frame, if it has one: the
/// time from the frame's start until now (minus the children already
/// charged to it) becomes a frame of the prefix layer.
pub fn close_prefix() {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let l = &mut *l;
        let Some(top) = l.stack.last_mut() else {
            return;
        };
        let Some(prefix) = top.prefix.take() else {
            return;
        };
        let now = Instant::now();
        let dur = now.saturating_duration_since(top.start).as_nanos() as u64;
        let agg = Agg {
            count: 1,
            total_ns: dur,
            self_ns: dur.saturating_sub(top.child_ns),
        };
        top.child_ns = dur;
        let (start, parent) = (top.start, top.span.map(|(id, _)| id));
        let request = request_of(&l.stack);
        l.aggs.entry(prefix).or_default().add(&agg);
        l.spans.push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent,
            name: prefix,
            request,
            start_ns: since_origin(start),
            end_ns: since_origin(now),
        });
    });
}

/// Records a frame of layer `name` that ran from `start` until now with no
/// children, on the current thread (used for gaps between two observed
/// calls, such as the solver between the last source and the refinement).
pub fn record_gap(name: &'static str, start: Instant) {
    if !enabled() {
        return;
    }
    let dur = start.elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += dur;
        }
        l.aggs.entry(name).or_default().add(&Agg {
            count: 1,
            total_ns: dur,
            self_ns: dur,
        });
        if l.stack.is_empty() {
            flush(&mut l);
        }
    });
}

/// Records a span measured by the caller (start and end instants) under
/// `request`, with no parent and no children — used for request-level
/// spans the client times itself.
pub fn record_span(name: &'static str, request: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let dur = end.saturating_duration_since(start).as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.aggs.entry(name).or_default().add(&Agg {
            count: 1,
            total_ns: dur,
            self_ns: dur,
        });
        l.spans.push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name,
            request,
            start_ns: since_origin(start),
            end_ns: since_origin(end),
        });
        if l.stack.is_empty() {
            flush(&mut l);
        }
    });
}

fn exit() {
    let now = Instant::now();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let frame = l.stack.pop().expect("trace frame stack underflow");
        let dur = now.saturating_duration_since(frame.start).as_nanos() as u64;
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += dur;
        }
        l.aggs.entry(frame.name).or_default().add(&Agg {
            count: 1,
            total_ns: dur,
            self_ns: dur.saturating_sub(frame.child_ns),
        });
        if let Some((id, request)) = frame.span {
            let parent = parent_span(&l.stack);
            l.spans.push(Span {
                id,
                parent,
                name: frame.name,
                request,
                start_ns: since_origin(frame.start),
                end_ns: since_origin(now),
            });
        }
        // Threads of the rayon stand-in live for one batch only, so the
        // thread-local buffers are handed over whenever a thread returns to
        // the top level rather than at thread exit.
        if l.stack.is_empty() {
            flush(&mut l);
        }
    });
}

fn flush(l: &mut Local) {
    if l.aggs.is_empty() && l.spans.is_empty() {
        return;
    }
    let mut g = global().lock().expect("trace buffer poisoned");
    for (name, agg) in std::mem::take(&mut l.aggs) {
        g.aggs.entry(name).or_default().add(&agg);
    }
    g.spans.append(&mut l.spans);
}

/// Takes every aggregate and span recorded so far (flushing the calling
/// thread first) and resets the recorder.
pub fn take() -> (BTreeMap<&'static str, Agg>, Vec<Span>) {
    LOCAL.with(|l| flush(&mut l.borrow_mut()));
    let mut g = global().lock().expect("trace buffer poisoned");
    (std::mem::take(&mut g.aggs), std::mem::take(&mut g.spans))
}

/// Writes spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so every assertion on it lives in
    // this one test.
    #[test]
    fn self_time_excludes_children_and_prefix_phase() {
        set_enabled(true);
        {
            let _outer = span_with_prefix("outer", "lead", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            close_prefix();
            {
                let _inner = enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        {
            let _ignored = enter("ignored");
        }
        let (aggs, spans) = take();
        assert!(!aggs.contains_key("ignored"));
        let outer = aggs["outer"];
        let lead = aggs["lead"];
        let inner = aggs["inner"];
        assert_eq!((outer.count, lead.count, inner.count), (1, 1, 1));
        assert!(lead.self_ns >= 2_000_000 && inner.self_ns >= 2_000_000);
        // outer's own self time is only the bookkeeping between phases.
        assert!(outer.self_ns < 1_000_000, "{outer:?}");
        assert_eq!(
            outer.total_ns,
            outer.self_ns + lead.total_ns + inner.total_ns
        );
        let outer_span = spans.iter().find(|s| s.name == "outer").unwrap();
        let lead_span = spans.iter().find(|s| s.name == "lead").unwrap();
        assert_eq!(lead_span.parent, Some(outer_span.id));
        assert_eq!((outer_span.request, lead_span.request), (7, 7));
        assert!(lead_span.start_ns == outer_span.start_ns);
    }
}
