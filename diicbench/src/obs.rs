//! The benchmark's own instrument: named spans with parent links, a
//! counting global allocator that charges heap bytes to the open span,
//! and Chrome trace-event output.
//!
//! Spans are recorded from the benchmark thread only, around calls
//! into the program's public functions; nothing inside the program is
//! instrumented. While the recorder is off, [`span`] is a plain call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Live heap bytes counted while [`COUNTING`] is on (signed: a block
/// allocated before counting began may be freed while it is on).
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest [`LIVE`] since the innermost open span began.
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Highest [`LIVE`] since counting began.
static HIGH: AtomicIsize = AtomicIsize::new(0);
/// Whether the counting allocator records anything.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Whether [`span`] records (the recorder exists but may be paused).
static PAUSED: AtomicBool = AtomicBool::new(false);

/// The traced binary's global allocator: the system allocator plus two
/// relaxed atomics per call while counting is on. The counters are
/// statistics that publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees hold; the counters
// never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        grow(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

fn grow(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        // Plain loads first: most calls set no new maximum, and a
        // read-only check keeps the cache line shared between threads.
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
            if live > HIGH.load(Ordering::Relaxed) {
                HIGH.fetch_max(live, Ordering::Relaxed);
            }
        }
    }
}

/// Starts counting heap bytes (only a binary whose global allocator is
/// [`CountingAlloc`] counts anything). The traced binary calls this
/// first thing and never stops, so [`LIVE`] stays exact.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Live heap bytes as the counting allocator sees them (0 without it).
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live heap bytes since counting began (0 without the
/// counting allocator).
pub fn heap_high_bytes() -> isize {
    HIGH.load(Ordering::Relaxed)
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span's id (0 = the run's root).
    pub parent: u64,
    /// What the span timed.
    pub name: String,
    /// Microseconds since the recorder started.
    pub start_us: f64,
    /// Microseconds since the recorder started.
    pub end_us: f64,
    /// Heap bytes live at close minus live at open.
    pub live_delta: isize,
    /// Highest heap bytes above the open level while the span ran.
    pub alloc_peak: isize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

struct Open {
    id: u64,
    name: String,
    start: Instant,
    live_at_open: isize,
    outer_peak: isize,
}

struct Recorder {
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    done: Vec<Span>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    // invariant: the recorder is only touched by the benchmark thread
    // between calls into the program, so no holder can have panicked
    // mid-update without ending the run.
    RECORDER.lock().expect("span recorder lock poisoned")
}

/// Starts recording spans.
pub fn start() {
    *recorder() = Some(Recorder {
        origin: Instant::now(),
        next_id: 1,
        stack: Vec::new(),
        done: Vec::new(),
    });
    PAUSED.store(false, Ordering::Relaxed);
}

/// Stops recording and returns every span in closing order.
pub fn stop() -> Vec<Span> {
    recorder().take().map(|r| r.done).unwrap_or_default()
}

/// Pauses or resumes span recording (heap counting goes on): the
/// traced run times a reference operation with spans off this way.
pub fn set_paused(paused: bool) {
    PAUSED.store(paused, Ordering::Relaxed);
}

/// Every span recorded so far, in closing order.
pub fn snapshot() -> Vec<Span> {
    recorder()
        .as_ref()
        .map(|r| r.done.clone())
        .unwrap_or_default()
}

/// Runs `f` inside a span named `name`; a plain call while the
/// recorder is off.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if PAUSED.load(Ordering::Relaxed) {
        return f();
    }
    {
        let mut guard = recorder();
        let Some(r) = guard.as_mut() else {
            drop(guard);
            return f();
        };
        let live = LIVE.load(Ordering::Relaxed);
        let outer_peak = PEAK.swap(live, Ordering::Relaxed);
        let id = r.next_id;
        r.next_id += 1;
        r.stack.push(Open {
            id,
            name: name.to_string(),
            start: Instant::now(),
            live_at_open: live,
            outer_peak,
        });
    }
    let out = f();
    let mut guard = recorder();
    if let Some(r) = guard.as_mut() {
        // invariant: pushed above on this thread; spans nest strictly.
        let open = r.stack.pop().expect("span stack underflow");
        let end = Instant::now();
        let live = LIVE.load(Ordering::Relaxed);
        let peak = PEAK.load(Ordering::Relaxed);
        PEAK.store(peak.max(open.outer_peak), Ordering::Relaxed);
        let parent = r.stack.last().map_or(0, |o| o.id);
        r.done.push(Span {
            id: open.id,
            parent,
            name: open.name,
            start_us: open.start.duration_since(r.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(r.origin).as_secs_f64() * 1e6,
            live_delta: live - open.live_at_open,
            alloc_peak: peak - open.live_at_open,
        });
    }
    out
}

/// Spans named `name` whose parent span is named `parent`.
pub fn children<'a>(
    spans: &'a [Span],
    parent: &'a str,
    name: &'a str,
) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| {
        s.name == name && spans.iter().any(|p| p.id == s.parent && p.name == parent)
    })
}

/// Renders spans as Chrome trace-event JSON (complete `X` events, one
/// process, one thread), readable offline by Perfetto and
/// `chrome://tracing`. Every event carries the run id, its own span id
/// and its parent's.
pub fn chrome_trace(spans: &[Span], run_id: &str, metadata: &[(&str, String)]) -> String {
    use serde_json::Value;
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
    let events = sorted.iter().map(|s| {
        Value::object([
            ("name", Value::from(s.name.as_str())),
            ("cat", Value::from("diicbench")),
            ("ph", Value::from("X")),
            ("ts", Value::from(s.start_us)),
            ("dur", Value::from((s.end_us - s.start_us).max(0.0))),
            ("pid", Value::from(1u64)),
            ("tid", Value::from(1u64)),
            (
                "args",
                Value::object([
                    ("run", Value::from(run_id)),
                    ("id", Value::from(s.id)),
                    ("parent", Value::from(s.parent)),
                    ("live_delta_bytes", Value::from(s.live_delta as i64)),
                    ("alloc_peak_bytes", Value::from(s.alloc_peak as i64)),
                ]),
            ),
        ])
    });
    let meta = metadata.iter().map(|(k, v)| (*k, Value::from(v.as_str())));
    Value::object([
        ("traceEvents", Value::array(events)),
        ("displayTimeUnit", Value::from("ms")),
        ("metadata", Value::object(meta)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        start();
        span("outer", || {
            span("inner", || std::hint::black_box(vec![0u8; 64]))
        });
        let spans = stop();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        let json = chrome_trace(&spans, "r1", &[("seed", "7".into())]);
        let parsed = serde_json::from_str(&json).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 2);
    }
}
