//! In-memory spans, the counting allocator, and the trace-event export.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer; nothing inside the production crates is instrumented. They
//! stay in memory and are written out once, when the run ends.
//!
//! Allocation counts come from [`CountingAlloc`], which only the traced
//! binary installs as its global allocator: the untraced binary links the
//! system allocator directly and pays nothing for it.

use serde::json::{self, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// A global allocator that counts allocation calls (`alloc`,
/// `alloc_zeroed`, `realloc`) while counting is switched on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[inline]
fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Switch allocation counting on or off (a no-op unless
/// [`CountingAlloc`] is the global allocator).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<stage>` name.
    pub name: &'static str,
    /// Session or request identifier shared by every span of one unit.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Allocations made between start and end (children included).
    pub allocs: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A counter sample recorded at a layer boundary.
#[derive(Debug, Clone)]
pub struct Count {
    /// `<layer>.<counter>` name.
    pub name: &'static str,
    /// Session or request identifier.
    pub id: u64,
    /// When it was recorded, ns since the tracer's epoch.
    pub at_ns: u64,
    /// The value.
    pub value: f64,
}

/// Span and counter recorder.
pub struct Tracer {
    epoch: Instant,
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Counter samples in record order.
    pub counts: Vec<Count>,
    open: Vec<usize>,
    id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }
}

impl Tracer {
    /// Set the identifier later spans and counts carry.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let span = Span {
            name,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: allocations(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let ix = self.open.pop().expect("end() matches a begin()");
        let now = self.now_ns();
        let span = &mut self.spans[ix];
        span.end_ns = now;
        span.allocs = allocations() - span.allocs;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Record a counter sample.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let at_ns = self.now_ns();
        self.counts.push(Count {
            name,
            id: self.id,
            at_ns,
            value,
        });
    }

    /// Close every span still open (after a failed stage bailed out).
    pub fn unwind(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Durations (ms) of the closed spans named `name` whose id passes
    /// `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.closed(name, keep).map(Span::ms).collect()
    }

    /// Allocation counts of the closed spans named `name` whose id passes
    /// `keep`.
    pub fn allocs(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.closed(name, keep).map(|s| s.allocs as f64).collect()
    }

    /// Counter values named `name` whose id passes `keep`.
    pub fn values(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name && keep(c.id))
            .map(|c| c.value)
            .collect()
    }

    fn closed<'a>(
        &'a self,
        name: &'a str,
        keep: impl Fn(u64) -> bool + 'a,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns > 0 && keep(s.id))
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, one
    /// counter (`C`) event per counter sample. Open it in a trace viewer
    /// such as Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let us = |ns: u64| Value::Float(ns as f64 / 1e3);
        let mut events = Vec::with_capacity(self.spans.len() + self.counts.len());
        for s in self.spans.iter().filter(|s| s.end_ns > 0) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut args = Value::obj(vec![
                ("id", Value::UInt(s.id)),
                ("allocs", Value::UInt(s.allocs)),
            ]);
            if let Some(p) = s.parent {
                args.push_field("parent", Value::String(self.spans[p].name.into()));
            }
            events.push(Value::obj(vec![
                ("name", Value::String(s.name.into())),
                ("cat", Value::String(layer.into())),
                ("ph", Value::String("X".into())),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(1)),
                ("args", args),
            ]));
        }
        for c in &self.counts {
            events.push(Value::obj(vec![
                ("name", Value::String(c.name.into())),
                ("ph", Value::String("C".into())),
                ("ts", us(c.at_ns)),
                ("pid", Value::UInt(1)),
                ("args", Value::obj(vec![("value", Value::Float(c.value))])),
            ]));
        }
        json::to_string(&Value::obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::String("ms".into())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::default();
        t.set_id(3);
        t.begin("core.session");
        t.span("adequation.index", || ());
        t.count("adequation.instructions", 12.0);
        t.end();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.durations("adequation.index", |id| id == 3).len(), 1);
        assert!(t.durations("adequation.index", |id| id == 4).is_empty());
        assert_eq!(t.values("adequation.instructions", |_| true), vec![12.0]);
        let text = t.to_chrome_json();
        let parsed = json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
    }
}
