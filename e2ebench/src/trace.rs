//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by this benchmark's own code, around the
//! calls it makes into each layer of the program. Each span carries
//! its name, start and end (ns since the run began), its parent span
//! and the update it belongs to, plus the allocator calls and bytes
//! handled inside it. Nothing is written until the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub update: u64,
    /// Allocator calls between start and end (children included).
    pub allocs: u64,
    /// Bytes the layer handled in this call (input or output, per layer).
    pub bytes: u64,
}

struct Recorder {
    origin: Instant,
    enabled: bool,
    update: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        enabled: false,
        update: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the updates that follow.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Tags the spans that follow with update `id`.
pub fn set_update(id: u64) {
    REC.with(|r| r.borrow_mut().update = id);
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// A running timer, optionally backed by an open span.
pub struct Timer {
    start: Option<Instant>,
    span: Option<usize>,
}

impl Timer {
    /// Always times the call (end-to-end metrics need it); also opens a
    /// span when recording is on.
    pub fn start(name: &'static str) -> Self {
        let start = Instant::now();
        Self {
            start: Some(start),
            span: open(name, start),
        }
    }

    /// Times the call only when recording is on, so an untraced run
    /// pays nothing for it.
    pub fn traced(name: &'static str) -> Self {
        if !enabled() {
            return Self {
                start: None,
                span: None,
            };
        }
        let start = Instant::now();
        Self {
            start: Some(start),
            span: open(name, start),
        }
    }

    /// Closes the timer and its span.
    pub fn stop(self) -> Done {
        let Some(start) = self.start else {
            return Done { ns: 0, span: None };
        };
        let end = Instant::now();
        if let Some(idx) = self.span {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end_ns = (end - r.origin).as_nanos() as u64;
                let allocs = crate::alloc::calls();
                let s = &mut r.spans[idx];
                s.end_ns = end_ns;
                s.allocs = allocs - s.allocs;
                let top = r.open.pop();
                debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            });
        }
        Done {
            ns: (end - start).as_nanos() as u64,
            span: self.span,
        }
    }
}

/// A stopped timer: its wall time, and its span awaiting a byte count.
pub struct Done {
    /// Elapsed wall time, ns (0 for an inactive traced timer).
    pub ns: u64,
    span: Option<usize>,
}

impl Done {
    /// Records the bytes the layer handled on the span; returns the ns.
    pub fn bytes(self, n: u64) -> u64 {
        if let Some(idx) = self.span {
            REC.with(|r| r.borrow_mut().spans[idx].bytes = n);
        }
        self.ns
    }
}

fn open(name: &'static str, start: Instant) -> Option<usize> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let idx = r.spans.len();
        let span = Span {
            name,
            start_ns: (start - r.origin).as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            update: r.update,
            allocs: crate::alloc::calls(),
            bytes: 0,
        };
        r.spans.push(span);
        r.open.push(idx);
        Some(idx)
    })
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    /// Inclusive wall time.
    pub total_ns: u64,
    /// Wall time minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocator calls minus those of child spans.
    pub self_allocs: u64,
    pub bytes: u64,
}

/// Sums spans by name, computing self time and self allocations.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, LayerTotals)> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
            child_allocs[p] += s.allocs;
        }
    }
    let mut out: Vec<(&'static str, LayerTotals)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let pos = match out.iter().position(|(n, _)| *n == s.name) {
            Some(p) => p,
            None => {
                out.push((s.name, LayerTotals::default()));
                out.len() - 1
            }
        };
        let t = &mut out[pos].1;
        let dur = s.end_ns - s.start_ns;
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        t.bytes += s.bytes;
    }
    out
}

/// Writes `spans` as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"update\":{},\"allocs\":{},\"bytes\":{}}}",
            s.name, s.start_ns, s.end_ns, s.update, s.allocs, s.bytes
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        set_update(7);
        let outer = Timer::start("outer");
        let inner = Timer::traced("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        inner.stop().bytes(5);
        outer.stop();
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.update == 7));
        let t = totals(&spans);
        let outer = t.iter().find(|(n, _)| *n == "outer").unwrap().1;
        let inner = t.iter().find(|(n, _)| *n == "inner").unwrap().1;
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.bytes, 5);
        assert!(
            Timer::traced("off").stop().ns == 0,
            "untraced timers cost nothing"
        );
    }
}
