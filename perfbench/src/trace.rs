//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer goes through [`span`].
//! With recording off (the untraced run) it only calls the closure; with
//! it on, it appends one [`Span`] (layer, call name, start, end, parent
//! span, operation id) to a thread-local buffer that is written out once,
//! at exit. All benchmark calls are made from the main thread; the
//! layers' own worker threads are inside a call and are not traced.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Operation the call belongs to (cell, VE lifecycle, soak, …).
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Fix the time origin; call first thing in `main` so span times are
/// measured from process start.
pub fn start_clock() {
    origin();
}

/// Seconds since [`start_clock`].
pub fn now_s() -> f64 {
    origin().elapsed().as_secs_f64()
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turn span recording on or off.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Run `f` as one call into `layer`, recording a span when tracing is on.
pub fn span<T>(layer: &'static str, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    timed(layer, name, op, f).0
}

/// Like [`span`], and also return the call's duration in seconds.
pub fn timed<T>(layer: &'static str, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let start_ns = now_ns();
        r.spans.push(Span { layer, name, op, parent, start_ns, end_ns: start_ns });
        r.open.push(id);
        Some(id)
    });
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            // A call that panicked and was caught below this span leaves
            // its own span open: unwind the stack down to ours.
            while let Some(top) = r.open.pop() {
                if top == id {
                    break;
                }
            }
            r.spans[id as usize].end_ns = now_ns();
        });
    }
    (out, secs)
}

/// Number of spans recorded so far.
pub fn len() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Self time per layer over the spans in `range` (a whole number of
/// top-level calls): each span's duration minus the part of it covered by
/// its child spans, summed by layer (sorted by layer name).
pub fn self_times(range: std::ops::Range<usize>) -> Vec<(&'static str, f64)> {
    REC.with(|r| {
        let r = r.borrow();
        let first = range.start;
        let spans = &r.spans[range];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize - first] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e9;
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, v)) => *v += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer.sort_by(|a, b| a.0.cmp(b.0));
        by_layer
    })
}

/// All spans as tab-separated lines: `id parent op layer name start_ns
/// end_ns` (`-` for no parent), under a header line.
pub fn dump_tsv() -> String {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::with_capacity(r.spans.len() * 64);
        out.push_str("id\tparent\top\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}", s.op, s.layer, s.name, s.start_ns, s.end_ns);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_recording(true);
        let base = len();
        span("fleet", "outer", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            span("core", "inner", 0, || std::thread::sleep(std::time::Duration::from_millis(30)));
        });
        set_recording(false);
        span("kernel", "untraced", 0, || ());
        assert_eq!(len(), base + 2);
        let st = self_times(base..len());
        let get = |l| st.iter().find(|(n, _)| *n == l).map(|(_, v)| *v).unwrap();
        assert!((0.019..0.029).contains(&get("fleet")), "fleet self {}", get("fleet"));
        assert!(get("core") >= 0.029);
        assert!(dump_tsv().lines().nth(2).unwrap().starts_with("1\t0\t0\tcore\tinner\t"));
    }
}
