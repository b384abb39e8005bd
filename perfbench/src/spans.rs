//! Host spans: wall-clock intervals recorded around each layer call in the
//! traced run, kept in memory, folded into per-layer self times and
//! written out as Chrome trace events.
//!
//! Spans are recorded flat; parents are recovered afterwards by interval
//! containment. On one thread the spans nest, so the innermost enclosing
//! span is the caller. A span on a batch worker thread with no enclosing
//! span on its own thread belongs to the driving-thread span that covers
//! it (the `SocRuntime::serve` call that spawned the worker).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Thread id of the driving thread; batch worker `i` records as `i + 1`.
pub const MAIN_TID: u32 = 0;

/// Prefix of spans recorded during set-up; they are exported but never
/// counted into the serve's wall time.
pub const SETUP_PREFIX: &str = "setup.";

/// One engine execution, attached to its `engine` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCall {
    /// Payload tag (`dct`, `me`, `encode`).
    pub payload: &'static str,
    /// Kernel display name the scheduler placed the job on.
    pub kernel: String,
    /// Simulated cycles the execution reported.
    pub cycles: u64,
}

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `service.serve` or `engine`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Recording thread ([`MAIN_TID`] or a batch worker).
    pub tid: u32,
    /// Request (job) id the call served, if any.
    pub req: Option<u32>,
    /// Engine detail, on `engine` spans only.
    pub engine: Option<EngineCall>,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    /// Start of the `stream_serve_job` attempt currently running inside
    /// a chaos dispatch (see `probes::TimedSink`).
    attempt_start: Option<u64>,
}

/// Shared, thread-safe span log with a common epoch.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    log: Arc<Mutex<Log>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            log: Arc::default(),
        }
    }
}

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("span log poisoned by a panicking recorder")
    }

    /// Nanoseconds since the epoch.
    pub(crate) fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a span.
    pub(crate) fn push(&self, span: Span) {
        self.lock().spans.push(span);
    }

    /// Appends a driving-thread span without engine detail.
    pub(crate) fn push_main(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        req: Option<u32>,
    ) {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            tid: MAIN_TID,
            req,
            engine: None,
        });
    }

    /// Runs `f` inside a driving-thread span named `name`.
    pub(crate) fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        self.push_main(name, start, self.now(), None);
        r
    }

    pub(crate) fn attempt_start(&self) -> Option<u64> {
        self.lock().attempt_start
    }

    pub(crate) fn set_attempt_start(&self, at: Option<u64>) {
        self.lock().attempt_start = at;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Spans with their recovered parents.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Spans sorted by `(tid, start, longest first)`.
    pub spans: Vec<Span>,
    /// Index of each span's parent in `spans`.
    pub parent: Vec<Option<usize>>,
}

fn contains(outer: &Span, inner: &Span) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
}

impl Tree {
    /// Recovers the call tree of `spans`.
    pub fn build(mut spans: Vec<Span>) -> Tree {
        spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut parent = vec![None; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while let Some(&top) = stack.last() {
                if spans[top].tid == spans[i].tid && contains(&spans[top], &spans[i]) {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        // Worker-thread roots hang under the tightest driving-thread span.
        let mains: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].tid == MAIN_TID)
            .collect();
        for i in 0..spans.len() {
            if spans[i].tid != MAIN_TID && parent[i].is_none() {
                parent[i] = mains
                    .iter()
                    .copied()
                    .filter(|&m| contains(&spans[m], &spans[i]))
                    .min_by_key(|&m| spans[m].end_ns - spans[m].start_ns);
            }
        }
        Tree { spans, parent }
    }

    /// Wall-clock self time per layer over the spans inside
    /// `[lo_ns, hi_ns]`, set-up spans excluded. A span's self region is
    /// its interval minus the union of its children's; a layer's self
    /// time is the measure of the union of its spans' self regions, so
    /// parallel worker spans count once per instant and the layers
    /// partition the covered wall time.
    pub fn self_times(&self, lo_ns: u64, hi_ns: u64) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push((self.spans[i].start_ns, self.spans[i].end_ns));
            }
        }
        let mut pieces: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name.starts_with(SETUP_PREFIX) || s.start_ns < lo_ns || s.end_ns > hi_ns {
                continue;
            }
            let mut cursor = s.start_ns;
            let layer = pieces.entry(s.name).or_default();
            for (cs, ce) in merge(std::mem::take(&mut children[i])) {
                if cs > cursor {
                    layer.push((cursor, cs));
                }
                cursor = cursor.max(ce);
            }
            if s.end_ns > cursor {
                layer.push((cursor, s.end_ns));
            }
        }
        pieces
            .into_iter()
            .map(|(name, p)| {
                let ns: u64 = merge(p).iter().map(|(a, b)| b - a).sum();
                (name, ns as f64 * 1e-9)
            })
            .collect()
    }

    /// The spans as a Chrome trace-event document on process `pid`:
    /// complete (`X`) events in µs, with the request id and the parent
    /// span index in `args`.
    pub(crate) fn chrome(&self, pid: u32) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"host\"}}}}"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"span\":{i}");
            if let Some(p) = self.parent[i] {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(r) = s.req {
                args.push_str(&format!(",\"req\":{r}"));
            }
            if let Some(e) = &s.engine {
                args.push_str(&format!(
                    ",\"payload\":\"{}\",\"kernel\":\"{}\",\"sim_cycles\":{}",
                    e.payload, e.kernel, e.cycles
                ));
            }
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Sorts and merges intervals into disjoint ones.
fn merge(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, tid: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            tid,
            req: None,
            engine: None,
        }
    }

    #[test]
    fn nested_spans_partition_the_root() {
        let tree = Tree::build(vec![
            span("engine", 20, 40, MAIN_TID),
            span("serve", 0, 100, MAIN_TID),
            span("job", 10, 50, MAIN_TID),
            span("job", 60, 90, MAIN_TID),
            span("engine", 65, 80, MAIN_TID),
        ]);
        let t = tree.self_times(0, 100);
        assert!((t["serve"] - 30e-9).abs() < 1e-15);
        assert!((t["job"] - 35e-9).abs() < 1e-15);
        assert!((t["engine"] - 35e-9).abs() < 1e-15);
        let sum: f64 = t.values().sum();
        assert!((sum - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn parallel_worker_spans_count_once_per_instant() {
        let tree = Tree::build(vec![
            span("serve", 0, 100, MAIN_TID),
            span("engine", 10, 60, 1),
            span("engine", 30, 80, 2),
        ]);
        assert_eq!(tree.parent.iter().filter(|p| p.is_some()).count(), 2);
        let t = tree.self_times(0, 100);
        assert!((t["engine"] - 70e-9).abs() < 1e-15);
        assert!((t["serve"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn setup_spans_are_exported_but_not_counted() {
        let tree = Tree::build(vec![
            span("setup.runtime_new", 0, 10, MAIN_TID),
            span("serve", 10, 20, MAIN_TID),
        ]);
        assert!(!tree.self_times(0, 20).contains_key("setup.runtime_new"));
        let doc = tree.chrome(2);
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
    }
}
