//! In-memory spans for the traced run: one per call the benchmark makes
//! into a layer, kept until the run ends, then written out and reduced
//! to per-layer self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a span within its [`SpanLog`].
pub type SpanId = usize;

/// One timed call: `[start, end)` in nanoseconds since the run epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// One thread's spans, appended in start order.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close an open span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Name a span after the fact (once the outcome it depends on is
    /// known).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Run `f` inside a span and return its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Record a child whose duration is known but whose interval was not
    /// observed (the server-side service time inside a round trip): it
    /// is centred inside `parent` and clamped to it.
    pub fn record_inside(&mut self, name: &'static str, parent: SpanId, length: Duration) {
        let (start, end, request) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.request)
        };
        let length = u64::try_from(length.as_nanos())
            .unwrap_or(u64::MAX)
            .min(end - start);
        let start = start + (end - start - length) / 2;
        self.spans.push(Span {
            name,
            start,
            end: start + length,
            parent: Some(parent),
            request,
        });
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        Duration::from_nanos(s.end - s.start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's interval clipped to its parent's (already clipped)
/// interval. Parents precede their children in a log.
fn clipped(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for s in spans {
        let (a, b) = match s.parent.and_then(|p| out.get(p)) {
            Some(&(pa, pb)) => (s.start.clamp(pa, pb), s.end.clamp(pa, pb)),
            None => (s.start, s.end),
        };
        out.push((a, b.max(a)));
    }
    out
}

/// Self time of every span: its interval, clipped to its parent's, minus
/// the part its children cover (overlapping children counted once). A
/// child therefore never reports more self time than its parent lasted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let clip = clipped(spans);
    let mut cover: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (s, &interval) in spans.iter().zip(&clip) {
        if let Some(p) = s.parent {
            cover[p].push(interval);
        }
    }
    clip.iter()
        .zip(cover)
        .map(|(&(start, end), mut children)| {
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = start;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (end - start) - covered
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64 / 1_000.0);
    }
    out
}

/// Concatenate per-thread logs, re-basing parent indices.
pub fn merge(logs: Vec<SpanLog>) -> Vec<Span> {
    let mut all = Vec::new();
    for log in logs {
        let base = all.len();
        all.extend(log.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Write spans as tab-separated lines:
/// `index request parent name start_ns end_ns` (`-` for no parent).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\trequest\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}",
            s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 38, Some(1)),
        ];
        // root: 100 - |[10,60)| = 50; a: 30 - 3 = 27; b: 30; c: 3.
        assert_eq!(self_times(&spans), vec![50, 27, 30, 3]);
    }

    #[test]
    fn child_self_times_never_exceed_their_parent() {
        // Pseudo-random trees whose children overrun, overlap and nest.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..200 {
            let mut spans = vec![span("root", 100, 100 + next(1_000), None)];
            for _ in 0..next(12) {
                let parent = next(spans.len() as u64) as usize;
                let start = next(1_300);
                spans.push(span("child", start, start + next(600), Some(parent)));
            }
            let selves = self_times(&spans);
            for (i, s) in spans.iter().enumerate() {
                assert!(selves[i] <= s.end - s.start);
                if let Some(p) = s.parent {
                    let parent_len = spans[p].end - spans[p].start;
                    assert!(selves[i] <= parent_len, "span {i} outlasts parent {p}");
                }
            }
        }
        // The recorder centres an over-long inside child and clamps it.
        let mut log = SpanLog::new(Instant::now());
        let root = log.begin("root", None, 7);
        log.end(root);
        log.record_inside("inside", root, Duration::from_secs(3600));
        let spans = log.spans();
        assert_eq!(self_times(spans)[1], spans[0].end - spans[0].start);
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let r = a.begin("r", None, 1);
        a.time("c", Some(r), 1, || ());
        a.end(r);
        let mut b = SpanLog::new(epoch);
        let r = b.begin("r", None, 2);
        b.time("c", Some(r), 2, || ());
        b.end(r);
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[3].request, 2);
    }
}
