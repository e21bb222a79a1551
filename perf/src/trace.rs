//! In-memory spans recorded by the benchmark round its calls into each
//! layer. Nothing here is called by the program under test: spans inside
//! the program are a later change (ROADMAP item 5).

use std::time::Instant;
use tqsim_json::{num_u64, obj, str_val, Value};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval: what ran, when, what caused it, and which run or
/// job it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

/// Span store. Kept in memory and written out when the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::begin`]; returns its duration.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Record a span whose interval was measured elsewhere (a client
    /// thread), as nanosecond offsets from `origin`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        origin: Instant,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let shift = origin.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: shift + start_ns,
            end_ns: shift + end_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed self time, in seconds, of every span called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// `[{"id","name","start_ns","end_ns","parent","run"}]`, `parent` null
    /// for roots.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj(vec![
                        ("id", num_u64(id as u64)),
                        ("name", str_val(s.name)),
                        ("start_ns", num_u64(s.start_ns)),
                        ("end_ns", num_u64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| num_u64(p as u64)),
                        ),
                        ("run", num_u64(u64::from(s.run))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover: children are clipped to the parent and
/// overlapping siblings (concurrent clients) count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_direct_children_only() {
        // root [0,100] > mid [10,60] > leaf [20,30]
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_siblings_count_once_and_clip_to_parent() {
        // Children [10,50] and [30,70] cover [10,70]; [90,120] is clipped
        // to the parent's end.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn empty_and_childless() {
        assert!(self_times(&[]).is_empty());
        assert_eq!(self_times(&[span(5, 5, None)]), vec![0]);
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn tracer_totals_and_json_round_trip() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 7);
        let kid = t.begin("kid", Some(root), 7);
        t.end(kid);
        t.end(root);
        assert!(t.total_s("root") >= t.total_s("kid"));
        assert!((t.self_s("root") - (t.total_s("root") - t.total_s("kid"))).abs() < 1e-12);
        let text = t.to_json().to_json();
        let back = tqsim_json::parse(&text).expect("trace JSON parses");
        let arr = back.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(arr[0].get("parent"), Some(&Value::Null));
        assert_eq!(arr[0].get("run").and_then(Value::as_u64), Some(7));
    }
}
