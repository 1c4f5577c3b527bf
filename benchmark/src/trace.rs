//! The benchmark's own span recorder.  Spans are taken from outside, around
//! the calls into each layer (timers inside the program are a later issue),
//! held in memory, and written out when the run ends.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: String,
    /// The crate the call goes into (`sparse`, `precond`, `core`, `serve`,
    /// `parallel`), or `bench` for the benchmark's own phases.
    pub layer: &'static str,
    /// Solver or request the span belongs to (empty for phases).
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a timed call reports to: `None` runs it untraced.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub rec: Option<&'a Recorder>,
    pub parent: Option<SpanId>,
}

impl<'a> Scope<'a> {
    pub const OFF: Scope<'static> = Scope {
        rec: None,
        parent: None,
    };

    fn child(self, id: Option<SpanId>) -> Scope<'a> {
        Scope {
            rec: self.rec,
            parent: id.or(self.parent),
        }
    }

    /// Run `f`, return its result and wall-clock seconds, and record a span
    /// when this scope is traced.  The seconds come from the same two clock
    /// reads either way, so traced and untraced runs measure alike.
    pub fn time<R>(
        self,
        layer: &'static str,
        name: &str,
        tag: &str,
        f: impl FnOnce(Scope<'a>) -> R,
    ) -> (R, f64) {
        let id = self.rec.map(|r| r.open(self.parent, layer, name, tag));
        let start = Instant::now();
        let out = f(self.child(id));
        let end = Instant::now();
        if let (Some(r), Some(id)) = (self.rec, id) {
            r.close(id, start, end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Record a span whose interval was measured elsewhere (the serve layer
    /// reports queue and solve durations instead of letting us time them).
    /// Returns the scope of its children.
    pub fn add(
        self,
        layer: &'static str,
        name: &str,
        tag: &str,
        start: Instant,
        end: Instant,
    ) -> Scope<'a> {
        let id = self.rec.map(|r| {
            let id = r.open(self.parent, layer, name, tag);
            r.close(id, start, end);
            id
        });
        self.child(id)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn root(&self) -> Scope<'_> {
        Scope {
            rec: Some(self),
            parent: None,
        }
    }

    fn open(&self, parent: Option<SpanId>, layer: &'static str, name: &str, tag: &str) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span");
        spans.push(Span {
            parent,
            name: name.into(),
            layer,
            tag: tag.into(),
            start_ns: 0,
            end_ns: 0,
        });
        spans.len() - 1
    }

    fn close(&self, id: SpanId, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span");
        spans[id].start_ns = ns(start);
        spans[id].end_ns = ns(end);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in seconds, largest first.
pub fn self_seconds_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += ns as f64 * 1e-9,
            None => by_layer.push((s.layer, ns as f64 * 1e-9)),
        }
    }
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_layer
}

pub fn spans_to_json(workload: &str, spans: &[Span]) -> Json {
    let self_ns = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(&s.name)),
                    ("layer", Json::str(s.layer)),
                    ("workload", Json::str(workload)),
                    ("tag", Json::str(&s.tag)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns[id] as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s".into(),
            layer: "bench",
            tag: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child
            span(Some(0), 30, 60),  // overlaps the first child by 10
            span(Some(0), 90, 120), // runs past the parent: clipped to 90..100
            span(Some(1), 15, 25),  // grandchild: only its own parent pays
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 50 - 10, 30 - 10, 30, 30, 10]
        );
    }

    #[test]
    fn scope_records_nested_spans_only_when_traced() {
        let rec = Recorder::new();
        let (value, secs) = rec.root().time("bench", "outer", "", |scope| {
            scope.time("core", "inner", "fp16_f3r", |_| 7).0
        });
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            (spans[1].layer, spans[1].tag.as_str()),
            ("core", "fp16_f3r")
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let (_, _) = Scope::OFF.time("core", "untraced", "", |_| ());
        assert_eq!(rec.spans().len(), 2);
        let by_layer = self_seconds_by_layer(&spans);
        assert_eq!(by_layer.len(), 2);
    }
}
