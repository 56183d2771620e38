//! Spans recorded from outside the program, around the calls into each
//! layer: `name, start, end, parent` for every phase of a run. Per-operation
//! spans (a million device calls per replay) are not kept one by one; the
//! [`Recorder`](crate::recorder::Recorder) aggregates them into per-class
//! [`Histogram`]s. Everything stays in memory until the run ends.

use std::time::{Duration, Instant};

use crate::json;

/// One closed (or still open) phase.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// The span collector of one run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        let start_ns = self.since_origin(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and anything left open inside it); returns its length in
    /// seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let end_ns = self.since_origin(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Records a window that was timed with a bare `Instant` pair — the timed
    /// reps are measured with nothing interposed, then noted here.
    pub fn note(&mut self, name: impl Into<String>, start: Instant, length: Duration) {
        let start_ns = self.since_origin(start);
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns + length.as_nanos() as u64,
            parent: self.open.last().copied(),
        });
    }

    /// Runs `f` inside a leaf span; returns its result and length in seconds.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every phase span plus the per-class operation
    /// histograms, as one JSON document.
    pub fn to_json(&self, header: &[(&str, String)], histograms: &[(String, Histogram)]) -> String {
        let mut out = String::from("{");
        for (k, v) in header {
            json::push_str(&mut out, k);
            out.push(':');
            json::push_str(&mut out, v);
            out.push(',');
        }
        out.push_str("\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":{i},\"name\":"));
            json::push_str(&mut out, &s.name);
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out.push_str("],\"op_histograms\":{");
        for (i, (name, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"buckets\":[",
                h.count, h.sum_ns, h.max_ns
            ));
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{},{}]", Histogram::upper_ns(b), c));
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }
}

/// Host-time histogram of one operation class: four sub-buckets per power
/// of two, so a bucket is at most 25 % wide.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    pub buckets: Vec<u64>,
}

impl Histogram {
    const SUB: u32 = 4;
    const BUCKETS: usize = 64 * Self::SUB as usize;

    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: vec![0; Self::BUCKETS],
        }
    }

    fn bucket_of(ns: u64) -> usize {
        let v = ns.max(1);
        let exp = 63 - v.leading_zeros();
        // The two bits below the leading one pick the quarter.
        let quarter = if exp >= 2 { (v >> (exp - 2)) & 3 } else { 0 };
        (exp * Self::SUB) as usize + quarter as usize
    }

    /// Exclusive upper edge of bucket `b`, in nanoseconds.
    pub fn upper_ns(b: usize) -> u64 {
        let (exp, quarter) = (
            (b / Self::SUB as usize) as u32,
            (b % Self::SUB as usize) as u64,
        );
        if exp < 2 {
            return 1u64 << (exp + 1);
        }
        (1u64 << exp).saturating_add((quarter + 1) << (exp - 2))
    }

    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut h = Histogram::new();
        for s in samples {
            h.record(s);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_one() {
        let mut s = Spans::new();
        let run = s.enter("run");
        let (v, secs) = s.time("setup", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let t0 = Instant::now();
        s.note("rep", t0, Duration::from_nanos(500));
        s.exit(run);
        let top = s.enter("after");
        s.exit(top);
        let spans = s.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 500);
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn histogram_buckets_bound_their_samples() {
        let samples = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            100,
            600,
            1023,
            1024,
            1_000_000,
            1 << 62,
        ];
        for ns in samples {
            let upper = Histogram::upper_ns(Histogram::bucket_of(ns));
            assert!(ns < upper, "{ns} not below its bucket edge {upper}");
            // Four buckets per power of two from 4 ns up: an edge is at most
            // 25 % above the smallest sample of its bucket.
            let slack = if ns < 4 { ns.max(1) } else { ns / 4 + 1 };
            assert!(upper <= ns.max(1) + slack, "{ns} in a bucket up to {upper}");
        }
        let h = Histogram::from_samples([600, 600, 5_000]);
        assert_eq!((h.count, h.sum_ns, h.max_ns), (3, 6_200, 5_000));
        assert_eq!(h.buckets[Histogram::bucket_of(600)], 2);
        assert_eq!(Histogram::upper_ns(Histogram::bucket_of(600)), 640);
    }

    #[test]
    fn span_file_is_valid_json() {
        let mut s = Spans::new();
        let id = s.enter("run \"x\"");
        s.exit(id);
        let text = s.to_json(
            &[("workload", "w".into())],
            &[("core.write".into(), Histogram::from_samples([10, 20]))],
        );
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("w"));
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("run \"x\""));
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
        let h = v.get("op_histograms").unwrap().get("core.write").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(2.0));
    }
}
