//! Trace container, CSV codec, and the paper's prolonging transform.

use std::fmt;

use almanac_flash::Nanos;

use crate::record::{TraceOp, TraceRecord};

/// Errors parsing a trace from its text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line did not have the four `at,op,lpa,pages` fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// [`Trace::prolong`] was asked to wrap addresses into an empty space.
    EmptyLpaSpace,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadLine { line, what } => write!(f, "trace line {line}: {what}"),
            TraceError::EmptyLpaSpace => write!(f, "cannot prolong into an LPA space of 0 pages"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A named block I/O trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace name (e.g. `"hm"`, `"webmail"`).
    pub name: String,
    /// Records sorted by arrival time.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates a trace, sorting records by arrival time.
    pub fn new(name: impl Into<String>, mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.at);
        Trace {
            name: name.into(),
            records,
        }
    }

    /// Virtual duration from first to last arrival.
    pub fn duration(&self) -> Nanos {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.at - a.at,
            _ => 0,
        }
    }

    /// Total pages written.
    pub fn write_pages(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.op == TraceOp::Write)
            .map(|r| r.pages as u64)
            .sum()
    }

    /// Total pages read.
    pub fn read_pages(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.op == TraceOp::Read)
            .map(|r| r.pages as u64)
            .sum()
    }

    /// Fraction of requests that are writes.
    pub fn write_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .filter(|r| r.op == TraceOp::Write)
            .count() as f64
            / self.records.len() as f64
    }

    /// Prolongs the trace `times`-fold exactly as §5.2 of the paper: each
    /// duplicate is appended in time and its logical addresses are shifted
    /// by a pseudo-random offset (derived from `seed`), modulo `lpa_space`.
    /// Records come from outside (`from_csv` accepts any `u64`): addresses
    /// are reduced before they are shifted, and arrival times saturate.
    pub fn prolong(&self, times: u32, lpa_space: u64, seed: u64) -> Result<Trace, TraceError> {
        if lpa_space == 0 {
            return Err(TraceError::EmptyLpaSpace);
        }
        let base = self.duration().saturating_add(1);
        let mut out = Vec::with_capacity(self.records.len() * times as usize);
        let mut state = seed | 1;
        for rep in 0..times {
            // Xorshift per repetition for a deterministic address shift.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let shift = if rep == 0 { 0 } else { state % lpa_space };
            // `shift < lpa_space`, so this is how far below the wrap point
            // a reduced address may sit and still not wrap.
            let room = lpa_space - shift;
            for r in &self.records {
                let lpa = r.lpa % lpa_space;
                out.push(TraceRecord {
                    at: r.at.saturating_add((rep as u64).saturating_mul(base)),
                    op: r.op,
                    lpa: if lpa < room { lpa + shift } else { lpa - room },
                    pages: r.pages,
                });
            }
        }
        Ok(Trace::new(format!("{}x{}", self.name, times), out))
    }

    /// Returns a copy with every arrival time shifted by `offset` (used to
    /// append a measured trace after a warm-up phase).
    pub fn shifted(&self, offset: Nanos) -> Trace {
        Trace {
            name: self.name.clone(),
            records: self
                .records
                .iter()
                .map(|r| TraceRecord {
                    at: r.at.saturating_add(offset),
                    ..*r
                })
                .collect(),
        }
    }

    /// Serialises to the `at,op,lpa,pages` CSV form (header included).
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.records.len() * 24 + 32);
        s.push_str("at,op,lpa,pages\n");
        for r in &self.records {
            s.push_str(&format!("{},{},{},{}\n", r.at, r.op, r.lpa, r.pages));
        }
        s
    }

    /// Parses the CSV form produced by [`Trace::to_csv`].
    pub fn from_csv(name: impl Into<String>, text: &str) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("at,") || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split(',');
            let bad = |what| TraceError::BadLine { line: i + 1, what };
            let at = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or(bad("bad arrival time"))?;
            let op = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or(bad("bad op"))?;
            let lpa = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or(bad("bad lpa"))?;
            let pages = fields
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or(bad("bad page count"))?;
            if fields.next().is_some() {
                return Err(bad("more than four fields"));
            }
            records.push(TraceRecord { at, op, lpa, pages });
        }
        Ok(Trace::new(name, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "t",
            vec![
                TraceRecord::new(100, TraceOp::Write, 5, 2),
                TraceRecord::new(0, TraceOp::Read, 1, 1),
                TraceRecord::new(50, TraceOp::Trim, 2, 4),
            ],
        )
    }

    #[test]
    fn records_sorted_on_construction() {
        let t = sample();
        assert!(t.records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn aggregate_metrics() {
        let t = sample();
        assert_eq!(t.duration(), 100);
        assert_eq!(t.write_pages(), 2);
        assert_eq!(t.read_pages(), 1);
        assert!((t.write_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let parsed = Trace::from_csv("t", &t.to_csv()).unwrap();
        assert_eq!(parsed.records, t.records);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Trace::from_csv("x", "1,W\n").is_err());
        assert!(Trace::from_csv("x", "a,W,1,1\n").is_err());
        assert_eq!(
            Trace::from_csv("x", "5,W,1,1\n6,W,1,1,9\n"),
            Err(TraceError::BadLine {
                line: 2,
                what: "more than four fields"
            })
        );
    }

    #[test]
    fn csv_skips_comments_and_header() {
        let parsed = Trace::from_csv("x", "# comment\nat,op,lpa,pages\n5,W,1,1\n").unwrap();
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn prolong_multiplies_and_shifts() {
        let t = sample();
        let p = t.prolong(3, 1000, 42).unwrap();
        assert_eq!(p.records.len(), 9);
        assert!(p.duration() > t.duration());
        // First repetition is unshifted.
        assert_eq!(p.records[0].lpa, 1);
        // Later repetitions shift addresses but stay in range.
        assert!(p.records.iter().all(|r| r.lpa < 1000));
    }

    #[test]
    fn prolong_is_deterministic() {
        let t = sample();
        assert_eq!(t.prolong(5, 100, 7), t.prolong(5, 100, 7));
        assert_ne!(
            t.prolong(5, 100, 7).unwrap().records,
            t.prolong(5, 100, 8).unwrap().records
        );
    }

    /// What `from_csv` lets in: any `u64` address and arrival time.
    fn extreme() -> Trace {
        let csv = format!("0,W,{max},1\n{max},R,7,1\n", max = u64::MAX);
        Trace::from_csv("extreme", &csv).unwrap()
    }

    #[test]
    fn prolong_reduces_huge_addresses_and_saturates_arrivals() {
        let t = extreme();
        let space = 1000;
        let p = t.prolong(3, space, 42).unwrap();
        assert_eq!(p.records.len(), 6);
        assert!(p.records.iter().all(|r| r.lpa < space));
        assert_eq!(p.records.last().unwrap().at, u64::MAX, "saturated");
        // The first repetition is unshifted, so only the reduction applies;
        // a later one shifts both of its records by the same amount, which
        // keeps them the same distance apart modulo the space.
        let lpas = |op| {
            let of_op = p.records.iter().filter(move |r| r.op == op);
            of_op.map(|r| r.lpa).collect::<Vec<u64>>()
        };
        let (w, r) = (lpas(TraceOp::Write), lpas(TraceOp::Read));
        assert_eq!((w[0], r[0]), (u64::MAX % space, 7));
        for rep in 1..3 {
            assert_eq!(
                (w[rep] + space - r[rep]) % space,
                (w[0] + space - 7) % space
            );
        }
        // A space past 2^63 leaves no headroom for `lpa + shift` either.
        let wide = t.prolong(4, u64::MAX, 9).unwrap();
        assert!(wide.records.iter().all(|r| r.lpa < u64::MAX));
    }

    #[test]
    fn prolong_rejects_an_empty_lpa_space() {
        assert_eq!(sample().prolong(2, 0, 1), Err(TraceError::EmptyLpaSpace));
    }

    #[test]
    fn shifted_saturates_arrival_times() {
        let s = extreme().shifted(5);
        assert_eq!(s.records[0].at, 5);
        assert_eq!(s.records[1].at, u64::MAX);
    }
}
