//! Machine-readable benchmark output: the `BENCH_*.json` perf trajectory.
//!
//! Every run of `all` emits a [`BenchReport`] recording, per replay
//! cell, the *wall-clock* time the cell took next to its *virtual-time*
//! metrics, plus enough run metadata (worker count, fast mode, seed) to
//! compare runs across commits. The JSON is produced by a tiny
//! self-contained encoder — the workspace builds offline, so no external
//! serialization crate is used.

use std::fmt::Write as _;

/// A JSON value with deterministic (insertion-ordered) object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values encode as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order so output is reproducible.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| < 2^53).
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_num(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, level: usize| {
            out.push('\n');
            for _ in 0..level {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => Self::write_num(*n, out),
            Json::Str(s) => Self::write_escaped(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    Self::write_escaped(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Pretty-prints the value (2-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

/// Wall-clock and virtual-time record of one replay cell.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Cell identifier, e.g. `"src@u50/timessd"` or `"hm@u80/28d"`.
    pub id: String,
    /// Wall-clock milliseconds the cell took (including any warm-fill it
    /// had to perform; cache hits make later cells cheaper).
    pub wall_ms: f64,
    /// Virtual-time metrics of the cell, name → value (ns, ratios, counts).
    pub metrics: Vec<(&'static str, f64)>,
}

impl CellRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(self.id.clone())),
            ("wall_ms", Json::Num(round3(self.wall_ms))),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One figure/table section of the report.
#[derive(Debug, Clone, Default)]
pub struct FigureRecord {
    /// Figure name (`"fig6_7"`, `"fig8"`, `"table3"`, ...).
    pub name: String,
    /// Wall-clock milliseconds for the whole figure.
    pub wall_ms: f64,
    /// Per-cell timings (empty for figures not yet cell-decomposed).
    pub cells: Vec<CellRecord>,
}

/// The whole benchmark report, one per `all` invocation.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"all"`, or the `--only` selection (`"table3+lifetime"`).
    pub bin: String,
    /// Seed the run used.
    pub seed: u64,
    /// Whether `ALMANAC_FAST=1` shrank the run.
    pub fast: bool,
    /// Worker count the pool used.
    pub jobs: usize,
    /// Figures in execution order.
    pub figures: Vec<FigureRecord>,
    started: std::time::Instant,
    started_unix: u64,
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

impl BenchReport {
    /// Starts a report for `bin`.
    pub fn new(bin: &str, seed: u64) -> Self {
        BenchReport {
            bin: bin.to_string(),
            seed,
            fast: crate::fast_mode(),
            jobs: crate::engine::jobs(),
            figures: Vec::new(),
            started: std::time::Instant::now(),
            started_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// Appends a figure section.
    pub fn push_figure(&mut self, figure: FigureRecord) {
        self.figures.push(figure);
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let figures = self
            .figures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("name", Json::str(f.name.clone())),
                    ("wall_ms", Json::Num(round3(f.wall_ms))),
                    (
                        "cells",
                        Json::Arr(f.cells.iter().map(CellRecord::to_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::int(1)),
            ("bin", Json::str(self.bin.clone())),
            ("seed", Json::int(self.seed)),
            ("fast", Json::Bool(self.fast)),
            ("jobs", Json::int(self.jobs as u64)),
            (
                "available_parallelism",
                Json::int(
                    std::thread::available_parallelism()
                        .map(|n| n.get() as u64)
                        .unwrap_or(1),
                ),
            ),
            ("started_unix", Json::int(self.started_unix)),
            (
                "total_wall_ms",
                Json::Num(round3(self.started.elapsed().as_secs_f64() * 1e3)),
            ),
            ("figures", Json::Arr(figures)),
        ])
        .render()
    }

    /// Writes `BENCH_<bin>.json` (or `ALMANAC_BENCH_OUT` when set) and
    /// reports the path on stderr; failures warn instead of aborting a
    /// completed benchmark run.
    pub fn emit(&self) {
        let path = std::env::var("ALMANAC_BENCH_OUT")
            .unwrap_or_else(|_| format!("BENCH_{}.json", self.bin));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("[bench] wrote {path}"),
            Err(e) => eprintln!("[bench] failed to write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_deterministically() {
        let v = Json::obj(vec![
            ("b", Json::int(2)),
            ("a", Json::Num(1.5)),
            ("s", Json::str("x\"y\n")),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let out = v.render();
        // Keys keep insertion order (b before a), escapes are applied, and
        // whole numbers print without a fraction.
        assert!(out.contains("\"b\": 2"));
        assert!(out.contains("\"a\": 1.5"));
        assert!(out.contains("\\\"y\\n"));
        assert!(out.contains("\"empty\": {}"));
        let again = v.render();
        assert_eq!(out, again);
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn report_includes_cells() {
        let mut r = BenchReport::new("test", 42);
        r.push_figure(FigureRecord {
            name: "fig6_7".into(),
            wall_ms: 12.5,
            cells: vec![CellRecord {
                id: "hm@u50/timessd".into(),
                wall_ms: 6.25,
                metrics: vec![("avg_response_ns", 420.0)],
            }],
        });
        let json = r.to_json();
        assert!(json.contains("\"bin\": \"test\""));
        assert!(json.contains("\"hm@u50/timessd\""));
        assert!(json.contains("\"avg_response_ns\": 420"));
        assert!(json.contains("\"schema\": 1"));
    }
}
