//! Metric collection, correctness accounting and the output format.

use crate::stats;
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for counts and derived values).
    pub samples: usize,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value (never gated).
    pub tail: Option<(f64, f64)>,
    /// Free-form reading aid (raw times beside `ref` values, derivations).
    pub note: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted in the timed windows (steps, `run_parallel`
    /// calls, served jobs).
    pub attempted: u64,
    /// Attempted operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        self.metrics.push(Metric { name: name.into(), unit, value, samples, tail: None, note: note.into() });
    }

    /// Record a plain timing (`xs` already in `unit`): median plus tail.
    pub fn timing(&mut self, name: &str, unit: &'static str, xs: &[f64]) {
        if xs.is_empty() {
            self.problems.push(format!("{name}: no samples"));
            self.failed += 1;
            self.attempted += 1;
            return;
        }
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: stats::median(xs),
            samples: xs.len(),
            tail: stats::tail(xs),
            note: String::new(),
        });
    }

    /// Record a solver timing in reference-kernel units: `secs[i]` divided
    /// by the reference run `refs[i]` made just before it. Raw milliseconds
    /// ride along in the note.
    pub fn ref_timing(&mut self, name: &str, secs: &[f64], refs: &[f64]) -> f64 {
        if secs.is_empty() {
            self.timing(name, "ref", &[]);
            return f64::NAN;
        }
        let ratios: Vec<f64> = secs.iter().zip(refs).map(|(s, r)| s / r).collect();
        let value = stats::paired_ratio(secs, refs);
        self.metrics.push(Metric {
            name: name.into(),
            unit: "ref",
            value,
            samples: secs.len(),
            tail: stats::tail(&ratios),
            note: format!("raw {:.4} ms, ref run {:.4} ms", stats::median(secs) * 1e3, stats::median(refs) * 1e3),
        });
        value
    }

    /// Count `ops` attempted operations and fail them all unless `ok`.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.problems.push(what());
        }
    }

    /// Value of an already-recorded metric.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }

    /// Print every metric as a human-readable line, then the result as one
    /// JSON object on the last line, holding the metrics named in `keep`.
    pub fn print(&self, header: &str, keep: &[&str]) {
        println!("{header}");
        for m in &self.metrics {
            let mut line = format!("  {:<26} {:>14.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
            if let Some((p, v)) = m.tail {
                let _ = write!(line, "  p{p}={v:.6}");
            }
            if !m.note.is_empty() {
                let _ = write!(line, "  ({})", m.note);
            }
            println!("{line}");
        }
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        println!("  correct={} attempted={} failed={}", self.correct(), self.attempted, self.failed);
        let mut json = String::from("{");
        let _ = write!(
            json,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in keep {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else { continue };
            if !first {
                json.push_str(", ");
            }
            first = false;
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            let _ = write!(json, "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        json.push_str("}}");
        println!("{json}");
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }
}
