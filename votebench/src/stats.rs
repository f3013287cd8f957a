//! Exact statistics over raw samples, and the metric records a run
//! prints.
//!
//! Percentiles are nearest-rank over the sorted samples: the reported
//! p99 is a latency some request actually had, so it can never exceed
//! the observed maximum (log-bucket interpolation can).

use std::fmt::Write as _;

/// Raw samples of one quantity (nanoseconds, counts, …).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Splits the samples, in the order they were pushed, into `n`
    /// nearly equal consecutive parts (call before any percentile).
    pub fn split(&self, n: usize) -> Vec<Samples> {
        debug_assert!(!self.sorted);
        let len = self.values.len();
        (0..n)
            .map(|k| Samples {
                values: self.values[len * k / n..len * (k + 1) / n].to_vec(),
                sorted: false,
            })
            .collect()
    }

    /// The samples pushed since the collection had `from` of them (call
    /// before any percentile, which reorders them).
    pub fn tail(&self, from: usize) -> Samples {
        debug_assert!(!self.sorted || from == 0);
        Samples {
            values: self.values[from..].to_vec(),
            sorted: false,
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`q` in (0, 1]); 0 when empty.
    pub fn pct(&mut self, q: f64) -> u64 {
        self.sort();
        if self.values.is_empty() {
            return 0;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    pub fn max(&mut self) -> u64 {
        self.sort();
        self.values.last().copied().unwrap_or(0)
    }

    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Checks that p50 ≤ p99 ≤ max; returns the violation, if any.
    pub fn check_order(&mut self, what: &str) -> Result<(), String> {
        let (p50, p99, max) = (self.pct(0.50), self.pct(0.99), self.max());
        if p50 <= p99 && p99 <= max {
            Ok(())
        } else {
            Err(format!(
                "{what}: percentiles out of order (p50 {p50}, p99 {p99}, max {max})"
            ))
        }
    }
}

/// Nearest-rank median (lower middle); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len().div_ceil(2) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so the repeat summary matches
/// how the runs are judged.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.total_cmp(b));
    let ld = data.len();
    if ld == 0 {
        return (0.0, 0.0, 0.0);
    }
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric: value, unit, direction and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// Samples behind the value (0 = the layer did no work here).
    pub n: usize,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: Better,
        n: usize,
    ) {
        self.list.push(Metric {
            name,
            value,
            unit,
            better,
            n,
        });
    }

    /// Aligned human-readable table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for m in &self.list {
            let _ = writeln!(
                out,
                "  {:<28} {:>16} {:<13} ({} is better, n={})",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.better.as_str(),
                m.n
            );
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .list
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite number in full precision (Rust's shortest round-trip
/// form); JSON has no NaN or infinity, so those become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn fmt_num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_never_exceed_max() {
        let mut s = Samples::new();
        for v in [5, 1, 9, 3, 7, 2, 8, 4, 6, 152] {
            s.push(v);
        }
        assert_eq!(s.pct(0.5), 5);
        assert_eq!(s.pct(0.99), 152);
        assert_eq!(s.pct(0.999), 152);
        assert_eq!(s.max(), 152);
        assert!(s.check_order("t").is_ok());
        assert_eq!(Samples::new().pct(0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn metrics_json_keeps_full_precision() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.203_456_789, "ms", Better::Lower, 3);
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}"
        );
    }
}
