//! Figure assembly: turn the flat measurement records into the exact
//! tables behind paper Figs. 13–23, print them, and dump CSV.

use crate::measure::Measurements;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// What a figure's cells contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Run time in seconds (Figs. 13–15).
    Seconds,
    /// Throughput in Gbit/s (Figs. 16–18).
    Gbps,
    /// Speedup ratio between two approaches (Figs. 20–23).
    Speedup,
}

/// One reproduced figure: a sizes × pattern-counts matrix of values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Paper figure id, e.g. `"fig18"`.
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// What the paper reports for this figure, for the EXPERIMENTS.md
    /// paper-vs-measured comparison (a range or a headline number).
    pub paper_reference: String,
    /// Cell metric.
    pub metric: Metric,
    /// Row axis: input sizes in bytes.
    pub sizes: Vec<usize>,
    /// Column axis: pattern counts.
    pub pattern_counts: Vec<usize>,
    /// `values[size_idx][pattern_idx]`.
    pub values: Vec<Vec<f64>>,
}

impl Figure {
    /// Smallest and largest cell values (the "ranges" the paper quotes).
    pub fn range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &self.values {
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{} — {}", self.id, self.title);
        let _ = writeln!(s, "  (paper: {})", self.paper_reference);
        let _ = write!(s, "{:>12} |", "input");
        for p in &self.pattern_counts {
            let _ = write!(s, "{:>12} |", format!("{p} pat"));
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", "-".repeat(14 + 15 * self.pattern_counts.len()));
        for (i, &size) in self.sizes.iter().enumerate() {
            let _ = write!(s, "{:>12} |", human_bytes(size));
            for v in &self.values[i] {
                let cell = match self.metric {
                    Metric::Seconds => format_seconds(*v),
                    Metric::Gbps => format!("{v:.2} Gb/s"),
                    Metric::Speedup => format!("{v:.1}x"),
                };
                let _ = write!(s, "{cell:>12} |");
            }
            let _ = writeln!(s);
        }
        let (lo, hi) = self.range();
        let _ = match self.metric {
            Metric::Seconds => writeln!(
                s,
                "  measured range: {} – {}",
                format_seconds(lo),
                format_seconds(hi)
            ),
            Metric::Gbps => writeln!(s, "  measured range: {lo:.2} – {hi:.2} Gb/s"),
            Metric::Speedup => writeln!(s, "  measured range: {lo:.1}x – {hi:.1}x"),
        };
        s
    }

    /// Render as CSV (`size,patterns,value`).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("size_bytes,patterns,value\n");
        for (i, &size) in self.sizes.iter().enumerate() {
            for (j, &p) in self.pattern_counts.iter().enumerate() {
                let _ = writeln!(s, "{size},{p},{}", self.values[i][j]);
            }
        }
        s
    }
}

/// All figures of one repro run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FigureSet {
    /// Figures in paper order.
    pub figures: Vec<Figure>,
}

impl FigureSet {
    /// Find a figure by id.
    pub fn get(&self, id: &str) -> Option<&Figure> {
        self.figures.iter().find(|f| f.id == id)
    }
}

/// Build one figure from measurements.
///
/// `spec` selects the cell computation:
/// * `Value(approach, metric)` — seconds or Gbps of one approach,
/// * `Ratio(slow, fast)` — speedup of `fast` over `slow`.
pub fn build_figure(
    m: &Measurements,
    id: &str,
    title: &str,
    paper_reference: &str,
    sizes: &[usize],
    pattern_counts: &[usize],
    spec: &CellSpec,
) -> Figure {
    let mut values = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let mut row = Vec::with_capacity(pattern_counts.len());
        for &p in pattern_counts {
            let v = match spec {
                CellSpec::Value(approach, Metric::Seconds) => {
                    m.get(approach, size, p).map(|r| r.seconds)
                }
                CellSpec::Value(approach, Metric::Gbps) => m.get(approach, size, p).map(|r| r.gbps),
                CellSpec::Value(..) => None,
                CellSpec::Ratio(slow, fast) => m.speedup(slow, fast, size, p),
            };
            row.push(v.unwrap_or(f64::NAN));
        }
        values.push(row);
    }
    Figure {
        id: id.into(),
        title: title.into(),
        paper_reference: paper_reference.into(),
        metric: match spec {
            CellSpec::Value(_, metric) => *metric,
            CellSpec::Ratio(..) => Metric::Speedup,
        },
        sizes: sizes.to_vec(),
        pattern_counts: pattern_counts.to_vec(),
        values,
    }
}

/// Cell computation for [`build_figure`].
#[derive(Debug, Clone)]
pub enum CellSpec {
    /// One approach's metric.
    Value(String, Metric),
    /// `Ratio(slow, fast)`: seconds(slow) / seconds(fast).
    Ratio(String, String),
}

/// `50 KB`, `3.2 MB`, … Exact multiples print whole numbers; anything
/// else keeps one decimal so `3.2 MB` never truncates to `3276 KB`.
pub fn human_bytes(b: usize) -> String {
    const MB: usize = 1024 * 1024;
    if b >= MB {
        if b.is_multiple_of(MB) {
            format!("{} MB", b / MB)
        } else {
            format!("{:.1} MB", b as f64 / MB as f64)
        }
    } else if b >= 1024 {
        if b.is_multiple_of(1024) {
            format!("{} KB", b / 1024)
        } else {
            format!("{:.1} KB", b as f64 / 1024.0)
        }
    } else {
        format!("{b} B")
    }
}

/// Adaptive time formatting (the paper's run times span µs to minutes;
/// tiny simulated kernels go below a microsecond).
pub fn format_seconds(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v == 0.0 {
        "0 s".into()
    } else if v >= 1.0 {
        format!("{v:.2} s")
    } else if v >= 1e-3 {
        format!("{:.2} ms", v * 1e3)
    } else if v >= 1e-6 {
        format!("{:.1} us", v * 1e6)
    } else {
        format!("{:.1} ns", v * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measurement;

    fn sample() -> Measurements {
        let mut m = Measurements::default();
        for (approach, secs) in [("serial", 1.0), ("shared-diagonal", 0.01)] {
            m.rows.push(Measurement {
                size: 1024,
                patterns: 10,
                approach: approach.into(),
                seconds: secs,
                gbps: 8.0 * 1024.0 / secs / 1e9,
                cycles: 1,
                cache_hit_rate: 1.0,
                shared_conflicts: 0,
                coalescing_ratio: 1.0,
                match_events: 0,
                idle_cycles: 0,
                stalls: Default::default(),
                p99_latency_us: 0.0,
                jobs_per_sec: 0.0,
                jobs_rejected: None,
            });
        }
        m
    }

    #[test]
    fn value_figure_and_ranges() {
        let m = sample();
        let f = build_figure(
            &m,
            "fig13",
            "serial run times",
            "n/a",
            &[1024],
            &[10],
            &CellSpec::Value("serial".into(), Metric::Seconds),
        );
        assert_eq!(f.values[0][0], 1.0);
        assert_eq!(f.range(), (1.0, 1.0));
        assert!(f.render().contains("fig13"));
        assert!(f.to_csv().contains("1024,10,1"));
    }

    #[test]
    fn ratio_figure() {
        let m = sample();
        let f = build_figure(
            &m,
            "fig21",
            "speedup",
            "36.1–222.0x",
            &[1024],
            &[10],
            &CellSpec::Ratio("serial".into(), "shared-diagonal".into()),
        );
        assert!((f.values[0][0] - 100.0).abs() < 1e-9);
        assert_eq!(f.metric, Metric::Speedup);
    }

    #[test]
    fn missing_points_render_nan() {
        let m = sample();
        let f = build_figure(
            &m,
            "figX",
            "missing",
            "",
            &[2048],
            &[10],
            &CellSpec::Value("serial".into(), Metric::Seconds),
        );
        assert!(f.values[0][0].is_nan());
        assert!(f.render().contains("n/a"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(human_bytes(50 * 1024), "50 KB");
        assert_eq!(human_bytes(200 * 1024 * 1024), "200 MB");
        assert_eq!(human_bytes(37), "37 B");
        assert_eq!(format_seconds(2.5), "2.50 s");
        assert_eq!(format_seconds(0.0025), "2.50 ms");
        assert_eq!(format_seconds(2.5e-5), "25.0 us");
    }

    #[test]
    fn formatting_edge_cases() {
        // Zero is exact at both helpers, not "0.0 us" or "0 KB".
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(format_seconds(0.0), "0 s");
        // Non-multiples keep a decimal instead of truncating a unit down.
        assert_eq!(human_bytes(1536), "1.5 KB");
        assert_eq!(human_bytes(1024 * 1024 + 512 * 1024), "1.5 MB");
        assert_eq!(human_bytes(3_355_443), "3.2 MB");
        // Boundaries stay in the smaller unit until a full step.
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1 KB");
        // Sub-microsecond values get the nanosecond tier.
        assert_eq!(format_seconds(2.5e-8), "25.0 ns");
        assert_eq!(format_seconds(1e-6), "1.0 us");
        assert_eq!(format_seconds(f64::NAN), "n/a");
        assert_eq!(format_seconds(f64::INFINITY), "n/a");
    }

    #[test]
    fn figure_set_lookup() {
        let mut set = FigureSet::default();
        assert!(set.get("fig13").is_none());
        set.figures.push(build_figure(
            &sample(),
            "fig13",
            "t",
            "",
            &[1024],
            &[10],
            &CellSpec::Value("serial".into(), Metric::Seconds),
        ));
        assert!(set.get("fig13").is_some());
    }
}
