//! Machine-readable `BENCH_<name>.json` reports.
//!
//! Each report flattens one measurement run into a stable, diffable JSON
//! document — throughput, cycles, and the stall-reason breakdown per grid
//! point. Every value is derived from the *simulated* clock, so a report
//! regenerated from the same source tree is byte-identical: committing
//! one per benchmark makes the perf trajectory reviewable across PRs.

use crate::measure::Measurements;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use trace::StallBreakdown;

/// One grid point of a bench report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Approach label (`serial`, `shared-diagonal`, …).
    pub approach: String,
    /// Input size in bytes.
    pub size: usize,
    /// Dictionary size.
    pub patterns: usize,
    /// Simulated throughput in Gbit/s.
    pub gbps: f64,
    /// Device (or modelled CPU) cycles.
    pub cycles: u64,
    /// SM-cycles with no warp ready (GPU approaches).
    #[serde(default)]
    pub idle_cycles: u64,
    /// Stall-reason attribution of `idle_cycles`.
    #[serde(default)]
    pub stalls: StallBreakdown,
    /// p99 job latency in µs (serving rows only, else 0).
    #[serde(default)]
    pub p99_latency_us: f64,
    /// Completed jobs per simulated second (serving rows only, else 0).
    #[serde(default)]
    pub jobs_per_sec: f64,
    /// Jobs the scenario turned away by backpressure (serving rows only;
    /// absent elsewhere and in reports written before this field). A
    /// serving row's Gb/s counts completed work only, so `bench diff`
    /// regresses a row whose rejections rise.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub jobs_rejected: Option<u64>,
    /// FNV-1a hash of the row's identity fields (approach, size,
    /// patterns). A diff between two reports warns when matched rows
    /// disagree — a hash change means the grid point was re-keyed, so the
    /// comparison may not be like-for-like. Zero in reports written
    /// before this field existed.
    #[serde(default)]
    pub config_hash: u64,
}

/// FNV-1a over a row's identity fields: stable across runs and platforms,
/// cheap enough to compute inline, and any change to the keyed config is
/// visible as a different hash.
pub fn row_config_hash(approach: &str, size: usize, patterns: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(approach.as_bytes());
    eat(&[0]);
    eat(&(size as u64).to_le_bytes());
    eat(&(patterns as u64).to_le_bytes());
    h
}

/// Where a report came from: enough context for a diff to say whether two
/// reports are comparable. Filled by the `repro` binary (the committed
/// artifacts' writer); [`BenchReport::from_measurements`] leaves it empty
/// so report generation stays a pure function of the measurements.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse --short HEAD` at generation time ("unknown" when
    /// git is unavailable).
    #[serde(default)]
    pub git_rev: String,
    /// Grid name the run replayed (`smoke`, `full`, …).
    #[serde(default)]
    pub grid: String,
    /// Approach labels the grid covered, in report order.
    #[serde(default)]
    pub kernels: Vec<String>,
}

/// A named, diffable perf report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// One row per measured grid point.
    pub rows: Vec<BenchRow>,
    /// Generation context (git rev, grid, kernel set). `None` in reports
    /// from older writers and in reports built directly from
    /// measurements.
    #[serde(default)]
    pub provenance: Option<Provenance>,
}

impl BenchReport {
    /// Flatten a measurement run into a report.
    pub fn from_measurements(name: &str, m: &Measurements) -> Self {
        let rows = m
            .rows
            .iter()
            .map(|r| BenchRow {
                approach: r.approach.clone(),
                size: r.size,
                patterns: r.patterns,
                gbps: r.gbps,
                cycles: r.cycles,
                idle_cycles: r.idle_cycles,
                stalls: r.stalls,
                p99_latency_us: r.p99_latency_us,
                jobs_per_sec: r.jobs_per_sec,
                jobs_rejected: r.jobs_rejected,
                config_hash: row_config_hash(&r.approach, r.size, r.patterns),
            })
            .collect();
        BenchReport {
            name: name.to_string(),
            rows,
            provenance: None,
        }
    }

    /// The first row labelled `approach`, or an error naming the missing
    /// row.
    pub fn row(&self, approach: &str) -> Result<&BenchRow, String> {
        self.rows
            .iter()
            .find(|r| r.approach == approach)
            .ok_or_else(|| format!("missing {approach} row"))
    }

    /// The canonical file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Pretty JSON for committing alongside the code.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parse a previously written report.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Write `BENCH_<name>.json` into `dir`, returning the path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Engine, EngineConfig};
    use corpus::ExperimentGrid;

    fn measurements() -> Measurements {
        let grid = ExperimentGrid {
            sizes: vec![16 * 1024],
            pattern_counts: vec![20],
        };
        Engine::new(EngineConfig::new(grid))
            .run(&["serial", "shared-diagonal"])
            .unwrap()
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport::from_measurements("smoke", &measurements());
        assert_eq!(report.file_name(), "BENCH_smoke.json");
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn gpu_rows_carry_stall_breakdowns() {
        let report = BenchReport::from_measurements("smoke", &measurements());
        let gpu = report
            .rows
            .iter()
            .find(|r| r.approach == "shared-diagonal")
            .unwrap();
        assert!(gpu.gbps > 0.0);
        assert!(gpu.cycles > 0);
        // Stall attribution accounts for every idle cycle.
        assert_eq!(gpu.stalls.total(), gpu.idle_cycles);
        let serial = report.rows.iter().find(|r| r.approach == "serial").unwrap();
        assert_eq!(serial.idle_cycles, 0);
    }

    #[test]
    fn config_hash_is_stable_and_keyed_on_identity() {
        let h = row_config_hash("pfac", 65536, 100);
        assert_eq!(h, row_config_hash("pfac", 65536, 100));
        assert_ne!(h, 0);
        assert_ne!(h, row_config_hash("pfac", 65536, 101));
        assert_ne!(h, row_config_hash("pfac", 65537, 100));
        assert_ne!(h, row_config_hash("serial", 65536, 100));
        // Every row gets its identity hash stamped at build time.
        let report = BenchReport::from_measurements("smoke", &measurements());
        for r in &report.rows {
            assert_eq!(
                r.config_hash,
                row_config_hash(&r.approach, r.size, r.patterns)
            );
        }
    }

    #[test]
    fn provenance_round_trips_and_old_reports_still_parse() {
        let mut report = BenchReport::from_measurements("smoke", &measurements());
        assert_eq!(report.provenance, None);
        report.provenance = Some(Provenance {
            git_rev: "abc1234".into(),
            grid: "smoke".into(),
            kernels: vec!["serial".into(), "shared-diagonal".into()],
        });
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // A pre-provenance report (no provenance, no config_hash) parses
        // with defaults — the committed artifacts predate both fields.
        let old = r#"{"name":"legacy","rows":[{"approach":"serial","size":16,"patterns":2,"gbps":1.0,"cycles":10}]}"#;
        let parsed = BenchReport::from_json(old).unwrap();
        assert_eq!(parsed.provenance, None);
        assert_eq!(parsed.rows[0].config_hash, 0);
    }

    #[test]
    fn report_is_deterministic() {
        let a = BenchReport::from_measurements("smoke", &measurements()).to_json();
        let b = BenchReport::from_measurements("smoke", &measurements()).to_json();
        assert_eq!(a, b);
    }
}
