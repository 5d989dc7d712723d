//! Noise-aware comparison of two [`BenchReport`]s: the CI perf-regression
//! gate.
//!
//! Rows are matched by `(approach, size, patterns)`, falling back to
//! `(approach, patterns)` when that is unique in both reports (see
//! [`paired_row`]), and compared under fixed relative thresholds on
//! throughput, cycles and the stall-reason mix; a serving row also
//! regresses when it rejects more jobs. Every value comes from
//! the deterministic simulated clock, so "noise" here is not run-to-run
//! jitter but *intentional slack*: small modelling changes (a latency
//! constant, a cache tweak) may legitimately move numbers a little, and
//! the thresholds say how much movement a change may ship without
//! explaining itself. The candidate's rows are also run through the gate
//! table ([`crate::gates`]), and a broken gate regresses the diff too.

use crate::gates::{evaluate_gates, GateOutcome};
use crate::report::{BenchReport, BenchRow};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use trace::StallReason;

/// Max tolerated relative throughput drop (`0.05` = 5%).
const GBPS_DROP: f64 = 0.05;
/// Max tolerated relative cycle-count rise.
const CYCLES_RISE: f64 = 0.05;
/// Max tolerated shift of any stall reason's share of idle cycles, in
/// percentage points.
const STALL_SHIFT_PTS: f64 = 10.0;

/// The comparison of one matched grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffEntry {
    /// Approach label of the matched rows.
    pub approach: String,
    /// Input size in bytes.
    pub size: usize,
    /// Dictionary size.
    pub patterns: usize,
    /// Baseline throughput in Gbit/s.
    pub old_gbps: f64,
    /// Candidate throughput in Gbit/s.
    pub new_gbps: f64,
    /// Relative throughput change (`+0.10` = 10% faster).
    pub gbps_rel: f64,
    /// Baseline cycles.
    pub old_cycles: u64,
    /// Candidate cycles.
    pub new_cycles: u64,
    /// Relative cycle change (`+0.10` = 10% more cycles).
    pub cycles_rel: f64,
    /// Largest shift of any stall reason's idle share, in points.
    pub stall_shift_pts: f64,
    /// The stall reason whose idle-share moved the most between baseline
    /// and candidate, with its signed shift — e.g. `"tex-miss +9.2pp"`
    /// means the candidate spends 9.2 more points of its idle time on
    /// texture misses. `None` when neither row has a stall mix. Absent
    /// in reports written before this field existed.
    #[serde(default)]
    pub dominant_mover: Option<String>,
    /// Reasons this entry trips the gate (empty = within thresholds).
    pub violations: Vec<String>,
}

impl DiffEntry {
    /// Whether this grid point regressed past the thresholds.
    pub fn regressed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Full diff of two reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffReport {
    /// Baseline report name.
    pub old_name: String,
    /// Candidate report name.
    pub new_name: String,
    /// One entry per grid point present in both reports.
    pub entries: Vec<DiffEntry>,
    /// Grid points of the baseline missing from the candidate — losing
    /// coverage silently is itself a regression.
    pub missing: Vec<String>,
    /// Grid points only in the candidate (informational).
    pub added: Vec<String>,
    /// Non-gating observations: provenance mismatches (different git rev,
    /// grid, or kernel set) and per-row config-hash drift. A warned diff
    /// still passes — the warning tells the reader the comparison may not
    /// be like-for-like. Absent in artifacts written before this field.
    #[serde(default)]
    pub warnings: Vec<String>,
    /// The gate table evaluated on the candidate. Absent in artifacts
    /// written before this field.
    #[serde(default)]
    pub gates: Vec<GateOutcome>,
}

fn key(r: &BenchRow) -> String {
    format!(
        "{} @ {} bytes x {} patterns",
        r.approach, r.size, r.patterns
    )
}

/// The candidate row paired with baseline row `o`, and whether it was
/// paired across a size change. The exact key is `(approach, size,
/// patterns)`. A serving row's `size` is the payload it completed, so it
/// moves whenever admission completes a different number of jobs; when
/// the exact key misses, the row with the same `(approach, patterns)` is
/// taken if that pair is unique in both reports.
fn paired_row<'a>(
    o: &BenchRow,
    old: &[BenchRow],
    new: &'a [BenchRow],
) -> Option<(&'a BenchRow, bool)> {
    if let Some(n) = new
        .iter()
        .find(|n| n.approach == o.approach && n.size == o.size && n.patterns == o.patterns)
    {
        return Some((n, false));
    }
    let same = |r: &&BenchRow| r.approach == o.approach && r.patterns == o.patterns;
    if old.iter().filter(same).count() != 1 {
        return None;
    }
    let mut candidates = new.iter().filter(same);
    match (candidates.next(), candidates.next()) {
        (Some(n), None) => Some((n, true)),
        _ => None,
    }
}

/// Largest per-reason shift of the stall mix between two rows, in
/// percentage points of idle cycles, plus the signed shift of the reason
/// that moved most (the *dominant mover* named in regression verdicts).
/// Rows with no idle cycles have no mix to shift.
fn stall_shift_pts(old: &BenchRow, new: &BenchRow) -> (f64, Option<String>) {
    let share = |row: &BenchRow, reason: StallReason| -> f64 {
        if row.idle_cycles == 0 {
            0.0
        } else {
            100.0 * row.stalls.get(reason) as f64 / row.idle_cycles as f64
        }
    };
    let mut max_abs = 0.0f64;
    let mut dominant: Option<(StallReason, f64)> = None;
    for r in StallReason::all() {
        let signed = share(new, r) - share(old, r);
        if signed.abs() > max_abs {
            max_abs = signed.abs();
            dominant = Some((r, signed));
        }
    }
    let label = dominant.map(|(r, signed)| format!("{} {:+.1}pp", r.label(), signed));
    (max_abs, label)
}

/// Compare `new` against the `old` baseline, and evaluate the gate table
/// on `new`.
pub fn diff_reports(old: &BenchReport, new: &BenchReport) -> DiffReport {
    let mut out = DiffReport {
        old_name: old.name.clone(),
        new_name: new.name.clone(),
        entries: Vec::new(),
        missing: Vec::new(),
        added: Vec::new(),
        warnings: Vec::new(),
        gates: evaluate_gates(new),
    };
    // Provenance is advisory: comparing runs from different revisions or
    // grids is often exactly what the user wants (that's what a perf gate
    // does), but the diff should say so out loud.
    if let (Some(a), Some(b)) = (&old.provenance, &new.provenance) {
        if a.git_rev != b.git_rev {
            out.warnings.push(format!(
                "provenance: git rev {} (baseline) vs {} (candidate)",
                a.git_rev, b.git_rev
            ));
        }
        if a.grid != b.grid {
            out.warnings.push(format!(
                "provenance: grid '{}' (baseline) vs '{}' (candidate)",
                a.grid, b.grid
            ));
        }
        if a.kernels != b.kernels {
            out.warnings.push(format!(
                "provenance: kernel set {:?} (baseline) vs {:?} (candidate)",
                a.kernels, b.kernels
            ));
        }
    }
    for o in &old.rows {
        let Some((n, resized)) = paired_row(o, &old.rows, &new.rows) else {
            out.missing.push(key(o));
            continue;
        };
        if resized {
            out.warnings.push(format!(
                "{} x {} patterns paired across a size change: {} -> {} bytes",
                o.approach, o.patterns, o.size, n.size
            ));
        }
        if o.config_hash != 0 && n.config_hash != 0 && o.config_hash != n.config_hash {
            out.warnings
                .push(format!("config hash changed for {}", key(o)));
        }
        let gbps_rel = if o.gbps == 0.0 {
            0.0
        } else {
            (n.gbps - o.gbps) / o.gbps
        };
        let cycles_rel = if o.cycles == 0 {
            0.0
        } else {
            (n.cycles as f64 - o.cycles as f64) / o.cycles as f64
        };
        let (shift, dominant_mover) = stall_shift_pts(o, n);
        let mut violations = Vec::new();
        if gbps_rel < -GBPS_DROP {
            violations.push(format!(
                "throughput dropped {:.1}% (limit {:.1}%)",
                -100.0 * gbps_rel,
                100.0 * GBPS_DROP
            ));
        }
        if cycles_rel > CYCLES_RISE {
            violations.push(format!(
                "cycles rose {:.1}% (limit {:.1}%)",
                100.0 * cycles_rel,
                100.0 * CYCLES_RISE
            ));
        }
        if shift > STALL_SHIFT_PTS {
            violations.push(format!(
                "stall mix shifted {shift:.1} pts (limit {STALL_SHIFT_PTS:.1})"
            ));
        }
        // Throughput counts completed work only: turning more jobs away
        // must not pass as a gain.
        if let (Some(was), Some(now)) = (o.jobs_rejected, n.jobs_rejected) {
            if now > was {
                violations.push(format!(
                    "jobs rejected rose {was} -> {now} (limit: no rise)"
                ));
            }
        }
        out.entries.push(DiffEntry {
            approach: o.approach.clone(),
            size: o.size,
            patterns: o.patterns,
            old_gbps: o.gbps,
            new_gbps: n.gbps,
            gbps_rel,
            old_cycles: o.cycles,
            new_cycles: n.cycles,
            cycles_rel,
            stall_shift_pts: shift,
            dominant_mover,
            violations,
        });
    }
    for n in &new.rows {
        if !old
            .rows
            .iter()
            .any(|o| paired_row(o, &old.rows, &new.rows).is_some_and(|(p, _)| std::ptr::eq(p, n)))
        {
            out.added.push(key(n));
        }
    }
    out
}

impl DiffReport {
    /// Whether the gate should fail: any entry past a threshold, any
    /// baseline grid point the candidate no longer covers, or any broken
    /// gate.
    pub fn has_regressions(&self) -> bool {
        !self.missing.is_empty()
            || self.entries.iter().any(DiffEntry::regressed)
            || self.gates.iter().any(|g| !g.held)
    }

    /// Regressed entries only.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.regressed())
    }

    /// Pretty JSON for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("diff serialization is infallible")
    }

    /// Render the human-readable gate verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench diff: {} (baseline) vs {} (candidate), {} matched point(s)",
            self.old_name,
            self.new_name,
            self.entries.len()
        );
        let _ = writeln!(
            out,
            "thresholds: gbps drop {:.1}%, cycles rise {:.1}%, stall shift {STALL_SHIFT_PTS:.1} pts\n",
            100.0 * GBPS_DROP,
            100.0 * CYCLES_RISE,
        );
        let _ = writeln!(
            out,
            "{:>20} | {:>10} | {:>5} | {:>8} -> {:>8} | {:>8} | {:>6} | verdict",
            "approach", "size", "pats", "old Gb/s", "new Gb/s", "cycles", "stall"
        );
        let _ = writeln!(out, "{}", "-".repeat(100));
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:>20} | {:>10} | {:>5} | {:>8.2} -> {:>8.2} | {:>+7.1}% | {:>5.1}p | {}",
                e.approach,
                e.size,
                e.patterns,
                e.old_gbps,
                e.new_gbps,
                100.0 * e.cycles_rel,
                e.stall_shift_pts,
                match (&e.dominant_mover, e.regressed()) {
                    (Some(mover), true) => format!("REGRESSED: {mover}"),
                    (None, true) => "REGRESSED".to_string(),
                    _ => "ok".to_string(),
                }
            );
            for v in &e.violations {
                let _ = writeln!(out, "{:>20}   {v}", "");
            }
        }
        for m in &self.missing {
            let _ = writeln!(out, "MISSING from candidate: {m}");
        }
        for a in &self.added {
            let _ = writeln!(out, "added in candidate: {a}");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "WARNING: {w}");
        }
        for g in &self.gates {
            let _ = writeln!(out, "{}", g.line);
        }
        let _ = writeln!(
            out,
            "\n{}",
            if self.has_regressions() {
                "VERDICT: REGRESSED"
            } else {
                "VERDICT: ok"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::StallBreakdown;

    fn row(approach: &str, gbps: f64, cycles: u64) -> BenchRow {
        BenchRow {
            approach: approach.into(),
            size: 65536,
            patterns: 100,
            gbps,
            cycles,
            idle_cycles: 0,
            stalls: StallBreakdown::default(),
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            jobs_rejected: None,
            config_hash: 0,
        }
    }

    fn report(name: &str, rows: Vec<BenchRow>) -> BenchReport {
        BenchReport {
            name: name.into(),
            rows,
            provenance: None,
        }
    }

    #[test]
    fn self_diff_is_clean() {
        let r = report(
            "smoke",
            vec![row("pfac", 10.0, 1000), row("serial", 0.1, 9000)],
        );
        let d = diff_reports(&r, &r);
        assert!(!d.has_regressions(), "{}", d.render());
        assert_eq!(d.entries.len(), 2);
        assert!(d.missing.is_empty() && d.added.is_empty());
        assert!(d.render().contains("VERDICT: ok"));
    }

    #[test]
    fn throughput_drop_past_threshold_regresses() {
        let old = report("base", vec![row("pfac", 10.0, 1000)]);
        let new = report("cand", vec![row("pfac", 9.0, 1000)]);
        let d = diff_reports(&old, &new);
        assert!(d.has_regressions());
        assert!(
            d.render().contains("throughput dropped 10.0%"),
            "{}",
            d.render()
        );
        // A drop inside the 5% limit passes.
        let within = report("cand", vec![row("pfac", 9.6, 1000)]);
        assert!(!diff_reports(&old, &within).has_regressions());
        // Improvements never trip the gate.
        let faster = report("cand", vec![row("pfac", 20.0, 500)]);
        assert!(!diff_reports(&old, &faster).has_regressions());
    }

    #[test]
    fn cycle_rise_and_missing_rows_regress() {
        let old = report(
            "base",
            vec![row("pfac", 10.0, 1000), row("shared-diagonal", 12.0, 800)],
        );
        let slower = report(
            "cand",
            vec![row("pfac", 10.0, 1100), row("shared-diagonal", 12.0, 800)],
        );
        let d = diff_reports(&old, &slower);
        assert!(d.has_regressions());
        assert!(d.render().contains("cycles rose 10.0%"), "{}", d.render());

        // Dropping a covered grid point is a regression even if every
        // surviving row is fine.
        let shrunk = report("cand", vec![row("pfac", 10.0, 1000)]);
        let d = diff_reports(&old, &shrunk);
        assert!(d.has_regressions());
        assert_eq!(d.missing.len(), 1);
        assert!(d.missing[0].contains("shared-diagonal"), "{:?}", d.missing);

        // New coverage is fine.
        let grown = report(
            "cand",
            vec![
                row("pfac", 10.0, 1000),
                row("shared-diagonal", 12.0, 800),
                row("global-only", 2.0, 5000),
            ],
        );
        let d = diff_reports(&old, &grown);
        assert!(!d.has_regressions());
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn serving_rows_regress_when_rejections_rise() {
        let serving = |gbps: f64, rejected: Option<u64>| BenchRow {
            jobs_rejected: rejected,
            ..row("serve-steady-unpooled", gbps, 1000)
        };
        let old = report("base", vec![serving(8.0, Some(12))]);
        // Faster over the work it completed, but it turned more away.
        let d = diff_reports(&old, &report("cand", vec![serving(8.8, Some(75))]));
        assert!(d.has_regressions());
        assert!(
            d.render().contains("jobs rejected rose 12 -> 75"),
            "{}",
            d.render()
        );
        for fine in [Some(12), Some(0)] {
            let d = diff_reports(&old, &report("cand", vec![serving(8.8, fine)]));
            assert!(!d.has_regressions(), "{}", d.render());
        }
        // A baseline written before rows carried rejections gates nothing.
        let unrecorded = report("base", vec![serving(8.0, None)]);
        let d = diff_reports(&unrecorded, &report("cand", vec![serving(8.8, Some(75))]));
        assert!(!d.has_regressions(), "{}", d.render());
        // Only serving rows carry the field, so kernel rows serialize as
        // before; a serving row's count round-trips.
        let kernel_row = serde_json::to_string(&row("pfac", 10.0, 1000)).unwrap();
        assert!(!kernel_row.contains("jobs_rejected"), "{kernel_row}");
        let json = serde_json::to_string(&serving(8.0, Some(12))).unwrap();
        let back: BenchRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back.jobs_rejected, Some(12));
    }

    #[test]
    fn rows_whose_size_moved_pair_when_unique_and_warn() {
        let sized = |approach: &str, size: usize, gbps: f64| BenchRow {
            size,
            ..row(approach, gbps, 1000)
        };
        let old = report(
            "base",
            vec![
                sized("serve-fleet-d2", 861_816, 8.0),
                sized("pfac", 4096, 1.0),
            ],
        );
        let new = report(
            "cand",
            vec![
                sized("serve-fleet-d2", 862_649, 8.5),
                sized("pfac", 4096, 1.0),
            ],
        );
        let d = diff_reports(&old, &new);
        assert!(!d.has_regressions(), "{}", d.render());
        assert_eq!(d.entries.len(), 2);
        assert!(d.missing.is_empty() && d.added.is_empty(), "{}", d.render());
        assert_eq!(
            d.warnings,
            vec![
                "serve-fleet-d2 x 100 patterns paired across a size change: 861816 -> 862649 bytes"
            ]
        );
        // A paired row still gates: slower across the size change regresses.
        let slower = report("cand", vec![sized("serve-fleet-d2", 862_649, 7.0)]);
        let d = diff_reports(&old, &slower);
        assert!(d.regressions().any(|e| e.approach == "serve-fleet-d2"));

        // Ambiguous on either side: no fallback, so the baseline row is
        // missing and the candidate rows are added.
        let twice = report(
            "cand",
            vec![
                sized("serve-fleet-d2", 862_649, 8.5),
                sized("serve-fleet-d2", 900_000, 8.5),
            ],
        );
        let d = diff_reports(&old, &twice);
        assert!(d.missing.iter().any(|m| m.contains("serve-fleet-d2")));
        assert_eq!(d.added.len(), 2);
        let d = diff_reports(&twice, &new);
        assert_eq!(
            d.missing,
            vec!["serve-fleet-d2 @ 900000 bytes x 100 patterns"]
        );
        assert!(d.warnings.is_empty());
    }

    #[test]
    fn stall_mix_shift_trips_its_threshold() {
        let mut old_row = row("shared-diagonal", 10.0, 1000);
        old_row.idle_cycles = 100;
        old_row.stalls.add(StallReason::TexMiss, 100);
        let mut new_row = row("shared-diagonal", 10.0, 1000);
        new_row.idle_cycles = 100;
        new_row.stalls.add(StallReason::TexMiss, 80);
        new_row.stalls.add(StallReason::Barrier, 20);
        let old = report("base", vec![old_row]);
        let new = report("cand", vec![new_row]);
        // 20-point shift beats the 10-point default.
        let d = diff_reports(&old, &new);
        assert!(d.has_regressions());
        assert!((d.entries[0].stall_shift_pts - 20.0).abs() < 1e-9);
        // An 8-point shift stays inside the limit.
        let mut near_row = row("shared-diagonal", 10.0, 1000);
        near_row.idle_cycles = 100;
        near_row.stalls.add(StallReason::TexMiss, 92);
        near_row.stalls.add(StallReason::Barrier, 8);
        assert!(!diff_reports(&old, &report("cand", vec![near_row])).has_regressions());
    }

    #[test]
    fn regression_verdict_names_the_dominant_stall_mover() {
        // Baseline: idle time split 60/40 between texture misses and
        // global latency. Candidate: same totals, but the mix swings to
        // 80/20 *and* cycles rise past the gate — the verdict must name
        // tex-miss as the mover with its signed shift.
        let mut old_row = row("shared-diagonal", 10.0, 1000);
        old_row.idle_cycles = 100;
        old_row.stalls.add(StallReason::TexMiss, 60);
        old_row.stalls.add(StallReason::GlobalLatency, 40);
        let mut new_row = row("shared-diagonal", 8.0, 1400);
        new_row.idle_cycles = 100;
        new_row.stalls.add(StallReason::TexMiss, 80);
        new_row.stalls.add(StallReason::GlobalLatency, 20);
        let d = diff_reports(
            &report("base", vec![old_row]),
            &report("cand", vec![new_row]),
        );
        assert!(d.has_regressions());
        let e = &d.entries[0];
        assert_eq!(e.dominant_mover.as_deref(), Some("tex-miss +20.0pp"));
        assert!(
            d.render().contains("REGRESSED: tex-miss +20.0pp"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn provenance_and_config_hash_mismatches_warn_without_gating() {
        use crate::report::{row_config_hash, Provenance};
        let mut old = report("base", vec![row("pfac", 10.0, 1000)]);
        let mut new = report("cand", vec![row("pfac", 10.0, 1000)]);
        old.provenance = Some(Provenance {
            git_rev: "abc1234".into(),
            grid: "smoke".into(),
            kernels: vec!["pfac".into()],
        });
        new.provenance = Some(Provenance {
            git_rev: "def5678".into(),
            grid: "full".into(),
            kernels: vec!["pfac".into()],
        });
        old.rows[0].config_hash = row_config_hash("pfac", 65536, 100);
        new.rows[0].config_hash = row_config_hash("pfac", 65536, 101);
        let d = diff_reports(&old, &new);
        // Mismatched context warns loudly but never fails the gate.
        assert!(!d.has_regressions(), "{}", d.render());
        assert_eq!(d.warnings.len(), 3, "{:?}", d.warnings);
        assert!(d.warnings[0].contains("abc1234"), "{:?}", d.warnings);
        assert!(d.warnings[1].contains("grid"), "{:?}", d.warnings);
        assert!(d.warnings[2].contains("config hash"), "{:?}", d.warnings);
        assert!(d.render().contains("WARNING: provenance"), "{}", d.render());

        // Reports without provenance (all pre-existing artifacts) and
        // zero hashes never warn.
        let d = diff_reports(
            &report("base", vec![row("pfac", 10.0, 1000)]),
            &report("cand", vec![row("pfac", 10.0, 1000)]),
        );
        assert!(d.warnings.is_empty());
    }

    #[test]
    fn diff_report_serializes_for_the_artifact() {
        let r = report("smoke", vec![row("pfac", 10.0, 1000)]);
        let d = diff_reports(&r, &r);
        let json = d.to_json();
        assert!(json.contains("\"old_name\""));
        let back: DiffReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
