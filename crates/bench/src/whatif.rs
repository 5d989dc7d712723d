//! Differential (counterfactual) profiling: re-run one configuration with
//! exactly one memory-hierarchy knob perturbed and attribute the
//! throughput delta to the hierarchy level the knob belongs to.
//!
//! The paper argues its throughput curve point by point — texture-cache
//! locality (Figs. 16–17), bank conflicts (Figs. 15–16), coalescing
//! (Figs. 12–14), diagonal staging (Fig. 11). A what-if sweep makes that
//! argument quantitative for *this* workload: "if the texture cache were
//! twice as large, this kernel would gain X Gbit/s" is a one-knob rerun
//! of the deterministic simulator, not an estimate.

use ac_gpu::{Approach, GpuAcMatcher, GpuRun, RunOptions};
use gpu_sim::{GpuConfig, IntrospectConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One memory-hierarchy knob a counterfactual run may turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Knob {
    /// Double the per-SM texture-cache capacity.
    TexCacheDouble,
    /// Halve the per-SM texture-cache capacity.
    TexCacheHalve,
    /// Widen shared memory from 16 to 32 banks (the Fermi layout).
    Banks32,
    /// Cripple global-memory coalescing (4-byte segments: every lane
    /// group becomes its own transaction, the paper's Fig. 9 worst case).
    CoalescingOff,
    /// Drop the diagonal shared-memory staging and run the plain
    /// coalesced kernel instead (isolates the Fig. 11 trick).
    DiagonalOff,
    /// Swap the STT for the next-smaller layout (dense → banded): the
    /// counterfactual the texture-cache knee points at — when a bigger
    /// cache can't help, a smaller table still can.
    SttLayout,
    /// Stage host buffers through pageable memory instead of pinned
    /// pages. Kernel cycles don't move — the knob prices the *end-to-end*
    /// pipeline (h2d + kernel + d2h) under both host-memory models, so it
    /// reports via the report's `e2e_*_gbps` fields rather than a row.
    PinnedHost,
}

impl Knob {
    /// Every knob, in report order.
    pub fn all() -> [Knob; 7] {
        [
            Knob::TexCacheDouble,
            Knob::TexCacheHalve,
            Knob::Banks32,
            Knob::CoalescingOff,
            Knob::DiagonalOff,
            Knob::SttLayout,
            Knob::PinnedHost,
        ]
    }

    /// Short CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            Knob::TexCacheDouble => "tex-cache x2",
            Knob::TexCacheHalve => "tex-cache /2",
            Knob::Banks32 => "banks 16->32",
            Knob::CoalescingOff => "coalescing off",
            Knob::DiagonalOff => "diagonal off",
            Knob::SttLayout => "stt-layout next",
            Knob::PinnedHost => "pinned-host off",
        }
    }

    /// The memory-hierarchy level this knob perturbs; deltas are
    /// attributed to it in the report.
    pub fn level(&self) -> &'static str {
        match self {
            Knob::TexCacheDouble | Knob::TexCacheHalve => "texture cache",
            Knob::Banks32 => "shared banks",
            Knob::CoalescingOff => "global coalescing",
            Knob::DiagonalOff => "shared staging",
            Knob::SttLayout => "table footprint",
            Knob::PinnedHost => "host memory",
        }
    }

    /// Apply the knob to `(cfg, approach)`. Returns `None` when the knob
    /// does not apply (already at the target value, or the approach has
    /// no diagonal staging to drop).
    pub fn apply(&self, cfg: &GpuConfig, approach: Approach) -> Option<(GpuConfig, Approach)> {
        let mut c = *cfg;
        match self {
            Knob::TexCacheDouble => {
                c.tex_cache.size_bytes *= 2;
            }
            Knob::TexCacheHalve => {
                let floor = c.tex_cache.line_bytes * c.tex_cache.associativity;
                if c.tex_cache.size_bytes / 2 < floor {
                    return None;
                }
                c.tex_cache.size_bytes /= 2;
            }
            Knob::Banks32 => {
                if c.shared_banks >= 32 {
                    return None;
                }
                c.shared_banks = 32;
            }
            Knob::CoalescingOff => {
                if c.coalesce_segment <= 4 {
                    return None;
                }
                c.coalesce_segment = 4;
            }
            Knob::DiagonalOff => {
                if approach != Approach::SharedDiagonal {
                    return None;
                }
                return Some((c, Approach::SharedCoalescedOnly));
            }
            Knob::SttLayout => {
                // Walk the layout family one step smaller. Approaches
                // outside the family (PFAC, degraded staging variants)
                // have no layout to swap; banded is already smallest.
                let layout = ac_gpu::SttLayout::of_approach(approach)?;
                let smaller = layout.next_smaller()?;
                return Some((c, smaller.approach().expect("concrete layout")));
            }
            // Host memory never changes the device config or kernel —
            // `explain` prices the transfer pipeline for it directly.
            Knob::PinnedHost => return None,
        }
        c.validate().ok()?;
        Some((c, approach))
    }
}

/// One counterfactual outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfRow {
    /// The knob that was turned.
    pub knob: Knob,
    /// Hierarchy level the delta is attributed to.
    pub level: String,
    /// Counterfactual throughput in Gbit/s.
    pub gbps: f64,
    /// `gbps - baseline.gbps` (positive = the change would help).
    pub delta_gbps: f64,
    /// Counterfactual device cycles.
    pub cycles: u64,
    /// Dominant stall reason after the change (label, share of idle).
    pub dominant_stall: String,
}

/// A ranked what-if report for one (config, approach, input) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// Approach label of the baseline run.
    pub approach: String,
    /// Input bytes scanned.
    pub bytes: usize,
    /// Baseline throughput in Gbit/s.
    pub baseline_gbps: f64,
    /// Baseline device cycles.
    pub baseline_cycles: u64,
    /// Baseline dominant stall.
    pub baseline_stall: String,
    /// Counterfactual rows, ranked by `delta_gbps` descending — the top
    /// row is the change that would help most.
    pub rows: Vec<WhatIfRow>,
    /// Knobs that did not apply to this configuration, with why-nots.
    pub skipped: Vec<String>,
    /// End-to-end (h2d + kernel + d2h) Gbit/s with pinned host staging
    /// over a Gen2 x16 link — the [`Knob::PinnedHost`] counterfactual's
    /// baseline. Zero in reports predating the host-memory model.
    #[serde(default)]
    pub e2e_pinned_gbps: f64,
    /// End-to-end Gbit/s with pageable host staging (bounce-buffer copy
    /// at reduced bandwidth) on the same link.
    #[serde(default)]
    pub e2e_pageable_gbps: f64,
}

fn dominant_label(stats: &gpu_sim::LaunchStats) -> String {
    match stats.totals.stalls.dominant() {
        Some((reason, cycles)) => {
            let idle = stats.totals.idle_cycles.max(1);
            format!(
                "{} ({:.0}% of idle)",
                reason.label(),
                100.0 * cycles as f64 / idle as f64
            )
        }
        None => "none".into(),
    }
}

/// Run the counterfactual sweep for `approach` over `text`: a baseline
/// counting run on `matcher`, then one rerun per applicable [`Knob`] with
/// only that knob turned. The matcher's kernel parameters are shared by
/// every run so the knob is the sole difference. The baseline run comes
/// back with the report, introspection armed, so callers can show its
/// spatial view without simulating it again.
pub fn explain(
    matcher: &GpuAcMatcher,
    text: &[u8],
    approach: Approach,
) -> Result<(WhatIfReport, GpuRun), String> {
    let (cfg, params, ac) = (matcher.config(), *matcher.params(), matcher.automaton());
    let baseline = matcher.run_opts(
        text,
        approach,
        RunOptions {
            introspect: Some(IntrospectConfig),
            ..RunOptions::default()
        },
    )?;
    let mut report = WhatIfReport {
        approach: approach.label().into(),
        bytes: text.len(),
        baseline_gbps: baseline.gbps(),
        baseline_cycles: baseline.stats.cycles,
        baseline_stall: dominant_label(&baseline.stats),
        rows: Vec::new(),
        skipped: Vec::new(),
        e2e_pinned_gbps: 0.0,
        e2e_pageable_gbps: 0.0,
    };
    // The host-memory counterfactual is priced, not re-simulated: kernel
    // cycles are host-memory-independent, so the end-to-end pipeline is
    // the baseline kernel time plus each model's serial h2d + d2h cost.
    let kernel_seconds = baseline.seconds();
    let rb_bytes = baseline.readback_bytes as usize;
    let e2e = |pcie: ac_gpu::PcieConfig| -> f64 {
        let total = pcie.copy_seconds(text.len()) + kernel_seconds + pcie.copy_seconds(rb_bytes);
        text.len() as f64 * 8.0 / total / 1.0e9
    };
    report.e2e_pinned_gbps = e2e(ac_gpu::PcieConfig::gen2_x16());
    report.e2e_pageable_gbps = e2e(ac_gpu::PcieConfig::gen2_x16_pageable());
    for knob in Knob::all() {
        if knob == Knob::PinnedHost {
            continue; // priced above; never a kernel-cycles row
        }
        let Some((cfg2, approach2)) = knob.apply(cfg, approach) else {
            let why = if knob == Knob::SttLayout
                && ac_gpu::SttLayout::of_approach(approach) == Some(ac_gpu::SttLayout::Banded)
            {
                "already the smallest layout"
            } else {
                "not applicable here"
            };
            report.skipped.push(format!("{}: {why}", knob.label()));
            continue;
        };
        let run = match GpuAcMatcher::new(cfg2, params, ac.clone())
            .and_then(|m| m.run_counting(text, approach2))
        {
            Ok(run) => run,
            Err(e) => {
                report.skipped.push(format!("{}: {e}", knob.label()));
                continue;
            }
        };
        report.rows.push(WhatIfRow {
            knob,
            level: knob.level().into(),
            gbps: run.gbps(),
            delta_gbps: run.gbps() - report.baseline_gbps,
            cycles: run.stats.cycles,
            dominant_stall: dominant_label(&run.stats),
        });
    }
    report
        .rows
        .sort_by(|a, b| b.delta_gbps.partial_cmp(&a.delta_gbps).expect("finite"));
    Ok((report, baseline))
}

impl WhatIfReport {
    /// Render the ranked "what would make this faster" table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "what-if sweep: {} over {} bytes",
            self.approach, self.bytes
        );
        let _ = writeln!(
            out,
            "baseline: {:.2} Gb/s, {} cycles, dominant stall {}\n",
            self.baseline_gbps, self.baseline_cycles, self.baseline_stall
        );
        let _ = writeln!(
            out,
            "{:>16} | {:>17} | {:>9} | {:>9} | dominant stall",
            "change", "level", "Gb/s", "delta"
        );
        let _ = writeln!(out, "{}", "-".repeat(85));
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>16} | {:>17} | {:>9.2} | {:>+9.2} | {}",
                r.knob.label(),
                r.level,
                r.gbps,
                r.delta_gbps,
                r.dominant_stall
            );
        }
        if self.e2e_pinned_gbps > 0.0 {
            let _ = writeln!(
                out,
                "\nhost memory (end-to-end, Gen2 x16): pinned {:.2} Gb/s, pageable {:.2} Gb/s \
                 ({:+.2} for pinning)",
                self.e2e_pinned_gbps,
                self.e2e_pageable_gbps,
                self.e2e_pinned_gbps - self.e2e_pageable_gbps
            );
        }
        if let Some(best) = self.rows.first().filter(|r| r.delta_gbps > 0.0) {
            let _ = writeln!(
                out,
                "\nbiggest win: {} ({}, {:+.2} Gb/s)",
                best.knob.label(),
                best.level,
                best.delta_gbps
            );
        } else {
            let _ = writeln!(
                out,
                "\nno tested change helps: the kernel is balanced at this point"
            );
        }
        for s in &self.skipped {
            let _ = writeln!(out, "skipped: {s}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn fixture() -> (GpuAcMatcher, Vec<u8>) {
        let cfg = GpuConfig::gtx285();
        let params = ac_gpu::KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 16,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        };
        let w = Workload::prepare(16 * 1024, 7);
        let ac = w.automaton(20);
        let text = w.input(16 * 1024).to_vec();
        (GpuAcMatcher::new(cfg, params, ac).unwrap(), text)
    }

    #[test]
    fn knob_application_rules() {
        let cfg = GpuConfig::gtx285();
        // Doubling and halving move the texture cache capacity only.
        let (c, a) = Knob::TexCacheDouble
            .apply(&cfg, Approach::SharedDiagonal)
            .unwrap();
        assert_eq!(c.tex_cache.size_bytes, cfg.tex_cache.size_bytes * 2);
        assert_eq!(a, Approach::SharedDiagonal);
        assert_eq!(c.shared_banks, cfg.shared_banks);
        // Banks widen to the Fermi layout; a 32-bank device is a no-op.
        let (c, _) = Knob::Banks32.apply(&cfg, Approach::Pfac).unwrap();
        assert_eq!(c.shared_banks, 32);
        assert!(Knob::Banks32.apply(&c, Approach::Pfac).is_none());
        // Diagonal staging only exists on the shared-diagonal kernel.
        let (_, a) = Knob::DiagonalOff
            .apply(&cfg, Approach::SharedDiagonal)
            .unwrap();
        assert_eq!(a, Approach::SharedCoalescedOnly);
        assert!(Knob::DiagonalOff.apply(&cfg, Approach::Pfac).is_none());
        // Halving stops at one full set.
        let mut small = cfg;
        small.tex_cache.size_bytes = small.tex_cache.line_bytes * small.tex_cache.associativity;
        assert!(Knob::TexCacheHalve.apply(&small, Approach::Pfac).is_none());
        // The layout knob swaps dense for the failure-banded layout and
        // stops there; non-family approaches skip.
        let (c2, a2) = Knob::SttLayout
            .apply(&cfg, Approach::SharedDiagonal)
            .unwrap();
        assert_eq!(a2, Approach::SharedBanded);
        assert_eq!(c2, cfg, "layout swap must not touch the config");
        assert!(Knob::SttLayout
            .apply(&cfg, Approach::SharedBanded)
            .is_none());
        assert!(Knob::SttLayout.apply(&cfg, Approach::Pfac).is_none());
        assert!(Knob::SttLayout.apply(&cfg, Approach::SharedNaive).is_none());
        // The host-memory knob never yields a kernel rerun: it's priced
        // analytically by `explain`, not simulated.
        for a in Approach::all() {
            assert!(Knob::PinnedHost.apply(&cfg, a).is_none());
        }
        assert_eq!(Knob::PinnedHost.label(), "pinned-host off");
        assert_eq!(Knob::PinnedHost.level(), "host memory");
    }

    #[test]
    fn explain_ranks_counterfactuals_and_is_deterministic() {
        let (m, text) = fixture();
        let (r, baseline) = explain(&m, &text, Approach::SharedDiagonal).unwrap();
        assert!(r.baseline_gbps > 0.0);
        assert!(!r.rows.is_empty());
        // The report describes the baseline run it hands back, which
        // carries the introspection snapshot.
        assert_eq!(r.baseline_cycles, baseline.stats.cycles);
        assert!(baseline.introspection.is_some());
        // Rows are sorted best-first.
        for pair in r.rows.windows(2) {
            assert!(pair[0].delta_gbps >= pair[1].delta_gbps);
        }
        // Deltas reconcile with the counterfactual throughputs.
        for row in &r.rows {
            assert!((row.delta_gbps - (row.gbps - r.baseline_gbps)).abs() < 1e-12);
        }
        // Crippling coalescing must not help.
        let co = r
            .rows
            .iter()
            .find(|x| x.knob == Knob::CoalescingOff)
            .unwrap();
        assert!(co.delta_gbps <= 1e-12, "{:+.3}", co.delta_gbps);
        // The dense baseline always has a smaller layout to try.
        assert!(r.rows.iter().any(|x| x.knob == Knob::SttLayout));
        // The simulator is deterministic, so the sweep replays exactly.
        let (again, _) = explain(&m, &text, Approach::SharedDiagonal).unwrap();
        assert_eq!(again, r);
        let rendered = r.render();
        assert!(rendered.contains("what-if sweep"), "{rendered}");
        assert!(rendered.contains("texture cache"), "{rendered}");
    }

    #[test]
    fn host_memory_counterfactual_prices_the_transfer_pipeline() {
        let (m, text) = fixture();
        let (r, _) = explain(&m, &text, Approach::SharedDiagonal).unwrap();
        // Pinned staging transfers at full link speed; pageable pays a
        // bounce copy at reduced bandwidth, so end-to-end it must be
        // strictly slower — and both bound below the kernel-only figure.
        assert!(r.e2e_pinned_gbps > 0.0);
        assert!(
            r.e2e_pinned_gbps > r.e2e_pageable_gbps,
            "pinned {} <= pageable {}",
            r.e2e_pinned_gbps,
            r.e2e_pageable_gbps
        );
        assert!(r.e2e_pinned_gbps < r.baseline_gbps);
        // The knob never lands in `rows` — it is not a kernel-cycles
        // counterfactual — and is not mislabelled as skipped either.
        assert!(r.rows.iter().all(|x| x.knob != Knob::PinnedHost));
        assert!(!r.skipped.iter().any(|s| s.contains("pinned-host")));
        let rendered = r.render();
        assert!(rendered.contains("host memory (end-to-end"), "{rendered}");
        assert!(rendered.contains("for pinning"), "{rendered}");
        // Pre-host-memory reports (no e2e fields in the JSON) parse with
        // zeros and render without the section.
        let legacy = WhatIfReport {
            e2e_pinned_gbps: 0.0,
            e2e_pageable_gbps: 0.0,
            ..r.clone()
        };
        assert!(!legacy.render().contains("host memory (end-to-end"));
        let json = serde_json::to_string(&legacy).unwrap();
        let back: WhatIfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, legacy);
    }

    #[test]
    fn explain_label_round_trips_and_rejects_unknowns() {
        let (m, text) = fixture();
        // Reports and the CLI name approaches by label; the report names
        // the approach it swept by the same label.
        let approach = crate::measure::approach_from_label("pfac").unwrap();
        let (r, _) = explain(&m, &text, approach).unwrap();
        assert_eq!(r.approach, "pfac");
        // PFAC has no diagonal staging; the knob lands in `skipped`.
        assert!(
            r.skipped
                .iter()
                .any(|s| s == "diagonal off: not applicable here"),
            "{:?}",
            r.skipped
        );
        assert!(crate::measure::approach_from_label("warp-drive").is_none());
    }

    #[test]
    fn layout_knob_skips_when_already_smallest() {
        let (m, text) = fixture();
        let (r, _) = explain(&m, &text, Approach::SharedBanded).unwrap();
        assert!(
            r.skipped
                .iter()
                .any(|s| s == "stt-layout next: already the smallest layout"),
            "{:?}",
            r.skipped
        );
    }
}
