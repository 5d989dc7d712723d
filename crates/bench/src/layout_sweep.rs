//! The STT layout sweep: dictionary size × layout, up to 20 000 patterns.
//!
//! The texture-cache-knee recipe (EXPERIMENTS.md) ends on a cliff: past
//! the knee, `acsim explain` shows even a doubled texture cache cannot
//! bring the dense STT back — only a smaller table can. This sweep runs
//! the whole layout family ([`ac_gpu::SttLayout`]) over growing
//! dictionaries at a fixed input size and commits the rows to
//! `BENCH_<grid>.json`, so the crossover — a smaller layout overtaking
//! the dense STT as the dictionary grows — is guarded by the perf gate
//! like every other headline:
//!
//! * at the 20 000-pattern point the best smaller layout must beat the
//!   dense STT's Gb/s **and** carry a lower texture-miss stall share
//!   (the win comes from residency, not from doing less work);
//! * [`check_layout_crossover`] checks that claim on any report's rows,
//!   fresh or committed; it is the layout entry of the gate table
//!   ([`crate::gates`]).

use crate::measure::{Engine, EngineConfig, Measurements};
use crate::report::{BenchReport, BenchRow};
use ac_gpu::SttLayout;
use corpus::ExperimentGrid;

/// Input size the sweep holds fixed. Large enough that every state of the
/// hot loop is exercised thousands of times; small enough for the quick
/// gate.
pub const LAYOUT_SWEEP_SIZE: usize = 128 * 1024;

/// Dictionary sizes swept — the small end sits near the texture-cache
/// knee, the large end is the paper's Fig. 13–14 collapse regime.
pub const LAYOUT_SWEEP_PATTERNS: [usize; 2] = [2_000, 20_000];

/// The layout family, by approach label, in [`SttLayout::all_concrete`]
/// footprint order (dense first, smaller layouts after).
pub fn layout_sweep_approaches() -> Vec<&'static str> {
    SttLayout::all_concrete()
        .into_iter()
        .map(|l| l.approach().expect("concrete layouts have kernels").label())
        .collect()
}

/// Run the layout sweep and return one measurement row per
/// (dictionary, layout) point. Deterministic: same seed, same rows.
pub fn layout_sweep_measurements(verbose: bool) -> Result<Measurements, String> {
    let grid = ExperimentGrid {
        sizes: vec![LAYOUT_SWEEP_SIZE],
        pattern_counts: LAYOUT_SWEEP_PATTERNS.to_vec(),
    };
    let mut cfg = EngineConfig::new(grid);
    cfg.verbose = verbose;
    Engine::new(cfg).run(&layout_sweep_approaches())
}

/// Texture-miss stall share of one row: tex-miss stall cycles as a
/// fraction of the run's idle cycles (0 when the run never idled).
pub fn tex_miss_share(r: &BenchRow) -> f64 {
    if r.idle_cycles == 0 {
        return 0.0;
    }
    r.stalls.tex_miss as f64 / r.idle_cycles as f64
}

/// The dictionary size the crossover is claimed at: the largest swept.
pub const CROSSOVER_PATTERNS: usize = LAYOUT_SWEEP_PATTERNS[LAYOUT_SWEEP_PATTERNS.len() - 1];

/// The sweep's headline claim, checked on a report's rows: at
/// [`CROSSOVER_PATTERNS`], some smaller layout beats the dense STT on
/// throughput while stalling less on texture misses.
pub fn check_layout_crossover(r: &BenchReport) -> Result<String, String> {
    let (size, patterns) = (LAYOUT_SWEEP_SIZE, CROSSOVER_PATTERNS);
    let at = |label: &str| {
        r.rows
            .iter()
            .find(|row| row.approach == label && row.size == size && row.patterns == patterns)
    };
    let approaches = layout_sweep_approaches();
    let (dense_label, smaller) = approaches.split_first().expect("dense heads the family");
    let dense = at(dense_label).ok_or_else(|| format!("missing dense row at {size}x{patterns}"))?;
    let dense_share = tex_miss_share(dense);
    let mut best: Option<&BenchRow> = None;
    for label in smaller {
        let Some(row) = at(label) else {
            return Err(format!("missing {label} row at {size}x{patterns}"));
        };
        if best.is_none_or(|b| row.gbps > b.gbps) {
            best = Some(row);
        }
    }
    let best = best.expect("at least one smaller layout");
    if best.gbps <= dense.gbps {
        return Err(format!(
            "no smaller layout beats dense at {patterns} patterns: best {} {:.3} Gb/s <= dense {:.3} Gb/s",
            best.approach, best.gbps, dense.gbps
        ));
    }
    let best_share = tex_miss_share(best);
    if best_share >= dense_share {
        return Err(format!(
            "{} wins on Gb/s but not on texture-miss stall share: {:.3} >= dense {:.3}",
            best.approach, best_share, dense_share
        ));
    }
    Ok(format!(
        "layout crossover holds at {patterns} patterns: {} at {:.2} Gb/s, \
         {:.0}% tex-miss stall share",
        best.approach,
        best.gbps,
        best_share * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::StallBreakdown;

    fn row(approach: &str, gbps: f64, idle: u64, tex_miss: u64) -> BenchRow {
        BenchRow {
            approach: approach.into(),
            size: LAYOUT_SWEEP_SIZE,
            patterns: 20_000,
            gbps,
            cycles: 100,
            idle_cycles: idle,
            stalls: StallBreakdown {
                tex_miss,
                ..Default::default()
            },
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            jobs_rejected: None,
            config_hash: 0,
        }
    }

    fn report(rows: Vec<BenchRow>) -> BenchReport {
        BenchReport {
            name: "sweep".into(),
            rows,
            provenance: None,
        }
    }

    #[test]
    fn crossover_check_accepts_a_true_win_and_rejects_losses() {
        let m = report(vec![
            row("shared-diagonal", 2.0, 100, 90),
            row("shared-banded", 3.0, 100, 40),
        ]);
        assert_eq!(
            check_layout_crossover(&m).unwrap(),
            "layout crossover holds at 20000 patterns: shared-banded at 3.00 Gb/s, \
             40% tex-miss stall share"
        );

        // A smaller layout that never overtakes dense fails the check.
        let flat = report(vec![
            row("shared-diagonal", 5.0, 100, 10),
            row("shared-banded", 3.0, 100, 40),
        ]);
        assert!(check_layout_crossover(&flat).is_err());

        // Winning on Gb/s while stalling more on texture misses fails too.
        let stalled = report(vec![
            row("shared-diagonal", 2.0, 100, 30),
            row("shared-banded", 3.0, 100, 40),
        ]);
        assert!(check_layout_crossover(&stalled).is_err());

        // Missing rows are an error, not a silent pass.
        assert!(check_layout_crossover(&report(Vec::new())).is_err());
    }

    #[test]
    fn sweep_runs_the_small_dictionary_deterministically() {
        // The full 20k sweep runs under `repro` (release) and is guarded
        // by the committed BENCH rows; here exercise the sweep machinery
        // at the small end so `cargo test` stays quick.
        let grid = ExperimentGrid {
            sizes: vec![32 * 1024],
            pattern_counts: vec![200],
        };
        let approaches = layout_sweep_approaches();
        assert_eq!(approaches, ["shared-diagonal", "shared-banded"]);
        let cfg = EngineConfig::new(grid.clone());
        let a = Engine::new(cfg).run(&approaches).unwrap();
        assert_eq!(a.rows.len(), approaches.len());
        for r in &a.rows {
            assert!(r.gbps > 0.0, "{}", r.approach);
        }
        let b = Engine::new(EngineConfig::new(grid))
            .run(&approaches)
            .unwrap();
        assert_eq!(a.rows, b.rows);
    }
}
