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
//! * `verdict::check_layout_crossover` re-derives that claim from any
//!   measurement set (fresh or committed).

use crate::measure::{Engine, EngineConfig, Measurement, Measurements};
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

/// Texture-miss stall share of one measurement: tex-miss stall cycles as
/// a fraction of the run's idle cycles (0 when the run never idled).
pub fn tex_miss_share(m: &Measurement) -> f64 {
    if m.idle_cycles == 0 {
        return 0.0;
    }
    m.stalls.tex_miss as f64 / m.idle_cycles as f64
}

/// The sweep's headline claim, re-derived from a measurement set: at
/// `patterns` dictionaries, some smaller layout beats the dense STT on
/// throughput while stalling less on texture misses. Returns the winning
/// `(label, gbps, tex_miss_share)` or an explanation of the failure.
pub fn check_layout_crossover(
    m: &Measurements,
    size: usize,
    patterns: usize,
) -> Result<(String, f64, f64), String> {
    let approaches = layout_sweep_approaches();
    let (dense_label, smaller) = approaches.split_first().expect("dense heads the family");
    let dense = m
        .get(dense_label, size, patterns)
        .ok_or_else(|| format!("missing dense row at {size}x{patterns}"))?;
    let dense_share = tex_miss_share(dense);
    let mut best: Option<&Measurement> = None;
    for label in smaller {
        let Some(row) = m.get(label, size, patterns) else {
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
    Ok((best.approach.clone(), best.gbps, best_share))
}

/// The same claim, re-derived from a committed `BENCH_<grid>.json`
/// report — the diff gate's view of the world. `None` when the report
/// predates the layout sweep (no dense row at the sweep point);
/// otherwise the result of [`check_layout_crossover`] over its rows.
pub fn check_layout_crossover_report(
    r: &crate::report::BenchReport,
    size: usize,
    patterns: usize,
) -> Option<Result<(String, f64, f64), String>> {
    let mut m = Measurements::default();
    for row in &r.rows {
        m.rows.push(Measurement {
            size: row.size,
            patterns: row.patterns,
            approach: row.approach.clone(),
            seconds: 0.0,
            gbps: row.gbps,
            cycles: row.cycles,
            cache_hit_rate: 0.0,
            shared_conflicts: 0,
            coalescing_ratio: 0.0,
            match_events: 0,
            idle_cycles: row.idle_cycles,
            stalls: row.stalls,
            p99_latency_us: row.p99_latency_us,
            jobs_per_sec: row.jobs_per_sec,
        });
    }
    m.get("shared-diagonal", size, patterns)?;
    Some(check_layout_crossover(&m, size, patterns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::StallBreakdown;

    fn row(approach: &str, gbps: f64, idle: u64, tex_miss: u64) -> Measurement {
        Measurement {
            size: LAYOUT_SWEEP_SIZE,
            patterns: 20_000,
            approach: approach.into(),
            seconds: 1.0,
            gbps,
            cycles: 100,
            cache_hit_rate: 0.5,
            shared_conflicts: 0,
            coalescing_ratio: 1.0,
            match_events: 0,
            idle_cycles: idle,
            stalls: StallBreakdown {
                tex_miss,
                ..Default::default()
            },
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
        }
    }

    #[test]
    fn crossover_check_accepts_a_true_win_and_rejects_losses() {
        let mut m = Measurements::default();
        m.rows.push(row("shared-diagonal", 2.0, 100, 90));
        m.rows.push(row("shared-banded", 3.0, 100, 40));
        let (label, gbps, share) = check_layout_crossover(&m, LAYOUT_SWEEP_SIZE, 20_000).unwrap();
        assert_eq!(label, "shared-banded");
        assert!((gbps - 3.0).abs() < 1e-12);
        assert!((share - 0.4).abs() < 1e-12);

        // A smaller layout that never overtakes dense fails the check.
        let mut flat = Measurements::default();
        flat.rows.push(row("shared-diagonal", 5.0, 100, 10));
        flat.rows.push(row("shared-banded", 3.0, 100, 40));
        assert!(check_layout_crossover(&flat, LAYOUT_SWEEP_SIZE, 20_000).is_err());

        // Winning on Gb/s while stalling more on texture misses fails too.
        let mut stalled = Measurements::default();
        stalled.rows.push(row("shared-diagonal", 2.0, 100, 30));
        stalled.rows.push(row("shared-banded", 3.0, 100, 40));
        assert!(check_layout_crossover(&stalled, LAYOUT_SWEEP_SIZE, 20_000).is_err());

        // Missing rows are an error, not a silent pass.
        assert!(check_layout_crossover(&Measurements::default(), 1, 1).is_err());
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
