//! The launch-planning scenario: one multi-round scan, run with the
//! paper's pinned 128-thread tile and with the planned block size.
//!
//! At [`LAUNCH_PLAN_SIZE`] the paper tile needs five resident rounds on
//! the busiest SM, one 4-warp block at a time, because an 8 KiB tile plus
//! its overlap is just over half of the 16 KiB shared memory. The planner
//! ([`ac_gpu::Plan::shared`]) picks 96-thread blocks, two resident per
//! SM, and needs three. [`check_launch_planning`] is the gate-table entry
//! ([`crate::gates`]) that keeps that gain: the planned row must beat the
//! paper row by [`LAUNCH_PLAN_FLOOR`].

use crate::measure::{Engine, EngineConfig, Measurements};
use crate::report::BenchReport;
use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
use corpus::ExperimentGrid;

/// Input size of the scenario: several resident rounds at 128 threads.
pub const LAUNCH_PLAN_SIZE: usize = 1024 * 1024;

/// Dictionary size of the scenario: the paper's regime, whose hot states
/// mostly fit the texture cache, so the kernel's occupancy sets the time.
pub const LAUNCH_PLAN_PATTERNS: usize = 2_000;

/// Label of the row launched with the planned block size; its paper-tile
/// twin is the ordinary `shared-diagonal` row at the same point.
pub const PLANNED_ROW: &str = "shared-diagonal-planned";

/// The least planned/paper throughput ratio the gate accepts.
pub const LAUNCH_PLAN_FLOOR: f64 = 1.3;

/// Run the scenario: a `shared-diagonal` row with the paper's pinned
/// tile and a [`PLANNED_ROW`] row with [`KernelParams::defaults_for`],
/// over the same text and dictionary.
pub fn launch_plan_measurements(verbose: bool) -> Result<Measurements, String> {
    let mut cfg = EngineConfig::new(ExperimentGrid {
        sizes: vec![LAUNCH_PLAN_SIZE],
        pattern_counts: vec![LAUNCH_PLAN_PATTERNS],
    });
    cfg.verbose = verbose;
    let engine = Engine::new(cfg);
    let mut out = engine.run(&[Approach::SharedDiagonal.label()])?;
    let gpu = engine.config().gpu;
    let planned = GpuAcMatcher::new(
        gpu,
        KernelParams::defaults_for(&gpu),
        engine.workload().automaton(LAUNCH_PLAN_PATTERNS),
    )?;
    let mut row = engine.measure_gpu(
        &planned,
        engine.workload().input(LAUNCH_PLAN_SIZE),
        LAUNCH_PLAN_PATTERNS,
        Approach::SharedDiagonal,
    )?;
    row.approach = PLANNED_ROW.into();
    out.rows.push(row);
    Ok(out)
}

/// The scenario's claim, checked on a report's rows: the planned launch
/// reaches at least [`LAUNCH_PLAN_FLOOR`] times the paper tile's Gb/s.
pub fn check_launch_planning(r: &BenchReport) -> Result<String, String> {
    let (size, patterns) = (LAUNCH_PLAN_SIZE, LAUNCH_PLAN_PATTERNS);
    let at = |label: &str| {
        r.rows
            .iter()
            .find(|row| row.approach == label && row.size == size && row.patterns == patterns)
            .ok_or_else(|| format!("missing {label} row at {size}x{patterns}"))
    };
    let paper = at(Approach::SharedDiagonal.label())?;
    let planned = at(PLANNED_ROW)?;
    if paper.gbps <= 0.0 {
        return Err(format!(
            "the paper-tile row at {size}x{patterns} has no throughput"
        ));
    }
    let ratio = planned.gbps / paper.gbps;
    if ratio < LAUNCH_PLAN_FLOOR {
        return Err(format!(
            "planned blocks reach {:.2} Gb/s, {ratio:.2}x the paper tile's {:.2} Gb/s \
             (floor {LAUNCH_PLAN_FLOOR}x)",
            planned.gbps, paper.gbps
        ));
    }
    Ok(format!(
        "launch planning pays: planned blocks at {ratio:.2}x the paper tile's Gb/s \
         ({:.2} vs {:.2}) at {patterns} patterns",
        planned.gbps, paper.gbps
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchRow;

    fn row(approach: &str, gbps: f64) -> BenchRow {
        BenchRow {
            approach: approach.into(),
            size: LAUNCH_PLAN_SIZE,
            patterns: LAUNCH_PLAN_PATTERNS,
            gbps,
            cycles: 100,
            idle_cycles: 0,
            stalls: Default::default(),
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            config_hash: 0,
        }
    }

    fn report(rows: Vec<BenchRow>) -> BenchReport {
        BenchReport {
            name: "plan".into(),
            rows,
            provenance: None,
        }
    }

    #[test]
    fn gate_holds_at_the_floor_and_breaks_below_it() {
        let held = report(vec![row("shared-diagonal", 10.0), row(PLANNED_ROW, 13.0)]);
        assert!(check_launch_planning(&held).unwrap().contains("1.30x"));
        let broken = report(vec![row("shared-diagonal", 10.0), row(PLANNED_ROW, 12.9)]);
        assert!(check_launch_planning(&broken)
            .unwrap_err()
            .contains("1.29x"));
        let missing = report(vec![row(PLANNED_ROW, 13.0)]);
        assert!(check_launch_planning(&missing)
            .unwrap_err()
            .contains("missing"));
    }
}
