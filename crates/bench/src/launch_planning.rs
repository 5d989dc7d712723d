//! The launch-planning scenario: five scans, each run with the paper's
//! pinned `shared-diagonal` launch and with the launch the planner makes
//! of a `shared-diagonal` request.
//!
//! * A multi-round scan ([`LAUNCH_PLAN_SIZE`]): the paper tile needs five
//!   resident rounds on the busiest SM, one 4-warp block at a time,
//!   because an 8 KiB tile plus its overlap is just over half of the
//!   16 KiB shared memory. The planner ([`ac_gpu::Plan::shared`]) picks
//!   96-thread blocks, two resident per SM, and needs three.
//! * Two one-round scans ([`ONE_ROUND_SIZE`], a serving-sized launch)
//!   against a 20,000-pattern table and serve-small's 50 patterns: the
//!   paper tile runs two blocks on 2 of the 30 SMs, every thread making
//!   64 + X dependent texture fetches. The planner
//!   ([`ac_gpu::Plan::kernel`]) runs staged PFAC, whose one-thread-per-
//!   byte grid spreads the same bytes over every SM and whose walks read
//!   the block's bytes from shared memory. Each one-round point also
//!   carries a baseline `pfac` row, whose walks read global memory.
//! * Two multi-round scans ([`PRICED_SIZE`]) at the same two
//!   dictionaries, past staged PFAC's one round. The planned row runs the
//!   kernel a serve call would choose for the launch, priced on the row's
//!   own input ([`ac_serve::priced_launch`]): staged PFAC at both.
//!
//! [`check_launch_planning`] is the gate-table entry ([`crate::gates`])
//! that keeps the gains: the planned rows must beat the paper rows by
//! [`LAUNCH_PLAN_FLOOR`], [`ONE_ROUND_FLOOR`] and [`PRICED_FLOORS`], and
//! the baseline PFAC rows by [`STAGED_PFAC_FLOOR`].

use crate::measure::{Engine, EngineConfig, Measurements};
use crate::report::BenchReport;
use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
use ac_serve::{priced_launch, ServeConfig};
use corpus::ExperimentGrid;

/// Input size of the scenario: several resident rounds at 128 threads.
pub const LAUNCH_PLAN_SIZE: usize = 1024 * 1024;

/// Dictionary size of the scenario: the paper's regime, whose hot states
/// mostly fit the texture cache, so the kernel's occupancy sets the time.
pub const LAUNCH_PLAN_PATTERNS: usize = 2_000;

/// Label of the row launched with the planned block size; its paper-tile
/// twin is the ordinary `shared-diagonal` row at the same point.
pub const PLANNED_ROW: &str = "shared-diagonal-planned";

/// The least planned/paper throughput ratio the gate accepts at
/// [`LAUNCH_PLAN_SIZE`].
pub const LAUNCH_PLAN_FLOOR: f64 = 1.3;

/// Input size of the one-round points: a serving-sized launch that staged
/// PFAC's grid covers in one resident round (30,720 B on the GTX 285).
pub const ONE_ROUND_SIZE: usize = 16 * 1024;

/// Dictionary size of the first one-round point: a table far beyond the
/// texture caches, so each chunked thread's dependent misses set the
/// time.
pub const ONE_ROUND_PATTERNS: usize = 20_000;

/// Dictionary size of the second one-round point: serve-small's, whose
/// table fits the texture caches, so PFAC's byte loads weigh most.
pub const SERVE_PATTERNS: usize = 50;

/// The least planned/paper throughput ratio the gate accepts at both
/// one-round points.
pub const ONE_ROUND_FLOOR: f64 = 2.0;

/// The least planned/baseline-PFAC throughput ratio the gate accepts at
/// both one-round points: staging must pay for its barrier.
pub const STAGED_PFAC_FLOOR: f64 = 1.2;

/// Input size of the priced points: past one resident round of staged
/// PFAC's grid, where [`ac_gpu::Plan::kernel`] alone would run the
/// configured kernel.
pub const PRICED_SIZE: usize = 64 * 1024;

/// The least planned/paper throughput ratio the gate accepts at each
/// priced point, as `(patterns, floor)`.
pub const PRICED_FLOORS: [(usize, f64); 2] = [(ONE_ROUND_PATTERNS, 1.5), (SERVE_PATTERNS, 2.7)];

/// The scenario's `(size, patterns)` points, the multi-round one first.
const POINTS: [(usize, usize); 5] = [
    (LAUNCH_PLAN_SIZE, LAUNCH_PLAN_PATTERNS),
    (ONE_ROUND_SIZE, ONE_ROUND_PATTERNS),
    (ONE_ROUND_SIZE, SERVE_PATTERNS),
    (PRICED_SIZE, ONE_ROUND_PATTERNS),
    (PRICED_SIZE, SERVE_PATTERNS),
];

/// Run the scenario: at each point a `shared-diagonal` row with the
/// paper's pinned launch (and at the one-round points a baseline `pfac`
/// row) and a [`PLANNED_ROW`] row with [`KernelParams::defaults_for`],
/// over the same text and dictionary. The planned row runs the kernel
/// [`GpuAcMatcher::plan_kernel`] picks, and at the priced points the one
/// a serve call picks, priced on the row's input.
pub fn launch_plan_measurements(verbose: bool) -> Result<Measurements, String> {
    let mut out = Measurements::default();
    for (size, patterns) in POINTS {
        let mut cfg = EngineConfig::new(ExperimentGrid {
            sizes: vec![size],
            pattern_counts: vec![patterns],
        });
        cfg.verbose = verbose;
        let engine = Engine::new(cfg);
        let paper: &[&str] = if size == ONE_ROUND_SIZE {
            &[Approach::SharedDiagonal.label(), Approach::Pfac.label()]
        } else {
            &[Approach::SharedDiagonal.label()]
        };
        out.extend(engine.run(paper)?);
        let gpu = engine.config().gpu;
        let planned = GpuAcMatcher::new(
            gpu,
            KernelParams::defaults_for(&gpu),
            engine.workload().automaton(patterns),
        )?;
        let input = engine.workload().input(size);
        let approach = if size == PRICED_SIZE {
            priced_launch(&planned, &ServeConfig::new(1), input, size).kernel
        } else {
            planned.plan_kernel(Approach::SharedDiagonal, size)
        };
        let mut row = engine.measure_gpu(&planned, input, patterns, approach)?;
        row.approach = PLANNED_ROW.into();
        out.rows.push(row);
    }
    Ok(out)
}

/// The scenario's claims, checked on a report's rows: the planned launch
/// reaches at least [`LAUNCH_PLAN_FLOOR`] times the paper tile's Gb/s on
/// the multi-round scan, on each one-round scan [`ONE_ROUND_FLOOR`]
/// times the paper tile's and [`STAGED_PFAC_FLOOR`] times baseline
/// PFAC's, and on each priced scan its [`PRICED_FLOORS`] entry times the
/// paper tile's.
pub fn check_launch_planning(r: &BenchReport) -> Result<String, String> {
    let ratio = |size: usize, patterns: usize, baseline: &str, floor: f64, what: &str| {
        let at = |label: &str| {
            r.rows
                .iter()
                .find(|row| row.approach == label && row.size == size && row.patterns == patterns)
                .ok_or_else(|| format!("missing {label} row at {size}x{patterns}"))
        };
        let base = at(baseline)?;
        let planned = at(PLANNED_ROW)?;
        if base.gbps <= 0.0 {
            return Err(format!(
                "the {baseline} row at {size}x{patterns} has no throughput"
            ));
        }
        let ratio = planned.gbps / base.gbps;
        if ratio < floor {
            return Err(format!(
                "{what} at {:.2} Gb/s, only {ratio:.2}x {baseline}'s {:.2} Gb/s \
                 at {size}x{patterns} (floor {floor}x)",
                planned.gbps, base.gbps
            ));
        }
        Ok(format!(
            "{what} at {ratio:.2}x {baseline}'s Gb/s ({:.2} vs {:.2}) at {size}x{patterns}",
            planned.gbps, base.gbps
        ))
    };
    let paper = Approach::SharedDiagonal.label();
    let mut held = vec![ratio(
        LAUNCH_PLAN_SIZE,
        LAUNCH_PLAN_PATTERNS,
        paper,
        LAUNCH_PLAN_FLOOR,
        "planned blocks",
    )?];
    for (size, patterns) in &POINTS[1..3] {
        held.push(ratio(
            *size,
            *patterns,
            paper,
            ONE_ROUND_FLOOR,
            "one-round PFAC",
        )?);
        held.push(ratio(
            *size,
            *patterns,
            Approach::Pfac.label(),
            STAGED_PFAC_FLOOR,
            "staged PFAC",
        )?);
    }
    for (patterns, floor) in PRICED_FLOORS {
        held.push(ratio(PRICED_SIZE, patterns, paper, floor, "priced PFAC")?);
    }
    Ok(format!("launch planning pays: {}", held.join("; ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchRow;
    use ac_serve::priced_pfac_limit;
    use gpu_sim::GpuConfig;

    /// The priced switch point on the figure corpus's dictionaries, with
    /// the 64 KiB input as the sample and the serve defaults (1 MiB cap):
    /// at 50 patterns it lies between 256 and 768 KiB (515,554 B); at
    /// 2,000 patterns staged PFAC stays the cheaper launch past 1 MiB
    /// (18,489,826 B, a forecast past the last probe); at 20,000 (release
    /// builds only: the probes take seconds) at every length. Pinned
    /// params never switch, and the limit is never below the one-round
    /// floor.
    #[test]
    fn priced_limit_on_the_bench_dictionaries() {
        let engine = Engine::new(EngineConfig::new(ExperimentGrid {
            sizes: vec![PRICED_SIZE],
            pattern_counts: vec![SERVE_PATTERNS],
        }));
        let workload = engine.workload();
        let gpu = GpuConfig::gtx285();
        let serve = ServeConfig::new(1);
        let mut counts = vec![SERVE_PATTERNS, LAUNCH_PLAN_PATTERNS];
        if !cfg!(debug_assertions) {
            counts.push(ONE_ROUND_PATTERNS);
        }
        for patterns in counts {
            let ac = workload.automaton(patterns);
            let priced = |params: KernelParams| {
                let m = GpuAcMatcher::new(gpu, params, ac.clone()).unwrap();
                let limit = priced_pfac_limit(&m, &serve, workload.input(PRICED_SIZE));
                (limit, m.pfac_limit(Approach::SharedDiagonal))
            };
            assert_eq!(priced(KernelParams::paper(&gpu)), (None, None));
            let (Some(limit), Some(floor)) = priced(KernelParams::defaults_for(&gpu)) else {
                panic!("{patterns} patterns: planned params never switch");
            };
            assert!(limit >= floor, "{patterns} patterns: {limit} < {floor}");
            match patterns {
                SERVE_PATTERNS => assert!(
                    (256 << 10) < limit && limit < (768 << 10),
                    "{patterns} patterns: {limit}"
                ),
                LAUNCH_PLAN_PATTERNS => assert!(limit >= 1 << 20, "{patterns} patterns: {limit}"),
                _ => assert_eq!(limit, usize::MAX, "{patterns} patterns"),
            }
        }
    }

    /// The launch plan at three points on the figure corpus, for a
    /// launch that overlaps others. A 2 KiB batch on the four-stream
    /// server maps its frame: its kernel and write-out fit under its
    /// upload. Pageable host memory never maps. A 256 KiB staged PFAC
    /// launch at 20,000 patterns on the scan workloads' two streams keeps
    /// DMA: its kernel alone outlasts its upload (92.7 µs against
    /// 53.7 µs), so a mapped write-out would lengthen the busier engine.
    #[test]
    fn launch_plans_map_small_batches_and_keep_dma_where_compute_binds() {
        let engine = Engine::new(EngineConfig::new(ExperimentGrid {
            sizes: vec![256 << 10],
            pattern_counts: vec![SERVE_PATTERNS],
        }));
        let workload = engine.workload();
        let gpu = GpuConfig::gtx285();
        let matcher = |patterns| {
            let ac = workload.automaton(patterns);
            GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).unwrap()
        };
        let small = matcher(SERVE_PATTERNS);
        let batch = workload.input(2 << 10);
        let plan = priced_launch(&small, &ServeConfig::new(4), batch, batch.len());
        assert_eq!((plan.kernel, plan.mapped), (Approach::PfacStaged, true));
        let mut pageable = ServeConfig::new(4);
        pageable.pcie = ac_gpu::PcieConfig::gen2_x16_pageable();
        for streams in [1, 4] {
            pageable.streams = streams;
            let plan = priced_launch(&small, &pageable, batch, batch.len());
            assert!(!plan.mapped, "{streams} stream(s)");
        }
        let scan = matcher(ONE_ROUND_PATTERNS);
        let mut cfg = ServeConfig::new(2);
        cfg.approach = Approach::PfacStaged;
        cfg.limits.max_bytes = 256 << 10;
        let launch = workload.input(256 << 10);
        let plan = priced_launch(&scan, &cfg, launch, launch.len());
        assert_eq!((plan.kernel, plan.mapped), (Approach::PfacStaged, false));
    }

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
            jobs_rejected: None,
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

    fn one_round(patterns: usize, approach: &str, gbps: f64) -> BenchRow {
        BenchRow {
            size: ONE_ROUND_SIZE,
            patterns,
            ..row(approach, gbps)
        }
    }

    /// The twelve rows with the given planned Gb/s at each point, against
    /// paper rows at 10 Gb/s and baseline PFAC rows at 15 Gb/s; the
    /// planned rows at the priced points sit exactly at their floors.
    fn rows(blocks: f64, kernel: f64, serve: f64) -> Vec<BenchRow> {
        let mut rows = vec![row("shared-diagonal", 10.0), row(PLANNED_ROW, blocks)];
        for (patterns, planned) in [(ONE_ROUND_PATTERNS, kernel), (SERVE_PATTERNS, serve)] {
            rows.push(one_round(patterns, "shared-diagonal", 10.0));
            rows.push(one_round(patterns, "pfac", 15.0));
            rows.push(one_round(patterns, PLANNED_ROW, planned));
        }
        for (patterns, floor) in PRICED_FLOORS {
            for (approach, gbps) in [("shared-diagonal", 10.0), (PLANNED_ROW, 10.0 * floor)] {
                rows.push(BenchRow {
                    size: PRICED_SIZE,
                    patterns,
                    ..row(approach, gbps)
                });
            }
        }
        rows
    }

    #[test]
    fn gate_holds_at_the_floor_and_breaks_below_it() {
        let held = check_launch_planning(&report(rows(13.0, 20.0, 20.0))).unwrap();
        assert!(held.contains("1.30x") && held.contains("2.00x"), "{held}");
        let held = check_launch_planning(&report(rows(13.0, 20.0, 18.0))).unwrap_err();
        assert!(
            held.contains("one-round PFAC") && held.contains("1.80x") && held.contains("16384x50"),
            "{held}"
        );
        let held = check_launch_planning(&report(rows(13.0, 30.0, 20.0))).unwrap();
        assert!(
            held.contains("2.00x pfac's Gb/s") && held.contains("1.33x pfac's"),
            "{held}"
        );
        let blocks = check_launch_planning(&report(rows(12.9, 20.0, 20.0))).unwrap_err();
        assert!(
            blocks.contains("planned blocks") && blocks.contains("1.29x"),
            "{blocks}"
        );
        let kernel = check_launch_planning(&report(rows(13.0, 19.9, 20.0))).unwrap_err();
        assert!(
            kernel.contains("one-round PFAC") && kernel.contains("1.99x"),
            "{kernel}"
        );
        // Staged PFAC below 1.2x the baseline breaks the gate even where
        // it clears the paper tile's floor.
        let mut slow = rows(13.0, 20.0, 20.0);
        for r in slow.iter_mut().filter(|r| r.approach == "pfac") {
            r.gbps = 16.8;
        }
        let staged = check_launch_planning(&report(slow)).unwrap_err();
        assert!(
            staged.contains("staged PFAC") && staged.contains("1.19x pfac's"),
            "{staged}"
        );
        // A priced point's planned row below its floor breaks the gate.
        for (patterns, floor) in PRICED_FLOORS {
            let mut slow = rows(13.0, 20.0, 20.0);
            for r in slow
                .iter_mut()
                .filter(|r| r.size == PRICED_SIZE && r.patterns == patterns)
                .filter(|r| r.approach == PLANNED_ROW)
            {
                r.gbps = 10.0 * floor - 0.1;
            }
            let priced = check_launch_planning(&report(slow)).unwrap_err();
            assert!(
                priced.contains("priced PFAC") && priced.contains(&format!("65536x{patterns}")),
                "{priced}"
            );
        }
        let mut missing = rows(13.0, 20.0, 20.0);
        missing.remove(2);
        let missing = check_launch_planning(&report(missing)).unwrap_err();
        assert!(
            missing.contains("missing shared-diagonal row at 16384x20000"),
            "{missing}"
        );
        let mut missing = rows(13.0, 20.0, 20.0);
        missing.retain(|r| !(r.approach == "pfac" && r.patterns == SERVE_PATTERNS));
        let missing = check_launch_planning(&report(missing)).unwrap_err();
        assert!(
            missing.contains("missing pfac row at 16384x50"),
            "{missing}"
        );
    }
}
