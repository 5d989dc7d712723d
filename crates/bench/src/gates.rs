//! The ride-along scenarios and the gate table over their rows.
//!
//! Every `repro` run measures the same seven scenarios next to its figure
//! grid ([`scenarios`]), so every `BENCH_<grid>.json` carries their rows.
//! A row-by-row diff catches a row that moved; it cannot catch a claim
//! *between* rows breaking while each row moves less than its threshold
//! (the smaller layout falling behind dense, d4 sliding toward d1). Each
//! such claim is one [`Gate`] in [`GATES`], and [`evaluate_gates`] checks
//! every gate whose marker row a report carries. `repro` runs it on the
//! report it has just measured and exits 1 when a gate breaks; `acsim
//! bench diff` runs it on the candidate (through
//! [`crate::diff::diff_reports`]) and counts a broken gate as a
//! regression. Adding a claim is one table entry.

use crate::fleet::{check_fleet_scaling, check_fleet_tail, fleet_measurements};
use crate::launch_planning::{check_launch_planning, launch_plan_measurements, PLANNED_ROW};
use crate::layout_sweep::{
    check_layout_crossover, layout_sweep_approaches, layout_sweep_measurements, CROSSOVER_PATTERNS,
    LAYOUT_SWEEP_SIZE,
};
use crate::measure::Measurements;
use crate::report::{BenchReport, BenchRow};
use crate::serving::{
    check_kernel_choice, check_light_load, check_steady_pool, large_job_measurements,
    serve_chaos_measurements, serve_steady_measurements, serving_measurements, CHAOS_SEED,
    LARGE_JOB_SCENARIOS, LIGHT_LOAD_ROW,
};
use serde::{Deserialize, Serialize};

/// A ride-along scenario: the banner `repro` prints while it runs, and
/// the runner (its argument is `--verbose`).
pub type Scenario = (String, fn(bool) -> Result<Measurements, String>);

/// The ride-along scenarios, in the order their rows land in the report.
/// The chaos soak's runner also enforces the soak's hard invariants: a
/// wrong or lost job is an error, which fails the whole `repro` run.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        (
            "serving scenarios (batched multi-stream server)".into(),
            |_| serving_measurements(),
        ),
        (
            format!("serve chaos soak (seed {CHAOS_SEED}, seeded fault storm)"),
            |_| serve_chaos_measurements(),
        ),
        (
            "fleet serving scenarios (multi-device dispatcher)".into(),
            |_| fleet_measurements(),
        ),
        (
            "steady-state pool scenarios (device pool vs churn)".into(),
            |_| serve_steady_measurements(),
        ),
        (
            "large-job scenarios (priced kernel choice vs always staged PFAC)".into(),
            |_| large_job_measurements(),
        ),
        (
            "STT layout sweep (dictionaries up to 20k patterns)".into(),
            layout_sweep_measurements,
        ),
        (
            "launch planning (paper launch vs planned launch, 1 MiB and 16 KiB)".into(),
            launch_plan_measurements,
        ),
    ]
}

/// One claim about a report's rows.
pub(crate) struct Gate {
    /// The claim's name; a broken gate prints it upper-cased.
    name: &'static str,
    /// Whether a row is the gate's marker. A report with no marker row
    /// predates the scenario, and the gate is skipped on it.
    marker: fn(&BenchRow) -> bool,
    /// The claim: `Ok(message)` when it holds, `Err(why)` when it breaks.
    check: fn(&BenchReport) -> Result<String, String>,
}

/// Every gate, in the order their lines print.
pub(crate) const GATES: [Gate; 7] = [
    Gate {
        name: "layout crossover",
        marker: |r| {
            r.approach == layout_sweep_approaches()[0]
                && r.size == LAYOUT_SWEEP_SIZE
                && r.patterns == CROSSOVER_PATTERNS
        },
        check: check_layout_crossover,
    },
    Gate {
        name: "fleet scaling",
        marker: |r| r.approach == "serve-fleet-burst-d1",
        check: check_fleet_scaling,
    },
    Gate {
        name: "fleet tail latency",
        marker: |r| r.approach == "serve-fleet-d4",
        check: check_fleet_tail,
    },
    Gate {
        name: "steady-state pool",
        marker: |r| r.approach == "serve-steady-pooled",
        check: check_steady_pool,
    },
    Gate {
        name: "light-load latency",
        marker: |r| r.approach == LIGHT_LOAD_ROW,
        check: check_light_load,
    },
    Gate {
        name: "kernel choice",
        marker: |r| r.approach == LARGE_JOB_SCENARIOS[1].0,
        check: check_kernel_choice,
    },
    Gate {
        name: "launch planning",
        marker: |r| r.approach == PLANNED_ROW,
        check: check_launch_planning,
    },
];

/// The outcome of one gate on one report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateOutcome {
    /// The gate's name.
    pub gate: String,
    /// Whether the claim held.
    pub held: bool,
    /// The line to print: the gate's message when it held, else
    /// `<NAME> BROKEN: <why>`.
    pub line: String,
}

/// Check every gate whose marker row `r` carries, in table order.
pub fn evaluate_gates(r: &BenchReport) -> Vec<GateOutcome> {
    GATES
        .iter()
        .filter(|g| r.rows.iter().any(g.marker))
        .map(|g| {
            let (held, line) = match (g.check)(r) {
                Ok(message) => (true, message),
                Err(why) => (false, format!("{} BROKEN: {why}", g.name.to_uppercase())),
            };
            GateOutcome {
                gate: g.name.into(),
                held,
                line,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_is_on_and_holds_over_the_committed_smoke_report() {
        let committed = BenchReport::from_json(include_str!("../../../BENCH_smoke.json")).unwrap();
        let outcomes = evaluate_gates(&committed);
        let names: Vec<&str> = outcomes.iter().map(|o| o.gate.as_str()).collect();
        let table: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        assert_eq!(names, table, "a gate's marker row is missing");
        for o in &outcomes {
            assert!(o.held, "{}", o.line);
        }
    }
}
