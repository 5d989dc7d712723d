//! # bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§V, Figs. 13–23)
//! from the reproduction stack: workload generation ([`workload`]), the
//! measurement engine that runs each approach over the size × pattern-count
//! grid ([`measure`]), figure assembly/printing/CSV output ([`figures`]),
//! machine-checked paper-vs-measured verdicts ([`verdict`]), and the
//! ride-along scenarios with the gate table over their rows ([`gates`]).
//!
//! The `repro` binary is the entry point:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all          # every figure, scaled grid
//! cargo run --release -p bench --bin repro -- fig18        # one figure
//! cargo run --release -p bench --bin repro -- all --full   # paper-scale grid (slow)
//! cargo run --release -p bench --bin repro -- ablations    # beyond-paper experiments
//! ```
//!
//! Criterion micro-benches (`cargo bench -p bench`) cover the real
//! host-side implementations (automaton construction, serial and
//! multithreaded matching) and small simulated-kernel runs.

pub mod diff;
pub mod figures;
pub mod fleet;
pub mod gates;
pub mod launch_planning;
pub mod layout_sweep;
pub mod measure;
pub mod report;
pub mod serving;
pub mod verdict;
pub mod whatif;
pub mod workload;

pub use diff::{diff_reports, DiffEntry, DiffReport};
pub use figures::{Figure, FigureSet};
pub use fleet::{
    fleet_measurements, FLEET_BURST_RATE, FLEET_D4_P99_US, FLEET_SCALING_FLOOR, FLEET_SCENARIOS,
};
pub use gates::{evaluate_gates, scenarios, GateOutcome};
pub use layout_sweep::{
    layout_sweep_approaches, layout_sweep_measurements, tex_miss_share, LAYOUT_SWEEP_PATTERNS,
    LAYOUT_SWEEP_SIZE,
};
pub use measure::{Engine, EngineConfig, Measurement, Measurements};
pub use report::{row_config_hash, BenchReport, BenchRow, Provenance};
pub use serving::{
    large_job_measurements, serve_chaos_measurements, serve_steady_measurements,
    serving_measurements, serving_measurements_with, CHAOS_SEED, LARGE_JOB_SCENARIOS,
    LIGHT_LOAD_RATE, LIGHT_LOAD_ROW, SERVING_SCENARIOS,
};
pub use verdict::{evaluate, render, Outcome, Verdict};
pub use whatif::{explain, Knob, WhatIfReport, WhatIfRow};
pub use workload::Workload;
