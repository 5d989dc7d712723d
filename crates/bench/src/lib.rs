//! # bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§V, Figs. 13–23)
//! from the reproduction stack: workload generation ([`workload`]), the
//! measurement engine that runs each approach over the size × pattern-count
//! grid ([`measure`]), figure assembly/printing/CSV output ([`figures`]),
//! and machine-checked paper-vs-measured verdicts ([`verdict`]).
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
pub mod layout_sweep;
pub mod measure;
pub mod report;
pub mod serving;
pub mod verdict;
pub mod whatif;
pub mod workload;

pub use diff::{diff_reports, DiffEntry, DiffReport, DiffThresholds};
pub use figures::{Figure, FigureSet};
pub use fleet::{
    check_fleet_scaling, check_fleet_scaling_report, fleet_measurements, FLEET_SCALING_FLOOR,
    FLEET_SCENARIOS,
};
pub use layout_sweep::{
    check_layout_crossover, check_layout_crossover_report, layout_sweep_measurements,
    tex_miss_share, LAYOUT_SWEEP_APPROACHES, LAYOUT_SWEEP_PATTERNS, LAYOUT_SWEEP_SIZE,
};
pub use measure::{Engine, EngineConfig, Measurement, Measurements};
pub use report::{row_config_hash, BenchReport, BenchRow, Provenance};
pub use serving::{
    check_light_load_report, check_steady_pool, check_steady_pool_report, serve_chaos_measurements,
    serve_steady_measurements, serving_measurements, serving_measurements_with, CHAOS_SEED,
    LIGHT_LOAD_RATE, LIGHT_LOAD_ROW, SERVING_SCENARIOS,
};
pub use verdict::{evaluate, render, Outcome, Verdict};
pub use whatif::{explain, explain_label, Knob, WhatIfReport, WhatIfRow};
pub use workload::Workload;
