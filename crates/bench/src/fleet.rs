//! The fleet scenario: device-scaling rows for the multi-GPU dispatcher.
//!
//! Replays the default serving workload through [`ac_serve::serve_fleet`]
//! at 1, 2 and 4 devices and flattens each aggregate report into a
//! [`Measurement`] row (`serve-fleet-d1/d2/d4`). Two properties are
//! load-bearing and enforced by [`check_fleet_scaling`], which the bench
//! gate (`acsim bench diff`) re-derives from every committed report:
//!
//! * **d1 parity** — `serve-fleet-d1` runs a 1-device fleet in parity
//!   mode, which is bit-identical to [`ac_serve::serve`] by the
//!   zero-cost-hook contract; its row must equal the committed
//!   `serve-batched-s1` row field for field. A drift here means the
//!   fleet wrapper stopped being free.
//! * **device scaling** — `serve-fleet-d4` must clear 2.5× the d1
//!   jobs/sec. The shared PCIe-bus arbiter makes scaling sublinear, so
//!   this floor pins that contention stays modeled-but-bounded.
//!
//! d2 and d4 run with cost routing armed (the production configuration):
//! the warmup-calibrated router spreads the open-loop arrivals across
//! every GPU plus the CPU ladder.
//!
//! A fourth row, `serve-fleet-scatter-d4`, shards a burst of oversized
//! jobs across four routed devices. The burst backs up, so its makespan
//! (and with it Gb/s and cycles, which every diff gates) measures how far
//! one job's segments overlap on the shared bus.

use crate::measure::{Measurement, Measurements};
use ac_gpu::{GpuAcMatcher, KernelParams};
use ac_serve::{
    serve_automaton, serve_fleet, synthetic_workload, FleetConfig, FleetRun, ServeConfig,
    WorkloadConfig,
};
use gpu_sim::GpuConfig;

/// The fleet scenarios measured, as `(row label, devices)`. Every
/// scenario uses one stream per device so `serve-fleet-d1` is the exact
/// `serve-batched-s1` schedule behind the fleet wrapper.
pub const FLEET_SCENARIOS: [(&str, u32); 3] = [
    ("serve-fleet-d1", 1),
    ("serve-fleet-d2", 2),
    ("serve-fleet-d4", 4),
];

/// The sharded-dispatch row: a burst of oversized jobs, each split across
/// four routed devices (see [`fleet_measurements`]).
const SCATTER_SCENARIO: &str = "serve-fleet-scatter-d4";

/// Minimum `serve-fleet-d4` / `serve-fleet-d1` jobs/sec ratio the bench
/// gate enforces.
pub const FLEET_SCALING_FLOOR: f64 = 2.5;

/// Run every fleet scenario over the default serving workload, plus the
/// scatter scenario over its burst of oversized jobs, and return one
/// measurement row per scenario. Fully deterministic.
pub fn fleet_measurements() -> Result<Measurements, String> {
    let gpu = GpuConfig::gtx285();
    let workload = WorkloadConfig::defaults();
    let ac = serve_automaton(ac_serve::DEFAULT_PATTERNS, workload.seed);
    let matcher =
        GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).map_err(|e| e.to_string())?;
    let jobs = synthetic_workload(&workload);

    let mut out = Measurements::default();
    for (label, devices) in FLEET_SCENARIOS {
        let mut cfg = FleetConfig::new(devices, ServeConfig::new(1));
        if devices == 1 {
            // Parity mode: the d1 row IS the serve-batched-s1 schedule,
            // which the gate pins (cost routing would legitimately move
            // small jobs to the CPU tier and change the row).
            cfg = cfg.parity();
        }
        let run = serve_fleet(&matcher, jobs.clone(), &cfg).map_err(|e| e.to_string())?;
        out.rows.push(fleet_row(label, &run, gpu.clock_hz));
    }

    // The scatter row: 16 jobs of 64–192 KiB, every one at least the
    // 64 KiB shard size, arriving 10 µs apart. That is far faster than the
    // fleet drains them, so the makespan (and with it the row's Gb/s and
    // cycles) measures how far one job's shards overlap.
    let mut cfg = FleetConfig::new(4, ServeConfig::new(1));
    cfg.shard_bytes = Some(64 << 10);
    let burst = synthetic_workload(&WorkloadConfig {
        jobs: 16,
        arrival_rate_per_sec: 100_000,
        job_bytes: 128 << 10,
        ..workload
    });
    let run = serve_fleet(&matcher, burst, &cfg).map_err(|e| e.to_string())?;
    out.rows
        .push(fleet_row(SCATTER_SCENARIO, &run, gpu.clock_hz));
    Ok(out)
}

fn fleet_row(label: &str, run: &FleetRun, clock_hz: f64) -> Measurement {
    let r = &run.serve.report;
    Measurement {
        size: r.payload_bytes as usize,
        patterns: ac_serve::DEFAULT_PATTERNS,
        approach: label.into(),
        seconds: r.makespan_seconds,
        gbps: r.effective_gbps,
        cycles: (r.makespan_seconds * clock_hz).round() as u64,
        cache_hit_rate: 0.0,
        shared_conflicts: 0,
        coalescing_ratio: 0.0,
        match_events: run
            .serve
            .outcomes
            .iter()
            .map(|o| o.matches.len() as u64)
            .sum(),
        idle_cycles: 0,
        stalls: trace::StallBreakdown::default(),
        p99_latency_us: r.p99_latency_us,
        jobs_per_sec: r.jobs_per_sec,
    }
}

fn find<'a>(m: &'a Measurements, label: &str) -> Result<&'a Measurement, String> {
    m.rows
        .iter()
        .find(|r| r.approach == label)
        .ok_or_else(|| format!("missing {label} row"))
}

/// The fleet acceptance criteria over a set of rows: `serve-fleet-d4`
/// clears [`FLEET_SCALING_FLOOR`]× the d1 jobs/sec, and (when the
/// serving rows are present alongside) `serve-fleet-d1` is bit-identical
/// to `serve-batched-s1`. Returns the d4/d1 ratio.
pub fn check_fleet_scaling(m: &Measurements) -> Result<f64, String> {
    let d1 = find(m, "serve-fleet-d1")?;
    let d4 = find(m, "serve-fleet-d4")?;
    if d1.jobs_per_sec <= 0.0 {
        return Err("serve-fleet-d1 completed no jobs".into());
    }
    let ratio = d4.jobs_per_sec / d1.jobs_per_sec;
    if ratio < FLEET_SCALING_FLOOR {
        return Err(format!(
            "fleet scaling below floor: d4 {:.0} jobs/s is only {ratio:.2}x d1 {:.0} jobs/s \
             (need >= {FLEET_SCALING_FLOOR}x)",
            d4.jobs_per_sec, d1.jobs_per_sec
        ));
    }
    // Parity pin: the 1-device fleet row must be the single-device serve
    // row, bit for bit, on every field the report keeps.
    if let Ok(s1) = find(m, "serve-batched-s1") {
        if d1.gbps != s1.gbps
            || d1.cycles != s1.cycles
            || d1.p99_latency_us != s1.p99_latency_us
            || d1.jobs_per_sec != s1.jobs_per_sec
        {
            return Err(format!(
                "serve-fleet-d1 drifted from serve-batched-s1: \
                 gbps {} vs {}, cycles {} vs {}, p99 {} vs {}, jobs/s {} vs {}",
                d1.gbps,
                s1.gbps,
                d1.cycles,
                s1.cycles,
                d1.p99_latency_us,
                s1.p99_latency_us,
                d1.jobs_per_sec,
                s1.jobs_per_sec
            ));
        }
    }
    Ok(ratio)
}

/// The same criteria re-derived from a committed `BENCH_<grid>.json`
/// report — the diff gate's view. `None` when the report predates the
/// fleet scenario (no `serve-fleet-d1` row).
pub fn check_fleet_scaling_report(r: &crate::report::BenchReport) -> Option<Result<f64, String>> {
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
    m.rows.iter().find(|r| r.approach == "serve-fleet-d1")?;
    Some(check_fleet_scaling(&m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::serving_measurements;

    #[test]
    fn fleet_rows_scale_and_pin_d1_parity() {
        let mut m = fleet_measurements().unwrap();
        assert_eq!(m.rows.len(), FLEET_SCENARIOS.len() + 1);
        // Merge in the serving rows so the parity pin engages exactly as
        // it does over a committed report.
        m.extend(serving_measurements().unwrap());
        let ratio = check_fleet_scaling(&m).unwrap();
        assert!(ratio >= FLEET_SCALING_FLOOR, "ratio {ratio}");
        // d2 sits strictly between d1 and d4: scaling is monotonic but
        // sublinear under the shared bus.
        let get = |label: &str| m.rows.iter().find(|r| r.approach == label).unwrap();
        let (d1, d2, d4) = (
            get("serve-fleet-d1"),
            get("serve-fleet-d2"),
            get("serve-fleet-d4"),
        );
        assert!(d2.jobs_per_sec > d1.jobs_per_sec);
        assert!(d4.jobs_per_sec >= d2.jobs_per_sec);
        assert!(
            d4.jobs_per_sec < 4.0 * d1.jobs_per_sec,
            "superlinear scaling is a modelling bug: {} vs {}",
            d4.jobs_per_sec,
            d1.jobs_per_sec
        );
    }

    #[test]
    fn fleet_rows_are_deterministic() {
        let a = fleet_measurements().unwrap();
        let b = fleet_measurements().unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn scaling_check_rejects_a_flat_fleet() {
        let mut m = fleet_measurements().unwrap();
        // Sabotage the d4 row down to d1 throughput.
        let d1_rate = m
            .rows
            .iter()
            .find(|r| r.approach == "serve-fleet-d1")
            .unwrap()
            .jobs_per_sec;
        for r in &mut m.rows {
            if r.approach == "serve-fleet-d4" {
                r.jobs_per_sec = d1_rate;
            }
        }
        let err = check_fleet_scaling(&m).unwrap_err();
        assert!(err.contains("below floor"), "{err}");
    }
}
