//! The fleet scenario: device-scaling rows for the multi-GPU dispatcher.
//!
//! Replays the default serving workload through [`ac_serve::serve_fleet`]
//! at 1, 2 and 4 devices and flattens each aggregate report into a
//! [`Measurement`] row (`serve-fleet-d1/d2/d4`), then replays the same
//! payloads offered four times as fast at 1 and 4 devices
//! (`serve-fleet-burst-d1/d4`). Three properties are load-bearing and
//! enforced by the gate table ([`crate::gates`]) that `repro` and `acsim
//! bench diff` both evaluate:
//!
//! * **d1 parity** — `serve-fleet-d1` runs a 1-device fleet in parity
//!   mode, which is bit-identical to [`ac_serve::serve`] by the
//!   zero-cost-hook contract; its row must equal the committed
//!   `serve-batched-s1` row field for field. A drift here means the
//!   fleet wrapper stopped being free ([`check_fleet_scaling`]).
//! * **device scaling** — `serve-fleet-burst-d4` must clear 2.5× the
//!   burst d1 jobs/sec ([`check_fleet_scaling`]). The shared PCIe-bus
//!   arbiter makes scaling sublinear, so this floor pins that contention
//!   stays modeled-but-bounded. The ratio is taken at
//!   [`FLEET_BURST_RATE`], where four devices are still saturated: at the
//!   default rate `serve-fleet-d4` completes every job offered, so its
//!   jobs/sec measures the arrivals, not the fleet.
//! * **tail latency** — `serve-fleet-d4`'s p99 stays at or below
//!   [`FLEET_D4_P99_US`] ([`check_fleet_tail`]).
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
use crate::report::BenchReport;
use ac_gpu::{GpuAcMatcher, KernelParams};
use ac_serve::{
    serve_automaton, serve_fleet, synthetic_workload, FleetConfig, FleetRun, ServeConfig,
    WorkloadConfig,
};
use gpu_sim::GpuConfig;

/// The fleet scenarios measured, as `(row label, devices, offered
/// load)`. `None` keeps the default workload's arrival rate; `Some(r)`
/// replays the same payloads offered at `r` jobs/s. Every scenario uses
/// one stream per device so `serve-fleet-d1` is the exact
/// `serve-batched-s1` schedule behind the fleet wrapper.
pub const FLEET_SCENARIOS: [(&str, u32, Option<u64>); 5] = [
    ("serve-fleet-d1", 1, None),
    ("serve-fleet-d2", 2, None),
    ("serve-fleet-d4", 4, None),
    ("serve-fleet-burst-d1", 1, Some(FLEET_BURST_RATE)),
    ("serve-fleet-burst-d4", 4, Some(FLEET_BURST_RATE)),
];

/// Offered load of the burst rows, jobs/s: four times the default
/// workload's 1.6M, past what four devices drain.
pub const FLEET_BURST_RATE: u64 = 6_400_000;

/// The sharded-dispatch row: a burst of oversized jobs, each split across
/// four routed devices (see [`fleet_measurements`]).
const SCATTER_SCENARIO: &str = "serve-fleet-scatter-d4";

/// Minimum `serve-fleet-burst-d4` / `serve-fleet-burst-d1` jobs/sec
/// ratio the bench gate enforces.
pub const FLEET_SCALING_FLOOR: f64 = 2.5;

/// Largest `serve-fleet-d4` p99 latency, µs, the bench gate accepts.
pub const FLEET_D4_P99_US: f64 = 75.0;

/// Run every fleet scenario over the default serving workload, plus the
/// scatter scenario over its burst of oversized jobs, and return one
/// measurement row per scenario. Fully deterministic.
pub fn fleet_measurements() -> Result<Measurements, String> {
    let gpu = GpuConfig::gtx285();
    let workload = WorkloadConfig::defaults();
    let ac = serve_automaton(ac_serve::DEFAULT_PATTERNS, workload.seed);
    let matcher =
        GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).map_err(|e| e.to_string())?;

    let mut out = Measurements::default();
    for (label, devices, rate) in FLEET_SCENARIOS {
        let mut cfg = FleetConfig::new(devices, ServeConfig::new(1));
        if devices == 1 {
            // Parity mode: the d1 row IS the serve-batched-s1 schedule,
            // which the gate pins (cost routing would legitimately move
            // small jobs to the CPU tier and change the row).
            cfg = cfg.parity();
        }
        let jobs = synthetic_workload(&WorkloadConfig {
            arrival_rate_per_sec: rate.unwrap_or(workload.arrival_rate_per_sec),
            ..workload
        });
        let run = serve_fleet(&matcher, jobs, &cfg).map_err(|e| e.to_string())?;
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
        jobs_rejected: Some(r.jobs_rejected),
    }
}

/// The fleet acceptance criteria over a report's rows:
/// `serve-fleet-burst-d4` clears [`FLEET_SCALING_FLOOR`]× the burst d1
/// jobs/sec, and (when the serving rows are present alongside)
/// `serve-fleet-d1` is bit-identical to `serve-batched-s1`.
pub fn check_fleet_scaling(r: &BenchReport) -> Result<String, String> {
    let d1 = r.row("serve-fleet-d1")?;
    let burst_d1 = r.row("serve-fleet-burst-d1")?;
    let burst_d4 = r.row("serve-fleet-burst-d4")?;
    if burst_d1.jobs_per_sec <= 0.0 {
        return Err("serve-fleet-burst-d1 completed no jobs".into());
    }
    let ratio = burst_d4.jobs_per_sec / burst_d1.jobs_per_sec;
    if ratio < FLEET_SCALING_FLOOR {
        return Err(format!(
            "fleet scaling below floor: burst d4 {:.0} jobs/s is only {ratio:.2}x \
             burst d1 {:.0} jobs/s (need >= {FLEET_SCALING_FLOOR}x)",
            burst_d4.jobs_per_sec, burst_d1.jobs_per_sec
        ));
    }
    // Parity pin: the 1-device fleet row must be the single-device serve
    // row, bit for bit, on every field the report keeps.
    if let Ok(s1) = r.row("serve-batched-s1") {
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
    Ok(format!(
        "fleet scaling holds: burst d4 at {ratio:.2}x burst d1 jobs/s"
    ))
}

/// `serve-fleet-d4`'s p99 latency stays at or below [`FLEET_D4_P99_US`].
pub fn check_fleet_tail(r: &BenchReport) -> Result<String, String> {
    let p99 = r.row("serve-fleet-d4")?.p99_latency_us;
    if p99 > FLEET_D4_P99_US {
        return Err(format!(
            "serve-fleet-d4 p99 {p99:.1} us is above {FLEET_D4_P99_US} us"
        ));
    }
    Ok(format!(
        "fleet tail holds: serve-fleet-d4 p99 {p99:.1} us (limit {FLEET_D4_P99_US} us)"
    ))
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
        let report = BenchReport::from_measurements("fleet", &m);
        check_fleet_scaling(&report).unwrap();
        check_fleet_tail(&report).unwrap();
        // d2 sits strictly between d1 and d4: scaling is monotonic but
        // sublinear under the shared bus.
        let get = |label: &str| report.row(label).unwrap();
        let (d1, d2, d4) = (
            get("serve-fleet-d1"),
            get("serve-fleet-d2"),
            get("serve-fleet-d4"),
        );
        let (burst_d1, burst_d4) = (get("serve-fleet-burst-d1"), get("serve-fleet-burst-d4"));
        let ratio = burst_d4.jobs_per_sec / burst_d1.jobs_per_sec;
        assert!(ratio >= FLEET_SCALING_FLOOR, "ratio {ratio}");
        assert!(d2.jobs_per_sec > d1.jobs_per_sec);
        assert!(d4.jobs_per_sec >= d2.jobs_per_sec);
        for (d1, d4) in [(d1, d4), (burst_d1, burst_d4)] {
            assert!(
                d4.jobs_per_sec < 4.0 * d1.jobs_per_sec,
                "superlinear scaling is a modelling bug: {} vs {}",
                d4.jobs_per_sec,
                d1.jobs_per_sec
            );
        }
    }

    #[test]
    fn fleet_rows_are_deterministic() {
        let a = fleet_measurements().unwrap();
        let b = fleet_measurements().unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn scaling_check_rejects_a_flat_fleet() {
        let mut report = BenchReport::from_measurements("fleet", &fleet_measurements().unwrap());
        // Sabotage the burst d4 row down to burst d1 throughput.
        let d1_rate = report.row("serve-fleet-burst-d1").unwrap().jobs_per_sec;
        for r in &mut report.rows {
            if r.approach == "serve-fleet-burst-d4" {
                r.jobs_per_sec = d1_rate;
            }
        }
        let err = check_fleet_scaling(&report).unwrap_err();
        assert!(err.contains("below floor"), "{err}");
    }

    #[test]
    fn tail_check_holds_at_the_limit_and_breaks_past_it() {
        for (p99, holds) in [(FLEET_D4_P99_US, true), (FLEET_D4_P99_US + 0.1, false)] {
            let report = BenchReport {
                name: "fleet".into(),
                rows: vec![crate::report::BenchRow {
                    approach: "serve-fleet-d4".into(),
                    size: 1,
                    patterns: ac_serve::DEFAULT_PATTERNS,
                    gbps: 1.0,
                    cycles: 1,
                    idle_cycles: 0,
                    stalls: Default::default(),
                    p99_latency_us: p99,
                    jobs_per_sec: 1.0,
                    jobs_rejected: Some(0),
                    config_hash: 0,
                }],
                provenance: None,
            };
            let outcome = check_fleet_tail(&report);
            assert_eq!(outcome.is_ok(), holds, "{outcome:?}");
        }
    }
}
