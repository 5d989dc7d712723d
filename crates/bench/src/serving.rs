//! The serving scenario: bench rows for the batched multi-stream server.
//!
//! Replays the default [`ac_serve`] workload through three server
//! configurations — per-job launches on one stream, batched on one
//! stream, batched on four streams — plus the same payloads offered at
//! light load on two streams, and flattens each [`ServeReport`] into a
//! [`Measurement`] row. The rows land in `BENCH_<grid>.json` next to the
//! kernel grid points, so the perf-regression gate (`acsim bench diff`)
//! guards serving throughput (as `gbps`) and makespan (as `cycles`)
//! exactly like it guards the kernels; the batching-vs-per-job p99 delta
//! and the stream scaling are readable straight off the committed report
//! via the `p99_latency_us` and `jobs_per_sec` columns, and the
//! light-load row's p99 is a gate ([`check_light_load`]).
//!
//! [`ServeReport`]: ac_serve::ServeReport

use crate::measure::{Measurement, Measurements};
use crate::report::BenchReport;
use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
use ac_serve::{
    chaos_soak, serve, serve_automaton, synthetic_workload, ChaosConfig, ServeConfig,
    ServePoolConfig, ServeReport, TelemetryConfig, WorkloadConfig, DEFAULT_POOL_CAPACITY,
};
use gpu_sim::GpuConfig;

/// The scenarios measured, as `(row label, streams, batched, offered
/// load)`. `None` keeps the default workload's arrival rate; `Some(r)`
/// replays the same payloads offered at `r` jobs/s.
pub const SERVING_SCENARIOS: [(&str, u32, bool, Option<u64>); 4] = [
    ("serve-perjob-s1", 1, false, None),
    ("serve-batched-s1", 1, true, None),
    ("serve-batched-s4", 4, true, None),
    (LIGHT_LOAD_ROW, 2, true, Some(LIGHT_LOAD_RATE)),
];

/// Label of the light-load row.
pub const LIGHT_LOAD_ROW: &str = "serve-light-s2";

/// Offered load of the light-load row, jobs/s: arrivals about 250 µs
/// apart, far wider than one ~2 KiB batch's `h2d + kernel + d2h`, so
/// every job is served alone and its latency is its service time.
pub const LIGHT_LOAD_RATE: u64 = 4_000;

/// Run every serving scenario over the default workload and return one
/// measurement row per scenario. Fully deterministic: same tree, same
/// rows.
pub fn serving_measurements() -> Result<Measurements, String> {
    serving_measurements_with(None)
}

/// [`serving_measurements`] with the telemetry hook optionally armed.
/// The rows must be bit-identical either way — telemetry observes the
/// serve loop, it never feeds back into it — and the bench gate pins
/// that: the committed `BENCH_*.json` rows come from the disarmed path,
/// so an armed run drifting would show up as a perf regression.
pub fn serving_measurements_with(
    telemetry: Option<TelemetryConfig>,
) -> Result<Measurements, String> {
    let gpu = GpuConfig::gtx285();
    let workload = WorkloadConfig::defaults();
    let ac = serve_automaton(ac_serve::DEFAULT_PATTERNS, workload.seed);
    let matcher =
        GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).map_err(|e| e.to_string())?;
    let mut out = Measurements::default();
    for (label, streams, batched, rate) in SERVING_SCENARIOS {
        let mut cfg = ServeConfig::new(streams);
        if !batched {
            cfg = cfg.per_job();
        }
        cfg.telemetry = telemetry;
        let jobs = synthetic_workload(&WorkloadConfig {
            arrival_rate_per_sec: rate.unwrap_or(workload.arrival_rate_per_sec),
            ..workload
        });
        let run = serve(&matcher, jobs, &cfg).map_err(|e| e.to_string())?;
        let events = run.outcomes.iter().map(|o| o.matches.len() as u64).sum();
        out.rows.push(serve_row(label, &gpu, &run.report, events));
    }
    Ok(out)
}

/// Run the steady-state allocation scenario over the default workload
/// and return two pinned rows: `serve-steady-unpooled` (the churn
/// baseline — every batch allocates and frees its device buffers and
/// stages through pageable host memory) and `serve-steady-pooled` (the
/// steady-state server — size-classed buffer reuse with pinned host
/// staging). Both run batched on 4 streams so the only difference is
/// the allocation/transfer pipeline. The gate table checks
/// [`check_steady_pool`] on every report, making "pooling pays" a
/// regression-gated claim, not prose.
pub fn serve_steady_measurements() -> Result<Measurements, String> {
    let gpu = GpuConfig::gtx285();
    let workload = WorkloadConfig::defaults();
    let ac = serve_automaton(ac_serve::DEFAULT_PATTERNS, workload.seed);
    let matcher =
        GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).map_err(|e| e.to_string())?;
    let jobs = synthetic_workload(&workload);

    let scenarios = [
        (
            "serve-steady-unpooled",
            ServePoolConfig::churn(DEFAULT_POOL_CAPACITY),
        ),
        (
            "serve-steady-pooled",
            ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY),
        ),
    ];
    let mut out = Measurements::default();
    for (label, pool) in scenarios {
        let cfg = ServeConfig::new(4).with_pool(pool);
        let run = serve(&matcher, jobs.clone(), &cfg).map_err(|e| e.to_string())?;
        let events = run.outcomes.iter().map(|o| o.matches.len() as u64).sum();
        out.rows.push(serve_row(label, &gpu, &run.report, events));
    }
    Ok(out)
}

/// The steady-state acceptance criterion over a report's rows: the
/// pooled server must beat the churn baseline on jobs/sec (strictly)
/// without giving back tail latency (p99 no worse).
pub fn check_steady_pool(r: &BenchReport) -> Result<String, String> {
    let unpooled = r.row("serve-steady-unpooled")?;
    let pooled = r.row("serve-steady-pooled")?;
    if unpooled.jobs_per_sec <= 0.0 {
        return Err("serve-steady-unpooled completed no jobs".into());
    }
    if pooled.jobs_per_sec <= unpooled.jobs_per_sec {
        return Err(format!(
            "pooling stopped paying: pooled {:.0} jobs/s !> unpooled {:.0} jobs/s",
            pooled.jobs_per_sec, unpooled.jobs_per_sec
        ));
    }
    if pooled.p99_latency_us > unpooled.p99_latency_us {
        return Err(format!(
            "pooling gave back tail latency: pooled p99 {:.1}us > unpooled p99 {:.1}us",
            pooled.p99_latency_us, unpooled.p99_latency_us
        ));
    }
    Ok(format!(
        "steady-state pooling pays: pooled at {:.2}x churn jobs/s",
        pooled.jobs_per_sec / unpooled.jobs_per_sec
    ))
}

/// The light-load criterion over a report's rows: at [`LIGHT_LOAD_RATE`]
/// a job's p99 latency must stay below one mean inter-arrival gap. A
/// server that holds a finished batch's readback until the next
/// arrival's upload charges every job about one gap, so this fails
/// exactly when readbacks wait for traffic instead of kernels.
pub fn check_light_load(r: &BenchReport) -> Result<String, String> {
    let p99 = r.row(LIGHT_LOAD_ROW)?.p99_latency_us;
    let gap_us = 1.0e6 / LIGHT_LOAD_RATE as f64;
    if p99 < gap_us {
        Ok(format!(
            "light-load latency holds: p99 {p99:.1}us < one arrival gap {gap_us:.1}us"
        ))
    } else {
        Err(format!(
            "{LIGHT_LOAD_ROW} p99 {p99:.1}us !< one arrival gap {gap_us:.1}us"
        ))
    }
}

/// The large-job rows, as `(row label, streams, configured kernel)`.
/// Each label without `-pfac` runs the default server, whose serve call
/// prices staged PFAC against `shared-diagonal` ([`ac_serve::kernel_choice`]);
/// its `-pfac` twin configures staged PFAC, so every launch runs it.
pub const LARGE_JOB_SCENARIOS: [(&str, u32, Approach); 4] = [
    ("serve-large-s1", 1, Approach::SharedDiagonal),
    ("serve-large-pfac-s1", 1, Approach::PfacStaged),
    ("serve-large-s4", 4, Approach::SharedDiagonal),
    ("serve-large-pfac-s4", 4, Approach::PfacStaged),
];

/// Jobs offered in the large-job scenario, all at once (100,000 jobs/s
/// against a service time near 300 µs).
pub const LARGE_JOBS: u64 = 8;

/// Mean job size of the large-job scenario: launches of 512 KiB to
/// 1.5 MiB, past the serving dictionary's priced switch on one stream.
pub const LARGE_JOB_BYTES: usize = 1 << 20;

/// Run the large-job scenario: [`LARGE_JOBS`] jobs of about
/// [`LARGE_JOB_BYTES`] against the default dictionary, through each of
/// [`LARGE_JOB_SCENARIOS`]. On one stream a launch's price is its
/// `h2d + kernel + d2h`, and past the switch `shared-diagonal`'s
/// kernel is the cheaper; on four the copy engine is the bottleneck and
/// PFAC's smaller readback decides.
pub fn large_job_measurements() -> Result<Measurements, String> {
    let gpu = GpuConfig::gtx285();
    let workload = WorkloadConfig {
        jobs: LARGE_JOBS,
        arrival_rate_per_sec: 100_000,
        job_bytes: LARGE_JOB_BYTES,
        ..WorkloadConfig::defaults()
    };
    let ac = serve_automaton(ac_serve::DEFAULT_PATTERNS, workload.seed);
    let matcher =
        GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).map_err(|e| e.to_string())?;
    let jobs = synthetic_workload(&workload);
    let mut out = Measurements::default();
    for (label, streams, approach) in LARGE_JOB_SCENARIOS {
        let mut cfg = ServeConfig::new(streams);
        cfg.approach = approach;
        let run = serve(&matcher, jobs.clone(), &cfg).map_err(|e| e.to_string())?;
        let events = run.outcomes.iter().map(|o| o.matches.len() as u64).sum();
        out.rows.push(serve_row(label, &gpu, &run.report, events));
    }
    Ok(out)
}

/// The kernel-choice criterion over a report's rows: at each stream
/// count the priced server serves the large jobs at least as fast as the
/// server that always runs staged PFAC.
pub fn check_kernel_choice(r: &BenchReport) -> Result<String, String> {
    let mut held = Vec::new();
    for pair in LARGE_JOB_SCENARIOS.chunks(2) {
        let priced = r.row(pair[0].0)?;
        let pfac = r.row(pair[1].0)?;
        if pfac.jobs_per_sec <= 0.0 {
            return Err(format!("{} completed no jobs", pair[1].0));
        }
        let ratio = priced.jobs_per_sec / pfac.jobs_per_sec;
        if ratio < 1.0 {
            return Err(format!(
                "{} at {:.0} jobs/s, only {ratio:.3}x {}'s {:.0}",
                pair[0].0, priced.jobs_per_sec, pair[1].0, pfac.jobs_per_sec
            ));
        }
        held.push(format!("{ratio:.2}x on {} stream(s)", pair[0].1));
    }
    Ok(format!(
        "kernel choice pays: priced/always-staged-PFAC large-job jobs/s {}",
        held.join(", ")
    ))
}

/// One serving row from a serve report; `match_events` is the matches
/// the run delivered.
fn serve_row(label: &str, gpu: &GpuConfig, r: &ServeReport, match_events: u64) -> Measurement {
    Measurement {
        size: r.payload_bytes as usize,
        patterns: ac_serve::DEFAULT_PATTERNS,
        approach: label.into(),
        seconds: r.makespan_seconds,
        gbps: r.effective_gbps,
        cycles: (r.makespan_seconds * gpu.clock_hz).round() as u64,
        cache_hit_rate: 0.0,
        shared_conflicts: 0,
        coalescing_ratio: 0.0,
        match_events,
        idle_cycles: 0,
        stalls: trace::StallBreakdown::default(),
        p99_latency_us: r.p99_latency_us,
        jobs_per_sec: r.jobs_per_sec,
        jobs_rejected: Some(r.jobs_rejected),
    }
}

/// The fixed seed of the committed chaos rows (and the CI smoke soak):
/// one storm, replayed bit-identically everywhere.
pub const CHAOS_SEED: u64 = 42;

/// Run the seeded chaos soak and return two pinned rows:
/// `serve-chaos-baseline` (the clean run under the full resilience
/// config — supervisor, breaker, deadlines armed but quiescent) and
/// `serve-chaos-faulted` (the same workload through the storm). The
/// bench gate diffing these rows pins both ends of the contract: the
/// baseline row regressing means resilience stopped being free when
/// idle; the faulted row regressing means degradation got worse. The
/// soak's hard invariants (no wrong matches, no lost jobs, recovery)
/// are enforced here — a violated verdict is an error, not a row.
pub fn serve_chaos_measurements() -> Result<Measurements, String> {
    let gpu = GpuConfig::gtx285();
    let chaos = ChaosConfig::smoke(CHAOS_SEED);
    let ac = serve_automaton(ac_serve::DEFAULT_PATTERNS, chaos.workload.seed);
    let matcher =
        GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).map_err(|e| e.to_string())?;
    let verdict = chaos_soak(&matcher, &chaos).map_err(|e| e.to_string())?;
    if !verdict.passed() {
        return Err(format!(
            "chaos soak (seed {CHAOS_SEED}) violated its invariants: {}",
            verdict.violations.join("; ")
        ));
    }
    let mut out = Measurements::default();
    out.rows.push(serve_row(
        "serve-chaos-baseline",
        &gpu,
        &verdict.baseline,
        0,
    ));
    out.rows
        .push(serve_row("serve-chaos-faulted", &gpu, &verdict.faulted, 0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::evaluate_gates;

    #[test]
    fn serving_rows_meet_the_headline_deltas() {
        let m = serving_measurements().unwrap();
        assert_eq!(m.rows.len(), SERVING_SCENARIOS.len());
        let get = |label: &str| m.rows.iter().find(|r| r.approach == label).unwrap();
        let perjob = get("serve-perjob-s1");
        let batched = get("serve-batched-s1");
        let streamed = get("serve-batched-s4");
        // The two committed acceptance deltas: batching beats per-job
        // launches on p99 latency, and 4 streams beat 1 on jobs/sec.
        assert!(
            batched.p99_latency_us < perjob.p99_latency_us,
            "batched p99 {} !< per-job p99 {}",
            batched.p99_latency_us,
            perjob.p99_latency_us
        );
        assert!(
            streamed.jobs_per_sec >= 1.5 * batched.jobs_per_sec,
            "streams=4 {} jobs/s !>= 1.5x streams=1 {} jobs/s",
            streamed.jobs_per_sec,
            batched.jobs_per_sec
        );
    }

    #[test]
    fn light_load_row_passes_its_gate_and_the_gate_bites() {
        let m = serving_measurements().unwrap();
        let report = BenchReport::from_measurements("new", &m);
        check_light_load(&report).unwrap();
        let p99 = report.row(LIGHT_LOAD_ROW).unwrap().p99_latency_us;
        let gap = 1.0e6 / LIGHT_LOAD_RATE as f64;
        assert!(p99 < gap / 2.0, "p99 {p99}us vs gap {gap}us");
        // One arrival gap of extra wait per job (readbacks held for the
        // next upload) trips the gate; a report without the row skips it.
        let mut held = report.clone();
        for row in held
            .rows
            .iter_mut()
            .filter(|r| r.approach == LIGHT_LOAD_ROW)
        {
            row.p99_latency_us += gap;
        }
        assert!(check_light_load(&held).is_err());
        let legacy = BenchReport::from_measurements("old", &Measurements::default());
        assert!(evaluate_gates(&legacy).is_empty());
    }

    #[test]
    fn kernel_choice_check_holds_at_parity_and_breaks_below_it() {
        let row = |label: &str, jobs_per_sec: f64| crate::report::BenchRow {
            approach: label.into(),
            size: 1 << 23,
            patterns: ac_serve::DEFAULT_PATTERNS,
            gbps: 1.0,
            cycles: 100,
            idle_cycles: 0,
            stalls: Default::default(),
            p99_latency_us: 0.0,
            jobs_per_sec,
            jobs_rejected: Some(0),
            config_hash: 0,
        };
        let report = |rates: [f64; 4]| BenchReport {
            name: "large".into(),
            rows: LARGE_JOB_SCENARIOS
                .iter()
                .zip(rates)
                .map(|((label, ..), rate)| row(label, rate))
                .collect(),
            provenance: None,
        };
        let held = check_kernel_choice(&report([3_300.0, 3_000.0, 4_300.0, 4_300.0])).unwrap();
        assert!(held.contains("1.10x on 1 stream(s), 1.00x on 4"), "{held}");
        assert!(check_kernel_choice(&report([3_300.0, 3_000.0, 4_200.0, 4_300.0])).is_err());
        assert!(check_kernel_choice(&report([2_900.0, 3_000.0, 4_300.0, 4_300.0])).is_err());
    }

    #[test]
    fn serving_rows_are_deterministic() {
        let a = serving_measurements().unwrap();
        let b = serving_measurements().unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn telemetry_does_not_move_the_bench_rows() {
        // The zero-cost contract at the bench-gate level: arming the
        // telemetry hook must leave every committed row bit-identical.
        let disarmed = serving_measurements_with(None).unwrap();
        let armed = serving_measurements_with(Some(TelemetryConfig::default())).unwrap();
        assert_eq!(disarmed.rows, armed.rows);
    }

    #[test]
    fn steady_rows_show_pooling_pays_and_are_deterministic() {
        let m = serve_steady_measurements().unwrap();
        assert_eq!(m.rows.len(), 2);
        let report = BenchReport::from_measurements("new", &m);
        check_steady_pool(&report).unwrap();
        let ratio = report.row("serve-steady-pooled").unwrap().jobs_per_sec
            / report.row("serve-steady-unpooled").unwrap().jobs_per_sec;
        assert!(ratio > 1.0, "ratio {ratio}");
        // Deterministic: the committed rows replay bit-identically.
        let again = serve_steady_measurements().unwrap();
        assert_eq!(m.rows, again.rows);
        // A report missing the marker row predates the scenario: the
        // gate skips rather than failing old baselines. A report
        // carrying the rows turns the gate on, and it holds.
        let legacy = BenchReport::from_measurements("old", &Measurements::default());
        assert!(evaluate_gates(&legacy).is_empty());
        let outcomes = evaluate_gates(&report);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].gate, "steady-state pool");
        assert!(outcomes[0].held, "{}", outcomes[0].line);
    }

    #[test]
    fn chaos_rows_enforce_the_soak_contract() {
        // serve_chaos_measurements errors on any soak violation, so the
        // rows existing at all is the acceptance gate (no lost jobs, no
        // wrong matches, breaker opened and recovered).
        let m = serve_chaos_measurements().unwrap();
        assert_eq!(m.rows.len(), 2);
        let get = |label: &str| m.rows.iter().find(|r| r.approach == label).unwrap();
        let baseline = get("serve-chaos-baseline");
        let faulted = get("serve-chaos-faulted");
        // The storm's cost shows up in latency, not makespan (the
        // open-loop tail is arrival-driven either way); degradation is
        // visible but bounded (the soak's own ratio checks).
        assert!(baseline.seconds > 0.0 && faulted.seconds > 0.0);
        assert!(faulted.p99_latency_us > baseline.p99_latency_us);
        assert!(faulted.jobs_per_sec > 0.0);
        // Deterministic: the committed rows replay bit-identically.
        let again = serve_chaos_measurements().unwrap();
        assert_eq!(m.rows, again.rows);
    }
}
