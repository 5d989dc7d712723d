//! End-to-end validation of the stitched serving trace: an armed serve
//! run's Chrome export passes the schema validator, parses back, and the
//! events land where the pid scheme promises — job lifecycle spans on
//! [`trace::PID_SERVE_JOBS`], control-plane instants/counters on
//! [`trace::PID_SERVE_CONTROL`], SLO exemplars on
//! [`trace::PID_SERVE_SLO`], and the stream ops they sit above on pids
//! `>= gpu_sim::PID_STREAM_BASE` — with per-job span nesting intact.
//! Also pins the backpressure contract: every `Overloaded.retry_after_us`
//! hint is consistent with the drain rate the metrics registry observed.

use std::collections::HashSet;

use ac_core::{AcAutomaton, PatternSet};
use ac_gpu::{GpuAcMatcher, KernelParams};
use ac_serve::{
    serve, synthetic_workload, ScanJob, ServeConfig, TelemetryConfig, TelemetryRun, WorkloadConfig,
};
use gpu_sim::{FaultPlan, GpuConfig, PID_STREAM_BASE};
use trace::{
    ArgValue, Phase, TraceEvent, PID_SERVE_CONTROL, PID_SERVE_JOBS, PID_SERVE_LIMIT, PID_SERVE_SLO,
};

fn matcher() -> GpuAcMatcher {
    let cfg = GpuConfig::gtx285();
    let ac =
        AcAutomaton::build(&PatternSet::from_strs(&["the", "and", "ing", "tion", "her"]).unwrap());
    GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
}

fn workload(jobs: u64) -> Vec<ScanJob> {
    synthetic_workload(&WorkloadConfig {
        jobs,
        arrival_rate_per_sec: 2000,
        job_bytes: 4096,
        ..WorkloadConfig::defaults()
    })
}

/// Export → validate → parse: the round trip every downstream consumer
/// (Perfetto, `acsim slo-report`) depends on.
fn round_trip(tel: &TelemetryRun) -> Vec<TraceEvent> {
    let json = tel.chrome_json();
    let summary = trace::validate_chrome_json(&json).expect("stitched trace must validate");
    assert!(summary.events > 0);
    assert!(summary.spans > 0, "no Complete spans in {summary:?}");
    trace::parse_chrome_json(&json, 1.0).expect("validated trace must parse")
}

fn arg_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            _ => None,
        })
}

#[test]
fn clean_run_stitches_job_spans_above_stream_ops() {
    let m = matcher();
    let mut cfg = ServeConfig::new(2);
    cfg.telemetry = Some(TelemetryConfig::default());
    let run = serve(&m, workload(16), &cfg).unwrap();
    let tel = run.telemetry.expect("armed");
    let events = round_trip(&tel);

    // Pid separation: serving planes below the limit, stream ops above
    // the base, nothing in the reserved gap.
    let pids: HashSet<u32> = events.iter().map(|e| e.pid).collect();
    assert!(pids.contains(&PID_SERVE_JOBS), "no job-plane events");
    assert!(pids.contains(&PID_SERVE_CONTROL), "no control-plane events");
    assert!(pids.contains(&PID_SERVE_SLO), "no exemplar events");
    assert!(
        pids.iter().any(|p| *p >= PID_STREAM_BASE),
        "no stream ops stitched in: pids {pids:?}"
    );
    assert!(
        pids.iter()
            .all(|p| *p < PID_SERVE_LIMIT || *p >= PID_STREAM_BASE),
        "event in the reserved pid gap: {pids:?}"
    );

    // Per-job nesting: every completed job has a queue-wait span whose
    // end meets its service span's start (±1 µs of export rounding), and
    // the service span covers the stream ops' time range plausibly —
    // i.e. it ends no earlier than it starts (the validator already
    // rejects negative durations; `dur` is unsigned end to end).
    let spans = |name: &str| -> Vec<&TraceEvent> {
        events
            .iter()
            .filter(|e| e.ph == Phase::Complete && e.pid == PID_SERVE_JOBS && e.name == name)
            .collect()
    };
    let services = spans("service");
    let waits = spans("queue-wait");
    assert_eq!(services.len() as u64, run.report.jobs_completed);
    for svc in &services {
        let job = arg_u64(svc, "job").expect("service span names its job");
        let wait = waits
            .iter()
            .find(|w| arg_u64(w, "job") == Some(job))
            .unwrap_or_else(|| panic!("job {job} has no queue-wait span"));
        let wait_end = wait.ts + wait.dur;
        assert!(
            wait_end.abs_diff(svc.ts) <= 1,
            "job {job}: queue-wait ends at {wait_end} but service starts at {}",
            svc.ts
        );
    }

    // Exemplar spans carry the flight recorder's verdicts.
    let exemplars: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.pid == PID_SERVE_SLO && e.ph == Phase::Complete)
        .collect();
    assert!(!exemplars.is_empty());
    assert_eq!(exemplars.len(), tel.exemplars.len());

    // A single-device run is the one-device fleet, and its trace carries
    // no fleet device tags.
    let tagged: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.args.iter().any(|(k, _)| k == "device"))
        .collect();
    assert!(
        tagged.is_empty(),
        "device args in a serve() trace: {tagged:?}"
    );
}

#[test]
fn faulted_run_records_breaker_transitions_and_renders_the_incident() {
    let m = matcher();
    // Every launch fails with a zero retry budget: the breaker opens at
    // its threshold and the CPU ladder answers everything after.
    let mut plan = FaultPlan::none();
    for i in 0..64 {
        plan = plan.with_launch_transient(i);
    }
    m.set_fault_plan(plan);
    let mut cfg = ServeConfig::new(1);
    cfg.supervise.max_retries = 0;
    cfg.breaker.cooldown_seconds = 1.0; // never half-opens in-run
    cfg.telemetry = Some(TelemetryConfig::default());
    let run = serve(&m, workload(12), &cfg).unwrap();
    m.clear_fault_plan();
    assert_eq!(run.report.breaker_opens, 1);

    let tel = run.telemetry.expect("armed");
    let events = round_trip(&tel);
    let breaker_instants: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            e.pid == PID_SERVE_CONTROL && e.ph == Phase::Instant && e.name.starts_with("breaker-")
        })
        .collect();
    assert!(
        breaker_instants.iter().any(|e| e.name == "breaker-open"),
        "breaker opened but the trace has no breaker-open instant"
    );
    assert_eq!(breaker_instants.len(), run.breaker_transitions.len());

    // The incident narrative built from the same events names the
    // timeline and the worst offenders.
    let report = ac_serve::render_slo_report(&events);
    assert!(report.contains("breaker timeline:"), "{report}");
    assert!(report.contains("open"), "{report}");
    assert!(report.contains("worst-latency exemplars:"), "{report}");
    assert!(report.contains("cpu-ladder"), "{report}");
}

#[test]
fn retry_after_hints_are_consistent_with_the_observed_drain_rate() {
    let m = matcher();
    // A sustained overload: a tiny queue under an arrival rate far past
    // the service rate, so rejections keep happening while completions
    // accumulate — exactly the regime the retry hint is for.
    let jobs = synthetic_workload(&WorkloadConfig {
        jobs: 160,
        arrival_rate_per_sec: 4_000_000,
        job_bytes: 4096,
        ..WorkloadConfig::defaults()
    });
    let mut cfg = ServeConfig::new(1);
    cfg.queue_capacity = 4;
    cfg.telemetry = Some(TelemetryConfig::default());
    let run = serve(&m, jobs, &cfg).unwrap();
    assert!(run.report.jobs_rejected > 0, "overload must reject");

    // Hints quote `capacity / drain_rate`; zero-hint rejections happened
    // before the first completion (no rate to quote yet).
    let hints: Vec<f64> = run
        .rejections
        .iter()
        .map(|r| r.retry_after_us)
        .filter(|h| *h > 0.0)
        .collect();
    assert!(!hints.is_empty(), "no rejection carried a drain-rate hint");

    // Reconstruct the cumulative drain rate the serve loop quoted from
    // the registry's samples (cumulative completions at sampled times).
    let tel = run.telemetry.expect("armed");
    let rates: Vec<f64> = tel
        .samples
        .iter()
        .filter(|s| s.t_seconds > 0.0 && s.completed > 0)
        .map(|s| s.completed as f64 / s.t_seconds)
        .collect();
    assert!(!rates.is_empty(), "registry sampled no completions");
    let min_rate = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_rate = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let capacity = cfg.queue_capacity as f64;
    // The hint's basis is the cumulative rate *at rejection time*, which
    // the cadence samples only bracket — so the envelope allows a 4x
    // band around the sampled extremes. That is still tight enough to
    // catch a wrong unit (µs vs s) or a wrong numerator (queue length vs
    // capacity), which is what this pin is for.
    for hint in &hints {
        let implied_rate = capacity * 1.0e6 / hint;
        assert!(
            implied_rate >= 0.25 * min_rate && implied_rate <= 4.0 * max_rate,
            "hint {hint} µs implies {implied_rate:.0} jobs/s, outside \
             [{:.0}, {:.0}] from the sampled registry",
            0.25 * min_rate,
            4.0 * max_rate
        );
    }
    // The final sample's cumulative counters agree with the report.
    let last = tel.samples.last().unwrap();
    assert_eq!(last.completed, run.report.jobs_completed);
    assert_eq!(last.rejected, run.report.jobs_rejected);
}
