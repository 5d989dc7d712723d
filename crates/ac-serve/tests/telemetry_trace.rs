//! End-to-end validation of the stitched serving trace: an armed serve
//! run's Chrome export passes the schema validator, parses back, and the
//! events land where the pid scheme promises — job lifecycle spans on
//! [`trace::PID_SERVE_JOBS`], control-plane instants/counters on
//! [`trace::PID_SERVE_CONTROL`], SLO exemplars on
//! [`trace::PID_SERVE_SLO`], and the stream ops they sit above on pids
//! `>= gpu_sim::PID_STREAM_BASE` — with per-job span nesting intact.
//! Also pins the backpressure contract: every `Overloaded.retry_after_us`
//! hint quotes the drain rate the job saw on arrival, and the registry's
//! closing sample carries the report's totals.

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
    let arrival: Vec<f64> = jobs.iter().map(|j| j.arrival_seconds).collect();
    let mut cfg = ServeConfig::new(1);
    cfg.queue_capacity = 4;
    cfg.telemetry = Some(TelemetryConfig::default());
    let run = serve(&m, jobs, &cfg).unwrap();
    assert!(run.report.jobs_rejected > 0, "overload must reject");

    // Each hint quotes `capacity / drain_rate`, the rate being the
    // completions landed by the job's arrival over that time; rejections
    // before the first landing carry none (no rate to quote yet).
    let capacity = cfg.queue_capacity as f64;
    let mut hinted = 0;
    for r in &run.rejections {
        let at = arrival[r.job_id as usize];
        let landed = run
            .outcomes
            .iter()
            .filter(|o| o.completed_seconds <= at)
            .count();
        let want = if landed > 0 {
            capacity * at / landed as f64 * 1.0e6
        } else {
            0.0
        };
        assert_eq!(r.retry_after_us, want, "job {} at {at} s", r.job_id);
        hinted += (landed > 0) as usize;
    }
    assert!(hinted > 0, "no rejection carried a drain-rate hint");

    let tel = run.telemetry.expect("armed");
    // The closing sample's cumulative counters are the report's totals.
    let last = tel.samples.last().unwrap();
    assert_eq!(last.t_seconds, run.report.makespan_seconds);
    assert_eq!(
        (last.completed, last.rejected, last.expired, last.shed),
        (
            run.report.jobs_completed,
            run.report.jobs_rejected,
            run.report.jobs_expired,
            run.report.jobs_shed
        )
    );
}
