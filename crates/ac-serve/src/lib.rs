//! # ac-serve — batched request serving over the multi-stream GPU engine
//!
//! The paper reports kernel-only throughput on one large resident input;
//! the ROADMAP's north star is "serve heavy traffic from millions of
//! users", which is the opposite regime: many *small* scan jobs arriving
//! continuously. Two classic techniques close the gap, and this crate
//! simulates both end to end:
//!
//! * **batching** ([`batch`]) — coalesce queued jobs into one kernel
//!   launch by concatenating payloads with `required_overlap()`-byte
//!   padding gaps (so no match can straddle two jobs), then demux device
//!   matches back to per-job results with offsets re-based;
//! * **streams** ([`fleet`], the one serve loop behind [`serve`] and
//!   [`serve_fleet`]) — dispatch batches across N
//!   in-order streams on the [`gpu_sim::StreamEngine`] so one batch's
//!   PCIe copies overlap another's kernel, subject to the GT200's single
//!   DMA engine.
//!
//! Admission is bounded ([`queue`]): when the queue is full, new jobs are
//! rejected with a typed [`Overloaded`] carrying a drain-rate
//! `retry_after_us` hint instead of growing latency without bound.
//! [`ServeReport`] summarises a run — p50/p99 simulated latency,
//! jobs/sec, effective Gbps, batch-size histogram — and is what
//! `acsim serve-sim` prints and the bench serving scenario records.
//!
//! The serving path also survives faults and overload with *bounded*
//! degradation rather than falling over:
//!
//! * **supervision** — every batch runs under [`ac_gpu::run_supervised`]
//!   (retry, watchdog, CRC-checked readback), with retry penalties
//!   charged to the stream's simulated clock;
//! * **circuit breaker** ([`breaker`]) — consecutive batch failures open
//!   a per-GPU-tier breaker; open batches fail over to the CPU ladder
//!   ([`cpu_ladder_scan`]: parallel CPU, then the serial oracle) until
//!   half-open probes re-earn trust. [`ServedBy`] names the rung that
//!   answered each job. This is the crate's one degradation ladder: a
//!   one-job [`serve`] whose breaker opens on the first failure is the
//!   whole-scan GPU → CPU fallback behind `acsim match --resilient`;
//! * **deadlines** ([`JobExpiry`]) — admitted jobs overdue in the queue
//!   expire as a typed outcome distinct from [`Overloaded`];
//! * **SLO admission control** ([`slo`]) — a control loop over observed
//!   latency sheds the lowest-priority arrivals and widens the batch
//!   window while p99 exceeds the target;
//! * **chaos soak** ([`chaos`]) — a seeded fault storm under sustained
//!   load asserting no wrong matches, no lost admitted jobs, bounded
//!   degradation while the breaker is open, and post-fault recovery.
//!
//! The whole pipeline is observable end to end ([`telemetry`]): armed
//! via `ServeConfig::telemetry`, every job gets a queue-wait + service
//! span timeline stitched above the stream ops that served it, a live
//! metrics registry samples p50/p99/queue-depth/breaker-state on a
//! simulated-time cadence, and an SLO flight recorder keeps the worst
//! exemplars per window. Disarmed, the run is bit-identical — the same
//! zero-cost hook contract as fault injection and tracing.

pub mod batch;
pub mod breaker;
pub mod chaos;
pub mod fleet;
pub mod job;
pub mod kernel_choice;
pub mod queue;
pub mod report;
pub mod sim;
pub mod slo;
pub mod telemetry;
pub mod workload;

pub use batch::{assemble_batch, demux_matches, AssembledBatch, BatchLimits, JobSpan};
pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, Route};
pub use chaos::{chaos_soak, chaos_soak_runs, ChaosConfig, ChaosVerdict};
pub use fleet::{
    cpu_ladder_scan, merge_shard_matches, plan_shards, serve_fleet, CostModel, CostModelSnapshot,
    DeviceReport, FleetConfig, FleetReport, FleetRun, RouterConfig, ShardSegment, TierCounts,
};
pub use job::{JobExpiry, JobOutcome, ScanJob, ServedBy};
pub use kernel_choice::{priced_launch, priced_pfac_limit, LaunchPlan, PRICE_PROBE_MAX_BYTES};
pub use queue::{BoundedQueue, Overloaded};
pub use report::{BatchBucket, PoolStatsReport, ServeReport};
pub use sim::ServeRun;
pub use sim::{serve, ServeConfig, ServePoolConfig, DEFAULT_POOL_CAPACITY};
pub use slo::{AdmissionController, QuantileWindow, SheddedJob, SloConfig};
pub use telemetry::{
    render_slo_report, Exemplar, MetricsSample, PatternCost, ServeTelemetry, TelemetryConfig,
    TelemetryRun,
};
pub use workload::{serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};

/// The degradation ladder end to end: one job through [`serve`] with
/// per-job batches on a breaker that opens on its first failure, which
/// is how `acsim match --resilient` runs. The job is answered by the
/// first rung that holds: supervised GPU, parallel CPU, serial oracle.
#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::{AcAutomaton, Match, PatternSet};
    use ac_cpu::ParallelConfig;
    use ac_gpu::{GpuAcMatcher, KernelParams};
    use gpu_sim::{FaultPlan, GpuConfig};
    use trace::ArgValue;

    const TEXT: &[u8] = b"ushers rush home";

    fn matcher() -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap());
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    }

    fn oracle(m: &GpuAcMatcher, text: &[u8]) -> Vec<Match> {
        let mut want = m.automaton().find_all(text);
        want.sort();
        want
    }

    /// Every launch the retry budget could reach fails.
    fn exhaust() -> FaultPlan {
        (0..64).fold(FaultPlan::none(), |p, i| p.with_launch_transient(i))
    }

    fn one_job(m: &GpuAcMatcher, threads: usize, telemetry: bool) -> (ServeRun, JobOutcome) {
        let mut cfg = ServeConfig::new(1);
        cfg.limits = BatchLimits::per_job();
        cfg.breaker.failure_threshold = 1;
        cfg.parallel = ParallelConfig {
            threads,
            chunk_size: 1024,
        };
        if telemetry {
            cfg.telemetry = Some(TelemetryConfig::default());
        }
        let mut run = serve(m, vec![ScanJob::new(0, TEXT.to_vec(), 0.0)], &cfg).unwrap();
        assert_eq!(run.outcomes.len(), 1);
        let outcome = run.outcomes.pop().unwrap();
        (run, outcome)
    }

    fn str_arg<'a>(e: &'a trace::TraceEvent, key: &str) -> Option<&'a str> {
        e.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    #[test]
    fn clean_scan_stays_on_gpu() {
        let m = matcher();
        let (run, outcome) = one_job(&m, 2, false);
        assert_eq!(outcome.served_by, ServedBy::Gpu);
        assert_eq!(outcome.matches, oracle(&m, TEXT));
        assert!(run.breaker_transitions.is_empty());
    }

    #[test]
    fn exhausted_gpu_falls_back_to_parallel_cpu() {
        let m = matcher();
        m.set_fault_plan(exhaust());
        let (run, outcome) = one_job(&m, 2, false);
        m.clear_fault_plan();
        assert_eq!(outcome.served_by, ServedBy::CpuParallel);
        assert_eq!(outcome.matches, oracle(&m, TEXT));
        assert!(run.report.gpu_retries > 0);
        // The breaker's opening transition carries the last GPU error.
        let open = &run.breaker_transitions[0];
        assert_eq!(open.to, BreakerState::Open);
        assert!(
            open.reason
                .starts_with("1 consecutive batch failures (last: "),
            "{}",
            open.reason
        );
    }

    #[test]
    fn broken_parallel_rung_falls_through_to_serial() {
        let m = matcher();
        m.set_fault_plan(exhaust());
        let (_, outcome) = one_job(&m, 0, false);
        m.clear_fault_plan();
        assert_eq!(outcome.served_by, ServedBy::CpuSerial);
        assert_eq!(outcome.matches, oracle(&m, TEXT));
    }

    #[test]
    fn failed_gpu_construction_starts_degraded() {
        // With no GPU to serve on, the CPU ladder alone answers.
        let mut gpu_cfg = GpuConfig::gtx285();
        gpu_cfg.num_sms = 0; // invalid device
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he"]).unwrap());
        let params = KernelParams::defaults_for(&GpuConfig::gtx285());
        assert!(GpuAcMatcher::new(gpu_cfg, params, ac.clone()).is_err());
        let (matches, served_by) =
            cpu_ladder_scan(&ac, b"hehe", &ParallelConfig::default_for_host());
        assert_eq!(served_by, ServedBy::CpuParallel);
        assert_eq!(matches, ac.find_all(b"hehe"));
    }

    #[test]
    fn traced_clean_scan_reports_gpu_answer() {
        let m = matcher();
        let (run, outcome) = one_job(&m, 2, true);
        assert_eq!(outcome.served_by, ServedBy::Gpu);
        let tel = run.telemetry.expect("telemetry armed");
        let service = tel
            .trace
            .events()
            .iter()
            .find(|e| e.name == "service")
            .expect("the job's service span");
        assert_eq!(str_arg(service, "served_by"), Some("gpu"));
        // The stream ops that served it ride along.
        assert!(tel
            .trace
            .events()
            .iter()
            .any(|e| e.name.starts_with("kernel:")));
    }

    #[test]
    fn traced_fallback_records_abandoned_rungs() {
        let m = matcher();
        m.set_fault_plan(exhaust());
        let (run, outcome) = one_job(&m, 0, true);
        m.clear_fault_plan();
        assert_eq!(outcome.served_by, ServedBy::CpuSerial);
        let tel = run.telemetry.expect("telemetry armed");
        let events = tel.trace.events();
        // The GPU rung's abandonment is the breaker opening, with the
        // error that ended it.
        let open = events
            .iter()
            .find(|e| e.name == "breaker-open")
            .expect("breaker opened");
        assert!(str_arg(open, "reason").is_some_and(|r| r.contains("(last: ")));
        // Both CPU rungs keep the `cpu-ladder` trace label.
        let service = events.iter().find(|e| e.name == "service").unwrap();
        assert_eq!(str_arg(service, "served_by"), Some("cpu-ladder"));
    }

    #[test]
    fn untraced_scan_carries_no_buffer() {
        let m = matcher();
        let (run, outcome) = one_job(&m, 2, false);
        assert_eq!(outcome.served_by, ServedBy::Gpu);
        assert!(run.telemetry.is_none());
    }

    #[test]
    fn cpu_ladder_is_infallible_and_oracle_identical() {
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "hers"]).unwrap());
        let text = b"ushers rush home to her";
        let mut want = ac.find_all(text);
        want.sort();
        // Healthy parallel rung.
        let healthy = ParallelConfig {
            threads: 2,
            chunk_size: 1024,
        };
        assert_eq!(
            cpu_ladder_scan(&ac, text, &healthy),
            (want.clone(), ServedBy::CpuParallel)
        );
        // Broken parallel rung: the serial floor still answers.
        let broken = ParallelConfig {
            threads: 0,
            chunk_size: 1024,
        };
        assert_eq!(
            cpu_ladder_scan(&ac, text, &broken),
            (want, ServedBy::CpuSerial)
        );
    }

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(ServedBy::Gpu.label(), "gpu");
        assert_eq!(ServedBy::CpuParallel.label(), "cpu-parallel");
        assert_eq!(ServedBy::CpuSerial.label(), "cpu-serial");
    }
}
