//! The serving API: server policy ([`ServeConfig`]), device-pool policy
//! ([`ServePoolConfig`]), and [`serve`], the single-device entry point.
//!
//! [`serve`] *is* the one-device parity fleet: it calls
//! [`crate::serve_fleet`] with one device and routing off, so there is
//! exactly one admit → batch → dispatch → staged-readback loop in the
//! crate, and it lives in [`crate::fleet`]. The module docs there describe
//! it: the staged readback issue that keeps one DMA engine from
//! false-serialising uploads behind running kernels, supervised execution
//! with CPU-ladder failover behind a circuit breaker, deadline expiry, and
//! SLO admission control.

use crate::batch::BatchLimits;
use crate::breaker::{BreakerConfig, BreakerTransition};
use crate::fleet::{serve_fleet, FleetConfig};
use crate::job::{JobExpiry, JobOutcome, ScanJob};
use crate::queue::Overloaded;
use crate::report::ServeReport;
use crate::slo::{SheddedJob, SloConfig};
use crate::telemetry::{TelemetryConfig, TelemetryRun};
use ac_cpu::ParallelConfig;
use ac_gpu::{Approach, DevicePoolConfig, GpuAcMatcher, GpuError, PcieConfig, SuperviseConfig};
use cpu_sim::CpuConfig;
use gpu_sim::{HostMemory, StreamTimeline};

/// Device-memory pool policy for the serving path.
///
/// Armed (`ServeConfig::pool = Some(..)`), every GPU batch leases its
/// corpus and result buffers from a per-device [`ac_gpu::DevicePool`]
/// instead of the legacy untracked scratch space, and the allocator's
/// driver cycles (misses and churn frees — hits are free) delay that
/// batch's upload.
/// `pinned_host` additionally selects the host-memory model: pinned pages
/// transfer at full link speed, pageable ones pay a staging copy at
/// reduced bandwidth ([`HostMemory`]). Disarmed (`None`) the serve loop
/// is bit-identical to the pre-pool server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServePoolConfig {
    /// Device bytes the pool's allocator manages.
    pub capacity_bytes: u64,
    /// Recycle returned buffers through size classes; off = alloc/free
    /// per batch (the churn baseline).
    pub reuse: bool,
    /// Host staging buffers are pinned (full-speed DMA). Off models
    /// pageable host memory: a staging copy at reduced bandwidth and
    /// twice the bus traffic per transfer.
    pub pinned_host: bool,
}

/// Default pool capacity: comfortably holds per-stream corpus (the 1 MiB
/// batch cap plus overlap padding) and result buffers across 16 streams.
pub const DEFAULT_POOL_CAPACITY: u64 = 64 << 20;

impl ServePoolConfig {
    /// Steady-state serving: reuse on, pinned host staging.
    pub fn pooled(capacity_bytes: u64) -> Self {
        ServePoolConfig {
            capacity_bytes,
            reuse: true,
            pinned_host: true,
        }
    }

    /// The churn baseline: alloc/free per batch, pageable host memory.
    pub fn churn(capacity_bytes: u64) -> Self {
        ServePoolConfig {
            capacity_bytes,
            reuse: false,
            pinned_host: false,
        }
    }

    /// The underlying [`ac_gpu::DevicePool`] configuration.
    pub fn device_pool_config(&self) -> DevicePoolConfig {
        if self.reuse {
            DevicePoolConfig::new(self.capacity_bytes)
        } else {
            DevicePoolConfig::churn(self.capacity_bytes)
        }
    }
}

/// Server policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Streams to dispatch across.
    pub streams: u32,
    /// Bounded-queue capacity (jobs waiting, beyond the one being formed).
    pub queue_capacity: usize,
    /// Batch coalescing limits ([`BatchLimits::per_job`] disables).
    pub limits: BatchLimits,
    /// Host↔device link model.
    pub pcie: PcieConfig,
    /// Kernel approach for every launch.
    pub approach: Approach,
    /// Per-batch GPU retry/watchdog policy. With no faults armed the
    /// supervisor is pure bookkeeping: one attempt, zero penalty.
    pub supervise: SuperviseConfig,
    /// GPU-tier circuit breaker policy.
    pub breaker: BreakerConfig,
    /// SLO admission control; `None` disables shedding and batch-window
    /// adaptation entirely.
    pub slo: Option<SloConfig>,
    /// Serving telemetry (span timeline, metrics registry, SLO flight
    /// recorder); `None` disarms every probe and keeps the run
    /// bit-identical to a pre-telemetry serve.
    pub telemetry: Option<TelemetryConfig>,
    /// Worker geometry for the CPU failover ladder's parallel rung
    /// (functional only; timing comes from the model below).
    pub parallel: ParallelConfig,
    /// CPU timing model for failover batches.
    pub cpu: CpuConfig,
    /// Modelled cores the failover executor runs on (fixed, so failover
    /// timing is host-independent).
    pub cpu_cores: usize,
    /// Device-memory pool for per-batch corpus/result buffers; `None`
    /// keeps the legacy untracked-scratch path bit-identical.
    pub pool: Option<ServePoolConfig>,
}

impl ServeConfig {
    /// Batched serving on `streams` streams with repo-default knobs.
    pub fn new(streams: u32) -> Self {
        ServeConfig {
            streams,
            queue_capacity: 256,
            limits: BatchLimits {
                max_jobs: 32,
                max_bytes: 1 << 20,
            },
            pcie: PcieConfig::gen2_x16(),
            approach: Approach::SharedDiagonal,
            supervise: SuperviseConfig::default(),
            breaker: BreakerConfig::default(),
            slo: None,
            telemetry: None,
            parallel: ParallelConfig::default_for_host(),
            cpu: CpuConfig::core2duo_2_2ghz(),
            cpu_cores: 2,
            pool: None,
        }
    }

    /// Same server but per-job launches (the batching ablation).
    pub fn per_job(mut self) -> Self {
        self.limits = BatchLimits::per_job();
        self
    }

    /// Enable SLO admission control.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Arm serving telemetry.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Arm the device-memory pool.
    pub fn with_pool(mut self, pool: ServePoolConfig) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The link model the serve loop actually prices transfers with: the
    /// configured [`PcieConfig`], downgraded to the pageable host-memory
    /// model when an armed pool opts out of pinned staging. With the pool
    /// disarmed (or pinned) this is `self.pcie` unchanged, so every
    /// legacy schedule is preserved bit-for-bit.
    pub fn effective_pcie(&self) -> PcieConfig {
        match self.pool {
            Some(p) if !p.pinned_host => self.pcie.with_host_memory(HostMemory::pageable_default()),
            _ => self.pcie,
        }
    }
}

/// Everything a serve simulation produced.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The summary (latency percentiles, throughput, histogram).
    pub report: ServeReport,
    /// Per-job results in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs refused by backpressure.
    pub rejections: Vec<Overloaded>,
    /// Admitted jobs whose deadline passed while queued.
    pub expiries: Vec<JobExpiry>,
    /// Jobs turned away by SLO admission control.
    pub sheds: Vec<SheddedJob>,
    /// Circuit-breaker state changes, in time order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// The scheduled op timeline (Chrome-trace exportable).
    pub timeline: StreamTimeline,
    /// Everything telemetry recorded, when armed (`None` when disarmed).
    pub telemetry: Option<TelemetryRun>,
}

/// Serve `jobs` (an open-loop arrival sequence) through `matcher` on one
/// device: the parity fleet of one ([`serve_fleet`] with routing off).
///
/// # Errors
/// An invalid link model, a non-finite arrival time, or a device pool too
/// small for a batch ([`GpuError`]).
pub fn serve(
    matcher: &GpuAcMatcher,
    jobs: Vec<ScanJob>,
    cfg: &ServeConfig,
) -> Result<ServeRun, GpuError> {
    serve_fleet(matcher, jobs, &FleetConfig::new(1, *cfg).parity()).map(|r| r.serve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ServedBy;
    use crate::workload::{synthetic_workload, WorkloadConfig};
    use ac_core::{AcAutomaton, PatternSet};
    use ac_gpu::KernelParams;
    use gpu_sim::{FaultPlan, GpuConfig, StreamOpKind};

    fn matcher() -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let ac = AcAutomaton::build(
            &PatternSet::from_strs(&["the", "and", "ing", "tion", "her"]).unwrap(),
        );
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    }

    fn tiny_workload() -> Vec<ScanJob> {
        synthetic_workload(&WorkloadConfig {
            jobs: 12,
            arrival_rate_per_sec: 2000,
            job_bytes: 4096,
            ..WorkloadConfig::defaults()
        })
    }

    fn assert_oracle_matches(m: &GpuAcMatcher, jobs: &[ScanJob], run: &ServeRun) {
        for job in jobs {
            let out = run.outcomes.iter().find(|o| o.id == job.id).unwrap();
            let mut expect = m.automaton().find_all(&job.payload);
            expect.sort();
            let mut got = out.matches.clone();
            got.sort();
            assert_eq!(got, expect, "job {}", job.id);
        }
    }

    #[test]
    fn serves_every_job_with_oracle_matches() {
        let m = matcher();
        let jobs = tiny_workload();
        let run = serve(&m, jobs.clone(), &ServeConfig::new(2)).unwrap();
        assert_eq!(run.report.jobs_completed, jobs.len() as u64);
        assert_eq!(run.report.jobs_rejected, 0);
        assert_eq!(run.report.gpu_retries, 0);
        assert_eq!(run.report.breaker_opens, 0);
        assert_eq!(run.report.cpu_fallback_batches, 0);
        assert_oracle_matches(&m, &jobs, &run);
        assert!(run.outcomes.iter().all(|o| o.served_by == ServedBy::Gpu));
        assert!(run.outcomes.iter().all(|o| o.latency_seconds > 0.0));
        let hist_total: u64 = run.report.batch_histogram.iter().map(|b| b.count).sum();
        assert_eq!(hist_total, run.report.batches);
    }

    #[test]
    fn per_job_mode_never_coalesces() {
        let m = matcher();
        let run = serve(&m, tiny_workload(), &ServeConfig::new(1).per_job()).unwrap();
        assert!(!run.report.batched);
        assert_eq!(run.report.batches, run.report.jobs_completed);
        assert!(run.outcomes.iter().all(|o| o.batch_jobs == 1));
    }

    #[test]
    fn single_stream_timeline_has_no_overlap() {
        let m = matcher();
        let run = serve(&m, tiny_workload(), &ServeConfig::new(1)).unwrap();
        // One in-order stream: ops execute back to back (plus arrival
        // idle gaps), so busy time never exceeds the makespan and no two
        // ops overlap.
        let mut ops = run.timeline.ops.clone();
        ops.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for w in ops.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-15);
        }
    }

    #[test]
    fn tiny_queue_rejects_under_burst_with_retry_hint() {
        let m = matcher();
        // Near-simultaneous arrivals of slow jobs; capacity 2 must bounce
        // most of the backlog once the server is busy.
        let jobs: Vec<ScanJob> = (0..10)
            .map(|id| ScanJob::new(id, vec![b't'; 32 * 1024], id as f64 * 1.0e-6))
            .collect();
        let mut cfg = ServeConfig::new(1).per_job();
        cfg.queue_capacity = 2;
        let run = serve(&m, jobs, &cfg).unwrap();
        assert!(run.report.jobs_rejected > 0);
        assert_eq!(
            run.report.jobs_completed + run.report.jobs_rejected,
            run.report.jobs_submitted
        );
        assert!(run.rejections.iter().all(|r| r.capacity == 2));
        // Rejections issued after the first completion carry a positive
        // drain-rate hint.
        assert!(run.rejections.iter().any(|r| r.retry_after_us > 0.0));
    }

    #[test]
    fn transient_faults_are_retried_and_charged() {
        let m = matcher();
        let clean = serve(&m, tiny_workload(), &ServeConfig::new(1)).unwrap();
        m.set_fault_plan(FaultPlan::none().with_launch_transient(0));
        let faulted = serve(&m, tiny_workload(), &ServeConfig::new(1)).unwrap();
        m.clear_fault_plan();
        assert_eq!(faulted.report.gpu_retries, 1);
        assert_eq!(faulted.report.faults_fired, 1);
        assert_eq!(faulted.report.breaker_opens, 0);
        assert_eq!(faulted.report.jobs_completed, faulted.report.jobs_submitted);
        // The retry's backoff is on the clock: the faulted batch (and the
        // jobs in it) finishes later than in the clean run. The makespan
        // may not move — the penalty hides in the idle gap before the
        // next arrival — but the affected completion must.
        let first = |run: &ServeRun| {
            run.outcomes
                .iter()
                .find(|o| o.id == 0)
                .expect("job 0 served")
                .completed_seconds
        };
        assert!(first(&faulted) > first(&clean));
        assert_oracle_matches(&m, &tiny_workload(), &faulted);
    }

    #[test]
    fn exhausted_retries_fail_over_and_trip_the_breaker() {
        let m = matcher();
        // Every launch fails: with a zero retry budget each GPU batch
        // fails immediately, the breaker opens at the threshold, and
        // everything is answered by the CPU ladder.
        let mut plan = FaultPlan::none();
        for i in 0..64 {
            plan = plan.with_launch_transient(i);
        }
        m.set_fault_plan(plan);
        let jobs = tiny_workload();
        let mut cfg = ServeConfig::new(1);
        cfg.supervise.max_retries = 0;
        cfg.breaker.cooldown_seconds = 1.0; // never half-opens in-run
        let run = serve(&m, jobs.clone(), &cfg).unwrap();
        m.clear_fault_plan();
        assert_eq!(run.report.breaker_opens, 1);
        assert!(run.report.cpu_fallback_batches > 0);
        assert_eq!(run.report.jobs_completed, run.report.jobs_submitted);
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.served_by == ServedBy::CpuLadder));
        // No admitted job was lost, and answers match the oracle.
        assert_oracle_matches(&m, &jobs, &run);
        assert!(!run.breaker_transitions.is_empty());
    }

    #[test]
    fn overdue_jobs_expire_as_typed_outcomes() {
        let m = matcher();
        // A burst at t=0 with deadlines only one job can meet on a
        // per-job single-stream server.
        let jobs: Vec<ScanJob> = (0..6)
            .map(|id| ScanJob::new(id, vec![b'x'; 32 * 1024], 0.0).with_deadline(100.0e-6))
            .collect();
        let cfg = ServeConfig::new(1).per_job();
        let run = serve(&m, jobs, &cfg).unwrap();
        assert!(run.report.jobs_expired > 0, "deadlines must bite");
        assert_eq!(
            run.report.jobs_completed + run.report.jobs_expired + run.report.jobs_rejected,
            run.report.jobs_submitted
        );
        // Expired ids and completed ids are disjoint: exactly one answer
        // per admitted job.
        for e in &run.expiries {
            assert!(run.outcomes.iter().all(|o| o.id != e.job_id));
        }
    }

    #[test]
    fn slo_pressure_sheds_low_priority_and_widens_batches() {
        let m = matcher();
        // Arrivals faster than the 2-job batcher drains, alternating
        // priorities, a p99 target far below what the backlog produces —
        // and an arrival tail long enough that jobs are still coming in
        // once the controller has *observed* the pressure (admission
        // control can only shed arrivals, not the existing backlog).
        let jobs: Vec<ScanJob> = (0..64)
            .map(|id| {
                ScanJob::new(id, vec![b'y'; 32 * 1024], id as f64 * 5.0e-6)
                    .with_priority((id % 2) as u8)
            })
            .collect();
        let mut cfg = ServeConfig::new(1);
        cfg.limits.max_jobs = 2;
        cfg.slo = Some(SloConfig {
            p99_target_seconds: 50.0e-6,
            window: 8,
            shed_below_priority: 1,
            recover_ratio: 0.5,
            max_batch_jobs: 16,
        });
        let run = serve(&m, jobs, &cfg).unwrap();
        assert!(run.report.jobs_shed > 0, "shedding must engage");
        assert!(run.sheds.iter().all(|s| s.priority == 0));
        assert_eq!(
            run.report.jobs_completed + run.report.jobs_shed + run.report.jobs_rejected,
            run.report.jobs_submitted
        );
        // The widened window shows up as batches above the configured max.
        assert!(run
            .report
            .batch_histogram
            .iter()
            .any(|b| b.jobs > cfg.limits.max_jobs));
    }

    #[test]
    fn armed_serve_attributes_pattern_costs_end_to_end() {
        use crate::telemetry::render_slo_report;

        let m = matcher();
        let payload: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(8 * 1024)
            .copied()
            .collect();
        let jobs: Vec<ScanJob> = (0..6)
            .map(|id| ScanJob::new(id, payload.clone(), id as f64 * 20.0e-6))
            .collect();
        let mut cfg = ServeConfig::new(2);
        cfg.telemetry = Some(TelemetryConfig::default());
        let run = serve(&m, jobs, &cfg).unwrap();

        let tel = run.telemetry.expect("telemetry armed");
        // The replay charged the dictionary: every ranked pattern carries
        // positive cost and the shares account for the whole owned total.
        assert!(!tel.pattern_costs.is_empty(), "no pattern costs recorded");
        assert!(tel.pattern_costs.iter().all(|p| p.cycles > 0.0));
        let share_sum: f64 = tel.pattern_costs.iter().map(|p| p.share_pct).sum();
        assert!(
            (share_sum - 100.0).abs() < 1e-6,
            "shares sum to {share_sum}"
        );
        // Ranked worst-first, and the texts come from the dictionary.
        for w in tel.pattern_costs.windows(2) {
            assert!(w[0].cycles >= w[1].cycles);
        }
        assert!(tel.pattern_costs.iter().any(|p| p.text == "the"));

        // The costs surface in the metrics snapshot...
        let snap = tel.metrics_snapshot(&run.report);
        let prom = snap.to_prometheus();
        assert!(prom.contains("acsim_serve_pattern_cost_cycles"), "{prom}");
        // ...and in the slo-report narrative, via the Chrome round-trip
        // exactly as `acsim slo-report` consumes it.
        let events = trace::parse_chrome_json(&tel.chrome_json(), 1.0).unwrap();
        let report = render_slo_report(&events);
        assert!(
            report.contains("dominant pattern cost"),
            "missing pattern section: {report}"
        );
        assert!(report.contains("the"), "{report}");
    }

    #[test]
    fn zero_sample_budget_disables_the_attribution_replay() {
        use crate::telemetry::render_slo_report;

        let m = matcher();
        let jobs = tiny_workload();
        let mut cfg = ServeConfig::new(2);
        cfg.telemetry = Some(TelemetryConfig {
            attribution_sample_bytes: 0,
            ..TelemetryConfig::default()
        });
        let run = serve(&m, jobs, &cfg).unwrap();
        let tel = run.telemetry.expect("telemetry armed");
        assert!(tel.payload_sample.is_empty());
        assert!(tel.pattern_costs.is_empty());
        // The narrative degrades gracefully instead of inventing a section.
        let events = trace::parse_chrome_json(&tel.chrome_json(), 1.0).unwrap();
        let report = render_slo_report(&events);
        assert!(
            report.contains("no attribution replay recorded"),
            "{report}"
        );
    }

    #[test]
    fn pooled_serve_preserves_matches_and_reports_stats() {
        let m = matcher();
        let jobs = tiny_workload();
        let cfg = ServeConfig::new(2).with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
        let run = serve(&m, jobs.clone(), &cfg).unwrap();
        assert_eq!(run.report.jobs_completed, jobs.len() as u64);
        assert_oracle_matches(&m, &jobs, &run);
        let pool = run.report.pool.expect("pool stats recorded");
        // Every batch leases a corpus + a result buffer, and every lease
        // is returned by drain time (the pool would panic on a leak).
        assert_eq!(pool.acquires, 2 * run.report.batches);
        assert_eq!(pool.releases, pool.acquires);
        assert_eq!(pool.hits + pool.misses, pool.acquires);
        assert!(pool.high_water_bytes > 0);
        // Reuse on: after warmup the size classes recycle, so hits land.
        assert!(pool.hits > 0, "{pool:?}");
        assert!((0.0..=1.0).contains(&pool.hit_rate));
    }

    #[test]
    fn churn_pool_is_slower_than_reuse_pool() {
        let m = matcher();
        let pooled = serve(
            &m,
            tiny_workload(),
            &ServeConfig::new(2).with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY)),
        )
        .unwrap();
        let churn = serve(
            &m,
            tiny_workload(),
            &ServeConfig::new(2).with_pool(ServePoolConfig::churn(DEFAULT_POOL_CAPACITY)),
        )
        .unwrap();
        // Churn re-allocates per batch (driver cycles on every lease) and
        // stages through pageable host memory (reduced effective PCIe
        // bandwidth), so reuse+pinned must be strictly faster end to end.
        assert!(
            pooled.report.jobs_per_sec > churn.report.jobs_per_sec,
            "pooled {} vs churn {}",
            pooled.report.jobs_per_sec,
            churn.report.jobs_per_sec
        );
        assert!(pooled.report.p99_latency_us <= churn.report.p99_latency_us);
        let cp = churn.report.pool.expect("churn pool stats");
        assert_eq!(cp.hits, 0, "no-reuse pool must never hit");
        assert!(cp.host_cycles > pooled.report.pool.unwrap().host_cycles);
        // Same answers either way.
        assert_oracle_matches(&m, &tiny_workload(), &churn);
    }

    #[test]
    fn pooled_telemetry_narrates_the_pool_section() {
        use crate::telemetry::render_slo_report;

        let m = matcher();
        let mut cfg = ServeConfig::new(2).with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
        cfg.telemetry = Some(TelemetryConfig::default());
        let run = serve(&m, tiny_workload(), &cfg).unwrap();
        let tel = run.telemetry.expect("telemetry armed");
        let events = trace::parse_chrome_json(&tel.chrome_json(), 1.0).unwrap();
        let report = render_slo_report(&events);
        assert!(report.contains("device pool:"), "{report}");
        assert!(report.contains("hit rate"), "{report}");
        assert!(report.contains("high water:"), "{report}");
        // Unpooled runs keep the narrative free of the section.
        let mut plain = ServeConfig::new(2);
        plain.telemetry = Some(TelemetryConfig::default());
        let prun = serve(&m, tiny_workload(), &plain).unwrap();
        let pevents =
            trace::parse_chrome_json(&prun.telemetry.unwrap().chrome_json(), 1.0).unwrap();
        assert!(!render_slo_report(&pevents).contains("device pool:"));
    }

    fn workload_at(rate: u64) -> Vec<ScanJob> {
        synthetic_workload(&WorkloadConfig {
            jobs: 12,
            arrival_rate_per_sec: rate,
            job_bytes: 4096,
            ..WorkloadConfig::defaults()
        })
    }

    #[test]
    fn finished_readbacks_issue_at_kernel_end_under_sparse_arrivals() {
        let m = matcher();
        let cfg = ServeConfig::new(2);
        let light = serve(&m, workload_at(4_000), &cfg).unwrap();
        assert!(light.outcomes.iter().all(|o| o.batch_jobs == 1));
        // Arrivals are far apart, so no later upload may sit between a
        // kernel and its readback: every `d2h` starts as its kernel ends,
        // and the job completes when that `d2h` does.
        let op = |label: &str, kind: StreamOpKind| {
            light
                .timeline
                .ops
                .iter()
                .find(|o| o.label == label && o.kind == kind)
                .unwrap_or_else(|| panic!("{label} has no {kind:?}"))
                .clone()
        };
        for b in 0..light.report.batches {
            let label = format!("batch{b}");
            let kernel = op(&label, StreamOpKind::Kernel);
            let d2h = op(&label, StreamOpKind::CopyD2H);
            assert_eq!(d2h.start, kernel.end, "{label} readback waited");
        }
        for o in &light.outcomes {
            let d2h = light
                .timeline
                .ops
                .iter()
                .filter(|op| op.kind == StreamOpKind::CopyD2H)
                .find(|op| op.end == o.completed_seconds);
            assert!(d2h.is_some(), "job {} completed off a readback", o.id);
        }
        // Fewer arrivals must not make a job wait longer: the same
        // payloads at a third of the rate see no higher latency.
        let busier = serve(&m, workload_at(12_000), &cfg).unwrap();
        assert!(
            light.report.p50_latency_us <= busier.report.p50_latency_us + 1e-9,
            "p50 {}us at 4k jobs/s vs {}us at 12k",
            light.report.p50_latency_us,
            busier.report.p50_latency_us
        );
        assert!(light.report.mean_latency_us <= busier.report.mean_latency_us + 1e-9);
        assert_oracle_matches(&m, &workload_at(4_000), &light);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn staged_issue_answers_every_job_once_and_releases_the_pool(
            arrivals in proptest::collection::vec((0u32..400, 1usize..1500), 1..8),
            streams in 1u32..=4,
            pooled in proptest::prelude::any::<bool>(),
        ) {
            let m = matcher();
            let text: Vec<u8> = b"the king and her mother were singing a motion "
                .iter()
                .cycle()
                .take(4096)
                .copied()
                .collect();
            let mut clock = 0.0;
            let jobs: Vec<ScanJob> = arrivals
                .iter()
                .enumerate()
                .map(|(id, &(gap_us, len))| {
                    clock += gap_us as f64 * 1.0e-6;
                    let skip = id * 7;
                    ScanJob::new(id as u64, text[skip..skip + len].to_vec(), clock)
                })
                .collect();
            let mut cfg = ServeConfig::new(streams);
            if pooled {
                cfg = cfg.with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
            }
            // A leaked lease would panic in the pool drain inside serve.
            let run = serve(&m, jobs.clone(), &cfg).unwrap();

            // One terminal event per job: every id answered exactly once.
            let mut ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
            ids.extend(run.rejections.iter().map(|r| r.job_id));
            ids.extend(run.expiries.iter().map(|e| e.job_id));
            ids.extend(run.sheds.iter().map(|s| s.job_id));
            ids.sort_unstable();
            proptest::prop_assert_eq!(ids, (0..jobs.len() as u64).collect::<Vec<_>>());
            assert_oracle_matches(&m, &jobs, &run);
            if let Some(pool) = run.report.pool {
                proptest::prop_assert_eq!(pool.acquires, 2 * run.report.batches);
                proptest::prop_assert_eq!(pool.releases, pool.acquires);
            } else {
                proptest::prop_assert!(!pooled);
            }
        }
    }

    #[test]
    fn pool_too_small_surfaces_a_fatal_device_error() {
        let m = matcher();
        // A pool smaller than one batch's corpus cannot satisfy the first
        // lease: serve must propagate the typed OOM, not panic or hang.
        let cfg = ServeConfig::new(1).with_pool(ServePoolConfig::pooled(1024));
        let err = serve(&m, tiny_workload(), &cfg).unwrap_err();
        match err {
            GpuError::Device(e) => {
                assert!(e.to_string().contains("out of device memory"), "{e}")
            }
            other => panic!("expected device OOM, got {other:?}"),
        }
    }
}
