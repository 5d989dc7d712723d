//! The serving API: server policy ([`ServeConfig`]), device-pool policy
//! ([`ServePoolConfig`]), and [`serve`], the single-device entry point.
//!
//! [`serve`] *is* the one-device parity fleet: it calls
//! [`crate::serve_fleet`] with one device and routing off, so there is
//! exactly one admit → batch → dispatch → staged-readback loop in the
//! crate, and it lives in [`crate::fleet`]; parity and routed fleets are
//! two queue layouts of it. The module docs there describe it: the queue
//! layouts and the turn rule, the staged readback issue that keeps one
//! DMA engine from false-serialising uploads behind running kernels,
//! supervised execution with CPU-ladder failover behind a circuit
//! breaker, deadline expiry, and SLO admission control.

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
    /// The configured kernel. Each launch runs the kernel the serve call
    /// prices for its length ([`crate::kernel_choice`]): staged PFAC up
    /// to the length where its price line crosses this kernel's (never
    /// below one resident round), this kernel beyond it. The price is
    /// `h2d + kernel + readback` on one stream and the busier engine's
    /// load on more, each launch reading back by `d2h` or by its kernel's
    /// mapped write-out, whichever its plan prices cheaper.
    /// Pinned params ([`ac_gpu::KernelParams::paper`]) and a matcher
    /// without PFAC tables always run this kernel.
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
        // The report's readback total is what the `d2h` ops copied plus
        // what mapped kernels wrote, one frame of at least 36 B per batch.
        let read_back: u64 = run
            .timeline
            .ops
            .iter()
            .map(|op| match op.kind {
                StreamOpKind::CopyD2H => op.bytes,
                _ => op.mapped_bytes,
            })
            .sum();
        assert_eq!(run.report.readback_bytes, read_back);
        assert!(read_back >= 36 * run.report.batches);
        let r = &run.report;
        assert_eq!(r.mapped_readbacks + r.dma_readbacks, r.batches);
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
        // most of the backlog once the server is busy. A second burst
        // arrives after the first completions have landed.
        let jobs: Vec<ScanJob> = (0..20)
            .map(|id| {
                let at = if id < 10 { 0.0 } else { 400.0e-6 };
                ScanJob::new(id, vec![b't'; 32 * 1024], at + id as f64 * 1.0e-6)
            })
            .collect();
        let arrival: Vec<f64> = jobs.iter().map(|j| j.arrival_seconds).collect();
        let mut cfg = ServeConfig::new(1).per_job();
        cfg.queue_capacity = 2;
        let run = serve(&m, jobs, &cfg).unwrap();
        assert!(run.report.jobs_rejected > 0);
        assert_eq!(
            run.report.jobs_completed + run.report.jobs_rejected,
            run.report.jobs_submitted
        );
        assert!(run.rejections.iter().all(|r| r.capacity == 2));
        // Each hint quotes the completions landed by the job's arrival:
        // `capacity × arrival / landed`, and none before the first
        // landing, so the first burst's rejections carry no hint.
        let first_landing = run
            .outcomes
            .iter()
            .map(|o| o.completed_seconds)
            .fold(f64::INFINITY, f64::min);
        for r in &run.rejections {
            let at = arrival[r.job_id as usize];
            let landed = run
                .outcomes
                .iter()
                .filter(|o| o.completed_seconds <= at)
                .count();
            let want = if landed > 0 {
                r.capacity as f64 * at / landed as f64 * 1.0e6
            } else {
                0.0
            };
            assert_eq!(r.retry_after_us, want, "job {}", r.job_id);
            assert_eq!(want > 0.0, at >= first_landing, "job {}", r.job_id);
        }
        assert!(run
            .rejections
            .iter()
            .filter(|r| r.job_id < 10)
            .all(|r| r.retry_after_us == 0.0));
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
    fn corrupted_mapped_frames_are_caught_retried_and_charged() {
        let m = matcher();
        let jobs = tiny_workload();
        let cfg = ServeConfig::new(1);
        let clean = serve(&m, jobs.clone(), &cfg).unwrap();
        // A bit flip in the first frame the first kernel writes into
        // mapped host memory: the frame's CRC catches it, the supervisor
        // relaunches the batch, and the retry's backoff is on the clock.
        m.set_fault_plan(FaultPlan::none().with_readback_flip(0, 77));
        let faulted = serve(&m, jobs.clone(), &cfg).unwrap();
        let fired = m.fault_log();
        m.clear_fault_plan();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, gpu_sim::FaultKind::ReadbackBitFlip);
        for run in [&clean, &faulted] {
            let r = &run.report;
            assert_eq!((r.mapped_readbacks, r.dma_readbacks), (r.batches, 0));
        }
        let r = &faulted.report;
        assert_eq!(
            (r.faults_fired, r.gpu_retries, r.cpu_fallback_batches),
            (1, 1, 0)
        );
        assert_eq!(r.jobs_completed, r.jobs_submitted);
        let done = |run: &ServeRun| {
            let o = run
                .outcomes
                .iter()
                .find(|o| o.id == 0)
                .expect("job 0 served");
            o.completed_seconds
        };
        assert!(done(&faulted) > done(&clean));
        assert_oracle_matches(&m, &jobs, &faulted);
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
            .all(|o| o.served_by == ServedBy::CpuParallel));
        // No admitted job was lost, and answers match the oracle.
        assert_oracle_matches(&m, &jobs, &run);
        assert!(!run.breaker_transitions.is_empty());
    }

    #[test]
    fn overdue_jobs_expire_as_typed_outcomes() {
        let m = matcher();
        // A burst at t=0 with deadlines only the first few jobs can meet
        // on a per-job single-stream server.
        let jobs: Vec<ScanJob> = (0..12)
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
    fn attribution_replay_runs_outside_the_armed_fault_plan() {
        // Seed 0 schedules faults the served batch never reaches (it is
        // served clean on its first launch); the post-run replay must not
        // reach them either, and must attribute as on a disarmed matcher.
        let m = matcher();
        let jobs = vec![ScanJob::new(0, b"the king and her mother".repeat(64), 0.0)];
        let mut cfg = ServeConfig::new(1);
        cfg.telemetry = Some(TelemetryConfig::default());
        let clean = serve(&m, jobs.clone(), &cfg).unwrap();
        m.set_fault_plan(FaultPlan::generate(0));
        let faulted = serve(&m, jobs, &cfg).unwrap();
        let fired = m.fault_log();
        m.clear_fault_plan();
        assert_eq!(faulted.report.faults_fired, 0, "the batch itself ran clean");
        assert!(fired.is_empty(), "the replay fired {fired:?}");
        let costs = |run: &ServeRun| run.telemetry.as_ref().unwrap().pattern_costs.clone();
        assert!(!costs(&clean).is_empty());
        assert_eq!(costs(&faulted), costs(&clean));
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
        // Pinned memory maps every frame; pageable memory copies it back.
        for pcie in [PcieConfig::gen2_x16(), PcieConfig::gen2_x16_pageable()] {
            let mut cfg = ServeConfig::new(2);
            cfg.pcie = pcie;
            let mapped = pcie.host_memory.is_pinned();
            let light = serve(&m, workload_at(4_000), &cfg).unwrap();
            assert!(light.outcomes.iter().all(|o| o.batch_jobs == 1));
            // Arrivals are far apart, so no later upload may sit between
            // a kernel and its readback: every `d2h` starts as its kernel
            // ends, and the job completes when that `d2h` does. A mapped
            // frame is in host memory when its kernel op ends.
            let op = |label: &str, kind: StreamOpKind| {
                light
                    .timeline
                    .ops
                    .iter()
                    .find(|o| o.label == label && o.kind == kind)
                    .cloned()
            };
            for b in 0..light.report.batches {
                let label = format!("batch{b}");
                let kernel = op(&label, StreamOpKind::Kernel).expect("every batch runs");
                assert_eq!(kernel.mapped_bytes > 0, mapped, "{label}");
                match op(&label, StreamOpKind::CopyD2H) {
                    Some(d2h) => assert_eq!(d2h.start, kernel.end, "{label} readback waited"),
                    None => assert!(mapped, "{label} has no readback"),
                }
            }
            let landing = if mapped {
                StreamOpKind::Kernel
            } else {
                StreamOpKind::CopyD2H
            };
            for o in &light.outcomes {
                let lands = light
                    .timeline
                    .ops
                    .iter()
                    .filter(|op| op.kind == landing)
                    .find(|op| op.end == o.completed_seconds);
                assert!(lands.is_some(), "job {} completed off a readback", o.id);
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
    }

    /// Jobs cut from a fixed text: `(gap_us, len)` per job, arrivals
    /// accumulating the gaps.
    fn jobs_from(arrivals: &[(u32, usize)]) -> Vec<ScanJob> {
        let longest = arrivals.iter().map(|&(_, len)| len).max().unwrap_or(0);
        let text: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(4096.max(longest + 7 * arrivals.len()))
            .copied()
            .collect();
        let mut clock = 0.0;
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &(gap_us, len))| {
                clock += gap_us as f64 * 1.0e-6;
                let skip = id * 7;
                ScanJob::new(id as u64, text[skip..skip + len].to_vec(), clock)
            })
            .collect()
    }

    /// One terminal event per job: every id answered, rejected, expired
    /// or shed exactly once, the report's counts agree, and every answer
    /// equals the oracle's.
    fn assert_one_terminal_event_each(m: &GpuAcMatcher, jobs: &[ScanJob], run: &ServeRun) {
        let mut ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
        ids.extend(run.rejections.iter().map(|r| r.job_id));
        ids.extend(run.expiries.iter().map(|e| e.job_id));
        ids.extend(run.sheds.iter().map(|s| s.job_id));
        ids.sort_unstable();
        assert_eq!(ids, (0..jobs.len() as u64).collect::<Vec<_>>());
        let r = &run.report;
        assert_eq!(
            r.jobs_completed + r.jobs_rejected + r.jobs_expired + r.jobs_shed,
            r.jobs_submitted
        );
        let answered: Vec<ScanJob> = jobs
            .iter()
            .filter(|j| run.outcomes.iter().any(|o| o.id == j.id))
            .cloned()
            .collect();
        assert_oracle_matches(m, &answered, run);
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
            let jobs = jobs_from(&arrivals);
            let mut cfg = ServeConfig::new(streams);
            if pooled {
                cfg = cfg.with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
            }
            // A leaked lease would panic in the pool drain inside serve.
            let run = serve(&m, jobs.clone(), &cfg).unwrap();
            assert_one_terminal_event_each(&m, &jobs, &run);
            proptest::prop_assert_eq!(run.report.jobs_completed, jobs.len() as u64);
            if let Some(pool) = run.report.pool {
                proptest::prop_assert_eq!(pool.acquires, 2 * run.report.batches);
                proptest::prop_assert_eq!(pool.releases, pool.acquires);
            } else {
                proptest::prop_assert!(!pooled);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Pinned pooled memory maps frames and pageable (churn) memory
        /// copies them back; either way, faults armed or not, every job
        /// gets one terminal event with the oracle's matches, every GPU
        /// launch reads back exactly one way, and the frames the report
        /// counts are the `d2h` copies plus the mapped writes.
        #[test]
        fn both_readback_paths_answer_every_job_once(
            arrivals in proptest::collection::vec((0u32..400, 1usize..1500), 1..8),
            streams in proptest::sample::select(vec![1u32, 2, 4]),
            pinned in proptest::prelude::any::<bool>(),
            fault_seed in 0u64..16,
        ) {
            let m = matcher();
            let jobs = jobs_from(&arrivals);
            let pool = if pinned {
                ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY)
            } else {
                ServePoolConfig::churn(DEFAULT_POOL_CAPACITY)
            };
            // Seeds 0..8 arm a generated plan; 8..16 run clean.
            if fault_seed < 8 {
                m.set_fault_plan(FaultPlan::generate(fault_seed));
            }
            let run = serve(&m, jobs.clone(), &ServeConfig::new(streams).with_pool(pool));
            m.clear_fault_plan();
            let run = run.unwrap();
            assert_one_terminal_event_each(&m, &jobs, &run);
            let r = &run.report;
            let launches: u64 = r.kernel_launches.values().sum();
            proptest::prop_assert_eq!(r.mapped_readbacks + r.dma_readbacks, launches);
            if !pinned {
                proptest::prop_assert_eq!(r.mapped_readbacks, 0);
            }
            let read_back: u64 = run
                .timeline
                .ops
                .iter()
                .map(|op| match op.kind {
                    StreamOpKind::CopyD2H => op.bytes,
                    _ => op.mapped_bytes,
                })
                .sum();
            proptest::prop_assert_eq!(read_back, r.readback_bytes);
        }
    }

    /// The fleet harness's dictionaries: 0 the default, 1 one that never
    /// matches the harness text (empty readback frames), 2 a one-byte
    /// pattern (two states: the frame's payload width at its 16-bit
    /// floor), 3 the default plus the longest pattern the default
    /// `KernelParams` accept (an overlap as long as the shared tile
    /// allows, so every window reaches across many chunks).
    fn fleet_matcher(dictionary: usize) -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let params = KernelParams::defaults_for(&cfg);
        let longest = "the king and her mother were singing a motion "
            .repeat(200)
            .chars()
            .take(
                (cfg.shared_mem_bytes - params.threads_per_block * params.shared_chunk_bytes)
                    as usize
                    + 1,
            )
            .collect::<String>();
        let pats: Vec<&str> = match dictionary {
            0 => return matcher(),
            1 => vec!["qqq"],
            2 => vec!["a"],
            _ => vec!["the", "and", "ing", "tion", "her", &longest],
        };
        let ac = AcAutomaton::build(&PatternSet::from_strs(&pats).unwrap());
        GpuAcMatcher::new(cfg, params, ac).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn every_fleet_layout_answers_every_job_once(
            arrivals in proptest::collection::vec((0u32..40, 1usize..1500), 1..16),
            // A job one byte either side of PFAC's one-round grid
            // (30,720 B), so launches run both kernels (not with
            // dictionary 3, whose 8 KiB overlap makes every lane of a
            // 30 KiB scan walk 8 KiB).
            boundary in proptest::sample::select(vec![None, Some(30_719usize), Some(30_721)]),
            devices in 1u32..=3,
            routing in proptest::prelude::any::<bool>(),
            shard_bytes in proptest::sample::select(vec![None, Some(512usize), Some(1024)]),
            pooled in proptest::prelude::any::<bool>(),
            queue_capacity in 1usize..=8,
            deadline_us in proptest::sample::select(vec![None, Some(5u32), Some(60)]),
            dictionary in 0usize..4,
            fault_seed in 0u64..16,
        ) {
            let m = fleet_matcher(dictionary);
            let mut arrivals = arrivals;
            arrivals.extend(boundary.filter(|_| dictionary < 3).map(|len| (40, len)));
            // Seeds 0..8 arm a generated plan, so readback bit flips cross
            // the frame decoder on the serving path; 8..16 run clean.
            if fault_seed < 8 {
                m.set_fault_plan(gpu_sim::FaultPlan::generate(fault_seed));
            }
            let jobs: Vec<ScanJob> = jobs_from(&arrivals)
                .into_iter()
                .map(|j| match deadline_us {
                    Some(d) => {
                        let deadline = j.arrival_seconds + d as f64 * 1.0e-6;
                        j.with_deadline(deadline)
                    }
                    None => j,
                })
                .collect();
            let mut dev = ServeConfig::new(1);
            dev.queue_capacity = queue_capacity;
            if pooled {
                dev = dev.with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
            }
            let mut cfg = FleetConfig::new(devices, dev);
            if !routing {
                cfg = cfg.parity();
            }
            cfg.shard_bytes = shard_bytes;
            if let (3, Some(router)) = (dictionary, cfg.routing.as_mut()) {
                // Every lane of a 64 KiB calibration probe would scan the
                // 8 KiB overlap; probes at the jobs' scale keep the case
                // fast.
                router.probe_small_bytes = 512;
                router.probe_large_bytes = 4 << 10;
            }
            // A leaked lease would panic in the per-device pool drains.
            let run = serve_fleet(&m, jobs.clone(), &cfg).unwrap();
            assert_one_terminal_event_each(&m, &jobs, &run.serve);
            if let Some(pool) = run.serve.report.pool {
                proptest::prop_assert_eq!(pool.releases, pool.acquires);
            } else {
                proptest::prop_assert!(!pooled);
            }
            // Only a routed fleet of two or more devices scatters.
            if !routing || devices < 2 || shard_bytes.is_none() {
                proptest::prop_assert_eq!(run.report.scattered_jobs, 0);
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
