//! The serve loop: admit → batch → dispatch on a stream → demux.
//!
//! A greedy open-loop server: whenever a stream frees up, every job that
//! has arrived by then is admitted (or rejected by backpressure), the
//! queue's head run is coalesced up to the batch limits, and the batch's
//! `h2d → kernel → d2h` chain is dispatched on that stream. Batch size
//! therefore adapts to backlog — an idle server launches singleton
//! batches immediately, a busy one amortises launches over whatever
//! queued up — which is the whole p99 argument for batching.
//!
//! Issue order matters on a single-DMA-engine device: the copy engine is
//! a FIFO, so enqueueing a batch's `d2h` right behind its kernel would
//! park the engine until that kernel finishes and block the *next*
//! batch's `h2d` (the classic GT200 false-serialisation). The loop
//! therefore issues staged: a batch's `d2h` is held only while its kernel
//! is still running at the next dispatch. Before every new upload,
//! [`take_ready_readbacks`] releases each held readback whose kernel has
//! finished by the dispatch instant, in kernel-completion order — what a
//! host woken by kernel-end callbacks would have issued — so a finished
//! batch never waits for the next arrival's upload, while uploads for
//! other streams still slot in ahead of readbacks whose kernels are
//! running and copies genuinely overlap compute. The reused stream is
//! always among the released (its kernel ended by the time it is free),
//! and the drain releases the rest. With one stream the flush lands
//! immediately before the next upload, reproducing the strictly serial
//! order.
//!
//! # Resilience
//!
//! Every batch executes under the PR-1 supervisor ([`run_supervised`]):
//! transient launch failures and corrupted readbacks are retried with
//! deterministic backoff, hung kernels are watchdog-killed, and the
//! retry cost ([`SuperviseReport::penalty_cycles`]) is charged to the
//! stream's simulated clock so faults are never free. A batch that
//! exhausts its retry budget is *not* lost: it fails over to the CPU
//! ladder ([`integration::cpu_ladder_scan`] — parallel CPU, then the
//! serial oracle) on a separate simulated CPU clock, and feeds the
//! per-GPU-tier [`CircuitBreaker`]. While the breaker is open,
//! subsequent batches skip the GPU entirely and run on the CPU tier
//! until a cooldown elapses and half-open probes re-earn trust.
//!
//! Admitted jobs whose deadline passes while still queued are expired
//! with a typed [`JobExpiry`] — an answer distinct from backpressure
//! ([`crate::Overloaded`]) — instead of wasting a batch slot. When an
//! SLO target is configured ([`SloConfig`]), an [`AdmissionController`]
//! tracks sliding-window p99 against it, sheds the lowest-priority
//! arrivals while over target, and grows the batcher's window to drain
//! the backlog faster.
//!
//! With no faults armed, no deadlines, and no SLO config, every one of
//! these paths is quiescent and the schedule is bit-identical to the
//! plain batched server.

use crate::batch::{assemble_batch, demux_matches, AssembledBatch, BatchLimits};
use crate::breaker::{BreakerConfig, BreakerTransition, CircuitBreaker, Route};
use crate::job::{JobExpiry, JobOutcome, ScanJob, ServedBy};
use crate::queue::{BoundedQueue, Overloaded};
use crate::report::{percentile, BatchBucket, PoolStatsReport, ServeReport};
use crate::slo::{AdmissionController, SheddedJob, SloConfig};
use crate::telemetry::{ServeTelemetry, TelemetryConfig, TelemetryRun};
use ac_cpu::ParallelConfig;
use ac_gpu::multistream::readback_bytes;
use ac_gpu::supervise::SuperviseReport;
use ac_gpu::{
    run_supervised, Approach, DevicePool, DevicePoolConfig, GpuAcMatcher, GpuError, PcieConfig,
    PooledBuffer, SuperviseConfig,
};
use cpu_sim::{simulate_multicore, CpuConfig};
use gpu_sim::{EngineKind, HostMemory, StreamEngine, StreamOpKind, StreamTimeline};
use integration::cpu_ladder_scan;
use std::collections::BTreeMap;

/// Device-memory pool policy for the serving path.
///
/// Armed (`ServeConfig::pool = Some(..)`), every GPU batch leases its
/// corpus and result buffers from a per-device [`DevicePool`] instead of
/// the legacy untracked scratch space, and the allocator's driver cycles
/// (misses and churn frees — hits are free) delay that batch's upload.
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

    /// The underlying [`DevicePool`] configuration.
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

/// Serve `jobs` (an open-loop arrival sequence) through `matcher`.
pub fn serve(
    matcher: &GpuAcMatcher,
    mut jobs: Vec<ScanJob>,
    cfg: &ServeConfig,
) -> Result<ServeRun, GpuError> {
    let pcie = cfg.effective_pcie();
    pcie.validate()?;
    jobs.sort_by(|a, b| {
        a.arrival_seconds
            .partial_cmp(&b.arrival_seconds)
            .expect("arrival times are finite")
            .then(a.id.cmp(&b.id))
    });
    let submitted = jobs.len() as u64;
    let gap = matcher.automaton().required_overlap();
    let base_max_jobs = cfg.limits.max_jobs.max(1);
    let clock_hz = matcher.config().clock_hz;

    let mut engine = StreamEngine::new(cfg.streams);
    let mut queue = BoundedQueue::new(cfg.queue_capacity);
    let mut breaker = CircuitBreaker::new(cfg.breaker);
    // Armed pool: per-batch corpus/result buffers lease from here, and
    // the allocator's driver cycles delay the leasing batch's upload.
    let pool = cfg.pool.map(|p| DevicePool::new(p.device_pool_config()));
    let mut pool_charged = 0u64;
    let mut slo = cfg.slo.map(|s| AdmissionController::new(s, base_max_jobs));
    // The telemetry recorder only ever *reads* values the loop already
    // computed; disarmed (`None`) the loop is bit-identical.
    let mut tel = cfg.telemetry.map(|t| ServeTelemetry::new(t, clock_hz));
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    let mut rejections = Vec::new();
    let mut expiries: Vec<JobExpiry> = Vec::new();
    let mut histogram: BTreeMap<usize, u64> = BTreeMap::new();
    let mut batches = 0u64;
    let mut payload_bytes = 0u64;
    let mut next = 0usize;
    let mut pending: Vec<Option<PendingReadback>> = (0..cfg.streams.max(1)).map(|_| None).collect();
    // The CPU failover executor's own in-order clock: failover batches
    // queue behind each other here, not on a GPU stream.
    let mut cpu_free = 0.0f64;
    let mut gpu_retries = 0u64;
    let mut cpu_fallback_batches = 0u64;
    let mut faults_fired = 0u64;

    loop {
        if queue.is_empty() {
            if next >= jobs.len() {
                break;
            }
            let job = jobs[next].clone();
            next += 1;
            if let Some(s) = shed(&mut slo, &job) {
                if let Some(t) = tel.as_mut() {
                    t.job_shed(&s);
                }
                continue;
            }
            queue.push(job).expect("empty queue admits one job");
        }
        let (stream, gpu_free) = engine.next_free_stream();
        let head = queue.head_arrival().expect("queue is non-empty");
        let gpu_dispatch = gpu_free.max(head);
        let route = breaker.route_at(gpu_dispatch);
        let dispatch = match route {
            Route::Gpu => gpu_dispatch,
            Route::Cpu => cpu_free.max(head),
        };
        // Before the new upload, every readback whose kernel has finished
        // goes first — the reused stream's included, since it is free by
        // `dispatch` — so the upload queues behind them on the copy engine.
        if route == Route::Gpu {
            for (_, p) in take_ready_readbacks(
                std::slice::from_ref(&engine),
                std::slice::from_mut(&mut pending),
                dispatch,
            ) {
                flush_readback(&mut engine, &mut outcomes, &mut slo, &mut tel, p);
            }
            debug_assert!(pending[stream as usize].is_none());
        }
        // Everything that arrived while the tier was busy is admitted
        // now (shed under SLO pressure, or bounced off the full queue
        // with a drain-rate retry hint).
        let drain_rate = if dispatch > 0.0 {
            outcomes.len() as f64 / dispatch
        } else {
            0.0
        };
        while next < jobs.len() && jobs[next].arrival_seconds <= dispatch {
            let job = jobs[next].clone();
            next += 1;
            if let Some(s) = shed(&mut slo, &job) {
                if let Some(t) = tel.as_mut() {
                    t.job_shed(&s);
                }
                continue;
            }
            let (priority, arrival) = (job.priority, job.arrival_seconds);
            if let Err(mut e) = queue.push(job) {
                if drain_rate > 0.0 {
                    e.retry_after_us = e.capacity as f64 / drain_rate * 1.0e6;
                }
                if let Some(t) = tel.as_mut() {
                    t.job_rejected(&e, priority, arrival);
                }
                rejections.push(e);
            }
        }
        // Overdue jobs get a typed expiry instead of a batch slot. Any
        // expiry may have changed the head, so re-plan from the top.
        let newly_expired = queue.expire_overdue(dispatch);
        if !newly_expired.is_empty() {
            if let Some(t) = tel.as_mut() {
                for e in &newly_expired {
                    t.job_expired(e);
                }
            }
            expiries.extend(newly_expired);
            continue;
        }

        // Coalesce the backlog head into one launch. Under SLO pressure
        // the controller widens the window beyond the configured base.
        let max_jobs_now = slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        if let Some(t) = tel.as_mut() {
            t.tick(dispatch, queue.len(), max_jobs_now, breaker.state());
        }
        let mut batch = vec![queue.pop().expect("queue is non-empty")];
        let mut batch_bytes = batch[0].payload.len();
        while batch.len() < max_jobs_now {
            match queue.head_payload_len() {
                Some(len) if batch_bytes + len <= cfg.limits.max_bytes => {
                    batch_bytes += len;
                    batch.push(queue.pop().expect("head exists"));
                }
                _ => break,
            }
        }

        let assembled = assemble_batch(&batch, gap);
        let label = format!("batch{batches}");
        batches += 1;
        payload_bytes += batch_bytes as u64;
        *histogram.entry(batch.len()).or_insert(0) += 1;
        if let Some(t) = tel.as_mut() {
            let route_label = match route {
                Route::Gpu => "gpu",
                Route::Cpu => "cpu",
            };
            t.batch_formed(&label, &batch, dispatch, route_label);
        }

        match route {
            Route::Cpu => {
                cpu_free = run_cpu_batch(
                    matcher,
                    cfg,
                    &assembled,
                    batch,
                    dispatch,
                    &mut outcomes,
                    &mut slo,
                    &mut tel,
                    0,
                );
                cpu_fallback_batches += 1;
            }
            Route::Gpu => {
                match run_supervised(matcher, &assembled.data, cfg.approach, &cfg.supervise) {
                    Ok(sup) => {
                        tally(&sup.report, &mut gpu_retries, &mut faults_fired);
                        let penalty = sup.report.penalty_cycles(cfg.supervise.watchdog_cycles)
                            as f64
                            / clock_hz;
                        let per_job = demux_matches(&sup.run.matches, &assembled.spans);
                        let h2d = pcie.copy_seconds(assembled.data.len());
                        let rb_bytes = readback_bytes(sup.run.match_events);
                        let d2h = pcie.copy_seconds(rb_bytes as usize);
                        let (lease, setup) = lease_batch_buffers(
                            pool.as_ref(),
                            &mut pool_charged,
                            assembled.data.len() as u64,
                            Some(rb_bytes),
                            clock_hz,
                        )?;
                        engine.submit_at(
                            stream,
                            StreamOpKind::CopyH2D,
                            &label,
                            h2d,
                            assembled.data.len() as u64,
                            dispatch + setup,
                        );
                        // Retry penalty (backoff + watchdog-burned budgets)
                        // is charged to the stream: faults cost real time.
                        engine.submit(
                            stream,
                            StreamOpKind::Kernel,
                            &label,
                            sup.run.seconds() + penalty,
                            0,
                        );
                        breaker.record_success(engine.stream_ready(stream));
                        pending[stream as usize] = Some(PendingReadback {
                            stream,
                            label,
                            d2h_seconds: d2h,
                            rb_bytes,
                            bus_rb_bytes: pcie.bus_bytes(rb_bytes),
                            batch,
                            per_job,
                            dispatch_seconds: dispatch,
                            retries: sup.report.retries as u64,
                            _lease: lease,
                        });
                    }
                    Err((err, rep)) => {
                        tally(&rep, &mut gpu_retries, &mut faults_fired);
                        // The failed attempts still burned stream time: the
                        // upload happened, and backoff/watchdog budgets
                        // elapsed before the supervisor gave up.
                        let penalty =
                            rep.penalty_cycles(cfg.supervise.watchdog_cycles) as f64 / clock_hz;
                        let h2d = pcie.copy_seconds(assembled.data.len());
                        // The failed attempts still leased (and release)
                        // the corpus buffer: churn is charged either way.
                        let (lease, setup) = lease_batch_buffers(
                            pool.as_ref(),
                            &mut pool_charged,
                            assembled.data.len() as u64,
                            None,
                            clock_hz,
                        )?;
                        engine.submit_at(
                            stream,
                            StreamOpKind::CopyH2D,
                            &format!("{label}-failed"),
                            h2d,
                            assembled.data.len() as u64,
                            dispatch + setup,
                        );
                        drop(lease);
                        if penalty > 0.0 {
                            engine.submit(
                                stream,
                                StreamOpKind::Kernel,
                                &format!("{label}-failed"),
                                penalty,
                                0,
                            );
                        }
                        let failed_at = engine.stream_ready(stream);
                        breaker.record_failure(failed_at, &err.to_string());
                        // The batch is admitted work: it fails over to the
                        // CPU ladder rather than being dropped.
                        cpu_free = run_cpu_batch(
                            matcher,
                            cfg,
                            &assembled,
                            batch,
                            cpu_free.max(failed_at),
                            &mut outcomes,
                            &mut slo,
                            &mut tel,
                            rep.retries as u64,
                        );
                        cpu_fallback_batches += 1;
                    }
                }
            }
        }
    }

    // Drain: no more uploads will fill the copy-engine gaps, so flush the
    // held readbacks in the order their kernels finish.
    for (_, p) in take_ready_readbacks(
        std::slice::from_ref(&engine),
        std::slice::from_mut(&mut pending),
        f64::INFINITY,
    ) {
        flush_readback(&mut engine, &mut outcomes, &mut slo, &mut tel, p);
    }

    // Pool drain: every lease was released with its batch's readback, so
    // nothing may still be live (a leak panics here, pinned in tests).
    let pool_report = pool.map(|p| {
        p.drain();
        PoolStatsReport::from_stats(p.stats())
    });

    let timeline = engine.finish();
    // CPU-failover completions can outlast the GPU timeline.
    let makespan = outcomes
        .iter()
        .fold(timeline.total_seconds(), |m, o| m.max(o.completed_seconds));
    let latencies_us: Vec<f64> = outcomes.iter().map(|o| o.latency_seconds * 1.0e6).collect();
    // Final telemetry flush: the drain tail's samples, the breaker's
    // transition instants, the kept exemplars, and the stitched stream
    // timeline.
    let telemetry = tel.map(|mut t| {
        let batch_window = slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        t.tick(makespan, queue.len(), batch_window, breaker.state());
        let mut run = t.finish(breaker.transitions(), &timeline);
        // Observer-only replay: charges the sampled traffic's cycles to
        // the dictionary after the serve clock is final, so armed and
        // disarmed serve outputs stay bit-identical.
        run.attribute_pattern_costs(matcher, cfg.approach, makespan);
        if let Some(ps) = pool_report {
            run.record_pool_stats(&ps, makespan);
        }
        run
    });
    let sheds = slo.map(|c| c.sheds().to_vec()).unwrap_or_default();
    let report = ServeReport {
        streams: timeline.streams,
        batched: base_max_jobs > 1,
        jobs_submitted: submitted,
        jobs_completed: outcomes.len() as u64,
        jobs_rejected: rejections.len() as u64,
        jobs_expired: expiries.len() as u64,
        jobs_shed: sheds.len() as u64,
        batches,
        breaker_opens: breaker.opens(),
        cpu_fallback_batches,
        gpu_retries,
        faults_fired,
        makespan_seconds: makespan,
        p50_latency_us: percentile(&latencies_us, 50.0),
        p99_latency_us: percentile(&latencies_us, 99.0),
        mean_latency_us: if latencies_us.is_empty() {
            0.0
        } else {
            latencies_us.iter().sum::<f64>() / latencies_us.len() as f64
        },
        jobs_per_sec: rate(outcomes.len() as f64, makespan),
        effective_gbps: rate(payload_bytes as f64 * 8.0 / 1.0e9, makespan),
        payload_bytes,
        copy_utilisation: timeline.utilisation(EngineKind::Copy),
        compute_utilisation: timeline.utilisation(EngineKind::Compute),
        batch_histogram: histogram
            .into_iter()
            .map(|(jobs, count)| BatchBucket { jobs, count })
            .collect(),
        pool: pool_report,
    };
    Ok(ServeRun {
        report,
        outcomes,
        rejections,
        expiries,
        sheds,
        breaker_transitions: breaker.transitions().to_vec(),
        timeline,
        telemetry,
    })
}

/// Ask the admission controller about an arrival; `Some` = turned away.
pub(crate) fn shed(slo: &mut Option<AdmissionController>, job: &ScanJob) -> Option<SheddedJob> {
    slo.as_mut()
        .and_then(|c| c.admit(job.id, job.priority, job.arrival_seconds))
}

pub(crate) fn tally(rep: &SuperviseReport, gpu_retries: &mut u64, faults_fired: &mut u64) {
    *gpu_retries += rep.retries as u64;
    *faults_fired += rep.faults.len() as u64;
}

/// Run one batch on the CPU ladder: matches from
/// [`integration::cpu_ladder_scan`] (parallel rung, serial-oracle floor),
/// wall time from the multicore model on a fixed core count. Outcomes are
/// recorded immediately — the CPU tier has no deferred readback. Returns
/// the completion time (the executor's next free instant).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cpu_batch(
    matcher: &GpuAcMatcher,
    cfg: &ServeConfig,
    assembled: &AssembledBatch,
    batch: Vec<ScanJob>,
    start: f64,
    outcomes: &mut Vec<JobOutcome>,
    slo: &mut Option<AdmissionController>,
    tel: &mut Option<ServeTelemetry>,
    gpu_retries: u64,
) -> f64 {
    let ac = matcher.automaton();
    let ladder = cpu_ladder_scan(ac, &assembled.data, &cfg.parallel);
    let per_job = demux_matches(&ladder.matches, &assembled.spans);
    let timing = simulate_multicore(
        &cfg.cpu,
        ac.stt(),
        &assembled.data,
        cfg.cpu_cores.max(1),
        ac.required_overlap(),
    );
    let done = start + timing.seconds(&cfg.cpu);
    let batch_jobs = batch.len();
    for (job, matches) in batch.into_iter().zip(per_job) {
        let latency = done - job.arrival_seconds;
        if let Some(c) = slo.as_mut() {
            c.observe(latency);
        }
        let outcome = JobOutcome {
            id: job.id,
            matches,
            completed_seconds: done,
            latency_seconds: latency,
            batch_jobs,
            stream: 0,
            served_by: ServedBy::CpuLadder,
        };
        if let Some(t) = tel.as_mut() {
            t.job_completed(&job, &outcome, start, gpu_retries);
        }
        outcomes.push(outcome);
    }
    done
}

/// A batch whose kernel has been issued but whose readback is held only
/// while its kernel is still running at the next dispatch (staged issue,
/// see module docs). Crate visibility: the fleet dispatcher
/// ([`crate::fleet`]) holds the same structure per device, flushing
/// through the shared bus arbiter.
pub(crate) struct PendingReadback {
    pub(crate) stream: u32,
    pub(crate) label: String,
    pub(crate) d2h_seconds: f64,
    pub(crate) rb_bytes: u64,
    /// Bytes the readback charges against the shared host bus (doubled
    /// under pageable staging; equal to `rb_bytes` when pinned). Only the
    /// fleet path consults this — the single-device server has no bus.
    pub(crate) bus_rb_bytes: u64,
    pub(crate) batch: Vec<ScanJob>,
    pub(crate) per_job: Vec<Vec<ac_core::Match>>,
    /// When the batch was dispatched (host bookkeeping for the service
    /// span; never fed back into timing).
    pub(crate) dispatch_seconds: f64,
    /// Supervised retries the batch absorbed.
    pub(crate) retries: u64,
    /// The batch's pooled device buffers, held only to keep the blocks
    /// leased; dropping the readback returns them to the pool.
    pub(crate) _lease: Option<BatchLease>,
}

/// Take every held readback whose kernel has finished by `now`
/// (`stream_ready <= now`; `f64::INFINITY` takes them all, the drain),
/// ordered by kernel completion with ties broken by (device, stream).
/// `pendings[d][s]` is device `d`'s held readback for stream `s`, and
/// `engines[d]` the device's stream engine. This is the one place the
/// staged-issue rule lives: the single-device server, both fleet loops
/// and both drains flush exactly what this returns, in this order.
pub(crate) fn take_ready_readbacks(
    engines: &[StreamEngine],
    pendings: &mut [Vec<Option<PendingReadback>>],
    now: f64,
) -> Vec<(usize, PendingReadback)> {
    let mut ready = Vec::new();
    for (d, (engine, held)) in engines.iter().zip(pendings.iter_mut()).enumerate() {
        for slot in held.iter_mut() {
            if slot
                .as_ref()
                .is_some_and(|p| engine.stream_ready(p.stream) <= now)
            {
                ready.extend(slot.take().map(|p| (d, p)));
            }
        }
    }
    // Stable: equal completion times keep (device, stream) order.
    ready.sort_by(|a, b| {
        let ra = engines[a.0].stream_ready(a.1.stream);
        let rb = engines[b.0].stream_ready(b.1.stream);
        ra.partial_cmp(&rb).expect("sim times are finite")
    });
    ready
}

/// One GPU batch's pooled device buffers (corpus in, results out),
/// released back to the pool when the batch's readback flushes.
#[derive(Debug)]
pub(crate) struct BatchLease {
    _corpus: PooledBuffer,
    _result: Option<PooledBuffer>,
}

/// Lease a batch's device buffers from the pool (when armed) and convert
/// every driver cycle accumulated since the last lease — frees from
/// handles released in between, plus these acquires — into seconds of
/// upload setup delay. Pool hits charge nothing, which is the whole
/// steady-state argument the bench rows measure.
pub(crate) fn lease_batch_buffers(
    pool: Option<&DevicePool>,
    charged_cycles: &mut u64,
    corpus_bytes: u64,
    result_bytes: Option<u64>,
    clock_hz: f64,
) -> Result<(Option<BatchLease>, f64), GpuError> {
    let Some(pool) = pool else {
        return Ok((None, 0.0));
    };
    let corpus = pool.acquire(corpus_bytes.max(1))?;
    let result = match result_bytes {
        Some(b) => Some(pool.acquire(b.max(1))?),
        None => None,
    };
    let total = pool.host_cycles();
    let setup = total.saturating_sub(*charged_cycles) as f64 / clock_hz;
    *charged_cycles = total;
    Ok((
        Some(BatchLease {
            _corpus: corpus,
            _result: result,
        }),
        setup,
    ))
}

/// Enqueue the held `d2h` and record its jobs' outcomes.
pub(crate) fn flush_readback(
    engine: &mut StreamEngine,
    outcomes: &mut Vec<JobOutcome>,
    slo: &mut Option<AdmissionController>,
    tel: &mut Option<ServeTelemetry>,
    p: PendingReadback,
) {
    engine.submit(
        p.stream,
        StreamOpKind::CopyD2H,
        &p.label,
        p.d2h_seconds,
        p.rb_bytes,
    );
    let done = engine.stream_ready(p.stream);
    record_gpu_outcomes(
        done,
        p.stream,
        p.batch,
        p.per_job,
        p.dispatch_seconds,
        p.retries,
        outcomes,
        slo,
        tel,
    );
}

/// Record the per-job outcomes of a completed GPU batch. Split out of
/// [`flush_readback`] so the fleet path can reuse it with a device-global
/// stream id after submitting the `d2h` through the bus arbiter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_gpu_outcomes(
    done: f64,
    stream: u32,
    batch: Vec<ScanJob>,
    per_job: Vec<Vec<ac_core::Match>>,
    dispatch_seconds: f64,
    retries: u64,
    outcomes: &mut Vec<JobOutcome>,
    slo: &mut Option<AdmissionController>,
    tel: &mut Option<ServeTelemetry>,
) {
    let batch_jobs = batch.len();
    for (job, matches) in batch.into_iter().zip(per_job) {
        let latency = done - job.arrival_seconds;
        if let Some(c) = slo.as_mut() {
            c.observe(latency);
        }
        let outcome = JobOutcome {
            id: job.id,
            matches,
            completed_seconds: done,
            latency_seconds: latency,
            batch_jobs,
            stream,
            served_by: ServedBy::Gpu,
        };
        if let Some(t) = tel.as_mut() {
            t.job_completed(&job, &outcome, dispatch_seconds, retries);
        }
        outcomes.push(outcome);
    }
}

pub(crate) fn rate(amount: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        amount / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{synthetic_workload, WorkloadConfig};
    use ac_core::{AcAutomaton, PatternSet};
    use ac_gpu::KernelParams;
    use gpu_sim::{FaultPlan, GpuConfig};

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
