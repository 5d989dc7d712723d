//! The serve loop, on one device or many: admit → batch → dispatch on a
//! stream → staged readback → demux, plus sharding, cost routing and the
//! shared host bus for fleets.
//!
//! One host drives `N` independent simulated GPUs, each with its own
//! [`StreamEngine`], supervised execution, circuit breaker and telemetry
//! pid plane, behind a single [`serve_fleet`] entry point.
//! [`crate::serve`] is the fleet of one in parity mode, so this module
//! holds the crate's only serve loop.
//!
//! # The parity loop
//!
//! Parity mode (`routing: None`) is a greedy open-loop server over one
//! shared queue: whenever a stream frees up on any device (lowest device
//! on ties), every job that has arrived by then is admitted (or rejected
//! by backpressure), the queue's head run is coalesced up to the batch
//! limits, and the batch's `h2d → kernel → d2h` chain is dispatched on
//! that stream. Batch size therefore adapts to backlog — an idle server
//! launches singleton batches immediately, a busy one amortises launches
//! over whatever queued up — which is the whole p99 argument for batching.
//!
//! Issue order matters on a single-DMA-engine device: the copy engine is
//! a FIFO, so enqueueing a batch's `d2h` right behind its kernel would
//! park the engine until that kernel finishes and block the *next*
//! batch's `h2d` (the classic GT200 false-serialisation). The loop
//! therefore issues staged: a batch's `d2h` is held only while its kernel
//! is still running at the next dispatch. Before every new upload,
//! `take_ready_readbacks` releases each held readback whose kernel has
//! finished by the dispatch instant, in kernel-completion order — what a
//! host woken by kernel-end callbacks would have issued — so a finished
//! batch never waits for the next arrival's upload, while uploads for
//! other streams still slot in ahead of readbacks whose kernels are
//! running and copies genuinely overlap compute. The drain releases the
//! rest. With one stream the flush lands immediately before the next
//! upload, reproducing the strictly serial order.
//!
//! Every batch executes under the supervisor ([`run_supervised`]):
//! transient launch failures and corrupted readbacks are retried with
//! deterministic backoff, hung kernels are watchdog-killed, and the retry
//! cost ([`ac_gpu::supervise::SuperviseReport::penalty_cycles`]) is
//! charged to the stream's simulated clock so faults are never free. A
//! batch that exhausts its retry budget is *not* lost: it fails over to
//! the CPU ladder ([`integration::cpu_ladder_scan`] — parallel CPU, then
//! the serial oracle) on a separate simulated CPU clock, and feeds the
//! device's [`CircuitBreaker`]. While the breaker is open, subsequent
//! batches skip the GPU and run on the CPU tier until a cooldown elapses
//! and half-open probes re-earn trust.
//!
//! Admitted jobs whose deadline passes while still queued are expired
//! with a typed [`JobExpiry`] — an answer distinct from backpressure
//! ([`crate::Overloaded`]) — instead of wasting a batch slot. When an SLO
//! target is configured ([`crate::SloConfig`]), an
//! [`AdmissionController`] tracks sliding-window p99 against it, sheds
//! the lowest-priority arrivals while over target, and grows the batch
//! window to drain the backlog faster. With no faults armed, no deadlines
//! and no SLO config, every one of these paths is quiescent.
//!
//! Rejections carry a `retry_after_us` hint from the aggregate drain rate:
//! completions across every device divided by elapsed time.
//!
//! # Scaling out
//!
//! Three mechanisms make a fleet more than N copies of one device:
//!
//! * **Sharded dispatch** ([`plan_shards`]) — a job whose payload is at
//!   least `shard_bytes` is split into overlap-padded segments, one per
//!   device. Each segment *owns* a half-open byte range and scans
//!   `required_overlap()` extra bytes past its owned end, so a match
//!   starting inside the owned range always fits entirely in the scanned
//!   window. Keeping exactly the matches whose start lies in the owned
//!   range makes the merged result equal to a single-device scan — no
//!   duplicates, no losses (pinned by proptest in `tests/`).
//!
//! * **Calibrated cost routing** ([`CostModel`]) — each tier (every GPU,
//!   plus the CPU ladder as the final tier) gets a fitted latency model
//!   `t(bytes) = setup + bytes / bandwidth`, learned from a two-point
//!   warmup probe run off the simulated clock and refined online from
//!   observed service times (EWMA on the setup term). Arrivals are routed
//!   to the tier with the earliest predicted completion given its queued
//!   backlog: small jobs land on the CPU (no PCIe or launch setup), large
//!   jobs on the least-loaded GPU.
//!
//! * **Shared-bus contention** ([`PcieBusArbiter`]) — every `h2d`/`d2h`
//!   issued by any device first acquires the host's PCIe bus arbiter, so
//!   concurrent transfers serialise against the aggregate host bandwidth
//!   and device scaling is realistically sublinear. The arbiter grants in
//!   time order, not issue order: a copy takes the earliest free gap at
//!   or after its ready time, so an upload issued after another device's
//!   readback but ready before it is not held behind it. The arbiter is
//!   charged the bus traffic (twice the copy under pageable staging);
//!   the stream op records the logical bytes. With one device the arbiter
//!   never delays anything (its aggregate bandwidth covers the link and it
//!   charges no setup), so the single-device server pays nothing for it.
//!
//! Telemetry tags job, control and breaker events with a `device=` arg
//! only when the fleet has more than one device: a one-device trace is
//! the plain single-device trace.

use crate::batch::{assemble_batch, demux_matches, AssembledBatch};
use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker, Route};
use crate::job::{JobExpiry, JobOutcome, ScanJob, ServedBy};
use crate::queue::{BoundedQueue, Overloaded};
use crate::report::{percentile, BatchBucket, PoolStatsReport, ServeReport};
use crate::sim::{ServeConfig, ServeRun};
use crate::slo::{AdmissionController, SheddedJob};
use crate::telemetry::ServeTelemetry;
use ac_core::Match;
use ac_gpu::multistream::readback_bytes;
use ac_gpu::supervise::SuperviseReport;
use ac_gpu::{run_supervised, DevicePool, GpuAcMatcher, GpuError, PcieConfig, PooledBuffer};
use cpu_sim::simulate_multicore;
use gpu_sim::{
    BusConfig, BusStats, EngineKind, PcieBusArbiter, StreamEngine, StreamOpKind, StreamTimeline,
};
use integration::cpu_ladder_scan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One device's slice of a sharded corpus.
///
/// The segment *owns* `[owned_start, owned_end)` and *scans*
/// `[scan_start, scan_end)`, where `scan_start == owned_start` and
/// `scan_end` extends `overlap` bytes past `owned_end` (clamped to the
/// corpus). A match belongs to the segment iff its start offset lies in
/// the owned range — the exactly-once rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSegment {
    /// Device the segment is dispatched to.
    pub device: u32,
    /// First byte this segment owns.
    pub owned_start: usize,
    /// One past the last byte this segment owns.
    pub owned_end: usize,
    /// First byte this segment scans (== `owned_start`).
    pub scan_start: usize,
    /// One past the last byte this segment scans (`owned_end + overlap`,
    /// clamped to the corpus length).
    pub scan_end: usize,
}

/// Split `len` bytes into at most `shards` contiguous owned ranges, each
/// scanning `overlap` bytes past its owned end. Segments cover the corpus
/// exactly; trailing shards that would own nothing are dropped.
pub fn plan_shards(len: usize, shards: u32, overlap: usize) -> Vec<ShardSegment> {
    if len == 0 {
        return Vec::new();
    }
    let shards = (shards.max(1) as usize).min(len);
    let chunk = len.div_ceil(shards);
    (0..shards)
        .filter_map(|d| {
            let owned_start = d * chunk;
            if owned_start >= len {
                return None;
            }
            let owned_end = ((d + 1) * chunk).min(len);
            Some(ShardSegment {
                device: d as u32,
                owned_start,
                owned_end,
                scan_start: owned_start,
                scan_end: (owned_end + overlap).min(len),
            })
        })
        .collect()
}

/// Re-base each segment's window-relative matches to corpus offsets and
/// keep exactly those whose start lies in the segment's owned range.
/// With windows scanned by the same automaton, the merged (sorted) result
/// equals a single scan of the whole corpus.
pub fn merge_shard_matches(segments: &[ShardSegment], per_segment: &[Vec<Match>]) -> Vec<Match> {
    let mut merged = Vec::new();
    for (seg, matches) in segments.iter().zip(per_segment) {
        for m in matches {
            let start = m.start + seg.scan_start;
            if start >= seg.owned_start && start < seg.owned_end {
                merged.push(Match {
                    start,
                    end: m.end + seg.scan_start,
                    pattern: m.pattern,
                });
            }
        }
    }
    merged.sort();
    merged
}

/// A fitted affine latency model for one execution tier:
/// `t(bytes) = setup_seconds + bytes / bytes_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed per-dispatch overhead (PCIe latency, kernel launch, …).
    pub setup_seconds: f64,
    /// Marginal streaming bandwidth.
    pub bytes_per_sec: f64,
}

impl CostModel {
    /// Fit from two probe points `(b1, t1)`, `(b2, t2)` with `b2 > b1`.
    /// Degenerate probes (no measurable slope) fall back to a pure-setup
    /// model so `predict` stays finite.
    pub fn fit(b1: usize, t1: f64, b2: usize, t2: f64) -> CostModel {
        if b2 <= b1 || t2 <= t1 {
            return CostModel {
                setup_seconds: t1.max(t2).max(0.0),
                bytes_per_sec: f64::INFINITY,
            };
        }
        let bytes_per_sec = (b2 - b1) as f64 / (t2 - t1);
        CostModel {
            setup_seconds: (t1 - b1 as f64 / bytes_per_sec).max(0.0),
            bytes_per_sec,
        }
    }

    /// Predicted service time for a `bytes`-long dispatch.
    pub fn predict(&self, bytes: usize) -> f64 {
        let streamed = if self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0 {
            bytes as f64 / self.bytes_per_sec
        } else {
            0.0
        };
        self.setup_seconds + streamed
    }

    /// Refine the setup term from one observed service time (EWMA with
    /// weight `alpha`); the bandwidth term keeps its fitted value so one
    /// anomalous batch cannot poison the slope.
    pub fn observe(&mut self, bytes: usize, seconds: f64, alpha: f64) {
        if !(self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0) {
            self.setup_seconds = (1.0 - alpha) * self.setup_seconds + alpha * seconds.max(0.0);
            return;
        }
        let implied = (seconds - bytes as f64 / self.bytes_per_sec).max(0.0);
        self.setup_seconds = (1.0 - alpha) * self.setup_seconds + alpha * implied;
    }
}

/// Cost-routing knobs (present = routing on, absent = parity mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Small warmup-probe payload, bytes.
    pub probe_small_bytes: usize,
    /// Large warmup-probe payload, bytes (must exceed the small probe).
    pub probe_large_bytes: usize,
    /// EWMA weight for online refinement of each tier's setup term.
    pub refine_alpha: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            probe_small_bytes: 4 << 10,
            probe_large_bytes: 64 << 10,
            refine_alpha: 0.2,
        }
    }
}

/// Fleet-level policy: device count, the per-device server policy, the
/// router, the shared host bus, and the sharding threshold.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Devices in the fleet (min 1).
    pub devices: u32,
    /// Per-device serving policy (streams, limits, breaker, …). The
    /// `slo` and `telemetry` hooks arm one *shared* controller/recorder.
    pub device: ServeConfig,
    /// Calibrated cost routing; `None` = parity mode (one shared queue,
    /// exact [`crate::serve`] loop semantics).
    pub routing: Option<RouterConfig>,
    /// Shared host-side PCIe bus model.
    pub bus: BusConfig,
    /// Jobs at least this large are sharded across every device instead
    /// of batched onto one (`None` disables; requires routing and more
    /// than one device to engage).
    pub shard_bytes: Option<usize>,
}

impl FleetConfig {
    /// A routed fleet of `devices` copies of `device` on a default host bus.
    pub fn new(devices: u32, device: ServeConfig) -> Self {
        FleetConfig {
            devices: devices.max(1),
            device,
            routing: Some(RouterConfig::default()),
            bus: BusConfig::default(),
            shard_bytes: None,
        }
    }

    /// Disable cost routing: one shared queue, serve-loop parity.
    pub fn parity(mut self) -> Self {
        self.routing = None;
        self
    }
}

/// Per-device activity rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device index.
    pub device: u32,
    /// Batches (and shard segments) launched on this device's GPU.
    pub batches: u64,
    /// Jobs whose GPU outcome was recorded on this device.
    pub jobs: u64,
    /// Times this device's breaker opened.
    pub breaker_opens: u64,
    /// Copy-engine busy fraction of the device's own makespan.
    pub copy_utilisation: f64,
    /// Compute-engine busy fraction of the device's own makespan.
    pub compute_utilisation: f64,
    /// Total engine-busy seconds (copy + compute).
    pub busy_seconds: f64,
}

/// Routed traffic per tier (one row per GPU, one for the CPU ladder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierCounts {
    /// Tier label (`"gpu0"`, `"gpu1"`, …, `"cpu"`).
    pub tier: String,
    /// Jobs the router queued to this tier.
    pub jobs: u64,
    /// Payload bytes the router queued to this tier.
    pub bytes: u64,
    /// SLO sheds attributed to this tier (the tier the job would have
    /// routed to).
    pub shed: u64,
    /// Deadline expiries out of this tier's queue.
    pub expired: u64,
}

/// A tier's cost model after the run (fitted + online-refined).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModelSnapshot {
    /// Tier label (`"gpu0"`, …, `"cpu"`).
    pub tier: String,
    /// Final setup term, seconds.
    pub setup_seconds: f64,
    /// Fitted bandwidth term, bytes/second.
    pub bytes_per_sec: f64,
}

/// Fleet-level summary: the aggregate [`ServeReport`] plus per-device,
/// routing, cost-model and bus breakdowns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Devices in the fleet.
    pub devices: u32,
    /// Aggregate serve summary over the merged timeline.
    pub serve: ServeReport,
    /// Per-device rollups, indexed by device.
    pub per_device: Vec<DeviceReport>,
    /// Routing table (empty in parity mode).
    pub routing: Vec<TierCounts>,
    /// Final per-tier cost models (empty in parity mode).
    pub cost_models: Vec<CostModelSnapshot>,
    /// Shared-bus transfer statistics.
    pub bus: BusStats,
    /// Bus busy fraction of the fleet makespan.
    pub bus_utilisation: f64,
    /// Jobs served by sharding across every device.
    pub scattered_jobs: u64,
}

impl FleetReport {
    /// Serialize to pretty JSON (for `acsim fleet-sim --report`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet report serializes")
    }

    /// Parse a report back from [`FleetReport::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Everything a fleet run produced: the fleet report, the aggregate
/// [`ServeRun`] (merged timeline, outcomes in completion order), and the
/// per-device timelines.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Fleet-level summary.
    pub report: FleetReport,
    /// Aggregate run with device streams remapped to fleet-global ids
    /// (`device * streams_per_device + local`).
    pub serve: ServeRun,
    /// One timeline per device, in device order.
    pub timelines: Vec<StreamTimeline>,
}

/// Mutable per-fleet state shared by the parity and routed loops.
struct FleetState {
    /// The link model every copy is priced with
    /// ([`ServeConfig::effective_pcie`]).
    pcie: PcieConfig,
    engines: Vec<StreamEngine>,
    breakers: Vec<CircuitBreaker>,
    pendings: Vec<Vec<Option<PendingReadback>>>,
    /// One device-memory pool per device when the per-device config arms
    /// one (`None` entries otherwise — the legacy untracked path).
    pools: Vec<Option<DevicePool>>,
    /// Per-device cursor of pool driver cycles already converted into
    /// upload delay.
    pool_charged: Vec<u64>,
    arbiter: PcieBusArbiter,
    outcomes: Vec<JobOutcome>,
    slo: Option<AdmissionController>,
    tel: Option<ServeTelemetry>,
    cpu_free: f64,
    gpu_retries: u64,
    cpu_fallback_batches: u64,
    faults_fired: u64,
    batches: u64,
    payload_bytes: u64,
    histogram: BTreeMap<usize, u64>,
    per_dev_batches: Vec<u64>,
    per_dev_jobs: Vec<u64>,
    scattered_jobs: u64,
}

impl FleetState {
    /// Submit a `bytes`-long `h2d`/`d2h` through the shared bus: the
    /// transfer starts no earlier than the bus grants it. The arbiter is
    /// charged the bus traffic ([`PcieConfig::bus_bytes`]); the stream op
    /// records the logical bytes. With one device the grant is always the
    /// engine's own earliest start (the arbiter's aggregate bandwidth
    /// covers the link and it charges no setup), so the bus never moves a
    /// single-device schedule.
    fn submit_copy(
        &mut self,
        device: usize,
        stream: u32,
        kind: StreamOpKind,
        label: &str,
        bytes: u64,
        not_before: f64,
    ) {
        let seconds = self.pcie.copy_seconds(bytes as usize);
        let earliest = self.engines[device].earliest_start(stream, kind, not_before);
        let release = self.arbiter.acquire(earliest, self.pcie.bus_bytes(bytes));
        self.engines[device].submit_at(stream, kind, label, seconds, bytes, release);
    }

    /// Tag subsequent telemetry events with `device`. Only a multi-device
    /// fleet tags, so a one-device trace is the plain single-device trace.
    fn tag_device(&mut self, device: Option<usize>) {
        if self.engines.len() > 1 {
            if let Some(t) = self.tel.as_mut() {
                t.set_device(device.map(|d| d as u32));
            }
        }
    }

    /// Flush one held readback through the bus and record its outcomes
    /// under the fleet-global stream id.
    fn flush_pending(&mut self, device: usize, streams_per_device: u32, p: PendingReadback) {
        self.tag_device(Some(device));
        let local = p.stream;
        self.submit_copy(
            device,
            local,
            StreamOpKind::CopyD2H,
            &p.label,
            p.rb_bytes,
            0.0,
        );
        let done = self.engines[device].stream_ready(local);
        self.per_dev_jobs[device] += p.batch.len() as u64;
        record_outcomes(
            done,
            ServedBy::Gpu,
            device as u32 * streams_per_device + local,
            p.batch,
            p.per_job,
            p.dispatch_seconds,
            p.retries,
            &mut self.outcomes,
            &mut self.slo,
            &mut self.tel,
        );
    }

    /// Flush every held readback, on any device, whose kernel has
    /// finished by `now` ([`take_ready_readbacks`]; `f64::INFINITY` is
    /// the drain).
    fn flush_ready(&mut self, now: f64, streams_per_device: u32) {
        for (d, p) in take_ready_readbacks(&self.engines, &mut self.pendings, now) {
            self.flush_pending(d, streams_per_device, p);
        }
    }

    /// The most severe breaker state across the fleet (for control-plane
    /// ticks taken on the CPU tier, which has no breaker of its own).
    fn worst_breaker_state(&self) -> BreakerState {
        let mut worst = BreakerState::Closed;
        for b in &self.breakers {
            worst = match (worst, b.state()) {
                (_, BreakerState::Open) | (BreakerState::Open, _) => BreakerState::Open,
                (_, BreakerState::HalfOpen) | (BreakerState::HalfOpen, _) => BreakerState::HalfOpen,
                _ => BreakerState::Closed,
            };
        }
        worst
    }
}

/// Serve `jobs` through a fleet of `cfg.devices` simulated GPUs plus the
/// CPU ladder. Device 0 runs on `matcher` itself (so armed fault plans
/// fire on the caller's matcher); devices 1.. run on
/// [`GpuAcMatcher::replicate`] clones with independent fault state.
///
/// # Errors
/// An invalid link model, a job whose arrival time is not finite
/// ([`GpuError::InvalidParams`]), or a device pool too small for a batch.
pub fn serve_fleet(
    matcher: &GpuAcMatcher,
    mut jobs: Vec<ScanJob>,
    cfg: &FleetConfig,
) -> Result<FleetRun, GpuError> {
    let pcie = cfg.device.effective_pcie();
    pcie.validate()?;
    if let Some(job) = jobs.iter().find(|j| !j.arrival_seconds.is_finite()) {
        return Err(GpuError::InvalidParams(format!(
            "job {} has a non-finite arrival time ({})",
            job.id, job.arrival_seconds
        )));
    }
    jobs.sort_by(|a, b| {
        a.arrival_seconds
            .total_cmp(&b.arrival_seconds)
            .then(a.id.cmp(&b.id))
    });
    let devices = cfg.devices.max(1) as usize;
    let dcfg = &cfg.device;
    let submitted = jobs.len() as u64;
    let gap = matcher.automaton().required_overlap();
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let clock_hz = matcher.config().clock_hz;
    let streams_per_device = dcfg.streams.max(1);

    // Calibrate tier cost models before cloning, so the replicas inherit
    // the probe-warmed lazy device tables instead of re-deriving them.
    let models = cfg
        .routing
        .as_ref()
        .map(|r| fit_tier_models(matcher, dcfg, r, devices));
    let replicas: Vec<GpuAcMatcher> = (1..devices).map(|_| matcher.replicate()).collect();
    let matcher_for = |d: usize| -> &GpuAcMatcher {
        if d == 0 {
            matcher
        } else {
            &replicas[d - 1]
        }
    };

    let mut st = FleetState {
        pcie,
        engines: (0..devices)
            .map(|_| StreamEngine::new(dcfg.streams))
            .collect(),
        breakers: (0..devices)
            .map(|_| CircuitBreaker::new(dcfg.breaker))
            .collect(),
        pendings: (0..devices)
            .map(|_| (0..streams_per_device).map(|_| None).collect())
            .collect(),
        pools: (0..devices)
            .map(|_| dcfg.pool.map(|p| DevicePool::new(p.device_pool_config())))
            .collect(),
        pool_charged: vec![0; devices],
        arbiter: PcieBusArbiter::new(cfg.bus),
        outcomes: Vec::with_capacity(jobs.len()),
        slo: dcfg.slo.map(|s| AdmissionController::new(s, base_max_jobs)),
        tel: dcfg.telemetry.map(|t| ServeTelemetry::new(t, clock_hz)),
        cpu_free: 0.0,
        gpu_retries: 0,
        cpu_fallback_batches: 0,
        faults_fired: 0,
        batches: 0,
        payload_bytes: 0,
        histogram: BTreeMap::new(),
        per_dev_batches: vec![0; devices],
        per_dev_jobs: vec![0; devices],
        scattered_jobs: 0,
    };

    let (rejections, expiries, routing, cost_models) = match (cfg.routing, models) {
        (Some(router), Some(models)) => {
            let (rej, exp, tiers, final_models) = run_routed(
                &mut st,
                &jobs,
                cfg,
                gap,
                clock_hz,
                &router,
                models,
                &matcher_for,
            )?;
            (rej, exp, tiers, final_models)
        }
        _ => {
            let (rej, exp) =
                run_parity(&mut st, &jobs, dcfg, gap, clock_hz, devices, &matcher_for)?;
            (rej, exp, Vec::new(), Vec::new())
        }
    };

    st.flush_ready(f64::INFINITY, streams_per_device);

    // Drain every device's pool: all leases were released with their
    // readbacks, so a live block here is a dispatcher leak (panics).
    let mut pool_report: Option<PoolStatsReport> = None;
    for pool in st.pools.iter().flatten() {
        pool.drain();
        let stats = PoolStatsReport::from_stats(pool.stats());
        match pool_report.as_mut() {
            Some(agg) => agg.merge(&stats),
            None => pool_report = Some(stats),
        }
    }

    let timelines: Vec<StreamTimeline> = st.engines.drain(..).map(|e| e.finish()).collect();
    // Aggregate timeline: per-device ops with streams remapped onto one
    // fleet-global id space (identity when devices == 1).
    let mut merged = StreamTimeline::default();
    let mut stream_base = 0u32;
    for t in &timelines {
        for op in &t.ops {
            let mut op = op.clone();
            op.stream += stream_base;
            merged.ops.push(op);
        }
        stream_base += t.streams;
    }
    merged.streams = stream_base;

    let makespan = st
        .outcomes
        .iter()
        .fold(merged.total_seconds(), |m, o| m.max(o.completed_seconds));
    let latencies_us: Vec<f64> = st
        .outcomes
        .iter()
        .map(|o| o.latency_seconds * 1.0e6)
        .collect();

    let mut transitions: Vec<BreakerTransition> = Vec::new();
    for b in &st.breakers {
        transitions.extend(b.transitions().iter().cloned());
    }
    transitions.sort_by(|a, b| a.at_seconds.total_cmp(&b.at_seconds));

    let worst_state = st.worst_breaker_state();
    let batch_window = st
        .slo
        .as_ref()
        .map(|c| c.batch_jobs())
        .unwrap_or(base_max_jobs);
    let telemetry = st.tel.take().map(|mut t| {
        t.tick(makespan, 0, batch_window, worst_state);
        let per_device: Vec<(&[BreakerTransition], &StreamTimeline)> = st
            .breakers
            .iter()
            .map(|b| b.transitions())
            .zip(&timelines)
            .collect();
        let mut run = t.finish(&per_device);
        run.attribute_pattern_costs(matcher, dcfg.approach, makespan);
        if let Some(ps) = pool_report {
            run.record_pool_stats(&ps, makespan);
        }
        run
    });
    let sheds = st
        .slo
        .as_ref()
        .map(|c| c.sheds().to_vec())
        .unwrap_or_default();

    let report = ServeReport {
        streams: merged.streams,
        batched: base_max_jobs > 1,
        jobs_submitted: submitted,
        jobs_completed: st.outcomes.len() as u64,
        jobs_rejected: rejections.len() as u64,
        jobs_expired: expiries.len() as u64,
        jobs_shed: sheds.len() as u64,
        batches: st.batches,
        breaker_opens: st.breakers.iter().map(|b| b.opens()).sum(),
        cpu_fallback_batches: st.cpu_fallback_batches,
        gpu_retries: st.gpu_retries,
        faults_fired: st.faults_fired,
        makespan_seconds: makespan,
        p50_latency_us: percentile(&latencies_us, 50.0),
        p99_latency_us: percentile(&latencies_us, 99.0),
        mean_latency_us: if latencies_us.is_empty() {
            0.0
        } else {
            latencies_us.iter().sum::<f64>() / latencies_us.len() as f64
        },
        jobs_per_sec: rate(st.outcomes.len() as f64, makespan),
        effective_gbps: rate(st.payload_bytes as f64 * 8.0 / 1.0e9, makespan),
        payload_bytes: st.payload_bytes,
        copy_utilisation: merged.utilisation(EngineKind::Copy),
        compute_utilisation: merged.utilisation(EngineKind::Compute),
        batch_histogram: std::mem::take(&mut st.histogram)
            .into_iter()
            .map(|(jobs, count)| BatchBucket { jobs, count })
            .collect(),
        pool: pool_report,
    };

    let per_device: Vec<DeviceReport> = (0..devices)
        .map(|d| DeviceReport {
            device: d as u32,
            batches: st.per_dev_batches[d],
            jobs: st.per_dev_jobs[d],
            breaker_opens: st.breakers[d].opens(),
            copy_utilisation: timelines[d].utilisation(EngineKind::Copy),
            compute_utilisation: timelines[d].utilisation(EngineKind::Compute),
            busy_seconds: timelines[d].busy_seconds(EngineKind::Copy)
                + timelines[d].busy_seconds(EngineKind::Compute),
        })
        .collect();

    let bus = st.arbiter.stats();
    let fleet_report = FleetReport {
        devices: devices as u32,
        serve: report.clone(),
        per_device,
        routing,
        cost_models,
        bus,
        bus_utilisation: if makespan > 0.0 {
            bus.busy_seconds / makespan
        } else {
            0.0
        },
        scattered_jobs: st.scattered_jobs,
    };

    Ok(FleetRun {
        report: fleet_report,
        serve: ServeRun {
            report,
            outcomes: st.outcomes,
            rejections,
            expiries,
            sheds,
            breaker_transitions: transitions,
            timeline: merged,
            telemetry,
        },
        timelines,
    })
}

/// Warmup calibration: probe each tier with two payload sizes *off the
/// simulated clock* and fit one [`CostModel`] per tier (each GPU starts
/// from the same fit; online refinement then specialises them).
fn fit_tier_models(
    matcher: &GpuAcMatcher,
    dcfg: &ServeConfig,
    router: &RouterConfig,
    devices: usize,
) -> Vec<CostModel> {
    let small = router.probe_small_bytes.max(1);
    let large = router.probe_large_bytes.max(small + 1);
    let pcie = dcfg.effective_pcie();
    let gpu_probe = |bytes: usize| -> Option<f64> {
        let payload = vec![b'a'; bytes];
        let sup = run_supervised(matcher, &payload, dcfg.approach, &dcfg.supervise).ok()?;
        let h2d = pcie.copy_seconds(bytes);
        let d2h = pcie.copy_seconds(readback_bytes(sup.run.match_events) as usize);
        Some(h2d + sup.run.seconds() + d2h)
    };
    let gpu_model = match (gpu_probe(small), gpu_probe(large)) {
        (Some(t1), Some(t2)) => CostModel::fit(small, t1, large, t2),
        // A faulting probe leaves a pessimistic default; online
        // refinement repairs it from real service times.
        _ => CostModel {
            setup_seconds: 100.0e-6,
            bytes_per_sec: 1.0e9,
        },
    };
    let ac = matcher.automaton();
    let cpu_probe = |bytes: usize| -> f64 {
        let payload = vec![b'a'; bytes];
        let timing = simulate_multicore(
            &dcfg.cpu,
            ac.stt(),
            &payload,
            dcfg.cpu_cores.max(1),
            ac.required_overlap(),
        );
        timing.seconds(&dcfg.cpu)
    };
    let cpu_model = CostModel::fit(small, cpu_probe(small), large, cpu_probe(large));
    let mut models = vec![gpu_model; devices];
    models.push(cpu_model);
    models
}

/// Parity mode (see the module docs): one shared queue, each turn
/// dispatched on whichever device frees up first. With one device this is
/// [`crate::serve`].
fn run_parity<'a>(
    st: &mut FleetState,
    jobs: &[ScanJob],
    dcfg: &ServeConfig,
    gap: usize,
    clock_hz: f64,
    devices: usize,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) -> Result<(Vec<Overloaded>, Vec<JobExpiry>), GpuError> {
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let streams_per_device = dcfg.streams.max(1);
    let mut queue = BoundedQueue::new(dcfg.queue_capacity);
    let mut rejections = Vec::new();
    let mut expiries: Vec<JobExpiry> = Vec::new();
    let mut next = 0usize;

    loop {
        if queue.is_empty() {
            if next >= jobs.len() {
                break;
            }
            let job = jobs[next].clone();
            next += 1;
            if let Some(s) = shed(&mut st.slo, &job) {
                if let Some(t) = st.tel.as_mut() {
                    t.job_shed(&s);
                }
                continue;
            }
            queue.push(job).expect("empty queue admits one job");
        }
        // The fleet's next free stream: argmin over devices, lowest
        // device on ties (degenerates to `next_free_stream()` at d=1).
        let (dev, stream, gpu_free) = (0..devices)
            .map(|d| {
                let (s, f) = st.engines[d].next_free_stream();
                (d, s, f)
            })
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("fleet has at least one device");
        let head = queue.head_arrival().expect("queue is non-empty");
        let gpu_dispatch = gpu_free.max(head);
        let route = st.breakers[dev].route_at(gpu_dispatch);
        let dispatch = match route {
            Route::Gpu => gpu_dispatch,
            Route::Cpu => st.cpu_free.max(head),
        };
        // Before the new upload, flush every device's finished readbacks
        // (the reused stream's included) through the bus arbiter.
        if route == Route::Gpu {
            st.flush_ready(dispatch, streams_per_device);
            debug_assert!(st.pendings[dev][stream as usize].is_none());
        }
        // Everything that arrived while the tier was busy is admitted now
        // (shed under SLO pressure, or bounced off the full queue with a
        // retry hint from the aggregate fleet drain rate).
        let drain_rate = if dispatch > 0.0 {
            st.outcomes.len() as f64 / dispatch
        } else {
            0.0
        };
        while next < jobs.len() && jobs[next].arrival_seconds <= dispatch {
            let job = jobs[next].clone();
            next += 1;
            if let Some(s) = shed(&mut st.slo, &job) {
                if let Some(t) = st.tel.as_mut() {
                    t.job_shed(&s);
                }
                continue;
            }
            let (priority, arrival) = (job.priority, job.arrival_seconds);
            if let Err(mut e) = queue.push(job) {
                if drain_rate > 0.0 {
                    e.retry_after_us = e.capacity as f64 / drain_rate * 1.0e6;
                }
                if let Some(t) = st.tel.as_mut() {
                    t.job_rejected(&e, priority, arrival);
                }
                rejections.push(e);
            }
        }
        // Overdue jobs get a typed expiry instead of a batch slot. Any
        // expiry may have changed the head, so re-plan from the top.
        let newly_expired = queue.expire_overdue(dispatch);
        if !newly_expired.is_empty() {
            if let Some(t) = st.tel.as_mut() {
                for e in &newly_expired {
                    t.job_expired(e);
                }
            }
            expiries.extend(newly_expired);
            continue;
        }

        // Coalesce the backlog head into one launch. Under SLO pressure
        // the controller widens the window beyond the configured base.
        let max_jobs_now = st
            .slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        st.tag_device(Some(dev));
        if let Some(t) = st.tel.as_mut() {
            t.tick(
                dispatch,
                queue.len(),
                max_jobs_now,
                st.breakers[dev].state(),
            );
        }
        let mut batch = vec![queue.pop().expect("queue is non-empty")];
        let mut batch_bytes = batch[0].payload.len();
        while batch.len() < max_jobs_now {
            match queue.head_payload_len() {
                Some(len) if batch_bytes + len <= dcfg.limits.max_bytes => {
                    batch_bytes += len;
                    batch.push(queue.pop().expect("head exists"));
                }
                _ => break,
            }
        }
        let assembled = assemble_batch(&batch, gap);
        let label = format!("batch{}", st.batches);
        st.batches += 1;
        st.payload_bytes += batch_bytes as u64;
        *st.histogram.entry(batch.len()).or_insert(0) += 1;
        if let Some(t) = st.tel.as_mut() {
            let route_label = match route {
                Route::Gpu => "gpu",
                Route::Cpu => "cpu",
            };
            t.batch_formed(&label, &batch, dispatch, route_label);
        }

        match route {
            Route::Cpu => {
                st.cpu_free = run_cpu_batch(
                    matcher_for(dev),
                    dcfg,
                    &assembled,
                    batch,
                    dispatch,
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    0,
                );
                st.cpu_fallback_batches += 1;
            }
            Route::Gpu => {
                dispatch_gpu_batch(
                    st,
                    dev,
                    stream,
                    matcher_for(dev),
                    dcfg,
                    clock_hz,
                    assembled,
                    batch,
                    label,
                    dispatch,
                    None,
                )?;
            }
        }
    }
    Ok((rejections, expiries))
}

/// Dispatch one assembled batch on `dev`'s GPU under supervision: charge
/// the `h2d` through the bus, charge the kernel (plus retry penalty),
/// stage the readback, or fail over to the shared CPU executor. When
/// `refine` is set the tier's cost model observes the realised service
/// time. Returns the device's per-batch bookkeeping via `st`; a device
/// pool too small for the batch is a fatal [`GpuError::Device`].
#[allow(clippy::too_many_arguments)]
fn dispatch_gpu_batch(
    st: &mut FleetState,
    dev: usize,
    stream: u32,
    matcher: &GpuAcMatcher,
    dcfg: &ServeConfig,
    clock_hz: f64,
    assembled: AssembledBatch,
    batch: Vec<ScanJob>,
    label: String,
    dispatch: f64,
    refine: Option<(&mut CostModel, f64)>,
) -> Result<(), GpuError> {
    st.per_dev_batches[dev] += 1;
    let corpus_bytes = assembled.data.len() as u64;
    match run_supervised(matcher, &assembled.data, dcfg.approach, &dcfg.supervise) {
        Ok(sup) => {
            tally(&sup.report, &mut st.gpu_retries, &mut st.faults_fired);
            let penalty =
                sup.report.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / clock_hz;
            let per_job = demux_matches(&sup.run.matches, &assembled.spans);
            let rb_bytes = readback_bytes(sup.run.match_events);
            let (lease, setup) = lease_batch_buffers(
                st.pools[dev].as_ref(),
                &mut st.pool_charged[dev],
                corpus_bytes,
                Some(rb_bytes),
                clock_hz,
            )?;
            st.submit_copy(
                dev,
                stream,
                StreamOpKind::CopyH2D,
                &label,
                corpus_bytes,
                dispatch + setup,
            );
            // Retry penalty (backoff + watchdog-burned budgets) is charged
            // to the stream: faults cost real time.
            st.engines[dev].submit(
                stream,
                StreamOpKind::Kernel,
                &label,
                sup.run.seconds() + penalty,
                0,
            );
            st.breakers[dev].record_success(st.engines[dev].stream_ready(stream));
            if let Some((model, alpha)) = refine {
                let h2d = st.pcie.copy_seconds(assembled.data.len());
                let d2h = st.pcie.copy_seconds(rb_bytes as usize);
                model.observe(
                    assembled.data.len(),
                    h2d + sup.run.seconds() + penalty + d2h,
                    alpha,
                );
            }
            st.pendings[dev][stream as usize] = Some(PendingReadback {
                stream,
                label,
                rb_bytes,
                batch,
                per_job,
                dispatch_seconds: dispatch,
                retries: sup.report.retries as u64,
                _lease: lease,
            });
        }
        Err((err, rep)) => {
            tally(&rep, &mut st.gpu_retries, &mut st.faults_fired);
            // The failed attempts still burned stream time: the upload
            // happened, and backoff/watchdog budgets elapsed before the
            // supervisor gave up.
            let penalty = rep.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / clock_hz;
            // They also leased (and release) the corpus buffer: churn is
            // charged either way.
            let (lease, setup) = lease_batch_buffers(
                st.pools[dev].as_ref(),
                &mut st.pool_charged[dev],
                corpus_bytes,
                None,
                clock_hz,
            )?;
            st.submit_copy(
                dev,
                stream,
                StreamOpKind::CopyH2D,
                &format!("{label}-failed"),
                corpus_bytes,
                dispatch + setup,
            );
            drop(lease);
            if penalty > 0.0 {
                st.engines[dev].submit(
                    stream,
                    StreamOpKind::Kernel,
                    &format!("{label}-failed"),
                    penalty,
                    0,
                );
            }
            let failed_at = st.engines[dev].stream_ready(stream);
            st.breakers[dev].record_failure(failed_at, &err.to_string());
            // The batch is admitted work: it fails over to the CPU ladder
            // rather than being dropped.
            st.cpu_free = run_cpu_batch(
                matcher,
                dcfg,
                &assembled,
                batch,
                st.cpu_free.max(failed_at),
                &mut st.outcomes,
                &mut st.slo,
                &mut st.tel,
                rep.retries as u64,
            );
            st.cpu_fallback_batches += 1;
        }
    }
    Ok(())
}

/// Routed mode: per-device GPU queues plus one CPU-ladder queue, each
/// arrival routed to the tier with the earliest predicted completion
/// under its calibrated cost model; oversized jobs scatter across every
/// device as overlap-padded shards.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run_routed<'a>(
    st: &mut FleetState,
    jobs: &[ScanJob],
    cfg: &FleetConfig,
    gap: usize,
    clock_hz: f64,
    router: &RouterConfig,
    mut models: Vec<CostModel>,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) -> Result<
    (
        Vec<Overloaded>,
        Vec<JobExpiry>,
        Vec<TierCounts>,
        Vec<CostModelSnapshot>,
    ),
    GpuError,
> {
    let dcfg = &cfg.device;
    let devices = st.engines.len();
    let cpu_tier = devices; // tier index of the CPU ladder
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let streams_per_device = dcfg.streams.max(1);
    let scatter_min = match cfg.shard_bytes {
        Some(b) if devices > 1 => Some(b.max(1)),
        _ => None,
    };

    let mut queues: Vec<BoundedQueue> = (0..=devices)
        .map(|_| BoundedQueue::new(dcfg.queue_capacity))
        .collect();
    let tier_label = |t: usize| -> String {
        if t == cpu_tier {
            "cpu".to_string()
        } else {
            format!("gpu{t}")
        }
    };
    let mut tiers: Vec<TierCounts> = (0..=devices)
        .map(|t| TierCounts {
            tier: tier_label(t),
            jobs: 0,
            bytes: 0,
            shed: 0,
            expired: 0,
        })
        .collect();
    let mut rejections = Vec::new();
    let mut expiries: Vec<JobExpiry> = Vec::new();
    let mut next = 0usize;

    macro_rules! admit_one {
        ($job:expr, $now:expr) => {{
            let job: ScanJob = $job;
            let now: f64 = $now;
            // Scatter-eligible jobs always stage on tier 0; everything
            // else goes to the tier predicting the earliest completion.
            let tier = if scatter_min.is_some_and(|m| job.payload.len() >= m) {
                0
            } else {
                (0..=devices)
                    .map(|t| {
                        let tier_free = if t == cpu_tier {
                            st.cpu_free
                        } else {
                            st.engines[t].next_free_stream().1
                        };
                        let backlog = queues[t].queued_bytes() + job.payload.len();
                        (
                            t,
                            tier_free.max(job.arrival_seconds) + models[t].predict(backlog),
                        )
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("at least one tier")
                    .0
            };
            if let Some(s) = shed(&mut st.slo, &job) {
                tiers[tier].shed += 1;
                if let Some(t) = st.tel.as_mut() {
                    t.job_shed(&s);
                }
            } else {
                let (priority, arrival, bytes) =
                    (job.priority, job.arrival_seconds, job.payload.len());
                match queues[tier].push(job) {
                    Ok(()) => {
                        tiers[tier].jobs += 1;
                        tiers[tier].bytes += bytes as u64;
                    }
                    Err(mut e) => {
                        let drain_rate = if now > 0.0 {
                            st.outcomes.len() as f64 / now
                        } else {
                            0.0
                        };
                        if drain_rate > 0.0 {
                            e.retry_after_us = e.capacity as f64 / drain_rate * 1.0e6;
                        }
                        if let Some(t) = st.tel.as_mut() {
                            t.job_rejected(&e, priority, arrival);
                        }
                        rejections.push(e);
                    }
                }
            }
        }};
    }

    loop {
        // Pick the tier whose head job can dispatch earliest; GPU tiers
        // win ties over the CPU (and lower devices over higher).
        let turn = (0..=devices)
            .filter(|&t| !queues[t].is_empty())
            .map(|t| {
                let free = if t == cpu_tier {
                    st.cpu_free
                } else {
                    st.engines[t].next_free_stream().1
                };
                (t, free.max(queues[t].head_arrival().expect("non-empty")))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let (tier, mut dispatch) = match turn {
            Some(t) => t,
            None => {
                if next >= jobs.len() {
                    break;
                }
                let job = jobs[next].clone();
                next += 1;
                let now = job.arrival_seconds;
                admit_one!(job, now);
                continue;
            }
        };

        // GPU tiers consult their breaker; an open breaker fails the
        // batch over to the shared CPU executor.
        let mut gpu_arm: Option<(usize, u32)> = None;
        let mut route = Route::Cpu;
        if tier != cpu_tier {
            let (stream, _) = st.engines[tier].next_free_stream();
            route = st.breakers[tier].route_at(dispatch);
            match route {
                Route::Gpu => {
                    st.flush_ready(dispatch, streams_per_device);
                    debug_assert!(st.pendings[tier][stream as usize].is_none());
                    gpu_arm = Some((tier, stream));
                }
                Route::Cpu => {
                    dispatch = st
                        .cpu_free
                        .max(queues[tier].head_arrival().expect("non-empty"));
                }
            }
        }

        while next < jobs.len() && jobs[next].arrival_seconds <= dispatch {
            let job = jobs[next].clone();
            next += 1;
            admit_one!(job, dispatch);
        }

        // Expire every tier's overdue jobs at this dispatch instant;
        // any expiry may have changed a head, so re-plan from the top.
        let mut any_expired = false;
        for (t, q) in queues.iter_mut().enumerate() {
            let newly = q.expire_overdue(dispatch);
            if !newly.is_empty() {
                any_expired = true;
                tiers[t].expired += newly.len() as u64;
                if let Some(tel) = st.tel.as_mut() {
                    for e in &newly {
                        tel.job_expired(e);
                    }
                }
                expiries.extend(newly);
            }
        }
        if any_expired {
            continue;
        }

        let max_jobs_now = st
            .slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        let queued_total: usize = queues.iter().map(|q| q.len()).sum();
        let tick_state = match gpu_arm {
            Some((d, _)) => st.breakers[d].state(),
            None => st.worst_breaker_state(),
        };
        st.tag_device(gpu_arm.map(|(d, _)| d));
        if let Some(t) = st.tel.as_mut() {
            t.tick(dispatch, queued_total, max_jobs_now, tick_state);
        }

        // Oversized head on a GPU tier: scatter it across the fleet.
        if let Some(min) = scatter_min {
            if tier != cpu_tier
                && route == Route::Gpu
                && queues[tier].head_payload_len().is_some_and(|l| l >= min)
            {
                let job = queues[tier].pop().expect("head exists");
                scatter_job(
                    st,
                    job,
                    dispatch,
                    gap,
                    clock_hz,
                    dcfg,
                    streams_per_device,
                    matcher_for,
                )?;
                continue;
            }
        }

        let mut batch = vec![queues[tier].pop().expect("queue is non-empty")];
        let mut batch_bytes = batch[0].payload.len();
        while batch.len() < max_jobs_now {
            match queues[tier].head_payload_len() {
                Some(len)
                    if batch_bytes + len <= dcfg.limits.max_bytes
                        && scatter_min.is_none_or(|m| len < m) =>
                {
                    batch_bytes += len;
                    batch.push(queues[tier].pop().expect("head exists"));
                }
                _ => break,
            }
        }
        let assembled = assemble_batch(&batch, gap);
        let label = format!("batch{}", st.batches);
        st.batches += 1;
        st.payload_bytes += batch_bytes as u64;
        *st.histogram.entry(batch.len()).or_insert(0) += 1;
        if let Some(t) = st.tel.as_mut() {
            let route_label = if gpu_arm.is_some() { "gpu" } else { "cpu" };
            t.batch_formed(&label, &batch, dispatch, route_label);
        }

        match gpu_arm {
            Some((dev, stream)) => {
                dispatch_gpu_batch(
                    st,
                    dev,
                    stream,
                    matcher_for(dev),
                    dcfg,
                    clock_hz,
                    assembled,
                    batch,
                    label,
                    dispatch,
                    Some((&mut models[dev], router.refine_alpha)),
                )?;
            }
            None => {
                let start = dispatch;
                let done = run_cpu_batch(
                    matcher_for(0),
                    dcfg,
                    &assembled,
                    batch,
                    start,
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    0,
                );
                models[cpu_tier].observe(assembled.data.len(), done - start, router.refine_alpha);
                st.cpu_free = done;
                if tier != cpu_tier {
                    // Breaker-open failover, not a routed CPU batch.
                    st.cpu_fallback_batches += 1;
                }
            }
        }
    }

    let cost_models = models
        .iter()
        .enumerate()
        .map(|(t, m)| CostModelSnapshot {
            tier: tier_label(t),
            setup_seconds: m.setup_seconds,
            bytes_per_sec: m.bytes_per_sec,
        })
        .collect();
    Ok((rejections, expiries, tiers, cost_models))
}

/// Serve one oversized job by sharding it across every device: each
/// segment's `h2d`/kernel/`d2h` chain runs on its device's next free
/// stream, and the job completes when the slowest segment does. The
/// chains are issued one device after another, but the bus grants in
/// time order, so each upload goes ahead of the readbacks already
/// reserved at earlier segments' kernel ends and the segments run in
/// parallel. Any segment failure fails the whole job
/// over to the CPU ladder — shard results are all-or-nothing. A device
/// pool too small for a shard is a fatal [`GpuError::Device`].
#[allow(clippy::too_many_arguments)]
fn scatter_job<'a>(
    st: &mut FleetState,
    job: ScanJob,
    dispatch: f64,
    gap: usize,
    clock_hz: f64,
    dcfg: &ServeConfig,
    streams_per_device: u32,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) -> Result<(), GpuError> {
    let devices = st.engines.len();
    let segments = plan_shards(job.payload.len(), devices as u32, gap);
    let label_base = format!("scatter{}", st.batches);
    st.batches += 1;
    st.payload_bytes += job.payload.len() as u64;
    *st.histogram.entry(1).or_insert(0) += 1;
    st.tag_device(None);
    if let Some(t) = st.tel.as_mut() {
        t.batch_formed(&label_base, std::slice::from_ref(&job), dispatch, "scatter");
    }

    // Functional pass first: if any segment's supervised run exhausts its
    // retries the whole job falls back to the CPU before any timing is
    // charged (the failure is still charged to that device's breaker).
    let mut runs = Vec::with_capacity(segments.len());
    for seg in &segments {
        let window = &job.payload[seg.scan_start..seg.scan_end];
        match run_supervised(
            matcher_for(seg.device as usize),
            window,
            dcfg.approach,
            &dcfg.supervise,
        ) {
            Ok(sup) => {
                tally(&sup.report, &mut st.gpu_retries, &mut st.faults_fired);
                runs.push(sup);
            }
            Err((err, rep)) => {
                tally(&rep, &mut st.gpu_retries, &mut st.faults_fired);
                let d = seg.device as usize;
                let failed_at = st.engines[d].next_free_stream().1.max(dispatch);
                st.breakers[d].record_failure(failed_at, &err.to_string());
                let assembled = assemble_batch(std::slice::from_ref(&job), gap);
                st.cpu_free = run_cpu_batch(
                    matcher_for(0),
                    dcfg,
                    &assembled,
                    vec![job],
                    st.cpu_free.max(failed_at),
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    rep.retries as u64,
                );
                st.cpu_fallback_batches += 1;
                return Ok(());
            }
        }
    }

    let mut done_max = dispatch;
    let mut first_stream = 0u32;
    let per_segment: Vec<Vec<Match>> = runs.iter().map(|sup| sup.run.matches.clone()).collect();
    for (i, (seg, sup)) in segments.iter().zip(&runs).enumerate() {
        let d = seg.device as usize;
        let (stream, _) = st.engines[d].next_free_stream();
        if i == 0 {
            first_stream = d as u32 * streams_per_device + stream;
        }
        if let Some(p) = st.pendings[d][stream as usize].take() {
            st.flush_pending(d, streams_per_device, p);
        }
        st.tag_device(Some(d));
        let label = format!("{label_base}-d{d}");
        let bytes = seg.scan_end - seg.scan_start;
        let penalty = sup.report.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / clock_hz;
        let rb_bytes = readback_bytes(sup.run.match_events);
        let (lease, setup) = lease_batch_buffers(
            st.pools[d].as_ref(),
            &mut st.pool_charged[d],
            bytes as u64,
            Some(rb_bytes),
            clock_hz,
        )?;
        st.submit_copy(
            d,
            stream,
            StreamOpKind::CopyH2D,
            &label,
            bytes as u64,
            dispatch + setup,
        );
        st.engines[d].submit(
            stream,
            StreamOpKind::Kernel,
            &label,
            sup.run.seconds() + penalty,
            0,
        );
        // Scatter readbacks are not staged: the job is latency-bound on
        // its slowest segment, so the `d2h` goes straight onto the bus.
        st.submit_copy(d, stream, StreamOpKind::CopyD2H, &label, rb_bytes, 0.0);
        drop(lease);
        let done = st.engines[d].stream_ready(stream);
        st.breakers[d].record_success(done);
        st.per_dev_batches[d] += 1;
        done_max = done_max.max(done);
    }

    let matches = merge_shard_matches(&segments, &per_segment);
    let latency = done_max - job.arrival_seconds;
    if let Some(c) = st.slo.as_mut() {
        c.observe(latency);
    }
    let outcome = JobOutcome {
        id: job.id,
        matches,
        completed_seconds: done_max,
        latency_seconds: latency,
        batch_jobs: 1,
        stream: first_stream,
        served_by: ServedBy::Gpu,
    };
    if !segments.is_empty() {
        st.per_dev_jobs[segments[0].device as usize] += 1;
    }
    st.tag_device(None);
    if let Some(t) = st.tel.as_mut() {
        t.job_completed(&job, &outcome, dispatch, 0);
    }
    st.outcomes.push(outcome);
    st.scattered_jobs += 1;
    Ok(())
}

/// Ask the admission controller about an arrival; `Some` = turned away.
fn shed(slo: &mut Option<AdmissionController>, job: &ScanJob) -> Option<SheddedJob> {
    slo.as_mut()
        .and_then(|c| c.admit(job.id, job.priority, job.arrival_seconds))
}

fn tally(rep: &SuperviseReport, gpu_retries: &mut u64, faults_fired: &mut u64) {
    *gpu_retries += rep.retries as u64;
    *faults_fired += rep.faults.len() as u64;
}

/// Run one batch on the CPU ladder: matches from
/// [`integration::cpu_ladder_scan`] (parallel rung, serial-oracle floor),
/// wall time from the multicore model on a fixed core count. Outcomes are
/// recorded immediately — the CPU tier has no deferred readback. Returns
/// the completion time (the executor's next free instant).
#[allow(clippy::too_many_arguments)]
fn run_cpu_batch(
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
    record_outcomes(
        done,
        ServedBy::CpuLadder,
        0,
        batch,
        per_job,
        start,
        gpu_retries,
        outcomes,
        slo,
        tel,
    );
    done
}

/// A batch whose kernel has been issued but whose readback is held only
/// while its kernel is still running at the next dispatch (staged issue,
/// see module docs). Each device holds one slot per stream.
struct PendingReadback {
    stream: u32,
    label: String,
    /// Logical readback bytes (the `d2h` is priced and recorded at this
    /// size; the bus arbiter derives its own traffic from it).
    rb_bytes: u64,
    batch: Vec<ScanJob>,
    per_job: Vec<Vec<Match>>,
    /// When the batch was dispatched (host bookkeeping for the service
    /// span; never fed back into timing).
    dispatch_seconds: f64,
    /// Supervised retries the batch absorbed.
    retries: u64,
    /// The batch's pooled device buffers, held only to keep the blocks
    /// leased; dropping the readback returns them to the pool.
    _lease: Option<BatchLease>,
}

/// Take every held readback whose kernel has finished by `now`
/// (`stream_ready <= now`; `f64::INFINITY` takes them all, the drain),
/// ordered by kernel completion with ties broken by (device, stream).
/// `pendings[d][s]` is device `d`'s held readback for stream `s`, and
/// `engines[d]` the device's stream engine. This is the one place the
/// staged-issue rule lives: both loops, the scatter path and the drain
/// flush exactly what this returns, in this order.
fn take_ready_readbacks(
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
        ra.total_cmp(&rb)
    });
    ready
}

/// One GPU batch's pooled device buffers (corpus in, results out),
/// released back to the pool when the batch's readback flushes.
#[derive(Debug)]
struct BatchLease {
    _corpus: PooledBuffer,
    _result: Option<PooledBuffer>,
}

/// Lease a batch's device buffers from the pool (when armed) and convert
/// every driver cycle accumulated since the last lease — frees from
/// handles released in between, plus these acquires — into seconds of
/// upload setup delay. Pool hits charge nothing, which is the whole
/// steady-state argument the bench rows measure.
fn lease_batch_buffers(
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

/// Record the per-job outcomes of a batch completed at `done` by the
/// given tier (on the fleet-global stream for a GPU batch, 0 for the CPU
/// ladder).
#[allow(clippy::too_many_arguments)]
fn record_outcomes(
    done: f64,
    served_by: ServedBy,
    stream: u32,
    batch: Vec<ScanJob>,
    per_job: Vec<Vec<Match>>,
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
            served_by,
        };
        if let Some(t) = tel.as_mut() {
            t.job_completed(&job, &outcome, dispatch_seconds, retries);
        }
        outcomes.push(outcome);
    }
}

fn rate(amount: f64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        amount / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};
    use crate::{serve, ServedBy, DEFAULT_POOL_CAPACITY};
    use ac_gpu::KernelParams;
    use gpu_sim::GpuConfig;

    fn matcher() -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let ac = serve_automaton(DEFAULT_PATTERNS, 0);
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    }

    fn workload(jobs: u64) -> Vec<ScanJob> {
        synthetic_workload(&WorkloadConfig {
            jobs,
            arrival_rate_per_sec: 100_000,
            job_bytes: 2048,
            seed: 11,
            ..WorkloadConfig::defaults()
        })
    }

    #[test]
    fn shard_plan_covers_and_overlaps_exactly() {
        let segs = plan_shards(1000, 4, 7);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].owned_start, 0);
        assert_eq!(segs.last().unwrap().owned_end, 1000);
        for w in segs.windows(2) {
            assert_eq!(w[0].owned_end, w[1].owned_start);
            // Adjacent scan windows overlap by exactly the gap.
            assert_eq!(w[0].scan_end - w[1].scan_start, 7);
        }
        // Last segment's scan is clamped to the corpus.
        assert_eq!(segs.last().unwrap().scan_end, 1000);
    }

    #[test]
    fn shard_plan_drops_empty_tails() {
        // 3 bytes over 8 shards: only 3 single-byte owners.
        let segs = plan_shards(3, 8, 2);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.owned_end > s.owned_start));
        assert!(plan_shards(0, 4, 3).is_empty());
    }

    #[test]
    fn merged_shard_matches_equal_serial_scan() {
        let m = matcher();
        let ac = m.automaton();
        let data: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect();
        let overlap = ac.required_overlap();
        for shards in [1u32, 2, 3, 4, 7] {
            let segs = plan_shards(data.len(), shards, overlap);
            let per_seg: Vec<Vec<Match>> = segs
                .iter()
                .map(|s| ac.find_all(&data[s.scan_start..s.scan_end]))
                .collect();
            let merged = merge_shard_matches(&segs, &per_seg);
            let mut serial = ac.find_all(&data);
            serial.sort();
            assert_eq!(merged, serial, "shards={shards}");
        }
    }

    #[test]
    fn cost_model_fit_predict_observe() {
        // t(b) = 10us + b / 1e9.
        let m = CostModel::fit(1000, 10.0e-6 + 1.0e-6, 2000, 10.0e-6 + 2.0e-6);
        assert!((m.bytes_per_sec - 1.0e9).abs() / 1.0e9 < 1e-9);
        assert!((m.setup_seconds - 10.0e-6).abs() < 1e-12);
        assert!((m.predict(5000) - (10.0e-6 + 5.0e-6)).abs() < 1e-12);
        // Online refinement moves the setup term toward the implied one.
        let mut m2 = m;
        m2.observe(1000, 30.0e-6 + 1.0e-6, 0.5);
        assert!((m2.setup_seconds - 20.0e-6).abs() < 1e-12);
        // Degenerate probe: flat model, finite predictions.
        let flat = CostModel::fit(1000, 5.0e-6, 2000, 5.0e-6);
        assert!(flat.predict(1 << 20).is_finite());
    }

    #[test]
    fn pooled_fleet_merges_per_device_stats_and_stays_correct() {
        let m = matcher();
        let jobs = workload(64);
        let scfg =
            ServeConfig::new(1).with_pool(crate::ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
        let fleet = serve_fleet(&m, jobs.clone(), &FleetConfig::new(4, scfg).parity()).unwrap();
        assert_eq!(fleet.serve.report.jobs_completed, jobs.len() as u64);
        let pool = fleet.serve.report.pool.expect("merged pool stats");
        // Every GPU batch on every device leases corpus + result, and the
        // per-device drains would have panicked on any leak.
        assert_eq!(pool.acquires, 2 * fleet.serve.report.batches);
        assert_eq!(pool.releases, pool.acquires);
        assert_eq!(pool.hits + pool.misses, pool.acquires);
        assert!(pool.high_water_bytes > 0);
        for job in &jobs {
            let out = fleet
                .serve
                .outcomes
                .iter()
                .find(|o| o.id == job.id)
                .unwrap();
            let mut expect = m.automaton().find_all(&job.payload);
            expect.sort();
            let mut got = out.matches.clone();
            got.sort();
            assert_eq!(got, expect, "job {}", job.id);
        }
    }

    #[test]
    fn copy_ops_record_logical_bytes_and_the_bus_carries_the_staging() {
        // Pageable staging doubles a copy's traffic on the shared host bus,
        // but the stream op itself moves, and is priced on, the logical
        // bytes.
        let m = matcher();
        let dev =
            ServeConfig::new(1).with_pool(crate::ServePoolConfig::churn(DEFAULT_POOL_CAPACITY));
        let pcie = dev.effective_pcie();
        let fleet = serve_fleet(&m, workload(32), &FleetConfig::new(2, dev).parity()).unwrap();
        let copies: Vec<_> = fleet
            .timelines
            .iter()
            .flat_map(|t| &t.ops)
            .filter(|op| op.kind != StreamOpKind::Kernel)
            .collect();
        assert!(!copies.is_empty());
        for op in &copies {
            let priced = pcie.copy_seconds(op.bytes as usize);
            assert!(
                (op.seconds() - priced).abs() <= 1e-9 * priced,
                "{:?} {} records {} bytes but took {}s, not {priced}s",
                op.kind,
                op.label,
                op.bytes,
                op.seconds()
            );
        }
        let logical: u64 = copies.iter().map(|op| op.bytes).sum();
        assert_eq!(fleet.report.bus.bytes, 2 * logical);
    }

    #[test]
    fn non_finite_arrivals_are_a_typed_error() {
        let m = matcher();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut jobs = workload(4);
            jobs[2].arrival_seconds = bad;
            let results = [
                (
                    "serve",
                    serve(&m, jobs.clone(), &ServeConfig::new(1)).map(|_| ()),
                ),
                (
                    "routed",
                    serve_fleet(&m, jobs, &FleetConfig::new(2, ServeConfig::new(1))).map(|_| ()),
                ),
            ];
            for (name, result) in results {
                match result {
                    Err(GpuError::InvalidParams(msg)) => {
                        assert!(msg.contains("job 2"), "{name}: {msg}")
                    }
                    other => {
                        panic!("{name} with arrival {bad}: expected InvalidParams, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn parity_fleet_scales_throughput_and_stays_correct() {
        let m = matcher();
        let jobs = workload(64);
        let scfg = ServeConfig::new(1);
        let d1 = serve_fleet(&m, jobs.clone(), &FleetConfig::new(1, scfg).parity()).unwrap();
        let d4 = serve_fleet(&m, jobs.clone(), &FleetConfig::new(4, scfg).parity()).unwrap();
        assert_eq!(d4.serve.report.jobs_completed, jobs.len() as u64);
        assert!(
            d4.serve.report.makespan_seconds < d1.serve.report.makespan_seconds,
            "4 devices must beat 1: {} vs {}",
            d4.serve.report.makespan_seconds,
            d1.serve.report.makespan_seconds
        );
        // Work actually spread across devices.
        let active = d4
            .report
            .per_device
            .iter()
            .filter(|d| d.batches > 0)
            .count();
        assert!(active >= 2, "only {active} devices saw work");
        // Matches stay oracle-exact on every device.
        for job in &jobs {
            let out = d4.serve.outcomes.iter().find(|o| o.id == job.id).unwrap();
            let mut expect = m.automaton().find_all(&job.payload);
            expect.sort();
            let mut got = out.matches.clone();
            got.sort();
            assert_eq!(got, expect, "job {}", job.id);
        }
        // The shared bus saw every transfer.
        assert!(d4.report.bus.grants > 0);
        assert!(d4.report.bus.bytes >= d4.serve.report.payload_bytes);
    }

    #[test]
    fn routed_fleet_sends_small_jobs_to_cpu_and_large_to_gpu() {
        let m = matcher();
        // Tiny jobs (CPU-friendly: no PCIe/launch setup) interleaved
        // with large ones (GPU-friendly: bandwidth-bound).
        let mut jobs = Vec::new();
        for i in 0..12u64 {
            let (bytes, arrival) = if i % 2 == 0 {
                (64usize, i as f64 * 50.0e-6)
            } else {
                (256 * 1024, i as f64 * 50.0e-6)
            };
            jobs.push(ScanJob::new(i, vec![b't'; bytes], arrival));
        }
        let fleet = serve_fleet(&m, jobs, &FleetConfig::new(2, ServeConfig::new(1))).unwrap();
        assert_eq!(fleet.serve.report.jobs_completed, 12);
        let cpu_jobs = fleet
            .serve
            .outcomes
            .iter()
            .filter(|o| o.served_by == ServedBy::CpuLadder)
            .count();
        let gpu_jobs = fleet
            .serve
            .outcomes
            .iter()
            .filter(|o| o.served_by == ServedBy::Gpu)
            .count();
        assert!(cpu_jobs > 0, "router never used the CPU tier");
        assert!(gpu_jobs > 0, "router never used the GPU tier");
        // Routed CPU batches are not failover.
        assert_eq!(fleet.serve.report.cpu_fallback_batches, 0);
        assert_eq!(fleet.serve.report.breaker_opens, 0);
        // The routing table accounts for every queued job.
        let routed: u64 = fleet.report.routing.iter().map(|t| t.jobs).sum();
        assert_eq!(routed, 12);
        let cpu_row = fleet
            .report
            .routing
            .iter()
            .find(|t| t.tier == "cpu")
            .unwrap();
        assert!(cpu_row.jobs > 0);
        // Cost models were fitted and published.
        assert_eq!(fleet.report.cost_models.len(), 3);
        assert!(fleet
            .report
            .cost_models
            .iter()
            .all(|c| c.setup_seconds >= 0.0 && c.bytes_per_sec > 0.0));
    }

    #[test]
    fn scatter_path_shards_large_jobs_exactly() {
        let m = matcher();
        let payload: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(512 * 1024)
            .copied()
            .collect();
        let jobs = vec![
            ScanJob::new(0, payload.clone(), 0.0),
            ScanJob::new(1, vec![b't'; 64], 10.0e-6),
        ];
        let mut fcfg = FleetConfig::new(4, ServeConfig::new(1));
        fcfg.shard_bytes = Some(128 * 1024);
        let fleet = serve_fleet(&m, jobs, &fcfg).unwrap();
        assert_eq!(fleet.report.scattered_jobs, 1);
        assert_eq!(fleet.serve.report.jobs_completed, 2);
        let big = fleet.serve.outcomes.iter().find(|o| o.id == 0).unwrap();
        assert_eq!(big.served_by, ServedBy::Gpu);
        let mut expect = m.automaton().find_all(&payload);
        expect.sort();
        assert_eq!(big.matches, expect, "sharded matches must equal serial");
        // Every device launched a segment.
        assert!(fleet.report.per_device.iter().all(|d| d.batches > 0));
    }

    #[test]
    fn scattered_shards_run_in_parallel() {
        // Each device's readback is reserved on the bus at its kernel's
        // end before the next device's upload is acquired. The upload
        // must take the free bus ahead of it, so the segments overlap
        // instead of running one after another.
        let m = matcher();
        let payload: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(512 * 1024)
            .copied()
            .collect();
        let mut fcfg = FleetConfig::new(4, ServeConfig::new(1));
        fcfg.shard_bytes = Some(128 * 1024);
        let fleet = serve_fleet(&m, vec![ScanJob::new(0, payload, 0.0)], &fcfg).unwrap();
        assert_eq!(fleet.report.scattered_jobs, 1);
        let first = |t: &StreamTimeline, kind: StreamOpKind| {
            t.ops.iter().find(|op| op.kind == kind).unwrap().clone()
        };
        let first_d2h = fleet
            .timelines
            .iter()
            .map(|t| first(t, StreamOpKind::CopyD2H).start)
            .fold(f64::INFINITY, f64::min);
        for (d, t) in fleet.timelines.iter().enumerate() {
            let h2d = first(t, StreamOpKind::CopyH2D);
            assert!(
                h2d.start < first_d2h,
                "device {d}'s upload starts at {}s, behind a readback at {first_d2h}s",
                h2d.start
            );
        }
        assert_eq!(fleet.report.bus.backfilled, 3);
        // Uploads still share the bus, but the job takes well under two
        // segments' chains, where serialised shards would take four.
        let d0 = &fleet.timelines[0];
        let chain = d0.total_seconds() - d0.ops[0].start;
        let latency = fleet.serve.outcomes[0].latency_seconds;
        assert!(
            latency < 2.0 * chain,
            "latency {latency}s is not below two segment chains of {chain}s"
        );
    }

    #[test]
    fn pool_too_small_surfaces_a_fatal_device_error() {
        let m = matcher();
        // A pool smaller than one batch's corpus cannot satisfy a lease:
        // every fleet path must return the typed OOM `serve()` returns,
        // not panic.
        let dev = ServeConfig::new(1).with_pool(crate::ServePoolConfig::pooled(1024));
        let large = |n: u64| -> Vec<ScanJob> {
            (0..n)
                .map(|i| ScanJob::new(i, vec![b't'; 256 * 1024], i as f64 * 50.0e-6))
                .collect()
        };
        let mut sharded = FleetConfig::new(2, dev);
        sharded.shard_bytes = Some(64 * 1024);
        let cases = [
            ("parity d1", FleetConfig::new(1, dev).parity(), workload(8)),
            ("parity d2", FleetConfig::new(2, dev).parity(), workload(8)),
            ("routed", FleetConfig::new(2, dev), large(4)),
            ("routed scatter", sharded, large(1)),
        ];
        for (name, cfg, jobs) in cases {
            match serve_fleet(&m, jobs, &cfg) {
                Err(GpuError::Device(e)) => {
                    assert!(
                        e.to_string().contains("out of device memory"),
                        "{name}: {e}"
                    )
                }
                Err(other) => panic!("{name}: expected device OOM, got {other:?}"),
                Ok(_) => panic!("{name}: served through a 1 KiB pool"),
            }
        }
    }

    #[test]
    fn retry_hints_derive_from_aggregate_fleet_drain_rate() {
        use crate::telemetry::TelemetryConfig;

        let m = matcher();
        // Calibrate one job's service time, then arrive 4× faster than a
        // single device drains so the queue overflows for the whole run
        // on both fleet sizes.
        let probe = serve(
            &m,
            vec![ScanJob::new(0, vec![b't'; 32 * 1024], 0.0)],
            &ServeConfig::new(1).per_job(),
        )
        .unwrap();
        let t_service = probe.report.makespan_seconds;
        assert!(t_service > 0.0);
        let spacing = t_service / 4.0;
        let burst = |n: u64| -> Vec<ScanJob> {
            (0..n)
                .map(|id| ScanJob::new(id, vec![b't'; 32 * 1024], id as f64 * spacing))
                .collect()
        };
        let mut scfg = ServeConfig::new(1).per_job();
        scfg.queue_capacity = 2;
        scfg.telemetry = Some(TelemetryConfig {
            sample_interval_seconds: t_service / 2.0,
            ..TelemetryConfig::default()
        });

        let d1 = serve_fleet(&m, burst(40), &FleetConfig::new(1, scfg).parity()).unwrap();
        let d2 = serve_fleet(&m, burst(40), &FleetConfig::new(2, scfg).parity()).unwrap();
        let last_hint = |run: &FleetRun| {
            *run.serve
                .rejections
                .iter()
                .rev()
                .find(|r| r.retry_after_us > 0.0)
                .expect("overloaded run must emit hinted rejections")
        };
        let (h1, h2) = (last_hint(&d1), last_hint(&d2));
        // Twice the devices drain roughly twice as fast, so the same
        // capacity empties in roughly half the time: the aggregate-rate
        // hint must shrink materially, not stay per-device.
        assert!(
            h2.retry_after_us < 0.8 * h1.retry_after_us,
            "d2 hint {} not below d1 hint {}",
            h2.retry_after_us,
            h1.retry_after_us
        );

        // Pin the hint against the telemetry registry's sampled rate:
        // capacity / hint must agree with the cumulative completion rate
        // at the nearest sample (the loop derives both from the same
        // outcomes-over-time aggregate).
        let tel = d2.serve.telemetry.as_ref().expect("telemetry armed");
        let arrival = h2.job_id as f64 * spacing;
        let sample = tel
            .samples
            .iter()
            .filter(|s| s.t_seconds > 0.0 && s.completed > 0)
            .min_by(|a, b| {
                (a.t_seconds - arrival)
                    .abs()
                    .partial_cmp(&(b.t_seconds - arrival).abs())
                    .unwrap()
            })
            .expect("registry produced samples");
        let sampled_rate = sample.completed as f64 / sample.t_seconds;
        let implied_rate = h2.capacity as f64 / h2.retry_after_us * 1.0e6;
        assert!(
            implied_rate > 0.5 * sampled_rate && implied_rate < 2.0 * sampled_rate,
            "hint-implied rate {implied_rate} disagrees with sampled rate {sampled_rate}"
        );
    }

    #[test]
    fn fleet_report_round_trips_json() {
        let m = matcher();
        let fleet =
            serve_fleet(&m, workload(16), &FleetConfig::new(2, ServeConfig::new(1))).unwrap();
        let back = FleetReport::from_json(&fleet.report.to_json()).unwrap();
        assert_eq!(back, fleet.report);
    }
}
