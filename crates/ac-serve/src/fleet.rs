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
//! # Queue layouts and the turn rule
//!
//! The loop drains a set of admission queues, each with a server.
//! [`FleetConfig::routing`] picks the layout:
//!
//! * **Parity** (`routing: None`): one queue, served by every device.
//! * **Routed**: one queue per device, served by that device, plus one
//!   for the CPU ladder.
//!
//! Each turn, a non-empty queue's server is its member device whose next
//! stream frees earliest (lowest device on ties), and the queue can
//! dispatch at the later of that free time and its head's arrival. The
//! loop takes the queue with the earliest dispatch time, lowest queue on
//! ties. It admits every job that has arrived by then: parity queues it
//! on its one queue, routing on the tier with the earliest predicted
//! completion (see *Scaling out*). A full queue rejects it with
//! backpressure. It then coalesces the queue's head run up to the batch
//! limits into a batch, which leaves the queue at once. A GPU batch stays
//! open until the device's copy engine has drained the transfers queued
//! before its upload, the readbacks the turn itself releases included
//! (the upload could not start earlier), and jobs arriving until then
//! join it while the limits allow. On a one-stream server those are the
//! previous batch's readback. The pool's driver calls for a batch run from
//! the moment it opened, so they overlap the copy engine's queue. The
//! loop then dispatches the batch's `h2d → kernel → readback` chain on
//! the server's stream, where the readback is a `d2h` copy or, as the
//! launch's plan decides ([`crate::kernel_choice`]), the kernel's own
//! write-out into mapped pinned host memory. Batch size therefore adapts to backlog — an idle
//! server launches singleton batches immediately, a busy one amortises
//! launches over whatever queued up or arrived while the copy engine
//! was busy — which is the whole p99 argument for batching.
//!
//! Every one of these decisions reads the schedule without pool driver
//! setup (`Unpooled`, kept only when pools are armed), so arming a pool
//! never regroups jobs: its driver cycles only delay the realised
//! schedule.
//!
//! A mapped launch's frame is in host memory when its kernel op ends: the
//! op runs the kernel, then writes the frame at the link's bandwidth with
//! no transfer setup once the shared bus grants it, holding the compute
//! engine throughout, and it issues no `d2h`.
//!
//! Issue order matters on a single-DMA-engine device: the copy engine is
//! a FIFO, so enqueueing a batch's `d2h` right behind its kernel would
//! park the engine until that kernel finishes and block the *next*
//! batch's `h2d` (the classic GT200 false-serialisation). The loop
//! therefore issues staged: a batch's `d2h` is held only while its kernel
//! is still running at the next dispatch, and so is each segment `d2h`
//! of a scattered job, which completes when its last one lands. Before
//! every new upload,
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
//! the CPU ladder ([`cpu_ladder_scan`] — parallel CPU, then the serial
//! oracle) on a separate simulated CPU clock, and feeds the device's
//! [`CircuitBreaker`]. While the breaker is open, subsequent batches skip
//! the GPU and run on the CPU tier until a cooldown elapses and half-open
//! probes re-earn trust. The ladder is defined once, here: each job's
//! [`JobOutcome::served_by`] names the rung that answered it, and a
//! one-job run on a breaker that opens on its first failure is the
//! whole-scan GPU → parallel CPU → serial ladder (`acsim match
//! --resilient`).
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
//! Rejections carry a `retry_after_us` hint from the aggregate drain rate
//! the job saw on arrival: completions landed across every device by its
//! arrival, divided by that time (no hint before the first landing).
//!
//! # Scaling out
//!
//! Three mechanisms make a fleet more than N copies of one device:
//!
//! * **Sharded dispatch** ([`plan_shards`]) — in a routed fleet of two
//!   or more devices, a job whose payload is at least `shard_bytes` is
//!   split into overlap-padded segments, one per
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
//!   warmup probe of the first offered job's bytes run off the simulated
//!   clock and refined online from
//!   observed service times (EWMA on the setup term). Each GPU probe runs
//!   the kernel the serve call's priced choice picks for its length
//!   ([`crate::kernel_choice`]), and a GPU whose one-round floor lies
//!   between the two probes gets one such line on each side of it, each
//!   probed on its own side. Arrivals are routed
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
//!   the stream op records the logical bytes. A mapped write-out crosses
//!   the arbiter too, reserved with its kernel. With one device the
//!   arbiter never delays a copy behind another (its aggregate bandwidth
//!   covers the link and it charges no setup), but an upload can wait
//!   behind a write-out reserved earlier, or a write-out behind an
//!   upload, since the two run on different engines.
//!
//! Telemetry tags job, control and breaker events with a `device=` arg
//! only when the fleet has more than one device: a one-device trace is
//! the plain single-device trace. A GPU queue's turn carries its server's
//! device, even when that device's open breaker sends the batch to the
//! CPU ladder; a batch that cost routing sends to the CPU tier does not.

use crate::batch::{assemble_batch, demux_matches, AssembledBatch};
use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker, Route};
use crate::job::{JobExpiry, JobOutcome, ScanJob, ServedBy};
use crate::kernel_choice::{KernelChoice, LaunchPlan};
use crate::queue::{BoundedQueue, Overloaded};
use crate::report::{percentile, BatchBucket, PoolStatsReport, ServeReport};
use crate::sim::{ServeConfig, ServeRun};
use crate::slo::{AdmissionController, SheddedJob};
use crate::telemetry::ServeTelemetry;
use ac_core::{AcAutomaton, Match};
use ac_cpu::{par_find_all, ParallelConfig};
use ac_gpu::supervise::{SuperviseReport, Supervised};
use ac_gpu::{run_supervised, DevicePool, GpuAcMatcher, GpuError, PcieConfig, PooledBuffer};
use cpu_sim::simulate_multicore;
use gpu_sim::{
    BusConfig, BusStats, EngineKind, PcieBusArbiter, StreamEngine, StreamOpKind, StreamTimeline,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

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
    /// Calibrated cost routing; `None` = parity mode (one queue served by
    /// every device; at one device this is [`crate::serve`]).
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

/// Where a queue's batches run.
enum Server {
    /// Any device in the range: each turn goes to the one whose next
    /// stream frees earliest, lowest device on ties.
    Gpus(Range<usize>),
    /// The CPU ladder.
    Cpu,
}

/// One admission queue and the server that drains it.
struct Queue {
    jobs: BoundedQueue,
    server: Server,
}

/// Routed mode's per-tier state. Tiers are the GPUs in device order, then
/// the CPU ladder: the same indices as the routed queues.
struct Router {
    refine_alpha: f64,
    models: Vec<TierModel>,
    tiers: Vec<TierCounts>,
}

/// A tier's fitted cost. A GPU that runs staged PFAC for every launch
/// of up to one resident round of its grid (the floor,
/// [`GpuAcMatcher::pfac_limit`]) has a second line, `pfac`, for launches
/// up to that limit, when the floor lies between the two probes: a
/// launch that fits one round costs about one round whatever its length,
/// so the price bends there. Past the floor one line prices both sides
/// of the serve call's priced switch, where the two kernels' prices meet
/// ([`KernelChoice`]). Each line predicts and refines only the launches
/// in its range.
#[derive(Debug, Clone, Copy)]
struct TierModel {
    line: CostModel,
    pfac: Option<(usize, CostModel)>,
}

impl TierModel {
    fn single(line: CostModel) -> Self {
        TierModel { line, pfac: None }
    }

    /// The line that prices a `bytes`-long launch.
    fn line_for(&mut self, bytes: usize) -> &mut CostModel {
        match &mut self.pfac {
            Some((limit, pfac)) if bytes <= *limit => pfac,
            _ => &mut self.line,
        }
    }

    fn predict(mut self, bytes: usize) -> f64 {
        self.line_for(bytes).predict(bytes)
    }

    fn observe(&mut self, bytes: usize, seconds: f64, alpha: f64) {
        self.line_for(bytes).observe(bytes, seconds, alpha);
    }
}

/// The schedule a fleet with pools armed would run without their driver
/// setup. Every batching decision reads it — which stream serves a turn,
/// when a batch seals, which readbacks flush, what the breakers record —
/// so arming a pool never regroups jobs: it only delays the realised
/// schedule ([`FleetState::engines`]), where each op starts no earlier
/// than here.
struct Unpooled {
    engines: Vec<StreamEngine>,
    arbiter: PcieBusArbiter,
}

/// Mutable per-fleet state of the serve loop.
struct FleetState<'a> {
    /// The kernel every GPU launch runs, by its length.
    choice: KernelChoice<'a>,
    /// The link model every copy is priced with
    /// ([`ServeConfig::effective_pcie`]).
    pcie: PcieConfig,
    /// Each device's realised schedule, pool driver setup included.
    engines: Vec<StreamEngine>,
    /// With pools armed, the same ops issued without pool driver setup
    /// ([`Unpooled`]); `None` without pools, where the two schedules
    /// would be identical.
    unpooled: Option<Unpooled>,
    breakers: Vec<CircuitBreaker>,
    pendings: Vec<Vec<Option<PendingReadback>>>,
    /// One device-memory pool per device when the per-device config arms
    /// one (`None` entries otherwise — the legacy untracked path).
    pools: Vec<Option<DevicePool>>,
    /// Per-device cursor of pool driver cycles already converted into
    /// upload delay.
    pool_charged: Vec<u64>,
    /// The device clock pool driver cycles and kernel penalties convert
    /// through.
    clock_hz: f64,
    arbiter: PcieBusArbiter,
    /// The queue layout (see the module docs).
    queues: Vec<Queue>,
    /// Cost models and traffic rows; `None` in parity mode.
    router: Option<Router>,
    /// Jobs at least this large scatter across the fleet (routed fleets
    /// of two or more devices only).
    scatter_min: Option<usize>,
    outcomes: Vec<JobOutcome>,
    rejections: Vec<Overloaded>,
    expiries: Vec<JobExpiry>,
    slo: Option<AdmissionController>,
    tel: Option<ServeTelemetry>,
    cpu_free: f64,
    gpu_retries: u64,
    cpu_fallback_batches: u64,
    faults_fired: u64,
    batches: u64,
    payload_bytes: u64,
    readback_bytes: u64,
    histogram: BTreeMap<usize, u64>,
    per_dev_batches: Vec<u64>,
    per_dev_jobs: Vec<u64>,
    /// GPU batches and scatter segments per planned kernel label.
    kernel_launches: BTreeMap<String, u64>,
    /// GPU launches whose kernel wrote its frame into mapped host memory.
    mapped_readbacks: u64,
    /// GPU launches whose frame came back by a `d2h` copy.
    dma_readbacks: u64,
    scattered_jobs: u64,
    /// Scattered jobs with segment readbacks still held, by scatter
    /// number.
    scatters: BTreeMap<u64, HeldScatter>,
}

impl FleetState<'_> {
    /// The stream engines batching decisions read: the unpooled schedule
    /// when pools are armed, else the realised one.
    fn clocks(&self) -> &[StreamEngine] {
        self.unpooled.as_ref().map_or(&self.engines, |u| &u.engines)
    }

    /// Submit a `bytes`-long `h2d`/`d2h` through the shared bus: the
    /// transfer starts no earlier than `not_before` and than the bus
    /// grants it. In the realised schedule it also waits for `setup_end`,
    /// when the pool's driver setup for it ends (pass `not_before` when
    /// there is none). The arbiter is charged the bus traffic
    /// ([`PcieConfig::bus_bytes`]); the stream op records the logical
    /// bytes. With one device a copy never waits on the bus behind
    /// another (the arbiter's aggregate bandwidth covers the link and it
    /// charges no setup), only behind a mapped write-out.
    #[allow(clippy::too_many_arguments)]
    fn submit_copy(
        &mut self,
        device: usize,
        stream: u32,
        kind: StreamOpKind,
        label: &str,
        bytes: u64,
        not_before: f64,
        setup_end: f64,
    ) {
        let seconds = self.pcie.copy_seconds(bytes as usize);
        let bus_bytes = self.pcie.bus_bytes(bytes);
        let release = not_before.max(setup_end);
        let earliest = self.engines[device].earliest_start(stream, kind, release);
        let grant = self.arbiter.acquire(earliest, bus_bytes);
        self.engines[device].submit_at(stream, kind, label, seconds, bytes, grant);
        if let Some(u) = self.unpooled.as_mut() {
            let earliest = u.engines[device].earliest_start(stream, kind, not_before);
            let grant = u.arbiter.acquire(earliest, bus_bytes);
            u.engines[device].submit_at(stream, kind, label, seconds, bytes, grant);
        }
    }

    /// Issue a batch's or segment's kernel op on `device`'s `stream`,
    /// naming the kernel that ran, and count the launch and its readback
    /// path. A mapped launch's op also writes its `rb_bytes` frame into
    /// pinned host memory ([`submit_mapped_kernel`]).
    fn submit_kernel(
        &mut self,
        device: usize,
        stream: u32,
        label: &str,
        plan: LaunchPlan,
        seconds: f64,
        rb_bytes: u64,
    ) {
        let write = plan.mapped.then(|| MappedWrite {
            bytes: rb_bytes,
            seconds: readback_seconds(&self.pcie, plan, rb_bytes),
            bus_bytes: self.pcie.bus_bytes(rb_bytes),
        });
        let kernel = plan.kernel.label();
        let (engine, bus) = (&mut self.engines[device], &mut self.arbiter);
        submit_mapped_kernel(engine, bus, stream, label, kernel, seconds, write);
        if let Some(u) = self.unpooled.as_mut() {
            let (engine, bus) = (&mut u.engines[device], &mut u.arbiter);
            submit_mapped_kernel(engine, bus, stream, label, kernel, seconds, write);
        }
        *self.kernel_launches.entry(kernel.to_string()).or_insert(0) += 1;
        if plan.mapped {
            self.mapped_readbacks += 1;
        } else {
            self.dma_readbacks += 1;
        }
    }

    /// Charge a failed batch's retry penalty to `device`'s `stream`.
    fn submit_penalty(&mut self, device: usize, stream: u32, label: &str, seconds: f64) {
        self.engines[device].submit(stream, StreamOpKind::Kernel, label, seconds, 0);
        if let Some(u) = self.unpooled.as_mut() {
            u.engines[device].submit(stream, StreamOpKind::Kernel, label, seconds, 0);
        }
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

    /// Flush one held readback through the bus and record what it
    /// answers: a batch's outcomes under the fleet-global stream id, or
    /// a scattered job's once its last segment lands.
    fn flush_pending(&mut self, device: usize, streams_per_device: u32, p: PendingReadback) {
        self.tag_device(Some(device));
        let local = p.stream;
        // A mapped frame is already in host memory when its kernel ends.
        if !p.mapped {
            self.submit_copy(
                device,
                local,
                StreamOpKind::CopyD2H,
                &p.label,
                p.rb_bytes,
                0.0,
                0.0,
            );
        }
        let done = self.engines[device].stream_ready(local);
        match p.lands {
            Landing::Batch {
                batch,
                per_job,
                dispatch_seconds,
                retries,
            } => {
                self.per_dev_jobs[device] += batch.len() as u64;
                record_outcomes(
                    done,
                    ServedBy::Gpu,
                    device as u32 * streams_per_device + local,
                    batch,
                    per_job,
                    dispatch_seconds,
                    retries,
                    &mut self.outcomes,
                    &mut self.slo,
                    &mut self.tel,
                );
            }
            Landing::Shard(key) => self.land_shard(key, done),
        }
    }

    /// One segment readback of held scattered job `key` ended at `done`;
    /// the last one completes the job at the slowest segment's end.
    fn land_shard(&mut self, key: u64, done: f64) {
        let held = self
            .scatters
            .get_mut(&key)
            .expect("a shard readback belongs to a held scatter");
        held.done = held.done.max(done);
        held.outstanding -= 1;
        if held.outstanding > 0 {
            return;
        }
        let held = self.scatters.remove(&key).expect("present above");
        self.per_dev_jobs[held.first_device] += 1;
        self.tag_device(None);
        record_outcomes(
            held.done,
            ServedBy::Gpu,
            held.first_stream,
            vec![held.job],
            vec![held.matches],
            held.dispatch_seconds,
            0,
            &mut self.outcomes,
            &mut self.slo,
            &mut self.tel,
        );
    }

    /// Flush every held readback, on any device, whose kernel has
    /// finished by `now` ([`take_ready_readbacks`]; `f64::INFINITY` is
    /// the drain).
    fn flush_ready(&mut self, now: f64, streams_per_device: u32) {
        let clocks = self.unpooled.as_ref().map_or(&self.engines, |u| &u.engines);
        for (d, p) in take_ready_readbacks(clocks, &mut self.pendings, now) {
            self.flush_pending(d, streams_per_device, p);
        }
    }

    /// Queue `q`'s server for its next turn and when it frees: the member
    /// device (with its next free stream) that frees earliest, lowest
    /// device on ties, or `None` for the CPU ladder.
    fn server(&self, q: usize) -> (Option<(usize, u32)>, f64) {
        match &self.queues[q].server {
            Server::Cpu => (None, self.cpu_free),
            Server::Gpus(devices) => devices
                .clone()
                .map(|d| {
                    let (stream, free) = self.clocks()[d].next_free_stream();
                    (Some((d, stream)), free)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("a GPU queue has at least one device"),
        }
    }

    /// Admit one arrival: shed it under SLO pressure, queue it,
    /// or bounce it off a full queue with a retry hint from the aggregate
    /// fleet drain rate at its arrival (none before the first landing). Parity queues everything on queue 0. Routed
    /// stages scatter-eligible jobs on queue 0 and sends the rest to the
    /// tier predicting the earliest completion given its backlog.
    fn admit(&mut self, job: ScanJob) {
        let bytes = job.payload.len();
        let q = match &self.router {
            Some(r) if self.scatter_min.is_none_or(|m| bytes < m) => {
                (0..self.queues.len())
                    .map(|t| {
                        let backlog = self.queues[t].jobs.queued_bytes() + bytes;
                        let free = self.server(t).1.max(job.arrival_seconds);
                        (t, free + r.models[t].predict(backlog))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("at least one tier")
                    .0
            }
            _ => 0,
        };
        if let Some(s) = shed(&mut self.slo, &job) {
            if let Some(r) = self.router.as_mut() {
                r.tiers[q].shed += 1;
            }
            if let Some(t) = self.tel.as_mut() {
                t.job_shed(&s);
            }
            return;
        }
        let (priority, arrival) = (job.priority, job.arrival_seconds);
        match self.queues[q].jobs.push(job) {
            Ok(()) => {
                if let Some(r) = self.router.as_mut() {
                    r.tiers[q].jobs += 1;
                    r.tiers[q].bytes += bytes as u64;
                }
            }
            Err(mut e) => {
                // The drain rate the job saw on arrival: completions
                // landed by then (an outcome is recorded when its
                // readback is issued, so later landings are excluded).
                let landed = self
                    .outcomes
                    .iter()
                    .filter(|o| o.completed_seconds <= arrival)
                    .count();
                if landed > 0 {
                    e.retry_after_us = e.capacity as f64 * arrival / landed as f64 * 1.0e6;
                }
                if let Some(t) = self.tel.as_mut() {
                    t.job_rejected(&e, priority, arrival);
                }
                self.rejections.push(e);
            }
        }
    }

    /// Expire every queue's overdue jobs at `now` with a typed
    /// [`JobExpiry`]. Returns whether any expired.
    fn expire_overdue(&mut self, now: f64) -> bool {
        let mut any = false;
        for (q, queue) in self.queues.iter_mut().enumerate() {
            let newly = queue.jobs.expire_overdue(now);
            if newly.is_empty() {
                continue;
            }
            any = true;
            if let Some(r) = self.router.as_mut() {
                r.tiers[q].expired += newly.len() as u64;
            }
            if let Some(t) = self.tel.as_mut() {
                for e in &newly {
                    t.job_expired(e);
                }
            }
            self.expiries.extend(newly);
        }
        any
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
    let sample = jobs
        .iter()
        .map(|j| j.payload.as_slice())
        .find(|p| !p.is_empty())
        .unwrap_or(b"a");
    let choice = KernelChoice::new(matcher, dcfg, sample);
    let router = cfg.routing.map(|r| Router {
        refine_alpha: r.refine_alpha,
        models: fit_tier_models(matcher, dcfg, &r, devices, sample, &choice),
        tiers: (0..=devices)
            .map(|t| TierCounts {
                tier: if t == devices {
                    "cpu".to_string()
                } else {
                    format!("gpu{t}")
                },
                jobs: 0,
                bytes: 0,
                shed: 0,
                expired: 0,
            })
            .collect(),
    });
    let replicas: Vec<GpuAcMatcher> = (1..devices).map(|_| matcher.replicate()).collect();
    let matcher_for = |d: usize| -> &GpuAcMatcher {
        if d == 0 {
            matcher
        } else {
            &replicas[d - 1]
        }
    };

    // The queue layout (module docs): parity's one queue served by every
    // device, or one queue per device plus the CPU ladder's.
    let layout = match cfg.routing {
        None => vec![Server::Gpus(0..devices)],
        Some(_) => (0..devices)
            .map(|d| Server::Gpus(d..d + 1))
            .chain([Server::Cpu])
            .collect(),
    };
    let mut st = FleetState {
        choice,
        pcie,
        engines: (0..devices)
            .map(|_| StreamEngine::new(dcfg.streams))
            .collect(),
        unpooled: dcfg.pool.map(|_| Unpooled {
            engines: (0..devices)
                .map(|_| StreamEngine::new(dcfg.streams))
                .collect(),
            arbiter: PcieBusArbiter::new(cfg.bus),
        }),
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
        clock_hz,
        arbiter: PcieBusArbiter::new(cfg.bus),
        queues: layout
            .into_iter()
            .map(|server| Queue {
                jobs: BoundedQueue::new(dcfg.queue_capacity),
                server,
            })
            .collect(),
        router,
        scatter_min: match (cfg.routing, cfg.shard_bytes) {
            (Some(_), Some(b)) if devices > 1 => Some(b.max(1)),
            _ => None,
        },
        outcomes: Vec::with_capacity(jobs.len()),
        rejections: Vec::new(),
        expiries: Vec::new(),
        slo: dcfg.slo.map(|s| AdmissionController::new(s, base_max_jobs)),
        tel: dcfg.telemetry.map(|t| ServeTelemetry::new(t, clock_hz)),
        cpu_free: 0.0,
        gpu_retries: 0,
        cpu_fallback_batches: 0,
        faults_fired: 0,
        batches: 0,
        payload_bytes: 0,
        readback_bytes: 0,
        histogram: BTreeMap::new(),
        per_dev_batches: vec![0; devices],
        per_dev_jobs: vec![0; devices],
        kernel_launches: BTreeMap::new(),
        mapped_readbacks: 0,
        dma_readbacks: 0,
        scattered_jobs: 0,
        scatters: BTreeMap::new(),
    };

    run_queues(&mut st, &jobs, dcfg, gap, &matcher_for)?;
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
        t.close(makespan, 0, batch_window, worst_state);
        let per_device: Vec<(&[BreakerTransition], &StreamTimeline)> = st
            .breakers
            .iter()
            .map(|b| b.transitions())
            .zip(&timelines)
            .collect();
        let mut run = t.finish(&per_device);
        let replay = st.choice.plan(run.payload_sample.len(), false).kernel;
        run.attribute_pattern_costs(matcher, replay, makespan);
        if let Some(ps) = pool_report {
            run.record_pool_stats(&ps, makespan);
        }
        run
    });
    let (routing, cost_models) = match st.router.take() {
        Some(r) => {
            let snapshots = r
                .tiers
                .iter()
                .zip(&r.models)
                .map(|(t, m)| CostModelSnapshot {
                    tier: t.tier.clone(),
                    setup_seconds: m.line.setup_seconds,
                    bytes_per_sec: m.line.bytes_per_sec,
                })
                .collect();
            (r.tiers, snapshots)
        }
        None => (Vec::new(), Vec::new()),
    };
    let (rejections, expiries) = (st.rejections, st.expiries);
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
        readback_bytes: st.readback_bytes,
        copy_utilisation: merged.utilisation(EngineKind::Copy),
        compute_utilisation: merged.utilisation(EngineKind::Compute),
        batch_histogram: std::mem::take(&mut st.histogram)
            .into_iter()
            .map(|(jobs, count)| BatchBucket { jobs, count })
            .collect(),
        pool: pool_report,
        kernel_launches: std::mem::take(&mut st.kernel_launches),
        pfac_limit_bytes: st.choice.priced().map(|l| l as u64),
        mapped_readbacks: st.mapped_readbacks,
        dma_readbacks: st.dma_readbacks,
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
/// from the same fit; online refinement then specialises them). Each GPU
/// probe runs the kernel the serve call's `choice` picks for its length,
/// and a GPU whose floor lies between the probes gets one line on each
/// side of it ([`TierModel`]), probed at the floor's neighbours too.
/// Probes scan `sample` (the first offered job's payload) cycled to
/// the probe size, so the fit prices the readback of the workload's real
/// match density, not that of a text that matches nothing.
fn fit_tier_models(
    matcher: &GpuAcMatcher,
    dcfg: &ServeConfig,
    router: &RouterConfig,
    devices: usize,
    sample: &[u8],
    choice: &KernelChoice,
) -> Vec<TierModel> {
    let small = router.probe_small_bytes.max(1);
    let large = router.probe_large_bytes.max(small + 1);
    let pcie = dcfg.effective_pcie();
    let probe_payload =
        |bytes: usize| -> Vec<u8> { sample.iter().copied().cycle().take(bytes).collect() };
    let gpu_probe = |bytes: usize| -> Option<f64> {
        let payload = probe_payload(bytes);
        let plan = choice.plan(bytes, false);
        let sup = run_supervised(matcher, &payload, plan.kernel, &dcfg.supervise).ok()?;
        let h2d = pcie.copy_seconds(bytes);
        let readback = readback_seconds(&pcie, plan, sup.run.readback_bytes);
        Some(h2d + sup.run.seconds() + readback)
    };
    let gpu_line = |b1: usize, b2: usize| match (gpu_probe(b1), gpu_probe(b2)) {
        (Some(t1), Some(t2)) => CostModel::fit(b1, t1, b2, t2),
        // A faulting probe leaves a pessimistic default; online
        // refinement repairs it from real service times.
        _ => CostModel {
            setup_seconds: 100.0e-6,
            bytes_per_sec: 1.0e9,
        },
    };
    // When the floor lies between the probes, fit each side of it from
    // its own probes: the probes and the floor's two neighbours.
    let gpu_model = match matcher.pfac_limit(dcfg.approach) {
        Some(limit) if small < limit && limit < large => TierModel {
            line: gpu_line(limit + 1, large),
            pfac: Some((limit, gpu_line(small, limit))),
        },
        _ => TierModel::single(gpu_line(small, large)),
    };
    let ac = matcher.automaton();
    let cpu_probe = |bytes: usize| -> f64 {
        let payload = probe_payload(bytes);
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
    models.push(TierModel::single(cpu_model));
    models
}

/// The serve loop (see the module docs): each turn takes the queue whose
/// head can dispatch earliest, admits every arrival up to that instant,
/// expires overdue jobs, then scatters the head job or coalesces the head
/// run into one batch on the server's GPU or the CPU ladder.
fn run_queues<'a>(
    st: &mut FleetState,
    jobs: &[ScanJob],
    dcfg: &ServeConfig,
    gap: usize,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) -> Result<(), GpuError> {
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let streams_per_device = dcfg.streams.max(1);
    let mut next = 0usize;

    loop {
        // The turn rule: earliest dispatch time, lowest queue on ties.
        let turn = (0..st.queues.len())
            .filter_map(|q| {
                let head = st.queues[q].jobs.head_arrival()?;
                let (server, free) = st.server(q);
                Some((q, server, head, free.max(head)))
            })
            .min_by(|a, b| a.3.total_cmp(&b.3));
        let Some((q, server, head, mut dispatch)) = turn else {
            // Every queue is empty: admit the next arrival, or finish.
            let Some(job) = jobs.get(next) else { break };
            next += 1;
            st.admit(job.clone());
            continue;
        };

        // A GPU server consults its breaker. An open breaker fails the
        // batch over to the shared CPU executor, which also runs every
        // batch of the CPU queue.
        let gpu = server.filter(|&(dev, _)| st.breakers[dev].route_at(dispatch) == Route::Gpu);
        match gpu {
            Some((dev, stream)) => {
                // Before the new upload, flush every device's finished
                // readbacks (the reused stream's included) through the bus.
                st.flush_ready(dispatch, streams_per_device);
                debug_assert!(st.pendings[dev][stream as usize].is_none());
            }
            None => dispatch = st.cpu_free.max(head),
        }
        // A GPU batch stays open until the device's copy engine has
        // drained the transfers queued before its upload, the readbacks
        // just released included.
        let seal_at =
            gpu.map(|(dev, _)| dispatch.max(st.clocks()[dev].engine_free(EngineKind::Copy)));

        // Everything that arrived while the server was busy is admitted
        // now.
        while let Some(job) = jobs.get(next).filter(|j| j.arrival_seconds <= dispatch) {
            next += 1;
            st.admit(job.clone());
        }
        // Overdue jobs get a typed expiry instead of a batch slot. Any
        // expiry may have changed a head, so re-plan from the top.
        if st.expire_overdue(dispatch) {
            continue;
        }

        // Under SLO pressure the controller widens the batch window
        // beyond the configured base.
        let max_jobs_now = st
            .slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        // A GPU queue's turn is tagged with its server, whose breaker
        // decided the route (failover included). A CPU-queue turn is
        // untagged and ticks the fleet's worst breaker state.
        let device = server.map(|(d, _)| d);
        let breaker = match device {
            Some(d) => st.breakers[d].state(),
            None => st.worst_breaker_state(),
        };
        st.tag_device(device);
        let queued: usize = st.queues.iter().map(|q| q.jobs.len()).sum();
        if let Some(t) = st.tel.as_mut() {
            t.tick(dispatch, queued, max_jobs_now, breaker);
        }

        let scatter_min = st.scatter_min;
        let queue = &mut st.queues[q].jobs;
        // Oversized head on a GPU route: scatter it across the fleet.
        if gpu.is_some()
            && scatter_min.is_some_and(|m| queue.head_payload_len().is_some_and(|l| l >= m))
        {
            let job = queue.pop().expect("head exists");
            scatter_job(
                st,
                job,
                dispatch,
                gap,
                dcfg,
                streams_per_device,
                matcher_for,
            )?;
            continue;
        }

        // Coalesce the head run into one launch; a scatter-eligible job
        // ends the run.
        let mut batch = vec![queue.pop().expect("queue is non-empty")];
        let mut batch_bytes = batch[0].payload.len();
        while batch.len() < max_jobs_now {
            match queue.head_payload_len() {
                Some(len)
                    if batch_bytes + len <= dcfg.limits.max_bytes
                        && scatter_min.is_none_or(|m| len < m) =>
                {
                    batch_bytes += len;
                    batch.push(queue.pop().expect("head exists"));
                }
                _ => break,
            }
        }
        // Arrivals until the seal join the open batch while the limits
        // allow and the queue holds nothing ahead of them. A batch whose
        // upload waits behind the copy engine takes them past the job cap
        // until its bytes outweigh the setup of its two transfers: they
        // could not upload sooner in a batch of their own, and a batch
        // that small spends most of its copy time on setup. Per-job
        // launches (a cap of one job) never batch.
        let sealed = seal_at.unwrap_or(dispatch);
        let setup_bytes = 2.0 * st.pcie.latency_sec * st.pcie.bandwidth_bytes_per_sec;
        let past_cap = max_jobs_now > 1 && sealed > dispatch;
        while (batch.len() < max_jobs_now || past_cap && (batch_bytes as f64) < setup_bytes)
            && st.queues[q].jobs.is_empty()
        {
            let Some(job) = jobs.get(next).filter(|j| j.arrival_seconds <= sealed) else {
                break;
            };
            next += 1;
            st.admit(job.clone());
            let queue = &mut st.queues[q].jobs;
            match queue.head_payload_len() {
                Some(len)
                    if batch_bytes + len <= dcfg.limits.max_bytes
                        && scatter_min.is_none_or(|m| len < m) =>
                {
                    batch_bytes += len;
                    batch.push(queue.pop().expect("head exists"));
                }
                _ => {}
            }
        }
        let assembled = assemble_batch(&batch, gap);
        let label = format!("batch{}", st.batches);
        st.batches += 1;
        st.payload_bytes += batch_bytes as u64;
        *st.histogram.entry(batch.len()).or_insert(0) += 1;
        if let Some(t) = st.tel.as_mut() {
            let route_label = if gpu.is_some() { "gpu" } else { "cpu" };
            t.batch_formed(&label, &batch, sealed, route_label);
        }

        match gpu {
            Some((dev, stream)) => {
                dispatch_gpu_batch(
                    st,
                    dev,
                    stream,
                    matcher_for(dev),
                    dcfg,
                    assembled,
                    batch,
                    label,
                    dispatch,
                    sealed,
                )?;
            }
            None => {
                let done = run_cpu_batch(
                    matcher_for(0),
                    dcfg,
                    &assembled,
                    batch,
                    dispatch,
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    0,
                );
                if let Some(r) = st.router.as_mut() {
                    let cpu = r.models.len() - 1;
                    r.models[cpu].observe(assembled.data.len(), done - dispatch, r.refine_alpha);
                }
                st.cpu_free = done;
                if device.is_some() {
                    // Breaker-open failover, not a routed CPU batch.
                    st.cpu_fallback_batches += 1;
                }
            }
        }
    }
    Ok(())
}

/// Dispatch one assembled batch on `dev`'s GPU under supervision, through
/// the kernel the serve call picks for its length ([`KernelChoice`]):
/// charge the `h2d` through the bus, charge the kernel (plus retry
/// penalty), stage the readback, or fail over to the shared CPU
/// executor. The batch opened at `opened` and was
/// sealed at `sealed`; its pool driver setup runs from `opened`, so the
/// upload is released at the later of `sealed` and the setup's end. In
/// routed mode the device's cost model observes the realised service
/// time. A device pool too small for the batch is a fatal
/// [`GpuError::Device`].
#[allow(clippy::too_many_arguments)]
fn dispatch_gpu_batch(
    st: &mut FleetState,
    dev: usize,
    stream: u32,
    matcher: &GpuAcMatcher,
    dcfg: &ServeConfig,
    assembled: AssembledBatch,
    batch: Vec<ScanJob>,
    label: String,
    opened: f64,
    sealed: f64,
) -> Result<(), GpuError> {
    st.per_dev_batches[dev] += 1;
    let corpus_bytes = assembled.data.len() as u64;
    let clock_hz = st.clock_hz;
    let plan = st
        .choice
        .plan(assembled.data.len(), idle(&st.clocks()[dev], sealed));
    match run_supervised(matcher, &assembled.data, plan.kernel, &dcfg.supervise) {
        Ok(sup) => {
            tally(&sup.report, &mut st.gpu_retries, &mut st.faults_fired);
            let per_job = demux_matches(&sup.run.matches, &assembled.spans);
            let landing = Landing::Batch {
                batch,
                per_job,
                dispatch_seconds: sealed,
                retries: sup.report.retries as u64,
            };
            launch(
                st,
                dev,
                stream,
                corpus_bytes,
                plan,
                &sup,
                dcfg,
                label,
                opened,
                sealed,
                landing,
            )?;
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
                sealed,
                opened + setup,
            );
            drop(lease);
            if penalty > 0.0 {
                st.submit_penalty(dev, stream, &format!("{label}-failed"), penalty);
            }
            let failed_at = st.clocks()[dev].stream_ready(stream);
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

/// The success leg of every GPU launch, a batch's or a scatter
/// segment's: lease the launch's pool buffers (their driver setup runs
/// from `opened`), upload its `bytes` released at `release`, run its
/// kernel plus the supervisor's retry penalty, record breaker success at
/// kernel end, and hold its readback under the staged-issue rule until
/// it lands as `landing`. A batch also refines its device's cost model
/// with the launch's service time; a scatter segment does not.
#[allow(clippy::too_many_arguments)]
fn launch(
    st: &mut FleetState,
    dev: usize,
    stream: u32,
    bytes: u64,
    plan: LaunchPlan,
    sup: &Supervised,
    dcfg: &ServeConfig,
    label: String,
    opened: f64,
    release: f64,
    landing: Landing,
) -> Result<(), GpuError> {
    let penalty = sup.report.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / st.clock_hz;
    let rb_bytes = sup.run.readback_bytes;
    st.readback_bytes += rb_bytes;
    let (lease, setup) = lease_batch_buffers(
        st.pools[dev].as_ref(),
        &mut st.pool_charged[dev],
        bytes,
        Some(rb_bytes),
        st.clock_hz,
    )?;
    st.submit_copy(
        dev,
        stream,
        StreamOpKind::CopyH2D,
        &label,
        bytes,
        release,
        opened + setup,
    );
    // Retry penalty (backoff + watchdog-burned budgets) is charged to the
    // stream: faults cost real time.
    let seconds = sup.run.seconds() + penalty;
    st.submit_kernel(dev, stream, &label, plan, seconds, rb_bytes);
    let kernel_end = st.clocks()[dev].stream_ready(stream);
    st.breakers[dev].record_success(kernel_end);
    if let (Some(r), Landing::Batch { .. }) = (st.router.as_mut(), &landing) {
        let h2d = st.pcie.copy_seconds(bytes as usize);
        let readback = readback_seconds(&st.pcie, plan, rb_bytes);
        r.models[dev].observe(bytes as usize, h2d + seconds + readback, r.refine_alpha);
    }
    // Held while the kernel runs: a `d2h` issued now would park the next
    // upload behind it on the FIFO copy engine. A mapped frame lands at
    // the flush too, at its kernel op's end.
    st.pendings[dev][stream as usize] = Some(PendingReadback {
        stream,
        label,
        rb_bytes,
        mapped: plan.mapped,
        lands: landing,
        _lease: lease,
    });
    Ok(())
}

/// Serve one oversized job by sharding it across every device: each
/// segment's `h2d`/kernel/readback chain runs on its device's next free
/// stream, and the job completes when the slowest segment does. Each
/// segment's `d2h` is held under the staged-issue rule, exactly like a
/// batch's, so the next job's uploads are not parked behind it on a
/// FIFO copy engine; the bus grants in time order, so the segments run
/// in parallel. Any segment failure fails the whole job
/// over to the CPU ladder — shard results are all-or-nothing. A device
/// pool too small for a shard is a fatal [`GpuError::Device`].
#[allow(clippy::too_many_arguments)]
fn scatter_job<'a>(
    st: &mut FleetState,
    job: ScanJob,
    dispatch: f64,
    gap: usize,
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
        let matcher = matcher_for(seg.device as usize);
        let alone = idle(&st.clocks()[seg.device as usize], dispatch);
        let plan = st.choice.plan(window.len(), alone);
        match run_supervised(matcher, window, plan.kernel, &dcfg.supervise) {
            Ok(sup) => {
                tally(&sup.report, &mut st.gpu_retries, &mut st.faults_fired);
                runs.push((plan, sup));
            }
            Err((err, rep)) => {
                tally(&rep, &mut st.gpu_retries, &mut st.faults_fired);
                let d = seg.device as usize;
                let failed_at = st.clocks()[d].next_free_stream().1.max(dispatch);
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

    // The job is at least `scatter_min` (≥ 1) bytes long, so it has a
    // segment; it completes when the last segment's readback lands.
    let first = segments[0].device as usize;
    let per_segment: Vec<Vec<Match>> = runs
        .iter()
        .map(|(_, sup)| sup.run.matches.clone())
        .collect();
    let key = st.batches - 1;
    st.scatters.insert(
        key,
        HeldScatter {
            matches: merge_shard_matches(&segments, &per_segment),
            first_device: first,
            first_stream: first as u32 * streams_per_device
                + st.clocks()[first].next_free_stream().0,
            dispatch_seconds: dispatch,
            outstanding: segments.len(),
            done: dispatch,
            job,
        },
    );
    for (seg, (plan, sup)) in segments.iter().zip(&runs) {
        let d = seg.device as usize;
        let (stream, _) = st.clocks()[d].next_free_stream();
        if let Some(p) = st.pendings[d][stream as usize].take() {
            st.flush_pending(d, streams_per_device, p);
        }
        st.tag_device(Some(d));
        let label = format!("{label_base}-d{d}");
        let bytes = (seg.scan_end - seg.scan_start) as u64;
        launch(
            st,
            d,
            stream,
            bytes,
            *plan,
            sup,
            dcfg,
            label,
            dispatch,
            dispatch,
            Landing::Shard(key),
        )?;
        st.per_dev_batches[d] += 1;
    }

    st.tag_device(None);
    st.scattered_jobs += 1;
    Ok(())
}

/// A mapped launch's write-out: its frame bytes, the seconds they take at
/// the link's bandwidth, and the traffic the shared bus carries.
#[derive(Debug, Clone, Copy)]
struct MappedWrite {
    bytes: u64,
    seconds: f64,
    bus_bytes: u64,
}

/// Issue a kernel op on `engine` that runs `seconds` and then, for a
/// mapped launch, writes its frame into pinned host memory: after the
/// kernel's last cycle, once `bus` grants the write, at the link's
/// bandwidth with no transfer setup. The op holds the compute engine
/// until the write ends and records its bytes
/// ([`gpu_sim::ScheduledOp::mapped_bytes`]).
fn submit_mapped_kernel(
    engine: &mut StreamEngine,
    bus: &mut PcieBusArbiter,
    stream: u32,
    label: &str,
    kernel: &str,
    seconds: f64,
    write: Option<MappedWrite>,
) {
    let Some(w) = write else {
        engine.submit_kernel(stream, label, kernel, seconds, 0);
        return;
    };
    let start = engine.earliest_start(stream, StreamOpKind::Kernel, 0.0);
    let granted = bus.acquire(start + seconds, w.bus_bytes);
    let held = granted - start + w.seconds;
    engine.submit_kernel(stream, label, kernel, held, w.bytes);
}

/// Whether `engine`'s device has nothing in flight at `at`: both engines
/// have drained, so a launch released then runs alone.
fn idle(engine: &StreamEngine, at: f64) -> bool {
    engine.engine_free(EngineKind::Copy) <= at && engine.engine_free(EngineKind::Compute) <= at
}

/// What a launch's readback adds to its service time: the `d2h` copy,
/// or the kernel's mapped write-out.
fn readback_seconds(pcie: &PcieConfig, plan: LaunchPlan, rb_bytes: u64) -> f64 {
    match plan.mapped {
        true => pcie.mapped_seconds(rb_bytes as usize).unwrap_or(0.0),
        false => pcie.copy_seconds(rb_bytes as usize),
    }
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

/// The CPU half of the degradation ladder: the parallel matcher first,
/// the serial oracle as the floor it falls to when the parallel rung
/// fails. Infallible. The matches come back sorted, bit-identical to the
/// serial oracle's, with the rung that answered
/// ([`ServedBy::CpuParallel`] or [`ServedBy::CpuSerial`]).
pub fn cpu_ladder_scan(
    ac: &AcAutomaton,
    text: &[u8],
    parallel: &ParallelConfig,
) -> (Vec<Match>, ServedBy) {
    match par_find_all(ac, text, parallel) {
        Ok(matches) => (matches, ServedBy::CpuParallel),
        Err(_) => {
            let mut matches = ac.find_all(text);
            matches.sort();
            (matches, ServedBy::CpuSerial)
        }
    }
}

/// Run one batch on the CPU ladder: matches and the answering rung from
/// [`cpu_ladder_scan`], wall time from the multicore model on a fixed
/// core count. Outcomes are recorded immediately — the CPU tier has no
/// deferred readback. Returns the completion time (the executor's next
/// free instant).
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
    let (matches, served_by) = cpu_ladder_scan(ac, &assembled.data, &cfg.parallel);
    let per_job = demux_matches(&matches, &assembled.spans);
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
        served_by,
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

/// A batch or shard whose kernel has been issued but whose readback is
/// held only while its kernel is still running at the next dispatch
/// (staged issue, see module docs). Each device holds one slot per
/// stream.
struct PendingReadback {
    stream: u32,
    label: String,
    /// Logical readback bytes (the `d2h` is priced and recorded at this
    /// size; the bus arbiter derives its own traffic from it).
    rb_bytes: u64,
    /// The kernel wrote the frame into mapped host memory: it lands at
    /// the kernel's end, with no `d2h`.
    mapped: bool,
    /// What the readback answers when it lands.
    lands: Landing,
    /// The pooled device buffers, held only to keep the blocks leased;
    /// dropping the readback returns them to the pool.
    _lease: Option<BatchLease>,
}

/// What a held readback answers when its `d2h` ends.
enum Landing {
    /// A batch: every job's outcome is recorded at the `d2h`'s end.
    Batch {
        batch: Vec<ScanJob>,
        per_job: Vec<Vec<Match>>,
        /// When the batch was dispatched (host bookkeeping for the
        /// service span; never fed back into timing).
        dispatch_seconds: f64,
        /// Supervised retries the batch absorbed.
        retries: u64,
    },
    /// One segment of the scattered job held under this key in
    /// `FleetState::scatters`.
    Shard(u64),
}

/// A scattered job whose segments' readbacks have not all landed: it
/// completes when the last one does.
struct HeldScatter {
    job: ScanJob,
    /// The merged, exactly-once matches of every segment.
    matches: Vec<Match>,
    /// Device of the first segment, which the job is counted against.
    first_device: usize,
    /// Fleet-global stream of the first segment.
    first_stream: u32,
    dispatch_seconds: f64,
    /// Segments whose readback is still held.
    outstanding: usize,
    /// The latest end of a landed segment readback (the dispatch instant
    /// before any lands).
    done: f64,
}

/// Take every held readback whose kernel has finished by `now`
/// (`stream_ready <= now`; `f64::INFINITY` takes them all, the drain),
/// ordered by kernel completion with ties broken by (device, stream).
/// `pendings[d][s]` is device `d`'s held readback for stream `s`, and
/// `engines[d]` the device's stream engine. This is the one place the
/// staged-issue rule lives: the serve loop, the scatter path and the
/// drain flush exactly what this returns, in this order.
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
    use crate::kernel_choice::priced_pfac_limit;
    use crate::workload::{serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};
    use crate::{serve, ServePoolConfig, ServedBy, DEFAULT_POOL_CAPACITY};
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

    /// Job 0's 16 KiB upload holds the one copy engine while jobs 1 and
    /// 2 arrive. Stream 1 is idle, so job 1 opens the next batch, but no
    /// batch can upload before the engine frees: the batch stays open
    /// until then and job 2 joins it. Its upload follows job 0's with no
    /// idle gap, also when a churn pool's driver allocations must run
    /// before it.
    #[test]
    fn jobs_arriving_while_the_copy_engine_is_busy_join_the_pending_batch() {
        let m = matcher();
        let text: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(16 << 10)
            .copied()
            .collect();
        let jobs = vec![
            ScanJob::new(0, text.clone(), 0.0),
            ScanJob::new(1, text[..100].to_vec(), 1.0e-6),
            ScanJob::new(2, text[..100].to_vec(), 2.0e-6),
        ];
        for pool in [None, Some(ServePoolConfig::churn(DEFAULT_POOL_CAPACITY))] {
            let mut cfg = ServeConfig::new(2);
            cfg.pool = pool;
            let run = serve(&m, jobs.clone(), &cfg).unwrap();
            let hist: Vec<(usize, u64)> = run
                .report
                .batch_histogram
                .iter()
                .map(|b| (b.jobs, b.count))
                .collect();
            assert_eq!(hist, [(1, 1), (2, 1)], "pool {pool:?}");
            let upload = |label: &str| {
                run.timeline
                    .ops
                    .iter()
                    .find(|op| op.kind == StreamOpKind::CopyH2D && op.label == label)
                    .expect("every batch uploads")
                    .clone()
            };
            let (first, second) = (upload("batch0"), upload("batch1"));
            assert_eq!(second.stream, 1, "pool {pool:?}");
            assert!(
                (second.start - first.end).abs() < 1.0e-12,
                "pool {pool:?}: upload idles from {} to {}",
                first.end,
                second.start
            );
            for id in [1, 2] {
                let o = run.outcomes.iter().find(|o| o.id == id).unwrap();
                assert_eq!(o.batch_jobs, 2, "pool {pool:?}");
            }
        }
    }

    /// Batching decisions read the schedule without pool driver setup,
    /// so a pool that allocates and frees every batch's buffers (pinned
    /// staging, so the link model is unchanged) regroups nothing on an
    /// overloaded two-device, two-stream fleet: every job lands in a
    /// batch of the same size on the same stream, no job finishes
    /// earlier, and the driver cycles do delay some.
    #[test]
    fn pool_driver_setup_only_delays() {
        let m = matcher();
        let jobs = synthetic_workload(&WorkloadConfig {
            jobs: 96,
            seed: 5,
            ..WorkloadConfig::defaults()
        });
        let plain = FleetConfig::new(2, ServeConfig::new(2)).parity();
        let allocating = ServePoolConfig {
            reuse: false,
            ..ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY)
        };
        let pooled = FleetConfig::new(2, ServeConfig::new(2).with_pool(allocating)).parity();
        let a = serve_fleet(&m, jobs.clone(), &plain).unwrap().serve;
        let b = serve_fleet(&m, jobs, &pooled).unwrap().serve;
        assert_eq!(a.report.batch_histogram, b.report.batch_histogram);
        let mut later = 0;
        for p in &b.outcomes {
            let q = a.outcomes.iter().find(|q| q.id == p.id).unwrap();
            assert_eq!(
                (p.batch_jobs, p.stream),
                (q.batch_jobs, q.stream),
                "job {}",
                p.id
            );
            assert_eq!(p.matches, q.matches);
            assert!(p.completed_seconds >= q.completed_seconds, "job {}", p.id);
            later += usize::from(p.completed_seconds > q.completed_seconds);
        }
        assert!(later > 0, "the pool's driver cycles delayed nothing");
        assert!(b.report.pool.is_some_and(|p| p.misses == p.acquires));
    }

    /// Each GPU probe runs the kernel the serve call picks for its
    /// length, and the default probes (4 KiB and 64 KiB) straddle the
    /// floor (30,720 B on the GTX 285), so the GPU tier fits one line on
    /// each side of it. Priced on this workload, staged PFAC is the
    /// cheaper launch up to 230,752 B, so both lines price staged PFAC;
    /// 16 KiB and 48 KiB launches land within 3% of their measured
    /// `h2d + kernel + readback` (+1.7%, −0.6%; on one stream every
    /// pinned launch maps its frame). A call whose batches cannot outgrow
    /// one round switches kernels at the floor, and each kernel's line
    /// prices its own side within 3% (+1.7%, +2.1%), where one line
    /// through both probes errs by more than 5% (+17.3%, −10.2%).
    #[test]
    fn gpu_cost_model_prices_each_planned_kernel() {
        let m = matcher();
        let sample = workload(1).remove(0).payload;
        let router = RouterConfig::default();
        let (small, large) = (router.probe_small_bytes, router.probe_large_bytes);
        let mut one_round = ServeConfig::new(1);
        one_round.limits.max_bytes = 30_720;
        for (dcfg, switch) in [(ServeConfig::new(1), 230_752), (one_round, 30_720)] {
            let choice = KernelChoice::new(&m, &dcfg, &sample);
            let service = |bytes: usize| {
                let payload: Vec<u8> = sample.iter().copied().cycle().take(bytes).collect();
                let plan = choice.plan(bytes, false);
                assert!(plan.mapped, "one stream maps every pinned launch");
                let run = m.run(&payload, plan.kernel).unwrap();
                dcfg.pcie.copy_seconds(bytes)
                    + run.seconds()
                    + readback_seconds(&dcfg.pcie, plan, run.readback_bytes)
            };
            let priced = priced_pfac_limit(&m, &dcfg, &sample);
            assert_eq!(priced, Some(switch));
            let models = fit_tier_models(&m, &dcfg, &router, 1, &sample, &choice);
            assert_eq!(models[0].pfac.map(|p| p.0), Some(30_720));
            assert!(models[1].pfac.is_none());
            for bytes in [16 << 10, 48 << 10] {
                let (predicted, measured) = (models[0].predict(bytes), service(bytes));
                assert!(
                    (predicted / measured - 1.0).abs() < 0.03,
                    "{bytes} B: predicted {predicted:e} s, measured {measured:e} s"
                );
            }
            if switch < large {
                let one_line = CostModel::fit(small, service(small), large, service(large));
                for bytes in [16 << 10, 48 << 10] {
                    let error = one_line.predict(bytes) / service(bytes) - 1.0;
                    assert!(error.abs() > 0.05, "{bytes} B: one line errs {error:+.3}");
                }
            }
        }
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
    fn multi_device_parity_schedules_are_pinned() {
        // Exact schedules of multi-device parity fleets: per-device
        // (batches, jobs), makespan, p50 and p99 latency (µs). Any change
        // to which device serves a turn, or when, moves these.
        let m = matcher();
        type Pin = (u32, u32, &'static [(u64, u64)], f64, f64, f64);
        let pins: [Pin; 2] = [
            (
                2,
                2,
                &[(32, 32), (32, 32)],
                0.000602078731707317,
                14.724322493224918,
                19.56835772357708,
            ),
            (
                4,
                1,
                &[(16, 16), (16, 16), (16, 16), (16, 16)],
                0.0005982209227642276,
                14.412560975609766,
                15.518474254742555,
            ),
        ];
        for (devices, streams, per_device, makespan, p50, p99) in pins {
            let cfg = FleetConfig::new(devices, ServeConfig::new(streams)).parity();
            let run = serve_fleet(&m, workload(64), &cfg).unwrap();
            let got: Vec<(u64, u64)> = run
                .report
                .per_device
                .iter()
                .map(|d| (d.batches, d.jobs))
                .collect();
            let r = &run.serve.report;
            assert_eq!(got, per_device, "d{devices} s{streams}");
            assert_eq!(r.makespan_seconds, makespan, "d{devices} s{streams}");
            assert_eq!(r.p50_latency_us, p50, "d{devices} s{streams}");
            assert_eq!(r.p99_latency_us, p99, "d{devices} s{streams}");
        }

        // Device 0's first four launches fail with no retry budget: its
        // breaker opens, re-opens on a failed half-open probe, then closes.
        let mut plan = gpu_sim::FaultPlan::none();
        for i in 0..4 {
            plan = plan.with_launch_transient(i);
        }
        m.set_fault_plan(plan);
        let mut scfg = ServeConfig::new(1);
        scfg.supervise.max_retries = 0;
        let run = serve_fleet(&m, workload(64), &FleetConfig::new(2, scfg).parity());
        m.clear_fault_plan();
        let run = run.unwrap();
        let r = &run.serve.report;
        assert_eq!(r.cpu_fallback_batches, 18);
        assert_eq!(r.breaker_opens, 2);
        assert_eq!(r.jobs_completed, 64);
        let opens: Vec<u64> = run
            .report
            .per_device
            .iter()
            .map(|d| d.breaker_opens)
            .collect();
        assert_eq!(opens, [2, 0]);
        let transitions: Vec<(f64, BreakerState)> = run
            .serve
            .breaker_transitions
            .iter()
            .map(|t| (t.at_seconds, t.to))
            .collect();
        assert_eq!(
            transitions,
            [
                (6.159366666666667e-5, BreakerState::Open),
                (0.00027238999999999996, BreakerState::HalfOpen),
                (0.00028276099999999997, BreakerState::Open),
                (0.0005040499999999999, BreakerState::HalfOpen),
                (0.0005386317913279132, BreakerState::Closed),
            ]
        );
        assert_eq!(r.makespan_seconds, 0.000600348493224932);
        assert_eq!(r.p99_latency_us, 69.47593939393943);
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
            .filter(|o| o.served_by == ServedBy::CpuParallel)
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
        // Each segment's readback is held while its kernel runs, so every
        // device's upload is acquired before any readback and none has to
        // backfill ahead of one. The segments must overlap instead of
        // running one after another, whether their kernels write the
        // frames into mapped host memory (pinned) or a `d2h` copies them
        // back (pageable).
        let m = matcher();
        let payload: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(512 * 1024)
            .copied()
            .collect();
        for pcie in [PcieConfig::gen2_x16(), PcieConfig::gen2_x16_pageable()] {
            let mut dev = ServeConfig::new(1);
            dev.pcie = pcie;
            let mut fcfg = FleetConfig::new(4, dev);
            fcfg.shard_bytes = Some(128 * 1024);
            let job = ScanJob::new(0, payload.clone(), 0.0);
            let fleet = serve_fleet(&m, vec![job], &fcfg).unwrap();
            assert_eq!(fleet.report.scattered_jobs, 1);
            let first = |t: &StreamTimeline, kind: StreamOpKind| {
                t.ops.iter().find(|op| op.kind == kind).unwrap().clone()
            };
            // A readback starts when its `d2h` does, or for a mapped frame
            // at its kernel's end.
            let first_readback = fleet
                .timelines
                .iter()
                .map(
                    |t| match t.ops.iter().find(|op| op.kind == StreamOpKind::CopyD2H) {
                        Some(d2h) => d2h.start,
                        None => {
                            let kernel = first(t, StreamOpKind::Kernel);
                            assert!(kernel.mapped_bytes > 0, "{pcie:?}");
                            kernel.end - pcie.mapped_seconds(kernel.mapped_bytes as usize).unwrap()
                        }
                    },
                )
                .fold(f64::INFINITY, f64::min);
            for (d, t) in fleet.timelines.iter().enumerate() {
                let h2d = first(t, StreamOpKind::CopyH2D);
                assert!(
                    h2d.start < first_readback,
                    "device {d}'s upload starts at {}s, behind a readback at {first_readback}s",
                    h2d.start
                );
            }
            // Held `d2h`s are acquired after every upload; a mapped
            // write-out is reserved with its kernel, and later uploads that
            // are ready sooner take the gap ahead of it.
            if !pcie.host_memory.is_pinned() {
                assert_eq!(fleet.report.bus.backfilled, 0);
            }
            // Uploads still share the bus, but the job takes well under
            // two segments' chains, where serialised shards would take
            // four.
            let d0 = &fleet.timelines[0];
            let chain = d0.total_seconds() - d0.ops[0].start;
            let latency = fleet.serve.outcomes[0].latency_seconds;
            assert!(
                latency < 2.0 * chain,
                "latency {latency}s is not below two segment chains of {chain}s"
            );
        }
    }

    #[test]
    fn scattered_readbacks_do_not_park_the_next_upload() {
        // Two sharded jobs at once on two streams per device: the second
        // job's upload must run while the first job's kernel does, not
        // wait on the FIFO copy engine behind the first job's readback.
        // Pageable memory copies the frames back; with pinned memory the
        // kernels write them into mapped host memory and the copy engine
        // carries uploads only.
        let m = matcher();
        let payload: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(256 * 1024)
            .copied()
            .collect();
        let jobs = vec![
            ScanJob::new(0, payload.clone(), 0.0),
            ScanJob::new(1, payload, 1.0e-6),
        ];
        for pcie in [PcieConfig::gen2_x16_pageable(), PcieConfig::gen2_x16()] {
            let mut dev = ServeConfig::new(2);
            dev.pcie = pcie;
            let mut fcfg = FleetConfig::new(4, dev);
            fcfg.shard_bytes = Some(64 * 1024);
            let fleet = serve_fleet(&m, jobs.clone(), &fcfg).unwrap();
            assert_eq!(fleet.report.scattered_jobs, 2);
            assert_eq!(fleet.serve.report.jobs_completed, 2);
            let mapped = pcie.host_memory.is_pinned();
            assert_eq!(fleet.serve.report.mapped_readbacks > 0, mapped);
            for (d, t) in fleet.timelines.iter().enumerate() {
                let op = |label: &str, kind: StreamOpKind| {
                    t.ops
                        .iter()
                        .find(|op| op.label == label && op.kind == kind)
                        .cloned()
                };
                let first_d2h = op(&format!("scatter0-d{d}"), StreamOpKind::CopyD2H);
                let second_h2d = op(&format!("scatter1-d{d}"), StreamOpKind::CopyH2D).unwrap();
                let Some(first_d2h) = first_d2h else {
                    assert!(mapped, "device {d}: no readback for the first job");
                    continue;
                };
                assert!(
                    second_h2d.end <= first_d2h.start,
                    "device {d}: the second upload ends at {}s, after the first readback starts at {}s",
                    second_h2d.end,
                    first_d2h.start
                );
            }
        }
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
    fn breaker_failover_batches_are_tagged_with_their_device() {
        use crate::telemetry::TelemetryConfig;
        use trace::ArgValue;

        let m = matcher();
        // Tiny jobs (CPU-friendly) interleaved with large ones.
        let jobs: Vec<ScanJob> = (0..24u64)
            .map(|i| {
                let bytes = if i % 2 == 0 { 64 } else { 128 * 1024 };
                ScanJob::new(i, vec![b't'; bytes], i as f64 * 50.0e-6)
            })
            .collect();
        let mut scfg = ServeConfig::new(1).with_telemetry(TelemetryConfig::default());
        scfg.supervise.max_retries = 0;
        scfg.breaker.cooldown_seconds = 1.0; // never half-opens in-run
        for (mode, fcfg) in [
            ("parity", FleetConfig::new(2, scfg).parity()),
            ("routed", FleetConfig::new(2, scfg)),
        ] {
            // Device 0 fails every launch after the routed warmup probes.
            let mut plan = gpu_sim::FaultPlan::none();
            for i in 2..64 {
                plan = plan.with_launch_transient(i);
            }
            m.set_fault_plan(plan);
            let run = serve_fleet(&m, jobs.clone(), &fcfg);
            m.clear_fault_plan();
            let run = run.unwrap();
            let r = &run.serve.report;
            assert_eq!(r.jobs_completed, 24, "{mode}");
            assert_eq!(run.report.per_device[0].breaker_opens, 1, "{mode}");
            let tel = run.serve.telemetry.as_ref().unwrap();
            let cpu_batches: Vec<Option<u64>> = tel
                .trace
                .events()
                .iter()
                .filter(|e| e.name == "batch-formed")
                .filter(|e| {
                    e.args
                        .iter()
                        .any(|(k, v)| k == "route" && *v == ArgValue::Str("cpu".into()))
                })
                .map(|e| {
                    e.args.iter().find_map(|(k, v)| match v {
                        ArgValue::U64(d) if k == "device" => Some(*d),
                        _ => None,
                    })
                })
                .collect();
            // Each breaker failover names device 0; the rest of the
            // fallbacks are GPU batches that failed (one fault each).
            let failovers = cpu_batches.iter().filter(|d| **d == Some(0)).count() as u64;
            assert!(failovers > 0, "{mode}: no breaker failover");
            assert_eq!(failovers + r.faults_fired, r.cpu_fallback_batches, "{mode}");
            assert!(cpu_batches.iter().all(|d| *d != Some(1)), "{mode}");
            // Only cost routing sends batches to the CPU tier, untagged.
            let routed_to_cpu = cpu_batches.iter().filter(|d| d.is_none()).count();
            assert_eq!(routed_to_cpu > 0, mode == "routed", "{mode}");
        }
    }

    #[test]
    fn retry_hints_derive_from_aggregate_fleet_drain_rate() {
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

        // Pin the hint to the drain rate the job saw on arrival: the
        // completions landed across both devices by then.
        let arrival = h2.job_id as f64 * spacing;
        let landed = d2
            .serve
            .outcomes
            .iter()
            .filter(|o| o.completed_seconds <= arrival)
            .count();
        assert!(landed > 0);
        let implied_rate = h2.capacity as f64 / h2.retry_after_us * 1.0e6;
        let landed_rate = landed as f64 / arrival;
        assert!(
            (implied_rate - landed_rate).abs() <= 1e-9 * landed_rate,
            "hint-implied rate {implied_rate} is not the landed rate {landed_rate}"
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
