//! End-to-end serving telemetry: per-job span timelines, a live metrics
//! registry, and an SLO flight recorder.
//!
//! The serve loop ([`crate::fleet`], behind [`crate::serve`] and
//! [`crate::serve_fleet`]) is instrumented behind
//! `ServeConfig::telemetry: Option<TelemetryConfig>` — the same
//! zero-cost-when-disarmed hook pattern as fault injection and kernel
//! tracing. Disarmed, the loop performs one `Option` branch per probe
//! and the run is bit-identical to a pre-telemetry serve. Armed, a
//! [`ServeTelemetry`] recorder observes (never steers) the loop and
//! produces a [`TelemetryRun`] with three coordinated views:
//!
//! 1. **Span timeline** — every job's lifecycle as Chrome trace events in
//!    a [`trace::TraceBuffer`]: a `queue-wait` span from arrival to batch
//!    dispatch and a `service` span from dispatch to completion (pid
//!    [`PID_SERVE_JOBS`], tid = priority class), with shed / rejected /
//!    expired arrivals as instants. Breaker transitions and sampled
//!    counters land on the control-plane pid ([`PID_SERVE_CONTROL`]).
//!    [`TelemetryRun::chrome_json`] stitches the run's
//!    [`gpu_sim::StreamTimeline`] into the same buffer (pids ≥
//!    [`gpu_sim::PID_STREAM_BASE`]), so one trace file shows a job's
//!    queue wait sitting directly above the `h2d`/`kernel`/`d2h` ops
//!    that served its batch.
//! 2. **Metrics registry** — a windowed time series sampled on a fixed
//!    simulated-time cadence: p50/p99 over a latency ring
//!    ([`crate::slo::QuantileWindow`]), queue depth, adaptive batch
//!    window, breaker state, cumulative terminal counts, and the drain
//!    rate — exported through the existing [`trace::MetricsSnapshot`]
//!    JSON/Prometheus renderings.
//! 3. **SLO flight recorder** — the N worst-latency jobs per fixed
//!    window, kept with their full span coordinates as exemplars and
//!    emitted on the [`PID_SERVE_SLO`] pid, so an incident's tail is
//!    inspectable without keeping every job.
//!
//! [`render_slo_report`] turns a stitched trace back into a
//! human-readable incident narrative (`acsim slo-report`): when the
//! breaker opened and closed, what the sampled p99 did, which priority
//! classes were shed, and the worst exemplars per window.

use crate::breaker::{BreakerState, BreakerTransition};
use crate::job::{JobExpiry, JobOutcome, ScanJob, ServedBy};
use crate::queue::Overloaded;
use crate::report::ServeReport;
use crate::slo::{QuantileWindow, SheddedJob};
use gpu_sim::StreamTimeline;
use std::collections::BTreeMap;
use trace::{
    ArgValue, Phase, TraceBuffer, TraceConfig, TraceEvent, PID_SERVE_CONTROL, PID_SERVE_JOBS,
    PID_SERVE_SLO,
};

/// Telemetry knobs. `Copy` so [`crate::ServeConfig`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Simulated seconds between metrics samples.
    pub sample_interval_seconds: f64,
    /// Completed-job latencies remembered by the registry's sliding
    /// p50/p99 windows (global and per priority class).
    pub latency_window: usize,
    /// Worst-latency jobs kept per flight-recorder window.
    pub exemplars_per_window: usize,
    /// Width of one flight-recorder window, simulated seconds.
    pub exemplar_window_seconds: f64,
    /// Bound on recorded trace events (overflow is counted, not kept).
    pub max_trace_events: usize,
    /// Served payload bytes sampled for the post-run workload-attribution
    /// pass (see [`TelemetryRun::attribute_pattern_costs`]). The sample
    /// is a prefix of the dispatched traffic, capped so the observer
    /// replay stays cheap. `0` disables the pass.
    pub attribution_sample_bytes: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_interval_seconds: 50.0e-6,
            latency_window: 128,
            exemplars_per_window: 3,
            exemplar_window_seconds: 500.0e-6,
            max_trace_events: 1 << 20,
            attribution_sample_bytes: 64 << 10,
        }
    }
}

/// One cadence sample of the live registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSample {
    /// Simulated time of the sample.
    pub t_seconds: f64,
    /// Sliding-window p50 latency, microseconds.
    pub p50_us: f64,
    /// Sliding-window p99 latency, microseconds.
    pub p99_us: f64,
    /// Jobs waiting in the bounded queue.
    pub queue_depth: usize,
    /// The adaptive batcher's current job window.
    pub batch_window: usize,
    /// Breaker state at the sample instant.
    pub breaker: BreakerState,
    /// Cumulative completed jobs.
    pub completed: u64,
    /// Cumulative queue-full rejections.
    pub rejected: u64,
    /// Cumulative deadline expiries.
    pub expired: u64,
    /// Cumulative SLO sheds.
    pub shed: u64,
    /// Completions per second inside this sample's interval.
    pub drain_rate_per_sec: f64,
}

/// Windowed time-series registry fed by the serve loop's telemetry
/// probes and drained on a fixed simulated-time cadence.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    interval: f64,
    next_sample: f64,
    window: QuantileWindow,
    latency_window: usize,
    per_priority: BTreeMap<u8, QuantileWindow>,
    samples: Vec<MetricsSample>,
    completed: u64,
    rejected: u64,
    expired: u64,
    shed: u64,
    completed_at_last_sample: u64,
}

impl MetricsRegistry {
    fn new(cfg: &TelemetryConfig) -> Self {
        let interval = if cfg.sample_interval_seconds > 0.0 {
            cfg.sample_interval_seconds
        } else {
            50.0e-6
        };
        MetricsRegistry {
            interval,
            next_sample: interval,
            window: QuantileWindow::new(cfg.latency_window),
            latency_window: cfg.latency_window,
            per_priority: BTreeMap::new(),
            samples: Vec::new(),
            completed: 0,
            rejected: 0,
            expired: 0,
            shed: 0,
            completed_at_last_sample: 0,
        }
    }

    fn observe_completion(&mut self, priority: u8, latency_seconds: f64) {
        self.completed += 1;
        self.window.push(latency_seconds);
        self.per_priority
            .entry(priority)
            .or_insert_with(|| QuantileWindow::new(self.latency_window))
            .push(latency_seconds);
    }

    /// Emit every sample due at or before `now`. The cadence is
    /// simulated-time driven, so an idle stretch emits its (flat)
    /// samples rather than silently skipping them. A `closing` call adds
    /// one more sample at `now` itself, unless one is already there, so
    /// the series ends on the run's totals.
    fn sample_until(
        &mut self,
        now: f64,
        queue_depth: usize,
        batch_window: usize,
        breaker: BreakerState,
        closing: bool,
    ) {
        let push = |reg: &mut Self, t: f64, span: f64| {
            let drained = reg.completed - reg.completed_at_last_sample;
            reg.samples.push(MetricsSample {
                t_seconds: t,
                p50_us: reg.window.quantile(0.50) * 1.0e6,
                p99_us: reg.window.quantile(0.99) * 1.0e6,
                queue_depth,
                batch_window,
                breaker,
                completed: reg.completed,
                rejected: reg.rejected,
                expired: reg.expired,
                shed: reg.shed,
                drain_rate_per_sec: drained as f64 / span,
            });
            reg.completed_at_last_sample = reg.completed;
        };
        let interval = self.interval;
        while self.next_sample <= now {
            let t = self.next_sample;
            push(self, t, interval);
            self.next_sample = t + interval;
        }
        let last = self.samples.last().map_or(0.0, |s| s.t_seconds);
        if closing && now > last {
            push(self, now, now - last);
        }
    }

    /// The sampled series, in time order.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }
}

/// One flight-recorder exemplar: a worst-latency job with its full span
/// coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The job.
    pub job_id: u64,
    /// Its priority class.
    pub priority: u8,
    /// Flight-recorder window index (`completed / window_seconds`).
    pub window: u64,
    /// Arrival on the simulated clock, seconds.
    pub arrival_seconds: f64,
    /// Batch-dispatch instant, seconds.
    pub dispatch_seconds: f64,
    /// Completion instant, seconds.
    pub completed_seconds: f64,
    /// End-to-end latency, microseconds.
    pub latency_us: f64,
    /// Which tier answered.
    pub served_by: ServedBy,
    /// Stream the batch ran on (GPU tier only).
    pub stream: u32,
    /// Jobs sharing the launch.
    pub batch_jobs: usize,
    /// Supervised GPU retries the batch absorbed.
    pub retries: u64,
}

/// Keeps the `per_window` worst-latency exemplars per fixed window of
/// simulated completion time.
#[derive(Debug, Clone)]
struct FlightRecorder {
    window_seconds: f64,
    per_window: usize,
    windows: BTreeMap<u64, Vec<Exemplar>>,
}

impl FlightRecorder {
    fn new(cfg: &TelemetryConfig) -> Self {
        FlightRecorder {
            window_seconds: if cfg.exemplar_window_seconds > 0.0 {
                cfg.exemplar_window_seconds
            } else {
                500.0e-6
            },
            per_window: cfg.exemplars_per_window.max(1),
            windows: BTreeMap::new(),
        }
    }

    fn record(&mut self, mut ex: Exemplar) {
        let window = (ex.completed_seconds / self.window_seconds)
            .floor()
            .max(0.0) as u64;
        ex.window = window;
        let slot = self.windows.entry(window).or_default();
        slot.push(ex);
        // Worst first; ties broken by id so the keep-set is deterministic.
        slot.sort_by(|a, b| {
            b.latency_us
                .partial_cmp(&a.latency_us)
                .expect("latencies are finite")
                .then(a.job_id.cmp(&b.job_id))
        });
        slot.truncate(self.per_window);
    }

    fn into_exemplars(self) -> Vec<Exemplar> {
        self.windows.into_values().flatten().collect()
    }
}

/// The in-loop recorder: owned by the serve loop while armed, folded into a
/// [`TelemetryRun`] at the end. Every method only *reads* values the
/// loop already computed — telemetry never feeds back into simulated
/// timing.
#[derive(Debug)]
pub struct ServeTelemetry {
    cfg: TelemetryConfig,
    clock_hz: f64,
    trace: TraceBuffer,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    payload_sample: Vec<u8>,
    /// Fleet device context: when set, job and control events carry a
    /// `device=` arg. Only a multi-device fleet sets it, so a
    /// single-device trace has no `device=` args.
    device: Option<u32>,
}

impl ServeTelemetry {
    /// An armed recorder converting simulated seconds to trace cycles at
    /// `clock_hz` (the same quantization as
    /// [`gpu_sim::StreamTimeline::to_trace`], so stitched events line up).
    pub fn new(cfg: TelemetryConfig, clock_hz: f64) -> Self {
        ServeTelemetry {
            cfg,
            clock_hz,
            trace: TraceBuffer::new(TraceConfig {
                max_events: cfg.max_trace_events,
                ..TraceConfig::default()
            }),
            registry: MetricsRegistry::new(&cfg),
            recorder: FlightRecorder::new(&cfg),
            payload_sample: Vec::new(),
            device: None,
        }
    }

    /// Set the fleet device context for subsequent emissions (`None` =
    /// no `device=` args, the single-device convention).
    pub(crate) fn set_device(&mut self, device: Option<u32>) {
        self.device = device;
    }

    fn push_device_arg(&self, args: &mut Vec<(String, ArgValue)>) {
        if let Some(d) = self.device {
            args.push(("device".to_string(), ArgValue::U64(d as u64)));
        }
    }

    fn cycles(&self, seconds: f64) -> u64 {
        (seconds.max(0.0) * self.clock_hz).round() as u64
    }

    /// A batch left the queue: emit each member's `queue-wait` span
    /// (arrival → dispatch) and a `batch-formed` control instant.
    pub(crate) fn batch_formed(
        &mut self,
        label: &str,
        jobs: &[ScanJob],
        dispatch_seconds: f64,
        route: &str,
    ) {
        for job in jobs {
            // Sample a prefix of the dispatched traffic for the post-run
            // attribution replay. Copying bytes never touches the
            // simulated clock, so the armed run stays bit-identical.
            let room = self
                .cfg
                .attribution_sample_bytes
                .saturating_sub(self.payload_sample.len());
            if room > 0 {
                let take = job.payload.len().min(room);
                self.payload_sample.extend_from_slice(&job.payload[..take]);
            }
            let ts = self.cycles(job.arrival_seconds);
            let dur = self.cycles(dispatch_seconds).saturating_sub(ts);
            let mut args = vec![
                ("job".to_string(), ArgValue::U64(job.id)),
                ("batch".to_string(), ArgValue::Str(label.to_string())),
                ("route".to_string(), ArgValue::Str(route.to_string())),
            ];
            self.push_device_arg(&mut args);
            self.trace.span(
                "queue-wait",
                "serve-job",
                PID_SERVE_JOBS,
                job.priority as u32,
                ts,
                dur,
                args,
            );
        }
        let mut args = vec![
            ("batch".to_string(), ArgValue::Str(label.to_string())),
            ("jobs".to_string(), ArgValue::U64(jobs.len() as u64)),
            ("route".to_string(), ArgValue::Str(route.to_string())),
        ];
        self.push_device_arg(&mut args);
        self.trace.instant(
            "batch-formed",
            "serve-control",
            PID_SERVE_CONTROL,
            0,
            self.cycles(dispatch_seconds),
            args,
        );
    }

    /// A job completed: emit its `service` span (dispatch → completion),
    /// feed the registry's latency windows, and offer the flight
    /// recorder an exemplar.
    pub(crate) fn job_completed(
        &mut self,
        job: &ScanJob,
        outcome: &JobOutcome,
        dispatch_seconds: f64,
        retries: u64,
    ) {
        let tier = served_by_arg(outcome.served_by);
        let ts = self.cycles(dispatch_seconds);
        let dur = self.cycles(outcome.completed_seconds).saturating_sub(ts);
        let mut args = vec![
            ("job".to_string(), ArgValue::U64(outcome.id)),
            ("served_by".to_string(), ArgValue::Str(tier.to_string())),
            ("stream".to_string(), ArgValue::U64(outcome.stream as u64)),
            (
                "batch_jobs".to_string(),
                ArgValue::U64(outcome.batch_jobs as u64),
            ),
            ("retries".to_string(), ArgValue::U64(retries)),
            (
                "latency_us".to_string(),
                ArgValue::F64(outcome.latency_seconds * 1.0e6),
            ),
        ];
        self.push_device_arg(&mut args);
        self.trace.span(
            "service",
            "serve-job",
            PID_SERVE_JOBS,
            job.priority as u32,
            ts,
            dur,
            args,
        );
        self.registry
            .observe_completion(job.priority, outcome.latency_seconds);
        self.recorder.record(Exemplar {
            job_id: outcome.id,
            priority: job.priority,
            window: 0, // assigned by the recorder
            arrival_seconds: job.arrival_seconds,
            dispatch_seconds,
            completed_seconds: outcome.completed_seconds,
            latency_us: outcome.latency_seconds * 1.0e6,
            served_by: outcome.served_by,
            stream: outcome.stream,
            batch_jobs: outcome.batch_jobs,
            retries,
        });
    }

    /// An arrival was shed by SLO admission control.
    pub(crate) fn job_shed(&mut self, shed: &SheddedJob) {
        self.registry.shed += 1;
        self.trace.instant(
            "shed",
            "serve-job",
            PID_SERVE_JOBS,
            shed.priority as u32,
            self.cycles(shed.at_seconds),
            vec![
                ("job".to_string(), ArgValue::U64(shed.job_id)),
                (
                    "observed_p99_us".to_string(),
                    ArgValue::F64(shed.observed_p99_seconds * 1.0e6),
                ),
            ],
        );
    }

    /// An arrival bounced off the full queue.
    pub(crate) fn job_rejected(&mut self, rejection: &Overloaded, priority: u8, at_seconds: f64) {
        self.registry.rejected += 1;
        self.trace.instant(
            "rejected",
            "serve-job",
            PID_SERVE_JOBS,
            priority as u32,
            self.cycles(at_seconds),
            vec![
                ("job".to_string(), ArgValue::U64(rejection.job_id)),
                (
                    "queue_len".to_string(),
                    ArgValue::U64(rejection.queue_len as u64),
                ),
                (
                    "retry_after_us".to_string(),
                    ArgValue::F64(rejection.retry_after_us),
                ),
            ],
        );
    }

    /// An admitted job's deadline passed while queued.
    pub(crate) fn job_expired(&mut self, expiry: &JobExpiry) {
        self.registry.expired += 1;
        self.trace.instant(
            "expired",
            "serve-job",
            PID_SERVE_JOBS,
            0,
            self.cycles(expiry.expired_at_seconds),
            vec![
                ("job".to_string(), ArgValue::U64(expiry.job_id)),
                (
                    "deadline_us".to_string(),
                    ArgValue::F64(expiry.deadline_seconds * 1.0e6),
                ),
            ],
        );
    }

    /// Cadence hook, called once per loop turn with the loop's current
    /// view. Emits every registry sample due by `now`, mirrored as
    /// control-plane counters in the trace.
    pub(crate) fn tick(
        &mut self,
        now: f64,
        queue_depth: usize,
        batch_window: usize,
        breaker: BreakerState,
    ) {
        self.sample(now, queue_depth, batch_window, breaker, false);
    }

    /// The closing tick, at the end of the run: [`ServeTelemetry::tick`]
    /// plus a last sample at `now`, so jobs that completed in the final
    /// drain appear in a sample.
    pub(crate) fn close(
        &mut self,
        now: f64,
        queue_depth: usize,
        batch_window: usize,
        breaker: BreakerState,
    ) {
        self.sample(now, queue_depth, batch_window, breaker, true);
    }

    fn sample(
        &mut self,
        now: f64,
        queue_depth: usize,
        batch_window: usize,
        breaker: BreakerState,
        closing: bool,
    ) {
        let before = self.registry.samples.len();
        self.registry
            .sample_until(now, queue_depth, batch_window, breaker, closing);
        for i in before..self.registry.samples.len() {
            let s = self.registry.samples[i];
            let ts = self.cycles(s.t_seconds);
            self.trace
                .counter("queue-depth", "serve-control", PID_SERVE_CONTROL, 0, ts, {
                    s.queue_depth as u64
                });
            self.trace.counter(
                "p99-us",
                "serve-control",
                PID_SERVE_CONTROL,
                0,
                ts,
                s.p99_us.round().max(0.0) as u64,
            );
            self.trace.counter(
                "batch-window",
                "serve-control",
                PID_SERVE_CONTROL,
                0,
                ts,
                s.batch_window as u64,
            );
        }
    }

    /// Fold the recorder into a [`TelemetryRun`], given each device's
    /// breaker transitions and stream timeline: transitions become
    /// control-plane instants, exemplars become `slo-exemplar` spans, and
    /// each device's timeline is stitched into its own pid plane
    /// ([`gpu_sim::device_pid_base`]), so a fleet trace keeps N separable
    /// device tracks above the shared job/control planes. Breaker instants
    /// carry a `device=` arg only when there is more than one device.
    pub(crate) fn finish(
        mut self,
        per_device: &[(&[BreakerTransition], &StreamTimeline)],
    ) -> TelemetryRun {
        let tagged = per_device.len() > 1;
        for (d, (transitions, _)) in per_device.iter().enumerate() {
            self.emit_breaker_instants(transitions, tagged.then_some(d as u32));
        }
        let exemplars = self.emit_exemplars();
        for (d, (_, timeline)) in per_device.iter().enumerate() {
            timeline.append_trace_with_base(
                &mut self.trace,
                self.clock_hz,
                gpu_sim::device_pid_base(d as u32),
            );
        }
        self.into_run(exemplars)
    }

    fn emit_breaker_instants(&mut self, transitions: &[BreakerTransition], device: Option<u32>) {
        for t in transitions {
            let mut args = vec![("reason".to_string(), ArgValue::Str(t.reason.clone()))];
            if let Some(d) = device {
                args.push(("device".to_string(), ArgValue::U64(d as u64)));
            }
            self.trace.instant(
                &format!("breaker-{}", t.to.label()),
                "serve-control",
                PID_SERVE_CONTROL,
                0,
                self.cycles(t.at_seconds),
                args,
            );
        }
    }

    fn emit_exemplars(&mut self) -> Vec<Exemplar> {
        let exemplars =
            std::mem::replace(&mut self.recorder, FlightRecorder::new(&self.cfg)).into_exemplars();
        for ex in &exemplars {
            let ts = self.cycles(ex.arrival_seconds);
            let dur = self.cycles(ex.completed_seconds).saturating_sub(ts);
            let tier = served_by_arg(ex.served_by);
            self.trace.span(
                &format!("exemplar:job{}", ex.job_id),
                "slo-exemplar",
                PID_SERVE_SLO,
                ex.window as u32,
                ts,
                dur,
                vec![
                    ("job".to_string(), ArgValue::U64(ex.job_id)),
                    ("priority".to_string(), ArgValue::U64(ex.priority as u64)),
                    ("window".to_string(), ArgValue::U64(ex.window)),
                    ("latency_us".to_string(), ArgValue::F64(ex.latency_us)),
                    (
                        "queue_wait_us".to_string(),
                        ArgValue::F64((ex.dispatch_seconds - ex.arrival_seconds) * 1.0e6),
                    ),
                    (
                        "service_us".to_string(),
                        ArgValue::F64((ex.completed_seconds - ex.dispatch_seconds) * 1.0e6),
                    ),
                    ("served_by".to_string(), ArgValue::Str(tier.to_string())),
                    (
                        "batch_jobs".to_string(),
                        ArgValue::U64(ex.batch_jobs as u64),
                    ),
                    ("retries".to_string(), ArgValue::U64(ex.retries)),
                ],
            );
        }
        exemplars
    }

    fn into_run(self, exemplars: Vec<Exemplar>) -> TelemetryRun {
        TelemetryRun {
            trace: self.trace,
            samples: self.registry.samples,
            per_priority_p99_us: self
                .registry
                .per_priority
                .iter()
                .map(|(p, w)| (*p, w.quantile(0.99) * 1.0e6))
                .collect(),
            exemplars,
            clock_hz: self.clock_hz,
            payload_sample: self.payload_sample,
            pattern_costs: Vec::new(),
        }
    }
}

/// The `served_by` trace arg. Both CPU rungs write `cpu-ladder`, so a
/// trace reads the same whichever rung answered.
fn served_by_arg(served_by: ServedBy) -> &'static str {
    match served_by {
        ServedBy::Gpu => "gpu",
        ServedBy::CpuParallel | ServedBy::CpuSerial => "cpu-ladder",
    }
}

/// One pattern's share of the attributed device cycles in the post-run
/// observer replay (see [`TelemetryRun::attribute_pattern_costs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternCost {
    /// Pattern id in the matcher's dictionary.
    pub pattern: u32,
    /// The pattern bytes, ASCII-escaped for display.
    pub text: String,
    /// Cycles charged to the pattern (each owned state's cost split
    /// evenly among its owners).
    pub cycles: f64,
    /// Share of the total *owned* cost, percent.
    pub share_pct: f64,
}

/// Everything an armed serve run recorded.
#[derive(Debug, Clone)]
pub struct TelemetryRun {
    /// The stitched trace: job lifecycle (pid 2), control plane (pid 3),
    /// SLO exemplars (pid 4), stream ops (pids ≥ 16).
    pub trace: TraceBuffer,
    /// The registry's cadence samples, in time order.
    pub samples: Vec<MetricsSample>,
    /// Final sliding-window p99 per priority class, microseconds.
    pub per_priority_p99_us: Vec<(u8, f64)>,
    /// Flight-recorder exemplars, window order then worst first.
    pub exemplars: Vec<Exemplar>,
    /// The clock used to quantize seconds into trace cycles.
    pub clock_hz: f64,
    /// Prefix of the dispatched payload bytes kept for the attribution
    /// replay (capped by `TelemetryConfig::attribution_sample_bytes`).
    pub payload_sample: Vec<u8>,
    /// Per-pattern attributed cost, worst first. Empty until
    /// [`TelemetryRun::attribute_pattern_costs`] runs.
    pub pattern_costs: Vec<PatternCost>,
}

impl TelemetryRun {
    /// Charge the sampled traffic's device cycles to the dictionary:
    /// replay the payload sample through `matcher` with workload
    /// attribution armed (a fresh device with any fault plan set aside —
    /// the serve run's timing is already final and cannot move), fold
    /// per-state cycles through the trie's state→pattern ownership, and
    /// record the result three ways:
    /// [`TelemetryRun::pattern_costs`], `pattern-cost:<pattern>`
    /// control-plane counters in the trace (so `acsim slo-report` can
    /// name the classes that dominated a degraded window), and — via
    /// [`TelemetryRun::metrics_snapshot`] —
    /// `acsim_serve_pattern_cost_cycles` series. A failed or empty
    /// replay leaves `pattern_costs` empty.
    pub fn attribute_pattern_costs(
        &mut self,
        matcher: &ac_gpu::GpuAcMatcher,
        approach: ac_gpu::Approach,
        at_seconds: f64,
    ) {
        self.pattern_costs.clear();
        if self.payload_sample.is_empty() {
            return;
        }
        let opts = ac_gpu::RunOptions {
            attribution: Some(gpu_sim::AttributionConfig),
            ..ac_gpu::RunOptions::default()
        };
        // Any armed fault plan is set aside: the replay must neither fire
        // the serve run's scheduled faults nor consume their op indices.
        let replay = matcher.without_faults(|m| m.run_opts(&self.payload_sample, approach, opts));
        let Ok(run) = replay else {
            return;
        };
        let Some(w) = run.attribution else {
            return;
        };
        let patterns = matcher.automaton().patterns();
        let ownership = ac_core::StateOwnership::build(patterns);
        let costs = ownership.per_pattern_cost(&w.state_cycles);
        let owned_total: f64 = costs.iter().sum();
        if owned_total <= 0.0 {
            return;
        }
        let mut ranked: Vec<PatternCost> = costs
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0.0)
            .map(|(id, &cycles)| PatternCost {
                pattern: id as u32,
                text: patterns.get(id as u32).escape_ascii().to_string(),
                cycles,
                share_pct: 100.0 * cycles / owned_total,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.cycles
                .total_cmp(&a.cycles)
                .then(a.pattern.cmp(&b.pattern))
        });
        let ts = (at_seconds.max(0.0) * self.clock_hz).round() as u64;
        for pc in &ranked {
            self.trace.counter(
                &format!("pattern-cost:{}", pc.text),
                "serve-control",
                PID_SERVE_CONTROL,
                0,
                ts,
                pc.cycles.round() as u64,
            );
        }
        self.pattern_costs = ranked;
    }

    /// Record the run's device-pool activity as `pool-*` control-plane
    /// counters at the makespan instant, so `acsim slo-report` can
    /// narrate allocator behaviour from the trace alone. Observer-only:
    /// the stats are read after the serve clock is final.
    pub fn record_pool_stats(&mut self, stats: &crate::report::PoolStatsReport, at_seconds: f64) {
        let ts = (at_seconds.max(0.0) * self.clock_hz).round() as u64;
        let counters: [(&str, u64); 5] = [
            ("pool-acquires", stats.acquires),
            ("pool-hits", stats.hits),
            ("pool-misses", stats.misses),
            ("pool-hit-rate-pct", (stats.hit_rate * 100.0).round() as u64),
            ("pool-high-water-bytes", stats.high_water_bytes),
        ];
        for (name, value) in counters {
            self.trace
                .counter(name, "serve-control", PID_SERVE_CONTROL, 0, ts, value);
        }
    }

    /// The stitched trace as Chrome trace-event JSON with microsecond
    /// timestamps (loadable in Perfetto; parseable back with
    /// `trace::parse_chrome_json(json, 1.0)`).
    pub fn chrome_json(&self) -> String {
        trace::to_chrome_json(&self.trace, self.clock_hz / 1.0e6)
    }

    /// Flatten the run into a [`trace::MetricsSnapshot`]: the final
    /// report's terminal gauges, the per-priority latency windows, and
    /// the full sampled series (labelled by sample index).
    pub fn metrics_snapshot(&self, report: &ServeReport) -> trace::MetricsSnapshot {
        let mut snap = report.to_metrics();
        for (priority, p99) in &self.per_priority_p99_us {
            snap.push_labelled(
                "acsim_serve_priority_p99_us",
                "final sliding-window p99 latency per priority class",
                vec![("priority".to_string(), priority.to_string())],
                *p99,
            );
        }
        for pc in &self.pattern_costs {
            snap.push_labelled(
                "acsim_serve_pattern_cost_cycles",
                "device cycles attributed to each pattern over the sampled traffic",
                vec![("pattern".to_string(), pc.text.clone())],
                pc.cycles,
            );
        }
        for (i, s) in self.samples.iter().enumerate() {
            let label = |extra: Vec<(String, String)>| {
                let mut l = vec![("sample".to_string(), i.to_string())];
                l.extend(extra);
                l
            };
            snap.push_labelled(
                "acsim_serve_sample_t_us",
                "simulated time of each registry sample",
                label(Vec::new()),
                s.t_seconds * 1.0e6,
            );
            snap.push_labelled(
                "acsim_serve_sample_p99_us",
                "sliding-window p99 latency at each sample",
                label(Vec::new()),
                s.p99_us,
            );
            snap.push_labelled(
                "acsim_serve_sample_p50_us",
                "sliding-window p50 latency at each sample",
                label(Vec::new()),
                s.p50_us,
            );
            snap.push_labelled(
                "acsim_serve_sample_queue_depth",
                "bounded-queue depth at each sample",
                label(Vec::new()),
                s.queue_depth as u64,
            );
            snap.push_labelled(
                "acsim_serve_sample_batch_window",
                "adaptive batch window at each sample",
                label(Vec::new()),
                s.batch_window as u64,
            );
            snap.push_labelled(
                "acsim_serve_sample_drain_jobs_per_sec",
                "completions per second inside each sample interval",
                label(Vec::new()),
                s.drain_rate_per_sec,
            );
            snap.push_labelled(
                "acsim_serve_sample_completed_total",
                "cumulative completed jobs at each sample",
                label(Vec::new()),
                s.completed,
            );
            snap.push_labelled(
                "acsim_serve_sample_breaker_state",
                "breaker state at each sample",
                label(vec![("state".to_string(), s.breaker.label().to_string())]),
                match s.breaker {
                    BreakerState::Closed => 0u64,
                    BreakerState::HalfOpen => 1u64,
                    BreakerState::Open => 2u64,
                },
            );
        }
        snap
    }
}

fn arg_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            ArgValue::F64(f) if f.is_finite() && *f >= 0.0 => Some(f.round() as u64),
            _ => None,
        })
}

fn arg_f64(ev: &TraceEvent, key: &str) -> Option<f64> {
    ev.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ArgValue::F64(f) => Some(*f),
            ArgValue::U64(n) => Some(*n as f64),
            _ => None,
        })
}

fn arg_str<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a str> {
    ev.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ArgValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// Render the incident narrative of a stitched serving trace whose
/// timestamps are in microseconds (i.e. parsed with
/// `trace::parse_chrome_json(json, 1.0)` from a trace written by
/// [`TelemetryRun::chrome_json`]). Degrades gracefully: a clean run
/// reports "breaker: no transitions" instead of an empty timeline.
pub fn render_slo_report(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let spans = events.iter().filter(|e| e.ph == Phase::Complete).count();
    out.push_str(&format!(
        "slo-report: {} events ({} spans) in the stitched trace\n\n",
        events.len(),
        spans
    ));

    // Breaker timeline from control-plane instants. Fleet traces carry a
    // `device=` arg on each instant (one breaker per device): those are
    // grouped into one timeline section per device pid plane; a
    // single-device trace (no device args) keeps the flat timeline.
    let mut transitions: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            e.pid == PID_SERVE_CONTROL && e.ph == Phase::Instant && e.name.starts_with("breaker-")
        })
        .collect();
    transitions.sort_by_key(|e| e.ts);
    if transitions.is_empty() {
        out.push_str("breaker: no transitions (never opened)\n");
    } else {
        let mut by_device: BTreeMap<Option<u64>, Vec<&TraceEvent>> = BTreeMap::new();
        for t in &transitions {
            by_device.entry(arg_u64(t, "device")).or_default().push(t);
        }
        for (device, group) in &by_device {
            match device {
                Some(d) => out.push_str(&format!("breaker timeline: device {}\n", d)),
                None => out.push_str("breaker timeline:\n"),
            }
            for t in group {
                let state = t.name.trim_start_matches("breaker-");
                let reason = arg_str(t, "reason").unwrap_or("");
                out.push_str(&format!("  t={:>8} us  {:<9}  {}\n", t.ts, state, reason));
            }
            let opens: Vec<u64> = group
                .iter()
                .filter(|t| t.name == "breaker-open")
                .map(|t| t.ts)
                .collect();
            let closes: Vec<u64> = group
                .iter()
                .filter(|t| t.name == "breaker-closed")
                .map(|t| t.ts)
                .collect();
            let label = match device {
                Some(d) => format!("degraded window (device {})", d),
                None => "degraded window".to_string(),
            };
            if let (Some(&first_open), Some(&last_close)) = (opens.first(), closes.last()) {
                out.push_str(&format!(
                    "{}: {}-{} us ({} us)\n",
                    label,
                    first_open,
                    last_close,
                    last_close.saturating_sub(first_open)
                ));
            } else if !opens.is_empty() {
                out.push_str(&format!(
                    "{}: breaker opened but never closed in-run\n",
                    label
                ));
            }
        }
    }
    out.push('\n');

    // Sampled p99 / queue depth from control-plane counters.
    let series = |name: &str| -> Vec<(u64, u64)> {
        let mut s: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.pid == PID_SERVE_CONTROL && e.ph == Phase::Counter && e.name == name)
            .filter_map(|e| arg_u64(e, "value").map(|v| (e.ts, v)))
            .collect();
        s.sort_by_key(|(ts, _)| *ts);
        s
    };
    let p99 = series("p99-us");
    if let Some(&(peak_t, peak)) = p99.iter().max_by_key(|(_, v)| *v) {
        out.push_str(&format!(
            "p99 (sampled): start {} us, peak {} us at t={} us, final {} us over {} samples\n",
            p99.first().map(|&(_, v)| v).unwrap_or(0),
            peak,
            peak_t,
            p99.last().map(|&(_, v)| v).unwrap_or(0),
            p99.len()
        ));
    } else {
        out.push_str("p99 (sampled): no samples\n");
    }
    let depth = series("queue-depth");
    if let Some(&(peak_t, peak)) = depth.iter().max_by_key(|(_, v)| *v) {
        out.push_str(&format!("queue depth: peak {} at t={} us\n", peak, peak_t));
    }

    // Admission outcomes from job-plane instants, sheds split by class.
    let mut sheds_by_priority: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rejected = 0u64;
    let mut expired = 0u64;
    for e in events.iter().filter(|e| e.pid == PID_SERVE_JOBS) {
        match e.name.as_str() {
            "shed" => *sheds_by_priority.entry(e.tid).or_insert(0) += 1,
            "rejected" => rejected += 1,
            "expired" => expired += 1,
            _ => {}
        }
    }
    let shed_total: u64 = sheds_by_priority.values().sum();
    out.push_str(&format!(
        "admission: {} shed, {} rejected, {} expired\n",
        shed_total, rejected, expired
    ));
    for (priority, count) in &sheds_by_priority {
        out.push_str(&format!("  shed priority {}: {} jobs\n", priority, count));
    }
    out.push('\n');

    // Pattern-cost attribution from the observer replay, if one ran.
    let mut pattern_costs: Vec<(&str, u64)> = events
        .iter()
        .filter(|e| e.pid == PID_SERVE_CONTROL && e.ph == Phase::Counter)
        .filter_map(|e| {
            e.name
                .strip_prefix("pattern-cost:")
                .and_then(|p| arg_u64(e, "value").map(|v| (p, v)))
        })
        .collect();
    if pattern_costs.is_empty() {
        out.push_str("pattern cost: no attribution replay recorded\n");
    } else {
        pattern_costs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let total: u64 = pattern_costs.iter().map(|(_, v)| v).sum();
        out.push_str("dominant pattern cost (attributed device cycles):\n");
        for (pattern, cycles) in pattern_costs.iter().take(5) {
            out.push_str(&format!(
                "  {:<24} {:>10} cycles ({:.1}%)\n",
                pattern,
                cycles,
                100.0 * *cycles as f64 / total.max(1) as f64
            ));
        }
    }
    out.push('\n');

    // Device-pool counters from the post-run stats flush, if a pool ran.
    let pool_counter = |name: &str| -> Option<u64> {
        events
            .iter()
            .filter(|e| e.pid == PID_SERVE_CONTROL && e.ph == Phase::Counter && e.name == name)
            .filter_map(|e| arg_u64(e, "value"))
            .next_back()
    };
    if let (Some(acquires), Some(hits), Some(misses)) = (
        pool_counter("pool-acquires"),
        pool_counter("pool-hits"),
        pool_counter("pool-misses"),
    ) {
        out.push_str(&format!(
            "device pool: {} acquires ({} hits, {} misses, {}% hit rate)\n",
            acquires,
            hits,
            misses,
            pool_counter("pool-hit-rate-pct").unwrap_or(0),
        ));
        if let Some(hw) = pool_counter("pool-high-water-bytes") {
            out.push_str(&format!("  high water: {} device bytes\n", hw));
        }
        out.push('\n');
    }

    // Worst-latency exemplars per flight-recorder window.
    let mut exemplars: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.pid == PID_SERVE_SLO && e.ph == Phase::Complete)
        .collect();
    if exemplars.is_empty() {
        out.push_str("exemplars: none recorded\n");
    } else {
        exemplars.sort_by(|a, b| {
            let wa = arg_u64(a, "window").unwrap_or(0);
            let wb = arg_u64(b, "window").unwrap_or(0);
            wa.cmp(&wb).then(
                arg_f64(b, "latency_us")
                    .unwrap_or(0.0)
                    .partial_cmp(&arg_f64(a, "latency_us").unwrap_or(0.0))
                    .expect("latencies are finite"),
            )
        });
        out.push_str("worst-latency exemplars:\n");
        let mut current_window = u64::MAX;
        for ex in &exemplars {
            let window = arg_u64(ex, "window").unwrap_or(0);
            if window != current_window {
                current_window = window;
                out.push_str(&format!("  window {}:\n", window));
            }
            out.push_str(&format!(
                "    job {} prio {}: latency {:.0} us (queued {:.0}, service {:.0}) via {}, batch of {}, {} retries\n",
                arg_u64(ex, "job").unwrap_or(0),
                arg_u64(ex, "priority").unwrap_or(0),
                arg_f64(ex, "latency_us").unwrap_or(0.0),
                arg_f64(ex, "queue_wait_us").unwrap_or(0.0),
                arg_f64(ex, "service_us").unwrap_or(0.0),
                arg_str(ex, "served_by").unwrap_or("?"),
                arg_u64(ex, "batch_jobs").unwrap_or(0),
                arg_u64(ex, "retries").unwrap_or(0),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TelemetryConfig {
        TelemetryConfig {
            sample_interval_seconds: 1.0,
            latency_window: 4,
            exemplars_per_window: 2,
            exemplar_window_seconds: 10.0,
            max_trace_events: 1 << 16,
            attribution_sample_bytes: 4 << 10,
        }
    }

    fn outcome(id: u64, completed: f64, latency: f64) -> JobOutcome {
        JobOutcome {
            id,
            matches: Vec::new(),
            completed_seconds: completed,
            latency_seconds: latency,
            batch_jobs: 1,
            stream: 0,
            served_by: ServedBy::Gpu,
        }
    }

    #[test]
    fn registry_samples_on_cadence_and_reports_windowed_drain() {
        let mut r = MetricsRegistry::new(&cfg());
        r.observe_completion(0, 0.5);
        r.observe_completion(1, 1.5);
        r.sample_until(2.0, 3, 4, BreakerState::Closed, false);
        // Samples due at t=1 and t=2.
        assert_eq!(r.samples().len(), 2);
        let first = r.samples()[0];
        assert_eq!(first.t_seconds, 1.0);
        assert_eq!(first.completed, 2);
        assert_eq!(first.drain_rate_per_sec, 2.0);
        assert_eq!(first.queue_depth, 3);
        // Second interval drained nothing.
        assert_eq!(r.samples()[1].drain_rate_per_sec, 0.0);
        // p99 over {0.5, 1.5} seconds → 1.5e6 us.
        assert_eq!(first.p99_us, 1.5e6);
        // A closing call at a sample time adds nothing; past it, one
        // sample at `now` over the partial interval.
        r.sample_until(2.0, 0, 4, BreakerState::Closed, true);
        assert_eq!(r.samples().len(), 2);
        r.observe_completion(0, 0.1);
        r.sample_until(2.5, 0, 4, BreakerState::Closed, true);
        assert_eq!(r.samples().len(), 3);
        let last = r.samples()[2];
        assert_eq!((last.t_seconds, last.completed), (2.5, 3));
        assert_eq!(last.drain_rate_per_sec, 2.0);
        // The cadence carries on from where it was.
        r.sample_until(3.0, 0, 4, BreakerState::Closed, false);
        assert_eq!(r.samples()[3].t_seconds, 3.0);
    }

    #[test]
    fn flight_recorder_keeps_the_worst_n_per_window() {
        let mut t = ServeTelemetry::new(cfg(), 1.0e6);
        let job = ScanJob::new(0, Vec::new(), 0.0);
        // Three completions in window 0; capacity 2 keeps the two worst.
        for (id, latency) in [(1u64, 0.3), (2, 0.9), (3, 0.6)] {
            let mut j = job.clone();
            j.id = id;
            t.job_completed(&j, &outcome(id, 1.0, latency), 0.5, 0);
        }
        // One more in window 1 (completed at 15s, window width 10s).
        t.job_completed(&job, &outcome(9, 15.0, 0.1), 14.0, 0);
        let run = t.finish(&[]);
        let kept: Vec<(u64, u64)> = run.exemplars.iter().map(|e| (e.window, e.job_id)).collect();
        assert_eq!(kept, vec![(0, 2), (0, 3), (1, 9)]);
    }

    #[test]
    fn spans_nest_queue_wait_before_service() {
        let mut t = ServeTelemetry::new(cfg(), 1.0e6);
        let job = ScanJob::new(7, Vec::new(), 1.0).with_priority(2);
        t.batch_formed("batch0", std::slice::from_ref(&job), 3.0, "gpu");
        t.job_completed(&job, &outcome(7, 5.0, 4.0), 3.0, 1);
        let run = t.finish(&[]);
        let find = |name: &str| {
            run.trace
                .events()
                .iter()
                .find(|e| e.name == name)
                .expect("span recorded")
                .clone()
        };
        let wait = find("queue-wait");
        let service = find("service");
        assert_eq!(wait.pid, PID_SERVE_JOBS);
        assert_eq!(wait.tid, 2);
        // The service span starts exactly where the queue wait ends.
        assert_eq!(wait.ts + wait.dur, service.ts);
        assert_eq!(arg_u64(&service, "retries"), Some(1));
    }

    #[test]
    fn slo_report_renders_breaker_and_exemplars() {
        let mut t = ServeTelemetry::new(cfg(), 1.0e6);
        let job = ScanJob::new(3, Vec::new(), 0.0);
        t.job_completed(&job, &outcome(3, 2.0, 2.0), 1.0, 0);
        t.tick(2.0, 5, 8, BreakerState::Open);
        let transitions = vec![
            BreakerTransition {
                at_seconds: 0.5,
                to: BreakerState::Open,
                reason: "3 consecutive batch failures".to_string(),
            },
            BreakerTransition {
                at_seconds: 1.5,
                to: BreakerState::HalfOpen,
                reason: "cooldown elapsed".to_string(),
            },
            BreakerTransition {
                at_seconds: 1.8,
                to: BreakerState::Closed,
                reason: "2 probe successes".to_string(),
            },
        ];
        let run = t.finish(&[(&transitions, &StreamTimeline::default())]);
        // Round-trip through the Chrome exporter exactly as the CLI does.
        let json = run.chrome_json();
        let events = trace::parse_chrome_json(&json, 1.0).expect("parses");
        let report = render_slo_report(&events);
        assert!(report.contains("breaker timeline:"), "{report}");
        assert!(report.contains("open"), "{report}");
        assert!(report.contains("half-open"), "{report}");
        assert!(report.contains("closed"), "{report}");
        assert!(report.contains("degraded window:"), "{report}");
        assert!(report.contains("worst-latency exemplars:"), "{report}");
        assert!(report.contains("job 3"), "{report}");
        // A clean trace degrades gracefully.
        let clean = render_slo_report(&[]);
        assert!(clean.contains("no transitions"), "{clean}");
    }

    #[test]
    fn slo_report_groups_breaker_timelines_per_device() {
        // A fleet trace carries `device=` args on its breaker instants
        // (one breaker per device pid plane): the renderer must split the
        // timeline into one section per device, each with its own
        // degraded window, instead of interleaving unrelated breakers.
        let mut t = ServeTelemetry::new(cfg(), 1.0e6);
        t.tick(3.0, 0, 1, BreakerState::Closed);
        let d0 = [
            BreakerTransition {
                at_seconds: 0.5,
                to: BreakerState::Open,
                reason: "3 consecutive batch failures".to_string(),
            },
            BreakerTransition {
                at_seconds: 1.5,
                to: BreakerState::Closed,
                reason: "2 probe successes".to_string(),
            },
        ];
        let d1 = [BreakerTransition {
            at_seconds: 2.5,
            to: BreakerState::Open,
            reason: "watchdog kill".to_string(),
        }];
        let idle = StreamTimeline::default();
        let run = t.finish(&[(&d0, &idle), (&d1, &idle)]);
        let json = run.chrome_json();
        let events = trace::parse_chrome_json(&json, 1.0).expect("parses");
        let report = render_slo_report(&events);
        assert!(report.contains("breaker timeline: device 0"), "{report}");
        assert!(report.contains("breaker timeline: device 1"), "{report}");
        // Device 0 recovered; device 1 stayed open — the windows differ.
        assert!(report.contains("degraded window (device 0):"), "{report}");
        assert!(
            report.contains("degraded window (device 1): breaker opened but never closed in-run"),
            "{report}"
        );
        assert!(report.contains("watchdog kill"), "{report}");
        // A single-device trace keeps the flat (unsectioned) heading.
        let mut t1 = ServeTelemetry::new(cfg(), 1.0e6);
        t1.tick(1.0, 0, 1, BreakerState::Closed);
        let single = t1.finish(&[(&d0[..1], &idle)]);
        let events = trace::parse_chrome_json(&single.chrome_json(), 1.0).expect("parses");
        let flat = render_slo_report(&events);
        assert!(flat.contains("breaker timeline:\n"), "{flat}");
        assert!(!flat.contains("device"), "{flat}");
    }

    #[test]
    fn empty_latency_window_exports_without_nan_or_inf() {
        // No completions at all: every quantile window is empty, yet the
        // sampled series and both renderings must stay finite — an
        // idle-server scrape cannot poison a Prometheus ingest.
        let mut t = ServeTelemetry::new(cfg(), 1.0e6);
        t.tick(3.0, 0, 1, BreakerState::Closed);
        let run = t.finish(&[]);
        assert!(!run.samples.is_empty());
        for s in run.samples.iter() {
            assert_eq!(s.p50_us, 0.0);
            assert_eq!(s.p99_us, 0.0);
            assert!(s.drain_rate_per_sec.is_finite());
        }
        let snap = run.metrics_snapshot(&ServeReport::default());
        for m in snap.metrics() {
            if let trace::MetricValue::F64(f) = m.value {
                assert!(f.is_finite(), "non-finite {}: {f}", m.name);
            }
        }
        let prom = snap.to_prometheus();
        assert!(!prom.contains("NaN"), "{prom}");
        assert!(!prom.contains("Inf"), "{prom}");
    }

    #[test]
    fn per_priority_series_are_stable_across_identical_runs() {
        // The per-priority windows live in a BTreeMap, so the exported
        // label sets are ordered and two identical runs render the same
        // exposition text byte-for-byte — scrape-to-scrape series never
        // flap.
        let record = |t: &mut ServeTelemetry| {
            for (id, priority, latency) in [(1u64, 2u8, 0.4), (2, 0, 0.2), (3, 1, 0.3)] {
                let mut j = ScanJob::new(id, Vec::new(), 0.0);
                j.priority = priority;
                t.job_completed(&j, &outcome(id, 1.0, latency), 0.5, 0);
            }
            t.tick(1.0, 0, 1, BreakerState::Closed);
        };
        let mut a = ServeTelemetry::new(cfg(), 1.0e6);
        record(&mut a);
        let mut b = ServeTelemetry::new(cfg(), 1.0e6);
        record(&mut b);
        let run_a = a.finish(&[]);
        let run_b = b.finish(&[]);
        // Priorities come out sorted regardless of completion order.
        let prios: Vec<u8> = run_a.per_priority_p99_us.iter().map(|(p, _)| *p).collect();
        assert_eq!(prios, vec![0, 1, 2]);
        let snap_a = run_a.metrics_snapshot(&ServeReport::default());
        let snap_b = run_b.metrics_snapshot(&ServeReport::default());
        assert_eq!(snap_a.to_prometheus(), snap_b.to_prometheus());
        assert_eq!(snap_a.to_json(), snap_b.to_json());
    }

    #[test]
    fn metrics_snapshot_carries_series_and_priority_windows() {
        let mut t = ServeTelemetry::new(cfg(), 1.0e6);
        let job = ScanJob::new(0, Vec::new(), 0.0).with_priority(1);
        t.job_completed(&job, &outcome(0, 1.0, 1.0), 0.5, 0);
        t.tick(1.0, 2, 4, BreakerState::Closed);
        let run = t.finish(&[]);
        let snap = run.metrics_snapshot(&ServeReport::default());
        assert!(snap
            .get("acsim_serve_priority_p99_us", &[("priority", "1")])
            .is_some());
        assert!(snap
            .get("acsim_serve_sample_p99_us", &[("sample", "0")])
            .is_some());
        // Both renderings stay well-formed.
        assert!(snap.to_prometheus().contains("acsim_serve_sample_p99_us"));
        assert!(snap.to_json().contains("acsim_serve_priority_p99_us"));
    }
}
