//! Streams: in-order command queues with cross-stream overlap.
//!
//! CUDA exposes concurrency between host↔device copies and kernel
//! execution through *streams*: each stream is an in-order queue of
//! operations, and operations from different streams may overlap when
//! they occupy different hardware engines. On the GT200 there are exactly
//! two such engines — one DMA copy engine and the compute engine — so at
//! any instant at most one copy and one kernel are in flight, regardless
//! of how many streams the host created. This module models that shape:
//!
//! * [`StreamEngine`] — a deterministic event-timeline scheduler. Ops are
//!   submitted in host issue order; each op starts at the latest of its
//!   stream's readiness (program order), its engine's availability (the
//!   single DMA/compute queue is FIFO in issue order, which also
//!   reproduces the classic head-of-line "false dependency" of
//!   single-queue hardware), any awaited events, and an optional
//!   host-side release time.
//! * [`StreamTimeline`] — the scheduled ops with start/end times, busy
//!   accounting per engine, and a Chrome trace-event export
//!   ([`StreamTimeline::to_trace`]) whose rows are one pid per stream so
//!   the overlap is visible in Perfetto.
//!
//! Time is modelled in *seconds* (f64) rather than device cycles because
//! the timeline spans two clock domains — PCIe copies and kernel
//! execution; the trace export quantizes to cycles only for display.
//! Everything is deterministic: identical submissions yield identical
//! timelines.

use serde::{Deserialize, Serialize};
use trace::{ArgValue, TraceBuffer, TraceConfig};

/// First Chrome-trace pid used for per-stream rows (pids 0/1 are the
/// host/device rows of kernel traces, pids 2–4 the serving-telemetry
/// rows). Stream rows must stay above every reserved pid so a stitched
/// serving trace keeps job lifecycle tracks and stream-op tracks in
/// disjoint pid ranges.
pub const PID_STREAM_BASE: u32 = 16;
const _: () = assert!(PID_STREAM_BASE >= trace::PID_SERVE_LIMIT);

/// Pid stride between devices in a stitched multi-device trace: device
/// `d`'s stream rows live at pids `device_pid_base(d) ..
/// device_pid_base(d) + DEVICE_PID_STRIDE`, so a fleet trace keeps each
/// device's streams in its own disjoint pid plane. Device 0's plane is
/// exactly the single-device plane ([`PID_STREAM_BASE`]).
pub const DEVICE_PID_STRIDE: u32 = 16;

/// First Chrome-trace pid for `device`'s stream rows.
pub fn device_pid_base(device: u32) -> u32 {
    PID_STREAM_BASE + device * DEVICE_PID_STRIDE
}

/// What an operation does, which determines the engine it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamOpKind {
    /// Host→device copy (DMA engine).
    CopyH2D,
    /// Device→host copy (same single DMA engine on GT200).
    CopyD2H,
    /// Kernel execution (compute engine).
    Kernel,
}

impl StreamOpKind {
    /// The hardware engine this op occupies.
    pub fn engine(self) -> EngineKind {
        match self {
            StreamOpKind::CopyH2D | StreamOpKind::CopyD2H => EngineKind::Copy,
            StreamOpKind::Kernel => EngineKind::Compute,
        }
    }

    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            StreamOpKind::CopyH2D => "h2d",
            StreamOpKind::CopyD2H => "d2h",
            StreamOpKind::Kernel => "kernel",
        }
    }
}

/// The two overlap-capable hardware resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// The single DMA copy engine.
    Copy,
    /// The compute engine.
    Compute,
}

/// A scheduled operation on the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// Stream the op was issued to.
    pub stream: u32,
    /// Operation kind.
    pub kind: StreamOpKind,
    /// Caller-supplied label (e.g. `"seg3"` or `"batch12"`).
    pub label: String,
    /// Scheduled start time in seconds.
    pub start: f64,
    /// Scheduled end time in seconds.
    pub end: f64,
    /// Payload bytes (0 for kernels).
    pub bytes: u64,
    /// The kernel a [`StreamEngine::submit_kernel`] op ran (`pfac`,
    /// `shared-diagonal`, …); traces carry it as a `kernel` arg.
    #[serde(default)]
    pub kernel: Option<String>,
    /// Bytes a kernel op wrote straight into mapped pinned host memory
    /// after its last cycle, within the op (0 for a kernel whose frame a
    /// `d2h` copies back, and for copies); traces carry it as a
    /// `mapped_bytes` arg.
    #[serde(default)]
    pub mapped_bytes: u64,
}

impl ScheduledOp {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// An event recorded on a stream ([`StreamEngine::record_event`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(usize);

/// Deterministic stream scheduler: two engines, N in-order streams.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    /// Per-stream readiness (end of the last op issued to it).
    stream_ready: Vec<f64>,
    /// When the copy engine finishes its last issued op.
    copy_free: f64,
    /// When the compute engine finishes its last issued op.
    compute_free: f64,
    /// Completion time of each recorded event.
    events: Vec<f64>,
    /// Events the *next* op on each stream must wait for.
    pending_waits: Vec<Vec<usize>>,
    ops: Vec<ScheduledOp>,
}

impl StreamEngine {
    /// An engine with `streams` empty in-order queues (at least one).
    pub fn new(streams: u32) -> Self {
        let n = streams.max(1) as usize;
        StreamEngine {
            stream_ready: vec![0.0; n],
            copy_free: 0.0,
            compute_free: 0.0,
            events: Vec::new(),
            pending_waits: vec![Vec::new(); n],
            ops: Vec::new(),
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> u32 {
        self.stream_ready.len() as u32
    }

    /// When `stream`'s last issued op completes.
    pub fn stream_ready(&self, stream: u32) -> f64 {
        self.stream_ready[stream as usize]
    }

    /// The stream that becomes idle first (lowest id on ties) and when.
    pub fn next_free_stream(&self) -> (u32, f64) {
        let mut best = (0u32, self.stream_ready[0]);
        for (i, &t) in self.stream_ready.iter().enumerate().skip(1) {
            if t < best.1 {
                best = (i as u32, t);
            }
        }
        best
    }

    /// When `engine` finishes its last issued op.
    pub fn engine_free(&self, engine: EngineKind) -> f64 {
        match engine {
            EngineKind::Copy => self.copy_free,
            EngineKind::Compute => self.compute_free,
        }
    }

    /// When an op of `kind` submitted to `stream` with host release time
    /// `not_before` would start, without scheduling anything. This is the
    /// exact start computation of [`StreamEngine::submit_at`] (stream
    /// program order, awaited events, engine FIFO availability) with no
    /// state mutated — a fleet dispatcher uses it to ask a shared bus
    /// arbiter for a release time and then submits at the granted time.
    pub fn earliest_start(&self, stream: u32, kind: StreamOpKind, not_before: f64) -> f64 {
        let s = stream as usize;
        let mut ready = self.stream_ready[s].max(not_before);
        for &ev in &self.pending_waits[s] {
            ready = ready.max(self.events[ev]);
        }
        ready.max(self.engine_free(kind.engine()))
    }

    /// Submit an op released to the device at time 0.
    pub fn submit(
        &mut self,
        stream: u32,
        kind: StreamOpKind,
        label: &str,
        seconds: f64,
        bytes: u64,
    ) -> ScheduledOp {
        self.submit_at(stream, kind, label, seconds, bytes, 0.0)
    }

    /// Submit a kernel op released at time 0 that records which kernel
    /// ran ([`ScheduledOp::kernel`]) and the bytes it wrote into mapped
    /// host memory within its `seconds` ([`ScheduledOp::mapped_bytes`]).
    pub fn submit_kernel(
        &mut self,
        stream: u32,
        label: &str,
        kernel: &str,
        seconds: f64,
        mapped_bytes: u64,
    ) -> ScheduledOp {
        self.submit(stream, StreamOpKind::Kernel, label, seconds, 0);
        let op = self.ops.last_mut().expect("submit pushed the op");
        op.kernel = Some(kernel.to_string());
        op.mapped_bytes = mapped_bytes;
        op.clone()
    }

    /// Submit an op the host releases no earlier than `not_before`
    /// seconds (e.g. a serve batch dispatched when its jobs arrived).
    ///
    /// The op starts at the latest of: `not_before`, the stream's program
    /// order, awaited events, and its engine's FIFO availability.
    pub fn submit_at(
        &mut self,
        stream: u32,
        kind: StreamOpKind,
        label: &str,
        seconds: f64,
        bytes: u64,
        not_before: f64,
    ) -> ScheduledOp {
        assert!(seconds >= 0.0, "op duration must be non-negative");
        let s = stream as usize;
        let mut ready = self.stream_ready[s].max(not_before);
        for ev in self.pending_waits[s].drain(..) {
            ready = ready.max(self.events[ev]);
        }
        let engine_free = match kind.engine() {
            EngineKind::Copy => &mut self.copy_free,
            EngineKind::Compute => &mut self.compute_free,
        };
        let start = ready.max(*engine_free);
        let end = start + seconds;
        *engine_free = end;
        self.stream_ready[s] = end;
        let op = ScheduledOp {
            stream,
            kind,
            label: label.to_string(),
            start,
            end,
            bytes,
            kernel: None,
            mapped_bytes: 0,
        };
        self.ops.push(op.clone());
        op
    }

    /// Record an event that completes when everything issued to `stream`
    /// so far has completed (CUDA `cudaEventRecord`).
    pub fn record_event(&mut self, stream: u32) -> EventId {
        self.events.push(self.stream_ready[stream as usize]);
        EventId(self.events.len() - 1)
    }

    /// Make the next op submitted to `stream` wait for `event`
    /// (CUDA `cudaStreamWaitEvent`).
    pub fn wait_event(&mut self, stream: u32, event: EventId) {
        self.pending_waits[stream as usize].push(event.0);
    }

    /// Completion time of a recorded event.
    pub fn event_seconds(&self, event: EventId) -> f64 {
        self.events[event.0]
    }

    /// Finish submission and return the timeline.
    pub fn finish(self) -> StreamTimeline {
        StreamTimeline {
            streams: self.stream_ready.len() as u32,
            ops: self.ops,
        }
    }
}

/// The complete scheduled timeline of a [`StreamEngine`] run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamTimeline {
    /// Number of streams the engine was created with.
    pub streams: u32,
    /// Every op in issue order, with scheduled times.
    pub ops: Vec<ScheduledOp>,
}

impl StreamTimeline {
    /// Makespan: when the last op completes.
    pub fn total_seconds(&self) -> f64 {
        self.ops.iter().fold(0.0, |acc, o| acc.max(o.end))
    }

    /// What the same ops would take end-to-end with no overlap at all:
    /// the left fold of durations in issue order (so a one-stream
    /// schedule, which cannot overlap anything, equals this exactly).
    pub fn serial_seconds(&self) -> f64 {
        self.ops.iter().fold(0.0, |acc, o| acc + o.seconds())
    }

    /// Total busy seconds of one engine.
    pub fn busy_seconds(&self, engine: EngineKind) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.kind.engine() == engine)
            .fold(0.0, |acc, o| acc + o.seconds())
    }

    /// Busy fraction of one engine over the makespan, in [0, 1].
    pub fn utilisation(&self, engine: EngineKind) -> f64 {
        let total = self.total_seconds();
        if total <= 0.0 {
            0.0
        } else {
            self.busy_seconds(engine) / total
        }
    }

    /// Seconds saved by overlap relative to the fully serial schedule.
    pub fn overlap_saved_seconds(&self) -> f64 {
        self.serial_seconds() - self.total_seconds()
    }

    /// Export as Chrome trace events: one pid per stream
    /// ([`PID_STREAM_BASE`]` + stream`), timestamps quantized to cycles
    /// at `clock_hz`. Load the result of
    /// [`trace::to_chrome_json`] in Perfetto to see copies and
    /// kernels from different streams overlapping.
    pub fn to_trace(&self, clock_hz: f64, cfg: TraceConfig) -> TraceBuffer {
        let mut tb = TraceBuffer::new(cfg);
        self.append_trace(&mut tb, clock_hz);
        tb
    }

    /// Append this timeline's ops into an existing buffer (same pid/cycle
    /// convention as [`StreamTimeline::to_trace`]). This is how the
    /// serving telemetry stitches per-job lifecycle spans (pids 2–4) and
    /// the stream ops that served them (pids ≥ [`PID_STREAM_BASE`]) into
    /// one Chrome trace.
    pub fn append_trace(&self, tb: &mut TraceBuffer, clock_hz: f64) {
        self.append_trace_with_base(tb, clock_hz, PID_STREAM_BASE);
    }

    /// Like [`StreamTimeline::append_trace`], but rooted at an arbitrary
    /// pid plane. Fleet traces stitch device `d`'s timeline at
    /// [`device_pid_base`]`(d)` so each device's streams stay visually
    /// and programmatically separable.
    pub fn append_trace_with_base(&self, tb: &mut TraceBuffer, clock_hz: f64, pid_base: u32) {
        for op in &self.ops {
            let start = (op.start * clock_hz).round() as u64;
            let dur = (op.seconds() * clock_hz).round() as u64;
            let mut args = vec![(
                "engine".to_string(),
                ArgValue::Str(
                    match op.kind.engine() {
                        EngineKind::Copy => "copy",
                        EngineKind::Compute => "compute",
                    }
                    .to_string(),
                ),
            )];
            if op.bytes > 0 {
                args.push(("bytes".to_string(), ArgValue::U64(op.bytes)));
            }
            if let Some(kernel) = &op.kernel {
                args.push(("kernel".to_string(), ArgValue::Str(kernel.clone())));
            }
            if op.mapped_bytes > 0 {
                args.push(("mapped_bytes".to_string(), ArgValue::U64(op.mapped_bytes)));
            }
            tb.span(
                &format!("{}:{}", op.kind.label(), op.label),
                "stream",
                pid_base + op.stream,
                0,
                start,
                dur,
                args,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(sec: f64) -> (StreamOpKind, f64) {
        (StreamOpKind::Kernel, sec)
    }

    #[test]
    fn single_stream_is_fully_serial() {
        let mut e = StreamEngine::new(1);
        e.submit(0, StreamOpKind::CopyH2D, "a", 2.0, 100);
        e.submit(0, StreamOpKind::Kernel, "a", 3.0, 0);
        e.submit(0, StreamOpKind::CopyD2H, "a", 1.0, 10);
        let t = e.finish();
        assert_eq!(t.total_seconds(), 6.0);
        assert_eq!(t.serial_seconds(), 6.0);
        assert_eq!(t.overlap_saved_seconds(), 0.0);
    }

    #[test]
    fn two_streams_overlap_copy_with_compute() {
        // Stream 0: copy 2s + kernel 3s; stream 1 the same. The copy
        // engine runs stream 1's upload while stream 0's kernel runs.
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "s0", 2.0, 0);
        e.submit(1, StreamOpKind::CopyH2D, "s1", 2.0, 0);
        e.submit(0, StreamOpKind::Kernel, "s0", 3.0, 0);
        e.submit(1, StreamOpKind::Kernel, "s1", 3.0, 0);
        let t = e.finish();
        // u0 [0,2], u1 [2,4], k0 [2,5], k1 [5,8] vs 10s serial.
        assert_eq!(t.total_seconds(), 8.0);
        assert_eq!(t.serial_seconds(), 10.0);
        assert_eq!(t.busy_seconds(EngineKind::Copy), 4.0);
        assert_eq!(t.busy_seconds(EngineKind::Compute), 6.0);
    }

    #[test]
    fn copies_serialize_on_the_single_dma_engine() {
        // Two streams, copies only: no overlap is possible.
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "a", 2.0, 0);
        e.submit(1, StreamOpKind::CopyH2D, "b", 2.0, 0);
        e.submit(0, StreamOpKind::CopyD2H, "a", 2.0, 0);
        let t = e.finish();
        assert_eq!(t.total_seconds(), 6.0);
        assert_eq!(t.utilisation(EngineKind::Copy), 1.0);
        assert_eq!(t.utilisation(EngineKind::Compute), 0.0);
    }

    #[test]
    fn issue_order_fifo_creates_false_dependencies() {
        // The classic single-queue hazard: a d2h issued *before* another
        // stream's h2d blocks it even though the engine is idle when the
        // d2h is still waiting on its kernel.
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "a", 1.0, 0);
        e.submit(0, StreamOpKind::Kernel, "a", 10.0, 0);
        e.submit(0, StreamOpKind::CopyD2H, "a", 1.0, 0); // waits for kernel
        let held = e.submit(1, StreamOpKind::CopyH2D, "b", 1.0, 0);
        // d2h starts at 11 (after the kernel); the FIFO copy queue holds
        // stream 1's upload behind it even though the DMA engine idled
        // from 1 to 11.
        assert_eq!(held.start, 12.0);
    }

    #[test]
    fn events_order_across_streams() {
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::Kernel, "a", 5.0, 0);
        let ev = e.record_event(0);
        e.wait_event(1, ev);
        let dep = e.submit(1, StreamOpKind::Kernel, "b", 1.0, 0);
        assert_eq!(e.event_seconds(ev), 5.0);
        assert_eq!(dep.start, 5.0);
        assert_eq!(dep.end, 6.0);
    }

    #[test]
    fn not_before_releases_ops_late() {
        let mut e = StreamEngine::new(1);
        let op = e.submit_at(0, StreamOpKind::Kernel, "late", 1.0, 0, 7.0);
        assert_eq!(op.start, 7.0);
        // The next op queues behind it in program order.
        let (kind, sec) = k(2.0);
        let op2 = e.submit(0, kind, "tail", sec, 0);
        assert_eq!(op2.start, 8.0);
    }

    #[test]
    fn next_free_stream_prefers_lowest_id() {
        let mut e = StreamEngine::new(3);
        e.submit(0, StreamOpKind::Kernel, "a", 5.0, 0);
        e.submit(2, StreamOpKind::Kernel, "c", 1.0, 0);
        let (s, at) = e.next_free_stream();
        assert_eq!((s, at), (1, 0.0));
    }

    #[test]
    fn trace_export_carries_one_pid_per_stream() {
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "s0", 1.0, 64);
        e.submit(1, StreamOpKind::Kernel, "s1", 2.0, 0);
        let t = e.finish();
        let tb = t.to_trace(1.0e6, TraceConfig::default());
        assert_eq!(tb.len(), 2);
        let pids: Vec<u32> = tb.events().iter().map(|ev| ev.pid).collect();
        assert!(pids.contains(&PID_STREAM_BASE));
        assert!(pids.contains(&(PID_STREAM_BASE + 1)));
    }

    #[test]
    fn earliest_start_matches_submit_at_without_mutating() {
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "a", 2.0, 64);
        e.submit(0, StreamOpKind::Kernel, "a", 10.0, 0);
        let ev = e.record_event(0);
        e.wait_event(1, ev);
        for &(stream, kind, not_before) in &[
            (1, StreamOpKind::CopyH2D, 0.5),
            (1, StreamOpKind::Kernel, 0.0),
            (0, StreamOpKind::CopyD2H, 3.0),
        ] {
            let predicted = e.earliest_start(stream, kind, not_before);
            let mut probe = e.clone();
            let op = probe.submit_at(stream, kind, "probe", 1.0, 0, not_before);
            assert_eq!(predicted, op.start, "stream {stream} {kind:?}");
        }
        // The query drained nothing: submitting for real still honours
        // the pending event wait.
        let dep = e.submit(1, StreamOpKind::Kernel, "b", 1.0, 0);
        assert_eq!(dep.start, 12.0);
    }

    #[test]
    fn device_pid_planes_are_disjoint() {
        assert_eq!(device_pid_base(0), PID_STREAM_BASE);
        assert_eq!(device_pid_base(1), PID_STREAM_BASE + DEVICE_PID_STRIDE);
        assert!(device_pid_base(1) > device_pid_base(0) + 15);
    }

    #[test]
    fn append_trace_with_base_relocates_pids_only() {
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "s0", 1.0, 64);
        e.submit(1, StreamOpKind::Kernel, "s1", 2.0, 0);
        let t = e.finish();
        let mut base_tb = TraceBuffer::default();
        t.append_trace(&mut base_tb, 1.0e6);
        let mut dev1_tb = TraceBuffer::default();
        t.append_trace_with_base(&mut dev1_tb, 1.0e6, device_pid_base(1));
        assert_eq!(base_tb.len(), dev1_tb.len());
        for (a, b) in base_tb.events().iter().zip(dev1_tb.events()) {
            assert_eq!(a.pid + DEVICE_PID_STRIDE, b.pid);
            assert_eq!(a.name, b.name);
            assert_eq!(a.ts, b.ts);
        }
    }

    #[test]
    fn append_trace_stitches_into_an_existing_buffer() {
        let mut e = StreamEngine::new(1);
        e.submit(0, StreamOpKind::Kernel, "k", 2.0, 0);
        let t = e.finish();
        let mut tb = TraceBuffer::default();
        tb.instant(
            "queue-wait",
            "serve",
            trace::PID_SERVE_JOBS,
            0,
            0,
            Vec::new(),
        );
        t.append_trace(&mut tb, 1.0e6);
        assert_eq!(tb.len(), 2);
        // Serve pids and stream pids stay disjoint in the stitched trace.
        assert_eq!(tb.events()[0].pid, trace::PID_SERVE_JOBS);
        assert_eq!(tb.events()[1].pid, PID_STREAM_BASE);
        // Identical cycle quantization as the standalone export.
        let alone = t.to_trace(1.0e6, TraceConfig::default());
        assert_eq!(&tb.events()[1..], alone.events());
    }

    #[test]
    fn kernel_ops_name_their_kernel_and_engines_report_free_times() {
        let mut e = StreamEngine::new(2);
        e.submit(0, StreamOpKind::CopyH2D, "b0", 2.0, 64);
        let op = e.submit_kernel(0, "b0", "pfac", 3.0, 0);
        assert_eq!((op.start, op.end), (2.0, 5.0));
        assert_eq!(op.kind, StreamOpKind::Kernel);
        assert_eq!(op.kernel.as_deref(), Some("pfac"));
        assert_eq!(e.engine_free(EngineKind::Copy), 2.0);
        assert_eq!(e.engine_free(EngineKind::Compute), 5.0);
        let tb = e.finish().to_trace(1.0, TraceConfig::default());
        let kernel_arg = |i: usize| {
            tb.events()[i]
                .args
                .iter()
                .find(|(k, _)| k == "kernel")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(kernel_arg(0), None);
        assert_eq!(kernel_arg(1), Some(ArgValue::Str("pfac".into())));
        // A kernel that wrote its frame into mapped host memory says so.
        let mut e = StreamEngine::new(1);
        let op = e.submit_kernel(0, "b1", "pfac-staged", 4.0, 2_048);
        assert_eq!(op.mapped_bytes, 2_048);
        let tb = e.finish().to_trace(1.0, TraceConfig::default());
        let args = &tb.events()[0].args;
        assert!(args.contains(&("mapped_bytes".to_string(), ArgValue::U64(2_048))));
    }
}
