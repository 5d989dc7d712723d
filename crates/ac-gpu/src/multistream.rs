//! Multi-stream execution: double/triple-buffer one large input across N
//! streams so segment uploads, kernels, and readbacks overlap.
//!
//! [`run_streamed`](crate::run_streamed) quantifies the paper's §V
//! methodology with a fixed double-buffered upload/kernel pipeline; this
//! module generalises it the way real GPU stacks close the PCIe gap:
//! segments are round-robined over `streams` CUDA-style in-order queues,
//! and the [`gpu_sim::StreamEngine`] schedules their `h2d → kernel → d2h`
//! chains across the GT200's single DMA engine and compute engine.
//! Host issue order is staged: each segment's readback is held back and
//! only enqueued when its stream is next reused (or at drain) — the
//! classic pattern that stops a pending `d2h`, stuck behind its kernel,
//! from blocking later uploads in the single copy queue.
//!
//! With `streams == 1` the in-order queue forbids any overlap, so the
//! pipelined time degenerates to the exact serial `upload + kernel +
//! readback` sum — pinned by tests, and the base the serving benchmarks
//! compare against.
//!
//! Matches use the same exactly-once boundary rule as
//! [`crate::run_streamed`]: each segment scans `overlap` extra bytes and
//! keeps only matches starting inside its owned range. Each segment's
//! readback is priced at [`readback_bytes`], the exact length of the
//! [`crate::readback`] frame.

use crate::error::GpuError;
use crate::readback::readback_bytes;
use crate::runner::{Approach, GpuAcMatcher};
use crate::stream::PcieConfig;
use crate::supervise::{run_supervised, SuperviseConfig, SuperviseReport};
use ac_core::Match;
use gpu_sim::{LaunchStats, StreamEngine, StreamOpKind, StreamTimeline};

/// How to split and overlap a multi-stream run.
#[derive(Debug, Clone, Copy)]
pub struct MultiStreamConfig {
    /// Number of in-order streams (1 = no overlap).
    pub streams: u32,
    /// Segment size in bytes.
    pub segment_bytes: usize,
    /// Host↔device link model (both directions share one DMA engine).
    pub pcie: PcieConfig,
    /// Per-segment supervision (retry/watchdog); `None` runs direct.
    pub supervise: Option<SuperviseConfig>,
}

impl MultiStreamConfig {
    /// A config with supervision disabled.
    pub fn new(streams: u32, segment_bytes: usize, pcie: PcieConfig) -> Self {
        MultiStreamConfig {
            streams,
            segment_bytes,
            pcie,
            supervise: None,
        }
    }
}

/// Result of a multi-stream scan.
#[derive(Debug, Clone)]
pub struct MultiStreamRun {
    /// Streams used.
    pub streams: u32,
    /// Segments processed.
    pub segments: usize,
    /// Matches (exactly-once across segment boundaries), sorted.
    pub matches: Vec<Match>,
    /// Total match events observed by the kernels.
    pub match_events: u64,
    /// Sum of per-segment host→device copy seconds.
    pub upload_seconds: f64,
    /// Sum of per-segment simulated kernel seconds.
    pub kernel_seconds: f64,
    /// Sum of per-segment device→host readback seconds.
    pub readback_seconds: f64,
    /// Fully serial end-to-end time: every op back to back.
    pub serial_seconds: f64,
    /// Scheduled end-to-end time with cross-stream overlap.
    pub pipelined_seconds: f64,
    /// Input bytes scanned.
    pub bytes: usize,
    /// Per-segment kernel launch statistics, in segment order.
    pub segment_stats: Vec<LaunchStats>,
    /// Supervision traces (one per segment) when supervision was on.
    pub supervise_reports: Vec<SuperviseReport>,
    /// The scheduled op timeline (Chrome-trace exportable).
    pub timeline: StreamTimeline,
}

impl MultiStreamRun {
    /// Kernel-only throughput in Gbit/s (the paper's reported quantity).
    pub fn gbps_kernel_only(&self) -> f64 {
        gbps(self.bytes, self.kernel_seconds)
    }

    /// End-to-end throughput including overlapped copies.
    pub fn gbps_end_to_end(&self) -> f64 {
        gbps(self.bytes, self.pipelined_seconds)
    }

    /// Speedup of the overlapped schedule over the serial one (≥ 1).
    pub fn overlap_speedup(&self) -> f64 {
        if self.pipelined_seconds <= 0.0 {
            1.0
        } else {
            self.serial_seconds / self.pipelined_seconds
        }
    }
}

fn gbps(bytes: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        bytes as f64 * 8.0 / seconds / 1.0e9
    }
}

/// Scan `text` in `cfg.segment_bytes` pieces pipelined across
/// `cfg.streams` streams, modelling per-segment upload, kernel, and
/// readback on the stream engine.
pub fn run_multistream(
    matcher: &GpuAcMatcher,
    text: &[u8],
    approach: Approach,
    cfg: &MultiStreamConfig,
) -> Result<MultiStreamRun, GpuError> {
    cfg.pcie.validate()?;
    if cfg.segment_bytes == 0 {
        return Err(crate::error::PcieError::ZeroSegment.into());
    }
    let streams = cfg.streams.max(1);
    let overlap = matcher.automaton().required_overlap();
    let n_segments = text.len().div_ceil(cfg.segment_bytes).max(1);

    // Functional phase: run every segment's kernel, collect stitched
    // matches and per-segment times.
    let mut upload_times = Vec::with_capacity(n_segments);
    let mut kernel_times = Vec::with_capacity(n_segments);
    let mut readback_times = Vec::with_capacity(n_segments);
    let mut segment_events = Vec::with_capacity(n_segments);
    let mut segment_stats = Vec::with_capacity(n_segments);
    let mut supervise_reports = Vec::new();
    let mut matches = Vec::new();
    let mut match_events = 0u64;
    for i in 0..n_segments {
        let start = i * cfg.segment_bytes;
        let owned_end = ((i + 1) * cfg.segment_bytes).min(text.len());
        let scan_end = (owned_end + overlap).min(text.len());
        let window = &text[start..scan_end];
        upload_times.push(cfg.pcie.copy_seconds(window.len()));
        let run = match &cfg.supervise {
            Some(sup) => {
                let s = run_supervised(matcher, window, approach, sup).map_err(|(err, rep)| {
                    supervise_reports.push(rep);
                    err
                })?;
                supervise_reports.push(s.report);
                s.run
            }
            None => matcher.run(window, approach)?,
        };
        kernel_times.push(run.seconds());
        readback_times.push(
            cfg.pcie
                .copy_seconds(readback_bytes(run.match_events) as usize),
        );
        match_events += run.match_events;
        segment_events.push(run.match_events);
        segment_stats.push(run.stats);
        for m in run.matches {
            if start + m.start < owned_end {
                matches.push(Match {
                    pattern: m.pattern,
                    start: start + m.start,
                    end: start + m.end,
                });
            }
        }
    }
    matches.sort();
    matches.dedup();

    // Timing phase: staged issue. Upload + kernel go out immediately;
    // each segment's readback is held until its stream is reused, so the
    // single copy queue never parks behind a kernel that hasn't finished
    // while later uploads could run. With one stream this degenerates to
    // the exact serial h2d → kernel → d2h order.
    let mut engine = StreamEngine::new(streams);
    let mut held: Vec<Option<usize>> = vec![None; streams as usize];
    for i in 0..n_segments {
        let s = (i % streams as usize) as u32;
        if let Some(j) = held[s as usize].take() {
            engine.submit(
                s,
                StreamOpKind::CopyD2H,
                &format!("seg{j}"),
                readback_times[j],
                readback_bytes(segment_events[j]),
            );
        }
        let start = i * cfg.segment_bytes;
        let owned_end = ((i + 1) * cfg.segment_bytes).min(text.len());
        let window_bytes = ((owned_end + overlap).min(text.len()) - start) as u64;
        engine.submit(
            s,
            StreamOpKind::CopyH2D,
            &format!("seg{i}"),
            upload_times[i],
            window_bytes,
        );
        engine.submit(
            s,
            StreamOpKind::Kernel,
            &format!("seg{i}"),
            kernel_times[i],
            0,
        );
        held[s as usize] = Some(i);
    }
    // Drain the held readbacks in the order their kernels finish.
    let mut leftovers: Vec<(u32, usize)> = held
        .iter()
        .enumerate()
        .filter_map(|(s, j)| j.map(|j| (s as u32, j)))
        .collect();
    leftovers.sort_by(|a, b| {
        engine
            .stream_ready(a.0)
            .partial_cmp(&engine.stream_ready(b.0))
            .expect("sim times are finite")
    });
    for (s, j) in leftovers {
        engine.submit(
            s,
            StreamOpKind::CopyD2H,
            &format!("seg{j}"),
            readback_times[j],
            readback_bytes(segment_events[j]),
        );
    }
    let timeline = engine.finish();

    Ok(MultiStreamRun {
        streams,
        segments: n_segments,
        matches,
        match_events,
        upload_seconds: upload_times.iter().sum(),
        kernel_seconds: kernel_times.iter().sum(),
        readback_seconds: readback_times.iter().sum(),
        serial_seconds: timeline.serial_seconds(),
        pipelined_seconds: timeline.total_seconds(),
        bytes: text.len(),
        segment_stats,
        supervise_reports,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelParams;
    use ac_core::{AcAutomaton, PatternSet};
    use gpu_sim::GpuConfig;

    fn matcher() -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap());
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    }

    fn text(n: usize) -> Vec<u8> {
        b"ushers rush home; his shelf, her shoes "
            .iter()
            .cycle()
            .take(n)
            .copied()
            .collect()
    }

    #[test]
    fn matches_equal_whole_scan_for_any_stream_count() {
        let m = matcher();
        let t = text(20_000);
        let mut whole = m.automaton().find_all(&t);
        whole.sort();
        for streams in [1, 2, 3, 4, 8] {
            let cfg = MultiStreamConfig::new(streams, 3000, PcieConfig::gen2_x16());
            let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
            assert_eq!(r.matches, whole, "streams={streams}");
            assert_eq!(r.segments, t.len().div_ceil(3000));
        }
    }

    #[test]
    fn single_stream_is_exactly_the_serial_sum() {
        let m = matcher();
        let t = text(40_000);
        let cfg = MultiStreamConfig::new(1, 4096, PcieConfig::gen2_x16());
        let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
        // One in-order stream cannot overlap anything: the scheduled time
        // is bit-identical to the serial fold of op durations.
        assert_eq!(r.pipelined_seconds, r.serial_seconds);
        assert_eq!(r.overlap_speedup(), 1.0);
    }

    #[test]
    fn more_streams_never_slow_the_schedule() {
        let m = matcher();
        let t = text(60_000);
        let mut last = f64::INFINITY;
        for streams in [1, 2, 4] {
            let cfg = MultiStreamConfig::new(streams, 4096, PcieConfig::gen2_x16());
            let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
            assert!(
                r.pipelined_seconds <= last + 1e-12,
                "streams={streams} slowed the pipeline"
            );
            // Never faster than the busiest engine.
            let copy_busy = r.upload_seconds + r.readback_seconds;
            assert!(r.pipelined_seconds >= copy_busy.max(r.kernel_seconds) - 1e-12);
            last = r.pipelined_seconds;
        }
    }

    #[test]
    fn supervised_segments_survive_faults() {
        use gpu_sim::FaultPlan;
        let m = matcher();
        let t = text(20_000);
        let mut whole = m.automaton().find_all(&t);
        whole.sort();
        m.set_fault_plan(FaultPlan::none().with_launch_transient(0));
        let cfg = MultiStreamConfig {
            streams: 2,
            segment_bytes: 4096,
            pcie: PcieConfig::gen2_x16(),
            supervise: Some(SuperviseConfig::default()),
        };
        let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
        assert_eq!(r.matches, whole);
        assert_eq!(r.supervise_reports.len(), r.segments);
        let retries: u32 = r.supervise_reports.iter().map(|rep| rep.retries).sum();
        assert_eq!(retries, 1);
    }

    #[test]
    fn timeline_round_trips_to_chrome_trace() {
        let m = matcher();
        let t = text(20_000);
        let cfg = MultiStreamConfig::new(2, 4096, PcieConfig::gen2_x16());
        let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
        let tb = r
            .timeline
            .to_trace(m.config().clock_hz, trace::TraceConfig::default());
        assert_eq!(tb.len(), 3 * r.segments);
        let json = trace::to_chrome_json(&tb, m.config().clock_hz / 1.0e6);
        trace::validate_chrome_json(&json).unwrap();
    }

    #[test]
    fn zero_segment_bytes_rejected() {
        let m = matcher();
        let cfg = MultiStreamConfig::new(2, 0, PcieConfig::gen2_x16());
        assert!(run_multistream(&m, b"x", Approach::SharedDiagonal, &cfg).is_err());
    }
}
