//! The device's one observation hook: trace recording, spatial
//! introspection and workload attribution behind a single armed
//! [`Observer`].
//!
//! Observation never feeds back into timing. The device holds an
//! `Option<Box<Observer>>`; disarmed (the default) every hook in the
//! scheduler and the kernel context is one branch on `None`, and a launch
//! observed by any set of collectors produces bit-identical `LaunchStats`
//! and kernel results. Faults and the watchdog are not observers: they
//! change behaviour, so they stay separate device state.

use crate::attrib::{Attribution, LaneAttr, SmAttrSink};
use crate::config::GpuConfig;
use crate::introspect::{Introspection, SmProbe, MAX_BUSY_INTERVALS};
use crate::kernel::WarpGeometry;
use crate::stats::SmStats;
use crate::texture::Texture2d;
use mem_sim::{Cache, Cycle, DramChannel};
use trace::{ArgValue, StallReason, TraceBuffer, PID_DEVICE};

/// Trace track offset separating each SM's DRAM-channel events from its
/// scheduler events (same pid, distinct tid lane).
const DRAM_TID_BASE: u32 = 1000;

/// What the device observes. Each `Some` field is an armed collector:
/// hand empty ones to [`GpuDevice::arm_observer`] and every launch until
/// [`GpuDevice::take_observer`] appends to them.
///
/// [`GpuDevice::arm_observer`]: crate::GpuDevice::arm_observer
/// [`GpuDevice::take_observer`]: crate::GpuDevice::take_observer
#[derive(Debug, Default)]
pub struct Observer {
    /// Scheduler and DRAM events, filtered by the buffer's `TraceConfig`.
    pub trace: Option<TraceBuffer>,
    /// One spatial snapshot per SM: per-set cache counters, bank
    /// histogram, DRAM busy intervals, per-row texture fetches.
    pub introspection: Option<Introspection>,
    /// One ledger per SM charging issue slots and idle gaps to the labels
    /// kernels declare through [`crate::WarpCtx::attribute`].
    pub attribution: Option<Attribution>,
}

impl Observer {
    /// Whether any collector is armed.
    pub(crate) fn is_armed(&self) -> bool {
        self.trace.is_some() || self.introspection.is_some() || self.attribution.is_some()
    }

    /// Start observing SM `sm`: switch on the hardware-side logs the armed
    /// collectors read and build the SM's observer. The trace buffer moves
    /// into it for the SM's run (SMs are simulated one after another) and
    /// comes back in [`SmObserver::finish`].
    pub(crate) fn begin_sm(
        &mut self,
        sm: u32,
        cfg: &GpuConfig,
        textures: &[Texture2d],
        tex_cache: &mut Cache,
        tex_l2: &mut Cache,
        dram: &mut DramChannel,
    ) -> SmObserver {
        let trace = self.trace.take();
        if let Some(tb) = trace.as_ref().filter(|tb| tb.config().dram) {
            dram.enable_log(tb.config().max_events);
        }
        let probe = self.introspection.is_some().then(|| {
            tex_cache.enable_set_profile();
            tex_l2.enable_set_profile();
            dram.enable_busy_tracking(MAX_BUSY_INTERVALS);
            SmProbe::new(cfg, textures)
        });
        SmObserver {
            sm,
            blocks: 0,
            trace,
            probe,
            attr: self
                .attribution
                .is_some()
                .then(|| SmAttrSink::new(cfg.warp_size)),
            last_labels: Vec::new(),
        }
    }
}

/// One SM's observer: the scheduler reports block activations, warp steps
/// and idle gaps to it, and the kernel context feeds it bank and texture
/// traffic. Built by [`Observer::begin_sm`], sealed by
/// [`SmObserver::finish`].
#[derive(Debug, Default)]
pub(crate) struct SmObserver {
    sm: u32,
    /// Blocks activated so far (each of the SM's blocks is activated once).
    blocks: u64,
    trace: Option<TraceBuffer>,
    pub(crate) probe: Option<SmProbe>,
    pub(crate) attr: Option<SmAttrSink>,
    /// Per warp slot, the labels of the warp's last step: an idle gap the
    /// warp ends is charged to them.
    last_labels: Vec<Vec<LaneAttr>>,
}

impl SmObserver {
    /// Block `block` became resident at `now`.
    pub(crate) fn block_activated(&mut self, block: u32, now: Cycle) {
        self.blocks += 1;
        if let Some(tb) = self.trace.as_mut().filter(|tb| tb.config().scheduler) {
            tb.instant(
                "block-activate",
                "sched",
                PID_DEVICE,
                self.sm,
                now,
                vec![("block".to_string(), ArgValue::U64(block as u64))],
            );
        }
    }

    /// The SM sat idle for `gap` cycles from `now` until the warp in slot
    /// `ender` woke up, waiting on `reason`.
    pub(crate) fn idle(&mut self, ender: usize, now: Cycle, gap: Cycle, reason: StallReason) {
        if let Some(sink) = self.attr.as_mut() {
            // The gap is the fault of whatever the ender's last step was
            // working on.
            let labels = self.last_labels.get(ender).map_or(&[][..], Vec::as_slice);
            sink.charge_labels(labels, gap);
        }
        if let Some(tb) = self.trace.as_mut().filter(|tb| tb.config().scheduler) {
            tb.stall(self.sm, now, gap, reason);
        }
    }

    /// The warp in slot `slot` issued at `now`, occupying the issue port
    /// for `issue` cycles.
    pub(crate) fn end_step(&mut self, slot: usize, geom: WarpGeometry, now: Cycle, issue: u32) {
        if let Some(sink) = self.attr.as_mut() {
            if self.last_labels.len() <= slot {
                self.last_labels.resize_with(slot + 1, Vec::new);
            }
            sink.end_step(issue as u64, &mut self.last_labels[slot]);
        }
        if let Some(tb) = self.trace.as_mut().filter(|tb| tb.config().issues) {
            tb.instant(
                "issue",
                "sched",
                PID_DEVICE,
                self.sm,
                now,
                vec![
                    ("block".to_string(), ArgValue::U64(geom.block_id as u64)),
                    ("warp".to_string(), ArgValue::U64(geom.warp_in_block as u64)),
                ],
            );
        }
    }

    /// Count one texture fetch of `row` in texture `tex` by `lane`.
    pub(crate) fn tex_fetch(
        &mut self,
        tex: usize,
        row: u32,
        lane: usize,
        l1_hit: bool,
        l2_hit: bool,
    ) {
        if let Some(sink) = self.attr.as_mut() {
            sink.note_tex_fetch(lane, l1_hit);
        }
        if let Some(probe) = self.probe.as_mut() {
            probe.note_tex_fetch(tex, row, l1_hit, l2_hit);
        }
    }

    /// Seal the SM's observations into `out` when it retires: the `sm`
    /// span and DRAM transactions, the attribution ledger and the
    /// introspection snapshot. `busy` is the cycle the issue port was last
    /// occupied until.
    pub(crate) fn finish(
        self,
        out: &mut Observer,
        stats: &SmStats,
        busy: Cycle,
        tex_cache: &Cache,
        tex_l2: &Cache,
        dram: &mut DramChannel,
    ) {
        let sm = self.sm;
        let mut trace = self.trace;
        if let Some(tb) = trace.as_mut() {
            if tb.config().scheduler {
                tb.span(
                    "sm",
                    "sched",
                    PID_DEVICE,
                    sm,
                    0,
                    stats.cycles,
                    vec![
                        ("blocks".to_string(), ArgValue::U64(self.blocks)),
                        (
                            "instructions".to_string(),
                            ArgValue::U64(stats.instructions),
                        ),
                        ("idle_cycles".to_string(), ArgValue::U64(stats.idle_cycles)),
                    ],
                );
            }
            if tb.config().dram {
                for txn in dram.take_log() {
                    tb.span(
                        "dram-txn",
                        "mem",
                        PID_DEVICE,
                        DRAM_TID_BASE + sm,
                        txn.start,
                        txn.done - txn.start,
                        vec![
                            ("bytes".to_string(), ArgValue::U64(txn.bytes as u64)),
                            (
                                "queue_cycles".to_string(),
                                ArgValue::U64(txn.start - txn.issued),
                            ),
                        ],
                    );
                }
            }
        }
        out.trace = trace;
        if let (Some(sink), Some(attribution)) = (self.attr, out.attribution.as_mut()) {
            // Every advance of the clock was either an issue slot (charged
            // at step time) or an idle gap (charged at jump time); what
            // remains is the in-flight memory drain past the final issue.
            attribution
                .per_sm
                .push(sink.finish(sm, stats.cycles - busy, stats.cycles));
        }
        if let (Some(probe), Some(introspection)) = (self.probe, out.introspection.as_mut()) {
            introspection
                .per_sm
                .push(probe.finish(sm, tex_cache, tex_l2, dram));
        }
    }
}
