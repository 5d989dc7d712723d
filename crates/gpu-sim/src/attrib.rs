//! Workload cycle attribution: charge simulated SM time to kernel-chosen
//! labels (for the AC kernels, the DFA state each lane is visiting).
//!
//! The trace layer answers *how many* cycles stalled per reason and the
//! introspection layer answers *where in the memory hierarchy*; this layer
//! answers *whose fault*: which part of the workload (which automaton
//! state, and through the host-side ownership fold, which pattern) the
//! machine was burning cycles on. Kernels tag each step with per-lane
//! labels via [`crate::WarpCtx::attribute`]; the scheduler splits every
//! issue slot and every idle gap across the labels of the step that
//! occupied or ended it.
//!
//! It is one of the collectors of the device's [`crate::Observer`]: armed,
//! each SM's observer owns an [`SmAttrSink`] and the SM's ledger joins
//! [`Attribution::per_sm`] when it retires. Disarmed, every charge is one
//! branch, and armed or not, observation never feeds back into timing.
//!
//! Accounting is conservative by construction: for each SM,
//! `Σ state_cycles + unattributed_cycles + drain_cycles == cycles`.
//! Unattributed cycles are steps the kernel chose not to label (staging,
//! barriers, result writes) plus idle gaps ended by such steps;
//! drain cycles are the in-flight-memory tail after the last issue slot.

use serde::{Deserialize, Serialize};

/// A per-lane workload label for one step. The label space is owned by the
/// kernel (the AC kernels use their device-side state encoding; the host
/// remaps to original DFA ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAttr {
    /// Kernel-chosen label (for AC kernels: device state id).
    pub label: u32,
    /// Whether the lane is on a failure-chain edge this step (charged to
    /// `fail_cycles[label]` as a sub-bucket of `state_cycles[label]`).
    pub fail: bool,
}

impl LaneAttr {
    /// A non-failure label.
    pub fn state(label: u32) -> Self {
        LaneAttr { label, fail: false }
    }
}

/// Labels tracked per SM; charges to labels at or past this bound fall
/// into `unattributed_cycles` instead of growing the vectors without limit.
pub const MAX_LABELS: usize = 1 << 20;

/// Arms workload attribution for a run. It has no settings: the one bound
/// is [`MAX_LABELS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionConfig;

/// One SM's attribution ledger, harvested when the SM retires its last
/// block. Vectors are indexed by label and sized to the largest label the
/// SM actually charged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SmAttribution {
    /// SM index.
    pub sm: u32,
    /// Issue + idle cycles charged per label.
    pub state_cycles: Vec<u64>,
    /// The failure-chain share of `state_cycles`, per label (a sub-bucket,
    /// not an additional bucket).
    pub fail_cycles: Vec<u64>,
    /// Texture fetches performed while a lane carried each label.
    pub tex_fetches: Vec<u64>,
    /// Texture-L1 misses among those fetches.
    pub tex_misses: Vec<u64>,
    /// Cycles of unlabeled steps, gaps ended by unlabeled steps, and
    /// charges past the label bound.
    pub unattributed_cycles: u64,
    /// In-flight-memory tail after the SM's last issue slot.
    pub drain_cycles: u64,
    /// The SM's total cycles (equals `SmStats::cycles`); pins the
    /// conservation invariant.
    pub cycles: u64,
}

/// Device-wide attribution: one ledger per SM plus its totals. The host
/// folds per-label vectors itself (`ac_gpu` remaps kernel labels first).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Per-SM ledgers, in SM order.
    pub per_sm: Vec<SmAttribution>,
}

impl Attribution {
    /// Unattributed cycles summed over SMs.
    pub fn unattributed_cycles(&self) -> u64 {
        self.per_sm.iter().map(|s| s.unattributed_cycles).sum()
    }

    /// Drain cycles summed over SMs.
    pub fn drain_cycles(&self) -> u64 {
        self.per_sm.iter().map(|s| s.drain_cycles).sum()
    }

    /// Total SM cycles summed over SMs (= Σ `LaunchStats::per_sm_cycles`).
    pub fn total_cycles(&self) -> u64 {
        self.per_sm.iter().map(|s| s.cycles).sum()
    }
}

/// Armed-only per-SM collection sink. The kernel fills the per-lane step
/// labels through [`crate::WarpCtx::attribute`]; after the step the SM's
/// observer charges its issue cycles (and any idle gap the warp later
/// ends) across them and clears them.
#[derive(Debug)]
pub(crate) struct SmAttrSink {
    /// Labels of the step currently being issued, indexed by lane.
    step: Vec<Option<LaneAttr>>,
    pub(crate) state_cycles: Vec<u64>,
    pub(crate) fail_cycles: Vec<u64>,
    pub(crate) tex_fetches: Vec<u64>,
    pub(crate) tex_misses: Vec<u64>,
    pub(crate) unattributed: u64,
}

impl SmAttrSink {
    pub(crate) fn new(warp_size: u32) -> Self {
        SmAttrSink {
            step: vec![None; warp_size as usize],
            state_cycles: Vec::new(),
            fail_cycles: Vec::new(),
            tex_fetches: Vec::new(),
            tex_misses: Vec::new(),
            unattributed: 0,
        }
    }

    /// Record the step's per-lane labels (called by the kernel, at most
    /// once per step, before any texture fetch it wants counted).
    pub(crate) fn set_lanes(&mut self, lanes: &[Option<LaneAttr>]) {
        let n = lanes.len().min(self.step.len());
        self.step[..n].copy_from_slice(&lanes[..n]);
    }

    /// Count a texture fetch performed by `lane` under its current label.
    pub(crate) fn note_tex_fetch(&mut self, lane: usize, l1_hit: bool) {
        let Some(Some(attr)) = self.step.get(lane) else {
            return;
        };
        let label = attr.label as usize;
        if label >= MAX_LABELS {
            return;
        }
        if self.tex_fetches.len() <= label {
            self.tex_fetches.resize(label + 1, 0);
            self.tex_misses.resize(label + 1, 0);
        }
        self.tex_fetches[label] += 1;
        if !l1_hit {
            self.tex_misses[label] += 1;
        }
    }

    /// Charge a finished step's issue `cycles` across its labels, leave
    /// those labels in `last` (an idle gap the warp later ends is charged
    /// there) and clear them for the next step.
    pub(crate) fn end_step(&mut self, cycles: u64, last: &mut Vec<LaneAttr>) {
        last.clear();
        last.extend(self.step.iter().flatten().copied());
        self.charge_labels(last, cycles);
        self.step.fill(None);
    }

    /// Split `cycles` integer-exactly across `labels` (quotient each, the
    /// remainder one extra cycle to the first lanes). Empty or out-of-bound
    /// labels charge `unattributed` — no cycle is ever dropped.
    pub(crate) fn charge_labels(&mut self, labels: &[LaneAttr], cycles: u64) {
        if labels.is_empty() {
            self.unattributed += cycles;
            return;
        }
        let n = labels.len() as u64;
        let q = cycles / n;
        let r = cycles % n;
        for (i, attr) in labels.iter().enumerate() {
            let share = q + u64::from((i as u64) < r);
            if share == 0 {
                continue;
            }
            let label = attr.label as usize;
            if label >= MAX_LABELS {
                self.unattributed += share;
                continue;
            }
            if self.state_cycles.len() <= label {
                self.state_cycles.resize(label + 1, 0);
                self.fail_cycles.resize(label + 1, 0);
            }
            self.state_cycles[label] += share;
            if attr.fail {
                self.fail_cycles[label] += share;
            }
        }
    }

    /// Seal the ledger when the SM retires.
    pub(crate) fn finish(self, sm: u32, drain_cycles: u64, cycles: u64) -> SmAttribution {
        SmAttribution {
            sm,
            state_cycles: self.state_cycles,
            fail_cycles: self.fail_cycles,
            tex_fetches: self.tex_fetches,
            tex_misses: self.tex_misses,
            unattributed_cycles: self.unattributed,
            drain_cycles,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> SmAttrSink {
        SmAttrSink::new(4)
    }

    #[test]
    fn split_is_integer_exact() {
        let mut s = sink();
        let labels = [LaneAttr::state(0), LaneAttr::state(1), LaneAttr::state(1)];
        s.charge_labels(&labels, 10); // 10 = 4 + 3 + 3
        assert_eq!(s.state_cycles, vec![4, 6]);
        assert_eq!(s.state_cycles.iter().sum::<u64>(), 10);
        assert_eq!(s.unattributed, 0);
    }

    #[test]
    fn empty_and_overbound_labels_go_unattributed() {
        let mut s = sink();
        s.charge_labels(&[], 7);
        s.charge_labels(&[LaneAttr::state(MAX_LABELS as u32), LaneAttr::state(1)], 4);
        assert_eq!(s.unattributed, 7 + 2);
        assert_eq!(s.state_cycles, vec![0, 2]);
    }

    #[test]
    fn fail_cycles_are_a_sub_bucket() {
        let mut s = sink();
        s.charge_labels(
            &[
                LaneAttr {
                    label: 3,
                    fail: true,
                },
                LaneAttr::state(3),
            ],
            6,
        );
        assert_eq!(s.state_cycles[3], 6);
        assert_eq!(s.fail_cycles[3], 3);
    }

    #[test]
    fn step_labels_flow_through_tex_counting() {
        let mut s = sink();
        s.set_lanes(&[
            Some(LaneAttr::state(2)),
            None,
            Some(LaneAttr::state(0)),
            None,
        ]);
        s.note_tex_fetch(0, false);
        s.note_tex_fetch(1, false); // unlabeled lane: ignored
        s.note_tex_fetch(2, true);
        assert_eq!(s.tex_fetches, vec![1, 0, 1]);
        assert_eq!(s.tex_misses, vec![0, 0, 1]);
        let mut last = Vec::new();
        s.end_step(5, &mut last);
        assert_eq!(last, [LaneAttr::state(2), LaneAttr::state(0)]);
        assert_eq!(s.state_cycles, vec![2, 0, 3]);
        // The labels are cleared: the next step is unattributed.
        s.end_step(4, &mut last);
        assert!(last.is_empty());
        assert_eq!(s.unattributed, 4);
    }

    #[test]
    fn folds_sum_over_sms_and_conserve() {
        let sm = |sm: u32| SmAttribution {
            sm,
            state_cycles: vec![5, 0, 7],
            fail_cycles: vec![1, 0, 0],
            tex_fetches: vec![2, 2],
            tex_misses: vec![0, 1],
            unattributed_cycles: 3,
            drain_cycles: 5,
            cycles: 20,
        };
        let a = Attribution {
            per_sm: vec![sm(0), sm(1)],
        };
        assert_eq!(a.unattributed_cycles(), 6);
        assert_eq!(a.drain_cycles(), 10);
        assert_eq!(a.total_cycles(), 40);
        for s in &a.per_sm {
            assert_eq!(
                s.state_cycles.iter().sum::<u64>() + s.unattributed_cycles + s.drain_cycles,
                s.cycles
            );
        }
    }
}
