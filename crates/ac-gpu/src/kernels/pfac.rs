//! The Parallel Failureless AC kernel (Lin et al.), the related-work
//! baseline of paper §IV.A: one logical thread per input byte, each
//! walking the pure goto trie until its first missing transition.
//!
//! Compared to the paper's chunked kernels, PFAC launches vastly more
//! threads (one per byte) but each dies quickly; warps suffer divergence
//! as their lanes' walks end at different depths, and every byte of input
//! is read `walk_length` times from global memory. The `repro
//! ablation-pfac` experiment quantifies that trade.

use crate::kernels::{LaneReports, Scratch, WarpReadback};
use crate::layout::Plan;
use crate::upload::{MATCH_BIT, PFAC_STOP, STATE_MASK};
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    LoadByte,
    Transition,
    ReportMatches,
    Done,
}

/// Warp program for PFAC: lane `l` anchors at input offset
/// `global_thread(l)`.
#[derive(Debug)]
pub struct PfacKernel {
    geom: WarpGeometry,
    text_len: u64,
    text_base: u64,
    out_base: u64,
    tex: TexId,
    phase: Phase,
    /// Per-lane walk offset (bytes consumed from the anchor); `u64::MAX`
    /// marks a dead lane.
    off: Vec<u64>,
    state: Vec<u32>,
    byte: Vec<u8>,
    matched: Vec<bool>,
    scratch: Scratch,
    reports: LaneReports,
}

impl PfacKernel {
    /// Build the warp's program. `plan` is one-byte chunks: a thread's
    /// owned start is its anchor.
    pub fn new(
        geom: WarpGeometry,
        plan: Plan,
        text_base: u64,
        out_base: u64,
        tex: TexId,
        record_events: bool,
    ) -> Self {
        let n = geom.warp_size as usize;
        let text_len = plan.text_len;
        let mut off = vec![0u64; n];
        for (lane, o) in off.iter_mut().enumerate() {
            if geom.global_thread(lane as u32) >= text_len {
                *o = u64::MAX; // anchor beyond the text: never active
            }
        }
        PfacKernel {
            geom,
            text_len,
            text_base,
            out_base,
            tex,
            phase: Phase::LoadByte,
            off,
            state: vec![0; n],
            byte: vec![0; n],
            matched: vec![false; n],
            scratch: Scratch::new(geom.warp_size),
            reports: LaneReports::new(&geom, plan.coding, record_events),
        }
    }

    /// The warp's readback.
    pub fn take_results(&mut self) -> WarpReadback {
        self.reports.take()
    }

    #[inline]
    fn active(&self, lane: usize) -> bool {
        let o = self.off[lane];
        o != u64::MAX && self.geom.global_thread(lane as u32) + o < self.text_len
    }

    /// Current (pre-transition) trie state per active lane; PFAC trie ids
    /// coincide with the DFA's state ids, so no host remap is needed.
    fn fill_attrs(&mut self) {
        for lane in 0..self.state.len() {
            self.scratch.attrs[lane] = self
                .active(lane)
                .then(|| gpu_sim::LaneAttr::state(self.state[lane]));
        }
    }

    fn finish(&mut self) -> StepOutcome {
        self.phase = Phase::Done;
        self.off = Vec::new();
        self.state = Vec::new();
        self.byte = Vec::new();
        self.matched = Vec::new();
        self.scratch.shrink();
        self.reports.retire(&self.geom);
        StepOutcome::Finished
    }
}

impl WarpProgram for PfacKernel {
    fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
        let n = self.geom.warp_size as usize;
        match self.phase {
            Phase::LoadByte => {
                if (0..n).all(|l| !self.active(l)) {
                    return self.finish();
                }
                for lane in 0..n {
                    self.scratch.addrs[lane] = if self.active(lane) {
                        let t = self.geom.global_thread(lane as u32);
                        Some(self.text_base + t + self.off[lane])
                    } else {
                        None
                    };
                }
                self.fill_attrs();
                ctx.attribute(&self.scratch.attrs);
                ctx.global_read_u8(&self.scratch.addrs, &mut self.byte);
                ctx.compute(super::BYTE_LOAD_OVERHEAD);
                self.phase = Phase::Transition;
                StepOutcome::Continue
            }
            Phase::Transition => {
                for lane in 0..n {
                    self.scratch.coords[lane] = if self.active(lane) {
                        Some((self.state[lane], 1 + self.byte[lane] as u32))
                    } else {
                        None
                    };
                }
                self.fill_attrs();
                ctx.attribute(&self.scratch.attrs);
                ctx.tex_fetch(self.tex, &self.scratch.coords, &mut self.scratch.words);
                ctx.compute(super::TRANSITION_OVERHEAD);
                let mut any = false;
                for lane in 0..n {
                    self.matched[lane] = false;
                    if !self.active(lane) {
                        continue;
                    }
                    let e = self.scratch.words[lane];
                    if e == PFAC_STOP {
                        self.off[lane] = u64::MAX; // walk dies
                        continue;
                    }
                    self.state[lane] = e & STATE_MASK;
                    self.off[lane] += 1;
                    if e & MATCH_BIT != 0 {
                        any = true;
                        self.matched[lane] = true;
                        let end = self.geom.global_thread(lane as u32) + self.off[lane];
                        self.reports.report(lane, end, e & STATE_MASK);
                    }
                }
                self.phase = if any {
                    Phase::ReportMatches
                } else {
                    Phase::LoadByte
                };
                StepOutcome::Continue
            }
            Phase::ReportMatches => {
                for lane in 0..n {
                    self.scratch.writes[lane] = if self.matched[lane] {
                        let t = self.geom.global_thread(lane as u32);
                        Some((self.out_base + t * 4, self.reports.word[lane]))
                    } else {
                        None
                    };
                }
                ctx.global_write_u32(&self.scratch.writes);
                self.phase = Phase::LoadByte;
                StepOutcome::Continue
            }
            Phase::Done => unreachable!("stepped a finished warp"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::layout::KernelParams;
    use crate::runner::tests_support::build_rig;
    use crate::runner::Approach;
    use gpu_sim::GpuConfig;

    #[test]
    fn pfac_finds_paper_matches() {
        let cfg = GpuConfig::gtx285();
        let params = KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 8,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        };
        let (matches, stats) = build_rig(
            &cfg,
            &params,
            &["he", "she", "his", "hers"],
            b"ushers and his hers she",
            Approach::Pfac,
        );
        assert!(!matches.is_empty());
        assert!(stats.cycles > 0);
        // No barriers in PFAC: there is no staging phase.
        assert_eq!(stats.totals.barriers, 0);
    }
}
