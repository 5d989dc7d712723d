//! The **global memory only** approach (paper §IV.B.3, Fig. 7).
//!
//! The input stays in global memory; each thread slides over its own chunk
//! byte by byte. Because consecutive threads' cursors are a full chunk
//! apart, every half-warp byte load scatters across 16 different 128-byte
//! segments — the uncoalesced access pattern whose cost the shared-memory
//! approach exists to remove. The STT is fetched from texture, as in both
//! approaches.
//!
//! Per input byte the warp issues:
//! 1. a (scattered) global byte load,
//! 2. a texture fetch of the transition entry,
//! 3. when any lane matched, a result write to global memory.

use crate::kernels::{MatchLanes, Scratch, WarpReadback};
use crate::layout::Plan;
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    LoadByte,
    Transition,
    ReportMatches,
    Done,
}

/// Warp program for the global-memory-only kernel.
#[derive(Debug)]
pub struct GlobalOnlyKernel {
    geom: WarpGeometry,
    /// Device address of the input text.
    text_base: u64,
    /// Device address of the per-thread result slots.
    out_base: u64,
    /// The STT texture.
    tex: TexId,
    phase: Phase,
    lanes: MatchLanes,
    scratch: Scratch,
}

impl GlobalOnlyKernel {
    /// Build the warp's program.
    pub fn new(
        geom: WarpGeometry,
        plan: Plan,
        text_base: u64,
        out_base: u64,
        tex: TexId,
        record_events: bool,
    ) -> Self {
        let lanes = MatchLanes::new(&geom, &plan, record_events);
        let scratch = Scratch::new(geom.warp_size);
        GlobalOnlyKernel {
            geom,
            text_base,
            out_base,
            tex,
            phase: Phase::LoadByte,
            lanes,
            scratch,
        }
    }

    /// The lanes' readback (host readback after launch).
    pub fn take_results(&mut self) -> WarpReadback {
        self.lanes.reports.take()
    }

    fn finish(&mut self) -> StepOutcome {
        self.phase = Phase::Done;
        self.lanes.shrink(&self.geom);
        self.scratch.shrink();
        StepOutcome::Finished
    }
}

impl WarpProgram for GlobalOnlyKernel {
    fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
        let n = self.geom.warp_size as usize;
        match self.phase {
            Phase::LoadByte => {
                if self.lanes.all_done() {
                    return self.finish();
                }
                for lane in 0..n {
                    self.scratch.addrs[lane] = if self.lanes.active(lane) {
                        Some(self.text_base + self.lanes.pos[lane])
                    } else {
                        None
                    };
                }
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                // Each active lane reads one byte from its own chunk: the
                // scattered pattern of Fig. 7.
                let (addrs, bytes) = (&self.scratch.addrs, &mut self.lanes.byte);
                ctx.global_read_u8(addrs, bytes);
                ctx.compute(super::BYTE_LOAD_OVERHEAD);
                self.phase = Phase::Transition;
                StepOutcome::Continue
            }
            Phase::Transition => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                self.lanes.fill_tex_coords(&mut self.scratch.coords);
                ctx.tex_fetch(self.tex, &self.scratch.coords, &mut self.scratch.words);
                ctx.compute(super::TRANSITION_OVERHEAD);
                let any_match = self.lanes.apply_transitions(&self.scratch.words);
                self.phase = if any_match {
                    Phase::ReportMatches
                } else {
                    Phase::LoadByte
                };
                StepOutcome::Continue
            }
            Phase::ReportMatches => {
                // Matched lanes write their event word to the per-thread
                // result slot. The slots are a chunk apart per thread, so
                // these writes are also scattered — faithfully charging
                // the cost of result reporting.
                self.lanes
                    .fill_result_writes(&self.geom, self.out_base, &mut self.scratch.writes);
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
    use gpu_sim::GpuConfig;

    /// End-to-end: launch the kernel on a small text and compare events
    /// against the serial matcher. (The full equivalence suite lives in
    /// the runner and integration tests; this pins the kernel wiring.)
    #[test]
    fn finds_paper_matches() {
        let cfg = GpuConfig::gtx285();
        let params = KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 4,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        };
        let (matches, stats) = build_rig(
            &cfg,
            &params,
            &["he", "she", "his", "hers"],
            b"ushers and his hers she",
            crate::runner::Approach::GlobalOnly,
        );
        // Serial oracle agreement is asserted inside build_rig.
        assert!(!matches.is_empty());
        assert!(stats.cycles > 0);
        // Scattered loads: transactions ≈ requests (poor coalescing).
        assert!(stats.totals.coalescing_ratio() < 4.0);
    }
}
