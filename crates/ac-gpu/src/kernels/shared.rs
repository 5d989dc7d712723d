//! The **shared memory** approach (paper §IV.B.3, Figs. 8–12) and its two
//! degraded variants.
//!
//! Every block first *stages* its tile of the input from global memory
//! into shared memory, synchronizes, then each thread runs the DFA over
//! its chunk reading bytes from shared memory. The three variants differ
//! only in the staging loop and the shared-memory layout:
//!
//! * [`SharedVariant::Naive`] — each thread copies its own chunk with
//!   strided global loads (uncoalesced) and stores it contiguously. Both
//!   the staging stores and the matching loads suffer bank conflicts.
//! * [`SharedVariant::CoalescedOnly`] — threads cooperate to load
//!   consecutive 32-bit words (fully coalesced, paper Figs. 9–10) but
//!   store them linearly, so per-thread matching loads still collide on
//!   banks (all threads read word `j` of their chunk simultaneously, and
//!   chunks are a fixed word stride apart).
//! * [`SharedVariant::Diagonal`] — coalesced loads plus the paper's
//!   diagonal store scheme (Figs. 11–12): word `j` of chunk `c` goes to
//!   bank `(c + j) mod banks`, making staging stores *and* matching loads
//!   conflict-free. This is the paper's proposed kernel; Fig. 23 measures
//!   its speedup over the conflicting variants.

use crate::kernels::{MatchLanes, Scratch, Staging, WarpReadback};
use crate::layout::{DiagonalMap, Plan};
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};
use serde::{Deserialize, Serialize};

/// Which staging/store scheme the kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharedVariant {
    /// Per-thread strided staging, linear layout.
    Naive,
    /// Cooperative coalesced staging, linear layout.
    CoalescedOnly,
    /// Cooperative coalesced staging, diagonal bank-conflict-free layout
    /// (the paper's scheme).
    Diagonal,
}

impl SharedVariant {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SharedVariant::Naive => "shared-naive",
            SharedVariant::CoalescedOnly => "shared-coalesced-only",
            SharedVariant::Diagonal => "shared-diagonal",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Staging iteration `k`, load half (global read).
    StageLoad,
    /// Staging iteration `k`, store half (shared write).
    StageStore,
    /// The post-staging `__syncthreads()`.
    Sync,
    /// Matching: shared byte read.
    LoadByte,
    /// Matching: STT texture transition.
    Transition,
    /// Matching: divergent result write.
    ReportMatches,
    Done,
}

/// Warp program for the shared-memory kernels.
#[derive(Debug)]
pub struct SharedKernel {
    variant: SharedVariant,
    geom: WarpGeometry,
    plan: Plan,
    text_base: u64,
    out_base: u64,
    tex: TexId,
    /// The block's tile: its owned chunks plus the overlap tail.
    stage: Staging,
    map: Option<DiagonalMap>,
    phase: Phase,
    lanes: MatchLanes,
    scratch: Scratch,
}

impl SharedKernel {
    /// Build the warp's program.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        variant: SharedVariant,
        geom: WarpGeometry,
        plan: Plan,
        text_base: u64,
        out_base: u64,
        tex: TexId,
        record_events: bool,
    ) -> Self {
        let tile_owned = geom.threads_per_block as u64 * plan.chunk_bytes as u64;
        let tile_start = geom.block_id as u64 * tile_owned;
        let tile_end = (tile_start + tile_owned + plan.overlap as u64).min(plan.text_len);
        // Iterations: the block stages T words per iteration (naive: each
        // thread stages word k of its own chunk, plus tail iterations).
        let t = geom.threads_per_block as u64;
        let stage = Staging::new(geom.warp_size, tile_start, tile_end, |tile_words| {
            match variant {
                // Cooperative: ceil(tile_words / T) iterations of T words.
                SharedVariant::CoalescedOnly | SharedVariant::Diagonal => tile_words.div_ceil(t),
                // Naive: words-per-chunk iterations (own chunk), then the
                // overlap tail cooperatively.
                SharedVariant::Naive => {
                    let wpc = plan.chunk_bytes as u64 / 4;
                    let tail_words = tile_words.saturating_sub(t * wpc);
                    wpc + tail_words.div_ceil(t)
                }
            }
        });
        let map = match variant {
            SharedVariant::Diagonal => {
                Some(DiagonalMap::new(geom.threads_per_block, plan.chunk_bytes))
            }
            _ => None,
        };
        SharedKernel {
            variant,
            geom,
            plan,
            text_base,
            out_base,
            tex,
            stage,
            map,
            phase: Phase::StageLoad,
            lanes: MatchLanes::new(&geom, &plan, record_events),
            scratch: Scratch::new(geom.warp_size),
        }
    }

    /// The lanes' readback (host readback after launch).
    pub fn take_results(&mut self) -> WarpReadback {
        self.lanes.reports.take()
    }

    /// Map a tile-relative byte offset to its shared-memory address under
    /// the variant's layout.
    #[inline]
    fn shared_addr(&self, tile_byte: u64) -> u64 {
        match self.map {
            Some(m) => m.map_byte(tile_byte),
            None => tile_byte,
        }
    }

    fn finish(&mut self) -> StepOutcome {
        self.phase = Phase::Done;
        self.lanes.shrink(&self.geom);
        self.scratch.shrink();
        self.stage.shrink();
        StepOutcome::Finished
    }
}

/// The linear tile word index lane `lane` of `geom` handles in staging
/// iteration `k` under `variant`, for chunks of `wpc` words.
fn staging_word(variant: SharedVariant, geom: &WarpGeometry, wpc: u64, k: u64, lane: u32) -> u64 {
    let t = geom.threads_per_block as u64;
    match variant {
        SharedVariant::CoalescedOnly | SharedVariant::Diagonal => Staging::coalesced(geom, k, lane),
        SharedVariant::Naive => {
            if k < wpc {
                // Word k of the thread's own chunk: a `wpc`-word stride
                // between lanes — uncoalesced loads and same-bank stores.
                geom.block_thread(lane) as u64 * wpc + k
            } else {
                // Cooperative tail staging of the overlap region.
                t * wpc + (k - wpc) * t + geom.block_thread(lane) as u64
            }
        }
    }
}

impl WarpProgram for SharedKernel {
    fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
        let n = self.geom.warp_size as usize;
        match self.phase {
            Phase::StageLoad => {
                let (variant, geom) = (self.variant, self.geom);
                let wpc = self.plan.chunk_bytes as u64 / 4;
                let word = |k, lane| Some(staging_word(variant, &geom, wpc, k, lane));
                if !self
                    .stage
                    .load(ctx, &mut self.scratch.addrs, self.text_base, word)
                {
                    self.phase = Phase::Sync;
                    return StepOutcome::Barrier;
                }
                self.phase = Phase::StageStore;
                StepOutcome::Continue
            }
            Phase::StageStore => {
                let map = self.map;
                let dst = |w| map.map_or(w, |m| m.map_word(w));
                self.stage.store(ctx, &mut self.scratch.writes, dst);
                self.phase = Phase::StageLoad;
                StepOutcome::Continue
            }
            Phase::Sync => {
                // The barrier was signalled by StageLoad; once released we
                // fall through to matching.
                self.phase = Phase::LoadByte;
                ctx.compute(0);
                StepOutcome::Continue
            }
            Phase::LoadByte => {
                if self.lanes.all_done() {
                    return self.finish();
                }
                for lane in 0..n {
                    self.scratch.addrs[lane] = if self.lanes.active(lane) {
                        let rel = self.lanes.pos[lane] - self.stage.start;
                        Some(self.shared_addr(rel))
                    } else {
                        None
                    };
                }
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                let (addrs, bytes) = (&self.scratch.addrs, &mut self.lanes.byte);
                ctx.shared_read_u8(addrs, bytes);
                ctx.compute(super::BYTE_LOAD_OVERHEAD);
                self.phase = Phase::Transition;
                StepOutcome::Continue
            }
            Phase::Transition => {
                // Attribute before the fetch so the per-label texture
                // counters see this step's (pre-transition) states.
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
    use crate::runner::Approach;
    use gpu_sim::GpuConfig;

    fn params() -> KernelParams {
        KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 8,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        }
    }

    #[test]
    fn all_variants_find_paper_matches() {
        let cfg = GpuConfig::gtx285();
        for approach in [
            Approach::SharedNaive,
            Approach::SharedCoalescedOnly,
            Approach::SharedDiagonal,
        ] {
            let (matches, stats) = build_rig(
                &cfg,
                &params(),
                &["he", "she", "his", "hers"],
                b"ushers and his hers she; the shepherd ushers hers",
                approach,
            );
            assert!(!matches.is_empty(), "{approach:?}");
            assert!(stats.totals.barriers > 0, "{approach:?} must synchronize");
        }
    }

    #[test]
    fn diagonal_variant_is_conflict_free() {
        let cfg = GpuConfig::gtx285();
        let (_, stats) = build_rig(
            &cfg,
            &params(),
            &["he", "she", "his", "hers"],
            &vec![b'x'; 8192],
            Approach::SharedDiagonal,
        );
        assert_eq!(
            stats.totals.shared_conflicts, 0,
            "diagonal scheme must produce zero bank conflicts"
        );
    }

    #[test]
    fn linear_variant_conflicts_with_multiword_chunks() {
        // 8-byte chunks = 2-word stride between threads: lanes 0 and 8
        // share a bank on every matching load (16 banks / 2 words).
        let cfg = GpuConfig::gtx285();
        let (_, stats) = build_rig(
            &cfg,
            &params(),
            &["he"],
            &vec![b'x'; 8192],
            Approach::SharedCoalescedOnly,
        );
        assert!(
            stats.totals.shared_conflicts > 0,
            "linear layout must conflict on matching loads"
        );
    }

    #[test]
    fn coalesced_variants_use_fewer_transactions_than_naive() {
        let cfg = GpuConfig::gtx285();
        let text = vec![b'q'; 16384];
        let (_, naive) = build_rig(&cfg, &params(), &["he"], &text, Approach::SharedNaive);
        let (_, coal) = build_rig(
            &cfg,
            &params(),
            &["he"],
            &text,
            Approach::SharedCoalescedOnly,
        );
        assert!(
            coal.totals.global_transactions * 2 < naive.totals.global_transactions,
            "coalesced {} vs naive {}",
            coal.totals.global_transactions,
            naive.totals.global_transactions
        );
    }
}
