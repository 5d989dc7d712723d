//! The Parallel Failureless AC kernel (Lin et al.), the related-work
//! baseline of paper §IV.A: one logical thread per input byte, each
//! walking the pure goto trie until its first missing transition.
//!
//! Compared to the paper's chunked kernels, PFAC launches vastly more
//! threads (one per byte) but each dies quickly; warps suffer divergence
//! as their lanes' walks end at different depths. Two modes share the
//! walk, transition and report steps and differ in where a walk reads
//! its bytes, the way [`super::SharedVariant`] selects staging:
//!
//! * [`PfacMode::Global`] — the baseline: every walk step reads its byte
//!   from global memory, so each input byte is read `walk_length` times.
//!   The `repro ablation-pfac` experiment quantifies that trade.
//! * [`PfacMode::Staged`] — each block first stages its `threads +
//!   longest − 1` bytes into shared memory with coalesced word loads (the
//!   paper's Figs. 9–10), synchronizes once, and its walks then read
//!   shared memory (the optimisation of Thambawita et al.). A walk never
//!   outlives the longest pattern, so the tile holds every byte a block's
//!   walks read.

use crate::kernels::{LaneReports, Scratch, Staging, WarpReadback};
use crate::layout::Plan;
use crate::upload::{MATCH_BIT, PFAC_STOP, STATE_MASK};
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};

/// Where PFAC's walks read their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfacMode {
    /// From global memory, one load per walk step (the baseline).
    Global,
    /// From the block's tile, staged into shared memory first.
    Staged,
}

impl PfacMode {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PfacMode::Global => "pfac",
            PfacMode::Staged => "pfac-staged",
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
    LoadByte,
    Transition,
    ReportMatches,
    Done,
}

/// The staged mode's tile: the block's anchors and the longest pattern's
/// tail past them.
#[derive(Debug)]
struct Tile {
    stage: Staging,
    /// The longest pattern: no walk steps further from its anchor.
    depth: u64,
}

impl Tile {
    fn new(geom: &WarpGeometry, plan: &Plan) -> Self {
        let t = geom.threads_per_block as u64;
        let start = geom.block_id as u64 * t;
        let end = (start + t + plan.overlap as u64).min(plan.text_len);
        Tile {
            stage: Staging::new(geom.warp_size, start, end, |words| words.div_ceil(t)),
            depth: plan.overlap as u64 + 1,
        }
    }
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
    /// The staged mode's tile; `None` in the global mode.
    tile: Option<Tile>,
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
    /// owned start is its anchor; in the staged mode its overlap is the
    /// longest pattern less one.
    pub fn new(
        mode: PfacMode,
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
        let tile = (mode == PfacMode::Staged).then(|| Tile::new(&geom, &plan));
        PfacKernel {
            geom,
            text_len,
            text_base,
            out_base,
            tex,
            phase: if tile.is_some() {
                Phase::StageLoad
            } else {
                Phase::LoadByte
            },
            tile,
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
        o != u64::MAX
            && self.geom.global_thread(lane as u32) + o < self.text_len
            && self.tile.as_ref().is_none_or(|tile| o < tile.depth)
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
        self.tile = None;
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
            Phase::StageLoad => {
                let tile = self.tile.as_mut().expect("only the staged mode stages");
                let geom = self.geom;
                let word = |k, lane| Some(Staging::coalesced(&geom, k, lane));
                if !tile
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
                let tile = self.tile.as_mut().expect("only the staged mode stages");
                tile.stage.store(ctx, &mut self.scratch.writes, |w| w);
                self.phase = Phase::StageLoad;
                StepOutcome::Continue
            }
            Phase::Sync => {
                // Released from the barrier StageLoad signalled.
                self.phase = Phase::LoadByte;
                ctx.compute(0);
                StepOutcome::Continue
            }
            Phase::LoadByte => {
                if (0..n).all(|l| !self.active(l)) {
                    return self.finish();
                }
                for lane in 0..n {
                    self.scratch.addrs[lane] = if self.active(lane) {
                        let t = self.geom.global_thread(lane as u32);
                        Some(match &self.tile {
                            Some(tile) => t - tile.stage.start + self.off[lane],
                            None => self.text_base + t + self.off[lane],
                        })
                    } else {
                        None
                    };
                }
                self.fill_attrs();
                ctx.attribute(&self.scratch.attrs);
                if self.tile.is_some() {
                    ctx.shared_read_u8(&self.scratch.addrs, &mut self.byte);
                } else {
                    ctx.global_read_u8(&self.scratch.addrs, &mut self.byte);
                }
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

    fn params() -> KernelParams {
        KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 8,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        }
    }

    #[test]
    fn pfac_finds_paper_matches() {
        let cfg = GpuConfig::gtx285();
        let (matches, stats) = build_rig(
            &cfg,
            &params(),
            &["he", "she", "his", "hers"],
            b"ushers and his hers she",
            Approach::Pfac,
        );
        assert!(!matches.is_empty());
        assert!(stats.cycles > 0);
        // No barriers in the baseline: there is no staging phase.
        assert_eq!(stats.totals.barriers, 0);
    }

    #[test]
    fn staged_pfac_reads_its_walks_from_shared_memory() {
        let cfg = GpuConfig::gtx285();
        let pats = ["he", "she", "his", "hers"];
        // Walks cross every block's tile end (32 anchors + 3 tail bytes).
        let text = b"ushers and his hers she; the shepherd ushers hers".repeat(4);
        let (base, global) = build_rig(&cfg, &params(), &pats, &text, Approach::Pfac);
        let (staged, shared) = build_rig(&cfg, &params(), &pats, &text, Approach::PfacStaged);
        assert_eq!(staged, base);
        let blocks = text.len().div_ceil(32) as u64;
        // Every warp of every block meets the one barrier.
        assert_eq!(shared.totals.barriers, blocks);
        // The walks' byte loads moved from global to shared memory: the
        // only global reads left are the staging words.
        assert!(shared.totals.global_requests < global.totals.global_requests);
        assert!(shared.totals.global_transactions < global.totals.global_transactions);
        assert!(shared.cycles < global.cycles);
    }
}
