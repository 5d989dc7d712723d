//! Two-level hot/cold STT kernel (extension, beyond the paper).
//!
//! Generalises [`super::compressed`]: the residency heatmap shows a small
//! set of shallow DFA states absorbs almost all texture fetches, so those
//! states keep the dense 257-texel row layout in a *small* hot texture —
//! sized to the texture-L2 budget so its lines stay cache-resident — while
//! the long cold tail falls back to bitmap rows.
//!
//! States are renumbered by BFS depth (shallow first) so the hot set is
//! exactly the id range `[0, hot_count)` and the hot/cold test is one ALU
//! compare, not a table lookup. A transition then costs:
//!
//! * **hot state** (the common case): 1 dense fetch from the hot texture —
//!   identical to the paper's kernel, but against a table small enough to
//!   stay resident at 20 000 patterns;
//! * **cold state**: the bitmap path — 3 meta fetches + popcount + 1
//!   packed-target-or-root fetch.
//!
//! Divergence is modelled faithfully: when no lane of a warp is cold the
//! bitmap instructions are never issued (branch not taken), and vice
//! versa.

use crate::kernels::{MatchLanes, Scratch};
use crate::layout::{DiagonalMap, Plan};
use ac_core::stt::STT_COLUMNS;
use ac_core::AcAutomaton;
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};
use std::sync::Arc;

/// Texels per cold-state row in the meta texture (same shape as the
/// bitmap layout: `[bm_lo, bm_hi, rank_base, 0]` × 4 symbol groups).
pub const COLD_META_COLS: u32 = 16;
/// Texels per row of the cold-targets texture.
pub const COLD_TARGET_ROW: u32 = 1024;

/// Host-side images of the two-level device tables.
#[derive(Debug, Clone)]
pub struct DeviceTwoLevelStt {
    /// Number of hot (dense) states; ids `[0, hot_count)` after
    /// renumbering. Always ≥ 1 (the root is always hot).
    pub hot_count: u32,
    /// Dense rows for the hot states: `hot_count × 257`, match flag in
    /// column 0, transitions in columns 1..=256 (the paper's layout).
    pub hot: Arc<Vec<u32>>,
    /// Cold-state bitmap meta, `(states − hot_count) × 16` texels; row
    /// index is `state − hot_count`.
    pub meta: Arc<Vec<u32>>,
    /// Meta rows (≥ 1; a single zero row when every state is hot).
    pub meta_rows: u32,
    /// Packed cold targets, row-major `ceil(len/COLD_TARGET_ROW)` rows.
    pub targets: Arc<Vec<u32>>,
    /// Target rows.
    pub target_rows: u32,
    /// The 256-texel root row, renumbered, match flag folded.
    pub root: Arc<Vec<u32>>,
    /// Total states.
    pub state_count: u32,
    /// Renumbering map back to original DFA ids (`new_to_old[new] ==
    /// old`): kernels report renumbered states, the host expansion needs
    /// the automaton's ids.
    pub new_to_old: Arc<Vec<u32>>,
}

impl DeviceTwoLevelStt {
    /// Build the device tables, sizing the hot set so its dense rows fit
    /// `hot_budget_bytes` (clamped to `[1, states]` rows).
    pub fn from_automaton(ac: &AcAutomaton, hot_budget_bytes: usize) -> Self {
        let stt = ac.stt();
        let n = stt.state_count();
        let row_bytes = STT_COLUMNS * 4;
        let hot_count = (hot_budget_bytes / row_bytes).clamp(1, n) as u32;

        // BFS order over DFA transitions == depth order (every state's
        // shortest path from the root is its trie depth). Shallow states
        // absorb the most visits, so they fill the hot id range first.
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        seen[0] = true;
        order.push(0u32);
        let mut head = 0;
        while head < order.len() {
            let s = order[head];
            head += 1;
            for a in 0..=255u8 {
                let t = stt.next(s, a);
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    order.push(t);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "all DFA states reachable from root");
        let mut perm = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as u32;
        }

        let flag = |s: u32| -> u32 {
            if stt.is_match(s) {
                crate::upload::MATCH_BIT
            } else {
                0
            }
        };
        let entry = |s: u32, a: u8| -> u32 {
            let t = stt.next(s, a);
            perm[t as usize] | flag(t)
        };

        let root: Vec<u32> = (0..=255u8).map(|a| entry(0, a)).collect();

        // Hot rows, dense, in new-id order.
        let mut hot = Vec::with_capacity(hot_count as usize * STT_COLUMNS);
        for &old in order.iter().take(hot_count as usize) {
            hot.push(if stt.is_match(old) { 1 } else { 0 });
            for a in 0..=255u8 {
                hot.push(entry(old, a));
            }
        }

        // Cold rows, bitmap-compressed against the renumbered root row.
        let mut meta = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        for &old in order.iter().skip(hot_count as usize) {
            let mut bitmaps = [0u64; 4];
            let mut state_targets: Vec<u32> = Vec::new();
            for a in 0..=255u8 {
                let e = entry(old, a);
                if e != root[a as usize] {
                    bitmaps[(a >> 6) as usize] |= 1u64 << (a & 63);
                    state_targets.push(e);
                }
            }
            let base = targets.len() as u32;
            let mut rank = 0u32;
            for bm in bitmaps {
                meta.push(bm as u32);
                meta.push((bm >> 32) as u32);
                meta.push(base + rank);
                meta.push(0);
                rank += bm.count_ones();
            }
            targets.extend(state_targets);
        }
        let meta_rows = (n as u32 - hot_count).max(1);
        meta.resize(meta_rows as usize * COLD_META_COLS as usize, 0);
        let target_rows = (targets.len() as u32).div_ceil(COLD_TARGET_ROW).max(1);
        targets.resize(target_rows as usize * COLD_TARGET_ROW as usize, 0);

        DeviceTwoLevelStt {
            hot_count,
            hot: Arc::new(hot),
            meta: Arc::new(meta),
            meta_rows,
            targets: Arc::new(targets),
            target_rows,
            root: Arc::new(root),
            state_count: n as u32,
            new_to_old: Arc::new(order),
        }
    }

    /// Total texture bytes across both levels.
    pub fn size_bytes(&self) -> usize {
        (self.hot.len() + self.meta.len() + self.targets.len() + self.root.len()) * 4
    }

    /// Dense-table bytes for the same automaton (for ratio reporting).
    pub fn dense_bytes(&self) -> usize {
        self.state_count as usize * STT_COLUMNS * 4
    }

    /// Host-side transition lookup (for table verification in tests):
    /// the folded entry `next_state | match_bit`, in renumbered ids.
    pub fn lookup(&self, state: u32, byte: u8) -> u32 {
        if state < self.hot_count {
            self.hot[state as usize * STT_COLUMNS + 1 + byte as usize]
        } else {
            let row = (state - self.hot_count) as usize * COLD_META_COLS as usize;
            let group = (byte >> 6) as usize;
            let bm =
                (self.meta[row + group * 4 + 1] as u64) << 32 | self.meta[row + group * 4] as u64;
            let bit = byte & 63;
            if bm & (1u64 << bit) != 0 {
                let rank = (bm & ((1u64 << bit) - 1)).count_ones();
                self.targets[(self.meta[row + group * 4 + 2] + rank) as usize]
            } else {
                self.root[byte as usize]
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    StageLoad,
    StageStore,
    Sync,
    LoadByte,
    FetchHot,
    FetchBitmapLo,
    FetchBitmapHi,
    FetchRank,
    FetchTarget,
    FetchRoot,
    ReportMatches,
    Done,
}

/// The two-level kernel: diagonal staging, then per transition a one-ALU
/// hot test routing each lane to the dense hot fetch or the bitmap path.
#[derive(Debug)]
pub struct TwoLevelKernel {
    geom: WarpGeometry,
    text_base: u64,
    out_base: u64,
    hot_count: u32,
    tex_hot: TexId,
    tex_meta: TexId,
    tex_targets: TexId,
    tex_root: TexId,
    tile_start: u64,
    tile_words: u64,
    k: u64,
    k_max: u64,
    map: DiagonalMap,
    phase: Phase,
    lanes: MatchLanes,
    scratch: Scratch,
    staged: Vec<u32>,
    staged_addr: Vec<Option<u64>>,
    bm_lo: Vec<u32>,
    bm_hi: Vec<u32>,
    rank_base: Vec<u32>,
    /// Lanes currently in a hot state (dense fetch).
    hot_mask: Vec<bool>,
    /// Cold lanes whose symbol hit the bitmap (packed-target fetch).
    hit_mask: Vec<bool>,
}

impl TwoLevelKernel {
    /// Build the warp's program.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        geom: WarpGeometry,
        plan: Plan,
        text_base: u64,
        out_base: u64,
        hot_count: u32,
        tex_hot: TexId,
        tex_meta: TexId,
        tex_targets: TexId,
        tex_root: TexId,
        record_events: bool,
    ) -> Self {
        let n = geom.warp_size as usize;
        let tile_owned = geom.threads_per_block as u64 * plan.chunk_bytes as u64;
        let tile_start = geom.block_id as u64 * tile_owned;
        let tile_end = (tile_start + tile_owned + plan.overlap as u64).min(plan.text_len);
        let tile_words = tile_end.saturating_sub(tile_start).div_ceil(4);
        let t = geom.threads_per_block as u64;
        TwoLevelKernel {
            geom,
            text_base,
            out_base,
            hot_count,
            tex_hot,
            tex_meta,
            tex_targets,
            tex_root,
            tile_start,
            tile_words,
            k: 0,
            k_max: tile_words.div_ceil(t),
            map: DiagonalMap::new(geom.threads_per_block, plan.chunk_bytes),
            phase: Phase::StageLoad,
            lanes: MatchLanes::new(&geom, &plan, record_events),
            scratch: Scratch::new(geom.warp_size),
            staged: vec![0; n],
            staged_addr: vec![None; n],
            bm_lo: vec![0; n],
            bm_hi: vec![0; n],
            rank_base: vec![0; n],
            hot_mask: vec![false; n],
            hit_mask: vec![false; n],
        }
    }

    /// The accumulated match events.
    pub fn take_results(&mut self) -> (Vec<crate::kernels::MatchEvent>, u64) {
        (
            std::mem::take(&mut self.lanes.events),
            self.lanes.event_count,
        )
    }

    fn finish(&mut self) -> StepOutcome {
        self.phase = Phase::Done;
        self.lanes.shrink();
        self.scratch.shrink();
        self.staged = Vec::new();
        self.staged_addr = Vec::new();
        self.bm_lo = Vec::new();
        self.bm_hi = Vec::new();
        self.rank_base = Vec::new();
        self.hot_mask = Vec::new();
        self.hit_mask = Vec::new();
        StepOutcome::Finished
    }

    fn any_cold(&self) -> bool {
        (0..self.hot_mask.len()).any(|l| self.lanes.active(l) && !self.hot_mask[l])
    }

    /// Final transition step of both paths: charge the update ALU work,
    /// apply the merged per-lane entries, branch to the result write.
    fn apply(&mut self, ctx: &mut WarpCtx<'_>) {
        ctx.compute(super::TRANSITION_OVERHEAD);
        let any = self.lanes.apply_transitions(&self.scratch.words);
        self.phase = if any {
            Phase::ReportMatches
        } else {
            Phase::LoadByte
        };
    }
}

/// Cold-lane meta texel: `(state − hot_count, group*4 + part)`.
fn cold_meta_coords(
    lanes: &MatchLanes,
    hot_mask: &[bool],
    hot_count: u32,
    part: u32,
    coords: &mut [Option<(u32, u32)>],
) {
    for (lane, coord) in coords.iter_mut().enumerate() {
        *coord = if lanes.active(lane) && !hot_mask[lane] {
            let group = (lanes.byte[lane] >> 6) as u32;
            Some((lanes.state[lane] - hot_count, group * 4 + part))
        } else {
            None
        };
    }
}

impl WarpProgram for TwoLevelKernel {
    fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
        let n = self.geom.warp_size as usize;
        match self.phase {
            Phase::StageLoad => {
                if self.k >= self.k_max {
                    self.phase = Phase::Sync;
                    return StepOutcome::Barrier;
                }
                let t = self.geom.threads_per_block as u64;
                for lane in 0..n {
                    let w = self.k * t + self.geom.block_thread(lane as u32) as u64;
                    self.staged_addr[lane] = (w < self.tile_words).then_some(w);
                    self.scratch.addrs[lane] =
                        self.staged_addr[lane].map(|w| self.text_base + self.tile_start + w * 4);
                }
                ctx.global_read_u32(&self.scratch.addrs, &mut self.staged);
                self.phase = Phase::StageStore;
                StepOutcome::Continue
            }
            Phase::StageStore => {
                for lane in 0..n {
                    self.scratch.writes[lane] = self.staged_addr[lane]
                        .map(|w| (self.map.map_word(w) * 4, self.staged[lane]));
                }
                ctx.shared_write_u32(&self.scratch.writes);
                self.k += 1;
                self.phase = Phase::StageLoad;
                StepOutcome::Continue
            }
            Phase::Sync => {
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
                        Some(self.map.map_byte(self.lanes.pos[lane] - self.tile_start))
                    } else {
                        None
                    };
                }
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                let (addrs, bytes) = (&self.scratch.addrs, &mut self.lanes.byte);
                ctx.shared_read_u8(addrs, bytes);
                // One extra compare for the hot/cold routing decision.
                ctx.compute(super::BYTE_LOAD_OVERHEAD + 1);
                let mut any_hot = false;
                for lane in 0..n {
                    self.hot_mask[lane] =
                        self.lanes.active(lane) && self.lanes.state[lane] < self.hot_count;
                    any_hot |= self.hot_mask[lane];
                }
                self.phase = if any_hot {
                    Phase::FetchHot
                } else {
                    Phase::FetchBitmapLo
                };
                StepOutcome::Continue
            }
            Phase::FetchHot => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                for lane in 0..n {
                    self.scratch.coords[lane] = if self.hot_mask[lane] {
                        Some((self.lanes.state[lane], 1 + self.lanes.byte[lane] as u32))
                    } else {
                        None
                    };
                }
                ctx.tex_fetch(self.tex_hot, &self.scratch.coords, &mut self.scratch.words);
                if self.any_cold() {
                    self.phase = Phase::FetchBitmapLo;
                } else {
                    // Whole warp hot: the bitmap branch is never taken.
                    self.apply(ctx);
                }
                StepOutcome::Continue
            }
            Phase::FetchBitmapLo => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                cold_meta_coords(
                    &self.lanes,
                    &self.hot_mask,
                    self.hot_count,
                    0,
                    &mut self.scratch.coords,
                );
                ctx.tex_fetch(self.tex_meta, &self.scratch.coords, &mut self.bm_lo);
                self.phase = Phase::FetchBitmapHi;
                StepOutcome::Continue
            }
            Phase::FetchBitmapHi => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                cold_meta_coords(
                    &self.lanes,
                    &self.hot_mask,
                    self.hot_count,
                    1,
                    &mut self.scratch.coords,
                );
                ctx.tex_fetch(self.tex_meta, &self.scratch.coords, &mut self.bm_hi);
                self.phase = Phase::FetchRank;
                StepOutcome::Continue
            }
            Phase::FetchRank => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                cold_meta_coords(
                    &self.lanes,
                    &self.hot_mask,
                    self.hot_count,
                    2,
                    &mut self.scratch.coords,
                );
                ctx.tex_fetch(self.tex_meta, &self.scratch.coords, &mut self.rank_base);
                ctx.compute(4); // popcount + bit test per cold lane
                for lane in 0..n {
                    self.hit_mask[lane] = false;
                    if !self.lanes.active(lane) || self.hot_mask[lane] {
                        continue;
                    }
                    let bit = self.lanes.byte[lane] & 63;
                    let bm = (self.bm_hi[lane] as u64) << 32 | self.bm_lo[lane] as u64;
                    self.hit_mask[lane] = bm & (1u64 << bit) != 0;
                }
                self.phase = Phase::FetchTarget;
                StepOutcome::Continue
            }
            Phase::FetchTarget => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                for lane in 0..n {
                    self.scratch.coords[lane] =
                        if self.lanes.active(lane) && !self.hot_mask[lane] && self.hit_mask[lane] {
                            let bit = self.lanes.byte[lane] & 63;
                            let bm = (self.bm_hi[lane] as u64) << 32 | self.bm_lo[lane] as u64;
                            let rank = (bm & ((1u64 << bit) - 1)).count_ones();
                            let idx = self.rank_base[lane] + rank;
                            Some((idx / COLD_TARGET_ROW, idx % COLD_TARGET_ROW))
                        } else {
                            None
                        };
                }
                ctx.tex_fetch(
                    self.tex_targets,
                    &self.scratch.coords,
                    &mut self.scratch.words,
                );
                self.phase = Phase::FetchRoot;
                StepOutcome::Continue
            }
            Phase::FetchRoot => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                for lane in 0..n {
                    self.scratch.coords[lane] = if self.lanes.active(lane)
                        && !self.hot_mask[lane]
                        && !self.hit_mask[lane]
                    {
                        Some((0, self.lanes.byte[lane] as u32))
                    } else {
                        None
                    };
                }
                let words = &mut self.scratch.words;
                ctx.tex_fetch(self.tex_root, &self.scratch.coords, words);
                self.apply(ctx);
                StepOutcome::Continue
            }
            Phase::ReportMatches => {
                for lane in 0..n {
                    self.scratch.writes[lane] = if self.lanes.matched[lane] {
                        let t = self.geom.global_thread(lane as u32);
                        Some((self.out_base + t * 4, self.lanes.pos[lane] as u32))
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
    use super::*;
    use ac_core::PatternSet;

    #[test]
    fn device_tables_agree_with_dense_walk() {
        let ps = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        // Budget of 3 dense rows forces a real hot/cold split.
        let dev = DeviceTwoLevelStt::from_automaton(&ac, 3 * STT_COLUMNS * 4);
        assert_eq!(dev.hot_count, 3);
        let stt = ac.stt();
        // Walk the same random-ish text through both tables; states are
        // renumbered so compare match flags and the induced match stream.
        let text = b"ushers and his hers; the shepherd rushes home she";
        let mut dense_state = 0u32;
        let mut two_state = 0u32;
        for &b in text.iter() {
            dense_state = stt.next(dense_state, b);
            let e = dev.lookup(two_state, b);
            two_state = e & crate::upload::STATE_MASK;
            assert_eq!(
                e & crate::upload::MATCH_BIT != 0,
                stt.is_match(dense_state),
                "match flags diverged at byte {b}"
            );
        }
    }

    #[test]
    fn budget_clamps_and_root_stays_hot() {
        let ps = PatternSet::from_strs(&["ab"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        let dev = DeviceTwoLevelStt::from_automaton(&ac, 0);
        assert_eq!(dev.hot_count, 1, "root row is always hot");
        let dev = DeviceTwoLevelStt::from_automaton(&ac, usize::MAX / 2);
        assert_eq!(dev.hot_count, dev.state_count, "budget clamps to states");
    }

    #[test]
    fn kernel_matches_serial_oracle() {
        let cfg = gpu_sim::GpuConfig::gtx285();
        let params = crate::KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 64,
            shared_chunk_bytes: 64,
        };
        let ps = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        let m = crate::GpuAcMatcher::new(cfg, params, ac).unwrap();
        let text = b"ushers and his hers; the shepherd rushes home";
        let run = m.run(text, crate::Approach::SharedTwoLevel).unwrap();
        let mut want = m.automaton().find_all(text);
        want.sort();
        assert_eq!(run.matches, want);
    }
}
