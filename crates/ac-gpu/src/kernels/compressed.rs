//! Compressed-STT shared-memory kernel (extension, beyond the paper).
//!
//! The paper's related work (Zha, Scarpazza & Sahni) compresses the
//! automaton to fit small on-chip memories; this kernel brings the same
//! idea to the texture path. The dense 257-column STT is replaced by the
//! bitmap-compressed form of `ac_core::CompressedStt`, laid out across
//! three textures:
//!
//! * **meta** — one row per state, 16 texels: for each of the four
//!   64-symbol groups, `[bitmap_lo, bitmap_hi, rank_base, 0]`, where
//!   `rank_base` is the CSR offset plus the popcount of the earlier
//!   groups (so a lookup needs only its own group's texels);
//! * **targets** — the CSR array of non-restart transitions, match flag
//!   folded into bit 31;
//! * **root** — the 256-entry root row (restart transitions), match flag
//!   folded.
//!
//! A transition costs 3 meta fetches (one 32-byte line in the common
//! case) plus one fetch from either `targets` or `root` — ~4× the dense
//! kernel's texture work, but the meta footprint is 64 bytes/state
//! instead of 1028, so at large dictionaries the hot set stays cache
//! resident. `repro ablation-compressed` quantifies the crossover.

use crate::kernels::{MatchLanes, Scratch};
use crate::layout::{DiagonalMap, Plan};
use ac_core::stt::STT_COLUMNS;
use ac_core::AcAutomaton;
use ac_core::CompressedStt;
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};
use std::sync::Arc;

/// Texels per state row in the meta texture.
pub const META_COLS: u32 = 16;
/// Texels per row of the targets texture (keeps rows cache-tile sized).
pub const TARGET_ROW: u32 = 1024;

/// Host-side images of the compressed device tables.
#[derive(Debug, Clone)]
pub struct DeviceCompressedStt {
    /// `states × 16` meta texels.
    pub meta: Arc<Vec<u32>>,
    /// Meta rows.
    pub meta_rows: u32,
    /// Targets, row-major `ceil(len/TARGET_ROW) × TARGET_ROW`.
    pub targets: Arc<Vec<u32>>,
    /// Target rows.
    pub target_rows: u32,
    /// The 256-texel root row.
    pub root: Arc<Vec<u32>>,
}

impl DeviceCompressedStt {
    /// Build the device tables from an automaton.
    pub fn from_automaton(ac: &AcAutomaton) -> Self {
        let stt = ac.stt();
        let comp = CompressedStt::from_stt(stt);
        let n = comp.state_count();
        let flag = |s: u32| -> u32 {
            if stt.is_match(s) {
                crate::upload::MATCH_BIT
            } else {
                0
            }
        };

        // Rebuild the raw pieces by probing the compressed table (keeps
        // this layout independent of CompressedStt's internals).
        let root: Vec<u32> = (0..=255u8)
            .map(|a| {
                let t = comp.next(0, a);
                t | flag(t)
            })
            .collect();

        let mut meta = Vec::with_capacity(n * META_COLS as usize);
        let mut targets: Vec<u32> = Vec::new();
        for s in 0..n as u32 {
            let mut bitmaps = [0u64; 4];
            let mut state_targets: Vec<u32> = Vec::new();
            for a in 0..=255u8 {
                let t = comp.next(s, a);
                if t != root[a as usize] & crate::upload::STATE_MASK {
                    bitmaps[(a >> 6) as usize] |= 1u64 << (a & 63);
                    state_targets.push(t | flag(t));
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
        // Pad targets to full rows.
        let target_rows = (targets.len() as u32).div_ceil(TARGET_ROW).max(1);
        targets.resize(target_rows as usize * TARGET_ROW as usize, 0);

        DeviceCompressedStt {
            meta: Arc::new(meta),
            meta_rows: n as u32,
            targets: Arc::new(targets),
            target_rows,
            root: Arc::new(root),
        }
    }

    /// Total texture bytes (the footprint advantage over the dense STT).
    pub fn size_bytes(&self) -> usize {
        (self.meta.len() + self.targets.len() + self.root.len()) * 4
    }

    /// Dense-table bytes for the same automaton (for ratio reporting).
    pub fn dense_bytes(&self) -> usize {
        self.meta_rows as usize * STT_COLUMNS * 4
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    StageLoad,
    StageStore,
    Sync,
    LoadByte,
    FetchBitmapLo,
    FetchBitmapHi,
    FetchRank,
    FetchTarget,
    FetchRoot,
    ReportMatches,
    Done,
}

/// The compressed-table kernel: diagonal staging (identical to
/// [`super::SharedKernel`] with [`crate::SharedVariant::Diagonal`])
/// followed by a 4-fetch transition loop.
#[derive(Debug)]
pub struct CompressedKernel {
    geom: WarpGeometry,
    text_base: u64,
    out_base: u64,
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
    /// Per-lane decoded bitmap halves and rank bases for the in-flight
    /// transition.
    bm_lo: Vec<u32>,
    bm_hi: Vec<u32>,
    rank_base: Vec<u32>,
    /// Lanes whose symbol hit the bitmap (need a `targets` fetch).
    hit_mask: Vec<bool>,
}

impl CompressedKernel {
    /// Build the warp's program.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        geom: WarpGeometry,
        plan: Plan,
        text_base: u64,
        out_base: u64,
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
        CompressedKernel {
            geom,
            text_base,
            out_base,
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
        self.hit_mask = Vec::new();
        StepOutcome::Finished
    }
}

/// Meta texel column for each lane's symbol group: `group*4 + part`.
fn meta_coords(lanes: &MatchLanes, part: u32, coords: &mut [Option<(u32, u32)>]) {
    for (lane, coord) in coords.iter_mut().enumerate() {
        *coord = if lanes.active(lane) {
            let group = (lanes.byte[lane] >> 6) as u32;
            Some((lanes.state[lane], group * 4 + part))
        } else {
            None
        };
    }
}

impl WarpProgram for CompressedKernel {
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
                ctx.compute(super::BYTE_LOAD_OVERHEAD);
                self.phase = Phase::FetchBitmapLo;
                StepOutcome::Continue
            }
            Phase::FetchBitmapLo => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                meta_coords(&self.lanes, 0, &mut self.scratch.coords);
                ctx.tex_fetch(self.tex_meta, &self.scratch.coords, &mut self.bm_lo);
                self.phase = Phase::FetchBitmapHi;
                StepOutcome::Continue
            }
            Phase::FetchBitmapHi => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                meta_coords(&self.lanes, 1, &mut self.scratch.coords);
                ctx.tex_fetch(self.tex_meta, &self.scratch.coords, &mut self.bm_hi);
                self.phase = Phase::FetchRank;
                StepOutcome::Continue
            }
            Phase::FetchRank => {
                self.lanes.fill_attrs(&mut self.scratch.attrs);
                ctx.attribute(&self.scratch.attrs);
                meta_coords(&self.lanes, 2, &mut self.scratch.coords);
                ctx.tex_fetch(self.tex_meta, &self.scratch.coords, &mut self.rank_base);
                ctx.compute(4); // popcount + bit test per lane
                                // Decide per lane whether the transition is stored or a
                                // restart.
                for lane in 0..n {
                    self.hit_mask[lane] = false;
                    if !self.lanes.active(lane) {
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
                // Stored-transition lanes fetch from the CSR targets.
                for lane in 0..n {
                    self.scratch.coords[lane] = if self.lanes.active(lane) && self.hit_mask[lane] {
                        let bit = self.lanes.byte[lane] & 63;
                        let bm = (self.bm_hi[lane] as u64) << 32 | self.bm_lo[lane] as u64;
                        let rank = (bm & ((1u64 << bit) - 1)).count_ones();
                        let idx = self.rank_base[lane] + rank;
                        Some((idx / TARGET_ROW, idx % TARGET_ROW))
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
                // Restart lanes fetch the root row; results merge into the
                // same per-lane transition-entry buffer.
                for lane in 0..n {
                    self.scratch.coords[lane] = if self.lanes.active(lane) && !self.hit_mask[lane] {
                        Some((0, self.lanes.byte[lane] as u32))
                    } else {
                        None
                    };
                }
                let words = &mut self.scratch.words;
                ctx.tex_fetch(self.tex_root, &self.scratch.coords, words);
                ctx.compute(super::TRANSITION_OVERHEAD);
                let any = self.lanes.apply_transitions(&self.scratch.words);
                self.phase = if any {
                    Phase::ReportMatches
                } else {
                    Phase::LoadByte
                };
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
    fn device_tables_agree_with_compressed_stt() {
        let ps = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        let dev = DeviceCompressedStt::from_automaton(&ac);
        let stt = ac.stt();
        // Walk every (state, symbol) through the device layout and compare
        // with the dense table.
        for s in 0..stt.state_count() as u32 {
            for a in 0..=255u8 {
                let group = (a >> 6) as usize;
                let row = s as usize * META_COLS as usize;
                let bm =
                    (dev.meta[row + group * 4 + 1] as u64) << 32 | dev.meta[row + group * 4] as u64;
                let entry = if bm & (1u64 << (a & 63)) != 0 {
                    let rank = (bm & ((1u64 << (a & 63)) - 1)).count_ones();
                    let idx = dev.meta[row + group * 4 + 2] + rank;
                    dev.targets[idx as usize]
                } else {
                    dev.root[a as usize]
                };
                assert_eq!(
                    entry & crate::upload::STATE_MASK,
                    stt.next(s, a),
                    "({s},{a})"
                );
                assert_eq!(
                    entry & crate::upload::MATCH_BIT != 0,
                    stt.is_match(stt.next(s, a)),
                    "flag ({s},{a})"
                );
            }
        }
    }

    #[test]
    fn compressed_tables_are_much_smaller() {
        let many: Vec<String> = (0..400).map(|i| format!("keyword{i:03}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&refs).unwrap());
        let dev = DeviceCompressedStt::from_automaton(&ac);
        assert!(
            dev.size_bytes() * 4 < dev.dense_bytes(),
            "{} !< {}",
            dev.size_bytes(),
            dev.dense_bytes()
        );
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
        let run = m.run(text, crate::Approach::SharedCompressed).unwrap();
        let mut want = m.automaton().find_all(text);
        want.sort();
        assert_eq!(run.matches, want);
    }
}
