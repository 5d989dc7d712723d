//! Failure-banded STT shared-memory kernel (extension, beyond the paper).
//!
//! The STT layout family's compact member, encoded as a **flattened
//! trie of fat pointers**. Each state stores only the band of symbols on
//! which its row deviates from its *failure* state's row — by the AC
//! construction those are its trie children, so deep states store about
//! one entry instead of a 1028-byte dense row. The twist that makes the
//! layout fast rather than merely small: every transition entry is a
//! *fat pointer* that carries the target record's shape along with its
//! address, so the kernel always knows where the next answer lives
//! before it fetches — **one texture access per transition attempt**,
//! never a header fetch followed by a dependent entry fetch (a second
//! round trip the 8 KB texture L1 cannot hide once tens of warps are in
//! flight).
//!
//! A fat pointer packs, in 32 bits:
//!
//! * bits 0..8 — `lo`, the first byte of the target's stored band;
//! * bits 8..11 — the width class: the band is padded to
//!   `PADS[wcode] ∈ {0,1,4,8,16,32,128,256}` entries;
//! * bits 11..31 — the target's record offset, in texels;
//! * bit 31 — the target is a match state (`upload::MATCH_BIT`).
//!
//! The record at offset `off` is `[fail, e_lo, …]`: the failure state's
//! fat pointer, then one resolved fat entry per padded band byte. A byte
//! inside the band reads its entry directly (`off + 1 + (b - lo)`); a
//! byte outside reads `off` and retries from the failure state
//! (`next(s,a) == next(fail(s),a)` off-band by construction) — either
//! way, one fetch. Padding bytes hold their DFA-resolved entries, so a
//! wider class only spends space, never correctness, and the widest
//! class is a fully dense row that can never miss. The root is simply a
//! dense-class record like any other — no special root texture.
//!
//! Records are laid out in trie preorder: a pattern-following walk moves
//! parent → child, and preorder makes a deep state's lone child adjacent
//! to it, so runs of deep transitions stream through consecutive words
//! of the same 32-byte texture line. Wide records go to the branchy
//! shallow states that absorb most transitions, so their lines stay hot
//! in the texture caches while the long narrow tail costs ~2 texels per
//! state. That combination — one round trip per attempt, path-local
//! narrow records, cache-resident wide rows — is what lets the layout
//! beat the dense `states × 257` table at 20 000 patterns, where dense
//! pays a DRAM line fill for most transitions.

use crate::error::GpuError;
use crate::kernels::{MatchLanes, Scratch, WarpReadback};
use crate::layout::{DiagonalMap, Plan};
use crate::upload::{MATCH_BIT, STATE_MASK};
use ac_core::stt::STT_COLUMNS;
use ac_core::AcAutomaton;
use gpu_sim::{StepOutcome, TexId, WarpCtx, WarpGeometry, WarpProgram};
use std::sync::Arc;

/// Texels per row of the record texture (records are flat word offsets;
/// the 2-D shape exists only because textures are 2-D).
pub const BAND_ROW: u32 = 1024;

/// Fat-pointer bit layout.
const LO_MASK: u32 = 0xFF;
const WCODE_SHIFT: u32 = 8;
const WCODE_MASK: u32 = 0x7;
const OFF_SHIFT: u32 = 11;
const OFF_MASK: u32 = (1 << 20) - 1;

/// Padded band sizes, indexed by width class.
const PADS: [u32; 8] = [0, 1, 4, 8, 16, 32, 128, 256];

/// First record offset: one texture line of zero padding so a fat value
/// of zero (the warp-start sentinel) can never collide with a record.
const FIRST_RECORD: u32 = 8;

#[inline]
fn fat_lo(f: u32) -> u32 {
    f & LO_MASK
}

#[inline]
fn fat_pad(f: u32) -> u32 {
    PADS[((f >> WCODE_SHIFT) & WCODE_MASK) as usize]
}

/// Record offset carried by a fat pointer. Public (crate) so the runner
/// can translate kernel-reported states back through `new_to_old`.
#[inline]
pub(crate) fn fat_off(f: u32) -> u32 {
    (f >> OFF_SHIFT) & OFF_MASK
}

/// Host-side image of the flattened-trie device tables. Kernel-visible
/// state ids are fat pointers; `new_to_old[fat_off(fat)]` recovers the
/// automaton's state id.
#[derive(Debug, Clone)]
pub struct DeviceBandedStt {
    /// The record texture: preorder records, padded to whole rows.
    pub words: Arc<Vec<u32>>,
    /// Record texture rows (`ceil(words / BAND_ROW)`).
    pub word_rows: u32,
    /// Total states (including the root).
    pub state_count: u32,
    /// Fat pointer of each automaton state (`fat_of[0]` is the root —
    /// the kernel's start state).
    pub fat_of: Arc<Vec<u32>>,
    /// Old state id per record offset (zero between records; the runner
    /// only indexes it at offsets the kernel reported).
    pub new_to_old: Arc<Vec<u32>>,
}

impl DeviceBandedStt {
    /// [`DeviceBandedStt::try_from_automaton`] for automata known to fit.
    ///
    /// # Panics
    ///
    /// When the records overflow the fat pointers' 20-bit offsets.
    pub fn from_automaton(ac: &AcAutomaton) -> Self {
        Self::try_from_automaton(ac).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the device tables from an automaton. Failure links are
    /// recovered from the DFA itself by the standard BFS identity
    /// (`fail(next(s,a)) = next(fail(s),a)`, depth-1 states fail to the
    /// root), so no NFA-side plumbing is needed. Fails with
    /// [`GpuError::InvalidParams`] when the records need more texels than
    /// a fat pointer's 20-bit offset addresses; the dense layout has no
    /// such limit and is the fallback.
    pub fn try_from_automaton(ac: &AcAutomaton) -> Result<Self, GpuError> {
        let stt = ac.stt();
        let n = stt.state_count();

        // BFS over DFA transitions: discovery order == depth order, so
        // the failure identity applies edge by edge, and the discovery
        // edges are exactly the trie edges.
        let mut seen = vec![false; n];
        let mut fail = vec![0u32; n];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        while let Some(s) = queue.pop_front() {
            for a in 0..=255u8 {
                let t = stt.next(s, a);
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    fail[t as usize] = if s == 0 {
                        0
                    } else {
                        stt.next(fail[s as usize], a)
                    };
                    children[s as usize].push(t);
                    queue.push_back(t);
                }
            }
        }

        // Band of deviations from the failure state, then the smallest
        // padded class that covers it. The root gets the dense class (its
        // "band" is the whole alphabet in spirit: it must answer every
        // byte with no failure state to lean on).
        let mut lo_of = vec![0u32; n];
        let mut wcode_of = vec![0u32; n];
        for s in 1..n {
            let f = fail[s];
            let (mut lo, mut hi) = (256u32, 0u32);
            for a in 0..=255u8 {
                if stt.next(s as u32, a) != stt.next(f, a) {
                    lo = lo.min(a as u32);
                    hi = hi.max(a as u32 + 1);
                }
            }
            let width = hi.saturating_sub(lo);
            let wcode = PADS.iter().position(|&p| p >= width).unwrap() as u32;
            // Width-0 and fully dense records anchor at byte 0 (dense so
            // the whole byte range is in-band, width-0 because there is
            // no band to anchor).
            (lo_of[s], wcode_of[s]) = if PADS[wcode as usize] == 256 || width == 0 {
                (0, wcode)
            } else {
                (lo, wcode)
            };
        }
        wcode_of[0] = (PADS.len() - 1) as u32;

        // Entries stored per record: the padded band, clipped to the
        // byte range.
        let entries = |s: usize| PADS[wcode_of[s] as usize].min(256 - lo_of[s]);

        // Preorder offset assignment: a deep state's lone child lands
        // immediately after its own record, so pattern-following walks
        // stream through consecutive words.
        let mut offset_of = vec![0u32; n];
        let mut next_free = FIRST_RECORD;
        let mut stack: Vec<u32> = vec![0];
        while let Some(s) = stack.pop() {
            offset_of[s as usize] = next_free;
            next_free += 1 + entries(s as usize);
            for &c in children[s as usize].iter().rev() {
                stack.push(c);
            }
        }
        if next_free > OFF_MASK + 1 {
            return Err(GpuError::InvalidParams(format!(
                "automaton too large for the banded layout: {next_free} texels \
                 exceed the {} a 20-bit record offset addresses; use the dense layout",
                OFF_MASK + 1
            )));
        }

        let fat = |s: u32| -> u32 {
            let m = if stt.is_match(s) { MATCH_BIT } else { 0 };
            lo_of[s as usize]
                | (wcode_of[s as usize] << WCODE_SHIFT)
                | (offset_of[s as usize] << OFF_SHIFT)
                | m
        };

        let word_rows = next_free.div_ceil(BAND_ROW).max(1);
        let mut words = vec![0u32; word_rows as usize * BAND_ROW as usize];
        let mut new_to_old = vec![0u32; words.len()];
        let mut fat_of = vec![0u32; n];
        for s in 0..n as u32 {
            let off = offset_of[s as usize] as usize;
            fat_of[s as usize] = fat(s);
            words[off] = fat(fail[s as usize]);
            let lo = lo_of[s as usize];
            for i in 0..entries(s as usize) {
                words[off + 1 + i as usize] = fat(stt.next(s, (lo + i) as u8));
            }
            new_to_old[off] = s;
        }

        Ok(DeviceBandedStt {
            words: Arc::new(words),
            word_rows,
            state_count: n as u32,
            fat_of: Arc::new(fat_of),
            new_to_old: Arc::new(new_to_old),
        })
    }

    /// Total texture bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Dense-table bytes for the same automaton (for ratio reporting).
    pub fn dense_bytes(&self) -> usize {
        self.state_count as usize * STT_COLUMNS * 4
    }

    /// Host-side transition lookup (table verification in tests): from a
    /// state's fat pointer, the fat entry for `byte` — the same
    /// band-test-then-fail walk the kernel performs, one word read per
    /// step.
    pub fn lookup(&self, fat: u32, byte: u8) -> u32 {
        let mut cur = fat;
        loop {
            let (lo, b) = (fat_lo(cur), byte as u32);
            if b >= lo && b - lo < fat_pad(cur) {
                return self.words[(fat_off(cur) + 1 + (b - lo)) as usize];
            }
            cur = self.words[fat_off(cur) as usize];
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    StageLoad,
    StageStore,
    Sync,
    ReadBytes,
    Fetch,
    WriteMatches,
    Done,
}

/// The fat-pointer kernel: diagonal staging, then an interleaved
/// per-lane scan loop — each round, lanes that finished their previous
/// byte read the next one from shared memory (predicated), then every
/// lane with a pending byte issues one texture fetch: an in-band lane
/// reads its resolved entry and advances, an off-band lane reads the
/// failure fat pointer and retries next round. A chaining lane therefore
/// never stalls the other 31 — it just lags a round behind — so warp
/// cost tracks the *maximum* per-lane fetch count (≈ bytes × chain
/// factor), not bytes × worst-lane-per-byte.
#[derive(Debug)]
pub struct BandedKernel {
    geom: WarpGeometry,
    text_base: u64,
    out_base: u64,
    tex_words: TexId,
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
    /// Current fat pointer per lane (walks failure links on band misses).
    cur: Vec<u32>,
    /// Lanes holding a byte whose transition is not yet resolved.
    has_byte: Vec<bool>,
    /// Lanes whose current fetch is an in-band entry (vs a failure step).
    took_entry: Vec<bool>,
    /// Landing buffer for the resolve fetch.
    fetched: Vec<u32>,
}

impl BandedKernel {
    /// Build the warp's program.
    pub fn new(
        geom: WarpGeometry,
        plan: Plan,
        text_base: u64,
        out_base: u64,
        tex_words: TexId,
        root_fat: u32,
        record_events: bool,
    ) -> Self {
        let n = geom.warp_size as usize;
        let tile_owned = geom.threads_per_block as u64 * plan.chunk_bytes as u64;
        let tile_start = geom.block_id as u64 * tile_owned;
        let tile_end = (tile_start + tile_owned + plan.overlap as u64).min(plan.text_len);
        let tile_words = tile_end.saturating_sub(tile_start).div_ceil(4);
        let t = geom.threads_per_block as u64;
        BandedKernel {
            geom,
            text_base,
            out_base,
            tex_words,
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
            cur: vec![root_fat; n],
            has_byte: vec![false; n],
            took_entry: vec![false; n],
            fetched: vec![0; n],
        }
    }

    /// The warp's readback (fat-pointer states; the runner maps them
    /// back through `new_to_old`).
    pub fn take_results(&mut self) -> WarpReadback {
        self.lanes.reports.take()
    }

    fn finish(&mut self) -> StepOutcome {
        self.phase = Phase::Done;
        self.lanes.shrink(&self.geom);
        self.scratch.shrink();
        self.staged = Vec::new();
        self.staged_addr = Vec::new();
        self.cur = Vec::new();
        self.has_byte = Vec::new();
        self.took_entry = Vec::new();
        self.fetched = Vec::new();
        StepOutcome::Finished
    }

    /// Where the scan loop goes next: byte reads if any lane consumed its
    /// byte (or everyone finished — `ReadBytes` owns the exit check),
    /// straight back to the fetch when the whole warp is mid-chain.
    fn next_scan_phase(&self) -> Phase {
        let n = self.geom.warp_size as usize;
        let mut any_chain = false;
        for lane in 0..n {
            if self.lanes.active(lane) {
                if !self.has_byte[lane] {
                    return Phase::ReadBytes;
                }
                any_chain = true;
            }
        }
        if any_chain {
            Phase::Fetch
        } else {
            Phase::ReadBytes
        }
    }
}

impl WarpProgram for BandedKernel {
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
                self.phase = Phase::ReadBytes;
                ctx.compute(0);
                StepOutcome::Continue
            }
            Phase::ReadBytes => {
                if self.lanes.all_done() {
                    return self.finish();
                }
                for lane in 0..n {
                    self.scratch.addrs[lane] = if self.lanes.active(lane) && !self.has_byte[lane] {
                        Some(self.map.map_byte(self.lanes.pos[lane] - self.tile_start))
                    } else {
                        None
                    };
                }
                for lane in 0..n {
                    // Labels are record offsets (the kernel's state ids);
                    // the runner maps them back through `new_to_old`.
                    self.scratch.attrs[lane] = self
                        .lanes
                        .active(lane)
                        .then(|| gpu_sim::LaneAttr::state(fat_off(self.cur[lane])));
                }
                ctx.attribute(&self.scratch.attrs);
                let (addrs, bytes) = (&self.scratch.addrs, &mut self.lanes.byte);
                ctx.shared_read_u8(addrs, bytes);
                ctx.compute(super::BYTE_LOAD_OVERHEAD);
                for lane in 0..n {
                    if self.scratch.addrs[lane].is_some() {
                        self.has_byte[lane] = true;
                    }
                }
                self.phase = Phase::Fetch;
                StepOutcome::Continue
            }
            Phase::Fetch => {
                for lane in 0..n {
                    self.took_entry[lane] = false;
                    self.scratch.coords[lane] = if self.lanes.active(lane) && self.has_byte[lane] {
                        let f = self.cur[lane];
                        let (lo, b) = (fat_lo(f), self.lanes.byte[lane] as u32);
                        let idx = if b >= lo && b - lo < fat_pad(f) {
                            self.took_entry[lane] = true;
                            fat_off(f) + 1 + (b - lo)
                        } else {
                            fat_off(f)
                        };
                        Some((idx / BAND_ROW, idx % BAND_ROW))
                    } else {
                        None
                    };
                }
                for lane in 0..n {
                    // An off-band lane is walking its failure chain: that
                    // fetch (and its share of this step) is failure cost,
                    // charged to the state whose band missed.
                    self.scratch.attrs[lane] =
                        self.scratch.coords[lane]
                            .is_some()
                            .then(|| gpu_sim::LaneAttr {
                                label: fat_off(self.cur[lane]),
                                fail: !self.took_entry[lane],
                            });
                }
                ctx.attribute(&self.scratch.attrs);
                ctx.tex_fetch(self.tex_words, &self.scratch.coords, &mut self.fetched);
                // Band test, fat-pointer unpack, and the per-lane state
                // update for the lanes whose entry just landed.
                ctx.compute(super::TRANSITION_OVERHEAD + 2);
                let mut any_matched = false;
                for lane in 0..n {
                    self.lanes.matched[lane] = false;
                    if self.scratch.coords[lane].is_none() {
                        continue;
                    }
                    let fat = self.fetched[lane] & STATE_MASK;
                    self.cur[lane] = fat;
                    if !self.took_entry[lane] {
                        // Off-band: step to the failure record, retry the
                        // same byte next round.
                        continue;
                    }
                    // Unlike the dense kernels, this one reports every
                    // match state it enters, owned outputs or not: a fat
                    // pointer has no spare bits for the target's longest
                    // output length, and a per-record length word cost
                    // 3.5% (2,000 patterns) and 4.1% (20,000 patterns) of
                    // this kernel's simulated Gb/s on the acbench scans.
                    // The host's dedup collapses the overlap copies.
                    any_matched |=
                        self.lanes
                            .consume(lane, fat, self.fetched[lane] & MATCH_BIT != 0);
                    self.has_byte[lane] = false;
                }
                self.phase = if any_matched {
                    Phase::WriteMatches
                } else {
                    self.next_scan_phase()
                };
                StepOutcome::Continue
            }
            Phase::WriteMatches => {
                self.lanes
                    .fill_result_writes(&self.geom, self.out_base, &mut self.scratch.writes);
                ctx.global_write_u32(&self.scratch.writes);
                self.phase = self.next_scan_phase();
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
    fn device_tables_agree_with_dense_stt() {
        let ps = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        let dev = DeviceBandedStt::from_automaton(&ac);
        let stt = ac.stt();
        // Check every (state, symbol) pair: the walk from a state's fat
        // pointer must resolve to the dense transition's fat pointer,
        // match flag included.
        for s in 0..stt.state_count() as u32 {
            for a in 0..=255u8 {
                let e = dev.lookup(dev.fat_of[s as usize], a);
                let t = stt.next(s, a);
                assert_eq!(e, dev.fat_of[t as usize], "({s},{a})");
                assert_eq!(
                    e & crate::upload::MATCH_BIT != 0,
                    stt.is_match(t),
                    "flag ({s},{a})"
                );
            }
        }
    }

    #[test]
    fn failure_chains_terminate_and_deep_bands_stay_narrow() {
        let many: Vec<String> = (0..400).map(|i| format!("keyword{i:03}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&refs).unwrap());
        let dev = DeviceBandedStt::from_automaton(&ac);
        let n = dev.state_count as usize;
        let root_off = fat_off(dev.fat_of[0]);
        let mut narrow = 0usize;
        for s in 1..n {
            // Every fail chain must reach the root in fewer steps than
            // there are states (failure depth strictly decreases).
            let mut cur = dev.fat_of[s];
            let mut steps = 0;
            while fat_off(cur) != root_off {
                cur = dev.words[fat_off(cur) as usize];
                steps += 1;
                assert!(steps <= n, "fail chain from state {s} does not terminate");
            }
            if fat_pad(dev.fat_of[s]) <= 1 {
                narrow += 1;
            }
        }
        // Failure-relative bands are the point: the vast majority of
        // states are at most one trie child wide; only branchy prefix
        // states carry wider padded classes.
        assert!(
            narrow * 20 >= n * 17,
            "only {narrow}/{n} states have width <= 1"
        );
    }

    #[test]
    fn preorder_keeps_single_child_chains_contiguous() {
        let ps = PatternSet::from_strs(&["abcdefgh"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        let dev = DeviceBandedStt::from_automaton(&ac);
        // One pattern → a pure chain; each non-root record is at most
        // 2 words (fail + one padded entry), so consecutive depths must
        // be adjacent in the texture.
        let mut offs: Vec<u32> = (1..dev.state_count as usize)
            .map(|s| fat_off(dev.fat_of[s]))
            .collect();
        offs.sort_unstable();
        for pair in offs.windows(2) {
            assert!(
                pair[1] - pair[0] <= 2,
                "records {} and {} are not contiguous",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn banded_tables_are_much_smaller() {
        let many: Vec<String> = (0..400).map(|i| format!("keyword{i:03}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&refs).unwrap());
        let dev = DeviceBandedStt::from_automaton(&ac);
        // A few texels per deep state against 1028 dense bytes: well past
        // 16x even with the padded wide classes.
        assert!(
            dev.size_bytes() * 16 < dev.dense_bytes(),
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
            pin_paper_launch: false,
        };
        let ps = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
        let ac = AcAutomaton::build(&ps);
        let m = crate::GpuAcMatcher::new(cfg, params, ac).unwrap();
        let text = b"ushers and his hers; the shepherd rushes home";
        let run = m.run(text, crate::Approach::SharedBanded).unwrap();
        let mut want = m.automaton().find_all(text);
        want.sort();
        assert_eq!(run.matches, want);
    }
}
