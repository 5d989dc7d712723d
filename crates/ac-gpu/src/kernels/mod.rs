//! The warp-program kernels: the paper's two approaches (§IV.B.3), the two
//! degraded staging variants that Fig. 23 compares against, the PFAC
//! related-work baseline and its staged mode, and the failure-banded
//! layout extension.

pub mod banded;
pub mod global_only;
pub mod pfac;
pub mod shared;

pub use banded::{BandedKernel, DeviceBandedStt};
pub use global_only::GlobalOnlyKernel;
pub use pfac::{PfacKernel, PfacMode};
pub use shared::{SharedKernel, SharedVariant};

use crate::layout::Plan;
use crate::readback::{ThreadTally, WordCoding};
use crate::upload::{longest_output_len, DENSE_STATE_MASK, LEN_SATURATED, MATCH_BIT};
use gpu_sim::{LaneAttr, WarpCtx, WarpGeometry};
use serde::{Deserialize, Serialize};

/// Arithmetic cycles charged per byte-load iteration of the matching loop
/// beyond the memory instruction itself: address computation and the loop
/// branch. Calibrated so the simulated shared-memory kernel's peak
/// throughput lands near the paper's measured range (see EXPERIMENTS.md).
pub(crate) const BYTE_LOAD_OVERHEAD: u32 = 2;

/// Arithmetic cycles charged per transition iteration: byte extraction,
/// texture-coordinate setup, state update, match predicate.
pub(crate) const TRANSITION_OVERHEAD: u32 = 6;

/// A raw match event reported by a kernel: the DFA entered a matching
/// state. Like the CUDA implementations, which write one result word per
/// match and post-process on the host, an event names a position and a
/// state, not a pattern: every pattern in the state's output set ends at
/// `end`, so its start is `end - len(pattern)`. On the device each event
/// of a chunked kernel is one delta-coded 32-bit word in its thread's run
/// of the readback frame (see [`crate::readback`]; a PFAC thread's events
/// collapse into one word for its walk); the host decodes it back to this
/// pair. The dense-table kernels report only events with at least one
/// output their thread owns; the host expands events into concrete
/// occurrences and collapses the copies that overlapping scan windows
/// still report (see `GpuAcMatcher::expand`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchEvent {
    /// Exclusive end offset of the match in the input. Texts are capped
    /// at `u32::MAX` bytes, so an offset always fits.
    pub end: u32,
    /// Matching state (mask already applied).
    pub state: u32,
}

/// One reporting thread's share of a retired warp's readback.
#[derive(Debug)]
pub struct ThreadReadback {
    /// Global thread id.
    pub thread: u64,
    /// Event and zero words its events cost in the frame.
    pub words: u64,
    /// Its events in report order (empty in counting mode).
    pub events: Vec<MatchEvent>,
}

/// What a retired warp hands the host: its reporting threads in thread
/// order and the events it observed.
#[derive(Debug)]
pub struct WarpReadback {
    /// Lanes that reported at least one event, in lane order.
    pub threads: Vec<ThreadReadback>,
    /// Match events reported (always counted).
    pub event_count: u64,
}

/// Per-lane result reporting shared by every kernel: each lane's frame
/// tally, the event word its last report stores, and (when recording)
/// its events.
#[derive(Debug)]
pub(crate) struct LaneReports {
    coding: WordCoding,
    /// Whether to materialize events (benches turn this off to bound
    /// memory at paper-scale inputs; timing is unaffected because the
    /// result-write instructions are issued either way, and the tallies
    /// run in both modes).
    record: bool,
    tally: Vec<ThreadTally>,
    /// The event word of each lane's last report: the value its result
    /// store writes.
    pub word: Vec<u32>,
    events: Vec<Vec<MatchEvent>>,
    /// Match events reported (always counted).
    pub event_count: u64,
    /// The compacted readback, once the warp retires.
    retired: Vec<ThreadReadback>,
}

impl LaneReports {
    /// Empty reports for the warp's lanes, each tallied from its thread's
    /// owned start.
    pub fn new(geom: &WarpGeometry, coding: WordCoding, record: bool) -> Self {
        let n = geom.warp_size as usize;
        LaneReports {
            coding,
            record,
            tally: (0..n)
                .map(|lane| ThreadTally::new(coding, geom.global_thread(lane as u32)))
                .collect(),
            word: vec![0; n],
            events: if record {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            event_count: 0,
            retired: Vec::new(),
        }
    }

    /// Report a match event of `lane` ending at `end` in `state`.
    #[inline]
    pub fn report(&mut self, lane: usize, end: u64, state: u32) {
        self.event_count += 1;
        self.word[lane] = self.coding.report(&mut self.tally[lane], end, state);
        if self.record {
            self.events[lane].push(MatchEvent {
                end: end as u32,
                state,
            });
        }
    }

    /// The lane's recorded events so far.
    #[cfg(test)]
    pub fn events(&self, lane: usize) -> &[MatchEvent] {
        self.events.get(lane).map_or(&[], Vec::as_slice)
    }

    /// Compact the per-lane state into the reporting threads' readback
    /// (retired programs are kept alive until host readback).
    pub fn retire(&mut self, geom: &WarpGeometry) {
        let mut events = std::mem::take(&mut self.events).into_iter();
        for (lane, tally) in std::mem::take(&mut self.tally).into_iter().enumerate() {
            let evs = events.next().unwrap_or_default();
            if tally.words() > 0 {
                self.retired.push(ThreadReadback {
                    thread: geom.global_thread(lane as u32),
                    words: tally.words(),
                    events: evs,
                });
            }
        }
        self.word = Vec::new();
    }

    /// Hand the retired readback to the host.
    pub fn take(&mut self) -> WarpReadback {
        WarpReadback {
            threads: std::mem::take(&mut self.retired),
            event_count: self.event_count,
        }
    }
}

/// Whether a match state entered at `end` by a thread that owns bytes up
/// to `owned_end` has an output starting before `owned_end`, given the
/// state's `longest` output length as the dense STT entry carries it.
/// The thread started in the root state at its owned start, so every
/// output starts at or after that; the only unowned ones start at or past
/// `owned_end`, in the next thread's chunk, which reports them itself —
/// the rule `ac_core::chunked` and `merge_shard_matches` also apply. A
/// saturated length is "255 or more", so it never drops an event.
#[inline]
pub(crate) fn has_owned_output(end: u64, owned_end: u64, longest: u32) -> bool {
    end <= owned_end || longest == LEN_SATURATED || u64::from(longest) > end - owned_end
}

/// Per-lane DFA-walk state shared by the chunked kernels (global-only,
/// shared-memory and banded): cursors, scan bounds, automaton states, and
/// the result reports.
#[derive(Debug)]
pub(crate) struct MatchLanes {
    /// Next absolute byte offset each lane will consume.
    pub pos: Vec<u64>,
    /// Exclusive end of each lane's owned chunk.
    pub owned_end: Vec<u64>,
    /// Exclusive end of each lane's scan window (owned end + overlap).
    pub scan_end: Vec<u64>,
    /// Current DFA state per lane.
    pub state: Vec<u32>,
    /// Byte fetched for the pending transition, per lane.
    pub byte: Vec<u8>,
    /// Which lanes reported a match on the last applied transition
    /// (drives the divergent result-write instruction).
    pub matched: Vec<bool>,
    /// The lanes' result reports.
    pub reports: LaneReports,
}

impl MatchLanes {
    /// Initialize lanes from the plan's per-thread ranges.
    pub fn new(geom: &WarpGeometry, plan: &Plan, record: bool) -> Self {
        let n = geom.warp_size as usize;
        let mut pos = Vec::with_capacity(n);
        let mut owned_end = Vec::with_capacity(n);
        let mut scan_end = Vec::with_capacity(n);
        for lane in 0..n {
            let t = geom.global_thread(lane as u32);
            let (start, end) = plan.owned_range(t);
            pos.push(start);
            owned_end.push(end);
            scan_end.push(plan.scan_end(t));
        }
        MatchLanes {
            pos,
            owned_end,
            scan_end,
            state: vec![0; n],
            byte: vec![0; n],
            matched: vec![false; n],
            reports: LaneReports::new(geom, plan.coding, record),
        }
    }

    /// Whether a lane still has bytes to scan.
    #[inline]
    pub fn active(&self, lane: usize) -> bool {
        self.pos[lane] < self.scan_end[lane]
    }

    /// Whether every lane has finished its window.
    pub fn all_done(&self) -> bool {
        (0..self.pos.len()).all(|l| !self.active(l))
    }

    /// Fill `coords` with the `(state_row, 1 + byte)` texel of each active
    /// lane — the STT lookup of paper Fig. 5 (symbol columns are shifted
    /// by the match-flag column).
    pub fn fill_tex_coords(&self, coords: &mut [Option<(u32, u32)>]) {
        for (lane, coord) in coords.iter_mut().enumerate().take(self.pos.len()) {
            *coord = if self.active(lane) {
                Some((self.state[lane], 1 + self.byte[lane] as u32))
            } else {
                None
            };
        }
    }

    /// Fill `attrs` with each active lane's current (pre-transition) DFA
    /// state as its workload-attribution label.
    pub fn fill_attrs(&self, attrs: &mut [Option<LaneAttr>]) {
        for (lane, attr) in attrs.iter_mut().enumerate().take(self.pos.len()) {
            *attr = self.active(lane).then(|| LaneAttr::state(self.state[lane]));
        }
    }

    /// Apply fetched dense STT entries: update states, report the matches
    /// that have an owned output, advance cursors. Returns true if any
    /// lane reported (the kernels then issue the result-write
    /// instruction).
    pub fn apply_transitions(&mut self, fetched: &[u32]) -> bool {
        let mut any = false;
        for (lane, &e) in fetched.iter().enumerate().take(self.pos.len()) {
            self.matched[lane] = false;
            if !self.active(lane) {
                continue;
            }
            let report = e & MATCH_BIT != 0
                && has_owned_output(
                    self.pos[lane] + 1,
                    self.owned_end[lane],
                    longest_output_len(e),
                );
            any |= self.consume(lane, e & DENSE_STATE_MASK, report);
        }
        any
    }

    /// Consume the lane's pending byte: enter `state` and advance the
    /// cursor. When `report` is set the lane reports a match event ending
    /// after the byte and flags itself for the result write. Returns
    /// `report`.
    #[inline]
    pub fn consume(&mut self, lane: usize, state: u32, report: bool) -> bool {
        self.state[lane] = state;
        let end = self.pos[lane] + 1;
        self.pos[lane] = end;
        if report {
            self.matched[lane] = true;
            self.reports.report(lane, end, state);
        }
        report
    }

    /// The result-write instruction's per-lane stores: each lane that
    /// reported on the last transition writes its event word to its
    /// thread's 32-bit result slot at `out_base`. The model prices the
    /// store's address, width and count and charges no cycles to form
    /// the word, as it never charged forming the bare end offset the
    /// store used to carry. (The banded kernel's word carries its fat
    /// pointer's low bits; the host translates states before framing.)
    pub fn fill_result_writes(
        &self,
        geom: &WarpGeometry,
        out_base: u64,
        writes: &mut [Option<(u64, u32)>],
    ) {
        for (lane, write) in writes.iter_mut().enumerate().take(self.matched.len()) {
            *write = self.matched[lane].then(|| {
                let t = geom.global_thread(lane as u32);
                (out_base + t * 4, self.reports.word[lane])
            });
        }
    }

    /// Release scratch capacity once the warp finishes (retired programs
    /// are kept alive until host readback; only the reports matter then).
    pub fn shrink(&mut self, geom: &WarpGeometry) {
        self.pos = Vec::new();
        self.owned_end = Vec::new();
        self.scan_end = Vec::new();
        self.state = Vec::new();
        self.byte = Vec::new();
        self.matched = Vec::new();
        self.reports.retire(geom);
    }
}

/// A warp's share of its block's staging loop: the block copies its input
/// tile from global into shared memory one 32-bit word per lane per
/// iteration, each iteration a load step and a store step, and then
/// meets a barrier (paper Figs. 9–11). The kernels choose which tile
/// word a lane moves in each iteration and where it is stored.
#[derive(Debug)]
pub(crate) struct Staging {
    /// Absolute input offset of the block's tile.
    pub start: u64,
    /// Words the whole block stages (`ceil(tile_len / 4)`).
    words: u64,
    /// Current iteration.
    k: u64,
    /// Iterations this warp runs.
    k_max: u64,
    /// Words in flight between the load and the store step.
    staged: Vec<u32>,
    staged_addr: Vec<Option<u64>>,
}

impl Staging {
    /// The staging of the tile `start..end` (clamped to `start`), run in
    /// `iterations(words)` iterations.
    pub fn new(warp_size: u32, start: u64, end: u64, iterations: impl FnOnce(u64) -> u64) -> Self {
        let n = warp_size as usize;
        let words = end.saturating_sub(start).div_ceil(4);
        Staging {
            start,
            words,
            k: 0,
            k_max: iterations(words),
            staged: vec![0; n],
            staged_addr: vec![None; n],
        }
    }

    /// The load step: each lane reads tile word `word(k, lane)` (skipped
    /// past the tile) from the input at `text_base`. Returns `false`,
    /// issuing nothing, once every iteration has run: the caller then
    /// signals the barrier. Word loads may read up to 3 bytes past the
    /// text; the runner's allocation carries guard bytes for that.
    pub fn load(
        &mut self,
        ctx: &mut WarpCtx<'_>,
        addrs: &mut [Option<u64>],
        text_base: u64,
        word: impl Fn(u64, u32) -> Option<u64>,
    ) -> bool {
        if self.k >= self.k_max {
            return false;
        }
        for (lane, addr) in addrs.iter_mut().enumerate() {
            let w = word(self.k, lane as u32).filter(|&w| w < self.words);
            self.staged_addr[lane] = w;
            *addr = w.map(|w| text_base + self.start + w * 4);
        }
        ctx.global_read_u32(addrs, &mut self.staged);
        true
    }

    /// The coalesced word rule (paper Figs. 9–10): in iteration `k`,
    /// consecutive threads of the block take consecutive tile words.
    pub fn coalesced(geom: &WarpGeometry, k: u64, lane: u32) -> u64 {
        k * geom.threads_per_block as u64 + geom.block_thread(lane) as u64
    }

    /// The store step: each lane writes its loaded word to shared word
    /// `dst(word)`, and the iteration ends.
    pub fn store(
        &mut self,
        ctx: &mut WarpCtx<'_>,
        writes: &mut [Option<(u64, u32)>],
        dst: impl Fn(u64) -> u64,
    ) {
        for (lane, write) in writes.iter_mut().enumerate() {
            *write = self.staged_addr[lane].map(|w| (dst(w) * 4, self.staged[lane]));
        }
        ctx.shared_write_u32(writes);
        self.k += 1;
    }

    /// Release the in-flight buffers once the warp retires.
    pub fn shrink(&mut self) {
        self.staged = Vec::new();
        self.staged_addr = Vec::new();
    }
}

/// Reusable per-warp scratch buffers (avoid per-step allocation in the
/// simulator's hottest loop).
#[derive(Debug)]
pub(crate) struct Scratch {
    pub addrs: Vec<Option<u64>>,
    pub coords: Vec<Option<(u32, u32)>>,
    pub words: Vec<u32>,
    pub writes: Vec<Option<(u64, u32)>>,
    pub attrs: Vec<Option<LaneAttr>>,
}

impl Scratch {
    pub fn new(warp_size: u32) -> Self {
        let n = warp_size as usize;
        Scratch {
            addrs: vec![None; n],
            coords: vec![None; n],
            words: vec![0; n],
            writes: vec![None; n],
            attrs: vec![None; n],
        }
    }

    pub fn shrink(&mut self) {
        *self = Scratch {
            addrs: Vec::new(),
            coords: Vec::new(),
            words: Vec::new(),
            writes: Vec::new(),
            attrs: Vec::new(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{KernelParams, Plan};
    use crate::upload::LEN_SHIFT;
    use ac_core::{AcAutomaton, PatternSet};
    use gpu_sim::GpuConfig;

    fn rig() -> (WarpGeometry, Plan) {
        let cfg = GpuConfig::gtx285();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "hers"]).unwrap());
        let params = KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 8,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        };
        let plan = Plan::global_only(&params, &cfg, &ac, 100).unwrap();
        let geom = WarpGeometry {
            block_id: 0,
            warp_in_block: 0,
            warp_size: 32,
            threads_per_block: 32,
            grid_blocks: plan.launch.grid_blocks,
        };
        (geom, plan)
    }

    #[test]
    fn lanes_initialized_from_plan() {
        let (geom, plan) = rig();
        let lanes = MatchLanes::new(&geom, &plan, true);
        assert_eq!(lanes.pos[0], 0);
        assert_eq!(lanes.pos[1], 8);
        // overlap = 3 ("hers" − 1)
        assert_eq!(lanes.scan_end[0], 11);
        // Lane 13 starts beyond the 100-byte text → inactive immediately.
        assert_eq!(lanes.pos[13], 100);
        assert!(!lanes.active(13));
        assert!(lanes.active(0));
        assert!(!lanes.all_done());
    }

    #[test]
    fn apply_transitions_records_and_advances() {
        let (geom, plan) = rig();
        let mut lanes = MatchLanes::new(&geom, &plan, true);
        let mut fetched = vec![0u32; 32];
        fetched[0] = 5 | MATCH_BIT;
        fetched[1] = 2;
        let any = lanes.apply_transitions(&fetched);
        assert!(any);
        assert_eq!(lanes.reports.event_count, 1);
        assert_eq!(lanes.reports.events(0), [MatchEvent { end: 1, state: 5 }]);
        // The store carries the event word: delta 1 from the owned start.
        assert_eq!(lanes.reports.word[0], 1 << 16 | 5);
        assert_eq!(lanes.state[0], 5);
        assert_eq!(lanes.pos[0], 1);
        assert_eq!(lanes.pos[1], 9);
    }

    #[test]
    fn lanes_past_their_owned_end_report_only_owned_outputs() {
        let (geom, plan) = rig();
        let mut lanes = MatchLanes::new(&geom, &plan, true);
        // Lanes 0..4 own 8 bytes each and scan 3 more; put each one byte
        // into its overlap, so the next byte ends 2 past the owned end.
        for lane in 0..4 {
            lanes.pos[lane] = lanes.owned_end[lane] + 1;
        }
        let entry = |state: u32, longest: u32| state | MATCH_BIT | longest << LEN_SHIFT;
        let mut fetched = vec![0u32; 32];
        // Longest output 2 starts exactly at the owned end: unowned.
        fetched[0] = entry(5, 2);
        // Longest output 3 starts one byte before it: owned.
        fetched[1] = entry(6, 3);
        // Saturated: never dropped.
        fetched[2] = entry(7, LEN_SATURATED);
        // Only unowned outputs again, on a different lane.
        fetched[3] = entry(8, 1);
        assert!(lanes.apply_transitions(&fetched));
        assert_eq!(lanes.matched[..4], [false, true, true, false]);
        assert_eq!(lanes.reports.event_count, 2);
        assert_eq!(lanes.reports.events(1), [MatchEvent { end: 18, state: 6 }]);
        assert_eq!(lanes.reports.events(2), [MatchEvent { end: 26, state: 7 }]);
        assert!(lanes.reports.events(0).is_empty());
        // Dropped lanes still take the transition and advance.
        assert_eq!(lanes.state[0], 5);
        assert_eq!(lanes.pos[0], 10);

        // A warp whose only matches are unowned issues no result write.
        let mut lanes = MatchLanes::new(&geom, &plan, false);
        lanes.pos[0] = lanes.owned_end[0] + 1;
        let mut fetched = vec![0u32; 32];
        fetched[0] = entry(5, 2);
        assert!(!lanes.apply_transitions(&fetched));
        assert!(!lanes.matched[0]);
        assert_eq!(lanes.reports.event_count, 0);
    }

    #[test]
    fn ownership_rule_boundaries() {
        // Inside the owned range every match is owned.
        assert!(has_owned_output(8, 8, 0));
        // One byte past: an output of 1 starts at the owned end.
        assert!(!has_owned_output(9, 8, 1));
        assert!(has_owned_output(9, 8, 2));
        // 300 bytes past: only a saturated length keeps the event.
        assert!(!has_owned_output(308, 8, 254));
        assert!(has_owned_output(308, 8, LEN_SATURATED));
    }

    #[test]
    fn count_only_mode_skips_event_storage() {
        let (geom, plan) = rig();
        let mut lanes = MatchLanes::new(&geom, &plan, false);
        let fetched = vec![MATCH_BIT | 1; 32];
        lanes.apply_transitions(&fetched);
        lanes.apply_transitions(&fetched);
        assert!(lanes.reports.events(0).is_empty());
        assert!(lanes.reports.event_count > 0);
        // The tallies run in counting mode too.
        lanes.shrink(&geom);
        let rb = lanes.reports.take();
        assert_eq!(rb.event_count, lanes_active(&geom, &plan) * 2);
        assert!(rb
            .threads
            .iter()
            .all(|t| t.words == 2 && t.events.is_empty()));
    }

    /// Lanes of `geom` with bytes to scan under `plan`.
    fn lanes_active(geom: &WarpGeometry, plan: &Plan) -> u64 {
        (0..geom.warp_size)
            .filter(|&l| plan.owned_range(geom.global_thread(l)).0 < plan.text_len)
            .count() as u64
    }

    #[test]
    fn tex_coords_skip_inactive() {
        let (geom, plan) = rig();
        let mut lanes = MatchLanes::new(&geom, &plan, true);
        lanes.byte[0] = b'h';
        let mut coords = vec![None; 32];
        lanes.fill_tex_coords(&mut coords);
        assert_eq!(coords[0], Some((0, 1 + b'h' as u32)));
        assert_eq!(coords[13], None);
    }
}
