//! The kernel programming model: warp-synchronous programs stepped by the
//! scheduler.
//!
//! A kernel is written as a [`WarpProgram`]: a state machine advanced one
//! *warp instruction* at a time. Each `step` call may perform at most one
//! memory operation through the [`WarpCtx`] (plus an optional compute
//! burst); the context executes the operation functionally (real bytes
//! move) *and* computes its timing (coalescing, bank conflicts, texture
//! cache, DRAM queueing). This hand-rolled-coroutine structure is what lets
//! the per-SM scheduler interleave warps on memory stalls — the
//! multithreaded latency hiding of paper Fig. 19 — without coroutines or
//! threads.

use crate::attrib::LaneAttr;
use crate::config::GpuConfig;
use crate::constant::{broadcast_degree, ConstId, ConstantBuffer};
use crate::global::{coalesce_halfwarp, GlobalMemory};
use crate::observe::SmObserver;
use crate::shared::{conflict_passes, conflict_passes_profiled, SharedMemory};
use crate::stats::SmStats;
use crate::texture::{TexId, Texture2d};
use mem_sim::{Cache, Cycle, DramChannel};
use trace::StallReason;

/// Identity of a warp within the launch, handed to the program factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpGeometry {
    /// Block index within the grid.
    pub block_id: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Lanes per warp.
    pub warp_size: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Blocks in the grid.
    pub grid_blocks: u32,
}

impl WarpGeometry {
    /// Global thread id of `lane` in this warp.
    pub fn global_thread(&self, lane: u32) -> u64 {
        self.block_id as u64 * self.threads_per_block as u64
            + self.warp_in_block as u64 * self.warp_size as u64
            + lane as u64
    }

    /// Thread id of `lane` within the block.
    pub fn block_thread(&self, lane: u32) -> u32 {
        self.warp_in_block * self.warp_size + lane
    }
}

/// What a warp did in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More instructions to run.
    Continue,
    /// Reached a `__syncthreads()`; the warp parks until every warp of the
    /// block arrives.
    Barrier,
    /// The warp has exited the kernel.
    Finished,
}

/// A warp-synchronous kernel program.
///
/// Contract: each `step` performs **at most one** memory operation on the
/// context (checked in debug builds). Per-lane divergence is handled by the
/// program itself by passing `None` for inactive lanes.
pub trait WarpProgram {
    /// Advance by one warp instruction.
    fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome;
}

/// Per-step cost report handed back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepCost {
    /// Cycles the SM issue port is occupied (base issue × serialization
    /// passes + declared compute).
    pub issue: u32,
    /// Cycle at which the warp may issue its next instruction (memory
    /// completion for loads; equals issue end when no memory op ran).
    pub ready_at: Cycle,
    /// Why the warp is waiting past its issue slot, when a long-latency
    /// memory source is responsible. `None` for compute-bound steps, hits,
    /// and conflict-free accesses — idle gaps ending on such a warp fall
    /// into the `no-ready-warp` residual bucket.
    pub stall: Option<StallReason>,
}

/// Execution context for one warp step: a view over the SM's memory system
/// plus the current cycle. Created by the scheduler per step.
pub struct WarpCtx<'a> {
    pub(crate) cfg: &'a GpuConfig,
    pub(crate) global: &'a mut GlobalMemory,
    pub(crate) shared: &'a mut SharedMemory,
    pub(crate) textures: &'a [Texture2d],
    pub(crate) constants: &'a [ConstantBuffer],
    pub(crate) tex_cache: &'a mut Cache,
    pub(crate) tex_l2: &'a mut Cache,
    pub(crate) const_cache: &'a mut Cache,
    pub(crate) dram: &'a mut DramChannel,
    pub(crate) stats: &'a mut SmStats,
    /// The SM's observer when the device is observed; `None` on the
    /// disarmed (timing baseline) path, where every hook is one branch.
    pub(crate) obs: Option<&'a mut SmObserver>,
    pub(crate) now: Cycle,
    pub(crate) issue: u32,
    pub(crate) ready_at: Cycle,
    pub(crate) mem_ops: u32,
    pub(crate) stall: Option<StallReason>,
}

impl<'a> WarpCtx<'a> {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the SM's memory system
    pub(crate) fn new(
        cfg: &'a GpuConfig,
        global: &'a mut GlobalMemory,
        shared: &'a mut SharedMemory,
        textures: &'a [Texture2d],
        constants: &'a [ConstantBuffer],
        tex_cache: &'a mut Cache,
        tex_l2: &'a mut Cache,
        const_cache: &'a mut Cache,
        dram: &'a mut DramChannel,
        stats: &'a mut SmStats,
        obs: Option<&'a mut SmObserver>,
        now: Cycle,
    ) -> Self {
        let issue = cfg.issue_cycles;
        WarpCtx {
            cfg,
            global,
            shared,
            textures,
            constants,
            tex_cache,
            tex_l2,
            const_cache,
            dram,
            stats,
            obs,
            now,
            issue,
            ready_at: now + issue as Cycle,
            mem_ops: 0,
            stall: None,
        }
    }

    /// Finalize the step into its cost. The stall classification only
    /// survives when the warp actually waits past its issue slot — a hidden
    /// (issue-bound) memory access cannot end an idle gap for its reason.
    pub(crate) fn into_cost(self) -> StepCost {
        let issue_end = self.now + self.issue as Cycle;
        let stall = if self.ready_at > issue_end {
            self.stall
        } else {
            None
        };
        StepCost {
            issue: self.issue,
            ready_at: self.ready_at.max(issue_end),
            stall,
        }
    }

    fn note_mem_op(&mut self) {
        self.mem_ops += 1;
        debug_assert!(
            self.mem_ops <= 1,
            "a warp step may perform at most one memory operation"
        );
    }

    /// The device configuration (for warp size, bank count, …).
    pub fn config(&self) -> &GpuConfig {
        self.cfg
    }

    /// Declare `cycles` of pure arithmetic in this instruction (state
    /// bookkeeping, comparisons). Added to the issue occupancy.
    pub fn compute(&mut self, cycles: u32) {
        self.issue += cycles;
    }

    /// Tag this step with per-lane workload labels (for the AC kernels,
    /// the DFA state each lane is visiting). The scheduler charges the
    /// step's issue cycles — and any idle gap this warp later ends —
    /// across these labels; texture fetches performed *after* this call in
    /// the same step are counted per label. A single branch when
    /// attribution is disarmed; never feeds back into timing.
    pub fn attribute(&mut self, lanes: &[Option<LaneAttr>]) {
        if let Some(sink) = self.obs.as_deref_mut().and_then(|o| o.attr.as_mut()) {
            sink.set_lanes(lanes);
        }
    }

    /// Iterate half-warp ranges over `n` lanes.
    fn half_warps(&self, n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let hw = self.cfg.half_warp() as usize;
        (0..n.div_ceil(hw)).map(move |i| i * hw..((i + 1) * hw).min(n))
    }

    /// Coalesced global loads of one byte per active lane.
    /// `addrs[lane] = None` for inactive lanes; `out[lane]` receives the
    /// byte for active lanes and is untouched otherwise.
    pub fn global_read_u8(&mut self, addrs: &[Option<u64>], out: &mut [u8]) {
        self.global_read(addrs, 1, |g, a, lane| out[lane] = g.read_u8(a));
    }

    /// Coalesced global loads of one 32-bit word per active lane (the
    /// paper's staging loop reads "four bytes (32-bit word) at one time").
    pub fn global_read_u32(&mut self, addrs: &[Option<u64>], out: &mut [u32]) {
        self.global_read(addrs, 4, |g, a, lane| out[lane] = g.read_u32(a));
    }

    fn global_read(
        &mut self,
        addrs: &[Option<u64>],
        width: u32,
        mut apply: impl FnMut(&GlobalMemory, u64, usize),
    ) {
        self.note_mem_op();
        let mut scratch: Vec<(u64, u32)> = Vec::with_capacity(self.cfg.half_warp() as usize);
        let mut ready = self.now;
        for hw in self.half_warps(addrs.len()) {
            scratch.clear();
            for lane in hw {
                if let Some(a) = addrs[lane] {
                    apply(self.global, a, lane);
                    scratch.push((a, width));
                }
            }
            if scratch.is_empty() {
                continue;
            }
            let txns = coalesce_halfwarp(self.cfg, &scratch);
            self.stats.record_global(scratch.len() as u64, &txns);
            // Address divergence replays the load instruction once per
            // extra transaction (GT200 LSU behaviour), occupying the
            // issue port like a shared-memory bank conflict does.
            self.issue += (txns.len() as u32 - 1) * self.cfg.issue_cycles;
            for &(_, bytes) in &txns {
                ready = ready.max(self.dram.issue(self.now, bytes));
            }
        }
        self.stall = Some(StallReason::GlobalLatency);
        self.ready_at = self.ready_at.max(ready);
    }

    /// Global stores of 32-bit words. Fire-and-forget (GPU store buffers):
    /// the warp does not stall, but the transactions consume DRAM
    /// bandwidth, so heavy result writing still shows up in the timing.
    pub fn global_write_u32(&mut self, writes: &[Option<(u64, u32)>]) {
        self.note_mem_op();
        let mut scratch: Vec<(u64, u32)> = Vec::with_capacity(self.cfg.half_warp() as usize);
        for hw in self.half_warps(writes.len()) {
            scratch.clear();
            for lane in hw {
                if let Some((a, v)) = writes[lane] {
                    self.global.write_u32(a, v);
                    scratch.push((a, 4));
                }
            }
            if scratch.is_empty() {
                continue;
            }
            let txns = coalesce_halfwarp(self.cfg, &scratch);
            self.stats.record_global(scratch.len() as u64, &txns);
            for &(_, bytes) in &txns {
                // Consumes channel time; completion not awaited.
                self.dram.issue(self.now, bytes);
            }
        }
    }

    /// Shared-memory byte loads, serialized by bank conflicts per
    /// half-warp.
    pub fn shared_read_u8(&mut self, addrs: &[Option<u64>], out: &mut [u8]) {
        self.note_mem_op();
        let mut extra_passes = 0u32;
        let mut scratch: Vec<u64> = Vec::with_capacity(self.cfg.half_warp() as usize);
        for hw in self.half_warps(addrs.len()) {
            scratch.clear();
            for lane in hw {
                if let Some(a) = addrs[lane] {
                    out[lane] = self.shared.read_u8(a);
                    scratch.push(a);
                }
            }
            if scratch.is_empty() {
                continue;
            }
            let p = match self.obs.as_deref_mut().and_then(|o| o.probe.as_mut()) {
                Some(probe) => conflict_passes_profiled(self.cfg, &scratch, &mut probe.banks),
                None => conflict_passes(self.cfg, &scratch),
            };
            self.stats.record_shared(p);
            // Half-warps pipeline; only passes beyond the first per
            // half-warp re-occupy the issue port.
            extra_passes += p - 1;
        }
        self.apply_shared_cost(extra_passes);
    }

    /// Shared-memory 32-bit stores (the staging writes of the paper's
    /// Figs. 10–11), serialized by bank conflicts per half-warp.
    pub fn shared_write_u32(&mut self, writes: &[Option<(u64, u32)>]) {
        self.note_mem_op();
        let mut extra_passes = 0u32;
        let mut scratch: Vec<u64> = Vec::with_capacity(self.cfg.half_warp() as usize);
        for hw in self.half_warps(writes.len()) {
            scratch.clear();
            for lane in hw {
                if let Some((a, v)) = writes[lane] {
                    self.shared.write_u32(a, v);
                    scratch.push(a);
                }
            }
            if scratch.is_empty() {
                continue;
            }
            let p = match self.obs.as_deref_mut().and_then(|o| o.probe.as_mut()) {
                Some(probe) => conflict_passes_profiled(self.cfg, &scratch, &mut probe.banks),
                None => conflict_passes(self.cfg, &scratch),
            };
            self.stats.record_shared(p);
            extra_passes += p - 1;
        }
        self.apply_shared_cost(extra_passes);
    }

    fn apply_shared_cost(&mut self, extra_passes: u32) {
        // The first pass of each half-warp is covered by the base issue
        // slot; each extra (conflict) pass re-occupies the port.
        self.issue += extra_passes * self.cfg.issue_cycles;
        if extra_passes > 0 {
            self.stall = Some(StallReason::SharedBank);
        }
        self.ready_at = self
            .ready_at
            .max(self.now + (self.issue + self.cfg.shared_latency) as Cycle);
    }

    /// Constant-memory word reads, one index per active lane.
    ///
    /// Broadcast-optimized (paper §III's constant cache): `d` distinct
    /// indices serialize into `d` passes through the constant port.
    /// Lines are cached per SM; misses fill from DRAM.
    pub fn const_read_u32(&mut self, buf: ConstId, indices: &[Option<u32>], out: &mut [u32]) {
        self.note_mem_op();
        let b = &self.constants[buf.0];
        let degree = broadcast_degree(indices);
        let mut reads = 0u64;
        let mut misses = 0u64;
        let line = self.const_cache.config().line_bytes;
        let mut ready = self.now + self.cfg.shared_latency as Cycle;
        for (lane, idx) in indices.iter().enumerate() {
            let Some(i) = *idx else { continue };
            reads += 1;
            out[lane] = b.read(i);
            // Constant space is per-buffer; offset buffers so they don't
            // alias each other in the cache.
            let addr = (buf.0 as u64) << 20 | (i as u64 * 4);
            if !self.const_cache.access(addr).is_hit() {
                misses += 1;
                ready = ready.max(self.dram.issue(self.now, line));
            }
        }
        // Each extra distinct address re-issues the instruction.
        self.issue += (degree - 1) * self.cfg.issue_cycles;
        self.stats.const_reads += reads;
        self.stats.const_replays += (degree - 1) as u64;
        self.stats.const_misses += misses;
        if misses > 0 {
            self.stall = Some(StallReason::ConstMiss);
        }
        self.ready_at = self.ready_at.max(ready);
    }

    /// Texture fetches, one `(row, col)` texel per active lane, through the
    /// SM's texture cache. Misses fill 64-byte lines from DRAM — the
    /// mechanism whose frequency grows with the paper's pattern count.
    pub fn tex_fetch(&mut self, tex: TexId, coords: &[Option<(u32, u32)>], out: &mut [u32]) {
        self.note_mem_op();
        let t = &self.textures[tex.0];
        let line = self.tex_cache.config().line_bytes;
        let mut ready = self.now + self.cfg.tex_hit_latency as Cycle;
        let mut misses_this_op = 0u32;
        let mut l2_misses_this_op = 0u32;
        let mut fetches = 0u64;
        for (lane, c) in coords.iter().enumerate() {
            let Some((row, col)) = *c else { continue };
            fetches += 1;
            out[lane] = t.fetch(row, col);
            let addr = t.tiled_addr(row, col);
            let l1_hit = self.tex_cache.access(addr).is_hit();
            let mut l2_hit = false;
            if !l1_hit {
                misses_this_op += 1;
                if self.tex_l2.access(addr).is_hit() {
                    // On-chip L2 hit: latency only, no DRAM channel time.
                    l2_hit = true;
                    ready = ready.max(self.now + self.cfg.tex_l2_latency as Cycle);
                } else {
                    l2_misses_this_op += 1;
                    ready = ready.max(self.dram.issue(self.now, line));
                }
            }
            // Armed-only observation; the cache access above is identical
            // either way.
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.tex_fetch(tex.0, row, lane, l1_hit, l2_hit);
            }
        }
        self.stats.tex_l2_misses += l2_misses_this_op as u64;
        // The texture pipeline's throughput limit: a warp's fetches stream
        // through at tex_lanes_per_cycle, occupying the SM's slot.
        let pipe = (fetches as f64 / self.cfg.tex_lanes_per_cycle).ceil() as u32;
        self.issue = self.issue.max(pipe);
        self.stats.record_tex(fetches, misses_this_op as u64);
        if misses_this_op > 0 {
            self.stall = Some(StallReason::TexMiss);
        }
        self.ready_at = self.ready_at.max(ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::SmAttrSink;
    use crate::introspect::SmProbe;
    use mem_sim::DramConfig;
    use std::sync::Arc;

    /// Build a context over scratch memories for direct unit testing.
    struct Rig {
        cfg: GpuConfig,
        global: GlobalMemory,
        shared: SharedMemory,
        textures: Vec<Texture2d>,
        constants: Vec<ConstantBuffer>,
        cache: Cache,
        l2: Cache,
        cc: Cache,
        dram: DramChannel,
        stats: SmStats,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = GpuConfig::gtx285();
            Rig {
                cfg,
                global: GlobalMemory::from_bytes((0..=255u8).cycle().take(4096).collect()),
                shared: SharedMemory::new(4096, cfg.shared_banks),
                textures: vec![Texture2d::new(Arc::new((0..64u32 * 16).collect()), 64, 16)],
                constants: vec![ConstantBuffer::new(Arc::new((0..256u32).collect())).unwrap()],
                cache: Cache::new(cfg.tex_cache),
                l2: Cache::new(cfg.tex_l2),
                cc: Cache::new(cfg.const_cache),
                dram: DramChannel::new(DramConfig {
                    latency_cycles: 100,
                    bytes_per_cycle: 8.0,
                }),
                stats: SmStats::default(),
            }
        }

        fn ctx(&mut self, now: Cycle) -> WarpCtx<'_> {
            WarpCtx::new(
                &self.cfg,
                &mut self.global,
                &mut self.shared,
                &self.textures,
                &self.constants,
                &mut self.cache,
                &mut self.l2,
                &mut self.cc,
                &mut self.dram,
                &mut self.stats,
                None,
                now,
            )
        }

        fn observed_ctx<'a>(&'a mut self, obs: &'a mut SmObserver, now: Cycle) -> WarpCtx<'a> {
            WarpCtx::new(
                &self.cfg,
                &mut self.global,
                &mut self.shared,
                &self.textures,
                &self.constants,
                &mut self.cache,
                &mut self.l2,
                &mut self.cc,
                &mut self.dram,
                &mut self.stats,
                Some(obs),
                now,
            )
        }
    }

    #[test]
    fn coalesced_read_is_one_transaction_per_halfwarp() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        let addrs: Vec<Option<u64>> = (0..32).map(|l| Some(l * 4)).collect();
        let mut out = vec![0u32; 32];
        ctx.global_read_u32(&addrs, &mut out);
        let cost = ctx.into_cost();
        assert!(cost.ready_at > 100); // paid DRAM latency
        assert_eq!(rig.stats.global_transactions, 2); // 2 half-warps × 1 txn
                                                      // Functional correctness: little-endian of the 0..=255 ramp.
        assert_eq!(out[1], u32::from_le_bytes([4, 5, 6, 7]));
    }

    #[test]
    fn strided_read_explodes_transactions() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        let addrs: Vec<Option<u64>> = (0..32).map(|l| Some(l * 128)).collect();
        let mut out = vec![0u8; 32];
        ctx.global_read_u8(&addrs, &mut out);
        let _ = ctx.into_cost();
        assert_eq!(rig.stats.global_transactions, 32);
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        let mut addrs: Vec<Option<u64>> = vec![None; 32];
        addrs[5] = Some(80);
        let mut out = vec![0xAAu8; 32];
        ctx.global_read_u8(&addrs, &mut out);
        let _ = ctx.into_cost();
        assert_eq!(out[5], 80);
        assert_eq!(out[0], 0xAA);
        assert_eq!(rig.stats.global_transactions, 1);
    }

    #[test]
    fn conflict_free_shared_costs_one_pass() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        let writes: Vec<Option<(u64, u32)>> = (0..32).map(|l| Some((l * 4, l as u32))).collect();
        ctx.shared_write_u32(&writes);
        let cost = ctx.into_cost();
        assert_eq!(cost.issue, rig.cfg.issue_cycles);
        assert_eq!(rig.shared.read_u32(8), 2);
        assert_eq!(rig.stats.shared_conflict_passes.max, 1);
    }

    #[test]
    fn bank_conflicts_inflate_issue() {
        let mut rig = Rig::new();
        let base_issue = rig.cfg.issue_cycles;
        let mut ctx = rig.ctx(0);
        // All 32 lanes hit bank 0 with distinct words: degree 16 per
        // half-warp.
        let addrs: Vec<Option<u64>> = (0..32).map(|l| Some(l * 16 * 4)).collect();
        let mut out = vec![0u8; 32];
        ctx.shared_read_u8(&addrs, &mut out);
        let cost = ctx.into_cost();
        // 15 extra passes per half-warp on top of the base slot.
        assert_eq!(cost.issue, base_issue + (15 + 15) * base_issue);
        assert_eq!(rig.stats.shared_conflict_passes.max, 16);
    }

    #[test]
    fn tex_fetch_miss_then_hit() {
        let mut rig = Rig::new();
        {
            let mut ctx = rig.ctx(0);
            let coords = vec![Some((0u32, 0u32)); 32];
            let mut out = vec![0u32; 32];
            ctx.tex_fetch(TexId(0), &coords, &mut out);
            let cost = ctx.into_cost();
            assert!(cost.ready_at >= 100); // one line miss
            assert_eq!(out[0], 0);
        }
        assert_eq!(rig.stats.tex_misses, 1); // broadcast: one line, one miss
        {
            let mut ctx = rig.ctx(1000);
            let coords = vec![Some((0u32, 5u32)); 32]; // same line
            let mut out = vec![0u32; 32];
            ctx.tex_fetch(TexId(0), &coords, &mut out);
            let cost = ctx.into_cost();
            // All hits: bounded by the texture pipeline (32 lanes at
            // tex_lanes_per_cycle) rather than DRAM.
            let pipe = (32.0 / rig.cfg.tex_lanes_per_cycle).ceil() as Cycle;
            let expect = pipe.max(rig.cfg.tex_hit_latency as Cycle);
            assert_eq!(cost.ready_at, 1000 + expect);
            assert_eq!(out[3], 5);
        }
        assert_eq!(rig.stats.tex_misses, 1);
        assert_eq!(rig.stats.tex_fetches, 64);
    }

    #[test]
    fn compute_adds_issue_occupancy() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        ctx.compute(7);
        let cost = ctx.into_cost();
        assert_eq!(cost.issue, rig.cfg.issue_cycles + 7);
        assert_eq!(cost.ready_at, (rig.cfg.issue_cycles + 7) as Cycle);
    }

    #[test]
    fn global_write_does_not_stall_warp() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        let writes: Vec<Option<(u64, u32)>> = (0..32).map(|l| Some((l * 128, 9u32))).collect();
        ctx.global_write_u32(&writes);
        let cost = ctx.into_cost();
        // Ready immediately after issue despite 32 transactions.
        assert_eq!(cost.ready_at, rig.cfg.issue_cycles as Cycle);
        assert_eq!(rig.global.read_u32(512), 9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at most one memory operation")]
    fn two_mem_ops_in_one_step_panics() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx(0);
        let mut out = vec![0u8; 32];
        ctx.global_read_u8(&[Some(0)], &mut out);
        ctx.global_read_u8(&[Some(4)], &mut out);
    }

    #[test]
    fn const_broadcast_vs_divergent() {
        let mut rig = Rig::new();
        let base_issue = rig.cfg.issue_cycles;
        // Broadcast: all 32 lanes read word 5 → one pass.
        {
            let mut ctx = rig.ctx(0);
            let idx = vec![Some(5u32); 32];
            let mut out = vec![0u32; 32];
            ctx.const_read_u32(ConstId(0), &idx, &mut out);
            let cost = ctx.into_cost();
            assert_eq!(out[0], 5);
            assert_eq!(cost.issue, base_issue);
        }
        // Divergent: 32 distinct words → 32 passes.
        {
            let mut ctx = rig.ctx(1000);
            let idx: Vec<Option<u32>> = (0..32).map(|l| Some(l as u32 * 8)).collect();
            let mut out = vec![0u32; 32];
            ctx.const_read_u32(ConstId(0), &idx, &mut out);
            let cost = ctx.into_cost();
            assert_eq!(cost.issue, base_issue + 31 * base_issue);
            assert_eq!(out[2], 16);
        }
        assert_eq!(rig.stats.const_replays, 31);
        assert_eq!(rig.stats.const_reads, 64);
    }

    #[test]
    fn stall_classification_per_op_kind() {
        let mut rig = Rig::new();
        // Global load pays DRAM latency → GlobalLatency.
        {
            let mut ctx = rig.ctx(0);
            let mut out = vec![0u8; 32];
            ctx.global_read_u8(&[Some(0)], &mut out);
            assert_eq!(ctx.into_cost().stall, Some(StallReason::GlobalLatency));
        }
        // Conflict-free shared access → no attributable stall.
        {
            let mut ctx = rig.ctx(0);
            let writes: Vec<Option<(u64, u32)>> = (0..32).map(|l| Some((l * 4, 0u32))).collect();
            ctx.shared_write_u32(&writes);
            assert_eq!(ctx.into_cost().stall, None);
        }
        // Bank-conflicted shared access → SharedBank.
        {
            let mut ctx = rig.ctx(0);
            let addrs: Vec<Option<u64>> = (0..32).map(|l| Some(l * 16 * 4)).collect();
            let mut out = vec![0u8; 32];
            ctx.shared_read_u8(&addrs, &mut out);
            assert_eq!(ctx.into_cost().stall, Some(StallReason::SharedBank));
        }
        // Cold texture fetch → TexMiss; warm repeat → no stall.
        {
            let mut ctx = rig.ctx(0);
            let coords = vec![Some((0u32, 0u32)); 32];
            let mut out = vec![0u32; 32];
            ctx.tex_fetch(TexId(0), &coords, &mut out);
            assert_eq!(ctx.into_cost().stall, Some(StallReason::TexMiss));
        }
        {
            let mut ctx = rig.ctx(10_000);
            let coords = vec![Some((0u32, 1u32)); 32];
            let mut out = vec![0u32; 32];
            ctx.tex_fetch(TexId(0), &coords, &mut out);
            assert_eq!(ctx.into_cost().stall, None);
        }
        // Cold constant read → ConstMiss; compute-only step → None.
        {
            let mut ctx = rig.ctx(20_000);
            let idx = vec![Some(0u32); 32];
            let mut out = vec![0u32; 32];
            ctx.const_read_u32(ConstId(0), &idx, &mut out);
            assert_eq!(ctx.into_cost().stall, Some(StallReason::ConstMiss));
        }
        {
            let mut ctx = rig.ctx(0);
            ctx.compute(3);
            assert_eq!(ctx.into_cost().stall, None);
        }
    }

    #[test]
    fn armed_probe_collects_banks_and_rows_without_timing_drift() {
        // Same op sequence through a plain and a probed context: identical
        // costs and stats, and the probe fills in the spatial story.
        let conflicted: Vec<Option<u64>> = (0..32).map(|l| Some(l * 16 * 4)).collect();
        let coords: Vec<Option<(u32, u32)>> = (0..32).map(|l| Some((l % 4, l % 8))).collect();

        let mut plain = Rig::new();
        let mut probed = Rig::new();
        let mut obs = SmObserver::default();
        obs.probe = Some(SmProbe::new(&probed.cfg, &probed.textures));

        let mut out8 = vec![0u8; 32];
        let mut ctx = plain.ctx(0);
        ctx.shared_read_u8(&conflicted, &mut out8);
        let plain_cost = ctx.into_cost();
        let mut ctx = probed.observed_ctx(&mut obs, 0);
        ctx.shared_read_u8(&conflicted, &mut out8);
        assert_eq!(ctx.into_cost(), plain_cost);

        let mut out32 = vec![0u32; 32];
        let mut ctx = plain.ctx(500);
        ctx.tex_fetch(TexId(0), &coords, &mut out32);
        let plain_cost = ctx.into_cost();
        let mut ctx = probed.observed_ctx(&mut obs, 500);
        ctx.tex_fetch(TexId(0), &coords, &mut out32);
        assert_eq!(ctx.into_cost(), plain_cost);

        assert_eq!(plain.stats, probed.stats);
        let probe = obs.probe.unwrap();
        // The conflicted read put 16 distinct words in bank 0 per half-warp.
        assert_eq!(probe.banks.bank_words[0], 32);
        assert_eq!(probe.banks.degree_counts[16], 2);
        // 32 fetches spread over rows 0..4 of texture 0, 8 per row.
        assert_eq!(probe.row_fetches[0][..4], [8, 8, 8, 8]);
    }

    #[test]
    fn armed_attribution_counts_labelled_tex_fetches_without_timing_drift() {
        let coords: Vec<Option<(u32, u32)>> = (0..32).map(|l| Some((l % 4, l % 8))).collect();
        let labels: Vec<Option<LaneAttr>> = (0..32).map(|l| Some(LaneAttr::state(l % 4))).collect();

        let mut plain = Rig::new();
        let mut attributed = Rig::new();
        let mut obs = SmObserver::default();
        obs.attr = Some(SmAttrSink::new(attributed.cfg.warp_size));

        let mut out32 = vec![0u32; 32];
        let mut ctx = plain.ctx(0);
        ctx.tex_fetch(TexId(0), &coords, &mut out32);
        let plain_cost = ctx.into_cost();

        let mut ctx = attributed.observed_ctx(&mut obs, 0);
        ctx.attribute(&labels);
        ctx.tex_fetch(TexId(0), &coords, &mut out32);
        assert_eq!(ctx.into_cost(), plain_cost);
        assert_eq!(plain.stats, attributed.stats);
        let sink = obs.attr.unwrap();

        // 8 fetches under each of the 4 labels; per-label misses sum to
        // the SM aggregate.
        assert_eq!(sink.tex_fetches, vec![8, 8, 8, 8]);
        assert_eq!(
            sink.tex_misses.iter().sum::<u64>(),
            attributed.stats.tex_misses
        );
    }

    #[test]
    fn geometry_thread_ids() {
        let g = WarpGeometry {
            block_id: 2,
            warp_in_block: 1,
            warp_size: 32,
            threads_per_block: 128,
            grid_blocks: 10,
        };
        assert_eq!(g.block_thread(3), 35);
        assert_eq!(g.global_thread(3), 2 * 128 + 35);
    }
}
