//! The per-SM warp scheduler.
//!
//! Each SM owns an instruction issue port, a texture cache and a slice of
//! the board's DRAM bandwidth. Resident warps are issued round-robin: a
//! warp whose last instruction is still waiting on memory is skipped and
//! other warps run in the meantime — the multithreaded latency hiding of
//! paper Fig. 19(a). When *every* resident warp is waiting on memory the
//! SM sits idle (`idle_cycles`), which is exactly the saturation regime of
//! Fig. 19(b): more texture misses → more parked warps → more empty issue
//! slots.
//!
//! Blocks are resident up to the occupancy limits (block count, warp
//! count, shared-memory capacity); when a block's warps all finish, the
//! next pending block is activated in its place, reusing the hardware the
//! way a real GT200 does.

use crate::config::GpuConfig;
use crate::constant::ConstantBuffer;
use crate::device::LaunchConfig;
use crate::global::GlobalMemory;
use crate::kernel::{StepOutcome, WarpCtx, WarpGeometry, WarpProgram};
use crate::observe::{Observer, SmObserver};
use crate::shared::SharedMemory;
use crate::stats::SmStats;
use crate::texture::Texture2d;
use mem_sim::{Cache, Cycle, DramChannel};
use trace::StallReason;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpRun {
    Ready,
    AtBarrier,
    Finished,
}

struct WarpSlot<P> {
    program: Option<P>,
    geom: WarpGeometry,
    ready_at: Cycle,
    run: WarpRun,
    /// Index into the SM's active-block table.
    block_slot: usize,
    /// Why the warp is waiting until `ready_at` (None = issue-bound). An
    /// idle gap ending at this warp's wake-up is charged to this reason.
    wait: Option<StallReason>,
}

struct ActiveBlock {
    shared: SharedMemory,
    alive_warps: u32,
    at_barrier: u32,
}

/// Simulate one SM executing `block_ids` of the launch. Returns the SM's
/// statistics; finished warp programs are appended to `retired` for
/// host-side result extraction. When the device is observed, the SM's
/// observer sees its blocks, steps and idle gaps and its share lands in
/// `observer` at retirement — observation never feeds back into timing,
/// so observed and unobserved runs produce identical stats.
#[allow(clippy::too_many_arguments)] // the SM's full memory system is threaded through explicitly
pub(crate) fn run_sm<P, F>(
    cfg: &GpuConfig,
    global: &mut GlobalMemory,
    textures: &[Texture2d],
    constants: &[ConstantBuffer],
    lc: &LaunchConfig,
    block_ids: &[u32],
    factory: &mut F,
    retired: &mut Vec<(WarpGeometry, P)>,
    sm_id: u32,
    mut observer: Option<&mut Observer>,
) -> SmStats
where
    P: WarpProgram,
    F: FnMut(WarpGeometry) -> P,
{
    let mut stats = SmStats::default();
    if block_ids.is_empty() {
        return stats;
    }
    let warps_per_block = lc.threads_per_block / cfg.warp_size;
    let resident_blocks = lc.resident_blocks_per_sm(cfg).min(block_ids.len() as u32) as usize;

    let mut tex_cache = Cache::new(cfg.tex_cache);
    let mut tex_l2 = Cache::new(cfg.tex_l2);
    let mut const_cache = Cache::new(cfg.const_cache);
    let mut dram = DramChannel::new(cfg.dram);
    let mut obs = observer
        .as_deref_mut()
        .map(|o| o.begin_sm(sm_id, cfg, textures, &mut tex_cache, &mut tex_l2, &mut dram));

    let mut pending = block_ids.iter().copied();
    let mut blocks: Vec<ActiveBlock> = Vec::with_capacity(resident_blocks);
    let mut slots: Vec<WarpSlot<P>> = Vec::new();
    // Indices of live (not finished) slots, scanned round-robin.
    let mut live: Vec<usize> = Vec::new();

    let activate = |block_id: u32,
                    block_slot: usize,
                    slots: &mut Vec<WarpSlot<P>>,
                    live: &mut Vec<usize>,
                    factory: &mut F,
                    now: Cycle,
                    obs: Option<&mut SmObserver>|
     -> ActiveBlock {
        for w in 0..warps_per_block {
            let geom = WarpGeometry {
                block_id,
                warp_in_block: w,
                warp_size: cfg.warp_size,
                threads_per_block: lc.threads_per_block,
                grid_blocks: lc.grid_blocks,
            };
            slots.push(WarpSlot {
                program: Some(factory(geom)),
                geom,
                ready_at: now,
                run: WarpRun::Ready,
                block_slot,
                wait: None,
            });
            live.push(slots.len() - 1);
        }
        if let Some(o) = obs {
            o.block_activated(block_id, now);
        }
        ActiveBlock {
            shared: SharedMemory::new(lc.shared_bytes_per_block, cfg.shared_banks),
            alive_warps: warps_per_block,
            at_barrier: 0,
        }
    };

    for slot in 0..resident_blocks {
        let id = pending
            .next()
            .expect("resident_blocks bounded by block count");
        let ab = activate(id, slot, &mut slots, &mut live, factory, 0, obs.as_mut());
        blocks.push(ab);
    }

    let mut now: Cycle = 0;
    let mut issue_free: Cycle = 0;
    let mut rr: usize = 0; // round-robin cursor into `live`

    while !live.is_empty() {
        now = now.max(issue_free);
        // Pick the next ready warp at `now`, round-robin from `rr`.
        let mut chosen: Option<usize> = None; // index into `live`
        for k in 0..live.len() {
            let li = (rr + k) % live.len();
            let s = &slots[live[li]];
            if s.run == WarpRun::Ready && s.ready_at <= now {
                chosen = Some(li);
                break;
            }
        }
        let Some(li) = chosen else {
            // Nothing issueable: jump to the earliest wake-up. The idle gap
            // is charged to the wait reason of the warp that ends it (the
            // first live warp with the minimal wake-up cycle — deterministic
            // because `live` scan order is deterministic).
            let mut next: Option<(Cycle, usize)> = None;
            for &i in &live {
                if slots[i].run == WarpRun::Ready {
                    let t = slots[i].ready_at;
                    if next.is_none_or(|(best, _)| t < best) {
                        next = Some((t, i));
                    }
                }
            }
            match next {
                Some((t, ender)) => {
                    debug_assert!(t > now);
                    let gap = t - now;
                    let reason = slots[ender].wait.unwrap_or(StallReason::NoReadyWarp);
                    stats.idle_cycles += gap;
                    stats.stalls.add(reason, gap);
                    if let Some(o) = obs.as_mut() {
                        o.idle(ender, now, gap, reason);
                    }
                    now = t;
                    continue;
                }
                None => {
                    // All live warps are parked at a barrier that will
                    // never release — a kernel bug (mismatched barriers).
                    panic!(
                        "SM deadlock: all live warps are at a barrier; \
                         kernel has mismatched __syncthreads()"
                    );
                }
            }
        };

        let slot_idx = live[li];
        rr = (li + 1) % live.len();
        let block_slot = slots[slot_idx].block_slot;

        // Step the warp.
        let (outcome, cost) = {
            let block = &mut blocks[block_slot];
            let mut ctx = WarpCtx::new(
                cfg,
                global,
                &mut block.shared,
                textures,
                constants,
                &mut tex_cache,
                &mut tex_l2,
                &mut const_cache,
                &mut dram,
                &mut stats,
                obs.as_mut(),
                now,
            );
            let program = slots[slot_idx]
                .program
                .as_mut()
                .expect("live warp has a program");
            let outcome = program.step(&mut ctx);
            (outcome, ctx.into_cost())
        };
        stats.instructions += 1;
        if let Some(o) = obs.as_mut() {
            o.end_step(slot_idx, slots[slot_idx].geom, now, cost.issue);
        }
        issue_free = now + cost.issue as Cycle;
        slots[slot_idx].ready_at = cost.ready_at.max(issue_free);
        slots[slot_idx].wait = cost.stall;

        match outcome {
            StepOutcome::Continue => {}
            StepOutcome::Barrier => {
                slots[slot_idx].run = WarpRun::AtBarrier;
                blocks[block_slot].at_barrier += 1;
                maybe_release_barrier(
                    &mut blocks[block_slot],
                    &mut slots,
                    &live,
                    block_slot,
                    &mut stats,
                );
            }
            StepOutcome::Finished => {
                slots[slot_idx].run = WarpRun::Finished;
                let geom = slots[slot_idx].geom;
                if let Some(p) = slots[slot_idx].program.take() {
                    retired.push((geom, p));
                }
                // Swap-remove from the live list.
                live.swap_remove(li);
                if li < rr {
                    rr = rr.saturating_sub(1);
                }
                if !live.is_empty() {
                    rr %= live.len();
                } else {
                    rr = 0;
                }
                let block = &mut blocks[block_slot];
                block.alive_warps -= 1;
                if block.alive_warps == 0 {
                    // Retire the block; activate the next pending one in
                    // this residency slot.
                    if let Some(next_id) = pending.next() {
                        let ab = activate(
                            next_id,
                            block_slot,
                            &mut slots,
                            &mut live,
                            factory,
                            now,
                            obs.as_mut(),
                        );
                        blocks[block_slot] = ab;
                    }
                } else {
                    // A warp finishing can complete a pending barrier.
                    maybe_release_barrier(block, &mut slots, &live, block_slot, &mut stats);
                }
            }
        }
    }

    stats.cycles = now.max(issue_free).max(
        // Account for in-flight memory of the final instructions.
        slots.iter().map(|s| s.ready_at).max().unwrap_or(0),
    );
    if let (Some(o), Some(out)) = (obs, observer) {
        o.finish(
            out,
            &stats,
            now.max(issue_free),
            &tex_cache,
            &tex_l2,
            &mut dram,
        );
    }
    stats
}

fn maybe_release_barrier<P>(
    block: &mut ActiveBlock,
    slots: &mut [WarpSlot<P>],
    live: &[usize],
    block_slot: usize,
    stats: &mut SmStats,
) {
    if block.alive_warps > 0 && block.at_barrier == block.alive_warps {
        // Release: the barrier completes when its last participant
        // arrives; each warp resumes no earlier than its own memory
        // readiness.
        let release_at = live
            .iter()
            .filter(|&&i| slots[i].block_slot == block_slot && slots[i].run == WarpRun::AtBarrier)
            .map(|&i| slots[i].ready_at)
            .max()
            .unwrap_or(0);
        for &i in live {
            if slots[i].block_slot == block_slot && slots[i].run == WarpRun::AtBarrier {
                slots[i].run = WarpRun::Ready;
                if release_at > slots[i].ready_at {
                    // The barrier, not this warp's own memory, is what it
                    // resumes behind.
                    slots[i].wait = Some(StallReason::Barrier);
                }
                slots[i].ready_at = slots[i].ready_at.max(release_at);
            }
        }
        block.at_barrier = 0;
        stats.barriers += 1;
    }
}
