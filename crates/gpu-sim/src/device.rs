//! The host-visible device: global-memory allocation, texture binding, and
//! kernel launches.

use crate::alloc::{AllocStats, DeviceAllocator};
use crate::config::GpuConfig;
use crate::constant::{ConstId, ConstantBuffer};
use crate::error::{DeviceError, LaunchError};
use crate::fault::{FaultState, InjectedFault, LaunchFault, HANG_CYCLES};
use crate::global::GlobalMemory;
use crate::kernel::{WarpGeometry, WarpProgram};
use crate::observe::Observer;
use crate::scheduler::run_sm;
use crate::stats::{LaunchStats, SmStats};
use crate::texture::{TexId, Texture2d};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Grid/block geometry of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block; must be a multiple of the warp size.
    pub threads_per_block: u32,
    /// Shared memory per block in bytes. The paper uses 8–12 KB of the
    /// 16 KB for staged input, "the remaining 4~8KB reserved for other
    /// works".
    pub shared_bytes_per_block: u32,
    /// Optional cap on blocks resident per SM, below the hardware limits.
    /// Used to express launches whose effective occupancy is lower than
    /// the occupancy calculator would grant — e.g. a kernel written with
    /// tiny logical blocks (the paper's global-only kernel assigns chunks
    /// per *thread processor*, ~64 threads per SM).
    #[serde(default)]
    pub resident_blocks_cap: Option<u32>,
}

impl LaunchConfig {
    /// Validate against a device.
    pub fn validate(&self, cfg: &GpuConfig) -> Result<(), LaunchError> {
        if self.grid_blocks == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        if self.threads_per_block == 0 || !self.threads_per_block.is_multiple_of(cfg.warp_size) {
            return Err(LaunchError::BadThreadsPerBlock {
                threads: self.threads_per_block,
                warp_size: cfg.warp_size,
            });
        }
        let warps = self.threads_per_block / cfg.warp_size;
        if warps > cfg.max_warps_per_sm {
            return Err(LaunchError::TooManyWarps {
                warps,
                limit: cfg.max_warps_per_sm,
            });
        }
        if self.shared_bytes_per_block > cfg.shared_mem_bytes {
            return Err(LaunchError::SharedMemExceeded {
                requested: self.shared_bytes_per_block,
                available: cfg.shared_mem_bytes,
            });
        }
        Ok(())
    }

    /// Blocks that can be resident on one SM simultaneously: limited by the
    /// hardware block slots, the warp budget, and shared-memory capacity —
    /// the standard CUDA occupancy computation.
    pub fn resident_blocks_per_sm(&self, cfg: &GpuConfig) -> u32 {
        let warps = self.threads_per_block / cfg.warp_size;
        let by_warps = cfg.max_warps_per_sm / warps.max(1);
        let by_shared = cfg
            .shared_mem_bytes
            .checked_div(self.shared_bytes_per_block)
            .unwrap_or(u32::MAX);
        let cap = self.resident_blocks_cap.unwrap_or(u32::MAX).max(1);
        cfg.max_blocks_per_sm
            .min(by_warps)
            .min(by_shared)
            .min(cap)
            .max(1)
    }
}

/// Outcome of a launch: timing/statistics plus the finished warp programs
/// (which carry whatever per-lane results the kernel accumulated), sorted
/// by `(block, warp)`.
#[derive(Debug)]
pub struct Launched<P> {
    /// Aggregate statistics and cycle time.
    pub stats: LaunchStats,
    /// Finished programs in `(block_id, warp_in_block)` order.
    pub programs: Vec<(WarpGeometry, P)>,
}

/// The simulated board.
#[derive(Debug)]
pub struct GpuDevice {
    cfg: GpuConfig,
    global: GlobalMemory,
    alloc: DeviceAllocator,
    textures: Vec<Texture2d>,
    constants: Vec<ConstantBuffer>,
    constant_bytes: usize,
    /// Armed fault-injection state, if any. `None` (the default) keeps
    /// every hook a single branch on the host side; simulated timing is
    /// computed from kernel memory traffic alone either way.
    fault: Option<Box<FaultState>>,
    /// Cycle budget enforced after each launch; a kernel exceeding it
    /// (injected hang or genuine runaway) fails with
    /// [`DeviceError::Watchdog`].
    watchdog: Option<u64>,
    /// The armed observer, if any. `None` (the default) keeps every
    /// observation hook a single branch, and observation never feeds back
    /// into simulated timing, so observed and unobserved launches produce
    /// bit-identical statistics.
    observer: Option<Box<Observer>>,
}

impl GpuDevice {
    /// Bring up a device.
    pub fn new(cfg: GpuConfig) -> Result<Self, DeviceError> {
        cfg.validate()?;
        let alloc = DeviceAllocator::new(cfg.device_mem_bytes);
        Ok(GpuDevice {
            cfg,
            global: GlobalMemory::new(0),
            alloc,
            textures: Vec::new(),
            constants: Vec::new(),
            constant_bytes: 0,
            fault: None,
            watchdog: None,
            observer: None,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Arm fault injection. Counters continue from wherever `state` left
    /// off, so a supervisor can move one [`FaultState`] across device
    /// instances and retried operations see fresh operation indices.
    pub fn arm_faults(&mut self, state: FaultState) {
        self.fault = Some(Box::new(state));
    }

    /// Disarm fault injection, returning the state (with its advanced
    /// counters and injection log) to the caller.
    pub fn disarm_faults(&mut self) -> Option<FaultState> {
        self.fault.take().map(|b| *b)
    }

    /// Whether fault injection is currently armed.
    pub fn faults_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Arm (or clear, with `None`) the launch watchdog: any launch whose
    /// simulated cycle count exceeds `budget` fails with
    /// [`DeviceError::Watchdog`] instead of returning results.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// Arm observation: every launch until [`take_observer`] feeds the
    /// collectors `observer` has armed (its `Some` fields). Observation
    /// never feeds back into timing — observed and unobserved launches
    /// produce bit-identical [`LaunchStats`]. An observer with nothing
    /// armed disarms.
    ///
    /// [`take_observer`]: GpuDevice::take_observer
    pub fn arm_observer(&mut self, observer: Observer) {
        self.observer = observer.is_armed().then(|| Box::new(observer));
    }

    /// Disarm observation, returning what the armed collectors recorded
    /// since [`arm_observer`] (all `None` when nothing was armed).
    ///
    /// [`arm_observer`]: GpuDevice::arm_observer
    pub fn take_observer(&mut self) -> Observer {
        self.observer.take().map(|b| *b).unwrap_or_default()
    }

    /// Copy a device→host readback buffer "across the bus": counts one
    /// readback operation and applies any scheduled bit-flip to `buf` in
    /// place. Returns the fault that fired, if any. With no fault state
    /// armed this is a no-op.
    pub fn dma_to_host(&mut self, buf: &mut [u8]) -> Option<InjectedFault> {
        self.fault.as_mut()?.on_readback(buf)
    }

    /// Allocate `bytes` of global memory (256-byte aligned, like CUDA),
    /// returning the device address. Freed blocks are reused first-fit
    /// before the capacity frontier grows; fails when no contiguous
    /// region fits.
    pub fn alloc_global(&mut self, bytes: u64) -> Result<u64, DeviceError> {
        let base = self.reserve(bytes)?;
        self.global.grow_to((base + bytes) as usize);
        Ok(base)
    }

    /// Charge `bytes` against device memory without backing them in the
    /// byte arena (a bound texture is read through its own `Arc`). Counts
    /// as one allocation for fault injection.
    fn reserve(&mut self, bytes: u64) -> Result<u64, DeviceError> {
        if let Some(fault) = self.fault.as_mut().and_then(|f| f.on_alloc()) {
            return Err(DeviceError::Fault(fault));
        }
        self.alloc.alloc(bytes)
    }

    /// Release a block obtained from [`alloc_global`], making its space
    /// reusable (with coalescing of adjacent free blocks). Fails with
    /// [`DeviceError::InvalidFree`] on a double free or an address that
    /// was never allocated. The backing bytes are left in place, exactly
    /// like real device frees — reuse sees stale contents, not zeroes.
    ///
    /// [`alloc_global`]: GpuDevice::alloc_global
    pub fn free_global(&mut self, addr: u64) -> Result<(), DeviceError> {
        self.alloc.free(addr)
    }

    /// Cumulative allocator statistics: live bytes/blocks, high-water
    /// footprint, and the host cycles charged to alloc/free driver calls.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    /// Copy host bytes into global memory at `addr` (the `cudaMemcpy`
    /// host→device of the paper; excluded from kernel timing, as in §V).
    pub fn write_global(&mut self, addr: u64, data: &[u8]) {
        self.global.write(addr, data);
    }

    /// Read back a global-memory range (device→host result copy).
    pub fn read_global(&self, addr: u64, len: usize) -> &[u8] {
        &self.global.bytes()[addr as usize..addr as usize + len]
    }

    /// Bind a read-only 2-D texture of `u32` texels. The data is shared,
    /// not copied, but its size still counts against device memory.
    pub fn bind_texture_2d(
        &mut self,
        data: Arc<Vec<u32>>,
        rows: u32,
        cols: u32,
    ) -> Result<TexId, DeviceError> {
        self.reserve(data.len() as u64 * 4)?;
        self.textures.push(Texture2d::new(data, rows, cols));
        Ok(TexId(self.textures.len() - 1))
    }

    /// Bind a constant-memory buffer (≤ 64 KB total across buffers, the
    /// CUDA constant segment of this device generation).
    pub fn bind_constant(&mut self, data: Arc<Vec<u32>>) -> Result<ConstId, DeviceError> {
        let bytes = data.len() * 4;
        if self.constant_bytes + bytes > crate::constant::CONSTANT_MEMORY_BYTES {
            return Err(DeviceError::ConstantExhausted {
                used: self.constant_bytes,
                requested: bytes,
                capacity: crate::constant::CONSTANT_MEMORY_BYTES,
            });
        }
        self.constants
            .push(ConstantBuffer::new(data).map_err(DeviceError::ConstantInvalid)?);
        self.constant_bytes += bytes;
        Ok(ConstId(self.constants.len() - 1))
    }

    /// Launch a kernel: `factory` builds the [`WarpProgram`] for each warp
    /// of the grid. Blocks are distributed round-robin over the SMs, each
    /// SM is simulated independently with its own texture cache and DRAM
    /// bandwidth slice, and the launch time is the slowest SM.
    pub fn launch<P, F>(
        &mut self,
        lc: LaunchConfig,
        mut factory: F,
    ) -> Result<Launched<P>, DeviceError>
    where
        P: WarpProgram,
        F: FnMut(WarpGeometry) -> P,
    {
        lc.validate(&self.cfg)?;
        // An injected launch fault fires before the kernel executes — a
        // transient failure aborts here; a hang runs the kernel but
        // inflates its reported time past any sane watchdog budget.
        let launch_fault = self.fault.as_mut().and_then(|f| f.on_launch());
        if let Some(LaunchFault::Transient(fault)) = launch_fault {
            return Err(DeviceError::Fault(fault));
        }
        let mut retired: Vec<(WarpGeometry, P)> = Vec::new();
        let mut totals = SmStats::default();
        let mut per_sm_cycles = Vec::with_capacity(self.cfg.num_sms as usize);
        let mut per_sm = Vec::with_capacity(self.cfg.num_sms as usize);
        for sm in 0..self.cfg.num_sms {
            let block_ids: Vec<u32> = (sm..lc.grid_blocks)
                .step_by(self.cfg.num_sms as usize)
                .collect();
            let sm_stats = run_sm(
                &self.cfg,
                &mut self.global,
                &self.textures,
                &self.constants,
                &lc,
                &block_ids,
                &mut factory,
                &mut retired,
                sm,
                self.observer.as_deref_mut(),
            );
            per_sm_cycles.push(sm_stats.cycles);
            totals.merge(&sm_stats);
            per_sm.push(sm_stats);
        }
        retired.sort_by_key(|(g, _)| (g.block_id, g.warp_in_block));
        let mut cycles = per_sm_cycles.iter().copied().max().unwrap_or(0);
        if matches!(launch_fault, Some(LaunchFault::Hang(_))) {
            // The kernel "never returns": model it as an absurd completion
            // time. Without a watchdog the launch still completes (with
            // that time on the clock); with one it fails below.
            cycles += HANG_CYCLES;
        }
        if let Some(budget) = self.watchdog {
            if cycles > budget {
                return Err(DeviceError::Watchdog { cycles, budget });
            }
        }
        Ok(Launched {
            stats: LaunchStats {
                cycles,
                per_sm_cycles,
                per_sm,
                totals,
                blocks: lc.grid_blocks,
                warps: lc.grid_blocks * (lc.threads_per_block / self.cfg.warp_size),
                device_mem_high_water: self.alloc.stats().high_water_bytes,
            },
            programs: retired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{StepOutcome, WarpCtx};

    /// A warp program that stages its lanes' global bytes into shared
    /// memory, synchronizes, reads them back, and writes lane+byte sums to
    /// an output region — touching every context facility once.
    struct RoundTrip {
        geom: WarpGeometry,
        in_base: u64,
        out_base: u64,
        phase: u32,
        bytes: Vec<u8>,
    }

    impl WarpProgram for RoundTrip {
        fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
            let n = self.geom.warp_size as usize;
            match self.phase {
                0 => {
                    let addrs: Vec<Option<u64>> = (0..n)
                        .map(|l| Some(self.in_base + self.geom.global_thread(l as u32)))
                        .collect();
                    self.bytes = vec![0; n];
                    ctx.global_read_u8(&addrs, &mut self.bytes);
                    self.phase = 1;
                    StepOutcome::Continue
                }
                1 => {
                    let writes: Vec<Option<(u64, u32)>> = (0..n)
                        .map(|l| {
                            Some((
                                self.geom.block_thread(l as u32) as u64 * 4,
                                self.bytes[l] as u32,
                            ))
                        })
                        .collect();
                    ctx.shared_write_u32(&writes);
                    self.phase = 2;
                    StepOutcome::Continue
                }
                2 => {
                    self.phase = 3;
                    StepOutcome::Barrier
                }
                3 => {
                    let addrs: Vec<Option<u64>> = (0..n)
                        .map(|l| Some(self.geom.block_thread(l as u32) as u64 * 4))
                        .collect();
                    let mut back = vec![0u8; n];
                    ctx.shared_read_u8(&addrs, &mut back);
                    self.bytes = back;
                    self.phase = 4;
                    StepOutcome::Continue
                }
                4 => {
                    let writes: Vec<Option<(u64, u32)>> = (0..n)
                        .map(|l| {
                            Some((
                                self.out_base + self.geom.global_thread(l as u32) * 4,
                                self.bytes[l] as u32 + 1,
                            ))
                        })
                        .collect();
                    ctx.global_write_u32(&writes);
                    self.phase = 5;
                    StepOutcome::Finished
                }
                _ => unreachable!("stepped after Finished"),
            }
        }
    }

    #[test]
    fn end_to_end_roundtrip_kernel() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let total_threads = 4 * 8; // 4 blocks × 8 threads (2 warps of 4)
        let in_base = dev.alloc_global(total_threads as u64).unwrap();
        let out_base = dev.alloc_global(total_threads as u64 * 4).unwrap();
        let input: Vec<u8> = (0..total_threads as u8).collect();
        dev.write_global(in_base, &input);

        let lc = LaunchConfig {
            grid_blocks: 4,
            threads_per_block: 8,
            shared_bytes_per_block: 64,
            resident_blocks_cap: None,
        };
        let launched = dev
            .launch(lc, |geom| RoundTrip {
                geom,
                in_base,
                out_base,
                phase: 0,
                bytes: Vec::new(),
            })
            .unwrap();

        assert!(launched.stats.cycles > 0);
        assert_eq!(launched.stats.blocks, 4);
        assert_eq!(launched.stats.warps, 8);
        assert_eq!(launched.programs.len(), 8);
        // Programs sorted by (block, warp).
        let order: Vec<(u32, u32)> = launched
            .programs
            .iter()
            .map(|(g, _)| (g.block_id, g.warp_in_block))
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        // Output = input + 1, element-wise.
        for t in 0..total_threads as u64 {
            let got = u32::from_le_bytes(dev.read_global(out_base + t * 4, 4).try_into().unwrap());
            assert_eq!(got, t as u32 + 1, "thread {t}");
        }
        // Barriers: one per block.
        assert_eq!(launched.stats.totals.barriers, 4);
    }

    #[test]
    fn launch_validation() {
        let cfg = GpuConfig::tiny_test();
        let mut dev = GpuDevice::new(cfg).unwrap();
        let bad = LaunchConfig {
            grid_blocks: 0,
            threads_per_block: 8,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        assert!(dev.launch(bad, |_| Noop).is_err());
        let bad = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 3,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        assert!(bad.validate(&cfg).is_err());
        let bad = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 8,
            shared_bytes_per_block: 4096,
            resident_blocks_cap: None,
        };
        assert!(bad.validate(&cfg).is_err());
        let bad = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4 * 8 * 100,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        assert!(bad.validate(&cfg).is_err());
    }

    #[derive(Debug)]
    struct Noop;
    impl WarpProgram for Noop {
        fn step(&mut self, _ctx: &mut WarpCtx<'_>) -> StepOutcome {
            StepOutcome::Finished
        }
    }

    #[test]
    fn occupancy_computation() {
        let cfg = GpuConfig::gtx285(); // 32 warps, 8 blocks, 16 KB shared
        let lc = LaunchConfig {
            grid_blocks: 100,
            threads_per_block: 128, // 4 warps
            shared_bytes_per_block: 8 * 1024,
            resident_blocks_cap: None,
        };
        // shared limits to 2 resident blocks.
        assert_eq!(lc.resident_blocks_per_sm(&cfg), 2);
        let lc0 = LaunchConfig {
            grid_blocks: 100,
            threads_per_block: 128,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        // warps limit: 32/4 = 8, block slots 8 → 8.
        assert_eq!(lc0.resident_blocks_per_sm(&cfg), 8);
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        let a = dev.alloc_global(512 * 1024).unwrap();
        assert_eq!(a, 0);
        let b = dev.alloc_global(256 * 1024).unwrap();
        assert!(b >= 512 * 1024);
        assert!(dev.alloc_global(512 * 1024).is_err());
    }

    #[test]
    fn global_write_read_roundtrip() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let a = dev.alloc_global(16).unwrap();
        dev.write_global(a, &[1, 2, 3, 4]);
        assert_eq!(dev.read_global(a, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn texture_binding_counts_against_memory() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        let data = Arc::new(vec![0u32; 200_000]); // 800 KB
        dev.bind_texture_2d(data.clone(), 1000, 200).unwrap();
        assert!(dev.bind_texture_2d(data, 1000, 200).is_err());
    }

    #[test]
    fn texture_binding_charges_memory_without_backing_bytes() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.alloc_global(100).unwrap();
        let arena = dev.global.len();
        let live = dev.alloc_stats().live_bytes;
        let texels = 1000 * 50;
        dev.bind_texture_2d(Arc::new(vec![7u32; texels]), 1000, 50)
            .unwrap();
        assert_eq!(dev.alloc_stats().live_bytes, live + 4 * texels as u64);
        assert_eq!(dev.global.len(), arena);
    }

    #[test]
    fn injected_alloc_failure_is_transient() {
        use crate::fault::FaultPlan;
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_alloc_fail(0)));
        let err = dev.alloc_global(64).unwrap_err();
        assert!(
            matches!(err, DeviceError::Fault(f) if f.kind == crate::fault::FaultKind::AllocFail)
        );
        // The retry is a new operation index and succeeds.
        assert!(dev.alloc_global(64).is_ok());
        let state = dev.disarm_faults().unwrap();
        assert_eq!(state.log().len(), 1);
        assert!(!dev.faults_armed());
    }

    #[test]
    fn injected_launch_transient_then_retry_succeeds() {
        use crate::fault::FaultPlan;
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_launch_transient(0)));
        let lc = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let err = dev.launch(lc, |_| Noop).unwrap_err();
        assert!(matches!(err, DeviceError::Fault(_)));
        assert!(dev.launch(lc, |_| Noop).is_ok());
    }

    #[test]
    fn hang_trips_watchdog_when_armed() {
        use crate::fault::FaultPlan;
        let lc = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        // Without a watchdog, the hang "completes" with an absurd time.
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_kernel_hang(0)));
        let launched = dev.launch(lc, |_| Noop).unwrap();
        assert!(launched.stats.cycles >= HANG_CYCLES);
        // With one, the same hang is a typed watchdog error.
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_kernel_hang(0)));
        dev.set_watchdog(Some(1_000_000));
        let err = dev.launch(lc, |_| Noop).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Watchdog {
                budget: 1_000_000,
                ..
            }
        ));
    }

    #[test]
    fn dma_to_host_flips_only_when_scheduled() {
        use crate::fault::FaultPlan;
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let mut buf = vec![0u8; 8];
        // Unarmed: no-op.
        assert!(dev.dma_to_host(&mut buf).is_none());
        assert_eq!(buf, vec![0u8; 8]);
        dev.arm_faults(FaultState::new(FaultPlan::none().with_readback_flip(0, 3)));
        assert!(dev.dma_to_host(&mut buf).is_some());
        assert_eq!(buf[0], 1 << 3);
    }

    #[test]
    fn oom_error_reports_requested_and_available() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        dev.alloc_global(1 << 19).unwrap();
        let err = dev.alloc_global(1 << 20).unwrap_err();
        match err {
            DeviceError::OutOfDeviceMemory {
                requested,
                available,
                capacity,
            } => {
                assert_eq!(requested, 1 << 20);
                assert_eq!(capacity, 1 << 20);
                assert_eq!(available, (1 << 20) - (1 << 19));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_global_recycles_capacity_and_tracks_stats() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        let a = dev.alloc_global(512 * 1024).unwrap();
        let b = dev.alloc_global(256 * 1024).unwrap();
        // The bump model is full past here; freeing `a` opens a hole that
        // a same-size allocation reuses.
        dev.free_global(a).unwrap();
        let c = dev.alloc_global(512 * 1024).unwrap();
        assert_eq!(c, a);
        // Freed contents are stale, not zeroed (like a real device).
        dev.write_global(c, &[9, 9, 9, 9]);
        dev.free_global(c).unwrap();
        let d = dev.alloc_global(16).unwrap();
        assert_eq!(d, c);
        assert_eq!(dev.read_global(d, 4), &[9, 9, 9, 9]);
        // Double free is a typed error.
        dev.free_global(b).unwrap();
        assert!(matches!(
            dev.free_global(b),
            Err(DeviceError::InvalidFree { .. })
        ));
        dev.free_global(d).unwrap();
        let s = dev.alloc_stats();
        assert_eq!(s.live_blocks, 0);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.allocs, 4);
        assert_eq!(s.frees, 4);
        assert_eq!(s.high_water_bytes, (512 + 256) * 1024);
    }

    #[test]
    fn launch_stats_carry_the_device_mem_high_water() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.alloc_global(4096).unwrap();
        let lc = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let launched = dev.launch(lc, |_| Noop).unwrap();
        assert_eq!(launched.stats.device_mem_high_water, 4096);
    }

    #[test]
    fn more_blocks_than_slots_executes_all() {
        // 16 blocks on a 1-SM device with 2 block slots: blocks must cycle
        // through residency.
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let out = dev.alloc_global(16 * 4).unwrap();
        struct WriteOne {
            geom: WarpGeometry,
            out: u64,
        }
        impl WarpProgram for WriteOne {
            fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
                let mut writes = vec![None; self.geom.warp_size as usize];
                writes[0] = Some((self.out + self.geom.block_id as u64 * 4, self.geom.block_id));
                ctx.global_write_u32(&writes);
                StepOutcome::Finished
            }
        }
        let lc = LaunchConfig {
            grid_blocks: 16,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let launched = dev.launch(lc, |geom| WriteOne { geom, out }).unwrap();
        assert_eq!(launched.programs.len(), 16);
        for b in 0..16u64 {
            let got = u32::from_le_bytes(dev.read_global(out + b * 4, 4).try_into().unwrap());
            assert_eq!(got, b as u32);
        }
    }
}
