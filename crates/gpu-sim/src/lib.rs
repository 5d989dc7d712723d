//! # gpu-sim — a functional + timing simulator of a GT200-class GPU
//!
//! This crate is the hardware substrate for the reproduction of Tran et
//! al., *"High Throughput Parallel Implementation of Aho-Corasick Algorithm
//! on a GPU"* (IPPS 2013). The paper's results are driven entirely by the
//! GPU's memory hierarchy; this simulator implements those mechanisms
//! explicitly so the paper's effects *emerge* rather than being assumed:
//!
//! * **SIMT warps** ([`kernel`]) — kernels are warp-synchronous state
//!   machines stepped one instruction at a time, with per-lane active
//!   masks for divergence;
//! * **global-memory coalescing** ([`global`]) — per-half-warp grouping of
//!   lane addresses into 32/64/128-byte transactions (paper Fig. 9);
//! * **shared-memory banks** ([`shared`]) — 16 banks of 32-bit words with
//!   per-half-warp conflict serialization and the broadcast special case
//!   (paper Figs. 11–12);
//! * **texture cache** ([`texture`]) — per-SM set-associative cache over a
//!   tiled 2-D texture layout, in front of a bandwidth-limited DRAM
//!   channel (the paper's STT store);
//! * **warp scheduler** ([`scheduler`]) — round-robin issue with memory
//!   wake-ups, producing the latency-hiding and saturation regimes of
//!   paper Fig. 19;
//! * **device façade** ([`device`]) — allocation, host↔device copies,
//!   texture binding and kernel launches with CUDA-style occupancy limits;
//! * **streams** ([`stream`]) — in-order command queues overlapping
//!   copies with compute across the GT200's single DMA engine plus one
//!   compute engine, with events and a Chrome-trace timeline export;
//! * **observer** ([`observe`]) — one armed hook,
//!   [`GpuDevice::arm_observer`], for the trace recorder, spatial
//!   introspection ([`introspect`]) and workload attribution ([`attrib`]);
//!   [`GpuDevice::take_observer`] returns what they recorded. Observation
//!   never feeds back into timing.
//!
//! Timing is cycle-based and fully deterministic. Functional state (bytes
//! in global/shared memory, texels) is real, so kernels produce real
//! results that are checked against CPU oracles in the test suites.
//!
//! ```
//! use gpu_sim::{GpuConfig, GpuDevice, LaunchConfig, StepOutcome, WarpCtx, WarpProgram};
//!
//! // A kernel that reads one byte per thread.
//! struct ReadByte { base: u64, geom: gpu_sim::WarpGeometry }
//! impl WarpProgram for ReadByte {
//!     fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
//!         let n = self.geom.warp_size as usize;
//!         let addrs: Vec<Option<u64>> =
//!             (0..n).map(|l| Some(self.base + self.geom.global_thread(l as u32))).collect();
//!         let mut bytes = vec![0u8; n];
//!         ctx.global_read_u8(&addrs, &mut bytes);
//!         StepOutcome::Finished
//!     }
//! }
//!
//! let mut dev = GpuDevice::new(GpuConfig::gtx285()).unwrap();
//! let base = dev.alloc_global(256).unwrap();
//! dev.write_global(base, &[7u8; 256]);
//! let lc = LaunchConfig { grid_blocks: 2, threads_per_block: 128, shared_bytes_per_block: 0, resident_blocks_cap: None };
//! let launched = dev.launch(lc, |geom| ReadByte { base, geom }).unwrap();
//! assert!(launched.stats.cycles > 0);
//! ```

pub mod alloc;
pub mod attrib;
pub mod bus;
pub mod config;
pub mod constant;
pub mod device;
pub mod error;
pub mod fault;
pub mod global;
pub mod hostmem;
pub mod introspect;
pub mod kernel;
pub mod observe;
pub mod scheduler;
pub mod shared;
pub mod stats;
pub mod stream;
pub mod texture;

pub use alloc::{AllocStats, DeviceAllocator, ALLOC_ALIGN, ALLOC_CYCLES, FREE_CYCLES};
pub use attrib::{Attribution, AttributionConfig, LaneAttr, SmAttribution};
pub use bus::{BusConfig, BusStats, PcieBusArbiter};
pub use config::GpuConfig;
pub use constant::{ConstId, ConstantBuffer};
pub use device::{GpuDevice, LaunchConfig, Launched};
pub use error::{DeviceError, GpuConfigError, LaunchError};
pub use fault::{FaultKind, FaultPlan, FaultState, InjectedFault, HANG_CYCLES};
pub use global::GlobalMemory;
pub use hostmem::{HostMemory, PAGEABLE_STAGING_BYTES_PER_SEC};
pub use introspect::{IntrospectConfig, Introspection, SmIntrospection};
pub use kernel::{StepOutcome, WarpCtx, WarpGeometry, WarpProgram};
pub use observe::Observer;
pub use shared::SharedMemory;
pub use stats::{LaunchStats, LoadImbalance, SmStats};
pub use stream::{
    device_pid_base, EngineKind, EventId, ScheduledOp, StreamEngine, StreamOpKind, StreamTimeline,
    DEVICE_PID_STRIDE, PID_STREAM_BASE,
};
pub use texture::{TexId, Texture2d};

pub use mem_sim::{BankHistogram, BusyInterval, CacheStats, Cycle, SetStats};
pub use trace::{StallBreakdown, StallReason, TraceBuffer, TraceConfig};
