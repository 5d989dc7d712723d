//! # ac-gpu — Aho-Corasick on the simulated GPU
//!
//! The reproduction of the paper's contribution (Tran, Lee, Hong & Choi,
//! IPPS 2013): high-throughput multi-pattern matching on a GT200-class
//! GPU, built on the `gpu-sim` substrate:
//!
//! * [`upload`] — the STT as a 2-D texture with match flags folded into
//!   transition entries (paper Fig. 5 layout);
//! * [`layout`] — launch planning, the X-byte overlap chunking, and the
//!   diagonal bank-conflict-free store scheme (paper Figs. 10–12);
//! * [`kernels`] — the warp programs: global-memory-only (Fig. 7), three
//!   shared-memory staging variants (Figs. 8–12, 23), and the PFAC
//!   related-work baseline;
//! * [`runner`] — host orchestration: device setup, launch, expansion of
//!   `(end, state)` match events into exactly-once matches (sort +
//!   dedup of the copies overlapping windows report), timing and
//!   throughput reporting.
//!
//! ```
//! use ac_core::{AcAutomaton, PatternSet};
//! use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
//! use gpu_sim::GpuConfig;
//!
//! let patterns = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
//! let ac = AcAutomaton::build(&patterns);
//! let cfg = GpuConfig::gtx285();
//! let matcher = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
//!
//! let run = matcher.run(b"ushers", Approach::SharedDiagonal).unwrap();
//! assert_eq!(run.matches.len(), 3); // he, she, hers — as in the paper's §II
//! println!("simulated {:.2} Gbps", run.gbps());
//! ```

pub mod error;
pub mod kernels;
pub mod layout;
pub mod pool;
pub mod readback;
pub mod runner;
pub mod stream;
pub mod stt_layout;
pub mod supervise;
pub mod table;
pub mod upload;

pub use error::{ErrorClass, GpuError, PcieError, UploadError};
pub use kernels::{
    BandedKernel, DeviceBandedStt, GlobalOnlyKernel, MatchEvent, PfacKernel, PfacMode,
    SharedKernel, SharedVariant,
};
pub use layout::{DiagonalMap, KernelParams, LinearMap, Plan};
pub use pool::{DevicePool, DevicePoolConfig, DevicePoolStats, PooledBuffer, MIN_CLASS_BYTES};
pub use readback::ReadbackCorruption;
pub use runner::{Approach, GpuAcMatcher, GpuRun, ProbeCost, RunOptions, WorkloadAttribution};
pub use stream::{run_streamed, PcieConfig, StreamedRun};
pub use stt_layout::{
    layout_footprints, pick_layout, LayoutChoice, LayoutFootprint, LayoutProbe, SttLayout,
};
pub use supervise::{run_supervised, SuperviseConfig, SuperviseReport, Supervised};
pub use table::{DeviceTableU32, HostTableU32};
pub use trace::{TraceBuffer, TraceConfig};
pub use upload::{DevicePfac, DeviceStt, MATCH_BIT, PFAC_STOP, STATE_MASK};
