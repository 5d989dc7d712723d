//! # ac-serve — batched request serving over the multi-stream GPU engine
//!
//! The paper reports kernel-only throughput on one large resident input;
//! the ROADMAP's north star is "serve heavy traffic from millions of
//! users", which is the opposite regime: many *small* scan jobs arriving
//! continuously. Two classic techniques close the gap, and this crate
//! simulates both end to end:
//!
//! * **batching** ([`batch`]) — coalesce queued jobs into one kernel
//!   launch by concatenating payloads with `required_overlap()`-byte
//!   padding gaps (so no match can straddle two jobs), then demux device
//!   matches back to per-job results with offsets re-based;
//! * **streams** ([`fleet`], the one serve loop behind [`serve`] and
//!   [`serve_fleet`]) — dispatch batches across N
//!   in-order streams on the [`gpu_sim::StreamEngine`] so one batch's
//!   PCIe copies overlap another's kernel, subject to the GT200's single
//!   DMA engine.
//!
//! Admission is bounded ([`queue`]): when the queue is full, new jobs are
//! rejected with a typed [`Overloaded`] carrying a drain-rate
//! `retry_after_us` hint instead of growing latency without bound.
//! [`ServeReport`] summarises a run — p50/p99 simulated latency,
//! jobs/sec, effective Gbps, batch-size histogram — and is what
//! `acsim serve-sim` prints and the bench serving scenario records.
//!
//! The serving path also survives faults and overload with *bounded*
//! degradation rather than falling over:
//!
//! * **supervision** — every batch runs under [`ac_gpu::run_supervised`]
//!   (retry, watchdog, CRC-checked readback), with retry penalties
//!   charged to the stream's simulated clock;
//! * **circuit breaker** ([`breaker`]) — consecutive batch failures open
//!   a per-GPU-tier breaker; open batches fail over to the CPU ladder
//!   ([`integration::cpu_ladder_scan`]) until half-open probes re-earn
//!   trust;
//! * **deadlines** ([`JobExpiry`]) — admitted jobs overdue in the queue
//!   expire as a typed outcome distinct from [`Overloaded`];
//! * **SLO admission control** ([`slo`]) — a control loop over observed
//!   latency sheds the lowest-priority arrivals and widens the batch
//!   window while p99 exceeds the target;
//! * **chaos soak** ([`chaos`]) — a seeded fault storm under sustained
//!   load asserting no wrong matches, no lost admitted jobs, bounded
//!   degradation while the breaker is open, and post-fault recovery.
//!
//! The whole pipeline is observable end to end ([`telemetry`]): armed
//! via `ServeConfig::telemetry`, every job gets a queue-wait + service
//! span timeline stitched above the stream ops that served it, a live
//! metrics registry samples p50/p99/queue-depth/breaker-state on a
//! simulated-time cadence, and an SLO flight recorder keeps the worst
//! exemplars per window. Disarmed, the run is bit-identical — the same
//! zero-cost hook contract as fault injection and tracing.

pub mod batch;
pub mod breaker;
pub mod chaos;
pub mod fleet;
pub mod job;
pub mod queue;
pub mod report;
pub mod sim;
pub mod slo;
pub mod telemetry;
pub mod workload;

pub use batch::{assemble_batch, demux_matches, AssembledBatch, BatchLimits, JobSpan};
pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, Route};
pub use chaos::{chaos_soak, chaos_soak_runs, ChaosConfig, ChaosVerdict};
pub use fleet::{
    merge_shard_matches, plan_shards, serve_fleet, CostModel, CostModelSnapshot, DeviceReport,
    FleetConfig, FleetReport, FleetRun, RouterConfig, ShardSegment, TierCounts,
};
pub use job::{JobExpiry, JobOutcome, ScanJob, ServedBy};
pub use queue::{BoundedQueue, Overloaded};
pub use report::{BatchBucket, PoolStatsReport, ServeReport};
pub use sim::ServeRun;
pub use sim::{serve, ServeConfig, ServePoolConfig, DEFAULT_POOL_CAPACITY};
pub use slo::{AdmissionController, QuantileWindow, SheddedJob, SloConfig};
pub use telemetry::{
    render_slo_report, Exemplar, MetricsSample, PatternCost, ServeTelemetry, TelemetryConfig,
    TelemetryRun,
};
pub use workload::{serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};
