//! The serving summary: latency percentiles, throughput, batching shape.

use ac_gpu::DevicePoolStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Device-memory pool activity over one serve run (aggregated across
/// devices for a fleet). Absent (`None` on [`ServeReport::pool`]) when
/// the run never armed a pool — pre-pool artifacts parse unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolStatsReport {
    /// Buffer acquisitions (`hits + misses`).
    pub acquires: u64,
    /// Acquisitions served from a cached same-class block.
    pub hits: u64,
    /// Acquisitions that fell through to the device allocator.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub releases: u64,
    /// Largest device-byte footprint the pool ever held.
    pub high_water_bytes: u64,
    /// Driver cycles charged by the underlying allocator (misses and
    /// churn frees; hits are free).
    pub host_cycles: u64,
    /// `hits / acquires`, 1.0 for an untouched pool.
    pub hit_rate: f64,
}

impl PoolStatsReport {
    /// Flatten one pool's cumulative stats.
    pub fn from_stats(s: DevicePoolStats) -> Self {
        PoolStatsReport {
            acquires: s.acquires,
            hits: s.hits,
            misses: s.misses,
            releases: s.releases,
            high_water_bytes: s.high_water_bytes,
            host_cycles: s.host_cycles,
            hit_rate: s.hit_rate(),
        }
    }

    /// Merge another device's pool stats into this aggregate.
    pub fn merge(&mut self, other: &PoolStatsReport) {
        self.acquires += other.acquires;
        self.hits += other.hits;
        self.misses += other.misses;
        self.releases += other.releases;
        self.high_water_bytes += other.high_water_bytes;
        self.host_cycles += other.host_cycles;
        self.hit_rate = if self.acquires == 0 {
            1.0
        } else {
            self.hits as f64 / self.acquires as f64
        };
    }
}

/// One bar of the batch-size histogram: `count` batches carried `jobs`
/// jobs each.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchBucket {
    /// Jobs per batch.
    pub jobs: usize,
    /// How many batches had exactly that many jobs.
    pub count: u64,
}

/// Summary of one serve simulation, printed by `acsim serve-sim` and
/// recorded in the bench serving scenario.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Streams used.
    pub streams: u32,
    /// Whether the batcher coalesced jobs (false = per-job launches).
    pub batched: bool,
    /// Jobs offered by the workload.
    pub jobs_submitted: u64,
    /// Jobs served to completion.
    pub jobs_completed: u64,
    /// Jobs rejected by backpressure.
    pub jobs_rejected: u64,
    /// Admitted jobs expired past their deadline while queued
    /// (`#[serde(default)]`: absent in pre-resilience reports).
    #[serde(default)]
    pub jobs_expired: u64,
    /// Jobs turned away by SLO admission control.
    #[serde(default)]
    pub jobs_shed: u64,
    /// Batches formed (GPU launches plus CPU-failover batches).
    pub batches: u64,
    /// Times the GPU-tier circuit breaker opened.
    #[serde(default)]
    pub breaker_opens: u64,
    /// Batches answered by the CPU ladder (breaker open, or GPU retry
    /// budget exhausted).
    #[serde(default)]
    pub cpu_fallback_batches: u64,
    /// Supervised GPU retries consumed across all batches.
    #[serde(default)]
    pub gpu_retries: u64,
    /// Injected faults that fired during GPU batches.
    #[serde(default)]
    pub faults_fired: u64,
    /// Simulated wall time from first arrival to last completion.
    pub makespan_seconds: f64,
    /// Median completion latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile completion latency, microseconds.
    pub p99_latency_us: f64,
    /// Mean completion latency, microseconds.
    pub mean_latency_us: f64,
    /// Completed jobs per simulated second.
    pub jobs_per_sec: f64,
    /// Payload bits served per simulated second, in Gbit/s.
    pub effective_gbps: f64,
    /// Total payload bytes of completed jobs.
    pub payload_bytes: u64,
    /// Readback frame bytes copied device→host, summed over GPU batches
    /// and scatter segments (`#[serde(default)]`: absent in reports from
    /// before the word frame).
    #[serde(default)]
    pub readback_bytes: u64,
    /// Fraction of the makespan the DMA engine was busy.
    pub copy_utilisation: f64,
    /// Fraction of the makespan the compute engine was busy.
    pub compute_utilisation: f64,
    /// Batch-size distribution, ascending by `jobs`.
    pub batch_histogram: Vec<BatchBucket>,
    /// Device-memory pool activity (`None` when no pool was armed;
    /// `#[serde(default)]`: absent in pre-pool reports).
    #[serde(default)]
    pub pool: Option<PoolStatsReport>,
    /// GPU batches and scatter segments per kernel that ran them (`pfac`,
    /// `shared-diagonal`, …), as the launch planner chose
    /// (`#[serde(default)]`: absent in reports from before kernel
    /// planning).
    #[serde(default)]
    pub kernel_launches: BTreeMap<String, u64>,
    /// The priced switch point as far as the run probed: where the
    /// kernels' price lines cross through the last two probes, so a
    /// forecast when it lies past the last one, and it moves with the
    /// longest launch the run priced ([`crate::kernel_choice`]). Every
    /// launch the run made up to it ran staged PFAC, and every longer one
    /// the configured kernel (`u64::MAX`: staged PFAC priced cheaper at
    /// every length). `None` when no launch outgrew one resident round,
    /// so nothing was priced, and when the run never switches kernels
    /// (`#[serde(default)]`: absent in reports from before priced kernel
    /// choice).
    #[serde(default)]
    pub pfac_limit_bytes: Option<u64>,
    /// GPU batches and scatter segments whose kernel wrote its readback
    /// frame straight into mapped pinned host memory, with no `d2h` copy
    /// (`#[serde(default)]`: absent in reports from before mapped
    /// readback).
    #[serde(default)]
    pub mapped_readbacks: u64,
    /// GPU batches and scatter segments whose frame a `d2h` copy read
    /// back (`#[serde(default)]`, like `mapped_readbacks`).
    #[serde(default)]
    pub dma_readbacks: u64,
}

impl ServeReport {
    /// Pretty JSON for artifacts and `--report` output.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parse a previously written report.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Flatten the terminal counters into a [`trace::MetricsSnapshot`]
    /// (the base of `serve-sim --metrics-out`; the telemetry registry
    /// appends its sampled series on top).
    pub fn to_metrics(&self) -> trace::MetricsSnapshot {
        let mut snap = trace::MetricsSnapshot::new();
        snap.push("acsim_serve_streams", "streams used", self.streams as u64);
        snap.push(
            "acsim_serve_jobs_submitted",
            "jobs offered by the workload",
            self.jobs_submitted,
        );
        snap.push(
            "acsim_serve_jobs_completed",
            "jobs served to completion",
            self.jobs_completed,
        );
        snap.push(
            "acsim_serve_jobs_rejected",
            "jobs rejected by backpressure",
            self.jobs_rejected,
        );
        snap.push(
            "acsim_serve_jobs_expired",
            "admitted jobs expired past their deadline",
            self.jobs_expired,
        );
        snap.push(
            "acsim_serve_jobs_shed",
            "jobs turned away by SLO admission control",
            self.jobs_shed,
        );
        snap.push("acsim_serve_batches", "batches formed", self.batches);
        snap.push(
            "acsim_serve_breaker_opens",
            "times the GPU-tier circuit breaker opened",
            self.breaker_opens,
        );
        snap.push(
            "acsim_serve_cpu_fallback_batches",
            "batches answered by the CPU ladder",
            self.cpu_fallback_batches,
        );
        snap.push(
            "acsim_serve_gpu_retries",
            "supervised GPU retries consumed",
            self.gpu_retries,
        );
        snap.push(
            "acsim_serve_makespan_seconds",
            "first arrival to last completion",
            self.makespan_seconds,
        );
        snap.push(
            "acsim_serve_p50_latency_us",
            "median completion latency",
            self.p50_latency_us,
        );
        snap.push(
            "acsim_serve_p99_latency_us",
            "99th-percentile completion latency",
            self.p99_latency_us,
        );
        snap.push(
            "acsim_serve_jobs_per_sec",
            "completed jobs per simulated second",
            self.jobs_per_sec,
        );
        snap.push(
            "acsim_serve_effective_gbps",
            "payload bits served per simulated second",
            self.effective_gbps,
        );
        if let Some(p) = &self.pool {
            snap.push(
                "acsim_serve_pool_acquires",
                "device-pool buffer acquisitions",
                p.acquires,
            );
            snap.push(
                "acsim_serve_pool_hits",
                "pool acquisitions served from cache",
                p.hits,
            );
            snap.push(
                "acsim_serve_pool_misses",
                "pool acquisitions that hit the allocator",
                p.misses,
            );
            snap.push(
                "acsim_serve_pool_hit_rate",
                "pool hit rate in [0, 1]",
                p.hit_rate,
            );
            snap.push(
                "acsim_serve_pool_high_water_bytes",
                "largest device-byte footprint the pool held",
                p.high_water_bytes,
            );
            snap.push(
                "acsim_serve_pool_host_cycles",
                "driver cycles charged by the pool's allocator",
                p.host_cycles,
            );
        }
        if let Some(limit) = self.pfac_limit_bytes {
            snap.push(
                "acsim_serve_pfac_limit_bytes",
                "priced switch point from staged PFAC to the configured kernel, as far as probed",
                limit,
            );
        }
        if self.mapped_readbacks + self.dma_readbacks > 0 {
            for (path, launches) in [
                ("mapped", self.mapped_readbacks),
                ("dma", self.dma_readbacks),
            ] {
                snap.push_labelled(
                    "acsim_serve_readbacks",
                    "GPU batches and scatter segments by readback path",
                    vec![("path".to_string(), path.to_string())],
                    launches,
                );
            }
        }
        for (kernel, launches) in &self.kernel_launches {
            snap.push_labelled(
                "acsim_serve_kernel_launches",
                "GPU batches and scatter segments each kernel ran",
                vec![("kernel".to_string(), kernel.clone())],
                *launches,
            );
        }
        snap
    }
}

/// Nearest-rank percentile of an unsorted sample, `p` in [0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = ServeReport {
            streams: 4,
            batched: true,
            jobs_submitted: 10,
            jobs_completed: 9,
            jobs_rejected: 1,
            jobs_expired: 2,
            jobs_shed: 1,
            batches: 3,
            breaker_opens: 1,
            cpu_fallback_batches: 2,
            gpu_retries: 4,
            faults_fired: 5,
            makespan_seconds: 0.5,
            p50_latency_us: 100.0,
            p99_latency_us: 900.0,
            mean_latency_us: 200.0,
            jobs_per_sec: 18.0,
            effective_gbps: 1.5,
            payload_bytes: 9000,
            readback_bytes: 4_321,
            copy_utilisation: 0.4,
            compute_utilisation: 0.8,
            batch_histogram: vec![BatchBucket { jobs: 3, count: 3 }],
            pool: Some(PoolStatsReport {
                acquires: 6,
                hits: 4,
                misses: 2,
                releases: 6,
                high_water_bytes: 1 << 20,
                host_cycles: 24_000,
                hit_rate: 4.0 / 6.0,
            }),
            kernel_launches: BTreeMap::from([
                ("pfac".to_string(), 2),
                ("shared-diagonal".to_string(), 1),
            ]),
            pfac_limit_bytes: Some(u64::MAX),
            mapped_readbacks: 2,
            dma_readbacks: 1,
        };
        let back = ServeReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pre_pool_reports_parse_with_no_pool_section() {
        // A report serialized before the pool existed has no "pool" key
        // at all; `#[serde(default)]` must fill in `None`.
        let r = ServeReport {
            jobs_completed: 3,
            ..ServeReport::default()
        };
        let json = r.to_json();
        let legacy = json.replace(",\n  \"pool\": null", "");
        assert!(!legacy.contains("pool"), "pool key must be stripped");
        let back = ServeReport::from_json(&legacy).unwrap();
        assert_eq!(back, r);
        assert!(back.pool.is_none());
    }

    #[test]
    fn pre_planning_reports_parse_with_no_kernel_counts() {
        let r = ServeReport {
            jobs_completed: 3,
            ..ServeReport::default()
        };
        let json = r.to_json();
        let legacy = json.replace(
            ",\n  \"kernel_launches\": {},\n  \"pfac_limit_bytes\": null",
            "",
        );
        assert!(!legacy.contains("kernel_launches"), "{legacy}");
        assert!(!legacy.contains("pfac_limit_bytes"), "{legacy}");
        let back = ServeReport::from_json(&legacy).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pool_merge_aggregates_and_rerates() {
        let mut a = PoolStatsReport {
            acquires: 4,
            hits: 2,
            misses: 2,
            releases: 4,
            high_water_bytes: 100,
            host_cycles: 10,
            hit_rate: 0.5,
        };
        let b = PoolStatsReport {
            acquires: 6,
            hits: 6,
            misses: 0,
            releases: 6,
            high_water_bytes: 50,
            host_cycles: 0,
            hit_rate: 1.0,
        };
        a.merge(&b);
        assert_eq!(a.acquires, 10);
        assert_eq!(a.hits, 8);
        assert_eq!(a.high_water_bytes, 150);
        assert!((a.hit_rate - 0.8).abs() < 1e-12);
    }

    #[test]
    fn metrics_flattening_mirrors_the_counters() {
        let r = ServeReport {
            jobs_completed: 9,
            p99_latency_us: 900.0,
            ..ServeReport::default()
        };
        let snap = r.to_metrics();
        let get = |name: &str| snap.get(name, &[]).expect(name).value;
        assert_eq!(get("acsim_serve_jobs_completed"), 9u64.into());
        assert_eq!(get("acsim_serve_p99_latency_us"), 900.0.into());
        assert!(snap
            .to_prometheus()
            .contains("acsim_serve_jobs_completed 9"));
        // No pool armed → no pool gauges.
        assert!(snap.get("acsim_serve_pool_hits", &[]).is_none());
        let pooled = ServeReport {
            pool: Some(PoolStatsReport {
                acquires: 8,
                hits: 6,
                misses: 2,
                releases: 8,
                high_water_bytes: 4096,
                host_cycles: 24_000,
                hit_rate: 0.75,
            }),
            ..ServeReport::default()
        };
        let snap = pooled.to_metrics();
        assert_eq!(get_from(&snap, "acsim_serve_pool_hits"), 6u64.into());
        assert_eq!(get_from(&snap, "acsim_serve_pool_hit_rate"), 0.75.into());
        let planned = ServeReport {
            kernel_launches: BTreeMap::from([("pfac".to_string(), 7)]),
            ..ServeReport::default()
        };
        let snap = planned.to_metrics();
        let launches = snap
            .get("acsim_serve_kernel_launches", &[("kernel", "pfac")])
            .expect("one series per kernel");
        assert_eq!(launches.value, 7u64.into());
        assert!(snap
            .to_prometheus()
            .contains("acsim_serve_kernel_launches{kernel=\"pfac\"} 7"));
        // No launch → no readback-path series; a launch → both paths.
        assert!(snap
            .get("acsim_serve_readbacks", &[("path", "dma")])
            .is_none());
        let mapped = ServeReport {
            mapped_readbacks: 5,
            ..ServeReport::default()
        };
        let snap = mapped.to_metrics();
        let path = |p: &str| {
            snap.get("acsim_serve_readbacks", &[("path", p)])
                .unwrap()
                .value
        };
        assert_eq!(path("mapped"), 5u64.into());
        assert_eq!(path("dma"), 0u64.into());
        // Nothing priced → no switch-point gauge.
        assert!(snap.get("acsim_serve_pfac_limit_bytes", &[]).is_none());
        let priced = ServeReport {
            pfac_limit_bytes: Some(541_234),
            ..ServeReport::default()
        };
        let snap = priced.to_metrics();
        assert_eq!(
            get_from(&snap, "acsim_serve_pfac_limit_bytes"),
            541_234u64.into()
        );
    }

    fn get_from(snap: &trace::MetricsSnapshot, name: &str) -> trace::MetricValue {
        snap.get(name, &[]).expect(name).value
    }

    #[test]
    fn pre_resilience_reports_parse_with_zero_counters() {
        // A report serialized before the resilience fields existed must
        // still load (serde defaults), so old artifacts stay readable.
        let r = ServeReport {
            streams: 1,
            batched: false,
            jobs_submitted: 1,
            jobs_completed: 1,
            jobs_rejected: 0,
            jobs_expired: 0,
            jobs_shed: 0,
            batches: 1,
            breaker_opens: 0,
            cpu_fallback_batches: 0,
            gpu_retries: 0,
            faults_fired: 0,
            makespan_seconds: 0.1,
            p50_latency_us: 1.0,
            p99_latency_us: 2.0,
            mean_latency_us: 1.5,
            jobs_per_sec: 10.0,
            effective_gbps: 0.1,
            payload_bytes: 100,
            readback_bytes: 0,
            copy_utilisation: 0.1,
            compute_utilisation: 0.2,
            batch_histogram: vec![],
            pool: None,
            kernel_launches: BTreeMap::new(),
            pfac_limit_bytes: None,
            mapped_readbacks: 0,
            dma_readbacks: 0,
        };
        let resilience_keys = [
            "\"jobs_expired\"",
            "\"jobs_shed\"",
            "\"breaker_opens\"",
            "\"cpu_fallback_batches\"",
            "\"gpu_retries\"",
            "\"faults_fired\"",
            "\"readback_bytes\"",
        ];
        // Drop the (interior) resilience lines from the pretty JSON to
        // reconstruct what an old artifact looked like.
        let legacy: String = r
            .to_json()
            .lines()
            .filter(|line| {
                !resilience_keys
                    .iter()
                    .any(|k| line.trim_start().starts_with(k))
            })
            .collect::<Vec<_>>()
            .join("\n");
        for k in resilience_keys {
            assert!(!legacy.contains(k), "{k} should be stripped");
        }
        let back = ServeReport::from_json(&legacy).unwrap();
        assert_eq!(back, r);
    }
}
