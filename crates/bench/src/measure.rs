//! The measurement engine: runs every approach over the experiment grid
//! and produces the flat record set from which all figures derive.

use crate::workload::Workload;
use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
use corpus::ExperimentGrid;
use cpu_sim::{simulate_multicore, simulate_serial, CpuConfig};
use gpu_sim::GpuConfig;
use serde::{Deserialize, Serialize};

/// One measured point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Input size in bytes.
    pub size: usize,
    /// Dictionary size.
    pub patterns: usize,
    /// Approach label (`serial`, `global-only`, `shared-diagonal`, …).
    pub approach: String,
    /// Modelled wall seconds.
    pub seconds: f64,
    /// Throughput in Gbit/s.
    pub gbps: f64,
    /// Device cycles (GPU approaches) or CPU cycles (serial).
    pub cycles: u64,
    /// Texture-cache hit rate (GPU) or L2 hit rate (serial).
    pub cache_hit_rate: f64,
    /// Shared-memory accesses that conflicted (GPU only).
    pub shared_conflicts: u64,
    /// Lane requests per global transaction (GPU only; higher = better
    /// coalescing).
    pub coalescing_ratio: f64,
    /// Matching positions observed.
    pub match_events: u64,
    /// SM-cycles with no warp ready to issue (GPU only).
    #[serde(default)]
    pub idle_cycles: u64,
    /// Attribution of `idle_cycles` by stall reason (GPU only).
    #[serde(default)]
    pub stalls: trace::StallBreakdown,
    /// p99 job latency in µs (serving scenarios only).
    #[serde(default)]
    pub p99_latency_us: f64,
    /// Completed jobs per simulated second (serving scenarios only).
    #[serde(default)]
    pub jobs_per_sec: f64,
    /// Jobs turned away by backpressure (serving scenarios only).
    #[serde(default)]
    pub jobs_rejected: Option<u64>,
}

/// The full record set of one engine run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Measurements {
    /// All measured points.
    pub rows: Vec<Measurement>,
}

impl Measurements {
    /// Look up a point (unique per `(approach, size, patterns)`).
    pub fn get(&self, approach: &str, size: usize, patterns: usize) -> Option<&Measurement> {
        self.rows
            .iter()
            .find(|m| m.approach == approach && m.size == size && m.patterns == patterns)
    }

    /// Speedup of `fast` over `slow` at a grid point (ratio of seconds).
    pub fn speedup(&self, slow: &str, fast: &str, size: usize, patterns: usize) -> Option<f64> {
        let s = self.get(slow, size, patterns)?;
        let f = self.get(fast, size, patterns)?;
        if f.seconds == 0.0 {
            return None;
        }
        Some(s.seconds / f.seconds)
    }

    /// Merge another record set.
    pub fn extend(&mut self, other: Measurements) {
        self.rows.extend(other.rows);
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The size × pattern grid to sweep.
    pub grid: ExperimentGrid,
    /// Simulated device.
    pub gpu: GpuConfig,
    /// Modelled serial CPU.
    pub cpu: CpuConfig,
    /// Kernel tunables.
    pub params: KernelParams,
    /// Workload seed.
    pub seed: u64,
    /// Print progress lines to stderr.
    pub verbose: bool,
}

impl EngineConfig {
    /// Paper-faithful defaults over the given grid, with the paper's
    /// pinned 128-thread tile ([`KernelParams::paper`]).
    pub fn new(grid: ExperimentGrid) -> Self {
        let gpu = GpuConfig::gtx285();
        EngineConfig {
            grid,
            gpu,
            cpu: CpuConfig::core2duo_2_2ghz(),
            params: KernelParams::paper(&gpu),
            seed: 0xAC_2013,
            verbose: false,
        }
    }
}

/// The measurement engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    workload: Workload,
}

impl Engine {
    /// Prepare the workload for the grid's largest input.
    pub fn new(cfg: EngineConfig) -> Self {
        let max = cfg.grid.sizes.iter().copied().max().unwrap_or(0);
        let workload = Workload::prepare(max, cfg.seed);
        Engine { cfg, workload }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The prepared workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    fn progress(&self, msg: &str) {
        if self.cfg.verbose {
            eprintln!("[engine] {msg}");
        }
    }

    /// Run the given approaches over the whole grid. `"serial"` selects
    /// the single-core CPU model, `"multicore"` the 4-core CPU model; any
    /// [`Approach`] label selects a GPU kernel.
    ///
    /// Dictionaries iterate in the outer loop so each (expensive)
    /// automaton is built once and dropped before the next.
    pub fn run(&self, approaches: &[&str]) -> Result<Measurements, String> {
        let mut out = Measurements::default();
        for &patterns in &self.cfg.grid.pattern_counts {
            self.progress(&format!("building automaton for {patterns} patterns"));
            let ac = self.workload.automaton(patterns);
            let gpu_needed = approaches
                .iter()
                .any(|a| *a != "serial" && *a != "multicore");
            let matcher = if gpu_needed {
                Some(GpuAcMatcher::new(
                    self.cfg.gpu,
                    self.cfg.params,
                    ac.clone(),
                )?)
            } else {
                None
            };
            for &size in &self.cfg.grid.sizes {
                let text = self.workload.input(size);
                for &label in approaches {
                    self.progress(&format!("{label}: {size} bytes × {patterns} patterns"));
                    let m = if label == "serial" {
                        self.measure_serial(&ac, text, patterns)
                    } else if label == "multicore" {
                        self.measure_multicore(&ac, text, patterns, 4)
                    } else {
                        let approach = approach_from_label(label)
                            .ok_or_else(|| format!("unknown approach '{label}'"))?;
                        self.measure_gpu(
                            matcher
                                .as_ref()
                                .expect("matcher built when GPU approaches present"),
                            text,
                            patterns,
                            approach,
                        )?
                    };
                    out.rows.push(m);
                }
            }
        }
        Ok(out)
    }

    /// Measure the serial CPU model at one point.
    pub fn measure_serial(
        &self,
        ac: &ac_core::AcAutomaton,
        text: &[u8],
        patterns: usize,
    ) -> Measurement {
        let report = simulate_serial(&self.cfg.cpu, ac.stt(), text);
        Measurement {
            size: text.len(),
            patterns,
            approach: "serial".into(),
            seconds: report.seconds(&self.cfg.cpu),
            gbps: report.gbps(&self.cfg.cpu),
            cycles: report.cycles,
            cache_hit_rate: report.l2.hit_rate(),
            shared_conflicts: 0,
            coalescing_ratio: 1.0,
            match_events: report.match_states,
            idle_cycles: 0,
            stalls: trace::StallBreakdown::default(),
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            jobs_rejected: None,
        }
    }

    /// Measure the 4-core CPU model at one point.
    pub fn measure_multicore(
        &self,
        ac: &ac_core::AcAutomaton,
        text: &[u8],
        patterns: usize,
        cores: usize,
    ) -> Measurement {
        let report =
            simulate_multicore(&self.cfg.cpu, ac.stt(), text, cores, ac.required_overlap());
        Measurement {
            size: text.len(),
            patterns,
            approach: "multicore".into(),
            seconds: report.seconds(&self.cfg.cpu),
            gbps: report.gbps(&self.cfg.cpu),
            cycles: report.cycles,
            cache_hit_rate: report.cores.first().map(|r| r.l2.hit_rate()).unwrap_or(1.0),
            shared_conflicts: 0,
            coalescing_ratio: 1.0,
            match_events: report.cores.iter().map(|r| r.match_states).sum(),
            idle_cycles: 0,
            stalls: trace::StallBreakdown::default(),
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            jobs_rejected: None,
        }
    }

    /// Measure one GPU kernel at one point (counting mode: timing without
    /// materializing matches).
    pub fn measure_gpu(
        &self,
        matcher: &GpuAcMatcher,
        text: &[u8],
        patterns: usize,
        approach: Approach,
    ) -> Result<Measurement, String> {
        let run = matcher.run_counting(text, approach)?;
        Ok(Measurement {
            size: text.len(),
            patterns,
            approach: approach.label().into(),
            seconds: run.seconds(),
            gbps: run.gbps(),
            cycles: run.stats.cycles,
            cache_hit_rate: run.stats.totals.tex_hit_rate(),
            shared_conflicts: run.stats.totals.shared_conflicts,
            coalescing_ratio: run.stats.totals.coalescing_ratio(),
            match_events: run.match_events,
            idle_cycles: run.stats.totals.idle_cycles,
            stalls: run.stats.totals.stalls,
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            jobs_rejected: None,
        })
    }
}

/// Parse an approach label back to the enum.
pub fn approach_from_label(label: &str) -> Option<Approach> {
    Approach::all().into_iter().find(|a| a.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::ExperimentGrid;

    fn tiny_engine() -> Engine {
        let grid = ExperimentGrid {
            sizes: vec![8 * 1024, 32 * 1024],
            pattern_counts: vec![20],
        };
        Engine::new(EngineConfig::new(grid))
    }

    #[test]
    fn runs_serial_and_gpu_points() {
        let e = tiny_engine();
        let m = e.run(&["serial", "shared-diagonal"]).unwrap();
        assert_eq!(m.rows.len(), 4);
        let s = m.get("serial", 8 * 1024, 20).unwrap();
        assert!(s.seconds > 0.0);
        let g = m.get("shared-diagonal", 32 * 1024, 20).unwrap();
        assert!(g.gbps > 0.0);
        assert!(
            m.speedup("serial", "shared-diagonal", 8 * 1024, 20)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn multicore_label_is_supported() {
        let e = tiny_engine();
        let m = e.run(&["serial", "multicore"]).unwrap();
        let s = m.get("serial", 32 * 1024, 20).unwrap();
        let q = m.get("multicore", 32 * 1024, 20).unwrap();
        assert!(q.seconds < s.seconds, "4 cores should beat 1");
    }

    #[test]
    fn unknown_approach_is_an_error() {
        let e = tiny_engine();
        assert!(e.run(&["warp-drive"]).is_err());
    }

    #[test]
    fn label_round_trip() {
        for a in Approach::all() {
            assert_eq!(approach_from_label(a.label()), Some(a));
        }
        assert_eq!(approach_from_label("serial"), None);
    }

    #[test]
    fn measurements_lookup_misses_cleanly() {
        let m = Measurements::default();
        assert!(m.get("serial", 1, 1).is_none());
        assert!(m.speedup("serial", "pfac", 1, 1).is_none());
    }
}
