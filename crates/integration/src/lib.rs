//! Cross-crate integration layer.
//!
//! The repository-root `tests/` files are registered as this crate's
//! integration tests (see `Cargo.toml`); the library itself hosts the one
//! piece of behaviour that genuinely spans every layer: the
//! [`ResilientMatcher`], a scan front-end that degrades
//! GPU → parallel CPU → serial CPU and always produces an answer.

use ac_core::{AcAutomaton, Match};
use ac_cpu::{par_find_all, ParallelConfig};
use ac_gpu::{
    run_supervised, Approach, GpuAcMatcher, KernelParams, SuperviseConfig, SuperviseReport,
};
use gpu_sim::{FaultPlan, GpuConfig, LaunchStats};
use trace::{ArgValue, TraceBuffer, PID_HOST};

/// The rung of the degradation ladder that produced the final answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Supervised simulated-GPU run succeeded.
    Gpu,
    /// GPU exhausted its retries (or failed fatally); the multithreaded
    /// CPU matcher answered.
    CpuParallel,
    /// Both GPU and parallel CPU failed; the serial oracle answered.
    CpuSerial,
}

impl Tier {
    /// Stable label for reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Gpu => "gpu",
            Tier::CpuParallel => "cpu-parallel",
            Tier::CpuSerial => "cpu-serial",
        }
    }
}

/// Why each abandoned rung was abandoned, plus the GPU supervision trace.
#[derive(Debug, Clone, Default)]
pub struct DegradationReport {
    /// The GPU supervision trace (attempts, retries, fired faults), when
    /// a GPU attempt was made at all.
    pub gpu: Option<SuperviseReport>,
    /// Display text of the error that ended the GPU rung, if it failed.
    pub gpu_error: Option<String>,
    /// Display text of the error that ended the parallel-CPU rung, if it
    /// was reached and failed.
    pub cpu_parallel_error: Option<String>,
}

/// Result of a resilient scan: the matches, which rung produced them, and
/// the full degradation trace.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// Sorted matches — byte-identical to the serial oracle's output
    /// regardless of which rung answered.
    pub matches: Vec<Match>,
    /// The rung that answered.
    pub tier: Tier,
    /// What happened on the way down.
    pub report: DegradationReport,
    /// Launch statistics of the winning GPU run (`None` when a CPU rung
    /// answered — CPU rungs have no simulated clock).
    pub stats: Option<LaunchStats>,
    /// The recorded timeline when [`SuperviseConfig::trace`] was armed:
    /// the supervised GPU attempt's stitched trace plus ladder events
    /// ("tier-abandoned" for each rung given up on, "tier-answered" for
    /// the rung that produced the result).
    pub trace: Option<TraceBuffer>,
}

/// Policy for the ladder.
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Kernel to attempt on the GPU rung.
    pub approach: Approach,
    /// GPU retry/watchdog policy.
    pub supervise: SuperviseConfig,
    /// Parallel-CPU rung geometry.
    pub parallel: ParallelConfig,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            approach: Approach::SharedDiagonal,
            supervise: SuperviseConfig::default(),
            parallel: ParallelConfig::default_for_host(),
        }
    }
}

/// Which CPU rung answered a [`cpu_ladder_scan`], and why the parallel
/// rung was skipped if it was.
#[derive(Debug, Clone)]
pub struct CpuLadderRun {
    /// Sorted matches, bit-identical to the serial oracle's output.
    pub matches: Vec<Match>,
    /// [`Tier::CpuParallel`] or [`Tier::CpuSerial`].
    pub tier: Tier,
    /// Display text of the parallel rung's error when the serial oracle
    /// had to answer.
    pub parallel_error: Option<String>,
}

/// The CPU half of the degradation ladder as a standalone, infallible
/// scan: parallel CPU first, serial oracle as the floor. This is the
/// per-batch failover the serving path runs while its GPU circuit
/// breaker is open — the same ladder semantics [`ResilientMatcher`]
/// applies per-process, reusable per unit of work.
pub fn cpu_ladder_scan(ac: &AcAutomaton, text: &[u8], parallel: &ParallelConfig) -> CpuLadderRun {
    match par_find_all(ac, text, parallel) {
        Ok(matches) => CpuLadderRun {
            matches,
            tier: Tier::CpuParallel,
            parallel_error: None,
        },
        Err(e) => {
            let mut matches = ac.find_all(text);
            matches.sort();
            CpuLadderRun {
                matches,
                tier: Tier::CpuSerial,
                parallel_error: Some(e.to_string()),
            }
        }
    }
}

/// A matcher that always answers: supervised GPU first, then parallel
/// CPU, then the serial oracle.
#[derive(Debug)]
pub struct ResilientMatcher {
    gpu: Option<GpuAcMatcher>,
    gpu_init_error: Option<String>,
    ac: AcAutomaton,
    cfg: ResilientConfig,
}

impl ResilientMatcher {
    /// Build the ladder for `ac` on a device described by `gpu_cfg`. A
    /// GPU-side construction failure (automaton too large, bad config) is
    /// not fatal — the matcher simply starts life degraded.
    pub fn new(
        gpu_cfg: GpuConfig,
        params: KernelParams,
        ac: AcAutomaton,
        cfg: ResilientConfig,
    ) -> Self {
        let (gpu, gpu_init_error) = match GpuAcMatcher::new(gpu_cfg, params, ac.clone()) {
            Ok(m) => (Some(m), None),
            Err(e) => (None, Some(e.to_string())),
        };
        ResilientMatcher {
            gpu,
            gpu_init_error,
            ac,
            cfg,
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &AcAutomaton {
        &self.ac
    }

    /// Arm a deterministic fault plan on the GPU rung (no-op when GPU
    /// construction already failed).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        if let Some(gpu) = &self.gpu {
            gpu.set_fault_plan(plan);
        }
    }

    /// Disarm the GPU rung's fault plan.
    pub fn clear_fault_plan(&self) {
        if let Some(gpu) = &self.gpu {
            gpu.clear_fault_plan();
        }
    }

    /// Scan `text`, degrading as needed. Infallible: the final rung is
    /// the serial matcher, which cannot fail.
    ///
    /// When [`SuperviseConfig::trace`] is armed the returned run carries a
    /// timeline: the supervised GPU attempts (retries, backoffs, device
    /// trace of the winning attempt) plus ladder events marking each rung
    /// abandoned and the rung that finally answered.
    pub fn scan(&self, text: &[u8]) -> ResilientRun {
        let mut report = DegradationReport::default();
        let mut timeline = self.cfg.supervise.trace.map(TraceBuffer::new);
        // Simulated-time cursor for ladder events: GPU backoffs (and the
        // winning kernel) advance it; CPU rungs have no simulated clock,
        // so their events land at the cursor where the GPU gave up.
        let mut cursor: u64 = 0;

        match &self.gpu {
            Some(gpu) => match run_supervised(gpu, text, self.cfg.approach, &self.cfg.supervise) {
                Ok(mut s) => {
                    cursor = s.report.backoff_cycles + s.run.stats.cycles;
                    report.gpu = Some(s.report);
                    let trace = timeline.map(|mut tl| {
                        if let Some(attempt) = s.run.trace.take() {
                            tl.merge_shifted(&attempt, 0);
                        }
                        ladder_event(&mut tl, "tier-answered", Tier::Gpu, cursor, None);
                        tl
                    });
                    return ResilientRun {
                        matches: s.run.matches,
                        tier: Tier::Gpu,
                        report,
                        stats: Some(s.run.stats),
                        trace,
                    };
                }
                Err((err, gpu_report)) => {
                    cursor = gpu_report.backoff_cycles;
                    report.gpu = Some(gpu_report);
                    report.gpu_error = Some(err.to_string());
                    if let Some(tl) = timeline.as_mut() {
                        ladder_event(
                            tl,
                            "tier-abandoned",
                            Tier::Gpu,
                            cursor,
                            report.gpu_error.as_deref(),
                        );
                    }
                }
            },
            None => {
                report.gpu_error = self.gpu_init_error.clone();
                if let Some(tl) = timeline.as_mut() {
                    ladder_event(
                        tl,
                        "tier-abandoned",
                        Tier::Gpu,
                        cursor,
                        report.gpu_error.as_deref(),
                    );
                }
            }
        }

        let cpu = cpu_ladder_scan(&self.ac, text, &self.cfg.parallel);
        if let Some(err) = &cpu.parallel_error {
            report.cpu_parallel_error = Some(err.clone());
            if let Some(tl) = timeline.as_mut() {
                ladder_event(tl, "tier-abandoned", Tier::CpuParallel, cursor, Some(err));
            }
        }
        let trace = timeline.map(|mut tl| {
            ladder_event(&mut tl, "tier-answered", cpu.tier, cursor, None);
            tl
        });
        ResilientRun {
            matches: cpu.matches,
            tier: cpu.tier,
            report,
            stats: None,
            trace,
        }
    }
}

/// Record one degradation-ladder instant on the host track.
fn ladder_event(tl: &mut TraceBuffer, name: &str, tier: Tier, ts: u64, error: Option<&str>) {
    let mut args = vec![("tier".to_string(), ArgValue::from(tier.label()))];
    if let Some(e) = error {
        args.push(("error".to_string(), ArgValue::from(e)));
    }
    tl.instant(name, "ladder", PID_HOST, 0, ts, args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;

    fn resilient(cfg: ResilientConfig) -> ResilientMatcher {
        let gpu_cfg = GpuConfig::gtx285();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap());
        ResilientMatcher::new(gpu_cfg, KernelParams::defaults_for(&gpu_cfg), ac, cfg)
    }

    fn oracle(m: &ResilientMatcher, text: &[u8]) -> Vec<Match> {
        let mut want = m.automaton().find_all(text);
        want.sort();
        want
    }

    #[test]
    fn clean_scan_stays_on_gpu() {
        let m = resilient(ResilientConfig::default());
        let text = b"ushers rush home";
        let run = m.scan(text);
        assert_eq!(run.tier, Tier::Gpu);
        assert_eq!(run.matches, oracle(&m, text));
        assert!(run.report.gpu_error.is_none());
    }

    #[test]
    fn exhausted_gpu_falls_back_to_parallel_cpu() {
        let m = resilient(ResilientConfig::default());
        // Fault every launch the retry budget could reach.
        let plan = (0..64).fold(FaultPlan::none(), |p, i| p.with_launch_transient(i));
        m.set_fault_plan(plan);
        let text = b"ushers rush home";
        let run = m.scan(text);
        assert_eq!(run.tier, Tier::CpuParallel);
        assert_eq!(run.matches, oracle(&m, text));
        assert!(run.report.gpu_error.is_some());
        assert!(run.report.gpu.as_ref().unwrap().retries > 0);
    }

    #[test]
    fn broken_parallel_rung_falls_through_to_serial() {
        let cfg = ResilientConfig {
            parallel: ParallelConfig {
                threads: 0,
                chunk_size: 4096,
            },
            ..ResilientConfig::default()
        };
        let m = resilient(cfg);
        let plan = (0..64).fold(FaultPlan::none(), |p, i| p.with_launch_transient(i));
        m.set_fault_plan(plan);
        let text = b"ushers rush home";
        let run = m.scan(text);
        assert_eq!(run.tier, Tier::CpuSerial);
        assert_eq!(run.matches, oracle(&m, text));
        assert!(run.report.cpu_parallel_error.is_some());
    }

    #[test]
    fn failed_gpu_construction_starts_degraded() {
        let mut gpu_cfg = GpuConfig::gtx285();
        gpu_cfg.num_sms = 0; // invalid device
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he"]).unwrap());
        let m = ResilientMatcher::new(
            gpu_cfg,
            KernelParams {
                threads_per_block: 128,
                global_chunk_bytes: 4096,
                shared_chunk_bytes: 64,
                pin_threads_per_block: false,
            },
            ac,
            ResilientConfig::default(),
        );
        let run = m.scan(b"hehe");
        assert_eq!(run.tier, Tier::CpuParallel);
        assert_eq!(run.matches, oracle(&m, b"hehe"));
        assert!(run.report.gpu_error.is_some());
        assert!(run.report.gpu.is_none());
    }

    #[test]
    fn traced_clean_scan_reports_gpu_answer() {
        let cfg = ResilientConfig {
            supervise: SuperviseConfig {
                trace: Some(ac_gpu::TraceConfig::default()),
                ..SuperviseConfig::default()
            },
            ..ResilientConfig::default()
        };
        let m = resilient(cfg);
        let run = m.scan(b"ushers rush home");
        assert_eq!(run.tier, Tier::Gpu);
        let stats = run.stats.expect("gpu answer carries launch stats");
        assert!(stats.cycles > 0);
        let tb = run.trace.expect("trace requested");
        let answered = tb
            .events()
            .iter()
            .find(|e| e.name == "tier-answered")
            .expect("ladder records the answering rung");
        assert!(answered
            .args
            .iter()
            .any(|(k, v)| k == "tier" && matches!(v, ArgValue::Str(s) if s == "gpu")));
        // Device events from the winning attempt ride along.
        assert!(tb.events().iter().any(|e| e.name == "kernel"));
    }

    #[test]
    fn traced_fallback_records_abandoned_rungs() {
        let cfg = ResilientConfig {
            supervise: SuperviseConfig {
                trace: Some(ac_gpu::TraceConfig::default()),
                ..SuperviseConfig::default()
            },
            parallel: ParallelConfig {
                threads: 0,
                chunk_size: 4096,
            },
            ..ResilientConfig::default()
        };
        let m = resilient(cfg);
        let plan = (0..64).fold(FaultPlan::none(), |p, i| p.with_launch_transient(i));
        m.set_fault_plan(plan);
        let run = m.scan(b"ushers rush home");
        assert_eq!(run.tier, Tier::CpuSerial);
        assert!(run.stats.is_none());
        let tb = run.trace.expect("trace requested");
        let abandoned: Vec<&str> = tb
            .events()
            .iter()
            .filter(|e| e.name == "tier-abandoned")
            .filter_map(|e| {
                e.args.iter().find_map(|(k, v)| match v {
                    ArgValue::Str(s) if k == "tier" => Some(s.as_str()),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(abandoned, ["gpu", "cpu-parallel"]);
        // Both abandonments carry the error text that ended the rung.
        assert!(tb
            .events()
            .iter()
            .filter(|e| e.name == "tier-abandoned")
            .all(|e| e.args.iter().any(|(k, _)| k == "error")));
    }

    #[test]
    fn untraced_scan_carries_no_buffer() {
        let m = resilient(ResilientConfig::default());
        let run = m.scan(b"ushers");
        assert_eq!(run.tier, Tier::Gpu);
        assert!(run.trace.is_none());
        assert!(run.stats.is_some());
    }

    #[test]
    fn cpu_ladder_is_infallible_and_oracle_identical() {
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "hers"]).unwrap());
        let text = b"ushers rush home to her";
        let mut want = ac.find_all(text);
        want.sort();
        // Healthy parallel rung.
        let run = cpu_ladder_scan(
            &ac,
            text,
            &ParallelConfig {
                threads: 2,
                chunk_size: 1024,
            },
        );
        assert_eq!(run.tier, Tier::CpuParallel);
        assert_eq!(run.matches, want);
        assert!(run.parallel_error.is_none());
        // Broken parallel rung: the serial floor still answers.
        let run = cpu_ladder_scan(
            &ac,
            text,
            &ParallelConfig {
                threads: 0,
                chunk_size: 1024,
            },
        );
        assert_eq!(run.tier, Tier::CpuSerial);
        assert_eq!(run.matches, want);
        assert!(run.parallel_error.is_some());
    }

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(Tier::Gpu.label(), "gpu");
        assert_eq!(Tier::CpuParallel.label(), "cpu-parallel");
        assert_eq!(Tier::CpuSerial.label(), "cpu-serial");
    }
}
