//! Engine dispatch: run any engine over (automaton, input) and return a
//! uniform report.

use crate::opts::Engine;
use ac_core::{AcAutomaton, Match};
use ac_cpu::ParallelConfig;
use ac_gpu::{Approach, GpuAcMatcher, KernelParams, RunOptions};
use ac_serve::{serve, BatchLimits, ScanJob, ServeConfig, ServeRun, TelemetryConfig};
use gpu_sim::{FaultPlan, GpuConfig, InjectedFault, LaunchStats, TraceBuffer, TraceConfig};
use std::time::Instant;

/// Uniform result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// CLI engine name.
    pub engine: &'static str,
    /// Matches (sorted). Empty when counting.
    pub matches: Vec<Match>,
    /// Total match count (also filled when counting).
    pub count: u64,
    /// Host wall seconds spent (for CPU engines this is the measurement;
    /// for GPU engines it is simulation cost, *not* device time).
    pub host_seconds: f64,
    /// Simulated device seconds (GPU engines only).
    pub device_seconds: Option<f64>,
    /// Simulated device throughput in Gbit/s (GPU engines only).
    pub device_gbps: Option<f64>,
    /// Full launch statistics (GPU engines only).
    pub stats: Option<LaunchStats>,
    /// Recorded trace when one was requested (GPU engines only).
    pub trace: Option<TraceBuffer>,
}

/// The device preset to simulate.
pub fn device(fermi: bool) -> GpuConfig {
    if fermi {
        GpuConfig::fermi_c2050()
    } else {
        GpuConfig::gtx285()
    }
}

/// The approach a GPU engine runs. `None` for the CPU engines and for
/// `gpu:auto`, which picks a layout per workload (see
/// [`resolve_gpu_approach`]).
pub fn gpu_approach(e: Engine) -> Option<Approach> {
    match e {
        Engine::GpuShared => Some(Approach::SharedDiagonal),
        Engine::GpuGlobal => Some(Approach::GlobalOnly),
        Engine::GpuBanded => Some(Approach::SharedBanded),
        Engine::GpuPfac => Some(Approach::Pfac),
        Engine::Serial | Engine::Parallel | Engine::GpuAuto => None,
    }
}

/// The approach a GPU engine runs over `text`. `gpu:auto` probes the STT
/// layouts on a sample of `text`, keeps the fastest, and prints the pick
/// with each probe's residency evidence to stderr; every other GPU engine
/// maps through [`gpu_approach`].
pub fn resolve_gpu_approach(
    engine: Engine,
    matcher: &GpuAcMatcher,
    text: &[u8],
) -> Result<Approach, String> {
    if engine != Engine::GpuAuto {
        return gpu_approach(engine).ok_or_else(|| format!("{engine:?} has no GPU kernel"));
    }
    let choice = ac_gpu::pick_layout(matcher, text).map_err(|e| e.to_string())?;
    eprintln!(
        "gpu:auto picked the {} layout ({})",
        choice.layout.label(),
        choice
            .probes
            .iter()
            .map(|p| format!("{} {:.0}% L1", p.layout.label(), p.stt_l1_hit_rate * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(choice
        .layout
        .approach()
        .expect("picker returns concrete layouts"))
}

/// Execute `engine` over `text`. `trace` arms the cycle-stamped recorder
/// for GPU engines (ignored by CPU engines, which have no device).
pub fn run_engine(
    engine: Engine,
    name: &'static str,
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &GpuConfig,
    count_only: bool,
    trace: Option<TraceConfig>,
) -> Result<EngineReport, String> {
    let started = Instant::now();
    match engine {
        Engine::Serial => {
            let (matches, count) = if count_only {
                (Vec::new(), ac_core::matcher::count_all(ac, text))
            } else {
                let mut m = ac.find_all(text);
                m.sort();
                let c = m.len() as u64;
                (m, c)
            };
            Ok(EngineReport {
                engine: name,
                matches,
                count,
                host_seconds: started.elapsed().as_secs_f64(),
                device_seconds: None,
                device_gbps: None,
                stats: None,
                trace: None,
            })
        }
        Engine::Parallel => {
            let matches = ac_cpu::par_find_all(ac, text, &ParallelConfig::default_for_host())
                .map_err(|e| e.to_string())?;
            let count = matches.len() as u64;
            Ok(EngineReport {
                engine: name,
                matches: if count_only { Vec::new() } else { matches },
                count,
                host_seconds: started.elapsed().as_secs_f64(),
                device_seconds: None,
                device_gbps: None,
                stats: None,
                trace: None,
            })
        }
        _ => {
            let matcher = GpuAcMatcher::new(*cfg, KernelParams::defaults_for(cfg), ac.clone())?;
            let approach = resolve_gpu_approach(engine, &matcher, text)?;
            // Always record: counting mode counts read-back events, which
            // are not occurrences (see `GpuAcMatcher::run_counting`), so
            // `--count` reports the materialized count, as `parallel` does.
            let mut run = matcher.run_opts(
                text,
                approach,
                RunOptions {
                    record: true,
                    watchdog_cycles: None,
                    trace,
                    introspect: None,
                    attribution: None,
                },
            )?;
            let count = run.matches.len() as u64;
            let device_seconds = Some(run.seconds());
            let device_gbps = Some(run.gbps());
            Ok(EngineReport {
                engine: name,
                matches: if count_only {
                    Vec::new()
                } else {
                    std::mem::take(&mut run.matches)
                },
                count,
                host_seconds: started.elapsed().as_secs_f64(),
                device_seconds,
                device_gbps,
                stats: Some(run.stats),
                trace: run.trace,
            })
        }
    }
}

/// Run `match --resilient`: `text` as one job through [`serve`] on one
/// stream, with per-job batches and a circuit breaker that opens on the
/// first exhausted batch. The serve loop's degradation ladder then
/// answers from the first rung that holds: supervised GPU, parallel CPU,
/// serial oracle. `fault_seed` arms [`FaultPlan::generate`] on the GPU
/// first; `telemetry` arms serve telemetry for the trace and metrics
/// exports. Returns the run and the faults that fired.
///
/// # Errors
/// The GPU rung could not be built (or could not serve at all); the
/// caller answers from [`ac_serve::cpu_ladder_scan`] instead.
pub fn run_resilient(
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &GpuConfig,
    fault_seed: Option<u64>,
    telemetry: bool,
) -> Result<(ServeRun, Vec<InjectedFault>), String> {
    let matcher = GpuAcMatcher::new(*cfg, KernelParams::defaults_for(cfg), ac.clone())
        .map_err(|e| e.to_string())?;
    let mut serve_cfg = ServeConfig::new(1);
    serve_cfg.limits = BatchLimits::per_job();
    serve_cfg.breaker.failure_threshold = 1;
    if telemetry {
        serve_cfg.telemetry = Some(TelemetryConfig::default());
    }
    if let Some(seed) = fault_seed {
        matcher.set_fault_plan(FaultPlan::generate(seed));
    }
    let job = ScanJob::new(0, text.to_vec(), 0.0);
    let run = serve(&matcher, vec![job], &serve_cfg).map_err(|e| e.to_string())?;
    Ok((run, matcher.fault_log()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;

    fn ac() -> AcAutomaton {
        AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "hers"]).unwrap())
    }

    #[test]
    fn all_engines_agree_on_counts() {
        let ac = ac();
        let text = b"ushers she hers and he";
        let cfg = device(false);
        let mut counts = Vec::new();
        for (e, name) in Engine::all() {
            let r = run_engine(e, name, &ac, text, &cfg, false, None).unwrap();
            counts.push((name, r.count));
            // Matches of every engine equal the serial baseline's.
            let mut want = ac.find_all(text);
            want.sort();
            assert_eq!(r.matches, want, "{name}");
        }
        let first = counts[0].1;
        assert!(counts.iter().all(|&(_, c)| c == first), "{counts:?}");
    }

    #[test]
    fn auto_engine_resolves_a_layout_and_agrees_with_serial() {
        let ac = ac();
        let text = b"ushers she hers and he";
        let cfg = device(false);
        let r = run_engine(Engine::GpuAuto, "gpu:auto", &ac, text, &cfg, false, None).unwrap();
        let mut want = ac.find_all(text);
        want.sort();
        assert_eq!(r.matches, want);
        assert!(r.device_gbps.unwrap() > 0.0);
    }

    #[test]
    fn gpu_engines_report_device_time() {
        let ac = ac();
        let cfg = device(false);
        let r = run_engine(
            Engine::GpuShared,
            "gpu:shared",
            &ac,
            b"ushers",
            &cfg,
            false,
            None,
        )
        .unwrap();
        assert!(r.device_seconds.unwrap() > 0.0);
        assert!(r.device_gbps.unwrap() > 0.0);
        assert!(r.stats.is_some());
        assert!(r.trace.is_none());
        let r = run_engine(Engine::Serial, "serial", &ac, b"ushers", &cfg, false, None).unwrap();
        assert!(r.device_seconds.is_none());
        assert!(r.stats.is_none());
    }

    #[test]
    fn gpu_engine_carries_trace_when_armed() {
        let ac = ac();
        let cfg = device(false);
        let r = run_engine(
            Engine::GpuShared,
            "gpu:shared",
            &ac,
            b"ushers",
            &cfg,
            false,
            Some(TraceConfig::default()),
        )
        .unwrap();
        let tb = r.trace.expect("trace requested");
        assert!(tb.events().iter().any(|e| e.name == "kernel"));
        // Arming the recorder must not move the simulated clock.
        let plain = run_engine(
            Engine::GpuShared,
            "gpu:shared",
            &ac,
            b"ushers",
            &cfg,
            false,
            None,
        )
        .unwrap();
        assert_eq!(r.stats, plain.stats);
    }

    #[test]
    fn fermi_device_differs() {
        assert_ne!(device(true).num_sms, device(false).num_sms);
    }

    #[test]
    fn resilient_run_agrees_with_serial_even_under_faults() {
        let ac = ac();
        let text = b"ushers she hers and he";
        let cfg = device(false);
        let mut want = ac.find_all(text);
        want.sort();
        let (clean, fired) = run_resilient(&ac, text, &cfg, None, false).unwrap();
        assert_eq!(clean.outcomes[0].matches, want);
        assert_eq!(clean.outcomes[0].served_by.label(), "gpu");
        assert!(fired.is_empty());
        assert!(clean.telemetry.is_none());
        let (faulted, _) = run_resilient(&ac, text, &cfg, Some(3), false).unwrap();
        assert_eq!(faulted.outcomes[0].matches, want);
        let (traced, _) = run_resilient(&ac, text, &cfg, None, true).unwrap();
        assert_eq!(traced.outcomes[0].matches, want);
        assert!(traced.telemetry.is_some());
    }

    #[test]
    fn count_only_skips_matches() {
        let ac = ac();
        let cfg = device(false);
        let r = run_engine(Engine::Serial, "serial", &ac, b"he he", &cfg, true, None).unwrap();
        assert!(r.matches.is_empty());
        assert_eq!(r.count, 2);
    }
}
