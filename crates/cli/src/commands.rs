//! Command execution: load inputs, dispatch, format output.

use crate::engines::{
    device, gpu_approach, resolve_gpu_approach, run_engine, run_resilient, EngineReport,
};
use crate::opts::{Command, Engine, Options};
use ac_core::{analysis, dot, AcAutomaton, Match, NfaTables, PatternSet, Trie};
use ac_cpu::ParallelConfig;
use ac_gpu::{Approach, GpuAcMatcher, KernelParams, RunOptions};
use bench::{diff_reports, BenchReport};
use gpu_sim::{GpuConfig, LaunchStats, StallBreakdown, TraceBuffer, TraceConfig};
use std::fmt::Write as _;
use std::path::Path;
use trace::MetricsSnapshot;

/// Run a parsed invocation, returning the text to print.
pub fn run(opts: &Options) -> Result<String, String> {
    // `bench diff` compares committed reports, `serve-sim` extracts its
    // dictionary from the synthetic corpus, and `slo-report` reads a
    // recorded trace. None of them load --patterns.
    if opts.command == Command::BenchDiff {
        return bench_diff_text(opts);
    }
    if opts.command == Command::ServeSim {
        return serve_sim_text(opts);
    }
    if opts.command == Command::FleetSim {
        return fleet_sim_text(opts);
    }
    if opts.command == Command::SloReport {
        return slo_report_text(opts);
    }
    let patterns = load_patterns(&opts.patterns)?;
    match opts.command {
        Command::Dot => {
            let trie = Trie::build(&patterns);
            let nfa = NfaTables::build(&trie);
            Ok(dot::nfa_to_dot(&trie, &nfa, &patterns))
        }
        Command::Stats => {
            let ac = AcAutomaton::build(&patterns);
            let mut out = stats_text(&patterns, &ac, &device(opts.fermi));
            if let Some(input) = &opts.input {
                let text = std::fs::read(input).map_err(|e| format!("reading input: {e}"))?;
                let trie = Trie::build(&patterns);
                let profile = analysis::profile_visits(ac.stt(), &trie, &text);
                let _ = writeln!(out, "\nvisit profile over {} input bytes:", text.len());
                let _ = writeln!(
                    out,
                    "  distinct states visited: {}",
                    profile.distinct_states
                );
                let _ = writeln!(out, "  mean visited depth:      {:.2}", profile.mean_depth);
                for (k, frac) in &profile.concentration {
                    let _ = writeln!(out, "  top-{k:<5} states cover:  {:.1}%", frac * 100.0);
                }
                out.push_str(&launch_stats_text(&ac, &text, &device(opts.fermi)));
            }
            Ok(out)
        }
        Command::Match => {
            let input = opts.input.as_ref().expect("validated by the parser");
            let text = std::fs::read(input).map_err(|e| format!("reading input: {e}"))?;
            let ac = AcAutomaton::build(&patterns);
            let cfg = device(opts.fermi);
            let trace_cfg = opts.trace_out.as_ref().map(|_| TraceConfig::default());
            if opts.resilient {
                return resilient_text(opts, &ac, &text, &cfg);
            }
            // `gpu:auto` sits outside `Engine::all()` (it resolves to a
            // concrete layout), so name it directly.
            let name = if opts.engine == Engine::GpuAuto {
                "gpu:auto"
            } else {
                Engine::all()
                    .iter()
                    .find(|(e, _)| *e == opts.engine)
                    .map(|(_, n)| *n)
                    .expect("engine table is total")
            };
            let report = run_engine(
                opts.engine,
                name,
                &ac,
                &text,
                &cfg,
                opts.count_only,
                trace_cfg,
            )?;
            let mut out = match_text(&report, &ac, opts);
            write_exports(
                opts,
                report.trace.as_ref(),
                report.stats.as_ref(),
                &cfg,
                text.len() as u64,
                &mut out,
            )?;
            Ok(out)
        }
        Command::Profile => {
            let input = opts.input.as_ref().expect("validated by the parser");
            let text = std::fs::read(input).map_err(|e| format!("reading input: {e}"))?;
            let ac = AcAutomaton::build(&patterns);
            profile_text(&ac, &text, &device(opts.fermi), opts.json)
        }
        Command::Explain => {
            let input = opts.input.as_ref().expect("validated by the parser");
            let text = std::fs::read(input).map_err(|e| format!("reading input: {e}"))?;
            let ac = AcAutomaton::build(&patterns);
            explain_text(opts, &ac, &text, &device(opts.fermi))
        }
        Command::Hot => {
            let input = opts.input.as_ref().expect("validated by the parser");
            let text = std::fs::read(input).map_err(|e| format!("reading input: {e}"))?;
            let ac = AcAutomaton::build(&patterns);
            hot_text(opts, &ac, &text, &device(opts.fermi))
        }
        Command::BenchDiff | Command::ServeSim | Command::FleetSim | Command::SloReport => {
            unreachable!("dispatched before pattern loading")
        }
        Command::Compare => {
            let input = opts.input.as_ref().expect("validated by the parser");
            let text = std::fs::read(input).map_err(|e| format!("reading input: {e}"))?;
            let ac = AcAutomaton::build(&patterns);
            let cfg = device(opts.fermi);
            let mut out = format!(
                "{:>15} | {:>9} | {:>12} | {:>13} | {:>10}\n{}\n",
                "engine",
                "matches",
                "host time",
                "device time",
                "sim Gb/s",
                "-".repeat(72)
            );
            for (e, name) in Engine::all() {
                let r = run_engine(e, name, &ac, &text, &cfg, false, None)?;
                let dev = r
                    .device_seconds
                    .map(|s| format!("{:.3} ms", s * 1e3))
                    .unwrap_or_else(|| "-".into());
                let gbps = r
                    .device_gbps
                    .map(|g| format!("{g:.2}"))
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "{:>15} | {:>9} | {:>9.1} ms | {:>13} | {:>10}",
                    r.engine,
                    r.count,
                    r.host_seconds * 1e3,
                    dev,
                    gbps
                );
            }
            Ok(out)
        }
    }
}

/// Load a dictionary file: one pattern per line, `\xNN` escapes decoded,
/// blank lines and `#` comments skipped.
pub fn load_patterns(path: &Path) -> Result<PatternSet, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading patterns: {e}"))?;
    let mut pats: Vec<Vec<u8>> = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        pats.push(decode_escapes(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    PatternSet::new(pats).map_err(|e| format!("invalid dictionary: {e}"))
}

/// Decode `\xNN`, `\\`, `\t`, `\n` escapes into raw bytes.
pub fn decode_escapes(s: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            continue;
        }
        match chars.next() {
            Some('\\') => out.push(b'\\'),
            Some('t') => out.push(b'\t'),
            Some('n') => out.push(b'\n'),
            Some('x') => {
                let hi = chars.next().ok_or("truncated \\x escape")?;
                let lo = chars.next().ok_or("truncated \\x escape")?;
                let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
                    .map_err(|_| format!("bad hex escape \\x{hi}{lo}"))?;
                out.push(byte);
            }
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("trailing backslash".into()),
        }
    }
    Ok(out)
}

/// Write a GPU engine run's trace/metrics exports, appending a note per
/// file to `out`. Returns an error only when a write fails; a missing
/// trace buffer is reported in the output instead.
fn write_exports(
    opts: &Options,
    trace: Option<&TraceBuffer>,
    stats: Option<&LaunchStats>,
    cfg: &GpuConfig,
    input_bytes: u64,
    out: &mut String,
) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        match trace {
            Some(tb) => {
                let json = trace::to_chrome_json(tb, cfg.clock_hz / 1e6);
                std::fs::write(path, json)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                let _ = writeln!(
                    out,
                    "trace written: {} ({} events, {} dropped)",
                    path.display(),
                    tb.len(),
                    tb.dropped()
                );
            }
            None => {
                let _ = writeln!(out, "trace not written: run produced no trace buffer");
            }
        }
    }
    if let (Some(path), Some(stats)) = (&opts.metrics_out, stats) {
        write_metrics(path, &stats.metrics(cfg.clock_hz, input_bytes), out)?;
    }
    Ok(())
}

/// Write a metrics snapshot (Prometheus text for `.prom`/`.txt` paths,
/// else JSON) and append a note to `out`.
fn write_metrics(path: &Path, snap: &MetricsSnapshot, out: &mut String) -> Result<(), String> {
    let prom = path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("prom") || e.eq_ignore_ascii_case("txt"));
    let body = if prom {
        snap.to_prometheus()
    } else {
        snap.to_json()
    };
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(
        out,
        "metrics written: {} ({} series, {})",
        path.display(),
        snap.len(),
        if prom { "prometheus" } else { "json" }
    );
    Ok(())
}

/// Simulate the paper's default kernel over `text` and render the launch
/// diagnostics: device time, throughput, and the per-SM load-imbalance
/// spread collected in `LaunchStats::per_sm_cycles`.
fn launch_stats_text(ac: &AcAutomaton, text: &[u8], cfg: &GpuConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\nsimulated launch (gpu:shared, {} SMs):", cfg.num_sms);
    let run = GpuAcMatcher::new(*cfg, KernelParams::defaults_for(cfg), ac.clone()).and_then(|m| {
        m.run_opts(
            text,
            Approach::SharedDiagonal,
            RunOptions {
                record: false,
                watchdog_cycles: None,
                trace: None,
                introspect: None,
                attribution: None,
            },
        )
    });
    match run {
        Ok(run) => {
            let stats = &run.stats;
            let imb = stats.load_imbalance();
            let _ = writeln!(
                out,
                "  device time:    {:.3} ms ({:.2} Gb/s over {} bytes)",
                run.seconds() * 1e3,
                run.gbps(),
                text.len()
            );
            let _ = writeln!(
                out,
                "  per-SM cycles:  max {} / min {} / mean {:.0}",
                imb.max, imb.min, imb.mean
            );
            let _ = writeln!(
                out,
                "  load imbalance: {:.3} (max/mean; 1.0 = balanced)",
                imb.ratio()
            );
            if let Some((reason, cycles)) = stats.totals.stalls.dominant() {
                let _ = writeln!(
                    out,
                    "  dominant stall: {} ({} of {} idle cycles)",
                    reason.label(),
                    cycles,
                    stats.totals.idle_cycles
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  skipped: {e}");
        }
    }
    out
}

/// `acsim bench diff OLD NEW`: compare two committed perf reports under
/// the regression thresholds and check the gate table on NEW. A
/// regression, lost grid coverage or a broken gate comes back as `Err`,
/// which the binary turns into a non-zero exit — this is the CI gate.
fn bench_diff_text(opts: &Options) -> Result<String, String> {
    let read = |p: &Path| -> Result<BenchReport, String> {
        let raw =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        BenchReport::from_json(&raw).map_err(|e| format!("parsing {}: {e}", p.display()))
    };
    let old = read(opts.bench_old.as_ref().expect("validated by the parser"))?;
    let new = read(opts.bench_new.as_ref().expect("validated by the parser"))?;
    let diff = diff_reports(&old, &new);
    let mut out = diff.render();
    if let Some(path) = &opts.report_out {
        std::fs::write(path, diff.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "report written: {}", path.display());
    }
    if diff.has_regressions() {
        Err(out)
    } else {
        Ok(out)
    }
}

/// Default dictionary size for `serve-sim`: small enough that the kernel
/// runs near its peak rate, which is the regime where PCIe copies matter
/// and stream overlap pays.
const SERVE_PATTERNS: usize = ac_serve::DEFAULT_PATTERNS;

/// `acsim serve-sim`: replay a deterministic open-loop workload of small
/// scan jobs through the batched multi-stream server and render the
/// [`ac_serve::ServeReport`].
fn serve_sim_text(opts: &Options) -> Result<String, String> {
    let (matcher, workload, serve_cfg) = serve_scenario(opts)?;
    if opts.serve_chaos {
        return serve_chaos_text(opts, &matcher);
    }
    let jobs = ac_serve::synthetic_workload(&workload);
    let run = ac_serve::serve(&matcher, jobs, &serve_cfg).map_err(|e| e.to_string())?;
    let r = &run.report;
    let mut out = format!(
        "serve-sim: {} jobs offered at ~{}/s, {} stream(s), {}\n",
        r.jobs_submitted,
        opts.serve_rate,
        r.streams,
        if r.batched {
            "adaptive batching"
        } else {
            "per-job launches"
        }
    );
    let _ = writeln!(
        out,
        "  completed:   {} ({} rejected by backpressure), {} launch(es)",
        r.jobs_completed, r.jobs_rejected, r.batches
    );
    write_kernel_launches(r, &mut out);
    if r.jobs_expired + r.jobs_shed + r.breaker_opens + r.cpu_fallback_batches + r.gpu_retries > 0 {
        let _ = writeln!(
            out,
            "  resilience:  {} expired, {} shed, {} breaker open(s), \
             {} cpu-fallback batch(es), {} gpu retry(ies)",
            r.jobs_expired, r.jobs_shed, r.breaker_opens, r.cpu_fallback_batches, r.gpu_retries
        );
    }
    let _ = writeln!(
        out,
        "  makespan:    {:.3} ms simulated   jobs/sec: {:.0}",
        r.makespan_seconds * 1e3,
        r.jobs_per_sec
    );
    let _ = writeln!(
        out,
        "  latency:     p50 {:.0} µs   p99 {:.0} µs   mean {:.0} µs",
        r.p50_latency_us, r.p99_latency_us, r.mean_latency_us
    );
    let _ = writeln!(
        out,
        "  effective:   {:.2} Gb/s over {} payload bytes",
        r.effective_gbps, r.payload_bytes
    );
    let _ = writeln!(
        out,
        "  engines:     copy {:.0}% busy, compute {:.0}% busy",
        r.copy_utilisation * 100.0,
        r.compute_utilisation * 100.0
    );
    let hist: Vec<String> = r
        .batch_histogram
        .iter()
        .map(|b| format!("{}×{}", b.count, b.jobs))
        .collect();
    let _ = writeln!(out, "  batch sizes: {} (count×jobs)", hist.join(" "));
    write_pool_summary(opts, r, &mut out)?;
    if let Some(path) = &opts.report_out {
        std::fs::write(path, r.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "report written: {}", path.display());
    }
    write_serve_exports(opts, run.telemetry.as_ref(), &run.report, &mut out)?;
    Ok(out)
}

/// `acsim fleet-sim`: replay the serving workload through a multi-device
/// fleet behind the sharded, cost-routed dispatcher and render the
/// [`ac_serve::FleetReport`].
fn fleet_sim_text(opts: &Options) -> Result<String, String> {
    let (matcher, workload, dev_cfg) = serve_scenario(opts)?;
    let mut fleet_cfg = ac_serve::FleetConfig::new(opts.fleet_devices, dev_cfg);
    if opts.fleet_no_routing {
        fleet_cfg = fleet_cfg.parity();
    }
    fleet_cfg.shard_bytes = opts.fleet_shard_bytes;
    let jobs = ac_serve::synthetic_workload(&workload);
    let run = ac_serve::serve_fleet(&matcher, jobs, &fleet_cfg).map_err(|e| e.to_string())?;
    let f = &run.report;
    let r = &f.serve;
    let mut out = format!(
        "fleet-sim: {} device(s) × {} stream(s), {} jobs offered at ~{}/s, {}\n",
        f.devices,
        opts.serve_streams,
        r.jobs_submitted,
        opts.serve_rate,
        if opts.fleet_no_routing {
            "parity dispatch (least-loaded stream)"
        } else {
            "calibrated cost routing"
        }
    );
    let _ = writeln!(
        out,
        "  completed:   {} ({} rejected by backpressure), {} launch(es)",
        r.jobs_completed, r.jobs_rejected, r.batches
    );
    write_kernel_launches(r, &mut out);
    if r.jobs_expired + r.jobs_shed + r.breaker_opens + r.cpu_fallback_batches + r.gpu_retries > 0 {
        let _ = writeln!(
            out,
            "  resilience:  {} expired, {} shed, {} breaker open(s), \
             {} cpu-fallback batch(es), {} gpu retry(ies)",
            r.jobs_expired, r.jobs_shed, r.breaker_opens, r.cpu_fallback_batches, r.gpu_retries
        );
    }
    let _ = writeln!(
        out,
        "  makespan:    {:.3} ms simulated   jobs/sec: {:.0}",
        r.makespan_seconds * 1e3,
        r.jobs_per_sec
    );
    let _ = writeln!(
        out,
        "  latency:     p50 {:.0} µs   p99 {:.0} µs   mean {:.0} µs",
        r.p50_latency_us, r.p99_latency_us, r.mean_latency_us
    );
    let _ = writeln!(
        out,
        "  effective:   {:.2} Gb/s over {} payload bytes",
        r.effective_gbps, r.payload_bytes
    );
    let _ = writeln!(
        out,
        "  shared bus:  {:.0}% busy, {} grant(s), {} contended, {} backfilled, {:.0} µs waited",
        f.bus_utilisation * 100.0,
        f.bus.grants,
        f.bus.contended,
        f.bus.backfilled,
        f.bus.waited_seconds * 1e6
    );
    if f.scattered_jobs > 0 {
        let _ = writeln!(
            out,
            "  scattered:   {} oversized job(s) sharded across all devices",
            f.scattered_jobs
        );
    }
    let _ = writeln!(out, "  per device:  (batches / jobs / copy% / compute%)");
    for d in &f.per_device {
        let _ = writeln!(
            out,
            "    gpu{}: {:>4} / {:>5} / {:>3.0}% / {:>3.0}%{}",
            d.device,
            d.batches,
            d.jobs,
            d.copy_utilisation * 100.0,
            d.compute_utilisation * 100.0,
            if d.breaker_opens > 0 {
                format!("   ({} breaker open(s))", d.breaker_opens)
            } else {
                String::new()
            }
        );
    }
    if !f.routing.is_empty() {
        let _ = writeln!(out, "  routing:     (jobs / bytes / shed / expired)");
        for t in &f.routing {
            let _ = writeln!(
                out,
                "    {:<5} {:>5} / {:>8} / {:>4} / {:>4}",
                t.tier, t.jobs, t.bytes, t.shed, t.expired
            );
        }
    }
    if !f.cost_models.is_empty() {
        let _ = writeln!(out, "  cost models: (setup µs + bytes at GB/s)");
        for c in &f.cost_models {
            let _ = writeln!(
                out,
                "    {:<5} {:>7.1} µs + {:>6.2} GB/s",
                c.tier,
                c.setup_seconds * 1e6,
                c.bytes_per_sec / 1e9
            );
        }
    }
    write_pool_summary(opts, r, &mut out)?;
    if let Some(path) = &opts.report_out {
        std::fs::write(path, f.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "report written: {}", path.display());
    }
    write_serve_exports(opts, run.serve.telemetry.as_ref(), r, &mut out)?;
    Ok(out)
}

/// The serving scenario `serve-sim` and `fleet-sim` share: the matcher
/// over the default serving dictionary, the workload shape, and the
/// per-device server policy selected by the load, SLO, pool and export
/// flags.
fn serve_scenario(
    opts: &Options,
) -> Result<
    (
        GpuAcMatcher,
        ac_serve::WorkloadConfig,
        ac_serve::ServeConfig,
    ),
    String,
> {
    use ac_serve::{ServeConfig, SloConfig, TelemetryConfig, WorkloadConfig};
    let cfg = device(opts.fermi);
    let ac = ac_serve::serve_automaton(SERVE_PATTERNS, opts.serve_seed);
    let matcher =
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).map_err(|e| e.to_string())?;
    let workload = WorkloadConfig {
        jobs: opts.serve_jobs,
        arrival_rate_per_sec: opts.serve_rate,
        job_bytes: opts.serve_job_bytes,
        seed: opts.serve_seed,
        deadline_us: opts.serve_deadline_us.map(|us| us as f64),
        // SLO shedding is priority-based: give the workload two classes
        // when a target is set so the controller has something to shed.
        priority_classes: if opts.serve_p99_target_us.is_some() {
            2
        } else {
            1
        },
    };
    let mut serve_cfg = ServeConfig::new(opts.serve_streams);
    serve_cfg.queue_capacity = opts.serve_queue_cap;
    if opts.serve_no_batch {
        serve_cfg = serve_cfg.per_job();
    }
    if let Some(target_us) = opts.serve_p99_target_us {
        serve_cfg.slo = Some(SloConfig {
            p99_target_seconds: target_us as f64 * 1.0e-6,
            ..SloConfig::default()
        });
    }
    serve_cfg.pool = pool_config(opts);
    // Export flags arm end-to-end telemetry; without them the hook stays
    // disarmed and the run is bit-identical to an unobserved one.
    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        serve_cfg.telemetry = Some(TelemetryConfig::default());
    }
    Ok((matcher, workload, serve_cfg))
}

/// Render the `kernels:` line: GPU batches and scatter segments per
/// kernel the serve call chose, the priced switch point when a launch
/// needed one, and the launches per readback path (mapped or `d2h`).
/// Omitted when nothing ran on a GPU.
fn write_kernel_launches(report: &ac_serve::ServeReport, out: &mut String) {
    if report.kernel_launches.is_empty() {
        return;
    }
    let counts: Vec<String> = report
        .kernel_launches
        .iter()
        .map(|(kernel, launches)| format!("{kernel} {launches}"))
        .collect();
    let switch = match report.pfac_limit_bytes {
        Some(u64::MAX) => "; staged PFAC priced cheaper at any length".to_string(),
        Some(limit) => format!("; priced switch at {limit} B"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "  kernels:     {} (launches{switch}); readbacks mapped {}, dma {}",
        counts.join(", "),
        report.mapped_readbacks,
        report.dma_readbacks
    );
}

/// The device-pool configuration selected by `--pool`/`--pool-churn`
/// (`None` when neither flag is given: the legacy untracked-scratch
/// path, bit-identical to a pre-pool run).
fn pool_config(opts: &Options) -> Option<ac_serve::ServePoolConfig> {
    if opts.serve_pool {
        Some(ac_serve::ServePoolConfig::pooled(
            ac_serve::DEFAULT_POOL_CAPACITY,
        ))
    } else if opts.serve_pool_churn {
        Some(ac_serve::ServePoolConfig::churn(
            ac_serve::DEFAULT_POOL_CAPACITY,
        ))
    } else {
        None
    }
}

/// Render the device-pool summary line and write the `--pool-stats`
/// JSON artifact when a pool ran.
fn write_pool_summary(
    opts: &Options,
    report: &ac_serve::ServeReport,
    out: &mut String,
) -> Result<(), String> {
    let Some(pool) = &report.pool else {
        return Ok(());
    };
    let _ = writeln!(
        out,
        "  device pool: {} acquires ({} hits, {} misses, {:.0}% hit rate), \
         high water {} bytes{}",
        pool.acquires,
        pool.hits,
        pool.misses,
        pool.hit_rate * 100.0,
        pool.high_water_bytes,
        if opts.serve_pool_churn {
            " [churn baseline: pageable host, no reuse]"
        } else {
            " [pinned host staging]"
        }
    );
    if let Some(path) = &opts.pool_stats_out {
        let json = serde_json::to_string_pretty(pool)
            .map_err(|e| format!("serializing pool stats: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "pool stats written: {}", path.display());
    }
    Ok(())
}

/// Write the `serve-sim` telemetry exports: the stitched Chrome trace
/// (schema-validated before it touches disk, so a malformed export fails
/// the command rather than silently producing a broken artifact) and the
/// metrics snapshot (Prometheus text for `.prom`/`.txt` paths, else
/// JSON).
fn write_serve_exports(
    opts: &Options,
    telemetry: Option<&ac_serve::TelemetryRun>,
    report: &ac_serve::ServeReport,
    out: &mut String,
) -> Result<(), String> {
    if opts.trace_out.is_none() && opts.metrics_out.is_none() {
        return Ok(());
    }
    let tel = telemetry.ok_or("telemetry was armed but the run recorded none")?;
    if let Some(path) = &opts.trace_out {
        let json = tel.chrome_json();
        let summary = trace::validate_chrome_json(&json)
            .map_err(|e| format!("telemetry trace failed schema validation: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(
            out,
            "trace written: {} ({} events, {} spans, {} dropped)",
            path.display(),
            summary.events,
            summary.spans,
            tel.trace.dropped()
        );
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, &tel.metrics_snapshot(report), out)?;
    }
    Ok(())
}

/// `acsim slo-report TRACE.json`: validate a recorded serve telemetry
/// trace and render the incident narrative (breaker timeline, pressure
/// counters, admission decisions, worst-latency exemplars).
fn slo_report_text(opts: &Options) -> Result<String, String> {
    let path = opts.slo_trace.as_ref().expect("validated by the parser");
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    trace::validate_chrome_json(&json)
        .map_err(|e| format!("{} is not a valid chrome trace: {e}", path.display()))?;
    // The trace was exported in microseconds, so parse it back 1:1.
    let events = trace::parse_chrome_json(&json, 1.0)
        .map_err(|e| format!("parsing {}: {e}", path.display()))?;
    Ok(ac_serve::render_slo_report(&events))
}

/// `acsim serve-sim --chaos`: the seeded fault-storm soak. The load and
/// resilience policy are the pinned smoke scenario ([`ChaosConfig::smoke`]
/// — one replayable storm, the same one CI gates on); the generic
/// load-shaping flags do not apply. `--fault-seed` places the storm,
/// `--seed` reshuffles payloads, `--deadline-us`/`--p99-target-us`
/// override the resilience knobs. Renders the verdict, writes it as the
/// `--report` artifact, and returns `Err` (→ exit code 1) when any
/// resilience invariant is violated, so CI can gate on it directly.
fn serve_chaos_text(opts: &Options, matcher: &GpuAcMatcher) -> Result<String, String> {
    use ac_serve::{chaos_soak_runs, ChaosConfig, SloConfig, TelemetryConfig};
    let seed = opts.fault_seed.unwrap_or(bench::CHAOS_SEED);
    let mut chaos = ChaosConfig::smoke(seed);
    chaos.workload.seed = opts.serve_seed;
    if let Some(us) = opts.serve_deadline_us {
        chaos.workload.deadline_us = Some(us as f64);
    }
    if let Some(target_us) = opts.serve_p99_target_us {
        chaos.workload.priority_classes = 2;
        chaos.serve.slo = Some(SloConfig {
            p99_target_seconds: target_us as f64 * 1.0e-6,
            ..SloConfig::default()
        });
    }
    // Export flags arm telemetry on the soak; the *faulted* run is the
    // interesting one (breaker transitions, fallbacks), so that is the
    // trace/metrics artifact.
    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        chaos.serve.telemetry = Some(TelemetryConfig::default());
    }
    let (verdict, _baseline, faulted) =
        chaos_soak_runs(matcher, &chaos).map_err(|e| e.to_string())?;
    let mut out = format!(
        "serve-chaos: seed {seed}, {} jobs, {} stream(s)\n",
        verdict.faulted.jobs_submitted, verdict.faulted.streams
    );
    let _ = writeln!(
        out,
        "  storm:       {} fault(s) fired, {} gpu retry(ies), {} breaker open(s), \
         {} cpu-fallback batch(es)",
        verdict.faulted.faults_fired,
        verdict.faulted.gpu_retries,
        verdict.faulted.breaker_opens,
        verdict.faulted.cpu_fallback_batches
    );
    let _ = writeln!(
        out,
        "  accounting:  {} completed, {} expired, {} rejected, {} shed \
         (of {} offered; {} wrong, {} lost)",
        verdict.faulted.jobs_completed,
        verdict.faulted.jobs_expired,
        verdict.faulted.jobs_rejected,
        verdict.faulted.jobs_shed,
        verdict.faulted.jobs_submitted,
        verdict.wrong_matches,
        verdict.lost_jobs
    );
    let _ = writeln!(
        out,
        "  degradation: p99 {:.1}x baseline inside [{:.0} µs, {:.0} µs], \
         {:.2}x after recovery",
        verdict.degraded_p99_ratio,
        verdict.degraded_from_seconds * 1e6,
        verdict.degraded_until_seconds * 1e6,
        verdict.recovered_p99_ratio
    );
    let _ = writeln!(
        out,
        "  p99:         baseline {:.0} µs   under storm {:.0} µs",
        verdict.baseline.p99_latency_us, verdict.faulted.p99_latency_us
    );
    if let Some(path) = &opts.report_out {
        std::fs::write(path, verdict.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "verdict written: {}", path.display());
    }
    // Export before the verdict gate so the incident artifacts exist
    // precisely when the soak fails and someone needs to debug it.
    write_serve_exports(opts, faulted.telemetry.as_ref(), &faulted.report, &mut out)?;
    if verdict.passed() {
        let _ = writeln!(out, "  verdict:     PASS (all resilience invariants held)");
        Ok(out)
    } else {
        let _ = writeln!(out, "  verdict:     FAIL");
        for v in &verdict.violations {
            let _ = writeln!(out, "    violation: {v}");
        }
        print!("{out}");
        Err("chaos soak violated resilience invariants".into())
    }
}

/// `acsim explain`: the counterfactual knob sweep plus the spatial
/// memory-hierarchy view of the baseline — per-state texture fetches,
/// end-of-run texture-cache residency, and the shared-memory conflict
/// degree histogram.
fn explain_text(
    opts: &Options,
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &GpuConfig,
) -> Result<String, String> {
    let params = KernelParams::defaults_for(cfg);
    let matcher = GpuAcMatcher::new(*cfg, params, ac.clone())?;
    let approach = resolve_gpu_approach(opts.engine, &matcher, text)?;
    let (report, baseline) = bench::explain(&matcher, text, approach)?;
    let mut out = report.render();
    let intro = baseline
        .introspection
        .expect("explain arms introspection on its baseline");
    let fetches = intro.row_fetches(0);
    out.push('\n');
    out.push_str(&trace::render_heatmap(
        "per-state texture fetches (STT row = DFA state):",
        &fetches,
        64,
    ));
    // The banded kernel's first texture holds fat-pointer records, not
    // the dense STT, so the line→row residency mapping only holds for
    // dense-table kernels.
    if ac_gpu::SttLayout::of_approach(approach)
        .map(|l| l == ac_gpu::SttLayout::Dense)
        .unwrap_or(true)
    {
        let resident = intro.resident_rows(&matcher.stt_texture());
        out.push('\n');
        out.push_str(&trace::render_heatmap(
            "texture-L1 residency by STT row (end of run):",
            &resident,
            64,
        ));
    }
    let hist = intro.bank_histogram();
    let bins: Vec<(String, u64)> = hist
        .degree_counts
        .iter()
        .enumerate()
        .skip(1)
        .map(|(degree, &ops)| (format!("{degree}-way"), ops))
        .collect();
    out.push('\n');
    out.push_str(&trace::render_histogram(
        "shared-memory ops by conflict degree (1-way = conflict-free):",
        &bins,
        40,
    ));
    if let Some(path) = &opts.csv_out {
        let rows: Vec<(String, u64)> = fetches
            .iter()
            .enumerate()
            .map(|(state, &count)| (state.to_string(), count))
            .collect();
        std::fs::write(path, trace::to_csv(("state", "fetches"), &rows))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "csv written: {}", path.display());
    }
    Ok(out)
}

/// One row of `profile --json`.
#[derive(serde::Serialize)]
struct ProfileRow {
    config: String,
    cycles: u64,
    seconds: f64,
    gbps: f64,
    busy_pct: f64,
    threads_per_block: u32,
    resident_blocks_per_sm: u32,
    idle_cycles: u64,
    stalls: StallBreakdown,
}

/// The `profile` sweep: run every GPU kernel configuration over `text`
/// and tabulate cycles, throughput, SM occupancy next to the launched
/// shape (threads per block, resident blocks per SM), and the
/// stall-reason breakdown, closing with the Fig. 19 narrative for the
/// paper's default kernel. With `json` the same rows come back
/// machine-readable.
fn profile_text(
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &GpuConfig,
    json: bool,
) -> Result<String, String> {
    let matcher = GpuAcMatcher::new(*cfg, KernelParams::defaults_for(cfg), ac.clone())
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "profiling {} input bytes on {} SMs @ {:.3} GHz\n\n",
        text.len(),
        cfg.num_sms,
        cfg.clock_hz / 1e9
    );
    let _ = writeln!(
        out,
        "{:>15} | {:>12} | {:>10} | {:>8} | {:>6} | {:>4} | {:>6} | stall breakdown (% of idle)",
        "config", "cycles", "device ms", "Gb/s", "busy%", "tpb", "blk/SM"
    );
    let _ = writeln!(out, "{}", "-".repeat(116));
    let mut shared_stats: Option<LaunchStats> = None;
    let mut json_rows: Vec<ProfileRow> = Vec::new();
    for (engine, name) in Engine::all() {
        let Some(approach) = gpu_approach(engine) else {
            continue;
        };
        let run = matcher
            .run_opts(
                text,
                approach,
                RunOptions {
                    record: false,
                    watchdog_cycles: None,
                    trace: None,
                    introspect: None,
                    attribution: None,
                },
            )
            .map_err(|e| format!("{name}: {e}"))?;
        let stats = &run.stats;
        let resident = run.launch.resident_blocks_per_sm(cfg);
        let sm_cycles: u64 = stats.per_sm.iter().map(|s| s.cycles).sum();
        let idle = stats.totals.idle_cycles;
        let busy = if sm_cycles == 0 {
            100.0
        } else {
            100.0 * (1.0 - idle as f64 / sm_cycles as f64)
        };
        let mut breakdown: Vec<String> = stats
            .totals
            .stalls
            .entries()
            .iter()
            .filter(|&&(_, c)| c > 0)
            .map(|&(r, c)| {
                format!(
                    "{} {:.0}%",
                    r.label(),
                    100.0 * c as f64 / idle.max(1) as f64
                )
            })
            .collect();
        if breakdown.is_empty() {
            breakdown.push("none".into());
        }
        if json {
            json_rows.push(ProfileRow {
                config: name.to_string(),
                cycles: stats.cycles,
                seconds: run.seconds(),
                gbps: run.gbps(),
                busy_pct: busy,
                threads_per_block: run.launch.threads_per_block,
                resident_blocks_per_sm: resident,
                idle_cycles: idle,
                stalls: stats.totals.stalls,
            });
        }
        let _ = writeln!(
            out,
            "{:>15} | {:>12} | {:>10.3} | {:>8.2} | {:>6.1} | {:>4} | {:>6} | {}",
            name,
            stats.cycles,
            run.seconds() * 1e3,
            run.gbps(),
            busy,
            run.launch.threads_per_block,
            resident,
            breakdown.join(", ")
        );
        if approach == Approach::SharedDiagonal {
            shared_stats = Some(run.stats);
        }
    }
    if json {
        return serde_json::to_string_pretty(&json_rows).map_err(|e| e.to_string());
    }
    if let Some(stats) = shared_stats {
        let _ = writeln!(out, "\ngpu:shared latency-hiding detail (paper Fig. 19):");
        out.push_str(&stats.stall_summary());
    }
    Ok(out)
}

/// One state row of `hot --json` output.
#[derive(serde::Serialize)]
struct HotStateRow {
    state: u32,
    prefix: String,
    cycles: u64,
    share_pct: f64,
    tex_fetches: u64,
    tex_miss_pct: f64,
    fail_pct: f64,
    patterns: Vec<u32>,
}

/// One pattern row of `hot --json` output.
#[derive(serde::Serialize)]
struct HotPatternRow {
    pattern: u32,
    text: String,
    cycles: f64,
    share_pct: f64,
}

/// The full `hot --json` document.
#[derive(serde::Serialize)]
struct HotReport {
    approach: String,
    input_bytes: usize,
    states: usize,
    total_sm_cycles: u64,
    attributed_cycles: u64,
    unattributed_cycles: u64,
    drain_cycles: u64,
    hot_states: Vec<HotStateRow>,
    hot_patterns: Vec<HotPatternRow>,
}

/// A state's trie prefix, printable-escaped ("" for the root).
fn state_prefix(own: &ac_core::StateOwnership, state: u32) -> String {
    own.path_bytes(state).escape_ascii().to_string()
}

fn hot_text(
    opts: &Options,
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &GpuConfig,
) -> Result<String, String> {
    let params = KernelParams::defaults_for(cfg);
    let matcher = GpuAcMatcher::new(*cfg, params, ac.clone())?;
    let approach = resolve_gpu_approach(opts.engine, &matcher, text)?;
    let run = matcher.run_opts(
        text,
        approach,
        RunOptions {
            record: false,
            attribution: Some(gpu_sim::AttributionConfig),
            ..Default::default()
        },
    )?;
    let w = run.attribution.expect("attribution requested");
    let own = ac_core::StateOwnership::build(ac.patterns());
    let total = w.total_sm_cycles.max(1) as f64;

    if let Some(path) = &opts.folded_out {
        // One folded stack per charged state: its trie root path as the
        // frames (one frame per prefix byte), its charged cycles as the
        // self value. Flamegraph tooling then aggregates shared prefixes.
        let stacks: Vec<trace::FoldedStack> = w
            .state_cycles
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| {
                let mut frames = vec!["root".to_string()];
                frames.extend(
                    own.path_states(s as u32)
                        .into_iter()
                        .skip(1)
                        .map(|st| [own.edge_byte(st)].escape_ascii().to_string()),
                );
                trace::FoldedStack { frames, value: c }
            })
            .collect();
        std::fs::write(path, trace::render_folded(&stacks))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let hot_states: Vec<HotStateRow> = w
        .hot_states()
        .into_iter()
        .take(opts.top)
        .map(|(s, cycles)| {
            let f = w.tex_fetches[s as usize];
            HotStateRow {
                state: s,
                prefix: state_prefix(&own, s),
                cycles,
                share_pct: cycles as f64 / total * 100.0,
                tex_fetches: f,
                tex_miss_pct: if f > 0 {
                    w.tex_misses[s as usize] as f64 / f as f64 * 100.0
                } else {
                    0.0
                },
                fail_pct: if cycles > 0 {
                    w.fail_cycles[s as usize] as f64 / cycles as f64 * 100.0
                } else {
                    0.0
                },
                patterns: own.owners_of(s).to_vec(),
            }
        })
        .collect();

    let per_pattern = own.per_pattern_cost(&w.state_cycles);
    let mut ranked: Vec<(u32, f64)> = per_pattern
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0.0)
        .map(|(p, &c)| (p as u32, c))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let hot_patterns: Vec<HotPatternRow> = ranked
        .into_iter()
        .take(opts.top)
        .map(|(p, cycles)| HotPatternRow {
            pattern: p,
            text: ac.patterns().get(p).escape_ascii().to_string(),
            cycles,
            share_pct: cycles / total * 100.0,
        })
        .collect();

    if opts.json {
        let report = HotReport {
            approach: approach.label().to_string(),
            input_bytes: text.len(),
            states: ac.state_count(),
            total_sm_cycles: w.total_sm_cycles,
            attributed_cycles: w.attributed_cycles(),
            unattributed_cycles: w.unattributed_cycles,
            drain_cycles: w.drain_cycles,
            hot_states,
            hot_patterns,
        };
        return serde_json::to_string_pretty(&report).map_err(|e| e.to_string());
    }

    let mut out = format!(
        "workload attribution: {} over {} input bytes, {} DFA states\n",
        approach.label(),
        text.len(),
        ac.state_count()
    );
    let _ = writeln!(
        out,
        "total SM cycles: {} (attributed {} = {:.1}%, unattributed {}, drain {})\n",
        w.total_sm_cycles,
        w.attributed_cycles(),
        w.attributed_cycles() as f64 / total * 100.0,
        w.unattributed_cycles,
        w.drain_cycles
    );
    let _ = writeln!(out, "top {} hot states (by charged cycles):", opts.top);
    let _ = writeln!(
        out,
        "{:>7} | {:>12} | {:>6} | {:>9} | {:>8} | {:>6} | prefix",
        "state", "cycles", "share", "tex-fetch", "tex-miss", "fail"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for r in &hot_states {
        let _ = writeln!(
            out,
            "{:>7} | {:>12} | {:>5.1}% | {:>9} | {:>7.1}% | {:>5.1}% | \"{}\"",
            r.state, r.cycles, r.share_pct, r.tex_fetches, r.tex_miss_pct, r.fail_pct, r.prefix
        );
    }
    let _ = writeln!(
        out,
        "\ntop {} hot patterns (shared-prefix cost split evenly):",
        opts.top
    );
    let _ = writeln!(
        out,
        "{:>7} | {:>12} | {:>6} | pattern",
        "id", "cycles", "share"
    );
    let _ = writeln!(out, "{}", "-".repeat(48));
    for r in &hot_patterns {
        let _ = writeln!(
            out,
            "{:>7} | {:>12.0} | {:>5.1}% | \"{}\"",
            r.pattern, r.cycles, r.share_pct, r.text
        );
    }
    if let Some(path) = &opts.folded_out {
        let _ = writeln!(out, "\nfolded stacks written to {}", path.display());
    }
    Ok(out)
}

fn stats_text(patterns: &PatternSet, ac: &AcAutomaton, cfg: &GpuConfig) -> String {
    let trie = Trie::build(patterns);
    let s = analysis::analyze_structure(&trie);
    let mut out = String::new();
    let _ = writeln!(out, "patterns:        {}", patterns.len());
    let _ = writeln!(
        out,
        "pattern lengths: {}-{} bytes",
        patterns.min_len(),
        patterns.max_len()
    );
    let _ = writeln!(out, "states:          {}", s.states);
    let _ = writeln!(out, "mean fanout:     {:.2}", s.mean_fanout);
    let _ = writeln!(out, "dense STT:       {} bytes", ac.stt().size_bytes());
    let _ = writeln!(out, "states by depth: {:?}", s.states_by_depth);
    let _ = writeln!(
        out,
        "\nSTT device footprint by layout (texture L1 {} KiB, L2 {} KiB per SM):",
        cfg.tex_cache.size_bytes / 1024,
        cfg.tex_l2.size_bytes / 1024
    );
    let _ = writeln!(
        out,
        "  {:>9} | {:>12} | {:>9} | {:>9}",
        "layout", "bytes", "of L1", "of L2"
    );
    for fp in ac_gpu::layout_footprints(ac) {
        let label = fp.layout.label();
        match fp.bytes {
            Some(bytes) => {
                let share = |size: u32| bytes as f64 / size as f64 * 100.0;
                let _ = writeln!(
                    out,
                    "  {label:>9} | {bytes:>12} | {:>8.1}% | {:>8.1}%",
                    share(cfg.tex_cache.size_bytes),
                    share(cfg.tex_l2.size_bytes)
                );
            }
            None => {
                let _ = writeln!(out, "  {label:>9} | {:>12} |", "does not fit");
            }
        }
    }
    out
}

/// `match --resilient`: the count and the rung that answered, the GPU
/// supervision summary and fired faults, why the GPU rung was abandoned
/// (if it was), the matches, then the serve telemetry exports. When the
/// GPU rung cannot even be built, the CPU ladder answers alone.
fn resilient_text(
    opts: &Options,
    ac: &AcAutomaton,
    text: &[u8],
    cfg: &GpuConfig,
) -> Result<String, String> {
    let telemetry = opts.trace_out.is_some() || opts.metrics_out.is_some();
    let (matches, served_by, served) =
        match run_resilient(ac, text, cfg, opts.fault_seed, telemetry) {
            Ok((mut run, fired)) => {
                let outcome = run.outcomes.pop().expect("one admitted job, one outcome");
                (outcome.matches, outcome.served_by, Ok((run, fired)))
            }
            Err(e) => {
                let (matches, served_by) =
                    ac_serve::cpu_ladder_scan(ac, text, &ParallelConfig::default_for_host());
                (matches, served_by, Err(e))
            }
        };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} matches (resilient, answered by {})",
        matches.len(),
        served_by.label()
    );
    match &served {
        Ok((run, fired)) => {
            let retries = run.report.gpu_retries;
            let _ = writeln!(
                out,
                "gpu supervision: {} attempt(s), {retries} retried, {} fault(s) injected",
                retries + 1,
                run.report.faults_fired
            );
            for f in fired {
                let _ = writeln!(out, "  fired: {f}");
            }
            for t in &run.breaker_transitions {
                let _ = writeln!(out, "gpu rung abandoned: {}", t.reason);
            }
        }
        Err(e) => {
            let _ = writeln!(out, "gpu rung abandoned: {e}");
        }
    }
    if !opts.count_only {
        push_match_list(&mut out, &matches, ac, opts);
    }
    match &served {
        Ok((run, _)) => write_serve_exports(opts, run.telemetry.as_ref(), &run.report, &mut out)?,
        Err(_) if telemetry => {
            let _ = writeln!(out, "exports not written: nothing was served on the GPU");
        }
        Err(_) => {}
    }
    Ok(out)
}

/// Append up to `--limit` matches, one per line, to `out`.
fn push_match_list(out: &mut String, matches: &[Match], ac: &AcAutomaton, opts: &Options) {
    for m in matches.iter().take(opts.limit) {
        let _ = writeln!(
            out,
            "{:>10}..{:<10} {}",
            m.start,
            m.end,
            String::from_utf8_lossy(ac.patterns().get(m.pattern))
        );
    }
    if matches.len() > opts.limit {
        let _ = writeln!(
            out,
            "... {} more (raise --limit)",
            matches.len() - opts.limit
        );
    }
}

fn match_text(report: &EngineReport, ac: &AcAutomaton, opts: &Options) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} matches ({} engine)", report.count, report.engine);
    if let (Some(d), Some(g)) = (report.device_seconds, report.device_gbps) {
        let _ = writeln!(
            out,
            "simulated device time: {:.3} ms ({g:.2} Gb/s)",
            d * 1e3
        );
    }
    if !opts.count_only {
        push_match_list(&mut out, &report.matches, ac, opts);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::parse;

    fn write_tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("acsim-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn end_to_end_match_command() {
        let pats = write_tmp("p1.txt", b"he\nshe\nhers\n# comment\n\n");
        let input = write_tmp("i1.txt", b"ushers everywhere");
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--engine",
            "serial",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("4 matches"), "{out}"); // she, he, hers in "ushers"; he in "everywhere"
        assert!(out.contains("hers"));
    }

    #[test]
    fn hot_prints_table_and_writes_parseable_folded_stacks() {
        let pats = write_tmp("hot-p.txt", b"he\nshe\nhis\nhers\n");
        let input = write_tmp(
            "hot-i.txt",
            b"those users share his shelf; she ushers her heirs there".as_slice(),
        );
        let folded = std::env::temp_dir().join("acsim-tests").join("hot.folded");
        let opts = parse([
            "hot",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--top",
            "5",
            "--folded-out",
            folded.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(
            out.contains("workload attribution: shared-diagonal"),
            "{out}"
        );
        assert!(out.contains("top 5 hot states"), "{out}");
        assert!(out.contains("top 5 hot patterns"), "{out}");
        // The root state is always the hottest row of a short scan.
        assert!(out.contains("| \"\""), "missing root prefix row:\n{out}");
        // The folded artifact round-trips through the parser and carries
        // the root stack.
        let text = std::fs::read_to_string(&folded).unwrap();
        let stacks = trace::parse_folded(&text).expect("valid folded output");
        assert!(!stacks.is_empty());
        assert!(stacks.iter().all(|s| s.frames[0] == "root"));
        assert!(stacks.iter().any(|s| s.frames.len() > 1 && s.value > 0));
    }

    #[test]
    fn hot_json_is_machine_readable_and_conserves() {
        let pats = write_tmp("hot-jp.txt", b"he\nshe\nhis\nhers\n");
        let input = write_tmp(
            "hot-ji.txt",
            b"she ushers her heirs; he hears her".as_slice(),
        );
        let opts = parse([
            "hot",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--engine",
            "gpu:banded",
            "--json",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        let v: serde::Value = serde_json::from_str(&out).expect("valid JSON");
        let obj = v.as_obj().expect("top-level object");
        let field = |k: &str| serde::obj_get(obj, k).unwrap_or_else(|| panic!("missing {k}"));
        let num = |k: &str| match field(k) {
            serde::Value::U64(n) => *n,
            serde::Value::I64(n) if *n >= 0 => *n as u64,
            other => panic!("{k} not a u64: {other:?}"),
        };
        assert_eq!(field("approach").as_str(), Some("shared-banded"));
        assert_eq!(
            num("attributed_cycles") + num("unattributed_cycles") + num("drain_cycles"),
            num("total_sm_cycles")
        );
        assert!(!field("hot_states").as_arr().unwrap().is_empty());
        assert!(!field("hot_patterns").as_arr().unwrap().is_empty());
    }

    #[test]
    fn compare_runs_every_engine() {
        let pats = write_tmp("p2.txt", b"the\nand\n");
        let input = write_tmp("i2.txt", b"the cat and the dog and the bird");
        let opts = parse([
            "compare",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        for name in [
            "serial",
            "parallel",
            "gpu:shared",
            "gpu:global",
            "gpu:banded",
            "gpu:pfac",
        ] {
            assert!(out.contains(name), "missing {name} in\n{out}");
        }
    }

    #[test]
    fn stats_and_dot_commands() {
        let pats = write_tmp("p3.txt", b"he\nshe\n");
        let opts = parse(["stats", "--patterns", pats.to_str().unwrap()]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("patterns:        2"));
        assert!(out.contains("states by depth"));
        let opts = parse(["dot", "--patterns", pats.to_str().unwrap()]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn stats_prints_layout_footprint_table() {
        let pats = write_tmp("p15.txt", b"he\nshe\nhers\nhis\n");
        let opts = parse(["stats", "--patterns", pats.to_str().unwrap()]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("STT device footprint by layout"), "{out}");
        for label in ["dense", "banded"] {
            assert!(out.contains(label), "missing {label} in\n{out}");
        }
        assert!(out.contains("of L1"), "{out}");
        assert!(out.contains("of L2"), "{out}");
    }

    #[test]
    fn auto_engine_match_end_to_end() {
        let pats = write_tmp("p16.txt", b"he\nshe\nhers\n");
        let input = write_tmp("i16.txt", b"ushers everywhere");
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--engine",
            "gpu:auto",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("4 matches (gpu:auto engine)"), "{out}");
    }

    #[test]
    fn match_count_equals_the_materialized_count() {
        // Nested outputs ("ushers" also ends "hers" and "she"…) and a
        // 7-byte period, so occurrences straddle every 64-byte chunk
        // boundary and each overlap window sees its neighbour's matches.
        let pats = write_tmp("p-count.txt", b"he\nshe\nhers\nusher\nushers\n");
        let input = write_tmp("i-count.txt", "ushers ".repeat(600).as_bytes());
        let count_of = |engine: &str, count: bool| {
            let mut args = vec![
                "match",
                "--patterns",
                pats.to_str().unwrap(),
                "--input",
                input.to_str().unwrap(),
                "--engine",
                engine,
            ];
            if count {
                args.push("--count");
            }
            // The first line is "<N> matches (<engine> engine)".
            let out = run(&parse(args).unwrap()).unwrap();
            out.split_whitespace()
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        // ushers, usher, she, he and hers once per repetition.
        let want = 5 * 600;
        assert_eq!(count_of("serial", false), want);
        for engine in ["serial", "gpu:shared", "gpu:banded", "gpu:pfac"] {
            assert_eq!(count_of(engine, false), want, "{engine}");
            assert_eq!(count_of(engine, true), want, "{engine} --count");
        }
    }

    #[test]
    fn stats_with_input_profiles_visits() {
        let pats = write_tmp("p4.txt", b"he\n");
        let input = write_tmp("i4.txt", b"hehehe there");
        let opts = parse([
            "stats",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("visit profile"), "{out}");
    }

    #[test]
    fn resilient_match_reports_tier_and_faults() {
        let pats = write_tmp("p6.txt", b"he\nshe\nhers\n");
        let input = write_tmp("i6.txt", b"ushers everywhere");
        // Clean resilient run: GPU answers, same count as the serial engine.
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--resilient",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(
            out.contains("4 matches (resilient, answered by gpu)"),
            "{out}"
        );
        // Seeded faults: still 4 matches, and the trace shows what fired.
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--resilient",
            "--fault-seed",
            "3",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("4 matches"), "{out}");
        assert!(out.contains("gpu supervision:"), "{out}");
    }

    #[test]
    fn stats_with_input_reports_launch_diagnostics() {
        let pats = write_tmp("p7.txt", b"he\nshe\n");
        let input = write_tmp("i7.txt", b"ushers share shells here");
        let opts = parse([
            "stats",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("simulated launch (gpu:shared"), "{out}");
        assert!(out.contains("Gb/s"), "{out}");
        assert!(out.contains("per-SM cycles:"), "{out}");
        assert!(out.contains("load imbalance:"), "{out}");
    }

    #[test]
    fn profile_sweeps_gpu_configs_with_stall_breakdowns() {
        let pats = write_tmp("p8.txt", b"he\nshe\nhers\n");
        let input = write_tmp("i8.txt", &b"ushers everywhere ".repeat(200));
        let opts = parse([
            "profile",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        for name in ["gpu:shared", "gpu:global", "gpu:banded", "gpu:pfac"] {
            assert!(out.contains(name), "missing {name} in\n{out}");
        }
        assert!(out.contains("stall breakdown"), "{out}");
        assert!(out.contains("Fig. 19"), "{out}");
        // 3,600 bytes fit one round: the paper's 128-thread block, one
        // resident per SM.
        assert!(out.contains("|  tpb | blk/SM |"), "{out}");
        let shared = out.lines().find(|l| l.contains("gpu:shared")).unwrap();
        assert!(shared.contains("|  128 |      1 |"), "{shared}");
    }

    #[test]
    fn match_writes_trace_and_metrics_files() {
        let pats = write_tmp("p9.txt", b"he\nshe\n");
        let input = write_tmp("i9.txt", &b"ushers everywhere ".repeat(50));
        let trace_path = write_tmp("t9.json", b"");
        let metrics_path = write_tmp("m9.prom", b"");
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("trace written:"), "{out}");
        assert!(out.contains("metrics written:"), "{out}");

        let json = std::fs::read_to_string(&trace_path).unwrap();
        let summary = trace::validate_chrome_json(&json).expect("valid chrome trace");
        assert!(summary.events > 0);
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("# TYPE acsim_launch_cycles gauge"), "{prom}");
        assert!(prom.contains("acsim_throughput_gbps"), "{prom}");
        assert!(prom.contains("acsim_stall_cycles{"), "{prom}");
    }

    #[test]
    fn resilient_match_exports_metrics_as_json() {
        let pats = write_tmp("p10.txt", b"he\nshe\n");
        let input = write_tmp("i10.txt", b"ushers everywhere");
        let metrics_path = write_tmp("m10.json", b"");
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--resilient",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("metrics written:"), "{out}");
        // The serve metrics of the one-job run, not launch metrics.
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(json.contains("acsim_serve_jobs_completed"), "{json}");
        assert!(!json.contains("acsim_launch_cycles"), "{json}");
    }

    #[test]
    fn resilient_match_trace_feeds_slo_report() {
        let pats = write_tmp("p10t.txt", b"he\nshe\n");
        let input = write_tmp("i10t.txt", b"ushers everywhere");
        let trace_path = write_tmp("t10t.json", b"");
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--resilient",
            "--fault-seed",
            "2",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("trace written:"), "{out}");
        assert!(
            out.contains("gpu supervision: 3 attempt(s), 2 retried"),
            "{out}"
        );
        let opts = parse(["slo-report", trace_path.to_str().unwrap()]).unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("breaker: no transitions"), "{report}");
        assert!(report.contains("exemplars:"), "{report}");
    }

    #[test]
    fn resilient_match_answers_from_the_cpu_when_the_gpu_cannot_be_built() {
        // A 12,000-byte pattern needs a staging tile larger than shared
        // memory, so the GPU matcher cannot be built.
        let mut dict = b"he\n".to_vec();
        dict.extend(std::iter::repeat_n(b'a', 12_000));
        dict.push(b'\n');
        let pats = write_tmp("p10c.txt", &dict);
        let input = write_tmp("i10c.txt", b"ushers everywhere");
        let metrics_path = write_tmp("m10c.json", b"");
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--resilient",
            "--count",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        let mut lines = out.lines();
        assert_eq!(
            lines.next(),
            Some("2 matches (resilient, answered by cpu-parallel)")
        );
        assert!(
            lines
                .next()
                .is_some_and(|l| l.starts_with("gpu rung abandoned: staging tile of")),
            "{out}"
        );
        assert!(out.contains("exports not written"), "{out}");
        assert!(!out.contains("gpu supervision:"), "{out}");
    }

    #[test]
    fn profile_json_emits_machine_readable_rows() {
        let pats = write_tmp("p11.txt", b"he\nshe\n");
        let input = write_tmp("i11.txt", &b"ushers everywhere ".repeat(100));
        let opts = parse([
            "profile",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        let rows: serde::Value = serde_json::from_str(&out).expect("valid JSON");
        let rows = rows.as_arr().expect("top-level array");
        assert_eq!(rows.len(), 4, "{out}"); // four GPU configs
        let first = rows[0].as_obj().unwrap();
        for field in [
            "config",
            "cycles",
            "gbps",
            "busy_pct",
            "threads_per_block",
            "resident_blocks_per_sm",
            "stalls",
        ] {
            assert!(serde::obj_get(first, field).is_some(), "missing {field}");
        }
    }

    #[test]
    fn explain_ranks_knobs_and_writes_csv() {
        let pats = write_tmp("p12.txt", b"he\nshe\nhers\n");
        let input = write_tmp("i12.txt", &b"ushers everywhere ".repeat(200));
        let csv = write_tmp("rows12.csv", b"");
        let opts = parse([
            "explain",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--csv-out",
            csv.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("what-if sweep"), "{out}");
        assert!(out.contains("tex-cache x2"), "{out}");
        assert!(out.contains("per-state texture fetches"), "{out}");
        assert!(out.contains("texture-L1 residency"), "{out}");
        assert!(out.contains("conflict degree"), "{out}");
        assert!(out.contains("csv written:"), "{out}");
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with("state,fetches\n"), "{body}");
        assert!(body.lines().count() > 1);
    }

    #[test]
    fn bench_diff_gates_on_regressions() {
        use bench::BenchRow;
        let row = |gbps: f64, cycles: u64| BenchRow {
            approach: "pfac".into(),
            size: 1024,
            patterns: 10,
            gbps,
            cycles,
            idle_cycles: 0,
            stalls: Default::default(),
            p99_latency_us: 0.0,
            jobs_per_sec: 0.0,
            jobs_rejected: None,
            config_hash: 0,
        };
        let old = BenchReport {
            name: "old".into(),
            rows: vec![row(10.0, 1000)],
            provenance: None,
        };
        let new = BenchReport {
            name: "new".into(),
            rows: vec![row(8.0, 1300)],
            provenance: None,
        };
        let old_p = write_tmp("BENCH_old.json", old.to_json().as_bytes());
        let new_p = write_tmp("BENCH_new.json", new.to_json().as_bytes());

        // Self-diff passes.
        let opts = parse([
            "bench",
            "diff",
            old_p.to_str().unwrap(),
            old_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("VERDICT: ok"), "{out}");

        // A 20% throughput drop fails and writes the artifact.
        let report_p = write_tmp("diff13.json", b"");
        let opts = parse([
            "bench",
            "diff",
            old_p.to_str().unwrap(),
            new_p.to_str().unwrap(),
            "--report",
            report_p.to_str().unwrap(),
        ])
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.contains("VERDICT: REGRESSED"), "{err}");
        assert!(err.contains("throughput dropped"), "{err}");
        let artifact = std::fs::read_to_string(&report_p).unwrap();
        assert!(artifact.contains("\"violations\""), "{artifact}");

        // Unreadable reports error cleanly.
        let opts = parse([
            "bench",
            "diff",
            "/nonexistent/a.json",
            new_p.to_str().unwrap(),
        ])
        .unwrap();
        assert!(run(&opts).unwrap_err().contains("reading"));
    }

    #[test]
    fn bench_diff_verdict_and_artifact_carry_a_broken_gate() {
        // A candidate whose burst d4 fleet row only matches burst d1 on
        // jobs/s moves no gated row column, so only the fleet-scaling
        // gate breaks.
        let committed = include_str!("../../../BENCH_smoke.json");
        let mut flat = BenchReport::from_json(committed).unwrap();
        let d1 = flat.row("serve-fleet-burst-d1").unwrap().jobs_per_sec;
        for r in flat
            .rows
            .iter_mut()
            .filter(|r| r.approach == "serve-fleet-burst-d4")
        {
            r.jobs_per_sec = d1;
        }
        let old_p = write_tmp("BENCH_gate_old.json", committed.as_bytes());
        let new_p = write_tmp("BENCH_gate_new.json", flat.to_json().as_bytes());
        let report_p = write_tmp("gate-diff.json", b"");
        let opts = parse([
            "bench",
            "diff",
            old_p.to_str().unwrap(),
            new_p.to_str().unwrap(),
            "--report",
            report_p.to_str().unwrap(),
        ])
        .unwrap();
        let err = run(&opts).unwrap_err();
        // The gate line prints above the one verdict, which counts it.
        let broken = err.find("FLEET SCALING BROKEN").expect("gate line");
        let verdict = err.find("VERDICT: REGRESSED").expect("verdict");
        assert!(broken < verdict, "{err}");
        assert!(!err.contains("VERDICT: ok"), "{err}");
        assert!(err.contains("fleet scaling below floor"), "{err}");
        let artifact: bench::DiffReport =
            serde_json::from_str(&std::fs::read_to_string(&report_p).unwrap()).unwrap();
        let fleet = artifact
            .gates
            .iter()
            .find(|g| g.gate == "fleet scaling")
            .expect("the artifact names the gate");
        assert!(!fleet.held);
        assert!(artifact.has_regressions());
    }

    #[test]
    fn serve_sim_end_to_end_and_report_artifact() {
        let report_p = write_tmp("serve14.json", b"");
        let opts = parse([
            "serve-sim",
            "--jobs",
            "8",
            "--arrival-rate",
            "2000",
            "--streams",
            "2",
            "--job-bytes",
            "4096",
            "--report",
            report_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("8 jobs offered"), "{out}");
        assert!(out.contains("adaptive batching"), "{out}");
        assert!(out.contains("jobs/sec:"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("report written:"), "{out}");
        let json = std::fs::read_to_string(&report_p).unwrap();
        let back = ac_serve::ServeReport::from_json(&json).expect("valid ServeReport JSON");
        assert_eq!(back.jobs_submitted, 8);
        assert_eq!(back.streams, 2);

        // Per-job mode reports itself as such.
        let opts = parse([
            "serve-sim",
            "--jobs",
            "4",
            "--job-bytes",
            "2048",
            "--no-batch",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("per-job launches"), "{out}");
    }

    #[test]
    fn serve_sim_pool_summary_and_stats_artifact() {
        let stats_p = write_tmp("pool21.json", b"");
        let opts = parse([
            "serve-sim",
            "--jobs",
            "8",
            "--arrival-rate",
            "2000",
            "--streams",
            "2",
            "--pool",
            "--pool-stats",
            stats_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("device pool:"), "{out}");
        assert!(out.contains("pinned host staging"), "{out}");
        assert!(out.contains("pool stats written:"), "{out}");
        let json = std::fs::read_to_string(&stats_p).unwrap();
        let back: ac_serve::PoolStatsReport =
            serde_json::from_str(&json).expect("valid pool stats JSON");
        assert!(back.acquires > 0);
        assert_eq!(back.releases, back.acquires);

        // The churn baseline labels itself, and fleet-sim carries the
        // summary too (merged across its per-device pools).
        let opts = parse(["serve-sim", "--jobs", "4", "--pool-churn"]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("churn baseline"), "{out}");
        let opts = parse(["fleet-sim", "--devices", "2", "--jobs", "16", "--pool"]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("device pool:"), "{out}");

        // No pool flags: no pool section anywhere in the output.
        let opts = parse(["serve-sim", "--jobs", "4"]).unwrap();
        let out = run(&opts).unwrap();
        assert!(!out.contains("device pool:"), "{out}");
    }

    #[test]
    fn fleet_sim_end_to_end_and_report_artifact() {
        let report_p = write_tmp("fleet20.json", b"");
        let opts = parse([
            "fleet-sim",
            "--devices",
            "2",
            "--jobs",
            "32",
            "--arrival-rate",
            "200000",
            "--streams",
            "1",
            "--report",
            report_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("2 device(s)"), "{out}");
        assert!(out.contains("calibrated cost routing"), "{out}");
        assert!(out.contains("shared bus:"), "{out}");
        assert!(out.contains("per device:"), "{out}");
        assert!(out.contains("gpu0:"), "{out}");
        assert!(out.contains("gpu1:"), "{out}");
        assert!(out.contains("routing:"), "{out}");
        assert!(out.contains("cost models:"), "{out}");
        assert!(out.contains("report written:"), "{out}");
        let json = std::fs::read_to_string(&report_p).unwrap();
        let back = ac_serve::FleetReport::from_json(&json).expect("valid FleetReport JSON");
        assert_eq!(back.devices, 2);
        assert_eq!(back.serve.jobs_submitted, 32);
        assert_eq!(back.per_device.len(), 2);

        // Parity mode reports itself and carries no routing tables.
        let opts = parse(["fleet-sim", "--devices", "1", "--no-routing", "--jobs", "8"]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("parity dispatch"), "{out}");
        assert!(!out.contains("routing:"), "{out}");
    }

    #[test]
    fn fleet_sim_exports_device_tagged_telemetry() {
        let trace_p = write_tmp("fleet21_t.json", b"");
        let opts = parse([
            "fleet-sim",
            "--devices",
            "2",
            "--jobs",
            "16",
            "--arrival-rate",
            "400000",
            "--streams",
            "1",
            "--trace-out",
            trace_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("trace written:"), "{out}");
        let json = std::fs::read_to_string(&trace_p).unwrap();
        let summary = trace::validate_chrome_json(&json).expect("valid chrome trace");
        assert!(summary.events > 0, "{summary:?}");
        // Device 1's stream ops land in its own pid plane in the stitched
        // trace (device_pid_base remaps them past device 0's block).
        let events = trace::parse_chrome_json(&json, 1.0).expect("parseable trace");
        let base1 = gpu_sim::device_pid_base(1);
        assert!(
            events.iter().any(|e| e.pid >= base1),
            "no device-1 pid plane in trace"
        );
        // The recorded trace still feeds `slo-report`.
        let opts = parse(["slo-report", trace_p.to_str().unwrap()]).unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("slo-report:"), "{report}");
    }

    #[test]
    fn serve_sim_exports_telemetry_and_slo_report_renders() {
        let trace_p = write_tmp("serve17_t.json", b"");
        let metrics_p = write_tmp("serve17_m.prom", b"");
        let opts = parse([
            "serve-sim",
            "--jobs",
            "12",
            "--arrival-rate",
            "4000",
            "--streams",
            "2",
            "--trace-out",
            trace_p.to_str().unwrap(),
            "--metrics-out",
            metrics_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("trace written:"), "{out}");
        assert!(out.contains("metrics written:"), "{out}");

        // The trace on disk is a valid Chrome export with job spans.
        let json = std::fs::read_to_string(&trace_p).unwrap();
        let summary = trace::validate_chrome_json(&json).expect("valid chrome trace");
        assert!(summary.spans > 0, "{summary:?}");
        // The metrics snapshot carries the terminal report plus the
        // sampled series.
        let prom = std::fs::read_to_string(&metrics_p).unwrap();
        assert!(prom.contains("acsim_serve_jobs_completed"), "{prom}");
        assert!(prom.contains("acsim_serve_sample_p99_us{"), "{prom}");

        // The recorded trace feeds `slo-report` directly.
        let opts = parse(["slo-report", trace_p.to_str().unwrap()]).unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("slo-report:"), "{out}");
        assert!(out.contains("breaker"), "{out}");
        assert!(out.contains("admission:"), "{out}");
        assert!(out.contains("p99 (sampled):"), "{out}");
    }

    #[test]
    fn serve_chaos_exports_the_faulted_run_telemetry() {
        let trace_p = write_tmp("serve18_t.json", b"");
        let opts = parse([
            "serve-sim",
            "--chaos",
            "--trace-out",
            trace_p.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("trace written:"), "{out}");
        let json = std::fs::read_to_string(&trace_p).unwrap();
        trace::validate_chrome_json(&json).expect("valid chrome trace");
        // The storm trips the breaker, so the incident narrative names
        // the transitions and the degraded window.
        let opts = parse(["slo-report", trace_p.to_str().unwrap()]).unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("breaker timeline:"), "{report}");
        assert!(
            report.contains("breaker-open") || report.contains("open"),
            "{report}"
        );
        assert!(report.contains("worst-latency exemplars:"), "{report}");
    }

    #[test]
    fn slo_report_rejects_garbage_traces() {
        let bogus = write_tmp("bogus19.json", b"{\"traceEvents\": \"nope\"}");
        let opts = parse(["slo-report", bogus.to_str().unwrap()]).unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.contains("not a valid chrome trace"), "{err}");
        let opts = parse(["slo-report", "/nonexistent/t.json"]).unwrap();
        assert!(run(&opts).unwrap_err().contains("reading"));
    }

    #[test]
    fn escape_decoding() {
        assert_eq!(decode_escapes("ab").unwrap(), b"ab");
        assert_eq!(decode_escapes(r"a\x00b").unwrap(), vec![b'a', 0, b'b']);
        assert_eq!(
            decode_escapes(r"\\\t\n").unwrap(),
            vec![b'\\', b'\t', b'\n']
        );
        assert!(decode_escapes(r"\q").is_err());
        assert!(decode_escapes(r"\x9").is_err());
        assert!(decode_escapes("trailing\\").is_err());
    }

    #[test]
    fn binary_patterns_via_escapes() {
        let pats = write_tmp("p5.txt", b"\\x90\\x90\\x90\n");
        let input = write_tmp("i5.bin", &[0u8, 0x90, 0x90, 0x90, 1]);
        let opts = parse([
            "match",
            "--patterns",
            pats.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--engine",
            "gpu:shared",
        ])
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("1 matches"), "{out}");
    }

    #[test]
    fn missing_files_error_cleanly() {
        let opts = parse([
            "match",
            "--patterns",
            "/nonexistent/p.txt",
            "--input",
            "/nonexistent/i.txt",
        ])
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.contains("reading patterns"));
    }
}
