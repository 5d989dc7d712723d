//! `repro` — regenerate the paper's evaluation figures.
//!
//! ```text
//! repro all [--full|--quick] [--verbose] [--out DIR]   # Figs. 13–23
//! repro fig13 … fig23                                  # individual figures
//! repro ablations                                      # beyond-paper experiments
//! repro ablation-pfac|ablation-naive|ablation-texcache|ablation-occupancy
//! ```
//!
//! Default grid is the scaled one (50 KB–4 MB inputs, 100–20 000
//! patterns); `--full` switches to the paper's 50 KB–200 MB grid, `--quick`
//! to a smoke grid. CSV/JSON land in `--out` (default `results/`).
//!
//! Every run also measures the ride-along scenarios ([`bench::scenarios`])
//! and checks the gate table ([`bench::evaluate_gates`]) on the report it
//! writes; it exits 1 when a gate breaks, after writing every output.

use bench::figures::{build_figure, CellSpec, Figure, FigureSet, Metric};
use bench::measure::{Engine, EngineConfig, Measurements};
use corpus::{paper_grid, scaled_grid, smoke_grid, ExperimentGrid};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Figure catalogue: (id, title, paper reference, cell spec).
fn figure_specs() -> Vec<(&'static str, &'static str, &'static str, CellSpec)> {
    let s = |a: &str, m| CellSpec::Value(a.into(), m);
    let r = |slow: &str, fast: &str| CellSpec::Ratio(slow.into(), fast.into());
    vec![
        (
            "fig13",
            "Run times, serial approach",
            "grows with size and pattern count",
            s("serial", Metric::Seconds),
        ),
        (
            "fig14",
            "Run times, global memory only approach",
            "grows with size and pattern count",
            s("global-only", Metric::Seconds),
        ),
        (
            "fig15",
            "Run times, shared memory approach",
            "growth with pattern count flattens at large sizes",
            s("shared-diagonal", Metric::Seconds),
        ),
        (
            "fig16",
            "Throughput (Gbps), serial approach",
            "single-core table-driven AC: a few Gbps at best",
            s("serial", Metric::Gbps),
        ),
        (
            "fig17",
            "Throughput (Gbps), global memory only approach",
            "decreases with pattern count",
            s("global-only", Metric::Gbps),
        ),
        (
            "fig18",
            "Throughput (Gbps), shared memory approach",
            "max 127 Gbps at 200MB/100 patterns; small decrease with pattern count",
            s("shared-diagonal", Metric::Gbps),
        ),
        (
            "fig20",
            "Speedup of global-only over serial",
            "3.3 - 13.2x",
            r("serial", "global-only"),
        ),
        (
            "fig21",
            "Speedup of shared memory over serial",
            "36.1 - 222.0x, max at 100MB/20,000 patterns",
            r("serial", "shared-diagonal"),
        ),
        (
            "fig22",
            "Speedup of shared memory over global-only",
            "7.3 - 19.3x",
            r("global-only", "shared-diagonal"),
        ),
        (
            "fig23",
            "Speedup of the bank-conflict-avoiding store scheme over coalescing-only",
            "1.5 - 5.3x, grows with pattern count",
            r("shared-coalesced-only", "shared-diagonal"),
        ),
    ]
}

/// Approaches a set of figure ids needs.
fn approaches_for(ids: &BTreeSet<String>) -> Vec<&'static str> {
    let mut out = Vec::new();
    let need =
        |ids: &BTreeSet<String>, list: &[&str]| ids.iter().any(|i| list.contains(&i.as_str()));
    if need(ids, &["fig13", "fig16", "fig20", "fig21"]) {
        out.push("serial");
    }
    if need(ids, &["fig14", "fig17", "fig20", "fig22"]) {
        out.push("global-only");
    }
    if need(ids, &["fig15", "fig18", "fig21", "fig22", "fig23"]) {
        out.push("shared-diagonal");
    }
    if need(ids, &["fig23"]) {
        out.push("shared-coalesced-only");
    }
    out
}

struct Args {
    targets: BTreeSet<String>,
    grid: ExperimentGrid,
    /// Grid label, naming the `BENCH_<name>.json` perf report.
    grid_name: &'static str,
    out_dir: PathBuf,
    verbose: bool,
    /// `summary` mode: read figures.json from this directory and print
    /// the paper-vs-measured verdict table instead of running anything.
    summary_in: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut targets = BTreeSet::new();
    let mut grid = scaled_grid();
    let mut grid_name = "scaled";
    let mut out_dir = PathBuf::from("results");
    let mut verbose = false;
    let mut summary_in: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "summary" => summary_in = Some(PathBuf::from("results/full")),
            "--in" => {
                summary_in = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--in needs a directory".to_string())?,
                ));
            }
            "--full" => {
                grid = paper_grid();
                grid_name = "full";
            }
            "--quick" => {
                grid = smoke_grid();
                grid_name = "smoke";
            }
            "--verbose" => verbose = true,
            "--out" => {
                out_dir = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--out needs a directory".to_string())?,
                );
            }
            "all" => {
                for (id, ..) in figure_specs() {
                    targets.insert(id.to_string());
                }
            }
            "ablations" => {
                for id in [
                    "ablation-pfac",
                    "ablation-naive",
                    "ablation-texcache",
                    "ablation-occupancy",
                    "ablation-fermi",
                    "ablation-pcie",
                    "ablation-multicore",
                ] {
                    targets.insert(id.to_string());
                }
            }
            id if id.starts_with("fig") || id.starts_with("ablation-") => {
                targets.insert(id.to_string());
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' (try: all, fig13..fig23, ablations)"
                ))
            }
        }
    }
    if targets.is_empty() {
        for (id, ..) in figure_specs() {
            targets.insert(id.to_string());
        }
    }
    Ok(Args {
        targets,
        grid,
        grid_name,
        out_dir,
        verbose,
        summary_in,
    })
}

/// Write the figures, measurements and perf report into `out_dir`, and
/// return the perf report.
fn write_outputs(
    out_dir: &Path,
    name: &str,
    set: &FigureSet,
    measurements: &Measurements,
) -> bench::BenchReport {
    let mut report = bench::BenchReport::from_measurements(name, measurements);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
        return report;
    }
    for f in &set.figures {
        let p = out_dir.join(format!("{}.csv", f.id));
        if let Err(e) = std::fs::write(&p, f.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", p.display());
        }
    }
    match serde_json::to_string_pretty(set) {
        Ok(json) => {
            let p = out_dir.join("figures.json");
            if let Err(e) = std::fs::write(&p, json) {
                eprintln!("warning: cannot write {}: {e}", p.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize figures: {e}"),
    }
    if let Ok(json) = serde_json::to_string_pretty(measurements) {
        let _ = std::fs::write(out_dir.join("measurements.json"), json);
    }
    // Stamp generation context on the committed artifact (the library
    // builder stays pure so reports remain a deterministic function of
    // the measurements; only this writer knows the git state and grid).
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut kernels: Vec<String> = report.rows.iter().map(|r| r.approach.clone()).collect();
    kernels.dedup();
    report.provenance = Some(bench::Provenance {
        git_rev,
        grid: name.to_string(),
        kernels,
    });
    match report.write_to(out_dir) {
        Ok(p) => eprintln!("perf report: {}", p.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", report.file_name()),
    }
    report
}

fn run_figures(args: &Args) -> Result<(FigureSet, Measurements), String> {
    let fig_ids: BTreeSet<String> = args
        .targets
        .iter()
        .filter(|t| t.starts_with("fig"))
        .cloned()
        .collect();
    let mut set = FigureSet::default();
    let mut all_measurements = Measurements::default();
    if fig_ids.is_empty() {
        return Ok((set, all_measurements));
    }
    let approaches = approaches_for(&fig_ids);
    eprintln!(
        "running {} approaches over {} grid points (sizes {:?}, patterns {:?})",
        approaches.len(),
        args.grid.len(),
        args.grid
            .sizes
            .iter()
            .map(|s| bench::figures::human_bytes(*s))
            .collect::<Vec<_>>(),
        args.grid.pattern_counts,
    );
    let mut cfg = EngineConfig::new(args.grid.clone());
    cfg.verbose = args.verbose;
    let engine = Engine::new(cfg);
    let m = engine.run(&approaches)?;
    for (id, title, paper, spec) in figure_specs() {
        if fig_ids.contains(id) {
            set.figures.push(build_figure(
                &m,
                id,
                title,
                paper,
                &args.grid.sizes,
                &args.grid.pattern_counts,
                &spec,
            ));
        }
    }
    all_measurements.extend(m);
    Ok((set, all_measurements))
}

/// Beyond-paper ablations (DESIGN.md §3).
fn run_ablations(args: &Args) -> Result<(FigureSet, Measurements), String> {
    let mut set = FigureSet::default();
    let mut all = Measurements::default();
    let wanted = |id: &str| args.targets.contains(id);

    // Shared small grid for ablations (they compare mechanisms, not
    // scale).
    let grid = ExperimentGrid {
        sizes: vec![256 * 1024, 1024 * 1024],
        pattern_counts: args.grid.pattern_counts.clone(),
    };

    if wanted("ablation-pfac") || wanted("ablation-naive") {
        let mut cfg = EngineConfig::new(grid.clone());
        cfg.verbose = args.verbose;
        let engine = Engine::new(cfg);
        let mut approaches = vec!["shared-diagonal"];
        if wanted("ablation-pfac") {
            approaches.push("pfac");
        }
        if wanted("ablation-naive") {
            approaches.push("shared-naive");
            approaches.push("shared-coalesced-only");
        }
        let m = engine.run(&approaches)?;
        if wanted("ablation-pfac") {
            set.figures.push(build_figure(
                &m,
                "ablation-pfac",
                "PFAC (failureless, thread-per-byte) throughput",
                "related work; contrast with shared-diagonal",
                &grid.sizes,
                &grid.pattern_counts,
                &CellSpec::Value("pfac".into(), Metric::Gbps),
            ));
            set.figures.push(build_figure(
                &m,
                "ablation-pfac-ratio",
                "Shared-diagonal speedup over PFAC",
                "n/a (beyond paper)",
                &grid.sizes,
                &grid.pattern_counts,
                &CellSpec::Ratio("pfac".into(), "shared-diagonal".into()),
            ));
        }
        if wanted("ablation-naive") {
            set.figures.push(build_figure(
                &m,
                "ablation-naive",
                "Speedup of diagonal scheme over fully naive staging",
                "superset of Fig. 23 (naive staging is also uncoalesced)",
                &grid.sizes,
                &grid.pattern_counts,
                &CellSpec::Ratio("shared-naive".into(), "shared-diagonal".into()),
            ));
        }
        all.extend(m);
    }

    if wanted("ablation-texcache") {
        // Sweep the texture *L2* size: the shared hot set lives there, so
        // this is the isolated mechanism behind the paper's
        // throughput-vs-pattern-count claims (the 8 KB per-SM L1 covers
        // only the very hottest rows regardless).
        let sizes_kb = [32u32, 256, 1024];
        let mut fig = Figure {
            id: "ablation-texcache".into(),
            title: "Shared-diagonal throughput vs texture L2 size (1 MB input)".into(),
            paper_reference: "texture cache misses grow with pattern count (paper §V.B)".into(),
            metric: Metric::Gbps,
            sizes: sizes_kb.iter().map(|kb| *kb as usize * 1024).collect(),
            pattern_counts: grid.pattern_counts.clone(),
            values: Vec::new(),
        };
        for &kb in &sizes_kb {
            let mut cfg = EngineConfig::new(ExperimentGrid {
                sizes: vec![1024 * 1024],
                pattern_counts: grid.pattern_counts.clone(),
            });
            cfg.gpu.tex_l2.size_bytes = kb * 1024;
            cfg.verbose = args.verbose;
            let engine = Engine::new(cfg);
            let m = engine.run(&["shared-diagonal"])?;
            let row: Vec<f64> = grid
                .pattern_counts
                .iter()
                .map(|&p| {
                    m.get("shared-diagonal", 1024 * 1024, p)
                        .map(|r| r.gbps)
                        .unwrap_or(f64::NAN)
                })
                .collect();
            fig.values.push(row);
            all.extend(m);
        }
        set.figures.push(fig);
    }

    if wanted("ablation-occupancy") {
        // Threads-per-block sweep: occupancy vs staging tile size.
        // 256 threads × 64-byte chunks would need >16 KB of staging; 192 is
        // the largest block that fits with the overlap tail.
        let tpbs = [32u32, 64, 128, 192];
        let mut fig = Figure {
            id: "ablation-occupancy".into(),
            title: "Shared-diagonal throughput vs threads per block (1 MB input)".into(),
            paper_reference: "paper fixes 8-12KB tiles; this sweeps the trade-off".into(),
            metric: Metric::Gbps,
            sizes: tpbs.iter().map(|t| *t as usize).collect(), // axis reused for tpb
            pattern_counts: grid.pattern_counts.clone(),
            values: Vec::new(),
        };
        for &tpb in &tpbs {
            let mut cfg = EngineConfig::new(ExperimentGrid {
                sizes: vec![1024 * 1024],
                pattern_counts: grid.pattern_counts.clone(),
            });
            cfg.params.threads_per_block = tpb;
            cfg.verbose = args.verbose;
            let engine = Engine::new(cfg);
            let m = engine.run(&["shared-diagonal"])?;
            let row: Vec<f64> = grid
                .pattern_counts
                .iter()
                .map(|&p| {
                    m.get("shared-diagonal", 1024 * 1024, p)
                        .map(|r| r.gbps)
                        .unwrap_or(f64::NAN)
                })
                .collect();
            fig.values.push(row);
            all.extend(m);
        }
        set.figures.push(fig);
    }

    if wanted("ablation-multicore") {
        // Related-work framing: GPU vs the modelled 4-core CPU running
        // the chunked matcher (Zha & Sahni report 2.4-3.2x over their
        // best multithreaded baseline).
        let mut fig = Figure {
            id: "ablation-multicore".into(),
            title: "Speedup of shared-diagonal GPU kernel over a modelled 4-core CPU (1 MB)".into(),
            paper_reference: "related work (Zha & Sahni): GPU 2.4-3.2x over best multithreaded"
                .into(),
            metric: Metric::Speedup,
            sizes: vec![1024 * 1024],
            pattern_counts: grid.pattern_counts.clone(),
            values: Vec::new(),
        };
        let mut cfg = EngineConfig::new(ExperimentGrid {
            sizes: vec![1024 * 1024],
            pattern_counts: grid.pattern_counts.clone(),
        });
        cfg.verbose = args.verbose;
        let engine = Engine::new(cfg);
        let mut row = Vec::new();
        for &p in &grid.pattern_counts {
            let ac = engine.workload().automaton(p);
            let text = engine.workload().input(1024 * 1024);
            let quad = cpu_sim::simulate_multicore(
                &engine.config().cpu,
                ac.stt(),
                text,
                4,
                ac.required_overlap(),
            );
            let matcher =
                ac_gpu::GpuAcMatcher::new(engine.config().gpu, engine.config().params, ac)?;
            let gpu = matcher.run_counting(text, ac_gpu::Approach::SharedDiagonal)?;
            row.push(quad.seconds(&engine.config().cpu) / gpu.seconds());
        }
        fig.values.push(row);
        set.figures.push(fig);
        all.extend(Measurements::default());
    }

    if wanted("ablation-pcie") {
        // Audit the paper's "we exclude copy time" methodology: stream a
        // 4 MB input in 256 KB segments over a PCIe 2.0 x16 model with
        // double buffering and compare kernel-only vs end-to-end Gbps.
        let pcie = ac_gpu::PcieConfig::gen2_x16();
        let mut kernel_fig = Figure {
            id: "ablation-pcie".into(),
            title: "End-to-end (pipelined PCIe copies) vs kernel-only throughput, 4 MB input"
                .into(),
            paper_reference: "paper excludes copy time (\u{a7}V); row 1 = kernel-only,                               row 2 = end-to-end"
                .into(),
            metric: Metric::Gbps,
            sizes: vec![1, 2], // row tags: 1 = kernel-only, 2 = end-to-end
            pattern_counts: grid.pattern_counts.clone(),
            values: Vec::new(),
        };
        let mut cfg = EngineConfig::new(ExperimentGrid {
            sizes: vec![4 * 1024 * 1024],
            pattern_counts: grid.pattern_counts.clone(),
        });
        cfg.verbose = args.verbose;
        let engine = Engine::new(cfg);
        let mut kernel_row = Vec::new();
        let mut e2e_row = Vec::new();
        for &p in &grid.pattern_counts {
            let matcher = ac_gpu::GpuAcMatcher::new(
                engine.config().gpu,
                engine.config().params,
                engine.workload().automaton(p),
            )?;
            let text = engine.workload().input(4 * 1024 * 1024);
            let r = ac_gpu::run_streamed(
                &matcher,
                text,
                ac_gpu::Approach::SharedDiagonal,
                256 * 1024,
                &pcie,
            )?;
            kernel_row.push(r.gbps_kernel_only());
            e2e_row.push(r.gbps_end_to_end());
        }
        kernel_fig.values.push(kernel_row);
        kernel_fig.values.push(e2e_row);
        set.figures.push(kernel_fig);
    }

    if wanted("ablation-fermi") {
        // The paper's kernels on the next hardware generation (Fermi
        // C2050): bigger shared memory, more cores, a unified L2.
        let mut fig = Figure {
            id: "ablation-fermi".into(),
            title: "Shared-diagonal throughput: GTX 285 vs Fermi C2050 (1 MB input)".into(),
            paper_reference: "paper \u{a7}III describes Fermi; evaluation used GTX 285 only".into(),
            metric: Metric::Gbps,
            sizes: vec![285, 2050], // axis reused as a device tag
            pattern_counts: grid.pattern_counts.clone(),
            values: Vec::new(),
        };
        for device in [
            gpu_sim::GpuConfig::gtx285(),
            gpu_sim::GpuConfig::fermi_c2050(),
        ] {
            let mut cfg = EngineConfig::new(ExperimentGrid {
                sizes: vec![1024 * 1024],
                pattern_counts: grid.pattern_counts.clone(),
            });
            cfg.gpu = device;
            cfg.params = ac_gpu::KernelParams::paper(&device);
            cfg.verbose = args.verbose;
            let engine = Engine::new(cfg);
            let m = engine.run(&["shared-diagonal"])?;
            let row: Vec<f64> = grid
                .pattern_counts
                .iter()
                .map(|&p| {
                    m.get("shared-diagonal", 1024 * 1024, p)
                        .map(|r| r.gbps)
                        .unwrap_or(f64::NAN)
                })
                .collect();
            fig.values.push(row);
            all.extend(m);
        }
        set.figures.push(fig);
    }

    Ok((set, all))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.summary_in {
        let path = dir.join("figures.json");
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let set: FigureSet = match serde_json::from_str(&json) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {} is not a figure set: {e}", path.display());
                std::process::exit(1);
            }
        };
        let verdicts = bench::verdict::evaluate(&set);
        print!("{}", bench::verdict::render(&verdicts));
        let failed = verdicts
            .iter()
            .any(|v| v.outcome == bench::verdict::Outcome::Fail);
        std::process::exit(if failed { 1 } else { 0 });
    }
    let started = std::time::Instant::now();
    let mut set = FigureSet::default();
    let mut measurements = Measurements::default();

    match run_figures(&args) {
        Ok((figs, m)) => {
            set.figures.extend(figs.figures);
            measurements.extend(m);
        }
        Err(e) => {
            eprintln!("error while reproducing figures: {e}");
            std::process::exit(1);
        }
    }
    match run_ablations(&args) {
        Ok((figs, m)) => {
            set.figures.extend(figs.figures);
            measurements.extend(m);
        }
        Err(e) => {
            eprintln!("error while running ablations: {e}");
            std::process::exit(1);
        }
    }
    // The ride-along scenarios run on every invocation, so the perf
    // report always carries the rows the gate table checks.
    for (banner, run) in bench::scenarios() {
        eprintln!("running {banner}");
        match run(args.verbose) {
            Ok(m) => measurements.extend(m),
            Err(e) => {
                eprintln!("error while running {banner}: {e}");
                std::process::exit(1);
            }
        }
    }

    for f in &set.figures {
        println!("{}", f.render());
    }
    let report = write_outputs(&args.out_dir, args.grid_name, &set, &measurements);
    // The same gate table `acsim bench diff` evaluates on a candidate:
    // every output is written first, so a broken gate still leaves the
    // report behind for the diff.
    let gates = bench::evaluate_gates(&report);
    for g in &gates {
        eprintln!("{}", g.line);
    }
    eprintln!(
        "done: {} figure(s) in {:.1}s; CSV/JSON in {}",
        set.figures.len(),
        started.elapsed().as_secs_f64(),
        args.out_dir.display()
    );
    if gates.iter().any(|g| !g.held) {
        std::process::exit(1);
    }
}
