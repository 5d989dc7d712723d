//! `acbench` command line: `run`, `trace` and `compare`.

use acbench::compare::{compare, parse_bounds, parse_records, record_line, render, Verdict};
use acbench::pipeline::{self, Options};
use acbench::spans::{self_times, to_chrome_json};
use acbench::{result_json, spec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  acbench run --workload NAME --seed N [--seconds S] [--trace 0|1] [--json FILE] [--out DIR]
  acbench trace --workload NAME --seed N [--seconds S] [--json FILE] [--out DIR]
  acbench compare A.jsonl B.jsonl [--bench BENCHMARK.json]

workloads: scan-2k, scan-20k, serve-small, fleet-large
--json FILE appends the result line, tagged with workload and seed, to FILE
--out DIR   where a traced run writes its traces (default .bench_out/WORKLOAD-seedN)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("acbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("acbench: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum Failure {
    Usage(String),
    Run(String),
}

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| Failure::Usage("missing command".into()))?;
    match cmd.as_str() {
        "run" => run(rest, false),
        "trace" => run(rest, true),
        "compare" => compare_cmd(rest),
        other => Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
}

/// `--flag value` pairs, in order.
type Flags = Vec<(String, String)>;

/// Split `args` into flags (each must be in `known`) and positional
/// arguments.
fn parse_flags(args: &[String], known: &[&str]) -> Result<(Flags, Vec<String>), Failure> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(Failure::Usage(format!("unknown flag `{a}`")));
            }
            let v = it
                .next()
                .ok_or_else(|| Failure::Usage(format!("`{a}` needs a value")))?;
            flags.push((name.to_string(), v.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, Failure> {
    flag(flags, name)
        .map(|v| {
            v.parse()
                .map_err(|_| Failure::Usage(format!("--{name}: cannot parse `{v}`")))
        })
        .transpose()
}

fn run(args: &[String], trace_cmd: bool) -> Result<ExitCode, Failure> {
    let known = ["workload", "seed", "seconds", "trace", "json", "out"];
    let (flags, positional) = parse_flags(args, &known)?;
    if let Some(p) = positional.first() {
        return Err(Failure::Usage(format!("unexpected argument `{p}`")));
    }
    let name =
        flag(&flags, "workload").ok_or_else(|| Failure::Usage("--workload is required".into()))?;
    let spec =
        spec::find(name).ok_or_else(|| Failure::Usage(format!("unknown workload `{name}`")))?;
    let seed: u64 =
        parsed(&flags, "seed")?.ok_or_else(|| Failure::Usage("--seed is required".into()))?;
    let seconds: f64 = parsed(&flags, "seconds")?.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(Failure::Usage(
            "--seconds must be a non-negative number".into(),
        ));
    }
    let trace = match parsed::<u8>(&flags, "trace")? {
        None => trace_cmd,
        Some(0) if !trace_cmd => false,
        Some(1) => true,
        Some(v) => return Err(Failure::Usage(format!("--trace {v}: expected 0 or 1"))),
    };

    println!(
        "acbench {}: workload {name}, seed {seed}, {seconds} s",
        if trace { "trace" } else { "run" }
    );
    let out = pipeline::run(&spec, seed, &Options { seconds, trace }).map_err(Failure::Run)?;
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!(
            "  {:<46} {:>22} {:<7} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
    if trace {
        let dir = flag(&flags, "out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(format!(".bench_out/{name}-seed{seed}")));
        write_traces(&dir, &out).map_err(Failure::Run)?;
    }
    for note in &out.gate.notes {
        println!("  MISMATCH {note}");
    }
    println!(
        "  correctness: {} of {} checked results agree with their oracle",
        out.gate.attempted - out.gate.failed,
        out.gate.attempted
    );
    let result = result_json(out.gate.attempted, out.gate.failed, &out.metrics);
    if let Some(path) = flag(&flags, "json") {
        let line = serde_json::to_string(&record_line(name, seed, trace, &result))
            .expect("JSON rendering cannot fail");
        append_line(path, &line).map_err(Failure::Run)?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("JSON rendering cannot fail")
    );
    Ok(if out.gate.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_traces(dir: &PathBuf, out: &pipeline::Outcome) -> Result<(), String> {
    let total: f64 = out
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let selfs = self_times(&out.spans);
    println!("  layer self time (host, s) of {total:.6} s traced:");
    for (layer, secs) in &selfs {
        println!(
            "    {layer:<10} {secs:>12.6} {:>7.2}%",
            100.0 * secs / total
        );
    }
    let unattributed = selfs.get("acbench").copied().unwrap_or(0.0);
    println!(
        "  layers account for {:.2}% of host time (the rest is the benchmark's own checks and glue)",
        100.0 * (1.0 - unattributed / total)
    );
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = vec![("host-spans.json".to_string(), to_chrome_json(&out.spans))];
    files.extend(out.sim_traces.iter().cloned());
    for (name, json) in files {
        let path = dir.join(&name);
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    }
    Ok(())
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, Failure> {
    let (flags, positional) = parse_flags(args, &["bench"])?;
    let [a, b] = positional.as_slice() else {
        return Err(Failure::Usage("compare takes two result files".into()));
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| Failure::Run(format!("{p}: {e}")));
    let bench = flag(&flags, "bench").unwrap_or("BENCHMARK.json");
    let bounds = parse_bounds(&read(bench)?).map_err(|e| Failure::Run(format!("{bench}: {e}")))?;
    let ra = parse_records(&read(a)?).map_err(|e| Failure::Run(format!("{a}: {e}")))?;
    let rb = parse_records(&read(b)?).map_err(|e| Failure::Run(format!("{b}: {e}")))?;
    let rows = compare(&ra, &rb, &bounds);
    print!("{}", render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{worse} worse, {unresolved} unresolved, {} compared",
        rows.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
