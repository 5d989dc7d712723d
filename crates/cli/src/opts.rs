//! Argument parsing (dependency-free, fully unit-tested).

use std::fmt;
use std::path::PathBuf;

/// Which matching engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Single-threaded DFA walk on the host.
    Serial,
    /// Multithreaded chunked matcher (scoped threads).
    Parallel,
    /// Simulated-GPU kernel: the paper's shared-memory kernel.
    GpuShared,
    /// Simulated-GPU kernel: global-memory-only.
    GpuGlobal,
    /// Simulated-GPU kernel: failure-banded STT (fat-pointer records —
    /// per-state padded band of deviations from the failure state, any
    /// transition attempt one texture fetch).
    GpuBanded,
    /// Simulated GPU with the STT layout auto-picked per workload.
    GpuAuto,
    /// Simulated-GPU kernel: failureless PFAC.
    GpuPfac,
}

impl Engine {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "serial" => Ok(Engine::Serial),
            "parallel" => Ok(Engine::Parallel),
            "gpu:shared" => Ok(Engine::GpuShared),
            "gpu:global" => Ok(Engine::GpuGlobal),
            "gpu:banded" => Ok(Engine::GpuBanded),
            "gpu:auto" => Ok(Engine::GpuAuto),
            "gpu:pfac" => Ok(Engine::GpuPfac),
            other => Err(ParseError(format!(
                "unknown engine '{other}' (serial, parallel, gpu:shared, gpu:global, \
                 gpu:banded, gpu:auto, gpu:pfac)"
            ))),
        }
    }

    /// All engines with their CLI names (for `compare`). `gpu:auto` is
    /// excluded: it resolves to one of the concrete layouts per workload,
    /// so it would only duplicate a row.
    pub fn all() -> [(Engine, &'static str); 6] {
        [
            (Engine::Serial, "serial"),
            (Engine::Parallel, "parallel"),
            (Engine::GpuShared, "gpu:shared"),
            (Engine::GpuGlobal, "gpu:global"),
            (Engine::GpuBanded, "gpu:banded"),
            (Engine::GpuPfac, "gpu:pfac"),
        ]
    }
}

/// Parsed subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Match and print occurrences (or just the count).
    Match,
    /// Print automaton structure statistics.
    Stats,
    /// Emit the machine as Graphviz DOT.
    Dot,
    /// Run every engine and print a comparison table.
    Compare,
    /// Sweep kernel configurations and print per-config stall breakdowns.
    Profile,
    /// Counterfactual sweep: rerun one kernel with single memory-hierarchy
    /// knobs perturbed and rank what would make it faster.
    Explain,
    /// Compare two committed `BENCH_*.json` reports under regression
    /// thresholds (`acsim bench diff OLD NEW`).
    BenchDiff,
    /// Replay a synthetic open-loop serving workload through the batched
    /// multi-stream server and print the ServeReport.
    ServeSim,
    /// Replay the serving workload through a multi-device fleet (sharded
    /// dispatch, calibrated CPU/GPU cost routing, shared-bus contention)
    /// and print the FleetReport.
    FleetSim,
    /// Render an incident narrative from a serve telemetry trace
    /// (`acsim slo-report TRACE.json`).
    SloReport,
    /// Run one kernel with workload attribution armed and print the top-K
    /// hottest DFA states and patterns by charged cycles.
    Hot,
}

/// Full parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// The subcommand.
    pub command: Command,
    /// Dictionary file (one pattern per line; `\xNN` escapes allowed).
    pub patterns: PathBuf,
    /// Input file to scan (required by `match`/`compare`, optional for
    /// `stats`).
    pub input: Option<PathBuf>,
    /// Engine for `match`.
    pub engine: Engine,
    /// Count only (skip printing individual matches).
    pub count_only: bool,
    /// Simulated device: `gtx285` (default) or `fermi`.
    pub fermi: bool,
    /// Limit on printed matches.
    pub limit: usize,
    /// Use the resilient front-end (supervised GPU with CPU degradation)
    /// instead of a single engine (`match` only).
    pub resilient: bool,
    /// Seed for a deterministic fault plan armed on the resilient GPU rung.
    pub fault_seed: Option<u64>,
    /// Write a Chrome trace-event JSON of the run here (`match` only;
    /// needs a device to trace, so requires a GPU engine or --resilient).
    pub trace_out: Option<PathBuf>,
    /// Write a flat metrics snapshot here: Prometheus text when the path
    /// ends in `.prom`/`.txt`, JSON otherwise (`match` only; GPU engine or
    /// --resilient).
    pub metrics_out: Option<PathBuf>,
    /// Emit machine-readable JSON instead of the text table (`profile`).
    pub json: bool,
    /// Baseline report for `bench diff`.
    pub bench_old: Option<PathBuf>,
    /// Candidate report for `bench diff`.
    pub bench_new: Option<PathBuf>,
    /// Write the `bench diff` report JSON here (CI artifact).
    pub report_out: Option<PathBuf>,
    /// Write the `explain` hot-row fetch counts as CSV here.
    pub csv_out: Option<PathBuf>,
    /// `serve-sim` jobs to generate.
    pub serve_jobs: u64,
    /// `serve-sim` mean arrival rate, jobs per simulated second. Stored as
    /// an integer so `Options` stays `Eq`.
    pub serve_rate: u64,
    /// `serve-sim` stream count.
    pub serve_streams: u32,
    /// `serve-sim` workload seed.
    pub serve_seed: u64,
    /// `serve-sim` nominal job payload bytes.
    pub serve_job_bytes: usize,
    /// `serve-sim` bounded-queue capacity.
    pub serve_queue_cap: usize,
    /// `serve-sim`: per-job launches instead of adaptive batching.
    pub serve_no_batch: bool,
    /// `serve-sim`: run the seeded chaos soak (fault storm + invariants)
    /// instead of a single clean run. Seeded by `--fault-seed`.
    pub serve_chaos: bool,
    /// `serve-sim`: per-job deadline, microseconds after arrival
    /// (overdue queued jobs expire as typed outcomes).
    pub serve_deadline_us: Option<u64>,
    /// `serve-sim`: SLO p99 target in microseconds; arms the admission
    /// controller (low-priority shedding + adaptive batch window).
    pub serve_p99_target_us: Option<u64>,
    /// `serve-sim`/`fleet-sim`: lease per-batch device buffers from a
    /// size-classed pool with pinned host staging (the steady-state
    /// configuration).
    pub serve_pool: bool,
    /// `serve-sim`/`fleet-sim`: arm the pool in churn mode — alloc/free
    /// per batch through pageable host memory (the baseline the pool is
    /// measured against).
    pub serve_pool_churn: bool,
    /// Write the run's device-pool statistics as JSON here (requires
    /// --pool or --pool-churn).
    pub pool_stats_out: Option<PathBuf>,
    /// `fleet-sim` device count.
    pub fleet_devices: u32,
    /// `fleet-sim`: parity dispatch (argmin stream) instead of the
    /// calibrated cost router.
    pub fleet_no_routing: bool,
    /// `fleet-sim`: scatter jobs at least this large across all devices
    /// as overlap-padded shards.
    pub fleet_shard_bytes: Option<usize>,
    /// Telemetry trace to summarise (`slo-report`).
    pub slo_trace: Option<PathBuf>,
    /// `hot`: number of states/patterns to print.
    pub top: usize,
    /// `hot`: write the per-state cycle profile as folded stacks here
    /// (trie root path as the stack; feed to flamegraph tooling).
    pub folded_out: Option<PathBuf>,
}

/// A human-readable argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "usage:
  acsim match   --patterns FILE --input FILE [--engine E] [--count] [--fermi] [--limit N]
                [--resilient [--fault-seed N]] [--trace-out FILE] [--metrics-out FILE]
  acsim compare --patterns FILE --input FILE [--fermi]
  acsim stats   --patterns FILE [--input FILE] [--fermi]
  acsim profile --patterns FILE --input FILE [--fermi] [--json]
  acsim explain --patterns FILE --input FILE [--engine gpu:*] [--fermi] [--csv-out FILE]
  acsim bench diff OLD.json NEW.json [--report FILE]
  acsim serve-sim [--jobs N] [--arrival-rate R] [--streams S] [--seed N]
                [--job-bytes N] [--queue-cap N] [--no-batch] [--deadline-us N]
                [--p99-target-us N] [--pool | --pool-churn] [--pool-stats FILE]
                [--chaos [--fault-seed N]] [--fermi] [--report FILE]
                [--trace-out FILE] [--metrics-out FILE]
  acsim fleet-sim [--devices D] [--no-routing] [--shard-bytes N] [--jobs N]
                [--arrival-rate R] [--streams S] [--seed N] [--job-bytes N]
                [--queue-cap N] [--no-batch] [--deadline-us N] [--p99-target-us N]
                [--pool | --pool-churn] [--pool-stats FILE]
                [--fermi] [--report FILE] [--trace-out FILE] [--metrics-out FILE]
  acsim slo-report TRACE.json
  acsim hot     --patterns FILE --input FILE [--engine gpu:*] [--fermi] [--top N]
                [--json] [--folded-out FILE]
  acsim dot     --patterns FILE
engines: serial | parallel | gpu:shared | gpu:global | gpu:banded | gpu:auto
       | gpu:pfac
gpu:auto probes the dense and banded STT layouts on a sample of the input and
keeps the fastest (texture-residency introspection reported as the evidence);
a dictionary too large for the banded layout runs on the dense one.
--resilient runs supervised GPU matching that degrades to the CPU engines on
failure; --fault-seed arms a deterministic fault-injection plan (testing aid).
--trace-out writes a Chrome trace-event JSON (load in Perfetto); --metrics-out
writes a metrics snapshot (Prometheus text for .prom/.txt paths, else JSON).
On `match` both need a simulated device (a gpu:* engine or --resilient); on
`serve-sim` they arm end-to-end telemetry — per-job lifecycle spans stitched
above the stream ops plus the sampled metrics registry (with --chaos, the
faulted soak run is the one exported).
`profile` sweeps every GPU kernel and prints per-config stall breakdowns
(--json emits the table as machine-readable JSON).
`explain` reruns one kernel with single memory-hierarchy knobs perturbed and
ranks what would make it faster; --csv-out dumps per-state fetch counts.
`bench diff` compares two BENCH_*.json perf reports and exits non-zero when
the candidate regresses past the thresholds (defaults: 5% / 5% / 10 pts).
`serve-sim` replays a deterministic open-loop workload of small scan jobs
through the batched multi-stream server (--no-batch launches per job;
--arrival-rate is jobs per simulated second) and prints the ServeReport;
--report also writes it as JSON. --deadline-us expires overdue queued jobs
as typed outcomes; --p99-target-us arms SLO admission control (sheds the
lowest priorities, widens the batch window under pressure); --chaos runs
the seeded fault-storm soak on the pinned smoke scenario (load-shaping
flags do not apply; --fault-seed places the storm, --seed reshuffles
payloads) and exits non-zero if any resilience invariant is violated.
--pool leases per-batch device buffers from a size-classed pool with pinned
host staging (steady state); --pool-churn arms the alloc/free-per-batch
baseline through pageable host memory; --pool-stats writes the pool's
hit/miss/high-water statistics as JSON (both also apply to fleet-sim,
one pool per device).
`fleet-sim` replays the same workload through N simulated devices behind one
dispatcher: jobs route to the cheapest tier (each GPU or the host CPU ladder)
via a warmup-calibrated cost model refined online, every h2d/d2h crosses a
shared PCIe-bus arbiter, and --shard-bytes scatters oversized jobs across all
devices as overlap-padded shards merged exactly-once. --devices sets the
fleet size (--streams is per device); --no-routing uses parity dispatch
(least-loaded stream), which at --devices 1 is bit-identical to serve-sim;
--shard-bytes needs routing and at least two devices (an error otherwise);
--report writes the FleetReport (per-device, per-tier and bus statistics) as
JSON; --trace-out/--metrics-out export fleet telemetry (per-device track
groups, device-tagged breaker transitions).
`slo-report` reads a `serve-sim --trace-out` telemetry trace and renders an
incident narrative: breaker timeline, pressure-counter arcs, admission
decisions, the dominant pattern-cost classes from the attribution replay,
and the worst-latency exemplars per flight-recorder window.
`hot` runs one kernel with per-state workload attribution armed and prints
the top-K hottest DFA states (cycles, texture-miss share, failure share,
trie prefix) and patterns; --folded-out writes the full per-state profile
as folded stacks for flamegraph tooling; --json emits machine-readable
output.";

/// Parse an argument vector (without the program name).
pub fn parse<I, S>(args: I) -> Result<Options, ParseError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut it = args.into_iter();
    let command = match it.next().as_ref().map(|s| s.as_ref()) {
        Some("match") => Command::Match,
        Some("stats") => Command::Stats,
        Some("dot") => Command::Dot,
        Some("compare") => Command::Compare,
        Some("profile") => Command::Profile,
        Some("explain") => Command::Explain,
        Some("bench") => match it.next().as_ref().map(|s| s.as_ref()) {
            Some("diff") => Command::BenchDiff,
            Some(other) => {
                return Err(ParseError(format!(
                    "unknown bench subcommand '{other}' (expected 'diff')\n{USAGE}"
                )))
            }
            None => return Err(ParseError(format!("bench needs a subcommand\n{USAGE}"))),
        },
        Some("serve-sim") => Command::ServeSim,
        Some("fleet-sim") => Command::FleetSim,
        Some("slo-report") => Command::SloReport,
        Some("hot") => Command::Hot,
        Some(other) => return Err(ParseError(format!("unknown command '{other}'\n{USAGE}"))),
        None => return Err(ParseError(USAGE.into())),
    };
    let mut patterns: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut engine = Engine::GpuShared;
    let mut count_only = false;
    let mut fermi = false;
    let mut limit = 20usize;
    let mut resilient = false;
    let mut fault_seed: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut json = false;
    let mut positionals: Vec<PathBuf> = Vec::new();
    let mut report_out: Option<PathBuf> = None;
    let mut csv_out: Option<PathBuf> = None;
    let mut serve_jobs = 512u64;
    let mut serve_rate = 1_600_000u64;
    let mut serve_streams = 4u32;
    let mut serve_seed = 42u64;
    let mut serve_job_bytes = 2048usize;
    let mut serve_queue_cap = 256usize;
    let mut serve_no_batch = false;
    let mut serve_chaos = false;
    let mut serve_deadline_us: Option<u64> = None;
    let mut serve_p99_target_us: Option<u64> = None;
    let mut serve_pool = false;
    let mut serve_pool_churn = false;
    let mut pool_stats_out: Option<PathBuf> = None;
    let mut serve_flag_seen = false;
    let mut fleet_devices = 2u32;
    let mut fleet_no_routing = false;
    let mut fleet_shard_bytes: Option<usize> = None;
    let mut fleet_flag_seen = false;
    let mut top = 10usize;
    let mut top_seen = false;
    let mut folded_out: Option<PathBuf> = None;
    fn number<T: std::str::FromStr>(
        flag: &str,
        raw: Option<impl AsRef<str>>,
    ) -> Result<T, ParseError>
    where
        T::Err: fmt::Display,
    {
        raw.ok_or_else(|| ParseError(format!("{flag} needs a number")))?
            .as_ref()
            .parse()
            .map_err(|e| ParseError(format!("bad {flag}: {e}")))
    }
    while let Some(a) = it.next() {
        match a.as_ref() {
            "--patterns" => {
                patterns = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--patterns needs a file".into()))?
                        .as_ref(),
                ))
            }
            "--input" => {
                input = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--input needs a file".into()))?
                        .as_ref(),
                ))
            }
            "--engine" => {
                engine = Engine::parse(
                    it.next()
                        .ok_or_else(|| ParseError("--engine needs a value".into()))?
                        .as_ref(),
                )?
            }
            "--count" => count_only = true,
            "--fermi" => fermi = true,
            "--resilient" => resilient = true,
            "--fault-seed" => {
                fault_seed = Some(
                    it.next()
                        .ok_or_else(|| ParseError("--fault-seed needs a number".into()))?
                        .as_ref()
                        .parse()
                        .map_err(|e| ParseError(format!("bad --fault-seed: {e}")))?,
                )
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--trace-out needs a file".into()))?
                        .as_ref(),
                ))
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--metrics-out needs a file".into()))?
                        .as_ref(),
                ))
            }
            "--limit" => {
                limit = it
                    .next()
                    .ok_or_else(|| ParseError("--limit needs a number".into()))?
                    .as_ref()
                    .parse()
                    .map_err(|e| ParseError(format!("bad --limit: {e}")))?
            }
            "--json" => json = true,
            "--report" => {
                report_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--report needs a file".into()))?
                        .as_ref(),
                ))
            }
            "--csv-out" => {
                csv_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--csv-out needs a file".into()))?
                        .as_ref(),
                ))
            }
            "--jobs" => {
                serve_jobs = number("--jobs", it.next())?;
                serve_flag_seen = true;
            }
            "--arrival-rate" => {
                serve_rate = number("--arrival-rate", it.next())?;
                serve_flag_seen = true;
            }
            "--streams" => {
                serve_streams = number("--streams", it.next())?;
                serve_flag_seen = true;
            }
            "--seed" => {
                serve_seed = number("--seed", it.next())?;
                serve_flag_seen = true;
            }
            "--job-bytes" => {
                serve_job_bytes = number("--job-bytes", it.next())?;
                serve_flag_seen = true;
            }
            "--queue-cap" => {
                serve_queue_cap = number("--queue-cap", it.next())?;
                serve_flag_seen = true;
            }
            "--no-batch" => {
                serve_no_batch = true;
                serve_flag_seen = true;
            }
            "--chaos" => {
                serve_chaos = true;
                serve_flag_seen = true;
            }
            "--deadline-us" => {
                serve_deadline_us = Some(number("--deadline-us", it.next())?);
                serve_flag_seen = true;
            }
            "--p99-target-us" => {
                serve_p99_target_us = Some(number("--p99-target-us", it.next())?);
                serve_flag_seen = true;
            }
            "--pool" => {
                serve_pool = true;
                serve_flag_seen = true;
            }
            "--pool-churn" => {
                serve_pool_churn = true;
                serve_flag_seen = true;
            }
            "--pool-stats" => {
                pool_stats_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--pool-stats needs a file".into()))?
                        .as_ref(),
                ));
                serve_flag_seen = true;
            }
            "--devices" => {
                fleet_devices = number("--devices", it.next())?;
                fleet_flag_seen = true;
            }
            "--no-routing" => {
                fleet_no_routing = true;
                fleet_flag_seen = true;
            }
            "--shard-bytes" => {
                fleet_shard_bytes = Some(number("--shard-bytes", it.next())?);
                fleet_flag_seen = true;
            }
            "--top" => {
                top = number("--top", it.next())?;
                top_seen = true;
            }
            "--folded-out" => {
                folded_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("--folded-out needs a file".into()))?
                        .as_ref(),
                ))
            }
            other
                if !other.starts_with("--")
                    && matches!(command, Command::BenchDiff | Command::SloReport) =>
            {
                positionals.push(PathBuf::from(other))
            }
            other => return Err(ParseError(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    let slo_trace = if command == Command::SloReport {
        if positionals.len() != 1 {
            return Err(ParseError(format!(
                "slo-report needs exactly one trace path, got {}",
                positionals.len()
            )));
        }
        positionals.pop()
    } else {
        None
    };
    let (bench_old, bench_new) = if command == Command::BenchDiff {
        if positionals.len() != 2 {
            return Err(ParseError(format!(
                "bench diff needs exactly two report paths, got {}",
                positionals.len()
            )));
        }
        let mut p = positionals.into_iter();
        (p.next(), p.next())
    } else {
        (None, None)
    };
    if report_out.is_some()
        && !matches!(
            command,
            Command::BenchDiff | Command::ServeSim | Command::FleetSim
        )
    {
        return Err(ParseError(
            "--report only applies to `bench diff`, `serve-sim` and `fleet-sim`".into(),
        ));
    }
    if serve_flag_seen && !matches!(command, Command::ServeSim | Command::FleetSim) {
        return Err(ParseError(
            "--jobs/--arrival-rate/--streams/--seed/--job-bytes/--queue-cap/--no-batch/\
             --chaos/--deadline-us/--p99-target-us/--pool/--pool-churn/--pool-stats only \
             apply to `serve-sim` and `fleet-sim`"
                .into(),
        ));
    }
    if fleet_flag_seen && command != Command::FleetSim {
        return Err(ParseError(
            "--devices/--no-routing/--shard-bytes only apply to `fleet-sim`".into(),
        ));
    }
    if command == Command::FleetSim {
        if fleet_devices == 0 {
            return Err(ParseError("--devices must be positive".into()));
        }
        if fleet_shard_bytes == Some(0) {
            return Err(ParseError("--shard-bytes must be positive".into()));
        }
        if fleet_shard_bytes.is_some() && (fleet_no_routing || fleet_devices < 2) {
            return Err(ParseError(
                "--shard-bytes needs cost routing and at least two devices \
                 (drop --no-routing and use --devices 2 or more)"
                    .into(),
            ));
        }
        if serve_chaos {
            return Err(ParseError(
                "--chaos only applies to `serve-sim` (the soak is single-device)".into(),
            ));
        }
    }
    if matches!(command, Command::ServeSim | Command::FleetSim) {
        if serve_jobs == 0 {
            return Err(ParseError("--jobs must be positive".into()));
        }
        if serve_rate == 0 {
            return Err(ParseError("--arrival-rate must be positive".into()));
        }
        if serve_streams == 0 {
            return Err(ParseError("--streams must be positive".into()));
        }
        if serve_job_bytes == 0 {
            return Err(ParseError("--job-bytes must be positive".into()));
        }
        if serve_deadline_us == Some(0) {
            return Err(ParseError("--deadline-us must be positive".into()));
        }
        if serve_p99_target_us == Some(0) {
            return Err(ParseError("--p99-target-us must be positive".into()));
        }
        if fault_seed.is_some() && !serve_chaos {
            return Err(ParseError(
                "--fault-seed on serve-sim requires --chaos".into(),
            ));
        }
        if serve_pool && serve_pool_churn {
            return Err(ParseError(
                "--pool and --pool-churn are mutually exclusive".into(),
            ));
        }
        if pool_stats_out.is_some() && !serve_pool && !serve_pool_churn {
            return Err(ParseError(
                "--pool-stats requires --pool or --pool-churn".into(),
            ));
        }
        if serve_chaos && (serve_pool || serve_pool_churn) {
            return Err(ParseError(
                "--pool/--pool-churn do not apply to --chaos (the soak pins its own config)".into(),
            ));
        }
    }
    if json && !matches!(command, Command::Profile | Command::Hot) {
        return Err(ParseError(
            "--json only applies to `profile` and `hot`".into(),
        ));
    }
    if (top_seen || folded_out.is_some()) && command != Command::Hot {
        return Err(ParseError("--top/--folded-out only apply to `hot`".into()));
    }
    if command == Command::Hot {
        if top == 0 {
            return Err(ParseError("--top must be positive".into()));
        }
        if matches!(engine, Engine::Serial | Engine::Parallel) {
            return Err(ParseError(
                "hot profiles a simulated-GPU run: use a gpu:* engine".into(),
            ));
        }
    }
    if csv_out.is_some() && command != Command::Explain {
        return Err(ParseError("--csv-out only applies to `explain`".into()));
    }
    if command == Command::Explain && matches!(engine, Engine::Serial | Engine::Parallel) {
        return Err(ParseError(
            "explain perturbs GPU memory-hierarchy knobs: use a gpu:* engine".into(),
        ));
    }
    let patterns = if matches!(
        command,
        Command::BenchDiff | Command::ServeSim | Command::FleetSim | Command::SloReport
    ) {
        // `bench diff` works on committed reports, `serve-sim` and
        // `fleet-sim` extract their dictionary from the synthetic corpus,
        // and `slo-report` reads a recorded trace.
        patterns.unwrap_or_default()
    } else {
        patterns.ok_or_else(|| ParseError("--patterns is required".into()))?
    };
    if matches!(
        command,
        Command::Match | Command::Compare | Command::Profile | Command::Explain | Command::Hot
    ) && input.is_none()
    {
        return Err(ParseError(format!("{command:?} requires --input")));
    }
    if resilient && command != Command::Match {
        return Err(ParseError("--resilient only applies to `match`".into()));
    }
    if fault_seed.is_some() && !resilient && command != Command::ServeSim {
        return Err(ParseError(
            "--fault-seed requires --resilient (or serve-sim --chaos)".into(),
        ));
    }
    if trace_out.is_some() || metrics_out.is_some() {
        if !matches!(
            command,
            Command::Match | Command::ServeSim | Command::FleetSim
        ) {
            return Err(ParseError(
                "--trace-out/--metrics-out only apply to `match`, `serve-sim` and `fleet-sim`"
                    .into(),
            ));
        }
        // `serve-sim`/`fleet-sim` always drive the simulated devices;
        // `match` only does under a gpu:* engine or the resilient ladder.
        let gpu_engine = !matches!(engine, Engine::Serial | Engine::Parallel);
        if command == Command::Match && !gpu_engine && !resilient {
            return Err(ParseError(
                "--trace-out/--metrics-out need a simulated device: use a gpu:* engine or \
                 --resilient"
                    .into(),
            ));
        }
    }
    Ok(Options {
        command,
        patterns,
        input,
        engine,
        count_only,
        fermi,
        limit,
        resilient,
        fault_seed,
        trace_out,
        metrics_out,
        json,
        bench_old,
        bench_new,
        report_out,
        csv_out,
        serve_jobs,
        serve_rate,
        serve_streams,
        serve_seed,
        serve_job_bytes,
        serve_queue_cap,
        serve_no_batch,
        serve_chaos,
        serve_deadline_us,
        serve_p99_target_us,
        serve_pool,
        serve_pool_churn,
        pool_stats_out,
        fleet_devices,
        fleet_no_routing,
        fleet_shard_bytes,
        slo_trace,
        top,
        folded_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Options, ParseError> {
        parse(args.iter().copied())
    }

    #[test]
    fn parses_hot_invocation() {
        let o = p(&[
            "hot",
            "--patterns",
            "d.txt",
            "--input",
            "c.bin",
            "--engine",
            "gpu:banded",
            "--top",
            "3",
            "--json",
            "--folded-out",
            "prof.folded",
        ])
        .unwrap();
        assert_eq!(o.command, Command::Hot);
        assert_eq!(o.engine, Engine::GpuBanded);
        assert_eq!(o.top, 3);
        assert!(o.json);
        assert_eq!(o.folded_out, Some(PathBuf::from("prof.folded")));
    }

    #[test]
    fn hot_flag_scoping() {
        // --top/--folded-out are hot-only.
        assert!(p(&["match", "--patterns", "d", "--input", "c", "--top", "3"]).is_err());
        assert!(p(&["stats", "--patterns", "d", "--folded-out", "f"]).is_err());
        // hot needs an input and a GPU engine, and a positive top.
        assert!(p(&["hot", "--patterns", "d"]).is_err());
        assert!(p(&[
            "hot",
            "--patterns",
            "d",
            "--input",
            "c",
            "--engine",
            "serial"
        ])
        .is_err());
        assert!(p(&["hot", "--patterns", "d", "--input", "c", "--top", "0"]).is_err());
        // --json now also applies to hot.
        assert!(p(&["hot", "--patterns", "d", "--input", "c", "--json"]).is_ok());
    }

    #[test]
    fn parses_full_match_invocation() {
        let o = p(&[
            "match",
            "--patterns",
            "d.txt",
            "--input",
            "c.bin",
            "--engine",
            "gpu:global",
            "--count",
            "--fermi",
            "--limit",
            "5",
        ])
        .unwrap();
        assert_eq!(o.command, Command::Match);
        assert_eq!(o.engine, Engine::GpuGlobal);
        assert!(o.count_only);
        assert!(o.fermi);
        assert_eq!(o.limit, 5);
    }

    #[test]
    fn defaults() {
        let o = p(&["match", "--patterns", "d", "--input", "i"]).unwrap();
        assert_eq!(o.engine, Engine::GpuShared);
        assert!(!o.count_only);
        assert_eq!(o.limit, 20);
    }

    #[test]
    fn stats_without_input_is_fine() {
        let o = p(&["stats", "--patterns", "d"]).unwrap();
        assert_eq!(o.command, Command::Stats);
        assert!(o.input.is_none());
    }

    #[test]
    fn match_requires_input() {
        assert!(p(&["match", "--patterns", "d"]).is_err());
        assert!(p(&["compare", "--patterns", "d"]).is_err());
    }

    #[test]
    fn rejects_unknowns() {
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--engine",
            "tpu"
        ])
        .is_err());
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--wat"]).is_err());
        assert!(p(&[]).is_err());
    }

    #[test]
    fn resilient_flags_parse_and_are_validated() {
        let o = p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--resilient",
            "--fault-seed",
            "42",
        ])
        .unwrap();
        assert!(o.resilient);
        assert_eq!(o.fault_seed, Some(42));

        let o = p(&["match", "--patterns", "d", "--input", "i", "--resilient"]).unwrap();
        assert!(o.resilient);
        assert_eq!(o.fault_seed, None);

        let o = p(&["match", "--patterns", "d", "--input", "i"]).unwrap();
        assert!(!o.resilient);

        // --fault-seed without --resilient is meaningless.
        assert!(p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--fault-seed",
            "1"
        ])
        .is_err());
        // --resilient outside `match` is rejected.
        assert!(p(&["compare", "--patterns", "d", "--input", "i", "--resilient"]).is_err());
        // Bad seed values are rejected.
        assert!(p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--resilient",
            "--fault-seed"
        ])
        .is_err());
        assert!(p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--resilient",
            "--fault-seed",
            "soon",
        ])
        .is_err());
    }

    #[test]
    fn profile_parses_and_requires_input() {
        let o = p(&["profile", "--patterns", "d", "--input", "i", "--fermi"]).unwrap();
        assert_eq!(o.command, Command::Profile);
        assert!(o.fermi);
        assert!(p(&["profile", "--patterns", "d"]).is_err());
    }

    #[test]
    fn trace_and_metrics_flags_parse_and_are_validated() {
        let o = p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.prom",
        ])
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("m.prom"))
        );

        // A CPU engine has no simulated device to observe…
        assert!(p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--engine",
            "serial",
            "--trace-out",
            "t",
        ])
        .is_err());
        // …unless the resilient ladder (whose first rung is the GPU) runs.
        assert!(p(&[
            "match",
            "--patterns",
            "d",
            "--input",
            "i",
            "--resilient",
            "--metrics-out",
            "m",
        ])
        .is_ok());
        // Only `match` exports.
        assert!(p(&["stats", "--patterns", "d", "--trace-out", "t"]).is_err());
        assert!(p(&[
            "compare",
            "--patterns",
            "d",
            "--input",
            "i",
            "--metrics-out",
            "m"
        ])
        .is_err());
        // Missing operands are rejected.
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--trace-out"]).is_err());
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--metrics-out"]).is_err());
    }

    #[test]
    fn explain_parses_and_is_validated() {
        let o = p(&["explain", "--patterns", "d", "--input", "i"]).unwrap();
        assert_eq!(o.command, Command::Explain);
        assert_eq!(o.engine, Engine::GpuShared);
        let o = p(&[
            "explain",
            "--patterns",
            "d",
            "--input",
            "i",
            "--engine",
            "gpu:pfac",
            "--csv-out",
            "rows.csv",
        ])
        .unwrap();
        assert_eq!(o.engine, Engine::GpuPfac);
        assert_eq!(o.csv_out.as_deref(), Some(std::path::Path::new("rows.csv")));
        // Needs an input and a GPU engine.
        assert!(p(&["explain", "--patterns", "d"]).is_err());
        assert!(p(&[
            "explain",
            "--patterns",
            "d",
            "--input",
            "i",
            "--engine",
            "serial"
        ])
        .is_err());
        // --csv-out belongs to explain only.
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--csv-out", "x"]).is_err());
    }

    #[test]
    fn bench_diff_parses_paths_and_thresholds() {
        let o = p(&["bench", "diff", "old.json", "new.json"]).unwrap();
        assert_eq!(o.command, Command::BenchDiff);
        assert_eq!(
            o.bench_old.as_deref(),
            Some(std::path::Path::new("old.json"))
        );
        assert_eq!(
            o.bench_new.as_deref(),
            Some(std::path::Path::new("new.json"))
        );

        let o = p(&["bench", "diff", "a.json", "b.json", "--report", "diff.json"]).unwrap();
        assert_eq!(
            o.report_out.as_deref(),
            Some(std::path::Path::new("diff.json"))
        );

        // The thresholds are fixed: there is no flag to loosen them.
        for flag in ["--max-gbps-drop", "--max-cycles-rise", "--max-stall-shift"] {
            assert!(
                p(&["bench", "diff", "a", "b", flag, "25"]).is_err(),
                "{flag}"
            );
        }

        // Exactly two paths; a sane subcommand; flags stay scoped.
        assert!(p(&["bench", "diff", "only-one.json"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "c"]).is_err());
        assert!(p(&["bench"]).is_err());
        assert!(p(&["bench", "run"]).is_err());
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--report", "r"]).is_err());
    }

    #[test]
    fn profile_json_flag_is_scoped() {
        let o = p(&["profile", "--patterns", "d", "--input", "i", "--json"]).unwrap();
        assert!(o.json);
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--json"]).is_err());
    }

    #[test]
    fn serve_sim_parses_with_defaults_and_overrides() {
        let o = p(&["serve-sim"]).unwrap();
        assert_eq!(o.command, Command::ServeSim);
        assert_eq!(o.serve_jobs, 512);
        assert_eq!(o.serve_rate, 1_600_000);
        assert_eq!(o.serve_streams, 4);
        assert_eq!(o.serve_seed, 42);
        assert_eq!(o.serve_job_bytes, 2048);
        assert_eq!(o.serve_queue_cap, 256);
        assert!(!o.serve_no_batch);

        let o = p(&[
            "serve-sim",
            "--jobs",
            "100",
            "--arrival-rate",
            "9000",
            "--streams",
            "2",
            "--seed",
            "7",
            "--job-bytes",
            "8192",
            "--queue-cap",
            "16",
            "--no-batch",
            "--fermi",
            "--report",
            "serve.json",
        ])
        .unwrap();
        assert_eq!(o.serve_jobs, 100);
        assert_eq!(o.serve_rate, 9000);
        assert_eq!(o.serve_streams, 2);
        assert_eq!(o.serve_seed, 7);
        assert_eq!(o.serve_job_bytes, 8192);
        assert_eq!(o.serve_queue_cap, 16);
        assert!(o.serve_no_batch);
        assert!(o.fermi);
        assert_eq!(
            o.report_out.as_deref(),
            Some(std::path::Path::new("serve.json"))
        );
    }

    #[test]
    fn serve_sim_flags_are_scoped_and_validated() {
        // Serve flags leak nowhere else.
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--jobs", "3"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "--streams", "2"]).is_err());
        assert!(p(&["stats", "--patterns", "d", "--no-batch"]).is_err());
        // Zeroes are rejected.
        assert!(p(&["serve-sim", "--jobs", "0"]).is_err());
        assert!(p(&["serve-sim", "--arrival-rate", "0"]).is_err());
        assert!(p(&["serve-sim", "--streams", "0"]).is_err());
        assert!(p(&["serve-sim", "--job-bytes", "0"]).is_err());
        // Missing operands are rejected.
        assert!(p(&["serve-sim", "--jobs"]).is_err());
        assert!(p(&["serve-sim", "--streams", "many"]).is_err());
    }

    #[test]
    fn serve_sim_resilience_flags_parse_and_are_validated() {
        let o = p(&[
            "serve-sim",
            "--deadline-us",
            "2000",
            "--p99-target-us",
            "800",
        ])
        .unwrap();
        assert_eq!(o.serve_deadline_us, Some(2000));
        assert_eq!(o.serve_p99_target_us, Some(800));
        assert!(!o.serve_chaos);

        let o = p(&["serve-sim", "--chaos", "--fault-seed", "7"]).unwrap();
        assert!(o.serve_chaos);
        assert_eq!(o.fault_seed, Some(7));
        // --chaos without an explicit seed uses the committed default.
        let o = p(&["serve-sim", "--chaos"]).unwrap();
        assert!(o.serve_chaos);
        assert_eq!(o.fault_seed, None);

        // --fault-seed on serve-sim is only meaningful with --chaos.
        assert!(p(&["serve-sim", "--fault-seed", "7"]).is_err());
        // The new flags stay scoped to serve-sim.
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--chaos"]).is_err());
        assert!(p(&["stats", "--patterns", "d", "--deadline-us", "5"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "--p99-target-us", "5"]).is_err());
        // Zeroes are rejected.
        assert!(p(&["serve-sim", "--deadline-us", "0"]).is_err());
        assert!(p(&["serve-sim", "--p99-target-us", "0"]).is_err());
    }

    #[test]
    fn pool_flags_parse_and_are_validated() {
        let o = p(&["serve-sim", "--pool", "--pool-stats", "pool.json"]).unwrap();
        assert!(o.serve_pool);
        assert!(!o.serve_pool_churn);
        assert_eq!(
            o.pool_stats_out.as_deref(),
            Some(std::path::Path::new("pool.json"))
        );
        let o = p(&["serve-sim", "--pool-churn"]).unwrap();
        assert!(o.serve_pool_churn && !o.serve_pool);
        // Both apply to fleet-sim too (one pool per device).
        let o = p(&["fleet-sim", "--devices", "2", "--pool"]).unwrap();
        assert!(o.serve_pool);
        assert!(p(&["fleet-sim", "--pool-churn", "--pool-stats", "p.json"]).is_ok());
        // Mutually exclusive modes; stats need an armed pool.
        assert!(p(&["serve-sim", "--pool", "--pool-churn"]).is_err());
        assert!(p(&["serve-sim", "--pool-stats", "p.json"]).is_err());
        // The chaos soak pins its own config.
        assert!(p(&["serve-sim", "--chaos", "--pool"]).is_err());
        // Scoped to the serving simulators only.
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--pool"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "--pool-churn"]).is_err());
        assert!(p(&["stats", "--patterns", "d", "--pool-stats", "p"]).is_err());
        // Missing operand is rejected.
        assert!(p(&["serve-sim", "--pool", "--pool-stats"]).is_err());
    }

    #[test]
    fn serve_sim_telemetry_export_flags_parse_and_are_validated() {
        let o = p(&[
            "serve-sim",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.prom",
        ])
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("m.prom"))
        );
        // No device requirement: serve-sim always drives the simulated GPU.
        assert!(p(&["serve-sim", "--chaos", "--trace-out", "t.json"]).is_ok());
        // Still rejected where there is nothing to record.
        assert!(p(&["stats", "--patterns", "d", "--trace-out", "t"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "--metrics-out", "m"]).is_err());
    }

    #[test]
    fn fleet_sim_parses_with_defaults_and_overrides() {
        let o = p(&["fleet-sim"]).unwrap();
        assert_eq!(o.command, Command::FleetSim);
        assert_eq!(o.fleet_devices, 2);
        assert!(!o.fleet_no_routing);
        assert_eq!(o.fleet_shard_bytes, None);
        // Serve load-shaping flags carry over (per-device semantics).
        assert_eq!(o.serve_jobs, 512);
        assert_eq!(o.serve_streams, 4);

        let o = p(&[
            "fleet-sim",
            "--devices",
            "4",
            "--shard-bytes",
            "65536",
            "--jobs",
            "128",
            "--streams",
            "1",
            "--report",
            "fleet.json",
            "--trace-out",
            "t.json",
        ])
        .unwrap();
        assert_eq!(o.fleet_devices, 4);
        assert!(!o.fleet_no_routing);
        assert_eq!(o.fleet_shard_bytes, Some(65536));
        assert_eq!(o.serve_jobs, 128);
        assert_eq!(o.serve_streams, 1);
        assert_eq!(
            o.report_out.as_deref(),
            Some(std::path::Path::new("fleet.json"))
        );
        assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("t.json")));

        let o = p(&["fleet-sim", "--devices", "3", "--no-routing"]).unwrap();
        assert_eq!(o.fleet_devices, 3);
        assert!(o.fleet_no_routing);
    }

    #[test]
    fn shard_bytes_needs_routing_and_two_devices() {
        // Parity dispatch and a lone device never scatter, so the flag
        // would be silently ignored.
        for args in [
            &[
                "fleet-sim",
                "--devices",
                "2",
                "--no-routing",
                "--shard-bytes",
                "1024",
            ][..],
            &["fleet-sim", "--devices", "1", "--shard-bytes", "1024"][..],
        ] {
            let err = p(args).unwrap_err();
            assert!(
                err.0
                    .contains("--shard-bytes needs cost routing and at least two devices"),
                "{args:?}: {err:?}"
            );
        }
        assert!(p(&["fleet-sim", "--devices", "2", "--shard-bytes", "1024"]).is_ok());
    }

    #[test]
    fn fleet_sim_flags_are_scoped_and_validated() {
        // Fleet flags leak nowhere else.
        assert!(p(&["serve-sim", "--devices", "2"]).is_err());
        assert!(p(&["match", "--patterns", "d", "--input", "i", "--no-routing"]).is_err());
        assert!(p(&["bench", "diff", "a", "b", "--shard-bytes", "4096"]).is_err());
        // Zeroes are rejected, as is the single-device chaos soak.
        assert!(p(&["fleet-sim", "--devices", "0"]).is_err());
        assert!(p(&["fleet-sim", "--shard-bytes", "0"]).is_err());
        assert!(p(&["fleet-sim", "--jobs", "0"]).is_err());
        assert!(p(&["fleet-sim", "--chaos"]).is_err());
        assert!(p(&["fleet-sim", "--fault-seed", "3"]).is_err());
        // Missing operands are rejected.
        assert!(p(&["fleet-sim", "--devices"]).is_err());
    }

    #[test]
    fn slo_report_parses_one_trace_path() {
        let o = p(&["slo-report", "trace.json"]).unwrap();
        assert_eq!(o.command, Command::SloReport);
        assert_eq!(
            o.slo_trace.as_deref(),
            Some(std::path::Path::new("trace.json"))
        );
        // Exactly one path; no stray flags.
        assert!(p(&["slo-report"]).is_err());
        assert!(p(&["slo-report", "a.json", "b.json"]).is_err());
        assert!(p(&["slo-report", "t.json", "--jobs", "5"]).is_err());
        assert!(p(&["slo-report", "t.json", "--trace-out", "x"]).is_err());
    }

    #[test]
    fn every_engine_name_parses() {
        for (e, name) in Engine::all() {
            assert_eq!(Engine::parse(name).unwrap(), e);
        }
        // `gpu:auto` deliberately sits outside `all()` (it duplicates a
        // concrete layout's row) but must still parse.
        assert_eq!(Engine::parse("gpu:auto").unwrap(), Engine::GpuAuto);
        assert!(!Engine::all().iter().any(|&(e, _)| e == Engine::GpuAuto));
    }
}
