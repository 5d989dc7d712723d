//! The measured pipeline: set-up, bulk scans, serving ladder.
//!
//! Host-timed calls are repeated and their medians are reported. A
//! set-up, a serial scan and a parallel scan run untimed first, so lazy
//! set-up is finished before timing starts. Every simulated launch starts
//! with cold simulated caches, as in the paper's method.

use crate::gate::Gate;
use crate::spans::{HostClock, Span};
use crate::spec::{Inputs, Spec};
use crate::stats::{median, slo_rate, tail_percentile, RungSummary};
use crate::Metric;
use ac_core::{AcAutomaton, Match, STT_COLUMNS};
use ac_cpu::ParallelConfig;
use ac_gpu::{Approach, DeviceBandedStt, GpuAcMatcher, KernelParams, RunOptions};
use ac_serve::report::percentile;
use ac_serve::{
    serve_fleet, FleetConfig, FleetReport, ScanJob, ServeConfig, ServePoolConfig, TelemetryConfig,
    DEFAULT_POOL_CAPACITY,
};
use gpu_sim::{GpuConfig, LaunchStats, StreamOpKind};
use std::time::Instant;
use trace::{StallReason, PID_SERVE_JOBS};

/// The kernels every workload runs: the paper's (coalesced shared-memory
/// staging with diagonal stores over the dense STT) and the banded-layout
/// extension.
pub const KERNELS: [(&str, Approach); 2] = [
    ("dense", Approach::SharedDiagonal),
    ("banded", Approach::SharedBanded),
];

/// Worker threads for every parallel CPU path: the load is one process
/// with at most two threads.
pub const THREADS: usize = 2;

/// Bytes each kernel scans during set-up, which builds its lazy tables.
const WARM_BYTES: usize = 1 << 10;

/// The naive oracle costs patterns × bytes; its prefix is cut to keep
/// that product near this many comparisons.
const NAIVE_WORK: usize = 1 << 27;
/// Longest prefix the naive oracle checks.
const NAIVE_MAX_BYTES: usize = 64 << 10;

/// Materializing and counting runs per kernel in a traced run's expand
/// split.
const EXPAND_PAIRS: usize = 3;

/// Host samples per metric: set-ups in a run of one pass, and set-ups and
/// CPU scans in a traced run.
const MIN_SAMPLES: usize = 10;

/// How a run is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Seconds of measurement: rounds go on while another whole pass fits
    /// in them, and at least one pass always runs. A traced run always
    /// runs one pass of each kind.
    pub seconds: f64,
    /// Add a pass with the observation hooks armed, and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Correctness tally.
    pub gate: Gate,
    /// FNV-1a fingerprint of the generated inputs.
    pub fingerprint: u64,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
    /// Host spans (traced runs only).
    pub spans: Vec<Span>,
    /// Simulated-clock serving traces as `(file name, Chrome JSON)`
    /// (traced runs only).
    pub sim_traces: Vec<(String, String)>,
}

/// Run `spec` on the inputs generated from `seed`.
///
/// After an untimed warm-up set-up, an untraced run is a sequence of
/// rounds. Each round times a set-up (twice when a pass has fewer than
/// [`MIN_SAMPLES`] units), then runs one simulated unit: a bulk kernel run
/// or one rung of the serving ladder. A pass is one cycle through the
/// units; later passes must reproduce the first one's simulated results.
/// Interleaving spreads the set-up samples over the whole run, so a burst
/// of load from elsewhere on the machine skews a few of them rather than
/// all. A traced run times [`MIN_SAMPLES`] set-ups and CPU scans, then one
/// traced and one untraced pass, each run back to back so that their host
/// times compare.
pub fn run(spec: &Spec, seed: u64, opts: &Options) -> Result<Outcome, String> {
    let mut clock = HostClock::new(opts.trace);
    let root = clock.enter("acbench.workload");
    let (inputs, generate_s) = clock.time("corpus.generate", || Inputs::generate(spec, seed));
    let mut b = Bench {
        spec,
        inputs: &inputs,
        clock,
        gate: Gate::default(),
        raw: Vec::new(),
        want: Vec::new(),
        job_want: Vec::new(),
    };
    let (mut matcher, _) = b.setup()?;
    b.oracle(&matcher);
    b.par_rep(&matcher)?;

    let mut m = Measured {
        spec,
        bulk_bytes: inputs.bulk.len(),
        matches: b.want.len(),
        generate_s,
        setups: Vec::new(),
        serial_s: Vec::new(),
        par_s: Vec::new(),
        passes: 0,
        pass: None,
        traced: None,
    };
    let units = KERNELS.len() + spec.rates.len();
    let mut notes = Vec::new();
    let metrics = if opts.trace {
        for round in 0..MIN_SAMPLES {
            b.clock.set_group(round as u32);
            drop(matcher);
            let (next, times) = b.setup()?;
            matcher = next;
            m.setups.push(times);
            m.serial_s.push(b.serial_rep(&matcher));
            m.par_s.push(b.par_rep(&matcher)?);
        }
        // Traced first: its first attributed kernel run leaves the heap
        // holding large free blocks, after which every simulated device
        // image (90 MB on scan-20k) is cheaper to map. Both passes then
        // run in that state, so their host times compare.
        b.clock.set_group(MIN_SAMPLES as u32);
        let traced = b.pass(&matcher, true)?;
        b.clock.set_group(MIN_SAMPLES as u32 + 1);
        let base = b.pass(&matcher, false)?;
        let base_sim = sim_end_to_end(spec, &base);
        b.gate.same(
            "simulated end-to-end metrics, traced vs untraced",
            &base_sim,
            &sim_end_to_end(spec, &traced),
        );
        for x in &base_sim {
            notes.push(format!(
                "untraced {} = {} {} (sim)",
                x.name, x.value, x.unit
            ));
        }
        b.clock.set_group(MIN_SAMPLES as u32 + 2);
        let extra = b.layer_extras(&matcher)?;
        m.passes = 1;
        m.pass = Some(base);
        m.traced = Some(traced);
        m.per_layer(matcher.automaton(), &extra)
    } else {
        let mut pass = Pass::default();
        let started = Instant::now();
        let mut pass_started = started;
        for round in 0.. {
            b.clock.set_group(round);
            for _ in 0..MIN_SAMPLES.div_ceil(units) {
                // Free the previous tables first: on scan-20k each set-up
                // holds two copies of a 90 MB table.
                drop(matcher);
                let (next, times) = b.setup()?;
                matcher = next;
                m.setups.push(times);
            }
            b.unit(&matcher, &mut pass, false)?;
            if pass.units() < units {
                continue;
            }
            let done = std::mem::take(&mut pass);
            let pass_s = pass_started.elapsed().as_secs_f64();
            pass_started = Instant::now();
            m.passes += 1;
            match &m.pass {
                Some(first) => b.gate.same(
                    "simulated end-to-end metrics of a repeated pass",
                    &sim_end_to_end(spec, first),
                    &sim_end_to_end(spec, &done),
                ),
                None => m.pass = Some(done),
            }
            if started.elapsed().as_secs_f64() + pass_s > opts.seconds {
                break;
            }
        }
        m.end_to_end()
    };
    let Bench {
        mut clock, gate, ..
    } = b;
    clock.exit(root);

    let fingerprint = inputs.fingerprint();
    let pass = m.pass.as_ref().expect("a pass ran");
    let nominal = &pass.rungs[spec.nominal];
    let ladder: Vec<String> = pass
        .rungs
        .iter()
        .map(|r| {
            let x = r.summary();
            format!("{}: {:.1} us, {} refused", x.rate, x.tail_us, x.refused)
        })
        .collect();
    let context = [
        format!(
            "inputs: fingerprint {fingerprint:016x}; {} patterns ({} states); {} bulk bytes; {} jobs of {} payload bytes per rung",
            inputs.patterns.len(),
            matcher.automaton().state_count(),
            inputs.bulk.len(),
            inputs.jobs.len(),
            inputs.job_bytes()
        ),
        format!(
            "tail_us is p{} of {} jobs at the nominal rung ({} jobs/s); overload rung {} jobs/s; {} set-ups timed, {} simulation pass(es)",
            tail(&nominal.latencies_us).0,
            nominal.latencies_us.len(),
            spec.nominal_rate(),
            spec.overload_rate(),
            m.setups.len(),
            m.passes
        ),
        format!(
            "ladder (offered jobs/s: tail, refused; limit {} us): {}",
            spec.tail_limit_us,
            ladder.join("; ")
        ),
        "generator lateness: 0 (arrivals are scheduled on the simulated clock, which never runs late)"
            .to_string(),
    ];
    notes.splice(0..0, context);
    Ok(Outcome {
        metrics,
        fingerprint,
        gate,
        notes,
        spans: clock.spans().to_vec(),
        sim_traces: m
            .traced
            .as_ref()
            .map(|t| t.sim_traces(spec))
            .unwrap_or_default(),
    })
}

fn check(clock: &mut HostClock, gate: &mut Gate, what: &str, got: &[Match], want: &[Match]) {
    let t = clock.enter("acbench.check");
    gate.check(what, got, want);
    clock.exit(t);
}

/// Host times of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    build_s: f64,
    matcher_new_s: f64,
    layout_tables_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build_s + self.matcher_new_s + self.layout_tables_s
    }
}

/// The state shared by every measured call of a run.
struct Bench<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    clock: HostClock,
    gate: Gate,
    /// The serial matcher's output on the bulk text, in its own order.
    raw: Vec<Match>,
    /// The same, sorted: the oracle for the other matchers.
    want: Vec<Match>,
    /// Sorted oracle matches of each job, indexed by job id.
    job_want: Vec<Vec<Match>>,
}

/// One simulated kernel run over the bulk input.
#[derive(Debug, Clone)]
struct KernelRun {
    stats: LaunchStats,
    gbps: f64,
    host_s: f64,
}

/// One rung of the serving ladder.
#[derive(Debug, Clone)]
struct Rung {
    rate: f64,
    host_s: f64,
    latencies_us: Vec<f64>,
    report: FleetReport,
    /// Engine busy seconds summed over devices: h2d, d2h, kernel.
    busy_s: [f64; 3],
    /// From the telemetry spans (traced passes only).
    queue_wait_us: Vec<f64>,
    service_us: Vec<f64>,
    sim_trace: Option<String>,
}

impl Rung {
    fn refused(&self) -> u64 {
        let s = &self.report.serve;
        s.jobs_rejected + s.jobs_expired + s.jobs_shed
    }

    fn summary(&self) -> RungSummary {
        RungSummary {
            rate: self.rate,
            refused: self.refused(),
            tail_us: tail(&self.latencies_us).1,
        }
    }
}

/// The simulated units of one pass: the bulk kernel runs, then the rungs.
#[derive(Debug, Clone, Default)]
struct Pass {
    kernels: Vec<KernelRun>,
    rungs: Vec<Rung>,
}

impl Pass {
    fn units(&self) -> usize {
        self.kernels.len() + self.rungs.len()
    }

    /// Host seconds of each simulating call, in unit order.
    fn unit_host_s(&self) -> Vec<f64> {
        let kernels = self.kernels.iter().map(|k| k.host_s);
        kernels.chain(self.rungs.iter().map(|r| r.host_s)).collect()
    }

    /// Input and payload bytes the pass simulated.
    fn sim_bytes(&self, bulk_bytes: usize) -> u64 {
        let payload: u64 = self
            .rungs
            .iter()
            .map(|r| r.report.serve.payload_bytes)
            .sum();
        (bulk_bytes * self.kernels.len()) as u64 + payload
    }

    fn sim_traces(&self, spec: &Spec) -> Vec<(String, String)> {
        [
            ("nominal", spec.nominal),
            ("overload", spec.rates.len() - 1),
        ]
        .iter()
        .filter_map(|&(tag, i)| {
            let json = self.rungs[i].sim_trace.clone()?;
            Some((format!("serve-{tag}.sim-trace.json"), json))
        })
        .collect()
    }
}

impl Bench<'_> {
    /// Build the automaton, prepare the matcher, and run each kernel once
    /// on a small input so its lazy tables are built (checked afterwards).
    fn setup(&mut self) -> Result<(GpuAcMatcher, SetupTimes), String> {
        let patterns = &self.inputs.patterns;
        let (ac, build_s) = self
            .clock
            .time("ac-core.build", || AcAutomaton::build(patterns));
        let gpu = GpuConfig::gtx285();
        let (m, matcher_new_s) = self.clock.time("ac-gpu.matcher_new", || {
            GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac)
        });
        let m = m.map_err(|e| format!("GpuAcMatcher::new: {e}"))?;
        let warm = &self.inputs.bulk[..WARM_BYTES.min(self.inputs.bulk.len())];
        let (runs, layout_tables_s) = self.clock.time("ac-gpu.layout_tables", || {
            KERNELS
                .iter()
                .map(|&(_, a)| m.run(warm, a))
                .collect::<Result<Vec<_>, _>>()
        });
        let runs = runs.map_err(|e| format!("warm-up run: {e}"))?;
        let mut want = m.automaton().find_all(warm);
        want.sort();
        for ((label, _), run) in KERNELS.iter().zip(&runs) {
            let what = format!("{label} warm-up");
            check(&mut self.clock, &mut self.gate, &what, &run.matches, &want);
        }
        let times = SetupTimes {
            build_s,
            matcher_new_s,
            layout_tables_s,
        };
        Ok((m, times))
    }

    /// The oracles: the serial matcher on the bulk text (itself checked
    /// against the naive matcher on a prefix) and on every job. The bulk
    /// call is also the serial scan's warm-up.
    fn oracle(&mut self, m: &GpuAcMatcher) {
        let ac = m.automaton();
        let inputs = self.inputs;
        self.raw = self
            .clock
            .time("ac-core.find_all", || ac.find_all(&inputs.bulk))
            .0;
        let t = self.clock.enter("acbench.check");
        self.want = self.raw.clone();
        self.want.sort();
        self.clock.exit(t);
        let prefix = (NAIVE_WORK / inputs.patterns.len().max(1))
            .min(NAIVE_MAX_BYTES)
            .min(inputs.bulk.len());
        let (naive, _) = self.clock.time("ac-core.naive", || {
            ac_core::naive::find_all(&inputs.patterns, &inputs.bulk[..prefix])
        });
        let head: Vec<Match> = self
            .want
            .iter()
            .filter(|x| x.end <= prefix)
            .copied()
            .collect();
        check(
            &mut self.clock,
            &mut self.gate,
            "find_all vs the naive oracle",
            &head,
            &naive,
        );
        let per_job = |j: &ScanJob| {
            let mut v = ac.find_all(&j.payload);
            v.sort();
            v
        };
        self.job_want = self
            .clock
            .time("ac-core.find_all", || {
                inputs.jobs.iter().map(per_job).collect()
            })
            .0;
    }

    fn serial_rep(&mut self, m: &GpuAcMatcher) -> f64 {
        let t = self.clock.enter("ac-core.find_all");
        let r = ac_cpu::find_all_timed(m.automaton(), &self.inputs.bulk);
        self.clock.exit(t);
        check(
            &mut self.clock,
            &mut self.gate,
            "find_all",
            &r.matches,
            &self.raw,
        );
        r.elapsed.as_secs_f64()
    }

    fn par_rep(&mut self, m: &GpuAcMatcher) -> Result<f64, String> {
        let cfg = ParallelConfig {
            threads: THREADS,
            ..ParallelConfig::default_for_host()
        };
        let bulk = &self.inputs.bulk;
        let (r, secs) = self.clock.time("ac-cpu.par_find_all", || {
            ac_cpu::par_find_all(m.automaton(), bulk, &cfg)
        });
        let r = r.map_err(|e| format!("par_find_all: {e}"))?;
        check(
            &mut self.clock,
            &mut self.gate,
            "par_find_all",
            &r,
            &self.want,
        );
        Ok(secs)
    }

    /// Run every unit of a pass back to back.
    fn pass(&mut self, m: &GpuAcMatcher, traced: bool) -> Result<Pass, String> {
        let mut pass = Pass::default();
        while pass.units() < KERNELS.len() + self.spec.rates.len() {
            self.unit(m, &mut pass, traced)?;
        }
        Ok(pass)
    }

    /// Run the pass's next unit and add it to the pass.
    fn unit(&mut self, m: &GpuAcMatcher, pass: &mut Pass, traced: bool) -> Result<(), String> {
        let i = pass.units();
        if let Some(&(label, approach)) = KERNELS.get(i) {
            let k = self.kernel(m, label, approach, traced)?;
            pass.kernels.push(k);
        } else {
            let r = self.rung(m, self.spec.rates[i - KERNELS.len()], traced)?;
            pass.rungs.push(r);
        }
        Ok(())
    }

    fn kernel(
        &mut self,
        m: &GpuAcMatcher,
        label: &str,
        approach: Approach,
        traced: bool,
    ) -> Result<KernelRun, String> {
        let opts = RunOptions {
            record: true,
            introspect: traced.then(Default::default),
            attribution: traced.then(Default::default),
            ..Default::default()
        };
        let bulk = &self.inputs.bulk;
        let (run, host_s) = self.clock.time(&format!("ac-gpu.run.{label}"), || {
            m.run_opts(bulk, approach, opts)
        });
        let run = run.map_err(|e| format!("{label} kernel: {e}"))?;
        let what = format!("{label} kernel");
        check(
            &mut self.clock,
            &mut self.gate,
            &what,
            &run.matches,
            &self.want,
        );
        Ok(KernelRun {
            gbps: run.gbps(),
            stats: run.stats,
            host_s,
        })
    }

    fn rung(&mut self, m: &GpuAcMatcher, rate: f64, traced: bool) -> Result<Rung, String> {
        let cfg = fleet_config(self.spec, traced);
        let jobs = self.inputs.jobs_at(rate);
        let (run, host_s) = self
            .clock
            .time(&format!("ac-serve.serve_fleet.{rate}"), || {
                serve_fleet(m, jobs, &cfg)
            });
        let run = run.map_err(|e| format!("serve_fleet at {rate} jobs/s: {e}"))?;
        let t = self.clock.enter("acbench.check");
        for o in &run.serve.outcomes {
            let mut got = o.matches.clone();
            got.sort();
            let what = format!("job {} at {rate} jobs/s", o.id);
            self.gate.check(&what, &got, &self.job_want[o.id as usize]);
        }
        let s = &run.report.serve;
        self.gate.same(
            &format!("terminal events at {rate} jobs/s"),
            &(s.jobs_completed + s.jobs_rejected + s.jobs_expired + s.jobs_shed),
            &(self.inputs.jobs.len() as u64),
        );
        self.clock.exit(t);

        let mut busy_s = [0.0; 3];
        for op in run.timelines.iter().flat_map(|t| &t.ops) {
            let k = match op.kind {
                StreamOpKind::CopyH2D => 0,
                StreamOpKind::CopyD2H => 1,
                StreamOpKind::Kernel => 2,
            };
            busy_s[k] += op.seconds();
        }
        let clock_hz = m.config().clock_hz;
        let spans_us = |name: &str| -> Vec<f64> {
            let events = run.serve.telemetry.iter().flat_map(|t| t.trace.events());
            events
                .filter(|e| e.pid == PID_SERVE_JOBS && e.name == name)
                .map(|e| e.dur as f64 / clock_hz * 1e6)
                .collect()
        };
        Ok(Rung {
            rate,
            host_s,
            latencies_us: run
                .serve
                .outcomes
                .iter()
                .map(|o| o.latency_seconds * 1e6)
                .collect(),
            busy_s,
            queue_wait_us: spans_us("queue-wait"),
            service_us: spans_us("service"),
            sim_trace: run
                .serve
                .telemetry
                .as_ref()
                .map(|t| trace::to_chrome_json(&t.trace, clock_hz / 1e6)),
            report: run.report,
        })
    }

    /// The traced run's extra measurements: the expand split, from
    /// materializing and counting runs of each kernel timed alternately
    /// (medians of [`EXPAND_PAIRS`] each), and the table sizes.
    fn layer_extras(&mut self, m: &GpuAcMatcher) -> Result<LayerExtras, String> {
        let inputs = self.inputs;
        let mut run_s = [0.0; 2];
        let mut counting_s = [0.0; 2];
        for (i, &(label, approach)) in KERNELS.iter().enumerate() {
            let (mut full, mut counting) = (Vec::new(), Vec::new());
            for _ in 0..EXPAND_PAIRS {
                let (run, secs) = self.clock.time(&format!("ac-gpu.run.{label}"), || {
                    m.run(&inputs.bulk, approach)
                });
                let run = run.map_err(|e| format!("{label} kernel: {e}"))?;
                let what = format!("{label} kernel");
                check(
                    &mut self.clock,
                    &mut self.gate,
                    &what,
                    &run.matches,
                    &self.want,
                );
                full.push(secs);
                let (run, secs) = self
                    .clock
                    .time(&format!("ac-gpu.run_counting.{label}"), || {
                        m.run_counting(&inputs.bulk, approach)
                    });
                run.map_err(|e| format!("{label} counting run: {e}"))?;
                counting.push(secs);
            }
            run_s[i] = median(&full);
            counting_s[i] = median(&counting);
        }
        let ac = m.automaton();
        let (banded, _) = self.clock.time("ac-gpu.banded_tables", || {
            DeviceBandedStt::from_automaton(ac).size_bytes()
        });
        Ok(LayerExtras {
            run_s,
            counting_s,
            table_bytes: [(ac.state_count() * STT_COLUMNS * 4) as f64, banded as f64],
        })
    }
}

struct LayerExtras {
    run_s: [f64; 2],
    counting_s: [f64; 2],
    table_bytes: [f64; 2],
}

fn fleet_config(spec: &Spec, traced: bool) -> FleetConfig {
    let mut dev =
        ServeConfig::new(spec.streams).with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
    dev.parallel.threads = THREADS;
    if traced {
        dev = dev.with_telemetry(TelemetryConfig::default());
    }
    let mut cfg = FleetConfig::new(spec.devices, dev);
    if spec.devices == 1 {
        cfg = cfg.parity();
    }
    cfg.shard_bytes = spec.shard_bytes;
    cfg
}

/// The tail percentile `tail_percentile` picks for these samples and its
/// value; the maximum (p100) below 20 samples.
fn tail(samples: &[f64]) -> (f64, f64) {
    let p = tail_percentile(samples.len()).unwrap_or(100.0);
    (p, percentile(samples, p))
}

/// The simulated end-to-end metrics of a pass (deterministic for a seed).
fn sim_end_to_end(spec: &Spec, pass: &Pass) -> Vec<Metric> {
    let nominal = &pass.rungs[spec.nominal];
    let overload = pass.rungs.last().expect("a ladder has rungs");
    let rungs: Vec<RungSummary> = pass.rungs.iter().map(Rung::summary).collect();
    let mut out: Vec<Metric> = KERNELS
        .iter()
        .zip(&pass.kernels)
        .map(|((label, _), k)| Metric::sim(format!("sim_gbps.{label}"), k.gbps, "Gb/s"))
        .collect();
    out.extend([
        Metric::sim("p50_us", percentile(&nominal.latencies_us, 50.0), "us"),
        Metric::sim("tail_us", tail(&nominal.latencies_us).1, "us"),
        Metric::sim(
            "capacity_jobs_per_s",
            overload.report.serve.jobs_per_sec,
            "jobs/s",
        ),
        Metric::sim(
            "slo_rate_jobs_per_s",
            slo_rate(&rungs, spec.tail_limit_us),
            "jobs/s",
        ),
    ]);
    out
}

/// Everything measured in one run, turned into metrics at the end.
struct Measured<'a> {
    spec: &'a Spec,
    bulk_bytes: usize,
    /// Oracle matches in the bulk input.
    matches: usize,
    generate_s: f64,
    setups: Vec<SetupTimes>,
    serial_s: Vec<f64>,
    par_s: Vec<f64>,
    /// Untraced passes run.
    passes: usize,
    /// The first untraced pass.
    pass: Option<Pass>,
    traced: Option<Pass>,
}

impl Measured<'_> {
    fn end_to_end(&self) -> Vec<Metric> {
        let totals: Vec<f64> = self.setups.iter().map(SetupTimes::total).collect();
        let mut out = vec![Metric::host("setup_s", median(&totals), "s")];
        out.extend(sim_end_to_end(
            self.spec,
            self.pass.as_ref().expect("a pass ran"),
        ));
        out
    }

    fn per_layer(&self, ac: &AcAutomaton, extra: &LayerExtras) -> Vec<Metric> {
        let pass = self.pass.as_ref().expect("the untraced pass ran");
        let traced = self.traced.as_ref().expect("the traced pass ran");
        let setup =
            |f: fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        let find_all_s = median(&self.serial_s);
        let par_s = median(&self.par_s);
        let mut out = vec![
            Metric::host("corpus.generate_s", self.generate_s, "s"),
            Metric::host("ac-core.build_s", setup(|s| s.build_s), "s"),
            Metric::sim("ac-core.states", ac.state_count() as f64, "count"),
            Metric::host("ac-core.find_all_s", find_all_s, "s"),
            Metric::host("ac-cpu.par_find_all_s", par_s, "s"),
            Metric::host("ac-cpu.par_speedup", find_all_s / par_s, "ratio"),
            Metric::host("ac-gpu.matcher_new_s", setup(|s| s.matcher_new_s), "s"),
            Metric::host("ac-gpu.layout_tables_s", setup(|s| s.layout_tables_s), "s"),
        ];
        for (i, (label, _)) in KERNELS.iter().enumerate() {
            out.push(Metric::sim(
                format!("ac-gpu.table_bytes.{label}"),
                extra.table_bytes[i],
                "bytes",
            ));
        }
        for (i, (label, _)) in KERNELS.iter().enumerate() {
            let run_s = extra.run_s[i];
            out.push(Metric::host(format!("ac-gpu.run_s.{label}"), run_s, "s"));
            out.push(Metric::host(
                format!("ac-gpu.expand_s.{label}"),
                run_s - extra.counting_s[i],
                "s",
            ));
        }
        out.push(Metric::sim("ac-gpu.matches", self.matches as f64, "count"));
        let pool = pass.rungs[self.spec.nominal]
            .report
            .serve
            .pool
            .expect("every rung runs with the device pool armed");
        out.push(Metric::sim(
            "ac-gpu.pool_hit_rate.nominal",
            pool.hit_rate,
            "ratio",
        ));
        out.push(Metric::sim(
            "ac-gpu.pool_misses.nominal",
            pool.misses as f64,
            "count",
        ));
        for (i, (label, _)) in KERNELS.iter().enumerate() {
            out.extend(kernel_metrics(label, &pass.kernels[i], extra.run_s[i]));
        }
        let overload = self.spec.rates.len() - 1;
        for (tag, i) in [("nominal", self.spec.nominal), ("overload", overload)] {
            out.extend(rung_metrics(
                tag,
                self.spec.devices,
                &pass.rungs[i],
                &traced.rungs[i],
            ));
        }
        let untraced_s: f64 = pass.unit_host_s().iter().sum();
        let traced_s: f64 = traced.unit_host_s().iter().sum();
        out.push(Metric::host(
            "gpu-sim.mb_per_host_s",
            pass.sim_bytes(self.bulk_bytes) as f64 / 1e6 / untraced_s,
            "MB/s",
        ));
        let overhead = (traced_s - untraced_s) / untraced_s;
        out.push(Metric::host("trace.overhead_frac", overhead, "ratio"));
        out
    }
}

/// Kernel and memory-hierarchy metrics of one bulk run.
fn kernel_metrics(label: &str, k: &KernelRun, host_s: f64) -> Vec<Metric> {
    let t = &k.stats.totals;
    let sm_cycles: u64 = k.stats.per_sm_cycles.iter().sum();
    let share = |c: u64| {
        if t.idle_cycles == 0 {
            0.0
        } else {
            c as f64 / t.idle_cycles as f64
        }
    };
    let s = &t.stalls;
    let mut out = vec![
        Metric::sim(
            format!("gpu-sim.cycles.{label}"),
            k.stats.cycles as f64,
            "cycles",
        ),
        Metric::sim(
            format!("gpu-sim.warp_instructions.{label}"),
            t.instructions as f64,
            "count",
        ),
        Metric::sim(
            format!("gpu-sim.idle_frac.{label}"),
            t.idle_cycles as f64 / sm_cycles.max(1) as f64,
            "ratio",
        ),
    ];
    for reason in StallReason::all() {
        let cycles = match reason {
            StallReason::TexMiss => s.tex_miss,
            StallReason::GlobalLatency => s.global_latency,
            StallReason::SharedBank => s.shared_bank,
            StallReason::ConstMiss => s.const_miss,
            StallReason::Barrier => s.barrier,
            StallReason::NoReadyWarp => s.no_ready_warp,
        };
        out.push(Metric::sim(
            format!(
                "gpu-sim.stall_share.{}.{label}",
                reason.label().replace('-', "_")
            ),
            share(cycles),
            "ratio",
        ));
    }
    out.extend([
        Metric::sim(
            format!("gpu-sim.load_imbalance.{label}"),
            k.stats.load_imbalance().ratio(),
            "ratio",
        ),
        Metric::host(
            format!("gpu-sim.host_ns_per_warp_instr.{label}"),
            host_s * 1e9 / t.instructions.max(1) as f64,
            "ns",
        ),
        Metric::sim(
            format!("mem-sim.tex_l1_hit_rate.{label}"),
            t.tex_hit_rate(),
            "ratio",
        ),
        Metric::sim(
            format!("mem-sim.tex_l2_miss_per_fetch.{label}"),
            t.tex_l2_misses as f64 / t.tex_fetches.max(1) as f64,
            "ratio",
        ),
        Metric::sim(
            format!("mem-sim.global_bytes.{label}"),
            t.global_bytes as f64,
            "bytes",
        ),
        Metric::sim(
            format!("mem-sim.shared_conflicts.{label}"),
            t.shared_conflicts as f64,
            "count",
        ),
        Metric::sim(
            format!("mem-sim.coalescing_ratio.{label}"),
            t.coalescing_ratio(),
            "ratio",
        ),
    ]);
    out
}

/// Stream, bus and serving metrics of one rung: simulated values from the
/// untraced rung, span-derived ones from the traced rung (the two are
/// checked equal where they overlap).
fn rung_metrics(tag: &str, devices: u32, rung: &Rung, traced: &Rung) -> Vec<Metric> {
    let r = &rung.report;
    let s = &r.serve;
    let engine_s = devices as f64 * s.makespan_seconds;
    let [h2d, d2h, kernel] = rung.busy_s;
    let batches: u64 = s.batch_histogram.iter().map(|b| b.count).sum();
    let batched: u64 = s
        .batch_histogram
        .iter()
        .map(|b| b.jobs as u64 * b.count)
        .sum();
    let busy: Vec<f64> = r.per_device.iter().map(|d| d.busy_seconds).collect();
    let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let cpu_tier = r
        .routing
        .iter()
        .find(|t| t.tier == "cpu")
        .map_or(0, |t| t.jobs);
    // Engine busy time as a share of the devices' makespan: fixed-size
    // chunks copy the same bytes on every seed, so their busy microseconds
    // would not vary at all.
    vec![
        Metric::sim(format!("gpu-sim.h2d_util.{tag}"), h2d / engine_s, "ratio"),
        Metric::sim(format!("gpu-sim.d2h_util.{tag}"), d2h / engine_s, "ratio"),
        Metric::sim(
            format!("gpu-sim.kernel_util.{tag}"),
            kernel / engine_s,
            "ratio",
        ),
        Metric::sim(
            format!("gpu-sim.bus_util.{tag}"),
            r.bus_utilisation,
            "ratio",
        ),
        Metric::sim(
            format!("gpu-sim.bus_wait_frac.{tag}"),
            r.bus.waited_seconds / s.makespan_seconds,
            "ratio",
        ),
        Metric::sim(
            format!("gpu-sim.bus_contended_frac.{tag}"),
            r.bus.contended as f64 / r.bus.grants.max(1) as f64,
            "ratio",
        ),
        Metric::sim(
            format!("ac-serve.queue_wait_frac.{tag}"),
            traced.queue_wait_us.iter().sum::<f64>() / traced.latencies_us.iter().sum::<f64>(),
            "ratio",
        ),
        Metric::sim(
            format!("ac-serve.service_us.p50.{tag}"),
            percentile(&traced.service_us, 50.0),
            "us",
        ),
        Metric::sim(
            format!("ac-serve.service_us.tail.{tag}"),
            tail(&traced.service_us).1,
            "us",
        ),
        Metric::sim(
            format!("ac-serve.batch_jobs_mean.{tag}"),
            batched as f64 / batches.max(1) as f64,
            "jobs",
        ),
        Metric::sim(format!("ac-serve.batches.{tag}"), s.batches as f64, "count"),
        Metric::sim(
            format!("ac-serve.refused.{tag}"),
            rung.refused() as f64,
            "count",
        ),
        Metric::host(format!("ac-serve.serve_s.{tag}"), rung.host_s, "s"),
        Metric::sim(
            format!("ac-serve.fleet_scattered_jobs.{tag}"),
            r.scattered_jobs as f64,
            "count",
        ),
        Metric::sim(
            format!("ac-serve.fleet_cpu_tier_jobs.{tag}"),
            cpu_tier as f64,
            "count",
        ),
        Metric::sim(
            format!("ac-serve.fleet_device_busy_imbalance.{tag}"),
            busy_max / busy_mean,
            "ratio",
        ),
    ]
}
