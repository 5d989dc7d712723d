//! The workloads and the seeded inputs they run on.

use ac_core::PatternSet;
use ac_serve::{synthetic_workload, ScanJob, WorkloadConfig};
use corpus::TextGenerator;

/// One workload: a dictionary, a bulk input, and an open-loop serving
/// ladder. Every workload runs every phase, so every metric exists on
/// every workload; the sizes decide which layer dominates.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Dictionary size (patterns extracted from a separately generated
    /// corpus, as `bench::Workload` does).
    pub patterns: usize,
    /// Bytes of English-like text the CPU matchers and both simulated
    /// kernels scan.
    pub bulk_bytes: usize,
    /// Jobs offered on every rung of the serving ladder.
    pub jobs: u64,
    /// Nominal job size; sizes are uniform in `[½×, 1½×)` unless chunked.
    pub job_bytes: usize,
    /// Jobs are consecutive `job_bytes` chunks of the bulk text offered at
    /// a constant rate, instead of `ac-serve`'s synthetic jobs with
    /// jittered sizes and arrivals.
    pub chunked: bool,
    /// Simulated GPUs behind the dispatcher. One device runs in parity
    /// mode (the plain `serve` loop); more run with cost routing.
    pub devices: u32,
    /// Streams per device.
    pub streams: u32,
    /// Jobs at least this large are sharded across every device.
    pub shard_bytes: Option<usize>,
    /// Offered arrival rates in jobs/s, ascending. The same payloads are
    /// offered on every rung; the last rung is the overload rung.
    pub rates: Vec<f64>,
    /// Index of the nominal rung in `rates`.
    pub nominal: usize,
    /// Tail-latency limit for `slo_rate_jobs_per_s`, in simulated µs.
    pub tail_limit_us: f64,
}

impl Spec {
    /// The nominal arrival rate.
    pub fn nominal_rate(&self) -> f64 {
        self.rates[self.nominal]
    }

    /// The overload arrival rate.
    pub fn overload_rate(&self) -> f64 {
        *self.rates.last().expect("a ladder has at least one rung")
    }
}

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// Every workload the benchmark defines, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Spec> {
    // The two scan workloads differ only in dictionary size, so a change
    // to table layout or the texture cache shows in scan-20k and barely in
    // scan-2k. They stream their own text through the server in fixed
    // chunks; the ladder is short because each batch on the 20k table
    // costs the simulator a 90 MB device image.
    let scan = |name, patterns| Spec {
        name,
        patterns,
        bulk_bytes: 4 * MIB,
        jobs: 64,
        job_bytes: 16 * KIB,
        chunked: true,
        devices: 1,
        streams: 2,
        shard_bytes: None,
        rates: vec![4_000.0, 12_000.0, 1_000_000.0],
        nominal: 0,
        tail_limit_us: 1_000.0,
    };
    vec![
        scan("scan-2k", 2_000),
        scan("scan-20k", 20_000),
        Spec {
            name: "serve-small",
            patterns: 50,
            bulk_bytes: 4 * MIB,
            jobs: 4_096,
            job_bytes: 2 * KIB,
            chunked: false,
            devices: 1,
            streams: 4,
            shard_bytes: None,
            rates: vec![
                200_000.0,
                400_000.0,
                600_000.0,
                800_000.0,
                1_000_000.0,
                1_600_000.0,
            ],
            nominal: 1,
            tail_limit_us: 300.0,
        },
        Spec {
            name: "fleet-large",
            patterns: 2_000,
            bulk_bytes: 4 * MIB,
            jobs: 256,
            job_bytes: 64 * KIB,
            chunked: false,
            devices: 4,
            streams: 2,
            shard_bytes: Some(32 * KIB),
            rates: vec![1_000.0, 2_000.0, 3_000.0, 16_000.0],
            nominal: 1,
            tail_limit_us: 1_000.0,
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    workloads().into_iter().find(|s| s.name == name)
}

/// Seed of every workload's dictionary. The dictionary is fixed, like a
/// deployed rule set, and `--seed` varies the traffic scanned with it: a
/// 50-pattern dictionary's match density, and with it serving capacity
/// and CPU throughput, differs by ±20% from one extraction to the next.
pub const DICTIONARY_SEED: u64 = 1;

/// A workload's generated inputs. The program under test only ever sees
/// these bytes, never the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The dictionary.
    pub patterns: PatternSet,
    /// The bulk-scan text.
    pub bulk: Vec<u8>,
    /// The serving jobs, offered at one job per second; [`Inputs::jobs_at`]
    /// rescales the arrivals to a rung's rate.
    pub jobs: Vec<ScanJob>,
}

impl Inputs {
    /// Generate `spec`'s inputs: the text from `seed` as `bench::Workload`
    /// generates it, the jobs from `seed` (chunks of that text, or as
    /// `ac-serve`'s synthetic workload generates them), and the dictionary
    /// as `bench::Workload` extracts it, from [`DICTIONARY_SEED`].
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let bulk = TextGenerator::new(seed).generate(spec.bulk_bytes);
        let jobs = if spec.chunked {
            assert!(
                spec.jobs as usize * spec.job_bytes <= bulk.len(),
                "{}: the chunked jobs must fit in the bulk text",
                spec.name
            );
            (0..spec.jobs)
                .zip(bulk.chunks(spec.job_bytes))
                .map(|(id, chunk)| ScanJob::new(id, chunk.to_vec(), (id + 1) as f64))
                .collect()
        } else {
            synthetic_workload(&WorkloadConfig {
                jobs: spec.jobs,
                arrival_rate_per_sec: 1,
                job_bytes: spec.job_bytes,
                seed,
                deadline_us: None,
                priority_classes: 1,
            })
        };
        Inputs {
            patterns: bench::Workload::prepare(0, DICTIONARY_SEED).dictionary(spec.patterns),
            bulk,
            jobs,
        }
    }

    /// The jobs with arrivals rescaled to `rate` jobs/s: the same payloads
    /// and the same relative arrival times on every rung.
    pub fn jobs_at(&self, rate: f64) -> Vec<ScanJob> {
        self.jobs
            .iter()
            .map(|j| ScanJob {
                arrival_seconds: j.arrival_seconds / rate,
                ..j.clone()
            })
            .collect()
    }

    /// FNV-1a fingerprint of the text, the job payloads and the
    /// dictionary, so drift in the generators shows as changed inputs.
    pub fn fingerprint(&self) -> u64 {
        let patterns = self.patterns.iter().map(|(_, p)| p);
        let payloads = self.jobs.iter().map(|j| j.payload.as_slice());
        crate::fnv1a(
            std::iter::once(self.bulk.as_slice())
                .chain(payloads)
                .chain(patterns),
        )
    }

    /// Total payload bytes of one rung.
    pub fn job_bytes(&self) -> usize {
        self.jobs.iter().map(|j| j.payload.len()).sum()
    }
}
