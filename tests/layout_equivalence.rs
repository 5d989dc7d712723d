//! Layout equivalence: every compressed STT layout (today the failure-banded
//! one) produces a match set bit-identical to the dense-STT reference — on
//! corpus workloads, on randomized pattern/text pairs, and through the
//! batched serving path. Compression may only change *where* transitions
//! live, never what they say.

use ac_core::{naive, AcAutomaton, Match, PatternSet};
use ac_gpu::{Approach, GpuAcMatcher, KernelParams, SttLayout};
use corpus::{extract_patterns, ExtractConfig, TextGenerator};
use gpu_sim::GpuConfig;
use proptest::prelude::*;

/// The compressed members of the layout family, as kernel approaches.
fn compressed_approaches() -> Vec<Approach> {
    SttLayout::all_concrete()
        .into_iter()
        .filter(|l| *l != SttLayout::Dense)
        .map(|l| l.approach().expect("concrete layouts have kernels"))
        .collect()
}

fn sorted(mut v: Vec<Match>) -> Vec<Match> {
    v.sort();
    v
}

#[test]
fn compressed_layouts_match_dense_on_corpus_workload() {
    let text = TextGenerator::new(500).generate(48 * 1024);
    let source = TextGenerator::new(501).generate(96 * 1024);
    let ps = extract_patterns(&source, &ExtractConfig::paper_default(200, 502));
    let ac = AcAutomaton::build(&ps);
    let serial = sorted(ac.find_all(&text));
    assert!(!serial.is_empty());

    let cfg = GpuConfig::gtx285();
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    let dense = m.run(&text, Approach::SharedDiagonal).unwrap().matches;
    assert_eq!(dense, serial, "dense reference disagrees with serial");
    for approach in compressed_approaches() {
        let run = m.run(&text, approach).unwrap();
        assert_eq!(run.matches, dense, "{approach:?} diverged from dense");
    }
}

#[test]
fn compressed_layouts_match_dense_through_the_serving_path() {
    use ac_serve::{serve, synthetic_workload, ServeConfig, WorkloadConfig};

    let ac = ac_serve::serve_automaton(64, 7);
    let cfg = GpuConfig::gtx285();
    let jobs = synthetic_workload(&WorkloadConfig {
        jobs: 24,
        arrival_rate_per_sec: 50_000,
        job_bytes: 1024,
        seed: 7,
        ..WorkloadConfig::defaults()
    });

    // Per-job match lists from the dense layout are the reference; every
    // compressed layout must serve the same answers job for job.
    type JobAnswers = Vec<(u64, Vec<Match>)>;
    let mut per_layout: Vec<(Approach, JobAnswers)> = Vec::new();
    for layout in SttLayout::all_concrete() {
        let approach = layout.approach().expect("concrete layouts have kernels");
        let matcher = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac.clone()).unwrap();
        let serve_cfg = ServeConfig {
            approach,
            ..ServeConfig::new(2)
        };
        let run = serve(&matcher, jobs.clone(), &serve_cfg).unwrap();
        assert_eq!(run.report.jobs_completed, 24, "{approach:?}");
        let mut answers: JobAnswers = run
            .outcomes
            .into_iter()
            .map(|o| (o.id, sorted(o.matches)))
            .collect();
        answers.sort_by_key(|(id, _)| *id);
        per_layout.push((approach, answers));
    }
    let (_, dense) = &per_layout[0];
    for (approach, answers) in &per_layout[1..] {
        assert_eq!(answers, dense, "{approach:?} served different matches");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized equivalence: on arbitrary small pattern sets and texts,
    /// every compressed layout agrees with brute force (and hence with the
    /// dense reference, covered by `cross_impl_equivalence`).
    #[test]
    fn compressed_layouts_equal_brute_force_random(
        pats in proptest::collection::vec("[abc]{1,6}", 1..8),
        text in "[abc]{0,400}",
    ) {
        let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
        let ps = PatternSet::from_strs(&refs).unwrap();
        let want = naive::find_all(&ps, text.as_bytes());
        let cfg = GpuConfig::gtx285();
        let m = GpuAcMatcher::new(
            cfg,
            KernelParams { threads_per_block: 32, global_chunk_bytes: 64, shared_chunk_bytes: 64, pin_paper_launch: false },
            AcAutomaton::build(&ps),
        ).unwrap();
        for approach in compressed_approaches() {
            let run = m.run(text.as_bytes(), approach).unwrap();
            prop_assert_eq!(&run.matches, &want, "{:?}", approach);
        }
    }
}
