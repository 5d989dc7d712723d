//! The recovery invariant, swept: under every seeded `FaultPlan`, a
//! one-job `serve()` on a breaker that opens on its first failure (the
//! degradation ladder behind `acsim match --resilient`) answers
//! byte-identically to the serial CPU oracle on realistic corpora — and
//! every rung of the ladder is exercised somewhere in the sweep.

use ac_core::AcAutomaton;
use ac_cpu::ParallelConfig;
use ac_gpu::{pick_layout, run_supervised, Approach, GpuAcMatcher, KernelParams, SuperviseConfig};
use ac_serve::{serve, BatchLimits, JobOutcome, ScanJob, ServeConfig, ServeRun, ServedBy};
use corpus::{extract_patterns, DnaGenerator, ExtractConfig, SignatureGenerator, TextGenerator};
use gpu_sim::{FaultKind, FaultPlan, GpuConfig, InjectedFault};
use std::collections::HashSet;

/// One corpus scenario: an automaton and a text to scan.
fn scenario(idx: u64) -> (AcAutomaton, Vec<u8>) {
    match idx % 3 {
        0 => {
            let text = TextGenerator::new(7).generate(3000);
            let ps = extract_patterns(
                &text,
                &ExtractConfig {
                    count: 24,
                    min_len: 3,
                    max_len: 9,
                    seed: 11,
                    align_to_words: true,
                },
            );
            (AcAutomaton::build(&ps), text)
        }
        1 => {
            let mut dna = DnaGenerator::new(13);
            let text = dna.generate(3000);
            let ps = extract_patterns(
                &text,
                &ExtractConfig {
                    count: 16,
                    min_len: 4,
                    max_len: 12,
                    seed: 17,
                    align_to_words: false,
                },
            );
            (AcAutomaton::build(&ps), text)
        }
        _ => {
            let mut sig = SignatureGenerator::new(19);
            let dict = sig.dictionary(20);
            let text = sig.traffic(3000, &dict);
            (AcAutomaton::build(&dict), text)
        }
    }
}

/// What one laddered scan produced: the job's outcome, the serve run,
/// and the faults that fired.
struct Laddered {
    outcome: JobOutcome,
    run: ServeRun,
    fired: Vec<InjectedFault>,
}

/// Scan `text` as one job through `serve()` with per-job batches and a
/// breaker that opens on the first exhausted batch, under `plan`, with
/// `threads` parallel-CPU workers.
fn laddered(ac: AcAutomaton, text: &[u8], plan: FaultPlan, threads: usize) -> Laddered {
    let gpu_cfg = GpuConfig::gtx285();
    let m = GpuAcMatcher::new(gpu_cfg, KernelParams::defaults_for(&gpu_cfg), ac).unwrap();
    let mut cfg = ServeConfig::new(1);
    cfg.limits = BatchLimits::per_job();
    cfg.breaker.failure_threshold = 1;
    cfg.parallel = ParallelConfig {
        threads,
        chunk_size: 1024,
    };
    m.set_fault_plan(plan);
    let mut run = serve(&m, vec![ScanJob::new(0, text.to_vec(), 0.0)], &cfg).unwrap();
    let fired = m.fault_log();
    assert_eq!(run.outcomes.len(), 1, "one job, one outcome");
    let outcome = run.outcomes.pop().unwrap();
    Laddered {
        outcome,
        run,
        fired,
    }
}

/// Every launch the retry budget could reach fails.
fn exhaust() -> FaultPlan {
    (0..64).fold(FaultPlan::none(), |p, i| p.with_launch_transient(i))
}

#[test]
fn seeded_sweep_matches_oracle_under_every_plan() {
    const PLANS: u64 = 120;
    let mut kinds_fired: HashSet<FaultKind> = HashSet::new();
    let mut kinds_scheduled: HashSet<FaultKind> = HashSet::new();
    let mut rungs: HashSet<ServedBy> = HashSet::new();

    for seed in 0..PLANS {
        let plan = FaultPlan::generate(seed);
        assert!(!plan.is_empty(), "seed {seed} generated an empty plan");
        kinds_scheduled.extend(plan.kinds());

        let (ac, text) = scenario(seed);
        let mut want = ac.find_all(&text);
        want.sort();

        let l = laddered(ac, &text, plan, 2);
        assert_eq!(
            l.outcome.matches, want,
            "seed {seed}: laddered output diverged from the serial oracle (rung {:?})",
            l.outcome.served_by
        );
        assert_eq!(
            l.run.report.faults_fired,
            l.fired.len() as u64,
            "seed {seed}"
        );
        rungs.insert(l.outcome.served_by);
        kinds_fired.extend(l.fired.iter().map(|f| f.kind));
    }

    for kind in FaultKind::all() {
        assert!(
            kinds_scheduled.contains(&kind),
            "{kind:?} never scheduled across the sweep"
        );
        assert!(
            kinds_fired.contains(&kind),
            "{kind:?} never fired across the sweep"
        );
    }
    assert!(
        rungs.contains(&ServedBy::Gpu),
        "no plan let the GPU rung answer"
    );
}

#[test]
fn every_rung_of_the_ladder_is_reachable() {
    // Rung 1: clean GPU.
    let (ac, text) = scenario(0);
    let mut want = ac.find_all(&text);
    want.sort();
    let l = laddered(ac.clone(), &text, FaultPlan::none(), 2);
    assert_eq!(l.outcome.served_by, ServedBy::Gpu);
    assert_eq!(l.outcome.matches, want);
    assert!(l.run.breaker_transitions.is_empty());

    // Rung 2: GPU retries exhausted → parallel CPU.
    let l = laddered(ac.clone(), &text, exhaust(), 2);
    assert_eq!(l.outcome.served_by, ServedBy::CpuParallel);
    assert_eq!(l.outcome.matches, want);

    // Rung 3: GPU exhausted AND parallel rung broken → serial oracle.
    let l = laddered(ac, &text, exhaust(), 0);
    assert_eq!(l.outcome.served_by, ServedBy::CpuSerial);
    assert_eq!(l.outcome.matches, want);
    // The abandoned GPU rung's last error rides on the breaker opening.
    let open = &l.run.breaker_transitions[0];
    assert!(
        open.reason
            .starts_with("1 consecutive batch failures (last: "),
        "{}",
        open.reason
    );
}

#[test]
fn compressed_layout_kernels_recover_under_supervision() {
    // The STT layout family under the supervisor: the CRC readback
    // framing must catch corrupted match buffers on the banded kernel
    // exactly as it does on the dense ones, and the retried run must stay
    // byte-identical to the oracle.
    let (ac, text) = scenario(0);
    let mut want = ac.find_all(&text);
    want.sort();
    let gpu_cfg = GpuConfig::gtx285();
    let m = GpuAcMatcher::new(gpu_cfg, KernelParams::defaults_for(&gpu_cfg), ac).unwrap();

    // Attempt 1's readback is corrupted, attempt 2's launch dies,
    // attempt 3 answers.
    m.set_fault_plan(
        FaultPlan::none()
            .with_readback_flip(0, 12_345)
            .with_launch_transient(1),
    );
    let cfg = SuperviseConfig::default();
    let s = run_supervised(&m, &text, Approach::SharedBanded, &cfg).unwrap();
    m.clear_fault_plan();
    assert_eq!(s.run.matches, want);
    assert_eq!(s.report.retries, 2);
    assert!(s
        .report
        .faults
        .iter()
        .any(|f| f.kind == FaultKind::ReadbackBitFlip));
    assert!(s
        .report
        .faults
        .iter()
        .any(|f| f.kind == FaultKind::LaunchTransient));

    // gpu:auto — the layout picker's probe launches consume fault
    // indices, so the plan is armed only after picking; the picked
    // kernel then recovers exactly like the fixed ones.
    let choice = pick_layout(&m, &text).unwrap();
    let approach = choice
        .layout
        .approach()
        .expect("picker returns concrete layouts");
    m.set_fault_plan(FaultPlan::none().with_readback_flip(0, 7));
    let s = run_supervised(&m, &text, approach, &SuperviseConfig::default()).unwrap();
    m.clear_fault_plan();
    assert_eq!(s.run.matches, want, "auto:{}", approach.label());
    assert_eq!(s.report.retries, 1, "auto:{}", approach.label());
}

#[test]
fn sweep_is_deterministic() {
    // Same seed → same plan, same rung, same degradation trace.
    for seed in [0u64, 1, 2, 3, 17, 63] {
        let once = || {
            let (ac, text) = scenario(seed);
            let l = laddered(ac, &text, FaultPlan::generate(seed), 2);
            let reasons: Vec<String> = l
                .run
                .breaker_transitions
                .into_iter()
                .map(|t| t.reason)
                .collect();
            (
                l.outcome.served_by,
                l.outcome.matches,
                l.run.report.gpu_retries,
                l.fired,
                reasons,
            )
        };
        assert_eq!(once(), once(), "seed {seed}");
    }
}
