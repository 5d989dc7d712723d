//! The recovery invariant, swept: under every seeded `FaultPlan`, the
//! resilient matcher's output is byte-identical to the serial CPU oracle
//! on realistic corpora — and every rung of the degradation ladder is
//! exercised somewhere in the sweep.

use ac_core::AcAutomaton;
use ac_cpu::ParallelConfig;
use ac_gpu::{pick_layout, run_supervised, Approach, GpuAcMatcher, KernelParams, SuperviseConfig};
use corpus::{extract_patterns, DnaGenerator, ExtractConfig, SignatureGenerator, TextGenerator};
use gpu_sim::{FaultKind, FaultPlan, GpuConfig};
use integration::{ResilientConfig, ResilientMatcher, Tier};
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

fn resilient(ac: AcAutomaton, parallel: ParallelConfig) -> ResilientMatcher {
    let gpu_cfg = GpuConfig::gtx285();
    ResilientMatcher::new(
        gpu_cfg,
        KernelParams::defaults_for(&gpu_cfg),
        ac,
        ResilientConfig {
            parallel,
            ..ResilientConfig::default()
        },
    )
}

#[test]
fn seeded_sweep_matches_oracle_under_every_plan() {
    const PLANS: u64 = 120;
    let mut kinds_fired: HashSet<FaultKind> = HashSet::new();
    let mut kinds_scheduled: HashSet<FaultKind> = HashSet::new();
    let mut tiers: HashSet<Tier> = HashSet::new();

    for seed in 0..PLANS {
        let plan = FaultPlan::generate(seed);
        assert!(!plan.is_empty(), "seed {seed} generated an empty plan");
        kinds_scheduled.extend(plan.kinds());

        let (ac, text) = scenario(seed);
        let mut want = ac.find_all(&text);
        want.sort();

        let m = resilient(
            ac,
            ParallelConfig {
                threads: 2,
                chunk_size: 1024,
            },
        );
        m.set_fault_plan(plan);
        let run = m.scan(&text);
        assert_eq!(
            run.matches, want,
            "seed {seed}: resilient output diverged from the serial oracle (tier {:?})",
            run.tier
        );
        tiers.insert(run.tier);
        if let Some(gpu) = &run.report.gpu {
            kinds_fired.extend(gpu.faults.iter().map(|f| f.kind));
        }
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
        tiers.contains(&Tier::Gpu),
        "no plan let the GPU rung answer"
    );
}

#[test]
fn every_rung_of_the_ladder_is_reachable() {
    // Rung 1: clean GPU.
    let (ac, text) = scenario(0);
    let mut want = ac.find_all(&text);
    want.sort();
    let m = resilient(
        ac.clone(),
        ParallelConfig {
            threads: 2,
            chunk_size: 1024,
        },
    );
    let run = m.scan(&text);
    assert_eq!(run.tier, Tier::Gpu);
    assert_eq!(run.matches, want);

    // Rung 2: GPU retries exhausted → parallel CPU.
    let exhaust = (0..64).fold(FaultPlan::none(), |p, i| p.with_launch_transient(i));
    let m = resilient(
        ac.clone(),
        ParallelConfig {
            threads: 2,
            chunk_size: 1024,
        },
    );
    m.set_fault_plan(exhaust.clone());
    let run = m.scan(&text);
    assert_eq!(run.tier, Tier::CpuParallel);
    assert_eq!(run.matches, want);

    // Rung 3: GPU exhausted AND parallel rung broken → serial oracle.
    let m = resilient(
        ac,
        ParallelConfig {
            threads: 0,
            chunk_size: 1024,
        },
    );
    m.set_fault_plan(exhaust);
    let run = m.scan(&text);
    assert_eq!(run.tier, Tier::CpuSerial);
    assert_eq!(run.matches, want);
    assert!(run.report.gpu_error.is_some());
    assert!(run.report.cpu_parallel_error.is_some());
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
    // Same seed → same plan, same tier, same degradation trace.
    for seed in [0u64, 1, 2, 3, 17, 63] {
        let once = {
            let (ac, text) = scenario(seed);
            let m = resilient(
                ac,
                ParallelConfig {
                    threads: 2,
                    chunk_size: 1024,
                },
            );
            m.set_fault_plan(FaultPlan::generate(seed));
            let run = m.scan(&text);
            (
                run.tier,
                run.matches,
                run.report.gpu.map(|g| (g.attempts, g.faults)),
            )
        };
        let twice = {
            let (ac, text) = scenario(seed);
            let m = resilient(
                ac,
                ParallelConfig {
                    threads: 2,
                    chunk_size: 1024,
                },
            );
            m.set_fault_plan(FaultPlan::generate(seed));
            let run = m.scan(&text);
            (
                run.tier,
                run.matches,
                run.report.gpu.map(|g| (g.attempts, g.faults)),
            )
        };
        assert_eq!(once, twice, "seed {seed}");
    }
}
