//! Cross-implementation equivalence: every matcher in the workspace —
//! serial DFA, streaming, chunked, multithreaded CPU, PFAC, the banded
//! STT's host-side walk, and all six GPU kernels — reports exactly the
//! same matches.

use ac_core::chunked::{match_all_chunks, ChunkPlan};
use ac_core::{naive, AcAutomaton, Match, PatternSet, PfacAutomaton, StreamMatcher};
use ac_cpu::{par_find_all, ParallelConfig};
use ac_gpu::{Approach, DeviceBandedStt, GpuAcMatcher, KernelParams, MATCH_BIT};
use corpus::{extract_patterns, ExtractConfig, TextGenerator};
use gpu_sim::GpuConfig;
use proptest::prelude::*;
use std::collections::HashMap;

fn workload() -> (Vec<u8>, PatternSet) {
    let text = TextGenerator::new(400).generate(48 * 1024);
    let source = TextGenerator::new(401).generate(96 * 1024);
    let ps = extract_patterns(&source, &ExtractConfig::paper_default(150, 402));
    (text, ps)
}

fn sorted(mut v: Vec<Match>) -> Vec<Match> {
    v.sort();
    v
}

#[test]
fn seven_implementations_agree() {
    let (text, ps) = workload();
    let ac = AcAutomaton::build(&ps);
    let reference = sorted(ac.find_all(&text));
    assert!(!reference.is_empty());

    // 1. Streaming in odd-sized pieces.
    let mut stream = StreamMatcher::new(&ac);
    let mut got = Vec::new();
    for chunk in text.chunks(777) {
        stream.feed(chunk, &mut got);
    }
    assert_eq!(sorted(got), reference, "streaming");

    // 2. Chunked with minimal overlap.
    let plan = ChunkPlan::for_automaton(text.len(), 1000, &ac).unwrap();
    assert_eq!(match_all_chunks(&ac, &text, &plan), reference, "chunked");

    // 3. Multithreaded CPU.
    let par = par_find_all(
        &ac,
        &text,
        &ParallelConfig {
            threads: 3,
            chunk_size: 4096,
        },
    )
    .unwrap();
    assert_eq!(par, reference, "crossbeam parallel");

    // 4. PFAC.
    let pfac = PfacAutomaton::build(&ps);
    assert_eq!(pfac.find_all(&text), reference, "pfac");

    // 5. The banded STT's host-side walk (fat pointers, failure steps
    // on off-band bytes), mapped back to automaton states.
    let banded = DeviceBandedStt::try_from_automaton(&ac).unwrap();
    let state_of: HashMap<u32, u32> = (0..)
        .zip(banded.fat_of.iter())
        .map(|(s, &f)| (f, s))
        .collect();
    let mut got = Vec::new();
    let mut fat = banded.fat_of[0];
    for (i, &b) in text.iter().enumerate() {
        fat = banded.lookup(fat, b);
        if fat & MATCH_BIT != 0 {
            ac.expand_outputs(state_of[&fat], i + 1, &mut got);
        }
    }
    assert_eq!(sorted(got), reference, "banded STT walk");

    // 6–7. All GPU kernels.
    let cfg = GpuConfig::gtx285();
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    for approach in Approach::all() {
        let run = m.run(&text, approach).unwrap();
        assert_eq!(run.matches, reference, "{approach:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized miniature of the same equivalence, small enough to run
    /// many cases: random patterns and text over a 3-letter alphabet, GPU
    /// shared kernel vs brute force.
    #[test]
    fn gpu_equals_brute_force_random(
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
        for approach in [
            Approach::SharedDiagonal,
            Approach::GlobalOnly,
            Approach::Pfac,
            Approach::SharedBanded,
        ] {
            let run = m.run(text.as_bytes(), approach).unwrap();
            prop_assert_eq!(&run.matches, &want, "{:?}", approach);
        }
    }
}
