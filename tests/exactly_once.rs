//! Exactly-once reporting: every GPU kernel reports each occurrence once,
//! so its result equals `ac_core::naive`, for pattern sets built to stress
//! overlapping scan windows.
//!
//! Match events carry only `(end, state)`. Neighbouring threads' windows
//! overlap by `max_len - 1` bytes, so an occurrence that starts in a
//! thread's overlap tail is seen twice. The dense-table kernels drop, in
//! place, the events whose outputs all start past the thread's owned end;
//! the host's sort + dedup collapses the copies that remain. Each case
//! runs every kernel twice: with faults disarmed (events go straight to
//! expansion) and with an empty fault plan armed (events go through the
//! framed readback encode/decode), and checks that a counting run prices
//! the same readback frame. A second property pins the dense
//! kernels' event stream itself against a host walk of the same plan. A
//! third runs the shared-tile kernels at the block sizes the launch
//! planner picks on a two-SM device, where a few tens of KiB already span
//! several resident rounds. Two last tests run both PFAC modes against
//! the oracle on corpus dictionaries, up to the longest pattern the
//! default launch accepts, and bound the readback frame on corpus text:
//! one word per walk for PFAC, at most two per event otherwise.

use ac_core::{naive, AcAutomaton, Match, PatternSet};
use ac_gpu::{Approach, GpuAcMatcher, KernelParams, Plan};
use corpus::{extract_patterns, ExtractConfig, TextGenerator};
use gpu_sim::{FaultPlan, GpuConfig};
use proptest::collection::vec;
use proptest::prelude::*;

/// One-warp blocks over the smallest legal shared chunk (one half-warp of
/// staging words) and 16-byte global-only chunks, so a short text spans
/// many owned ranges and, past 2 KiB, more than one staging tile.
const PARAMS: KernelParams = KernelParams {
    threads_per_block: 32,
    global_chunk_bytes: 16,
    shared_chunk_bytes: 64,
    pin_paper_launch: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_kernel_reports_each_occurrence_exactly_once(
        words in vec("[ab]{1,5}", 1..5),
        chain in "[ab]{2,8}",
        byte in "[ab]{1,1}",
        // Longer than two shared chunks: one occurrence spans three
        // owned ranges and reaches past the next thread's window start.
        long in "[ab]{136,136}",
        dup in 0usize..64,
        pieces in vec(("[ab]{0,48}", 0usize..64), 0..64),
    ) {
        let mut pats = words;
        // Every prefix of `chain`: nested outputs in one state.
        pats.extend((1..=chain.len()).map(|n| chain[..n].to_string()));
        pats.push(byte);
        pats.push(long);
        let twin = pats[dup % pats.len()].clone();
        pats.push(twin);
        // Random filler with pattern copies spliced in, so occurrences
        // straddle chunk and tile boundaries.
        let mut text = Vec::new();
        for (filler, pick) in &pieces {
            text.extend_from_slice(filler.as_bytes());
            text.extend_from_slice(pats[pick % pats.len()].as_bytes());
        }
        let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
        let ps = PatternSet::from_strs(&refs).unwrap();
        let want = naive::find_all(&ps, &text);
        let m = GpuAcMatcher::new(GpuConfig::gtx285(), PARAMS, AcAutomaton::build(&ps)).unwrap();
        for approach in Approach::all() {
            for armed in [false, true] {
                if armed {
                    m.set_fault_plan(FaultPlan::none());
                }
                let run = m.run(&text, approach).unwrap();
                if armed {
                    m.clear_fault_plan();
                }
                prop_assert_eq!(&run.matches, &want, "{:?}, faults armed: {}", approach, armed);
                // The frame is tallied as lanes report, in counting mode
                // too, so both modes price the same readback.
                let counted = m.run_counting(&text, approach).unwrap();
                prop_assert_eq!(counted.readback_bytes, run.readback_bytes, "{:?}", approach);
            }
        }
    }
}

/// The approaches that read the dense STT, whose entries carry each
/// target's longest output length.
const DENSE: [Approach; 4] = [
    Approach::GlobalOnly,
    Approach::SharedNaive,
    Approach::SharedCoalescedOnly,
    Approach::SharedDiagonal,
];

/// The events a dense-table kernel reports under `plan`: each thread
/// walks its window from the root, and a match state entered at `end`
/// counts when one of its outputs starts before the thread's owned end.
fn owned_events(ac: &AcAutomaton, text: &[u8], plan: &Plan) -> u64 {
    let threads = plan.launch.grid_blocks as u64 * plan.launch.threads_per_block as u64;
    let mut count = 0;
    for t in 0..threads {
        let (start, owned_end) = plan.owned_range(t);
        let mut state = 0;
        for pos in start..plan.scan_end(t) {
            state = ac.stt().next(state, text[pos as usize]);
            let end = pos + 1;
            let owned = ac
                .outputs()
                .patterns_at(state)
                .iter()
                .any(|&p| end - (ac.patterns().len_of(p) as u64) < owned_end);
            count += owned as u64;
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_kernels_report_exactly_the_owned_events(
        words in vec("[ab]{1,5}", 1..5),
        chain in "[ab]{2,8}",
        // At least 255 bytes: the length field saturates, and every
        // occurrence reaches more than 255 bytes past some owned end.
        long in "[ab]{255,300}",
        pieces in vec(("[ab]{0,48}", 0usize..64), 0..24),
        // Texts of at most 16 bytes fit one chunk of every kernel.
        single_chunk in any::<bool>(),
        cut in 0usize..=16,
    ) {
        let mut pats = words;
        pats.extend((1..=chain.len()).map(|n| chain[..n].to_string()));
        pats.push(long);
        let mut text = Vec::new();
        for (filler, pick) in &pieces {
            text.extend_from_slice(filler.as_bytes());
            text.extend_from_slice(pats[pick % pats.len()].as_bytes());
        }
        if single_chunk {
            text.truncate(cut);
        }
        let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
        let ps = PatternSet::from_strs(&refs).unwrap();
        let want = naive::find_all(&ps, &text);
        let ac = AcAutomaton::build(&ps);
        let cfg = GpuConfig::gtx285();
        let len = text.len() as u64;
        let m = GpuAcMatcher::new(cfg, PARAMS, ac.clone()).unwrap();
        for approach in DENSE {
            let plan = match approach {
                Approach::GlobalOnly => Plan::global_only(&PARAMS, &cfg, &ac, len),
                _ => Plan::shared(&PARAMS, &cfg, &ac, len),
            }
            .unwrap();
            let events = owned_events(&ac, &text, &plan);
            let run = m.run(&text, approach).unwrap();
            let counted = m.run_counting(&text, approach).unwrap();
            prop_assert_eq!(run.match_events, events, "{:?} recording", approach);
            prop_assert_eq!(counted.match_events, events, "{:?} counting", approach);
            prop_assert_eq!(&run.matches, &want, "{:?}", approach);
        }
    }
}

/// The GTX 285 cut to two SMs: a scan of a few tens of KiB fills several
/// resident rounds, so the planner launches blocks below its maximum.
fn two_sm_gtx285() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        ..GpuConfig::gtx285()
    }
}

/// `(maximum threads per block, text bytes, planned threads per block)`
/// on [`two_sm_gtx285`], for any overlap below 293 bytes. Past one round
/// the 96-thread block wins ties against 64 at a 128-thread maximum, so
/// the 64-thread shape is planned under a 64-thread maximum.
const PLANNED_SHAPES: [(u32, usize, u32); 3] = [
    (128, 24 * 1024, 96),
    (64, 16 * 1024, 64),
    (128, 56 * 1024, 32),
];

/// The kernels that stage the text in a shared-memory tile.
const SHARED_TILE: [Approach; 4] = [
    Approach::SharedNaive,
    Approach::SharedCoalescedOnly,
    Approach::SharedDiagonal,
    Approach::SharedBanded,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn planned_block_shapes_report_each_occurrence_exactly_once(
        words in vec("[ab]{1,5}", 1..5),
        chain in "[ab]{2,8}",
        // At most one chunk (64 bytes) of overlap, then up to two.
        short in "[ab]{16,65}",
        long in "[ab]{66,136}",
        pieces in vec(("[ab]{0,48}", 0usize..64), 1..24),
    ) {
        let mut pats = words;
        pats.extend((1..=chain.len()).map(|n| chain[..n].to_string()));
        pats.push(short);
        let short_set = pats.clone();
        pats.push(long);
        for pats in [short_set, pats] {
            let mut unit = Vec::new();
            for (filler, pick) in &pieces {
                unit.extend_from_slice(filler.as_bytes());
                unit.extend_from_slice(pats[pick % pats.len()].as_bytes());
            }
            let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            let ps = PatternSet::from_strs(&refs).unwrap();
            let ac = AcAutomaton::build(&ps);
            let cfg = two_sm_gtx285();
            for (max_threads, len, planned) in PLANNED_SHAPES {
                let text: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
                let want = naive::find_all(&ps, &text);
                let params = KernelParams {
                    threads_per_block: max_threads,
                    ..KernelParams::defaults_for(&cfg)
                };
                let plan = Plan::shared(&params, &cfg, &ac, len as u64).unwrap();
                prop_assert_eq!(plan.launch.threads_per_block, planned, "{} bytes", len);
                let m = GpuAcMatcher::new(cfg, params, ac.clone()).unwrap();
                for approach in SHARED_TILE {
                    let run = m.run(&text, approach).unwrap();
                    let counted = m.run_counting(&text, approach).unwrap();
                    prop_assert_eq!(run.launch, plan.launch, "{:?}", approach);
                    prop_assert_eq!(&run.matches, &want, "{:?} at {} threads", approach, planned);
                    prop_assert_eq!(
                        counted.match_events,
                        run.match_events,
                        "{:?} at {} threads",
                        approach,
                        planned
                    );
                    // The diagonal map covers the owned chunks. A window
                    // reaching past the next chunk reads the linear
                    // overlap tail, where two lanes can land 16 words
                    // apart: that conflicts at every block size, the
                    // paper's 128 threads included.
                    if approach == Approach::SharedDiagonal
                        && ac.required_overlap() <= params.shared_chunk_bytes as usize
                    {
                        prop_assert_eq!(
                            run.stats.totals.shared_conflicts,
                            0,
                            "diagonal staging conflicted at {} threads",
                            planned
                        );
                    }
                }
            }
        }
    }
}

/// The exact walk-frame length of a PFAC run whose matches are `found`
/// (sorted): one word per anchor that matched, plus a zero word for each
/// full delta field a gap between anchors overflows.
fn walk_frame_bytes(ac: &AcAutomaton, found: &[Match]) -> u64 {
    let bits = (usize::BITS - (ac.state_count() - 1).leading_zeros()).max(16);
    let max_delta = (1u64 << (32 - bits)) - 1;
    let mut anchors: Vec<u64> = found.iter().map(|m| m.start as u64).collect();
    anchors.dedup();
    let mut next = 0;
    let mut words = 0;
    for a in anchors {
        words += 1 + (a + 1 - next - 1) / max_delta;
        next = a + 1;
    }
    36 + 4 * words
}

/// The match events a PFAC run reports for `found`: one per terminal
/// state a walk passes, that is per distinct `(start, end)` (duplicate
/// patterns share their state).
fn pfac_events(found: &[Match]) -> u64 {
    let mut spans: Vec<(usize, usize)> = found.iter().map(|m| (m.start, m.end)).collect();
    spans.sort_unstable();
    spans.dedup();
    spans.len() as u64
}

/// Both PFAC modes equal the oracle in recording mode (framing off and
/// on) and count the same events and walk frame in counting mode, on the
/// sparse, tiny and never-matching corpus dictionaries, a one-byte
/// pattern with terminal ancestors above it, and the longest pattern the
/// default launch accepts: 8,193 bytes, whose staged tile leaves one
/// block per SM. The longest pattern and the 6-byte "edge" patterns
/// start at a block's last anchor, so their walks read the last byte of
/// the staged tile (the edge tile, 133 bytes, ends one byte into its
/// last word).
#[test]
fn staged_pfac_equals_the_oracle_on_every_dictionary() {
    let text = TextGenerator::new(5).generate(48 << 10);
    let elsewhere = TextGenerator::new(11).generate(64 << 10);
    let sparse = extract_patterns(
        &elsewhere,
        &ExtractConfig {
            min_len: 8,
            ..ExtractConfig::paper_default(200, 5)
        },
    );
    // The last anchor of a 128-thread block.
    let last_anchor = |block: usize| block * 128 + 127;
    let at = |anchor: usize, len: usize| text[anchor..anchor + len].to_vec();
    let longest = at(last_anchor(70), 8_193);
    let edge = [3, 50, 200].map(|block| at(last_anchor(block), 6));
    let dictionaries = [
        ("sparse", sparse),
        ("tiny", PatternSet::from_strs(&["the", "of"]).unwrap()),
        ("never", PatternSet::from_strs(&["\u{7f}"]).unwrap()),
        (
            "one-byte",
            PatternSet::from_strs(&["e", "he", "the"]).unwrap(),
        ),
        ("edge", PatternSet::new(edge).unwrap()),
        (
            "longest",
            PatternSet::new([longest, b"the".to_vec(), b"t".to_vec()]).unwrap(),
        ),
    ];
    let cfg = GpuConfig::gtx285();
    let params = KernelParams::defaults_for(&cfg);
    for (name, ps) in dictionaries {
        let want = naive::find_all(&ps, &text);
        let ac = AcAutomaton::build(&ps);
        let m = GpuAcMatcher::new(cfg, params, ac.clone()).unwrap();
        if name == "longest" {
            assert_eq!(ac.required_overlap(), 8_192);
            assert_eq!(m.pfac_limit(Approach::SharedDiagonal), Some(3_840));
            assert!(want.iter().any(|w| w.end - w.start == 8_193));
        }
        assert_eq!(want.is_empty(), name == "never", "{name}");
        for approach in [Approach::Pfac, Approach::PfacStaged] {
            for armed in [false, true] {
                if armed {
                    m.set_fault_plan(FaultPlan::none());
                }
                let run = m.run(&text, approach).unwrap();
                if armed {
                    m.clear_fault_plan();
                }
                assert_eq!(
                    run.matches, want,
                    "{name} {approach:?}, faults armed: {armed}"
                );
            }
            let counted = m.run_counting(&text, approach).unwrap();
            assert!(counted.matches.is_empty());
            assert_eq!(
                counted.match_events,
                pfac_events(&want),
                "{name} {approach:?}"
            );
            assert_eq!(
                counted.readback_bytes,
                walk_frame_bytes(&ac, &want),
                "{name} {approach:?}"
            );
        }
    }
}

/// The delta-coded frame costs at most two words per event (a thread word
/// and an event word) on sparse and tiny dictionaries over corpus text:
/// never more than `36 + 8 × match_events` bytes, the budget of one
/// 8-byte record per event plus the frame. Both PFAC modes read back
/// exactly one word per walk that matched.
#[test]
fn readback_frames_stay_within_two_words_per_event() {
    let text = TextGenerator::new(3).generate(256 << 10);
    let elsewhere = TextGenerator::new(11).generate(64 << 10);
    let sparse = extract_patterns(
        &elsewhere,
        &ExtractConfig {
            min_len: 8,
            ..ExtractConfig::paper_default(200, 5)
        },
    );
    let tiny = PatternSet::from_strs(&["the", "of"]).unwrap();
    // DEL never occurs in generated text: an empty, 36-byte frame.
    let never = PatternSet::from_strs(&["\u{7f}"]).unwrap();
    let cfg = GpuConfig::gtx285();
    for (name, ps) in [("sparse", sparse), ("tiny", tiny), ("never", never)] {
        let ac = AcAutomaton::build(&ps);
        let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac.clone()).unwrap();
        let mut found = ac.find_all(&text);
        found.sort_unstable();
        for approach in Approach::all() {
            let run = m.run_counting(&text, approach).unwrap();
            let bound = 36 + 8 * run.match_events;
            assert!(
                run.readback_bytes <= bound,
                "{name} {approach:?}: {} frame bytes for {} events",
                run.readback_bytes,
                run.match_events
            );
            if approach.pfac_mode().is_some() {
                assert_eq!(
                    run.readback_bytes,
                    walk_frame_bytes(&ac, &found),
                    "{name} {approach:?}: not one word per walk"
                );
            }
            if name == "never" {
                assert_eq!(
                    (run.match_events, run.readback_bytes),
                    (0, 36),
                    "{approach:?}"
                );
            } else {
                assert!(run.match_events > 0, "{name} {approach:?} matched nothing");
            }
        }
    }
}
