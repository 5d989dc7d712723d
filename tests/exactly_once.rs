//! Exactly-once reporting: every GPU kernel reports each occurrence once,
//! so its result equals `ac_core::naive`, for pattern sets built to stress
//! overlapping scan windows.
//!
//! Match events carry only `(end, state)`. Neighbouring threads' windows
//! overlap by `max_len - 1` bytes, so an occurrence that starts in a
//! thread's overlap tail is reported twice, and the host's sort + dedup
//! collapses the copies. Each case runs every kernel twice: with faults
//! disarmed (events go straight to expansion) and with an empty fault
//! plan armed (events go through the framed readback encode/decode).

use ac_core::{naive, AcAutomaton, PatternSet};
use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
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
            }
        }
    }
}
