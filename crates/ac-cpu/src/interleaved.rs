//! Interleaved multi-stream matching — the single-core ILP technique of
//! the paper's Cell-processor related work (Scarpazza, Villa & Petrini):
//! walk K chunks of the input through the DFA *in one loop*, so that the
//! K independent table loads are all in flight at once and the core's
//! memory-level parallelism hides latency that a single dependent walk
//! cannot.
//!
//! This is the CPU-side analogue of the GPU's multithreaded latency
//! hiding (paper Fig. 19): same idea, instruction window instead of warp
//! scheduler. Uses the same X-overlap chunking contract as every other
//! parallel matcher in the workspace, so results are exactly-once and
//! bit-identical to serial.

use ac_core::chunked::ChunkPlan;
use ac_core::{AcAutomaton, AcError, Match};

/// Find all matches walking `ways` interleaved streams.
///
/// `ways` is clamped to the number of chunks; 4–8 is the sweet spot on
/// most cores (beyond the load-buffer depth it stops helping).
pub fn interleaved_find_all(
    ac: &AcAutomaton,
    text: &[u8],
    ways: usize,
) -> Result<Vec<Match>, AcError> {
    if ways == 0 {
        return Err(AcError::ZeroWorkers);
    }
    if text.is_empty() {
        return Ok(Vec::new());
    }
    // One chunk per way, sized to cover the text.
    let chunk_size = text.len().div_ceil(ways);
    let plan = ChunkPlan::for_automaton(text.len(), chunk_size, ac)?;
    let k = plan.chunk_count();
    let stt = ac.stt();

    let mut state = vec![0u32; k];
    let mut pos: Vec<usize> = (0..k).map(|i| plan.chunk(i).start).collect();
    let ends: Vec<usize> = (0..k).map(|i| plan.chunk(i).scan_end).collect();
    let owned: Vec<(usize, usize)> = (0..k)
        .map(|i| (plan.chunk(i).start, plan.chunk(i).end))
        .collect();

    let mut out = Vec::new();
    let mut live = k;
    while live > 0 {
        live = 0;
        // The interleaved hot loop: K independent next-state loads per
        // iteration. (The compiler keeps the K states in registers; the
        // loads don't depend on each other.)
        for i in 0..k {
            if pos[i] >= ends[i] {
                continue;
            }
            live += 1;
            let b = text[pos[i]];
            let s = stt.next(state[i], b);
            state[i] = s;
            pos[i] += 1;
            if stt.is_match(s) {
                // Exactly-once: only matches starting in the owned range.
                let before = out.len();
                ac.expand_outputs(s, pos[i], &mut out);
                let (lo, hi) = owned[i];
                let kept = retain_owned(&mut out[before..], lo, hi);
                out.truncate(before + kept);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// In-place partition of the tail slice keeping owned matches; returns the
/// kept count.
fn retain_owned(tail: &mut [Match], lo: usize, hi: usize) -> usize {
    let mut keep = 0;
    for i in 0..tail.len() {
        if tail[i].start >= lo && tail[i].start < hi {
            tail.swap(keep, i);
            keep += 1;
        }
    }
    keep
}

/// Count matches only — the bench loop (no allocation per match).
pub fn interleaved_count(ac: &AcAutomaton, text: &[u8], ways: usize) -> Result<u64, AcError> {
    Ok(interleaved_find_all(ac, text, ways)?.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;
    use proptest::prelude::*;

    fn ac(pats: &[&str]) -> AcAutomaton {
        AcAutomaton::build(&PatternSet::from_strs(pats).unwrap())
    }

    #[test]
    fn equals_serial_on_paper_example() {
        let ac = ac(&["he", "she", "his", "hers"]);
        let text = b"ushers rush; his hers flourish";
        let mut want = ac.find_all(text);
        want.sort();
        for ways in [1, 2, 3, 4, 8, 64] {
            assert_eq!(
                interleaved_find_all(&ac, text, ways).unwrap(),
                want,
                "ways={ways}"
            );
        }
    }

    #[test]
    fn zero_ways_rejected_and_empty_ok() {
        let ac = ac(&["x"]);
        assert_eq!(
            interleaved_find_all(&ac, b"xx", 0),
            Err(AcError::ZeroWorkers)
        );
        assert!(interleaved_find_all(&ac, b"", 4).unwrap().is_empty());
    }

    #[test]
    fn more_ways_than_bytes() {
        let ac = ac(&["a"]);
        let m = interleaved_find_all(&ac, b"aa", 16).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn count_matches_find() {
        let ac = ac(&["ab", "b"]);
        let text = b"ababab";
        assert_eq!(
            interleaved_count(&ac, text, 3).unwrap() as usize,
            interleaved_find_all(&ac, text, 3).unwrap().len()
        );
    }

    proptest! {
        /// Interleaved ≡ serial for any way count.
        #[test]
        fn interleaved_equals_serial(
            pats in proptest::collection::vec("[abc]{1,5}", 1..6),
            text in "[abc]{0,300}",
            ways in 1usize..12,
        ) {
            let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            let ac = AcAutomaton::build(&PatternSet::from_strs(&refs).unwrap());
            let got = interleaved_find_all(&ac, text.as_bytes(), ways).unwrap();
            let mut want = ac.find_all(text.as_bytes());
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}
