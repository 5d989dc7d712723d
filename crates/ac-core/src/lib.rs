//! # ac-core — Aho-Corasick automata
//!
//! This crate implements the classic Aho-Corasick (AC) multi-pattern matching
//! algorithm exactly as described in Aho & Corasick (CACM 1975) and as used by
//! Tran, Lee, Hong & Choi, *"High Throughput Parallel Implementation of
//! Aho-Corasick Algorithm on a GPU"* (IPPS 2013):
//!
//! * [`trie`] — the keyword trie (the *goto* function `g`),
//! * [`nfa`] — the failure function `f` and output function `output`
//!   (the NFA form of the machine, paper Fig. 1),
//! * [`dfa`] — the deterministic form where goto and failure are merged into
//!   a single next-move function `δ` (paper Figs. 2–3),
//! * [`stt`] — the dense 2-D **State Transition Table** with 256 symbol
//!   columns plus one match-flag column (paper Fig. 5). This is the exact
//!   structure the paper stores in GPU texture memory,
//! * [`matcher`] — serial matchers over the DFA/STT,
//! * [`chunked`] — input partitioning with the paper's *X-byte overlap* so
//!   that chunk-parallel matching finds patterns straddling chunk borders,
//! * [`pfac`] — the Parallel Failureless AC variant (Lin et al.), used as a
//!   related-work baseline,
//! * [`naive`] — an O(n·m) brute-force oracle used by the test suites.
//!
//! ## Quick example
//!
//! ```
//! use ac_core::{AcAutomaton, PatternSet};
//!
//! let patterns = PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap();
//! let ac = AcAutomaton::build(&patterns);
//! let matches = ac.find_all(b"ushers");
//! // "she" and "he" end at offset 4, "hers" ends at offset 6.
//! assert_eq!(matches.len(), 3);
//! ```

pub mod analysis;
pub mod chunked;
pub mod dfa;
pub mod dot;
pub mod error;
pub mod matcher;
pub mod naive;
pub mod nfa;
pub mod ownership;
pub mod pattern;
pub mod pfac;
pub mod stt;
pub mod trie;

pub use chunked::{Chunk, ChunkPlan};
pub use dfa::Dfa;
pub use error::AcError;
pub use matcher::{Match, StreamMatcher};
pub use nfa::NfaTables;
pub use ownership::StateOwnership;
pub use pattern::{PatternId, PatternSet};
pub use pfac::PfacAutomaton;
pub use stt::{Stt, MATCH_COLUMN, STT_COLUMNS};
pub use trie::Trie;

use serde::{Deserialize, Serialize};

/// A fully built Aho-Corasick machine: the deterministic automaton (as an
/// [`Stt`]), the per-state output sets, and the pattern metadata needed to
/// expand matches and size chunk overlaps.
///
/// This is the host-side object from which every matcher in the workspace —
/// serial, multithreaded CPU, and the simulated-GPU kernels — is derived, so
/// all implementations are guaranteed to run the *same* automaton.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AcAutomaton {
    stt: Stt,
    /// For each state, the ids of patterns that end at that state
    /// (the `output` function of the paper, flattened).
    outputs: OutputTable,
    patterns: PatternSet,
}

impl AcAutomaton {
    /// Build the automaton: trie → failure links → DFA → dense STT.
    ///
    /// This is "phase 1" of the paper (§II); the paper runs it once on a
    /// single CPU core and excludes it from all timing measurements, which is
    /// why construction speed is not a tuning target here.
    pub fn build(patterns: &PatternSet) -> Self {
        let trie = Trie::build(patterns);
        let nfa = NfaTables::build(&trie);
        let dfa = Dfa::build(&trie, &nfa);
        let stt = Stt::from_dfa(&dfa);
        let outputs = OutputTable::from_nfa(&nfa);
        AcAutomaton {
            stt,
            outputs,
            patterns: patterns.clone(),
        }
    }

    /// The dense state-transition table (what the GPU stores in texture
    /// memory).
    pub fn stt(&self) -> &Stt {
        &self.stt
    }

    /// Per-state pattern-output table.
    pub fn outputs(&self) -> &OutputTable {
        &self.outputs
    }

    /// The patterns this automaton was built from.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.stt.state_count()
    }

    /// The chunk overlap the paper calls *X*: with chunked parallel matching
    /// each thread must scan `X` extra bytes past its chunk so patterns
    /// straddling the boundary are still found. `max_len - 1` bytes suffice
    /// (a match starting on the last byte of a chunk ends `max_len - 1`
    /// bytes later); the paper conservatively uses `max_len`.
    pub fn required_overlap(&self) -> usize {
        self.patterns.max_len().saturating_sub(1)
    }

    /// Find all matches in `text`, serially. Each match is reported exactly
    /// once as `(pattern id, start, end)` with `end` exclusive.
    pub fn find_all(&self, text: &[u8]) -> Vec<Match> {
        matcher::find_all(self, text)
    }

    /// Expand the output set of `state` into matches ending at byte offset
    /// `end` (exclusive). Used by every parallel matcher when the STT's
    /// match-flag column is set.
    pub fn expand_outputs(&self, state: u32, end: usize, sink: &mut Vec<Match>) {
        for &pid in self.outputs.patterns_at(state) {
            let len = self.patterns.len_of(pid);
            sink.push(Match {
                pattern: pid,
                start: end - len,
                end,
            });
        }
    }
}

/// Flattened per-state output sets: `patterns_at(state)` yields the ids of
/// all patterns whose occurrence ends when the DFA enters `state`.
///
/// Stored as a CSR-style (offsets, data) pair so the table is two contiguous
/// allocations regardless of state count — the layout the GPU host code can
/// copy around cheaply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutputTable {
    offsets: Vec<u32>,
    data: Vec<PatternId>,
}

impl OutputTable {
    /// Build from the NFA's per-state output lists.
    pub fn from_nfa(nfa: &NfaTables) -> Self {
        let mut offsets = Vec::with_capacity(nfa.state_count() + 1);
        let mut data = Vec::new();
        offsets.push(0u32);
        for s in 0..nfa.state_count() {
            data.extend_from_slice(nfa.outputs_of(s as u32));
            offsets.push(data.len() as u32);
        }
        OutputTable { offsets, data }
    }

    /// Pattern ids ending at `state`.
    pub fn patterns_at(&self, state: u32) -> &[PatternId] {
        let s = state as usize;
        &self.data[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Total number of (state, pattern) output entries.
    pub fn total_outputs(&self) -> usize {
        self.data.len()
    }

    /// Number of states covered by the table.
    pub fn state_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_patterns() -> PatternSet {
        PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap()
    }

    #[test]
    fn paper_example_ushers() {
        // §II of the paper walks "ushers" through the machine: outputs are
        // {he, she} at position 4 and {hers} at position 6.
        let ac = AcAutomaton::build(&paper_patterns());
        let mut m = ac.find_all(b"ushers");
        m.sort();
        let described: Vec<(&str, usize)> = m
            .iter()
            .map(|mm| (ac.patterns().as_str(mm.pattern), mm.end))
            .collect();
        assert!(described.contains(&("he", 4)));
        assert!(described.contains(&("she", 4)));
        assert!(described.contains(&("hers", 6)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn paper_state_count() {
        // The paper's example machine (Fig. 1/Fig. 3) has states 0..=9.
        let ac = AcAutomaton::build(&paper_patterns());
        assert_eq!(ac.state_count(), 10);
    }

    #[test]
    fn required_overlap_is_max_len_minus_one() {
        let ac = AcAutomaton::build(&paper_patterns());
        assert_eq!(ac.required_overlap(), 3); // "hers" has length 4
    }

    #[test]
    fn expand_outputs_computes_starts() {
        let ac = AcAutomaton::build(&paper_patterns());
        // Find the state reached by "she" and expand it.
        let stt = ac.stt();
        let mut s = 0u32;
        for &b in b"she" {
            s = stt.next(s, b);
        }
        assert!(stt.is_match(s));
        let mut sink = Vec::new();
        ac.expand_outputs(s, 3, &mut sink);
        sink.sort();
        assert_eq!(sink.len(), 2); // "she" and "he"
        assert!(sink.iter().any(|m| m.start == 0 && m.end == 3));
        assert!(sink.iter().any(|m| m.start == 1 && m.end == 3));
    }

    #[test]
    fn empty_text_no_matches() {
        let ac = AcAutomaton::build(&paper_patterns());
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let ac = AcAutomaton::build(&paper_patterns());
        let json = serde_json::to_string(&ac).unwrap();
        let back: AcAutomaton = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.find_all(b"ushers hers his"),
            ac.find_all(b"ushers hers his")
        );
    }

    #[test]
    fn output_table_shape() {
        let ac = AcAutomaton::build(&paper_patterns());
        let t = ac.outputs();
        assert_eq!(t.state_count(), ac.state_count());
        // 4 patterns, but "he" also ends at the "she" state → 5 entries.
        assert_eq!(t.total_outputs(), 5);
    }
}
