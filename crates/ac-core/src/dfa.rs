//! The deterministic form `δ` of the AC machine (paper §II, Figs. 2–3).
//!
//! The DFA merges the goto and failure functions into a single next-move
//! function: `δ(s, a)` is defined for every state and symbol, so matching
//! makes exactly one transition per input byte — the property the GPU
//! kernels rely on for their fixed per-byte work loop.

use crate::nfa::NfaTables;
use crate::trie::{Trie, ALPHABET, NO_TRANSITION};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Dense next-move function: `delta[s * 256 + a]` is always a valid state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dfa {
    delta: Vec<u32>,
    /// `true` for states with a non-empty (failure-closed) output set.
    accepting: Vec<bool>,
    state_count: usize,
}

impl Dfa {
    /// Build `δ` by BFS over the trie:
    /// `δ(s, a) = g(s, a)` if the goto exists, else `δ(f(s), a)` — which is
    /// already complete for shallower states when `s` is processed in BFS
    /// order. This is Aho-Corasick Algorithm 4.
    pub fn build(trie: &Trie, nfa: &NfaTables) -> Self {
        let n = trie.state_count();
        let mut delta = vec![0u32; n * ALPHABET];
        let accepting: Vec<bool> = (0..n)
            .map(|s| !nfa.outputs_of(s as u32).is_empty())
            .collect();

        // Root row: children where present, loop-back to root elsewhere
        // (g(0, σ) ≠ fail for all σ).
        for (a, slot) in delta.iter_mut().enumerate().take(ALPHABET) {
            let t = trie.goto(0, a as u8);
            *slot = if t == NO_TRANSITION { 0 } else { t };
        }

        let mut queue: VecDeque<u32> = trie.children_of(0).map(|(_, c)| c).collect();
        while let Some(s) = queue.pop_front() {
            let f = nfa.failure_of(s);
            for a in 0..ALPHABET {
                let t = trie.goto(s, a as u8);
                delta[s as usize * ALPHABET + a] = if t == NO_TRANSITION {
                    // f is shallower than s, so its row is complete.
                    delta[f as usize * ALPHABET + a]
                } else {
                    queue.push_back(t);
                    t
                };
            }
        }
        Dfa {
            delta,
            accepting,
            state_count: n,
        }
    }

    /// `δ(state, symbol)` — always defined.
    #[inline]
    pub fn next(&self, state: u32, symbol: u8) -> u32 {
        self.delta[state as usize * ALPHABET + symbol as usize]
    }

    /// Whether entering `state` recognizes at least one pattern.
    #[inline]
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accepting[state as usize]
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Raw transition row for `state` (256 entries). Used by the STT.
    pub fn row(&self, state: u32) -> &[u32] {
        let base = state as usize * ALPHABET;
        &self.delta[base..base + ALPHABET]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSet;

    fn machine(pats: &[&str]) -> (Trie, NfaTables, Dfa) {
        let ps = PatternSet::from_strs(pats).unwrap();
        let trie = Trie::build(&ps);
        let nfa = NfaTables::build(&trie);
        let dfa = Dfa::build(&trie, &nfa);
        (trie, nfa, dfa)
    }

    fn state_of(trie: &Trie, word: &[u8]) -> u32 {
        let mut s = 0;
        for &b in word {
            s = trie.goto(s, b);
        }
        s
    }

    #[test]
    fn paper_delta_walkthrough() {
        // §II DFA walkthrough of "ushers":
        // δ(0,'u')=0, δ(0,'s')=3-ish, δ(s,'h'), δ(sh,'e') accepting,
        // δ(she,'r') = "her" state (fail transition merged in),
        // δ(her,'s') = "hers" accepting.
        let (trie, _, dfa) = machine(&["he", "she", "his", "hers"]);
        assert_eq!(dfa.next(0, b'u'), 0);
        let s1 = dfa.next(0, b's');
        assert_eq!(s1, state_of(&trie, b"s"));
        let s2 = dfa.next(s1, b'h');
        let s3 = dfa.next(s2, b'e');
        assert_eq!(s3, state_of(&trie, b"she"));
        assert!(dfa.is_accepting(s3));
        let s4 = dfa.next(s3, b'r');
        assert_eq!(s4, state_of(&trie, b"her"));
        let s5 = dfa.next(s4, b's');
        assert_eq!(s5, state_of(&trie, b"hers"));
        assert!(dfa.is_accepting(s5));
    }

    #[test]
    fn every_transition_is_valid() {
        let (_, _, dfa) = machine(&["abc", "bca", "cab", "aaa"]);
        for s in 0..dfa.state_count() as u32 {
            for a in 0..=255u8 {
                assert!((dfa.next(s, a) as usize) < dfa.state_count());
            }
        }
    }

    #[test]
    fn dfa_equals_nfa_on_random_walks() {
        // The DFA must visit exactly the same state sequence as running the
        // NFA (goto+failure) — they are two implementations of one machine.
        let (trie, nfa, dfa) = machine(&["he", "she", "his", "hers", "ushers", "sh"]);
        let text = b"she sells seashells; ushers rush hishers";
        let nfa_states: Vec<u32> = nfa.run(&trie, text).map(|(s, _)| s).collect();
        let mut s = 0u32;
        let dfa_states: Vec<u32> = text
            .iter()
            .map(|&b| {
                s = dfa.next(s, b);
                s
            })
            .collect();
        assert_eq!(nfa_states, dfa_states);
    }

    #[test]
    fn accepting_iff_outputs_nonempty() {
        let (trie, nfa, dfa) = machine(&["he", "she"]);
        for s in 0..dfa.state_count() as u32 {
            assert_eq!(dfa.is_accepting(s), !nfa.outputs_of(s).is_empty());
        }
        assert!(dfa.is_accepting(state_of(&trie, b"she")));
        assert!(!dfa.is_accepting(state_of(&trie, b"sh")));
    }

    #[test]
    fn row_is_256_wide() {
        let (_, _, dfa) = machine(&["x"]);
        assert_eq!(dfa.row(0).len(), 256);
        assert_eq!(dfa.row(0)[b'x' as usize], 1);
    }

    #[test]
    fn single_byte_pattern_dfa() {
        let (_, _, dfa) = machine(&["a"]);
        assert_eq!(dfa.state_count(), 2);
        assert!(dfa.is_accepting(dfa.next(0, b'a')));
        // Self-loop on repeated 'a'.
        let s = dfa.next(0, b'a');
        assert_eq!(dfa.next(s, b'a'), s);
    }
}
