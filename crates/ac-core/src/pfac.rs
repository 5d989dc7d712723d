//! Parallel Failureless Aho-Corasick (PFAC) — Lin et al., GLOBECOM 2010.
//!
//! The paper's related-work section (§IV.A) describes PFAC: remove all
//! failure transitions and instead start one logical thread at *every byte*
//! of the input; each thread walks the pure goto trie until no transition
//! exists, reporting any accepting trie nodes it passes. Matches are
//! anchored at the thread's start byte, so no failure machinery and no
//! chunk overlap are needed.
//!
//! We implement it as a baseline to compare scheduling/memory behaviour
//! against the paper's chunked approach (the `repro ablation-pfac`
//! experiment).

use crate::matcher::Match;
use crate::pattern::{PatternId, PatternSet};
use crate::trie::{Trie, ALPHABET, NO_TRANSITION};
use serde::{Deserialize, Serialize};

/// The failureless automaton: the goto trie plus per-state pattern ids that
/// terminate there (no failure closure — every occurrence is discovered by
/// the thread anchored at its start position, so closure is unnecessary).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PfacAutomaton {
    /// Flattened `state_count × 256` goto table; [`NO_TRANSITION`] = stop.
    goto: Vec<u32>,
    /// CSR per-state terminal pattern lists.
    term_offsets: Vec<u32>,
    term_data: Vec<PatternId>,
    /// Per state, its nearest proper ancestor at which a pattern
    /// terminates, or [`NO_TRANSITION`].
    term_link: Vec<u32>,
    state_count: usize,
}

impl PfacAutomaton {
    /// Build from a pattern set (via the shared trie builder).
    pub fn build(patterns: &PatternSet) -> Self {
        let trie = Trie::build(patterns);
        Self::from_trie(&trie)
    }

    /// Build from an already-constructed trie.
    pub fn from_trie(trie: &Trie) -> Self {
        let n = trie.state_count();
        let mut goto = vec![NO_TRANSITION; n * ALPHABET];
        let mut term_offsets = Vec::with_capacity(n + 1);
        let mut term_data = Vec::new();
        let mut term_link = vec![NO_TRANSITION; n];
        term_offsets.push(0u32);
        // Children get larger ids than their parents, so a parent's link
        // is final before its children read it.
        for s in 0..n as u32 {
            let link = if trie.terminal_patterns(s).is_empty() {
                term_link[s as usize]
            } else {
                s
            };
            for (a, c) in trie.children_of(s) {
                goto[s as usize * ALPHABET + a as usize] = c;
                term_link[c as usize] = link;
            }
            term_data.extend_from_slice(trie.terminal_patterns(s));
            term_offsets.push(term_data.len() as u32);
        }
        PfacAutomaton {
            goto,
            term_offsets,
            term_data,
            term_link,
            state_count: n,
        }
    }

    /// Goto transition (no failures): next state or [`NO_TRANSITION`].
    #[inline]
    pub fn goto(&self, state: u32, symbol: u8) -> u32 {
        self.goto[state as usize * ALPHABET + symbol as usize]
    }

    /// Patterns terminating exactly at `state`.
    #[inline]
    pub fn terminal(&self, state: u32) -> &[PatternId] {
        let s = state as usize;
        &self.term_data[self.term_offsets[s] as usize..self.term_offsets[s + 1] as usize]
    }

    /// The nearest proper trie ancestor of `state` at which a pattern
    /// terminates, if any. A walk that ends its matches in `state` passed
    /// exactly `state` (when terminal) and this chain of ancestors, so a
    /// walk's deepest match names all of its matches.
    #[inline]
    pub fn terminal_ancestor(&self, state: u32) -> Option<u32> {
        let link = self.term_link[state as usize];
        (link != NO_TRANSITION).then_some(link)
    }

    /// Every pattern a walk anchored at `anchor` matched when its deepest
    /// match is `state`: the terminal patterns of `state` and of each of
    /// its terminal ancestors, each spanning `anchor..anchor + len`.
    pub fn walk_matches(
        &self,
        patterns: &PatternSet,
        anchor: usize,
        state: u32,
        sink: &mut Vec<Match>,
    ) {
        let mut at = Some(state);
        while let Some(s) = at {
            for &pid in self.terminal(s) {
                sink.push(Match {
                    pattern: pid,
                    start: anchor,
                    end: anchor + patterns.len_of(pid),
                });
            }
            at = self.terminal_ancestor(s);
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The work of one PFAC thread anchored at `start`: walk the trie until
    /// the first missing transition, reporting all terminal states passed.
    pub fn scan_from(&self, text: &[u8], start: usize, sink: &mut Vec<Match>) {
        let mut state = 0u32;
        for (i, &b) in text[start..].iter().enumerate() {
            state = self.goto(state, b);
            if state == NO_TRANSITION {
                return;
            }
            for &pid in self.terminal(state) {
                sink.push(Match {
                    pattern: pid,
                    start,
                    end: start + i + 1,
                });
            }
        }
    }

    /// Serial reference execution: a logical thread per byte (the GPU
    /// version in `ac-gpu` schedules these across simulated warps).
    pub fn find_all(&self, text: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        for start in 0..text.len() {
            self.scan_from(text, start, &mut out);
        }
        out.sort();
        out
    }

    /// Average number of trie steps a PFAC thread survives on `text` — the
    /// quantity that determines PFAC's thread-divergence cost on a GPU.
    pub fn mean_walk_length(&self, text: &[u8]) -> f64 {
        if text.is_empty() {
            return 0.0;
        }
        let mut steps = 0u64;
        for start in 0..text.len() {
            let mut state = 0u32;
            for &b in &text[start..] {
                state = self.goto(state, b);
                if state == NO_TRANSITION {
                    break;
                }
                steps += 1;
            }
        }
        steps as f64 / text.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, AcAutomaton};
    use proptest::prelude::*;

    fn pats(strs: &[&str]) -> PatternSet {
        PatternSet::from_strs(strs).unwrap()
    }

    #[test]
    fn paper_example_equivalence() {
        let ps = pats(&["he", "she", "his", "hers"]);
        let pfac = PfacAutomaton::build(&ps);
        let ac = AcAutomaton::build(&ps);
        let text = b"ushers and his hers she";
        let mut want = ac.find_all(text);
        want.sort();
        assert_eq!(pfac.find_all(text), want);
    }

    #[test]
    fn no_failure_transitions_stop_walks() {
        let ps = pats(&["abc"]);
        let pfac = PfacAutomaton::build(&ps);
        // From the root, 'x' stops immediately.
        assert_eq!(pfac.goto(0, b'x'), NO_TRANSITION);
        let mut sink = Vec::new();
        pfac.scan_from(b"abx", 0, &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn anchored_matches_report_correct_spans() {
        let ps = pats(&["aa", "aaa"]);
        let pfac = PfacAutomaton::build(&ps);
        let ms = pfac.find_all(b"aaaa");
        // "aa" at 0,1,2 and "aaa" at 0,1 → 5 matches.
        assert_eq!(ms.len(), 5);
        for m in &ms {
            assert_eq!(&b"aaaa"[m.start..m.end], ps.get(m.pattern));
        }
    }

    #[test]
    fn mean_walk_length_bounds() {
        let ps = pats(&["the"]);
        let pfac = PfacAutomaton::build(&ps);
        let l = pfac.mean_walk_length(b"the cat the dog");
        assert!(l > 0.0 && l <= 3.0);
        assert_eq!(pfac.mean_walk_length(b""), 0.0);
    }

    #[test]
    fn terminal_ancestors_chain_a_walks_matches() {
        let ps = pats(&["a", "abc", "abcd", "b"]);
        let pfac = PfacAutomaton::build(&ps);
        let walk = |s: &[u8]| s.iter().fold(0, |st, &b| pfac.goto(st, b));
        let (a, ab, abcd) = (walk(b"a"), walk(b"ab"), walk(b"abcd"));
        assert_eq!(pfac.terminal_ancestor(a), None);
        assert_eq!(pfac.terminal_ancestor(ab), Some(a));
        assert_eq!(pfac.terminal_ancestor(abcd), Some(walk(b"abc")));
        let mut sink = Vec::new();
        pfac.walk_matches(&ps, 5, abcd, &mut sink);
        sink.sort();
        let mut want = Vec::new();
        pfac.scan_from(b".....abcdx", 5, &mut want);
        want.sort();
        assert_eq!(sink, want);
    }

    proptest! {
        /// PFAC ≡ classic AC on arbitrary inputs.
        #[test]
        fn pfac_equals_naive(
            strs in proptest::collection::vec("[ab]{1,5}", 1..6),
            text in "[ab]{0,150}",
        ) {
            let refs: Vec<&str> = strs.iter().map(String::as_str).collect();
            let ps = PatternSet::from_strs(&refs).unwrap();
            let pfac = PfacAutomaton::build(&ps);
            let want = naive::find_all(&ps, text.as_bytes());
            prop_assert_eq!(pfac.find_all(text.as_bytes()), want.clone());
            // Each walk's deepest match alone names all of its matches.
            let text = text.as_bytes();
            let mut walks = Vec::new();
            for anchor in 0..text.len() {
                let mut deepest = None;
                let mut state = 0;
                for &b in &text[anchor..] {
                    state = pfac.goto(state, b);
                    if state == NO_TRANSITION {
                        break;
                    }
                    if !pfac.terminal(state).is_empty() {
                        deepest = Some(state);
                    }
                }
                if let Some(s) = deepest {
                    pfac.walk_matches(&ps, anchor, s, &mut walks);
                }
            }
            walks.sort();
            prop_assert_eq!(walks, want);
        }
    }
}
