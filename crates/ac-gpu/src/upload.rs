//! Device-side automaton layout: the STT as a 2-D texture.
//!
//! The paper's Fig. 5 table is uploaded verbatim — one row per state,
//! column 0 the match flag, columns 1..=256 the next states — with one
//! standard device-side refinement: **each transition word also describes
//! its *target* state**, so the kernels learn everything they need about
//! the state they just entered from the same texel that named it, one
//! texture fetch per input byte, like the PFAC-family CUDA
//! implementations. A dense transition word packs:
//!
//! * bits 0..23 — the target state id ([`DENSE_STATE_MASK`]);
//! * bits 23..31 — the target's *longest* output length
//!   ([`longest_output_len`]), saturated at [`LEN_SATURATED`], which
//!   means "255 or more" (zero for non-matching targets);
//! * bit 31 — the target is a match state ([`MATCH_BIT`]).
//!
//! The length lets a chunked kernel drop, in place, a match event whose
//! outputs all start in the next thread's chunk (see
//! `kernels::MatchLanes`). 23 id bits address 2²³ states, whose dense
//! table (8.6 GB) is already far past any modelled device; larger automata
//! are a typed [`UploadError`]. Column 0 is retained so the device table
//! remains the paper's 257-column structure.
//!
//! The PFAC goto table keeps the plain layout: a 31-bit state id under
//! [`MATCH_BIT`] ([`STATE_MASK`]), since a PFAC thread only reports at its
//! own anchor and has nothing to drop.

use crate::error::UploadError;
use crate::table::HostTableU32;
use ac_core::stt::STT_COLUMNS;
use ac_core::trie::ALPHABET;
use ac_core::{AcAutomaton, PfacAutomaton};

/// Bit carrying the folded match flag in a transition entry.
pub const MATCH_BIT: u32 = 1 << 31;

/// Mask extracting the state id from a PFAC (or banded fat-pointer) entry:
/// every bit below the match flag.
pub const STATE_MASK: u32 = MATCH_BIT - 1;

/// First bit of the longest-output-length field in a dense STT entry.
pub const LEN_SHIFT: u32 = 23;

/// The longest-output-length field's ceiling: a stored 255 means "255 or
/// more", and an event carrying it is never dropped.
pub const LEN_SATURATED: u32 = 0xFF;

/// Mask extracting the state id from a dense STT entry.
pub const DENSE_STATE_MASK: u32 = (1 << LEN_SHIFT) - 1;

/// Sentinel for "no transition" in the PFAC goto texture (fits under
/// [`MATCH_BIT`] and can never be a real state id; construction enforces
/// state counts < 2³¹ − 1).
pub const PFAC_STOP: u32 = STATE_MASK;

/// The target state's longest output length carried by a dense STT entry,
/// saturated at [`LEN_SATURATED`].
#[inline]
pub fn longest_output_len(entry: u32) -> u32 {
    (entry >> LEN_SHIFT) & LEN_SATURATED
}

/// The host-side image of the device STT texture: a typed
/// `state_count × 257` table of packed transition words.
#[derive(Debug, Clone)]
pub struct DeviceStt {
    /// The shaped host table (rows = DFA states, 257 columns).
    pub table: HostTableU32,
}

impl DeviceStt {
    /// Build the device table from a host automaton. Fails if the
    /// automaton has more than 2²³ states (the ids would overflow
    /// [`DENSE_STATE_MASK`]).
    pub fn from_automaton(ac: &AcAutomaton) -> Result<Self, UploadError> {
        let stt = ac.stt();
        let n = stt.state_count();
        check_dense_states(n)?;
        let patterns = ac.patterns();
        // The word each transition into `t` carries besides `t` itself.
        let tag: Vec<u32> = (0..n as u32)
            .map(|t| {
                let longest = ac
                    .outputs()
                    .patterns_at(t)
                    .iter()
                    .map(|&pid| patterns.len_of(pid))
                    .max();
                match longest {
                    Some(len) => MATCH_BIT | (len.min(LEN_SATURATED as usize) as u32) << LEN_SHIFT,
                    None => 0,
                }
            })
            .collect();
        let mut entries = Vec::with_capacity(n * STT_COLUMNS);
        for s in 0..n as u32 {
            entries.push(stt.is_match(s) as u32);
            for a in 0..=255u8 {
                let t = stt.next(s, a);
                entries.push(t | tag[t as usize]);
            }
        }
        Ok(DeviceStt {
            table: HostTableU32::new(entries, n as u32, STT_COLUMNS as u32),
        })
    }

    /// Size in bytes (what the texture binding charges against device
    /// memory).
    pub fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }
}

/// Reject automata whose state ids do not fit [`DENSE_STATE_MASK`].
fn check_dense_states(n: usize) -> Result<(), UploadError> {
    let limit = DENSE_STATE_MASK as u64 + 1;
    if n as u64 > limit {
        return Err(UploadError {
            states: n,
            limit,
            table: "STT",
        });
    }
    Ok(())
}

/// The host-side image of the PFAC goto texture (same 257-column shape;
/// missing transitions hold [`PFAC_STOP`]).
#[derive(Debug, Clone)]
pub struct DevicePfac {
    /// The shaped host table (rows = trie states, 257 columns).
    pub table: HostTableU32,
}

impl DevicePfac {
    /// Build the device goto table from a failureless automaton. Fails if
    /// the trie has too many states to distinguish from [`PFAC_STOP`].
    pub fn from_pfac(pfac: &PfacAutomaton) -> Result<Self, UploadError> {
        let n = pfac.state_count();
        if n as u64 >= PFAC_STOP as u64 {
            return Err(UploadError {
                states: n,
                limit: PFAC_STOP as u64 - 1,
                table: "PFAC",
            });
        }
        let mut entries = Vec::with_capacity(n * STT_COLUMNS);
        for s in 0..n as u32 {
            entries.push(!pfac.terminal(s).is_empty() as u32);
            for a in 0..ALPHABET {
                let t = pfac.goto(s, a as u8);
                entries.push(if t == ac_core::trie::NO_TRANSITION {
                    PFAC_STOP
                } else {
                    let flag = if pfac.terminal(t).is_empty() {
                        0
                    } else {
                        MATCH_BIT
                    };
                    t | flag
                });
            }
        }
        Ok(DevicePfac {
            table: HostTableU32::new(entries, n as u32, STT_COLUMNS as u32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;

    fn ac() -> AcAutomaton {
        AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap())
    }

    #[test]
    fn entries_preserve_transitions_and_fold_flags() {
        let a = ac();
        let dev = DeviceStt::from_automaton(&a).unwrap();
        let stt = a.stt();
        assert_eq!(dev.table.rows() as usize, stt.state_count());
        assert_eq!(dev.table.cols(), 257);
        for s in 0..stt.state_count() as u32 {
            assert_eq!(dev.table.at(s, 0), stt.is_match(s) as u32);
            for sym in 0..=255u8 {
                let e = dev.table.at(s, 1 + sym as u32);
                let t = stt.next(s, sym);
                assert_eq!(e & DENSE_STATE_MASK, t);
                assert_eq!(e & MATCH_BIT != 0, stt.is_match(t));
            }
        }
    }

    #[test]
    fn walking_device_entries_matches_host() {
        let a = ac();
        let dev = DeviceStt::from_automaton(&a).unwrap();
        let text = b"ushers";
        let mut s = 0u32;
        let mut flags = Vec::new();
        for &b in text {
            let e = dev.table.at(s, 1 + b as u32);
            s = e & DENSE_STATE_MASK;
            flags.push(e & MATCH_BIT != 0);
        }
        // "ushers": matches end at positions 4 ("she"/"he") and 6
        // ("hers") → flags at indices 3 and 5.
        assert_eq!(flags, vec![false, false, false, true, false, true]);
    }

    /// The entry reached by walking `word` from the root.
    fn entry_after(dev: &DeviceStt, word: &[u8]) -> u32 {
        let mut e = 0;
        for &b in word {
            e = dev.table.at(e & DENSE_STATE_MASK, 1 + b as u32);
        }
        e
    }

    #[test]
    fn entries_carry_the_targets_longest_output_length() {
        let long = "x".repeat(300);
        let edge = "y".repeat(255);
        let below = "z".repeat(254);
        let ps = PatternSet::from_strs(&["he", "she", "hers", &long, &edge, &below]).unwrap();
        let dev = DeviceStt::from_automaton(&AcAutomaton::build(&ps)).unwrap();
        let len = |w: &str| longest_output_len(entry_after(&dev, w.as_bytes()));
        // Non-matching targets carry no length.
        assert_eq!(len("h"), 0);
        assert_eq!(entry_after(&dev, b"h") & MATCH_BIT, 0);
        assert_eq!(len("he"), 2);
        // "she" outputs she and he: the longest wins.
        assert_eq!(len("she"), 3);
        assert_eq!(len("hers"), 4);
        // 254 fits; 255 and 300 saturate.
        assert_eq!(len(&below), 254);
        assert_eq!(len(&edge), LEN_SATURATED);
        assert_eq!(len(&long), LEN_SATURATED);
        // A saturated length never leaks into the match flag or the id.
        let e = entry_after(&dev, long.as_bytes());
        assert_ne!(e & MATCH_BIT, 0);
        assert!(((e & DENSE_STATE_MASK) as usize) < dev.table.rows() as usize);
    }

    #[test]
    fn state_ids_past_23_bits_are_a_typed_error() {
        let limit = 1u64 << 23;
        assert!(check_dense_states(limit as usize).is_ok());
        let err = check_dense_states(limit as usize + 1).unwrap_err();
        assert_eq!(
            err,
            UploadError {
                states: limit as usize + 1,
                limit,
                table: "STT",
            }
        );
    }

    #[test]
    fn pfac_table_stops_and_flags() {
        let ps = PatternSet::from_strs(&["ab", "abc"]).unwrap();
        let pfac = PfacAutomaton::build(&ps);
        let dev = DevicePfac::from_pfac(&pfac).unwrap();
        // Root on 'z' stops.
        assert_eq!(dev.table.at(0, 1 + b'z' as u32), PFAC_STOP);
        // Walk "abc": flags fire at 'b' (ab) and 'c' (abc).
        let mut s = 0u32;
        let mut flags = Vec::new();
        for &b in b"abc" {
            let e = dev.table.at(s, 1 + b as u32);
            assert_ne!(e, PFAC_STOP);
            s = e & STATE_MASK;
            flags.push(e & MATCH_BIT != 0);
        }
        assert_eq!(flags, vec![false, true, true]);
    }

    #[test]
    fn size_accounts_full_table() {
        let dev = DeviceStt::from_automaton(&ac()).unwrap();
        assert_eq!(dev.size_bytes(), 10 * 257 * 4);
    }
}
