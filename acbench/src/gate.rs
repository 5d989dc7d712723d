//! The correctness gate: every result the benchmark times is compared
//! with an oracle, and every mismatch is counted and described.

use ac_core::Match;
use std::fmt::Display;

/// At most this many mismatch descriptions are kept.
const MAX_NOTES: usize = 8;

/// Tally of checked results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gate {
    /// Results checked.
    pub attempted: u64,
    /// Results that differed from their oracle, plus errors.
    pub failed: u64,
    /// The first differing match of the first few failures.
    pub notes: Vec<String>,
}

impl Gate {
    /// Check `got` against `want` (both in the same order). Returns
    /// whether they agree.
    pub fn check(&mut self, what: &str, got: &[Match], want: &[Match]) -> bool {
        self.attempted += 1;
        if got == want {
            return true;
        }
        let i = got
            .iter()
            .zip(want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        self.fail(format!(
            "{what}: {} matches, oracle has {}; first difference at #{i}: got {:?}, want {:?}",
            got.len(),
            want.len(),
            got.get(i),
            want.get(i)
        ));
        false
    }

    /// Record a check that failed for a reason other than a match list.
    pub fn fail(&mut self, note: impl Display) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note.to_string());
        }
    }

    /// Record an equality check of two simulated values that must agree.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: &T, b: &T) {
        self.attempted += 1;
        if a != b {
            self.fail(format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// True while nothing has failed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}
