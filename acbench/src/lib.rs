//! # acbench — end-to-end benchmark of the Aho-Corasick reproduction
//!
//! Every workload runs the same pipeline against the repository's public
//! APIs, at sizes chosen to stress one part of the stack:
//!
//! 1. generate the inputs from the seed ([`spec`]);
//! 2. set up: build the automaton, prepare the simulated-GPU matcher and
//!    warm each kernel once ([`pipeline`]);
//! 3. bulk scan: the serial and 2-thread CPU matchers on the host, then
//!    the paper's kernel and the banded kernel on the simulated GTX 285;
//! 4. serving: an open-loop ladder of arrival rates through
//!    `ac_serve::serve_fleet`.
//!
//! Every result is checked against an oracle ([`gate`]). Each metric
//! names its clock ([`Clock`]): *sim* values are outputs of the GTX 285
//! model, *host* values are wall-clock time on the machine running the
//! benchmark. The two are never mixed in one number.

pub mod compare;
pub mod gate;
pub mod pipeline;
pub mod spans;
pub mod spec;
pub mod stats;

use serde::Value;

/// Which clock a metric was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulated GTX 285: deterministic for a seed.
    Sim,
    /// Wall-clock time on the host.
    Host,
}

impl Clock {
    /// Label printed next to each metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured (never rounded).
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The clock the value was read from.
    pub clock: Clock,
}

impl Metric {
    /// A metric read from the simulated device.
    pub fn sim(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            clock: Clock::Sim,
        }
    }

    /// A metric measured on the host clock.
    pub fn host(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            clock: Clock::Host,
        }
    }
}

/// The result line every run prints last: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Obj(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
}

/// 64-bit FNV-1a over a sequence of byte strings, each length-prefixed so
/// that moving a boundary changes the hash.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in (part.len() as u64).to_le_bytes().iter().chain(part) {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}
