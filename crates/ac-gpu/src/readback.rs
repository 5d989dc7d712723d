//! Readback integrity: sentinel + checksum framing of the match-event
//! buffer.
//!
//! The device's answer to a scan is the list of match events, each an
//! 8-byte `(end: u32, state: u32)` record — the (position, state) pair the
//! CUDA implementations write. When fault injection is armed, that list
//! travels to the host through [`gpu_sim::GpuDevice::dma_to_host`], where
//! the plan may flip one bit in flight. This module frames the event list
//! so any single-bit corruption is *detected* rather than silently
//! expanded into wrong matches:
//!
//! ```text
//! magic (4) | n (8) | n × (end u32 | state u32) | event_count (8) | crc32 (4) | sentinel (4)
//! ```
//!
//! `n` is the number of materialized records and `event_count` the total
//! the kernel observed (the two differ in counting mode). [`readback_bytes`]
//! is the frame's exact length, `28 + 8n`; every layer that prices the
//! device→host copy (serving, fleet, what-if) uses it, so
//! the copy the model charges is the buffer this module writes.
//!
//! CRC-32 (IEEE 802.3) detects **every** single-bit error by construction
//! (any `x^k` is not divisible by the generator polynomial), which is
//! exactly the injected fault class; the magic word and tail sentinel
//! additionally catch truncation and framing slips. Verification runs only
//! when faults are armed, keeping the fault-free path untouched.

use crate::kernels::MatchEvent;
use std::fmt;

const MAGIC: u32 = 0x4143_4742; // "ACGB"
const SENTINEL: u32 = 0x5EA1_ED0C;
const EVENT_BYTES: usize = 8; // end u32 + state u32
const HEADER_BYTES: usize = 12; // magic + record count
const COUNT_BYTES: usize = 8; // observed event_count
const TRAILER_BYTES: usize = 8; // crc + sentinel

/// Framed readback bytes for `events` match events: exactly the length of
/// the buffer [`encode`] writes for them, `28 + 8 * events`.
pub fn readback_bytes(events: u64) -> u64 {
    (HEADER_BYTES + COUNT_BYTES + TRAILER_BYTES) as u64 + EVENT_BYTES as u64 * events
}

/// Why a readback buffer was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadbackCorruption {
    /// Too short to hold even the frame.
    Truncated,
    /// The magic word at the head is wrong.
    BadMagic,
    /// The event count does not match the buffer length.
    BadLength,
    /// The CRC-32 over header + events does not match.
    BadChecksum,
    /// The tail sentinel is wrong.
    BadSentinel,
}

impl fmt::Display for ReadbackCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            ReadbackCorruption::Truncated => "buffer truncated",
            ReadbackCorruption::BadMagic => "bad magic word",
            ReadbackCorruption::BadLength => "length mismatch",
            ReadbackCorruption::BadChecksum => "checksum mismatch",
            ReadbackCorruption::BadSentinel => "bad tail sentinel",
        };
        write!(f, "corrupted readback: {what}")
    }
}

impl std::error::Error for ReadbackCorruption {}

/// Serialize events (plus the total observed-event count, which counting
/// mode reports without materializing) into a framed buffer.
pub fn encode(events: &[MatchEvent], event_count: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(readback_bytes(events.len() as u64) as usize);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        buf.extend_from_slice(&ev.end.to_le_bytes());
        buf.extend_from_slice(&ev.state.to_le_bytes());
    }
    buf.extend_from_slice(&event_count.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&SENTINEL.to_le_bytes());
    buf
}

/// Verify and deserialize a framed buffer back into `(events,
/// event_count)`.
pub fn decode(buf: &[u8]) -> Result<(Vec<MatchEvent>, u64), ReadbackCorruption> {
    if buf.len() < readback_bytes(0) as usize {
        return Err(ReadbackCorruption::Truncated);
    }
    let (body, trailer) = buf.split_at(buf.len() - TRAILER_BYTES);
    if u32::from_le_bytes(trailer[4..8].try_into().unwrap()) != SENTINEL {
        return Err(ReadbackCorruption::BadSentinel);
    }
    if u32::from_le_bytes(trailer[0..4].try_into().unwrap()) != crc32(body) {
        return Err(ReadbackCorruption::BadChecksum);
    }
    if u32::from_le_bytes(body[0..4].try_into().unwrap()) != MAGIC {
        return Err(ReadbackCorruption::BadMagic);
    }
    let n = u64::from_le_bytes(body[4..12].try_into().unwrap()) as usize;
    if n.checked_mul(EVENT_BYTES) != Some(body.len() - HEADER_BYTES - COUNT_BYTES) {
        return Err(ReadbackCorruption::BadLength);
    }
    let (records, count) = body[HEADER_BYTES..].split_at(n * EVENT_BYTES);
    let events = records
        .chunks_exact(EVENT_BYTES)
        .map(|r| MatchEvent {
            end: u32::from_le_bytes(r[0..4].try_into().unwrap()),
            state: u32::from_le_bytes(r[4..8].try_into().unwrap()),
        })
        .collect();
    let event_count = u64::from_le_bytes(count.try_into().unwrap());
    Ok((events, event_count))
}

/// CRC-32 (IEEE), bitwise — the buffer is small (one event list), so a
/// table-free implementation keeps this dependency-light.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MatchEvent> {
        vec![
            MatchEvent { end: 17, state: 3 },
            MatchEvent {
                end: u32::MAX,
                state: 9,
            },
            MatchEvent {
                end: 0,
                state: u32::MAX,
            },
        ]
    }

    #[test]
    fn readback_bytes_is_the_encoded_length() {
        let events = sample();
        for n in 0..=events.len() {
            let buf = encode(&events[..n], 99);
            assert_eq!(readback_bytes(n as u64), buf.len() as u64);
        }
        assert_eq!(readback_bytes(0), 28);
        assert_eq!(readback_bytes(1000), 28 + 8 * 1000);
    }

    #[test]
    fn roundtrip() {
        let events = sample();
        let buf = encode(&events, 123);
        let (back, count) = decode(&buf).unwrap();
        assert_eq!(back, events);
        assert_eq!(count, 123);
        // Empty list round-trips too.
        let buf = encode(&[], 0);
        let (back, count) = decode(&buf).unwrap();
        assert!(back.is_empty());
        assert_eq!(count, 0);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let buf = encode(&sample(), 7);
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bad).is_err(), "flip at bit {bit} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let buf = encode(&sample(), 7);
        for cut in 0..buf.len() {
            assert!(
                decode(&buf[..cut]).is_err(),
                "truncation to {cut} went undetected"
            );
        }
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
