//! Readback integrity and size: the delta-coded word frames of the match
//! events, with their sentinel and checksum.
//!
//! The device's answer to a scan is its match events. They leave the
//! device as 32-bit words in one of two frames, both laid out as
//!
//! ```text
//! magic (4) | w (8) | chunk_bytes (4) | s (4) | w × word u32 | event_count (8) | crc32 (4) | sentinel (4)
//! ```
//!
//! A word splits into a delta field (its high `32 - s` bits) and a
//! payload (its low `s` bits). In both frames the all-zero word advances
//! the cursor by the largest delta; only a gap that overflows the delta
//! field needs it.
//!
//! **The event frame** (the chunked kernels) carries one word per event,
//! the value the reporting lane's result store writes. The words come in
//! thread order and are delta-coded within each reporting thread:
//!
//! * a *thread word* has delta 0 and payload `k ≥ 1`: the events that
//!   follow belong to the thread `k` after the previous one (the first
//!   thread word names thread `k - 1`);
//! * an *event word* has delta `≥ 1` and the match state as payload: the
//!   event ends `delta` bytes after the same thread's previous event, or
//!   after the thread's owned start `thread × chunk_bytes` for its first.
//!
//! **The walk frame** (both PFAC modes) carries one word per walk that
//! matched: `(anchor - previous anchor) << s | deepest state`, in anchor
//! order, the first anchor counting from −1. A PFAC thread stores every
//! match into its one result slot, so the slot ends up holding its walk's
//! deepest match, and every shorter match at that anchor is a terminal
//! trie ancestor of that state: the host expands the word through
//! `PfacAutomaton::walk_matches`. The slot holds the state; the frame
//! adds the anchor delta when it compacts the slots. Its `chunk_bytes` is
//! 1 (one anchor per thread).
//!
//! `s = max(16, bits(state_count - 1))` ([`WordCoding::new`]): the floor
//! lets one thread word skip 65,535 threads, and dense state ids stay
//! below 2²³, so deltas keep at least 9 bits. The header records `s` and
//! `chunk_bytes`, and the magic names the frame, so [`decode`] needs no
//! plan. `w` counts words and `event_count` the events the kernel
//! observed (counting mode observes them without materializing). A frame
//! is `36 + 4w` bytes.
//!
//! The kernels keep the frame's length as a tally, never the frame: each
//! lane's `ThreadTally` counts its event and gap words as it reports,
//! and `FrameTally` adds the thread words (or, for walks, each walk's
//! word and gap words) in thread order. The runner reports that length as
//! `GpuRun::readback_bytes`, and every layer that prices the device→host
//! copy (serving, fleet, what-if) uses it, so the copy the model charges
//! is the buffer [`encode`] writes.
//!
//! CRC-32 (IEEE 802.3) detects **every** single-bit error by construction
//! (any `x^k` is not divisible by the generator polynomial), which is
//! exactly the injected fault class; the magic word, the word count and
//! the tail sentinel additionally catch truncation and framing slips. The
//! frame is built and verified only when faults are armed, keeping the
//! fault-free path a tally.

use crate::kernels::MatchEvent;
use std::fmt;

const MAGIC: u32 = 0x4143_4757; // "ACGW"
const WALK_MAGIC: u32 = 0x4143_4750; // "ACGP"
const SENTINEL: u32 = 0x5EA1_ED0C;
const WORD_BYTES: usize = 4;
const HEADER_BYTES: usize = 20; // magic + word count + chunk_bytes + s
const COUNT_BYTES: usize = 8; // observed event_count
const TRAILER_BYTES: usize = 8; // crc + sentinel
const FRAME_BYTES: usize = HEADER_BYTES + COUNT_BYTES + TRAILER_BYTES;
/// The payload floor: one thread word skips up to `2^16 - 1` threads.
const MIN_STATE_BITS: u32 = 16;

/// The exact length of a frame of `words` words: `36 + 4 * words`.
fn frame_bytes(words: u64) -> u64 {
    FRAME_BYTES as u64 + WORD_BYTES as u64 * words
}

/// How a frame codes its words: event or walk words, the owned chunk each
/// thread's first delta counts from, and the payload width `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordCoding {
    chunk_bytes: u32,
    state_bits: u32,
    walks: bool,
}

impl WordCoding {
    /// The event-frame coding for an automaton of `states` states scanned
    /// in `chunk_bytes`-byte owned chunks: `s = max(16, bits(states -
    /// 1))`.
    pub fn new(chunk_bytes: u32, states: usize) -> Self {
        let bits = usize::BITS - states.saturating_sub(1).leading_zeros();
        Self::with_state_bits(chunk_bytes, bits.max(MIN_STATE_BITS))
    }

    /// The walk-frame coding for a trie of `states` states walked from
    /// one anchor per thread.
    pub fn walks(states: usize) -> Self {
        WordCoding {
            walks: true,
            ..Self::new(1, states)
        }
    }

    /// A coding with an explicit payload width.
    ///
    /// # Panics
    /// When `state_bits` is outside `16..=31`: the delta field needs at
    /// least one bit.
    pub fn with_state_bits(chunk_bytes: u32, state_bits: u32) -> Self {
        assert!(
            (MIN_STATE_BITS..32).contains(&state_bits),
            "payload width {state_bits} outside 16..=31"
        );
        WordCoding {
            chunk_bytes,
            state_bits,
            walks: false,
        }
    }

    /// The largest payload: a state id, or a thread word's skip.
    fn max_payload(&self) -> u64 {
        (1 << self.state_bits) - 1
    }

    /// The largest delta an event word holds, and the advance of a zero
    /// word.
    fn max_delta(&self) -> u64 {
        (1 << (32 - self.state_bits)) - 1
    }

    /// Account an event of `tally`'s thread ending at `end` in `state`,
    /// and return the value the lane's result store writes. In an event
    /// frame that is the event word, and the event costs one word plus
    /// one zero word per full `max_delta` its gap overflows. In a walk
    /// frame it is the state: the thread's last report is its walk's
    /// deepest match, and the walk costs its one word however many
    /// events it reports.
    #[inline]
    pub(crate) fn report(&self, tally: &mut ThreadTally, end: u64, state: u32) -> u32 {
        let delta = end - tally.last_end;
        debug_assert!(
            delta >= 1,
            "events of one thread end in strictly rising order"
        );
        if self.walks {
            tally.last_end = end;
            tally.words = 1;
            return state & self.max_payload() as u32;
        }
        // Gaps past the delta field are rare: keep the division off the
        // per-event path.
        let gaps = if delta > self.max_delta() {
            (delta - 1) / self.max_delta()
        } else {
            0
        };
        tally.last_end = end;
        tally.words += gaps + 1;
        ((delta - gaps * self.max_delta()) << self.state_bits) as u32
            | (state & self.max_payload() as u32)
    }

    /// Thread words that move the frame from `prev` (none yet) to
    /// `thread`.
    fn thread_words(&self, prev: Option<u64>, thread: u64) -> u64 {
        skip(prev, thread).div_ceil(self.max_payload())
    }

    /// Zero words a walk anchored at `thread` after one at `prev` (none
    /// yet) needs before its own word.
    fn walk_zeros(&self, prev: Option<u64>, thread: u64) -> u64 {
        (skip(prev, thread) - 1) / self.max_delta()
    }

    /// The words of a walk anchored at `thread` after one at `prev`
    /// (none yet): its zero words and its own, `delta << s | state`
    /// last.
    fn walk_words(&self, prev: Option<u64>, thread: u64, state: u32) -> impl Iterator<Item = u32> {
        let zeros = self.walk_zeros(prev, thread);
        let delta = skip(prev, thread) - zeros * self.max_delta();
        let last = (delta << self.state_bits) as u32 | (state & self.max_payload() as u32);
        std::iter::repeat_n(0, zeros as usize).chain(std::iter::once(last))
    }
}

/// How many threads `thread` lies past `prev`; the first thread word
/// counts from thread −1.
fn skip(prev: Option<u64>, thread: u64) -> u64 {
    match prev {
        Some(p) => thread - p,
        None => thread + 1,
    }
}

/// One thread's running share of a frame: the end of its last reported
/// event and the event and zero words it has cost so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThreadTally {
    last_end: u64,
    words: u64,
}

impl ThreadTally {
    /// A tally for `thread`, whose first delta counts from its owned
    /// start.
    pub fn new(coding: WordCoding, thread: u64) -> Self {
        ThreadTally {
            last_end: thread * coding.chunk_bytes as u64,
            words: 0,
        }
    }

    /// Event and zero words reported so far (thread words excluded).
    pub fn words(&self) -> u64 {
        self.words
    }
}

/// A frame's running word count, with threads added in thread order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameTally {
    coding: WordCoding,
    prev: Option<u64>,
    words: u64,
}

impl FrameTally {
    /// An empty frame.
    pub fn new(coding: WordCoding) -> Self {
        FrameTally {
            coding,
            prev: None,
            words: 0,
        }
    }

    /// Add `thread`, whose events cost `words` ([`ThreadTally::words`]).
    /// Threads come in ascending order; one without words adds nothing.
    pub fn add(&mut self, thread: u64, words: u64) {
        if words == 0 {
            return;
        }
        self.words += if self.coding.walks {
            1 + self.coding.walk_zeros(self.prev, thread)
        } else {
            self.coding.thread_words(self.prev, thread) + words
        };
        self.prev = Some(thread);
    }

    /// The frame's exact length in bytes.
    pub fn bytes(&self) -> u64 {
        frame_bytes(self.words)
    }
}

/// Why a readback buffer was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadbackCorruption {
    /// Too short to hold even the frame.
    Truncated,
    /// The magic word at the head is wrong.
    BadMagic,
    /// The word count does not match the buffer length.
    BadLength,
    /// The CRC-32 over header + words does not match.
    BadChecksum,
    /// The tail sentinel is wrong.
    BadSentinel,
    /// The words do not decode: a bad payload width, an event before any
    /// thread word, a walk word without a delta, or an offset past
    /// `u32::MAX`.
    BadWord,
}

impl fmt::Display for ReadbackCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            ReadbackCorruption::Truncated => "buffer truncated",
            ReadbackCorruption::BadMagic => "bad magic word",
            ReadbackCorruption::BadLength => "length mismatch",
            ReadbackCorruption::BadChecksum => "checksum mismatch",
            ReadbackCorruption::BadSentinel => "bad tail sentinel",
            ReadbackCorruption::BadWord => "undecodable word",
        };
        write!(f, "corrupted readback: {what}")
    }
}

impl std::error::Error for ReadbackCorruption {}

/// A walk that matched, as a walk frame carries it: the anchor its
/// thread started at and the deepest trie state it matched in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Walk {
    /// The walk's start offset in the input: every match it names starts
    /// here.
    pub anchor: u32,
    /// Its deepest matching trie state.
    pub state: u32,
}

/// A frame's matches: events, or walks for a walk frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// The event frame's events, in thread order.
    Events(Vec<MatchEvent>),
    /// The walk frame's walks, in anchor order.
    Walks(Vec<Walk>),
}

impl Decoded {
    /// What [`decode`] returns for the frame [`encode`] writes of
    /// `threads`, without building it: the fault-free readback.
    pub fn unframed(coding: WordCoding, threads: Vec<(u64, Vec<MatchEvent>)>) -> Self {
        if coding.walks {
            Decoded::Walks(
                threads
                    .into_iter()
                    .filter_map(|(thread, evs)| {
                        evs.last().map(|ev| Walk {
                            anchor: thread as u32,
                            state: ev.state,
                        })
                    })
                    .collect(),
            )
        } else {
            Decoded::Events(threads.into_iter().flat_map(|(_, evs)| evs).collect())
        }
    }
}

/// Serialize thread-grouped events (plus the total observed-event count,
/// which counting mode reports without materializing) into a framed
/// buffer. `threads` holds `(global thread, events)` in ascending thread
/// order, each thread's events in rising `end` order after its owned
/// start. A walk coding frames each thread's last event as its walk.
pub fn encode(coding: WordCoding, threads: &[(u64, Vec<MatchEvent>)], event_count: u64) -> Vec<u8> {
    let mut words: Vec<u32> = Vec::new();
    let mut prev = None;
    for (thread, events) in threads.iter().filter(|(_, evs)| !evs.is_empty()) {
        if coding.walks {
            let deepest = events.last().expect("non-empty").state;
            words.extend(coding.walk_words(prev, *thread, deepest));
            prev = Some(*thread);
            continue;
        }
        let mut k = skip(prev, *thread);
        while k > coding.max_payload() {
            words.push(coding.max_payload() as u32);
            k -= coding.max_payload();
        }
        words.push(k as u32);
        prev = Some(*thread);
        let mut tally = ThreadTally::new(coding, *thread);
        for ev in events {
            let before = tally.words;
            let word = coding.report(&mut tally, ev.end as u64, ev.state);
            words.extend((before + 1..tally.words).map(|_| 0));
            words.push(word);
        }
    }
    let magic = if coding.walks { WALK_MAGIC } else { MAGIC };
    let mut buf = Vec::with_capacity(frame_bytes(words.len() as u64) as usize);
    buf.extend_from_slice(&magic.to_le_bytes());
    buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
    buf.extend_from_slice(&coding.chunk_bytes.to_le_bytes());
    buf.extend_from_slice(&coding.state_bits.to_le_bytes());
    for w in &words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&event_count.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&SENTINEL.to_le_bytes());
    buf
}

/// Verify and deserialize a framed buffer back into its matches and
/// `event_count`.
pub fn decode(buf: &[u8]) -> Result<(Decoded, u64), ReadbackCorruption> {
    if buf.len() < FRAME_BYTES {
        return Err(ReadbackCorruption::Truncated);
    }
    let (body, trailer) = buf.split_at(buf.len() - TRAILER_BYTES);
    if u32::from_le_bytes(trailer[4..8].try_into().unwrap()) != SENTINEL {
        return Err(ReadbackCorruption::BadSentinel);
    }
    if u32::from_le_bytes(trailer[0..4].try_into().unwrap()) != crc32(body) {
        return Err(ReadbackCorruption::BadChecksum);
    }
    let u32_at = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
    let walks = match u32_at(0) {
        MAGIC => false,
        WALK_MAGIC => true,
        _ => return Err(ReadbackCorruption::BadMagic),
    };
    let n = u64::from_le_bytes(body[4..12].try_into().unwrap()) as usize;
    if n.checked_mul(WORD_BYTES) != Some(body.len() - HEADER_BYTES - COUNT_BYTES) {
        return Err(ReadbackCorruption::BadLength);
    }
    let (chunk_bytes, state_bits) = (u32_at(12), u32_at(16));
    if !(MIN_STATE_BITS..32).contains(&state_bits) {
        return Err(ReadbackCorruption::BadWord);
    }
    let coding = WordCoding {
        walks,
        ..WordCoding::with_state_bits(chunk_bytes, state_bits)
    };
    let (words, count) = body[HEADER_BYTES..].split_at(n * WORD_BYTES);
    let words = words
        .chunks_exact(WORD_BYTES)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()));
    let decoded = if walks {
        Decoded::Walks(decode_walks(coding, words)?)
    } else {
        Decoded::Events(decode_events(coding, words)?)
    };
    let event_count = u64::from_le_bytes(count.try_into().unwrap());
    Ok((decoded, event_count))
}

/// An event frame's words back to its events.
fn decode_events(
    coding: WordCoding,
    words: impl Iterator<Item = u32>,
) -> Result<Vec<MatchEvent>, ReadbackCorruption> {
    let mut events = Vec::new();
    let mut thread: Option<u64> = None;
    let mut cursor = 0u64;
    for w in words {
        let (delta, payload) = (
            (w >> coding.state_bits) as u64,
            w & coding.max_payload() as u32,
        );
        if delta == 0 && payload != 0 {
            let t = match thread {
                None => Some(payload as u64 - 1),
                Some(t) => t.checked_add(payload as u64),
            };
            cursor = t
                .and_then(|t| t.checked_mul(coding.chunk_bytes as u64))
                .ok_or(ReadbackCorruption::BadWord)?;
            thread = t;
            continue;
        }
        if thread.is_none() {
            return Err(ReadbackCorruption::BadWord);
        }
        cursor += if w == 0 { coding.max_delta() } else { delta };
        if w != 0 {
            events.push(MatchEvent {
                end: u32::try_from(cursor).map_err(|_| ReadbackCorruption::BadWord)?,
                state: payload,
            });
        }
    }
    Ok(events)
}

/// A walk frame's words back to its walks.
fn decode_walks(
    coding: WordCoding,
    words: impl Iterator<Item = u32>,
) -> Result<Vec<Walk>, ReadbackCorruption> {
    let mut walks = Vec::new();
    // One past the previous anchor.
    let mut next = 0u64;
    for w in words {
        let delta = (w >> coding.state_bits) as u64;
        if w == 0 {
            next += coding.max_delta();
            continue;
        }
        if delta == 0 {
            return Err(ReadbackCorruption::BadWord);
        }
        next += delta;
        walks.push(Walk {
            anchor: u32::try_from(next - 1).map_err(|_| ReadbackCorruption::BadWord)?,
            state: w & coding.max_payload() as u32,
        });
    }
    Ok(walks)
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A 64-byte chunk and 16-bit payloads: deltas up to 65,535.
    const CODING: WordCoding = WordCoding {
        chunk_bytes: 64,
        state_bits: 16,
        walks: false,
    };

    /// Three reporting threads and an empty one: the first event of
    /// thread 0, a jump of 70,000 threads (two thread words), and a
    /// 200,000-byte gap (three zero words).
    fn sample() -> Vec<(u64, Vec<MatchEvent>)> {
        let last = 70_002u64;
        let start = last * 64;
        vec![
            (
                0,
                vec![
                    MatchEvent { end: 17, state: 3 },
                    MatchEvent { end: 18, state: 0 },
                ],
            ),
            (1, vec![]),
            (
                2,
                vec![MatchEvent {
                    end: 130,
                    state: 0xFFFF,
                }],
            ),
            (
                last,
                vec![
                    MatchEvent {
                        end: (start + 5) as u32,
                        state: 9,
                    },
                    MatchEvent {
                        end: (start + 200_005) as u32,
                        state: 1,
                    },
                ],
            ),
        ]
    }

    fn flat(threads: &[(u64, Vec<MatchEvent>)]) -> Decoded {
        Decoded::Events(
            threads
                .iter()
                .flat_map(|(_, evs)| evs.iter().copied())
                .collect(),
        )
    }

    /// The frame length the kernels' tallies report for `threads`.
    fn tallied(coding: WordCoding, threads: &[(u64, Vec<MatchEvent>)]) -> u64 {
        let mut frame = FrameTally::new(coding);
        for (thread, events) in threads {
            let mut lane = ThreadTally::new(coding, *thread);
            for ev in events {
                coding.report(&mut lane, ev.end as u64, ev.state);
            }
            frame.add(*thread, lane.words());
        }
        frame.bytes()
    }

    #[test]
    fn readback_bytes_is_the_encoded_length() {
        let threads = sample();
        for n in 0..=threads.len() {
            let buf = encode(CODING, &threads[..n], 99);
            assert_eq!(tallied(CODING, &threads[..n]), buf.len() as u64);
        }
        assert_eq!(frame_bytes(0), 36);
        assert_eq!(encode(CODING, &[], 0).len(), 36);
        // 1 + 1 + 2 thread words, 5 event words, 3 zero words.
        assert_eq!(tallied(CODING, &threads), 36 + 4 * 12);
    }

    #[test]
    fn roundtrip() {
        let threads = sample();
        let buf = encode(CODING, &threads, 123);
        let (back, count) = decode(&buf).unwrap();
        assert_eq!(back, flat(&threads));
        assert_eq!(count, 123);
        // Empty list round-trips too.
        let buf = encode(CODING, &[], 0);
        let (back, count) = decode(&buf).unwrap();
        assert_eq!(back, Decoded::Events(vec![]));
        assert_eq!(count, 0);
        // So does an event at the largest offset, 16 zero words past its
        // thread's 1 MiB chunk start.
        let coding = WordCoding::with_state_bits(1 << 20, 16);
        let top = vec![(
            4095,
            vec![MatchEvent {
                end: u32::MAX,
                state: 7,
            }],
        )];
        let buf = encode(coding, &top, 1);
        assert_eq!(buf.len() as u64, frame_bytes(1 + 16 + 1));
        assert_eq!(decode(&buf).unwrap(), (flat(&top), 1));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let buf = encode(CODING, &sample(), 7);
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bad).is_err(), "flip at bit {bit} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let buf = encode(CODING, &sample(), 7);
        for cut in 0..buf.len() {
            assert!(
                decode(&buf[..cut]).is_err(),
                "truncation to {cut} went undetected"
            );
        }
    }

    /// Walk frames of `sample()`'s threads: each thread's last event is
    /// its walk, so thread 0 costs one word however many events it had.
    #[test]
    fn walk_frames_carry_one_word_per_walk() {
        let walks = WordCoding {
            walks: true,
            ..CODING
        };
        let threads = sample();
        let buf = encode(walks, &threads, 5);
        // Three walks; the jump of 70,000 anchors overflows the 16-bit
        // delta field once.
        assert_eq!(buf.len() as u64, frame_bytes(3 + 1));
        assert_eq!(tallied(walks, &threads), buf.len() as u64);
        let want = vec![
            Walk {
                anchor: 0,
                state: 0,
            },
            Walk {
                anchor: 2,
                state: 0xFFFF,
            },
            Walk {
                anchor: 70_002,
                state: 1,
            },
        ];
        assert_eq!(decode(&buf).unwrap(), (Decoded::Walks(want.clone()), 5));
        assert_eq!(Decoded::unframed(walks, threads), Decoded::Walks(want));
        // The event frame of the same threads is told apart by its magic.
        let (events, _) = decode(&encode(CODING, &sample(), 5)).unwrap();
        assert_eq!(events, flat(&sample()));
        // A walk word without a delta never decodes.
        let mut bad = encode(walks, &[(0, vec![MatchEvent { end: 1, state: 4 }])], 1);
        bad[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&4u32.to_le_bytes());
        let crc = crc32(&bad[..bad.len() - TRAILER_BYTES]);
        let at = bad.len() - TRAILER_BYTES;
        bad[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bad), Err(ReadbackCorruption::BadWord));
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn payload_width_follows_the_state_count() {
        assert_eq!(WordCoding::new(64, 1).state_bits, 16);
        assert_eq!(WordCoding::new(64, 1 << 16).state_bits, 16);
        assert_eq!(WordCoding::new(64, (1 << 16) + 1).state_bits, 17);
        assert_eq!(WordCoding::new(64, 1 << 23).state_bits, 23);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn frames_round_trip_and_detect_every_flip_and_cut(
            state_bits in 16u32..=31,
            chunk in 0usize..4,
            // (threads skipped, [(bytes past the previous end, state)])
            groups in vec((0u64..200_000, vec((1u64..300_000, any::<u32>()), 0..4)), 0..5),
            event_count in any::<u64>(),
        ) {
            let chunk_bytes = [1u32, 16, 64, 4096][chunk];
            let coding = WordCoding::with_state_bits(chunk_bytes, state_bits);
            let mut threads = Vec::new();
            let mut thread = 0u64;
            for (skip, deltas) in groups {
                thread += skip;
                let mut end = thread * chunk_bytes as u64;
                let mut events = Vec::new();
                for (delta, state) in deltas {
                    // Up to four zero words per event at every width.
                    end += 1 + delta % (4 * coding.max_delta());
                    if end > u32::MAX as u64 {
                        break;
                    }
                    events.push(MatchEvent {
                        end: end as u32,
                        state: state & coding.max_payload() as u32,
                    });
                }
                threads.push((thread, events));
                thread += 1;
            }
            let buf = encode(coding, &threads, event_count);
            prop_assert_eq!(tallied(coding, &threads), buf.len() as u64);
            let (back, count) = decode(&buf).unwrap();
            prop_assert_eq!(&back, &flat(&threads));
            prop_assert_eq!(&back, &Decoded::unframed(coding, threads));
            prop_assert_eq!(count, event_count);
            assert_every_flip_and_cut_detected(&buf)?;
        }

        #[test]
        fn walk_frames_round_trip_and_detect_every_flip_and_cut(
            state_bits in 16u32..=31,
            // (anchors past the previous walk's, [(bytes walked, state)])
            walks in vec((1u64..200_000, vec((1u64..64, any::<u32>()), 0..4)), 0..6),
            event_count in any::<u64>(),
        ) {
            let coding = WordCoding {
                walks: true,
                ..WordCoding::with_state_bits(1, state_bits)
            };
            let mut threads = Vec::new();
            let mut want = Vec::new();
            let mut anchor = 0u64;
            for (gap, steps) in walks {
                // Up to four zero words per walk at every width.
                anchor += gap % (4 * coding.max_delta()) + 1;
                let mut end = anchor;
                let events: Vec<MatchEvent> = steps
                    .into_iter()
                    .map(|(step, state)| {
                        end += step;
                        MatchEvent {
                            end: end as u32,
                            state: state & coding.max_payload() as u32,
                        }
                    })
                    .collect();
                if let Some(last) = events.last() {
                    want.push(Walk { anchor: anchor as u32, state: last.state });
                }
                threads.push((anchor, events));
            }
            let buf = encode(coding, &threads, event_count);
            prop_assert_eq!(tallied(coding, &threads), buf.len() as u64);
            let gaps: u64 = {
                let mut prev = None;
                threads
                    .iter()
                    .filter(|(_, evs)| !evs.is_empty())
                    .map(|&(t, _)| {
                        let zeros = (skip(prev, t) - 1) / coding.max_delta();
                        prev = Some(t);
                        zeros
                    })
                    .sum()
            };
            prop_assert_eq!(buf.len() as u64, frame_bytes(want.len() as u64 + gaps));
            let (back, count) = decode(&buf).unwrap();
            prop_assert_eq!(&back, &Decoded::Walks(want));
            prop_assert_eq!(&back, &Decoded::unframed(coding, threads));
            prop_assert_eq!(count, event_count);
            assert_every_flip_and_cut_detected(&buf)?;
        }
    }

    fn assert_every_flip_and_cut_detected(buf: &[u8]) -> Result<(), TestCaseError> {
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode(&bad).is_err(), "flip at bit {} went undetected", bit);
        }
        for cut in 0..buf.len() {
            prop_assert!(
                decode(&buf[..cut]).is_err(),
                "cut to {} went undetected",
                cut
            );
        }
        Ok(())
    }
}
