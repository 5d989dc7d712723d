//! Host-side PCIe bus arbitration for a multi-device fleet.
//!
//! One simulated GPU owns its PCIe link outright: [`crate::stream`]
//! charges each copy `latency + bytes / link_bandwidth` on the device's
//! single DMA engine and nothing else contends for the wire. A fleet of
//! N devices is different — every `h2d`/`d2h` crosses shared host-side
//! resources (the root-complex links, the host memory channels feeding
//! pinned staging buffers), and those do *not* scale with N. This module
//! models that shared segment as one resource with an aggregate
//! bandwidth: before a device-level copy is released, the host must
//! *acquire* the bus for `bytes / aggregate_bandwidth` seconds.
//!
//! The bus is a calendar, not a queue. Copies are not acquired in time
//! order: a dispatcher issuing a sharded job reserves device 0's `d2h` at
//! the end of device 0's kernel before it reserves device 1's `h2d` for
//! right now. Each grant therefore takes the earliest free gap at or
//! after the copy's ready time that fits its occupancy, in front of
//! reservations that start later (a FIFO in acquisition order would hold
//! device 1's upload behind device 0's readback, serialising the shards).
//! Reservations already granted never move: the device has been told
//! when to start them.
//!
//! Two deliberate asymmetries keep the single-device schedule exact:
//!
//! * the per-copy setup latency (link training, doorbells) is per-device
//!   hardware and is **not** charged to the shared bus;
//! * the aggregate bandwidth is at least one device's link bandwidth, so
//!   a lone device's bus occupancy always ends before its own DMA engine
//!   finishes the same copy — the arbiter never delays it.
//!
//! With several devices the occupancies serialize, which is exactly the
//! sublinear-scaling knee the fleet benchmarks measure.

use serde::{Deserialize, Serialize};

/// Shared host-side transfer segment for a device fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Aggregate bytes/second the shared segment sustains across all
    /// devices' concurrent copies.
    pub aggregate_bytes_per_sec: f64,
}

impl BusConfig {
    /// Shared-segment defaults for PCIe gen2 hosts: the host-memory
    /// channels feeding the pinned staging buffers top out around
    /// 16 GB/s, i.e. between two and three concurrent full-rate x16
    /// copies (6 GB/s effective each) regardless of how many devices
    /// are plugged in.
    pub fn gen2_host() -> Self {
        BusConfig {
            aggregate_bytes_per_sec: 16.0e9,
        }
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::gen2_host()
    }
}

/// Cumulative arbiter statistics for a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BusStats {
    /// Copies granted bus time.
    pub grants: u64,
    /// Grants that had to wait behind another device's transfer.
    pub contended: u64,
    /// Total seconds grants spent waiting for the bus.
    pub waited_seconds: f64,
    /// Total seconds the bus spent moving bytes.
    pub busy_seconds: f64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Grants placed in a gap ahead of a transfer reserved earlier for a
    /// later time (a FIFO bus would have queued them behind it).
    #[serde(default)]
    pub backfilled: u64,
}

impl BusStats {
    /// Busy fraction of the bus over `makespan` seconds, in [0, 1].
    pub fn utilisation(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / makespan).min(1.0)
        }
    }
}

/// Deterministic arbiter over the shared transfer segment: each grant
/// occupies the bus for `bytes / aggregate_bytes_per_sec` in the earliest
/// free gap at or after its ready time (see the module docs).
#[derive(Debug, Clone)]
pub struct PcieBusArbiter {
    cfg: BusConfig,
    /// Reserved occupancies `[start, end)`, sorted and disjoint.
    busy: Vec<(f64, f64)>,
    stats: BusStats,
}

impl PcieBusArbiter {
    /// An idle bus.
    pub fn new(cfg: BusConfig) -> Self {
        PcieBusArbiter {
            cfg,
            busy: Vec::new(),
            stats: BusStats::default(),
        }
    }

    /// Acquire the bus for a `bytes`-sized copy that is otherwise ready
    /// at `ready` seconds. Returns the instant the device-level copy may
    /// be released: `ready` when the bus is free for the whole transfer,
    /// otherwise the end of the first reservation after which it fits.
    pub fn acquire(&mut self, ready: f64, bytes: u64) -> f64 {
        let occupancy = if self.cfg.aggregate_bytes_per_sec > 0.0 {
            bytes as f64 / self.cfg.aggregate_bytes_per_sec
        } else {
            0.0
        };
        self.stats.grants += 1;
        self.stats.bytes += bytes;
        if occupancy <= 0.0 {
            // Takes no bus time, so it conflicts with nothing.
            return ready;
        }
        // Ends are sorted too, so skip every reservation over by `ready`,
        // then walk forward until the transfer fits before the next one.
        let mut i = self.busy.partition_point(|&(_, end)| end <= ready);
        let mut granted = ready;
        while let Some(&(start, end)) = self.busy.get(i) {
            if granted + occupancy <= start {
                break;
            }
            granted = granted.max(end);
            i += 1;
        }
        if granted > ready {
            self.stats.contended += 1;
            self.stats.waited_seconds += granted - ready;
        }
        if i < self.busy.len() {
            self.stats.backfilled += 1;
        }
        self.stats.busy_seconds += occupancy;
        self.busy.insert(i, (granted, granted + occupancy));
        granted
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_grants_at_ready_time() {
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 1.0e9,
        });
        assert_eq!(bus.acquire(5.0, 1_000_000_000), 5.0);
        // The bus is taken until 6: a copy ready at 5.5 starts then.
        assert_eq!(bus.acquire(5.5, 1), 6.0);
        let s = bus.stats();
        assert_eq!(s.grants, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.backfilled, 0);
    }

    #[test]
    fn concurrent_copies_serialize_and_count_contention() {
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 1.0e9,
        });
        assert_eq!(bus.acquire(0.0, 2_000_000_000), 0.0);
        // Second device ready mid-transfer: pushed to the bus-free edge.
        assert_eq!(bus.acquire(1.0, 1_000_000_000), 2.0);
        let s = bus.stats();
        assert_eq!(s.contended, 1);
        assert_eq!(s.waited_seconds, 1.0);
        assert_eq!(s.bytes, 3_000_000_000);
    }

    #[test]
    fn an_earlier_copy_takes_the_gap_before_a_later_reservation() {
        // Device 0's readback is reserved at its kernel's end (10 s)
        // before device 1's upload, ready now, is acquired: the upload
        // goes first instead of queueing behind the readback.
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 1.0e9,
        });
        assert_eq!(bus.acquire(10.0, 1_000_000_000), 10.0);
        assert_eq!(bus.acquire(0.0, 2_000_000_000), 0.0);
        // A copy that no longer fits before 10 waits for the readback.
        assert_eq!(bus.acquire(9.5, 1_000_000_000), 11.0);
        // One that fits exactly in [2, 10) takes it.
        assert_eq!(bus.acquire(2.0, 8_000_000_000), 2.0);
        let s = bus.stats();
        assert_eq!(s.grants, 4);
        assert_eq!(s.contended, 1);
        assert_eq!(s.waited_seconds, 1.5);
        assert_eq!(s.backfilled, 2);
        assert_eq!(s.busy_seconds, 12.0);
        assert_eq!(
            bus.busy,
            vec![(0.0, 2.0), (2.0, 10.0), (10.0, 11.0), (11.0, 12.0)]
        );
    }

    #[test]
    fn lone_device_is_never_delayed_when_aggregate_covers_its_link() {
        // Device link 6 GB/s, shared segment 16 GB/s: the bus occupancy
        // of any copy ends before the device's own DMA engine would, so
        // back-to-back copies from one device always find the bus idle.
        let mut bus = PcieBusArbiter::new(BusConfig::gen2_host());
        let bytes = 1_000_000u64;
        let device_copy_seconds = bytes as f64 / 6.0e9;
        let mut ready = 0.0;
        for _ in 0..16 {
            let granted = bus.acquire(ready, bytes);
            assert_eq!(granted, ready, "lone device delayed by its own bus");
            ready = granted + device_copy_seconds;
        }
        assert_eq!(bus.stats().contended, 0);
        assert_eq!(bus.stats().backfilled, 0);
    }

    #[test]
    fn zero_bandwidth_degrades_to_a_pass_through() {
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 0.0,
        });
        assert_eq!(bus.acquire(3.0, 1 << 20), 3.0);
        assert_eq!(bus.acquire(3.0, 1 << 20), 3.0);
        assert_eq!(bus.stats().busy_seconds, 0.0);
    }

    proptest::proptest! {
        #[test]
        fn grants_take_the_earliest_gap_and_never_overlap(
            reqs in proptest::collection::vec((0u32..200, 0u32..40), 1..40),
        ) {
            // Bandwidth 1 byte/s: a request's bytes are its seconds.
            let mut bus = PcieBusArbiter::new(BusConfig { aggregate_bytes_per_sec: 1.0 });
            let mut granted: Vec<(f64, f64)> = Vec::new();
            let mut waited = 0.0;
            for &(ready, bytes) in &reqs {
                let (ready, len) = (ready as f64, bytes as f64);
                let g = bus.acquire(ready, bytes as u64);
                proptest::prop_assert!(g >= ready);
                waited += g - ready;
                let overlaps = |t: f64| granted.iter().any(|&(s, e)| t < e && s < t + len);
                // The grant is free for the whole transfer, and no earlier
                // start at or after `ready` would have been: the only
                // candidates are `ready` and the ends of reservations.
                proptest::prop_assert!(len == 0.0 || !overlaps(g));
                let mut candidates: Vec<f64> = granted.iter().map(|&(_, e)| e).collect();
                candidates.push(ready);
                for t in candidates.into_iter().filter(|&t| t >= ready && t < g) {
                    proptest::prop_assert!(len > 0.0 && overlaps(t), "{t} fits before {g}");
                }
                if len > 0.0 {
                    granted.push((g, g + len));
                }
            }
            let s = bus.stats();
            let total: f64 = reqs.iter().map(|&(_, b)| b as f64).sum();
            proptest::prop_assert_eq!(s.grants, reqs.len() as u64);
            proptest::prop_assert_eq!(s.busy_seconds, total);
            proptest::prop_assert_eq!(s.waited_seconds, waited);
            // The calendar stays sorted and disjoint.
            for w in bus.busy.windows(2) {
                proptest::prop_assert!(w[0].1 <= w[1].0);
            }
        }
    }
}
