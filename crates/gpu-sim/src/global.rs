//! Global (device) memory: the functional byte store plus the GT200
//! per-half-warp coalescing analyzer.
//!
//! The paper (§IV.B.3): "Multiple global memory loads whose addresses fall
//! within 128-bytes range are combined into one request to be sent to the
//! global memory." The analyzer below implements the GT200 rule set:
//! active lane addresses of a half-warp are grouped by 128-byte segment;
//! each group becomes a single transaction whose size is the group's span
//! rounded up to 32, 64 or 128 bytes.

use crate::config::GpuConfig;

/// The device's linear global memory. Purely functional — timing is
/// computed by the scheduler from the transaction list the analyzer
/// produces.
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    data: Vec<u8>,
}

impl GlobalMemory {
    /// Allocate `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        GlobalMemory {
            data: vec![0; size],
        }
    }

    /// Allocate and initialize from host data (the `cudaMemcpy` of the
    /// paper's phase 2 setup; its time is excluded from measurements just
    /// as the paper excludes its copies).
    pub fn from_bytes(data: Vec<u8>) -> Self {
        GlobalMemory { data }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.data[addr as usize]
    }

    /// Read a little-endian 32-bit word.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("u32 read in bounds"))
    }

    /// Write a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Zero-extend to at least `len` bytes.
    pub fn grow_to(&mut self, len: usize) {
        if len > self.data.len() {
            self.data.resize(len, 0);
        }
    }

    /// Copy host bytes in at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        let a = addr as usize;
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
    }

    /// Borrow the raw bytes (host-side result readback).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// One coalesced DRAM transaction: `(segment base address, size in bytes)`.
pub type Transaction = (u64, u32);

/// Coalesce the active lanes of one half-warp.
///
/// `accesses` holds `(address, width)` pairs for the active lanes
/// (inactive lanes are simply omitted). Returns one transaction per
/// distinct `coalesce_segment`-sized segment, sized to the 32/64/128-byte
/// granule covering the group's span — the GT200 memory controller's
/// behaviour that rewards the paper's cooperative staging loop and
/// punishes the global-only kernel's strided reads.
pub fn coalesce_halfwarp(cfg: &GpuConfig, accesses: &[(u64, u32)]) -> Vec<Transaction> {
    let seg = cfg.coalesce_segment as u64;
    // Half-warps are ≤16 lanes; a sort-free O(n²) merge on a fixed-size
    // scratch buffer beats allocating a hash map in this very hot path.
    let mut groups: Vec<(u64, u64, u64)> = Vec::with_capacity(4); // (seg_base, lo, hi)
    for &(addr, width) in accesses {
        let base = addr / seg * seg;
        let lo = addr;
        let hi = addr + width as u64;
        match groups.iter_mut().find(|g| g.0 == base) {
            Some(g) => {
                g.1 = g.1.min(lo);
                g.2 = g.2.max(hi);
            }
            None => groups.push((base, lo, hi)),
        }
    }
    groups
        .into_iter()
        .map(|(base, lo, hi)| {
            let span = hi - lo;
            // Round the span up to the smallest GT200 granule that covers
            // it: 32, 64, or the full segment (128).
            let size = if span <= 32 {
                32
            } else if span <= 64 {
                64
            } else {
                cfg.coalesce_segment
            };
            (base, size)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::gtx285() // 128-byte segments
    }

    #[test]
    fn contiguous_words_fuse_into_one_transaction() {
        // 16 lanes × 4 bytes contiguous = 64 bytes in one segment — the
        // paper's Fig. 9 staging pattern.
        let accesses: Vec<(u64, u32)> = (0..16).map(|l| (l * 4, 4)).collect();
        let txns = coalesce_halfwarp(&cfg(), &accesses);
        assert_eq!(txns, vec![(0, 64)]);
    }

    #[test]
    fn strided_bytes_explode_into_many_transactions() {
        // 16 lanes reading 1 byte each, 1 KB apart (the global-only
        // kernel's per-thread chunk walk): 16 separate 32-byte requests.
        let accesses: Vec<(u64, u32)> = (0..16).map(|l| (l * 1024, 1)).collect();
        let txns = coalesce_halfwarp(&cfg(), &accesses);
        assert_eq!(txns.len(), 16);
        assert!(txns.iter().all(|&(_, s)| s == 32));
    }

    #[test]
    fn span_rounds_to_granules() {
        // Two lanes 40 bytes apart within one segment → 64-byte granule.
        let txns = coalesce_halfwarp(&cfg(), &[(0, 4), (40, 4)]);
        assert_eq!(txns, vec![(0, 64)]);
        // Span > 64 → full 128-byte segment.
        let txns = coalesce_halfwarp(&cfg(), &[(0, 4), (100, 4)]);
        assert_eq!(txns, vec![(0, 128)]);
    }

    #[test]
    fn segment_straddling_pair_costs_two() {
        // Addresses in different 128-byte segments never merge even if
        // adjacent.
        let txns = coalesce_halfwarp(&cfg(), &[(124, 4), (128, 4)]);
        assert_eq!(txns.len(), 2);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let txns = coalesce_halfwarp(&cfg(), &[(64, 4), (64, 4), (64, 4)]);
        assert_eq!(txns, vec![(0, 32)]);
    }

    #[test]
    fn empty_halfwarp_no_transactions() {
        assert!(coalesce_halfwarp(&cfg(), &[]).is_empty());
    }

    proptest::proptest! {
        /// Coalescing invariants: one transaction per distinct segment,
        /// never more transactions than accesses, every granule legal,
        /// and each access covered by a transaction in its segment.
        #[test]
        fn coalesce_invariants(
            accesses in proptest::collection::vec((0u64..1u64 << 20, proptest::sample::select(vec![1u32, 4])), 1..16)
        ) {
            let cfg = cfg();
            let txns = coalesce_halfwarp(&cfg, &accesses);
            proptest::prop_assert!(txns.len() <= accesses.len());
            let mut segs: Vec<u64> = accesses.iter().map(|&(a, _)| a / 128).collect();
            segs.sort_unstable();
            segs.dedup();
            proptest::prop_assert_eq!(txns.len(), segs.len());
            for &(base, size) in &txns {
                proptest::prop_assert_eq!(base % 128, 0);
                proptest::prop_assert!(matches!(size, 32 | 64 | 128));
            }
            for &(a, w) in &accesses {
                let seg = a / 128 * 128;
                let t = txns.iter().find(|&&(b, _)| b == seg).expect("segment served");
                // The transaction's granule must reach the access (spans
                // are measured from the segment's low accessed byte, so
                // coverage is relative to the group's span).
                let lo = accesses.iter().filter(|&&(x, _)| x / 128 == a / 128).map(|&(x, _)| x).min().unwrap();
                proptest::prop_assert!(a + w as u64 - lo <= t.1 as u64);
            }
        }
    }

    #[test]
    fn functional_reads_and_writes() {
        let mut g = GlobalMemory::new(64);
        g.write_u32(8, 0xDEADBEEF);
        assert_eq!(g.read_u32(8), 0xDEADBEEF);
        assert_eq!(g.read_u8(8), 0xEF); // little endian
        assert_eq!(g.len(), 64);
        assert!(!g.is_empty());
        let g2 = GlobalMemory::from_bytes(vec![7, 8]);
        assert_eq!(g2.read_u8(1), 8);
    }
}
