//! Spatial memory-hierarchy introspection.
//!
//! The trace layer (PR 2) answers *how many* cycles stalled per reason;
//! this layer answers *where*: which texture-cache sets thrash, which STT
//! states stay resident (the texture-locality story of paper Figs. 13–17),
//! which shared-memory banks serialize, and how bursty the DRAM channel is.
//!
//! It is one of the collectors of the device's [`crate::Observer`]: armed,
//! each SM's observer owns an [`SmProbe`] the kernel context feeds, and
//! the SM's snapshot joins [`Introspection::per_sm`] when it retires.
//! Disarmed, every probe is one branch, and armed or not, observation
//! never feeds back into timing.

use crate::config::GpuConfig;
use crate::texture::Texture2d;
use mem_sim::{BankHistogram, BusyInterval, Cache, CacheStats, DramChannel, SetStats};
use serde::{Deserialize, Serialize};

/// Merged DRAM busy intervals retained per SM (burstiness beyond the cap
/// is counted in `DramStats` but not stored).
pub const MAX_BUSY_INTERVALS: usize = 4096;

/// Arms spatial introspection for a run. It has no settings: the one
/// bound is [`MAX_BUSY_INTERVALS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntrospectConfig;

/// One SM's spatial snapshot, harvested when the SM retires its last block.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SmIntrospection {
    /// SM index.
    pub sm: u32,
    /// Aggregate texture-L1 counters (also reachable via `SmStats`; kept
    /// here so per-set sums can be checked against their own aggregate).
    pub tex_l1: CacheStats,
    /// Per-set texture-L1 counters, indexed by set.
    pub tex_l1_sets: Vec<SetStats>,
    /// Aggregate texture-L2 counters.
    pub tex_l2: CacheStats,
    /// Per-set texture-L2 counters, indexed by set.
    pub tex_l2_sets: Vec<SetStats>,
    /// Tiled base addresses of texture-L1 lines resident at SM retirement —
    /// the residency snapshot behind the hot-state heatmap.
    pub tex_resident_lines: Vec<u64>,
    /// Shared-memory bank traffic and serialization degrees.
    pub banks: BankHistogram,
    /// Merged busy intervals of this SM's DRAM channel slice.
    pub dram_busy: Vec<BusyInterval>,
    /// Texture fetches per `(texture, row)`; for the STT texture, row ==
    /// DFA state id, so `row_fetches[stt][s]` counts visits to state `s`.
    pub row_fetches: Vec<Vec<u64>>,
    /// Total texture fetches per texture (Σ over rows of `row_fetches`,
    /// kept separately so hit shares don't need a rescan).
    #[serde(default)]
    pub tex_fetches: Vec<u64>,
    /// Texture-L1 hits per texture — the per-texture split the aggregate
    /// `tex_l1` counters cannot provide. `tex_l1_hits[t] / tex_fetches[t]`
    /// is texture `t`'s L1 residency share, the quantity the STT-layout
    /// auto-picker maximizes for the state-table texture.
    #[serde(default)]
    pub tex_l1_hits: Vec<u64>,
    /// Texture-L2 hits per texture (counted on L1 misses only) — which
    /// texture's working set stays on-chip versus paying DRAM line fills.
    #[serde(default)]
    pub tex_l2_hits: Vec<u64>,
}

/// Device-wide introspection: one snapshot per SM plus fold-up helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Introspection {
    /// Per-SM snapshots, in SM order.
    pub per_sm: Vec<SmIntrospection>,
}

impl Introspection {
    /// Texture-L1 per-set counters summed over SMs.
    pub fn tex_l1_sets(&self) -> Vec<SetStats> {
        Self::fold_sets(self.per_sm.iter().map(|s| &s.tex_l1_sets))
    }

    fn fold_sets<'a>(per_sm: impl Iterator<Item = &'a Vec<SetStats>>) -> Vec<SetStats> {
        let mut out: Vec<SetStats> = Vec::new();
        for sets in per_sm {
            if out.len() < sets.len() {
                out.resize(sets.len(), SetStats::default());
            }
            for (o, s) in out.iter_mut().zip(sets) {
                o.accesses += s.accesses;
                o.hits += s.hits;
                o.evictions += s.evictions;
            }
        }
        out
    }

    /// Shared-memory bank histogram folded over SMs.
    pub fn bank_histogram(&self) -> BankHistogram {
        let mut out = BankHistogram::default();
        for s in &self.per_sm {
            out.merge(&s.banks);
        }
        out
    }

    /// Texture fetches per row of texture `tex`, summed over SMs. For the
    /// STT texture this is the hot-state visit profile.
    pub fn row_fetches(&self, tex: usize) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for s in &self.per_sm {
            let Some(rows) = s.row_fetches.get(tex) else {
                continue;
            };
            if out.len() < rows.len() {
                out.resize(rows.len(), 0);
            }
            for (o, &r) in out.iter_mut().zip(rows) {
                *o += r;
            }
        }
        out
    }

    /// How many SMs still held each row of `tex` in texture L1 at
    /// retirement (0..=num_sms per row) — the residency half of the
    /// hot-state heatmap. Lines whose addresses fall outside `tex` (other
    /// textures, padding) are skipped.
    pub fn resident_rows(&self, tex: &Texture2d) -> Vec<u64> {
        let mut out = vec![0u64; tex.rows() as usize];
        for s in &self.per_sm {
            for &line in &s.tex_resident_lines {
                if let Some(row) = tex.row_of_tiled_addr(line) {
                    out[row as usize] += 1;
                }
            }
        }
        out
    }

    /// `(fetches, L1 hits)` for texture `tex`, summed over SMs. Returns
    /// `(0, 0)` for textures the launch never touched.
    pub fn tex_hit_counts(&self, tex: usize) -> (u64, u64) {
        let mut fetches = 0u64;
        let mut hits = 0u64;
        for s in &self.per_sm {
            fetches += s.tex_fetches.get(tex).copied().unwrap_or(0);
            hits += s.tex_l1_hits.get(tex).copied().unwrap_or(0);
        }
        (fetches, hits)
    }

    /// Texture-L1 hit rate of texture `tex` alone — how resident that
    /// texture's working set stayed, independent of traffic to the other
    /// bound textures. `None` when the texture saw no fetches.
    pub fn tex_l1_hit_rate(&self, tex: usize) -> Option<f64> {
        let (fetches, hits) = self.tex_hit_counts(tex);
        (fetches > 0).then(|| hits as f64 / fetches as f64)
    }
}

/// Armed-only per-SM collection sink the kernel context feeds. Created by
/// the SM's observer when introspection is armed; the extra scans it
/// implies (per-bank word counts, per-row fetch counts) run only on that
/// path.
#[derive(Debug)]
pub struct SmProbe {
    /// Shared-memory bank traffic.
    pub banks: BankHistogram,
    /// Fetch counts per `(texture, row)`.
    pub row_fetches: Vec<Vec<u64>>,
    /// Fetch totals per texture.
    pub tex_fetches: Vec<u64>,
    /// Texture-L1 hits per texture.
    pub tex_l1_hits: Vec<u64>,
    /// Texture-L2 hits per texture (on L1 misses).
    pub tex_l2_hits: Vec<u64>,
}

impl SmProbe {
    pub(crate) fn new(cfg: &GpuConfig, textures: &[Texture2d]) -> Self {
        SmProbe {
            banks: BankHistogram::new(cfg.shared_banks),
            row_fetches: textures
                .iter()
                .map(|t| vec![0u64; t.rows() as usize])
                .collect(),
            tex_fetches: vec![0; textures.len()],
            tex_l1_hits: vec![0; textures.len()],
            tex_l2_hits: vec![0; textures.len()],
        }
    }

    /// Count one fetch of `row` in texture `tex` and the cache level that
    /// served it.
    pub(crate) fn note_tex_fetch(&mut self, tex: usize, row: u32, l1_hit: bool, l2_hit: bool) {
        if let Some(slot) = self
            .row_fetches
            .get_mut(tex)
            .and_then(|rows| rows.get_mut(row as usize))
        {
            *slot += 1;
        }
        if let Some(total) = self.tex_fetches.get_mut(tex) {
            *total += 1;
            if l1_hit {
                self.tex_l1_hits[tex] += 1;
            } else if l2_hit {
                self.tex_l2_hits[tex] += 1;
            }
        }
    }

    /// Seal SM `sm`'s snapshot when it retires, harvesting the caches' set
    /// profiles and residency and the DRAM channel's busy intervals.
    pub(crate) fn finish(
        self,
        sm: u32,
        tex_cache: &Cache,
        tex_l2: &Cache,
        dram: &mut DramChannel,
    ) -> SmIntrospection {
        SmIntrospection {
            sm,
            tex_l1: tex_cache.stats(),
            tex_l1_sets: tex_cache.set_profile().unwrap_or_default().to_vec(),
            tex_l2: tex_l2.stats(),
            tex_l2_sets: tex_l2.set_profile().unwrap_or_default().to_vec(),
            tex_resident_lines: tex_cache.resident_lines(),
            banks: self.banks,
            dram_busy: dram.take_busy_intervals(),
            row_fetches: self.row_fetches,
            tex_fetches: self.tex_fetches,
            tex_l1_hits: self.tex_l1_hits,
            tex_l2_hits: self.tex_l2_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn snap(sm: u32) -> SmIntrospection {
        SmIntrospection {
            sm,
            tex_l1_sets: vec![
                SetStats {
                    accesses: 10,
                    hits: 8,
                    evictions: 1,
                },
                SetStats {
                    accesses: 2,
                    hits: 0,
                    evictions: 0,
                },
            ],
            row_fetches: vec![vec![5, 0, 7]],
            tex_fetches: vec![12],
            tex_l1_hits: vec![9],
            dram_busy: vec![BusyInterval { start: 0, end: 10 }],
            ..SmIntrospection::default()
        }
    }

    #[test]
    fn folds_sum_over_sms() {
        let intro = Introspection {
            per_sm: vec![snap(0), snap(1)],
        };
        let sets = intro.tex_l1_sets();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].accesses, 20);
        assert_eq!(sets[0].hits, 16);
        assert_eq!(sets[1].accesses, 4);
        assert_eq!(intro.row_fetches(0), vec![10, 0, 14]);
        assert_eq!(intro.row_fetches(7), Vec::<u64>::new());
        assert_eq!(intro.tex_hit_counts(0), (24, 18));
        assert_eq!(intro.tex_l1_hit_rate(0), Some(0.75));
        assert_eq!(intro.tex_l1_hit_rate(7), None);
    }

    #[test]
    fn resident_rows_maps_lines_through_the_texture() {
        let tex = Texture2d::new(Arc::new((0..4u32 * 257).collect()), 4, 257);
        let line0 = tex.tiled_addr(0, 0) & !31; // row 0 segment
        let line3 = tex.tiled_addr(3, 8) & !31; // row 3 segment
        let intro = Introspection {
            per_sm: vec![SmIntrospection {
                tex_resident_lines: vec![line0, line3, 1 << 40],
                ..SmIntrospection::default()
            }],
        };
        assert_eq!(intro.resident_rows(&tex), vec![1, 0, 0, 1]);
    }
}
