//! The STT layout family and the workload-driven auto-picker.
//!
//! One automaton, two device encodings of its state transition table:
//!
//! | layout   | per-state storage                              | miss path              |
//! |----------|------------------------------------------------|------------------------|
//! | `Dense`  | 257 dense texels (1028 B)                      | — (every texel stored) |
//! | `Banded` | fat-pointer record: failure word + padded band | one-fetch failure step |
//!
//! They trade texture fetches per transition against table footprint: the
//! dense table does one fetch but stops fitting the texture caches past a
//! few thousand patterns (the paper's Fig. 13–14 collapse); the banded
//! table spends a failure-step fetch on off-band bytes to keep per-state
//! storage small enough to stay resident. Which side wins is a property
//! of the *workload* — dictionary size, alphabet locality, text mix — so
//! [`pick_layout`] measures instead of guessing: it probes each layout on
//! a sample with spatial introspection armed, keeps the fastest, and
//! ships the per-probe texture-L1 residency of the state-table fetches as
//! the evidence behind the choice (throughput ties break toward the more
//! cache-resident layout). The banded records are addressed by 20-bit
//! offsets, so past about a million texels its tables cannot be built;
//! the picker then skips it and the dense table is the fallback.

use crate::error::GpuError;
use crate::kernels::DeviceBandedStt;
use crate::runner::{Approach, GpuAcMatcher, RunOptions};
use ac_core::stt::STT_COLUMNS;
use ac_core::AcAutomaton;
use gpu_sim::IntrospectConfig;
use serde::{Deserialize, Serialize};

/// A device encoding of the state transition table. `Auto` defers the
/// choice to [`pick_layout`] at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SttLayout {
    /// The paper's 2-D texture: `states × 257` dense texels.
    Dense,
    /// Flattened trie of fat pointers: each state stores its failure
    /// word plus the padded band of symbols deviating from its failure
    /// state's row (≈ the trie children), and every entry carries the
    /// target record's shape, so any transition attempt is one fetch.
    /// The family's smaller layout.
    Banded,
    /// Probe the concrete layouts on the workload and keep the winner.
    Auto,
}

impl SttLayout {
    /// The concrete (runnable) layouts, in nominal footprint order,
    /// largest first.
    pub fn all_concrete() -> [SttLayout; 2] {
        [SttLayout::Dense, SttLayout::Banded]
    }

    /// Stable label used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            SttLayout::Dense => "dense",
            SttLayout::Banded => "banded",
            SttLayout::Auto => "auto",
        }
    }

    /// Parse a label produced by [`SttLayout::label`].
    pub fn parse(s: &str) -> Option<SttLayout> {
        match s {
            "dense" => Some(SttLayout::Dense),
            "banded" => Some(SttLayout::Banded),
            "auto" => Some(SttLayout::Auto),
            _ => None,
        }
    }

    /// The kernel approach that runs this layout (with the paper's
    /// diagonal shared-memory staging). `None` for `Auto`, which must be
    /// resolved first.
    pub fn approach(&self) -> Option<Approach> {
        match self {
            SttLayout::Dense => Some(Approach::SharedDiagonal),
            SttLayout::Banded => Some(Approach::SharedBanded),
            SttLayout::Auto => None,
        }
    }

    /// The layout an approach runs over, when the approach is a member of
    /// the shared-staging layout family (the three non-diagonal dense
    /// variants and PFAC use their own tables).
    pub fn of_approach(approach: Approach) -> Option<SttLayout> {
        match approach {
            Approach::SharedDiagonal => Some(SttLayout::Dense),
            Approach::SharedBanded => Some(SttLayout::Banded),
            _ => None,
        }
    }

    /// The next-smaller layout in nominal footprint order (the chain the
    /// `whatif` `stt-layout` knob walks). `None` when already smallest.
    pub fn next_smaller(&self) -> Option<SttLayout> {
        match self {
            SttLayout::Dense => Some(SttLayout::Banded),
            SttLayout::Banded | SttLayout::Auto => None,
        }
    }
}

/// Device-table footprint of one layout for one automaton.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayoutFootprint {
    /// Which layout.
    pub layout: SttLayout,
    /// Total texture bytes across the layout's tables; `None` when the
    /// automaton does not fit the layout.
    pub bytes: Option<usize>,
}

/// Exact device-table footprints of every concrete layout for `ac`,
/// without binding anything to a device.
pub fn layout_footprints(ac: &AcAutomaton) -> Vec<LayoutFootprint> {
    let dense = ac.stt().state_count() * STT_COLUMNS * 4;
    let banded = DeviceBandedStt::try_from_automaton(ac).ok();
    vec![
        LayoutFootprint {
            layout: SttLayout::Dense,
            bytes: Some(dense),
        },
        LayoutFootprint {
            layout: SttLayout::Banded,
            bytes: banded.map(|t| t.size_bytes()),
        },
    ]
}

/// One introspected probe run of the auto-picker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayoutProbe {
    /// Which layout ran.
    pub layout: SttLayout,
    /// The kernel approach that ran it.
    pub approach: Approach,
    /// Texture-L1 hit rate of the state-table texture alone (texture 0 of
    /// every layout family kernel): the fraction of per-state first-level
    /// fetches that stayed cache-resident.
    pub stt_l1_hit_rate: f64,
    /// Simulated throughput of the probe.
    pub gbps: f64,
    /// Total kernel cycles of the probe.
    pub cycles: u64,
}

/// The auto-picker's decision plus the evidence behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutChoice {
    /// The winning layout.
    pub layout: SttLayout,
    /// One probe per layout whose tables fit the automaton, in
    /// [`SttLayout::all_concrete`] order.
    pub probes: Vec<LayoutProbe>,
}

/// Bytes of the workload the picker scans per probe (enough text to warm
/// and thrash the texture caches, small enough to stay cheap next to the
/// real run).
pub const PICK_SAMPLE_BYTES: usize = 64 * 1024;

/// Probe every concrete layout over (a prefix of) `sample` with spatial
/// introspection armed, and keep the fastest probe; ties (within half a
/// percent of throughput) break toward the layout keeping more
/// state-table fetches texture-L1-resident — the more cache-headroom
/// choice when speed is a wash. Every probe carries its residency
/// numbers, so the decision ships with the evidence explaining it (a
/// layout wins *because* its working set stays resident, and the probe
/// rows show it). A layout whose tables cannot be built for this
/// automaton is skipped, so the dense table — which
/// [`GpuAcMatcher::new`] already validated — is the fallback. This is the
/// `Layout::Auto` resolution rule documented in DESIGN.md §4f.
pub fn pick_layout(m: &GpuAcMatcher, sample: &[u8]) -> Result<LayoutChoice, GpuError> {
    let sample = &sample[..sample.len().min(PICK_SAMPLE_BYTES)];
    let mut probes = Vec::new();
    for layout in SttLayout::all_concrete() {
        if layout == SttLayout::Banded && m.banded_tables().is_err() {
            continue;
        }
        let approach = layout.approach().expect("concrete layouts have kernels");
        let run = m.run_opts(
            sample,
            approach,
            RunOptions {
                record: false,
                introspect: Some(IntrospectConfig),
                ..Default::default()
            },
        )?;
        let intro = run.introspection.as_ref().expect("introspection armed");
        probes.push(LayoutProbe {
            layout,
            approach,
            stt_l1_hit_rate: intro.tex_l1_hit_rate(0).unwrap_or(0.0),
            gbps: run.gbps(),
            cycles: run.stats.cycles,
        });
    }
    let best = probes
        .iter()
        .copied()
        .reduce(|best, p| {
            if p.gbps > best.gbps * 1.005
                || (p.gbps > best.gbps * 0.995 && p.stt_l1_hit_rate > best.stt_l1_hit_rate)
            {
                p
            } else {
                best
            }
        })
        .expect("at least one probe");
    Ok(LayoutChoice {
        layout: best.layout,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::KernelParams;
    use ac_core::PatternSet;
    use gpu_sim::GpuConfig;

    fn matcher(pats: &[&str]) -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let params = KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 16,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        };
        let ac = AcAutomaton::build(&PatternSet::from_strs(pats).unwrap());
        GpuAcMatcher::new(cfg, params, ac).unwrap()
    }

    #[test]
    fn labels_round_trip() {
        for layout in SttLayout::all_concrete() {
            assert_eq!(SttLayout::parse(layout.label()), Some(layout));
        }
        assert_eq!(SttLayout::parse("auto"), Some(SttLayout::Auto));
        assert_eq!(SttLayout::parse("nope"), None);
    }

    #[test]
    fn approach_mapping_round_trips() {
        for layout in SttLayout::all_concrete() {
            let a = layout.approach().unwrap();
            assert_eq!(SttLayout::of_approach(a), Some(layout));
        }
        assert_eq!(SttLayout::of_approach(Approach::Pfac), None);
        assert_eq!(SttLayout::Auto.approach(), None);
    }

    #[test]
    fn next_smaller_walks_the_chain_to_banded() {
        let mut layout = SttLayout::Dense;
        let mut seen = vec![layout];
        while let Some(next) = layout.next_smaller() {
            seen.push(next);
            layout = next;
        }
        assert_eq!(seen, SttLayout::all_concrete());
    }

    #[test]
    fn footprints_shrink_under_dense_on_real_dictionaries() {
        let many: Vec<String> = (0..300).map(|i| format!("pattern{i:03}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let ac = AcAutomaton::build(&PatternSet::from_strs(&refs).unwrap());
        let fps = layout_footprints(&ac);
        assert_eq!(fps.len(), 2);
        let dense = fps[0].bytes.unwrap();
        for fp in &fps[1..] {
            let bytes = fp.bytes.unwrap();
            assert!(bytes < dense, "{}: {bytes} !< {dense}", fp.layout.label());
        }
    }

    #[test]
    fn picker_probes_every_layout_and_matches_dense_results() {
        let m = matcher(&["he", "she", "his", "hers"]);
        let text = b"she ushers her heirs; he hears her".repeat(16);
        let choice = pick_layout(&m, &text).unwrap();
        assert_eq!(choice.probes.len(), 2);
        for p in &choice.probes {
            assert!(p.gbps > 0.0, "{:?}", p.layout);
            assert!(
                (0.0..=1.0).contains(&p.stt_l1_hit_rate),
                "{:?}: {}",
                p.layout,
                p.stt_l1_hit_rate
            );
        }
        // The chosen layout must be one of the probed ones, and no probe
        // may clearly outrun it (the rule picks by throughput).
        assert!(choice.probes.iter().any(|p| p.layout == choice.layout));
        let won = choice
            .probes
            .iter()
            .find(|p| p.layout == choice.layout)
            .unwrap();
        for p in &choice.probes {
            assert!(p.gbps <= won.gbps * 1.005, "{:?} beats the pick", p.layout);
        }
    }

    #[test]
    fn wide_band_dictionary_falls_back_to_dense() {
        // `q00000!`, `q00000~`, …: every depth-6 state branches on '!'
        // and '~', 94 bytes apart, so each record pads to the 128-entry
        // class and the records need 1,103,246 texels — past the 2^20 a
        // 20-bit offset addresses.
        let pats: Vec<String> = (0..8_300)
            .flat_map(|i| [format!("q{i:05}!"), format!("q{i:05}~")])
            .collect();
        let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
        let m = matcher(&refs);
        assert!(matches!(m.banded_tables(), Err(GpuError::InvalidParams(_))));
        let text = b"q00042! q08299~ q00007?".repeat(4);
        assert!(matches!(
            m.run(&text, Approach::SharedBanded),
            Err(GpuError::InvalidParams(_))
        ));
        let fps = layout_footprints(m.automaton());
        assert_eq!(fps[1].layout, SttLayout::Banded);
        assert_eq!(fps[1].bytes, None);
        assert!(fps[0].bytes.is_some());
        let choice = pick_layout(&m, &text).unwrap();
        assert_eq!(choice.layout, SttLayout::Dense);
        assert_eq!(choice.probes.len(), 1);
        let run = m.run(&text, Approach::SharedDiagonal).unwrap();
        assert_eq!(run.matches.len(), 8);
    }
}
