//! Host-side launch planning: which kernel a launch runs, chunk sizes,
//! grid geometry, and the shared staging layout (including the paper's
//! diagonal bank mapping).

use crate::kernels::PfacMode;
use crate::readback::WordCoding;
use crate::runner::Approach;
use ac_core::AcAutomaton;
use gpu_sim::{GpuConfig, LaunchConfig};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Tunable kernel parameters; defaults follow the paper's description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelParams {
    /// Threads per block. For the shared-memory kernels this is the
    /// *largest* block the launch planner may pick ([`Plan::shared`]),
    /// the same way `global_chunk_bytes` caps the global-only chunk;
    /// `pin_paper_launch` makes it exact.
    pub threads_per_block: u32,
    /// Bytes owned by each thread in the global-only kernel ("divide the
    /// input text into many chunks and assign one chunk to each thread").
    pub global_chunk_bytes: u32,
    /// Bytes owned by each thread in the shared-memory kernels; the block
    /// tile is `threads × shared_chunk_bytes + overlap`, sized at the
    /// default 128 threads to the paper's "8~12KB for the input text data
    /// out of 16KB".
    pub shared_chunk_bytes: u32,
    /// Pin the paper's launch shape: the shared-memory kernels run at
    /// exactly `threads_per_block` instead of a planned smaller block,
    /// and every launch runs the kernel it names instead of switching to
    /// PFAC for one-round launches ([`Plan::kernel`]). The figure
    /// reproduction keeps this shape. Set only by [`KernelParams::paper`];
    /// params serialized before this field existed parse as unpinned, and
    /// its earlier name `pin_threads_per_block` still parses.
    #[serde(default, alias = "pin_threads_per_block")]
    pub pin_paper_launch: bool,
}

impl KernelParams {
    /// Paper-flavoured defaults for a device: blocks of up to 128
    /// threads; shared tile ≈ 8 KB at 128 threads × 64-byte chunks; 4 KB
    /// global chunks. The planner runs staged PFAC for launches whose
    /// one-thread-per-byte grid fits one resident round ([`Plan::kernel`]),
    /// keeps 128 threads for every shared launch that fits one round, and
    /// shrinks the block only for larger scans ([`Plan::shared`]).
    pub fn defaults_for(cfg: &GpuConfig) -> Self {
        let threads_per_block = (4 * cfg.warp_size).max(cfg.warp_size);
        KernelParams {
            threads_per_block,
            global_chunk_bytes: 4096,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        }
    }

    /// The paper's launch shape: [`KernelParams::defaults_for`] with the
    /// shape pinned, so every shared-memory launch uses the paper's
    /// 128-thread, ≈ 8 KB tile at any input size and no launch switches
    /// kernels. The figure grid uses it; serving and the CLI use the
    /// planned defaults.
    pub fn paper(cfg: &GpuConfig) -> Self {
        KernelParams {
            pin_paper_launch: true,
            ..Self::defaults_for(cfg)
        }
    }

    /// Validate against a device and an automaton.
    pub fn validate(&self, cfg: &GpuConfig, ac: &AcAutomaton) -> Result<(), String> {
        if self.threads_per_block == 0 || !self.threads_per_block.is_multiple_of(cfg.warp_size) {
            return Err(format!(
                "threads_per_block {} must be a positive multiple of warp size {}",
                self.threads_per_block, cfg.warp_size
            ));
        }
        if self.global_chunk_bytes == 0 {
            return Err("global_chunk_bytes must be positive".into());
        }
        if self.shared_chunk_bytes == 0 || !self.shared_chunk_bytes.is_multiple_of(4) {
            return Err(format!(
                "shared_chunk_bytes {} must be a positive multiple of 4 (32-bit staging words)",
                self.shared_chunk_bytes
            ));
        }
        // The diagonal scheme's conflict-freeness (and the coalescing
        // contrast the paper measures) requires each chunk to span at
        // least one half-warp of 32-bit words — the paper's 64-byte
        // chunks on 16-lane half-warps.
        let min_chunk = 4 * cfg.half_warp();
        if self.shared_chunk_bytes < min_chunk {
            return Err(format!(
                "shared_chunk_bytes {} must be at least {min_chunk} \
                 (one half-warp of staging words)",
                self.shared_chunk_bytes
            ));
        }
        let tile = self.tile_bytes(self.threads_per_block, ac);
        if tile > cfg.shared_mem_bytes {
            return Err(format!(
                "staging tile of {tile} bytes exceeds the {}-byte shared memory; \
                 reduce shared_chunk_bytes or threads_per_block",
                cfg.shared_mem_bytes
            ));
        }
        Ok(())
    }

    /// Shared-memory tile size of a `threads`-thread block: the block's
    /// owned bytes plus the overlap tail (staged so the block's last
    /// threads can scan past their chunks without touching global
    /// memory), rounded up to whole words.
    pub fn tile_bytes(&self, threads: u32, ac: &AcAutomaton) -> u32 {
        let owned = threads * self.shared_chunk_bytes;
        let overlap = ac.required_overlap() as u32;
        (owned + overlap).next_multiple_of(4)
    }
}

/// A fully planned launch for a given input length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The simulator launch geometry.
    pub launch: LaunchConfig,
    /// Bytes owned per thread.
    pub chunk_bytes: u32,
    /// Scan overlap (the paper's X).
    pub overlap: u32,
    /// Input length in bytes.
    pub text_len: u64,
    /// How the readback frame codes this launch's match events.
    pub coding: WordCoding,
}

impl Plan {
    /// The kernel a launch of `text_len` bytes runs when the caller
    /// configured `configured`: staged PFAC when its one-thread-per-byte
    /// grid fits one resident round ([`Plan::pfac_limit`]), else
    /// `configured`. Pinned params never switch.
    ///
    /// A one-round launch leaves most SMs idle under the chunked kernels:
    /// 16 KiB is two 128-thread tiles on 2 of the 30 SMs, each thread
    /// making 64 + X dependent texture fetches. PFAC spreads the same
    /// bytes over every SM with one short walk per thread (DESIGN.md §4l).
    /// This rule prices the kernel alone. Serving prices kernel and
    /// readback and runs staged PFAC from here up to where its line
    /// crosses the configured kernel's (`ac_serve::kernel_choice`).
    pub fn kernel(
        params: &KernelParams,
        cfg: &GpuConfig,
        ac: &AcAutomaton,
        configured: Approach,
        text_len: u64,
    ) -> Approach {
        match Self::pfac_limit(params, cfg, ac) {
            Some(limit) if text_len <= limit => Approach::PfacStaged,
            _ => configured,
        }
    }

    /// The longest launch [`Plan::kernel`] runs as staged PFAC: one
    /// resident round of its grid, `num_sms × resident_blocks_per_sm ×
    /// threads_per_block`, where residency counts the staged tile of
    /// `threads + longest − 1` bytes. On the GTX 285 that is 30,720 B
    /// while 8 tiles fit an SM's shared memory (up to 2,048 bytes each)
    /// and 3,840 B at the longest pattern the defaults accept (8,193
    /// bytes, one tile per SM). `None` for pinned params, which never
    /// switch, and when the tile fits no SM.
    pub fn pfac_limit(params: &KernelParams, cfg: &GpuConfig, ac: &AcAutomaton) -> Option<u64> {
        if params.pin_paper_launch {
            return None;
        }
        let launch = Self::pfac_launch(params, ac, PfacMode::Staged, 0);
        launch.validate(cfg).ok()?;
        Some(
            cfg.num_sms as u64
                * launch.resident_blocks_per_sm(cfg) as u64
                * params.threads_per_block as u64,
        )
    }

    /// PFAC's grid: one thread per byte in `threads_per_block` blocks,
    /// each staging `threads + longest − 1` bytes in the staged mode.
    fn pfac_launch(
        params: &KernelParams,
        ac: &AcAutomaton,
        mode: PfacMode,
        text_len: u64,
    ) -> LaunchConfig {
        let threads = params.threads_per_block;
        LaunchConfig {
            grid_blocks: text_len.div_ceil(threads as u64).max(1) as u32,
            threads_per_block: threads,
            shared_bytes_per_block: match mode {
                PfacMode::Global => 0,
                PfacMode::Staged => (threads + ac.required_overlap() as u32).next_multiple_of(4),
            },
            resident_blocks_cap: None,
        }
    }

    /// Plan a PFAC kernel: one thread per byte, each walking the
    /// failureless trie from its anchor (no chunk). The staged mode's
    /// overlap is the tile's tail past the block's anchors.
    pub fn pfac(
        params: &KernelParams,
        cfg: &GpuConfig,
        ac: &AcAutomaton,
        mode: PfacMode,
        text_len: u64,
    ) -> Result<Plan, String> {
        let launch = Self::pfac_launch(params, ac, mode, text_len);
        launch.validate(cfg)?;
        Ok(Plan {
            launch,
            chunk_bytes: 1,
            overlap: match mode {
                PfacMode::Global => 0,
                PfacMode::Staged => ac.required_overlap() as u32,
            },
            text_len,
            coding: WordCoding::walks(ac.state_count()),
        })
    }

    /// Plan the global-only kernel: one chunk per thread, grid sized to
    /// cover the text.
    ///
    /// `params.global_chunk_bytes` is the *maximum* chunk size; when the
    /// input is small the chunk shrinks so the grid still fills the
    /// device (any real CUDA port sizes its grid to the data — a 50 KB
    /// input split into 4 KB chunks would occupy 13 of 30 720 thread
    /// slots).
    pub fn global_only(
        params: &KernelParams,
        cfg: &GpuConfig,
        ac: &AcAutomaton,
        text_len: u64,
    ) -> Result<Plan, String> {
        params.validate(cfg, ac)?;
        // The paper assigns "one chunk to each thread processor (N-chunks
        // to a thread block, where N is the number of thread processors
        // in each thread block)" — blocks sized to the SM's cores (8 on
        // GT200), not the deep grids of the shared kernel. We realize
        // that as one-warp blocks with residency capped so each SM holds
        // about `2 × cores` chunk streams, matching the paper's ~64
        // threads per SM; this low occupancy is what makes the
        // global-only approach latency-bound in the paper's data.
        let tpb = cfg.warp_size;
        let resident_cap = (2 * cfg.cores_per_sm).div_ceil(tpb).max(2);
        let target_threads = cfg.num_sms as u64 * resident_cap as u64 * tpb as u64 * 4;
        // Floor of 256 bytes: two coalescing segments per chunk, so
        // neighbouring threads' cursors always fall in different segments
        // — the scattered per-thread walk of Fig. 7. (Shrinking further
        // would turn the global-only kernel into an accidental coalesced
        // scheme that no real per-thread-chunk port exhibits.)
        let fitted = text_len.div_ceil(target_threads).next_multiple_of(16);
        let floor = 256u64.min(params.global_chunk_bytes as u64);
        let chunk = fitted.clamp(floor, params.global_chunk_bytes as u64) as u32;
        let threads_needed = text_len.div_ceil(chunk as u64).max(1);
        let grid_blocks = threads_needed.div_ceil(tpb as u64).max(1) as u32;
        let launch = LaunchConfig {
            grid_blocks,
            threads_per_block: tpb,
            shared_bytes_per_block: 0,
            resident_blocks_cap: Some(resident_cap),
        };
        launch.validate(cfg)?;
        Ok(Plan {
            launch,
            chunk_bytes: chunk,
            overlap: ac.required_overlap() as u32,
            text_len,
            coding: WordCoding::new(chunk, ac.state_count()),
        })
    }

    /// Plan a shared-memory kernel: one tile per block.
    ///
    /// Unless `params.pin_paper_launch` is set, the block size is
    /// planned: among warp multiples up to `params.threads_per_block`
    /// whose tile fits shared memory, pick the one that needs the fewest
    /// resident rounds, breaking ties toward the larger block. Blocks go
    /// round-robin over the SMs, so the busiest SM holds
    /// `ceil(full_blocks / num_sms)` blocks and runs them in
    /// `ceil(that / resident_blocks_per_sm)` rounds. Only *full* blocks
    /// count: a short tail block finishes long before a full one, and
    /// counting it would shrink blocks for no gain.
    ///
    /// A launch that fits one round keeps the largest block. Spreading
    /// it as smaller blocks over more SMs gives each SM its own cold
    /// texture L2, which mostly costs more than it saves (DESIGN.md §4l).
    pub fn shared(
        params: &KernelParams,
        cfg: &GpuConfig,
        ac: &AcAutomaton,
        text_len: u64,
    ) -> Result<Plan, String> {
        params.validate(cfg, ac)?;
        let chunk = params.shared_chunk_bytes as u64;
        let launch_at = |threads: u32| LaunchConfig {
            grid_blocks: text_len.div_ceil(threads as u64 * chunk).max(1) as u32,
            threads_per_block: threads,
            shared_bytes_per_block: params.tile_bytes(threads, ac),
            resident_blocks_cap: None,
        };
        let launch = if params.pin_paper_launch {
            launch_at(params.threads_per_block)
        } else {
            // Rounds on the busiest SM, counting full blocks only.
            let rounds = |launch: &LaunchConfig| {
                let full_blocks = text_len / (launch.threads_per_block as u64 * chunk);
                let busiest = full_blocks.div_ceil(cfg.num_sms as u64);
                busiest.div_ceil(launch.resident_blocks_per_sm(cfg) as u64)
            };
            (1..=params.threads_per_block / cfg.warp_size)
                .map(|warps| launch_at(warps * cfg.warp_size))
                .filter(|launch| launch.validate(cfg).is_ok())
                .min_by_key(|launch| (rounds(launch), Reverse(launch.threads_per_block)))
                .ok_or_else(|| {
                    format!(
                        "no block of at most {} threads has a staging tile that fits \
                         the {}-byte shared memory",
                        params.threads_per_block, cfg.shared_mem_bytes
                    )
                })?
        };
        launch.validate(cfg)?;
        Ok(Plan {
            launch,
            chunk_bytes: params.shared_chunk_bytes,
            overlap: ac.required_overlap() as u32,
            text_len,
            coding: WordCoding::new(params.shared_chunk_bytes, ac.state_count()),
        })
    }

    /// Owned byte range of a global thread id, clamped to the text.
    pub fn owned_range(&self, thread: u64) -> (u64, u64) {
        let start = (thread * self.chunk_bytes as u64).min(self.text_len);
        let end = (start + self.chunk_bytes as u64).min(self.text_len);
        (start, end)
    }

    /// Scan-end (owned end + overlap, clamped) of a global thread id.
    pub fn scan_end(&self, thread: u64) -> u64 {
        let (_, end) = self.owned_range(thread);
        (end + self.overlap as u64).min(self.text_len)
    }
}

/// The diagonal store scheme of paper Fig. 11, generalized from the
/// 16-thread illustration to T threads per block.
///
/// The tile's word `w` belongs to chunk `c = w / wpc` at within-chunk word
/// `j = w % wpc` (`wpc` = words per chunk) and is stored at word index
/// `j·T + (c + j) mod T`. For any fixed `j`, a half-warp of consecutive
/// `c` values lands on 16 consecutive word indices modulo `T` — 16
/// distinct banks — so both the cooperative staging stores and the
/// per-thread matching loads are conflict-free (paper Fig. 12). Words in
/// the overlap tail (`w ≥ T·wpc`) keep their linear position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagonalMap {
    threads: u32,
    words_per_chunk: u32,
}

impl DiagonalMap {
    /// Create the mapping for `threads` chunks of `chunk_bytes` each.
    ///
    /// # Panics
    /// Panics unless `chunk_bytes` is a positive multiple of 4.
    pub fn new(threads: u32, chunk_bytes: u32) -> Self {
        assert!(
            chunk_bytes > 0 && chunk_bytes.is_multiple_of(4),
            "chunk must be whole words"
        );
        DiagonalMap {
            threads,
            words_per_chunk: chunk_bytes / 4,
        }
    }

    /// Map a linear tile word index to its stored word index.
    #[inline]
    pub fn map_word(&self, w: u64) -> u64 {
        let t = self.threads as u64;
        let wpc = self.words_per_chunk as u64;
        if w >= t * wpc {
            return w; // overlap tail stays linear
        }
        let c = w / wpc;
        let j = w % wpc;
        j * t + (c + j) % t
    }

    /// Map a linear tile *byte* offset to its stored byte address.
    #[inline]
    pub fn map_byte(&self, b: u64) -> u64 {
        self.map_word(b / 4) * 4 + b % 4
    }
}

/// The identity (linear) layout used by the naive and coalescing-only
/// variants: chunk bytes are stored contiguously per thread, which spreads
/// each chunk across banks and makes simultaneous per-thread reads collide
/// (the behaviour paper Fig. 23 quantifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinearMap;

impl LinearMap {
    /// Identity mapping.
    #[inline]
    pub fn map_byte(&self, b: u64) -> u64 {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;

    fn ac() -> AcAutomaton {
        AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap())
    }

    fn cfg() -> GpuConfig {
        GpuConfig::gtx285()
    }

    #[test]
    fn defaults_validate() {
        let p = KernelParams::defaults_for(&cfg());
        p.validate(&cfg(), &ac()).unwrap();
        assert_eq!(p.threads_per_block, 128);
        // Tile ≈ 8 KB, within the paper's 8–12 KB guidance.
        let tile = p.tile_bytes(p.threads_per_block, &ac());
        assert!((8 * 1024..=12 * 1024).contains(&tile), "tile {tile}");
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = KernelParams::defaults_for(&cfg());
        p.threads_per_block = 33;
        assert!(p.validate(&cfg(), &ac()).is_err());
        let mut p = KernelParams::defaults_for(&cfg());
        p.shared_chunk_bytes = 6;
        assert!(p.validate(&cfg(), &ac()).is_err());
        let mut p = KernelParams::defaults_for(&cfg());
        p.shared_chunk_bytes = 1024; // 128 KB tile
        assert!(p.validate(&cfg(), &ac()).is_err());
        let mut p = KernelParams::defaults_for(&cfg());
        p.global_chunk_bytes = 0;
        assert!(p.validate(&cfg(), &ac()).is_err());
    }

    #[test]
    fn global_plan_covers_text() {
        let p = KernelParams::defaults_for(&cfg());
        let plan = Plan::global_only(&p, &cfg(), &ac(), 1_000_000).unwrap();
        let threads = plan.launch.grid_blocks as u64 * plan.launch.threads_per_block as u64;
        assert!(threads * plan.chunk_bytes as u64 >= 1_000_000);
        // Last thread's range clamps to the text.
        assert_eq!(plan.scan_end(threads - 1), 1_000_000);
        // Chunks shrink so the device stays occupied, but never below
        // the 256-byte scatter floor.
        assert_eq!(plan.chunk_bytes, 256);
        let (s, e) = plan.owned_range(0);
        assert_eq!((s, e), (0, 256));
    }

    #[test]
    fn global_plan_caps_chunk_at_param_for_huge_inputs() {
        let p = KernelParams::defaults_for(&cfg());
        let plan = Plan::global_only(&p, &cfg(), &ac(), 200 * 1024 * 1024).unwrap();
        // 200 MB / 30 720 threads ≈ 6.8 KB > the 4 KB cap.
        assert_eq!(plan.chunk_bytes, p.global_chunk_bytes);
    }

    #[test]
    fn shared_plan_one_tile_per_block() {
        let p = KernelParams::defaults_for(&cfg());
        let plan = Plan::shared(&p, &cfg(), &ac(), 100_000).unwrap();
        let tile_owned = p.threads_per_block as u64 * p.shared_chunk_bytes as u64;
        assert_eq!(
            plan.launch.grid_blocks as u64,
            100_000u64.div_ceil(tile_owned)
        );
        assert_eq!(
            plan.launch.shared_bytes_per_block,
            p.tile_bytes(p.threads_per_block, &ac())
        );
    }

    /// Block size the planner picks for `len` bytes under the defaults.
    fn planned_threads(len: u64) -> u32 {
        let p = KernelParams::defaults_for(&cfg());
        let plan = Plan::shared(&p, &cfg(), &ac(), len).unwrap();
        plan.launch.threads_per_block
    }

    #[test]
    fn one_round_launches_keep_128_threads() {
        // 245,760 B is one 8 KiB tile on each of the 30 SMs.
        for len in [0, 1, 16 * 1024, 245_760] {
            assert_eq!(planned_threads(len), 128, "{len} bytes");
        }
    }

    #[test]
    fn pfac_runs_exactly_the_launches_that_fit_one_round() {
        // One round of 128-thread staged PFAC blocks: 30 SMs × 8 resident
        // on the GTX 285, 14 SMs × 8 on the C2050 (its 48 warps would
        // hold 12, the 8-block limit binds first).
        for (cfg, round) in [
            (GpuConfig::gtx285(), 30_720),
            (GpuConfig::fermi_c2050(), 14_336),
        ] {
            let planned = KernelParams::defaults_for(&cfg);
            let pinned = KernelParams::paper(&cfg);
            assert_eq!(Plan::pfac_limit(&planned, &cfg, &ac()), Some(round));
            assert_eq!(Plan::pfac_limit(&pinned, &cfg, &ac()), None);
            assert_round_boundary(&planned, &pinned, &cfg, &ac(), round);
        }
    }

    /// The planner runs staged PFAC up to `round` bytes and the
    /// configured kernel from `round + 1`; pinned params never switch.
    fn assert_round_boundary(
        planned: &KernelParams,
        pinned: &KernelParams,
        cfg: &GpuConfig,
        ac: &AcAutomaton,
        round: u64,
    ) {
        for approach in [Approach::SharedDiagonal, Approach::SharedBanded] {
            for len in [0, 1, round - 1, round] {
                let kernel = Plan::kernel(planned, cfg, ac, approach, len);
                assert_eq!(kernel, Approach::PfacStaged, "{len} bytes");
            }
            assert_eq!(
                Plan::kernel(planned, cfg, ac, approach, round + 1),
                approach
            );
            for len in [0, round - 1, round, round + 1] {
                assert_eq!(Plan::kernel(pinned, cfg, ac, approach, len), approach);
            }
        }
    }

    #[test]
    fn the_staged_tile_sets_the_pfac_limit() {
        // The tile is `128 + longest − 1` bytes, rounded to words, on a
        // 16 KiB SM: 8 tiles fit up to a 2,048-byte tile, then residency
        // falls with the tile until one tile of the longest pattern the
        // defaults accept (8,193 bytes) leaves one block per SM.
        let cfg = cfg();
        let planned = KernelParams::defaults_for(&cfg);
        let pinned = KernelParams::paper(&cfg);
        for (longest, tile, round) in [
            (16, 144, 30_720),
            (1_921, 2_048, 30_720),
            (1_922, 2_052, 26_880),
            (8_193, 8_320, 3_840),
        ] {
            let ac = AcAutomaton::build(
                &PatternSet::new(vec![b"he".to_vec(), vec![b'q'; longest]]).unwrap(),
            );
            let plan = Plan::pfac(&planned, &cfg, &ac, PfacMode::Staged, round).unwrap();
            assert_eq!(
                plan.launch.shared_bytes_per_block, tile,
                "longest {longest}"
            );
            assert_eq!(plan.overlap as usize, longest - 1);
            assert_eq!(plan.launch.grid_blocks as u64, round / 128);
            assert_eq!(Plan::pfac_limit(&planned, &cfg, &ac), Some(round));
            assert_round_boundary(&planned, &pinned, &cfg, &ac, round);
        }
        // The baseline mode stages nothing.
        let plan = Plan::pfac(&planned, &cfg, &ac(), PfacMode::Global, 100).unwrap();
        assert_eq!((plan.launch.shared_bytes_per_block, plan.overlap), (0, 0));
    }

    #[test]
    fn a_tail_block_is_not_a_round() {
        // One byte past 30 full tiles: the 31st block is a one-byte tail
        // on SM 0. Counting it as a second round would pick 96 threads.
        assert_eq!(planned_threads(245_761), 128);
    }

    #[test]
    fn multi_round_scans_shrink_the_block() {
        // 256 KiB: 32 full 128-thread tiles take two rounds on SMs 0 and
        // 1; 42 full 96-thread tiles, two resident per SM, take one.
        assert_eq!(planned_threads(256 * 1024), 96);
        // 4 MiB: 18 rounds at 128 threads, 10 at 32 (7 resident per SM).
        let p = KernelParams::defaults_for(&cfg());
        let plan = Plan::shared(&p, &cfg(), &ac(), 4 << 20).unwrap();
        assert_eq!(plan.launch.threads_per_block, 32);
        assert_eq!(plan.launch.resident_blocks_per_sm(&cfg()), 7);
        assert_eq!(plan.launch.grid_blocks, 2048);
    }

    #[test]
    fn unpinned_params_deserialize_from_the_old_format() {
        let old = r#"{"threads_per_block":128,"global_chunk_bytes":4096,"shared_chunk_bytes":64}"#;
        let p: KernelParams = serde_json::from_str(old).unwrap();
        assert_eq!(p, KernelParams::defaults_for(&cfg()));
        let pinned = KernelParams::paper(&cfg());
        let back: KernelParams =
            serde_json::from_str(&serde_json::to_string(&pinned).unwrap()).unwrap();
        assert_eq!(back, pinned);
        let old_pinned = r#"{"threads_per_block":128,"global_chunk_bytes":4096,"shared_chunk_bytes":64,"pin_threads_per_block":true}"#;
        let p: KernelParams = serde_json::from_str(old_pinned).unwrap();
        assert_eq!(p, pinned);
    }

    proptest::proptest! {
        /// Whatever the planner picks is a warp multiple no larger than
        /// the maximum, its tile fits shared memory, and the grid covers
        /// the text.
        #[test]
        fn planned_blocks_are_legal(
            len in 0u64..(8 << 20),
            max_warps in 1u32..=6,
            fermi in proptest::prelude::any::<bool>(),
        ) {
            let cfg = if fermi { GpuConfig::fermi_c2050() } else { cfg() };
            let p = KernelParams {
                threads_per_block: max_warps * cfg.warp_size,
                ..KernelParams::defaults_for(&cfg)
            };
            let plan = Plan::shared(&p, &cfg, &ac(), len).unwrap();
            let threads = plan.launch.threads_per_block;
            proptest::prop_assert!(threads > 0 && threads.is_multiple_of(cfg.warp_size));
            proptest::prop_assert!(threads <= p.threads_per_block);
            proptest::prop_assert_eq!(plan.launch.shared_bytes_per_block, p.tile_bytes(threads, &ac()));
            proptest::prop_assert!(plan.launch.shared_bytes_per_block <= cfg.shared_mem_bytes);
            let covered = plan.launch.grid_blocks as u64 * threads as u64 * p.shared_chunk_bytes as u64;
            proptest::prop_assert!(covered >= len);
        }

        /// The paper's params launch exactly 128 threads of the kernel
        /// they name at every size.
        #[test]
        fn paper_params_pin_128_threads(len in 0u64..(16 << 20)) {
            let p = KernelParams::paper(&cfg());
            let plan = Plan::shared(&p, &cfg(), &ac(), len).unwrap();
            proptest::prop_assert_eq!(plan.launch.threads_per_block, 128);
            let kernel = Plan::kernel(&p, &cfg(), &ac(), Approach::SharedDiagonal, len);
            proptest::prop_assert_eq!(kernel, Approach::SharedDiagonal);
        }
    }

    #[test]
    fn empty_text_still_plans_one_block() {
        let p = KernelParams::defaults_for(&cfg());
        let plan = Plan::shared(&p, &cfg(), &ac(), 0).unwrap();
        assert_eq!(plan.launch.grid_blocks, 1);
        assert_eq!(plan.owned_range(0), (0, 0));
    }

    #[test]
    fn diagonal_map_is_a_bijection() {
        let m = DiagonalMap::new(16, 64); // the paper's illustration size
        let total = 16u64 * 16; // words
        let mut seen = vec![false; total as usize];
        for w in 0..total {
            let y = m.map_word(w);
            assert!(y < total);
            assert!(!seen[y as usize], "collision at {w}");
            seen[y as usize] = true;
        }
    }

    #[test]
    fn diagonal_map_conflict_free_columns() {
        // For each within-chunk word j, the 16 chunks' words must land in
        // 16 distinct banks (paper Fig. 12).
        let m = DiagonalMap::new(128, 64);
        for j in 0..16u64 {
            for hw_start in (0..128).step_by(16) {
                let mut banks: Vec<u64> = (hw_start..hw_start + 16)
                    .map(|c| m.map_word(c * 16 + j) % 16)
                    .collect();
                banks.sort_unstable();
                banks.dedup();
                assert_eq!(banks.len(), 16, "j={j} hw={hw_start}");
            }
        }
    }

    #[test]
    fn diagonal_overlap_tail_is_linear() {
        let m = DiagonalMap::new(16, 64);
        assert_eq!(m.map_word(16 * 16 + 3), 16 * 16 + 3);
    }

    proptest::proptest! {
        /// The diagonal mapping is a bijection on the owned tile for any
        /// legal (threads, chunk) geometry, and per-column half-warps are
        /// always conflict-free on 16 banks.
        #[test]
        fn diagonal_map_properties(
            t_pow in 0u32..4,          // threads = 16 << t_pow
            wpc_mul in 1u64..5,        // words per chunk = 16 * wpc_mul
        ) {
            let threads = 16u32 << t_pow;
            let chunk_bytes = 64 * wpc_mul as u32;
            let m = DiagonalMap::new(threads, chunk_bytes);
            let total = threads as u64 * (chunk_bytes as u64 / 4);
            let mut seen = vec![false; total as usize];
            for w in 0..total {
                let y = m.map_word(w);
                proptest::prop_assert!(y < total, "mapped out of range");
                proptest::prop_assert!(!seen[y as usize], "collision at {}", w);
                seen[y as usize] = true;
            }
            // Conflict-freedom per within-chunk word column.
            for j in 0..(chunk_bytes as u64 / 4) {
                for hw in (0..threads as u64).step_by(16) {
                    let mut banks: Vec<u64> = (hw..hw + 16)
                        .map(|c| m.map_word(c * (chunk_bytes as u64 / 4) + j) % 16)
                        .collect();
                    banks.sort_unstable();
                    banks.dedup();
                    proptest::prop_assert_eq!(banks.len(), 16);
                }
            }
        }
    }

    #[test]
    fn map_byte_preserves_within_word_offset() {
        let m = DiagonalMap::new(16, 64);
        for b in [0u64, 1, 2, 3, 64, 65, 1000] {
            assert_eq!(m.map_byte(b) % 4, b % 4);
        }
        assert_eq!(LinearMap.map_byte(77), 77);
    }
}
