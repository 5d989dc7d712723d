//! Host orchestration: upload, launch, readback, match expansion.
//!
//! [`GpuAcMatcher`] is the crate's main entry point. It owns the automaton
//! and its device image; [`GpuAcMatcher::run`] executes one of the
//! kernels over an input and returns both the matches (checked against the
//! CPU oracle in the test suites) and the full timing/statistics record
//! that the benchmark harness turns into the paper's figures.

use crate::error::GpuError;
use crate::kernels::{
    BandedKernel, DeviceBandedStt, GlobalOnlyKernel, MatchEvent, PfacKernel, PfacMode,
    SharedKernel, SharedVariant, WarpReadback,
};
use crate::layout::{KernelParams, Plan};
use crate::readback::{self, Decoded, FrameTally, WordCoding};
use crate::upload::{DevicePfac, DeviceStt};
use ac_core::{AcAutomaton, Match, PfacAutomaton};
use gpu_sim::{
    Attribution, AttributionConfig, FaultPlan, FaultState, GpuConfig, GpuDevice, InjectedFault,
    IntrospectConfig, Introspection, LaunchConfig, LaunchStats, Launched, Observer,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use trace::{ArgValue, TraceBuffer, TraceConfig, PID_HOST};

/// Which kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// Paper §IV.B.3 first approach: input read directly from global
    /// memory (Fig. 7).
    GlobalOnly,
    /// Shared-memory staging with naive per-thread copies (Fig. 23
    /// baseline).
    SharedNaive,
    /// Shared-memory staging with coalesced loads but linear stores
    /// (Fig. 23's "memory access coalescing only").
    SharedCoalescedOnly,
    /// The paper's proposed kernel: coalesced staging + diagonal
    /// bank-conflict-free stores (Figs. 8–12).
    SharedDiagonal,
    /// The failureless related-work baseline (Lin et al.).
    Pfac,
    /// PFAC with each block's bytes staged in shared memory first
    /// ([`PfacMode::Staged`]): the kernel the planner runs for one-round
    /// launches ([`Plan::kernel`]).
    PfacStaged,
    /// Extension: the shared-memory kernel over a failure-banded STT
    /// flattened into trie-preorder fat-pointer records — per state, a
    /// failure word plus the padded band of symbols deviating from its
    /// failure state (≈ its trie children), every entry carrying the
    /// target record's shape so any transition attempt is one texture
    /// fetch. Preorder keeps a walk's next record on the same or
    /// adjacent texture line, so this is the family's smallest and most
    /// path-local layout.
    SharedBanded,
}

impl Approach {
    /// Stable label used in reports and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Approach::GlobalOnly => "global-only",
            Approach::SharedNaive => SharedVariant::Naive.label(),
            Approach::SharedCoalescedOnly => SharedVariant::CoalescedOnly.label(),
            Approach::SharedDiagonal => SharedVariant::Diagonal.label(),
            Approach::Pfac => PfacMode::Global.label(),
            Approach::PfacStaged => PfacMode::Staged.label(),
            Approach::SharedBanded => "shared-banded",
        }
    }

    /// All approaches, in report order.
    pub fn all() -> [Approach; 7] {
        [
            Approach::GlobalOnly,
            Approach::SharedNaive,
            Approach::SharedCoalescedOnly,
            Approach::SharedDiagonal,
            Approach::Pfac,
            Approach::PfacStaged,
            Approach::SharedBanded,
        ]
    }

    /// The PFAC mode this approach runs, if it is a PFAC kernel.
    pub fn pfac_mode(&self) -> Option<PfacMode> {
        match self {
            Approach::Pfac => Some(PfacMode::Global),
            Approach::PfacStaged => Some(PfacMode::Staged),
            _ => None,
        }
    }
}

/// Per-DFA-state workload attribution for one run, folded over SMs and
/// translated back to the automaton's original state ids (the banded
/// kernel reports record offsets; the fold undoes that, just as
/// `run_on_device` does for match events).
///
/// Conservation: `state_cycles.sum() + unattributed_cycles + drain_cycles
/// == total_sm_cycles` — every simulated SM cycle lands in exactly one
/// bucket. `fail_cycles` is a *sub-bucket* of `state_cycles` (the share a
/// kernel flagged as failure-path work), not an additional one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadAttribution {
    /// Issue + stall cycles charged to each DFA state (indexed by original
    /// state id).
    pub state_cycles: Vec<u64>,
    /// The failure-path share of `state_cycles`, where the kernel
    /// distinguishes it (currently the banded kernel's non-entry fetches).
    pub fail_cycles: Vec<u64>,
    /// Texture fetches issued while the lane was in each state.
    pub tex_fetches: Vec<u64>,
    /// Texture L1 misses among those fetches.
    pub tex_misses: Vec<u64>,
    /// Cycles spent in steps no kernel labelled (staging, syncs, result
    /// writes) plus anything charged to an out-of-range label.
    pub unattributed_cycles: u64,
    /// Post-retirement memory-drain cycles (no warp left to label).
    pub drain_cycles: u64,
    /// Total SM cycles across the launch (the conservation right-hand
    /// side; `Σ per-SM cycles`, not the launch's max).
    pub total_sm_cycles: u64,
}

impl WorkloadAttribution {
    /// Total cycles charged to states.
    pub fn attributed_cycles(&self) -> u64 {
        self.state_cycles.iter().sum()
    }

    /// State ids ranked by charged cycles, descending; ties break toward
    /// the lower id. Zero-cost states are omitted.
    pub fn hot_states(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .state_cycles
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s as u32, c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Result of one kernel execution.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// Which kernel ran.
    pub approach: Approach,
    /// Expanded, de-duplicated, sorted matches. Empty when the run was
    /// launched in counting mode.
    pub matches: Vec<Match>,
    /// Number of `(end, state)` match events the kernels reported
    /// (counted even in counting mode): the event words an event frame
    /// carries. The dense-table kernels report only events with an owned
    /// output; the banded kernel reports every match state it enters; a
    /// PFAC walk reports each terminal state it passes, and its frame
    /// carries one word per walk. It is no bound on `matches.len()`
    /// either way: one event can expand to several patterns, and overlap
    /// copies still collapse on the host.
    pub match_events: u64,
    /// Exact length in bytes of the delta-coded readback frame of those
    /// events (see [`crate::readback`]): `36 + 4w` for `w` words, tallied
    /// in recording and counting mode alike. Every layer that prices the
    /// device→host copy uses it.
    pub readback_bytes: u64,
    /// Launch statistics (cycles, coalescing, conflicts, texture hit
    /// rate, …).
    pub stats: LaunchStats,
    /// The grid that ran: the block size the planner chose (see
    /// [`Plan::shared`]), grid blocks, and the staging tile.
    pub launch: LaunchConfig,
    /// Input bytes scanned.
    pub bytes: usize,
    /// Device clock used for unit conversion.
    pub clock_hz: f64,
    /// Cycle-stamped trace of the run (device scheduler/DRAM events plus
    /// host upload/kernel/readback phases). `None` unless the run was
    /// launched with [`RunOptions::trace`].
    pub trace: Option<TraceBuffer>,
    /// Spatial memory-hierarchy snapshot (per-set cache counters, bank
    /// histograms, DRAM busy intervals, per-STT-row fetch counts). `None`
    /// unless the run was launched with [`RunOptions::introspect`].
    pub introspection: Option<Introspection>,
    /// Per-state workload attribution (cycles, failure share, texture
    /// traffic charged to the DFA state each lane was visiting). `None`
    /// unless the run was launched with [`RunOptions::attribution`].
    pub attribution: Option<WorkloadAttribution>,
}

impl GpuRun {
    /// Simulated wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.stats.cycles as f64 / self.clock_hz
    }

    /// Simulated throughput in Gbit/s — the unit of paper Figs. 16–18.
    pub fn gbps(&self) -> f64 {
        if self.stats.cycles == 0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / self.seconds() / 1.0e9
    }
}

/// Per-run knobs beyond the approach itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Materialize matches (`false` = counting mode).
    pub record: bool,
    /// Cycle budget for the launch watchdog; `None` disarms it.
    pub watchdog_cycles: Option<u64>,
    /// Arm trace recording for this run; the buffer comes back on
    /// [`GpuRun::trace`]. Recording never affects timing or matches.
    pub trace: Option<TraceConfig>,
    /// Arm spatial introspection for this run; the snapshot comes back on
    /// [`GpuRun::introspection`]. Observation-only, like `trace`.
    pub introspect: Option<IntrospectConfig>,
    /// Arm per-state workload attribution for this run; the folded profile
    /// comes back on [`GpuRun::attribution`]. Observation-only, like
    /// `trace` and `introspect`.
    pub attribution: Option<AttributionConfig>,
}

/// What one price probe measured ([`GpuAcMatcher::probe`]): the launch's
/// simulated kernel time and the length of its readback frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCost {
    /// Simulated kernel seconds ([`GpuRun::seconds`]).
    pub seconds: f64,
    /// Readback frame bytes ([`GpuRun::readback_bytes`]).
    pub readback_bytes: u64,
}

/// A memoized probe: kernel, launch length, and the sample it cycles.
type ProbeKey = (Approach, usize, Vec<u8>);

/// The host-side matcher: an automaton prepared for a device.
#[derive(Debug)]
pub struct GpuAcMatcher {
    cfg: GpuConfig,
    params: KernelParams,
    ac: AcAutomaton,
    dev_stt: DeviceStt,
    /// Built on first use; an `Err` records that the trie does not fit
    /// the goto table, so every PFAC run fails the same typed way and the
    /// planner keeps the configured kernel.
    pfac: OnceLock<Result<(PfacAutomaton, DevicePfac), GpuError>>,
    /// Built on first use; an `Err` records that the automaton does not
    /// fit the layout, so every banded run fails the same typed way.
    banded: OnceLock<Result<DeviceBandedStt, GpuError>>,
    /// Armed fault-injection state. Lives on the matcher (not the
    /// per-run device) so operation counters persist across retries: a
    /// retried launch has a fresh index and is not re-scheduled to fail.
    fault: Mutex<Option<FaultState>>,
    /// Price probes run so far ([`GpuAcMatcher::probe`]); `None` records
    /// a probe whose launch failed.
    probes: Mutex<HashMap<ProbeKey, Option<ProbeCost>>>,
}

impl GpuAcMatcher {
    /// Prepare `ac` for execution on a device described by `cfg`.
    pub fn new(cfg: GpuConfig, params: KernelParams, ac: AcAutomaton) -> Result<Self, GpuError> {
        cfg.validate()?;
        params
            .validate(&cfg, &ac)
            .map_err(GpuError::InvalidParams)?;
        let dev_stt = DeviceStt::from_automaton(&ac)?;
        Ok(GpuAcMatcher {
            cfg,
            params,
            ac,
            dev_stt,
            pfac: OnceLock::new(),
            banded: OnceLock::new(),
            fault: Mutex::new(None),
            probes: Mutex::new(HashMap::new()),
        })
    }

    /// A matcher for another device of the same model: shares the
    /// already-built automaton and device table images (cloned host-side
    /// bytes — each device still uploads its own copy at run time, as on
    /// real hardware) but carries *independent* fault state, so devices
    /// in a fleet fail independently. Lazily-built tables that exist on
    /// `self` are pre-seeded on the replica to keep fleet devices from
    /// re-deriving them.
    pub fn replicate(&self) -> GpuAcMatcher {
        fn clone_cell<T: Clone>(src: &OnceLock<T>) -> OnceLock<T> {
            match src.get() {
                Some(v) => OnceLock::from(v.clone()),
                None => OnceLock::new(),
            }
        }
        GpuAcMatcher {
            cfg: self.cfg,
            params: self.params,
            ac: self.ac.clone(),
            dev_stt: self.dev_stt.clone(),
            pfac: clone_cell(&self.pfac),
            banded: clone_cell(&self.banded),
            fault: Mutex::new(None),
            probes: Mutex::default(),
        }
    }

    /// Arm a deterministic fault plan for subsequent runs. Counters start
    /// at zero; they advance across runs and retries until
    /// [`GpuAcMatcher::clear_fault_plan`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock().unwrap() = Some(FaultState::new(plan));
    }

    /// Disarm fault injection, returning the final state (with its
    /// injection log), if any was armed.
    pub fn clear_fault_plan(&self) -> Option<FaultState> {
        self.fault.lock().unwrap().take()
    }

    /// Faults that have fired so far under the armed plan.
    pub fn fault_log(&self) -> Vec<InjectedFault> {
        self.fault
            .lock()
            .unwrap()
            .as_ref()
            .map(|s| s.log().to_vec())
            .unwrap_or_default()
    }

    /// Run `f` with the armed fault state set aside, then put it back
    /// unchanged: an observer replay neither fires scheduled faults nor
    /// advances the plan's operation counters.
    pub fn without_faults<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        let saved = self.fault.lock().unwrap().take();
        let out = f(self);
        *self.fault.lock().unwrap() = saved;
        out
    }

    /// One `len`-byte launch of `approach` over `sample` cycled to
    /// length, run off the simulated clock with any armed fault plan set
    /// aside: its kernel time and readback length, or `None` when the
    /// launch fails. Memoized per (kernel, length, sample) like the lazily
    /// built tables, so pricing the same workload again re-simulates
    /// nothing.
    pub fn probe(&self, approach: Approach, sample: &[u8], len: usize) -> Option<ProbeCost> {
        let key = (approach, len, sample.to_vec());
        if let Some(&cost) = self.probes.lock().unwrap().get(&key) {
            return cost;
        }
        let payload: Vec<u8> = sample.iter().copied().cycle().take(len).collect();
        let cost = self
            .without_faults(|m| m.run_opts(&payload, approach, RunOptions::default()))
            .ok()
            .map(|run| ProbeCost {
                seconds: run.seconds(),
                readback_bytes: run.readback_bytes,
            });
        self.probes.lock().unwrap().insert(key, cost);
        cost
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &AcAutomaton {
        &self.ac
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The kernel parameters.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// The kernel a launch of `len` bytes runs when `configured` is the
    /// caller's kernel: [`Plan::kernel`]'s choice, except that a matcher
    /// whose PFAC tables cannot be built keeps `configured`. The serve
    /// loop switches past this floor where pricing says so
    /// (`ac_serve::kernel_choice`); [`GpuAcMatcher::run`] and friends run
    /// exactly the approach they are given.
    pub fn plan_kernel(&self, configured: Approach, len: usize) -> Approach {
        match self.pfac_limit(configured) {
            Some(limit) if len <= limit => Approach::PfacStaged,
            _ => configured,
        }
    }

    /// The longest launch [`GpuAcMatcher::plan_kernel`] runs as staged
    /// PFAC instead of `configured`, or `None` when it never switches
    /// (pinned params, `configured` already PFAC, or no PFAC tables).
    pub fn pfac_limit(&self, configured: Approach) -> Option<usize> {
        if configured.pfac_mode().is_some() || self.pfac_tables().is_err() {
            return None;
        }
        Plan::pfac_limit(&self.params, &self.cfg, &self.ac).map(|l| l as usize)
    }

    /// Run `approach` over `text`, materializing matches.
    pub fn run(&self, text: &[u8], approach: Approach) -> Result<GpuRun, GpuError> {
        self.run_opts(
            text,
            approach,
            RunOptions {
                record: true,
                ..Default::default()
            },
        )
    }

    /// Run `approach` over `text` in counting mode: full timing, match
    /// events counted but not materialized. Use for paper-scale inputs
    /// where hundreds of millions of matches would not fit in host memory.
    ///
    /// The count is [`GpuRun::match_events`]: the events a recording run
    /// would read back, not the number of occurrences. An event names a
    /// state, which can hold several outputs, and overlap copies survive
    /// (partly-owned dense events, every banded overlap event), so only
    /// [`GpuAcMatcher::run`]'s `matches.len()` is an exact count.
    pub fn run_counting(&self, text: &[u8], approach: Approach) -> Result<GpuRun, GpuError> {
        self.run_opts(
            text,
            approach,
            RunOptions {
                record: false,
                ..Default::default()
            },
        )
    }

    /// The failureless trie and its goto table, built on first use. `Err`
    /// when the trie has too many states for the table (see
    /// [`DevicePfac::from_pfac`]).
    fn pfac_tables(&self) -> Result<&(PfacAutomaton, DevicePfac), GpuError> {
        self.pfac
            .get_or_init(|| {
                let pfac = PfacAutomaton::build(self.ac.patterns());
                let dev = DevicePfac::from_pfac(&pfac)?;
                Ok((pfac, dev))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The failure-banded tables, built on first use. `Err` when the
    /// automaton is too large for the layout's record offsets (see
    /// [`DeviceBandedStt::try_from_automaton`]).
    pub(crate) fn banded_tables(&self) -> Result<&DeviceBandedStt, GpuError> {
        self.banded
            .get_or_init(|| DeviceBandedStt::try_from_automaton(&self.ac))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Run with explicit [`RunOptions`] (recording mode, watchdog).
    pub fn run_opts(
        &self,
        text: &[u8],
        approach: Approach,
        opts: RunOptions,
    ) -> Result<GpuRun, GpuError> {
        let mut dev = GpuDevice::new(self.cfg)?;
        dev.set_watchdog(opts.watchdog_cycles);
        // Move the armed fault state (if any) into the fresh device for the
        // duration of the run, and put it back — counters advanced, log
        // appended — on every exit path.
        if let Some(state) = self.fault.lock().unwrap().take() {
            dev.arm_faults(state);
        }
        dev.arm_observer(Observer {
            trace: opts.trace.map(TraceBuffer::new),
            introspection: opts.introspect.map(|_| Introspection::default()),
            attribution: opts.attribution.map(|_| Attribution::default()),
        });
        let result = self.run_on_device(&mut dev, text, approach, opts.record);
        if let Some(state) = dev.disarm_faults() {
            *self.fault.lock().unwrap() = Some(state);
        }
        // Attach the device trace plus the host-phase pseudo-timeline
        // (simulated phases have no wall clock: upload at cycle 0, the
        // kernel spanning the launch, readback at completion). A failed
        // run's observations are dropped with the device.
        result.map(|mut run| {
            let seen = dev.take_observer();
            if let Some(mut tb) = seen.trace {
                tb.instant(
                    "upload",
                    "host",
                    PID_HOST,
                    0,
                    0,
                    vec![("bytes".to_string(), ArgValue::U64(text.len() as u64))],
                );
                tb.span(
                    "kernel",
                    "host",
                    PID_HOST,
                    0,
                    0,
                    run.stats.cycles,
                    vec![(
                        "approach".to_string(),
                        ArgValue::Str(approach.label().to_string()),
                    )],
                );
                tb.instant(
                    "readback",
                    "host",
                    PID_HOST,
                    0,
                    run.stats.cycles,
                    vec![
                        ("match_events".to_string(), ArgValue::U64(run.match_events)),
                        ("bytes".to_string(), ArgValue::U64(run.readback_bytes)),
                    ],
                );
                run.trace = Some(tb);
            }
            run.introspection = seen.introspection;
            run.attribution = seen
                .attribution
                .map(|raw| self.fold_attribution(raw, approach));
            run
        })
    }

    /// Fold a raw device [`Attribution`] (per-SM, kernel-label-indexed)
    /// into a host [`WorkloadAttribution`] indexed by original DFA state
    /// id. Mirrors the match-event remap: banded labels are record offsets
    /// translated through `new_to_old`, everything else already uses DFA
    /// ids. Out-of-range labels — impossible for well-formed kernels, but
    /// conservation must not depend on that — fall into the unattributed
    /// bucket.
    fn fold_attribution(&self, raw: Attribution, approach: Approach) -> WorkloadAttribution {
        let remap = (approach == Approach::SharedBanded).then(|| {
            let tables = self.banded_tables().expect("a banded run built its tables");
            tables.new_to_old.clone()
        });
        let states = self.ac.state_count();
        let mut out = WorkloadAttribution {
            state_cycles: vec![0; states],
            fail_cycles: vec![0; states],
            tex_fetches: vec![0; states],
            tex_misses: vec![0; states],
            unattributed_cycles: raw.unattributed_cycles(),
            drain_cycles: raw.drain_cycles(),
            total_sm_cycles: raw.total_cycles(),
        };
        let map = |label: usize| -> Option<usize> {
            let orig = match &remap {
                Some(m) => *m.get(label)? as usize,
                None => label,
            };
            (orig < states).then_some(orig)
        };
        for sm in &raw.per_sm {
            for (label, &v) in sm.state_cycles.iter().enumerate().filter(|(_, &v)| v > 0) {
                match map(label) {
                    Some(s) => out.state_cycles[s] += v,
                    None => out.unattributed_cycles += v,
                }
            }
            for (label, &v) in sm.fail_cycles.iter().enumerate().filter(|(_, &v)| v > 0) {
                if let Some(s) = map(label) {
                    out.fail_cycles[s] += v;
                }
            }
            for (label, &v) in sm.tex_fetches.iter().enumerate().filter(|(_, &v)| v > 0) {
                if let Some(s) = map(label) {
                    out.tex_fetches[s] += v;
                }
            }
            for (label, &v) in sm.tex_misses.iter().enumerate().filter(|(_, &v)| v > 0) {
                if let Some(s) = map(label) {
                    out.tex_misses[s] += v;
                }
            }
        }
        out
    }

    /// The device-layout STT texture (row == DFA state id), for mapping
    /// introspection residency/fetch data back to hot states.
    pub fn stt_texture(&self) -> gpu_sim::Texture2d {
        self.dev_stt.table.texture()
    }

    fn run_on_device(
        &self,
        dev: &mut GpuDevice,
        text: &[u8],
        approach: Approach,
        record: bool,
    ) -> Result<GpuRun, GpuError> {
        let plan = self.plan_for(approach, text.len() as u64)?;
        let launch = plan.launch;
        // +4 guard bytes: the staging loop reads whole 32-bit words and
        // may touch up to 3 bytes past an unaligned tile end.
        let text_base = dev.alloc_global(text.len() as u64 + 4)?;
        dev.write_global(text_base, text);
        let threads = launch.grid_blocks as u64 * launch.threads_per_block as u64;
        let out_base = dev.alloc_global(threads * 4)?;

        let (
            Collected {
                threads: thread_events,
                event_count,
                bytes: readback_bytes,
            },
            stats,
        ) = match approach {
            Approach::GlobalOnly => {
                let stt = self.dev_stt.table.bind(dev)?;
                let launched = dev.launch(launch, |geom| {
                    GlobalOnlyKernel::new(geom, plan, text_base, out_base, stt.tex, record)
                })?;
                collect(launched, plan.coding, GlobalOnlyKernel::take_results)
            }
            Approach::SharedNaive | Approach::SharedCoalescedOnly | Approach::SharedDiagonal => {
                let variant = match approach {
                    Approach::SharedNaive => SharedVariant::Naive,
                    Approach::SharedCoalescedOnly => SharedVariant::CoalescedOnly,
                    _ => SharedVariant::Diagonal,
                };
                let stt = self.dev_stt.table.bind(dev)?;
                let launched = dev.launch(launch, |geom| {
                    SharedKernel::new(variant, geom, plan, text_base, out_base, stt.tex, record)
                })?;
                collect(launched, plan.coding, SharedKernel::take_results)
            }
            Approach::Pfac | Approach::PfacStaged => {
                let mode = approach.pfac_mode().expect("a PFAC approach");
                let (_, dev_pfac) = self.pfac_tables()?;
                let goto = dev_pfac.table.bind(dev)?;
                let launched = dev.launch(launch, |geom| {
                    PfacKernel::new(mode, geom, plan, text_base, out_base, goto.tex, record)
                })?;
                collect(launched, plan.coding, PfacKernel::take_results)
            }
            Approach::SharedBanded => {
                let tables = self.banded_tables()?;
                let tex_words = dev.bind_texture_2d(
                    tables.words.clone(),
                    tables.word_rows,
                    crate::kernels::banded::BAND_ROW,
                )?;
                let root_fat = tables.fat_of[0];
                let launched = dev.launch(launch, |geom| {
                    BandedKernel::new(geom, plan, text_base, out_base, tex_words, root_fat, record)
                })?;
                let (mut rb, stats) = collect(launched, plan.coding, BandedKernel::take_results);
                // The kernel reports fat pointers, whose offset field
                // indexes `new_to_old`; translate back to the automaton's
                // ids before framing and host-side output expansion.
                for ev in rb.threads.iter_mut().flat_map(|(_, evs)| evs) {
                    ev.state =
                        tables.new_to_old[crate::kernels::banded::fat_off(ev.state) as usize];
                }
                (rb, stats)
            }
        };

        // Model the device→host result copy when faults are armed: frame
        // the events, ship the frame across the (corruptible) bus, and
        // verify integrity on arrival. A scheduled bit-flip surfaces here
        // as a typed corruption error — never as silently wrong matches.
        // Unarmed runs skip this entirely (zero-cost hook): their copy is
        // priced from the tally alone.
        let (frame, event_count) = if dev.faults_armed() {
            let mut buf = readback::encode(plan.coding, &thread_events, event_count);
            debug_assert!(
                !record || buf.len() as u64 == readback_bytes,
                "the tally prices the frame encode writes"
            );
            dev.dma_to_host(&mut buf);
            readback::decode(&buf)?
        } else {
            (Decoded::unframed(plan.coding, thread_events), event_count)
        };

        let matches = if record {
            self.expand(frame)?
        } else {
            Vec::new()
        };

        Ok(GpuRun {
            approach,
            matches,
            match_events: event_count,
            readback_bytes,
            stats,
            launch,
            bytes: text.len(),
            clock_hz: self.cfg.clock_hz,
            trace: None,
            introspection: None,
            attribution: None,
        })
    }

    fn plan_for(&self, approach: Approach, len: u64) -> Result<Plan, GpuError> {
        // Match events carry `u32` end offsets (see `MatchEvent`).
        if len > u32::MAX as u64 {
            return Err(GpuError::InvalidParams(format!(
                "text of {len} bytes exceeds the {} bytes a u32 match offset addresses",
                u32::MAX
            )));
        }
        let plan = match approach {
            Approach::GlobalOnly => Plan::global_only(&self.params, &self.cfg, &self.ac, len),
            Approach::Pfac | Approach::PfacStaged => {
                let mode = approach.pfac_mode().expect("a PFAC approach");
                Plan::pfac(&self.params, &self.cfg, &self.ac, mode, len)
            }
            _ => Plan::shared(&self.params, &self.cfg, &self.ac, len),
        };
        plan.map_err(GpuError::InvalidParams)
    }

    /// Expand a readback into sorted, de-duplicated matches. Each event's
    /// matching state contributes its output patterns, each starting
    /// `len(pattern)` bytes before the event's end; each PFAC walk
    /// contributes its deepest state's terminal patterns and those of its
    /// terminal trie ancestors, each starting at the anchor
    /// ([`PfacAutomaton::walk_matches`]). Sorting and de-duplicating makes
    /// reporting exactly-once, because:
    /// - every chunked-kernel thread starts at its owned start in the root
    ///   state, so every output it reports is a real occurrence inside its
    ///   window (a PFAC walk names only occurrences at its anchor);
    /// - windows reach `overlap` bytes past their owned end, so every
    ///   occurrence is reported by the thread owning its start;
    /// - the dense-table kernels drop, in place, events whose outputs all
    ///   start past the owned end, but an event with one owned output
    ///   still carries that state's unowned (shorter) outputs, and the
    ///   banded kernel filters nothing. Those copies are the same
    ///   `(pattern, start, end)` triple the owning thread reports, which
    ///   `dedup` collapses.
    fn expand(&self, frame: Decoded) -> Result<Vec<Match>, GpuError> {
        let patterns = self.ac.patterns();
        let mut out = Vec::new();
        match frame {
            Decoded::Events(events) => {
                out.reserve(events.len());
                for ev in events {
                    let end = ev.end as usize;
                    for &pid in self.ac.outputs().patterns_at(ev.state) {
                        out.push(Match {
                            pattern: pid,
                            start: end - patterns.len_of(pid),
                            end,
                        });
                    }
                }
            }
            Decoded::Walks(walks) => {
                let (pfac, _) = self.pfac_tables()?;
                for w in walks {
                    pfac.walk_matches(patterns, w.anchor as usize, w.state, &mut out);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

/// A launch's readback as the host drains it.
struct Collected {
    /// `(global thread, events)` of every thread that recorded events, in
    /// thread order (empty in counting mode).
    threads: Vec<(u64, Vec<MatchEvent>)>,
    /// Match events the kernels observed.
    event_count: u64,
    /// The frame's exact length: the threads' tallied words plus the
    /// thread words between them.
    bytes: u64,
}

/// Drain retired programs' readbacks. Programs come in `(block,
/// warp_in_block)` order, which is thread order, so the frame tally adds
/// the thread words as it goes.
fn collect<P>(
    launched: Launched<P>,
    coding: WordCoding,
    mut take: impl FnMut(&mut P) -> WarpReadback,
) -> (Collected, LaunchStats) {
    let mut frame = FrameTally::new(coding);
    let mut out = Collected {
        threads: Vec::new(),
        event_count: 0,
        bytes: 0,
    };
    for (_, mut p) in launched.programs {
        let rb = take(&mut p);
        out.event_count += rb.event_count;
        for t in rb.threads {
            frame.add(t.thread, t.words);
            if !t.events.is_empty() {
                out.threads.push((t.thread, t.events));
            }
        }
    }
    out.bytes = frame.bytes();
    (out, launched.stats)
}

/// Test-only helper shared by the kernel unit tests.
#[doc(hidden)]
pub mod tests_support {
    use super::*;
    use ac_core::PatternSet;

    /// Build an automaton over `pats`, run `approach` on `text`, assert
    /// equality with the serial oracle, and return the (matches, stats).
    pub fn build_rig(
        cfg: &GpuConfig,
        params: &KernelParams,
        pats: &[&str],
        text: &[u8],
        approach: Approach,
    ) -> (Vec<Match>, LaunchStats) {
        let ac = AcAutomaton::build(&PatternSet::from_strs(pats).unwrap());
        let matcher = GpuAcMatcher::new(*cfg, *params, ac).unwrap();
        let run = matcher.run(text, approach).unwrap();
        let mut want = matcher.automaton().find_all(text);
        want.sort();
        assert_eq!(
            run.matches, want,
            "{approach:?} diverged from the serial oracle"
        );
        (run.matches, run.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::PatternSet;

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
    fn all_approaches_agree_with_serial() {
        let m = matcher(&["he", "she", "his", "hers", "use", "user"]);
        let text = b"those users share his shelf; she ushers her heirs there";
        let mut want = m.automaton().find_all(text.as_slice());
        want.sort();
        for a in Approach::all() {
            let run = m.run(text, a).unwrap();
            assert_eq!(run.matches, want, "{a:?}");
            assert!(run.stats.cycles > 0, "{a:?}");
            assert!(run.gbps() > 0.0, "{a:?}");
        }
    }

    #[test]
    fn counting_mode_counts_without_materializing() {
        let m = matcher(&["ab"]);
        let text = b"abababababab";
        let full = m.run(text, Approach::SharedDiagonal).unwrap();
        let counted = m.run_counting(text, Approach::SharedDiagonal).unwrap();
        assert!(counted.matches.is_empty());
        assert_eq!(counted.match_events, full.match_events);
        assert_eq!(counted.readback_bytes, full.readback_bytes);
        assert_eq!(
            counted.stats.cycles, full.stats.cycles,
            "timing must not depend on recording"
        );
    }

    #[test]
    fn text_past_u32_offsets_is_a_typed_error() {
        let m = matcher(&["x"]);
        let too_long = u32::MAX as u64 + 1;
        for a in Approach::all() {
            assert!(m.plan_for(a, too_long - 1).is_ok(), "{a:?}");
            assert!(
                matches!(m.plan_for(a, too_long), Err(GpuError::InvalidParams(_))),
                "{a:?}"
            );
        }
    }

    #[test]
    fn empty_text_runs_cleanly() {
        let m = matcher(&["x"]);
        for a in Approach::all() {
            let run = m.run(b"", a).unwrap();
            assert!(run.matches.is_empty(), "{a:?}");
        }
    }

    #[test]
    fn the_planner_keeps_the_configured_kernel_without_pfac_tables() {
        use crate::error::UploadError;
        let m = matcher(&["he", "she", "hers"]);
        let text = b"she ushers her heirs";
        assert_eq!(
            m.plan_kernel(Approach::SharedDiagonal, text.len()),
            Approach::PfacStaged
        );
        assert!(m.pfac_limit(Approach::SharedDiagonal).is_some());
        assert_eq!(m.pfac_limit(Approach::Pfac), None);
        assert_eq!(m.pfac_limit(Approach::PfacStaged), None);
        let m = matcher(&["he", "she", "hers"]);
        let unbuildable = UploadError {
            states: 9,
            limit: 8,
            table: "PFAC",
        };
        m.pfac.set(Err(unbuildable.into())).unwrap();
        for a in [Approach::SharedDiagonal, Approach::SharedBanded] {
            assert_eq!(m.plan_kernel(a, text.len()), a);
            assert_eq!(m.pfac_limit(a), None);
            assert!(m.run(text, a).is_ok(), "{a:?}");
        }
        // A named PFAC run gets the typed error, never a panic.
        for a in [Approach::Pfac, Approach::PfacStaged] {
            assert_eq!(m.run(text, a).unwrap_err(), GpuError::Upload(unbuildable));
        }
    }

    #[test]
    fn replicas_run_identically_with_independent_fault_state() {
        let m = matcher(&["he", "she", "hers"]);
        // Build a lazy table first so the replica inherits it pre-seeded.
        let text = b"she ushers her heirs; he hears her";
        m.run(text, Approach::Pfac).unwrap();
        let r = m.replicate();
        for a in [Approach::SharedDiagonal, Approach::Pfac] {
            let orig = m.run(text, a).unwrap();
            let repl = r.run(text, a).unwrap();
            assert_eq!(orig.matches, repl.matches, "{a:?}");
            assert_eq!(orig.stats.cycles, repl.stats.cycles, "{a:?}");
        }
        // A fault plan armed on the original must not leak into the
        // replica: fleet devices fail independently.
        m.set_fault_plan(FaultPlan::none().with_launch_transient(0));
        assert!(m.run(text, Approach::SharedDiagonal).is_err());
        assert!(r.run(text, Approach::SharedDiagonal).is_ok());
        assert!(r.fault_log().is_empty());
        m.clear_fault_plan();
    }

    #[test]
    fn runs_without_faults_leave_the_armed_plan_untouched() {
        let m = matcher(&["he", "she"]);
        let text = b"she ushers";
        m.set_fault_plan(FaultPlan::none().with_launch_transient(0));
        let clean = m.without_faults(|m| m.run(text, Approach::SharedDiagonal));
        assert!(clean.is_ok());
        assert!(m.fault_log().is_empty());
        // Launch 0 is still scheduled: the set-aside run did not consume it.
        assert!(m.run(text, Approach::SharedDiagonal).is_err());
        assert_eq!(m.fault_log().len(), 1);
        m.clear_fault_plan();
    }

    #[test]
    fn runs_are_deterministic() {
        let m = matcher(&["he", "she"]);
        let text = b"she sells seashells on the seashore";
        let a = m.run(text, Approach::SharedDiagonal).unwrap();
        let b = m.run(text, Approach::SharedDiagonal).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn traced_run_matches_untraced_and_carries_events() {
        let m = matcher(&["he", "she", "hers"]);
        let text = b"she ushers her heirs; he hears her";
        let plain = m.run(text, Approach::SharedDiagonal).unwrap();
        assert!(plain.trace.is_none());
        let traced = m
            .run_opts(
                text,
                Approach::SharedDiagonal,
                RunOptions {
                    record: true,
                    trace: Some(TraceConfig::default()),
                    ..Default::default()
                },
            )
            .unwrap();
        // Tracing is observation-only: stats and matches are bit-identical.
        assert_eq!(traced.stats, plain.stats);
        assert_eq!(traced.matches, plain.matches);
        let tb = traced.trace.expect("trace requested");
        assert!(!tb.is_empty());
        let names: Vec<&str> = tb.events().iter().map(|e| e.name.as_str()).collect();
        for host_phase in ["upload", "kernel", "readback"] {
            assert!(names.contains(&host_phase), "missing {host_phase} event");
        }
        assert!(names.contains(&"sm"), "missing per-SM spans");
        // The readback instant prices the frame the run reports.
        let readback = tb.events().iter().find(|e| e.name == "readback").unwrap();
        assert_eq!(
            readback.args,
            [
                (
                    "match_events".to_string(),
                    ArgValue::U64(plain.match_events)
                ),
                ("bytes".to_string(), ArgValue::U64(plain.readback_bytes)),
            ]
        );
    }

    #[test]
    fn introspected_run_matches_plain_and_carries_snapshot() {
        let m = matcher(&["he", "she", "hers"]);
        let text = b"she ushers her heirs; he hears her";
        for a in Approach::all() {
            let plain = m.run(text, a).unwrap();
            assert!(plain.introspection.is_none(), "{a:?}");
            let probed = m
                .run_opts(
                    text,
                    a,
                    RunOptions {
                        record: true,
                        introspect: Some(IntrospectConfig),
                        ..Default::default()
                    },
                )
                .unwrap();
            // Introspection is observation-only: stats and matches are
            // bit-identical to the plain run.
            assert_eq!(probed.stats, plain.stats, "{a:?}");
            assert_eq!(probed.matches, plain.matches, "{a:?}");
            let intro = probed.introspection.expect("introspection requested");
            assert!(!intro.per_sm.is_empty(), "{a:?}: no per-SM snapshots");
            // Per-set counters cover the aggregate cache stats exactly.
            for sm in &intro.per_sm {
                let acc: u64 = sm.tex_l1_sets.iter().map(|s| s.accesses).sum();
                let hits: u64 = sm.tex_l1_sets.iter().map(|s| s.hits).sum();
                assert_eq!(acc, sm.tex_l1.accesses, "{a:?} SM {}", sm.sm);
                assert_eq!(hits, sm.tex_l1.hits, "{a:?} SM {}", sm.sm);
            }
        }
    }

    #[test]
    fn introspection_reports_hot_stt_rows() {
        let m = matcher(&["he", "she", "hers"]);
        let text = b"she ushers her heirs; he hears her".repeat(8);
        let run = m
            .run_opts(
                &text,
                Approach::SharedDiagonal,
                RunOptions {
                    record: false,
                    introspect: Some(IntrospectConfig),
                    ..Default::default()
                },
            )
            .unwrap();
        let intro = run.introspection.unwrap();
        // Every state id the kernel fetched maps back to a real STT row.
        let fetches = intro.row_fetches(0);
        assert_eq!(fetches.len(), m.stt_texture().rows() as usize);
        assert!(fetches[0] > 0, "root state is always consulted");
        assert!(fetches.iter().sum::<u64>() > 0);
        // Residency maps cache lines back through the tiled layout.
        let resident = intro.resident_rows(&m.stt_texture());
        assert_eq!(resident.len(), fetches.len());
        assert!(resident.iter().sum::<u64>() > 0, "cache holds no STT lines");
    }

    #[test]
    fn attributed_run_conserves_cycles_across_all_approaches() {
        let m = matcher(&["he", "she", "his", "hers", "use", "user"]);
        let text = b"those users share his shelf; she ushers her heirs there";
        for a in Approach::all() {
            let plain = m.run(text, a).unwrap();
            assert!(plain.attribution.is_none(), "{a:?}");
            let run = m
                .run_opts(
                    text,
                    a,
                    RunOptions {
                        record: true,
                        attribution: Some(AttributionConfig),
                        ..Default::default()
                    },
                )
                .unwrap();
            // Attribution is observation-only: stats and matches are
            // bit-identical to the plain run.
            assert_eq!(run.stats, plain.stats, "{a:?}");
            assert_eq!(run.matches, plain.matches, "{a:?}");
            let w = run.attribution.expect("attribution requested");
            assert_eq!(w.state_cycles.len(), m.automaton().state_count());
            // Conservation: every SM cycle lands in exactly one bucket.
            assert_eq!(
                w.attributed_cycles() + w.unattributed_cycles + w.drain_cycles,
                w.total_sm_cycles,
                "{a:?}: cycles leaked"
            );
            assert!(w.attributed_cycles() > 0, "{a:?}: nothing attributed");
            // The root state is always visited.
            assert!(w.state_cycles[0] > 0, "{a:?}: root uncharged");
            // Failure share never exceeds its bucket.
            for (s, (&f, &c)) in w.fail_cycles.iter().zip(&w.state_cycles).enumerate() {
                assert!(f <= c, "{a:?}: state {s} fail {f} > total {c}");
            }
            // Texture misses never exceed fetches, and per-state fetches
            // fold back to the launch totals for single-texture kernels.
            let fetches: u64 = w.tex_fetches.iter().sum();
            let misses: u64 = w.tex_misses.iter().sum();
            assert!(misses <= fetches, "{a:?}");
            assert_eq!(
                fetches, run.stats.totals.tex_fetches,
                "{a:?}: fetch count diverged from LaunchStats"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Approach::GlobalOnly.label(), "global-only");
        assert_eq!(Approach::SharedDiagonal.label(), "shared-diagonal");
        assert_eq!(Approach::Pfac.label(), "pfac");
        assert_eq!(Approach::PfacStaged.label(), "pfac-staged");
        assert_eq!(Approach::all().len(), 7);
        assert_eq!(Approach::SharedBanded.label(), "shared-banded");
    }

    #[test]
    fn oversized_params_rejected_at_construction() {
        let cfg = GpuConfig::gtx285();
        let params = KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 16,
            shared_chunk_bytes: 4096, // 128 KB tile
            pin_paper_launch: false,
        };
        let ac = AcAutomaton::build(&PatternSet::from_strs(&["x"]).unwrap());
        assert!(GpuAcMatcher::new(cfg, params, ac).is_err());
    }

    #[test]
    fn seconds_and_gbps_units() {
        let run = GpuRun {
            approach: Approach::GlobalOnly,
            matches: vec![],
            match_events: 0,
            readback_bytes: 36,
            stats: LaunchStats {
                cycles: 1_476_000_000,
                ..Default::default()
            },
            launch: LaunchConfig {
                grid_blocks: 1,
                threads_per_block: 32,
                shared_bytes_per_block: 0,
                resident_blocks_cap: None,
            },
            bytes: 125_000_000, // 1 Gbit
            clock_hz: 1.476e9,
            trace: None,
            introspection: None,
            attribution: None,
        };
        assert!((run.seconds() - 1.0).abs() < 1e-9);
        assert!((run.gbps() - 1.0).abs() < 1e-9);
    }
}
