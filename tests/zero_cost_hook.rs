//! The fault hook and the observer cost nothing when disabled: every
//! benchmark-visible timing/statistics output is bit-identical whether
//! injection is (a) never armed, (b) armed with an empty plan, or (c)
//! wrapped in a supervisor — and whatever set of observers is armed.
//! The paper's throughput figures therefore cannot drift from merely
//! *having* the robustness or observability layers.

use ac_core::{AcAutomaton, PatternSet};
use ac_gpu::{run_supervised, Approach, GpuAcMatcher, KernelParams, RunOptions, SuperviseConfig};
use gpu_sim::{AttributionConfig, FaultPlan, GpuConfig, IntrospectConfig, TraceConfig};

fn matcher() -> GpuAcMatcher {
    let cfg = GpuConfig::gtx285();
    let ac = AcAutomaton::build(
        &PatternSet::from_strs(&["he", "she", "his", "hers", "use", "user"]).unwrap(),
    );
    GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
}

fn text() -> Vec<u8> {
    b"those users share his shelf; she ushers her heirs there "
        .iter()
        .cycle()
        .take(10_000)
        .copied()
        .collect()
}

/// The loops below iterate `Approach::all()`, so the zero-cost invariant
/// automatically covers new kernels — but only if they are actually in the
/// list. Pin the STT layout family's presence so coverage cannot
/// silently shrink if the enumeration is ever reworked.
#[test]
fn approach_enumeration_covers_the_layout_family() {
    for layout in ac_gpu::SttLayout::all_concrete() {
        let approach = layout.approach().expect("concrete layouts have kernels");
        assert!(
            Approach::all().contains(&approach),
            "{approach:?} missing from Approach::all(): the zero-cost-hook \
             tests would no longer cover it"
        );
    }
}

#[test]
fn disabled_and_empty_plan_runs_are_bit_identical() {
    let text = text();
    for approach in Approach::all() {
        let plain = matcher().run(&text, approach).unwrap();

        // Armed with an *empty* plan: the readback verification path runs
        // but nothing fires; simulated timing/stats must not move.
        let armed = matcher();
        armed.set_fault_plan(FaultPlan::none());
        let run = armed.run(&text, approach).unwrap();
        assert_eq!(
            run.stats, plain.stats,
            "{approach:?}: stats drifted with empty plan armed"
        );
        assert_eq!(run.matches, plain.matches, "{approach:?}");
        assert_eq!(run.match_events, plain.match_events, "{approach:?}");
        assert_eq!(run.readback_bytes, plain.readback_bytes, "{approach:?}");

        // Same matcher after disarming: still identical.
        armed.clear_fault_plan();
        let run = armed.run(&text, approach).unwrap();
        assert_eq!(
            run.stats, plain.stats,
            "{approach:?}: stats drifted after disarm"
        );
    }
}

#[test]
fn supervision_does_not_perturb_fault_free_timing() {
    let text = text();
    let m = matcher();
    let plain = m.run(&text, Approach::SharedDiagonal).unwrap();

    let s = run_supervised(
        &m,
        &text,
        Approach::SharedDiagonal,
        &SuperviseConfig::default(),
    )
    .unwrap();
    assert_eq!(s.report.attempts, 1);
    assert_eq!(s.run.stats, plain.stats, "supervised stats drifted");
    assert_eq!(s.run.matches, plain.matches);

    // The watchdog alone (armed, not tripped) must not move timing either.
    let watched = m
        .run_opts(
            &text,
            Approach::SharedDiagonal,
            RunOptions {
                record: true,
                watchdog_cycles: Some(u64::MAX),
                trace: None,
                introspect: None,
                attribution: None,
            },
        )
        .unwrap();
    assert_eq!(watched.stats, plain.stats, "watchdog arming drifted stats");
}

/// Arm `set` of the device's observer collectors and check the run
/// against a plain one. The trace recorder (scheduler + DRAM + per-issue
/// instants), spatial introspection and workload attribution each only
/// observe the simulation, so every stat — cycles, idle, stall breakdown,
/// per-SM figures — plus the matches and match events are bit-identical
/// to the plain run; and each armed collector's output is internally
/// consistent.
fn assert_observers_leave_runs_bit_identical(
    set: &str,
    trace: Option<TraceConfig>,
    introspect: Option<IntrospectConfig>,
    attribution: Option<AttributionConfig>,
) {
    let text = text();
    for approach in Approach::all() {
        let plain = matcher().run(&text, approach).unwrap();
        assert!(plain.trace.is_none());
        assert!(plain.introspection.is_none());
        assert!(plain.attribution.is_none());
        let seen = matcher()
            .run_opts(
                &text,
                approach,
                RunOptions {
                    record: true,
                    watchdog_cycles: None,
                    trace,
                    introspect,
                    attribution,
                },
            )
            .unwrap();
        let what = format!("{approach:?} observed by {set}");
        assert_eq!(seen.stats, plain.stats, "{what}: stats drifted");
        assert_eq!(seen.matches, plain.matches, "{what}");
        assert_eq!(seen.match_events, plain.match_events, "{what}");
        assert_eq!(seen.readback_bytes, plain.readback_bytes, "{what}");
        assert_eq!(seen.trace.is_some(), trace.is_some(), "{what}");
        assert_eq!(seen.introspection.is_some(), introspect.is_some(), "{what}");
        assert_eq!(seen.attribution.is_some(), attribution.is_some(), "{what}");

        if let Some(tb) = &seen.trace {
            assert!(!tb.is_empty(), "{what}: armed trace recorded nothing");
        }
        // Introspection: per-set counters sum exactly to each cache's
        // aggregate stats.
        if let Some(intro) = &seen.introspection {
            assert!(!intro.per_sm.is_empty(), "{what}: empty snapshot");
            for sm in &intro.per_sm {
                for (sets, agg, which) in [
                    (&sm.tex_l1_sets, &sm.tex_l1, "L1"),
                    (&sm.tex_l2_sets, &sm.tex_l2, "L2"),
                ] {
                    let accesses: u64 = sets.iter().map(|s| s.accesses).sum();
                    let hits: u64 = sets.iter().map(|s| s.hits).sum();
                    let evictions: u64 = sets.iter().map(|s| s.evictions).sum();
                    assert_eq!(
                        accesses, agg.accesses,
                        "{what} SM {} {which}: per-set accesses != aggregate",
                        sm.sm
                    );
                    assert_eq!(hits, agg.hits, "{what} SM {} {which}", sm.sm);
                    assert!(
                        evictions <= agg.misses,
                        "{what} SM {} {which}: more evictions than misses",
                        sm.sm
                    );
                }
            }
        }
        // Attribution conserves: every SM cycle lands in exactly one
        // bucket — charged to a state, unattributed, or post-retire
        // drain — and texture traffic folds onto the kernel's own
        // counters.
        if let Some(w) = &seen.attribution {
            assert_eq!(
                w.attributed_cycles() + w.unattributed_cycles + w.drain_cycles,
                w.total_sm_cycles,
                "{what}: cycles leaked from the attribution ledger"
            );
            assert!(w.attributed_cycles() > 0, "{what}: nothing was charged");
            let fetches: u64 = w.tex_fetches.iter().sum();
            assert_eq!(
                fetches, seen.stats.totals.tex_fetches,
                "{what}: per-state tex fetches disagree with LaunchStats"
            );
        }
    }
}

fn issue_trace() -> Option<TraceConfig> {
    Some(TraceConfig {
        issues: true,
        ..TraceConfig::default()
    })
}

#[test]
fn trace_arming_leaves_launch_stats_bit_identical() {
    assert_observers_leave_runs_bit_identical("trace", issue_trace(), None, None);
}

#[test]
fn introspection_arming_leaves_launch_stats_bit_identical() {
    assert_observers_leave_runs_bit_identical("introspection", None, Some(IntrospectConfig), None);
}

#[test]
fn attribution_arming_leaves_launch_stats_bit_identical_and_conserves() {
    assert_observers_leave_runs_bit_identical("attribution", None, None, Some(AttributionConfig));
}

#[test]
fn observer_arming_leaves_runs_bit_identical() {
    // The device's one observer arms all three collectors together.
    assert_observers_leave_runs_bit_identical(
        "all",
        issue_trace(),
        Some(IntrospectConfig),
        Some(AttributionConfig),
    );
}

#[test]
fn serve_telemetry_disarmed_and_armed_runs_are_bit_identical() {
    use ac_serve::{serve, synthetic_workload, ServeConfig, TelemetryConfig, WorkloadConfig};

    // The serving pipeline's observability layer holds the same contract
    // as the kernel-level hooks above: armed telemetry only *observes*
    // the serve loop (it reads already-computed times and counters), so
    // every behavioural output — the report, each job's matches and
    // latencies, the rejection/expiry/shed records, the breaker history,
    // the scheduled stream timeline — must be bit-identical to a
    // disarmed run.
    let matcher = {
        let cfg = GpuConfig::gtx285();
        let ac = ac_serve::serve_automaton(ac_serve::DEFAULT_PATTERNS, 7);
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    };
    let workload = WorkloadConfig {
        jobs: 64,
        seed: 7,
        ..WorkloadConfig::defaults()
    };
    let jobs = synthetic_workload(&workload);

    let mut disarmed_cfg = ServeConfig::new(2);
    disarmed_cfg.queue_capacity = 16;
    let mut armed_cfg = disarmed_cfg;
    armed_cfg.telemetry = Some(TelemetryConfig::default());

    let disarmed = serve(&matcher, jobs.clone(), &disarmed_cfg).unwrap();
    let armed = serve(&matcher, jobs, &armed_cfg).unwrap();

    assert_eq!(armed.report, disarmed.report, "ServeReport drifted");
    assert_eq!(armed.outcomes, disarmed.outcomes, "outcomes drifted");
    assert_eq!(armed.rejections, disarmed.rejections);
    assert_eq!(armed.expiries, disarmed.expiries);
    assert_eq!(armed.sheds, disarmed.sheds);
    assert_eq!(armed.breaker_transitions, disarmed.breaker_transitions);
    assert_eq!(armed.timeline, disarmed.timeline, "stream timeline drifted");

    // And the armed run actually recorded something: job spans in the
    // stitched trace, cadence samples in the registry.
    assert!(disarmed.telemetry.is_none());
    let tel = armed.telemetry.expect("telemetry was armed");
    assert!(!tel.trace.is_empty(), "armed telemetry recorded no events");
    assert!(!tel.samples.is_empty(), "registry produced no samples");
}

#[test]
fn serve_pool_disarmed_is_the_legacy_path_and_armed_only_delays() {
    use ac_serve::{
        serve, synthetic_workload, ServeConfig, ServePoolConfig, WorkloadConfig,
        DEFAULT_POOL_CAPACITY,
    };

    // The device pool is an Option hook like every layer above: with
    // `pool: None` the effective PCIe model is the configured one
    // (pinned, untouched) and the run is deterministic with no pool
    // stats; armed with a pinned pool, the only permitted effect is
    // *delay* (allocator driver cycles charged to uploads) — matches and
    // batch structure must not move, and no job may finish earlier.
    let matcher = {
        let cfg = GpuConfig::gtx285();
        let ac = ac_serve::serve_automaton(ac_serve::DEFAULT_PATTERNS, 7);
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    };
    let workload = WorkloadConfig {
        jobs: 64,
        seed: 7,
        ..WorkloadConfig::defaults()
    };
    let jobs = synthetic_workload(&workload);

    let plain_cfg = ServeConfig::new(2);
    assert_eq!(
        plain_cfg.effective_pcie(),
        plain_cfg.pcie,
        "pool None must not rewrite the host-memory model"
    );
    let a = serve(&matcher, jobs.clone(), &plain_cfg).unwrap();
    let b = serve(&matcher, jobs.clone(), &plain_cfg).unwrap();
    assert_eq!(a.report, b.report, "disarmed serve must be deterministic");
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.timeline, b.timeline);
    assert!(a.report.pool.is_none());

    let pooled_cfg = plain_cfg.with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
    assert_eq!(
        pooled_cfg.effective_pcie(),
        plain_cfg.pcie,
        "a pinned pool keeps the link model"
    );
    let pooled = serve(&matcher, jobs, &pooled_cfg).unwrap();
    assert_eq!(pooled.report.batches, a.report.batches);
    assert_eq!(pooled.report.jobs_completed, a.report.jobs_completed);
    for (p, q) in pooled.outcomes.iter().zip(&a.outcomes) {
        assert_eq!(p.id, q.id);
        assert_eq!(p.matches, q.matches, "pool changed job {} answers", p.id);
        assert!(
            p.completed_seconds >= q.completed_seconds - 1e-12,
            "job {} finished earlier with the pool armed",
            p.id
        );
    }
    assert!(pooled.report.pool.is_some());
}

#[test]
fn counting_mode_timing_unaffected_by_armed_empty_plan() {
    let text = text();
    let m = matcher();
    let plain = m.run_counting(&text, Approach::SharedDiagonal).unwrap();
    let armed = matcher();
    armed.set_fault_plan(FaultPlan::none());
    let counted = armed.run_counting(&text, Approach::SharedDiagonal).unwrap();
    assert_eq!(counted.stats, plain.stats);
    assert_eq!(counted.match_events, plain.match_events);
    assert_eq!(counted.readback_bytes, plain.readback_bytes);
}
