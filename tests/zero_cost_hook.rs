//! The fault and trace hooks cost nothing when disabled: every
//! benchmark-visible timing/statistics output is bit-identical whether
//! injection is (a) never armed, (b) armed with an empty plan, or (c)
//! wrapped in a supervisor — and whether trace recording is armed or not.
//! The paper's throughput figures therefore cannot drift from merely
//! *having* the robustness or observability layers.

use ac_core::{AcAutomaton, PatternSet};
use ac_gpu::{run_supervised, Approach, GpuAcMatcher, KernelParams, RunOptions, SuperviseConfig};
use gpu_sim::{FaultPlan, GpuConfig, IntrospectConfig, TraceConfig};

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
/// list. Pin the compressed-layout family's presence so coverage cannot
/// silently shrink if the enumeration is ever reworked.
#[test]
fn approach_enumeration_covers_the_layout_family() {
    for approach in [
        Approach::SharedDiagonal,
        Approach::SharedBanded,
        Approach::SharedTwoLevel,
        Approach::SharedCompressed,
    ] {
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

#[test]
fn trace_arming_leaves_launch_stats_bit_identical() {
    let text = text();
    for approach in Approach::all() {
        let plain = matcher().run(&text, approach).unwrap();

        // Recording armed (scheduler + DRAM + per-issue instants): the
        // recorder observes the simulation but must never feed back into
        // it, so every stat — cycles, idle, stall attribution, per-SM
        // breakdowns — is bit-identical to the untraced run.
        let cfg = TraceConfig {
            issues: true,
            ..TraceConfig::default()
        };
        let traced = matcher()
            .run_opts(
                &text,
                approach,
                RunOptions {
                    record: true,
                    watchdog_cycles: None,
                    trace: Some(cfg),
                    introspect: None,
                    attribution: None,
                },
            )
            .unwrap();
        assert_eq!(
            traced.stats, plain.stats,
            "{approach:?}: stats drifted with trace armed"
        );
        assert_eq!(traced.matches, plain.matches, "{approach:?}");
        assert_eq!(traced.match_events, plain.match_events, "{approach:?}");
        let tb = traced.trace.as_ref().expect("trace requested");
        assert!(!tb.is_empty(), "{approach:?}: armed trace recorded nothing");

        // Disarmed run through the same entry point carries no buffer.
        let untraced = matcher()
            .run_opts(
                &text,
                approach,
                RunOptions {
                    record: true,
                    watchdog_cycles: None,
                    trace: None,
                    introspect: None,
                    attribution: None,
                },
            )
            .unwrap();
        assert!(untraced.trace.is_none());
        assert_eq!(
            untraced.stats, plain.stats,
            "{approach:?}: disarmed run drifted"
        );
    }
}

#[test]
fn introspection_arming_leaves_launch_stats_bit_identical() {
    let text = text();
    for approach in Approach::all() {
        let plain = matcher().run(&text, approach).unwrap();

        // Introspection armed (per-set cache counters, bank histograms,
        // DRAM busy intervals, per-row fetch counts): the probe observes
        // the simulation but never feeds back into it, so every stat is
        // bit-identical to the unprobed run.
        let probed = matcher()
            .run_opts(
                &text,
                approach,
                RunOptions {
                    record: true,
                    watchdog_cycles: None,
                    trace: None,
                    introspect: Some(IntrospectConfig::default()),
                    attribution: None,
                },
            )
            .unwrap();
        assert_eq!(
            probed.stats, plain.stats,
            "{approach:?}: stats drifted with introspection armed"
        );
        assert_eq!(probed.matches, plain.matches, "{approach:?}");
        assert_eq!(probed.match_events, plain.match_events, "{approach:?}");
        assert!(plain.introspection.is_none());

        // The snapshot is present and internally consistent: per-set
        // counters sum exactly to each cache's aggregate stats.
        let intro = probed.introspection.expect("introspection requested");
        assert!(!intro.per_sm.is_empty(), "{approach:?}: empty snapshot");
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
                    "{approach:?} SM {} {which}: per-set accesses != aggregate",
                    sm.sm
                );
                assert_eq!(hits, agg.hits, "{approach:?} SM {} {which}", sm.sm);
                assert!(
                    evictions <= agg.misses,
                    "{approach:?} SM {} {which}: more evictions than misses",
                    sm.sm
                );
            }
        }
    }
}

#[test]
fn attribution_arming_leaves_launch_stats_bit_identical_and_conserves() {
    let text = text();
    for approach in Approach::all() {
        let plain = matcher().run(&text, approach).unwrap();

        // Attribution armed: every fetch/stall cycle is charged to the
        // DFA state being visited, but the ledger only observes — stats,
        // matches, and events must be bit-identical to the plain run.
        let charged = matcher()
            .run_opts(
                &text,
                approach,
                RunOptions {
                    record: true,
                    attribution: Some(gpu_sim::AttributionConfig::default()),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(
            charged.stats, plain.stats,
            "{approach:?}: stats drifted with attribution armed"
        );
        assert_eq!(charged.matches, plain.matches, "{approach:?}");
        assert_eq!(charged.match_events, plain.match_events, "{approach:?}");
        assert!(plain.attribution.is_none());

        // Conservation: every SM cycle lands in exactly one bucket —
        // charged to a state, unattributed, or post-retire drain.
        let w = charged.attribution.expect("attribution requested");
        assert_eq!(
            w.attributed_cycles() + w.unattributed_cycles + w.drain_cycles,
            w.total_sm_cycles,
            "{approach:?}: cycles leaked from the attribution ledger"
        );
        assert!(
            w.attributed_cycles() > 0,
            "{approach:?}: nothing was charged"
        );
        // Texture traffic folds exactly onto the kernel's own counters.
        let fetches: u64 = w.tex_fetches.iter().sum();
        assert_eq!(
            fetches, charged.stats.totals.tex_fetches,
            "{approach:?}: per-state tex fetches disagree with LaunchStats"
        );

        // Disarmed run through the same entry point carries no ledger.
        let disarmed = matcher()
            .run_opts(
                &text,
                approach,
                RunOptions {
                    record: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(disarmed.attribution.is_none());
        assert_eq!(
            disarmed.stats, plain.stats,
            "{approach:?}: disarmed run drifted"
        );
    }
}

#[test]
fn stream_engine_routing_leaves_launch_stats_bit_identical() {
    use ac_gpu::multistream::{run_multistream, MultiStreamConfig};
    use ac_gpu::PcieConfig;

    // Routing a run through the multi-stream engine is a scheduling
    // wrapper, not a different execution: with one stream and one segment
    // covering the whole input, the kernel's LaunchStats must be
    // bit-identical to the legacy direct-launch path, and the matches the
    // same set.
    let text = text();
    for approach in Approach::all() {
        let m = matcher();
        let plain = m.run(&text, approach).unwrap();
        let cfg = MultiStreamConfig::new(1, text.len(), PcieConfig::gen2_x16());
        let r = run_multistream(&m, &text, approach, &cfg).unwrap();
        assert_eq!(r.segments, 1, "{approach:?}");
        assert_eq!(
            r.segment_stats[0], plain.stats,
            "{approach:?}: stats drifted through the stream engine"
        );
        assert_eq!(r.match_events, plain.match_events, "{approach:?}");
        let mut direct = plain.matches.clone();
        direct.sort();
        direct.dedup();
        assert_eq!(r.matches, direct, "{approach:?}");
    }
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
}
