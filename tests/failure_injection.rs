//! Failure injection: invalid configurations must produce errors, never
//! panics or silent wrong answers, across every public API boundary.

use ac_core::{AcError, ChunkPlan, PatternSet};
use ac_cpu::{par_find_all, ParallelConfig};
use ac_gpu::{
    run_supervised, Approach, ErrorClass, GpuAcMatcher, GpuError, KernelParams, SuperviseConfig,
};
use gpu_sim::{DeviceError, FaultPlan, GpuConfig, GpuDevice, LaunchConfig};

#[test]
fn pattern_set_rejects_degenerate_input() {
    assert_eq!(
        PatternSet::new(std::iter::empty::<&[u8]>()).unwrap_err(),
        AcError::EmptyPatternSet
    );
    assert_eq!(
        PatternSet::from_strs(&["ok", ""]).unwrap_err(),
        AcError::EmptyPattern { index: 1 }
    );
}

#[test]
fn chunk_plan_rejects_unsafe_geometry() {
    assert_eq!(
        ChunkPlan::new(100, 0, 5, 5).unwrap_err(),
        AcError::ZeroChunkSize
    );
    assert_eq!(
        ChunkPlan::new(100, 10, 2, 9).unwrap_err(),
        AcError::OverlapTooSmall {
            requested: 2,
            required: 9
        }
    );
}

#[test]
fn parallel_matcher_rejects_zero_workers() {
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["x"]).unwrap());
    assert_eq!(
        par_find_all(
            &ac,
            b"xx",
            &ParallelConfig {
                threads: 0,
                chunk_size: 4
            }
        ),
        Err(AcError::ZeroWorkers)
    );
}

type Mutation = Box<dyn Fn(&mut GpuConfig)>;

#[test]
fn gpu_config_validation_is_exhaustive() {
    let base = GpuConfig::gtx285();
    let mutations: Vec<(&str, Mutation)> = vec![
        ("zero sms", Box::new(|c| c.num_sms = 0)),
        ("odd warp", Box::new(|c| c.warp_size = 7)),
        ("warp too big", Box::new(|c| c.warp_size = 64)),
        ("zero banks", Box::new(|c| c.shared_banks = 0)),
        ("zero blocks", Box::new(|c| c.max_blocks_per_sm = 0)),
        ("bad segment", Box::new(|c| c.coalesce_segment = 96)),
        ("zero clock", Box::new(|c| c.clock_hz = 0.0)),
        ("zero device mem", Box::new(|c| c.device_mem_bytes = 0)),
        ("zero tex rate", Box::new(|c| c.tex_lanes_per_cycle = 0.0)),
        ("bad l1 line", Box::new(|c| c.tex_cache.line_bytes = 48)),
        (
            "mismatched l2 line",
            Box::new(|c| c.tex_l2.line_bytes = 128),
        ),
        ("zero dram bw", Box::new(|c| c.dram.bytes_per_cycle = 0.0)),
    ];
    for (what, mutate) in mutations {
        let mut cfg = base;
        mutate(&mut cfg);
        assert!(cfg.validate().is_err(), "{what} should be rejected");
        assert!(
            GpuDevice::new(cfg).is_err(),
            "{what} should fail device bring-up"
        );
    }
    assert!(base.validate().is_ok());
}

#[test]
fn launch_validation_rejects_bad_geometry() {
    let cfg = GpuConfig::gtx285();
    let cases = [
        LaunchConfig {
            grid_blocks: 0,
            threads_per_block: 128,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        },
        LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 33,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        },
        LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 32 * 64, // 64 warps > 32 per SM
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        },
        LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 128,
            shared_bytes_per_block: 17 * 1024, // > 16 KB
            resident_blocks_cap: None,
        },
    ];
    for lc in cases {
        assert!(lc.validate(&cfg).is_err(), "{lc:?} should be rejected");
    }
}

#[test]
fn kernel_params_rejected_before_any_launch() {
    let cfg = GpuConfig::gtx285();
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["abc"]).unwrap());
    let bad = [
        KernelParams {
            threads_per_block: 0,
            global_chunk_bytes: 64,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        },
        KernelParams {
            threads_per_block: 48,
            global_chunk_bytes: 64,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        },
        KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 0,
            shared_chunk_bytes: 64,
            pin_paper_launch: false,
        },
        KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 64,
            shared_chunk_bytes: 62,
            pin_paper_launch: false,
        },
        KernelParams {
            threads_per_block: 32,
            global_chunk_bytes: 64,
            shared_chunk_bytes: 32,
            pin_paper_launch: false,
        },
        KernelParams {
            threads_per_block: 256,
            global_chunk_bytes: 64,
            shared_chunk_bytes: 512,
            pin_paper_launch: false,
        },
    ];
    for params in bad {
        assert!(
            GpuAcMatcher::new(cfg, params, ac.clone()).is_err(),
            "{params:?} should be rejected"
        );
    }
}

#[test]
fn device_memory_exhaustion_is_an_error_not_a_panic() {
    let mut cfg = GpuConfig::gtx285();
    cfg.device_mem_bytes = 1024 * 1024; // 1 MB device
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["abc"]).unwrap());
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    // 4 MB of input cannot fit on a 1 MB device.
    let big = vec![0u8; 4 * 1024 * 1024];
    let err = m.run(&big, Approach::SharedDiagonal).unwrap_err();
    assert!(
        err.to_string().contains("out of device memory"),
        "unexpected error: {err}"
    );
    // The typed error carries the arithmetic, not just prose.
    match err {
        GpuError::Device(DeviceError::OutOfDeviceMemory {
            requested,
            available,
            capacity,
        }) => {
            assert_eq!(requested, 4 * 1024 * 1024 + 4); // input + guard bytes
            assert_eq!(capacity, 1024 * 1024);
            assert!(available <= capacity);
        }
        other => panic!("expected a typed OOM, got {other:?}"),
    }
    assert_eq!(err.class(), ErrorClass::Fatal, "OOM must not be retried");
}

#[test]
fn transient_faults_are_retried_with_observable_count() {
    let cfg = GpuConfig::gtx285();
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["he", "hers"]).unwrap());
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    // First two launches fail transiently; the third succeeds.
    m.set_fault_plan(
        FaultPlan::none()
            .with_launch_transient(0)
            .with_launch_transient(1),
    );
    let s = run_supervised(
        &m,
        b"ushers",
        Approach::SharedDiagonal,
        &SuperviseConfig::default(),
    )
    .unwrap();
    assert_eq!(s.report.attempts, 3);
    assert_eq!(s.report.retries, 2);
    assert_eq!(s.report.faults.len(), 2);
    assert_eq!(s.run.matches.len(), 2); // he, hers
                                        // Unsupervised runs surface the same fault as a typed, retryable error.
    m.set_fault_plan(FaultPlan::none().with_launch_transient(0));
    let err = m.run(b"ushers", Approach::SharedDiagonal).unwrap_err();
    assert_eq!(err.class(), ErrorClass::Transient);
    assert!(err.is_retryable());
}

#[test]
fn fatal_faults_surface_as_typed_errors_without_retry() {
    let cfg = GpuConfig::gtx285();
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["he"]).unwrap());
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    // Exhaust every allocation slot the plan could use: alloc faults are
    // modeled transient, so supervision retries then gives up — but the
    // error stays typed the whole way.
    let plan = (0..64).fold(FaultPlan::none(), |p, i| p.with_alloc_fail(i));
    m.set_fault_plan(plan);
    let scfg = SuperviseConfig {
        max_retries: 2,
        ..SuperviseConfig::default()
    };
    let (err, report) = run_supervised(&m, b"hehe", Approach::SharedDiagonal, &scfg).unwrap_err();
    assert!(matches!(err, GpuError::Device(DeviceError::Fault(_))));
    assert_eq!(report.attempts, 3, "budget of 2 retries = 3 attempts");
}

#[test]
fn corrupted_readback_is_detected_never_silently_wrong() {
    let cfg = GpuConfig::gtx285();
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["he", "she"]).unwrap());
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    let text = b"she sells seashells";
    let clean = m.run(text, Approach::SharedDiagonal).unwrap().matches;
    // Sweep bit offsets: every scheduled flip must either be detected as
    // corruption or (never) alter the matches.
    for bit in [0u64, 13, 101, 997, 65_535] {
        m.set_fault_plan(FaultPlan::none().with_readback_flip(0, bit));
        match m.run(text, Approach::SharedDiagonal) {
            Err(GpuError::Corrupted(_)) => {} // detected, as required
            Err(other) => panic!("bit {bit}: wrong error kind {other:?}"),
            Ok(run) => panic!(
                "bit {bit}: corruption went undetected (got {} matches vs {} clean)",
                run.matches.len(),
                clean.len()
            ),
        }
        // Supervision discards the corrupt attempt and recovers.
        m.set_fault_plan(FaultPlan::none().with_readback_flip(0, bit));
        let s = run_supervised(
            &m,
            text,
            Approach::SharedDiagonal,
            &SuperviseConfig::default(),
        )
        .unwrap();
        assert_eq!(s.run.matches, clean, "bit {bit}");
        assert_eq!(s.report.attempts, 2, "bit {bit}");
        m.clear_fault_plan();
    }
}

#[test]
fn watchdog_kills_hung_kernels() {
    let cfg = GpuConfig::gtx285();
    let ac = ac_core::AcAutomaton::build(&PatternSet::from_strs(&["he"]).unwrap());
    let m = GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap();
    m.set_fault_plan(FaultPlan::none().with_kernel_hang(0));
    let err = m
        .run_opts(
            b"hehe",
            Approach::SharedDiagonal,
            ac_gpu::RunOptions {
                record: true,
                watchdog_cycles: Some(1 << 30),
                trace: None,
                introspect: None,
                attribution: None,
            },
        )
        .unwrap_err();
    match err {
        GpuError::Device(DeviceError::Watchdog { cycles, budget }) => {
            assert!(cycles > budget);
            assert_eq!(budget, 1 << 30);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn oversized_automaton_rejected_by_capacity_checks() {
    // A pattern set whose total bytes exceed u32 is rejected up front
    // (simulate with the capacity error path on pattern bytes).
    let huge = vec![0u8; 16];
    let many: Vec<&[u8]> = (0..4).map(|_| huge.as_slice()).collect();
    // This small set is fine — the guard is exercised by unit tests; here
    // we just pin that valid input still passes after the checks.
    assert!(PatternSet::new(many).is_ok());
}
