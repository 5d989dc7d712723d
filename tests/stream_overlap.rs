//! Overlap efficiency of the stream engine.
//!
//! The whole point of multi-stream execution is that PCIe copies hide
//! under kernels. These tests pin that down quantitatively: in the
//! balanced regime (copy time ≈ kernel time, negligible readback) two or
//! more streams must bring end-to-end time under 0.6× the serial
//! upload+kernel+readback sum, while a single in-order stream must
//! reproduce the serial sum *exactly* — overlap is a scheduling effect,
//! never an accounting one.

use ac_core::{AcAutomaton, PatternSet};
use ac_gpu::multistream::{run_multistream, MultiStreamConfig};
use ac_gpu::{Approach, GpuAcMatcher, KernelParams, PcieConfig};
use gpu_sim::{GpuConfig, StreamEngine, StreamOpKind};

fn matcher() -> GpuAcMatcher {
    let cfg = GpuConfig::gtx285();
    let ac = AcAutomaton::build(&PatternSet::from_strs(&["he", "she", "his", "hers"]).unwrap());
    GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
}

fn text(n: usize) -> Vec<u8> {
    b"ushers rush home; his shelf, her shoes "
        .iter()
        .cycle()
        .take(n)
        .copied()
        .collect()
}

/// Issue `n` segments of (upload, kernel, readback) durations on the
/// engine with the staged pattern (readback held until stream reuse) and
/// return (pipelined, serial) seconds.
fn staged_schedule(streams: u32, n: usize, upload: f64, kernel: f64, readback: f64) -> (f64, f64) {
    let mut eng = StreamEngine::new(streams);
    let mut held: Vec<Option<usize>> = vec![None; streams as usize];
    for i in 0..n {
        let s = (i % streams as usize) as u32;
        if let Some(j) = held[s as usize].take() {
            eng.submit(s, StreamOpKind::CopyD2H, &format!("seg{j}"), readback, 0);
        }
        eng.submit(s, StreamOpKind::CopyH2D, &format!("seg{i}"), upload, 0);
        eng.submit(s, StreamOpKind::Kernel, &format!("seg{i}"), kernel, 0);
        held[s as usize] = Some(i);
    }
    for (s, j) in held
        .iter()
        .enumerate()
        .filter_map(|(s, j)| j.map(|j| (s as u32, j)))
    {
        eng.submit(s, StreamOpKind::CopyD2H, &format!("seg{j}"), readback, 0);
    }
    let tl = eng.finish();
    (tl.total_seconds(), tl.serial_seconds())
}

#[test]
fn balanced_engine_schedule_beats_0_6x_serial_with_two_streams() {
    let (upload, kernel, readback) = (1.0e-3, 1.0e-3, 1.0e-5);
    for streams in [2u32, 4] {
        let (pipelined, serial) = staged_schedule(streams, 16, upload, kernel, readback);
        assert!(
            pipelined < 0.6 * serial,
            "streams={streams}: {pipelined:.6}s !< 0.6 x {serial:.6}s"
        );
    }
    // One stream: the same op sequence collapses to the exact serial sum.
    let (pipelined, serial) = staged_schedule(1, 16, upload, kernel, readback);
    assert_eq!(pipelined, serial);
}

#[test]
fn multistream_runner_beats_0_6x_serial_when_copy_matches_kernel() {
    let m = matcher();
    let seg = 4096usize;
    // Match-free input (the cyclic alphabet contains none of the
    // dictionary words): readbacks stay at the empty 28-byte frame,
    // keeping the copy engine's work equal to the calibrated uploads.
    let t: Vec<u8> = (0..16 * seg).map(|i| b'a' + (i % 26) as u8).collect();
    let overlap = m.automaton().required_overlap();

    // Calibrate the link so one segment's upload takes exactly as long as
    // its kernel: the balanced regime where overlap pays the most.
    let window = &t[..seg + overlap];
    let kernel_secs = m.run(window, Approach::SharedDiagonal).unwrap().seconds();
    let pcie = PcieConfig {
        bandwidth_bytes_per_sec: window.len() as f64 / kernel_secs,
        latency_sec: 0.0,
        host_memory: gpu_sim::HostMemory::pinned(),
    };

    for streams in [2u32, 4] {
        let cfg = MultiStreamConfig::new(streams, seg, pcie);
        let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
        assert!(
            r.pipelined_seconds < 0.6 * r.serial_seconds,
            "streams={streams}: {:.6}s !< 0.6 x {:.6}s",
            r.pipelined_seconds,
            r.serial_seconds
        );
    }
}

#[test]
fn single_stream_runner_equals_the_serial_sum_exactly() {
    let m = matcher();
    let t = text(48 * 1024);
    for seg in [4096usize, 16 * 1024] {
        let cfg = MultiStreamConfig::new(1, seg, PcieConfig::gen2_x16());
        let r = run_multistream(&m, &t, Approach::SharedDiagonal, &cfg).unwrap();
        // Bit-identical, not approximately equal: one in-order stream
        // executes ops back to back in issue order, which is the same
        // left-fold the serial sum computes.
        assert_eq!(r.pipelined_seconds, r.serial_seconds);
        assert_eq!(r.overlap_speedup(), 1.0);
    }
}
