//! Overlap efficiency of the stream engine.
//!
//! The whole point of multi-stream execution is that PCIe copies hide
//! under kernels. This test pins that down quantitatively: in the
//! balanced regime (copy time ≈ kernel time, negligible readback) two or
//! more streams must bring end-to-end time under 0.6× the serial
//! upload+kernel+readback sum, while a single in-order stream must
//! reproduce the serial sum *exactly* — overlap is a scheduling effect,
//! never an accounting one.

use gpu_sim::{StreamEngine, StreamOpKind};

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
