//! Order statistics and the serving-ladder rules.

/// Median of `v` (the mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (its default "exclusive" method), so a
/// spread computed here agrees with one computed in Python. A single
/// value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile of `n` latency samples that has at least ten
/// samples beyond its nearest-rank position, from a fixed menu (p99.9,
/// p99, p95, p90, p75, p50). `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&per_mille| {
            let rank = (per_mille * n).div_ceil(1000);
            n - rank >= 10
        })
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// One rung of a serving ladder, as the SLO rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungSummary {
    /// Offered arrival rate, jobs/s.
    pub rate: f64,
    /// Jobs refused: rejected by backpressure, expired or shed.
    pub refused: u64,
    /// Tail latency at the rung's own tail percentile, µs.
    pub tail_us: f64,
}

/// The highest offered rate whose rung refused no job and kept its tail
/// within `limit_us`; 0 when no rung qualifies. A refused job counts as a
/// missed limit, so one refusal fails its rung.
pub fn slo_rate(rungs: &[RungSummary], limit_us: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.refused == 0 && r.tail_us <= limit_us)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}
