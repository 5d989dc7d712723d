//! The serve call's kernel choice: staged PFAC up to a priced switch
//! point, the configured kernel beyond it.
//!
//! [`ac_gpu::Plan::kernel`] switches at one resident round of staged
//! PFAC's grid, the floor ([`GpuAcMatcher::pfac_limit`]). That rule looks
//! at the kernel alone. In serving the readback often costs as much as
//! the kernel, and PFAC's walk frame is the smaller one, so staged PFAC
//! stays the cheaper launch well past one round. A serve call therefore
//! prices both kernels on its own workload ([`priced_pfac_limit`]) and
//! switches where their price lines cross (DESIGN.md §4l). On one stream
//! a launch's price is `h2d + kernel + d2h`; on more, one launch's copies
//! overlap another's kernel, and the busier engine sets the price.

use crate::sim::ServeConfig;
use ac_gpu::{Approach, GpuAcMatcher, PcieConfig, RunOptions};
use std::cell::RefCell;

/// The longest price probe: probes run up to `min(max_bytes, this)`.
pub const PRICE_PROBE_MAX_BYTES: usize = 1 << 20;

/// The longest launch a server configured as `cfg` runs as staged PFAC
/// instead of `cfg.approach`, priced on `sample` (the first job's
/// payload) by the whole walk of [`PriceWalk`] up to
/// `min(cfg.limits.max_bytes, PRICE_PROBE_MAX_BYTES)`. Past the last
/// probe it is a forecast, where the last two probes' lines cross.
/// `Some(usize::MAX)` when staged PFAC stays the cheaper launch at every
/// length; `None` when the matcher never switches: pinned params,
/// `cfg.approach` already PFAC, or no PFAC tables.
pub fn priced_pfac_limit(
    matcher: &GpuAcMatcher,
    cfg: &ServeConfig,
    sample: &[u8],
) -> Option<usize> {
    let mut walk = PriceWalk::new(matcher, cfg, sample)?;
    walk.cover(usize::MAX);
    Some(walk.limit())
}

/// The kernel a server configured as `cfg` runs for a `len`-byte
/// launch, priced on `sample`: what a serve call whose longest launch is
/// `len` bytes decides.
pub fn priced_kernel(
    matcher: &GpuAcMatcher,
    cfg: &ServeConfig,
    sample: &[u8],
    len: usize,
) -> Approach {
    KernelChoice::new(matcher, cfg, sample).kernel(len)
}

/// Prices staged PFAC against the configured kernel at growing launch
/// lengths, as far as the launches it is asked about need.
///
/// Each probe runs both kernels off the simulated clock over `sample`
/// cycled to size, with any armed fault plan set aside, and prices each
/// launch ([`PriceWalk::price`]). The first probe is at the floor
/// ([`GpuAcMatcher::pfac_limit`]); the others double up to `far =
/// min(max_bytes, PRICE_PROBE_MAX_BYTES)` (`far / 2^k` from the first at
/// least twice the floor, then `far`). The walk stops at the first probe
/// where staged PFAC is not the cheaper launch. Between two probes each
/// kernel's price is the line through them, so the switch point is where
/// the lines of the last two probes cross: inside the segment where PFAC
/// lost, or a forecast past the last probe when it has not lost yet
/// (`usize::MAX` when those lines never cross).
///
/// A kernel's host cost grows with the work it simulates, so the walk
/// probes no further than it must. It stops at the switch point, and
/// [`PriceWalk::cover`] extends it only as far as the longest launch
/// asked about, which decides every launch as the whole walk would. A
/// 1 MiB probe of a dictionary with an 8,193-byte pattern takes the
/// configured kernel tens of seconds of host time (every 64-byte chunk
/// scans the 8 KiB overlap), while the batches that dictionary serves are
/// a few KB long.
pub(crate) struct PriceWalk<'a> {
    matcher: &'a GpuAcMatcher,
    configured: Approach,
    sample: &'a [u8],
    pcie: PcieConfig,
    /// More than one stream: copies overlap kernels.
    overlapped: bool,
    floor: usize,
    /// Probe lengths, ascending, the floor first.
    lengths: Vec<usize>,
    /// `(length, staged PFAC's price minus the configured kernel's)` per
    /// probe taken: PFAC is the cheaper launch while it is negative.
    leads: Vec<(f64, f64)>,
    /// Set when a probe fails: the walk ends at the last probe PFAC won.
    failed: bool,
}

impl<'a> PriceWalk<'a> {
    /// A walk that has probed nothing yet; `None` when the matcher never
    /// switches kernels.
    pub(crate) fn new(
        matcher: &'a GpuAcMatcher,
        cfg: &ServeConfig,
        sample: &'a [u8],
    ) -> Option<Self> {
        let floor = matcher.pfac_limit(cfg.approach)?;
        let far = cfg.limits.max_bytes.min(PRICE_PROBE_MAX_BYTES);
        let mut lengths = vec![floor];
        if !sample.is_empty() {
            lengths.extend(
                (0..usize::BITS)
                    .rev()
                    .map(|k| far >> k)
                    .filter(|&b| b > floor && (b >= 2 * floor || b == far)),
            );
            lengths.dedup();
        }
        Some(PriceWalk {
            matcher,
            configured: cfg.approach,
            sample,
            pcie: cfg.effective_pcie(),
            overlapped: cfg.streams > 1,
            floor,
            lengths,
            leads: Vec::new(),
            failed: false,
        })
    }

    /// Probe on until the walk covers `len`, PFAC has lost, or the
    /// lengths run out.
    pub(crate) fn cover(&mut self, len: usize) {
        while !self.failed
            && self
                .leads
                .last()
                .is_none_or(|l| l.1 < 0.0 && (l.0 as usize) < len)
        {
            let Some(&bytes) = self.lengths.get(self.leads.len()) else {
                return;
            };
            match (
                self.price(Approach::PfacStaged, bytes),
                self.price(self.configured, bytes),
            ) {
                (Some(pfac), Some(other)) => self.leads.push((bytes as f64, pfac - other)),
                _ => self.failed = true,
            }
        }
    }

    /// The switch point as far as the walk has probed: the last probe
    /// PFAC won when the next one failed, where the last two probes'
    /// lines cross, and the floor when fewer than two probes ran (PFAC
    /// lost at the floor, or there was no other length).
    pub(crate) fn limit(&self) -> usize {
        let (before, last) = match self.leads[..] {
            [.., last] if self.failed => return last.0 as usize,
            [.., before, last] => (before, last),
            _ => return self.floor,
        };
        let closing = (last.1 - before.1) / (last.0 - before.0);
        if last.1 < 0.0 && closing <= 0.0 {
            return usize::MAX;
        }
        // `as` saturates, so a crossing past `usize::MAX` stays unbounded.
        ((last.0 - last.1 / closing) as usize).max(self.floor)
    }

    /// A `bytes`-long launch's price: `h2d + kernel + d2h` on one stream,
    /// where each launch waits for the last. On more streams the copy
    /// engine moves one launch's bytes while another's kernel runs, so
    /// the busier engine sets the price: `max(h2d + d2h, kernel)`.
    fn price(&self, approach: Approach, bytes: usize) -> Option<f64> {
        let payload: Vec<u8> = self.sample.iter().copied().cycle().take(bytes).collect();
        let run = self
            .matcher
            .without_faults(|m| m.run_opts(&payload, approach, RunOptions::default()))
            .ok()?;
        let copies =
            self.pcie.copy_seconds(bytes) + self.pcie.copy_seconds(run.readback_bytes as usize);
        Some(if self.overlapped {
            copies.max(run.seconds())
        } else {
            copies + run.seconds()
        })
    }
}

/// One serve call's kernel choice: staged PFAC up to the floor from the
/// start, and past it as far as the call's [`PriceWalk`] finds staged
/// PFAC the cheaper launch. The walk starts on first need, when a launch
/// (or a cost-model probe) outgrows the floor, so a call whose launches
/// all fit one round never pays for it.
pub(crate) struct KernelChoice<'a> {
    configured: Approach,
    /// `None` when the call never switches kernels.
    walk: Option<RefCell<PriceWalk<'a>>>,
}

impl<'a> KernelChoice<'a> {
    pub(crate) fn new(matcher: &'a GpuAcMatcher, dcfg: &ServeConfig, sample: &'a [u8]) -> Self {
        let walk = PriceWalk::new(matcher, dcfg, sample);
        KernelChoice {
            configured: dcfg.approach,
            walk: walk.map(RefCell::new),
        }
    }

    /// The switch point as a `len`-byte launch needs it: the walk's, once
    /// extended to cover `len` when `len` outgrows the floor (the floor
    /// itself until the walk starts); `None` when the call never
    /// switches.
    pub(crate) fn limit(&self, len: usize) -> Option<usize> {
        let mut walk = self.walk.as_ref()?.borrow_mut();
        if len > walk.floor {
            walk.cover(len);
        }
        Some(walk.limit())
    }

    /// The kernel a `len`-byte launch runs.
    pub(crate) fn kernel(&self, len: usize) -> Approach {
        match self.limit(len) {
            Some(limit) if len <= limit => Approach::PfacStaged,
            _ => self.configured,
        }
    }

    /// The switch point the call priced, once a launch has needed one:
    /// as far as its walk probed, so past the last probe a forecast.
    pub(crate) fn priced(&self) -> Option<usize> {
        let walk = self.walk.as_ref()?.borrow();
        (!walk.leads.is_empty()).then(|| walk.limit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};
    use ac_gpu::KernelParams;
    use gpu_sim::GpuConfig;
    use std::collections::BTreeMap;

    /// Both sides of the serving dictionary's priced switch, with every
    /// job's matches equal to the serial oracle's: batches of 32 jobs of
    /// about 2 KiB (64 KiB launches) run staged PFAC only, and per-job
    /// launches of about 1 MiB run the configured kernel.
    #[test]
    fn serve_runs_staged_pfac_below_the_priced_switch_and_the_configured_kernel_past_it() {
        let gpu = GpuConfig::gtx285();
        let ac = serve_automaton(DEFAULT_PATTERNS, 0);
        let m = GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac).unwrap();
        let burst = |jobs: u64, job_bytes: usize| {
            synthetic_workload(&WorkloadConfig {
                jobs,
                arrival_rate_per_sec: 100_000_000,
                job_bytes,
                ..WorkloadConfig::defaults()
            })
        };
        let cases = [
            (
                burst(64, 2 << 10),
                ServeConfig::new(1),
                Approach::PfacStaged,
            ),
            (
                burst(2, 1 << 20),
                ServeConfig::new(1).per_job(),
                Approach::SharedDiagonal,
            ),
        ];
        for (jobs, cfg, kernel) in cases {
            let run = serve(&m, jobs.clone(), &cfg).unwrap();
            let r = &run.report;
            assert_eq!(r.jobs_completed, jobs.len() as u64);
            let launches = BTreeMap::from([(kernel.label().to_string(), r.batches)]);
            assert_eq!(r.kernel_launches, launches, "{:?}", r.pfac_limit_bytes);
            let limit = r.pfac_limit_bytes.expect("a launch outgrew one round") as usize;
            for o in &run.outcomes {
                let payload = &jobs[o.id as usize].payload;
                assert_eq!(kernel == Approach::PfacStaged, payload.len() <= limit);
                let mut want = m.automaton().find_all(payload);
                want.sort();
                let mut got = o.matches.clone();
                got.sort();
                assert_eq!(got, want, "job {}", o.id);
            }
            if kernel == Approach::PfacStaged {
                assert!(r.batch_histogram.iter().any(|b| b.jobs == 32));
            }
        }
    }
}
