//! The serve call's launch plan: which kernel each launch runs (staged
//! PFAC up to a priced switch point, the configured kernel beyond it) and
//! how its match frame comes back to the host.
//!
//! [`ac_gpu::Plan::kernel`] switches at one resident round of staged
//! PFAC's grid, the floor ([`GpuAcMatcher::pfac_limit`]). That rule looks
//! at the kernel alone. In serving the readback often costs as much as
//! the kernel, and PFAC's walk frame is the smaller one, so staged PFAC
//! stays the cheaper launch well past one round. A serve call therefore
//! prices both kernels on its own workload ([`priced_pfac_limit`]) and
//! switches where their price lines cross (DESIGN.md §4l).
//!
//! A frame comes back one of two ways. By DMA, a `d2h` copy on the copy
//! engine after the kernel, which pays the link's transfer setup. Mapped,
//! the kernel writes it straight into the pinned host buffer the launch
//! leases (CUDA's mapped pinned memory) at the link's bandwidth with no
//! setup, on the compute engine after its last cycle (DESIGN.md §3b).
//! Pageable host memory cannot be mapped. A launch that runs alone, on
//! one stream or on an idle device, is priced by its latency: `h2d +
//! kernel + d2h` by DMA and `h2d + kernel + frame / bw` mapped, so it
//! always maps and saves the copy's setup. On more streams one launch's
//! copies overlap another's kernel and the busier engine sets the price:
//! `max(h2d + d2h, kernel)` by DMA. Such a launch maps only while its
//! kernel and write-out fit under its upload, so the copy engine still
//! sets its price (`h2d`). Where the write-out would make the compute
//! engine the busier one, the launch keeps DMA: that trade looks cheaper
//! in steady state (`kernel + frame / bw` against `h2d + d2h`), but in a
//! short burst the compute engine also waits for the first upload, and on
//! scan-2k's 64-job overload burst the plain comparison cost 8.7% of
//! capacity. Each kernel is priced by its path, and each launch's plan
//! ([`LaunchPlan`]) is decided before it runs from the walk's probes,
//! never from its own frame.

use crate::sim::ServeConfig;
use ac_gpu::{Approach, GpuAcMatcher, PcieConfig, Plan, ProbeCost};
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
    let mut walk = PriceWalk::new(matcher, cfg, sample).filter(|w| w.switches)?;
    walk.cover(usize::MAX);
    Some(walk.limit())
}

/// How a server configured as `cfg` runs a `len`-byte launch that
/// overlaps others on its device, priced on `sample`: what a serve call
/// whose longest launch is `len` bytes decides.
pub fn priced_launch(
    matcher: &GpuAcMatcher,
    cfg: &ServeConfig,
    sample: &[u8],
    len: usize,
) -> LaunchPlan {
    KernelChoice::new(matcher, cfg, sample).plan(len, false)
}

/// How one launch runs: its kernel, and whether the kernel writes its
/// frame into mapped host memory instead of a `d2h` copy reading it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPlan {
    /// The kernel the launch runs.
    pub kernel: Approach,
    /// The kernel writes its frame straight into mapped pinned host
    /// memory (no `d2h`).
    pub mapped: bool,
}

/// A launch's price by each readback path (see the module docs); no
/// mapped price where the launch cannot map: pageable host memory, or
/// an overlapped launch whose write-out would not fit under its upload.
#[derive(Debug, Clone, Copy)]
struct Price {
    dma: f64,
    mapped: Option<f64>,
}

impl Price {
    /// The mapped price, where it is the cheaper one.
    fn mapped_wins(self) -> Option<f64> {
        self.mapped.filter(|&m| m < self.dma)
    }

    /// The price by the path the launch takes.
    fn best(self) -> f64 {
        self.mapped_wins().unwrap_or(self.dma)
    }
}

/// Prices launches at growing lengths, as far as the launches it is
/// asked about need: staged PFAC against the configured kernel for the
/// switch point, and each kernel's readback paths.
///
/// Each probe runs a kernel off the simulated clock over `sample` cycled
/// to size, with any armed fault plan set aside
/// ([`GpuAcMatcher::probe`], memoized on the matcher), and prices the
/// launch ([`PriceWalk::price`]). The first probe is at the floor, one
/// resident round of staged PFAC's grid ([`Plan::pfac_limit`]); the
/// others double up to `far = min(max_bytes, PRICE_PROBE_MAX_BYTES)`
/// (`far / 2^k` from the first at least twice the floor, then `far`).
/// The switch walk stops at the first probe where staged PFAC is not the
/// cheaper launch. Between two probes each kernel's price is the line
/// through them, so the switch point is where the lines of the last two
/// probes cross: inside the segment where PFAC lost, or a forecast past
/// the last probe when it has not lost yet (`usize::MAX` when those lines
/// never cross).
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
    /// Whether the call switches kernels at all: not when `configured` is
    /// already PFAC or the matcher has no PFAC tables.
    switches: bool,
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
    /// A walk that has probed nothing yet; `None` with pinned launch
    /// params, which plan no rounds.
    pub(crate) fn new(
        matcher: &'a GpuAcMatcher,
        cfg: &ServeConfig,
        sample: &'a [u8],
    ) -> Option<Self> {
        let floor =
            Plan::pfac_limit(matcher.params(), matcher.config(), matcher.automaton())? as usize;
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
            switches: matcher.pfac_limit(cfg.approach).is_some(),
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
                .is_none_or(|l| l.1 <= 0.0 && (l.0 as usize) < len)
        {
            let Some(&bytes) = self.lengths.get(self.leads.len()) else {
                return;
            };
            let best = |approach| {
                let cost = self.matcher.probe(approach, self.sample, bytes)?;
                Some(self.price(bytes, cost).best())
            };
            match (best(Approach::PfacStaged), best(self.configured)) {
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
        if last.1 <= 0.0 && closing <= 0.0 {
            return usize::MAX;
        }
        // `as` saturates, so a crossing past `usize::MAX` stays unbounded.
        ((last.0 - last.1 / closing) as usize).max(self.floor)
    }

    /// A `bytes`-long launch's price by each readback path (see the
    /// module docs), from its kernel time and frame length. Overlapped,
    /// the mapped path is priced only where the kernel and its write-out
    /// fit under the upload.
    fn price(&self, bytes: usize, cost: ProbeCost) -> Price {
        let h2d = self.pcie.copy_seconds(bytes);
        let copies = h2d + self.pcie.copy_seconds(cost.readback_bytes as usize);
        let written = self.pcie.mapped_seconds(cost.readback_bytes as usize);
        if self.overlapped {
            Price {
                dma: copies.max(cost.seconds),
                mapped: written.filter(|w| cost.seconds + w <= h2d).map(|_| h2d),
            }
        } else {
            Price {
                dma: copies + cost.seconds,
                mapped: written.map(|w| h2d + cost.seconds + w),
            }
        }
    }

    /// Whether a `len`-byte launch of `kernel` maps its frame: priced at
    /// its length from the kernel's own probes ([`PriceWalk::cost_at`]).
    /// A launch that runs `alone`, or on one stream, is priced by its
    /// latency, where the mapped price is the DMA price less the copy's
    /// setup whatever the launch costs, so no probe is needed; pageable
    /// memory never maps. A failed probe keeps DMA.
    fn maps(&self, kernel: Approach, len: usize, alone: bool) -> bool {
        if self.pcie.mapped_seconds(0).is_none() {
            return false;
        }
        if alone || !self.overlapped {
            return true;
        }
        self.cost_at(kernel, len)
            .is_some_and(|cost| self.price(len, cost).mapped_wins().is_some())
    }

    /// What a `len`-byte launch of `kernel` costs by the walk's probe
    /// lengths. A launch that fits one round costs about one round
    /// whatever its length: the floor probe's kernel time, with its frame
    /// scaled to the launch. A longer one takes the line through the
    /// probes on either side of it (past the last, through the last two;
    /// with no other length, the floor probe scaled).
    fn cost_at(&self, kernel: Approach, len: usize) -> Option<ProbeCost> {
        let probe = |l: usize| self.matcher.probe(kernel, self.sample, l);
        let scale = len as f64 / self.floor.max(1) as f64;
        if len <= self.floor || self.lengths.len() < 2 {
            let c = probe(self.floor)?;
            return Some(ProbeCost {
                seconds: c.seconds * scale.max(1.0),
                readback_bytes: (c.readback_bytes as f64 * scale).round() as u64,
            });
        }
        let i = self
            .lengths
            .partition_point(|&l| l < len)
            .min(self.lengths.len() - 1);
        let (l0, l1) = (self.lengths[i - 1], self.lengths[i]);
        let (c0, c1) = (probe(l0)?, probe(l1)?);
        let t = (len - l0) as f64 / (l1 - l0) as f64;
        let along = |a: f64, b: f64| a + t * (b - a);
        Some(ProbeCost {
            seconds: along(c0.seconds, c1.seconds),
            readback_bytes: along(c0.readback_bytes as f64, c1.readback_bytes as f64).round()
                as u64,
        })
    }
}

/// One serve call's launch plans: staged PFAC up to the floor from the
/// start, and past it as far as the call's [`PriceWalk`] finds staged
/// PFAC the cheaper launch, each launch reading back by its cheaper
/// path. The switch walk starts on first need, when a launch (or a
/// cost-model probe) outgrows the floor, so a call whose launches all fit
/// one round never pays for it.
pub(crate) struct KernelChoice<'a> {
    configured: Approach,
    /// `None` with pinned launch params: every launch runs the configured
    /// kernel and reads back by DMA.
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
    fn limit(&self, len: usize) -> Option<usize> {
        let mut walk = self.walk.as_ref()?.borrow_mut();
        if !walk.switches {
            return None;
        }
        if len > walk.floor {
            walk.cover(len);
        }
        Some(walk.limit())
    }

    /// How a `len`-byte launch runs; `alone` when it finds its device
    /// idle, so that no other launch overlaps it and its latency is its
    /// price.
    pub(crate) fn plan(&self, len: usize, alone: bool) -> LaunchPlan {
        let kernel = match self.limit(len) {
            Some(limit) if len <= limit => Approach::PfacStaged,
            _ => self.configured,
        };
        let mapped = self
            .walk
            .as_ref()
            .is_some_and(|w| w.borrow().maps(kernel, len, alone));
        LaunchPlan { kernel, mapped }
    }

    /// The switch point the call priced, once a launch has needed one:
    /// as far as its walk probed, so past the last probe a forecast.
    pub(crate) fn priced(&self) -> Option<usize> {
        let walk = self.walk.as_ref()?.borrow();
        (walk.switches && !walk.leads.is_empty()).then(|| walk.limit())
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
