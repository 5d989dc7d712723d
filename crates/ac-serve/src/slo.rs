//! SLO-aware admission control.
//!
//! The serve loop feeds every completed job's latency into an
//! [`AdmissionController`]; the controller tracks a sliding-window p99
//! against a target and reacts *before* the queue saturates:
//!
//! - **Shedding**: while the observed p99 exceeds the target, arrivals
//!   below a priority floor are turned away at admission (a typed
//!   [`SheddedJob`], distinct from queue-full [`crate::Overloaded`]).
//!   Shedding stops once p99 falls back under `target × recover_ratio`
//!   (hysteresis, so the controller does not flap at the boundary).
//! - **Batch-window control**: under pressure the adaptive batcher's
//!   job window grows toward `max_batch_jobs` (bigger launches amortise
//!   fixed costs and drain the queue faster); once healthy it decays
//!   back toward the configured base so light load keeps its low
//!   per-job latency.

/// A fixed-capacity ring buffer of latency observations with
/// nearest-rank quantile estimation. This is the sliding window behind
/// both the [`AdmissionController`]'s p99 and the telemetry registry's
/// sampled p50/p99 series, extracted so its estimator can be tested (and
/// property-tested) in isolation.
#[derive(Debug, Clone)]
pub struct QuantileWindow {
    samples: Vec<f64>,
    next_slot: usize,
    cap: usize,
}

impl QuantileWindow {
    /// A window remembering the most recent `cap` observations (at least
    /// one).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        QuantileWindow {
            samples: Vec::with_capacity(cap),
            next_slot: 0,
            cap,
        }
    }

    /// Record one observation, evicting the oldest once full.
    pub fn push(&mut self, value: f64) {
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            self.samples[self.next_slot] = value;
            self.next_slot = (self.next_slot + 1) % self.cap;
        }
    }

    /// Observations currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True until the first observation lands.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest observation in the window, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest observation in the window, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Nearest-rank quantile of the window (`q` in `[0, 1]`); 0 until
    /// anything has been observed. `quantile(0.99)` on a full window is
    /// exactly the admission controller's p99.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// One admitted-latency observation window + reaction policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// The p99 latency target, in simulated seconds.
    pub p99_target_seconds: f64,
    /// Completed-job latencies remembered for the sliding percentile.
    pub window: usize,
    /// Arrivals with `priority < shed_below_priority` are shed while the
    /// controller is in shed mode.
    pub shed_below_priority: u8,
    /// Shed mode exits when p99 drops below `target × recover_ratio`.
    pub recover_ratio: f64,
    /// Ceiling the batch-job window may grow to under pressure.
    pub max_batch_jobs: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            p99_target_seconds: 2_000.0e-6,
            window: 64,
            shed_below_priority: 1,
            recover_ratio: 0.8,
            max_batch_jobs: 64,
        }
    }
}

/// A job turned away by admission control (not by queue capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SheddedJob {
    /// The shed job.
    pub job_id: u64,
    /// Its priority (below the shed floor).
    pub priority: u8,
    /// Simulated time of the shed decision.
    pub at_seconds: f64,
    /// The observed p99 that triggered shed mode, seconds.
    pub observed_p99_seconds: f64,
}

/// Sliding-window p99 tracker + shed/batch-window state machine.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: SloConfig,
    base_batch_jobs: usize,
    latencies: QuantileWindow,
    shedding: bool,
    batch_jobs: usize,
    sheds: Vec<SheddedJob>,
}

impl AdmissionController {
    /// A controller whose batch window starts (and idles) at
    /// `base_batch_jobs`.
    pub fn new(cfg: SloConfig, base_batch_jobs: usize) -> Self {
        let base = base_batch_jobs.max(1);
        AdmissionController {
            cfg,
            base_batch_jobs: base,
            latencies: QuantileWindow::new(cfg.window),
            shedding: false,
            batch_jobs: base,
            sheds: Vec::new(),
        }
    }

    /// Record one completed job's latency and update shed mode and the
    /// batch window.
    pub fn observe(&mut self, latency_seconds: f64) {
        self.latencies.push(latency_seconds);
        let p99 = self.p99();
        if self.shedding {
            if p99 <= self.cfg.p99_target_seconds * self.cfg.recover_ratio {
                self.shedding = false;
            }
        } else if p99 > self.cfg.p99_target_seconds {
            self.shedding = true;
        }
        if self.shedding {
            // Grow multiplicatively toward the ceiling: drain faster.
            self.batch_jobs = (self.batch_jobs * 2).min(self.cfg.max_batch_jobs.max(1));
        } else if self.batch_jobs > self.base_batch_jobs {
            // Decay one step per healthy observation back toward base.
            self.batch_jobs = (self.batch_jobs / 2).max(self.base_batch_jobs);
        }
    }

    /// Sliding-window p99 (nearest-rank), 0 until anything completes.
    pub fn p99(&self) -> f64 {
        self.latencies.quantile(0.99)
    }

    /// Whether shed mode is currently active.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    /// The batch-job window the serve loop should coalesce up to now.
    pub fn batch_jobs(&self) -> usize {
        self.batch_jobs
    }

    /// Admission decision for an arrival: `Some(shed)` if the job should
    /// be turned away, `None` if it may proceed to the queue.
    pub fn admit(&mut self, job_id: u64, priority: u8, now: f64) -> Option<SheddedJob> {
        if self.shedding && priority < self.cfg.shed_below_priority {
            let shed = SheddedJob {
                job_id,
                priority,
                at_seconds: now,
                observed_p99_seconds: self.p99(),
            };
            self.sheds.push(shed);
            return Some(shed);
        }
        None
    }

    /// Every shed decision, in time order.
    pub fn sheds(&self) -> &[SheddedJob] {
        &self.sheds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdmissionController {
        AdmissionController::new(
            SloConfig {
                p99_target_seconds: 1.0,
                window: 8,
                shed_below_priority: 1,
                recover_ratio: 0.5,
                max_batch_jobs: 16,
            },
            4,
        )
    }

    #[test]
    fn sheds_only_low_priority_and_only_under_pressure() {
        let mut c = controller();
        // Healthy: everything admitted.
        assert!(c.admit(1, 0, 0.0).is_none());
        c.observe(0.1);
        assert!(!c.shedding());
        // Blow the target.
        c.observe(5.0);
        assert!(c.shedding());
        let shed = c.admit(2, 0, 1.0).expect("low priority shed");
        assert_eq!(shed.job_id, 2);
        assert_eq!(shed.observed_p99_seconds, 5.0);
        // High-priority arrivals ride through shed mode.
        assert!(c.admit(3, 1, 1.1).is_none());
        assert_eq!(c.sheds().len(), 1);
    }

    #[test]
    fn recovery_needs_hysteresis_margin() {
        let mut c = controller();
        c.observe(5.0);
        assert!(c.shedding());
        // p99 over the whole window is still 5.0 until it rolls out.
        for _ in 0..7 {
            c.observe(0.1);
        }
        assert!(c.shedding());
        // Window is full (8): the next observation overwrites the 5.0.
        c.observe(0.1);
        assert!(c.p99() <= 0.5);
        assert!(!c.shedding());
    }

    #[test]
    fn batch_window_grows_under_pressure_and_decays_back() {
        let mut c = controller();
        assert_eq!(c.batch_jobs(), 4);
        c.observe(5.0);
        assert_eq!(c.batch_jobs(), 8);
        c.observe(5.0);
        assert_eq!(c.batch_jobs(), 16);
        c.observe(5.0);
        assert_eq!(c.batch_jobs(), 16); // capped
                                        // Recover: fill the window with fast completions. The p99 stays
                                        // at 5.0 until the last slow sample rolls out, so only the final
                                        // observation is "healthy" — one decay step.
        for _ in 0..8 {
            c.observe(0.01);
        }
        assert!(!c.shedding());
        assert_eq!(c.batch_jobs(), 8);
        c.observe(0.01);
        assert_eq!(c.batch_jobs(), 4); // decayed to base
        c.observe(0.01);
        assert_eq!(c.batch_jobs(), 4); // never below base
    }

    #[test]
    fn p99_is_nearest_rank() {
        let mut c = controller();
        for i in 1..=8 {
            c.observe(i as f64 * 0.01);
        }
        // ceil(8 * 0.99) = 8 → the max of the window.
        assert!((c.p99() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn empty_window_reports_zero_and_never_sheds() {
        let mut c = controller();
        assert_eq!(c.p99(), 0.0);
        assert!(c.admit(1, 0, 0.0).is_none());
    }

    #[test]
    fn quantile_window_evicts_oldest_and_tracks_extremes() {
        let mut w = QuantileWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), 0.0);
        for v in [5.0, 1.0, 3.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(5.0));
        // Full: the next push overwrites the oldest slot (the 5.0).
        w.push(2.0);
        assert_eq!(w.max(), Some(3.0));
    }

    #[test]
    fn quantile_window_nearest_rank_endpoints() {
        let mut w = QuantileWindow::new(8);
        for i in 1..=8 {
            w.push(i as f64);
        }
        // ceil(8 * 0.01) = 1 → min; ceil(8 * 0.99) = 8 → max.
        assert_eq!(w.quantile(0.01), 1.0);
        assert_eq!(w.quantile(0.5), 4.0);
        assert_eq!(w.quantile(0.99), 8.0);
        // q = 0 clamps to the first rank rather than indexing out.
        assert_eq!(w.quantile(0.0), 1.0);
    }
}
