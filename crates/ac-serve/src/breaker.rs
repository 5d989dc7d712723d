//! Per-GPU-tier circuit breaker for the serving loop.
//!
//! Supervised retries handle *isolated* transients; a breaker handles
//! *clusters* of them. Once `failure_threshold` consecutive batches have
//! exhausted their retry budgets, continuing to probe the GPU only burns
//! backoff time on every batch — the breaker opens instead, and batches
//! fail over to the CPU ladder ([`crate::cpu_ladder_scan`]) for
//! `cooldown_seconds` of simulated time. After the cooldown the next
//! batch runs as a half-open probe: `half_open_successes` consecutive
//! probe wins close the breaker, a single probe loss re-opens it. All
//! transitions are recorded with their simulated timestamps so the chaos
//! soak can delimit the degraded window exactly. An opening transition's
//! reason ends with the last failed batch's GPU error; with
//! `failure_threshold: 1` that is the first failure's, which is how
//! `acsim match --resilient` reports why the GPU rung was abandoned.

use std::fmt;

/// Breaker policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive batch failures (retry budgets exhausted) that open
    /// the breaker.
    pub failure_threshold: u32,
    /// Simulated seconds the breaker stays open before probing again.
    pub cooldown_seconds: f64,
    /// Consecutive half-open probe successes required to close.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            // A few batch-times at the default serving scale: long enough
            // to skip a fault burst, short enough to re-probe within the
            // run.
            cooldown_seconds: 200.0e-6,
            half_open_successes: 2,
        }
    }
}

/// Breaker state machine positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: batches route to the GPU tier.
    Closed,
    /// Tripped: batches route to the CPU ladder until the cooldown ends.
    Open,
    /// Cooling-down ended: GPU probes allowed, not yet trusted.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded state change.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerTransition {
    /// Simulated time of the transition.
    pub at_seconds: f64,
    /// The state entered.
    pub to: BreakerState,
    /// Why (display text of the triggering condition).
    pub reason: String,
}

/// Which tier the serve loop should run the next batch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Supervised GPU execution (closed breaker, or a half-open probe).
    Gpu,
    /// CPU-ladder failover (breaker open and still cooling down).
    Cpu,
}

/// The breaker itself. Purely simulated-clock driven: every decision
/// takes the caller's `now`, so runs replay deterministically.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
    open_until: f64,
    opens: u64,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker under `cfg`.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
            open_until: 0.0,
            opens: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state (after any cooldown elapse at the last decision).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has opened.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Every recorded transition, in time order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Route the batch being formed at simulated time `now`. An open
    /// breaker whose cooldown has elapsed transitions to half-open here
    /// (and the batch becomes the probe).
    pub fn route_at(&mut self, now: f64) -> Route {
        match self.state {
            BreakerState::Closed => Route::Gpu,
            BreakerState::HalfOpen => Route::Gpu,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.transition(now, BreakerState::HalfOpen, "cooldown elapsed".to_string());
                    self.probe_successes = 0;
                    Route::Gpu
                } else {
                    Route::Cpu
                }
            }
        }
    }

    /// A GPU batch completed cleanly at `now`.
    pub fn record_success(&mut self, now: f64) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.probe_successes += 1;
            if self.probe_successes >= self.cfg.half_open_successes {
                self.transition(
                    now,
                    BreakerState::Closed,
                    format!("{} probe successes", self.probe_successes),
                );
            }
        }
    }

    /// A GPU batch exhausted its retries (or failed fatally) at `now`.
    pub fn record_failure(&mut self, now: f64, error: &str) {
        match self.state {
            BreakerState::HalfOpen => {
                // One probe loss is enough: straight back to open.
                self.open(now, format!("half-open probe failed: {error}"));
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.open(
                        now,
                        format!(
                            "{} consecutive batch failures (last: {error})",
                            self.consecutive_failures
                        ),
                    );
                }
            }
            BreakerState::Open => {
                // CPU-routed batches never reach here; a straggling
                // failure report while open just extends nothing.
            }
        }
    }

    fn open(&mut self, now: f64, reason: String) {
        self.opens += 1;
        self.open_until = now + self.cfg.cooldown_seconds;
        self.consecutive_failures = 0;
        self.probe_successes = 0;
        self.transition(now, BreakerState::Open, reason);
    }

    fn transition(&mut self, at_seconds: f64, to: BreakerState, reason: String) {
        self.state = to;
        self.transitions.push(BreakerTransition {
            at_seconds,
            to,
            reason,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_seconds: 1.0,
            half_open_successes: 2,
        })
    }

    #[test]
    fn closed_until_threshold_consecutive_failures() {
        let mut b = breaker();
        b.record_failure(0.0, "boom");
        b.record_failure(0.1, "boom");
        assert_eq!(b.state(), BreakerState::Closed);
        // A success resets the streak.
        b.record_success(0.2);
        b.record_failure(0.3, "boom");
        b.record_failure(0.4, "boom");
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(0.5, "boom");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn open_routes_to_cpu_until_cooldown_then_probes() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 0.1, "boom");
        }
        assert_eq!(b.route_at(0.5), Route::Cpu);
        assert_eq!(b.route_at(1.1), Route::Cpu); // opened at 0.2 → until 1.2
        assert_eq!(b.route_at(1.3), Route::Gpu); // half-open probe
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_closes_after_enough_probe_wins() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 0.1, "boom");
        }
        assert_eq!(b.route_at(2.0), Route::Gpu);
        b.record_success(2.1);
        assert_eq!(b.state(), BreakerState::HalfOpen); // one win is not trust
        b.record_success(2.2);
        assert_eq!(b.state(), BreakerState::Closed);
        let states: Vec<BreakerState> = b.transitions().iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn half_open_probe_loss_reopens() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t as f64 * 0.1, "boom");
        }
        assert_eq!(b.route_at(2.0), Route::Gpu);
        b.record_failure(2.1, "still broken");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // The new cooldown restarts from the probe loss.
        assert_eq!(b.route_at(3.0), Route::Cpu);
        assert_eq!(b.route_at(3.2), Route::Gpu);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half-open");
    }
}
