//! Scan jobs and their per-job outcomes.

use ac_core::Match;

/// One small scan request: a payload to match and the simulated time it
/// arrives at the server (open-loop workload).
#[derive(Debug, Clone)]
pub struct ScanJob {
    /// Caller-visible identifier, unique within a workload.
    pub id: u64,
    /// Bytes to scan.
    pub payload: Vec<u8>,
    /// Arrival time on the simulated clock, seconds.
    pub arrival_seconds: f64,
    /// Latest useful completion time on the simulated clock; a job still
    /// queued past its deadline is expired (typed [`JobExpiry`]) instead
    /// of wasting a batch slot. `None` = no deadline.
    pub deadline_seconds: Option<f64>,
    /// Scheduling priority: higher is more important. SLO admission
    /// control sheds the lowest priorities first.
    pub priority: u8,
}

impl ScanJob {
    /// A job with no deadline and the lowest priority.
    pub fn new(id: u64, payload: Vec<u8>, arrival_seconds: f64) -> Self {
        ScanJob {
            id,
            payload,
            arrival_seconds,
            deadline_seconds: None,
            priority: 0,
        }
    }

    /// Attach a completion deadline (absolute simulated seconds).
    pub fn with_deadline(mut self, deadline_seconds: f64) -> Self {
        self.deadline_seconds = Some(deadline_seconds);
        self
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// The rung of the degradation ladder that produced a job's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// The supervised GPU path (possibly after retries).
    Gpu,
    /// The CPU ladder's parallel rung: the circuit breaker was open, the
    /// batch's GPU attempt exhausted its retries, or cost routing sent
    /// the batch to the CPU tier.
    CpuParallel,
    /// The CPU ladder's serial-oracle floor, after the parallel rung
    /// failed.
    CpuSerial,
}

impl ServedBy {
    /// Stable label for reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ServedBy::Gpu => "gpu",
            ServedBy::CpuParallel => "cpu-parallel",
            ServedBy::CpuSerial => "cpu-serial",
        }
    }
}

/// The served result of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job this answers.
    pub id: u64,
    /// Matches in the job's own coordinates.
    pub matches: Vec<Match>,
    /// Completion time on the simulated clock, seconds.
    pub completed_seconds: f64,
    /// `completed_seconds - arrival_seconds`.
    pub latency_seconds: f64,
    /// How many jobs shared this job's kernel launch.
    pub batch_jobs: usize,
    /// Stream the batch ran on (GPU tier only; 0 for CPU failover).
    pub stream: u32,
    /// Which tier answered.
    pub served_by: ServedBy,
}

/// A job that was admitted but expired in the queue: its deadline passed
/// before a batch slot reached it. A typed outcome distinct from
/// [`crate::Overloaded`] — the caller was *accepted* and gets this
/// answer instead of silence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobExpiry {
    /// The expired job.
    pub job_id: u64,
    /// The deadline it missed (absolute simulated seconds).
    pub deadline_seconds: f64,
    /// When the queue noticed (the batch-formation instant).
    pub expired_at_seconds: f64,
}
