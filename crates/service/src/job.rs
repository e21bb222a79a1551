//! Job records and client tickets: per-job status, the streamed-outcome
//! buffer, and the completion rendezvous.

use crate::metrics::ServiceMetrics;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tqsim::RunResult;
use tqsim_obs::{duration_ns, Counter};

/// Service-assigned job identifier (unique for the service lifetime).
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a scheduler slot.
    Queued,
    /// Executing on the engine.
    Running,
    /// Completed; the result is available.
    Done,
    /// Terminal failure; the payload says which kind (plan error, panic
    /// abort, deadline, unavailable backend).
    Failed(JobError),
    /// Cancelled by the client (best-effort: a job already running is
    /// detached — its remaining work completes on the engine but its
    /// result and chunks are discarded).
    Cancelled,
}

impl JobStatus {
    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// Short wire-protocol name.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// Why [`Ticket::wait`] did not return a result. Every variant carries a
/// stable machine-readable [`JobError::code`] that the wire protocol
/// returns alongside the human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job was cancelled.
    Cancelled,
    /// Planning or execution failed.
    Failed(String),
    /// Execution was aborted mid-flight (a worker panic contained to this
    /// job; retries, if configured, were exhausted).
    Aborted(String),
    /// The job's deadline passed before it completed.
    DeadlineExceeded,
    /// No backend can run the job (e.g. a cluster fault on a job too wide
    /// for single-node degradation).
    BackendUnavailable(String),
}

impl JobError {
    /// Stable machine-readable error code (the wire protocol's `"code"`
    /// field).
    pub fn code(&self) -> &'static str {
        match self {
            JobError::Cancelled => "job_cancelled",
            JobError::Failed(_) => "job_failed",
            JobError::Aborted(_) => "job_aborted",
            JobError::DeadlineExceeded => "deadline_exceeded",
            JobError::BackendUnavailable(_) => "backend_unavailable",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
            JobError::Aborted(msg) => write!(f, "job aborted: {msg}"),
            JobError::DeadlineExceeded => f.write_str("job deadline exceeded"),
            JobError::BackendUnavailable(msg) => write!(f, "backend unavailable: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

struct JobState {
    status: JobStatus,
    result: Option<RunResult>,
    /// Streamed outcomes not yet drained by the client.
    pending: Vec<u64>,
    /// Total outcomes ever pushed into `pending`.
    streamed: u64,
    /// When the job reached a terminal state (drives retention sweeps).
    finished_at: Option<Instant>,
    /// When the scheduler popped the job off the queue (ends `queue_wait`).
    popped_at: Option<Instant>,
    /// When execution started on an engine (ends `compile`).
    running_at: Option<Instant>,
    /// When the last outcome chunk streamed in (ends `stream`).
    last_chunk_at: Option<Instant>,
}

/// One job's shared record: the scheduler, the engine's worker threads and
/// any number of client handles all talk through this.
pub(crate) struct JobRecord {
    id: JobId,
    client: String,
    /// When the job was admitted (starts `queue_wait` and `e2e`).
    submitted_at: Instant,
    /// Job counters, stage histograms and the event ring.
    metrics: Arc<ServiceMetrics>,
    state: Mutex<JobState>,
    /// Notified on every state change (status transitions and new chunks).
    cv: Condvar,
    /// Invoked once, outside the state lock, when a cancellation takes
    /// effect — the service hooks this to eagerly remove a still-queued
    /// entry from the submission queue (freeing its admission slot
    /// immediately instead of when the scheduler pops over it).
    on_cancel: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl JobRecord {
    pub(crate) fn new(id: JobId, client: &str, metrics: Arc<ServiceMetrics>) -> Arc<Self> {
        metrics.registry.events().record(id, "submitted");
        Arc::new(JobRecord {
            id,
            client: client.to_string(),
            submitted_at: Instant::now(),
            metrics,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                result: None,
                pending: Vec::new(),
                streamed: 0,
                finished_at: None,
                popped_at: None,
                running_at: None,
                last_chunk_at: None,
            }),
            cv: Condvar::new(),
            on_cancel: Mutex::new(None),
        })
    }

    /// Record a lifecycle event into the observability ring.
    fn event(&self, stage: &'static str) {
        self.metrics.registry.events().record(self.id, stage);
    }

    pub(crate) fn id(&self) -> JobId {
        self.id
    }

    pub(crate) fn client(&self) -> &str {
        &self.client
    }

    pub(crate) fn status(&self) -> JobStatus {
        self.state.lock().expect("job state").status.clone()
    }

    /// Mark the scheduler pop (ends the `queue_wait` stage). Idempotent.
    pub(crate) fn set_scheduled(&self) {
        let mut st = self.state.lock().expect("job state");
        if st.popped_at.is_none() {
            st.popped_at = Some(Instant::now());
            drop(st);
            self.event("scheduled");
        }
    }

    pub(crate) fn set_running(&self) {
        let mut st = self.state.lock().expect("job state");
        if st.status == JobStatus::Queued {
            st.status = JobStatus::Running;
            st.running_at = Some(Instant::now());
            self.cv.notify_all();
            drop(st);
            self.event("running");
        }
    }

    /// Streaming sink target: called from engine worker threads per leaf
    /// batch. Chunks for a job already terminal (cancelled, deadline-failed,
    /// aborted) are dropped.
    pub(crate) fn push_chunk(&self, outcomes: &[u64]) {
        let mut st = self.state.lock().expect("job state");
        if st.status.is_terminal() {
            return;
        }
        st.pending.extend_from_slice(outcomes);
        st.streamed += outcomes.len() as u64;
        st.last_chunk_at = Some(Instant::now());
        self.metrics.jobs.chunks_streamed.inc();
        self.metrics
            .jobs
            .outcomes_streamed
            .add(outcomes.len() as u64);
        self.cv.notify_all();
    }

    /// Completion callback target (engine worker thread). A job already
    /// terminal (cancelled, or failed by its deadline while the engine was
    /// still finishing) keeps its terminal state — the late result is
    /// discarded.
    pub(crate) fn finish(&self, result: RunResult) {
        let mut st = self.state.lock().expect("job state");
        if st.status.is_terminal() {
            return;
        }
        st.status = JobStatus::Done;
        let now = Instant::now();
        st.finished_at = Some(now);
        // One record per *completed* job into every stage histogram (each
        // histogram's count therefore equals the completed-job count), all
        // derived from the same four instants so queue_wait + compile +
        // execute sums exactly to e2e.
        let m = &self.metrics;
        let popped = st.popped_at.unwrap_or(self.submitted_at);
        let running = st.running_at.unwrap_or(popped);
        let since = |later: Instant, earlier: Instant| {
            duration_ns(later.saturating_duration_since(earlier))
        };
        m.queue_wait_ns.record(since(popped, self.submitted_at));
        m.compile_ns.record(since(running, popped));
        m.execute_ns.record(since(now, running));
        m.stream_ns
            .record(since(st.last_chunk_at.unwrap_or(running), running));
        m.e2e_ns.record(since(now, self.submitted_at));
        m.add_ops(&result.ops);
        st.result = Some(result);
        m.jobs.completed.inc();
        self.cv.notify_all();
        drop(st);
        self.event("done");
    }

    /// Terminate the job with a structured error (see
    /// [`JobRecord::terminate`]). A still-queued job (e.g. one timed out
    /// before ever being scheduled) releases its admission slot at once.
    pub(crate) fn fail(&self, error: JobError) {
        self.terminate(JobStatus::Failed(error));
    }

    /// Re-arm a running job for another execution attempt after a
    /// contained fault: status stays `Running` and partial streamed chunks
    /// from the failed attempt are dropped, so the re-run streams from a
    /// clean slate. Returns `false` (and does nothing) if the job went
    /// terminal in the meantime — the caller must not re-dispatch it.
    fn rearm(&self, stage: &'static str) -> bool {
        let mut st = self.state.lock().expect("job state");
        if st.status.is_terminal() {
            return false;
        }
        st.pending.clear();
        st.streamed = 0;
        drop(st);
        self.event(stage);
        true
    }

    /// [`JobRecord::rearm`] for a same-placement retry; ticks the retry
    /// counter.
    pub(crate) fn rearm_for_retry(&self) -> bool {
        if !self.rearm("retrying") {
            return false;
        }
        self.metrics.jobs.retried.inc();
        true
    }

    /// [`JobRecord::rearm`] for a cluster → single-node degradation
    /// re-placement (counted by the service's `degraded` counter, not
    /// `retried`).
    pub(crate) fn rearm_for_degrade(&self) -> bool {
        self.rearm("degraded")
    }

    /// Returns whether the cancellation took effect (the job had not
    /// already reached a terminal state).
    pub(crate) fn cancel(&self) -> bool {
        self.terminate(JobStatus::Cancelled)
    }

    /// The one terminal transition, to `status` (`Cancelled` or `Failed`):
    /// counts the cause into exactly one counter, clears any partially
    /// streamed outcomes (a failed job's partial data is misleading), and
    /// runs the eager-dequeue hook. Returns `false`, and does nothing, if
    /// the job was already terminal.
    fn terminate(&self, status: JobStatus) -> bool {
        let jobs = &self.metrics.jobs;
        let (counter, stage): (&Counter, &'static str) = match &status {
            JobStatus::Cancelled => (&jobs.cancelled, "cancelled"),
            JobStatus::Failed(JobError::Aborted(_)) => (&jobs.aborted, "aborted"),
            JobStatus::Failed(JobError::DeadlineExceeded) => (&jobs.timed_out, "deadline_exceeded"),
            _ => (&jobs.failed, "failed"),
        };
        {
            let mut st = self.state.lock().expect("job state");
            if st.status.is_terminal() {
                return false;
            }
            st.status = status;
            st.pending.clear();
            st.result = None;
            st.finished_at = Some(Instant::now());
            counter.inc();
            self.cv.notify_all();
        }
        self.event(stage);
        // Outside the state lock: the hook takes the scheduler lock, and
        // the scheduler reads job status under it — holding both here
        // would invert that order and deadlock.
        if let Some(hook) = self.on_cancel.lock().expect("cancel hook").take() {
            hook();
        }
        true
    }

    /// Install the eager-dequeue hook (service-side; see `on_cancel`).
    pub(crate) fn set_on_cancel(&self, hook: Box<dyn FnOnce() + Send>) {
        *self.on_cancel.lock().expect("cancel hook") = Some(hook);
    }

    /// Whether the job is terminal and has been so for longer than `ttl`.
    pub(crate) fn expired(&self, ttl: Duration) -> bool {
        let st = self.state.lock().expect("job state");
        st.finished_at.is_some_and(|at| at.elapsed() >= ttl)
    }

    /// Whether the job is in a terminal state (for explicit forget).
    pub(crate) fn is_terminal(&self) -> bool {
        self.state.lock().expect("job state").status.is_terminal()
    }
}

/// Wait on `cv` until notified or `deadline` passes. `None` deadline waits
/// unboundedly and always returns the re-acquired guard; `Some(None)`
/// return means the deadline expired.
fn wait_until<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
    deadline: Option<Instant>,
) -> Option<std::sync::MutexGuard<'a, T>> {
    match deadline {
        None => Some(cv.wait(guard).expect("job cv")),
        Some(deadline) => {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = cv.wait_timeout(guard, deadline - now).expect("job cv");
            Some(guard)
        }
    }
}

/// Outcome of a bounded [`Ticket::next_chunk_timeout`] poll.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPoll {
    /// New outcomes arrived (the drained buffer).
    Chunk(Vec<u64>),
    /// The job is terminal and nothing is left to drain.
    Terminal,
    /// Nothing new within the timeout; the job is still live. Callers use
    /// the gap to check their own liveness (e.g. a connection handler
    /// probing whether its client is still there).
    TimedOut,
}

/// A client's handle on one submitted job: poll status, stream outcome
/// chunks as leaf batches complete, block for the final result, or cancel.
///
/// Tickets are cheap to clone; all clones observe the same job. The
/// streamed-chunk buffer is a single queue — when several handles stream
/// one job, each outcome is delivered to exactly one of them.
#[derive(Clone)]
pub struct Ticket {
    pub(crate) record: Arc<JobRecord>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Ticket[job {}, client {:?}, {:?}]",
            self.record.id(),
            self.record.client(),
            self.record.status()
        )
    }
}

impl Ticket {
    /// The service-assigned job id.
    pub fn id(&self) -> JobId {
        self.record.id()
    }

    /// The submitting client's name.
    pub fn client(&self) -> &str {
        self.record.client()
    }

    /// Current lifecycle status.
    pub fn status(&self) -> JobStatus {
        self.record.status()
    }

    /// Outcomes streamed so far (including ones already drained).
    pub fn streamed(&self) -> u64 {
        self.record.state.lock().expect("job state").streamed
    }

    /// Block until at least one new outcome is available and drain the
    /// buffer, or return `None` once the job is terminal with nothing
    /// left to drain. Looping on this yields every outcome of the job,
    /// in leaf-batch chunks, while the job is still executing.
    pub fn next_chunk(&self) -> Option<Vec<u64>> {
        match self.next_chunk_deadline(None) {
            ChunkPoll::Chunk(chunk) => Some(chunk),
            ChunkPoll::Terminal => None,
            ChunkPoll::TimedOut => unreachable!("no deadline cannot time out"),
        }
    }

    /// Block until the job reaches a terminal state and return the full
    /// result (histogram, op counts, tree, timings).
    ///
    /// # Errors
    ///
    /// [`JobError::Cancelled`] or [`JobError::Failed`] for jobs that did
    /// not complete.
    pub fn wait(&self) -> Result<RunResult, JobError> {
        self.wait_deadline(None)
            .expect("no deadline cannot time out")
    }

    /// Bounded [`Ticket::next_chunk`]: block at most `timeout` for new
    /// outcomes. Lets a connection handler interleave chunk draining with
    /// liveness checks instead of parking its thread until the job ends.
    /// An unrepresentable deadline (e.g. `Duration::MAX`) waits
    /// unboundedly, like [`Ticket::next_chunk`].
    pub fn next_chunk_timeout(&self, timeout: Duration) -> ChunkPoll {
        self.next_chunk_deadline(Instant::now().checked_add(timeout))
    }

    /// Bounded [`Ticket::wait`]: block at most `timeout` for the job to
    /// reach a terminal state. `None` means "still running — check back";
    /// the same liveness-poll companion as [`Ticket::next_chunk_timeout`].
    /// An unrepresentable deadline (e.g. `Duration::MAX`) waits
    /// unboundedly, like [`Ticket::wait`].
    #[allow(clippy::type_complexity)]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<RunResult, JobError>> {
        self.wait_deadline(Instant::now().checked_add(timeout))
    }

    /// The one drain/wait state machine behind [`Ticket::next_chunk`] and
    /// [`Ticket::next_chunk_timeout`]; `None` means no deadline.
    fn next_chunk_deadline(&self, deadline: Option<Instant>) -> ChunkPoll {
        let mut st = self.record.state.lock().expect("job state");
        loop {
            if !st.pending.is_empty() {
                return ChunkPoll::Chunk(std::mem::take(&mut st.pending));
            }
            if st.status.is_terminal() {
                return ChunkPoll::Terminal;
            }
            match wait_until(&self.record.cv, st, deadline) {
                Some(guard) => st = guard,
                None => return ChunkPoll::TimedOut,
            }
        }
    }

    /// The one terminal-wait state machine behind [`Ticket::wait`] and
    /// [`Ticket::wait_timeout`]; `None` means no deadline.
    fn wait_deadline(&self, deadline: Option<Instant>) -> Option<Result<RunResult, JobError>> {
        let mut st = self.record.state.lock().expect("job state");
        loop {
            match &st.status {
                JobStatus::Done => {
                    return Some(Ok(st.result.clone().expect("done job has a result")));
                }
                JobStatus::Failed(err) => return Some(Err(err.clone())),
                JobStatus::Cancelled => return Some(Err(JobError::Cancelled)),
                _ => match wait_until(&self.record.cv, st, deadline) {
                    Some(guard) => st = guard,
                    None => return None,
                },
            }
        }
    }

    /// Cancel the job (best-effort; see [`JobStatus::Cancelled`]). Returns
    /// whether the cancellation took effect. A still-queued job is also
    /// removed from the submission queue eagerly, freeing its admission
    /// slot immediately.
    pub fn cancel(&self) -> bool {
        self.record.cancel()
    }
}
