//! The bounded, per-client-fair submission queue.
//!
//! Admission control is two-level: a **global capacity** (total queued
//! jobs across all clients — the service's backpressure bound) and a
//! **per-client capacity** (one client cannot occupy the whole queue).
//! Scheduling is **round-robin across clients**: the scheduler pops the
//! next job from the next client that has one, so a client submitting a
//! thousand jobs cannot starve a client submitting one — each drains at
//! the same per-client rate regardless of queue depth behind it.
//!
//! Entries cancelled while queued are skipped (and uncounted) at pop time.

use crate::job::{JobRecord, JobStatus};
use crate::service::JobRequest;
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a submission was refused at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The global queue is full — back off and retry.
    QueueFull {
        /// The configured global bound that was hit.
        capacity: usize,
    },
    /// This client's own lane is full (other clients may still submit).
    ClientQueueFull {
        /// The configured per-client bound that was hit.
        capacity: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl SubmitError {
    /// Stable machine-readable error code (the wire protocol's `"code"`
    /// field).
    pub fn code(&self) -> &'static str {
        match self {
            SubmitError::QueueFull { .. } => "queue_full",
            SubmitError::ClientQueueFull { .. } => "client_queue_full",
            SubmitError::ShuttingDown => "shutting_down",
        }
    }

    /// Whether the refusal is transient backpressure the client should
    /// retry after backing off (drives the wire protocol's
    /// `"retry_after_ms"` hint).
    pub fn is_backpressure(&self) -> bool {
        matches!(
            self,
            SubmitError::QueueFull { .. } | SubmitError::ClientQueueFull { .. }
        )
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs queued)")
            }
            SubmitError::ClientQueueFull { capacity } => {
                write!(f, "client queue full ({capacity} jobs queued)")
            }
            SubmitError::ShuttingDown => f.write_str("service shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job waiting for a scheduler slot.
pub(crate) struct PendingJob {
    pub record: Arc<JobRecord>,
    pub request: JobRequest,
}

struct ClientLane {
    name: String,
    jobs: VecDeque<PendingJob>,
}

/// See the [module docs](self). Not internally synchronised — the service
/// wraps it in its scheduler mutex.
pub(crate) struct FairQueue {
    lanes: Vec<ClientLane>,
    /// Round-robin cursor: index of the lane to try first on the next pop.
    rr: usize,
    queued: usize,
    capacity: usize,
    per_client: usize,
}

impl FairQueue {
    pub(crate) fn new(capacity: usize, per_client: usize) -> Self {
        FairQueue {
            lanes: Vec::new(),
            rr: 0,
            queued: 0,
            capacity,
            per_client,
        }
    }

    /// Jobs currently queued (excluding lazily skipped cancellations only
    /// after they have been popped over).
    pub(crate) fn len(&self) -> usize {
        self.queued
    }

    /// Admit one job, or refuse with the bound that was hit.
    pub(crate) fn push(&mut self, client: &str, job: PendingJob) -> Result<(), SubmitError> {
        if self.queued >= self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let lane = match self.lanes.iter_mut().find(|l| l.name == client) {
            Some(lane) => lane,
            None => {
                self.lanes.push(ClientLane {
                    name: client.to_string(),
                    jobs: VecDeque::new(),
                });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        if lane.jobs.len() >= self.per_client {
            return Err(SubmitError::ClientQueueFull {
                capacity: self.per_client,
            });
        }
        lane.jobs.push_back(job);
        self.queued += 1;
        Ok(())
    }

    /// Pop the next live job, round-robin across clients; queued-but-
    /// cancelled entries are discarded in passing, and lanes that drained
    /// empty are pruned so the lane list never outgrows the set of
    /// clients with work actually queued.
    pub(crate) fn pop_fair(&mut self) -> Option<PendingJob> {
        let n = self.lanes.len();
        let mut popped = None;
        'scan: for offset in 0..n {
            let idx = (self.rr + offset) % n;
            while let Some(job) = self.lanes[idx].jobs.pop_front() {
                self.queued -= 1;
                if job.record.status() == JobStatus::Queued {
                    // Next pop starts at the *following* client.
                    self.rr = (idx + 1) % n;
                    popped = Some(job);
                    break 'scan;
                }
                // Cancelled while queued: drop and keep scanning this lane.
            }
        }
        self.prune_empty_lanes();
        popped
    }

    /// Eagerly remove a still-queued entry by job id (queued-then-cancelled
    /// jobs free their admission slot immediately instead of when the
    /// scheduler pops over them). Returns whether an entry was removed;
    /// the lazy status check in [`FairQueue::pop_fair`] remains as the
    /// backstop for entries that were popped before the removal ran.
    pub(crate) fn remove(&mut self, id: crate::job::JobId) -> bool {
        let mut removed = false;
        for lane in &mut self.lanes {
            if let Some(pos) = lane.jobs.iter().position(|j| j.record.id() == id) {
                lane.jobs.remove(pos);
                self.queued -= 1;
                removed = true;
                break;
            }
        }
        if removed {
            self.prune_empty_lanes();
        }
        removed
    }

    /// Drop drained lanes, keeping the round-robin cursor pointing at the
    /// same "next" client among the survivors.
    fn prune_empty_lanes(&mut self) {
        if self.lanes.iter().all(|lane| !lane.jobs.is_empty()) {
            return;
        }
        let old_rr = self.rr;
        let mut new_rr = 0;
        let mut kept = Vec::with_capacity(self.lanes.len());
        for (i, lane) in self.lanes.drain(..).enumerate() {
            if !lane.jobs.is_empty() {
                if i < old_rr {
                    new_rr += 1;
                }
                kept.push(lane);
            }
        }
        self.lanes = kept;
        self.rr = if self.lanes.is_empty() {
            0
        } else {
            new_rr % self.lanes.len()
        };
    }

    /// Remove and return everything (service shutdown).
    pub(crate) fn drain_all(&mut self) -> Vec<PendingJob> {
        let mut out = Vec::with_capacity(self.queued);
        for lane in &mut self.lanes {
            out.extend(lane.jobs.drain(..));
        }
        self.lanes.clear();
        self.rr = 0;
        self.queued = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServiceMetrics;
    use crate::service::JobRequest;
    use tqsim_circuit::generators;

    fn job(id: u64, client: &str) -> PendingJob {
        PendingJob {
            record: JobRecord::new(id, client, ServiceMetrics::new()),
            request: JobRequest::new(Arc::new(generators::bv(4))),
        }
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let mut q = FairQueue::new(16, 16);
        // alice floods; bob submits one.
        for id in 0..5 {
            q.push("alice", job(id, "alice")).unwrap();
        }
        q.push("bob", job(100, "bob")).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair())
            .map(|j| j.record.id())
            .collect();
        // bob's single job drains second, not sixth.
        assert_eq!(order, vec![0, 100, 1, 2, 3, 4]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut q = FairQueue::new(3, 2);
        q.push("a", job(1, "a")).unwrap();
        q.push("a", job(2, "a")).unwrap();
        assert_eq!(
            q.push("a", job(3, "a")),
            Err(SubmitError::ClientQueueFull { capacity: 2 })
        );
        q.push("b", job(4, "b")).unwrap();
        assert_eq!(
            q.push("c", job(5, "c")),
            Err(SubmitError::QueueFull { capacity: 3 })
        );
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn cancelled_entries_are_skipped() {
        let mut q = FairQueue::new(8, 8);
        let cancelled = job(1, "a");
        cancelled.record.cancel();
        q.push("a", cancelled).unwrap();
        q.push("a", job(2, "a")).unwrap();
        let popped = q.pop_fair().unwrap();
        assert_eq!(popped.record.id(), 2);
        assert!(q.pop_fair().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn eager_removal_frees_admission_slots_immediately() {
        // Cancel-heavy admission: a full queue must re-admit as soon as a
        // queued entry is removed, without waiting for a scheduler pop.
        let mut q = FairQueue::new(2, 2);
        q.push("a", job(1, "a")).unwrap();
        q.push("a", job(2, "a")).unwrap();
        assert!(matches!(
            q.push("a", job(3, "a")),
            Err(SubmitError::QueueFull { .. })
        ));
        assert!(q.remove(1), "queued entry removed eagerly");
        assert_eq!(q.len(), 1, "slot freed without a pop");
        q.push("a", job(3, "a")).unwrap();
        assert!(!q.remove(99), "unknown id is a no-op");
        // Remaining entries drain in order; the removed one never appears.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair())
            .map(|j| j.record.id())
            .collect();
        assert_eq!(order, vec![2, 3]);
        assert!(q.lanes.is_empty(), "lanes pruned after removal + drain");
    }

    #[test]
    fn drained_lanes_are_pruned() {
        let mut q = FairQueue::new(16, 16);
        // Many one-shot clients must not leave permanent lanes behind.
        for id in 0..10 {
            q.push(&format!("ephemeral-{id}"), job(id, "e")).unwrap();
        }
        while q.pop_fair().is_some() {}
        assert!(q.lanes.is_empty(), "no queued work ⇒ no lanes");
        assert_eq!(q.rr, 0);
        // Fairness survives pruning: alice keeps her turn after bob's
        // lane drains away mid-rotation.
        q.push("alice", job(20, "alice")).unwrap();
        q.push("alice", job(21, "alice")).unwrap();
        q.push("bob", job(30, "bob")).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_fair())
            .map(|j| j.record.id())
            .collect();
        assert_eq!(order, vec![20, 30, 21]);
        assert!(q.lanes.is_empty());
    }
}
