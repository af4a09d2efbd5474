//! Bounded admission-controlled queue with work-conserving micro-batching.
//!
//! Requests are admitted only while the queue holds fewer than
//! `capacity` jobs — beyond that the push fails immediately with
//! [`AdmitError::Overloaded`] and the connection thread turns the failure
//! into an explicit rejection response instead of letting latency grow
//! without bound (admission control, not load shedding by timeout).
//!
//! The batcher side is work-conserving: a worker asking for a batch pops up
//! to `max_batch` waiting jobs at once and sleeps only while the queue is
//! empty, never on a timer. Batches still form under load, from the jobs
//! that arrive while the previous batch computes.
//!
//! Shutdown is a drain: [`BatchQueue::start_drain`] atomically flips the
//! queue into draining mode — subsequent pushes fail with
//! [`AdmitError::Draining`], already-admitted jobs are still batched and
//! served, and [`BatchQueue::next_batch`] returns `None` once the backlog
//! is empty so the worker can exit.
//!
//! With replica workers, a [`Dispatcher`] fronts one `BatchQueue` per
//! replica: admission control stays **global** (a shared permit counter
//! enforces the configured capacity across all replicas, so N replicas do
//! not silently multiply the queue bound), and each admitted job lands on
//! the least-loaded replica. A replica's load is its waiting jobs plus the
//! batch its worker is computing ([`BatchQueue::load`]), so a job goes to
//! an idle replica rather than queueing behind a busy one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Sizing of the queue and the micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Maximum jobs waiting; pushes beyond this are rejected.
    pub capacity: usize,
    /// Maximum jobs per micro-batch.
    pub max_batch: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            max_batch: 8,
        }
    }
}

/// The reply a job's connection thread receives once its batch ran.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// Echo of the request id.
    pub id: u64,
    /// The logits for this job's input.
    pub logits: Vec<f32>,
    /// Time the job spent queued before its batch started, microseconds.
    pub queue_us: f64,
    /// Wall-clock of the whole batch forward pass, microseconds.
    pub compute_us: f64,
    /// Size of the micro-batch the job rode in.
    pub batch: usize,
}

/// One admitted inference job.
#[derive(Debug)]
pub struct Job {
    /// Client-chosen request id.
    pub id: u64,
    /// Server-assigned trace id, drawn from the server-wide sequence
    /// inside [`BatchQueue::push`] while the queue mutex is held — so ids
    /// are monotonic in queue order and a popped batch's jobs always carry
    /// strictly increasing ids. Rejected requests never receive an id
    /// (the id space is dense: `1..=last_trace_id`).
    pub trace: u64,
    /// Flattened input image.
    pub input: Vec<f32>,
    /// Admission timestamp (queue-wait measurement starts here).
    pub enqueued: Instant,
    /// Where the worker sends the reply.
    pub reply: mpsc::Sender<BatchReply>,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity.
    Overloaded,
    /// The server is shutting down.
    Draining,
}

impl AdmitError {
    /// The `status` word the protocol uses for this rejection.
    pub fn reason(self) -> &'static str {
        match self {
            AdmitError::Overloaded => "overloaded",
            AdmitError::Draining => "draining",
        }
    }
}

/// A micro-batch popped by the worker.
#[derive(Debug)]
pub struct Batch {
    /// The jobs, in admission order.
    pub jobs: Vec<Job>,
    /// Queue depth at the instant the batch was cut (before removal);
    /// recorded into the `serve:queue_depth` histogram.
    pub depth_at_pop: usize,
}

struct Inner {
    jobs: VecDeque<Job>,
    /// Jobs of the batch the worker is computing; zeroed when it returns.
    in_service: usize,
    draining: bool,
}

/// The bounded micro-batching queue shared by connection threads (push
/// side) and the single model worker (pop side).
pub struct BatchQueue {
    inner: Mutex<Inner>,
    wake: Condvar,
    cfg: QueueConfig,
}

impl BatchQueue {
    /// Creates an empty queue.
    pub fn new(cfg: QueueConfig) -> Self {
        BatchQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                in_service: 0,
                draining: false,
            }),
            wake: Condvar::new(),
            cfg,
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> QueueConfig {
        self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a job, or rejects it without blocking. On success returns the
    /// queue depth after the push (for depth telemetry at the edge).
    ///
    /// The job's trace id is drawn from `trace_seq` *under the queue
    /// mutex*, after the admission checks — ids are therefore monotonic in
    /// queue order (a popped batch is admission-ordered by construction)
    /// and rejected requests never consume one.
    pub fn push(&self, mut job: Job, trace_seq: &AtomicU64) -> Result<usize, AdmitError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(AdmitError::Draining);
        }
        if inner.jobs.len() >= self.cfg.capacity {
            return Err(AdmitError::Overloaded);
        }
        job.trace = trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        drop(inner);
        self.wake.notify_one();
        Ok(depth)
    }

    /// Current queue depth (jobs waiting, not counting any batch already
    /// popped by the worker).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Jobs waiting plus the jobs of the batch the worker is computing —
    /// the dispatch load of this queue's replica.
    pub fn load(&self) -> usize {
        let inner = self.lock();
        inner.jobs.len() + inner.in_service
    }

    /// Flips the queue into draining mode and wakes the worker. Idempotent.
    pub fn start_drain(&self) {
        self.lock().draining = true;
        self.wake.notify_all();
    }

    /// Whether [`Self::start_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Pops up to `max_batch` waiting jobs at once, blocking only while
    /// the queue is empty; returns `None` when the queue is draining and
    /// empty (worker exit signal).
    ///
    /// Calling it also marks the worker's previous batch as finished, so
    /// [`Self::load`] counts the popped batch until the worker comes back.
    pub fn next_batch(&self) -> Option<Batch> {
        let mut inner = self.lock();
        inner.in_service = 0;
        loop {
            if !inner.jobs.is_empty() {
                let depth_at_pop = inner.jobs.len();
                let take = depth_at_pop.min(self.cfg.max_batch);
                let jobs: Vec<Job> = inner.jobs.drain(..take).collect();
                inner.in_service = take;
                return Some(Batch { jobs, depth_at_pop });
            }
            if inner.draining {
                return None;
            }
            inner = self.wake.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Least-loaded dispatch over one [`BatchQueue`] per replica, with a
/// **global** admission bound.
///
/// The shared permit counter means `cfg.capacity` keeps its single-worker
/// meaning — "jobs waiting across the whole server" — no matter how many
/// replicas exist. Each per-replica queue is sized to the full capacity so
/// the local bound never fires before the global one (with one replica the
/// two coincide and the dispatcher degenerates to today's semantics
/// exactly). Workers call [`Dispatcher::release`] once per popped batch to
/// return the permits.
pub struct Dispatcher {
    queues: Vec<BatchQueue>,
    admitted: AtomicUsize,
    capacity: usize,
    draining: AtomicBool,
}

impl Dispatcher {
    /// One queue per replica, all batching under `cfg`, admission bounded
    /// globally by `cfg.capacity`.
    ///
    /// # Panics
    /// If `replicas == 0`.
    pub fn new(cfg: QueueConfig, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        Dispatcher {
            queues: (0..replicas).map(|_| BatchQueue::new(cfg)).collect(),
            admitted: AtomicUsize::new(0),
            capacity: cfg.capacity,
            draining: AtomicBool::new(false),
        }
    }

    /// Number of replica queues.
    pub fn replicas(&self) -> usize {
        self.queues.len()
    }

    /// The queue replica `i` pops from.
    pub fn queue(&self, i: usize) -> &BatchQueue {
        &self.queues[i]
    }

    /// Admits a job onto the least-loaded replica ([`BatchQueue::load`]:
    /// waiting plus in-service jobs), or rejects it
    /// without blocking. On success returns `(replica, depth_after_push)`.
    /// `trace_seq` is the server-wide trace-id sequence, drawn from under
    /// the chosen queue's mutex (see [`BatchQueue::push`]).
    pub fn push(&self, job: Job, trace_seq: &AtomicU64) -> Result<(usize, usize), AdmitError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(AdmitError::Draining);
        }
        // Global admission: claim a permit or reject. fetch_update never
        // overshoots under contention, unlike an add-then-check.
        if self
            .admitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_err()
        {
            return Err(AdmitError::Overloaded);
        }
        // Least-loaded pick; ties go to the lowest index so a single
        // trickle of requests stays on replica 0 (warm plan cache).
        let replica = (0..self.queues.len())
            .min_by_key(|&i| self.queues[i].load())
            .expect("at least one replica");
        match self.queues[replica].push(job, trace_seq) {
            Ok(depth) => Ok((replica, depth)),
            Err(e) => {
                // Lost the race with a drain; hand the permit back.
                self.admitted.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Returns `batch_len` permits after a worker popped a batch.
    pub fn release(&self, batch_len: usize) {
        self.admitted.fetch_sub(batch_len, Ordering::SeqCst);
    }

    /// Jobs currently admitted and waiting, across all replicas.
    pub fn admitted(&self) -> usize {
        self.admitted.load(Ordering::SeqCst)
    }

    /// Flips every replica queue into draining mode. Idempotent.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for q in &self.queues {
            q.start_drain();
        }
    }

    /// Whether [`Self::start_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn seq() -> AtomicU64 {
        AtomicU64::new(0)
    }

    fn job(id: u64) -> (Job, mpsc::Receiver<BatchReply>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                id,
                trace: id,
                input: Vec::new(),
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    fn cfg(capacity: usize, max_batch: usize) -> QueueConfig {
        QueueConfig {
            capacity,
            max_batch,
        }
    }

    #[test]
    fn push_beyond_capacity_is_overloaded() {
        let seq = seq();
        let q = BatchQueue::new(cfg(2, 8));
        assert_eq!(q.push(job(1).0, &seq), Ok(1));
        assert_eq!(q.push(job(2).0, &seq), Ok(2));
        assert_eq!(q.push(job(3).0, &seq), Err(AdmitError::Overloaded));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn a_full_batch_is_capped_at_max_batch() {
        let seq = seq();
        let q = BatchQueue::new(cfg(8, 3));
        for id in 0..4 {
            q.push(job(id).0, &seq).unwrap();
        }
        let start = Instant::now();
        let batch = q.next_batch().expect("batch due");
        assert!(start.elapsed() < Duration::from_secs(1), "must not wait");
        assert_eq!(batch.jobs.len(), 3, "capped at max_batch");
        assert_eq!(batch.depth_at_pop, 4);
        assert_eq!(
            batch.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "admission order"
        );
        assert_eq!(
            batch.jobs.iter().map(|j| j.trace).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "trace ids are dense and admission-ordered"
        );
        assert_eq!(q.depth(), 1, "remainder stays queued");
    }

    #[test]
    fn a_partial_batch_pops_without_waiting() {
        let seq = seq();
        let q = BatchQueue::new(cfg(8, 8));
        q.push(job(7).0, &seq).unwrap();
        q.push(job(8).0, &seq).unwrap();
        let start = Instant::now();
        let batch = q.next_batch().expect("batch due");
        assert!(start.elapsed() < Duration::from_secs(1), "must not wait");
        assert_eq!(
            batch.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![7, 8],
            "both waiting jobs, in admission order"
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn drain_rejects_new_jobs_but_serves_the_backlog() {
        let seq = seq();
        let q = BatchQueue::new(cfg(8, 4));
        q.push(job(1).0, &seq).unwrap();
        q.push(job(2).0, &seq).unwrap();
        q.start_drain();
        assert_eq!(q.push(job(3).0, &seq), Err(AdmitError::Draining));
        let batch = q.next_batch().expect("backlog still served");
        assert_eq!(batch.jobs.len(), 2);
        assert!(q.next_batch().is_none(), "drained and empty");
    }

    #[test]
    fn drain_wakes_a_blocked_worker() {
        let q = Arc::new(BatchQueue::new(cfg(8, 8)));
        let q2 = Arc::clone(&q);
        let worker = thread::spawn(move || q2.next_batch().is_none());
        thread::sleep(Duration::from_millis(20));
        q.start_drain();
        assert!(worker.join().unwrap(), "worker saw the drain and exited");
    }

    #[test]
    fn reply_channel_delivers_in_batch_order() {
        let seq = seq();
        let q = BatchQueue::new(cfg(8, 8));
        let (j, rx) = job(9);
        q.push(j, &seq).unwrap();
        let batch = q.next_batch().unwrap();
        for j in batch.jobs {
            j.reply
                .send(BatchReply {
                    id: j.id,
                    logits: vec![1.0],
                    queue_us: 1.0,
                    compute_us: 2.0,
                    batch: 1,
                })
                .unwrap();
        }
        let reply = rx.recv().unwrap();
        assert_eq!(reply.id, 9);
        assert_eq!(reply.batch, 1);
    }

    #[test]
    fn dispatcher_capacity_is_global_not_per_replica() {
        let seq = seq();
        let d = Dispatcher::new(cfg(3, 8), 4);
        for id in 0..3 {
            d.push(job(id).0, &seq).unwrap();
        }
        assert_eq!(d.push(job(9).0, &seq), Err(AdmitError::Overloaded));
        assert_eq!(d.admitted(), 3, "4 replicas must not quadruple capacity");
    }

    #[test]
    fn dispatcher_spreads_to_the_least_loaded_queue() {
        let seq = seq();
        let d = Dispatcher::new(cfg(8, 8), 3);
        let mut replicas = Vec::new();
        for id in 0..6 {
            let (replica, depth) = d.push(job(id).0, &seq).unwrap();
            replicas.push(replica);
            assert!(depth <= 2);
        }
        // Round-robin by construction: every queue is shortest in turn.
        assert_eq!(replicas, vec![0, 1, 2, 0, 1, 2]);
        for i in 0..3 {
            assert_eq!(d.queue(i).depth(), 2);
        }
    }

    #[test]
    fn dispatcher_release_reopens_admission() {
        let seq = seq();
        let d = Dispatcher::new(cfg(1, 1), 2);
        d.push(job(1).0, &seq).unwrap();
        assert_eq!(d.push(job(2).0, &seq), Err(AdmitError::Overloaded));
        let batch = d.queue(0).next_batch().unwrap();
        d.release(batch.jobs.len());
        assert_eq!(d.admitted(), 0);
        assert!(d.push(job(3).0, &seq).is_ok(), "the permit came back");
        assert_eq!(d.admitted(), 1);
    }

    #[test]
    fn dispatcher_skips_a_replica_that_is_computing() {
        let seq = seq();
        let d = Arc::new(Dispatcher::new(cfg(8, 8), 2));
        assert_eq!(d.push(job(1).0, &seq).unwrap().0, 0);
        assert_eq!(d.queue(0).next_batch().unwrap().jobs.len(), 1);
        // Replica 0's queue is empty but its worker is computing job 1.
        assert_eq!(d.queue(0).depth(), 0);
        assert_eq!(d.queue(0).load(), 1);
        assert_eq!(d.push(job(2).0, &seq).unwrap().0, 1, "idle replica wins");
        assert_eq!(d.queue(1).next_batch().unwrap().jobs.len(), 1);

        // Both workers come back for more: both loads drop to zero and the
        // tie goes to index 0 again.
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let d = Arc::clone(&d);
                thread::spawn(move || d.queue(i).next_batch().map(|b| b.jobs[0].id))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while d.queue(0).load() + d.queue(1).load() > 0 {
            assert!(Instant::now() < deadline, "workers never re-entered");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(d.push(job(3).0, &seq).unwrap().0, 0);
        d.start_drain();
        let served: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(served, vec![Some(3), None]);
    }

    #[test]
    fn dispatcher_drain_fans_out_and_rejects() {
        let seq = seq();
        let d = Dispatcher::new(cfg(8, 4), 3);
        d.push(job(1).0, &seq).unwrap();
        d.start_drain();
        assert!(d.is_draining());
        assert_eq!(d.push(job(2).0, &seq), Err(AdmitError::Draining));
        // Backlog still served, then every worker sees the exit signal.
        assert_eq!(d.queue(0).next_batch().unwrap().jobs.len(), 1);
        for i in 0..3 {
            assert!(d.queue(i).next_batch().is_none(), "replica {i}");
        }
    }
}
