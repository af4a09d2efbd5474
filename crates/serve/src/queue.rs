//! Bounded admission-controlled queue with work-conserving micro-batching.
//!
//! The server keeps **one** [`BatchQueue`]: every connection thread pushes
//! into it and every replica worker pops from it. Requests are admitted
//! only while it holds fewer than `capacity` waiting jobs — beyond that
//! the push fails immediately with [`AdmitError::Overloaded`] and the
//! connection thread turns the failure into an explicit rejection response
//! instead of letting latency grow without bound (admission control, not
//! load shedding by timeout). The bound is server-wide whatever the
//! replica count.
//!
//! The batcher side is work-conserving: a worker asking for a batch pops up
//! to `max_batch` waiting jobs at once and sleeps only while the queue is
//! empty, never on a timer. Batches still form under load, from the jobs
//! that arrive while the previous batch computes. Since every worker pops
//! the same queue, no worker sleeps while a job waits: whichever worker
//! is free first takes the next batch, and a push wakes one idle worker.
//!
//! Shutdown is a drain: [`BatchQueue::start_drain`] atomically flips the
//! queue into draining mode and wakes every worker — subsequent pushes
//! fail with [`AdmitError::Draining`], already-admitted jobs are still
//! batched and served, and [`BatchQueue::next_batch`] returns `None` once
//! the backlog is empty so each worker can exit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A micro-batch popped by a worker.
#[derive(Debug)]
pub struct Batch {
    /// The jobs, in admission order.
    pub jobs: Vec<Job>,
    /// Jobs waiting server-wide at the instant the batch was cut (before
    /// removal) — the backlog across all replicas, since they share one
    /// queue; recorded into the `serve:queue_depth` histogram.
    pub depth_at_pop: usize,
}

struct Inner {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// The bounded micro-batching queue shared by connection threads (push
/// side) and every replica worker (pop side).
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
                draining: false,
            }),
            wake: Condvar::new(),
            cfg,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a job and wakes one idle worker, or rejects the job without
    /// blocking.
    ///
    /// The job's trace id is drawn from `trace_seq` *under the queue
    /// mutex*, after the admission checks — ids are therefore monotonic in
    /// queue order (a popped batch is admission-ordered by construction)
    /// and rejected requests never consume one.
    pub fn push(&self, mut job: Job, trace_seq: &AtomicU64) -> Result<(), AdmitError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(AdmitError::Draining);
        }
        if inner.jobs.len() >= self.cfg.capacity {
            return Err(AdmitError::Overloaded);
        }
        job.trace = trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        inner.jobs.push_back(job);
        drop(inner);
        self.wake.notify_one();
        Ok(())
    }

    /// Flips the queue into draining mode and wakes every worker.
    /// Idempotent.
    pub fn start_drain(&self) {
        self.lock().draining = true;
        self.wake.notify_all();
    }

    /// Pops up to `max_batch` waiting jobs at once, blocking only while
    /// the queue is empty; returns `None` when the queue is draining and
    /// empty (worker exit signal).
    pub fn next_batch(&self) -> Option<Batch> {
        let mut inner = self.lock();
        loop {
            if !inner.jobs.is_empty() {
                let depth_at_pop = inner.jobs.len();
                let take = depth_at_pop.min(self.cfg.max_batch);
                let jobs: Vec<Job> = inner.jobs.drain(..take).collect();
                return Some(Batch { jobs, depth_at_pop });
            }
            if inner.draining {
                return None;
            }
            inner = self.wake.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
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
        let q = BatchQueue::new(cfg(2, 1));
        assert_eq!(q.push(job(1).0, &seq), Ok(()));
        assert_eq!(q.push(job(2).0, &seq), Ok(()));
        assert_eq!(q.push(job(3).0, &seq), Err(AdmitError::Overloaded));
        // Popping a batch frees its capacity, and only that much.
        assert_eq!(q.next_batch().unwrap().jobs.len(), 1);
        assert_eq!(q.push(job(4).0, &seq), Ok(()));
        assert_eq!(q.push(job(5).0, &seq), Err(AdmitError::Overloaded));
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
        let rest = q.next_batch().expect("remainder stays queued");
        assert_eq!(rest.jobs.iter().map(|j| j.id).collect::<Vec<_>>(), vec![3]);
        assert_eq!(rest.depth_at_pop, 1);
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
        q.start_drain();
        assert!(q.next_batch().is_none(), "nothing left behind");
    }

    /// Two workers are both computing when two jobs arrive: the first one
    /// back takes both, rather than one while the other job waits for the
    /// busy worker it was assigned to.
    #[test]
    fn a_free_worker_takes_every_waiting_job() {
        let seq = seq();
        let q = BatchQueue::new(cfg(8, 8));
        q.push(job(1).0, &seq).unwrap();
        assert_eq!(q.next_batch().unwrap().jobs[0].id, 1, "worker A computes");
        q.push(job(2).0, &seq).unwrap();
        assert_eq!(q.next_batch().unwrap().jobs[0].id, 2, "worker B computes");
        q.push(job(3).0, &seq).unwrap();
        q.push(job(4).0, &seq).unwrap();
        let first_back = q.next_batch().unwrap();
        assert_eq!(
            first_back.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![3, 4]
        );
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
    fn drain_wakes_every_blocked_worker() {
        let q = Arc::new(BatchQueue::new(cfg(8, 8)));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.next_batch().is_none())
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.start_drain();
        for (i, w) in workers.into_iter().enumerate() {
            assert!(w.join().unwrap(), "worker {i} saw the drain and exited");
        }
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
}
