//! Bounded MPMC request queue with batch-forming pops.
//!
//! The admission front-end of the service: producers
//! [`try_push`](BoundedQueue::try_push) and are rejected immediately
//! when the queue is full — load is shed at the door instead of growing an
//! unbounded backlog whose tail latency nobody can meet. Consumers
//! [`pop_batch`](BoundedQueue::pop_batch) up to `max` requests at once,
//! lingering briefly for stragglers so coalesced batches actually fill
//! under closed-loop load (the TensorFlow-Serving batching idiom).
//!
//! Batch formation is pure grouping: *which* requests share a pop never
//! affects *what* each request computes (every window anneals under its
//! own seed), so the linger trades latency for throughput without
//! touching the bit-identity contract.
//!
//! Observability: the service samples the `serve.queue_depth` gauge at
//! every depth-changing edge — successful push, full-queue rejection,
//! batch pop, and crash/cancel [`requeue`](BoundedQueue::requeue) (which
//! returns the new depth for exactly that reason) — so a brownout
//! decision can be reconstructed from the gauge series after the fact.
//! Per-request queue time is the `serve.queue_wait` span recorded at
//! pop time when tracing is enabled.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a push was refused; the rejected item is handed back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity: shed the request now (admission
    /// control), do not wait.
    Full(T),
    /// The queue was closed for shutdown.
    Closed(T),
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue (mutex + condvar).
///
/// Contention is negligible at serving granularity: producers touch the
/// lock once per request, consumers once per batch.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` waiting items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current backlog depth.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the backlog is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().queue.is_empty()
    }

    /// Enqueues without blocking; on success returns the new backlog
    /// depth.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close); both return the item.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.queue.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.queue.push_back(item);
        let depth = inner.queue.len();
        drop(inner);
        self.not_empty.notify_all();
        Ok(depth)
    }

    /// Blocks until at least one item is available, then drains up to
    /// `max` items, lingering up to `linger` for the batch to fill
    /// (returning as soon as it does). Returns the batch plus the
    /// backlog depth left behind, or `None` once the queue is closed
    /// *and* drained — the consumer's signal to exit.
    pub fn pop_batch(&self, max: usize, linger: Duration) -> Option<(Vec<T>, usize)> {
        let max = max.max(1);
        let mut inner = self.lock();
        while inner.queue.is_empty() && !inner.closed {
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
        if inner.queue.is_empty() {
            return None; // closed and drained
        }
        let mut batch = Vec::with_capacity(max);
        while batch.len() < max {
            match inner.queue.pop_front() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        if batch.len() < max && !inner.closed && !linger.is_zero() {
            // One absolute deadline for the whole linger: each wakeup —
            // spurious, item-bearing, or a close — waits only for the
            // *remaining* time, so a storm of early wakeups can never
            // stretch the linger past `linger` total
            // (`linger_deadline_survives_wakeup_storms` pins this).
            let deadline = Instant::now() + linger;
            loop {
                if batch.len() == max || inner.closed {
                    break;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (guard, _) = self
                    .not_empty
                    .wait_timeout(inner, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                while batch.len() < max {
                    match inner.queue.pop_front() {
                        Some(item) => batch.push(item),
                        None => break,
                    }
                }
            }
        }
        let depth = inner.queue.len();
        Some((batch, depth))
    }

    /// Re-enqueues an item at the *front* of the queue, ignoring both
    /// capacity and the closed flag, and returns the new depth.
    ///
    /// This is the exactly-once re-delivery path for requests a crashed
    /// or cancelled worker left un-replied: they were already admitted
    /// once, so shedding them now would turn a worker fault into a lost
    /// response, and FIFO position (front) preserves their original
    /// admission order ahead of younger traffic. Never use this for new
    /// admissions — that is [`try_push`](Self::try_push)'s job.
    pub fn requeue(&self, item: T) -> usize {
        let mut inner = self.lock();
        inner.queue.push_front(item);
        let depth = inner.queue.len();
        drop(inner);
        self.not_empty.notify_all();
        depth
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and consumers drain what remains, then see `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_reports_depth() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.len(), 2);
        let (batch, depth) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(depth, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_caps_at_max_in_fifo_order() {
        let q = BoundedQueue::new(16);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let (batch, depth) = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(depth, 2);
        let (batch, depth) = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![3, 4]);
        assert_eq!(depth, 0);
    }

    #[test]
    fn linger_fills_the_batch_from_a_late_producer() {
        let q = Arc::new(BoundedQueue::new(16));
        q.try_push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                q.try_push(1).unwrap();
                q.try_push(2).unwrap();
            })
        };
        // Without linger we'd get just [0]; with a generous one the
        // late items join the same batch.
        let (batch, _) = q.pop_batch(3, Duration::from_secs(5)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
    }

    #[test]
    fn linger_deadline_survives_wakeup_storms() {
        // A trickle of producers wakes the lingering consumer over and
        // over without ever filling the batch. If any wakeup restarted
        // the full linger, the pop would stretch to ~storm length; the
        // absolute deadline bounds it near the configured linger.
        let q = Arc::new(BoundedQueue::new(1024));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 1..200u32 {
                    std::thread::sleep(Duration::from_millis(1));
                    if q.try_push(i).is_err() {
                        break;
                    }
                }
            })
        };
        let start = Instant::now();
        let (batch, _) = q.pop_batch(1000, Duration::from_millis(40)).unwrap();
        let elapsed = start.elapsed();
        assert!(!batch.is_empty());
        assert!(
            elapsed < Duration::from_millis(150),
            "linger drifted to {elapsed:?} under a wakeup storm"
        );
        q.close();
        producer.join().unwrap();
    }

    #[test]
    fn requeue_goes_to_the_front_ignoring_capacity_and_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // At capacity: a new admission sheds, a re-delivery never does.
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.requeue(0), 3);
        let (batch, _) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1, 2], "requeued item must lead FIFO");
        // Closed: still accepted, still drained before the exit signal.
        q.close();
        assert_eq!(q.requeue(9), 1);
        let (batch, depth) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![9]);
        assert_eq!(depth, 0);
        assert!(q.pop_batch(8, Duration::ZERO).is_none());
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err(PushError::Closed(8))));
        let (batch, depth) = q.pop_batch(4, Duration::from_secs(1)).unwrap();
        assert_eq!(batch, vec![7]);
        assert_eq!(depth, 0);
        assert!(q.pop_batch(4, Duration::from_secs(1)).is_none());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::ZERO))
        };
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }
}
