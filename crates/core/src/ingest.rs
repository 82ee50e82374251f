//! Bounded multi-producer ingest queues that survive worker restarts.
//!
//! The partition workers used to drain `std::sync::mpsc` channels, which
//! tie queue lifetime to the receiver: a worker thread dying would
//! disconnect every sender, so supervision (kill the thread, recover the
//! partition, keep going) was impossible without re-wiring every sender
//! clone held by the cluster handle and the forward hub. [`IngestQueue`]
//! decouples the two — it is a plain `Arc`'d `Mutex<VecDeque>` +
//! condvars, so a restarted worker resumes `recv`ing from the exact
//! queue (and backlog) its predecessor left behind.
//!
//! The queue also gives admission control a primitive the channel never
//! had: `IngestQueue::try_send_all`, an **all-or-nothing** reservation
//! across several partitions' queues. A sharded submission either lands
//! on every target queue or on none — shedding can never leave a batch
//! half-admitted.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Why a send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The cluster began shutdown; no further work is accepted.
    Closed,
    /// The owning worker is permanently down (not restarting).
    Down,
}

/// Why a non-blocking send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrySendError {
    /// The queue is at capacity — admission control sheds.
    Full,
    /// The cluster began shutdown.
    Closed,
    /// The owning worker is permanently down.
    Down,
}

struct State<T> {
    q: VecDeque<T>,
    /// Cluster shutdown: senders fail, the worker drains what is left.
    closed: bool,
    /// The owning worker is permanently down: senders fail fast (the
    /// tombstone drain still consumes what was already queued).
    dead: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// A bounded MPSC queue whose lifetime is independent of any consumer
/// thread. Cloning shares the queue.
pub struct IngestQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for IngestQueue<T> {
    fn clone(&self) -> Self {
        IngestQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> IngestQueue<T> {
    /// A queue admitting at most `cap` queued items (minimum 1).
    pub fn new(cap: usize) -> IngestQueue<T> {
        IngestQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    q: VecDeque::new(),
                    closed: false,
                    dead: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                cap: cap.max(1),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocking send: waits for a slot while the queue is full
    /// (backpressure), fails once the queue is closed or its worker is
    /// permanently down.
    pub fn send(&self, item: T) -> Result<(), SendError> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(SendError::Closed);
            }
            if st.dead {
                return Err(SendError::Down);
            }
            if st.q.len() < self.inner.cap {
                st.q.push_back(item);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .inner
                .not_full
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// All-or-nothing non-blocking send across several queues: every
    /// `(queue, item)` pair is admitted, or none is. The caller must
    /// pass the queues in a globally consistent order (the cluster uses
    /// ascending partition id) — this function holds all the locks at
    /// once, and a consistent order is what rules out deadlock between
    /// concurrent submitters.
    pub(crate) fn try_send_all(sends: Vec<(&IngestQueue<T>, T)>) -> Result<(), TrySendError> {
        // Phase 1: lock everything and verify capacity + liveness.
        let mut guards: Vec<MutexGuard<'_, State<T>>> = Vec::with_capacity(sends.len());
        for (q, _) in &sends {
            let st = q.lock();
            if st.closed {
                return Err(TrySendError::Closed);
            }
            if st.dead {
                return Err(TrySendError::Down);
            }
            if st.q.len() >= q.inner.cap {
                return Err(TrySendError::Full);
            }
            guards.push(st);
        }
        // Phase 2: every queue has a free slot and is live — commit.
        for ((q, item), mut st) in sends.into_iter().zip(guards) {
            st.q.push_back(item);
            q.inner.not_empty.notify_one();
        }
        Ok(())
    }

    /// Blocking receive: `None` once the queue is closed *and* drained.
    /// A dead-marked queue still drains (the tombstone worker resolves
    /// queued work with typed errors).
    pub fn recv(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.q.pop_front() {
                self.inner.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .inner
                .not_empty
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking receive (the coalescing lookahead).
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut st = self.lock();
        let item = st.q.pop_front();
        if item.is_some() {
            self.inner.not_full.notify_one();
        }
        item
    }

    /// Begin shutdown: all senders fail, `recv` drains then ends.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Mark the owning worker permanently down: senders fail fast with
    /// [`SendError::Down`] / [`TrySendError::Down`] while the tombstone
    /// drain consumes what was already queued.
    pub(crate) fn mark_dead(&self) {
        let mut st = self.lock();
        st.dead = true;
        self.inner.not_full.notify_all();
    }

    /// True when the queue is at capacity (an advisory check — the
    /// answer can be stale by the time the caller acts on it).
    pub(crate) fn is_full(&self) -> bool {
        self.lock().q.len() >= self.inner.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Non-blocking send of one item: `try_send_all` over one queue.
    fn try_send<T>(q: &IngestQueue<T>, item: T) -> Result<(), TrySendError> {
        IngestQueue::try_send_all(vec![(q, item)])
    }

    #[test]
    fn fifo_and_capacity() {
        let q = IngestQueue::new(2);
        try_send(&q, 1).unwrap();
        try_send(&q, 2).unwrap();
        assert_eq!(try_send(&q, 3), Err(TrySendError::Full));
        assert_eq!(q.recv(), Some(1));
        try_send(&q, 3).unwrap();
        assert_eq!(q.recv(), Some(2));
        assert_eq!(q.recv(), Some(3));
        assert!(q.try_recv().is_none());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = IngestQueue::new(4);
        q.send(1).unwrap();
        q.close();
        assert_eq!(q.send(2), Err(SendError::Closed));
        assert_eq!(q.recv(), Some(1));
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn dead_fails_senders_but_still_drains() {
        let q = IngestQueue::new(4);
        q.send(1).unwrap();
        q.mark_dead();
        assert_eq!(q.send(2), Err(SendError::Down));
        assert_eq!(try_send(&q, 2), Err(TrySendError::Down));
        assert_eq!(q.recv(), Some(1));
    }

    #[test]
    fn try_send_all_is_all_or_nothing() {
        let a = IngestQueue::new(1);
        let b = IngestQueue::new(1);
        try_send(&b, 99).unwrap(); // b is now full
        let err = IngestQueue::try_send_all(vec![(&a, 1), (&b, 2)]).unwrap_err();
        assert_eq!(err, TrySendError::Full);
        assert!(
            a.try_recv().is_none(),
            "nothing may land when any target is full"
        );
        assert_eq!(b.recv(), Some(99));
        IngestQueue::try_send_all(vec![(&a, 1), (&b, 2)]).unwrap();
        assert_eq!((a.recv(), b.recv()), (Some(1), Some(2)));
    }

    #[test]
    fn blocking_send_waits_for_slot() {
        let q = IngestQueue::new(1);
        q.send(1).unwrap();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.send(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.recv(), Some(1));
        h.join().unwrap().unwrap();
        assert_eq!(q.recv(), Some(2));
    }
}
