//! A bounded, blocking two-lane MPMC job queue — the priority layer of
//! each shard.
//!
//! Every shard runs one [`LaneQueues`] with a **hit lane** (requests
//! classified as answerable from the result tier — cheap, latency-
//! sensitive) and a **synth lane** (everything that may need real
//! synthesis). Consumers pop hit-first, so a rand200-sized synthesis
//! job in front of the queue never delays a cache hit behind it; the
//! dedicated hit worker ([`LaneQueues::pop_hit`]) keeps the hit lane
//! moving even while every synth worker is busy.
//!
//! On the TCP front end, hits whose record sits in the shard's memory
//! tier never enter a lane: the reactor answers them inline. The hit
//! lane there carries store-only hits (a tier-2 read takes the store
//! lock, which the reactor never waits on) and the rare hit inserted
//! between the reactor's memory probe and its classification.
//! In-process `submit`/`try_submit` callers still queue every hit.
//!
//! Admission uses [`LaneQueues::try_push`] — a full lane refuses
//! immediately (the caller sheds with a well-formed `overloaded`
//! error) — while in-process callers keep the blocking
//! [`LaneQueues::push`] backpressure the single-queue service had.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Which priority lane a job rides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Classified as a result-tier hit: answered without synthesis.
    Hit,
    /// May require compilation and synthesis.
    Synth,
}

/// Why [`LaneQueues::try_push`] refused a job; carries the job back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushRefusal<T> {
    /// The lane is at capacity — shed the request.
    Full(T),
    /// The queue is closed — the service is shutting down.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    hit: VecDeque<T>,
    synth: VecDeque<T>,
    closed: bool,
}

/// The two-lane bounded queue (see module docs).
#[derive(Debug)]
pub struct LaneQueues<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    hit_cap: usize,
    synth_cap: usize,
}

impl<T> LaneQueues<T> {
    /// A queue admitting at most `hit_cap` / `synth_cap` waiting jobs
    /// per lane (each clamped to ≥ 1).
    #[must_use]
    pub fn new(hit_cap: usize, synth_cap: usize) -> LaneQueues<T> {
        LaneQueues {
            inner: Mutex::new(Inner {
                hit: VecDeque::new(),
                synth: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            hit_cap: hit_cap.max(1),
            synth_cap: synth_cap.max(1),
        }
    }

    fn cap(&self, lane: Lane) -> usize {
        match lane {
            Lane::Hit => self.hit_cap,
            Lane::Synth => self.synth_cap,
        }
    }

    /// Enqueues `item` on `lane`, blocking while that lane is full.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is closed.
    pub fn push(&self, lane: Lane, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("lane queue lock");
        while inner.lane(lane).len() >= self.cap(lane) && !inner.closed {
            inner = self.not_full.wait(inner).expect("lane queue lock");
        }
        if inner.closed {
            return Err(item);
        }
        inner.lane(lane).push_back(item);
        drop(inner);
        // Waiters are heterogeneous (any-lane poppers and hit-only
        // poppers); notify_one could wake the wrong kind and lose the
        // signal.
        self.not_empty.notify_all();
        Ok(())
    }

    /// Enqueues without blocking — the admission path. A full lane
    /// refuses instantly so the reactor thread never stalls on a
    /// saturated shard.
    ///
    /// # Errors
    ///
    /// [`PushRefusal::Full`] at capacity, [`PushRefusal::Closed`] after
    /// [`close`](LaneQueues::close); both return the item.
    pub fn try_push(&self, lane: Lane, item: T) -> Result<(), PushRefusal<T>> {
        let mut inner = self.inner.lock().expect("lane queue lock");
        if inner.closed {
            return Err(PushRefusal::Closed(item));
        }
        if inner.lane(lane).len() >= self.cap(lane) {
            return Err(PushRefusal::Full(item));
        }
        inner.lane(lane).push_back(item);
        drop(inner);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Dequeues the next job, hit lane first, blocking while both lanes
    /// are empty. Returns `None` once closed *and* drained.
    pub fn pop(&self) -> Option<(Lane, T)> {
        let mut inner = self.inner.lock().expect("lane queue lock");
        loop {
            if let Some(item) = inner.hit.pop_front() {
                drop(inner);
                self.not_full.notify_all();
                return Some((Lane::Hit, item));
            }
            if let Some(item) = inner.synth.pop_front() {
                drop(inner);
                self.not_full.notify_all();
                return Some((Lane::Synth, item));
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("lane queue lock");
        }
    }

    /// Dequeues from the hit lane only — the dedicated hit worker's
    /// loop, immune to synth backlog by construction. Returns `None`
    /// once closed and the hit lane drained.
    pub fn pop_hit(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("lane queue lock");
        loop {
            if let Some(item) = inner.hit.pop_front() {
                drop(inner);
                self.not_full.notify_all();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("lane queue lock");
        }
    }

    /// Closes the queue: blocked producers fail, consumers drain the
    /// remaining jobs and then observe `None`.
    pub fn close(&self) {
        self.inner.lock().expect("lane queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Jobs waiting in `lane`.
    pub fn depth(&self, lane: Lane) -> usize {
        let inner = self.inner.lock().expect("lane queue lock");
        match lane {
            Lane::Hit => inner.hit.len(),
            Lane::Synth => inner.synth.len(),
        }
    }

    /// Jobs waiting across both lanes.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("lane queue lock");
        inner.hit.len() + inner.synth.len()
    }

    /// Whether both lanes are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Inner<T> {
    fn lane(&mut self, lane: Lane) -> &mut VecDeque<T> {
        match lane {
            Lane::Hit => &mut self.hit,
            Lane::Synth => &mut self.synth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hits_overtake_queued_synth_jobs() {
        let q = LaneQueues::new(8, 8);
        q.push(Lane::Synth, "slow-1").unwrap();
        q.push(Lane::Synth, "slow-2").unwrap();
        q.push(Lane::Hit, "fast").unwrap();
        // The hit entered last but leaves first.
        assert_eq!(q.pop(), Some((Lane::Hit, "fast")));
        assert_eq!(q.pop(), Some((Lane::Synth, "slow-1")));
        assert_eq!(q.pop(), Some((Lane::Synth, "slow-2")));
    }

    #[test]
    fn lanes_are_fifo_internally() {
        let q = LaneQueues::new(8, 8);
        for i in 0..4 {
            q.push(Lane::Hit, i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some((Lane::Hit, i)));
        }
    }

    #[test]
    fn try_push_sheds_at_capacity_per_lane() {
        let q = LaneQueues::new(1, 2);
        q.try_push(Lane::Hit, 10).unwrap();
        assert_eq!(q.try_push(Lane::Hit, 11), Err(PushRefusal::Full(11)));
        // The synth lane has its own capacity.
        q.try_push(Lane::Synth, 20).unwrap();
        q.try_push(Lane::Synth, 21).unwrap();
        assert_eq!(q.try_push(Lane::Synth, 22), Err(PushRefusal::Full(22)));
        assert_eq!(q.depth(Lane::Hit), 1);
        assert_eq!(q.depth(Lane::Synth), 2);
        // Draining reopens admission.
        assert_eq!(q.pop(), Some((Lane::Hit, 10)));
        q.try_push(Lane::Hit, 12).unwrap();
    }

    #[test]
    fn close_fails_producers_and_drains_consumers() {
        let q = LaneQueues::new(4, 4);
        q.push(Lane::Synth, 1).unwrap();
        q.push(Lane::Hit, 2).unwrap();
        q.close();
        assert_eq!(q.push(Lane::Synth, 3), Err(3));
        assert_eq!(q.try_push(Lane::Hit, 4), Err(PushRefusal::Closed(4)));
        assert_eq!(q.pop(), Some((Lane::Hit, 2)));
        assert_eq!(q.pop(), Some((Lane::Synth, 1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_hit(), None);
    }

    #[test]
    fn pop_hit_ignores_synth_backlog_and_wakes_on_hits() {
        let q = Arc::new(LaneQueues::new(8, 8));
        q.push(Lane::Synth, 100).unwrap();
        let hit_worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_hit())
        };
        // The hit worker must sleep through synth pushes…
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(Lane::Synth, 101).unwrap();
        assert!(!hit_worker.is_finished(), "synth work must not wake it");
        // …and wake for a hit.
        q.push(Lane::Hit, 7).unwrap();
        assert_eq!(hit_worker.join().unwrap(), Some(7));
        assert_eq!(q.depth(Lane::Synth), 2, "synth backlog untouched");
    }

    #[test]
    fn blocking_push_resumes_when_space_frees() {
        let q = Arc::new(LaneQueues::new(4, 1));
        q.push(Lane::Synth, 0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(Lane::Synth, 1).is_ok())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some((Lane::Synth, 0)));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some((Lane::Synth, 1)));
    }

    #[test]
    fn contended_lanes_preserve_every_job() {
        let q = Arc::new(LaneQueues::new(4, 4));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let lane = if i % 3 == 0 { Lane::Hit } else { Lane::Synth };
                        q.push(lane, p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((_, v)) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
