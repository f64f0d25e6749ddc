//! Per-query flight recorder: a fixed-capacity ring of timestamped
//! events tracing one query's path through router → scheduler →
//! engine → LP. Overflow overwrites the oldest events (the tail of a
//! long solve is usually the interesting part) and counts the drops;
//! sequence numbers stay monotone so gaps are visible in the trace.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::{Arr, Obj};

/// One step on the solve path. Variants mirror the serving layers:
/// router (admitted/placed/cache/rejected), scheduler (dequeued,
/// slices), engine (root init, incumbents, probe sweeps), LP
/// (push_row, snapshot restore).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    Admitted,
    Placed {
        pool: usize,
    },
    Dequeued,
    RootInit,
    SliceStart {
        lane: usize,
    },
    SliceEnd {
        lane: usize,
        nodes: u64,
    },
    Incumbent {
        error: f64,
    },
    PushRow,
    SnapshotRestore,
    CacheExactHit,
    CacheNearHit,
    Rejected,
    /// A worker caught a panic while stepping this query's job; the job
    /// was finalized with `SolveStatus::Failed` (best-so-far kept).
    Failed,
    /// The router re-admitted this query after a failed or refused
    /// attempt; `attempt` counts from 1.
    Retried {
        attempt: u32,
    },
    /// The scheduler worker stepping this query died and the supervisor
    /// is respawning a replacement thread.
    WorkerRespawned {
        worker: usize,
    },
    Completed {
        status: &'static str,
    },
}

impl Event {
    pub fn name(&self) -> &'static str {
        match self {
            Event::Admitted => "admitted",
            Event::Placed { .. } => "placed",
            Event::Dequeued => "dequeued",
            Event::RootInit => "root_init",
            Event::SliceStart { .. } => "slice_start",
            Event::SliceEnd { .. } => "slice_end",
            Event::Incumbent { .. } => "incumbent",
            Event::PushRow => "push_row",
            Event::SnapshotRestore => "snapshot_restore",
            Event::CacheExactHit => "cache_exact_hit",
            Event::CacheNearHit => "cache_near_hit",
            Event::Rejected => "rejected",
            Event::Failed => "failed",
            Event::Retried { .. } => "retried",
            Event::WorkerRespawned { .. } => "worker_respawned",
            Event::Completed { .. } => "completed",
        }
    }
}

/// An [`Event`] stamped with its ring sequence number and nanoseconds
/// since the recorder's epoch (query admission).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    pub seq: u64,
    pub at_ns: u64,
    pub event: Event,
}

impl TimedEvent {
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new();
        obj.field_u64("seq", self.seq);
        obj.field_u64("at_ns", self.at_ns);
        obj.field_str("event", self.event.name());
        match self.event {
            Event::Placed { pool } => {
                obj.field_u64("pool", pool as u64);
            }
            Event::SliceStart { lane } => {
                obj.field_u64("lane", lane as u64);
            }
            Event::SliceEnd { lane, nodes } => {
                obj.field_u64("lane", lane as u64);
                obj.field_u64("nodes", nodes);
            }
            Event::Incumbent { error } => {
                obj.field_f64("error", error);
            }
            Event::Retried { attempt } => {
                obj.field_u64("attempt", attempt as u64);
            }
            Event::WorkerRespawned { worker } => {
                obj.field_u64("worker", worker as u64);
            }
            Event::Completed { status } => {
                obj.field_str("status", status);
            }
            _ => {}
        }
        obj.finish()
    }
}

struct Ring {
    events: Vec<TimedEvent>,
    head: usize,
    next_seq: u64,
    dropped: u64,
}

/// Thread-safe fixed-capacity event ring for one query.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                head: 0,
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    #[inline]
    pub fn record(&self, event: Event) {
        let at_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut ring = rankhow_sync::lock(&self.ring);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let timed = TimedEvent { seq, at_ns, event };
        if ring.events.len() < self.capacity {
            ring.events.push(timed);
        } else {
            let head = ring.head;
            ring.events[head] = timed;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// Copy the ring out in sequence order (oldest surviving event
    /// first). Leaves the recorder usable.
    pub fn drain(&self, label: &str) -> SolveTrace {
        let ring = rankhow_sync::lock(&self.ring);
        let mut events = Vec::with_capacity(ring.events.len());
        events.extend_from_slice(&ring.events[ring.head..]);
        events.extend_from_slice(&ring.events[..ring.head]);
        SolveTrace {
            label: label.to_string(),
            capacity: self.capacity,
            dropped: ring.dropped,
            events,
        }
    }
}

/// A drained, serializable flight-recorder trace for one query.
#[derive(Debug, Clone)]
pub struct SolveTrace {
    pub label: String,
    pub capacity: usize,
    /// Events overwritten by ring overflow (their seq numbers are
    /// missing from `events`).
    pub dropped: u64,
    pub events: Vec<TimedEvent>,
}

impl SolveTrace {
    pub fn to_json(&self) -> String {
        let mut arr = Arr::new();
        for e in &self.events {
            arr.push_raw(&e.to_json());
        }
        let mut obj = Obj::new();
        obj.field_str("label", &self.label);
        obj.field_u64("capacity", self.capacity as u64);
        obj.field_u64("dropped", self.dropped);
        obj.field_raw("events", &arr.finish());
        obj.finish()
    }
}
