//! A bounded ring-buffer audit log of structured events.
//!
//! Events are the narrative complement to the metrics: "session 3 opened at
//! epoch 7", "publish advanced to epoch 8, retiring 2 epochs", "checkpoint
//! failed: ...".  The log keeps the most recent `capacity` events; older
//! ones are dropped (their sequence numbers keep counting, so a reader can
//! tell how many were shed).
//!
//! Events carry a monotonic sequence number instead of a wall-clock
//! timestamp: recording stays cheap and deterministic, and exports are
//! byte-stable for a given workload — the property the transcript-identity
//! conformance suite leans on.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One structured audit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (0-based, counts shed events too).
    pub seq: u64,
    /// The event kind, e.g. `session_open`, `publish`, `checkpoint_error`.
    pub kind: String,
    /// Key/value detail fields, in recording order.
    pub fields: Vec<(String, String)>,
}

/// A bounded, thread-safe ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    next_seq: u64,
    ring: VecDeque<Event>,
}

impl EventLog {
    /// A log keeping the most recent `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(State::default()),
        }
    }

    /// Appends an event, shedding the oldest when full.
    pub fn record(&self, kind: &str, fields: Vec<(String, String)>) {
        let mut state = self.state.lock().expect("event log poisoned");
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(Event {
            seq,
            kind: kind.to_string(),
            fields,
        });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        let state = self.state.lock().expect("event log poisoned");
        state.ring.iter().cloned().collect()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_fields() {
        let log = EventLog::new(8);
        log.record("publish", vec![("epoch".into(), "1".into())]);
        log.record("checkpoint", vec![]);
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].kind, "publish");
        assert_eq!(events[0].fields, vec![("epoch".into(), "1".into())]);
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn ring_sheds_oldest_but_keeps_counting() {
        let log = EventLog::new(2);
        for i in 0..5 {
            log.record("e", vec![("i".into(), i.to_string())]);
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3, "oldest retained");
        assert_eq!(events[1].seq, 4);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let log = EventLog::new(0);
        log.record("only", vec![]);
        assert_eq!(log.capacity(), 1);
        assert_eq!(log.snapshot().len(), 1);
    }

    #[test]
    fn concurrent_recording_counts_every_event() {
        let log = EventLog::new(64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        log.record("tick", vec![]);
                    }
                });
            }
        });
        let events = log.snapshot();
        assert_eq!(events.len(), 64);
        // Sequence numbers count shed events too.
        assert_eq!(events.last().unwrap().seq, 399);
    }
}
