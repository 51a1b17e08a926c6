//! Ready-time priority queue for outgoing interconnect messages.
//!
//! The memory sides used to keep a `Vec<(Cycle, Message)>` and, every
//! cycle, `retain` the not-yet-ready messages into a fresh vector,
//! stable-sort the due ones by `(ready, seq)` and hand them to the bus
//! — two allocations and an O(n log n) sort per node per cycle. This
//! queue replaces that with a binary heap ordered by
//! `(ready, seq, push index)`: popping due entries yields *exactly* the
//! old order (the push index reproduces the stable sort's
//! insertion-order tie-break) with no per-cycle allocation.

use crate::Cycle;
use ds_net::Message;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry {
    ready: Cycle,
    idx: u64,
    msg: Message,
}

impl Entry {
    fn key(&self) -> (Cycle, u64, u64) {
        (self.ready, self.msg.seq, self.idx)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop smallest first.
        other.key().cmp(&self.key())
    }
}

/// Messages waiting for their data-ready cycle, popped in
/// `(ready, seq, insertion)` order.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingQueue {
    heap: BinaryHeap<Entry>,
    next_idx: u64,
}

impl PendingQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Queues `msg` to become visible at `ready`.
    #[inline]
    pub(crate) fn push(&mut self, ready: Cycle, msg: Message) {
        let idx = self.next_idx;
        self.next_idx += 1;
        self.heap.push(Entry { ready, idx, msg });
    }

    /// Earliest data-ready cycle over all queued messages (due or not),
    /// or `None` when the queue is empty. This is the queue's event
    /// horizon: nothing can leave it before that cycle.
    pub(crate) fn next_ready(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.ready)
    }

    /// Removes and returns the next message due by `now`, if any.
    #[expect(
        clippy::expect_used,
        reason = "peek above proved the heap non-empty on this same call"
    )]
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<Message> {
        if self.heap.peek()?.ready > now {
            return None;
        }
        Some(self.heap.pop().expect("peeked").msg)
    }

    /// True when nothing is waiting (due or not).
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_net::MsgKind;

    fn msg(seq: u64) -> Message {
        Message {
            src: 0,
            dest: None,
            kind: MsgKind::Broadcast,
            line_addr: 0,
            payload_bytes: 32,
            seq,
            enqueued_at: 0,
        }
    }

    #[test]
    fn pops_in_ready_then_seq_then_insertion_order() {
        let mut q = PendingQueue::new();
        q.push(5, msg(2));
        q.push(3, msg(9));
        q.push(5, msg(1));
        q.push(5, msg(1)); // same (ready, seq): insertion order breaks the tie
        assert!(q.pop_due(2).is_none(), "nothing due yet");
        assert_eq!(q.pop_due(10).map(|m| m.seq), Some(9));
        let a = q.pop_due(10).unwrap();
        let b = q.pop_due(10).unwrap();
        assert_eq!((a.seq, b.seq), (1, 1));
        assert_eq!(q.pop_due(10).map(|m| m.seq), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn next_ready_is_the_earliest_ready_cycle() {
        let mut q = PendingQueue::new();
        assert_eq!(q.next_ready(), None);
        q.push(7, msg(0));
        q.push(3, msg(1));
        assert_eq!(q.next_ready(), Some(3));
        q.pop_due(3);
        assert_eq!(q.next_ready(), Some(7));
    }

    #[test]
    fn not_due_messages_stay() {
        let mut q = PendingQueue::new();
        q.push(100, msg(0));
        assert!(q.pop_due(99).is_none());
        assert!(!q.is_empty());
        assert!(q.pop_due(100).is_some());
        assert!(q.is_empty());
    }
}
