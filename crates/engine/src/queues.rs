//! Inter-operator queues.
//!
//! Each wired edge `(consumer node, input port)` owns a FIFO queue. The
//! queue set tracks global element and byte totals — the quantities the
//! Chain scheduler minimises and the load shedder bounds.
//!
//! Queues are stored densely, sorted by [`QueueKey`], so a queue has an
//! index the engine's plan and the schedulers work with; only registering
//! or discarding a queue moves indices. The globally oldest element is
//! found through an arrival log rather than a scan.

use std::collections::VecDeque;

use streammeta_core::NodeId;
use streammeta_streams::Element;

/// Key of one inter-operator queue.
pub type QueueKey = (NodeId, usize);

/// An element tagged with its global arrival sequence number (drives FIFO
/// scheduling and deterministic tie-breaks).
#[derive(Clone, Debug)]
pub struct Queued {
    /// Global arrival sequence number.
    pub seq: u64,
    /// The element.
    pub element: Element,
    /// The element's `size_bytes()`, measured once on arrival.
    pub bytes: usize,
}

struct Queue {
    key: QueueKey,
    items: VecDeque<Queued>,
}

/// All inter-operator queues of one engine.
#[derive(Default)]
pub struct QueueSet {
    /// Sorted by key.
    queues: Vec<Queue>,
    /// `(seq, queue index)` of every push, in push order. An entry is live
    /// while its element is still queued; the head is always live, so the
    /// globally oldest element is found in O(1). Entries of elements
    /// popped from behind the head (non-FIFO schedulers) go stale and are
    /// dropped when they reach the head, or by compaction once the log is
    /// longer than twice the queued elements (plus a constant).
    arrivals: VecDeque<(u64, usize)>,
    next_seq: u64,
    total_elements: usize,
    total_bytes: usize,
}

impl QueueSet {
    /// An empty queue set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of `key`'s queue, valid until a queue is registered or
    /// discarded.
    pub fn index_of(&self, key: QueueKey) -> Option<usize> {
        self.queues.binary_search_by_key(&key, |q| q.key).ok()
    }

    /// Registers a queue for an edge (idempotent); returns its index.
    pub fn ensure(&mut self, key: QueueKey) -> usize {
        match self.queues.binary_search_by_key(&key, |q| q.key) {
            Ok(index) => index,
            Err(index) => {
                self.queues.insert(
                    index,
                    Queue {
                        key,
                        items: VecDeque::new(),
                    },
                );
                for (_, queue) in &mut self.arrivals {
                    if *queue >= index {
                        *queue += 1;
                    }
                }
                index
            }
        }
    }

    /// Discards every queue `keep` rejects, with the elements it holds.
    pub fn retain(&mut self, mut keep: impl FnMut(QueueKey) -> bool) {
        let mut renumbered = Vec::with_capacity(self.queues.len());
        let mut kept = 0;
        let (total_elements, total_bytes) = (&mut self.total_elements, &mut self.total_bytes);
        self.queues.retain(|q| {
            let keep = keep(q.key);
            renumbered.push(keep.then_some(kept));
            if keep {
                kept += 1;
            } else {
                *total_elements -= q.items.len();
                *total_bytes -= q.items.iter().map(|i| i.bytes).sum::<usize>();
            }
            keep
        });
        self.arrivals
            .retain_mut(|(_, queue)| match renumbered[*queue] {
                Some(index) => {
                    *queue = index;
                    true
                }
                None => false,
            });
        self.drop_stale_arrivals();
    }

    /// Enqueues an element for `key`, assigning its sequence number.
    pub fn push(&mut self, key: QueueKey, element: Element) {
        let index = self.ensure(key);
        self.push_at(index, element);
    }

    /// [`Self::push`] by queue index.
    pub fn push_at(&mut self, index: usize, element: Element) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = element.size_bytes();
        self.total_elements += 1;
        self.total_bytes += bytes;
        self.queues[index].items.push_back(Queued {
            seq,
            element,
            bytes,
        });
        self.arrivals.push_back((seq, index));
    }

    /// Dequeues the oldest element of `key`.
    pub fn pop(&mut self, key: QueueKey) -> Option<Queued> {
        self.pop_at(self.index_of(key)?)
    }

    /// [`Self::pop`] by queue index.
    pub fn pop_at(&mut self, index: usize) -> Option<Queued> {
        let item = self.queues[index].items.pop_front()?;
        self.total_elements -= 1;
        self.total_bytes -= item.bytes;
        self.drop_stale_arrivals();
        Some(item)
    }

    /// Whether the element a log entry stands for is still queued: its
    /// queue pops from the front, so it is iff the front is no younger.
    fn is_live(queues: &[Queue], (seq, queue): (u64, usize)) -> bool {
        queues[queue].items.front().is_some_and(|f| f.seq <= seq)
    }

    /// Restores the log's invariants after elements left: a live head,
    /// and a length bounded by the queued elements.
    fn drop_stale_arrivals(&mut self) {
        while let Some(&head) = self.arrivals.front() {
            if Self::is_live(&self.queues, head) {
                break;
            }
            self.arrivals.pop_front();
        }
        if self.arrivals.len() > 2 * self.total_elements + 64 {
            let queues = &self.queues;
            self.arrivals.retain(|&entry| Self::is_live(queues, entry));
        }
    }

    /// Length of the arrival log: at most `2 * total_elements() + 64`.
    pub fn arrival_log_len(&self) -> usize {
        self.arrivals.len()
    }

    /// The index of the queue holding the globally oldest element, if any
    /// — the FIFO scheduling decision in O(1).
    pub fn oldest(&self) -> Option<usize> {
        self.arrivals.front().map(|&(_, q)| q)
    }

    /// The key of the queue at `index`.
    pub fn key(&self, index: usize) -> QueueKey {
        self.queues[index].key
    }

    /// Length of one queue.
    pub fn len(&self, key: QueueKey) -> usize {
        self.index_of(key).map_or(0, |i| self.queues[i].items.len())
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.total_elements == 0
    }

    /// Total queued elements.
    pub fn total_elements(&self) -> usize {
        self.total_elements
    }

    /// Total queued bytes.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// The arrival sequence number at the front of the queue at `index`.
    pub fn front_seq(&self, index: usize) -> Option<u64> {
        self.queues[index].items.front().map(|q| q.seq)
    }

    /// Iterates over the indices of all non-empty queues, ascending (so in
    /// key order).
    pub fn non_empty(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.items.is_empty())
            .map(|(index, _)| index)
    }

    /// All registered keys (deterministic order).
    pub fn keys(&self) -> impl Iterator<Item = QueueKey> + '_ {
        self.queues.iter().map(|q| q.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_streams::{tuple, Value};
    use streammeta_time::Timestamp;

    fn elem(v: i64) -> Element {
        Element::new(tuple([Value::Int(v)]), Timestamp(0))
    }

    #[test]
    fn fifo_per_queue() {
        let mut qs = QueueSet::new();
        let k = (NodeId(1), 0);
        qs.push(k, elem(1));
        qs.push(k, elem(2));
        assert_eq!(qs.len(k), 2);
        assert_eq!(qs.pop(k).unwrap().element.payload[0], Value::Int(1));
        assert_eq!(qs.pop(k).unwrap().element.payload[0], Value::Int(2));
        assert!(qs.pop(k).is_none());
        assert!(qs.is_empty());
    }

    #[test]
    fn totals_track_pushes_and_pops() {
        let mut qs = QueueSet::new();
        qs.push((NodeId(1), 0), elem(1));
        qs.push((NodeId(2), 1), elem(2));
        assert_eq!(qs.total_elements(), 2);
        assert_eq!(qs.total_bytes(), 16);
        qs.pop((NodeId(1), 0));
        assert_eq!(qs.total_elements(), 1);
        assert_eq!(qs.total_bytes(), 8);
    }

    #[test]
    fn sequence_numbers_are_global() {
        let mut qs = QueueSet::new();
        qs.push((NodeId(1), 0), elem(1));
        qs.push((NodeId(2), 0), elem(2));
        qs.push((NodeId(1), 0), elem(3));
        assert_eq!(qs.front_seq(0), Some(0));
        assert_eq!(qs.front_seq(1), Some(1));
        let non_empty: Vec<_> = qs.non_empty().map(|i| qs.key(i)).collect();
        assert_eq!(non_empty, vec![(NodeId(1), 0), (NodeId(2), 0)]);
    }

    #[test]
    fn oldest_tracks_fronts_across_pushes_and_pops() {
        let mut qs = QueueSet::new();
        let oldest = |qs: &QueueSet| qs.oldest().map(|i| qs.key(i));
        assert_eq!(oldest(&qs), None);
        qs.push((NodeId(2), 0), elem(0)); // seq 0
        qs.push((NodeId(1), 0), elem(1)); // seq 1
        qs.push((NodeId(2), 0), elem(2)); // seq 2
        assert_eq!(oldest(&qs), Some((NodeId(2), 0)));
        qs.pop((NodeId(2), 0));
        // Queue 2's new front is seq 2; queue 1's front seq 1 is older.
        assert_eq!(oldest(&qs), Some((NodeId(1), 0)));
        qs.pop((NodeId(1), 0));
        assert_eq!(oldest(&qs), Some((NodeId(2), 0)));
        qs.pop((NodeId(2), 0));
        assert_eq!(oldest(&qs), None);
    }

    #[test]
    fn stale_log_entries_are_compacted_behind_a_live_head() {
        let mut qs = QueueSet::new();
        let (pinned, busy) = ((NodeId(1), 0), (NodeId(2), 0));
        qs.push(pinned, elem(0));
        for v in 1..1000 {
            qs.push(busy, elem(v));
            qs.pop(busy);
            assert!(qs.arrival_log_len() <= 2 * qs.total_elements() + 64);
            assert_eq!(qs.oldest(), qs.index_of(pinned));
        }
        qs.pop(pinned);
        assert_eq!(qs.oldest(), None);
        assert_eq!(qs.arrival_log_len(), 0);
    }

    #[test]
    fn retain_discards_queues_with_their_elements() {
        let mut qs = QueueSet::new();
        let (a, b, c) = ((NodeId(1), 0), (NodeId(2), 0), (NodeId(3), 0));
        qs.push(b, elem(0)); // seq 0
        qs.push(a, elem(1)); // seq 1
        qs.push(c, elem(2)); // seq 2
        qs.push(b, elem(3)); // seq 3
        let c_index = qs.index_of(c);
        qs.retain(|key| key != b);
        assert_eq!(qs.keys().collect::<Vec<_>>(), vec![a, c]);
        assert_ne!(qs.index_of(c), c_index, "indices behind b moved up");
        assert_eq!(qs.total_elements(), 2);
        assert_eq!(qs.total_bytes(), 16);
        assert_eq!(qs.oldest(), qs.index_of(a));
        qs.pop(a);
        assert_eq!(qs.oldest(), qs.index_of(c));
        // Registering in front of a queue keeps its log entries on it.
        qs.push((NodeId(0), 0), elem(4));
        assert_eq!(qs.oldest(), qs.index_of(c));
    }

    #[test]
    fn ensure_registers_empty_queue() {
        let mut qs = QueueSet::new();
        qs.ensure((NodeId(5), 0));
        assert_eq!(qs.len((NodeId(5), 0)), 0);
        assert_eq!(qs.keys().count(), 1);
        assert_eq!(qs.non_empty().count(), 0);
    }
}
