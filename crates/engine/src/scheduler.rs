//! Operator scheduling strategies.
//!
//! Scheduling is the paper's first motivating application for dynamic
//! metadata (Section 1): "The Chain scheduling strategy has to react to
//! significant changes in operator selectivities to minimize the memory
//! usage of inter-operator queues."
//!
//! * [`FifoScheduler`] — serves the globally oldest element (the neutral
//!   baseline).
//! * [`RoundRobinScheduler`] — cycles over non-empty queues.
//! * [`ChainScheduler`] — a Chain-style strategy (Babcock et al., SIGMOD
//!   2003): prefer the operator that destroys the most tuples per unit of
//!   work, i.e. the one with the steepest drop `1 - selectivity`. It
//!   *subscribes* to the operators' `selectivity` metadata items and thus
//!   adapts when selectivities drift at runtime.

use std::collections::HashMap;

use streammeta_core::{MetadataKey, MetadataManager, NodeId, Subscription};
use streammeta_graph::QueryGraph;

use crate::queues::QueueSet;

/// Picks the next queue to serve.
pub trait Scheduler: Send {
    /// Strategy name (for experiment tables).
    fn name(&self) -> &'static str;

    /// Chooses a non-empty queue by its [`QueueSet`] index, or `None` if
    /// all are empty.
    fn next(&mut self, queues: &QueueSet) -> Option<usize>;
}

/// Global FIFO: the queue holding the oldest element wins.
#[derive(Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn next(&mut self, queues: &QueueSet) -> Option<usize> {
        queues.oldest()
    }
}

/// Cycles over non-empty queues.
#[derive(Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn next(&mut self, queues: &QueueSet) -> Option<usize> {
        let non_empty = queues.non_empty().count();
        if non_empty == 0 {
            return None;
        }
        let pick = queues.non_empty().nth(self.cursor % non_empty);
        self.cursor = self.cursor.wrapping_add(1);
        pick
    }
}

/// Chain-style scheduling driven by selectivity metadata.
///
/// The priority of an operator is `1 - selectivity` (tuple destruction per
/// processed tuple); the non-empty queue of the highest-priority operator
/// is served first, ties broken by arrival order. Selectivities are read
/// through live metadata subscriptions, so the scheduler reacts to
/// runtime drift — the adaptivity the paper motivates.
pub struct ChainScheduler {
    manager: std::sync::Arc<MetadataManager>,
    selectivities: HashMap<NodeId, Option<Subscription>>,
    kinds: HashMap<NodeId, bool>, // node -> is sink
}

impl ChainScheduler {
    /// A Chain scheduler bound to the graph's metadata manager.
    pub fn new(graph: &QueryGraph) -> Self {
        ChainScheduler {
            manager: graph.manager().clone(),
            selectivities: HashMap::new(),
            kinds: HashMap::new(),
        }
    }

    fn is_sink(&mut self, node: NodeId) -> bool {
        let manager = &self.manager;
        *self.kinds.entry(node).or_insert_with(|| {
            manager
                .subscribe(MetadataKey::new(node, "kind"))
                .ok()
                .map(|s| s.get().as_text() == Some("sink"))
                .unwrap_or(false)
        })
    }

    fn selectivity(&mut self, node: NodeId) -> f64 {
        let manager = &self.manager;
        let sub = self.selectivities.entry(node).or_insert_with(|| {
            manager
                .subscribe(MetadataKey::new(node, "selectivity"))
                .ok()
        });
        sub.as_ref()
            .and_then(|s| s.get_f64())
            .map_or(1.0, |s| s.clamp(0.0, 1.0))
    }

    /// The current priority of a node: sinks consume every tuple
    /// (priority 1); operators destroy `1 - selectivity` per tuple.
    pub fn priority(&mut self, node: NodeId) -> f64 {
        if self.is_sink(node) {
            return 1.0;
        }
        1.0 - self.selectivity(node)
    }
}

/// QoS-priority scheduling driven by query-level metadata.
///
/// Sinks carry the static `qos.priority` item (Section 1 lists QoS
/// specifications and scheduling priority as query-level metadata). The
/// scheduler serves the non-empty queue whose operator feeds the
/// highest-priority sink (transitively downstream), ties broken by
/// arrival order — so under overload, latency-critical queries overtake
/// best-effort ones.
pub struct QosScheduler {
    graph: std::sync::Arc<QueryGraph>,
    /// Priorities per node, valid while the graph is at `generation`.
    priorities: HashMap<NodeId, u64>,
    generation: u64,
}

impl QosScheduler {
    /// A QoS scheduler over `graph`.
    pub fn new(graph: std::sync::Arc<QueryGraph>) -> Self {
        QosScheduler {
            generation: graph.generation(),
            graph,
            priorities: HashMap::new(),
        }
    }

    /// Highest `qos.priority` among the sinks downstream of `node`
    /// (0 when none is declared). Cached per [`QueryGraph::generation`],
    /// so installing or removing a query refreshes every priority; the
    /// `qos.*` items are static, defined once right after their sink.
    pub fn priority(&mut self, node: NodeId) -> u64 {
        let generation = self.graph.generation();
        if generation != self.generation {
            self.priorities.clear();
            self.generation = generation;
        }
        if let Some(p) = self.priorities.get(&node) {
            return *p;
        }
        let manager = self.graph.manager().clone();
        let mut best = 0u64;
        let mut stack = vec![node];
        let mut seen = std::collections::HashSet::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Ok(sub) = manager.subscribe(MetadataKey::new(n, "qos.priority")) {
                best = best.max(sub.get().as_u64().unwrap_or(0));
            }
            if let Some(slot) = self.graph.get(n) {
                stack.extend(slot.downstream().into_iter().map(|(down, _)| down));
            }
        }
        self.priorities.insert(node, best);
        best
    }
}

impl Scheduler for QosScheduler {
    fn name(&self) -> &'static str {
        "qos"
    }

    fn next(&mut self, queues: &QueueSet) -> Option<usize> {
        let mut best: Option<(usize, u64, u64)> = None;
        for queue in queues.non_empty() {
            let prio = self.priority(queues.key(queue).0);
            let seq = queues.front_seq(queue).expect("non-empty");
            let better = match &best {
                None => true,
                Some((_, bp, bs)) => prio > *bp || (prio == *bp && seq < *bs),
            };
            if better {
                best = Some((queue, prio, seq));
            }
        }
        best.map(|(queue, _, _)| queue)
    }
}

impl Scheduler for ChainScheduler {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn next(&mut self, queues: &QueueSet) -> Option<usize> {
        let mut best: Option<(usize, f64, u64)> = None;
        for queue in queues.non_empty() {
            let prio = self.priority(queues.key(queue).0);
            let seq = queues.front_seq(queue).expect("non-empty");
            let better = match &best {
                None => true,
                Some((_, bp, bs)) => {
                    prio > *bp + 1e-12 || ((prio - bp).abs() <= 1e-12 && seq < *bs)
                }
            };
            if better {
                best = Some((queue, prio, seq));
            }
        }
        best.map(|(queue, _, _)| queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_streams::{tuple, Element, Value};
    use streammeta_time::Timestamp;

    fn elem() -> Element {
        Element::new(tuple([Value::Int(0)]), Timestamp(0))
    }

    #[test]
    fn fifo_serves_oldest_first() {
        let mut qs = QueueSet::new();
        qs.push((NodeId(2), 0), elem());
        qs.push((NodeId(1), 0), elem());
        let mut s = FifoScheduler;
        assert_eq!(s.next(&qs).map(|i| qs.key(i)), Some((NodeId(2), 0)));
        qs.pop((NodeId(2), 0));
        assert_eq!(s.next(&qs).map(|i| qs.key(i)), Some((NodeId(1), 0)));
        qs.pop((NodeId(1), 0));
        assert_eq!(s.next(&qs), None);
    }

    #[test]
    fn round_robin_cycles() {
        let mut qs = QueueSet::new();
        for _ in 0..2 {
            qs.push((NodeId(1), 0), elem());
            qs.push((NodeId(2), 0), elem());
        }
        let mut s = RoundRobinScheduler::default();
        let a = s.next(&qs).unwrap();
        qs.pop_at(a);
        let b = s.next(&qs).unwrap();
        assert_ne!(qs.key(a).0, qs.key(b).0, "alternates between queues");
    }
}
