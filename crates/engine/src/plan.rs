//! The compiled element path, shared by both executors.
//!
//! What an element's way through the graph depends on — which node
//! consumes a queue, on which port, and which queues its outputs go to —
//! is compiled into a [`Plan`] once per topology change
//! ([`QueryGraph::generation`]), so the per-element path is indexed
//! accesses from there on. [`crate::VirtualEngine`] keeps its plan beside
//! its [`QueueSet`]; the threaded executor hands an `Arc<Plan>` to its
//! workers with every work item.

use std::collections::BTreeMap;
use std::sync::Arc;

use streammeta_core::NodeId;
use streammeta_graph::{NodeKind, NodeSlot, QueryGraph};
use streammeta_streams::Element;

use crate::queues::{QueueKey, QueueSet};

/// A node with the queues its output fans out to, as [`QueueSet`]
/// indices in wiring order.
pub(crate) struct Stage {
    pub(crate) slot: Arc<NodeSlot>,
    /// The input port the stage's queue feeds (0 for a source).
    pub(crate) port: usize,
    pub(crate) downstream: Vec<usize>,
}

/// The element path of one graph generation.
#[derive(Default)]
pub(crate) struct Plan {
    /// The [`QueryGraph::generation`] the plan was compiled at (`None`
    /// before the first compile).
    pub(crate) generation: Option<u64>,
    /// The sources, in node-id order.
    pub(crate) sources: Vec<Stage>,
    /// The consumer of every queue, indexed like the [`QueueSet`].
    pub(crate) consumers: Vec<Stage>,
}

impl Plan {
    /// Compiles the plan of `graph` as it is now, registering a queue per
    /// wired edge and discarding the queues (and queued elements) of
    /// consumers that are gone.
    pub(crate) fn compile(graph: &QueryGraph, queues: &mut QueueSet) -> Plan {
        // Read first: a change racing with the compilation leaves a
        // generation that is already behind, and the next check recompiles.
        let generation = graph.generation();
        let slots: BTreeMap<NodeId, Arc<NodeSlot>> = graph
            .nodes()
            .into_iter()
            .filter_map(|id| Some((id, graph.get(id)?)))
            .collect();
        // An edge whose consumer is not in `slots` belongs to a node
        // being inserted right now; the generation moves when it is.
        let edges = |slot: &NodeSlot| -> Vec<QueueKey> {
            let mut edges = slot.downstream();
            edges.retain(|(node, _)| slots.contains_key(node));
            edges
        };
        queues.retain(|(node, _)| slots.contains_key(&node));
        for slot in slots.values() {
            for edge in edges(slot) {
                queues.ensure(edge);
            }
        }
        let stage = |slot: &Arc<NodeSlot>, port: usize| Stage {
            slot: slot.clone(),
            port,
            downstream: edges(slot)
                .into_iter()
                .map(|edge| queues.index_of(edge).expect("registered above"))
                .collect(),
        };
        Plan {
            generation: Some(generation),
            sources: slots
                .values()
                .filter(|slot| slot.kind == NodeKind::Source)
                .map(|slot| stage(slot, 0))
                .collect(),
            consumers: queues
                .keys()
                .map(|(node, port)| stage(&slots[&node], port))
                .collect(),
        }
    }

    /// Moves `elements` to `push(queue, element)` for every queue
    /// downstream of `from`, in element then wiring order: a clone per
    /// edge but the last, which gets the element itself.
    pub(crate) fn fan_out(
        from: &Stage,
        elements: &mut Vec<Element>,
        mut push: impl FnMut(usize, Element),
    ) {
        let Some((&last, rest)) = from.downstream.split_last() else {
            elements.clear();
            return;
        };
        for e in elements.drain(..) {
            for &queue in rest {
                push(queue, e.clone());
            }
            push(last, e);
        }
    }
}
