//! Identifiers for nodes, metadata items and events.
//!
//! Metadata items are assigned to query-graph nodes (Section 2.2 of the
//! paper): a [`MetadataKey`] is the pair of the owning [`NodeId`] and the
//! item's [`ItemPath`] within that node. Paths are dot-separated so that
//! metadata of *exchangeable modules* (Section 4.5) nests naturally —
//! `state.left.memory_usage` lives in the left state module of a join.

use std::fmt;
use std::sync::Arc;

/// Identifier of a query-graph node (source, operator, or sink).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Dot-separated path of a metadata item within a node.
///
/// Cheap to clone (`Arc<str>` inside). The segments before the final one
/// name nested modules.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemPath(Arc<str>);

impl ItemPath {
    /// A path from a dot-separated string. Must be non-empty.
    pub fn new(path: impl AsRef<str>) -> Self {
        let p = path.as_ref();
        assert!(!p.is_empty(), "empty metadata item path");
        ItemPath(Arc::from(p))
    }

    /// The full dot-separated path.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared string behind the path, for consumers that keep it.
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0
    }

    /// `self` prefixed with a module name: `prefix.self`.
    pub fn scoped(&self, prefix: &str) -> ItemPath {
        if prefix.is_empty() {
            self.clone()
        } else {
            ItemPath(Arc::from(format!("{prefix}.{}", self.0)))
        }
    }

    /// Whether this item lives inside the module named by `prefix`.
    pub fn in_module(&self, prefix: &str) -> bool {
        self.0
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('.'))
    }

    /// The final path segment (the item's own name).
    pub fn leaf(&self) -> &str {
        self.0.rsplit('.').next().unwrap_or(&self.0)
    }
}

impl From<&str> for ItemPath {
    fn from(s: &str) -> Self {
        ItemPath::new(s)
    }
}

impl From<String> for ItemPath {
    fn from(s: String) -> Self {
        ItemPath::new(s)
    }
}

impl fmt::Debug for ItemPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for ItemPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.0)
    }
}

/// Global identifier of one metadata item: node plus path.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetadataKey {
    /// The node the item is assigned to.
    pub node: NodeId,
    /// The item's path within the node.
    pub item: ItemPath,
}

impl MetadataKey {
    /// Builds a key.
    pub fn new(node: NodeId, item: impl Into<ItemPath>) -> Self {
        MetadataKey {
            node,
            item: item.into(),
        }
    }
}

impl fmt::Debug for MetadataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.item)
    }
}

impl fmt::Display for MetadataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&format!("{}/{}", self.node, self.item))
    }
}

/// Identifier of a manually fired event notification (Section 3.2.3):
/// a named event at a node, e.g. `window_size_changed`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// The node the event belongs to.
    pub node: NodeId,
    /// The event's name.
    pub name: ItemPath,
}

impl EventKey {
    /// Builds an event key.
    pub fn new(node: NodeId, name: impl Into<ItemPath>) -> Self {
        EventKey {
            node,
            name: name.into(),
        }
    }
}

impl fmt::Debug for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}!{}", self.node, self.name)
    }
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}!{}", self.node, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_path_basics() {
        let p = ItemPath::new("state.left.memory_usage");
        assert_eq!(p.as_str(), "state.left.memory_usage");
        assert_eq!(p.leaf(), "memory_usage");
        assert!(p.in_module("state"));
        assert!(p.in_module("state.left"));
        assert!(!p.in_module("stat"));
        assert!(!p.in_module("state.left.memory_usage"));
    }

    #[test]
    fn item_path_scoping() {
        let p = ItemPath::new("memory_usage").scoped("state").scoped("");
        assert_eq!(p.as_str(), "state.memory_usage");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_path_rejected() {
        ItemPath::new("");
    }

    #[test]
    fn key_display() {
        let k = MetadataKey::new(NodeId(3), "input_rate");
        assert_eq!(k.to_string(), "n3/input_rate");
        let e = EventKey::new(NodeId(3), "window_size_changed");
        assert_eq!(e.to_string(), "n3!window_size_changed");
    }

    #[test]
    fn keys_hash_and_compare() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(MetadataKey::new(NodeId(1), "a"));
        s.insert(MetadataKey::new(NodeId(1), "a"));
        s.insert(MetadataKey::new(NodeId(2), "a"));
        s.insert(MetadataKey::new(NodeId(1), "b"));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn leaf_of_flat_path_is_itself() {
        assert_eq!(ItemPath::new("selectivity").leaf(), "selectivity");
    }
}
