//! Exchangeable join state modules (Section 4.5 of the paper).
//!
//! "Due to the generic design of PIPES, many operators depend on
//! exchangeable modules, e.g., the join operator can be based on different
//! data structures to store its state (lists, hash tables, etc.). Metadata
//! items can also depend on properties of these modules."
//!
//! A [`JoinState`] stores the valid elements of one join input. Three
//! implementations are provided — an unordered list ([`ListState`]), a
//! hash table over an integer join key ([`HashState`]) and an ordered
//! B-tree over a numeric key ([`OrderedState`], serving the range probes
//! of band joins) — and each exposes its own metadata (`impl`, `size`,
//! `memory_usage`) through [`MetadataModule`], which the owning join
//! installs under a module scope (`state.left.memory_usage`, …).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use streammeta_core::{ItemDef, MetadataModule, MetadataValue, RegistryScope};
use streammeta_streams::Element;
use streammeta_time::Timestamp;

use crate::ops::expiry::ExpiryDeque;

/// Nominal extra work units a hash state spends per insert or probe
/// (hashing cost). This is what makes list vs. hash a genuine trade-off:
/// hash states prune candidates but pay a constant per operation.
pub const HASH_OP_OVERHEAD: u64 = 1;

/// The storage key of an element, derived from the join predicate.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum JoinKey {
    /// No key (cross products, custom predicates).
    None,
    /// Integer equality key.
    Int(i64),
    /// Numeric key for range predicates.
    Float(f64),
}

impl JoinKey {
    fn as_float(self) -> Option<f64> {
        match self {
            JoinKey::Int(v) => Some(v as f64),
            JoinKey::Float(v) => Some(v),
            JoinKey::None => None,
        }
    }
}

/// A candidate probe against a state.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Probe {
    /// Every stored element is a candidate.
    All,
    /// Elements with this integer key.
    Key(i64),
    /// Elements whose numeric key lies in `[lo, hi]`.
    Range {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

/// Total order over `f64` bits (standard sign-flip trick), used by the
/// ordered state's B-tree and the MIN/MAX aggregates.
pub(crate) fn float_ord(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The inverse of [`float_ord`].
pub(crate) fn float_from_ord(ord: u64) -> f64 {
    f64::from_bits(if ord >> 63 == 1 {
        ord & !(1 << 63)
    } else {
        !ord
    })
}

/// Storage for the valid elements of one join input.
pub trait JoinState: Send {
    /// Inserts an element; `key` is its join-key projection, if the
    /// predicate has one.
    fn insert(&mut self, key: JoinKey, element: Element);

    /// Removes all elements whose validity ended at or before `now`.
    /// Returns how many were removed.
    fn purge_expired(&mut self, now: Timestamp) -> usize;

    /// Calls `f` for every candidate of `probe`. Implementations may
    /// over-approximate (return extra candidates — the join re-checks the
    /// predicate) but must never omit a matching element.
    fn for_candidates(&self, probe: Probe, f: &mut dyn FnMut(&Element));

    /// Number of stored elements.
    fn len(&self) -> usize;

    /// Whether the state is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes.
    fn bytes(&self) -> usize;

    /// Implementation label (static module metadata).
    fn impl_name(&self) -> &'static str;

    /// Extra work units per insert/probe operation (hashing cost).
    fn op_overhead(&self) -> u64 {
        0
    }
}

/// What every state implementation keeps about its stored elements: the
/// totals the metadata items report, and the `(expiry, bucket)` of each
/// element, so [`JoinState::purge_expired`] visits only the buckets that
/// hold an expired element.
struct Stored<B> {
    len: usize,
    bytes: usize,
    expiries: ExpiryDeque<B>,
    /// Scratch for the buckets one purge visits.
    due: Vec<B>,
}

impl<B> Default for Stored<B> {
    fn default() -> Self {
        Stored {
            len: 0,
            bytes: 0,
            expiries: ExpiryDeque::default(),
            due: Vec::new(),
        }
    }
}

impl<B: Copy + Ord> Stored<B> {
    fn insert(&mut self, bucket: B, element: &Element) {
        self.len += 1;
        self.bytes += element.size_bytes();
        self.expiries.push(element.expiry, bucket);
    }

    /// Purges at `now`; returns how many elements left, one per due
    /// entry. `purge_bucket` drops a bucket's expired elements and returns
    /// their bytes ([`drop_expired`]); it is called once per bucket that
    /// holds one.
    fn purge(&mut self, now: Timestamp, mut purge_bucket: impl FnMut(B) -> usize) -> usize {
        while let Some(bucket) = self.expiries.pop_due(now) {
            self.due.push(bucket);
        }
        let expired = self.due.len();
        if expired == 0 {
            return 0;
        }
        self.due.sort_unstable();
        self.due.dedup();
        for &bucket in &self.due {
            self.bytes -= purge_bucket(bucket);
        }
        self.due.clear();
        self.len -= expired;
        expired
    }
}

/// Drops the elements of `bucket` whose validity ended at `now`; returns
/// their bytes.
fn drop_expired(bucket: &mut Vec<Element>, now: Timestamp) -> usize {
    let mut bytes = 0;
    bucket.retain(|e| {
        let keep = e.is_valid_at(now);
        if !keep {
            bytes += e.size_bytes();
        }
        keep
    });
    bytes
}

/// Unordered list state: inserts are O(1), probes scan everything.
#[derive(Default)]
pub struct ListState {
    elements: Vec<Element>,
    /// One bucket: the whole list.
    stored: Stored<()>,
}

impl ListState {
    /// An empty list state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl JoinState for ListState {
    fn insert(&mut self, _key: JoinKey, element: Element) {
        self.stored.insert((), &element);
        self.elements.push(element);
    }

    fn purge_expired(&mut self, now: Timestamp) -> usize {
        let elements = &mut self.elements;
        self.stored.purge(now, |()| drop_expired(elements, now))
    }

    fn for_candidates(&self, _probe: Probe, f: &mut dyn FnMut(&Element)) {
        for e in &self.elements {
            f(e);
        }
    }

    fn len(&self) -> usize {
        self.stored.len
    }

    fn bytes(&self) -> usize {
        self.stored.bytes
    }

    fn impl_name(&self) -> &'static str {
        "list"
    }
}

/// Hash state over the join key: probes touch only the matching bucket.
/// Falls back to a full scan for keyless probes.
#[derive(Default)]
pub struct HashState {
    buckets: HashMap<i64, Vec<Element>>,
    stored: Stored<i64>,
}

impl HashState {
    /// An empty hash state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl JoinState for HashState {
    fn insert(&mut self, key: JoinKey, element: Element) {
        // The join only selects hash states for equi-predicates, so every
        // element carries an integer key.
        let JoinKey::Int(key) = key else {
            panic!("hash state requires an equi-join key");
        };
        self.stored.insert(key, &element);
        self.buckets.entry(key).or_default().push(element);
    }

    fn purge_expired(&mut self, now: Timestamp) -> usize {
        let buckets = &mut self.buckets;
        self.stored.purge(now, |key| {
            let Some(bucket) = buckets.get_mut(&key) else {
                return 0;
            };
            let dropped = drop_expired(bucket, now);
            if bucket.is_empty() {
                buckets.remove(&key);
            }
            dropped
        })
    }

    fn for_candidates(&self, probe: Probe, f: &mut dyn FnMut(&Element)) {
        match probe {
            Probe::Key(k) => {
                if let Some(bucket) = self.buckets.get(&k) {
                    for e in bucket {
                        f(e);
                    }
                }
            }
            // Range probes over integer buckets and keyless probes fall
            // back to a full scan (over-approximation is allowed).
            Probe::All | Probe::Range { .. } => {
                for bucket in self.buckets.values() {
                    for e in bucket {
                        f(e);
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.stored.len
    }

    fn bytes(&self) -> usize {
        self.stored.bytes
    }

    fn impl_name(&self) -> &'static str {
        "hash"
    }

    fn op_overhead(&self) -> u64 {
        HASH_OP_OVERHEAD
    }
}

/// Ordered state over a numeric key: range probes touch only the
/// matching key interval — the indexed implementation for band joins
/// (`|a - b| <= eps`).
#[derive(Default)]
pub struct OrderedState {
    tree: BTreeMap<u64, Vec<Element>>,
    stored: Stored<u64>,
}

impl OrderedState {
    /// An empty ordered state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl JoinState for OrderedState {
    fn insert(&mut self, key: JoinKey, element: Element) {
        let Some(k) = key.as_float() else {
            panic!("ordered state requires a numeric join key");
        };
        let key = float_ord(k);
        self.stored.insert(key, &element);
        self.tree.entry(key).or_default().push(element);
    }

    fn purge_expired(&mut self, now: Timestamp) -> usize {
        let buckets = &mut self.tree;
        self.stored.purge(now, |key| {
            let Some(bucket) = buckets.get_mut(&key) else {
                return 0;
            };
            let dropped = drop_expired(bucket, now);
            if bucket.is_empty() {
                buckets.remove(&key);
            }
            dropped
        })
    }

    fn for_candidates(&self, probe: Probe, f: &mut dyn FnMut(&Element)) {
        match probe {
            Probe::Range { lo, hi } => {
                for bucket in self
                    .tree
                    .range(float_ord(lo)..=float_ord(hi))
                    .map(|(_, b)| b)
                {
                    for e in bucket {
                        f(e);
                    }
                }
            }
            Probe::Key(k) => {
                let o = float_ord(k as f64);
                if let Some(bucket) = self.tree.get(&o) {
                    for e in bucket {
                        f(e);
                    }
                }
            }
            Probe::All => {
                for bucket in self.tree.values() {
                    for e in bucket {
                        f(e);
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.stored.len
    }

    fn bytes(&self) -> usize {
        self.stored.bytes
    }

    fn impl_name(&self) -> &'static str {
        "ordered"
    }

    fn op_overhead(&self) -> u64 {
        // B-tree navigation cost per insert/probe, comparable to hashing.
        HASH_OP_OVERHEAD
    }
}

/// Which state implementation a join uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateImpl {
    /// [`ListState`] — works with any predicate.
    List,
    /// [`HashState`] — requires an equi-join predicate.
    Hash,
    /// [`OrderedState`] — requires a numeric (equi or band) predicate.
    Ordered,
}

impl StateImpl {
    /// Instantiates the state.
    pub fn build(self) -> Box<dyn JoinState> {
        match self {
            StateImpl::List => Box::new(ListState::new()),
            StateImpl::Hash => Box::new(HashState::new()),
            StateImpl::Ordered => Box::new(OrderedState::new()),
        }
    }
}

/// A join-state handle shared between the join behavior (mutation) and the
/// metadata compute functions (inspection).
#[derive(Clone)]
pub struct SharedJoinState {
    inner: Arc<Mutex<Box<dyn JoinState>>>,
}

impl SharedJoinState {
    /// Wraps a state implementation.
    pub fn new(state: Box<dyn JoinState>) -> Self {
        SharedJoinState {
            inner: Arc::new(Mutex::new(state)),
        }
    }

    /// Locks the state for processing.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, Box<dyn JoinState>> {
        self.inner.lock()
    }

    /// Replaces the implementation at runtime, migrating all stored
    /// elements into the new structure (`keyer` recomputes each element's
    /// join key). This is the "exchangeable module" swap of Section 4.5:
    /// the module's metadata items keep working because they read through
    /// this shared handle.
    pub fn replace(&self, new_impl: StateImpl, keyer: &dyn Fn(&Element) -> JoinKey) {
        let mut guard = self.inner.lock();
        let mut elements = Vec::with_capacity(guard.len());
        guard.for_candidates(Probe::All, &mut |e| elements.push(e.clone()));
        let mut fresh = new_impl.build();
        for e in elements {
            let key = keyer(&e);
            fresh.insert(key, e);
        }
        *guard = fresh;
    }

    /// Current number of stored elements.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current approximate byte size.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes()
    }

    /// The implementation label.
    pub fn impl_name(&self) -> &'static str {
        self.inner.lock().impl_name()
    }
}

impl MetadataModule for SharedJoinState {
    fn register_metadata(&self, scope: &RegistryScope<'_>) {
        // On-demand rather than static: the implementation can be
        // exchanged at runtime (plan adaptation), and the item must
        // always report the current one.
        let s = self.clone();
        scope.define(
            ItemDef::on_demand("impl")
                .doc("current state implementation")
                .compute(move |_| MetadataValue::text(s.impl_name()))
                .build(),
        );
        let s = self.clone();
        scope.define(
            ItemDef::on_demand("size")
                .doc("number of stored elements")
                .compute(move |_| MetadataValue::U64(s.len() as u64))
                .build(),
        );
        let s = self.clone();
        scope.define(
            ItemDef::on_demand("memory_usage")
                .doc("approximate state bytes")
                .compute(move |_| MetadataValue::U64(s.bytes() as u64))
                .build(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_streams::{tuple, Value};
    use streammeta_time::TimeSpan;

    fn elem(ts: u64, window: u64, key: i64) -> Element {
        Element::new(tuple([Value::Int(key)]), Timestamp(ts)).with_window(TimeSpan(window))
    }

    fn count_candidates(s: &dyn JoinState, probe: Probe) -> usize {
        let mut n = 0;
        s.for_candidates(probe, &mut |_| n += 1);
        n
    }

    #[test]
    fn list_state_scan_and_purge() {
        let mut s = ListState::new();
        s.insert(JoinKey::Int(1), elem(0, 10, 1));
        s.insert(JoinKey::Int(2), elem(5, 10, 2));
        assert_eq!(s.len(), 2);
        assert!(s.bytes() > 0);
        // List scans everything regardless of key.
        assert_eq!(count_candidates(&s, Probe::Key(1)), 2);
        assert_eq!(s.purge_expired(Timestamp(10)), 1); // first expires at 10
        assert_eq!(s.len(), 1);
        assert_eq!(s.purge_expired(Timestamp(100)), 1);
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn hash_state_probes_only_bucket() {
        let mut s = HashState::new();
        for k in [1, 1, 2, 3] {
            s.insert(JoinKey::Int(k), elem(0, 100, k));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(count_candidates(&s, Probe::Key(1)), 2);
        assert_eq!(count_candidates(&s, Probe::Key(9)), 0);
        assert_eq!(count_candidates(&s, Probe::All), 4);
        assert_eq!(s.purge_expired(Timestamp(100)), 4);
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "equi-join key")]
    fn hash_state_requires_key() {
        let mut s = HashState::new();
        s.insert(JoinKey::None, elem(0, 10, 1));
    }

    #[test]
    fn ordered_state_range_probes() {
        let mut s = OrderedState::new();
        for k in [-5i64, -1, 0, 3, 7, 12] {
            s.insert(JoinKey::Float(k as f64), elem(0, 100, k));
        }
        assert_eq!(s.len(), 6);
        // [-1.5, 3.5] covers -1, 0, 3.
        assert_eq!(count_candidates(&s, Probe::Range { lo: -1.5, hi: 3.5 }), 3);
        // Exact key probe.
        assert_eq!(count_candidates(&s, Probe::Key(7)), 1);
        assert_eq!(count_candidates(&s, Probe::All), 6);
        assert_eq!(s.purge_expired(Timestamp(100)), 6);
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "numeric join key")]
    fn ordered_state_requires_numeric_key() {
        let mut s = OrderedState::new();
        s.insert(JoinKey::None, elem(0, 10, 1));
    }

    #[test]
    fn float_order_is_total() {
        let vals = [-10.5, -0.0, 0.0, 0.25, 3.0, 1e9];
        for w in vals.windows(2) {
            assert!(float_ord(w[0]) <= float_ord(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in vals.into_iter().chain([f64::NEG_INFINITY, f64::MAX]) {
            assert_eq!(float_from_ord(float_ord(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn shared_state_module_metadata() {
        use streammeta_core::{ItemPath, NodeId, NodeRegistry};
        let shared = SharedJoinState::new(StateImpl::Hash.build());
        shared.lock().insert(JoinKey::Int(7), elem(0, 50, 7));
        let reg = NodeRegistry::new(NodeId(0));
        reg.scope("state.left").install(&shared);
        assert!(reg.contains(&ItemPath::new("state.left.impl")));
        assert!(reg.contains(&ItemPath::new("state.left.size")));
        assert!(reg.contains(&ItemPath::new("state.left.memory_usage")));
    }

    #[test]
    fn state_impl_builders() {
        assert_eq!(StateImpl::List.build().impl_name(), "list");
        assert_eq!(StateImpl::Hash.build().impl_name(), "hash");
        assert_eq!(StateImpl::Ordered.build().impl_name(), "ordered");
    }
}
