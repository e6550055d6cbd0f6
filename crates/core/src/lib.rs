//! # streammeta-core — dynamic metadata management
//!
//! A publish-subscribe framework for the *dynamic provision and continuous
//! maintenance of metadata* in a scalable stream processing system (SSPS),
//! reproducing Cammert, Krämer & Seeger, *"Dynamic Metadata Management for
//! Scalable Stream Processing Systems"* (ICDE 2007).
//!
//! ## Concepts
//!
//! * **Metadata items** ([`ItemDef`]) are defined per query-graph node in a
//!   [`NodeRegistry`]; paths nest so exchangeable modules expose their own
//!   metadata (`state.left.memory_usage`).
//! * Consumers **subscribe** through the [`MetadataManager`]; the first
//!   subscription materialises a shared, reference-counted *handler*, and
//!   all (transitive) **dependencies** — intra-node, inter-node, or event
//!   sources — are included automatically. Unsubscription symmetrically
//!   excludes whatever is no longer needed. Only subscribed metadata is
//!   maintained: this *tailored provision* is the paper's scalability
//!   argument.
//! * Four **update mechanisms**: static, on-demand (computed on access),
//!   periodic (fixed time windows, driven by a
//!   [`streammeta_time::PeriodicRegistry`]), and triggered (recomputed when
//!   dependencies change or events fire, propagating along the inverted
//!   dependency graph in topological order).
//! * **Monitors** ([`Counter`], [`Gauge`]) are activatable probes on the
//!   hot processing path; inclusion hooks switch them on and off so unused
//!   metadata costs (almost) nothing.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use streammeta_core::{
//!     Counter, ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeRegistry, NodeId,
//!     WindowDelta,
//! };
//! use streammeta_time::{Clock, TimeSpan, VirtualClock};
//!
//! let clock = VirtualClock::shared();
//! let manager = MetadataManager::new(clock.clone());
//!
//! // A node counts its incoming elements (monitoring code)...
//! let node = NodeId(0);
//! let registry = NodeRegistry::new(node);
//! let arrivals = Counter::new();
//! let delta = Arc::new(WindowDelta::new(arrivals.clone()));
//! registry.define(
//!     ItemDef::periodic("input_rate", TimeSpan(10))
//!         .counter(&arrivals)
//!         .compute(move |ctx| match delta.rate_over(ctx.window().unwrap()) {
//!             Some(r) => MetadataValue::F64(r),
//!             None => MetadataValue::Unavailable,
//!         })
//!         .build(),
//! );
//! manager.attach_node(registry);
//!
//! // ...a consumer subscribes, which activates the counter.
//! let rate = manager.subscribe(MetadataKey::new(node, "input_rate")).unwrap();
//! assert!(arrivals.is_active());
//!
//! // One element per time unit for 10 units:
//! for _ in 0..10 {
//!     clock.advance(TimeSpan(1));
//!     arrivals.record();
//!     manager.periodic().advance_to(clock.now());
//! }
//! assert_eq!(rate.get_f64(), Some(1.0));
//! ```

#![warn(missing_docs)]

mod catalog;
mod error;
mod estimators;
mod fault;
mod handler;
mod histogram;
mod item;
mod key;
mod manager;
mod meta;
mod metrics;
mod monitor;
mod partition;
mod registry;
mod shards;
mod subscription;
pub mod sync;
mod trace;
mod value;

pub use catalog::{CatalogRow, ColumnType, RelationColumn, SystemRelation, CATALOG_NODE};
pub use error::{MetadataError, Result};
pub use estimators::{Ewma, IntervalRate, OnlineAverage, OnlineVariance, WindowDelta};
pub use fault::{DelayFn, FaultAction, FaultPlan, FaultSchedule};
pub use handler::HandlerStats;
pub use histogram::{HistogramMonitor, HistogramSnapshot};
pub use item::{
    Activatable, ComputeFn, DepSource, DepSpec, DepTarget, Dependency, EvalCtx, FallbackPolicy,
    HookFn, ItemDef, ItemDefBuilder, Mechanism, ResolveCtx, ResolvedDep,
};
pub use key::{EventKey, ItemPath, MetadataKey, NodeId};
pub use manager::{EpochConfig, MetadataManager, PropagationMode, ValidationPolicy, ValidatorFn};
pub use meta::META_NODE;
pub use metrics::{metrics_markdown, ManagerStats, Metric, MetricKind};
pub use monitor::{Counter, Gauge};
pub use partition::{PartitionedMetadataPlane, PlaneConfig};
pub use registry::{MetadataModule, NodeRegistry, RegistryScope};
pub use subscription::Subscription;
pub use sync::{lock_audit, LockEvent, LockTier};
pub use trace::{
    trace_markdown, Ring, RingBufferSink, RotatingFileSink, SpanContext, SpanKind, SpanRecord,
    SpanSampling, SpanStore, TeeSink, TraceEvent, TraceKind, TraceRecord, TraceSink,
};
pub use value::{MetadataValue, VersionedValue};
