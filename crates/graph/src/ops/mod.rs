//! Operator implementations.

pub mod aggregate;
pub mod count_window;
mod exact_sum;
mod expiry;
pub mod filter;
pub mod join;
pub mod map;
pub mod sink;
pub mod state;
pub mod union;
pub mod window;

pub use aggregate::{AggKind, WindowAggregate};
pub use count_window::CountWindowApprox;
pub use filter::{Cmp, Filter, FilterPredicate, SelectivityHandle};
pub use join::{JoinPredicate, SlidingWindowJoin};
pub use map::{MapFn, Project};
pub use sink::{CollectHandle, CollectSink, CountHandle, CountSink, DiscardSink};
pub use state::{
    HashState, JoinKey, JoinState, ListState, OrderedState, Probe, SharedJoinState, StateImpl,
    HASH_OP_OVERHEAD,
};
pub use union::Union;
pub use window::{TimeWindow, WindowHandle};
