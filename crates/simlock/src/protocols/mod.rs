//! Simulated-machine models of the post-seed protocols.
//!
//! Each submodule re-encodes one hand-rolled concurrency protocol from the
//! workspace's post-seed layers as a [`ProtocolSim`](crate::ProtocolSim)
//! state machine, with named invariants and deliberately-injected bug
//! variants for negative testing. The `hemlock-model` crate explores these
//! exhaustively at small scope; `docs/ARCHITECTURE.md` ("Model checking
//! the post-seed protocols") tabulates the scenarios.
//!
//! | module | real code | scenario name |
//! |---|---|---|
//! | [`wakerset`] | `hemlock-core::wakerset` Dekker pair | `wakerset-dekker` |
//! | [`wakerqueue`] | `hemlock-async::queue` grant/cancel | `wakerqueue` |
//! | [`twoshard`] | `hemlock-shard::table::with_two` | `with-two-ordered` |
//! | [`rw`] | `hemlock-locks::rw::HemlockRw` drain/withdrawal | `hemlock-rw` |
//! | [`fc`] | `hemlock-shard::batch` record lifecycle | `flat-combining` |

pub mod fc;
pub mod rw;
pub mod twoshard;
pub mod wakerqueue;
pub mod wakerset;

pub use fc::{FcBug, FcRole, FcSim, FcThread};
pub use rw::{RwBug, RwRole, RwSim, RwThread};
pub use twoshard::{ShardThread, TwoShardBug, TwoShardOp, TwoShardSim};
pub use wakerqueue::{QueueBug, QueueRole, QueueThread, WakerQueueSim};
pub use wakerset::{DekkerBug, DekkerSim, DekkerThread};
