//! The session-engine layer: per-shard drivers that run independent
//! sessions one at a time.
//!
//! * [`Ev`] — the event vocabulary on a session's queue;
//! * [`LiveSession`] / [`SessionRecord`] — one probe↔MTA connection
//!   with its own event queue, and its durable output;
//! * [`SessionEngine`] — the driver: runs each session of a shard to
//!   completion on that session's queue, borrows the shared
//!   authoritative server, and returns one journal frame per session
//!   ([`EngineOutput`]).
//!
//! Sessions never exchange events, so a campaign deals them round-robin
//! to shards and runs one engine per shard on its own thread; the
//! campaign merge puts every shard's frames into canonical order.

mod driver;
mod event;
mod session;

pub use driver::{
    EngineConfig, EngineOutput, EngineStats, MemoryBudget, SessionBudget, SessionEngine,
};
pub use event::Ev;
pub use session::{LiveSession, SessionOutcome, SessionRecord};
