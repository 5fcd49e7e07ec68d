//! # mailval-dns
//!
//! A from-scratch DNS implementation: names, resource records, the full
//! wire codec (RFC 1035 §4, including name compression), message
//! construction, zone storage, an authoritative-server core, and a
//! caching stub-resolver core.
//!
//! Everything is **sans-IO** (the smoltcp design philosophy): the server
//! core maps request bytes to response bytes plus scheduling metadata, and
//! the resolver core is a state machine that emits transport actions and is
//! fed response bytes. The same cores run unmodified under the
//! discrete-event simulator (`mailval-simnet`) and behind real UDP/TCP
//! sockets (`examples/live_loopback.rs`).
//!
//! A [`Name`] is one shared, immutable allocation of its lowercase
//! dotted text, so cloning one into a query log, a cache key or a zone
//! bumps a reference count instead of copying labels.
//!
//! The paper's measurement apparatus (see `mailval-measure`) plugs in a
//! custom [`server::Authority`] that *synthesizes* SPF policy responses
//! from the query name instead of serving a 27.8M-record zone — the
//! scalability technique of §4.5 of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod message;
pub mod name;
pub mod resolver;
pub mod rr;
pub mod server;
pub mod wire;
pub mod zone;

pub use message::{truncate_response, Message, Question};
pub use name::{Name, NameError};
pub use rr::{RData, Record, RecordClass, RecordType};
pub use wire::{Rcode, WireError};
