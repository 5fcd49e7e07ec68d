//! The engine's event vocabulary.

use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::server::Transport;
use std::sync::Arc;

/// One scheduled occurrence inside a session's own queue.
///
/// Events carry no session index: every session runs to completion on
/// a queue of its own ([`crate::engine::SessionEngine`]), so an event
/// always belongs to the session whose queue holds it.
///
/// DNS datagrams ride as `Arc<[u8]>`: a datagram that fans out (a
/// duplicate) clones a pointer, not the payload, and the bytes a session
/// encodes are the bytes every hop observes. An SMTP segment never fans
/// out, so it rides as the `String` it was written into, owned by the
/// event; the engine takes those buffers back once they are read (see
/// [`crate::engine::SessionEngine`]).
pub enum Ev {
    /// TCP established: the MTA emits its greeting.
    Start,
    /// Client bytes arriving at the MTA.
    ToMta(String),
    /// MTA reply text arriving at the probe client.
    ToClient(String),
    /// The probe client's inter-command pause elapsed.
    ClientPauseDone,
    /// An MTA-armed timer fired.
    MtaTimer(u64),
    /// Resolver datagram arriving at the authoritative server.
    DnsArrive(u16, Arc<[u8]>, Transport, bool),
    /// Server response arriving back at the resolver.
    DnsReturn(u16, Arc<[u8]>, bool),
    /// Resolver attempt timeout.
    DnsTimeout(u16, bool),
    /// Resolver finished a lookup for the MTA.
    MtaDns(u64, ResolveOutcome),
    /// The MTA-side close reached the client (server-initiated
    /// disconnect, e.g. an SMTP `ReplyAndClose`).
    ServerClosed,
    /// An injected connection reset reached both ends: the in-flight
    /// segment is lost and the session is torn down.
    ConnReset,
}

impl Ev {
    /// Payload bytes this event keeps alive while queued (a segment's
    /// text, a datagram's bytes) — the unit the engine's
    /// [`crate::engine::MemoryBudget`] accounts in.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Ev::ToMta(s) | Ev::ToClient(s) => s.len() as u64,
            Ev::DnsArrive(_, b, _, _) | Ev::DnsReturn(_, b, _) => b.len() as u64,
            _ => 0,
        }
    }
}
