//! Sans-IO caching resolver core.
//!
//! This models the *recursive resolver an MTA uses* (Figure 1 of the
//! paper: validator → recursive resolver → authoritative server). The
//! core is a state machine: [`ResolverCore::begin`] either answers from
//! cache or emits an upstream query; transport delivery is the caller's
//! job; responses and timeouts are fed back with
//! [`ResolverCore::on_response`] / [`ResolverCore::on_timeout`].
//!
//! Behavior knobs exercised by the paper's test policies:
//! * **TCP fallback** — on a truncated (TC=1) UDP response a capable
//!   resolver retries over TCP (§7.3: 1334 of 1336 resolvers did).
//! * **Caching** — positive and negative caching with TTLs.
//! * **Retries/timeout** — a bounded number of UDP retries before the
//!   lookup fails with a timeout outcome.

use crate::message::Message;
use crate::name::Name;
use crate::rr::{Record, RecordType};
use crate::server::Transport;
use crate::wire::{Rcode, WireError};
use std::collections::HashMap;

/// Final outcome of one lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveOutcome {
    /// NOERROR with records (possibly after CNAME chasing by the server).
    Records(Vec<Record>),
    /// NOERROR with an empty answer section (NODATA). RFC 7208 calls this
    /// (together with NXDOMAIN) a "void lookup" when triggered by SPF.
    NoData,
    /// The name does not exist.
    NxDomain,
    /// No response after all retries (or no route to the server).
    Timeout,
    /// SERVFAIL/REFUSED/FORMERR from upstream.
    ServFail,
}

impl ResolveOutcome {
    /// RFC 7208 §4.6.4 "void lookup": a query that yields no usable data.
    pub fn is_void(&self) -> bool {
        matches!(self, ResolveOutcome::NoData | ResolveOutcome::NxDomain)
    }
}

/// Resolver configuration.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Retry over TCP when a UDP response is truncated.
    pub tcp_capable: bool,
    /// Serve repeated queries from cache.
    pub cache_enabled: bool,
    /// UDP retransmissions before giving up (total attempts = retries+1).
    pub max_retries: u8,
    /// Per-attempt timeout, milliseconds.
    pub attempt_timeout_ms: u64,
    /// TTL used for negative cache entries, milliseconds.
    pub negative_ttl_ms: u64,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            tcp_capable: true,
            cache_enabled: true,
            max_retries: 1,
            attempt_timeout_ms: 3000,
            negative_ttl_ms: 60_000,
        }
    }
}

/// What the caller must do next after starting a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Begin {
    /// Answered from cache; no traffic needed.
    Cached(ResolveOutcome),
    /// Send these bytes upstream and arm a timeout.
    Send(Outgoing),
}

/// An upstream query to transmit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Lookup handle (equals the DNS message id).
    pub id: u16,
    /// Encoded query.
    pub bytes: Vec<u8>,
    /// Transport to use.
    pub transport: Transport,
    /// Arm a timeout for this many milliseconds.
    pub timeout_ms: u64,
}

/// Result of feeding a response or timeout into the core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// The lookup finished.
    Done(ResolveOutcome),
    /// Keep going: transmit this follow-up (TCP fallback or UDP retry).
    Continue(Outgoing),
    /// The id was unknown (stale/duplicate response); ignore.
    Ignored,
}

#[derive(Debug, Clone)]
struct Pending {
    name: Name,
    rtype: RecordType,
    retries_left: u8,
    over_tcp: bool,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    outcome: ResolveOutcome,
    expires_at_ms: u64,
}

/// The resolver state machine. One instance per simulated resolver.
pub struct ResolverCore {
    config: ResolverConfig,
    cache: HashMap<(Name, RecordType), CacheEntry>,
    pending: HashMap<u16, Pending>,
    next_id: u16,
    /// Count of upstream queries emitted (diagnostics).
    pub upstream_queries: u64,
    /// Wire-decode failures observed on upstream responses, in arrival
    /// order. Each failed decode fails the lookup closed (SERVFAIL);
    /// the embedder drains this with [`ResolverCore::take_wire_errors`]
    /// to classify the hostile input it just survived.
    wire_errors: Vec<WireError>,
}

impl ResolverCore {
    /// Create with the given configuration.
    pub fn new(config: ResolverConfig) -> Self {
        ResolverCore {
            config,
            cache: HashMap::new(),
            pending: HashMap::new(),
            next_id: 1,
            upstream_queries: 0,
            wire_errors: Vec::new(),
        }
    }

    /// Drain the wire-decode failures recorded since the last call.
    pub fn take_wire_errors(&mut self) -> Vec<WireError> {
        std::mem::take(&mut self.wire_errors)
    }

    /// The configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    fn alloc_id(&mut self) -> u16 {
        // Linear probe around a counter; ids must be unique among pending.
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if id != 0 && !self.pending.contains_key(&id) {
                return id;
            }
        }
    }

    /// Start a lookup at virtual time `now_ms`.
    pub fn begin(&mut self, name: Name, rtype: RecordType, now_ms: u64) -> Begin {
        if self.config.cache_enabled {
            if let Some(entry) = self.cache.get(&(name.clone(), rtype)) {
                if entry.expires_at_ms > now_ms {
                    return Begin::Cached(entry.outcome.clone());
                }
            }
        }
        let id = self.alloc_id();
        let query = Message::query(id, name.clone(), rtype);
        self.pending.insert(
            id,
            Pending {
                name,
                rtype,
                retries_left: self.config.max_retries,
                over_tcp: false,
            },
        );
        self.upstream_queries += 1;
        Begin::Send(Outgoing {
            id,
            bytes: query.to_bytes(),
            transport: Transport::Udp,
            timeout_ms: self.config.attempt_timeout_ms,
        })
    }

    /// Feed an upstream response for lookup `id`.
    pub fn on_response(&mut self, id: u16, bytes: &[u8], now_ms: u64) -> Step {
        let Some(pending) = self.pending.get(&id) else {
            return Step::Ignored;
        };
        let msg = match Message::from_bytes(bytes) {
            Ok(m) if m.is_response && m.id == id => m,
            decoded => {
                // Garbled or mismatched: fail the lookup closed (treat
                // like SERVFAIL from upstream). Undecodable bytes are
                // additionally recorded for hostile-input classification.
                if let Err(e) = decoded {
                    self.wire_errors.push(e);
                }
                let pending = self.pending.remove(&id).expect("checked above");
                return Step::Done(self.finish(
                    pending.name,
                    pending.rtype,
                    ResolveOutcome::ServFail,
                    now_ms,
                ));
            }
        };
        if msg.truncated && !pending.over_tcp {
            if self.config.tcp_capable {
                // Retry the same question over TCP with a fresh id.
                let pending = self.pending.remove(&id).expect("checked above");
                let new_id = self.alloc_id();
                let query = Message::query(new_id, pending.name.clone(), pending.rtype);
                self.pending.insert(
                    new_id,
                    Pending {
                        over_tcp: true,
                        ..pending
                    },
                );
                self.upstream_queries += 1;
                return Step::Continue(Outgoing {
                    id: new_id,
                    bytes: query.to_bytes(),
                    transport: Transport::Tcp,
                    timeout_ms: self.config.attempt_timeout_ms,
                });
            }
            // TCP-incapable resolver: all it ever gets is the truncated
            // empty answer, which yields no usable data.
            let pending = self.pending.remove(&id).expect("checked above");
            return Step::Done(self.finish(
                pending.name,
                pending.rtype,
                ResolveOutcome::NoData,
                now_ms,
            ));
        }
        let pending = self.pending.remove(&id).expect("checked above");
        let outcome = match msg.rcode {
            Rcode::NoError => {
                if msg.answers.is_empty() {
                    ResolveOutcome::NoData
                } else {
                    ResolveOutcome::Records(msg.answers)
                }
            }
            Rcode::NxDomain => ResolveOutcome::NxDomain,
            _ => ResolveOutcome::ServFail,
        };
        Step::Done(self.finish(pending.name, pending.rtype, outcome, now_ms))
    }

    /// Signal that the timeout armed for lookup `id` fired.
    pub fn on_timeout(&mut self, id: u16, now_ms: u64) -> Step {
        let Some(pending) = self.pending.get_mut(&id) else {
            return Step::Ignored;
        };
        if pending.retries_left > 0 && !pending.over_tcp {
            pending.retries_left -= 1;
            let query = Message::query(id, pending.name.clone(), pending.rtype);
            self.upstream_queries += 1;
            return Step::Continue(Outgoing {
                id,
                bytes: query.to_bytes(),
                transport: Transport::Udp,
                timeout_ms: self.config.attempt_timeout_ms,
            });
        }
        let pending = self.pending.remove(&id).expect("checked above");
        Step::Done(self.finish(pending.name, pending.rtype, ResolveOutcome::Timeout, now_ms))
    }

    /// Record the outcome in cache and return it.
    fn finish(
        &mut self,
        name: Name,
        rtype: RecordType,
        outcome: ResolveOutcome,
        now_ms: u64,
    ) -> ResolveOutcome {
        if self.config.cache_enabled {
            let ttl_ms = match &outcome {
                ResolveOutcome::Records(records) => {
                    let min_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(60);
                    u64::from(min_ttl) * 1000
                }
                ResolveOutcome::NoData | ResolveOutcome::NxDomain => self.config.negative_ttl_ms,
                // Don't cache failures.
                ResolveOutcome::Timeout | ResolveOutcome::ServFail => 0,
            };
            if ttl_ms > 0 {
                self.cache.insert(
                    (name, rtype),
                    CacheEntry {
                        outcome: outcome.clone(),
                        expires_at_ms: now_ms + ttl_ms,
                    },
                );
            }
        }
        outcome
    }

    /// Number of cached entries (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn respond_with_a(outgoing: &Outgoing, ip: [u8; 4], ttl: u32) -> Vec<u8> {
        let q = Message::from_bytes(&outgoing.bytes).unwrap();
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers = vec![Record::new(
            q.question().unwrap().name.clone(),
            ttl,
            RData::A(Ipv4Addr::from(ip)),
        )];
        r.to_bytes()
    }

    #[test]
    fn basic_lookup() {
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("a.test"), RecordType::A, 0) else {
            panic!("expected send");
        };
        assert_eq!(out.transport, Transport::Udp);
        let resp = respond_with_a(&out, [192, 0, 2, 1], 300);
        match core.on_response(out.id, &resp, 10) {
            Step::Done(ResolveOutcome::Records(records)) => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cache_hit_and_expiry() {
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("a.test"), RecordType::A, 0) else {
            panic!()
        };
        let resp = respond_with_a(&out, [192, 0, 2, 1], 300);
        core.on_response(out.id, &resp, 10);
        // Within TTL: cached.
        match core.begin(n("a.test"), RecordType::A, 10_000) {
            Begin::Cached(ResolveOutcome::Records(_)) => {}
            other => panic!("{other:?}"),
        }
        // After TTL (300s): re-query.
        match core.begin(n("a.test"), RecordType::A, 301_000) {
            Begin::Send(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cache_disabled() {
        let mut core = ResolverCore::new(ResolverConfig {
            cache_enabled: false,
            ..Default::default()
        });
        let Begin::Send(out) = core.begin(n("a.test"), RecordType::A, 0) else {
            panic!()
        };
        let resp = respond_with_a(&out, [192, 0, 2, 1], 300);
        core.on_response(out.id, &resp, 10);
        assert!(matches!(
            core.begin(n("a.test"), RecordType::A, 20),
            Begin::Send(_)
        ));
    }

    #[test]
    fn tcp_fallback_on_truncation() {
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("big.test"), RecordType::Txt, 0) else {
            panic!()
        };
        let q = Message::from_bytes(&out.bytes).unwrap();
        let mut trunc = Message::response_to(&q, Rcode::NoError);
        trunc.truncated = true;
        match core.on_response(out.id, &trunc.to_bytes(), 5) {
            Step::Continue(follow_up) => {
                assert_eq!(follow_up.transport, Transport::Tcp);
                // Complete over TCP.
                let resp = respond_with_a(&follow_up, [192, 0, 2, 9], 60);
                match core.on_response(follow_up.id, &resp, 9) {
                    Step::Done(ResolveOutcome::Records(_)) => {}
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_tcp_fallback_when_incapable() {
        let mut core = ResolverCore::new(ResolverConfig {
            tcp_capable: false,
            ..Default::default()
        });
        let Begin::Send(out) = core.begin(n("big.test"), RecordType::Txt, 0) else {
            panic!()
        };
        let q = Message::from_bytes(&out.bytes).unwrap();
        let mut trunc = Message::response_to(&q, Rcode::NoError);
        trunc.truncated = true;
        match core.on_response(out.id, &trunc.to_bytes(), 5) {
            Step::Done(ResolveOutcome::NoData) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retry_then_timeout() {
        let mut core = ResolverCore::new(ResolverConfig {
            max_retries: 2,
            ..Default::default()
        });
        let Begin::Send(out) = core.begin(n("slow.test"), RecordType::A, 0) else {
            panic!()
        };
        let Step::Continue(retry1) = core.on_timeout(out.id, 3000) else {
            panic!()
        };
        assert_eq!(retry1.id, out.id);
        let Step::Continue(_retry2) = core.on_timeout(out.id, 6000) else {
            panic!()
        };
        match core.on_timeout(out.id, 9000) {
            Step::Done(ResolveOutcome::Timeout) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(core.upstream_queries, 3);
    }

    #[test]
    fn injected_truncation_falls_back_to_tcp_and_succeeds() {
        // Regression for the fault-injection path: a *full* UDP reply
        // mangled by `truncate_response` (TC=1, answers stripped) must
        // drive a capable resolver to a TCP retry that then succeeds.
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("fault.test"), RecordType::A, 0) else {
            panic!()
        };
        let full = respond_with_a(&out, [192, 0, 2, 44], 120);
        let mangled = crate::message::truncate_response(&full).unwrap();
        let Step::Continue(follow_up) = core.on_response(out.id, &mangled, 5) else {
            panic!("expected TCP fallback")
        };
        assert_eq!(follow_up.transport, Transport::Tcp);
        assert_ne!(follow_up.id, out.id, "TCP retry uses a fresh id");
        let resp = respond_with_a(&follow_up, [192, 0, 2, 44], 120);
        match core.on_response(follow_up.id, &resp, 9) {
            Step::Done(ResolveOutcome::Records(records)) => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(core.upstream_queries, 2);
    }

    #[test]
    fn garbled_response_fails_closed_and_is_classified() {
        // Hostile-input regression: undecodable response bytes must end
        // the lookup with SERVFAIL (never a panic, never a hang) and
        // leave the WireError behind for classification.
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("hostile.test"), RecordType::A, 0) else {
            panic!()
        };
        let full = respond_with_a(&out, [192, 0, 2, 9], 120);
        let garbled = &full[..full.len() / 2];
        match core.on_response(out.id, garbled, 5) {
            Step::Done(ResolveOutcome::ServFail) => {}
            other => panic!("{other:?}"),
        }
        let errors = core.take_wire_errors();
        assert_eq!(errors.len(), 1);
        assert!(core.take_wire_errors().is_empty(), "drain must reset");
        // A well-formed response with a mismatched id also fails closed,
        // but is not a wire error.
        let Begin::Send(out) = core.begin(n("mismatch.test"), RecordType::A, 10) else {
            panic!()
        };
        let mut resp = respond_with_a(&out, [192, 0, 2, 9], 120);
        resp[0] ^= 0xFF; // flip the id
        match core.on_response(out.id, &resp, 15) {
            Step::Done(ResolveOutcome::ServFail) => {}
            other => panic!("{other:?}"),
        }
        assert!(core.take_wire_errors().is_empty());
    }

    #[test]
    fn retry_exhaustion_counts_exact_transmissions() {
        // All attempts dropped: the lookup must end in Timeout after
        // exactly max_retries + 1 transmissions, for several budgets.
        for max_retries in [0u8, 1, 3, 5] {
            let mut core = ResolverCore::new(ResolverConfig {
                max_retries,
                ..Default::default()
            });
            let Begin::Send(out) = core.begin(n("dropped.test"), RecordType::A, 0) else {
                panic!()
            };
            let mut transmissions = 1u64; // the initial UDP attempt
            let mut now = 3_000;
            loop {
                match core.on_timeout(out.id, now) {
                    Step::Continue(retry) => {
                        assert_eq!(retry.id, out.id, "UDP retries reuse the id");
                        assert_eq!(retry.transport, Transport::Udp);
                        transmissions += 1;
                        now += 3_000;
                    }
                    Step::Done(ResolveOutcome::Timeout) => break,
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(transmissions, u64::from(max_retries) + 1);
            assert_eq!(core.upstream_queries, transmissions);
        }
    }

    #[test]
    fn negative_caching() {
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("nx.test"), RecordType::A, 0) else {
            panic!()
        };
        let q = Message::from_bytes(&out.bytes).unwrap();
        let resp = Message::response_to(&q, Rcode::NxDomain);
        match core.on_response(out.id, &resp.to_bytes(), 10) {
            Step::Done(ResolveOutcome::NxDomain) => {}
            other => panic!("{other:?}"),
        }
        match core.begin(n("nx.test"), RecordType::A, 1000) {
            Begin::Cached(ResolveOutcome::NxDomain) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_response_ignored() {
        let mut core = ResolverCore::new(ResolverConfig::default());
        assert_eq!(core.on_response(999, &[0, 0], 0), Step::Ignored);
        assert_eq!(core.on_timeout(999, 0), Step::Ignored);
    }

    #[test]
    fn servfail_not_cached() {
        let mut core = ResolverCore::new(ResolverConfig::default());
        let Begin::Send(out) = core.begin(n("sf.test"), RecordType::A, 0) else {
            panic!()
        };
        let q = Message::from_bytes(&out.bytes).unwrap();
        let resp = Message::response_to(&q, Rcode::ServFail);
        match core.on_response(out.id, &resp.to_bytes(), 10) {
            Step::Done(ResolveOutcome::ServFail) => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            core.begin(n("sf.test"), RecordType::A, 20),
            Begin::Send(_)
        ));
    }

    #[test]
    fn void_outcomes() {
        assert!(ResolveOutcome::NoData.is_void());
        assert!(ResolveOutcome::NxDomain.is_void());
        assert!(!ResolveOutcome::Timeout.is_void());
        assert!(!ResolveOutcome::Records(vec![]).is_void());
    }
}
