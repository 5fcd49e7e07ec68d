//! The MTA-side recursive resolver actor.
//!
//! Wraps the sans-IO [`ResolverCore`] and adds what the simulation
//! needs: upstream-address selection (including the IPv4/IPv6 decision
//! that the paper's IPv6-only test policy exercises) and a qid-based
//! interface for the embedding MTA actor.

use mailval_dns::resolver::{Begin, Outgoing, ResolveOutcome, ResolverConfig, ResolverCore, Step};
use mailval_dns::rr::RecordType;
use mailval_dns::server::Transport;
use mailval_dns::Name;
use std::collections::HashMap;

/// The label marking names served only on the apparatus's IPv6 endpoint
/// (the paper's IPv6-only test zone): a resolver without IPv6 cannot
/// reach them, one with IPv6 sends them over it.
pub const V6_ONLY_LABEL: &str = "v6only";

/// A resolver-to-authoritative transmission the driver must deliver.
#[derive(Debug, Clone)]
pub struct UpstreamSend {
    /// Resolver-core lookup id.
    pub core_id: u16,
    /// Encoded DNS query.
    pub bytes: Vec<u8>,
    /// UDP or TCP.
    pub transport: Transport,
    /// Send over IPv6 (the v6-only zone is only reachable this way).
    pub via_ipv6: bool,
    /// Arm a timeout after this many ms.
    pub timeout_ms: u64,
}

/// What the actor tells its embedder after each input.
#[derive(Debug, Clone)]
pub enum ResolverEvent {
    /// Lookup `qid` finished.
    Finished {
        /// Caller-supplied id.
        qid: u64,
        /// The outcome.
        outcome: ResolveOutcome,
    },
    /// Transmit this upstream (and arm its timeout).
    Send(UpstreamSend),
    /// Nothing to do (stale input).
    Idle,
}

/// The resolver actor: one per simulated MTA.
pub struct ResolverActor {
    core: ResolverCore,
    ipv6_capable: bool,
    /// Maps in-flight resolver-core ids to caller qids.
    inflight: HashMap<u16, u64>,
    /// Lookups started through [`ResolverActor::resolve`].
    lookups: u64,
    /// Lookups answered synchronously from the core's cache.
    cache_hits: u64,
}

impl ResolverActor {
    /// Create an actor.
    pub fn new(config: ResolverConfig, ipv6_capable: bool) -> Self {
        ResolverActor {
            core: ResolverCore::new(config),
            ipv6_capable,
            inflight: HashMap::new(),
            lookups: 0,
            cache_hits: 0,
        }
    }

    /// Total upstream queries sent (diagnostics).
    pub fn upstream_queries(&self) -> u64 {
        self.core.upstream_queries
    }

    /// Lookups started through [`ResolverActor::resolve`] (diagnostics).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups answered synchronously from the resolver cache
    /// (diagnostics; the telemetry layer's cache hit-rate).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Drain the wire-decode errors recorded since the last call (the
    /// embedder classifies them as hostile input).
    pub fn take_wire_errors(&mut self) -> Vec<mailval_dns::WireError> {
        self.core.take_wire_errors()
    }

    fn needs_v6(name: &Name) -> bool {
        name.labels().any(|l| l == V6_ONLY_LABEL)
    }

    /// Start resolving. Returns one or two events (cache answer, or an
    /// upstream send; an unreachable v6-only name short-circuits to a
    /// timeout outcome without any packet, as in reality no route
    /// exists).
    pub fn resolve(
        &mut self,
        qid: u64,
        name: Name,
        rtype: RecordType,
        now_ms: u64,
    ) -> ResolverEvent {
        self.lookups += 1;
        let needs_v6 = Self::needs_v6(&name);
        if needs_v6 && !self.ipv6_capable {
            // No AAAA-reachable server and no IPv6 route: the lookup can
            // never be sent. Resolvers surface this as a failure after
            // their timeout; we return it immediately (the embedding MTA
            // adds no observable DNS traffic either way).
            return ResolverEvent::Finished {
                qid,
                outcome: ResolveOutcome::Timeout,
            };
        }
        let via_ipv6 = needs_v6 && self.ipv6_capable;
        match self.core.begin(name, rtype, now_ms) {
            Begin::Cached(outcome) => {
                self.cache_hits += 1;
                ResolverEvent::Finished { qid, outcome }
            }
            Begin::Send(outgoing) => {
                self.inflight.insert(outgoing.id, qid);
                ResolverEvent::Send(self.to_send(outgoing, via_ipv6))
            }
        }
    }

    fn to_send(&self, outgoing: Outgoing, via_ipv6: bool) -> UpstreamSend {
        UpstreamSend {
            core_id: outgoing.id,
            bytes: outgoing.bytes,
            transport: outgoing.transport,
            via_ipv6,
            timeout_ms: outgoing.timeout_ms,
        }
    }

    /// Feed an upstream response datagram.
    pub fn on_upstream_response(
        &mut self,
        core_id: u16,
        bytes: &[u8],
        via_ipv6: bool,
        now_ms: u64,
    ) -> ResolverEvent {
        let Some(&qid) = self.inflight.get(&core_id) else {
            return ResolverEvent::Idle;
        };
        match self.core.on_response(core_id, bytes, now_ms) {
            Step::Done(outcome) => {
                self.inflight.remove(&core_id);
                ResolverEvent::Finished { qid, outcome }
            }
            Step::Continue(outgoing) => {
                self.inflight.remove(&core_id);
                self.inflight.insert(outgoing.id, qid);
                ResolverEvent::Send(self.to_send(outgoing, via_ipv6))
            }
            Step::Ignored => ResolverEvent::Idle,
        }
    }

    /// A previously armed timeout fired.
    pub fn on_timeout(&mut self, core_id: u16, via_ipv6: bool, now_ms: u64) -> ResolverEvent {
        let Some(&qid) = self.inflight.get(&core_id) else {
            return ResolverEvent::Idle;
        };
        match self.core.on_timeout(core_id, now_ms) {
            Step::Done(outcome) => {
                self.inflight.remove(&core_id);
                ResolverEvent::Finished { qid, outcome }
            }
            Step::Continue(outgoing) => ResolverEvent::Send(self.to_send(outgoing, via_ipv6)),
            Step::Ignored => ResolverEvent::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mailval_dns::message::Message;
    use mailval_dns::rr::RData;
    use mailval_dns::wire::Rcode;
    use mailval_dns::Record;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn answer(send: &UpstreamSend, ip: [u8; 4]) -> Vec<u8> {
        let q = Message::from_bytes(&send.bytes).unwrap();
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers = vec![Record::new(
            q.question().unwrap().name.clone(),
            60,
            RData::A(ip.into()),
        )];
        r.to_bytes()
    }

    #[test]
    fn resolve_roundtrip() {
        let mut actor = ResolverActor::new(ResolverConfig::default(), true);
        let ResolverEvent::Send(send) = actor.resolve(99, n("a.test"), RecordType::A, 0) else {
            panic!()
        };
        assert!(!send.via_ipv6);
        let resp = answer(&send, [192, 0, 2, 1]);
        match actor.on_upstream_response(send.core_id, &resp, false, 10) {
            ResolverEvent::Finished { qid, outcome } => {
                assert_eq!(qid, 99);
                assert!(matches!(outcome, ResolveOutcome::Records(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn v6_only_zone_unreachable_for_v4_resolver() {
        let mut actor = ResolverActor::new(ResolverConfig::default(), false);
        match actor.resolve(1, n("l1.v6only.t10.m1.spf.test"), RecordType::Txt, 0) {
            ResolverEvent::Finished { outcome, .. } => {
                assert_eq!(outcome, ResolveOutcome::Timeout);
            }
            other => panic!("{other:?}"),
        }
        // Names outside the v6-only zone still work.
        assert!(matches!(
            actor.resolve(2, n("x.spf.test"), RecordType::Txt, 0),
            ResolverEvent::Send(_)
        ));
    }

    #[test]
    fn v6_capable_resolver_routes_via_v6() {
        let mut actor = ResolverActor::new(ResolverConfig::default(), true);
        match actor.resolve(1, n("l1.v6only.t10.m1.spf.test"), RecordType::Txt, 0) {
            ResolverEvent::Send(send) => assert!(send.via_ipv6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_retry_then_finish() {
        let mut actor = ResolverActor::new(ResolverConfig::default(), true);
        let ResolverEvent::Send(send) = actor.resolve(5, n("slow.test"), RecordType::A, 0) else {
            panic!()
        };
        // First timeout retries.
        match actor.on_timeout(send.core_id, false, 3_000) {
            ResolverEvent::Send(retry) => {
                // Second timeout finishes.
                match actor.on_timeout(retry.core_id, false, 6_000) {
                    ResolverEvent::Finished { qid, outcome } => {
                        assert_eq!(qid, 5);
                        assert_eq!(outcome, ResolveOutcome::Timeout);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_inputs_ignored() {
        let mut actor = ResolverActor::new(ResolverConfig::default(), true);
        assert!(matches!(
            actor.on_upstream_response(42, &[0, 0], false, 0),
            ResolverEvent::Idle
        ));
        assert!(matches!(
            actor.on_timeout(42, false, 0),
            ResolverEvent::Idle
        ));
    }
}
