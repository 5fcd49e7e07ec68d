//! Sans-IO authoritative server core.
//!
//! [`ServerCore`] maps request datagrams to response datagrams plus
//! scheduling metadata (an artificial response delay, used by the
//! measurement test policies that insert 100 ms / 800 ms delays before
//! answering — §7.1 and §7.2 of the paper).
//!
//! The pluggable [`Authority`] trait is where the paper's innovation
//! lives: `mailval-measure` implements an authority that synthesizes SPF
//! policy responses from the query name instead of storing 27.8M records.

use crate::message::{Message, Question};
use crate::name::Name;
use crate::rr::{Record, RecordType};
use crate::wire::Rcode;
use crate::zone::{Zone, ZoneLookup};

/// The transport a request arrived over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// UDP: responses over the configured payload limit are truncated.
    Udp,
    /// TCP: no truncation.
    Tcp,
}

/// What an [`Authority`] says about one question.
#[derive(Debug, Clone)]
pub struct AuthorityAnswer {
    /// Response code.
    pub rcode: Rcode,
    /// Answer-section records.
    pub answers: Vec<Record>,
    /// Authority-section records (e.g. SOA for negative answers).
    pub authorities: Vec<Record>,
    /// Artificial delay before the response is sent, in milliseconds.
    /// Transport RTT is *not* included; the simulator adds that.
    pub delay_ms: u64,
    /// Force a truncated response over UDP even if the payload fits,
    /// eliciting TCP retry (the paper's TCP-fallback test policy).
    pub force_tcp: bool,
    /// This name is served only on the IPv6 endpoint (the paper's
    /// IPv6-only test policy); requests arriving via IPv4 are dropped.
    pub v6_only: bool,
}

impl AuthorityAnswer {
    /// A positive answer.
    pub fn positive(answers: Vec<Record>) -> Self {
        AuthorityAnswer {
            rcode: Rcode::NoError,
            answers,
            authorities: Vec::new(),
            delay_ms: 0,
            force_tcp: false,
            v6_only: false,
        }
    }

    /// An empty NOERROR (NODATA) answer.
    pub fn nodata() -> Self {
        Self::positive(Vec::new())
    }

    /// An NXDOMAIN answer.
    pub fn nxdomain() -> Self {
        AuthorityAnswer {
            rcode: Rcode::NxDomain,
            ..Self::nodata()
        }
    }

    /// Builder: add an artificial response delay.
    pub fn with_delay_ms(mut self, delay_ms: u64) -> Self {
        self.delay_ms = delay_ms;
        self
    }
}

/// Source of answers for the server core.
pub trait Authority {
    /// Answer one question. Return `None` to refuse (out of bailiwick).
    fn answer(&self, qname: &Name, qtype: RecordType) -> Option<AuthorityAnswer>;
}

/// [`Authority`] backed by a static [`Zone`].
pub struct ZoneAuthority {
    zone: Zone,
}

impl ZoneAuthority {
    /// Wrap a zone.
    pub fn new(zone: Zone) -> Self {
        ZoneAuthority { zone }
    }

    /// Access the underlying zone.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }
}

impl Authority for ZoneAuthority {
    fn answer(&self, qname: &Name, qtype: RecordType) -> Option<AuthorityAnswer> {
        match self.zone.lookup(qname, qtype) {
            ZoneLookup::Found(records) => Some(AuthorityAnswer::positive(records)),
            ZoneLookup::NoData => Some(AuthorityAnswer {
                authorities: vec![self.zone.soa_record()],
                ..AuthorityAnswer::nodata()
            }),
            ZoneLookup::NxDomain => Some(AuthorityAnswer {
                authorities: vec![self.zone.soa_record()],
                ..AuthorityAnswer::nxdomain()
            }),
            ZoneLookup::NotAuthoritative => None,
        }
    }
}

/// A response ready to send, with scheduling metadata.
#[derive(Debug, Clone)]
pub struct ServerReply {
    /// Encoded response message.
    pub bytes: Vec<u8>,
    /// Artificial delay before sending, in milliseconds.
    pub delay_ms: u64,
}

/// What [`ServerCore::handle_with`] made of one request datagram.
#[derive(Debug, Clone)]
pub struct Handled {
    /// The request's first question, when the request decoded and had
    /// one (a request that fails to decode gets FORMERR and has none).
    pub question: Option<Question>,
    /// Artificial delay before sending the reply left in the output
    /// buffer; `None` when the server stays silent.
    pub delay_ms: Option<u64>,
}

/// Sans-IO authoritative server.
pub struct ServerCore<A: Authority> {
    authority: A,
    /// Maximum UDP response payload before truncation (RFC 1035 default
    /// 512; modern EDNS-less behavior kept deliberately conservative so
    /// the TCP-fallback test has teeth).
    pub udp_payload_max: usize,
}

impl<A: Authority> ServerCore<A> {
    /// Create a server with the classic 512-byte UDP limit.
    pub fn new(authority: A) -> Self {
        ServerCore {
            authority,
            udp_payload_max: 512,
        }
    }

    /// Access the authority.
    pub fn authority(&self) -> &A {
        &self.authority
    }

    /// Handle one request datagram.
    ///
    /// `via_ipv6` says which address family the request arrived on
    /// (the IPv6-only test policy drops IPv4-borne requests).
    /// Returns `None` when the server stays silent (malformed beyond
    /// recovery, or a deliberately dropped request).
    pub fn handle(
        &self,
        request: &[u8],
        transport: Transport,
        via_ipv6: bool,
    ) -> Option<ServerReply> {
        let mut bytes = Vec::new();
        let delay_ms = self
            .handle_with(request, transport, via_ipv6, &mut bytes)
            .delay_ms?;
        Some(ServerReply { bytes, delay_ms })
    }

    /// [`ServerCore::handle`] encoding the reply into `out` (cleared
    /// first, allocation reused) instead of a fresh buffer, and handing
    /// back the request's question so the caller need not decode the
    /// request again. This is the shard event loop's entry point: one
    /// scratch buffer per shard absorbs every reply encode.
    pub fn handle_with(
        &self,
        request: &[u8],
        transport: Transport,
        via_ipv6: bool,
        out: &mut Vec<u8>,
    ) -> Handled {
        let query = match Message::from_bytes(request) {
            Ok(q) => q,
            Err(_) => {
                // Recover the id if we can, to send FORMERR.
                let mut delay_ms = None;
                if request.len() >= 2 {
                    let id = u16::from_be_bytes([request[0], request[1]]);
                    let mut resp = Message::query(id, Name::root(), RecordType::A);
                    resp.questions.clear();
                    resp.is_response = true;
                    resp.rcode = Rcode::FormErr;
                    emit(out, &resp);
                    delay_ms = Some(0);
                }
                return Handled {
                    question: None,
                    delay_ms,
                };
            }
        };
        Handled {
            question: query.question().cloned(),
            delay_ms: self.respond(&query, transport, via_ipv6, out),
        }
    }

    /// Encode the reply to a decoded request into `out`, returning its
    /// delay, or `None` to stay silent.
    fn respond(
        &self,
        query: &Message,
        transport: Transport,
        via_ipv6: bool,
        out: &mut Vec<u8>,
    ) -> Option<u64> {
        if query.is_response {
            return None;
        }
        if query.opcode != 0 {
            emit(out, &Message::response_to(query, Rcode::NotImp));
            return Some(0);
        }
        let Some(question) = query.question() else {
            emit(out, &Message::response_to(query, Rcode::FormErr));
            return Some(0);
        };

        let Some(answer) = self.authority.answer(&question.name, question.rtype) else {
            emit(out, &Message::response_to(query, Rcode::Refused));
            return Some(0);
        };

        if answer.v6_only && !via_ipv6 {
            // The name's only server lives on IPv6: an IPv4 request would
            // never have arrived in reality. Stay silent.
            return None;
        }

        let mut resp = Message::response_to(query, answer.rcode);
        resp.authoritative = true;
        resp.answers = answer.answers;
        resp.authorities = answer.authorities;
        emit(out, &resp);

        if transport == Transport::Udp && (answer.force_tcp || out.len() > self.udp_payload_max) {
            // Truncate: empty sections, TC=1 (RFC 2181 §9 style minimal
            // truncation).
            let mut trunc = Message::response_to(query, answer.rcode);
            trunc.authoritative = true;
            trunc.truncated = true;
            emit(out, &trunc);
        }

        Some(answer.delay_ms)
    }
}

fn emit(out: &mut Vec<u8>, resp: &Message) {
    *out = resp.to_bytes_with(std::mem::take(out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::{RData, SoaData};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn server() -> ServerCore<ZoneAuthority> {
        let soa = SoaData {
            mname: n("ns1.example.com"),
            rname: n("contact.example.com"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 300,
        };
        let mut zone = Zone::new(n("example.com"), soa);
        zone.add_rdata(n("a.example.com"), RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        zone.add_rdata(n("big.example.com"), RData::txt_from_str(&"x".repeat(700)));
        ServerCore::new(ZoneAuthority::new(zone))
    }

    fn ask(
        s: &ServerCore<ZoneAuthority>,
        name: &str,
        rtype: RecordType,
        transport: Transport,
    ) -> Message {
        let q = Message::query(42, n(name), rtype);
        let reply = s.handle(&q.to_bytes(), transport, false).unwrap();
        Message::from_bytes(&reply.bytes).unwrap()
    }

    #[test]
    fn positive_answer() {
        let s = server();
        let resp = ask(&s, "a.example.com", RecordType::A, Transport::Udp);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.authoritative);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.id, 42);
    }

    #[test]
    fn nxdomain_carries_soa() {
        let s = server();
        let resp = ask(&s, "nope.example.com", RecordType::A, Transport::Udp);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.authorities[0].rtype(), RecordType::Soa);
    }

    #[test]
    fn nodata_carries_soa() {
        let s = server();
        let resp = ask(&s, "a.example.com", RecordType::Mx, Transport::Udp);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
    }

    #[test]
    fn refused_out_of_zone() {
        let s = server();
        let resp = ask(&s, "other.org", RecordType::A, Transport::Udp);
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn truncates_large_udp_answer_and_serves_over_tcp() {
        let s = server();
        let udp = ask(&s, "big.example.com", RecordType::Txt, Transport::Udp);
        assert!(udp.truncated);
        assert!(udp.answers.is_empty());
        let tcp = ask(&s, "big.example.com", RecordType::Txt, Transport::Tcp);
        assert!(!tcp.truncated);
        assert_eq!(tcp.answers.len(), 1);
    }

    #[test]
    fn malformed_gets_formerr() {
        let s = server();
        let reply = s
            .handle(&[0xab, 0xcd, 0xff], Transport::Udp, false)
            .unwrap();
        let resp = Message::from_bytes(&reply.bytes).unwrap();
        assert_eq!(resp.rcode, Rcode::FormErr);
        assert_eq!(resp.id, 0xabcd);
    }

    #[test]
    fn tiny_garbage_ignored() {
        let s = server();
        assert!(s.handle(&[0x01], Transport::Udp, false).is_none());
    }

    #[test]
    fn responses_are_ignored() {
        let s = server();
        let mut q = Message::query(1, n("a.example.com"), RecordType::A);
        q.is_response = true;
        assert!(s.handle(&q.to_bytes(), Transport::Udp, false).is_none());
    }

    #[test]
    fn nonzero_opcode_notimp() {
        let s = server();
        let mut q = Message::query(1, n("a.example.com"), RecordType::A);
        q.opcode = 5;
        let reply = s.handle(&q.to_bytes(), Transport::Udp, false).unwrap();
        let resp = Message::from_bytes(&reply.bytes).unwrap();
        assert_eq!(resp.rcode, Rcode::NotImp);
    }

    #[test]
    fn handle_with_hands_back_the_decoded_question() {
        let s = server();
        let mut out = Vec::new();
        // Answered, refused and ignored requests all decoded, so each
        // hands back its question.
        let mut response = Message::query(7, n("other.org"), RecordType::A);
        response.is_response = true;
        for (query, delay_ms) in [
            (
                Message::query(7, n("A.Example.com"), RecordType::A),
                Some(0),
            ),
            (Message::query(7, n("other.org"), RecordType::Txt), Some(0)),
            (response, None),
        ] {
            let handled = s.handle_with(&query.to_bytes(), Transport::Udp, false, &mut out);
            assert_eq!(handled.question.as_ref(), query.question());
            assert_eq!(handled.delay_ms, delay_ms);
        }
        // FORMERR: the request never decoded, so there is no question.
        let handled = s.handle_with(&[0xab, 0xcd, 0xff], Transport::Udp, false, &mut out);
        assert_eq!(handled.question, None);
        assert_eq!(handled.delay_ms, Some(0));
    }
}
