//! The apparatus side: the synthesizing authoritative DNS server and the
//! query log (§4.5 of the paper).
//!
//! [`SynthesizingAuthority`] implements `mailval_dns::server::Authority`
//! by *generating* responses from the query name — the paper's solution
//! to hosting 27.8M logical records. [`QueryLog`] is the measurement
//! output: every query that reaches the server, timestamped and
//! attributed via the name encoding; all of §6–§7's analyses consume it.

use crate::names::{NameScheme, ParsedName};
use crate::policies::{synthesize_notify, synthesize_probe, SynthAddrs};
use mailval_crypto::bigint::SplitMix64;
use mailval_crypto::rsa::RsaKeyPair;
use mailval_dkim::key::DkimKeyRecord;
use mailval_dns::rr::RecordType;
use mailval_dns::server::{Authority, AuthorityAnswer, Transport};
use mailval_dns::Name;
use std::sync::OnceLock;

/// The apparatus's DKIM key pair for a campaign seeded `seed`: one
/// 1024-bit key signs for every From domain, and every synthesized key
/// record publishes it.
pub fn apparatus_keypair(seed: u64) -> RsaKeyPair {
    RsaKeyPair::generate(1024, &mut SplitMix64::new(seed ^ 0x444b_4559))
}

/// The `sel1._domainkey` TXT record text publishing `keypair`.
pub fn dkim_key_record(keypair: &RsaKeyPair) -> String {
    DkimKeyRecord::for_key(&keypair.public).to_record_text()
}

/// One logged query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// Virtual receive time, ms.
    pub time_ms: u64,
    /// Global index of the campaign session whose resolver issued the
    /// query. Together with `time_ms` this is the canonical ordering key
    /// (see [`QueryLog::sort_canonical`]), which makes sharded runs
    /// merge to the same byte sequence as a single-threaded run.
    pub session: usize,
    /// The queried name.
    pub qname: Name,
    /// The queried type.
    pub qtype: RecordType,
    /// UDP or TCP.
    pub transport: Transport,
    /// Arrived on the IPv6 endpoint.
    pub via_ipv6: bool,
}

impl QueryRecord {
    /// The query's attribution: its name parsed under the standard
    /// scheme, `None` for names outside both apparatus suffixes.
    pub fn attribution(&self) -> Option<ParsedName<'_>> {
        NameScheme::standard().parse(&self.qname)
    }
}

/// The query log: the raw measurement output.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// All queries in arrival order.
    pub records: Vec<QueryRecord>,
}

impl QueryLog {
    /// Sort into canonical order: by `(time_ms, session)`, stable, so
    /// records of one session keep their causal order and concurrent
    /// sessions tie-break on their global index. Every campaign log is
    /// canonicalized before it is returned, which is what makes a
    /// `shards = K` run byte-identical to `shards = 1`.
    pub fn sort_canonical(&mut self) {
        self.records.sort_by_key(|r| (r.time_ms, r.session));
    }

    /// Every attributed record with its attribution, in log order; each
    /// name is parsed once.
    pub fn attributed(&self) -> impl Iterator<Item = (&QueryRecord, ParsedName<'_>)> {
        self.records
            .iter()
            .filter_map(|r| Some((r, r.attribution()?)))
    }
}

/// The synthesizing authoritative server for both apparatus suffixes.
///
/// A campaign that signs hands the authority its key record up front.
/// Probe campaigns never sign, so their authority fills the record on
/// the first query under the notify suffix, with the key a signing
/// campaign at the same seed holds (see [`apparatus_keypair`]); a probe
/// campaign that sends no such query never generates a key.
pub struct SynthesizingAuthority {
    scheme: NameScheme,
    addrs: SynthAddrs,
    dkim_key_seed: u64,
    dkim_key_record: OnceLock<String>,
    dmarc_record: String,
}

impl SynthesizingAuthority {
    /// Create an authority serving `dkim_key_record`.
    pub fn new(
        scheme: NameScheme,
        addrs: SynthAddrs,
        dkim_key_record: String,
        dmarc_record: String,
    ) -> Self {
        SynthesizingAuthority {
            scheme,
            addrs,
            dkim_key_seed: 0,
            dkim_key_record: OnceLock::from(dkim_key_record),
            dmarc_record,
        }
    }

    /// Create an authority whose DKIM key record publishes
    /// `apparatus_keypair(seed)`, generated on first use.
    pub fn with_lazy_dkim_key(
        scheme: NameScheme,
        addrs: SynthAddrs,
        seed: u64,
        dmarc_record: String,
    ) -> Self {
        SynthesizingAuthority {
            scheme,
            addrs,
            dkim_key_seed: seed,
            dkim_key_record: OnceLock::new(),
            dmarc_record,
        }
    }

    /// The DKIM key record, generating the key on the first call.
    fn dkim_key_record(&self) -> &str {
        self.dkim_key_record
            .get_or_init(|| dkim_key_record(&apparatus_keypair(self.dkim_key_seed)))
    }

    /// Whether the DKIM key record exists yet.
    #[cfg(test)]
    pub(crate) fn has_dkim_key_record(&self) -> bool {
        self.dkim_key_record.get().is_some()
    }

    /// The name scheme in use.
    pub fn scheme(&self) -> &NameScheme {
        &self.scheme
    }
}

impl Authority for SynthesizingAuthority {
    fn answer(&self, qname: &Name, qtype: RecordType) -> Option<AuthorityAnswer> {
        // Apex names of the suffixes themselves: answer NODATA so
        // diagnostic queries (SOA etc.) are in-bailiwick.
        if *qname == self.scheme.probe_suffix || *qname == self.scheme.notify_suffix {
            return Some(AuthorityAnswer::nodata());
        }
        if !qname.is_subdomain_of(&self.scheme.probe_suffix)
            && !qname.is_subdomain_of(&self.scheme.notify_suffix)
        {
            return None; // out of bailiwick → REFUSED
        }
        let Some(parsed) = self.scheme.parse(qname) else {
            return Some(AuthorityAnswer::nxdomain());
        };
        let path: Vec<&str> = parsed.path.labels().collect();
        Some(match parsed.testid {
            Some(testid) => synthesize_probe(testid, &path, qname, parsed.base, qtype, &self.addrs),
            None => synthesize_notify(
                &path,
                qname,
                parsed.base,
                qtype,
                &self.addrs,
                self.dkim_key_record(),
                &self.dmarc_record,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::ALL_TESTS;
    use mailval_dns::message::Message;
    use mailval_dns::resolver::ResolveOutcome;
    use mailval_dns::server::ServerCore;
    use mailval_dns::wire::Rcode;
    use mailval_spf::{DnsQuestion, EvalParams, EvalStep};
    use std::net::IpAddr;

    fn authority() -> SynthesizingAuthority {
        SynthesizingAuthority::new(
            NameScheme::default(),
            SynthAddrs::default(),
            "v=DKIM1; k=rsa; p=TESTKEY".into(),
            "v=DMARC1; p=reject; rua=mailto:agg@dns-lab.org".into(),
        )
    }

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn serves_probe_policies_end_to_end() {
        let server = ServerCore::new(authority());
        let q = Message::query(1, n("t01.m00007.spf-test.dns-lab.org"), RecordType::Txt);
        let reply = server.handle(&q.to_bytes(), Transport::Udp, false).unwrap();
        let resp = Message::from_bytes(&reply.bytes).unwrap();
        assert_eq!(resp.rcode, Rcode::NoError);
        let policy = resp.answers[0].rdata.txt_joined().unwrap();
        assert!(policy.contains("include:l1.t01.m00007.spf-test.dns-lab.org"));
    }

    #[test]
    fn delay_metadata_propagates() {
        let server = ServerCore::new(authority());
        let q = Message::query(2, n("l1.t01.m00007.spf-test.dns-lab.org"), RecordType::Txt);
        let reply = server.handle(&q.to_bytes(), Transport::Udp, false).unwrap();
        assert_eq!(reply.delay_ms, 100);
    }

    #[test]
    fn tcp_only_test_truncates_udp() {
        let server = ServerCore::new(authority());
        let q = Message::query(3, n("t09.m00001.spf-test.dns-lab.org"), RecordType::Txt);
        let udp = server.handle(&q.to_bytes(), Transport::Udp, false).unwrap();
        let udp_resp = Message::from_bytes(&udp.bytes).unwrap();
        assert!(udp_resp.truncated);
        assert!(udp_resp.answers.is_empty());
        let tcp = server.handle(&q.to_bytes(), Transport::Tcp, false).unwrap();
        let tcp_resp = Message::from_bytes(&tcp.bytes).unwrap();
        assert!(!tcp_resp.truncated);
        assert_eq!(tcp_resp.answers.len(), 1);
    }

    #[test]
    fn v6_only_name_dropped_on_v4() {
        let server = ServerCore::new(authority());
        let q = Message::query(
            4,
            n("p.v6only.t10.m00001.spf-test.dns-lab.org"),
            RecordType::Txt,
        );
        assert!(server
            .handle(&q.to_bytes(), Transport::Udp, false)
            .is_none());
        let v6 = server.handle(&q.to_bytes(), Transport::Udp, true).unwrap();
        let resp = Message::from_bytes(&v6.bytes).unwrap();
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn notify_names_served() {
        let server = ServerCore::new(authority());
        for (name, rtype, expect_substr) in [
            ("d00001.dsav-mail.dns-lab.org", RecordType::Txt, "v=spf1"),
            (
                "sel1._domainkey.d00001.dsav-mail.dns-lab.org",
                RecordType::Txt,
                "v=DKIM1",
            ),
            (
                "_dmarc.d00001.dsav-mail.dns-lab.org",
                RecordType::Txt,
                "v=DMARC1",
            ),
        ] {
            let q = Message::query(5, n(name), rtype);
            let reply = server.handle(&q.to_bytes(), Transport::Udp, false).unwrap();
            let resp = Message::from_bytes(&reply.bytes).unwrap();
            let text = resp.answers[0].rdata.txt_joined().unwrap();
            assert!(text.contains(expect_substr), "{name}: {text}");
        }
    }

    #[test]
    fn out_of_bailiwick_refused() {
        let server = ServerCore::new(authority());
        let q = Message::query(6, n("example.com"), RecordType::Txt);
        let reply = server.handle(&q.to_bytes(), Transport::Udp, false).unwrap();
        let resp = Message::from_bytes(&reply.bytes).unwrap();
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    fn record(name: &str, time_ms: u64) -> QueryRecord {
        QueryRecord {
            time_ms,
            session: 0,
            qname: n(name),
            qtype: RecordType::Txt,
            transport: Transport::Udp,
            via_ipv6: false,
        }
    }

    #[test]
    fn attribution_helper() {
        let probe = record("l2.t01.m00042.spf-test.dns-lab.org", 0);
        let attr = probe.attribution().unwrap();
        assert_eq!(attr.testid, Some("t01"));
        assert_eq!(attr.host_index, Some(42));
        assert_eq!(attr.path.as_str(), "l2");
        let notify = record("_dmarc.d00009.dsav-mail.dns-lab.org", 0);
        assert_eq!(notify.attribution().unwrap().domain_index, Some(9));
        assert!(record("unrelated.org", 0).attribution().is_none());
    }

    #[test]
    fn query_log_filters() {
        let mut log = QueryLog::default();
        for (name, t) in [
            ("t01.m00001.spf-test.dns-lab.org", 10),
            ("l1.t01.m00001.spf-test.dns-lab.org", 20),
            ("t02.m00002.spf-test.dns-lab.org", 30),
            ("d00005.dsav-mail.dns-lab.org", 40),
            ("unrelated.org", 50),
        ] {
            log.records.push(record(name, t));
        }
        assert_eq!(log.attributed().count(), 4);
        let times = |testid| -> Vec<u64> {
            log.attributed()
                .filter(|(_, a)| a.testid == Some(testid))
                .map(|(r, _)| r.time_ms)
                .collect()
        };
        assert_eq!(times("t01"), [10, 20]);
        assert_eq!(times("t02"), [30]);
        assert!(times("t03").is_empty());
    }

    /// The borrowed attribution, and the bytes the codec writes for it,
    /// equal the owned reference on every query of a NotifyEmail and a
    /// TwoWeekMX run.
    #[test]
    fn attribution_matches_the_reference_on_fixture_runs() {
        use crate::campaign::{run_campaign, sample_host_profiles, CampaignConfig, CampaignKind};
        use crate::names::reference;
        use mailval_datasets::{DatasetKind, Population, PopulationConfig};
        let scheme = NameScheme::standard();
        for (kind, dataset, tests) in [
            (CampaignKind::NotifyEmail, DatasetKind::NotifyEmail, vec![]),
            (
                CampaignKind::TwoWeekMx,
                DatasetKind::TwoWeekMx,
                crate::policies::ALL_TESTS.iter().map(|t| t.id).collect(),
            ),
        ] {
            let pop = Population::generate(&PopulationConfig {
                kind: dataset,
                scale: 0.002,
                seed: 17,
            });
            let config = CampaignConfig {
                kind,
                tests,
                seed: 17,
                probe_pause_ms: 0,
                shards: 2,
                ..CampaignConfig::default()
            };
            let result = run_campaign(&config, &pop, &sample_host_profiles(&pop, 17));
            let mut attributed = 0;
            for r in &result.log.records {
                let expected = reference::attribute(scheme, &r.qname);
                attributed += usize::from(expected.is_some());
                assert_eq!(
                    r.attribution().map(reference::owned),
                    expected,
                    "{}",
                    r.qname
                );
                crate::codec::tests::assert_query_bytes_match_reference(r);
            }
            assert!(attributed > 100, "{kind:?}: {attributed} attributed");
        }
    }

    /// Resolve `q` against `server` as a TCP-capable stub would.
    fn resolve(
        server: &ServerCore<SynthesizingAuthority>,
        q: &DnsQuestion,
        v6: bool,
    ) -> ResolveOutcome {
        let query = Message::query(1, q.name.clone(), q.rtype).to_bytes();
        let Some(mut reply) = server.handle(&query, Transport::Udp, v6) else {
            return ResolveOutcome::Timeout;
        };
        let mut resp = Message::from_bytes(&reply.bytes).unwrap();
        if resp.truncated {
            reply = server.handle(&query, Transport::Tcp, v6).unwrap();
            resp = Message::from_bytes(&reply.bytes).unwrap();
        }
        match resp.rcode {
            Rcode::NxDomain => ResolveOutcome::NxDomain,
            Rcode::NoError if resp.answers.is_empty() => ResolveOutcome::NoData,
            Rcode::NoError => ResolveOutcome::Records(resp.answers),
            _ => ResolveOutcome::ServFail,
        }
    }

    /// Every matched term of an evaluation of every test policy, from
    /// the sender's addresses and an unrelated one, names one of the
    /// mechanisms the evaluation fetched, as its `Debug` text (or
    /// `all`): the text is formatted lazily but reads as before.
    #[test]
    fn matched_terms_name_the_fetched_mechanisms() {
        use mailval_spf::{SpfBehavior, SpfEvaluator, SpfRecord, Term};
        let server = ServerCore::new(authority());
        let addrs = SynthAddrs::default();
        let ips: [IpAddr; 3] = [
            addrs.sender_v4.into(),
            addrs.sender_v6.into(),
            addrs.unrelated.into(),
        ];
        let mut matched = 0;
        for test in ALL_TESTS {
            for ip in ips {
                let domain = NameScheme::default().probe_domain(test.id, 7);
                let params = EvalParams {
                    ip,
                    domain: domain.clone(),
                    sender_local: "spf-test".into(),
                    sender_domain: domain,
                    helo: "probe.dns-lab.org".into(),
                };
                let mut eval = SpfEvaluator::new(params, SpfBehavior::default());
                let mut terms = vec!["all".to_string()];
                let mut step = eval.start();
                let done = loop {
                    match step {
                        EvalStep::Done(done) => break done,
                        EvalStep::NeedLookups(questions) => {
                            let answers = questions
                                .into_iter()
                                .map(|q| {
                                    let outcome = resolve(&server, &q, ip.is_ipv6());
                                    if let ResolveOutcome::Records(records) = &outcome {
                                        let texts =
                                            records.iter().filter_map(|r| r.rdata.txt_joined());
                                        for record in
                                            texts.filter_map(|t| SpfRecord::parse(&t).ok())
                                        {
                                            terms.extend(record.terms.iter().filter_map(
                                                |t| match t {
                                                    Term::Mechanism(_, m) => Some(format!("{m:?}")),
                                                    Term::Modifier(_) => None,
                                                },
                                            ));
                                        }
                                    }
                                    (q, outcome)
                                })
                                .collect();
                            step = eval.resume(answers);
                        }
                    }
                };
                if let Some(term) = &done.matched_term {
                    matched += 1;
                    assert!(terms.contains(term), "{} from {ip}: {term}", test.id);
                }
            }
        }
        assert!(
            matched >= ALL_TESTS.len(),
            "{matched} evaluations matched a term"
        );
    }
}
