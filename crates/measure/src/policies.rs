//! The 39 SPF test policies (§4.3.2 of the paper) and their on-the-fly
//! synthesis.
//!
//! Each test is identified by a `tNN` label embedded in the probe's From
//! domain. Given the labels left of the `tNN.mNNNNN` pair (the *path*)
//! and the query type, [`synthesize_probe`] produces the response the
//! authoritative server returns — policies, hint records, delays,
//! truncation and v6-only flags included. Nothing is stored; the
//! 27.8M-record logical zone exists only as this function (§4.5).

use mailval_dns::rr::{RData, RecordType};
use mailval_dns::server::AuthorityAnswer;
use mailval_dns::{Name, Record};
use mailval_mta::V6_ONLY_LABEL;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Identifiers and descriptions of all 39 test policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestPolicyId {
    /// The `tNN` label.
    pub id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// What the test elicits.
    pub description: &'static str,
}

/// The full catalog. The first eleven are the tests whose results the
/// paper discusses (§6.2, §7.1–§7.3); the rest exercise auxiliary
/// behaviors and feed the fingerprinting extension (§8). Test `tNN`
/// sits at index `NN - 1`, where [`test_by_id`] looks for it.
pub const ALL_TESTS: &[TestPolicyId] = &[
    TestPolicyId {
        id: "t01",
        name: "serial-parallel",
        description:
            "include-chain + a-hint with 100ms delays; infers serial vs parallel lookups (Fig. 3)",
    },
    TestPolicyId {
        id: "t02",
        name: "lookup-limits",
        description: "46-lookup include tree with 800ms delays; tests the 10-term limit (Fig. 4/5)",
    },
    TestPolicyId {
        id: "t03",
        name: "helo-check",
        description: "-all policy at the HELO identity; do MTAs check it? (§7.3)",
    },
    TestPolicyId {
        id: "t04",
        name: "syntax-main",
        description: "'ipv4' typo in the main policy; do MTAs keep evaluating? (§7.3)",
    },
    TestPolicyId {
        id: "t05",
        name: "syntax-child",
        description: "syntax error inside an included policy (§7.3)",
    },
    TestPolicyId {
        id: "t06",
        name: "void-lookups",
        description: "five dead 'a' hints; void-lookup limit (§7.3)",
    },
    TestPolicyId {
        id: "t07",
        name: "mx-fallback",
        description: "mx of a nonexistent name; RFC-forbidden A fallback (§7.3)",
    },
    TestPolicyId {
        id: "t08",
        name: "multi-record",
        description: "two SPF records at one name (§7.3)",
    },
    TestPolicyId {
        id: "t09",
        name: "tcp-only",
        description: "truncated UDP answers force TCP retrieval (§7.3)",
    },
    TestPolicyId {
        id: "t10",
        name: "ipv6-only",
        description: "included policy served only over IPv6 (§7.3)",
    },
    TestPolicyId {
        id: "t11",
        name: "mx-twenty",
        description: "mx with 20 exchanges; per-mx address-lookup limit (§7.3)",
    },
    TestPolicyId {
        id: "t12",
        name: "fail-all",
        description: "plain -all",
    },
    TestPolicyId {
        id: "t13",
        name: "softfail-all",
        description: "plain ~all",
    },
    TestPolicyId {
        id: "t14",
        name: "neutral-all",
        description: "plain ?all",
    },
    TestPolicyId {
        id: "t15",
        name: "pass-all",
        description: "plain +all",
    },
    TestPolicyId {
        id: "t16",
        name: "ip4-literal",
        description: "non-matching ip4 literal then -all",
    },
    TestPolicyId {
        id: "t17",
        name: "a-simple",
        description: "single a-hint",
    },
    TestPolicyId {
        id: "t18",
        name: "mx-simple",
        description: "mx with two live exchanges",
    },
    TestPolicyId {
        id: "t19",
        name: "redirect",
        description: "redirect= to a live policy",
    },
    TestPolicyId {
        id: "t20",
        name: "redirect-loop",
        description: "redirect= pointing at itself; loop protection",
    },
    TestPolicyId {
        id: "t21",
        name: "exists-macro",
        description: "exists:%{ir} macro expansion observable in the query name",
    },
    TestPolicyId {
        id: "t22",
        name: "ptr",
        description: "ptr mechanism (discouraged by RFC 7208 §5.5)",
    },
    TestPolicyId {
        id: "t23",
        name: "include-pass",
        description: "include whose child passes everything",
    },
    TestPolicyId {
        id: "t24",
        name: "include-chain-13",
        description: "13-deep include chain; limit placement",
    },
    TestPolicyId {
        id: "t25",
        name: "long-policy",
        description: "policy > 255 octets (multi-string TXT) and > 512-byte answer",
    },
    TestPolicyId {
        id: "t26",
        name: "cname-include",
        description: "include target behind a CNAME",
    },
    TestPolicyId {
        id: "t27",
        name: "uppercase",
        description: "policy spelled in uppercase",
    },
    TestPolicyId {
        id: "t28",
        name: "no-record",
        description: "NODATA at the policy name",
    },
    TestPolicyId {
        id: "t29",
        name: "empty-policy",
        description: "bare v=spf1",
    },
    TestPolicyId {
        id: "t30",
        name: "unknown-modifier",
        description: "unknown modifier must be ignored",
    },
    TestPolicyId {
        id: "t31",
        name: "exp-modifier",
        description: "exp= explanation; do MTAs fetch it?",
    },
    TestPolicyId {
        id: "t32",
        name: "slow-answer",
        description: "2s delay on the base policy; timeout tolerance",
    },
    TestPolicyId {
        id: "t33",
        name: "servfail-child",
        description: "SERVFAIL for an included policy; temperror handling",
    },
    TestPolicyId {
        id: "t34",
        name: "a-cidr4",
        description: "a-hint with /24 suffix",
    },
    TestPolicyId {
        id: "t35",
        name: "dual-cidr6",
        description: "a-hint with //64 and an ip6 literal",
    },
    TestPolicyId {
        id: "t36",
        name: "eleven-terms",
        description: "exactly 11 DNS terms; off-by-one limit enforcement",
    },
    TestPolicyId {
        id: "t37",
        name: "void-includes",
        description: "three includes of nonexistent names",
    },
    TestPolicyId {
        id: "t38",
        name: "split-txt",
        description: "policy split mid-mechanism across TXT strings",
    },
    TestPolicyId {
        id: "t39",
        name: "control-pass",
        description: "control: policy passes any sender",
    },
];

/// Look up a test by id label. The catalog lists `tNN` at index
/// `NN - 1`, so the id's two digits name its slot; any other id is not
/// in the catalog.
pub fn test_by_id(id: &str) -> Option<&'static TestPolicyId> {
    let [b't', tens @ b'0'..=b'9', ones @ b'0'..=b'9'] = *id.as_bytes() else {
        return None;
    };
    let number = usize::from(tens - b'0') * 10 + usize::from(ones - b'0');
    let slot = number.checked_sub(1).and_then(|i| ALL_TESTS.get(i));
    slot.filter(|t| t.id == id)
}

/// Addresses the synthesized hint records point at. `unrelated` never
/// matches the probe client (the probes are designed to fail, §4.3.2);
/// `sender_v4`/`sender_v6` are the apparatus's own addresses (the
/// NotifyEmail policy must pass, §4.3.1).
#[derive(Debug, Clone)]
pub struct SynthAddrs {
    /// An address unaffiliated with the apparatus (192.0.2.1 in the
    /// paper's Figure 3).
    pub unrelated: Ipv4Addr,
    /// The sending client's IPv4 address.
    pub sender_v4: Ipv4Addr,
    /// The sending client's IPv6 address.
    pub sender_v6: Ipv6Addr,
}

impl Default for SynthAddrs {
    fn default() -> Self {
        SynthAddrs {
            unrelated: Ipv4Addr::new(192, 0, 2, 1),
            sender_v4: Ipv4Addr::new(198, 51, 100, 25),
            sender_v6: "2001:db8:25::25".parse().expect("valid"),
        }
    }
}

fn txt(name: &Name, policy: &str) -> AuthorityAnswer {
    AuthorityAnswer::positive(vec![Record::new(
        name.clone(),
        60,
        RData::txt_from_str(policy),
    )])
}

fn a_record(name: &Name, addr: Ipv4Addr) -> AuthorityAnswer {
    AuthorityAnswer::positive(vec![Record::new(name.clone(), 60, RData::A(addr))])
}

fn aaaa_record(name: &Name, addr: Ipv6Addr) -> AuthorityAnswer {
    AuthorityAnswer::positive(vec![Record::new(name.clone(), 60, RData::Aaaa(addr))])
}

/// Synthesize the answer for a probe-suffix query.
///
/// * `testid` — the `tNN` label.
/// * `path` — labels left of `tNN.mNNNNN`, leftmost first (empty for
///   the base L0 name).
/// * `qname` — the full queried name (used as the owner of records).
/// * `base` — the L0 name's text, `tNN.mNNNNN.<suffix>` (targets of follow-up
///   mechanisms are spelled relative to it).
pub fn synthesize_probe(
    testid: &str,
    path: &[&str],
    qname: &Name,
    base: &str,
    qtype: RecordType,
    addrs: &SynthAddrs,
) -> AuthorityAnswer {
    let is_base = path.is_empty();
    let want_txt = qtype == RecordType::Txt;

    // The HELO identity `h.<base>` only has a policy for t03; everywhere
    // else it does not exist.
    if path == ["h"] {
        return if testid == "t03" && want_txt {
            txt(qname, "v=spf1 -all")
        } else {
            AuthorityAnswer::nxdomain()
        };
    }

    match testid {
        // --- Fig. 3: serial vs parallel -------------------------------
        "t01" => match (path, qtype) {
            ([], RecordType::Txt) => txt(
                qname,
                &format!("v=spf1 include:l1.{base} a:foo.{base} -all"),
            ),
            (["l1"], RecordType::Txt) => {
                txt(qname, &format!("v=spf1 include:l2.{base} ?all")).with_delay_ms(100)
            }
            (["l2"], RecordType::Txt) => {
                txt(qname, &format!("v=spf1 include:l3.{base} ?all")).with_delay_ms(100)
            }
            (["l3"], RecordType::Txt) => txt(qname, "v=spf1 ?all"),
            (["foo"], RecordType::A) => a_record(qname, addrs.unrelated),
            (["foo"], RecordType::Aaaa) => AuthorityAnswer::nodata(),
            _ => AuthorityAnswer::nxdomain(),
        },

        // --- Fig. 4/5: the 46-lookup stress tree -----------------------
        // L0 includes five 9-lookup subtrees s1..s5 plus one address
        // hint x46. Subtree DFS: r → a → c → f → h(A), g(A), d(A),
        // b → e(A). All subtree answers are delayed 800 ms.
        "t02" => {
            if is_base && want_txt {
                return txt(
                    qname,
                    &format!(
                        "v=spf1 include:s1.{base} include:s2.{base} include:s3.{base} \
                         include:s4.{base} include:s5.{base} a:x46.{base} -all"
                    ),
                );
            }
            let delayed = |answer: AuthorityAnswer| answer.with_delay_ms(800);
            if let (Some("x46"), RecordType::A | RecordType::Aaaa) = (path.first().copied(), qtype)
            {
                return delayed(a_record(qname, addrs.unrelated));
            }
            // Subtree nodes: path is [node, ..., subtree-root].
            let node = path.first().copied().unwrap_or("");
            match (node, qtype) {
                (s, RecordType::Txt) if s.starts_with('s') && path.len() == 1 => delayed(txt(
                    qname,
                    &format!("v=spf1 include:a.{qname} include:b.{qname} ?all"),
                )),
                ("a", RecordType::Txt) => delayed(txt(
                    qname,
                    &format!("v=spf1 include:c.{qname} a:d.{qname} ?all"),
                )),
                ("c", RecordType::Txt) => delayed(txt(
                    qname,
                    &format!("v=spf1 include:f.{qname} a:g.{qname} ?all"),
                )),
                ("f", RecordType::Txt) => delayed(txt(qname, &format!("v=spf1 a:h.{qname} ?all"))),
                ("b", RecordType::Txt) => delayed(txt(qname, &format!("v=spf1 a:e.{qname} ?all"))),
                ("d" | "e" | "g" | "h", RecordType::A | RecordType::Aaaa) => {
                    delayed(a_record(qname, addrs.unrelated))
                }
                _ => AuthorityAnswer::nxdomain(),
            }
        }

        // --- §7.3 behaviors --------------------------------------------
        "t03" => {
            if is_base && want_txt {
                txt(qname, "v=spf1 ?all")
            } else {
                AuthorityAnswer::nxdomain()
            }
        }
        "t04" => match (path, qtype) {
            ([], RecordType::Txt) => {
                txt(qname, &format!("v=spf1 ipv4:192.0.2.1 a:after.{base} -all"))
            }
            (["after"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t05" => match (path, qtype) {
            ([], RecordType::Txt) => txt(
                qname,
                &format!("v=spf1 include:child.{base} a:after.{base} -all"),
            ),
            (["child"], RecordType::Txt) => txt(qname, "v=spf1 ipv4:bogus -all"),
            (["after"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t06" => {
            if is_base && want_txt {
                txt(
                    qname,
                    &format!(
                        "v=spf1 a:v1.{base} a:v2.{base} a:v3.{base} a:v4.{base} a:v5.{base} ?all"
                    ),
                )
            } else {
                // v1..v5 deliberately do not resolve.
                AuthorityAnswer::nxdomain()
            }
        }
        "t07" => {
            if is_base && want_txt {
                txt(qname, &format!("v=spf1 mx:gone.{base} ?all"))
            } else {
                AuthorityAnswer::nxdomain()
            }
        }
        "t08" => {
            if is_base && want_txt {
                AuthorityAnswer::positive(vec![
                    Record::new(
                        qname.clone(),
                        60,
                        RData::txt_from_str(&format!("v=spf1 a:one.{base} -all")),
                    ),
                    Record::new(
                        qname.clone(),
                        60,
                        RData::txt_from_str(&format!("v=spf1 a:two.{base} -all")),
                    ),
                ])
            } else {
                match (path, qtype) {
                    (["one"] | ["two"], RecordType::A | RecordType::Aaaa) => {
                        a_record(qname, addrs.unrelated)
                    }
                    _ => AuthorityAnswer::nxdomain(),
                }
            }
        }
        "t09" => {
            if is_base && want_txt {
                let mut answer = txt(qname, "v=spf1 ?all");
                answer.force_tcp = true;
                answer
            } else {
                AuthorityAnswer::nxdomain()
            }
        }
        "t10" => match (path, qtype) {
            ([], RecordType::Txt) => txt(
                qname,
                &format!("v=spf1 include:p.{V6_ONLY_LABEL}.{base} ?all"),
            ),
            (["p", V6_ONLY_LABEL], RecordType::Txt) => {
                let mut answer = txt(qname, "v=spf1 ?all");
                answer.v6_only = true;
                answer
            }
            _ => AuthorityAnswer::nxdomain(),
        },
        "t11" => {
            if is_base && want_txt {
                return txt(qname, &format!("v=spf1 mx:many.{base} ?all"));
            }
            match (path, qtype) {
                (["many"], RecordType::Mx) => {
                    let records = (1..=20)
                        .map(|i| {
                            Record::new(
                                qname.clone(),
                                60,
                                RData::Mx {
                                    preference: i as u16,
                                    exchange: Name::parse(&format!("mx{i:02}.{qname}"))
                                        .expect("valid"),
                                },
                            )
                        })
                        .collect();
                    AuthorityAnswer::positive(records)
                }
                ([mx, "many"], RecordType::A | RecordType::Aaaa) if mx.starts_with("mx") => {
                    a_record(qname, addrs.unrelated)
                }
                _ => AuthorityAnswer::nxdomain(),
            }
        }

        // --- Simple results -------------------------------------------
        "t12" => simple_policy(is_base, want_txt, qname, "v=spf1 -all"),
        "t13" => simple_policy(is_base, want_txt, qname, "v=spf1 ~all"),
        "t14" => simple_policy(is_base, want_txt, qname, "v=spf1 ?all"),
        "t15" => simple_policy(is_base, want_txt, qname, "v=spf1 +all"),
        "t16" => simple_policy(is_base, want_txt, qname, "v=spf1 ip4:192.0.2.0/24 -all"),
        "t17" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 a:host.{base} -all")),
            (["host"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t18" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 mx:m.{base} -all")),
            (["m"], RecordType::Mx) => AuthorityAnswer::positive(vec![
                Record::new(
                    qname.clone(),
                    60,
                    RData::Mx {
                        preference: 10,
                        exchange: Name::parse(&format!("mxa.m.{base}")).expect("valid"),
                    },
                ),
                Record::new(
                    qname.clone(),
                    60,
                    RData::Mx {
                        preference: 20,
                        exchange: Name::parse(&format!("mxb.m.{base}")).expect("valid"),
                    },
                ),
            ]),
            (["mxa", "m"] | ["mxb", "m"], RecordType::A | RecordType::Aaaa) => {
                a_record(qname, addrs.unrelated)
            }
            _ => AuthorityAnswer::nxdomain(),
        },
        "t19" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 redirect=rd.{base}")),
            (["rd"], RecordType::Txt) => txt(qname, "v=spf1 ?all"),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t20" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 redirect=rl.{base}")),
            (["rl"], RecordType::Txt) => txt(qname, &format!("v=spf1 redirect=rl.{base}")),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t21" => {
            if is_base && want_txt {
                txt(qname, &format!("v=spf1 exists:%{{ir}}.ex.{base} ?all"))
            } else {
                // Any expansion under ex.<base> does not exist; the
                // *query name itself* is the observable.
                AuthorityAnswer::nxdomain()
            }
        }
        "t22" => simple_policy(is_base, want_txt, qname, "v=spf1 ptr ?all"),
        "t23" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 include:ok.{base} -all")),
            (["ok"], RecordType::Txt) => txt(qname, "v=spf1 +all"),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t24" => {
            if is_base && want_txt {
                return txt(qname, &format!("v=spf1 include:c1.{base} ?all"));
            }
            if want_txt && path.len() == 1 {
                if let Some(k) = path[0]
                    .strip_prefix('c')
                    .and_then(|n| n.parse::<u32>().ok())
                {
                    if k < 13 {
                        return txt(qname, &format!("v=spf1 include:c{}.{base} ?all", k + 1));
                    }
                    return txt(qname, "v=spf1 ?all");
                }
            }
            AuthorityAnswer::nxdomain()
        }
        "t25" => {
            if is_base && want_txt {
                // Pad past 255 octets (multi-string TXT) and past the
                // 512-byte UDP limit (truncation → TCP).
                let mut policy = String::from("v=spf1");
                for i in 0..40 {
                    policy.push_str(&format!(" ip4:203.0.113.{i}"));
                }
                policy.push_str(&format!(" a:end.{base} -all"));
                txt(qname, &policy)
            } else {
                match (path, qtype) {
                    (["end"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
                    _ => AuthorityAnswer::nxdomain(),
                }
            }
        }
        "t26" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 include:cn.{base} ?all")),
            (["cn"], RecordType::Txt) => {
                // CNAME chain answered in one response, as a real
                // authoritative server does.
                let target = Name::parse(&format!("real.{base}")).expect("valid");
                AuthorityAnswer::positive(vec![
                    Record::new(qname.clone(), 60, RData::Cname(target.clone())),
                    Record::new(target, 60, RData::txt_from_str("v=spf1 ?all")),
                ])
            }
            (["real"], RecordType::Txt) => txt(qname, "v=spf1 ?all"),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t27" => match (path, qtype) {
            ([], RecordType::Txt) => {
                txt(qname, &format!("V=SPF1 A:CASED.{base} -ALL").to_uppercase())
            }
            (["cased"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t28" => {
            if is_base && want_txt {
                AuthorityAnswer::nodata()
            } else {
                AuthorityAnswer::nxdomain()
            }
        }
        "t29" => simple_policy(is_base, want_txt, qname, "v=spf1"),
        "t30" => match (path, qtype) {
            ([], RecordType::Txt) => {
                txt(qname, &format!("v=spf1 mailval-unknown=x a:um.{base} -all"))
            }
            (["um"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t31" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 -all exp=why.{base}")),
            (["why"], RecordType::Txt) => txt(qname, "You are not authorized to send as %{d}"),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t32" => {
            if is_base && want_txt {
                txt(qname, "v=spf1 ?all").with_delay_ms(2_000)
            } else {
                AuthorityAnswer::nxdomain()
            }
        }
        "t33" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 include:sf.{base} ?all")),
            (["sf"], _) => AuthorityAnswer {
                rcode: mailval_dns::wire::Rcode::ServFail,
                ..AuthorityAnswer::nodata()
            },
            _ => AuthorityAnswer::nxdomain(),
        },
        "t34" => match (path, qtype) {
            ([], RecordType::Txt) => txt(qname, &format!("v=spf1 a:c24.{base}/24 -all")),
            (["c24"], RecordType::A | RecordType::Aaaa) => a_record(qname, addrs.unrelated),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t35" => match (path, qtype) {
            ([], RecordType::Txt) => txt(
                qname,
                &format!("v=spf1 a:c6.{base}//64 ip6:2001:db8:ffff::/48 -all"),
            ),
            (["c6"], RecordType::Aaaa) => {
                aaaa_record(qname, "2001:db8:aaaa::1".parse().expect("valid"))
            }
            (["c6"], RecordType::A) => AuthorityAnswer::nodata(),
            _ => AuthorityAnswer::nxdomain(),
        },
        "t36" => {
            if is_base && want_txt {
                // Exactly 11 DNS terms: a strict validator permerrors on
                // the 11th; an off-by-one validator completes.
                let mut policy = String::from("v=spf1");
                for i in 1..=11 {
                    policy.push_str(&format!(" a:k{i}.{base}"));
                }
                policy.push_str(" ?all");
                txt(qname, &policy)
            } else {
                match qtype {
                    RecordType::A | RecordType::Aaaa
                        if path.len() == 1 && path[0].starts_with('k') =>
                    {
                        a_record(qname, addrs.unrelated)
                    }
                    _ => AuthorityAnswer::nxdomain(),
                }
            }
        }
        "t37" => {
            if is_base && want_txt {
                txt(
                    qname,
                    &format!(
                        "v=spf1 include:nx1.{base} include:nx2.{base} include:nx3.{base} ?all"
                    ),
                )
            } else {
                AuthorityAnswer::nxdomain()
            }
        }
        "t38" => {
            if is_base && want_txt {
                // Split mid-mechanism across two character-strings: RFC
                // 7208 §3.3 requires concatenation without spaces.
                let part1 = "v=spf1 a:spl".to_string();
                let part2 = format!("it.{base} -all");
                AuthorityAnswer::positive(vec![Record::new(
                    qname.clone(),
                    60,
                    RData::Txt(vec![part1.into_bytes(), part2.into_bytes()]),
                )])
            } else {
                match (path, qtype) {
                    (["split"], RecordType::A | RecordType::Aaaa) => {
                        a_record(qname, addrs.unrelated)
                    }
                    _ => AuthorityAnswer::nxdomain(),
                }
            }
        }
        "t39" => simple_policy(is_base, want_txt, qname, "v=spf1 +all"),
        _ => AuthorityAnswer::nxdomain(),
    }
}

fn simple_policy(is_base: bool, want_txt: bool, qname: &Name, policy: &str) -> AuthorityAnswer {
    if is_base && want_txt {
        txt(qname, policy)
    } else if is_base {
        AuthorityAnswer::nodata()
    } else {
        AuthorityAnswer::nxdomain()
    }
}

/// Synthesize the answer for a notification-suffix query (§4.3.1): the
/// NotifyEmail policy authenticates the real sender and embeds the
/// serial-vs-parallel include chain; DKIM key and DMARC policy names are
/// served too.
pub fn synthesize_notify(
    path: &[&str],
    qname: &Name,
    base: &str,
    qtype: RecordType,
    addrs: &SynthAddrs,
    dkim_key_record: &str,
    dmarc_record: &str,
) -> AuthorityAnswer {
    match (path, qtype) {
        ([], RecordType::Txt) => txt(
            qname,
            &format!("v=spf1 include:l1.{base} a:sender.{base} -all"),
        ),
        (["l1"], RecordType::Txt) => {
            txt(qname, &format!("v=spf1 include:l2.{base} ?all")).with_delay_ms(100)
        }
        (["l2"], RecordType::Txt) => {
            txt(qname, &format!("v=spf1 include:l3.{base} ?all")).with_delay_ms(100)
        }
        (["l3"], RecordType::Txt) => txt(qname, "v=spf1 ?all"),
        (["sender"], RecordType::A) => a_record(qname, addrs.sender_v4),
        (["sender"], RecordType::Aaaa) => aaaa_record(qname, addrs.sender_v6),
        (["sel1", "_domainkey"], RecordType::Txt) => txt(qname, dkim_key_record),
        (["_dmarc"], RecordType::Txt) => txt(qname, dmarc_record),
        ([], _) | (["l1" | "l2" | "l3" | "sender"], _) => AuthorityAnswer::nodata(),
        _ => AuthorityAnswer::nxdomain(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(dead_code)]
    fn base() -> Name {
        Name::parse("t01.m00001.spf-test.dns-lab.org").unwrap()
    }

    fn addrs() -> SynthAddrs {
        SynthAddrs::default()
    }

    fn q(testid: &str, path: &[&str], qtype: RecordType) -> AuthorityAnswer {
        let b = Name::parse(&format!("{testid}.m00001.spf-test.dns-lab.org")).unwrap();
        let mut qname = b.clone();
        for label in path.iter().rev() {
            qname = qname.prepend(label).unwrap();
        }
        synthesize_probe(testid, path, &qname, b.as_str(), qtype, &addrs())
    }

    fn policy_text(answer: &AuthorityAnswer) -> String {
        answer.answers[0].rdata.txt_joined().unwrap()
    }

    #[test]
    fn catalog_has_39_unique_tests() {
        assert_eq!(ALL_TESTS.len(), 39);
        let mut ids = std::collections::HashSet::new();
        for t in ALL_TESTS {
            assert!(ids.insert(t.id), "dup {}", t.id);
        }
        assert!(test_by_id("t07").is_some());
        assert!(test_by_id("t40").is_none());
    }

    #[test]
    fn test_by_id_finds_every_catalog_id_and_nothing_else() {
        for t in ALL_TESTS {
            let found = test_by_id(t.id).unwrap();
            assert_eq!((found.id, found.name), (t.id, t.name));
        }
        for id in ["t00", "t40", "t1", "T01", "t01 ", "", "t", "t001", "x01"] {
            assert!(test_by_id(id).is_none(), "{id:?}");
        }
    }

    #[test]
    fn t01_structure() {
        let l0 = q("t01", &[], RecordType::Txt);
        assert!(policy_text(&l0).contains("include:l1."));
        assert!(policy_text(&l0).contains("a:foo."));
        let l1 = q("t01", &["l1"], RecordType::Txt);
        assert_eq!(l1.delay_ms, 100);
        assert!(policy_text(&l1).contains("include:l2."));
        let l3 = q("t01", &["l3"], RecordType::Txt);
        assert_eq!(l3.delay_ms, 0);
        assert_eq!(policy_text(&l3), "v=spf1 ?all");
        let foo = q("t01", &["foo"], RecordType::A);
        assert!(matches!(foo.answers[0].rdata, RData::A(a) if a == Ipv4Addr::new(192,0,2,1)));
    }

    #[test]
    fn t02_tree_produces_exactly_46_lookups() {
        // Walk the tree as a strict DFS evaluator with no limits would,
        // counting lookups.
        use mailval_spf::record::{Mechanism, SpfRecord, Term};
        let addrs = addrs();
        let b = Name::parse("t02.m00001.spf-test.dns-lab.org").unwrap();
        let mut count = 0usize;
        let mut stack: Vec<(Name, RecordType)> = Vec::new();
        let l0 = synthesize_probe("t02", &[], &b, b.as_str(), RecordType::Txt, &addrs);
        let mut policies = vec![policy_text(&l0)];
        let scheme = crate::names::NameScheme::default();
        while let Some(policy) = policies.pop() {
            let record = SpfRecord::parse(&policy).unwrap();
            // DFS: push terms in reverse so the first term pops first.
            let mut local: Vec<(Name, RecordType)> = Vec::new();
            for term in &record.terms {
                match term {
                    Term::Mechanism(_, Mechanism::Include { domain_spec }) => {
                        local.push((Name::parse(domain_spec).unwrap(), RecordType::Txt));
                    }
                    Term::Mechanism(_, Mechanism::A { domain_spec, .. }) => {
                        local.push((
                            Name::parse(domain_spec.as_ref().unwrap()).unwrap(),
                            RecordType::A,
                        ));
                    }
                    _ => {}
                }
            }
            for item in local.into_iter().rev() {
                stack.push(item);
            }
            // Process next lookup.
            while let Some((name, rtype)) = stack.pop() {
                count += 1;
                let path: Vec<&str> = scheme.parse(&name).unwrap().path.labels().collect();
                let answer = synthesize_probe("t02", &path, &name, b.as_str(), rtype, &addrs);
                assert_eq!(answer.delay_ms, 800, "{name} should be delayed");
                if rtype == RecordType::Txt {
                    policies.push(policy_text(&answer));
                    break;
                }
            }
        }
        assert_eq!(count, 46, "the stress tree must induce 46 lookups");
    }

    #[test]
    fn t03_helo_policy() {
        let helo = q("t03", &["h"], RecordType::Txt);
        assert_eq!(policy_text(&helo), "v=spf1 -all");
        // Other tests have no HELO policy.
        let other = q("t05", &["h"], RecordType::Txt);
        assert_eq!(other.rcode, mailval_dns::wire::Rcode::NxDomain);
    }

    #[test]
    fn t06_void_names_nxdomain() {
        for v in ["v1", "v2", "v5"] {
            let a = q("t06", &[v], RecordType::A);
            assert_eq!(a.rcode, mailval_dns::wire::Rcode::NxDomain);
        }
    }

    #[test]
    fn t08_two_records() {
        let l0 = q("t08", &[], RecordType::Txt);
        assert_eq!(l0.answers.len(), 2);
    }

    #[test]
    fn t09_forces_tcp() {
        let l0 = q("t09", &[], RecordType::Txt);
        assert!(l0.force_tcp);
    }

    #[test]
    fn t10_include_is_v6_only() {
        let l0 = q("t10", &[], RecordType::Txt);
        assert!(!l0.v6_only);
        assert!(policy_text(&l0).contains("include:p.v6only."));
        let inc = q("t10", &["p", "v6only"], RecordType::Txt);
        assert!(inc.v6_only);
    }

    #[test]
    fn t11_twenty_exchanges() {
        let mx = q("t11", &["many"], RecordType::Mx);
        assert_eq!(mx.answers.len(), 20);
        let addr = q("t11", &["mx07", "many"], RecordType::A);
        assert_eq!(addr.answers.len(), 1);
    }

    #[test]
    fn t25_policy_is_long() {
        let l0 = q("t25", &[], RecordType::Txt);
        let text = policy_text(&l0);
        assert!(text.len() > 255, "len {}", text.len());
        if let RData::Txt(strings) = &l0.answers[0].rdata {
            assert!(strings.len() >= 2, "must be split into strings");
        }
    }

    #[test]
    fn t38_split_mid_mechanism() {
        let l0 = q("t38", &[], RecordType::Txt);
        let text = policy_text(&l0);
        assert!(text.contains("a:split."), "{text}");
    }

    #[test]
    fn notify_synthesis() {
        let addrs = addrs();
        let b = Name::parse("d00042.dsav-mail.dns-lab.org").unwrap();
        let l0 = synthesize_notify(
            &[],
            &b,
            b.as_str(),
            RecordType::Txt,
            &addrs,
            "v=DKIM1; p=x",
            "v=DMARC1; p=reject",
        );
        assert!(policy_text(&l0).contains("a:sender."));
        let sender = synthesize_notify(
            &["sender"],
            &b.prepend("sender").unwrap(),
            b.as_str(),
            RecordType::A,
            &addrs,
            "",
            "",
        );
        assert!(matches!(sender.answers[0].rdata, RData::A(a) if a == addrs.sender_v4));
        let dmarc = synthesize_notify(
            &["_dmarc"],
            &b.prepend("_dmarc").unwrap(),
            b.as_str(),
            RecordType::Txt,
            &addrs,
            "",
            "v=DMARC1; p=reject",
        );
        assert_eq!(policy_text(&dmarc), "v=DMARC1; p=reject");
    }

    #[test]
    fn every_test_serves_a_base_answer() {
        for t in ALL_TESTS {
            let answer = q(t.id, &[], RecordType::Txt);
            // t28 deliberately serves NODATA; everything else serves at
            // least one TXT record.
            if t.id == "t28" {
                assert!(answer.answers.is_empty());
            } else {
                assert!(
                    !answer.answers.is_empty(),
                    "{} must serve a base policy",
                    t.id
                );
            }
        }
    }
}
