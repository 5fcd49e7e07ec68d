//! Query-name encoding and attribution (§4.4–§4.5 of the paper).
//!
//! Probe From addresses follow
//! `spf-test@<testid>.<mtaid>.spf-test.dns-lab.org`; notification From
//! addresses follow `spf-test@<domainid>.dsav-mail.dns-lab.org`. Every
//! follow-up name a test policy induces (include targets, `a`/`mx`
//! hints) carries the same identifying labels, e.g.
//! `l1.t01.m00042.spf-test.dns-lab.org`, so a single DNS query suffices
//! to attribute activity to one MTA and one test even when thousands of
//! MTAs validate simultaneously.

use mailval_dns::Name;
use mailval_smtp::EmailAddress;
use std::sync::LazyLock;

/// The apparatus's name scheme: suffixes and label construction.
#[derive(Debug, Clone)]
pub struct NameScheme {
    /// Suffix for probe experiments (`spf-test.dns-lab.org` in the
    /// paper).
    pub probe_suffix: Name,
    /// Suffix for the notification campaign (`dsav-mail.dns-lab.org`).
    pub notify_suffix: Name,
}

impl Default for NameScheme {
    fn default() -> Self {
        NameScheme {
            probe_suffix: Name::parse("spf-test.dns-lab.org").expect("valid"),
            notify_suffix: Name::parse("dsav-mail.dns-lab.org").expect("valid"),
        }
    }
}

/// The label a probe's HELO identity adds to its From-domain.
const HELO_LABEL: &str = "h";

/// The identity of a query name under one of the apparatus suffixes,
/// borrowed from the name's text: a parse copies and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedName<'a> {
    /// `t01`..`t39` for probe names; `None` for notification names.
    pub testid: Option<&'a str>,
    /// The number in a probe name's `m...` label, if it is one.
    pub host_index: Option<usize>,
    /// The number in a notification name's `d...` label, if it is one.
    pub domain_index: Option<usize>,
    /// The labels left of the identifying ones.
    pub path: PolicyPath<'a>,
    /// The base (L0) name's text: the identifying labels and the suffix,
    /// e.g. `t01.m00042.spf-test.dns-lab.org`.
    pub base: &'a str,
}

/// The policy path of a parsed name: the labels left of the identifying
/// ones, leftmost first, as the dotted prefix of the name's text (`l1`,
/// `sel1._domainkey`; empty for the base L0 name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyPath<'a>(&'a str);

impl<'a> PolicyPath<'a> {
    /// The dotted text.
    pub fn as_str(self) -> &'a str {
        self.0
    }

    /// True for the base name's path.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The labels, leftmost first.
    pub fn labels(self) -> std::str::SplitTerminator<'a, char> {
        self.0.split_terminator('.')
    }

    /// The number of labels: one more than the dots, since no label is
    /// empty; none for the base name's path.
    pub fn label_count(self) -> usize {
        let dots = self.0.bytes().filter(|&b| b == b'.').count();
        dots + usize::from(!self.0.is_empty())
    }

    /// The leftmost label.
    pub fn first(self) -> Option<&'a str> {
        self.labels().next()
    }

    /// The labels after the first, as dotted text: `many` for
    /// `mx07.many`, empty for a one-label path.
    pub fn tail(self) -> &'a str {
        self.0.split_once('.').map_or("", |(_, tail)| tail)
    }
}

impl NameScheme {
    /// The name under the probe suffix that identifies `host_index`,
    /// `m{host_index:05}.{probe_suffix}`; every probe of the host extends
    /// it.
    pub fn probe_host(&self, host_index: usize) -> Name {
        let mtaid = format!("m{host_index:05}");
        self.probe_suffix.prepend(&mtaid).expect("labels fit")
    }

    /// Base (L0) From-domain for a probe against `host_index` under test
    /// `testid`.
    pub fn probe_domain(&self, testid: &str, host_index: usize) -> Name {
        Self::probe_domain_under(&self.probe_host(host_index), testid)
    }

    /// Base (L0) From-domain for a probe under test `testid` against the
    /// host named by `probe_host` ([`NameScheme::probe_host`]).
    pub fn probe_domain_under(probe_host: &Name, testid: &str) -> Name {
        probe_host.prepend(testid).expect("labels fit")
    }

    /// Probe From address (§4.4).
    pub fn probe_from(&self, testid: &str, host_index: usize) -> EmailAddress {
        Self::sender_at(self.probe_domain(testid, host_index))
    }

    /// The apparatus's sender address at a From-domain:
    /// `spf-test@{domain}`.
    pub fn sender_at(domain: Name) -> EmailAddress {
        EmailAddress::new("spf-test", domain)
    }

    /// Base From-domain for the notification email to domain
    /// `domain_index`: `d{domain_index:05}.{notify_suffix}`.
    pub fn notify_domain(&self, domain_index: usize) -> Name {
        let domainid = format!("d{domain_index:05}");
        self.notify_suffix.prepend(&domainid).expect("labels fit")
    }

    /// Notification From address.
    pub fn notify_from(&self, domain_index: usize) -> EmailAddress {
        Self::sender_at(self.notify_domain(domain_index))
    }

    /// HELO identity used by the probe client for `testid`/`host_index`
    /// (the HELO-check test policy publishes a policy at this name).
    pub fn probe_helo(&self, testid: &str, host_index: usize) -> Name {
        let domain = self.probe_domain(testid, host_index);
        domain.prepend(HELO_LABEL).expect("labels fit")
    }

    /// The text of the HELO identity under a probe From-domain,
    /// `h.{probe_domain}`: [`NameScheme::probe_helo`] as the client
    /// sends it.
    pub fn helo_under(probe_domain: &Name) -> String {
        let domain = probe_domain.as_str();
        let mut helo = String::with_capacity(HELO_LABEL.len() + 1 + domain.len());
        helo.push_str(HELO_LABEL);
        helo.push('.');
        helo.push_str(domain);
        helo
    }

    /// The scheme every query log is attributed under:
    /// [`NameScheme::default`], shared.
    pub fn standard() -> &'static NameScheme {
        static STANDARD: LazyLock<NameScheme> = LazyLock::new(NameScheme::default);
        &STANDARD
    }

    /// Attribute a query name to (test, host or domain, path). Returns `None`
    /// for names outside both apparatus suffixes.
    pub fn parse<'a>(&self, name: &'a Name) -> Option<ParsedName<'a>> {
        // `left` is `path....testid.mtaid` or `path....domainid`.
        let (left, probe) = match name.strip_suffix(&self.probe_suffix) {
            Some(left) => (left, true),
            None => (name.strip_suffix(&self.notify_suffix)?, false),
        };
        let (rest, entity) = split_last(left);
        let (testid, path) = if probe {
            let (path, testid) = split_last(rest?);
            if !entity.starts_with('m') || !testid.starts_with('t') {
                return None;
            }
            (Some(testid), path)
        } else if entity.starts_with('d') {
            (None, rest)
        } else {
            return None;
        };
        // The id label starts with an ASCII letter.
        let index = entity[1..].parse().ok();
        let text = name.as_str();
        let (path, base) = path.map_or(("", text), |path| (path, &text[path.len() + 1..]));
        Some(ParsedName {
            testid,
            host_index: testid.and(index),
            domain_index: index.filter(|_| testid.is_none()),
            path: PolicyPath(path),
            base,
        })
    }
}

/// Dotted text split at its last dot: the labels before it, if any, and
/// the last label.
fn split_last(text: &str) -> (Option<&str>, &str) {
    // A byte search: `rsplit_once('.')` costs several times as much here.
    // The dot is ASCII, so both sides of it are character boundaries.
    match text.bytes().rposition(|b| b == b'.') {
        Some(dot) => (Some(&text[..dot]), &text[dot + 1..]),
        None => (None, text),
    }
}

/// The owned parse and attribution that [`ParsedName`] replaced, kept
/// as the reference the borrowed parse, the query-record codec and the
/// authority are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{NameScheme, ParsedName};
    use mailval_crypto::bigint::{Rng64, SplitMix64};
    use mailval_dns::Name;

    /// A parsed query name, every part owned.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct OwnedParse {
        pub(crate) testid: Option<String>,
        pub(crate) entity: String,
        pub(crate) path: Vec<String>,
    }

    /// Attribution of one observed query, as query records once stored
    /// it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Attribution {
        pub(crate) testid: Option<String>,
        pub(crate) host_index: Option<usize>,
        pub(crate) domain_index: Option<usize>,
        pub(crate) path: Vec<String>,
    }

    pub(crate) fn parse(scheme: &NameScheme, name: &Name) -> Option<OwnedParse> {
        fn path(rest: Option<&str>) -> Vec<String> {
            rest.map_or_else(Vec::new, |rest| {
                rest.split('.').map(str::to_string).collect()
            })
        }
        if let Some(left) = name.strip_suffix(&scheme.probe_suffix) {
            let mut labels = left.rsplitn(3, '.');
            let mtaid = labels.next()?;
            let testid = labels.next()?;
            if !mtaid.starts_with('m') || !testid.starts_with('t') {
                return None;
            }
            return Some(OwnedParse {
                testid: Some(testid.to_string()),
                entity: mtaid.to_string(),
                path: path(labels.next()),
            });
        }
        if let Some(left) = name.strip_suffix(&scheme.notify_suffix) {
            let mut labels = left.rsplitn(2, '.');
            let domainid = labels.next()?;
            if !domainid.starts_with('d') {
                return None;
            }
            return Some(OwnedParse {
                testid: None,
                entity: domainid.to_string(),
                path: path(labels.next()),
            });
        }
        None
    }

    /// What the authority logged for `qname`.
    pub(crate) fn attribute(scheme: &NameScheme, qname: &Name) -> Option<Attribution> {
        let OwnedParse {
            testid,
            entity,
            path,
        } = parse(scheme, qname)?;
        let index = |prefix| entity.strip_prefix(prefix)?.parse().ok();
        Some(Attribution {
            host_index: testid.is_some().then(|| index('m')).flatten(),
            domain_index: testid.is_none().then(|| index('d')).flatten(),
            testid,
            path,
        })
    }

    /// The base (L0) name the authority rebuilt from a parse.
    pub(crate) fn base_of(scheme: &NameScheme, parsed: &OwnedParse) -> Name {
        match &parsed.testid {
            Some(testid) => scheme
                .probe_suffix
                .prepend(&parsed.entity)
                .and_then(|host| host.prepend(testid)),
            None => scheme.notify_suffix.prepend(&parsed.entity),
        }
        .expect("labels of a valid name")
    }

    /// The attribution a borrowed parse stands for.
    pub(crate) fn owned(parsed: ParsedName<'_>) -> Attribution {
        Attribution {
            testid: parsed.testid.map(str::to_string),
            host_index: parsed.host_index,
            domain_index: parsed.domain_index,
            path: parsed.path.labels().map(str::to_string).collect(),
        }
    }

    /// `count` names drawn at seed `seed` from labels that parse, labels
    /// that almost parse (`m`, `mx`, `m+5`, `dfoo`, an index past
    /// `usize`) and foreign suffixes, with paths of zero to four labels.
    pub(crate) fn sweep(seed: u64, count: usize) -> Vec<Name> {
        const SUFFIXES: &[&str] = &[
            "spf-test.dns-lab.org",
            "dsav-mail.dns-lab.org",
            "dns-lab.org",
            "example.com",
        ];
        const IDS: &[&str] = &[
            "t01",
            "t39",
            "t",
            "tx",
            "x01",
            "m00042",
            "m7",
            "m",
            "mx",
            "m+5",
            "d00012",
            "d3",
            "d",
            "dfoo",
            "d99999999999999999999999",
        ];
        const PATH: &[&str] = &[
            "l1",
            "l3",
            "h",
            "foo",
            "sel1",
            "_domainkey",
            "_dmarc",
            "sender",
            "many",
            "mx07",
            "v6only",
            "p",
            "t02",
            "m00001",
            "d00001",
        ];
        let mut rng = SplitMix64::new(seed);
        let mut pick = |from: &[&'static str]| from[rng.next_u64() as usize % from.len()];
        (0..count)
            .map(|_| {
                let mut labels = Vec::new();
                for _ in 0..pick(&["0", "1", "2", "3", "4"]).parse::<usize>().unwrap() {
                    labels.push(pick(PATH));
                }
                for _ in 0..pick(&["0", "1", "2", "2", "2"]).parse::<usize>().unwrap() {
                    labels.push(pick(IDS));
                }
                labels.push(pick(SUFFIXES));
                Name::parse(&labels.join(".")).unwrap()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> NameScheme {
        NameScheme::default()
    }

    fn labels(parsed: ParsedName<'_>) -> Vec<&str> {
        parsed.path.labels().collect()
    }

    #[test]
    fn probe_from_matches_paper_template() {
        let s = scheme();
        let from = s.probe_from("t01", 42);
        assert_eq!(from.to_string(), "spf-test@t01.m00042.spf-test.dns-lab.org");
    }

    #[test]
    fn notify_from_matches_paper_template() {
        let s = scheme();
        let from = s.notify_from(7);
        assert_eq!(from.to_string(), "spf-test@d00007.dsav-mail.dns-lab.org");
    }

    #[test]
    fn attribution_roundtrip_probe() {
        let s = scheme();
        let base = s.probe_domain("t05", 3);
        let parsed = s.parse(&base).unwrap();
        assert_eq!(parsed.testid, Some("t05"));
        assert_eq!(parsed.host_index, Some(3));
        assert_eq!(parsed.domain_index, None);
        assert!(parsed.path.is_empty());
        assert_eq!(parsed.base, base.as_str());

        let follow = base.prepend("l1").unwrap();
        let parsed = s.parse(&follow).unwrap();
        assert_eq!(parsed.testid, Some("t05"));
        assert_eq!(labels(parsed), ["l1"]);
        assert_eq!(parsed.host_index, Some(3));
        assert_eq!(parsed.base, base.as_str());
    }

    #[test]
    fn attribution_roundtrip_notify() {
        let s = scheme();
        let base = s.notify_domain(12);
        let parsed = s.parse(&base).unwrap();
        assert_eq!(parsed.testid, None);
        assert_eq!(parsed.domain_index, Some(12));
        assert_eq!(parsed.host_index, None);

        // DKIM key / DMARC policy names attribute too.
        let dkim = Name::parse("sel1._domainkey.d00012.dsav-mail.dns-lab.org").unwrap();
        let parsed = s.parse(&dkim).unwrap();
        assert_eq!(parsed.domain_index, Some(12));
        assert_eq!(labels(parsed), ["sel1", "_domainkey"]);
        assert_eq!(parsed.path.tail(), "_domainkey");
        assert_eq!(parsed.base, base.as_str());

        let dmarc = Name::parse("_dmarc.d00012.dsav-mail.dns-lab.org").unwrap();
        let parsed = s.parse(&dmarc).unwrap();
        assert_eq!(labels(parsed), ["_dmarc"]);
        assert_eq!(parsed.path.tail(), "");
    }

    #[test]
    fn multi_label_paths() {
        let s = scheme();
        let deep = Name::parse("h.e.c.a.n01.t02.m00100.spf-test.dns-lab.org").unwrap();
        let parsed = s.parse(&deep).unwrap();
        assert_eq!(parsed.testid, Some("t02"));
        assert_eq!(parsed.path.as_str(), "h.e.c.a.n01");
        assert_eq!(labels(parsed), ["h", "e", "c", "a", "n01"]);
        assert_eq!(parsed.path.first(), Some("h"));
        assert_eq!(parsed.path.tail(), "e.c.a.n01");
        assert_eq!(parsed.base, "t02.m00100.spf-test.dns-lab.org");
    }

    #[test]
    fn foreign_names_rejected() {
        let s = scheme();
        assert_eq!(s.parse(&Name::parse("example.com").unwrap()), None);
        assert_eq!(s.parse(&s.probe_suffix), None);
        // Malformed ids (missing t/m prefixes).
        assert_eq!(
            s.parse(&Name::parse("x01.y02.spf-test.dns-lab.org").unwrap()),
            None
        );
    }

    #[test]
    fn helo_name_under_test_domain() {
        let s = scheme();
        let helo = s.probe_helo("t03", 9);
        assert_eq!(helo.to_string(), "h.t03.m00009.spf-test.dns-lab.org");
        let domain = NameScheme::probe_domain_under(&s.probe_host(9), "t03");
        assert_eq!(domain, s.probe_domain("t03", 9));
        assert_eq!(NameScheme::helo_under(&domain), helo.to_string());
        let parsed = s.parse(&helo).unwrap();
        assert_eq!(labels(parsed), ["h"]);
    }

    #[test]
    fn borrowed_parse_matches_the_owned_reference_on_a_seeded_sweep() {
        let s = NameScheme::standard();
        let names = reference::sweep(0x5eed, 20_000);
        let mut parsed = 0;
        for name in &names {
            let view = s.parse(name);
            assert_eq!(
                view.map(reference::owned),
                reference::attribute(s, name),
                "{name}"
            );
            if let Some(view) = view {
                let owned = reference::parse(s, name).unwrap();
                assert_eq!(view.base, reference::base_of(s, &owned).as_str(), "{name}");
                assert_eq!(view.path.label_count(), owned.path.len(), "{name}");
                parsed += 1;
            }
        }
        // The sweep reaches both outcomes, and unnumbered ids.
        assert!(
            parsed > names.len() / 20 && parsed < names.len() / 2,
            "{parsed}"
        );
        let unnumbered = names
            .iter()
            .filter_map(|n| s.parse(n))
            .filter(|p| p.host_index.or(p.domain_index).is_none())
            .count();
        assert!(unnumbered > 0);
    }
}
