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

/// Parsed identity of a query name under one of the apparatus suffixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedName {
    /// `t01`..`t39` for probe names; `None` for notification names.
    pub testid: Option<String>,
    /// The MTA (`m...`) or domain (`d...`) identifier.
    pub entity: String,
    /// Labels left of the identifying pair, leftmost first (the policy
    /// path, e.g. `["l1"]` or `["foo"]`; empty for the base L0 name).
    pub path: Vec<String>,
}

impl NameScheme {
    /// The mtaid label for host index `i`.
    pub fn mtaid(&self, host_index: usize) -> String {
        format!("m{host_index:05}")
    }

    /// The domainid label for domain index `i`.
    pub fn domainid(&self, domain_index: usize) -> String {
        format!("d{domain_index:05}")
    }

    /// The name under the probe suffix that identifies `host_index`,
    /// `{mtaid}.{probe_suffix}`; every probe of the host extends it.
    pub fn probe_host(&self, host_index: usize) -> Name {
        self.probe_suffix
            .prepend(&self.mtaid(host_index))
            .expect("labels fit")
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
    /// `domain_index`.
    pub fn notify_domain(&self, domain_index: usize) -> Name {
        self.notify_suffix
            .prepend(&self.domainid(domain_index))
            .expect("labels fit")
    }

    /// Notification From address.
    pub fn notify_from(&self, domain_index: usize) -> EmailAddress {
        Self::sender_at(self.notify_domain(domain_index))
    }

    /// HELO identity used by the probe client for `testid`/`host_index`
    /// (the HELO-check test policy publishes a policy at this name).
    pub fn probe_helo(&self, testid: &str, host_index: usize) -> Name {
        Self::follow_up(&self.probe_domain(testid, host_index), HELO_LABEL)
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

    /// A follow-up name under a base domain: `{label}.{base}`.
    pub fn follow_up(base: &Name, label: &str) -> Name {
        base.prepend(label).expect("labels fit")
    }

    /// Attribute a query name to (testid, entity, path). Returns `None`
    /// for names outside both apparatus suffixes.
    pub fn parse(&self, name: &Name) -> Option<ParsedName> {
        // Labels left of the identifying ones, leftmost first.
        fn path(rest: Option<&str>) -> Vec<String> {
            rest.map_or_else(Vec::new, |rest| {
                rest.split('.').map(str::to_string).collect()
            })
        }
        if let Some(left) = name.strip_suffix(&self.probe_suffix) {
            // left = path....testid.mtaid
            let mut labels = left.rsplitn(3, '.');
            let mtaid = labels.next()?;
            let testid = labels.next()?;
            if !mtaid.starts_with('m') || !testid.starts_with('t') {
                return None;
            }
            return Some(ParsedName {
                testid: Some(testid.to_string()),
                entity: mtaid.to_string(),
                path: path(labels.next()),
            });
        }
        if let Some(left) = name.strip_suffix(&self.notify_suffix) {
            // left = path....domainid
            let mut labels = left.rsplitn(2, '.');
            let domainid = labels.next()?;
            if !domainid.starts_with('d') {
                // _dmarc.<domainid>... parses with domainid in last slot;
                // names like `_dmarc.d00001.suffix` have the id last.
                return None;
            }
            return Some(ParsedName {
                testid: None,
                entity: domainid.to_string(),
                path: path(labels.next()),
            });
        }
        None
    }

    /// Extract the numeric host index from an `m...` label.
    pub fn host_index(entity: &str) -> Option<usize> {
        entity.strip_prefix('m')?.parse().ok()
    }

    /// Extract the numeric domain index from a `d...` label.
    pub fn domain_index(entity: &str) -> Option<usize> {
        entity.strip_prefix('d')?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> NameScheme {
        NameScheme::default()
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
        assert_eq!(parsed.testid.as_deref(), Some("t05"));
        assert_eq!(parsed.entity, "m00003");
        assert!(parsed.path.is_empty());

        let follow = NameScheme::follow_up(&base, "l1");
        let parsed = s.parse(&follow).unwrap();
        assert_eq!(parsed.testid.as_deref(), Some("t05"));
        assert_eq!(parsed.path, vec!["l1"]);
        assert_eq!(NameScheme::host_index(&parsed.entity), Some(3));
    }

    #[test]
    fn attribution_roundtrip_notify() {
        let s = scheme();
        let base = s.notify_domain(12);
        let parsed = s.parse(&base).unwrap();
        assert_eq!(parsed.testid, None);
        assert_eq!(NameScheme::domain_index(&parsed.entity), Some(12));

        // DKIM key / DMARC policy names attribute too.
        let dkim = Name::parse("sel1._domainkey.d00012.dsav-mail.dns-lab.org").unwrap();
        let parsed = s.parse(&dkim).unwrap();
        assert_eq!(parsed.entity, "d00012");
        assert_eq!(parsed.path, vec!["sel1", "_domainkey"]);

        let dmarc = Name::parse("_dmarc.d00012.dsav-mail.dns-lab.org").unwrap();
        let parsed = s.parse(&dmarc).unwrap();
        assert_eq!(parsed.path, vec!["_dmarc"]);
    }

    #[test]
    fn multi_label_paths() {
        let s = scheme();
        let deep = Name::parse("h.e.c.a.n01.t02.m00100.spf-test.dns-lab.org").unwrap();
        let parsed = s.parse(&deep).unwrap();
        assert_eq!(parsed.testid.as_deref(), Some("t02"));
        assert_eq!(parsed.path, vec!["h", "e", "c", "a", "n01"]);
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
        assert_eq!(parsed.path, vec!["h"]);
    }
}
