//! Classification of raw campaign observations into the paper's tables
//! and figures (§6–§7).
//!
//! Everything here consumes only the [`QueryLog`] and the session
//! records — never the seeded profiles — so the full pipeline
//! (policy synthesis → SMTP dialogue → validator → resolver → wire →
//! attribution) is on the hook for every number.

use crate::apparatus::{QueryLog, QueryRecord};
use crate::campaign::{CampaignResult, SessionRecord};
use crate::names::PolicyPath;
use mailval_datasets::{DomainSpec, Population};
use mailval_dns::rr::RecordType;
use mailval_dns::server::Transport;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// §6.1 — NotifyEmail: Table 4 / Table 7 flags
// ---------------------------------------------------------------------------

/// Per-domain validation flags derived from observed queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainFlags {
    /// Issued SPF-related queries (policy TXT or its follow-ups).
    pub spf: bool,
    /// Issued a DKIM key (`_domainkey`) query.
    pub dkim: bool,
    /// Issued a DMARC (`_dmarc`) query.
    pub dmarc: bool,
    /// SPF validation *finished*: the `a:sender` address lookup that is
    /// required to reach a verdict was observed (§6.1's 3% partial
    /// validators fail this).
    pub spf_finished: bool,
}

/// Classify every domain of a NotifyEmail run.
pub fn notify_email_flags(result: &CampaignResult, domain_count: usize) -> Vec<DomainFlags> {
    let mut flags = vec![DomainFlags::default(); domain_count];
    for (record, attr) in result.log.attributed() {
        let Some(f) = attr.domain_index.and_then(|d| flags.get_mut(d)) else {
            continue;
        };
        match attr.path.as_str() {
            "_dmarc" => f.dmarc = true,
            "sender" => {
                f.spf = true;
                if record.qtype == RecordType::A || record.qtype == RecordType::Aaaa {
                    f.spf_finished = true;
                }
            }
            // `<selector>._domainkey`
            _ if attr.path.tail() == "_domainkey" => f.dkim = true,
            _ => f.spf = true,
        }
    }
    flags
}

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComboRow {
    /// (SPF, DKIM, DMARC) combination.
    pub combo: (bool, bool, bool),
    /// Domains exhibiting it.
    pub count: usize,
}

/// Table 4: the SPF×DKIM×DMARC breakdown, ordered as in the paper.
pub fn table4(flags: &[DomainFlags]) -> Vec<ComboRow> {
    let order = [
        (true, true, true),
        (true, true, false),
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, false, true),
        (false, true, true),
    ];
    let mut counts: HashMap<(bool, bool, bool), usize> = HashMap::new();
    for f in flags {
        *counts.entry((f.spf, f.dkim, f.dmarc)).or_default() += 1;
    }
    order
        .into_iter()
        .map(|combo| ComboRow {
            combo,
            count: counts.get(&combo).copied().unwrap_or(0),
        })
        .collect()
}

/// §6.1 partial-validator stats: domains with SPF queries that never
/// finished, and how many of those rely on SPF exclusively.
#[derive(Debug, Clone, Copy)]
pub struct PartialSpfStats {
    /// SPF-validating domains.
    pub spf_validating: usize,
    /// Of those, domains that never performed the required address
    /// lookup.
    pub unfinished: usize,
    /// Unfinished domains with no DKIM validation either.
    pub unfinished_spf_only: usize,
    /// Of those, ones that at least look up DMARC ("possible
    /// enforcement").
    pub unfinished_spf_only_with_dmarc: usize,
}

/// Compute §6.1's partial-validation stats.
pub fn partial_spf_stats(flags: &[DomainFlags]) -> PartialSpfStats {
    let spf: Vec<&DomainFlags> = flags.iter().filter(|f| f.spf).collect();
    let unfinished: Vec<&&DomainFlags> = spf.iter().filter(|f| !f.spf_finished).collect();
    let spf_only: Vec<&&&DomainFlags> = unfinished.iter().filter(|f| !f.dkim).collect();
    PartialSpfStats {
        spf_validating: spf.len(),
        unfinished: unfinished.len(),
        unfinished_spf_only: spf_only.len(),
        unfinished_spf_only_with_dmarc: spf_only.iter().filter(|f| f.dmarc).count(),
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 — SPF-vs-delivery timing
// ---------------------------------------------------------------------------

/// Fig. 2 reproduction: the distribution of `tSPF − tEmail`.
#[derive(Debug, Clone)]
pub struct TimingAnalysis {
    /// Domains contributing a (consistent) timestamp difference.
    pub domains: usize,
    /// Emails filtered for sub-second differences (the paper's 8.6%).
    pub filtered_subsecond: usize,
    /// Histogram bins over seconds: ≤-30, (-30,-15], (-15,-1],
    /// [1,15), [15,30), ≥30 — sub-second diffs were filtered.
    pub bins: [usize; 6],
    /// Fraction of domains with a negative difference (SPF before
    /// delivery; 83% in the paper).
    pub negative_fraction: f64,
    /// Fraction within ±30 s (91% in the paper).
    pub within_30s_fraction: f64,
}

/// Compute the Fig. 2 distribution from a NotifyEmail run.
///
/// Timestamps are floored to whole seconds first (the paper's Exim logs
/// had second granularity), and differences of zero seconds are
/// filtered as unmeasurable, exactly mirroring §6.2.
pub fn spf_timing(result: &CampaignResult) -> TimingAnalysis {
    // Earliest SPF policy query per domain.
    let mut first_spf: HashMap<usize, u64> = HashMap::new();
    for (record, attr) in result.log.attributed() {
        let Some(d) = attr.domain_index else { continue };
        if record.qtype == RecordType::Txt && attr.path.is_empty() {
            first_spf
                .entry(d)
                .and_modify(|t| *t = (*t).min(record.time_ms))
                .or_insert(record.time_ms);
        }
    }
    let mut bins = [0usize; 6];
    let mut negative = 0usize;
    let mut within30 = 0usize;
    let mut domains = 0usize;
    let mut filtered = 0usize;
    for session in &result.sessions {
        let Some(delivery) = session.delivery_time_ms else {
            continue;
        };
        let Some(&spf) = first_spf.get(&session.domain_index) else {
            continue;
        };
        let diff = (spf / 1000) as i64 - (delivery / 1000) as i64;
        if diff == 0 {
            filtered += 1;
            continue;
        }
        domains += 1;
        if diff < 0 {
            negative += 1;
        }
        if diff.abs() <= 30 {
            within30 += 1;
        }
        let bin = match diff {
            d if d <= -30 => 0,
            d if d <= -15 => 1,
            d if d < 0 => 2,
            d if d < 15 => 3,
            d if d < 30 => 4,
            _ => 5,
        };
        bins[bin] += 1;
    }
    TimingAnalysis {
        domains,
        filtered_subsecond: filtered,
        bins,
        negative_fraction: negative as f64 / domains.max(1) as f64,
        within_30s_fraction: within30 as f64 / domains.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// Table 5 — SPF-validating domains and MTAs
// ---------------------------------------------------------------------------

/// Table 5 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidatingCounts {
    /// Domains in scope.
    pub total_domains: usize,
    /// MTAs in scope.
    pub total_mtas: usize,
    /// SPF-validating domains.
    pub validating_domains: usize,
    /// SPF-validating MTAs.
    pub validating_mtas: usize,
}

impl ValidatingCounts {
    /// Domain validation rate.
    pub fn domain_rate(&self) -> f64 {
        self.validating_domains as f64 / self.total_domains.max(1) as f64
    }

    /// MTA validation rate.
    pub fn mta_rate(&self) -> f64 {
        self.validating_mtas as f64 / self.total_mtas.max(1) as f64
    }
}

/// SPF-validating hosts observed in a probe campaign's log.
pub fn validating_hosts(log: &QueryLog) -> HashSet<usize> {
    log.attributed()
        .filter_map(|(_, attr)| attr.host_index)
        .collect()
}

/// The domains with at least one of `hosts` among their MTAs.
fn domains_served_by(pop: &Population, hosts: &HashSet<usize>) -> HashSet<usize> {
    let served = |d: &&DomainSpec| d.host_indices.iter().any(|h| hosts.contains(h));
    pop.domains.iter().filter(served).map(|d| d.index).collect()
}

/// Table 5 counts for a probe campaign (NotifyMX / TwoWeekMX) whose log
/// shows `hosts` validating ([`validating_hosts`]).
pub fn probe_validating_counts(
    result: &CampaignResult,
    hosts: &HashSet<usize>,
    pop: &Population,
) -> ValidatingCounts {
    let probed_hosts: HashSet<usize> = result.sessions.iter().map(|s| s.host_index).collect();
    let probed_domains = domains_served_by(pop, &probed_hosts);
    let domains = domains_served_by(pop, hosts);
    ValidatingCounts {
        total_domains: probed_domains.len(),
        total_mtas: probed_hosts.len(),
        validating_domains: domains.intersection(&probed_domains).count(),
        validating_mtas: hosts.intersection(&probed_hosts).count(),
    }
}

/// Table 5 counts for a NotifyEmail run whose domains' `flags` its log
/// shows ([`notify_email_flags`]).
pub fn notify_validating_counts(
    result: &CampaignResult,
    flags: &[DomainFlags],
    pop: &Population,
) -> ValidatingCounts {
    let mut validating_hosts: HashSet<usize> = HashSet::new();
    let mut contacted_hosts: HashSet<usize> = HashSet::new();
    for session in &result.sessions {
        contacted_hosts.insert(session.host_index);
        if flags.get(session.domain_index).is_some_and(|f| f.spf) {
            validating_hosts.insert(session.host_index);
        }
    }
    ValidatingCounts {
        total_domains: pop.domains.len(),
        total_mtas: contacted_hosts.len(),
        validating_domains: flags.iter().filter(|f| f.spf).count(),
        validating_mtas: validating_hosts.len(),
    }
}

/// TwoWeekMX decile rows of Table 5, for a campaign whose log shows
/// `hosts` validating ([`validating_hosts`]).
pub fn decile_counts(
    result: &CampaignResult,
    hosts: &HashSet<usize>,
    pop: &Population,
) -> Vec<ValidatingCounts> {
    let probed_hosts: HashSet<usize> = result.sessions.iter().map(|s| s.host_index).collect();
    pop.demand_deciles()
        .into_iter()
        .map(|domain_indices| {
            let mut decile_hosts: HashSet<usize> = HashSet::new();
            let mut validating_domains = 0usize;
            for &d in &domain_indices {
                let spec = &pop.domains[d];
                let mut any = false;
                for &h in &spec.host_indices {
                    if probed_hosts.contains(&h) {
                        decile_hosts.insert(h);
                    }
                    if hosts.contains(&h) {
                        any = true;
                    }
                }
                if any {
                    validating_domains += 1;
                }
            }
            ValidatingCounts {
                total_domains: domain_indices.len(),
                total_mtas: decile_hosts.len(),
                validating_domains,
                validating_mtas: decile_hosts.intersection(hosts).count(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §6.2 — NotifyEmail vs NotifyMX consistency
// ---------------------------------------------------------------------------

/// §6.2 comparison of the two perspectives on the same domains.
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyStats {
    /// Domains classified in both runs.
    pub common_domains: usize,
    /// Domains whose status differs.
    pub inconsistent: usize,
    /// Of those, validated in NotifyEmail but not NotifyMX (95% in the
    /// paper).
    pub email_only: usize,
    /// MTAs that rejected the probe with "spam" in the reply (27%).
    pub spam_rejections: usize,
    /// MTAs that rejected citing a blacklist (3%).
    pub blacklist_rejections: usize,
    /// MTAs probed.
    pub probed_mtas: usize,
}

/// Compare a NotifyEmail run whose log shows its domains' `flags` with a
/// NotifyMX run whose log shows `mx_hosts` validating, over the same
/// population.
pub fn consistency(
    flags: &[DomainFlags],
    notify_mx: &CampaignResult,
    mx_hosts: &HashSet<usize>,
    pop: &Population,
) -> ConsistencyStats {
    let mx_domains = domains_served_by(pop, mx_hosts);

    let mut common = 0usize;
    let mut inconsistent = 0usize;
    let mut email_only = 0usize;
    for d in &pop.domains {
        if d.mx_reresolution_failed {
            continue;
        }
        common += 1;
        let email_side = flags[d.index].spf;
        let mx_side = mx_domains.contains(&d.index);
        if email_side != mx_side {
            inconsistent += 1;
            if email_side {
                email_only += 1;
            }
        }
    }

    // Rejection text analysis over one test's sessions per MTA.
    let mut spam: HashSet<usize> = HashSet::new();
    let mut blacklist: HashSet<usize> = HashSet::new();
    let mut probed: HashSet<usize> = HashSet::new();
    for s in &notify_mx.sessions {
        probed.insert(s.host_index);
        if let Some(outcome) = &s.outcome {
            if let Some((_, reply)) = &outcome.rejection {
                let text = reply.text().to_ascii_lowercase();
                if text.contains("blacklist") {
                    blacklist.insert(s.host_index);
                } else if text.contains("spam") {
                    spam.insert(s.host_index);
                }
            }
        }
    }
    ConsistencyStats {
        common_domains: common,
        inconsistent,
        email_only,
        spam_rejections: spam.len(),
        blacklist_rejections: blacklist.len(),
        probed_mtas: probed.len(),
    }
}

// ---------------------------------------------------------------------------
// §7.1 — serial vs parallel
// ---------------------------------------------------------------------------

/// §7.1 result.
#[derive(Debug, Clone, Copy)]
pub struct SerialParallel {
    /// MTAs that completed enough of test t01 to classify.
    pub classified: usize,
    /// Of those, MTAs issuing lookups serially (97% in the paper).
    pub serial: usize,
}

/// Infer lookup scheduling from the t01 query order: a serial validator
/// cannot ask for `foo` (the `a` hint) before the L3 policy arrives.
pub fn serial_vs_parallel(log: &QueryLog) -> SerialParallel {
    #[derive(Default)]
    struct Seen {
        foo_at: Option<u64>,
        l3_at: Option<u64>,
    }
    let mut per_host: HashMap<usize, Seen> = HashMap::new();
    for (r, attr) in log.for_test("t01") {
        let Some(h) = attr.host_index else { continue };
        let entry = per_host.entry(h).or_default();
        match attr.path.first() {
            Some("foo") => {
                entry.foo_at.get_or_insert(r.time_ms);
            }
            Some("l3") => {
                entry.l3_at.get_or_insert(r.time_ms);
            }
            _ => {}
        }
    }
    let mut classified = 0usize;
    let mut serial = 0usize;
    for seen in per_host.values() {
        if let (Some(foo_ms), Some(l3)) = (seen.foo_at, seen.l3_at) {
            classified += 1;
            if foo_ms > l3 {
                serial += 1;
            }
        }
    }
    SerialParallel { classified, serial }
}

// ---------------------------------------------------------------------------
// Fig. 5 — lookup limits
// ---------------------------------------------------------------------------

/// Per-MTA datapoint for the Fig. 5 CDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LimitPoint {
    /// DNS queries issued beyond the base policy fetch.
    pub queries: u32,
    /// Lower bound on elapsed validation time, ms (800 ms per answered
    /// delayed query before the last observed one).
    pub elapsed_lb_ms: u64,
}

/// Fig. 5 data.
#[derive(Debug, Clone)]
pub struct LimitAnalysis {
    /// One point per MTA that evaluated test t02, sorted ascending.
    pub points: Vec<LimitPoint>,
    /// MTAs stopping before 10 queries (61% in the paper).
    pub under_10: usize,
    /// MTAs issuing all 46 queries (28% in the paper).
    pub all_46: usize,
}

/// Compute the Fig. 5 CDF inputs from test t02 observations.
pub fn lookup_limits(log: &QueryLog) -> LimitAnalysis {
    let mut per_host: HashMap<usize, u32> = HashMap::new();
    for (_, attr) in log.for_test("t02") {
        let Some(h) = attr.host_index else { continue };
        if attr.path.as_str() == "h" {
            // The HELO-identity lookup is not part of the stress tree
            // (deeper paths ending in "h" ARE tree nodes).
            continue;
        }
        if attr.path.is_empty() {
            per_host.entry(h).or_insert(0);
        } else {
            *per_host.entry(h).or_insert(0) += 1;
        }
    }
    let mut points: Vec<LimitPoint> = per_host
        .values()
        .map(|&queries| LimitPoint {
            queries,
            elapsed_lb_ms: 800 * queries.saturating_sub(1) as u64,
        })
        .collect();
    points.sort();
    // A limit-compliant validator issues exactly 10 queries before the
    // 11th term trips the permerror; the paper's "halted before 10 DNS
    // queries" band therefore includes them.
    let under_10 = points.iter().filter(|p| p.queries <= 10).count();
    let all_46 = points.iter().filter(|p| p.queries >= 46).count();
    LimitAnalysis {
        points,
        under_10,
        all_46,
    }
}

// ---------------------------------------------------------------------------
// §7.3 — behavior battery
// ---------------------------------------------------------------------------

/// One §7.3 behavior statistic: how many MTAs of those evaluating the
/// test exhibited the behavior.
#[derive(Debug, Clone)]
pub struct BehaviorStat {
    /// Test id.
    pub testid: &'static str,
    /// What is being measured.
    pub behavior: &'static str,
    /// MTAs evaluating the test (the denominator).
    pub evaluated: usize,
    /// MTAs exhibiting the behavior.
    pub exhibited: usize,
    /// The paper's reported fraction, for the report column.
    pub paper_fraction: f64,
}

impl BehaviorStat {
    /// Measured fraction.
    pub fn fraction(&self) -> f64 {
        self.exhibited as f64 / self.evaluated.max(1) as f64
    }
}

/// One attributed probe query: the MTA that asked, the policy path and
/// the record.
struct Probe<'a> {
    host: usize,
    path: PolicyPath<'a>,
    record: &'a QueryRecord,
}

impl Probe<'_> {
    fn path0_is(&self, label: &str) -> bool {
        self.path.first() == Some(label)
    }

    fn base_query(&self) -> bool {
        self.path.is_empty() && self.record.qtype == RecordType::Txt
    }
}

fn hosts_with<'a>(probes: &[Probe<'a>], pred: impl Fn(&Probe<'a>) -> bool) -> HashSet<usize> {
    probes.iter().filter(|p| pred(p)).map(|p| p.host).collect()
}

/// The full §7.3 battery.
pub fn behavior_battery(log: &QueryLog) -> Vec<BehaviorStat> {
    // The attributed probe queries, bucketed by test in one pass.
    let mut by_test: HashMap<&str, Vec<Probe>> = HashMap::new();
    for (record, attr) in log.attributed() {
        if let (Some(testid), Some(host)) = (attr.testid, attr.host_index) {
            let path = attr.path;
            by_test
                .entry(testid)
                .or_default()
                .push(Probe { host, path, record });
        }
    }
    let probes = |testid| by_test.get(testid).map_or(&[][..], Vec::as_slice);
    let mut stats = Vec::new();

    // HELO policy check (t03).
    let t03_eval = hosts_with(probes("t03"), Probe::base_query);
    let t03_helo = hosts_with(probes("t03"), |p| p.path0_is("h"));
    stats.push(BehaviorStat {
        testid: "t03",
        behavior: "checked the HELO identity's policy",
        evaluated: t03_eval.len(),
        exhibited: t03_helo.intersection(&t03_eval).count(),
        paper_fraction: 0.050,
    });
    // ... and all of those proceeded to the MAIL policy anyway.
    let helo_then_mail = t03_helo.intersection(&t03_eval).count();
    stats.push(BehaviorStat {
        testid: "t03",
        behavior: "HELO checkers that evaluated MAIL anyway",
        evaluated: t03_helo.len(),
        exhibited: helo_then_mail,
        paper_fraction: 1.0,
    });

    // Syntax error in the main policy (t04).
    let t04_eval = hosts_with(probes("t04"), Probe::base_query);
    let t04_cont = hosts_with(probes("t04"), |p| p.path0_is("after"));
    stats.push(BehaviorStat {
        testid: "t04",
        behavior: "kept evaluating past a main-policy syntax error",
        evaluated: t04_eval.len(),
        exhibited: t04_cont.intersection(&t04_eval).count(),
        paper_fraction: 0.055,
    });

    // Syntax error in a child policy (t05).
    let t05_eval = hosts_with(probes("t05"), |p| p.path0_is("child"));
    let t05_cont = hosts_with(probes("t05"), |p| p.path0_is("after"));
    stats.push(BehaviorStat {
        testid: "t05",
        behavior: "kept evaluating the parent past a child permerror",
        evaluated: t05_eval.len(),
        exhibited: t05_cont.intersection(&t05_eval).count(),
        paper_fraction: 0.123,
    });

    // Void lookups (t06).
    let mut t06_voids: HashMap<usize, u32> = HashMap::new();
    let t06_eval = hosts_with(probes("t06"), Probe::base_query);
    for p in probes("t06") {
        let Some(first) = p.path.first() else {
            continue;
        };
        if first.starts_with('v') && p.record.qtype != RecordType::Txt {
            *t06_voids.entry(p.host).or_default() += 1;
        }
    }
    stats.push(BehaviorStat {
        testid: "t06",
        behavior: "exceeded two void lookups",
        evaluated: t06_eval.len(),
        exhibited: t06_voids.values().filter(|&&c| c > 2).count(),
        paper_fraction: 0.97,
    });
    stats.push(BehaviorStat {
        testid: "t06",
        behavior: "resolved all five void names",
        evaluated: t06_eval.len(),
        exhibited: t06_voids.values().filter(|&&c| c >= 5).count(),
        paper_fraction: 0.64,
    });

    // mx A/AAAA fallback (t07).
    let t07_eval = hosts_with(probes("t07"), Probe::base_query);
    let t07_fallback = hosts_with(probes("t07"), |p| {
        p.path0_is("gone") && p.record.qtype != RecordType::Mx
    });
    stats.push(BehaviorStat {
        testid: "t07",
        behavior: "issued the forbidden A/AAAA fallback after failed mx",
        evaluated: t07_eval.len(),
        exhibited: t07_fallback.intersection(&t07_eval).count(),
        paper_fraction: 0.14,
    });

    // Multiple SPF records (t08).
    let t08_eval = hosts_with(probes("t08"), Probe::base_query);
    let t08_one = hosts_with(probes("t08"), |p| p.path0_is("one"));
    let t08_two = hosts_with(probes("t08"), |p| p.path0_is("two"));
    let followed_any: HashSet<usize> = t08_one.union(&t08_two).copied().collect();
    let followed_both = t08_one.intersection(&t08_two).count();
    stats.push(BehaviorStat {
        testid: "t08",
        behavior: "followed one of two duplicate records",
        evaluated: t08_eval.len(),
        exhibited: followed_any.intersection(&t08_eval).count(),
        paper_fraction: 0.23,
    });
    stats.push(BehaviorStat {
        testid: "t08",
        behavior: "followed BOTH duplicate records",
        evaluated: t08_eval.len(),
        exhibited: followed_both,
        paper_fraction: 0.0,
    });

    // TCP fallback (t09).
    let t09_udp = hosts_with(probes("t09"), |p| {
        p.base_query() && p.record.transport == Transport::Udp
    });
    let t09_tcp = hosts_with(probes("t09"), |p| {
        p.base_query() && p.record.transport == Transport::Tcp
    });
    stats.push(BehaviorStat {
        testid: "t09",
        behavior: "retried over TCP after truncation",
        evaluated: t09_udp.len(),
        exhibited: t09_tcp.intersection(&t09_udp).count(),
        paper_fraction: 1334.0 / 1336.0,
    });

    // IPv6-only retrieval (t10).
    let t10_eval = hosts_with(probes("t10"), Probe::base_query);
    let t10_v6 = hosts_with(probes("t10"), |p| p.path0_is("p") && p.record.via_ipv6);
    stats.push(BehaviorStat {
        testid: "t10",
        behavior: "retrieved the IPv6-only policy",
        evaluated: t10_eval.len(),
        exhibited: t10_v6.intersection(&t10_eval).count(),
        paper_fraction: 0.49,
    });

    // Per-mx address-lookup limit (t11).
    let t11_eval = hosts_with(probes("t11"), |p| {
        p.path0_is("many") && p.record.qtype == RecordType::Mx
    });
    let mut t11_addrs: HashMap<usize, u32> = HashMap::new();
    for p in probes("t11") {
        if p.path.tail() == "many" && p.record.qtype != RecordType::Mx {
            *t11_addrs.entry(p.host).or_default() += 1;
        }
    }
    stats.push(BehaviorStat {
        testid: "t11",
        behavior: "stopped at ≤10 per-mx address lookups",
        evaluated: t11_eval.len(),
        exhibited: t11_eval
            .iter()
            .filter(|h| t11_addrs.get(h).copied().unwrap_or(0) <= 10)
            .count(),
        paper_fraction: 0.077,
    });
    stats.push(BehaviorStat {
        testid: "t11",
        behavior: "queried all 20 exchanges",
        evaluated: t11_eval.len(),
        exhibited: t11_addrs.values().filter(|&&c| c >= 20).count(),
        paper_fraction: 0.64,
    });

    stats
}

// ---------------------------------------------------------------------------
// Table 7 — Alexa tiers
// ---------------------------------------------------------------------------

/// One Table 7 column.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlexaColumn {
    /// Domains in the tier.
    pub total: usize,
    /// SPF-validating.
    pub spf: usize,
    /// DKIM-validating.
    pub dkim: usize,
    /// DMARC-validating.
    pub dmarc: usize,
}

/// Table 7: validation by Alexa membership (All / Top 1M / Top 1K).
pub fn alexa_breakdown(
    flags: &[DomainFlags],
    pop: &Population,
) -> (AlexaColumn, AlexaColumn, AlexaColumn) {
    use mailval_datasets::alexa::AlexaTier;
    let mut all = AlexaColumn::default();
    let mut top1m = all;
    let mut top1k = all;
    for d in &pop.domains {
        let f = flags[d.index];
        let add = |col: &mut AlexaColumn| {
            col.total += 1;
            if f.spf {
                col.spf += 1;
            }
            if f.dkim {
                col.dkim += 1;
            }
            if f.dmarc {
                col.dmarc += 1;
            }
        };
        add(&mut all);
        match d.alexa {
            AlexaTier::Top1K => {
                add(&mut top1m);
                add(&mut top1k);
            }
            AlexaTier::Top1M => add(&mut top1m),
            AlexaTier::Unlisted => {}
        }
    }
    (all, top1m, top1k)
}

// ---------------------------------------------------------------------------
// Helpers shared by report binaries
// ---------------------------------------------------------------------------

/// Unique hosts probed in a result's sessions.
pub fn probed_hosts(sessions: &[SessionRecord]) -> HashSet<usize> {
    sessions.iter().map(|s| s.host_index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, sample_host_profiles, CampaignConfig, CampaignKind};
    use mailval_datasets::{DatasetKind, PopulationConfig};
    use mailval_simnet::LatencyModel;

    fn small_pop(kind: DatasetKind, seed: u64, scale: f64) -> Population {
        Population::generate(&PopulationConfig { kind, scale, seed })
    }

    fn run(
        kind: CampaignKind,
        pop: &Population,
        tests: Vec<&'static str>,
        seed: u64,
    ) -> CampaignResult {
        let profiles = sample_host_profiles(pop, seed);
        run_campaign(
            &CampaignConfig {
                kind,
                tests,
                seed,
                probe_pause_ms: 15_000,
                latency: LatencyModel::default(),
                shards: 1,
                faults: mailval_simnet::FaultConfig::default(),
                ..CampaignConfig::default()
            },
            pop,
            &profiles,
        )
    }

    #[test]
    fn table4_marginals_and_fig2_shape() {
        let pop = small_pop(DatasetKind::NotifyEmail, 21, 0.01);
        let result = run(CampaignKind::NotifyEmail, &pop, vec![], 21);
        let flags = notify_email_flags(&result, pop.domains.len());
        let rows = table4(&flags);
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, pop.domains.len());
        // The all-three row dominates, as in Table 4.
        assert_eq!(rows[0].combo, (true, true, true));
        assert!(rows[0].count > total / 3, "{rows:?}");
        // SPF marginal ≈ 85%.
        let spf: usize = rows.iter().filter(|r| r.combo.0).map(|r| r.count).sum();
        let rate = spf as f64 / total as f64;
        assert!((0.75..0.95).contains(&rate), "spf {rate}");

        // Fig. 2: mostly negative diffs, mostly within ±30 s.
        let timing = spf_timing(&result);
        assert!(timing.domains > 0);
        assert!(
            timing.negative_fraction > 0.6,
            "negative {}",
            timing.negative_fraction
        );
        assert!(
            timing.within_30s_fraction > 0.5,
            "within30 {}",
            timing.within_30s_fraction
        );
    }

    #[test]
    fn partial_validators_detected() {
        let pop = small_pop(DatasetKind::NotifyEmail, 22, 0.01);
        let result = run(CampaignKind::NotifyEmail, &pop, vec![], 22);
        let flags = notify_email_flags(&result, pop.domains.len());
        let stats = partial_spf_stats(&flags);
        assert!(stats.spf_validating > 0);
        // ~3% of validating domains never finish.
        let rate = stats.unfinished as f64 / stats.spf_validating as f64;
        assert!(rate < 0.10, "unfinished {rate}");
    }

    #[test]
    fn serial_parallel_inference() {
        let pop = small_pop(DatasetKind::TwoWeekMx, 23, 0.01);
        let result = run(CampaignKind::TwoWeekMx, &pop, vec!["t01"], 23);
        let sp = serial_vs_parallel(&result.log);
        assert!(sp.classified > 0, "no MTAs classified");
        let rate = sp.serial as f64 / sp.classified as f64;
        assert!(rate > 0.85, "serial {rate} of {}", sp.classified);
    }

    #[test]
    fn lookup_limit_cdf() {
        let pop = small_pop(DatasetKind::TwoWeekMx, 24, 0.01);
        let result = run(CampaignKind::TwoWeekMx, &pop, vec!["t02"], 24);
        let limits = lookup_limits(&result.log);
        assert!(!limits.points.is_empty());
        // Max possible is 46.
        assert!(limits.points.iter().all(|p| p.queries <= 46));
        // Both enforcers and violators appear.
        assert!(limits.under_10 > 0, "{:?}", limits.points);
        assert!(limits.all_46 > 0, "{:?}", limits.points);
    }

    #[test]
    fn behavior_battery_produces_sane_fractions() {
        let pop = small_pop(DatasetKind::TwoWeekMx, 25, 0.02);
        let tests = vec![
            "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11",
        ];
        let result = run(CampaignKind::TwoWeekMx, &pop, tests, 25);
        let stats = behavior_battery(&result.log);
        assert_eq!(stats.len(), 13);
        for s in &stats {
            assert!(
                s.exhibited <= s.evaluated.max(1),
                "{}: {}/{}",
                s.behavior,
                s.exhibited,
                s.evaluated
            );
        }
        // No MTA followed both duplicate records.
        let both = stats.iter().find(|s| s.behavior.contains("BOTH")).unwrap();
        assert_eq!(both.exhibited, 0);
        // TCP fallback is nearly universal.
        let tcp = stats.iter().find(|s| s.testid == "t09").unwrap();
        assert!(tcp.fraction() > 0.9, "tcp {}", tcp.fraction());
    }

    #[test]
    fn probe_counts_and_deciles() {
        let pop = small_pop(DatasetKind::TwoWeekMx, 26, 0.02);
        let result = run(CampaignKind::TwoWeekMx, &pop, vec!["t12", "t14"], 26);
        let hosts = validating_hosts(&result.log);
        let counts = probe_validating_counts(&result, &hosts, &pop);
        assert!(counts.total_mtas > 0);
        assert!(counts.validating_mtas <= counts.total_mtas);
        // TwoWeekMX MTA rate is a low-teens lower bound (Table 5).
        let rate = counts.mta_rate();
        assert!((0.05..0.35).contains(&rate), "mta rate {rate}");
        let deciles = decile_counts(&result, &hosts, &pop);
        assert_eq!(deciles.len(), 10);
        let total: usize = deciles.iter().map(|d| d.total_domains).sum();
        assert_eq!(total, pop.domains.len());
    }

    #[test]
    fn consistency_analysis() {
        let pop = small_pop(DatasetKind::NotifyEmail, 27, 0.008);
        let profiles = sample_host_profiles(&pop, 27);
        let email = run_campaign(
            &CampaignConfig {
                kind: CampaignKind::NotifyEmail,
                tests: vec![],
                seed: 27,
                probe_pause_ms: 0,
                latency: LatencyModel::default(),
                shards: 1,
                faults: mailval_simnet::FaultConfig::default(),
                ..CampaignConfig::default()
            },
            &pop,
            &profiles,
        );
        let mx = run_campaign(
            &CampaignConfig {
                kind: CampaignKind::NotifyMx,
                tests: vec!["t12"],
                seed: 27,
                probe_pause_ms: 15_000,
                latency: LatencyModel::default(),
                shards: 1,
                faults: mailval_simnet::FaultConfig::default(),
                ..CampaignConfig::default()
            },
            &pop,
            &profiles,
        );
        let flags = notify_email_flags(&email, pop.domains.len());
        let stats = consistency(&flags, &mx, &validating_hosts(&mx.log), &pop);
        assert!(stats.common_domains > 0);
        assert!(stats.inconsistent > 0, "some inconsistency expected");
        // Overwhelmingly email-validating-but-not-mx (95% in the paper).
        let dir = stats.email_only as f64 / stats.inconsistent.max(1) as f64;
        assert!(dir > 0.7, "direction {dir}");
        // Spam rejections ≈ 27% of MTAs.
        let spam_rate = stats.spam_rejections as f64 / stats.probed_mtas.max(1) as f64;
        assert!((0.15..0.40).contains(&spam_rate), "spam {spam_rate}");
    }

    #[test]
    fn alexa_gradient() {
        let pop = small_pop(DatasetKind::NotifyEmail, 28, 0.05);
        let result = run(CampaignKind::NotifyEmail, &pop, vec![], 28);
        let flags = notify_email_flags(&result, pop.domains.len());
        let (all, top1m, _top1k) = alexa_breakdown(&flags, &pop);
        assert_eq!(all.total, pop.domains.len());
        if top1m.total >= 20 {
            let all_rate = all.spf as f64 / all.total as f64;
            let top_rate = top1m.spf as f64 / top1m.total as f64;
            assert!(
                top_rate >= all_rate - 0.05,
                "top1m {top_rate} vs all {all_rate}"
            );
        }
    }
}
