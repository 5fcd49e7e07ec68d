//! Classification of raw campaign observations into the paper's tables
//! and figures (§6–§7).
//!
//! Everything here consumes only the [`QueryLog`] and the session
//! records — never the seeded profiles — so the full pipeline
//! (policy synthesis → SMTP dialogue → validator → resolver → wire →
//! attribution) is on the hook for every number.

use crate::apparatus::QueryLog;
use crate::campaign::CampaignResult;
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

/// SPF-validating hosts observed in a probe campaign's log: every MTA
/// with a [`HostProbes`] record.
pub fn validating_hosts(log: &QueryLog) -> HashSet<usize> {
    host_probes(log).into_keys().collect()
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
// §7 — what each MTA's probe queries show
// ---------------------------------------------------------------------------

/// What one MTA's queries for the probe tests show: the single per-MTA
/// record that §7.1, Fig. 5, the §7.3 battery and the §8 fingerprint
/// ([`crate::fingerprint::behavior_vectors`]) all derive from. A
/// `*_base` flag means the MTA fetched that test's base policy TXT,
/// i.e. evaluated the test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostProbes {
    /// t01: earliest query for the `foo` address hint, ms.
    pub t01_foo_ms: Option<u64>,
    /// t01: earliest query for the `l3` policy, ms.
    pub t01_l3_ms: Option<u64>,
    /// t02: fetched the stress policy.
    pub t02_base: bool,
    /// t02: queries below the base name, less the HELO lookup `h`.
    pub t02_queries: u32,
    /// t03: fetched the MAIL policy.
    pub t03_base: bool,
    /// t03: queried the HELO identity `h`.
    pub t03_helo: bool,
    /// t04: fetched the policy with the syntax error.
    pub t04_base: bool,
    /// t04: queried `after`, past the error.
    pub t04_after: bool,
    /// t05: fetched the erroneous `child` policy.
    pub t05_child: bool,
    /// t05: queried `after`, past the child's permerror.
    pub t05_after: bool,
    /// t06: fetched the void-lookup policy.
    pub t06_base: bool,
    /// t06: void lookups: non-TXT queries under a `v*` name.
    pub t06_voids: u32,
    /// t07: fetched the `mx:gone` policy.
    pub t07_base: bool,
    /// t07: issued a non-MX query for `gone` (the forbidden fallback).
    pub t07_fallback: bool,
    /// t08: fetched the duplicate records.
    pub t08_base: bool,
    /// t08: followed the first record's `one`.
    pub t08_one: bool,
    /// t08: followed the second record's `two`.
    pub t08_two: bool,
    /// t09: fetched the base policy over UDP.
    pub t09_udp: bool,
    /// t09: fetched the base policy over TCP.
    pub t09_tcp: bool,
    /// t10: fetched the base policy.
    pub t10_base: bool,
    /// t10: retrieved the `p` policy over IPv6.
    pub t10_v6: bool,
    /// t11: queried the `many` MX set.
    pub t11_many: bool,
    /// t11: address queries for the exchanges under `many`.
    pub t11_addrs: u32,
}

impl HostProbes {
    /// §7.1: `Some(true)` when the `foo` hint came strictly after the
    /// L3 policy, as a serial validator must ask it; a tie counts as
    /// parallel. `None` unless both were seen.
    pub fn serial(&self) -> Option<bool> {
        Some(self.t01_foo_ms? > self.t01_l3_ms?)
    }

    /// Fig. 5: the MTA's query count, if it fetched the stress policy.
    pub fn limit_queries(&self) -> Option<u32> {
        self.t02_base.then_some(self.t02_queries)
    }
}

/// Walk the probe log once into one [`HostProbes`] per MTA with any
/// attributed probe query. Times are minima, so the record does not
/// depend on the log's order.
pub fn host_probes(log: &QueryLog) -> HashMap<usize, HostProbes> {
    fn earliest(seen: &mut Option<u64>, t: u64) {
        *seen = Some(seen.map_or(t, |s| s.min(t)));
    }
    let mut hosts: HashMap<usize, HostProbes> = HashMap::new();
    for (r, attr) in log.attributed() {
        let (Some(testid), Some(host)) = (attr.testid, attr.host_index) else {
            continue;
        };
        let p = hosts.entry(host).or_default();
        let first = attr.path.first();
        let base = attr.path.is_empty() && r.qtype == RecordType::Txt;
        match testid {
            "t01" => match first {
                Some("foo") => earliest(&mut p.t01_foo_ms, r.time_ms),
                Some("l3") => earliest(&mut p.t01_l3_ms, r.time_ms),
                _ => {}
            },
            "t02" => {
                p.t02_base |= base;
                // The HELO-identity lookup is not part of the stress tree
                // (deeper paths ending in "h" ARE tree nodes).
                if !attr.path.is_empty() && attr.path.as_str() != "h" {
                    p.t02_queries += 1;
                }
            }
            "t03" => {
                p.t03_base |= base;
                p.t03_helo |= first == Some("h");
            }
            "t04" => {
                p.t04_base |= base;
                p.t04_after |= first == Some("after");
            }
            "t05" => {
                p.t05_child |= first == Some("child");
                p.t05_after |= first == Some("after");
            }
            "t06" => {
                p.t06_base |= base;
                if first.is_some_and(|l| l.starts_with('v')) && r.qtype != RecordType::Txt {
                    p.t06_voids += 1;
                }
            }
            "t07" => {
                p.t07_base |= base;
                p.t07_fallback |= first == Some("gone") && r.qtype != RecordType::Mx;
            }
            "t08" => {
                p.t08_base |= base;
                p.t08_one |= first == Some("one");
                p.t08_two |= first == Some("two");
            }
            "t09" => {
                p.t09_udp |= base && r.transport == Transport::Udp;
                p.t09_tcp |= base && r.transport == Transport::Tcp;
            }
            "t10" => {
                p.t10_base |= base;
                p.t10_v6 |= first == Some("p") && r.via_ipv6;
            }
            "t11" => {
                p.t11_many |= first == Some("many") && r.qtype == RecordType::Mx;
                if attr.path.tail() == "many" && r.qtype != RecordType::Mx {
                    p.t11_addrs += 1;
                }
            }
            _ => {}
        }
    }
    hosts
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
/// cannot ask for `foo` (the `a` hint) before the L3 policy arrives
/// ([`HostProbes::serial`]).
pub fn serial_vs_parallel(log: &QueryLog) -> SerialParallel {
    let inferred: Vec<bool> = host_probes(log)
        .values()
        .filter_map(HostProbes::serial)
        .collect();
    SerialParallel {
        classified: inferred.len(),
        serial: inferred.iter().filter(|&&serial| serial).count(),
    }
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

/// Compute the Fig. 5 CDF inputs from test t02 observations
/// ([`HostProbes::limit_queries`]).
pub fn lookup_limits(log: &QueryLog) -> LimitAnalysis {
    let mut points: Vec<LimitPoint> = host_probes(log)
        .values()
        .filter_map(HostProbes::limit_queries)
        .map(|queries| LimitPoint {
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

/// The §7.3 rows in report order: test, behavior and the paper's
/// fraction. [`HostProbes::battery`] gives each MTA's cells in the
/// same order.
const BATTERY: [(&str, &str, f64); 13] = [
    ("t03", "checked the HELO identity's policy", 0.050),
    // ... and all of those proceeded to the MAIL policy anyway.
    ("t03", "HELO checkers that evaluated MAIL anyway", 1.0),
    (
        "t04",
        "kept evaluating past a main-policy syntax error",
        0.055,
    ),
    (
        "t05",
        "kept evaluating the parent past a child permerror",
        0.123,
    ),
    ("t06", "exceeded two void lookups", 0.97),
    ("t06", "resolved all five void names", 0.64),
    (
        "t07",
        "issued the forbidden A/AAAA fallback after failed mx",
        0.14,
    ),
    ("t08", "followed one of two duplicate records", 0.23),
    ("t08", "followed BOTH duplicate records", 0.0),
    ("t09", "retried over TCP after truncation", 1334.0 / 1336.0),
    ("t10", "retrieved the IPv6-only policy", 0.49),
    ("t11", "stopped at ≤10 per-mx address lookups", 0.077),
    ("t11", "queried all 20 exchanges", 0.64),
];

impl HostProbes {
    /// This MTA's cell of each [`BATTERY`] row: (evaluated the test,
    /// exhibited the behavior).
    fn battery(&self) -> [(bool, bool); 13] {
        [
            (self.t03_base, self.t03_helo),
            (self.t03_helo, self.t03_base),
            (self.t04_base, self.t04_after),
            (self.t05_child, self.t05_after),
            (self.t06_base, self.t06_voids > 2),
            (self.t06_base, self.t06_voids >= 5),
            (self.t07_base, self.t07_fallback),
            (self.t08_base, self.t08_one || self.t08_two),
            (self.t08_base, self.t08_one && self.t08_two),
            (self.t09_udp, self.t09_tcp),
            (self.t10_base, self.t10_v6),
            (self.t11_many, self.t11_addrs <= 10),
            (self.t11_many, self.t11_addrs >= 20),
        ]
    }
}

/// The full §7.3 battery. Every row counts its exhibiting MTAs among
/// the ones that evaluated the test.
pub fn behavior_battery(log: &QueryLog) -> Vec<BehaviorStat> {
    let mut stats: Vec<BehaviorStat> = BATTERY
        .iter()
        .map(|&(testid, behavior, paper_fraction)| BehaviorStat {
            testid,
            behavior,
            evaluated: 0,
            exhibited: 0,
            paper_fraction,
        })
        .collect();
    for probes in host_probes(log).values() {
        for (stat, (evaluated, exhibited)) in stats.iter_mut().zip(probes.battery()) {
            stat.evaluated += usize::from(evaluated);
            stat.exhibited += usize::from(evaluated && exhibited);
        }
    }
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

    /// A hand-built probe log with each case on which the §7 analyses
    /// and the §8 fingerprint once disagreed: a t01 tie and a `foo`
    /// query logged out of time order, t02 queries at the base name of
    /// another type, TXT queries at t06 `v*` names, a t10 `p` fetch over
    /// IPv4, and t06/t11 behavior from MTAs that never evaluated the
    /// test. Fig. 3, Fig. 5, the battery and the vectors all read the
    /// one record.
    #[test]
    fn edge_cases_read_one_record() {
        use crate::apparatus::QueryRecord;
        use crate::fingerprint::behavior_vectors;
        use mailval_dns::Name;
        let mut log = QueryLog::default();
        let mut q = |host: usize, name: &str, qtype, time_ms, via_ipv6| {
            let (testid, path) = name.split_once('/').unwrap_or((name, ""));
            let dot = if path.is_empty() { "" } else { "." };
            log.records.push(QueryRecord {
                time_ms,
                session: host,
                qname: Name::parse(&format!(
                    "{path}{dot}{testid}.m{host:05}.spf-test.dns-lab.org"
                ))
                .unwrap(),
                qtype,
                transport: Transport::Udp,
                via_ipv6,
            });
        };
        use RecordType::{Aaaa, Mx, Txt, A};
        // t01: host 1 asks `foo` and `l3` at the same time; host 2's
        // earliest `foo` is logged after a later one; host 3 is serial.
        q(1, "t01/l3", Txt, 100, false);
        q(1, "t01/foo", A, 100, false);
        q(2, "t01/foo", A, 300, false);
        q(2, "t01/l3", Txt, 200, false);
        q(2, "t01/foo", A, 150, false);
        q(3, "t01/l3", Txt, 200, false);
        q(3, "t01/foo", A, 250, false);
        // t02: a point needs the base TXT; `h` and base-name queries of
        // other types are not counted.
        q(1, "t02", Txt, 0, false);
        for path in ["s1", "a.s1", "h.f.c.a.s1", "h"] {
            q(1, &format!("t02/{path}"), Txt, 10, false);
        }
        q(2, "t02", A, 0, false);
        q(2, "t02/s1", Txt, 10, false);
        q(3, "t02", Txt, 0, false);
        q(3, "t02", Aaaa, 0, false);
        q(3, "t02/s1", Txt, 10, false);
        // t06: host 1 makes two voids and three TXT queries at `v*`
        // names; host 2 makes five voids without the base policy.
        q(1, "t06", Txt, 0, false);
        for (v, qtype) in [
            ("v1", A),
            ("v2", Aaaa),
            ("v3", Txt),
            ("v4", Txt),
            ("v5", Txt),
        ] {
            q(1, &format!("t06/{v}"), qtype, 10, false);
        }
        for v in 1..=5 {
            q(2, &format!("t06/v{v}"), A, 10, false);
        }
        // t10: host 1 fetches `p` over IPv4, host 3 over IPv6.
        for (host, via_ipv6) in [(1, false), (3, true)] {
            q(host, "t10", Txt, 0, false);
            q(host, "t10/p.v6only", Txt, 10, via_ipv6);
        }
        // t11: host 2 looks up all 20 exchanges without the MX set.
        q(1, "t11/many", Mx, 0, false);
        q(3, "t11/many", Mx, 0, false);
        for i in 1..=20 {
            for host in [1, 2] {
                q(host, &format!("t11/mx{i:02}.many"), A, 10, false);
            }
        }
        for i in 1..=5 {
            q(3, &format!("t11/mx{i:02}.many"), A, 10, false);
        }

        let probes = host_probes(&log);
        assert_eq!(probes.len(), 3);
        let serial: Vec<Option<bool>> = (1..=3).map(|h| probes[&h].serial()).collect();
        assert_eq!(serial, [Some(false), Some(false), Some(true)]);
        assert_eq!(probes[&2].t01_foo_ms, Some(150));
        let sp = serial_vs_parallel(&log);
        assert_eq!((sp.classified, sp.serial), (3, 1));

        let limits = lookup_limits(&log);
        let queries: Vec<u32> = limits.points.iter().map(|p| p.queries).collect();
        assert_eq!(queries, [1, 3]);
        assert_eq!((limits.under_10, limits.all_46), (2, 0));

        assert_eq!((probes[&1].t06_voids, probes[&2].t06_voids), (2, 5));
        let cells: Vec<(&str, usize, usize)> = behavior_battery(&log)
            .iter()
            .filter(|s| s.evaluated > 0)
            .map(|s| (s.behavior, s.evaluated, s.exhibited))
            .collect();
        assert_eq!(
            cells,
            [
                ("exceeded two void lookups", 1, 0),
                ("resolved all five void names", 1, 0),
                ("retrieved the IPv6-only policy", 2, 1),
                ("stopped at ≤10 per-mx address lookups", 2, 1),
                ("queried all 20 exchanges", 2, 1),
            ]
        );

        let vectors = behavior_vectors(&log);
        let v = |h: usize| vectors[&h];
        assert_eq!(
            [v(1).parallel, v(2).parallel, v(3).parallel],
            [Some(true), Some(true), Some(false)]
        );
        assert_eq!(
            [v(1).limit_bucket, v(2).limit_bucket, v(3).limit_bucket],
            [Some(0), None, Some(0)]
        );
        assert_eq!([v(1).void_bucket, v(2).void_bucket], [Some(0), None]);
        assert_eq!(
            [v(1).ipv6, v(2).ipv6, v(3).ipv6],
            [Some(false), None, Some(true)]
        );
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
