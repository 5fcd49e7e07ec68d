//! Validator fingerprinting — the paper's proposed future work (§8):
//! "the collective set of behaviors might be used to classify and even
//! fingerprint an SPF validator implementation, to learn how many
//! distinct implementations are deployed."
//!
//! Each MTA's outcomes across the behavior tests, read off the same
//! per-MTA probe record the §7 analyses use
//! ([`crate::analysis::host_probes`]), form a feature vector; identical
//! vectors are grouped into implementation classes.

use crate::analysis::{host_probes, HostProbes};
use crate::apparatus::QueryLog;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The behavior feature vector of one MTA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BehaviorVector {
    /// §7.1: parallel lookups (t01).
    pub parallel: Option<bool>,
    /// Fig. 5 bucket: 0 = stops <10, 1 = intermediate, 2 = all 46 (t02).
    pub limit_bucket: Option<u8>,
    /// Checked the HELO policy (t03).
    pub helo_check: Option<bool>,
    /// Continued past a main-policy syntax error (t04).
    pub syntax_lenient: Option<bool>,
    /// Continued past a child permerror (t05).
    pub child_lenient: Option<bool>,
    /// Void-lookup bucket: 0 = ≤2, 1 = 3–4, 2 = all 5 (t06).
    pub void_bucket: Option<u8>,
    /// Performed the forbidden mx fallback (t07).
    pub mx_fallback: Option<bool>,
    /// Followed one of multiple records (t08).
    pub multi_follow: Option<bool>,
    /// Fell back to TCP (t09).
    pub tcp: Option<bool>,
    /// Retrieved the IPv6-only policy (t10).
    pub ipv6: Option<bool>,
}

/// One fingerprint class: a distinct vector and the MTAs exhibiting it.
#[derive(Debug, Clone)]
pub struct FingerprintClass {
    /// The shared behavior vector.
    pub vector: BehaviorVector,
    /// Host indices in this class.
    pub hosts: Vec<usize>,
}

/// Extract behavior vectors from a probe campaign's log: one per MTA
/// with any probe query, read off its [`HostProbes`] record.
pub fn behavior_vectors(log: &QueryLog) -> HashMap<usize, BehaviorVector> {
    host_probes(log)
        .into_iter()
        .map(|(h, p)| (h, BehaviorVector::of(&p)))
        .collect()
}

impl BehaviorVector {
    /// The vector of one MTA's probe record: a dimension is `None`
    /// unless the MTA evaluated its test.
    fn of(p: &HostProbes) -> BehaviorVector {
        let bucket = |count: u32, low: u32, high: u32| match count {
            c if c <= low => 0,
            c if c >= high => 2,
            _ => 1,
        };
        BehaviorVector {
            parallel: p.serial().map(|serial| !serial),
            limit_bucket: p.limit_queries().map(|c| bucket(c, 10, 46)),
            helo_check: p.t03_base.then_some(p.t03_helo),
            syntax_lenient: p.t04_base.then_some(p.t04_after),
            child_lenient: p.t05_child.then_some(p.t05_after),
            void_bucket: p.t06_base.then(|| bucket(p.t06_voids, 2, 5)),
            mx_fallback: p.t07_base.then_some(p.t07_fallback),
            multi_follow: p.t08_base.then_some(p.t08_one || p.t08_two),
            tcp: p.t09_udp.then_some(p.t09_tcp),
            ipv6: p.t10_base.then_some(p.t10_v6),
        }
    }
}

/// Group MTAs into implementation classes by exact vector equality,
/// largest class first.
pub fn classify(vectors: &HashMap<usize, BehaviorVector>) -> Vec<FingerprintClass> {
    let mut groups: BTreeMap<BehaviorVector, Vec<usize>> = BTreeMap::new();
    for (&h, &v) in vectors {
        groups.entry(v).or_default().push(h);
    }
    let mut classes: Vec<FingerprintClass> = groups
        .into_iter()
        .map(|(vector, mut hosts)| {
            hosts.sort_unstable();
            FingerprintClass { vector, hosts }
        })
        .collect();
    classes.sort_by_key(|c| std::cmp::Reverse(c.hosts.len()));
    classes
}

/// Summary stats over a classification.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintSummary {
    /// Fingerprinted MTAs.
    pub mtas: usize,
    /// Distinct behavior classes.
    pub classes: usize,
    /// Size of the largest class.
    pub largest: usize,
    /// Classes with a single member.
    pub singletons: usize,
}

/// Summarize a classification.
pub fn summarize(classes: &[FingerprintClass]) -> FingerprintSummary {
    FingerprintSummary {
        mtas: classes.iter().map(|c| c.hosts.len()).sum(),
        classes: classes.len(),
        largest: classes.first().map(|c| c.hosts.len()).unwrap_or(0),
        singletons: classes.iter().filter(|c| c.hosts.len() == 1).count(),
    }
}

/// Hosts whose vectors are fully populated (every probe test answered).
pub fn fully_observed(vectors: &HashMap<usize, BehaviorVector>) -> HashSet<usize> {
    vectors
        .iter()
        .filter(|(_, v)| {
            v.parallel.is_some()
                && v.limit_bucket.is_some()
                && v.helo_check.is_some()
                && v.syntax_lenient.is_some()
                && v.void_bucket.is_some()
        })
        .map(|(&h, _)| h)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, sample_host_profiles, CampaignConfig, CampaignKind};
    use mailval_datasets::{DatasetKind, Population, PopulationConfig};
    use mailval_simnet::LatencyModel;

    #[test]
    fn fingerprints_cluster_mtas() {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::TwoWeekMx,
            scale: 0.015,
            seed: 31,
        });
        let profiles = sample_host_profiles(&pop, 31);
        let result = run_campaign(
            &CampaignConfig {
                kind: CampaignKind::TwoWeekMx,
                tests: vec![
                    "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10",
                ],
                seed: 31,
                probe_pause_ms: 15_000,
                latency: LatencyModel::default(),
                shards: 1,
                faults: mailval_simnet::FaultConfig::default(),
                ..CampaignConfig::default()
            },
            &pop,
            &profiles,
        );
        let vectors = behavior_vectors(&result.log);
        assert!(!vectors.is_empty());
        let classes = classify(&vectors);
        let summary = summarize(&classes);
        assert_eq!(summary.mtas, vectors.len());
        assert!(summary.classes >= 2, "expect behavioral diversity");
        assert!(summary.largest >= 1);
        // Among classified validators, the serial mainstream dominates
        // (§7.1: 97%).
        let serial = vectors
            .values()
            .filter(|v| v.parallel == Some(false))
            .count();
        let parallel = vectors
            .values()
            .filter(|v| v.parallel == Some(true))
            .count();
        assert!(serial > parallel, "serial {serial} vs parallel {parallel}");
    }
}
