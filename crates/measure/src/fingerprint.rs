//! Validator fingerprinting — the paper's proposed future work (§8):
//! "the collective set of behaviors might be used to classify and even
//! fingerprint an SPF validator implementation, to learn how many
//! distinct implementations are deployed."
//!
//! Each MTA's outcomes across the behavior tests form a feature vector;
//! identical vectors are grouped into implementation classes.

use crate::apparatus::QueryLog;
use mailval_dns::rr::RecordType;
use mailval_dns::server::Transport;
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

/// Extract behavior vectors from a probe campaign's log.
pub fn behavior_vectors(log: &QueryLog) -> HashMap<usize, BehaviorVector> {
    // Collect per-test intermediate state.
    #[derive(Default)]
    struct Scratch {
        t01_foo: Option<u64>,
        t01_l3: Option<u64>,
        t02_count: u32,
        t02_seen: bool,
        t03_base: bool,
        t03_helo: bool,
        t04_base: bool,
        t04_after: bool,
        t05_child: bool,
        t05_after: bool,
        t06_base: bool,
        t06_voids: u32,
        t07_base: bool,
        t07_fallback: bool,
        t08_base: bool,
        t08_follow: bool,
        t09_udp: bool,
        t09_tcp: bool,
        t10_base: bool,
        t10_v6: bool,
    }
    let mut scratch: HashMap<usize, Scratch> = HashMap::new();

    for (r, attr) in log.attributed() {
        let (Some(testid), Some(h)) = (attr.testid, attr.host_index) else {
            continue;
        };
        let s = scratch.entry(h).or_default();
        let p0 = attr.path.first();
        let base = attr.path.is_empty() && r.qtype == RecordType::Txt;
        match testid {
            "t01" => match p0 {
                Some("foo") => {
                    s.t01_foo.get_or_insert(r.time_ms);
                }
                Some("l3") => {
                    s.t01_l3.get_or_insert(r.time_ms);
                }
                _ => {}
            },
            "t02" => {
                if base {
                    s.t02_seen = true;
                } else if attr.path.as_str() != "h" {
                    s.t02_count += 1;
                }
            }
            "t03" => {
                if base {
                    s.t03_base = true;
                }
                if p0 == Some("h") {
                    s.t03_helo = true;
                }
            }
            "t04" => {
                if base {
                    s.t04_base = true;
                }
                if p0 == Some("after") {
                    s.t04_after = true;
                }
            }
            "t05" => {
                if p0 == Some("child") {
                    s.t05_child = true;
                }
                if p0 == Some("after") {
                    s.t05_after = true;
                }
            }
            "t06" => {
                if base {
                    s.t06_base = true;
                } else if p0.is_some_and(|x| x.starts_with('v')) {
                    s.t06_voids += 1;
                }
            }
            "t07" => {
                if base {
                    s.t07_base = true;
                }
                if p0 == Some("gone") && r.qtype != RecordType::Mx {
                    s.t07_fallback = true;
                }
            }
            "t08" => {
                if base {
                    s.t08_base = true;
                }
                if matches!(p0, Some("one") | Some("two")) {
                    s.t08_follow = true;
                }
            }
            "t09" => {
                if base && r.transport == Transport::Udp {
                    s.t09_udp = true;
                }
                if base && r.transport == Transport::Tcp {
                    s.t09_tcp = true;
                }
            }
            "t10" => {
                if base {
                    s.t10_base = true;
                }
                if p0 == Some("p") {
                    s.t10_v6 = true;
                }
            }
            _ => {}
        }
    }

    let mut vectors: HashMap<usize, BehaviorVector> = HashMap::new();
    for (h, s) in scratch {
        let v = vectors.entry(h).or_default();
        if let (Some(foo_ms), Some(l3)) = (s.t01_foo, s.t01_l3) {
            v.parallel = Some(foo_ms < l3);
        }
        if s.t02_seen {
            v.limit_bucket = Some(match s.t02_count {
                c if c <= 10 => 0,
                c if c >= 46 => 2,
                _ => 1,
            });
        }
        if s.t03_base {
            v.helo_check = Some(s.t03_helo);
        }
        if s.t04_base {
            v.syntax_lenient = Some(s.t04_after);
        }
        if s.t05_child {
            v.child_lenient = Some(s.t05_after);
        }
        if s.t06_base {
            v.void_bucket = Some(match s.t06_voids {
                c if c <= 2 => 0,
                c if c >= 5 => 2,
                _ => 1,
            });
        }
        if s.t07_base {
            v.mx_fallback = Some(s.t07_fallback);
        }
        if s.t08_base {
            v.multi_follow = Some(s.t08_follow);
        }
        if s.t09_udp {
            v.tcp = Some(s.t09_tcp);
        }
        if s.t10_base {
            v.ipv6 = Some(s.t10_v6);
        }
    }
    vectors
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
