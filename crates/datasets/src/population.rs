//! Population generation: domains, their MX hosts, AS structure and
//! demand, matching the dataset shapes of Tables 1–3 of the paper.

use crate::alexa::{assign_tiers, AlexaTier};
use crate::asn::{
    AsSampler, NOTIFY_EMAIL_AS_COUNT, NOTIFY_EMAIL_TOP_ASES, TWO_WEEK_MX_AS_COUNT,
    TWO_WEEK_MX_TOP_ASES,
};
use crate::tld::{
    TldSampler, NOTIFY_EMAIL_TLD_COUNT, NOTIFY_EMAIL_TOP_TLDS, TWO_WEEK_MX_TLD_COUNT,
    TWO_WEEK_MX_TOP_TLDS,
};
use mailval_dns::Name;
use mailval_simnet::SimRng;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Which dataset to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// The notification-campaign domains (§4.1; also the basis of
    /// NotifyMX).
    NotifyEmail,
    /// The BYU outgoing-MX domains (§4.1).
    TwoWeekMx,
}

/// Paper dataset sizes (Table 2).
impl DatasetKind {
    /// Domains in the dataset at scale 1.0.
    pub fn paper_domain_count(self) -> usize {
        match self {
            DatasetKind::NotifyEmail => 26_695,
            DatasetKind::TwoWeekMx => 22_548,
        }
    }
}

/// One MTA host: a named machine with addresses, living in an AS.
#[derive(Debug, Clone)]
pub struct MtaHost {
    /// Host name (MX exchange target).
    pub name: Name,
    /// IPv4 address (every simulated host has one).
    pub ipv4: Ipv4Addr,
    /// Optional IPv6 address.
    pub ipv6: Option<Ipv6Addr>,
    /// AS announcing this host's prefix.
    pub asn: u32,
}

/// One recipient domain.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Index in the population (stable identifier).
    pub index: usize,
    /// Domain name.
    pub name: Name,
    /// TLD label.
    pub tld: String,
    /// AS of its MTA hosts.
    pub asn: u32,
    /// Organization name of that AS.
    pub as_name: String,
    /// Hosted on a shared provider pool?
    pub shared_provider: bool,
    /// Alexa membership (NotifyEmail only; `Unlisted` otherwise).
    pub alexa: AlexaTier,
    /// MX host indices (into [`Population::hosts`]) in preference order.
    pub host_indices: Vec<usize>,
    /// MX queries observed for this domain during the collection window
    /// (TwoWeekMX demand; drives the decile split of Table 5).
    pub demand_queries: u64,
    /// Did the June-2021 re-resolution fail (the 1% of NotifyMX, §4.2)?
    pub mx_reresolution_failed: bool,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Which dataset.
    pub kind: DatasetKind,
    /// Scale factor on the paper's domain count (1.0 = full scale).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PopulationConfig {
    /// Full-scale config.
    pub fn paper_scale(kind: DatasetKind, seed: u64) -> Self {
        PopulationConfig {
            kind,
            scale: 1.0,
            seed,
        }
    }

    /// Reduced-scale config for tests.
    pub fn test_scale(kind: DatasetKind, seed: u64) -> Self {
        PopulationConfig {
            kind,
            scale: 0.02,
            seed,
        }
    }
}

/// A generated dataset population.
#[derive(Debug, Clone)]
pub struct Population {
    /// The dataset this models.
    pub kind: DatasetKind,
    /// Domains.
    pub domains: Vec<DomainSpec>,
    /// Unique MTA hosts (shared across domains).
    pub hosts: Vec<MtaHost>,
}

struct PoolState {
    host_indices: Vec<usize>,
}

impl Population {
    /// Generate a population.
    pub fn generate(config: &PopulationConfig) -> Population {
        let mut rng = SimRng::new(config.seed);
        let n = ((config.kind.paper_domain_count() as f64) * config.scale).round() as usize;
        let n = n.max(10);

        let (tld_sampler, as_sampler) = match config.kind {
            DatasetKind::NotifyEmail => (
                TldSampler::new(NOTIFY_EMAIL_TOP_TLDS, NOTIFY_EMAIL_TLD_COUNT),
                AsSampler::new(
                    NOTIFY_EMAIL_TOP_ASES,
                    scale_count(NOTIFY_EMAIL_AS_COUNT, config.scale),
                ),
            ),
            DatasetKind::TwoWeekMx => (
                TldSampler::new(TWO_WEEK_MX_TOP_TLDS, TWO_WEEK_MX_TLD_COUNT),
                AsSampler::new(
                    TWO_WEEK_MX_TOP_ASES,
                    scale_count(TWO_WEEK_MX_AS_COUNT, config.scale),
                ),
            ),
        };

        // IPv6 share of hosts, calibrated to Table 2's address counts.
        let v6_prob = match config.kind {
            DatasetKind::NotifyEmail => 2_700.0 / 26_196.0,
            DatasetKind::TwoWeekMx => 471.0 / 10_666.0,
        };

        // Pass 1: per-domain TLD/AS assignment.
        struct Draft {
            tld: String,
            asn: u32,
            as_name: String,
            shared: bool,
        }
        let mut drafts = Vec::with_capacity(n);
        let mut as_domain_counts: HashMap<u32, usize> = HashMap::new();
        for _ in 0..n {
            let tld = tld_sampler.sample(&mut rng).to_string();
            let (asn, as_name, shared) = as_sampler.sample(&mut rng);
            *as_domain_counts.entry(asn).or_default() += 1;
            drafts.push(Draft {
                tld,
                asn,
                as_name: as_name.to_string(),
                shared,
            });
        }

        // Pass 2: build per-AS host pools sized to the hosting model:
        // big shared providers run pools ~ 4·sqrt(domains); small ASes
        // run 1–3 boxes.
        let mut pools: HashMap<u32, PoolState> = HashMap::new();
        let mut hosts: Vec<MtaHost> = Vec::new();
        let make_pool = |asn: u32,
                         shared: bool,
                         domain_count: usize,
                         hosts: &mut Vec<MtaHost>,
                         rng: &mut SimRng| {
            let size = if shared {
                ((4.0 * (domain_count as f64).sqrt()).ceil() as usize).max(2)
            } else {
                // Tail ASes are small hosting orgs running a few boxes;
                // the constant is tuned so unique-MTA counts land on
                // Table 2 (see EXPERIMENTS.md).
                ((2.2 * (domain_count as f64).sqrt()).ceil() as usize).clamp(1, 10)
            };
            let mut host_indices = Vec::with_capacity(size);
            let pool_name = Name::parse(&format!("as{asn}.mail.sim")).expect("valid");
            for slot in 0..size {
                let idx = hosts.len();
                let ipv4 = index_to_v4(idx);
                let ipv6 = if rng.chance(v6_prob) {
                    Some(index_to_v6(idx))
                } else {
                    None
                };
                let name = pool_name.prepend(&format!("mx{slot}")).expect("valid");
                hosts.push(MtaHost {
                    name,
                    ipv4,
                    ipv6,
                    asn,
                });
                host_indices.push(idx);
            }
            PoolState { host_indices }
        };

        // Demand model for TwoWeekMX: Zipf over rank with exponent 0.9,
        // scaled so the busiest domain sees ~50k queries in two weeks.
        let mut demand_ranks: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut demand_ranks);

        // Each TLD's name, parsed the first time a domain draws it.
        let mut tld_names: HashMap<String, Name> = HashMap::new();
        let mut domains = Vec::with_capacity(n);
        for (i, draft) in drafts.into_iter().enumerate() {
            let count = as_domain_counts[&draft.asn];
            let pool_missing = !pools.contains_key(&draft.asn);
            if pool_missing {
                let pool = make_pool(draft.asn, draft.shared, count, &mut hosts, &mut rng);
                pools.insert(draft.asn, pool);
            }
            let pool = &pools[&draft.asn];
            // Number of MX records for the domain.
            let mx_count = match rng.next_f64() {
                x if x < 0.55 => 1,
                x if x < 0.90 => 2,
                _ => 3,
            }
            .min(pool.host_indices.len());
            // Pick distinct hosts from the pool.
            let mut host_indices = Vec::with_capacity(mx_count);
            let mut tries = 0;
            while host_indices.len() < mx_count && tries < 20 {
                let candidate = *rng.pick(&pool.host_indices);
                if !host_indices.contains(&candidate) {
                    host_indices.push(candidate);
                }
                tries += 1;
            }
            let demand_queries = match config.kind {
                DatasetKind::TwoWeekMx => {
                    let rank = demand_ranks[i] + 1;
                    ((50_000.0 / (rank as f64).powf(0.9)).ceil() as u64).max(1)
                }
                DatasetKind::NotifyEmail => 0,
            };
            let tld = match tld_names.get(&draft.tld) {
                Some(tld) => tld,
                None => tld_names
                    .entry(draft.tld.clone())
                    .or_insert(Name::parse(&draft.tld).expect("valid")),
            };
            let name = tld.prepend(&format!("org{i:05}")).expect("valid");
            domains.push(DomainSpec {
                index: i,
                name,
                tld: draft.tld,
                asn: draft.asn,
                as_name: draft.as_name,
                shared_provider: draft.shared,
                alexa: AlexaTier::Unlisted,
                host_indices,
                demand_queries,
                mx_reresolution_failed: false,
            });
        }

        // Alexa tiers (NotifyEmail only) and the 1% NotifyMX
        // re-resolution failures (§4.2).
        if config.kind == DatasetKind::NotifyEmail {
            let tiers = assign_tiers(n, &mut rng);
            for (d, tier) in domains.iter_mut().zip(tiers) {
                d.alexa = tier;
            }
            for d in domains.iter_mut() {
                d.mx_reresolution_failed = rng.chance(305.0 / 26_695.0);
            }
        }

        Population {
            kind: config.kind,
            domains,
            hosts,
        }
    }

    /// Unique hosts reachable via any MX of any domain (the NotifyMX /
    /// TwoWeekMX "MTAs" unit).
    pub fn used_host_indices(&self) -> Vec<usize> {
        let mut used: Vec<bool> = vec![false; self.hosts.len()];
        for d in &self.domains {
            for &h in &d.host_indices {
                used[h] = true;
            }
        }
        (0..self.hosts.len()).filter(|&i| used[i]).collect()
    }

    /// Unique first-preference hosts (the NotifyEmail "MTAs" unit: the
    /// paper delivered to the first responsive MTA only).
    pub fn first_host_indices(&self) -> Vec<usize> {
        let mut used: Vec<bool> = vec![false; self.hosts.len()];
        for d in &self.domains {
            if let Some(&h) = d.host_indices.first() {
                used[h] = true;
            }
        }
        (0..self.hosts.len()).filter(|&i| used[i]).collect()
    }

    /// (IPv4 count, IPv6 count) over a host-index set.
    pub fn address_counts(&self, host_indices: &[usize]) -> (usize, usize) {
        let v4 = host_indices.len();
        let v6 = host_indices
            .iter()
            .filter(|&&i| self.hosts[i].ipv6.is_some())
            .count();
        (v4, v6)
    }

    /// Decile split of domains by demand (Decile 1 = most queried), as in
    /// Table 5. Only meaningful for TwoWeekMX.
    pub fn demand_deciles(&self) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.domains.len()).collect();
        order.sort_by(|&a, &b| {
            self.domains[b]
                .demand_queries
                .cmp(&self.domains[a].demand_queries)
                .then(a.cmp(&b))
        });
        let n = order.len();
        let mut deciles = Vec::with_capacity(10);
        for d in 0..10 {
            let start = d * n / 10;
            let end = (d + 1) * n / 10;
            deciles.push(order[start..end].to_vec());
        }
        deciles
    }
}

fn scale_count(count: usize, scale: f64) -> usize {
    ((count as f64) * scale).round().max(12.0) as usize
}

/// Deterministic synthetic IPv4 for host index `i` (TEST-NET-free
/// 100.64/10 + 10/8 style space; uniqueness is what matters).
fn index_to_v4(i: usize) -> Ipv4Addr {
    let v = 0x0A00_0000u32 + i as u32; // 10.0.0.0/8
    Ipv4Addr::from(v)
}

/// Deterministic synthetic IPv6 for host index `i`.
fn index_to_v6(i: usize) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, 0x4d58, 0, 0, 0, (i >> 16) as u16, i as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_counts_match_table2_shape() {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::TwoWeekMx,
            scale: 0.25,
            seed: 42,
        });
        let n = pop.domains.len();
        assert_eq!(n, (22_548.0 * 0.25f64).round() as usize);
        // MTAs-to-domains ratio: the paper has 11,137 / 22,548 ≈ 0.49.
        let used = pop.used_host_indices();
        let ratio = used.len() as f64 / n as f64;
        assert!(
            (0.30..0.75).contains(&ratio),
            "host/domain ratio {ratio} out of range"
        );
        // IPv6 share ≈ 4.4% of hosts.
        let (v4, v6) = pop.address_counts(&used);
        let share = v6 as f64 / v4 as f64;
        assert!((0.01..0.10).contains(&share), "v6 share {share}");
    }

    #[test]
    fn notify_email_first_hosts_fewer_than_all() {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::NotifyEmail,
            scale: 0.1,
            seed: 7,
        });
        let first = pop.first_host_indices();
        let all = pop.used_host_indices();
        assert!(first.len() < all.len());
        // Paper ratio: 18,851 first-responsive vs ~28,896 all ≈ 0.65.
        let ratio = first.len() as f64 / all.len() as f64;
        assert!((0.4..0.95).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PopulationConfig::test_scale(DatasetKind::TwoWeekMx, 99);
        let a = Population::generate(&cfg);
        let b = Population::generate(&cfg);
        assert_eq!(a.domains.len(), b.domains.len());
        assert_eq!(a.hosts.len(), b.hosts.len());
        for (x, y) in a.domains.iter().zip(&b.domains) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.host_indices, y.host_indices);
            assert_eq!(x.demand_queries, y.demand_queries);
        }
    }

    #[test]
    fn domains_have_hosts() {
        let pop = Population::generate(&PopulationConfig::test_scale(DatasetKind::TwoWeekMx, 3));
        for d in &pop.domains {
            assert!(!d.host_indices.is_empty(), "{} has no MX", d.name);
            for &h in &d.host_indices {
                assert!(h < pop.hosts.len());
            }
        }
    }

    #[test]
    fn unique_domain_names_and_ips() {
        let pop = Population::generate(&PopulationConfig::test_scale(DatasetKind::NotifyEmail, 3));
        let mut names = std::collections::HashSet::new();
        for d in &pop.domains {
            assert!(names.insert(d.name.clone()), "dup {}", d.name);
        }
        let mut ips = std::collections::HashSet::new();
        for h in &pop.hosts {
            assert!(ips.insert(h.ipv4), "dup ip {}", h.ipv4);
        }
    }

    #[test]
    fn deciles_are_even_and_ordered() {
        let pop = Population::generate(&PopulationConfig::test_scale(DatasetKind::TwoWeekMx, 11));
        let deciles = pop.demand_deciles();
        assert_eq!(deciles.len(), 10);
        let total: usize = deciles.iter().map(Vec::len).sum();
        assert_eq!(total, pop.domains.len());
        // Demand is non-increasing across decile boundaries.
        let max_d10 = deciles[9]
            .iter()
            .map(|&i| pop.domains[i].demand_queries)
            .max()
            .unwrap();
        let min_d1 = deciles[0]
            .iter()
            .map(|&i| pop.domains[i].demand_queries)
            .min()
            .unwrap();
        assert!(min_d1 >= max_d10);
    }

    #[test]
    fn google_hosts_large_share_of_twoweek() {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::TwoWeekMx,
            scale: 0.2,
            seed: 5,
        });
        let google = pop.domains.iter().filter(|d| d.asn == 15169).count();
        let share = google as f64 / pop.domains.len() as f64;
        assert!((0.28..0.36).contains(&share), "google share {share}");
    }

    #[test]
    fn names_equal_the_formatted_and_parsed_reference() {
        for kind in [DatasetKind::NotifyEmail, DatasetKind::TwoWeekMx] {
            for seed in [1, 7, 2021, 0xdead_beef] {
                let pop = Population::generate(&PopulationConfig {
                    kind,
                    scale: 0.05,
                    seed,
                });
                for (i, d) in pop.domains.iter().enumerate() {
                    let expected = Name::parse(&format!("org{i:05}.{}", d.tld)).unwrap();
                    assert_eq!(d.name, expected, "{kind:?} seed {seed}");
                    assert_eq!(d.name.to_string(), expected.to_string());
                }
                // Pools are laid out one after another, slot 0 first.
                let mut slots: HashMap<u32, usize> = HashMap::new();
                for h in &pop.hosts {
                    let slot = slots.entry(h.asn).or_default();
                    let expected = Name::parse(&format!("mx{slot}.as{}.mail.sim", h.asn)).unwrap();
                    assert_eq!(h.name, expected, "{kind:?} seed {seed}");
                    assert_eq!(h.name.to_string(), expected.to_string());
                    *slot += 1;
                }
            }
        }
    }

    #[test]
    fn reresolution_failures_only_in_notify() {
        let notify =
            Population::generate(&PopulationConfig::test_scale(DatasetKind::NotifyEmail, 13));
        let failures = notify
            .domains
            .iter()
            .filter(|d| d.mx_reresolution_failed)
            .count();
        assert!(failures > 0, "some failures expected");
        let share = failures as f64 / notify.domains.len() as f64;
        assert!(share < 0.04, "≈1% expected, got {share}");
        let twoweek =
            Population::generate(&PopulationConfig::test_scale(DatasetKind::TwoWeekMx, 13));
        assert!(twoweek.domains.iter().all(|d| !d.mx_reresolution_failed));
    }
}
