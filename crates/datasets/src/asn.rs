//! AS marginals (Table 3 of the paper) and provider pools.
//!
//! The paper counts an AS once per domain whose MTA addresses fall in a
//! prefix announced by that AS; Table 3 gives the top-10 shares. The
//! big named ASes are mail *providers* (Google, Microsoft, Proofpoint,
//! Mimecast, ...) hosting many domains on shared MTA pools — which is
//! exactly why the datasets have far fewer MTAs than domains.

use mailval_simnet::{SimRng, WeightTable};

/// One AS and its share of a dataset's domains.
#[derive(Debug, Clone, Copy)]
pub struct AsShare {
    /// AS number.
    pub asn: u32,
    /// Organization name.
    pub name: &'static str,
    /// Fraction of domains.
    pub share: f64,
    /// Is this a shared mail-provider AS (domains share MTA pools)?
    pub shared_provider: bool,
}

/// Table 3, NotifyEmail column (10,937 total ASes).
pub const NOTIFY_EMAIL_TOP_ASES: &[AsShare] = &[
    AsShare {
        asn: 16509,
        name: "Amazon",
        share: 0.023,
        shared_provider: true,
    },
    AsShare {
        asn: 26211,
        name: "Proofpoint",
        share: 0.017,
        shared_provider: true,
    },
    AsShare {
        asn: 22843,
        name: "Proofpoint",
        share: 0.016,
        shared_provider: true,
    },
    AsShare {
        asn: 46606,
        name: "Unified Layer",
        share: 0.013,
        shared_provider: true,
    },
    AsShare {
        asn: 16276,
        name: "OVH",
        share: 0.0095,
        shared_provider: false,
    },
    AsShare {
        asn: 24940,
        name: "Hetzner",
        share: 0.0092,
        shared_provider: false,
    },
    AsShare {
        asn: 16417,
        name: "IronPort",
        share: 0.0091,
        shared_provider: true,
    },
    AsShare {
        asn: 14618,
        name: "Amazon",
        share: 0.0088,
        shared_provider: true,
    },
    AsShare {
        asn: 12824,
        name: "home.pl",
        share: 0.0054,
        shared_provider: true,
    },
    AsShare {
        asn: 52129,
        name: "Proofpoint",
        share: 0.0043,
        shared_provider: true,
    },
];

/// Total ASes in the NotifyEmail dataset.
pub const NOTIFY_EMAIL_AS_COUNT: usize = 10_937;

/// Table 3, TwoWeekMX column (1,795 total ASes).
pub const TWO_WEEK_MX_TOP_ASES: &[AsShare] = &[
    AsShare {
        asn: 15169,
        name: "Google",
        share: 0.32,
        shared_provider: true,
    },
    AsShare {
        asn: 8075,
        name: "Microsoft",
        share: 0.20,
        shared_provider: true,
    },
    AsShare {
        asn: 16509,
        name: "Amazon",
        share: 0.043,
        shared_provider: true,
    },
    AsShare {
        asn: 22843,
        name: "Proofpoint",
        share: 0.041,
        shared_provider: true,
    },
    AsShare {
        asn: 26211,
        name: "Proofpoint",
        share: 0.032,
        shared_provider: true,
    },
    AsShare {
        asn: 30031,
        name: "Mimecast",
        share: 0.023,
        shared_provider: true,
    },
    AsShare {
        asn: 14618,
        name: "Amazon",
        share: 0.017,
        shared_provider: true,
    },
    AsShare {
        asn: 26496,
        name: "GoDaddy",
        share: 0.016,
        shared_provider: true,
    },
    AsShare {
        asn: 46606,
        name: "Unified Layer",
        share: 0.013,
        shared_provider: true,
    },
    AsShare {
        asn: 16417,
        name: "IronPort",
        share: 0.012,
        shared_provider: true,
    },
];

/// Total ASes in the TwoWeekMX dataset.
pub const TWO_WEEK_MX_AS_COUNT: usize = 1_795;

/// An AS assignment sampler: top ASes at their published shares, the
/// remaining mass over a long tail of synthetic ASes each hosting a
/// handful of (self-hosted) domains.
#[derive(Debug, Clone)]
pub struct AsSampler {
    entries: Vec<(u32, String, bool)>,
    weights: WeightTable,
}

impl AsSampler {
    /// Build from a Table 3 column.
    pub fn new(top: &[AsShare], total_ases: usize) -> AsSampler {
        let mut entries: Vec<(u32, String, bool)> = top
            .iter()
            .map(|a| (a.asn, a.name.to_string(), a.shared_provider))
            .collect();
        let mut weights: Vec<f64> = top.iter().map(|a| a.share).collect();
        let top_mass: f64 = weights.iter().sum();
        let tail_count = total_ases.saturating_sub(top.len()).max(1);
        let tail_mass = (1.0 - top_mass).max(0.0);
        // Tail ASes are mostly self-hosting orgs: geometric decay.
        let ratio: f64 = 1.0 - 3.0 / tail_count as f64;
        let mut tail_weights: Vec<f64> = (0..tail_count).map(|i| ratio.powi(i as i32)).collect();
        let tail_total: f64 = tail_weights.iter().sum();
        for w in &mut tail_weights {
            *w *= tail_mass / tail_total;
        }
        for (i, &w) in tail_weights.iter().enumerate() {
            entries.push((64512 + i as u32, format!("AS-tail-{i}"), false));
            weights.push(w);
        }
        AsSampler {
            entries,
            weights: WeightTable::new(weights),
        }
    }

    /// Sample (asn, name, shared_provider).
    pub fn sample(&self, rng: &mut SimRng) -> (u32, &str, bool) {
        let idx = rng.weighted_pick(&self.weights);
        let (asn, name, shared) = &self.entries[idx];
        (*asn, name.as_str(), *shared)
    }

    /// Number of distinct ASes.
    pub fn as_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twoweek_shares_reproduced() {
        let sampler = AsSampler::new(TWO_WEEK_MX_TOP_ASES, TWO_WEEK_MX_AS_COUNT);
        let mut rng = SimRng::new(5);
        let mut google = 0usize;
        let mut microsoft = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let (asn, _, _) = sampler.sample(&mut rng);
            if asn == 15169 {
                google += 1;
            }
            if asn == 8075 {
                microsoft += 1;
            }
        }
        let g = google as f64 / n as f64;
        let m = microsoft as f64 / n as f64;
        assert!((g - 0.32).abs() < 0.02, "google {g}");
        assert!((m - 0.20).abs() < 0.02, "microsoft {m}");
    }

    #[test]
    fn cached_total_is_the_fresh_sum() {
        for (top, count) in [
            (NOTIFY_EMAIL_TOP_ASES, NOTIFY_EMAIL_AS_COUNT),
            (TWO_WEEK_MX_TOP_ASES, TWO_WEEK_MX_AS_COUNT),
        ] {
            let weights = AsSampler::new(top, count).weights;
            let fresh: f64 = weights.weights().iter().sum();
            assert_eq!(weights.total().to_bits(), fresh.to_bits(), "{count} ASes");
        }
    }

    #[test]
    fn as_counts_match_table() {
        assert_eq!(
            AsSampler::new(NOTIFY_EMAIL_TOP_ASES, NOTIFY_EMAIL_AS_COUNT).as_count(),
            NOTIFY_EMAIL_AS_COUNT
        );
        assert_eq!(
            AsSampler::new(TWO_WEEK_MX_TOP_ASES, TWO_WEEK_MX_AS_COUNT).as_count(),
            TWO_WEEK_MX_AS_COUNT
        );
    }
}
