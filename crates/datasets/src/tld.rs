//! TLD marginals (Table 1 of the paper) and a sampler reproducing them.

use mailval_simnet::{SimRng, WeightTable};

/// One TLD with its share of a dataset's domains.
#[derive(Debug, Clone, Copy)]
pub struct TldShare {
    /// The TLD label.
    pub tld: &'static str,
    /// Fraction of domains (0..1).
    pub share: f64,
}

/// Table 1, NotifyEmail column: top-10 TLDs and total TLD count 259.
pub const NOTIFY_EMAIL_TOP_TLDS: &[TldShare] = &[
    TldShare {
        tld: "com",
        share: 0.26,
    },
    TldShare {
        tld: "net",
        share: 0.13,
    },
    TldShare {
        tld: "ru",
        share: 0.083,
    },
    TldShare {
        tld: "pl",
        share: 0.050,
    },
    TldShare {
        tld: "br",
        share: 0.045,
    },
    TldShare {
        tld: "de",
        share: 0.040,
    },
    TldShare {
        tld: "ua",
        share: 0.025,
    },
    TldShare {
        tld: "it",
        share: 0.019,
    },
    TldShare {
        tld: "cz",
        share: 0.016,
    },
    TldShare {
        tld: "ro",
        share: 0.016,
    },
];

/// Total TLDs in the NotifyEmail dataset.
pub const NOTIFY_EMAIL_TLD_COUNT: usize = 259;

/// Table 1, TwoWeekMX column: top-10 TLDs and total TLD count 218.
pub const TWO_WEEK_MX_TOP_TLDS: &[TldShare] = &[
    TldShare {
        tld: "com",
        share: 0.49,
    },
    TldShare {
        tld: "org",
        share: 0.17,
    },
    TldShare {
        tld: "edu",
        share: 0.090,
    },
    TldShare {
        tld: "net",
        share: 0.063,
    },
    TldShare {
        tld: "us",
        share: 0.036,
    },
    TldShare {
        tld: "gov",
        share: 0.011,
    },
    TldShare {
        tld: "uk",
        share: 0.011,
    },
    TldShare {
        tld: "cam",
        share: 0.010,
    },
    TldShare {
        tld: "ca",
        share: 0.0076,
    },
    TldShare {
        tld: "de",
        share: 0.0066,
    },
];

/// Total TLDs in the TwoWeekMX dataset.
pub const TWO_WEEK_MX_TLD_COUNT: usize = 218;

/// Long-tail TLD labels used to fill out the remaining mass (drawn from
/// real ccTLD/newTLD space so synthetic names look plausible).
const TAIL_TLDS: &[&str] = &[
    "fr", "nl", "es", "jp", "cn", "in", "au", "se", "no", "fi", "dk", "ch", "at", "be", "pt", "gr",
    "hu", "sk", "si", "hr", "rs", "bg", "lt", "lv", "ee", "tr", "il", "za", "mx", "ar", "cl", "co",
    "pe", "ve", "kr", "tw", "hk", "sg", "my", "th", "vn", "id", "ph", "nz", "ie", "is", "lu", "mt",
    "cy", "md", "by", "kz", "ge", "am", "az", "uz", "mn", "np", "lk", "bd", "pk", "ir", "iq", "sa",
    "ae", "qa", "kw", "om", "jo", "lb", "eg", "ma", "tn", "dz", "ly", "ng", "ke", "gh", "tz", "ug",
    "zm", "zw", "mz", "ao", "cm", "ci", "sn", "et", "info", "biz", "org", "edu", "gov", "us", "uk",
    "ca", "eu", "io", "co", "me", "tv", "cc", "ws", "xyz", "online", "site", "club", "top", "shop",
    "app", "dev", "cloud", "email", "network",
];

/// A TLD sampler matching a Table 1 column: the top-10 get their exact
/// published shares; the remainder is spread over `total_tlds - 10`
/// synthetic tail TLDs with geometrically decaying weights (heavy-tail
/// like real TLD distributions).
#[derive(Debug, Clone)]
pub struct TldSampler {
    tlds: Vec<String>,
    weights: WeightTable,
}

impl TldSampler {
    /// Build from a top-10 table and its dataset's total TLD count.
    pub fn new(top: &[TldShare], total_tlds: usize) -> TldSampler {
        let mut tlds: Vec<String> = top.iter().map(|t| t.tld.to_string()).collect();
        let mut weights: Vec<f64> = top.iter().map(|t| t.share).collect();
        let top_mass: f64 = weights.iter().sum();
        let tail_count = total_tlds.saturating_sub(top.len()).max(1);
        let tail_mass = (1.0 - top_mass).max(0.0);
        // Geometric decay over the tail; normalize to tail_mass.
        let ratio: f64 = 0.97;
        let mut tail_weights: Vec<f64> = (0..tail_count).map(|i| ratio.powi(i as i32)).collect();
        let tail_total: f64 = tail_weights.iter().sum();
        for w in &mut tail_weights {
            *w *= tail_mass / tail_total;
        }
        for (i, &w) in tail_weights.iter().enumerate() {
            // Cycle through real tail labels; extend with numbered
            // variants when the list runs out.
            let label = if let Some(&t) = TAIL_TLDS.get(i) {
                // Avoid duplicating a top-10 label.
                if tlds.iter().any(|existing| existing == t) {
                    format!("{t}{}", i)
                } else {
                    t.to_string()
                }
            } else {
                format!("tld{i}")
            };
            tlds.push(label);
            weights.push(w);
        }
        TldSampler {
            tlds,
            weights: WeightTable::new(weights),
        }
    }

    /// Sample a TLD.
    pub fn sample(&self, rng: &mut SimRng) -> &str {
        let idx = rng.weighted_pick(&self.weights);
        &self.tlds[idx]
    }

    /// Number of distinct TLDs this sampler can produce.
    pub fn tld_count(&self) -> usize {
        self.tlds.len()
    }
}

/// Compute the empirical top-`k` TLD shares of a list of TLD strings.
pub fn empirical_top_tlds(tlds: &[String], k: usize) -> Vec<(String, f64)> {
    use std::collections::HashMap;
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for t in tlds {
        *counts.entry(t.as_str()).or_default() += 1;
    }
    let mut pairs: Vec<(String, f64)> = counts
        .into_iter()
        .map(|(t, c)| (t.to_string(), c as f64 / tlds.len() as f64))
        .collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_reproduced() {
        let sampler = TldSampler::new(NOTIFY_EMAIL_TOP_TLDS, NOTIFY_EMAIL_TLD_COUNT);
        let mut rng = SimRng::new(1);
        let samples: Vec<String> = (0..50_000)
            .map(|_| sampler.sample(&mut rng).to_string())
            .collect();
        let top = empirical_top_tlds(&samples, 3);
        assert_eq!(top[0].0, "com");
        assert!((top[0].1 - 0.26).abs() < 0.02, "com share {}", top[0].1);
        assert_eq!(top[1].0, "net");
        assert!((top[1].1 - 0.13).abs() < 0.02);
    }

    #[test]
    fn cached_total_is_the_fresh_sum() {
        for (top, count) in [
            (NOTIFY_EMAIL_TOP_TLDS, NOTIFY_EMAIL_TLD_COUNT),
            (TWO_WEEK_MX_TOP_TLDS, TWO_WEEK_MX_TLD_COUNT),
        ] {
            let weights = TldSampler::new(top, count).weights;
            let fresh: f64 = weights.weights().iter().sum();
            assert_eq!(weights.total().to_bits(), fresh.to_bits(), "{count} TLDs");
        }
    }

    #[test]
    fn tld_count_matches_table() {
        let sampler = TldSampler::new(NOTIFY_EMAIL_TOP_TLDS, NOTIFY_EMAIL_TLD_COUNT);
        assert_eq!(sampler.tld_count(), NOTIFY_EMAIL_TLD_COUNT);
        let sampler = TldSampler::new(TWO_WEEK_MX_TOP_TLDS, TWO_WEEK_MX_TLD_COUNT);
        assert_eq!(sampler.tld_count(), TWO_WEEK_MX_TLD_COUNT);
    }

    #[test]
    fn no_duplicate_tlds() {
        let sampler = TldSampler::new(TWO_WEEK_MX_TOP_TLDS, TWO_WEEK_MX_TLD_COUNT);
        let mut seen = std::collections::HashSet::new();
        for t in &sampler.tlds {
            assert!(seen.insert(t.clone()), "duplicate tld {t}");
        }
    }

    #[test]
    fn table_shares_sum_below_one() {
        for table in [NOTIFY_EMAIL_TOP_TLDS, TWO_WEEK_MX_TOP_TLDS] {
            let sum: f64 = table.iter().map(|t| t.share).sum();
            assert!(sum < 1.0, "top-10 mass {sum}");
        }
    }
}
