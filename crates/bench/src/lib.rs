//! # mailval-bench
//!
//! The reproduction harness. One CLI — `mailval-artifacts` — renders
//! every table and figure of the paper: each artifact is an analysis
//! module under [`artifacts`] that *declares* which campaigns it needs,
//! and the [`Runner`] resolves the union, simulates each missing
//! campaign exactly once through the sharded/supervised engine,
//! persists it in the content-addressed
//! [`mailval_measure::store::CampaignStore`], and renders everything
//! else from disk. A warm store renders the full suite with zero
//! simulations. The [`suites`] module carries the measurement
//! subcommands: the campaign sweep harness (`bench`), the parser fuzz
//! harness (`fuzz`) and the trace exporter (`trace`).
//!
//! The CLI reads the environment variables:
//!
//! * `MAILVAL_SCALE` — population scale relative to the paper
//!   (default 1.0 = 26,695 / 22,548 domains). Use e.g. `0.05` for a
//!   quick run.
//! * `MAILVAL_SEED` — RNG seed (default 2021).
//! * `MAILVAL_SHARDS` — campaign worker threads (default: available
//!   parallelism, capped at 8). Output is identical for any value.
//! * `MAILVAL_STORE` — campaign store directory (default
//!   `results/store`; `--no-store` disables persistence).
//!
//! Run it via `cargo run --release -p mailval-bench --bin
//! mailval-artifacts -- --list`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod suites;
pub mod timing;

use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_measure::campaign::{
    drift_profiles, run_campaign_stored, sample_host_profiles, CampaignConfig, CampaignKind,
    CampaignResult,
};
use mailval_measure::store::{CampaignStore, KeySpec, StoreStatus};
use mailval_mta::profile::MtaProfile;
use std::collections::HashMap;
use std::rc::Rc;

/// Read the population scale from `MAILVAL_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("MAILVAL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Read the seed from `MAILVAL_SEED` (default 2021, the study year).
pub fn seed() -> u64 {
    std::env::var("MAILVAL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2021)
}

/// Read the shard count from `MAILVAL_SHARDS` (default: available
/// parallelism, capped at 8 — the result is identical either way, only
/// the wall-clock time changes).
pub fn shards() -> usize {
    std::env::var("MAILVAL_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1)
        })
}

/// The knobs every campaign and artifact derives from: population
/// scale, RNG seed and shard fan-out. The CLI reads them from the
/// environment ([`Env::from_env`]); tests construct them directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Env {
    /// Population scale relative to the paper (`MAILVAL_SCALE`).
    pub scale: f64,
    /// RNG seed (`MAILVAL_SEED`).
    pub seed: u64,
    /// Campaign worker threads (`MAILVAL_SHARDS`); output-invariant.
    pub shards: usize,
}

impl Env {
    /// Read scale, seed and shard count from the environment.
    pub fn from_env() -> Env {
        Env {
            scale: scale(),
            seed: seed(),
            shards: shards(),
        }
    }
}

/// Generate a population at the environment's configured scale.
pub fn population(kind: DatasetKind) -> Population {
    population_with(&Env::from_env(), kind)
}

/// Generate a population for an explicit [`Env`].
pub fn population_with(env: &Env, kind: DatasetKind) -> Population {
    Population::generate(&PopulationConfig {
        kind,
        scale: env.scale,
        seed: env.seed,
    })
}

/// A population together with its host profiles.
pub struct Prepared {
    /// The population.
    pub pop: Population,
    /// Host behavior profiles.
    pub profiles: Vec<MtaProfile>,
}

/// Prepare a population + profiles for an explicit [`Env`].
pub fn prepare_with(env: &Env, kind: DatasetKind) -> Prepared {
    let pop = population_with(env, kind);
    let profiles = sample_host_profiles(&pop, env.seed);
    Prepared { pop, profiles }
}

/// The Table 6 provider mini-population: 19 provider domains with one
/// dedicated MTA each and profiles pinned to the paper's observations.
pub fn provider_population(seed: u64) -> (Population, Vec<MtaProfile>) {
    use mailval_datasets::alexa::AlexaTier;
    use mailval_datasets::population::{DomainSpec, MtaHost};
    use mailval_datasets::providers::PROVIDERS;
    use mailval_dns::Name;
    use mailval_simnet::SimRng;

    let mut domains = Vec::new();
    let mut hosts = Vec::new();
    let mut profiles = Vec::new();
    let mut rng = SimRng::new(seed ^ 0x7ab1e6);
    for (i, p) in PROVIDERS.iter().enumerate() {
        let host_index = hosts.len();
        hosts.push(MtaHost {
            name: Name::parse(&format!("mx1.{}", p.domain)).expect("valid"),
            ipv4: std::net::Ipv4Addr::new(10, 99, (i / 256) as u8, (i % 256) as u8),
            ipv6: Some(std::net::Ipv6Addr::new(
                0x2001, 0xdb8, 0x99, 0, 0, 0, 0, i as u16,
            )),
            asn: 65_000 + i as u32,
        });
        profiles.push(MtaProfile::for_provider(&mut rng, p.spf, p.dkim, p.dmarc));
        domains.push(DomainSpec {
            index: i,
            name: Name::parse(p.domain).expect("valid"),
            tld: p.domain.rsplit('.').next().unwrap_or("com").to_string(),
            asn: 65_000 + i as u32,
            as_name: p.domain.to_string(),
            shared_provider: true,
            alexa: AlexaTier::Top1K,
            host_indices: vec![host_index],
            demand_queries: 0,
            mx_reresolution_failed: false,
        });
    }
    (
        Population {
            kind: DatasetKind::NotifyEmail,
            domains,
            hosts,
        },
        profiles,
    )
}

// ---------------------------------------------------------------------------
// Campaign requests and the runner
// ---------------------------------------------------------------------------

/// The probe set Table 5 classifies with (compact but representative:
/// "issued at least one SPF query" needs no more).
pub const TABLE5_PROBES: &[&str] = &["t01", "t06", "t12"];

/// Operator configuration drift between NotifyEmail (Oct 2020) and
/// NotifyMX (Jun 2021) — §6.2's inconsistency analysis found ~5% of
/// operators changed configuration in the nine months between.
pub const NOTIFY_MX_DRIFT: f64 = 0.05;

/// One campaign an artifact depends on, in canonical form. Two
/// artifacts naming the same request share one simulation (and one
/// store entry); distinct probe sets are distinct campaigns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CampaignRequest {
    /// The NotifyEmail delivery campaign over the NotifyEmail dataset.
    NotifyEmail,
    /// The NotifyMX probe campaign ([`TABLE5_PROBES`]) over the
    /// NotifyEmail dataset with [`NOTIFY_MX_DRIFT`]-drifted profiles.
    NotifyMxDrifted,
    /// A TwoWeekMX probe campaign with the given test policy set.
    TwoWeek(&'static [&'static str]),
    /// The NotifyEmail pipeline over the Table 6 provider
    /// mini-population.
    Providers,
}

impl CampaignRequest {
    /// Short label for progress and diagnostics.
    pub fn label(&self) -> String {
        match self {
            CampaignRequest::NotifyEmail => "NotifyEmail".to_string(),
            CampaignRequest::NotifyMxDrifted => "NotifyMX(drifted)".to_string(),
            CampaignRequest::TwoWeek(tests) => format!("TwoWeekMX[{}]", tests.join("+")),
            CampaignRequest::Providers => "providers".to_string(),
        }
    }
}

/// Resolves [`CampaignRequest`]s: populations and campaign results are
/// memoized per process, campaigns are served from the content-
/// addressed store when possible and simulated (then persisted) when
/// not. All artifact rendering goes through one runner, which is what
/// makes "run each campaign exactly once, analyze many times" hold.
pub struct Runner {
    env: Env,
    store: Option<CampaignStore>,
    prepared: HashMap<DatasetKind, Rc<Prepared>>,
    providers: Option<Rc<(Population, Vec<MtaProfile>)>>,
    results: HashMap<CampaignRequest, Rc<CampaignResult>>,
    /// Every non-memoized resolution, in order: what was requested and
    /// whether the store served it or the engine simulated it.
    pub history: Vec<(CampaignRequest, StoreStatus)>,
}

impl Runner {
    /// A runner over `env`, persisting through `store` when given.
    pub fn new(env: Env, store: Option<CampaignStore>) -> Runner {
        Runner {
            env,
            store,
            prepared: HashMap::new(),
            providers: None,
            results: HashMap::new(),
            history: Vec::new(),
        }
    }

    /// The runner's environment.
    pub fn env(&self) -> Env {
        self.env
    }

    /// The population + base profiles for a dataset (memoized).
    pub fn prepared(&mut self, kind: DatasetKind) -> Rc<Prepared> {
        let env = self.env;
        self.prepared
            .entry(kind)
            .or_insert_with(|| Rc::new(prepare_with(&env, kind)))
            .clone()
    }

    /// The Table 6 provider mini-population (memoized).
    pub fn providers(&mut self) -> Rc<(Population, Vec<MtaProfile>)> {
        let seed = self.env.seed;
        self.providers
            .get_or_insert_with(|| Rc::new(provider_population(seed)))
            .clone()
    }

    /// Campaigns simulated by this runner (store misses + store-off
    /// runs; memoized re-requests count nothing).
    pub fn simulated(&self) -> u64 {
        self.history.iter().filter(|(_, s)| s.simulated()).count() as u64
    }

    /// Campaigns served from the store by this runner.
    pub fn store_hits(&self) -> u64 {
        self.history
            .iter()
            .filter(|(_, s)| matches!(s, StoreStatus::Hit))
            .count() as u64
    }

    /// One-line accounting summary, emitted by the CLI after a run.
    pub fn summary(&self) -> String {
        format!(
            "campaigns: {} resolved, hits={} simulated={}",
            self.history.len(),
            self.store_hits(),
            self.simulated()
        )
    }

    /// Resolve one campaign request: memo, then store, then simulation
    /// (which persists for the next caller).
    pub fn campaign(&mut self, request: &CampaignRequest) -> Rc<CampaignResult> {
        if let Some(result) = self.results.get(request) {
            return result.clone();
        }
        let env = self.env;
        let (config, dataset, profiles_label) = self.config_for(request);
        // Holders keep the memoized data alive while the borrows below
        // feed the campaign; nothing is deep-copied per request.
        let prepared: Rc<Prepared>;
        let providers: Rc<(Population, Vec<MtaProfile>)>;
        let drifted: Vec<MtaProfile>;
        let (pop, profiles): (&Population, &[MtaProfile]) = match request {
            CampaignRequest::NotifyEmail => {
                prepared = self.prepared(DatasetKind::NotifyEmail);
                (&prepared.pop, &prepared.profiles)
            }
            CampaignRequest::NotifyMxDrifted => {
                prepared = self.prepared(DatasetKind::NotifyEmail);
                drifted =
                    drift_profiles(&prepared.pop, &prepared.profiles, NOTIFY_MX_DRIFT, env.seed);
                (&prepared.pop, &drifted)
            }
            CampaignRequest::TwoWeek(_) => {
                prepared = self.prepared(DatasetKind::TwoWeekMx);
                (&prepared.pop, &prepared.profiles)
            }
            CampaignRequest::Providers => {
                providers = self.providers();
                (&providers.0, &providers.1)
            }
        };
        let spec = KeySpec {
            config: &config,
            dataset,
            scale: env.scale,
            population_seed: env.seed,
            profiles: profiles_label,
        };
        let (result, status) = run_campaign_stored(&spec, pop, profiles, self.store.as_ref());
        self.history.push((request.clone(), status));
        let result = Rc::new(result);
        self.results.insert(request.clone(), result.clone());
        result
    }

    /// The canonical campaign configuration for a request, plus the
    /// dataset and profile-derivation labels that complete its store
    /// key.
    fn config_for(
        &self,
        request: &CampaignRequest,
    ) -> (CampaignConfig, &'static str, &'static str) {
        let env = self.env;
        let base = CampaignConfig {
            seed: env.seed,
            probe_pause_ms: 15_000,
            shards: env.shards,
            ..CampaignConfig::default()
        };
        match request {
            CampaignRequest::NotifyEmail => (
                CampaignConfig {
                    kind: CampaignKind::NotifyEmail,
                    tests: vec![],
                    ..base
                },
                "NotifyEmail",
                "base",
            ),
            CampaignRequest::NotifyMxDrifted => (
                CampaignConfig {
                    kind: CampaignKind::NotifyMx,
                    tests: TABLE5_PROBES.to_vec(),
                    ..base
                },
                "NotifyEmail",
                "drift:0.05",
            ),
            CampaignRequest::TwoWeek(tests) => (
                CampaignConfig {
                    kind: CampaignKind::TwoWeekMx,
                    tests: tests.to_vec(),
                    ..base
                },
                "TwoWeekMx",
                "base",
            ),
            CampaignRequest::Providers => (
                CampaignConfig {
                    kind: CampaignKind::NotifyEmail,
                    tests: vec![],
                    probe_pause_ms: 0,
                    ..base
                },
                "providers",
                "providers",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_population_matches_table6() {
        let (pop, profiles) = provider_population(2021);
        assert_eq!(pop.domains.len(), 19);
        assert_eq!(profiles.len(), 19);
        let spf = profiles.iter().filter(|p| p.combo.spf).count();
        assert_eq!(spf, 16); // §6.1: 16 of 19
        let full = profiles
            .iter()
            .filter(|p| p.combo.spf && p.combo.dkim && p.combo.dmarc)
            .count();
        assert_eq!(full, 13); // §6.1: 13 of 19
    }

    #[test]
    fn env_defaults() {
        // Can't portably set env in parallel tests; just exercise the
        // default paths.
        let env = Env::from_env();
        assert!(env.scale > 0.0);
        assert!(env.shards >= 1);
    }

    #[test]
    fn distinct_requests_get_distinct_store_keys() {
        let runner = Runner::new(
            Env {
                scale: 0.01,
                seed: 2021,
                shards: 2,
            },
            None,
        );
        let reqs = [
            CampaignRequest::NotifyEmail,
            CampaignRequest::NotifyMxDrifted,
            CampaignRequest::TwoWeek(TABLE5_PROBES),
            CampaignRequest::TwoWeek(&["t01"]),
            CampaignRequest::Providers,
        ];
        let mut hashes = std::collections::HashSet::new();
        for req in &reqs {
            let (config, dataset, profiles) = runner.config_for(req);
            let key = KeySpec {
                config: &config,
                dataset,
                scale: runner.env.scale,
                population_seed: runner.env.seed,
                profiles,
            }
            .key();
            assert!(hashes.insert(key.hash), "duplicate key for {req:?}");
        }
    }
}
