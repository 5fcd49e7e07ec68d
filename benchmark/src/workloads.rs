//! The three workloads and their unit of work.
//!
//! Everything here calls the program only through public functions:
//! population generation, host profiles, [`CampaignWorld`], the
//! campaign store and the artifact [`Runner`]. Times come from wrapping
//! those calls; nothing inside the program is instrumented.

use mailval_bench::artifacts::{Artifact, ALL};
use mailval_bench::{CampaignRequest, Env, Runner};
use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_measure::campaign::{
    sample_host_profiles, CampaignConfig, CampaignKind, CampaignResult, CampaignWorld,
};
use mailval_measure::store::{CampaignKey, CampaignStore, KeySpec};
use mailval_simnet::{FaultConfig, LatencyModel};
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// The seed the pinned digests were taken at (the study year, also the
/// program's own default seed).
pub const DEFAULT_SEED: u64 = 2021;

/// NotifyEmail domains at the paper's full scale (Table 2).
const NOTIFY_EMAIL_DOMAINS: f64 = 26_695.0;
/// TwoWeekMX domains at the paper's full scale (Table 2).
const TWO_WEEK_DOMAINS: f64 = 22_548.0;
/// The probe battery: the fig3, fig5, sec7 and fingerprint policies.
const PROBE_BATTERY: &[&str] = &[
    "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11",
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A NotifyEmail campaign over ~2,000 domains: DKIM signing and the
    /// MTA's SPF/DKIM/DMARC validation; no journal, no faults.
    NotifyEmail,
    /// A TwoWeekMX probe campaign with the t01–t11 battery over ~1,000
    /// domains, journaled, under the chaos path-fault profile.
    ProbeBattery,
    /// Warm `--all` passes over a store populated before timing.
    ArtifactsWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NotifyEmail,
        Workload::ProbeBattery,
        Workload::ArtifactsWarm,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NotifyEmail => "notify_email",
            Workload::ProbeBattery => "probe_battery",
            Workload::ArtifactsWarm => "artifacts_warm",
        }
    }
}

/// The campaign RNG seed (probe order, the apparatus's DKIM key) and
/// host-profile seed of every campaign workload, and the population seed
/// of `probe_battery`. `--seed` varies what stays cheap to average: the
/// NotifyEmail population, the probe battery's fault and loss decisions.
/// Held fixed: the RSA key search, whose time depends on its seed, and
/// the probed population with its per-operator profiles — a TwoWeekMX
/// population's probe cost hangs on a few validating operators and
/// swings by half from seed to seed.
pub const CAMPAIGN_SEED: u64 = DEFAULT_SEED;

/// Input sets a run cycles through (see [`sub_seeds`]).
pub const INPUT_SETS: usize = 4;

/// Distance between the seeds of a run's input sets.
const SUB_SEED_STRIDE: u64 = 1_000_003;

/// The `n` input-set seeds a run with `--seed seed` cycles through; the
/// first is `seed` itself. Averaging a run over several input sets keeps
/// its figures from hanging on one draw.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|j| seed.wrapping_add(j.wrapping_mul(SUB_SEED_STRIDE)))
        .collect()
}

/// A campaign workload's inputs, derived from the seed.
pub struct CampaignSpec {
    /// The campaign configuration (single shard).
    pub config: CampaignConfig,
    /// The population's dataset.
    pub dataset: DatasetKind,
    /// Population scale against the paper's domain count.
    pub scale: f64,
    /// The input seed (`--seed` or one of its sub-seeds).
    pub seed: u64,
    /// The population seed.
    pub population_seed: u64,
}

impl CampaignSpec {
    /// The spec for a campaign workload; `journal_dir` is where the
    /// probe battery journals (ignored by NotifyEmail, which runs
    /// without a journal).
    pub fn new(workload: Workload, seed: u64, journal_dir: &Path) -> CampaignSpec {
        match workload {
            Workload::NotifyEmail | Workload::ArtifactsWarm => CampaignSpec {
                config: CampaignConfig {
                    kind: CampaignKind::NotifyEmail,
                    tests: vec![],
                    seed: CAMPAIGN_SEED,
                    probe_pause_ms: 15_000,
                    shards: 1,
                    ..CampaignConfig::default()
                },
                dataset: DatasetKind::NotifyEmail,
                scale: 2_000.0 / NOTIFY_EMAIL_DOMAINS,
                seed,
                population_seed: seed,
            },
            Workload::ProbeBattery => CampaignSpec {
                config: CampaignConfig {
                    kind: CampaignKind::TwoWeekMx,
                    tests: PROBE_BATTERY.to_vec(),
                    seed: CAMPAIGN_SEED,
                    probe_pause_ms: 15_000,
                    // bench-chaos's fixed path-fault profile, with 2%
                    // datagram loss (inside its 0–5% loss axis).
                    latency: LatencyModel {
                        loss_probability: 0.02,
                        seed,
                        ..LatencyModel::default()
                    },
                    faults: FaultConfig {
                        duplicate_probability: 0.02,
                        reorder_probability: 0.02,
                        reorder_delay_ms: 40,
                        truncate_probability: 0.02,
                        conn_reset_probability: 0.01,
                        conn_stall_probability: 0.02,
                        conn_stall_ms: 200,
                        seed,
                        ..FaultConfig::default()
                    },
                    journal_dir: Some(journal_dir.to_path_buf()),
                    shards: 1,
                    ..CampaignConfig::default()
                },
                dataset: DatasetKind::TwoWeekMx,
                scale: 1_000.0 / TWO_WEEK_DOMAINS,
                seed,
                population_seed: CAMPAIGN_SEED,
            },
        }
    }

    /// The store key.
    pub fn key(&self) -> CampaignKey {
        KeySpec {
            config: &self.config,
            dataset: match self.dataset {
                DatasetKind::NotifyEmail => "NotifyEmail",
                DatasetKind::TwoWeekMx => "TwoWeekMx",
            },
            scale: self.scale,
            population_seed: self.population_seed,
            profiles: "base",
        }
        .key()
    }

    /// Generate the population.
    pub fn population(&self) -> Population {
        Population::generate(&PopulationConfig {
            kind: self.dataset,
            scale: self.scale,
            seed: self.population_seed,
        })
    }
}

/// One campaign repetition: population, profiles, world build,
/// simulate, merge and store persist, with the time of each.
pub struct CampaignRep {
    /// Seconds for the whole unit of work.
    pub wall_s: f64,
    /// Seconds before the first simulated event (population, profiles,
    /// world build).
    pub setup_s: f64,
    /// Seconds in `Population::generate`.
    pub generate_s: f64,
    /// Seconds in `CampaignWorld::build`.
    pub build_s: f64,
    /// Seconds in `store.save` (encode + write + fsync + rename).
    pub save_s: f64,
    /// The result (its `phases` carry simulate and merge seconds).
    pub result: CampaignResult,
    /// The world, kept for timing `shard_sessions` on its own.
    pub world: CampaignWorld,
    /// The persisted store entry.
    pub entry: PathBuf,
}

/// Run one campaign repetition into a fresh store (and a fresh
/// journal) under `dir`. Clearing the previous repetition's files is
/// not timed.
pub fn campaign_rep(spec: &CampaignSpec, dir: &Path, tracing: bool) -> io::Result<CampaignRep> {
    let store_dir = dir.join("store");
    remove_dir(&store_dir)?;
    if let Some(journal) = &spec.config.journal_dir {
        remove_dir(journal)?;
    }
    let mut config = spec.config.clone();
    config.telemetry.tracing = tracing;
    let key = spec.key();

    let start = Instant::now();
    let SetUp {
        world,
        generate_s,
        build_s,
    } = set_up(spec, &config);
    let setup_s = start.elapsed().as_secs_f64();
    let result = world.run(&config);
    let save_start = Instant::now();
    let entry = CampaignStore::new(&store_dir).save(&key, &result)?;
    let save_s = save_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    Ok(CampaignRep {
        wall_s,
        setup_s,
        generate_s,
        build_s,
        save_s,
        result,
        world,
        entry,
    })
}

/// A campaign's set-up: the world and the seconds its parts took.
struct SetUp {
    world: CampaignWorld,
    generate_s: f64,
    build_s: f64,
}

/// Generate the population, sample host profiles and build the world.
fn set_up(spec: &CampaignSpec, config: &CampaignConfig) -> SetUp {
    let start = Instant::now();
    let pop = spec.population();
    let generate_s = start.elapsed().as_secs_f64();
    let profiles = sample_host_profiles(&pop, CAMPAIGN_SEED);
    let build_start = Instant::now();
    let world = CampaignWorld::build(config, &pop, &profiles);
    SetUp {
        world,
        generate_s,
        build_s: build_start.elapsed().as_secs_f64(),
    }
}

/// Seconds for a campaign's set-up alone (population, profiles, world
/// build), as [`campaign_rep`] times it.
pub fn campaign_setup_s(spec: &CampaignSpec) -> f64 {
    let start = Instant::now();
    let done = set_up(spec, &spec.config);
    let seconds = start.elapsed().as_secs_f64();
    drop(done);
    seconds
}

/// Check a repetition: its content hash against the expected one and a
/// store load of the persisted entry against its own hash. Returns the
/// repetition's hash.
pub fn verify_campaign(
    spec: &CampaignSpec,
    rep: &CampaignRep,
    dir: &Path,
    expected: Option<&[u8; 32]>,
) -> Result<[u8; 32], String> {
    let hash = rep.result.content_hash();
    if let Some(expected) = expected {
        if &hash != expected {
            return Err(format!(
                "content hash {} differs from {}",
                hex(&hash),
                hex(expected)
            ));
        }
    }
    if rep.result.partial || rep.result.sessions.is_empty() {
        return Err("campaign finished partial or empty".to_string());
    }
    match CampaignStore::new(dir.join("store")).load(&spec.key()) {
        Ok(loaded) if loaded.content_hash() == hash => Ok(hash),
        Ok(_) => Err("store load does not reproduce the content hash".to_string()),
        Err(e) => Err(format!("store load failed: {e}")),
    }
}

/// The artifact runner's environment for `artifacts_warm`: the ROADMAP's
/// 2k NotifyEmail point, single shard.
pub fn artifacts_env(seed: u64) -> Env {
    Env {
        scale: 2_000.0 / NOTIFY_EMAIL_DOMAINS,
        seed,
        shards: 1,
    }
}

/// One pass of artifact rendering through a fresh [`Runner`].
pub struct ArtifactsPass {
    /// Seconds for the whole pass.
    pub wall_s: f64,
    /// Seconds for store open and population preparation.
    pub setup_s: f64,
    /// Seconds resolving the campaigns (store loads on a warm store).
    pub resolve_s: f64,
    /// Seconds per rendered artifact, in render order.
    pub renders: Vec<(&'static str, f64)>,
    /// Sessions in the resolved campaigns.
    pub sessions: usize,
    /// The concatenated artifact text.
    pub text: String,
    /// Campaigns the runner simulated (0 on a warm store).
    pub simulated: u64,
    /// The runner, holding every resolved campaign.
    pub runner: Runner,
    /// The resolved requests, in resolution order.
    pub requests: Vec<CampaignRequest>,
}

impl ArtifactsPass {
    /// Total seconds over the renders.
    pub fn render_s(&self) -> f64 {
        self.renders.iter().map(|(_, s)| s).sum()
    }

    /// The resolved campaign results, in resolution order.
    pub fn results(&mut self) -> Vec<Rc<CampaignResult>> {
        let requests = self.requests.clone();
        requests.iter().map(|r| self.runner.campaign(r)).collect()
    }
}

/// Render every artifact `select` keeps through a fresh runner over the
/// store at `store_dir`: open the store and prepare the populations
/// (set-up), resolve the union of the campaigns they need, then render.
pub fn artifacts_pass(
    env: Env,
    store_dir: &Path,
    select: impl Fn(&Artifact) -> bool,
) -> ArtifactsPass {
    let selected: Vec<&'static Artifact> = ALL.iter().filter(|a| select(a)).collect();
    let mut requests: Vec<CampaignRequest> = Vec::new();
    for a in &selected {
        for req in (a.needs)() {
            if !requests.contains(&req) {
                requests.push(req);
            }
        }
    }

    let start = Instant::now();
    let mut runner = open_runner(env, store_dir);
    let setup_s = start.elapsed().as_secs_f64();
    let mut sessions = 0;
    for req in &requests {
        sessions += runner.campaign(req).sessions.len();
    }
    let resolve_s = start.elapsed().as_secs_f64() - setup_s;
    let mut text = String::new();
    let mut renders = Vec::with_capacity(selected.len());
    for a in &selected {
        let render_start = Instant::now();
        text.push_str(&(a.render)(&mut runner));
        renders.push((a.name, render_start.elapsed().as_secs_f64()));
    }
    let wall_s = start.elapsed().as_secs_f64();
    ArtifactsPass {
        wall_s,
        setup_s,
        resolve_s,
        renders,
        sessions,
        text,
        simulated: runner.simulated(),
        runner,
        requests,
    }
}

/// A pass's set-up: a fresh runner over the store at `store_dir`, with
/// its populations prepared.
fn open_runner(env: Env, store_dir: &Path) -> Runner {
    let mut runner = Runner::new(env, Some(CampaignStore::new(store_dir)));
    runner.prepared(DatasetKind::NotifyEmail);
    runner.prepared(DatasetKind::TwoWeekMx);
    runner.providers();
    runner
}

/// Seconds for a warm pass's set-up alone, as [`artifacts_pass`] times
/// it.
pub fn artifacts_setup_s(env: Env, store_dir: &Path) -> f64 {
    let start = Instant::now();
    let runner = open_runner(env, store_dir);
    let seconds = start.elapsed().as_secs_f64();
    drop(runner);
    seconds
}

/// Remove a directory tree if it exists.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Lower-case hex of a digest.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
