//! Campaign orchestration (§4.6 of the paper).
//!
//! Three campaigns share one execution path:
//!
//! * **NotifyEmail** — one legitimate, DKIM-signed delivery per domain to
//!   its first MX host; SPF/DKIM/DMARC designed to *pass*.
//! * **NotifyMX** — every MX host of the (re-resolved) NotifyEmail
//!   domains probed with every configured test policy; the client is by
//!   now blacklisted (§6.2); sessions abort before any message data.
//! * **TwoWeekMX** — same probing against the high-demand dataset, with
//!   guessed recipients (§6.3).
//!
//! This module lays out the campaign's targets (deterministically, from
//! the config seed alone) and deals the session ids round-robin to
//! independent shards ([`crate::shard`]); each session is derived from
//! its id and the targets when it is instantiated. Each shard runs one
//! [`crate::engine::SessionEngine`] on its own thread against the one
//! shared [`SynthesizingAuthority`]: it walks its session ids in order,
//! skips the ids its journal already holds, and instantiates and runs
//! one session at a time. The merge flattens every shard's
//! journal frames into global session order and sorts the query log by
//! the stable `(time_ms, session)` key once — so the merged
//! [`QueryLog`] and session records are byte-identical for every shard
//! count.

use crate::apparatus::{apparatus_keypair, dkim_key_record, QueryLog, SynthesizingAuthority};
use crate::codec::{self, Enc};
use crate::engine::{
    EngineConfig, EngineOutput, LiveSession, MemoryBudget, SessionBudget, SessionEngine,
};
use crate::journal::{self, JournalWriter, Replay};
use crate::names::NameScheme;
use crate::policies::SynthAddrs;
use crate::shard::{merge_frames, shard_count, ShardStats};
use crate::telemetry::{NullTracer, RecordingTracer, Telemetry, Tracer};
use crate::vfs::{OsFs, SimFs, Vfs};
use mailval_crypto::rsa::RsaKeyPair;
use mailval_crypto::sha256::sha256;
use mailval_datasets::Population;
use mailval_dkim::sign::{body_hash, sign_headers, SignConfig};
use mailval_dmarc::record::DmarcRecord;
use mailval_dns::server::ServerCore;
use mailval_dns::Name;
use mailval_mta::actor::{ConnContext, MtaActor};
use mailval_mta::profile::MtaProfile;
use mailval_mta::resolver::ResolverActor;
use mailval_simnet::{
    run_shards_catch, FaultConfig, FaultStats, IoConfig, IoPlan, LatencyModel, PayloadConfig,
    SimRng,
};
use mailval_smtp::client::{probe_usernames, ClientConfig, ClientSession};
use mailval_smtp::mail::{HeaderField, MailMessage};
use mailval_smtp::EmailAddress;
use std::collections::HashMap;
use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::Arc;

pub use crate::engine::SessionRecord;

/// Which campaign to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Legitimate notification deliveries (Oct 2020 in the paper).
    NotifyEmail,
    /// Probing of all NotifyEmail MTAs (Jun 2021).
    NotifyMx,
    /// Probing of the TwoWeekMX MTAs (Apr 2021).
    TwoWeekMx,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Which campaign.
    pub kind: CampaignKind,
    /// Test ids to run (probe campaigns only; NotifyEmail ignores this).
    pub tests: Vec<&'static str>,
    /// RNG seed (probing order, DKIM key).
    pub seed: u64,
    /// The probe's inter-command sleep (§4.6; 15 000 ms in the paper —
    /// reduce for quick runs; timing analyses assume the paper value).
    pub probe_pause_ms: u64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Fault injection (drops via `latency.loss_probability`, plus
    /// duplicates, reordering, truncation, resets and stalls). The
    /// default injects nothing; the merged output stays byte-identical
    /// for every shard count either way.
    pub faults: FaultConfig,
    /// Hostile-peer payload mutation (structure-aware corruption of DNS
    /// responses and SMTP replies). The default mutates nothing; like
    /// `faults`, the merged output stays byte-identical for every shard
    /// count and across kill-and-resume.
    pub payload: PayloadConfig,
    /// Deterministic storage-fault injection (ENOSPC, short writes,
    /// fsync/rename failures, read corruption) applied to the journal
    /// and store IO paths through the [`crate::vfs`] seam. The default
    /// injects nothing. Unlike `faults` and `payload`, IO faults never
    /// change the merged result — only durability and the degradation
    /// counters — so the output stays byte-identical for every rate.
    pub io: IoConfig,
    /// Number of parallel shards (0 and 1 both mean single-threaded).
    /// The merged output is byte-identical for every value.
    pub shards: usize,
    /// Directory for per-shard session journals. `None` disables
    /// durability (no files are written); `Some(dir)` writes one
    /// `shard-NNNN.jrnl` per shard and enables supervised restart from
    /// journal after a shard crash.
    pub journal_dir: Option<PathBuf>,
    /// Resume from existing journals in `journal_dir` instead of
    /// truncating them at campaign start. Completed sessions found in a
    /// journal are replayed, not re-run; the merged result is
    /// byte-identical to an uninterrupted run.
    pub resume: bool,
    /// Journal fsync interval, frames (0 = never fsync; every append is
    /// still flushed to the file).
    pub fsync_every: u64,
    /// Per-session runaway limits enforced by the engine.
    pub budget: SessionBudget,
    /// Per-session memory backpressure: sessions whose queued events
    /// exceed this budget are deterministically shed
    /// ([`crate::engine::SessionOutcome::ResourceShed`]). Like `budget`
    /// it is result-determining; the default is unlimited.
    pub memory: MemoryBudget,
    /// Shard-restart policy.
    pub supervisor: SupervisorConfig,
    /// Telemetry collection (execution knob, like `shards`: never
    /// result-determining, never part of a store key). The default is
    /// fully inert — no tracing, no heartbeat.
    pub telemetry: TelemetryConfig,
}

/// Telemetry execution knobs.
///
/// Observability only, following the [`PhaseTimes`] precedent: whatever
/// these are set to, the campaign's merged output — and therefore its
/// content hash and store key — is byte-identical, which the golden
/// determinism test pins with tracing both off and on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record per-session trace events and derive the metrics registry
    /// ([`CampaignResult::telemetry`]). Off = the engine monomorphizes
    /// to the null tracer with zero hot-path cost.
    pub tracing: bool,
    /// Minimum wall-clock ms between per-shard heartbeat progress lines
    /// (0 disables the heartbeat).
    pub heartbeat_ms: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            kind: CampaignKind::NotifyEmail,
            tests: Vec::new(),
            seed: 0,
            probe_pause_ms: 15_000,
            latency: LatencyModel::default(),
            faults: FaultConfig::default(),
            payload: PayloadConfig::default(),
            io: IoConfig::default(),
            shards: 1,
            journal_dir: None,
            resume: false,
            fsync_every: journal::DEFAULT_FSYNC_EVERY,
            budget: SessionBudget::default(),
            memory: MemoryBudget::default(),
            supervisor: SupervisorConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// Paper-faithful settings for a campaign kind (single shard, like
    /// the paper's one-machine apparatus; raise `shards` freely — the
    /// output does not change).
    pub fn paper(kind: CampaignKind, seed: u64) -> CampaignConfig {
        CampaignConfig {
            kind,
            tests: crate::policies::ALL_TESTS.iter().map(|t| t.id).collect(),
            seed,
            ..CampaignConfig::default()
        }
    }
}

/// How the campaign supervisor reacts to shard crashes.
///
/// A crashed shard (a panic that escaped the engine's per-session
/// containment, or the deterministic `crash_after_sessions` injection,
/// which fires at most once per shard per run) is restarted from its
/// journal with exponential backoff. A shard that
/// exhausts its restart budget is *finalized from its journal instead*:
/// the campaign completes with `partial = true` and whatever that shard
/// had durably completed, rather than crashing the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Restarts allowed per shard before it is finalized from journal.
    pub max_shard_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_shard_restarts: 2,
        }
    }
}

/// Wall-clock backoff before the first restart round, ms; it doubles
/// each round, capped at 64×.
const RESTART_BACKOFF_MS: u64 = 10;

/// Transaction retries the probe client attempts after a 4xx tempfail
/// (greylisting). Inert without faults: the calibrated MTA population
/// only issues permanent (5xx) rejections.
const CLIENT_RETRY_BUDGET: u32 = 2;
/// Base client retry backoff (doubles per retry), virtual ms.
const CLIENT_RETRY_BACKOFF_MS: u64 = 30_000;

/// Per-phase wall-clock accounting for one campaign run.
///
/// Four phases cover a run end to end: **setup** (world construction —
/// the synthesizing authority, the DKIM key of a campaign that signs,
/// the campaign's targets — plus journal reset, all before any shard
/// thread exists),
/// **simulate** (the shard event loops, including per-shard session
/// instantiation and DKIM signing: per-session work that parallelizes
/// with the shard count), **merge** (the canonical re-sort of per-shard
/// outputs) and **persist** (writing the result to the campaign store;
/// zero without a store). All values are diagnostics: they are never
/// journaled, stored or hashed, so they cannot perturb determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Seconds before the first shard thread started.
    pub setup_s: f64,
    /// Seconds the sharded event loops ran (wall, not summed CPU).
    pub simulate_s: f64,
    /// Seconds merging per-shard outputs into canonical order.
    pub merge_s: f64,
    /// Seconds persisting to the campaign store.
    pub persist_s: f64,
}

impl PhaseTimes {
    /// Sum over all phases.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.simulate_s + self.merge_s + self.persist_s
    }

    /// Fraction of the total spent in setup (0.0 for an empty total).
    pub fn setup_share(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.setup_s / total
        } else {
            0.0
        }
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// The apparatus query log, in canonical `(time_ms, session)` order.
    pub log: QueryLog,
    /// Per-session records, in global session order.
    pub sessions: Vec<SessionRecord>,
    /// Total virtual events dispatched (sum over shards; shard-count
    /// invariant because sessions never exchange events).
    pub events: u64,
    /// Fault/retry/containment counters summed over shards (all zero
    /// without fault injection; shard-count invariant).
    pub faults: FaultStats,
    /// Per-shard execution counters.
    pub shard_stats: Vec<ShardStats>,
    /// One or more shards exhausted the supervisor's restart budget and
    /// were finalized from their journals: `sessions` holds only what
    /// completed durably. Always `false` for a run that finished every
    /// session.
    pub partial: bool,
    /// Where the wall-clock went (diagnostics; excluded from the
    /// content hash, the journal and the store).
    pub phases: PhaseTimes,
    /// Merged trace events and metrics when
    /// [`TelemetryConfig::tracing`] was on (observability like
    /// `phases`: excluded from the content hash, the journal and the
    /// store; a store hit or journal-finalized shard carries none).
    pub telemetry: Option<Telemetry>,
}

impl CampaignResult {
    /// Canonical content digest: SHA-256 over the deterministic parts
    /// of the result — session records, the canonical query log, the
    /// dispatched-event count, the fault counters and the partial flag
    /// — through the same binary codec the journal and store use.
    /// Wall-clock diagnostics (`shard_stats` timings) are excluded, so
    /// byte-identical runs hash identically for any shard count, with
    /// or without kill-and-resume. The golden determinism test pins
    /// these digests against the pre-optimization engine.
    pub fn content_hash(&self) -> [u8; 32] {
        let mut enc = Enc::default();
        enc.put(&self.sessions.len());
        for r in &self.sessions {
            enc.put(r);
        }
        enc.put(&self.log.records.len());
        for q in &self.log.records {
            enc.put(q);
        }
        enc.put(&self.events);
        codec::put_hashed_faults(&mut enc, &self.faults);
        enc.put(&self.partial);
        sha256(&enc.0)
    }
}

/// Sample behavior profiles for a population's hosts, deterministically.
///
/// Profiles are sampled **per AS pool**, not per host: all of a mail
/// operator's MTAs run the same software with the same configuration
/// (every Google MTA behaves like every other Google MTA). This is what
/// makes the paper's per-domain and per-MTA validation rates nearly
/// equal (Table 5) even though domains list several MX hosts. Quality
/// shifts per the Table 7 gradient: shared providers and operators
/// serving Alexa-ranked domains validate more.
pub fn sample_host_profiles(pop: &Population, seed: u64) -> Vec<MtaProfile> {
    let mut root = SimRng::new(seed ^ 0x9d7f_00d5);
    // Best Alexa tier and provider status per AS (the operator unit).
    let mut as_alexa: HashMap<u32, u8> = HashMap::new();
    let mut as_provider: HashMap<u32, bool> = HashMap::new();
    for d in &pop.domains {
        let tier = match d.alexa {
            mailval_datasets::alexa::AlexaTier::Top1K => 2,
            mailval_datasets::alexa::AlexaTier::Top1M => 1,
            mailval_datasets::alexa::AlexaTier::Unlisted => 0,
        };
        for &h in &d.host_indices {
            let asn = pop.hosts[h].asn;
            let t = as_alexa.entry(asn).or_default();
            *t = (*t).max(tier);
            let p = as_provider.entry(asn).or_default();
            *p = *p || d.shared_provider;
        }
    }
    let mut per_as: HashMap<u32, MtaProfile> = HashMap::new();
    pop.hosts
        .iter()
        .map(|host| {
            per_as
                .entry(host.asn)
                .or_insert_with(|| {
                    let mut rng = root.fork(host.asn as u64);
                    let mut quality: f64 = match as_alexa.get(&host.asn).copied().unwrap_or(0) {
                        2 => 1.2,
                        1 => 0.5,
                        _ => 0.0,
                    };
                    if as_provider.get(&host.asn).copied().unwrap_or(false) {
                        quality = quality.max(0.9);
                    }
                    MtaProfile::sample(&mut rng, quality)
                })
                .clone()
        })
        .collect()
}

/// Re-sample a fraction of operators' profiles, modeling configuration
/// drift between campaigns (NotifyEmail ran in Oct 2020, NotifyMX nine
/// months later — §6.2's inconsistency analysis found ~5% of status
/// changes in the *opposite* direction, i.e. operators that newly
/// deployed validation in between).
pub fn drift_profiles(
    pop: &Population,
    profiles: &[MtaProfile],
    fraction: f64,
    seed: u64,
) -> Vec<MtaProfile> {
    let mut root = SimRng::new(seed ^ 0xd21f7);
    // Decide drift per AS so operator uniformity is preserved.
    let mut drifted: HashMap<u32, MtaProfile> = HashMap::new();
    let mut decided: HashMap<u32, bool> = HashMap::new();
    pop.hosts
        .iter()
        .zip(profiles)
        .map(|(host, profile)| {
            let drifts = *decided
                .entry(host.asn)
                .or_insert_with(|| root.fork(host.asn as u64).chance(fraction));
            if drifts {
                drifted
                    .entry(host.asn)
                    .or_insert_with(|| {
                        let mut rng = root.fork(host.asn as u64 ^ 0xfeed);
                        MtaProfile::sample(&mut rng, 0.0)
                    })
                    .clone()
            } else {
                profile.clone()
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The shared campaign world
// ---------------------------------------------------------------------------

/// Per-host instantiation data, precomputed once for the whole
/// campaign: the hostname string every `MtaActor` greets with (built
/// once here instead of `Name::to_string()` per session per restart)
/// and the host's connect address.
struct WorldHost {
    name: String,
    ipv4: std::net::Ipv4Addr,
}

/// What a NotifyEmail session's message is made of. The actual
/// build-and-sign runs at session instantiation on the shard threads:
/// signing is per-session work, so it belongs to the parallel simulate
/// phase, not the shared setup.
#[derive(Debug, PartialEq)]
struct MessageSpec {
    recipient_domain: Name,
    signing_domain: Name,
}

/// One session, described instead of instantiated: the prototype
/// record (carrying the global session id, the merge key, and the start
/// time staggered by it) plus the client-side parameters. A blueprint
/// is a pure function of the world and the session id
/// ([`CampaignWorld::blueprint`]), derived when the session is
/// instantiated and never stored, so every shard — and every supervised
/// restart — derives the same one.
#[derive(Debug, PartialEq)]
struct SessionBlueprint {
    record: SessionRecord,
    helo_identity: String,
    mail_from: EmailAddress,
    rcpt_candidates: Vec<EmailAddress>,
    message: Option<MessageSpec>,
    pause_before_commands_ms: u64,
}

/// One campaign target: the MTA host a session connects to and the
/// recipient domain it is about.
struct Target {
    host_index: usize,
    domain_index: usize,
    domain: Name,
    /// Probe campaigns: the host's name under the probe suffix
    /// ([`NameScheme::probe_host`]), which each test's From-domain
    /// extends.
    probe_host: Option<Name>,
}

/// The apparatus's DKIM signer, built once per world for a campaign
/// that sends messages: the key pair, a signing configuration whose
/// `d=` each message sets, and the body hash of the one notification
/// body every message carries.
struct Signer {
    keypair: RsaKeyPair,
    config: SignConfig,
    /// `bh=` of [`NOTIFICATION_BODY`] under `config`.
    body_hash: Vec<u8>,
}

/// The immutable world of one campaign, built exactly once and shared
/// by every shard and every supervised restart (the scoped shard
/// threads borrow it; wrap it in an [`std::sync::Arc`] to share across
/// sequential runs, as the perf bench does when sweeping shard counts).
///
/// The world owns everything result-determining: the synthesizing
/// authority behind the one shared [`ServerCore`], the engine
/// configuration, per-host instantiation data, behavior profiles, the
/// DKIM signer of a campaign that sends messages, and the campaign's
/// targets in campaign order. It holds no per-session state: session
/// `i` is derived from its id ([`CampaignWorld::blueprint`]) — a
/// NotifyEmail session is target `i`, a probe session is target
/// `i / tests` under test `i % tests` — so the world is as large as the
/// population, not the campaign. Per-shard state is reduced to what a
/// shard genuinely owns — the one live session it is running, and its
/// journal.
pub struct CampaignWorld {
    config: CampaignConfig,
    server: ServerCore<SynthesizingAuthority>,
    engine: EngineConfig,
    signer: Option<Signer>,
    hosts: Vec<WorldHost>,
    profiles: Vec<MtaProfile>,
    targets: Vec<Target>,
    blacklisted: bool,
    guessed: bool,
    build_s: f64,
}

impl CampaignWorld {
    /// Build the world for `(config, pop, profiles)`: stand up the
    /// synthesizing authority, generate the DKIM key pair if the
    /// campaign sends messages, precompute host strings and lay out the
    /// campaign's targets in deterministic campaign order. This is the
    /// entire setup phase of a campaign; everything after it is
    /// per-shard and parallel.
    pub fn build(
        config: &CampaignConfig,
        pop: &Population,
        profiles: &[MtaProfile],
    ) -> CampaignWorld {
        assert_eq!(profiles.len(), pop.hosts.len(), "one profile per host");
        let start = std::time::Instant::now();
        let scheme = NameScheme::default();
        let addrs = SynthAddrs::default();
        let targets = campaign_targets(config, pop, &scheme);

        // Only NotifyEmail signs, so only it needs the apparatus key
        // pair now; a probe campaign's authority generates the same key
        // if a query for its record ever arrives.
        let dmarc_record = DmarcRecord::strict_reject("dmarc-reports@dns-lab.org").to_record_text();
        let (authority, signer) = if config.kind == CampaignKind::NotifyEmail {
            let keypair = apparatus_keypair(config.seed);
            let sign = SignConfig::new(
                scheme.notify_suffix.clone(),
                Name::parse("sel1").expect("valid"),
            );
            let authority = SynthesizingAuthority::new(
                scheme,
                addrs.clone(),
                dkim_key_record(&keypair),
                dmarc_record,
            );
            let signer = Signer {
                body_hash: body_hash(&sign, NOTIFICATION_BODY.as_bytes()),
                keypair,
                config: sign,
            };
            (authority, Some(signer))
        } else {
            let authority = SynthesizingAuthority::with_lazy_dkim_key(
                scheme,
                addrs.clone(),
                config.seed,
                dmarc_record,
            );
            (authority, None)
        };
        let server = ServerCore::new(authority);

        let client_ip: IpAddr = IpAddr::V4(addrs.sender_v4);
        let auth_ip: IpAddr = "198.51.100.53".parse().expect("valid");
        let engine = EngineConfig {
            latency: config.latency.clone(),
            faults: config.faults.clone(),
            payload: config.payload.clone(),
            client_ip,
            auth_ip,
            local_hop_ms: 1,
            budget: config.budget,
            memory: config.memory,
        };

        let hosts = pop
            .hosts
            .iter()
            .map(|h| WorldHost {
                name: h.name.to_string(),
                ipv4: h.ipv4,
            })
            .collect();

        CampaignWorld {
            blacklisted: config.kind == CampaignKind::NotifyMx,
            guessed: config.kind == CampaignKind::TwoWeekMx,
            config: config.clone(),
            server,
            engine,
            signer,
            hosts,
            profiles: profiles.to_vec(),
            targets,
            build_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Sessions per target: one delivery, or one probe per test.
    fn sessions_per_target(&self) -> usize {
        match self.config.kind {
            CampaignKind::NotifyEmail => 1,
            CampaignKind::NotifyMx | CampaignKind::TwoWeekMx => self.config.tests.len(),
        }
    }

    /// Sessions this campaign will run.
    pub fn session_count(&self) -> usize {
        self.targets.len() * self.sessions_per_target()
    }

    /// Wall seconds spent in [`CampaignWorld::build`].
    pub fn build_seconds(&self) -> f64 {
        self.build_s
    }

    /// The campaign configuration the world was built from.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Instantiate live actors for every session of shard `k` of
    /// `nshards` at once. Campaign runs instantiate the same sessions
    /// one at a time, through the same path; this batch form exists to
    /// time instantiation on its own.
    pub fn shard_sessions(&self, k: usize, nshards: usize) -> Vec<LiveSession> {
        self.instantiate_all(self.shard_ids(k, nshards)).collect()
    }

    /// Shard `k` of `nshards`'s session ids in order: the round-robin
    /// assignment `session_id % nshards == k`, a pure function of
    /// `(world, k, nshards)`, so a first attempt and a supervised
    /// restart walk the identical list.
    fn shard_ids(&self, k: usize, nshards: usize) -> impl Iterator<Item = usize> {
        (k..self.session_count()).step_by(nshards)
    }

    /// Derive session `id`'s blueprint from the targets. A probe's
    /// From-domain is built once and serves both the HELO identity and
    /// MAIL FROM.
    fn blueprint(&self, id: usize) -> SessionBlueprint {
        let per_target = self.sessions_per_target();
        let target = &self.targets[id / per_target];
        let record = |testid| SessionRecord {
            session_id: id,
            host_index: target.host_index,
            domain_index: target.domain_index,
            testid,
            start_ms: stagger_ms(id),
            outcome: None,
            delivery_time_ms: None,
            closed_by_server: false,
            error: None,
            termination: crate::engine::SessionOutcome::Completed,
        };
        let operator = || vec![EmailAddress::new("operator", target.domain.clone())];
        match self.config.kind {
            CampaignKind::NotifyEmail => {
                let scheme = self.server.authority().scheme();
                let from_domain = scheme.notify_domain(target.domain_index);
                SessionBlueprint {
                    record: record(None),
                    helo_identity: "notify.dns-lab.org".into(),
                    mail_from: NameScheme::sender_at(from_domain.clone()),
                    rcpt_candidates: operator(),
                    message: Some(MessageSpec {
                        recipient_domain: target.domain.clone(),
                        signing_domain: from_domain,
                    }),
                    pause_before_commands_ms: 0,
                }
            }
            CampaignKind::NotifyMx | CampaignKind::TwoWeekMx => {
                let testid = self.config.tests[id % per_target];
                let probe_host = target
                    .probe_host
                    .as_ref()
                    .expect("probe targets name their host");
                let probe_domain = NameScheme::probe_domain_under(probe_host, testid);
                // TwoWeekMX must guess usernames (§4.4, §6.3); NotifyMX
                // reuses the known-valid notification recipients.
                let rcpt_candidates = if self.guessed {
                    probe_usernames()
                        .iter()
                        .map(|&u| EmailAddress::new(u, target.domain.clone()))
                        .collect()
                } else {
                    operator()
                };
                SessionBlueprint {
                    record: record(Some(testid)),
                    helo_identity: NameScheme::helo_under(&probe_domain),
                    mail_from: NameScheme::sender_at(probe_domain),
                    rcpt_candidates,
                    message: None,
                    pause_before_commands_ms: self.config.probe_pause_ms,
                }
            }
        }
    }

    /// Instantiate the sessions `ids`, in order. The world's signing
    /// configuration is copied once for the whole walk.
    fn instantiate_all<'a>(
        &'a self,
        ids: impl Iterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = LiveSession> + 'a {
        let mut sign = self.signer.as_ref().map(|s| s.config.clone());
        ids.map(move |id| self.instantiate(id, sign.as_mut()))
    }

    /// Build session `id`'s live actors. Runs on the shard's own
    /// thread; NotifyEmail message signing happens here, in parallel,
    /// with `sign` (a copy of the world's signing configuration)
    /// re-pointed at each message's domain.
    fn instantiate(&self, id: usize, sign: Option<&mut SignConfig>) -> LiveSession {
        let bp = self.blueprint(id);
        let host = &self.hosts[bp.record.host_index];
        let profile = self.profiles[bp.record.host_index].clone();
        let hostile_dns = profile.hostile_dns;
        let message = bp.message.map(|spec| {
            let (signer, sign) = self
                .signer
                .as_ref()
                .zip(sign)
                .expect("only a signing world's sessions carry a message");
            sign.domain = spec.signing_domain;
            build_notification(&bp.mail_from, &spec.recipient_domain, signer, sign)
        });
        let client = ClientSession::new(ClientConfig {
            helo_identity: bp.helo_identity,
            mail_from: Some(bp.mail_from),
            rcpt_candidates: bp.rcpt_candidates,
            message,
            pause_before_commands_ms: bp.pause_before_commands_ms,
            max_session_retries: CLIENT_RETRY_BUDGET,
            retry_backoff_ms: CLIENT_RETRY_BACKOFF_MS,
        });
        let resolver = ResolverActor::new(profile.resolver.clone(), profile.ipv6_capable);
        let mta = MtaActor::new(
            &host.name,
            profile,
            ConnContext {
                client_ip: self.engine.client_ip,
                client_blacklisted: self.blacklisted,
                recipients_guessed: self.guessed,
            },
        );
        let mut session = LiveSession::new(bp.record, client, mta, resolver, IpAddr::V4(host.ipv4));
        session.set_hostile_dns(hostile_dns);
        session
    }

    /// Run one shard to completion: replay its journal if durability
    /// is on, then instantiate and run its remaining sessions one at a
    /// time, in id order (on this shard's thread). A journal that
    /// cannot be opened leaves the shard running non-durable with
    /// `durability_lost` set — never a crash. The
    /// `crash_after_sessions` trigger is armed only on the shard's first
    /// attempt of a run (`first_attempt`), so a restart whose journal
    /// lost frames cannot meet it again. Generic over the tracer so the
    /// untraced path pays nothing for the telemetry seam.
    #[allow(clippy::too_many_arguments)]
    fn run_shard<T: Tracer>(
        &self,
        k: usize,
        first_attempt: bool,
        nshards: usize,
        exec: &CampaignConfig,
        journal_paths: Option<&Vec<PathBuf>>,
        journal_enabled: &[bool],
        vfs: &dyn Vfs,
        tracer: T,
    ) -> EngineOutput {
        let mut config = self.engine.clone();
        if !first_attempt {
            config.faults.crash_after_sessions = 0;
        }
        let mut engine = SessionEngine::new(&self.server, config, tracer);
        if exec.telemetry.heartbeat_ms > 0 {
            engine.set_heartbeat(k, exec.telemetry.heartbeat_ms);
        }
        let mut replay = Replay::default();
        let mut durability_lost = false;
        match journal_paths {
            Some(paths) if journal_enabled[k] => {
                let path = &paths[k];
                replay = journal::replay_with(path, vfs);
                match JournalWriter::open_append_with(path, replay.valid_len, exec.fsync_every, vfs)
                {
                    Ok(writer) => engine.set_journal(writer),
                    Err(e) => {
                        durability_lost = true;
                        crate::progress!(
                            "shard {k}: journal unavailable, running non-durable: {e}"
                        );
                    }
                }
            }
            // Durability was requested but this shard (or the whole
            // journal directory) lost it before the run began.
            Some(_) => durability_lost = true,
            None if exec.journal_dir.is_some() => durability_lost = true,
            None => {}
        }
        let journaled = replay.completed_ids();
        let pending = self
            .shard_ids(k, nshards)
            .filter(move |id| !journaled.contains(id));
        let sessions = self.instantiate_all(pending);
        let mut output = engine.run(replay.frames, sessions);
        output.stats.durability_lost |= durability_lost;
        output
    }

    /// Run the campaign over this world. Result-determining knobs come
    /// from the world itself; `exec` contributes only execution knobs —
    /// `shards`, `journal_dir`, `resume`, `fsync_every`, `io`,
    /// `supervisor`, `telemetry` — so one world can be swept across
    /// shard counts without rebuilding (the output is byte-identical
    /// for every value, which the golden determinism test pins).
    pub fn run(&self, exec: &CampaignConfig) -> CampaignResult {
        let run_start = std::time::Instant::now();
        let nshards = shard_count(self.session_count(), exec.shards);

        // The storage layer every journal touch goes through: the
        // passthrough unless an IO fault plan is active.
        let io_plan = IoPlan::new(exec.io.clone());
        let vfs: Arc<dyn Vfs> = if io_plan.is_active() {
            Arc::new(SimFs::new(io_plan))
        } else {
            Arc::new(OsFs)
        };

        // Durability setup: one journal file per shard. A fresh
        // (non-resume) run resets any leftovers so stale frames cannot
        // leak in. Every IO failure here degrades durability for the
        // affected shard(s) instead of aborting the campaign — the
        // results are unaffected, only crash coverage is lost.
        let mut journal_enabled = vec![true; nshards];
        let journal_paths: Option<Vec<PathBuf>> = exec.journal_dir.as_ref().and_then(|dir| {
            if let Err(e) = vfs.create_dir_all(dir) {
                crate::progress!("journal directory unavailable, campaign runs non-durable: {e}");
                return None;
            }
            Some(
                (0..nshards)
                    .map(|k| journal::shard_journal_path(dir, k))
                    .collect(),
            )
        });
        if let Some(paths) = &journal_paths {
            if !exec.resume {
                for (k, path) in paths.iter().enumerate() {
                    // Truncate-and-rewrite through the same vfs the
                    // shards will append through.
                    if let Err(e) =
                        JournalWriter::open_append_with(path, 0, exec.fsync_every, &*vfs)
                    {
                        // A leftover journal we could neither truncate
                        // nor delete may hold frames of a *different*
                        // campaign; replaying it would corrupt this
                        // run, so the shard goes non-durable.
                        if vfs.remove_file(path).is_err() && path.exists() {
                            journal_enabled[k] = false;
                            crate::progress!(
                                "shard {k}: journal reset failed with stale file left, \
                                 shard runs non-durable: {e}"
                            );
                        } else {
                            crate::progress!(
                                "shard {k}: journal reset failed, file removed \
                                 (recreated on open): {e}"
                            );
                        }
                    }
                }
            }
        }

        let paths_ref = &journal_paths;
        let journal_enabled = &journal_enabled;
        let vfs_ref = &vfs;
        // Run one shard to completion, with or without a recording
        // tracer. The tracer choice is an execution knob: both arms
        // call the same generic [`CampaignWorld::run_shard`], and the
        // untraced arm monomorphizes to the zero-cost null tracer.
        let run_one = |k: usize, first_attempt: bool| -> EngineOutput {
            if exec.telemetry.tracing {
                self.run_shard(
                    k,
                    first_attempt,
                    nshards,
                    exec,
                    paths_ref.as_ref(),
                    journal_enabled,
                    &**vfs_ref,
                    RecordingTracer::default(),
                )
            } else {
                self.run_shard(
                    k,
                    first_attempt,
                    nshards,
                    exec,
                    paths_ref.as_ref(),
                    journal_enabled,
                    &**vfs_ref,
                    NullTracer,
                )
            }
        };

        // The supervisor: run all pending shards, catch shard-level
        // crashes, restart crashed shards (from journal) with
        // exponential backoff and a bounded per-shard restart budget. A
        // shard over budget is finalized from whatever its journal
        // durably holds, and the result is marked partial.
        let supervisor = exec.supervisor;
        let setup_s = run_start.elapsed().as_secs_f64();
        let sim_start = std::time::Instant::now();
        let mut outputs: Vec<Option<EngineOutput>> = (0..nshards).map(|_| None).collect();
        let mut wall_ms = vec![0.0f64; nshards];
        let mut restarts = vec![0u32; nshards];
        let mut partial = false;
        let mut pending: Vec<usize> = (0..nshards).collect();
        let mut round = 0u32;
        while !pending.is_empty() {
            let attempts = pending.iter().map(|&k| (k, restarts[k] == 0)).collect();
            let results = run_shards_catch(attempts, |_, (k, first)| run_one(k, first));
            let mut next_pending = Vec::new();
            for (i, (result, timing)) in results.into_iter().enumerate() {
                let k = pending[i];
                wall_ms[k] += timing.wall_ms;
                match result {
                    Ok(output) => outputs[k] = Some(output),
                    Err(_) => {
                        restarts[k] += 1;
                        if restarts[k] > supervisor.max_shard_restarts {
                            partial = true;
                            // Finalize from journal: everything the
                            // shard durably completed still counts.
                            // Without a journal the shard's work is
                            // simply lost.
                            outputs[k] = paths_ref.as_ref().map(|paths| {
                                journal::replay_with(&paths[k], &*vfs).into_engine_output()
                            });
                        } else {
                            next_pending.push(k);
                        }
                    }
                }
            }
            pending = next_pending;
            if !pending.is_empty() {
                let backoff = RESTART_BACKOFF_MS << round.min(6);
                std::thread::sleep(std::time::Duration::from_millis(backoff));
                round += 1;
            }
        }
        let simulate_s = sim_start.elapsed().as_secs_f64();

        let merge_start = std::time::Instant::now();
        let mut frames = Vec::with_capacity(self.session_count());
        let mut shard_stats = Vec::with_capacity(nshards);
        let mut telemetries = Vec::new();
        let mut events = 0;
        let mut faults = FaultStats::default();
        for (k, output) in outputs.into_iter().enumerate() {
            let Some(output) = output else {
                continue; // journal-less shard lost past its restart budget
            };
            events += output.stats.events;
            faults.merge(&output.stats.faults);
            shard_stats.push(ShardStats::new(k, output.stats, wall_ms[k], restarts[k]));
            frames.extend(output.frames);
            // Journal-finalized shards carry no telemetry (it is never
            // journaled); the merged trace covers exactly the sessions
            // this run actually simulated.
            telemetries.extend(output.telemetry);
        }
        let (sessions, log) = merge_frames(frames);
        let telemetry = if exec.telemetry.tracing {
            Some(Telemetry::merge(telemetries))
        } else {
            None
        };
        let merge_s = merge_start.elapsed().as_secs_f64();

        CampaignResult {
            log,
            sessions,
            events,
            faults,
            shard_stats,
            partial,
            phases: PhaseTimes {
                setup_s,
                simulate_s,
                merge_s,
                persist_s: 0.0,
            },
            telemetry,
        }
    }
}

/// Run a campaign against a population with pre-sampled host profiles
/// (use [`sample_host_profiles`]; the same profiles must be reused
/// across NotifyEmail and NotifyMX for the §6.2 consistency analysis).
///
/// Builds the shared [`CampaignWorld`] once and fans execution out over
/// `config.shards` worker threads; results are merged back into
/// canonical order, so the output is a pure function of `(config, pop,
/// profiles)` regardless of shard count or thread scheduling. To sweep
/// shard counts without rebuilding the world, call
/// [`CampaignWorld::build`] + [`CampaignWorld::run`] directly.
pub fn run_campaign(
    config: &CampaignConfig,
    pop: &Population,
    profiles: &[MtaProfile],
) -> CampaignResult {
    let world = CampaignWorld::build(config, pop, profiles);
    let mut result = world.run(config);
    result.phases.setup_s += world.build_seconds();
    result
}

/// Run a campaign through the content-addressed store: serve the
/// result from disk when an intact entry exists for the spec's key,
/// otherwise simulate via [`run_campaign`] and persist the result for
/// the next caller. All progress goes through [`crate::progress!`] and
/// carries the content hash, so every run is attributable in logs.
///
/// Any load failure — missing entry, torn tail, checksum mismatch,
/// stale key — falls back to a clean re-run; the store can only ever
/// cost a simulation, never serve wrong data.
pub fn run_campaign_stored(
    spec: &crate::store::KeySpec<'_>,
    pop: &Population,
    profiles: &[MtaProfile],
    store: Option<&crate::store::CampaignStore>,
) -> (CampaignResult, crate::store::StoreStatus) {
    use crate::store::{StoreError, StoreStatus};

    let config = spec.config;
    let key = spec.key();
    let status = match store {
        None => StoreStatus::Off,
        Some(store) => match store.load(&key) {
            Ok(result) => {
                crate::progress!(
                    "campaign {} key={} store=hit: {} sessions, {} queries served from {}",
                    key.label,
                    key.short_hex(),
                    result.sessions.len(),
                    result.log.records.len(),
                    store.path_for(&key).display()
                );
                return (result, StoreStatus::Hit);
            }
            Err(StoreError::Missing) => StoreStatus::Miss("cold".to_string()),
            Err(e) => StoreStatus::Miss(e.to_string()),
        },
    };

    crate::progress!(
        "campaign {} key={} store={}: running over {} domains / {} hosts on {} shard(s) ...",
        key.label,
        key.short_hex(),
        crate::progress::store_status(&status),
        pop.domains.len(),
        pop.hosts.len(),
        config.shards.max(1)
    );
    let start = std::time::Instant::now();
    let mut result = run_campaign(config, pop, profiles);
    crate::progress!(
        "campaign {} key={} done: {} sessions, {} queries logged, {} events, {:.1}s wall \
         (setup {:.3}s / simulate {:.3}s / merge {:.3}s, setup-share {:.1}%)",
        key.label,
        key.short_hex(),
        result.sessions.len(),
        result.log.records.len(),
        result.events,
        start.elapsed().as_secs_f64(),
        result.phases.setup_s,
        result.phases.simulate_s,
        result.phases.merge_s,
        result.phases.setup_share() * 100.0
    );
    if let Some(store) = store {
        let persist_start = std::time::Instant::now();
        match store.save(&key, &result) {
            Ok(path) => crate::progress!(
                "campaign {} key={} persisted to {}",
                key.label,
                key.short_hex(),
                path.display()
            ),
            // A failed save degrades to store-off behavior; the result
            // in hand is still correct.
            Err(e) => crate::progress!(
                "campaign {} key={} could not be persisted: {e}",
                key.label,
                key.short_hex()
            ),
        }
        result.phases.persist_s = persist_start.elapsed().as_secs_f64();
    }
    (result, status)
}

/// Lay out the campaign's targets in deterministic campaign order.
/// NotifyEmail delivers to each domain's first MX host, in domain order
/// (domains without one are skipped). The probe campaigns probe each
/// unique used host once per test (§5.2: each MTA is analyzed once even
/// when several domains designate it), naming the first domain that
/// lists it, in a seeded shuffle of `(host, domain)` order; NotifyMX
/// leaves out domains whose MX re-resolution failed.
fn campaign_targets(config: &CampaignConfig, pop: &Population, scheme: &NameScheme) -> Vec<Target> {
    let target = |host_index, domain_index: usize| Target {
        host_index,
        domain_index,
        domain: pop.domains[domain_index].name.clone(),
        probe_host: (config.kind != CampaignKind::NotifyEmail)
            .then(|| scheme.probe_host(host_index)),
    };
    match config.kind {
        CampaignKind::NotifyEmail => pop
            .domains
            .iter()
            .filter_map(|d| Some(target(*d.host_indices.first()?, d.index)))
            .collect(),
        CampaignKind::NotifyMx | CampaignKind::TwoWeekMx => {
            let mut host_domain: HashMap<usize, usize> = HashMap::new();
            for d in &pop.domains {
                if config.kind == CampaignKind::NotifyMx && d.mx_reresolution_failed {
                    continue;
                }
                for &h in &d.host_indices {
                    host_domain.entry(h).or_insert(d.index);
                }
            }
            let mut hosts: Vec<(usize, usize)> = host_domain.into_iter().collect();
            hosts.sort_unstable();
            // §5.2: shuffle the probing order.
            SimRng::new(config.seed).shuffle(&mut hosts);
            hosts.into_iter().map(|(h, d)| target(h, d)).collect()
        }
    }
}

/// The full session list as the world stored it before sessions were
/// derived from their ids: the reference every derived blueprint must
/// equal.
#[cfg(test)]
fn build_blueprints(
    config: &CampaignConfig,
    pop: &Population,
    scheme: &NameScheme,
) -> Vec<SessionBlueprint> {
    let mut rng = SimRng::new(config.seed);
    let mut blueprints: Vec<SessionBlueprint> = Vec::new();

    match config.kind {
        CampaignKind::NotifyEmail => {
            for d in &pop.domains {
                let Some(&host_index) = d.host_indices.first() else {
                    continue;
                };
                blueprints.push(SessionBlueprint {
                    record: SessionRecord {
                        session_id: blueprints.len(),
                        host_index,
                        domain_index: d.index,
                        testid: None,
                        start_ms: stagger_ms(blueprints.len()),
                        outcome: None,
                        delivery_time_ms: None,
                        closed_by_server: false,
                        error: None,
                        termination: crate::engine::SessionOutcome::Completed,
                    },
                    helo_identity: "notify.dns-lab.org".into(),
                    mail_from: scheme.notify_from(d.index),
                    rcpt_candidates: vec![EmailAddress::new("operator", d.name.clone())],
                    message: Some(MessageSpec {
                        recipient_domain: d.name.clone(),
                        signing_domain: scheme.notify_domain(d.index),
                    }),
                    pause_before_commands_ms: 0,
                });
            }
        }
        CampaignKind::NotifyMx | CampaignKind::TwoWeekMx => {
            // One probe per (unique used host, test). §5.2: each MTA is
            // analyzed once even when several domains designate it.
            let mut host_domain: HashMap<usize, usize> = HashMap::new();
            for d in &pop.domains {
                if config.kind == CampaignKind::NotifyMx && d.mx_reresolution_failed {
                    continue;
                }
                for &h in &d.host_indices {
                    host_domain.entry(h).or_insert(d.index);
                }
            }
            let mut hosts: Vec<(usize, usize)> = host_domain.into_iter().collect();
            hosts.sort_unstable();
            // §5.2: shuffle the probing order.
            rng.shuffle(&mut hosts);
            for (host_index, domain_index) in hosts {
                let domain_name = pop.domains[domain_index].name.clone();
                // TwoWeekMX must guess usernames (§4.4, §6.3); NotifyMX
                // reuses the known-valid notification recipients.
                let rcpt_candidates: Vec<EmailAddress> = if config.kind == CampaignKind::TwoWeekMx {
                    probe_usernames()
                        .iter()
                        .map(|&u| EmailAddress::new(u, domain_name.clone()))
                        .collect()
                } else {
                    vec![EmailAddress::new("operator", domain_name.clone())]
                };
                for testid in &config.tests {
                    blueprints.push(SessionBlueprint {
                        record: SessionRecord {
                            session_id: blueprints.len(),
                            host_index,
                            domain_index,
                            testid: Some(testid),
                            start_ms: stagger_ms(blueprints.len()),
                            outcome: None,
                            delivery_time_ms: None,
                            closed_by_server: false,
                            error: None,
                            termination: crate::engine::SessionOutcome::Completed,
                        },
                        helo_identity: scheme.probe_helo(testid, host_index).to_string(),
                        mail_from: scheme.probe_from(testid, host_index),
                        rcpt_candidates: rcpt_candidates.clone(),
                        message: None,
                        pause_before_commands_ms: config.probe_pause_ms,
                    });
                }
            }
        }
    }
    blueprints
}

/// A session's virtual start time: starts are staggered by global id,
/// 7 ms apart.
fn stagger_ms(session_id: usize) -> u64 {
    session_id as u64 * 7
}

/// The notification body, CRLF line endings included. Every message
/// carries it, so a world hashes it once ([`Signer`]).
const NOTIFICATION_BODY: &str = "Dear network operator,\r\n\
     \r\n\
     During a recent measurement study we detected that your network\r\n\
     does not enforce destination-side source address validation.\r\n\
     Details and remediation guidance: https://dns-lab.org/dsav\r\n\
     \r\n\
     To opt out of future notifications, reply to this message.\r\n";

/// Build the signed notification message (§4.3.1: "the content was in
/// fact an important notification", DKIM-signed, Reply-To set for
/// attribution §5.3). `sign` is the signer's configuration with `d=`
/// set for this message; the body hash is the signer's.
fn build_notification(
    from: &EmailAddress,
    recipient_domain: &Name,
    signer: &Signer,
    sign: &SignConfig,
) -> Vec<u8> {
    // Neither name is the root, so its text is what it displays as.
    let field = |name: &str, value: &[&str]| {
        let mut raw_value = String::with_capacity(1 + value.iter().map(|v| v.len()).sum::<usize>());
        raw_value.push(' ');
        value.iter().for_each(|v| raw_value.push_str(v));
        HeaderField {
            name: name.to_string(),
            raw_value,
        }
    };
    let headers = vec![
        field(
            "From",
            &[
                "Network Notifier <",
                &from.local,
                "@",
                from.domain.as_str(),
                ">",
            ],
        ),
        field("To", &["operator@", recipient_domain.as_str()]),
        field(
            "Subject",
            &["Action recommended: source-address-validation issue detected"],
        ),
        field("Date", &["Mon, 12 Oct 2020 09:00:00 +0000"]),
        field(
            "Message-ID",
            &["<notify.", from.domain.as_str(), "@dns-lab.org>"],
        ),
        field("Reply-To", &["research@dns-lab.org"]),
    ];
    let value =
        sign_headers(&headers, sign, &signer.body_hash, &signer.keypair.private).expect("signable");
    let mut m = MailMessage {
        headers,
        body: NOTIFICATION_BODY.as_bytes().to_vec(),
    };
    m.prepend_header("DKIM-Signature", &value);
    m.to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mailval_datasets::{DatasetKind, PopulationConfig};

    fn tiny_pop(kind: DatasetKind, seed: u64) -> Population {
        Population::generate(&PopulationConfig {
            kind,
            scale: 0.004,
            seed,
        })
    }

    fn test_config(kind: CampaignKind, tests: Vec<&'static str>, seed: u64) -> CampaignConfig {
        CampaignConfig {
            kind,
            tests,
            seed,
            probe_pause_ms: 0,
            latency: LatencyModel::default(),
            shards: 1,
            faults: FaultConfig::default(),
            ..Default::default()
        }
    }

    #[test]
    fn notify_email_campaign_delivers_and_logs() {
        let pop = tiny_pop(DatasetKind::NotifyEmail, 11);
        let profiles = sample_host_profiles(&pop, 11);
        let config = test_config(CampaignKind::NotifyEmail, vec![], 11);
        let result = run_campaign(&config, &pop, &profiles);
        assert_eq!(result.sessions.len(), pop.domains.len());
        // Most deliveries succeed.
        let delivered = result
            .sessions
            .iter()
            .filter(|s| s.delivery_time_ms.is_some())
            .count();
        assert!(
            delivered as f64 > 0.9 * result.sessions.len() as f64,
            "delivered {delivered}/{}",
            result.sessions.len()
        );
        // SPF policy (base L0 TXT) queries observed for ≈85% of domains
        // (§6.1; the provider-quality bias pushes slightly above).
        let spf_validating: std::collections::HashSet<usize> = result
            .log
            .records
            .iter()
            .filter_map(|r| {
                let attr = r.attribution()?;
                attr.path.is_empty().then_some(attr.domain_index?)
            })
            .collect();
        let rate = spf_validating.len() as f64 / pop.domains.len() as f64;
        assert!(
            (0.75..0.95).contains(&rate),
            "SPF-validating domain rate {rate} (expected near .85)"
        );
    }

    #[test]
    fn probe_campaign_aborts_before_data_and_attributes_queries() {
        let pop = tiny_pop(DatasetKind::TwoWeekMx, 13);
        let profiles = sample_host_profiles(&pop, 13);
        let mut config = test_config(CampaignKind::TwoWeekMx, vec!["t01", "t12"], 13);
        config.probe_pause_ms = 15_000;
        let result = run_campaign(&config, &pop, &profiles);
        assert!(!result.sessions.is_empty());
        // No probe session ever delivers a message (§5.1).
        assert!(result.sessions.iter().all(|s| s.delivery_time_ms.is_none()));
        for s in &result.sessions {
            if let Some(outcome) = &s.outcome {
                assert!(!outcome.delivered);
            }
        }
        // Queries attribute to the configured tests only.
        for r in &result.log.records {
            if let Some(attr) = r.attribution() {
                let t = attr.testid.unwrap();
                assert!(t == "t01" || t == "t12", "unexpected test {t}");
            }
        }
        // Some MTAs validated (the population validates at a floor rate).
        assert!(result.log.attributed().next().is_some());
    }

    #[test]
    fn shard_sessions_round_robin_covers_all() {
        let pop = tiny_pop(DatasetKind::TwoWeekMx, 19);
        let profiles = sample_host_profiles(&pop, 19);
        let config = test_config(CampaignKind::TwoWeekMx, vec!["t01", "t12"], 19);
        let world = CampaignWorld::build(&config, &pop, &profiles);
        let mut all = Vec::new();
        for k in 0..4 {
            let ids: Vec<usize> = world
                .shard_sessions(k, 4)
                .iter()
                .map(LiveSession::session_id)
                .collect();
            // Shard k holds k, k+4, k+8, ... in id order.
            let expected: Vec<usize> = (k..world.session_count()).step_by(4).collect();
            assert_eq!(ids, expected, "shard {k}");
            all.extend(ids);
        }
        all.sort_unstable();
        assert_eq!(all, (0..world.session_count()).collect::<Vec<_>>());
    }

    /// The three campaign kinds over populations that exercise every
    /// layout branch: NotifyMX's population has domains whose MX
    /// re-resolution failed.
    fn layout_fixtures() -> Vec<(CampaignConfig, Population)> {
        let notify = Population::generate(&PopulationConfig {
            kind: DatasetKind::NotifyEmail,
            scale: 0.02,
            seed: 41,
        });
        assert!(notify.domains.iter().any(|d| d.mx_reresolution_failed));
        vec![
            (
                test_config(CampaignKind::NotifyEmail, vec![], 41),
                notify.clone(),
            ),
            (
                test_config(CampaignKind::NotifyMx, vec!["t01", "t07"], 41),
                notify,
            ),
            (
                test_config(CampaignKind::TwoWeekMx, vec!["t01", "t05", "t12"], 43),
                tiny_pop(DatasetKind::TwoWeekMx, 43),
            ),
        ]
    }

    #[test]
    fn derived_sessions_equal_the_stored_blueprints() {
        for (mut config, pop) in layout_fixtures() {
            config.probe_pause_ms = 15_000;
            let profiles = sample_host_profiles(&pop, 7);
            let world = CampaignWorld::build(&config, &pop, &profiles);
            let reference = build_blueprints(&config, &pop, &NameScheme::default());
            let n = world.session_count();
            assert_eq!(n, reference.len(), "{:?}", config.kind);
            for nshards in [1, 2, 3, 8, n] {
                let mut seen = Vec::with_capacity(n);
                for k in 0..nshards {
                    for id in world.shard_ids(k, nshards) {
                        assert_eq!(
                            world.blueprint(id),
                            reference[id],
                            "{:?} session {id} at {nshards} shards",
                            config.kind
                        );
                        seen.push(id);
                    }
                }
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{nshards} shards");
            }
        }
    }

    /// The notification as it was built before the world hashed the
    /// body once: composed with `format!`, bodied with `set_body_text`,
    /// and signed whole with `sign_message`.
    fn reference_notification(
        from: &EmailAddress,
        recipient_domain: &Name,
        keypair: &RsaKeyPair,
        sign: &SignConfig,
    ) -> Vec<u8> {
        let mut m = MailMessage::new();
        m.add_header("From", &format!("Network Notifier <{from}>"));
        m.add_header("To", &format!("operator@{recipient_domain}"));
        m.add_header(
            "Subject",
            "Action recommended: source-address-validation issue detected",
        );
        m.add_header("Date", "Mon, 12 Oct 2020 09:00:00 +0000");
        m.add_header(
            "Message-ID",
            &format!("<notify.{}@dns-lab.org>", from.domain),
        );
        m.add_header("Reply-To", "research@dns-lab.org");
        m.set_body_text(
            "Dear network operator,\n\
             \n\
             During a recent measurement study we detected that your network\n\
             does not enforce destination-side source address validation.\n\
             Details and remediation guidance: https://dns-lab.org/dsav\n\
             \n\
             To opt out of future notifications, reply to this message.\n",
        );
        let value = mailval_dkim::sign_message(&m, sign, &keypair.private).expect("signable");
        m.prepend_header("DKIM-Signature", &value);
        m.to_bytes()
    }

    #[test]
    fn reused_sign_config_signs_like_a_fresh_one() {
        // The reused configuration and the world's one body hash give
        // the bytes a fresh configuration and a whole-message signature
        // give.
        let (config, pop) = layout_fixtures().remove(0);
        let profiles = sample_host_profiles(&pop, 7);
        let world = CampaignWorld::build(&config, &pop, &profiles);
        let signer = world.signer.as_ref().expect("NotifyEmail signs");
        let mut sign = signer.config.clone();
        for id in 0..3 {
            let bp = world.blueprint(id);
            let spec = bp.message.expect("a delivery carries a message");
            let fresh = SignConfig::new(
                spec.signing_domain.clone(),
                Name::parse("sel1").expect("valid"),
            );
            sign.domain = spec.signing_domain;
            assert_eq!(
                build_notification(&bp.mail_from, &spec.recipient_domain, signer, &sign),
                reference_notification(
                    &bp.mail_from,
                    &spec.recipient_domain,
                    &signer.keypair,
                    &fresh
                ),
            );
        }
    }

    #[test]
    fn probe_worlds_never_generate_the_key() {
        for (config, pop) in layout_fixtures() {
            let profiles = sample_host_profiles(&pop, 7);
            let world = CampaignWorld::build(&config, &pop, &profiles);
            let signs = config.kind == CampaignKind::NotifyEmail;
            assert_eq!(world.signer.is_some(), signs, "{:?}", config.kind);
            let result = world.run(&config);
            assert!(!result.sessions.is_empty());
            assert_eq!(
                world.server.authority().has_dkim_key_record(),
                signs,
                "{:?}",
                config.kind
            );
        }
    }

    #[test]
    fn lazily_served_dkim_key_equals_the_signing_worlds() {
        use mailval_dns::message::Message;
        use mailval_dns::rr::RecordType;
        use mailval_dns::server::Transport;

        let seed = 2021;
        let pop = tiny_pop(DatasetKind::NotifyEmail, 5);
        let profiles = sample_host_profiles(&pop, 5);
        let qname = Name::parse("sel1._domainkey.d00001.dsav-mail.dns-lab.org").expect("valid");
        let query = Message::query(9, qname, RecordType::Txt).to_bytes();
        let answer = |kind, tests| {
            let config = test_config(kind, tests, seed);
            let world = CampaignWorld::build(&config, &pop, &profiles);
            let reply = world
                .server
                .handle(&query, Transport::Udp, false)
                .expect("the notify suffix is in bailiwick");
            assert!(world.server.authority().has_dkim_key_record());
            reply.bytes
        };
        let signing = answer(CampaignKind::NotifyEmail, vec![]);
        let text = Message::from_bytes(&signing)
            .expect("a valid reply")
            .answers[0]
            .rdata
            .txt_joined()
            .expect("a TXT answer");
        assert!(text.starts_with("v=DKIM1"), "{text}");
        assert_eq!(answer(CampaignKind::TwoWeekMx, vec!["t01"]), signing);
        assert_eq!(answer(CampaignKind::NotifyMx, vec!["t01"]), signing);
    }

    #[test]
    fn total_loss_times_out_every_lookup() {
        // Satellite (a): `LatencyModel::lost` is the engine's loss oracle.
        // With loss_probability = 1.0 every UDP datagram is dropped, so no
        // query ever reaches the authoritative server (empty log) and every
        // resolution exhausts its retries through `on_timeout`.
        let pop = tiny_pop(DatasetKind::NotifyEmail, 31);
        let profiles = sample_host_profiles(&pop, 31);
        let mut config = test_config(CampaignKind::NotifyEmail, vec![], 31);
        config.latency.loss_probability = 1.0;
        let result = run_campaign(&config, &pop, &profiles);
        assert!(!result.sessions.is_empty());
        assert!(
            result.log.records.is_empty(),
            "no query may reach the server under total loss"
        );
        assert!(result.faults.dns_dropped > 0);
        assert!(result.faults.dns_timeouts > 0);
        // Sessions still run to completion: the SMTP dialogue proceeds
        // even though every validation lookup times out.
        for s in &result.sessions {
            assert!(s.error.is_none());
            assert!(
                s.outcome.is_some(),
                "session {} has no outcome",
                s.session_id
            );
        }
    }

    #[test]
    fn greylisting_campaign_retries_and_delivers() {
        // Satellite (c) at campaign scale: every host greylists the first
        // RCPT with a 451, the probe client backs off and retries, and
        // deliveries still succeed on the second attempt.
        let pop = tiny_pop(DatasetKind::NotifyEmail, 37);
        let mut profiles = sample_host_profiles(&pop, 37);
        for p in &mut profiles {
            p.greylists = true;
        }
        let config = test_config(CampaignKind::NotifyEmail, vec![], 37);
        let result = run_campaign(&config, &pop, &profiles);
        assert!(!result.sessions.is_empty());
        assert!(result.faults.tempfails > 0);
        assert!(result.faults.client_retries > 0);
        let delivered = result
            .sessions
            .iter()
            .filter(|s| s.delivery_time_ms.is_some())
            .count();
        assert!(
            delivered as f64 > 0.9 * result.sessions.len() as f64,
            "delivered {delivered}/{} despite greylisting",
            result.sessions.len()
        );
        for s in &result.sessions {
            if s.delivery_time_ms.is_some() {
                let outcome = s.outcome.as_ref().expect("delivered implies outcome");
                assert!(outcome.retries >= 1, "delivery without a greylist retry");
            }
        }
    }

    #[test]
    fn server_initiated_close_reaches_the_client() {
        // Force every operator into the "DNSBL slam" behavior: the MTA
        // rejects the blacklisted NotifyMX client at MAIL and drops the
        // connection itself. Before close propagation those sessions
        // ended with `outcome: None`; now the disconnect is recorded.
        let pop = tiny_pop(DatasetKind::NotifyEmail, 29);
        let mut profiles = sample_host_profiles(&pop, 29);
        for p in &mut profiles {
            p.rejects_spam = false;
            p.rejects_blacklist = true;
        }
        let config = test_config(CampaignKind::NotifyMx, vec!["t01"], 29);
        let result = run_campaign(&config, &pop, &profiles);
        assert!(!result.sessions.is_empty());
        for s in &result.sessions {
            assert!(
                s.closed_by_server,
                "session {} must be ended by the server-side close",
                s.session_id
            );
            let outcome = s
                .outcome
                .as_ref()
                .expect("disconnect must record a partial outcome");
            let (phase, reply) = outcome.rejection.as_ref().expect("rejected at MAIL");
            assert_eq!(*phase, mailval_smtp::client::Phase::Mail);
            assert!(reply.text().contains("blacklist"));
        }
    }
}
