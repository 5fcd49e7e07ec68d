//! Golden-hash determinism: the shared-world / interned-name / Arc-
//! payload engine must produce byte-identical output to the original
//! per-shard-setup engine. The digests below were captured from the
//! pre-optimization engine (commit before the shared-world refactor)
//! with [`CampaignResult::content_hash`], which hashes session records,
//! the canonical query log, event counts, fault counters and the
//! partial flag through the journal codec — everything deterministic,
//! nothing wall-clock. Each scenario must reproduce its pinned digest
//! at shards 1, 2, 4, 8 and one session per shard, and its store key
//! must be unchanged (the
//! key is a pure function of the campaign knobs; an optimization that
//! moves it would orphan every persisted campaign).
//!
//! If one of these assertions fires, the optimization changed the
//! simulation, not just its speed. Do not update the constants without
//! understanding exactly which observable output moved and why.

use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, TelemetryConfig,
};
use mailval::measure::store::KeySpec;
use mailval::mta::profile::MtaProfile;
use mailval::simnet::{FaultConfig, LatencyModel, PayloadConfig};

/// Pre-change content digest of the plain scenario.
const GOLDEN_PLAIN: &str = "e68a21a48a7c695bd98bca4a786f7123304990453f70fc776ab20aea82221d39";
/// Store key of the plain scenario (v3 key domain: the IO fault plan
/// and memory budget joined the key encoding; the content digests
/// above are untouched by that bump).
const GOLDEN_PLAIN_KEY: &str = "508f624df6eb5b348e1fc4bd35fa7be2d5f9924885b7cbf4a85b1405c9619063";
/// Pre-change content digest of the chaos scenario.
const GOLDEN_CHAOS: &str = "8614df832b6b52d46cd17f3171ed0d804175bb26128bbe823a488b66592c5ac8";
/// Store key of the chaos scenario (v3 key domain).
const GOLDEN_CHAOS_KEY: &str = "22476730a5ae28b501fab08fb4547ecc862a88d0fd8db5aa2832064c942c75b8";
/// Pre-change content digest of the hostile scenario.
const GOLDEN_HOSTILE: &str = "59bdcd14db9f1e2cbe17c9a1bacbdef470244902e8ebd8057290fc466f90194a";
/// Store key of the hostile scenario (v3 key domain).
const GOLDEN_HOSTILE_KEY: &str = "8f37caad6cfc83a859254cc2613ff144078c6249a21844aea05a558111ad3fdb";

fn plain_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: 41,
        probe_pause_ms: 0,
        shards,
        ..CampaignConfig::default()
    }
}

/// The chaos_determinism fault plan, verbatim.
fn chaos_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        latency: LatencyModel {
            loss_probability: 0.05,
            ..LatencyModel::default()
        },
        faults: FaultConfig {
            duplicate_probability: 0.05,
            reorder_probability: 0.05,
            reorder_delay_ms: 40,
            truncate_probability: 0.05,
            conn_reset_probability: 0.02,
            conn_stall_probability: 0.05,
            conn_stall_ms: 200,
            seed: 0xC0FFEE,
            ..Default::default()
        },
        ..plain_config(shards)
    }
}

/// The hostile_determinism payload plan, verbatim.
fn hostile_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 43,
        payload: PayloadConfig {
            dns_corrupt_probability: 0.25,
            smtp_corrupt_probability: 0.08,
            seed: 0xBAD_F00D,
        },
        ..plain_config(shards)
    }
}

fn fixture(seed: u64) -> (Population, Vec<MtaProfile>) {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.004,
        seed,
    });
    let profiles = sample_host_profiles(&pop, seed);
    (pop, profiles)
}

fn chaos_fixture() -> (Population, Vec<MtaProfile>) {
    let (pop, mut profiles) = fixture(41);
    for (i, p) in profiles.iter_mut().enumerate() {
        p.greylists = true;
        if i % 7 == 0 {
            p.stall_at_mail_ms = 500;
        }
    }
    (pop, profiles)
}

fn hostile_fixture() -> (Population, Vec<MtaProfile>) {
    let (pop, mut profiles) = fixture(43);
    for (i, p) in profiles.iter_mut().enumerate() {
        if i % 4 == 0 {
            p.hostile_dns = true;
        }
    }
    (pop, profiles)
}

fn hex(h: &[u8; 32]) -> String {
    h.iter().map(|b| format!("{b:02x}")).collect()
}

fn assert_golden(
    label: &str,
    golden_content: &str,
    golden_key: &str,
    mk_config: impl Fn(usize) -> CampaignConfig,
    pop: &Population,
    profiles: &[MtaProfile],
) {
    // One session per shard is the last cell: sessions are independent,
    // so no session's output may depend on which others share its shard.
    // Each shard is a thread, so this cell stays at fixture scale.
    let per_session = run_campaign(&mk_config(1), pop, profiles).sessions.len();
    // Telemetry is observability only: the digest must hold with the
    // tracer off AND on, at every shard count.
    for tracing in [false, true] {
        for shards in [1usize, 2, 4, 8, per_session] {
            let mut config = mk_config(shards);
            config.telemetry = TelemetryConfig {
                tracing,
                heartbeat_ms: 0,
            };
            let result = run_campaign(&config, pop, profiles);
            assert_eq!(
                hex(&result.content_hash()),
                golden_content,
                "{label}: shards={shards} tracing={tracing} output differs \
                 from the pre-change engine"
            );
            if shards == per_session {
                assert_eq!(result.shard_stats.len(), per_session, "{label}");
            }
            assert_eq!(
                result.telemetry.is_some(),
                tracing,
                "{label}: telemetry presence must track the tracing knob"
            );
        }
    }
    // The store key is equally telemetry-blind.
    for tracing in [false, true] {
        let mut config = mk_config(1);
        config.telemetry = TelemetryConfig {
            tracing,
            heartbeat_ms: 0,
        };
        let key = KeySpec {
            config: &config,
            dataset: "NotifyEmail",
            scale: 0.004,
            population_seed: config.seed,
            profiles: "golden",
        }
        .key();
        assert_eq!(
            hex(&key.hash),
            golden_key,
            "{label}: store key moved (tracing={tracing}) — persisted campaigns \
             would be orphaned"
        );
    }
}

#[test]
fn plain_campaign_matches_pre_change_golden_hash() {
    let (pop, profiles) = fixture(41);
    assert_golden(
        "plain",
        GOLDEN_PLAIN,
        GOLDEN_PLAIN_KEY,
        plain_config,
        &pop,
        &profiles,
    );
}

#[test]
fn chaos_campaign_matches_pre_change_golden_hash() {
    let (pop, profiles) = chaos_fixture();
    assert_golden(
        "chaos",
        GOLDEN_CHAOS,
        GOLDEN_CHAOS_KEY,
        chaos_config,
        &pop,
        &profiles,
    );
}

#[test]
fn hostile_campaign_matches_pre_change_golden_hash() {
    let (pop, profiles) = hostile_fixture();
    assert_golden(
        "hostile",
        GOLDEN_HOSTILE,
        GOLDEN_HOSTILE_KEY,
        hostile_config,
        &pop,
        &profiles,
    );
}
