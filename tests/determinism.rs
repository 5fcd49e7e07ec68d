//! The determinism matrix. Every table and figure the reproduction
//! renders is a pure function of a campaign's merged query log and
//! session records, so those bytes must not depend on how a campaign
//! was executed. Each scenario row below is pinned to one content digest
//! ([`CampaignResult::content_hash`]: session records, the canonical
//! query log, the event count, fault counters and the partial flag,
//! through the journal codec). One cell runner drives each row through
//! three axes:
//!
//! * shards: 1, 2, 4, 8 and one session per shard (sessions are
//!   independent, so no session's output may depend on its shard-mates);
//! * execution: straight; kill-and-resume (every shard crashes right
//!   after journaling its first session and the supervisor restarts it
//!   from its journal); and a round-trip through the campaign store;
//! * tracing: off and on. Telemetry is observability only: traced runs
//!   must merge to the same event stream and metrics at every shard
//!   count, and a resumed run traces exactly the sessions it simulated
//!   after the restart (replayed journal frames carry no telemetry).
//!
//! Cross-axis rows combine fault axes (hostile payloads on a failing
//! disk, chaos under backpressure, a poisoned MTA under chaos). Every
//! assertion names its cell; `cargo test --test determinism hostile`
//! runs one scenario's cells. The named tests after the matrix check
//! what a digest cannot: containment, budgets, journal salvage, store
//! failures, inert knobs, trace filters and metrics consistency.
//!
//! If a digest assertion fires, the change moved the simulation, not
//! just its execution. Do not update a pin without understanding
//! exactly which observable output moved and why.

use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::analysis::{
    notify_email_flags, probe_validating_counts, table4, ComboRow, DomainFlags, ValidatingCounts,
};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, CampaignResult,
    CampaignWorld, SupervisorConfig, TelemetryConfig,
};
use mailval::measure::engine::{MemoryBudget, SessionBudget, SessionOutcome};
use mailval::measure::journal;
use mailval::measure::shard::ShardStats;
use mailval::measure::store::{CampaignKey, CampaignStore, KeySpec, StoreError};
use mailval::measure::telemetry::{chrome_trace_json, metrics_json, TraceFilter};
use mailval::measure::vfs::SimFs;
use mailval::mta::profile::MtaProfile;
use mailval::simnet::{FaultConfig, IoConfig, IoPlan, LatencyModel, MalformedClass, PayloadConfig};
use std::any::Any;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Content digest of the plain scenario, captured from the engine
/// before the shared-world refactor.
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
/// Digest of the plain scenario under a 2-pending-event memory budget
/// (sheds 91 of its 107 sessions).
const GOLDEN_BACKPRESSURE: &str =
    "59ca9d196d5babb88b99bad62d3184212a978bd26704cfbeaa96dbc691ff87d6";
/// Digest of the chaos scenario under the same memory budget.
const GOLDEN_CHAOS_BACKPRESSURE: &str =
    "cf58c6bfbc26b57e2f114940a096b0e62e36dfc522678799e70ca325c985ec07";
/// Digest of the chaos scenario with one poisoned first-choice host.
const GOLDEN_CHAOS_POISON: &str =
    "a473b733ba08dd16e9ff0a8803ed0b95cd62e2a557a0860b048b5ecd4c9fffdc";
/// Digest of a NotifyMx t01+t12 probe (population scale 0.008, seed 77).
const GOLDEN_NOTIFY_MX: &str = "06be3d6d7db5a6dd21cfa308e38336005c404fc4227f610c36560daf06faa35a";
/// Digest of a TwoWeekMx t01+t12 probe (population scale 0.004, seed 23).
const GOLDEN_TWO_WEEK_MX: &str = "fd1a164114f7ae50e01502a6f645ab32ceb19da30247d1b958f9fab220e1593f";

/// The fixture family a scenario starts from.
#[derive(Clone, Copy, PartialEq)]
enum Base {
    /// NotifyEmail over the scale-0.004 NotifyEmail population, seed 41.
    Plain,
    /// `Plain` with every host greylisting, one in seven stalling before
    /// MAIL, 5% datagram loss and every other network fault site firing.
    Chaos,
    /// NotifyEmail, seed 43: corrupted DNS and SMTP payloads, and one
    /// host in four a hostile authoritative server (SPF-cycle and
    /// CNAME-chain bait).
    Hostile,
    /// A NotifyMx t01+t12 probe (15 s pauses) over the scale-0.008
    /// NotifyEmail population, seed 77.
    NotifyMx,
    /// A TwoWeekMx t01+t12 probe (1 s pauses) over the scale-0.004
    /// TwoWeekMX population, seed 23.
    TwoWeekMx,
}

/// One pinned configuration: a base fixture plus optional fault axes.
#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    base: Base,
    /// Journal every run on a disk that fills after 2 KiB per file and
    /// fails writes, fsyncs, renames and reads. Result-invisible.
    io: bool,
    /// Shed every session that queues more than 2 pending events.
    backpressure: bool,
    /// Poison the one host that is the first MX of exactly one domain,
    /// so its MTA panics mid-dialogue.
    poison: bool,
    digest: &'static str,
    /// Store key at one shard, when pinned.
    key: Option<&'static str>,
}

const PLAIN: Scenario = Scenario {
    name: "plain",
    base: Base::Plain,
    io: false,
    backpressure: false,
    poison: false,
    digest: GOLDEN_PLAIN,
    key: Some(GOLDEN_PLAIN_KEY),
};
const CHAOS: Scenario = Scenario {
    name: "chaos",
    base: Base::Chaos,
    digest: GOLDEN_CHAOS,
    key: Some(GOLDEN_CHAOS_KEY),
    ..PLAIN
};
const HOSTILE: Scenario = Scenario {
    name: "hostile",
    base: Base::Hostile,
    digest: GOLDEN_HOSTILE,
    key: Some(GOLDEN_HOSTILE_KEY),
    ..PLAIN
};
const NOTIFY_MX: Scenario = Scenario {
    name: "notify_mx_probe",
    base: Base::NotifyMx,
    digest: GOLDEN_NOTIFY_MX,
    key: None,
    ..PLAIN
};
/// The cheapest scenario (no DKIM signing, few DNS lookups): the
/// journal and store tests that need no particular fault run on it.
const TWO_WEEK_MX: Scenario = Scenario {
    name: "two_week_mx_probe",
    base: Base::TwoWeekMx,
    digest: GOLDEN_TWO_WEEK_MX,
    ..NOTIFY_MX
};

/// A scenario's population, profiles and campaign configuration.
struct Fixture {
    pop: Population,
    profiles: Vec<MtaProfile>,
    config: CampaignConfig,
    dataset: &'static str,
    scale: f64,
}

impl Fixture {
    fn key(&self, config: &CampaignConfig) -> CampaignKey {
        KeySpec {
            config,
            dataset: self.dataset,
            scale: self.scale,
            population_seed: self.config.seed,
            profiles: "golden",
        }
        .key()
    }
}

impl Scenario {
    fn fixture(&self) -> Fixture {
        use {CampaignKind as C, DatasetKind as D};
        let (dataset, label, kind, scale, seed) = match self.base {
            Base::Plain | Base::Chaos => (D::NotifyEmail, "NotifyEmail", C::NotifyEmail, 0.004, 41),
            Base::Hostile => (D::NotifyEmail, "NotifyEmail", C::NotifyEmail, 0.004, 43),
            Base::NotifyMx => (D::NotifyEmail, "NotifyEmail", C::NotifyMx, 0.008, 77),
            Base::TwoWeekMx => (D::TwoWeekMx, "TwoWeekMx", C::TwoWeekMx, 0.004, 23),
        };
        let pop = Population::generate(&PopulationConfig {
            kind: dataset,
            scale,
            seed,
        });
        let mut profiles = sample_host_profiles(&pop, seed);
        let mut config = CampaignConfig {
            kind,
            seed,
            probe_pause_ms: 0,
            ..CampaignConfig::default()
        };
        match self.base {
            Base::Plain => {}
            Base::Chaos => {
                for (i, p) in profiles.iter_mut().enumerate() {
                    p.greylists = true;
                    if i % 7 == 0 {
                        p.stall_at_mail_ms = 500;
                    }
                }
                config.latency = LatencyModel {
                    loss_probability: 0.05,
                    ..LatencyModel::default()
                };
                config.faults = FaultConfig {
                    duplicate_probability: 0.05,
                    reorder_probability: 0.05,
                    reorder_delay_ms: 40,
                    truncate_probability: 0.05,
                    conn_reset_probability: 0.02,
                    conn_stall_probability: 0.05,
                    conn_stall_ms: 200,
                    seed: 0xC0FFEE,
                    ..FaultConfig::default()
                };
            }
            Base::Hostile => {
                for p in profiles.iter_mut().step_by(4) {
                    p.hostile_dns = true;
                }
                config.payload = PayloadConfig {
                    dns_corrupt_probability: 0.25,
                    smtp_corrupt_probability: 0.08,
                    seed: 0xBAD_F00D,
                };
            }
            Base::NotifyMx | Base::TwoWeekMx => {
                config.tests = vec!["t01", "t12"];
                config.probe_pause_ms = if kind == CampaignKind::NotifyMx {
                    15_000
                } else {
                    1_000
                };
            }
        }
        if self.io {
            config.io = IoConfig {
                enospc_after_bytes: 2_048,
                short_write_probability: 0.10,
                fsync_fail_probability: 0.20,
                rename_fail_probability: 0.20,
                read_corrupt_probability: 0.10,
                seed: 0x0010_C0DE,
            };
        }
        if self.backpressure {
            config.memory = MemoryBudget {
                max_pending_events: 2,
                ..MemoryBudget::default()
            };
        }
        if self.poison {
            profiles[solo_first_host(&pop)].poison = true;
        }
        Fixture {
            pop,
            profiles,
            config,
            dataset: label,
            scale,
        }
    }

    /// The row's faults actually fired: checked once per row, on its
    /// traced single-shard reference run.
    fn assert_fired(&self, r: &CampaignResult, cell: &Cell) {
        let f = &r.faults;
        let n = r.sessions.len();
        let delivered = r
            .sessions
            .iter()
            .filter(|s| s.delivery_time_ms.is_some())
            .count();
        assert_eq!(f.contained_panics, u64::from(self.poison), "{cell}: {f:?}");
        if self.base == Base::Chaos {
            assert!(f.dns_dropped > 0, "{cell}: no datagrams dropped: {f:?}");
            assert!(f.tempfails > 0, "{cell}: no greylist tempfails: {f:?}");
        }
        if self.base == Base::Chaos && !self.backpressure {
            assert!(f.dns_truncated > 0, "{cell}: no responses truncated: {f:?}");
            assert!(
                f.dns_duplicated > 0,
                "{cell}: no datagrams duplicated: {f:?}"
            );
            assert!(f.dns_delayed > 0, "{cell}: no datagrams reordered: {f:?}");
            assert!(f.conn_resets > 0, "{cell}: no connections reset: {f:?}");
            assert!(f.conn_stalls > 0, "{cell}: no segments stalled: {f:?}");
            assert!(f.mta_stalls > 0, "{cell}: no MTA stalls: {f:?}");
            assert!(f.client_retries > 0, "{cell}: no client retries: {f:?}");
            // Retries cover the greylists and the lost datagrams.
            assert!(
                delivered as f64 > 0.6 * n as f64,
                "{cell}: delivered {delivered}/{n}"
            );
        }
        if self.base == Base::Hostile {
            assert_hostile_fired(r, cell);
        }
        if self.backpressure {
            assert!(f.resource_shed > 0, "{cell}: budget shed nothing");
            assert!(
                f.resource_shed < n as u64,
                "{cell}: budget shed everything; the fixture cannot tell sessions apart"
            );
            // Every shed is visible: counter and termination records agree.
            let mut shed = 0;
            for s in &r.sessions {
                if let SessionOutcome::ResourceShed { pending_events, .. } = s.termination {
                    shed += 1;
                    assert!(pending_events > 2, "{cell}: shed below the budget");
                }
            }
            assert_eq!(shed, f.resource_shed, "{cell}: shed records vs counter");
        }
    }
}

fn assert_hostile_fired(r: &CampaignResult, cell: &Cell) {
    let f = &r.faults;
    assert!(
        f.dns_payload_mutations > 0,
        "{cell}: no DNS mutations: {f:?}"
    );
    assert!(
        f.smtp_payload_mutations > 0,
        "{cell}: no SMTP mutations: {f:?}"
    );
    assert!(
        f.hostile_inputs > 0,
        "{cell}: nothing hostile-terminated: {f:?}"
    );
    let classes = |range: std::ops::Range<usize>| -> u64 {
        MalformedClass::ALL[range]
            .iter()
            .map(|&c| f.malformed.count(c))
            .sum()
    };
    assert!(
        classes(0..4) > 0,
        "{cell}: no DNS-side classifications: {f:?}"
    );
    assert!(
        classes(4..8) > 0,
        "{cell}: no SMTP-side classifications: {f:?}"
    );
    // Only the SMTP channel is session-fatal: every hostile termination
    // carries an SMTP-side class, and the records agree with the counter.
    let mut terminated = 0;
    for s in &r.sessions {
        if let SessionOutcome::HostileInput { class } = s.termination {
            terminated += 1;
            assert!(
                MalformedClass::ALL[4..8].contains(&class),
                "{cell}: non-SMTP class {class:?} terminated session {}",
                s.session_id
            );
        }
    }
    assert_eq!(
        terminated, f.hostile_inputs,
        "{cell}: hostile records vs counter"
    );
    // The resolver fails closed per query, not per session.
    let resolved = r
        .sessions
        .iter()
        .filter(|s| s.outcome.is_some() || s.delivery_time_ms.is_some())
        .count();
    assert!(
        resolved as f64 > 0.5 * r.sessions.len() as f64,
        "{cell}: hostile layer killed the campaign: {resolved}/{}",
        r.sessions.len()
    );
}

/// The host index that is the first MX of exactly one domain, so
/// poisoning it affects exactly one NotifyEmail session.
fn solo_first_host(pop: &Population) -> usize {
    let mut uses = vec![0usize; pop.hosts.len()];
    for d in &pop.domains {
        uses[d.host_indices[0]] += 1;
    }
    uses.iter()
        .position(|&n| n == 1)
        .expect("population has a single-use host")
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Exec {
    Straight,
    Resume,
    Store,
}

/// `usize::MAX` is one session per shard: a campaign caps its shard
/// count at its session count.
const ALL_SHARDS: &[usize] = &[1, 2, 4, 8, usize::MAX];
const ALL_EXECS: &[Exec] = &[Exec::Straight, Exec::Resume, Exec::Store];

/// One point of the matrix, named in every assertion message.
#[derive(Clone, Copy)]
struct Cell {
    scenario: &'static str,
    shards: usize,
    per_session: bool,
    exec: Exec,
    tracing: bool,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} shards={}{} exec={:?} tracing={}]",
            self.scenario,
            self.shards,
            if self.per_session {
                " (one per session)"
            } else {
                ""
            },
            self.exec,
            if self.tracing { "on" } else { "off" }
        )
    }
}

/// A scratch directory unique to this call, removed on drop so that a
/// failing assertion cannot leak it into the temp dir. The counter keeps
/// two test threads running the same cell out of each other's journals.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("mailval-determinism-{pid}-{seq}-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn hex(h: &[u8; 32]) -> String {
    h.iter().map(|b| format!("{b:02x}")).collect()
}

/// The analysis the paper's tables read off a result: the Table 4
/// flags and rows for a NotifyEmail campaign, Table 5's validating
/// counts for a probe.
#[derive(Debug, PartialEq)]
enum Tables {
    Notify(Vec<DomainFlags>, Vec<ComboRow>),
    Probe(ValidatingCounts),
}

impl Tables {
    fn of(r: &CampaignResult, fx: &Fixture) -> Tables {
        if fx.config.kind == CampaignKind::NotifyEmail {
            let flags = notify_email_flags(r, fx.pop.domains.len());
            let rows = table4(&flags);
            Tables::Notify(flags, rows)
        } else {
            Tables::Probe(probe_validating_counts(r, &fx.pop))
        }
    }
}

/// A scenario and the cells it is driven through.
struct Row {
    scenario: Scenario,
    shards: &'static [usize],
    execs: &'static [Exec],
    tracing: &'static [bool],
}

/// What every cell of a row is compared with: the row's traced
/// single-shard straight run. It is a run of its own, so the traced
/// single-shard straight cell repeats it.
struct Reference {
    sessions: usize,
    result: CampaignResult,
    tables: Tables,
}

/// Computes `init` once per `key` in this test process and shares the
/// value: the slices of a row run on parallel test threads, and each
/// row's fixture, reference and straight runs are simulated once.
fn memo<T: Send + Sync + 'static>(key: String, init: impl FnOnce() -> T) -> Arc<T> {
    type Slot = Arc<dyn Any + Send + Sync>;
    static MEMO: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());
    let slot = Arc::clone(
        MEMO.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert_with(|| Arc::new(OnceLock::<Arc<T>>::new())),
    );
    let slot = slot
        .downcast::<OnceLock<Arc<T>>>()
        .expect("one value type per memo key");
    Arc::clone(slot.get_or_init(|| Arc::new(init())))
}

impl Row {
    fn full(scenario: Scenario) -> Row {
        Row {
            scenario,
            shards: ALL_SHARDS,
            execs: ALL_EXECS,
            tracing: &[false, true],
        }
    }

    /// The row's cells for one execution mode and one tracing mode.
    fn slice(self, execs: &'static [Exec], tracing: &'static [bool]) {
        Row {
            execs,
            tracing,
            ..self
        }
        .run();
    }

    fn run(&self) {
        let s = &self.scenario;
        let shared = memo(s.name.to_owned(), || {
            let fx = s.fixture();
            let world = CampaignWorld::build(&fx.config, &fx.pop, &fx.profiles);
            (fx, world)
        });
        let (fx, world) = &*shared;
        let sessions = world.session_count();
        let cell = |shards, exec, tracing| Cell {
            scenario: s.name,
            shards,
            per_session: shards == sessions,
            exec,
            tracing,
        };
        let reference = memo(format!("{}/reference", s.name), || {
            Reference::new(s, fx, world, &cell(1, Exec::Straight, true))
        });
        // One straight run serves the straight and the store cell of a
        // shard count and tracing mode, whichever slice asks first.
        let straight = |n: usize, tracing: bool| {
            memo(format!("{}/{n}/{tracing}", s.name), || {
                run_cell(world, fx, &cell(n, Exec::Straight, tracing))
            })
        };

        for &tracing in self.tracing {
            for &shards in self.shards {
                let n = shards.min(sessions);
                for &exec in self.execs {
                    let cell = cell(n, exec, tracing);
                    let result = match exec {
                        Exec::Straight => straight(n, tracing),
                        Exec::Resume => {
                            let crash_world = memo(format!("{}/crash", s.name), || {
                                let mut crashing = fx.config.clone();
                                crashing.faults.crash_after_sessions = 1;
                                CampaignWorld::build(&crashing, &fx.pop, &fx.profiles)
                            });
                            Arc::new(run_cell(&crash_world, fx, &cell))
                        }
                        Exec::Store => Arc::new(store_round_trip(fx, &cell, &straight(n, tracing))),
                    };
                    reference.check(s, fx, &cell, &result);
                }
            }
        }
    }
}

impl Reference {
    fn new(s: &Scenario, fx: &Fixture, world: &CampaignWorld, cell: &Cell) -> Self {
        let result = run_cell(world, fx, cell);
        assert_eq!(
            hex(&result.content_hash()),
            s.digest,
            "{cell}: digest moved"
        );
        s.assert_fired(&result, cell);
        let telemetry = result.telemetry.as_ref().expect("tracing on");
        assert!(
            telemetry.events.len() > 100,
            "{cell}: traced too few events"
        );
        let labels: HashSet<&str> = telemetry.events.iter().map(|e| e.kind.label()).collect();
        for kind in [
            "session_start",
            "session_end",
            "smtp_command",
            "smtp_reply",
            "resolve_start",
            "resolve_done",
            "dns_send",
            "dns_recv",
            "client_close",
        ] {
            assert!(labels.contains(kind), "{cell}: no {kind} event traced");
        }
        Reference {
            sessions: world.session_count(),
            tables: Tables::of(&result, fx),
            result,
        }
    }

    /// Every check a cell's result must pass.
    fn check(&self, s: &Scenario, fx: &Fixture, cell: &Cell, r: &CampaignResult) {
        assert_eq!(hex(&r.content_hash()), s.digest, "{cell}: digest moved");
        assert_eq!(
            Tables::of(r, fx),
            self.tables,
            "{cell}: analysis tables differ"
        );
        assert_eq!(
            r.telemetry.is_some(),
            cell.tracing && cell.exec != Exec::Store,
            "{cell}: telemetry must track the tracing knob and never be stored"
        );
        if s.io && cell.exec != Exec::Store {
            // The 2 KiB disk cannot hold a shard journal: the degradation
            // must be visible, never silent.
            assert!(
                r.shard_stats.iter().any(|s| s.durability_lost),
                "{cell}: ENOSPC cost no visible durability"
            );
        }
        let n = cell.shards;
        let trace = self.result.telemetry.as_ref().expect("tracing on");
        match cell.exec {
            Exec::Straight => {
                assert_eq!(r.shard_stats.len(), n, "{cell}: shard count");
                let sum = |f: fn(&ShardStats) -> u64| r.shard_stats.iter().map(f).sum::<u64>();
                assert_eq!(sum(|s| s.sessions as u64), self.sessions as u64, "{cell}");
                assert_eq!(sum(|s| s.events), r.events, "{cell}: shard events");
                let queries = r.log.records.len() as u64;
                assert_eq!(sum(|s| s.queries_logged), queries, "{cell}: shard queries");
                if let Some(t) = &r.telemetry {
                    assert!(t.events == trace.events, "{cell}: trace stream diverged");
                    assert!(t.metrics == trace.metrics, "{cell}: metrics diverged");
                }
            }
            Exec::Resume => {
                // Shard k crashed once, right after journaling its first
                // session (id k), and replayed it on restart, so the
                // resumed run traces every session but ids 0..n. With one
                // session per shard on the 2 KiB disk, a frame larger
                // than the disk is lost, and the restart re-simulates and
                // traces its session too.
                for st in &r.shard_stats {
                    assert_eq!(st.restarts, 1, "{cell}: shard {} restarts", st.shard);
                }
                if let Some(t) = &r.telemetry {
                    let lossy = s.io && cell.per_session;
                    let traced: HashSet<usize> = t.events.iter().map(|e| e.session).collect();
                    let simulated: Vec<_> = trace
                        .events
                        .iter()
                        .filter(|e| e.session >= n || (lossy && traced.contains(&e.session)))
                        .cloned()
                        .collect();
                    assert!(
                        t.events == simulated,
                        "{cell}: resumed trace is not the clean trace of the simulated sessions"
                    );
                }
            }
            Exec::Store => {
                if let (Some(pin), 1) = (s.key, n) {
                    let key = fx.key(&exec_config(fx, cell));
                    assert_eq!(hex(&key.hash), pin, "{cell}: store key moved");
                }
            }
        }
    }
}

/// The campaign configuration of a cell, without its journal.
fn exec_config(fx: &Fixture, cell: &Cell) -> CampaignConfig {
    CampaignConfig {
        shards: cell.shards,
        telemetry: TelemetryConfig {
            tracing: cell.tracing,
            heartbeat_ms: 0,
        },
        ..fx.config.clone()
    }
}

/// Run one cell over `world`, journaled when the cell resumes or the
/// scenario's disk is faulty.
fn run_cell(world: &CampaignWorld, fx: &Fixture, cell: &Cell) -> CampaignResult {
    let dir = Scratch::new(&format!(
        "{}-{}-{:?}-{}",
        cell.scenario, cell.shards, cell.exec, cell.tracing
    ));
    let mut config = exec_config(fx, cell);
    if cell.exec == Exec::Resume || fx.config.io != IoConfig::default() {
        config.journal_dir = Some(dir.0.clone());
    }
    world.run(&config)
}

/// Save `result` to a fresh store under the cell's key and load it back.
fn store_round_trip(fx: &Fixture, cell: &Cell, result: &CampaignResult) -> CampaignResult {
    let dir = Scratch::new(&format!(
        "{}-{}-store-{}",
        cell.scenario, cell.shards, cell.tracing
    ));
    let store = CampaignStore::new(dir.0.clone());
    let key = fx.key(&exec_config(fx, cell));
    store.save(&key, result).expect("save");
    store.load(&key).expect("load")
}

/// Each full row is six tests, one per execution and tracing mode, each
/// over every shard count of the row: `plain::resume_traced` is the
/// plain row's traced kill-and-resume cells. The slices of a row share
/// its memoized fixture, reference and straight runs.
macro_rules! matrix {
    ($($name:ident: $row:expr;)*) => {$(
        mod $name {
            use super::*;

            #[test]
            fn straight() {
                $row.slice(&[Exec::Straight], &[false]);
            }

            #[test]
            fn straight_traced() {
                $row.slice(&[Exec::Straight], &[true]);
            }

            #[test]
            fn resume() {
                $row.slice(&[Exec::Resume], &[false]);
            }

            #[test]
            fn resume_traced() {
                $row.slice(&[Exec::Resume], &[true]);
            }

            #[test]
            fn store() {
                $row.slice(&[Exec::Store], &[false]);
            }

            #[test]
            fn store_traced() {
                $row.slice(&[Exec::Store], &[true]);
            }
        }
    )*};
}

matrix! {
    plain: Row::full(PLAIN);
    chaos: Row::full(CHAOS);
    hostile: Row::full(HOSTILE);
    // IO faults cost durability, never results: the failing disk must
    // reproduce the plain digest.
    io: Row::full(Scenario {
        name: "io",
        io: true,
        key: None,
        ..PLAIN
    });
    backpressure: Row::full(Scenario {
        name: "backpressure",
        backpressure: true,
        digest: GOLDEN_BACKPRESSURE,
        key: None,
        ..PLAIN
    });
    notify_mx_probe: Row::full(NOTIFY_MX);
    two_week_mx_probe: Row::full(TWO_WEEK_MX);
}

#[test]
fn cross_hostile_io_resume_traced() {
    Row {
        scenario: Scenario {
            name: "hostile+io",
            io: true,
            key: None,
            ..HOSTILE
        },
        shards: &ALL_SHARDS[..3],
        execs: &[Exec::Resume],
        tracing: &[true],
    }
    .run();
}

#[test]
fn cross_chaos_backpressure_resume() {
    Row {
        scenario: Scenario {
            name: "chaos+backpressure",
            backpressure: true,
            digest: GOLDEN_CHAOS_BACKPRESSURE,
            key: None,
            ..CHAOS
        },
        shards: &ALL_SHARDS[..4],
        execs: &[Exec::Resume],
        tracing: &[true],
    }
    .run();
}

#[test]
fn cross_chaos_poison() {
    // A contained MTA panic is part of the deterministic output too.
    Row {
        scenario: Scenario {
            name: "chaos+poison",
            poison: true,
            digest: GOLDEN_CHAOS_POISON,
            key: None,
            ..CHAOS
        },
        shards: &ALL_SHARDS[..4],
        execs: &[Exec::Straight],
        tracing: &[true],
    }
    .run();
}

/// `a` and `b` hold the same deterministic output.
fn assert_same(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.sessions, b.sessions, "session records diverged ({label})");
    assert_eq!(
        hex(&a.content_hash()),
        hex(&b.content_hash()),
        "content digests differ ({label})"
    );
}

#[test]
fn poisoned_mta_is_contained_to_its_own_session() {
    // The crash is contained by the engine (`catch_unwind`), recorded
    // on exactly one session, and no shard dies.
    let fx = Scenario {
        poison: true,
        ..PLAIN
    }
    .fixture();
    let poisoned = solo_first_host(&fx.pop);
    let config = CampaignConfig {
        shards: 4,
        ..fx.config.clone()
    };
    let result = run_campaign(&config, &fx.pop, &fx.profiles);
    assert_eq!(result.faults.contained_panics, 1);
    let errored: Vec<_> = result
        .sessions
        .iter()
        .filter(|s| s.error.is_some())
        .collect();
    assert_eq!(errored.len(), 1, "exactly one error-outcome record");
    let e = errored[0];
    assert_eq!(e.host_index, poisoned);
    assert!(
        e.error.as_deref().unwrap().contains("poisoned MTA profile"),
        "error carries the panic payload: {:?}",
        e.error
    );
    // The poisoned session froze mid-dialogue; everyone else delivers.
    assert!(e.outcome.is_none() && e.delivery_time_ms.is_none());
    let others = result.sessions.len() - 1;
    let delivered = result
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count();
    assert!(
        delivered as f64 >= 0.9 * others as f64,
        "delivered {delivered}/{others}"
    );
}

#[test]
fn event_budget_terminates_runaway_sessions_within_budget() {
    let fx = TWO_WEEK_MX.fixture();
    let mut config = fx.config.clone();
    config.budget = SessionBudget {
        max_events: 10,
        ..SessionBudget::default()
    };
    let result = run_campaign(&config, &fx.pop, &fx.profiles);
    assert!(
        result.faults.budget_exhausted > 0,
        "a 10-event budget must cut sessions short"
    );
    let mut exhausted = 0;
    for s in &result.sessions {
        if let SessionOutcome::BudgetExhausted { events, .. } = s.termination {
            exhausted += 1;
            assert!(events <= 10, "session {} ran {events} events", s.session_id);
        }
    }
    assert_eq!(exhausted, result.faults.budget_exhausted);
    // Budget decisions are per session, so shard-invariant.
    config.shards = 4;
    assert_same(
        &result,
        &run_campaign(&config, &fx.pop, &fx.profiles),
        "shards=4",
    );
}

#[test]
fn virtual_time_budget_terminates_slow_sessions() {
    // Probe sessions sleep 15 s between commands (§4.6), so a 20 s
    // virtual budget cannot fit a full dialogue.
    let fx = NOTIFY_MX.fixture();
    let mut config = fx.config.clone();
    config.budget = SessionBudget {
        max_virtual_ms: 20_000,
        ..SessionBudget::default()
    };
    let result = run_campaign(&config, &fx.pop, &fx.profiles);
    assert!(result.faults.budget_exhausted > 0);
    for s in &result.sessions {
        if let SessionOutcome::BudgetExhausted { virtual_ms, .. } = s.termination {
            assert!(virtual_ms > 20_000, "terminated before exceeding budget");
        }
    }
}

#[test]
fn enospc_mid_frame_salvages_the_exact_journal_prefix() {
    let fx = TWO_WEEK_MX.fixture();
    let dir = Scratch::new("salvage");
    let mut config = fx.config.clone();
    config.shards = 2;
    config.journal_dir = Some(dir.0.clone());
    config.io = IoConfig {
        enospc_after_bytes: 4_096,
        ..IoConfig::default()
    };
    let result = run_campaign(&config, &fx.pop, &fx.profiles);
    assert!(!result.partial);
    assert!(
        result.shard_stats.iter().all(|s| s.durability_lost),
        "a 4 KiB disk must demote every shard journal"
    );
    // Each journal replays to a clean prefix of intact frames that agree
    // with the merged result; the CRC check drops the torn ENOSPC frame.
    let mut salvaged = 0;
    for k in 0..2 {
        let replay = journal::replay(&journal::shard_journal_path(&dir.0, k));
        assert!(
            replay.frames.len() < result.sessions.len() / 2,
            "shard {k}: the full shard cannot have fit in 4 KiB"
        );
        for frame in &replay.frames {
            let reference = &result.sessions[frame.record.session_id];
            assert_eq!(&frame.record, reference, "salvaged frame diverged");
        }
        salvaged += replay.frames.len();
    }
    assert!(salvaged > 0, "nothing at all was journaled before ENOSPC");
}

#[test]
fn corrupt_journal_tail_is_rerun_not_fatal() {
    let fx = TWO_WEEK_MX.fixture();
    let dir = Scratch::new("corrupt");
    // Build journals holding a prefix of each shard, then mangle them.
    let mut crashed = fx.config.clone();
    crashed.shards = 2;
    crashed.journal_dir = Some(dir.0.clone());
    crashed.faults.crash_after_sessions = 6;
    crashed.supervisor = SupervisorConfig {
        max_shard_restarts: 0,
    };
    run_campaign(&crashed, &fx.pop, &fx.profiles);
    for entry in std::fs::read_dir(&dir.0).expect("journal dir exists") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("journal readable");
        assert!(bytes.len() > 16, "journal holds frames");
        // Flip a byte inside the last frame's payload and chop the file
        // mid-frame: a torn, corrupted tail.
        let n = bytes.len();
        bytes[n - 5] ^= 0xff;
        bytes.truncate(n - 2);
        std::fs::write(&path, &bytes).expect("journal writable");
    }
    let mut resume = crashed.clone();
    resume.resume = true;
    resume.faults.crash_after_sessions = 0;
    resume.supervisor = SupervisorConfig::default();
    let finished = run_campaign(&resume, &fx.pop, &fx.profiles);
    assert!(!finished.partial);
    assert_eq!(hex(&finished.content_hash()), TWO_WEEK_MX.digest);
}

/// Crash both shards of the TwoWeekMx fixture after five sessions with
/// a zero restart budget on the `io` disk, then resume from the same
/// journals: the partial result agrees with the clean run as far as it
/// goes, and the resumed one is the clean run.
fn partial_then_resume(label: &str, io: IoConfig) {
    let fx = TWO_WEEK_MX.fixture();
    let clean = run_campaign(&fx.config, &fx.pop, &fx.profiles);
    let faulty = io != IoConfig::default();
    // Phase 1: with a zero restart budget, the crash finalizes each
    // shard from its journal and the result is partial.
    let dir = Scratch::new(&label.replace(' ', "-"));
    let mut crashed = fx.config.clone();
    crashed.shards = 2;
    crashed.journal_dir = Some(dir.0.clone());
    crashed.faults.crash_after_sessions = 5;
    crashed.supervisor = SupervisorConfig {
        max_shard_restarts: 0,
    };
    crashed.io = io;
    let partial = run_campaign(&crashed, &fx.pop, &fx.profiles);
    assert!(
        partial.partial,
        "{label}: restart budget 0 must finalize partial"
    );
    // Whatever survived agrees with the clean run session for session.
    // On a clean disk that is exactly each shard's first five ids (k,
    // k+2, ..., k+8); read corruption may shorten the salvaged prefix
    // but never change it.
    for s in &partial.sessions {
        assert_eq!(
            s, &clean.sessions[s.session_id],
            "{label}: salvaged session diverged"
        );
    }
    if !faulty {
        let ids: Vec<usize> = partial.sessions.iter().map(|s| s.session_id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>(), "{label}: salvaged ids");
    }
    // Phase 2: resume from the same journals. On a clean disk the crash
    // stays armed, but the 5 replayed sessions already meet it; a faulty
    // disk may replay fewer, so there it is disarmed.
    let mut resume = crashed.clone();
    resume.resume = true;
    resume.supervisor = SupervisorConfig::default();
    if faulty {
        resume.faults.crash_after_sessions = 0;
    }
    let finished = run_campaign(&resume, &fx.pop, &fx.profiles);
    assert!(!finished.partial, "{label}");
    assert_same(&clean, &finished, label);
}

#[test]
fn partial_finalize_then_explicit_resume_completes() {
    partial_then_resume("clean disk", IoConfig::default());
}

#[test]
fn kill_and_resume_under_io_faults_is_byte_identical() {
    // Failed fsyncs and corrupted reads only force re-runs.
    partial_then_resume(
        "faulty disk",
        IoConfig {
            fsync_fail_probability: 0.25,
            read_corrupt_probability: 0.10,
            seed: 0xDEAD_D15C,
            ..IoConfig::default()
        },
    );
}

#[test]
fn crash_trigger_fires_once_per_shard_on_a_failing_disk() {
    // The 2 KiB disk loses journal frames, so a restarted shard re-runs
    // sessions it had finished and meets the trigger's count again. The
    // trigger must not fire twice: every shard restarts once and the
    // campaign completes.
    let scenario = Scenario {
        name: "hostile+io",
        io: true,
        key: None,
        ..HOSTILE
    };
    let fx = scenario.fixture();
    let mut crashing = fx.config.clone();
    crashing.faults.crash_after_sessions = 2;
    let world = CampaignWorld::build(&crashing, &fx.pop, &fx.profiles);
    for shards in [1, 2, 4, 8] {
        let dir = Scratch::new(&format!("crash-once-{shards}"));
        let config = CampaignConfig {
            shards,
            journal_dir: Some(dir.0.clone()),
            ..fx.config.clone()
        };
        let r = world.run(&config);
        assert!(!r.partial, "shards={shards}: finalized partial");
        assert_eq!(hex(&r.content_hash()), scenario.digest, "shards={shards}");
        assert_eq!(r.shard_stats.len(), shards, "shards={shards}");
        for st in &r.shard_stats {
            assert!(
                st.sessions >= 2,
                "shards={shards}: shard {} never crashes",
                st.shard
            );
            assert_eq!(
                st.restarts, 1,
                "shards={shards}: shard {} restarts",
                st.shard
            );
        }
    }
}

#[test]
fn failed_store_rename_degrades_to_a_clean_miss_without_residue() {
    let fx = TWO_WEEK_MX.fixture();
    let result = run_campaign(&fx.config, &fx.pop, &fx.profiles);
    let root = Scratch::new("store-rename");
    let store = CampaignStore::new_with_vfs(
        root.0.clone(),
        Arc::new(SimFs::new(IoPlan::new(IoConfig {
            rename_fail_probability: 1.0,
            seed: 0x2E4A,
            ..IoConfig::default()
        }))),
    );
    let key = fx.key(&fx.config);
    // Save fails cleanly (the rename always fails) ...
    assert!(store.save(&key, &result).is_err());
    // ... leaves no temporary residue behind ...
    let leftovers: Vec<_> = std::fs::read_dir(&root.0)
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "residue after failed save: {leftovers:?}"
    );
    // ... and the key reads back as an ordinary cold miss.
    assert!(matches!(store.load(&key), Err(StoreError::Missing)));
}

#[test]
fn zero_rate_io_config_is_provably_inert() {
    // A config whose every rate is zero (even with a nonzero seed) must
    // not activate the fault plan at all ...
    let zeroed = IoConfig {
        seed: 0xFEED_FACE,
        ..IoConfig::default()
    };
    assert!(!IoPlan::new(zeroed.clone()).is_active());
    assert!(!IoPlan::new(IoConfig::default()).is_active());
    // ... and journals written through it are byte-identical to the
    // passthrough's, with a byte-identical result.
    let fx = TWO_WEEK_MX.fixture();
    let (dir_os, dir_sim) = (Scratch::new("inert-os"), Scratch::new("inert-sim"));
    let mut on_os = fx.config.clone();
    on_os.shards = 2;
    on_os.journal_dir = Some(dir_os.0.clone());
    let mut on_sim = on_os.clone();
    on_sim.journal_dir = Some(dir_sim.0.clone());
    on_sim.io = zeroed;
    let a = run_campaign(&on_os, &fx.pop, &fx.profiles);
    let b = run_campaign(&on_sim, &fx.pop, &fx.profiles);
    assert_same(&a, &b, "zero-rate io");
    assert!(b.shard_stats.iter().all(|s| !s.durability_lost));
    for k in 0..2 {
        let x = std::fs::read(journal::shard_journal_path(&dir_os.0, k)).expect("os journal");
        let y = std::fs::read(journal::shard_journal_path(&dir_sim.0, k)).expect("sim journal");
        assert_eq!(x, y, "shard {k}: journals must be byte-identical");
    }
}

#[test]
fn inert_payload_leaves_no_trace() {
    // The default (all-zero) payload config is a true no-op, even with
    // hostile authoritative servers in the population.
    let fx = HOSTILE.fixture();
    let mut config = fx.config.clone();
    config.payload = PayloadConfig::default();
    let result = run_campaign(&config, &fx.pop, &fx.profiles);
    let f = &result.faults;
    assert_eq!(f.dns_payload_mutations, 0);
    assert_eq!(f.smtp_payload_mutations, 0);
    assert_eq!(f.hostile_inputs, 0);
    assert_eq!(f.malformed.total(), 0);
    for s in &result.sessions {
        assert!(
            !matches!(s.termination, SessionOutcome::HostileInput { .. }),
            "inert payload terminated session {}",
            s.session_id
        );
    }
}

#[test]
fn payload_knobs_key_the_store() {
    // Every payload knob is result-determining, so each must land in the
    // store key: a differently corrupted campaign can never be served a
    // stale entry.
    let fx = HOSTILE.fixture();
    let key = fx.key(&fx.config).hash;
    let mut other = fx.config.clone();
    other.payload.dns_corrupt_probability = 0.26;
    assert_ne!(fx.key(&other).hash, key, "dns knob missing from key");
    let mut other = fx.config.clone();
    other.payload.smtp_corrupt_probability = 0.09;
    assert_ne!(fx.key(&other).hash, key, "smtp knob missing from key");
    let mut other = fx.config.clone();
    other.payload.seed ^= 1;
    assert_ne!(fx.key(&other).hash, key, "payload seed missing from key");
}

/// A scenario's result with tracing on, at `shards`.
fn traced(scenario: Scenario, shards: usize) -> CampaignResult {
    let fx = scenario.fixture();
    let mut config = fx.config.clone();
    config.shards = shards;
    config.telemetry.tracing = true;
    run_campaign(&config, &fx.pop, &fx.profiles)
}

#[test]
fn session_and_shard_filters_restrict_the_export() {
    let telemetry = traced(TWO_WEEK_MX, 1).telemetry.expect("tracing on");
    // The exports are pure functions of the merged stream and registry,
    // so they too are identical at any shard count.
    let sharded = traced(TWO_WEEK_MX, 4).telemetry.expect("tracing on");
    let all = TraceFilter::default();
    let json = chrome_trace_json(&telemetry.events, &all);
    assert!(json.contains("\"traceEvents\""));
    assert_eq!(json, chrome_trace_json(&sharded.events, &all));
    assert_eq!(
        metrics_json(&telemetry.metrics),
        metrics_json(&sharded.metrics)
    );
    let some_session = telemetry.events[0].session;
    let one = TraceFilter {
        sessions: vec![some_session],
        shard: None,
    };
    let json = chrome_trace_json(&telemetry.events, &one);
    // Every tid in the filtered export is the selected session.
    for line in json.lines() {
        if let Some(pos) = line.find("\"tid\": ") {
            let rest = &line[pos + 7..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            assert_eq!(
                rest[..end].parse::<usize>().unwrap(),
                some_session,
                "foreign session leaked through the filter"
            );
        }
    }
    // A shard filter keeps a strict, non-empty subset.
    let sharded = TraceFilter {
        sessions: vec![],
        shard: Some((0, 2)),
    };
    let kept: Vec<_> = telemetry
        .events
        .iter()
        .filter(|e| sharded.keeps(e.session))
        .collect();
    assert!(!kept.is_empty());
    assert!(kept.len() < telemetry.events.len());
    assert!(kept.iter().all(|e| e.session % 2 == 0));
}

#[test]
fn metrics_totals_are_consistent_with_the_result() {
    let result = traced(PLAIN, 4);
    let m = &result.telemetry.as_ref().expect("tracing on").metrics;
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("sessions"),
        result.sessions.len() as u64,
        "traced session count disagrees with the session records"
    );
    let delivered = result
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count() as u64;
    assert_eq!(
        counter("deliveries"),
        delivered,
        "traced deliveries disagree with delivery timestamps"
    );
    // Every upstream query the apparatus logged was traced as a send.
    assert!(
        counter("dns_sends") >= result.log.records.len() as u64,
        "fewer dns_send events than logged queries"
    );
    assert!(m.histograms.contains_key("session_ms"));
    assert!(m.histograms.contains_key("dns_lookup_ms"));
    assert!(m.cache_hit_rate().is_some(), "no cache hit-rate derivable");
}
