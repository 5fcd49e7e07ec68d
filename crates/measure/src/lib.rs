//! # mailval-measure
//!
//! The paper's primary contribution: the apparatus that elicits and
//! attributes SPF/DKIM/DMARC validation behavior **without delivering
//! any illegitimate mail** (§4), plus the analyses that regenerate every
//! table and figure of the evaluation (§6–§7).
//!
//! * [`names`] — the query-name encoding: every From domain embeds a
//!   `testid` and `mtaid`/`domainid`, and every follow-up DNS query a
//!   test policy induces carries the same labels, so any query arriving
//!   at the authoritative server can be attributed to one MTA and one
//!   test (§4.4–§4.5).
//! * [`policies`] — the 39-test-policy catalog (§4.3.2), including the
//!   serial-vs-parallel probe (Fig. 3), the 46-lookup stress tree
//!   (Fig. 4) and every §7.3 behavior test.
//! * [`apparatus`] — the on-the-fly policy-synthesizing authoritative
//!   DNS server (§4.5): responses are generated from the query name, so
//!   the 27.8M-record logical zone needs no storage, plus the query log
//!   and attribution.
//! * [`engine`] — the session-engine layer: the virtual-time event
//!   driver for any set of independent probe↔MTA sessions, extracted
//!   behind an injectable-latency/clock API.
//! * [`shard`] — campaign sharding: round-robin partitioning of the
//!   session list and the deterministic `(time_ms, session)` merge that
//!   makes `shards = K` output byte-identical to `shards = 1`.
//! * [`campaign`] — orchestration of the three campaigns: NotifyEmail
//!   (real deliveries, Exim-like client), NotifyMX and TwoWeekMX (probe
//!   client with 15 s sleeps, aborted before DATA), fanned out over
//!   shard worker threads against the one shared authority, supervised
//!   with bounded shard restarts.
//! * [`journal`] — durable per-shard session journals: append-only,
//!   checksummed frames that let an interrupted campaign resume with
//!   byte-identical output instead of restarting from zero.
//! * `codec` (crate-private) — the one binary codec and frame format
//!   behind the journal, the store and the campaign content hash: a
//!   `Codec` trait with field-list impls for every persisted record.
//! * [`store`] — the content-addressed campaign result store: completed
//!   [`CampaignResult`]s serialized with the journal's framing, keyed
//!   by a hash of every result-determining knob, so analyses re-render
//!   from disk instead of re-simulating (run once, analyze many).
//! * [`vfs`] — the storage seam both of the above write through: a
//!   passthrough `OsFs` and a deterministic fault-injecting `SimFs`
//!   (ENOSPC, short writes, failed fsync/rename, read-side rot) driven
//!   by a seeded `IoPlan`, so storage failure is simulated with the
//!   same rigor as network failure.
//! * [`progress`] — the single `[mailval]` stderr progress channel;
//!   campaign lines carry the content hash and store hit/miss status.
//! * [`telemetry`] — deterministic observability: a zero-cost tracer
//!   seam in the engine, per-session virtual-time trace events merged
//!   canonically across shards, a counters/histograms registry, and
//!   Chrome-trace + metrics JSON exporters. Observability only — never
//!   journaled, hashed or store-key-relevant.
//! * [`analysis`] — classification of raw observations into the paper's
//!   tables: validation combos (Table 4), validating counts and deciles
//!   (Table 5), providers (Table 6), Alexa tiers (Table 7), SPF-vs-
//!   delivery timing (Fig. 2), serial/parallel (§7.1), lookup limits
//!   (Fig. 5) and the §7.3 behavior battery.
//! * [`fingerprint`] — the paper's proposed future work (§8):
//!   clustering MTAs by their behavior vectors.
//! * [`report`] — paper-vs-measured table rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod apparatus;
pub mod campaign;
mod codec;
pub mod engine;
pub mod fingerprint;
pub mod hostile;
pub mod journal;
pub mod names;
pub mod policies;
pub mod progress;
pub mod report;
pub mod shard;
pub mod store;
pub mod telemetry;
pub mod vfs;

pub use apparatus::{QueryLog, QueryRecord, SynthesizingAuthority};
pub use campaign::{
    drift_profiles, run_campaign, run_campaign_stored, sample_host_profiles, CampaignConfig,
    CampaignKind, CampaignResult, SupervisorConfig,
};
pub use engine::{
    EngineConfig, MemoryBudget, SessionBudget, SessionEngine, SessionOutcome, SessionRecord,
};
pub use journal::{JournalFrame, JournalWriter, Replay};
pub use names::NameScheme;
pub use policies::{TestPolicyId, ALL_TESTS};
pub use shard::ShardStats;
pub use store::{CampaignKey, CampaignStore, KeySpec, StoreError, StoreStatus};
pub use telemetry::{NullTracer, RecordingTracer, Telemetry, TraceEvent, TraceKind, Tracer};
pub use vfs::{OsFs, SimFs, Vfs, VfsFile};
