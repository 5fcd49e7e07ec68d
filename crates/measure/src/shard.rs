//! Campaign sharding: deal independent sessions to engines and merge
//! their frames deterministically.
//!
//! Sessions of a campaign never interact — each drives its own MTA,
//! resolver and client state machines on its own event queue, and the
//! shared authoritative server answers every query statelessly from
//! the name alone. A campaign therefore runs [`shard_count`] shards,
//! each a [`crate::engine::SessionEngine`] on its own thread (via
//! [`mailval_simnet::run_shards_catch`]) over the sessions with
//! `session_id % shards == k`, and [`merge_frames`] flattens every
//! shard's frames into
//!
//! * session records in global `session_id` order;
//! * one query log, stable-sorted once by `(time_ms, session)`
//!   ([`crate::apparatus::QueryLog::sort_canonical`]).
//!
//! Both orders are independent of the shard count and of thread
//! scheduling, so `shards = K` output is byte-identical to `shards = 1`.

use crate::apparatus::QueryLog;
use crate::engine::{EngineStats, SessionRecord};
use crate::journal::JournalFrame;
use mailval_simnet::FaultStats;

/// Lightweight per-shard counters surfaced in
/// [`crate::campaign::CampaignResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard index, `0..shard_count`.
    pub shard: usize,
    /// Sessions this shard drove.
    pub sessions: usize,
    /// Virtual events its engine dispatched.
    pub events: u64,
    /// Queries it logged at the authoritative server.
    pub queries_logged: u64,
    /// Its final virtual clock, ms.
    pub virtual_ms: u64,
    /// Wall-clock time the shard's worker ran, ms (the only
    /// non-deterministic field; diagnostics only).
    pub wall_ms: f64,
    /// Injected-fault and recovery counters for this shard's sessions.
    pub faults: FaultStats,
    /// Times the supervisor restarted this shard after a crash (0 for
    /// an undisturbed run).
    pub restarts: u32,
    /// The shard's journal failed mid-run and was demoted to
    /// non-durable mode (results complete, crash coverage lost).
    /// Observability only: like `wall_ms` it is never part of the
    /// campaign's content hash.
    pub durability_lost: bool,
}

impl ShardStats {
    /// Combine engine counters with the runner's wall-clock timing and
    /// the supervisor's restart count.
    pub fn new(shard: usize, stats: EngineStats, wall_ms: f64, restarts: u32) -> ShardStats {
        ShardStats {
            shard,
            sessions: stats.sessions,
            events: stats.events,
            queries_logged: stats.queries_logged,
            virtual_ms: stats.virtual_ms,
            wall_ms,
            faults: stats.faults,
            restarts,
            durability_lost: stats.durability_lost,
        }
    }
}

/// How many shards `n` sessions run on when `shards` are requested: 0
/// is treated as 1, and there are never more shards than sessions (so
/// no shard is empty, and 0 sessions run on 0 shards). Session `i` goes
/// to shard `i % count`; round-robin keeps shard loads balanced even
/// though campaign build order clusters sessions by test and host.
pub fn shard_count(n: usize, shards: usize) -> usize {
    shards.max(1).min(n)
}

/// Merge every shard's frames into the campaign's records (global
/// `session_id` order) and query log (stable-sorted by `(time_ms,
/// session)` once; a session's own queries keep their dispatch order).
pub fn merge_frames(mut frames: Vec<JournalFrame>) -> (Vec<SessionRecord>, QueryLog) {
    frames.sort_unstable_by_key(|f| f.record.session_id);
    let mut records = Vec::with_capacity(frames.len());
    let mut log = QueryLog::default();
    for frame in frames {
        records.push(frame.record);
        log.records.extend(frame.queries);
    }
    log.sort_canonical();
    (records, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_never_exceeds_sessions() {
        assert_eq!(shard_count(10, 4), 4);
        assert_eq!(shard_count(2, 8), 2);
        assert_eq!(shard_count(0, 4), 0);
        assert_eq!(shard_count(5, 0), 1);
        assert_eq!(shard_count(5, 1), 1);
    }

    #[test]
    fn merge_restores_global_order() {
        let frame = |session_id: usize, times: &[u64]| JournalFrame {
            record: SessionRecord {
                session_id,
                host_index: 0,
                domain_index: 0,
                testid: None,
                start_ms: 0,
                outcome: None,
                delivery_time_ms: None,
                closed_by_server: false,
                error: None,
                termination: crate::engine::SessionOutcome::Completed,
            },
            queries: times
                .iter()
                .enumerate()
                .map(|(i, &time_ms)| crate::apparatus::QueryRecord {
                    time_ms,
                    session: session_id,
                    qname: mailval_dns::Name::parse(&format!("q{session_id}-{i}.test")).unwrap(),
                    qtype: mailval_dns::rr::RecordType::Txt,
                    transport: mailval_dns::server::Transport::Udp,
                    via_ipv6: false,
                })
                .collect(),
            faults: FaultStats::default(),
            events: 0,
            end_ms: 0,
        };
        // Two shards' frames, each in completion order; session 3 logs
        // two queries at one instant, which must keep their order.
        let (records, log) = merge_frames(vec![
            frame(0, &[5]),
            frame(2, &[1, 9]),
            frame(4, &[]),
            frame(1, &[5]),
            frame(3, &[7, 7]),
        ]);
        let ids: Vec<usize> = records.iter().map(|r| r.session_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let keys: Vec<(u64, usize)> = log.records.iter().map(|q| (q.time_ms, q.session)).collect();
        assert_eq!(keys, vec![(1, 2), (5, 0), (5, 1), (7, 3), (7, 3), (9, 2)]);
        assert_eq!(log.records[3].qname.to_string(), "q3-0.test");
        assert_eq!(log.records[4].qname.to_string(), "q3-1.test");
    }
}
