//! Kill-and-resume determinism: a campaign whose shards crash mid-run
//! (deterministic `crash_after_sessions` injection) and restart from
//! their journals must merge to output **byte-identical** to an
//! uninterrupted run — for every shard count, with and without the
//! chaos fault plan — and a journal with a corrupted tail must lose
//! only the torn frames, not the campaign.

use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, CampaignResult,
    SupervisorConfig,
};
use mailval::measure::engine::{SessionBudget, SessionOutcome};
use mailval::simnet::{FaultConfig, LatencyModel};
use std::path::PathBuf;

fn tiny_pop(seed: u64) -> Population {
    Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.004,
        seed,
    })
}

fn base_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: 47,
        probe_pause_ms: 0,
        shards,
        ..CampaignConfig::default()
    }
}

/// The PR 2 chaos plan: loss plus every other injection site.
fn chaos_faults() -> FaultConfig {
    FaultConfig {
        duplicate_probability: 0.05,
        reorder_probability: 0.05,
        reorder_delay_ms: 40,
        truncate_probability: 0.05,
        conn_reset_probability: 0.02,
        conn_stall_probability: 0.05,
        conn_stall_ms: 200,
        seed: 0xC0FFEE,
        ..Default::default()
    }
}

/// A scratch journal directory unique to this process and test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mailval-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_identical(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.events, b.events, "event counts differ ({label})");
    assert_eq!(a.faults, b.faults, "fault counters differ ({label})");
    assert_eq!(a.log.records.len(), b.log.records.len(), "{label}");
    for (x, y) in a.log.records.iter().zip(&b.log.records) {
        assert_eq!(x, y, "query log diverged ({label})");
    }
    assert_eq!(a.sessions.len(), b.sessions.len(), "{label}");
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x, y, "session records diverged ({label})");
    }
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let pop = tiny_pop(47);
    let profiles = sample_host_profiles(&pop, 47);
    let clean = run_campaign(&base_config(1), &pop, &profiles);
    assert!(!clean.partial);
    assert!(clean.sessions.len() > 40, "fixture too small to crash");

    for shards in [1, 2, 4, 8] {
        let dir = scratch_dir(&format!("kill-{shards}"));
        let mut config = base_config(shards);
        config.journal_dir = Some(dir.clone());
        // Every shard dies right after durably journaling its 5th
        // completed session; the supervisor must restart each from its
        // journal exactly once (replayed sessions count toward the
        // crash cursor, so the trigger cannot re-fire).
        config.faults.crash_after_sessions = 5;
        let resumed = run_campaign(&config, &pop, &profiles);
        assert!(
            !resumed.partial,
            "supervised run completed (shards={shards})"
        );
        for s in &resumed.shard_stats {
            assert_eq!(
                s.restarts, 1,
                "shard {} restarted once (shards={shards})",
                s.shard
            );
        }
        assert_identical(&clean, &resumed, &format!("shards={shards}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_and_resume_is_byte_identical_under_chaos() {
    let pop = tiny_pop(53);
    let mut profiles = sample_host_profiles(&pop, 53);
    for p in &mut profiles {
        p.greylists = true;
    }
    let make = |shards: usize| {
        let mut c = base_config(shards);
        c.latency = LatencyModel {
            loss_probability: 0.05,
            ..LatencyModel::default()
        };
        c.faults = chaos_faults();
        c
    };
    let clean = run_campaign(&make(1), &pop, &profiles);
    assert!(clean.faults.dns_dropped > 0, "chaos plan inert");
    assert!(clean.faults.tempfails > 0, "greylisting inert");

    for shards in [1, 2, 4, 8] {
        let dir = scratch_dir(&format!("chaos-{shards}"));
        let mut config = make(shards);
        config.journal_dir = Some(dir.clone());
        config.faults.crash_after_sessions = 4;
        let resumed = run_campaign(&config, &pop, &profiles);
        assert!(!resumed.partial);
        assert_identical(&clean, &resumed, &format!("chaos shards={shards}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn partial_finalize_then_explicit_resume_completes() {
    // Phase 1: zero restart budget — the crash immediately finalizes
    // each shard from its journal and the result is partial, holding
    // exactly the sessions that were durably journaled.
    let pop = tiny_pop(59);
    let profiles = sample_host_profiles(&pop, 59);
    let clean = run_campaign(&base_config(2), &pop, &profiles);
    let dir = scratch_dir("two-phase");

    let mut crashed = base_config(2);
    crashed.journal_dir = Some(dir.clone());
    crashed.faults.crash_after_sessions = 5;
    crashed.supervisor = SupervisorConfig {
        max_shard_restarts: 0,
    };
    let partial = run_campaign(&crashed, &pop, &profiles);
    assert!(partial.partial, "restart budget 0 must finalize partial");
    assert_eq!(
        partial.sessions.len(),
        10,
        "2 shards × 5 journaled sessions each survive"
    );
    // Each shard runs its sessions in id order, so its first five
    // completions are its first five round-robin ids: k, k+2, ..., k+8.
    let salvaged: Vec<usize> = partial.sessions.iter().map(|s| s.session_id).collect();
    let mut expected: Vec<usize> = (0..2)
        .flat_map(|k| (0..5).map(move |i| k + 2 * i))
        .collect();
    expected.sort_unstable();
    assert_eq!(
        salvaged, expected,
        "salvaged ids are each shard's first five"
    );
    // The salvaged prefix agrees with the clean run session-for-session.
    for s in &partial.sessions {
        let reference = clean
            .sessions
            .iter()
            .find(|c| c.session_id == s.session_id)
            .expect("salvaged session exists in clean run");
        assert_eq!(s, reference, "salvaged session diverged");
    }

    // Phase 2: resume from the same journals. The crash injection is
    // still armed, but the 5 replayed sessions already satisfy it, so
    // the shards run to the end and the merged result is byte-identical
    // to the uninterrupted run.
    let mut resume = crashed.clone();
    resume.resume = true;
    resume.supervisor = SupervisorConfig::default();
    let finished = run_campaign(&resume, &pop, &profiles);
    assert!(!finished.partial);
    assert_identical(&clean, &finished, "two-phase resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_tail_is_rerun_not_fatal() {
    let pop = tiny_pop(61);
    let profiles = sample_host_profiles(&pop, 61);
    let clean = run_campaign(&base_config(2), &pop, &profiles);
    let dir = scratch_dir("corrupt");

    // Build journals holding a prefix of each shard, then mangle them.
    let mut crashed = base_config(2);
    crashed.journal_dir = Some(dir.clone());
    crashed.faults.crash_after_sessions = 6;
    crashed.supervisor = SupervisorConfig {
        max_shard_restarts: 0,
    };
    let _ = run_campaign(&crashed, &pop, &profiles);

    for entry in std::fs::read_dir(&dir).expect("journal dir exists") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("journal readable");
        assert!(bytes.len() > 16, "journal holds frames");
        // Flip a byte inside the last frame's payload and chop the file
        // mid-frame for good measure: a torn, corrupted tail.
        let n = bytes.len();
        bytes[n - 5] ^= 0xff;
        bytes.truncate(n - 2);
        std::fs::write(&path, &bytes).expect("journal writable");
    }

    let mut resume = crashed.clone();
    resume.resume = true;
    resume.faults.crash_after_sessions = 0;
    resume.supervisor = SupervisorConfig::default();
    let finished = run_campaign(&resume, &pop, &profiles);
    assert!(!finished.partial);
    // The corrupted tail frames were dropped and re-run; the merged
    // output is still byte-identical to the uninterrupted run.
    assert_identical(&clean, &finished, "corrupt-tail resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_budget_terminates_runaway_sessions_within_budget() {
    let pop = tiny_pop(67);
    let profiles = sample_host_profiles(&pop, 67);
    let mut config = base_config(1);
    config.budget = SessionBudget {
        max_events: 10,
        ..SessionBudget::default()
    };
    let result = run_campaign(&config, &pop, &profiles);
    assert!(!result.sessions.is_empty());
    assert!(
        result.faults.budget_exhausted > 0,
        "a 10-event budget must cut sessions short"
    );
    let mut exhausted = 0usize;
    for s in &result.sessions {
        if let SessionOutcome::BudgetExhausted { events, .. } = s.termination {
            exhausted += 1;
            assert!(
                events <= 10,
                "session {} terminated past its event budget ({events})",
                s.session_id
            );
        }
    }
    assert_eq!(exhausted as u64, result.faults.budget_exhausted);

    // Budget decisions are per-session and therefore shard-invariant.
    config.shards = 4;
    let sharded = run_campaign(&config, &pop, &profiles);
    assert_eq!(sharded.events, result.events);
    assert_eq!(sharded.faults, result.faults);
    assert_eq!(sharded.sessions, result.sessions);
}

#[test]
fn virtual_time_budget_terminates_slow_sessions() {
    let pop = tiny_pop(71);
    let profiles = sample_host_profiles(&pop, 71);
    // Probe sessions sleep 15 s between commands (§4.6), so a 20 s
    // virtual budget cannot fit a full dialogue.
    let mut config = base_config(1);
    config.kind = CampaignKind::NotifyMx;
    config.tests = vec!["t01"];
    config.probe_pause_ms = 15_000;
    config.budget = SessionBudget {
        max_virtual_ms: 20_000,
        ..SessionBudget::default()
    };
    let result = run_campaign(&config, &pop, &profiles);
    assert!(result.faults.budget_exhausted > 0);
    for s in &result.sessions {
        if let SessionOutcome::BudgetExhausted { virtual_ms, .. } = s.termination {
            assert!(virtual_ms > 20_000, "terminated before exceeding budget");
        }
    }
}
