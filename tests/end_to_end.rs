//! Cross-crate integration tests: the full pipeline from dataset
//! generation through campaign execution to table regeneration, plus a
//! live-socket path exercising the sans-IO cores over real UDP/TCP.

use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::analysis::{
    behavior_battery, lookup_limits, notify_email_flags, serial_vs_parallel, spf_timing, table4,
};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind,
};
use mailval::simnet::LatencyModel;

fn pop(kind: DatasetKind, scale: f64, seed: u64) -> Population {
    Population::generate(&PopulationConfig { kind, scale, seed })
}

fn config(kind: CampaignKind, tests: Vec<&'static str>, seed: u64) -> CampaignConfig {
    CampaignConfig {
        kind,
        tests,
        seed,
        probe_pause_ms: 15_000,
        latency: LatencyModel::default(),
        shards: 1,
        faults: mailval::simnet::FaultConfig::default(),
        ..CampaignConfig::default()
    }
}

#[test]
fn full_pipeline_regenerates_headline_numbers() {
    let seed = 1234;
    let notify = pop(DatasetKind::NotifyEmail, 0.02, seed);
    let profiles = sample_host_profiles(&notify, seed);

    // NotifyEmail: the 85% / 53% / 24% headline shape.
    let email = run_campaign(
        &config(CampaignKind::NotifyEmail, vec![], seed),
        &notify,
        &profiles,
    );
    let flags = notify_email_flags(&email, notify.domains.len());
    let total = notify.domains.len();
    let spf = flags.iter().filter(|f| f.spf).count() as f64 / total as f64;
    assert!((0.78..0.94).contains(&spf), "spf rate {spf}");
    let rows = table4(&flags);
    let all3 = rows[0].count as f64 / total as f64;
    assert!((0.45..0.70).contains(&all3), "all-three share {all3}");
    let spf_dkim = rows[1].count as f64 / total as f64;
    assert!(
        (0.15..0.33).contains(&spf_dkim),
        "spf+dkim share {spf_dkim}"
    );

    // Fig 2 shape: most SPF lookups precede delivery.
    let timing = spf_timing(&email);
    assert!(timing.negative_fraction > 0.7);

    // NotifyMX drops to roughly half.
    let mx = run_campaign(
        &config(CampaignKind::NotifyMx, vec!["t12"], seed),
        &notify,
        &profiles,
    );
    let mx_hosts: std::collections::HashSet<usize> = mx
        .log
        .records
        .iter()
        .filter_map(|r| r.attribution()?.host_index)
        .collect();
    let probed: std::collections::HashSet<usize> =
        mx.sessions.iter().map(|s| s.host_index).collect();
    let rate = mx_hosts.len() as f64 / probed.len() as f64;
    assert!((0.35..0.65).contains(&rate), "NotifyMX MTA rate {rate}");
}

#[test]
fn behavior_shapes_match_paper_directions() {
    // NotifyMX perspective: no guessed-recipient suppression, so far
    // more validators per probed MTA — a denser sample of the §7
    // behaviors at small scale.
    let seed = 77;
    let twoweek = pop(DatasetKind::NotifyEmail, 0.02, seed);
    let profiles = sample_host_profiles(&twoweek, seed);
    let run = run_campaign(
        &config(
            CampaignKind::NotifyMx,
            vec!["t01", "t02", "t06", "t08", "t11"],
            seed,
        ),
        &twoweek,
        &profiles,
    );

    // §7.1: serial dominates.
    let sp = serial_vs_parallel(&run.log);
    assert!(sp.classified > 10);
    assert!(sp.serial as f64 / sp.classified as f64 > 0.9);

    // Fig. 5: enforcement dominates, violators exceed the limit, and
    // nothing can exceed the tree's 46 lookups. (At this tiny scale the
    // per-operator sampling may or may not include a fully unbounded
    // validator, so we assert the bands rather than the extreme point.)
    let limits = lookup_limits(&run.log);
    assert!(limits.under_10 > limits.all_46);
    assert!(limits.points.iter().any(|p| p.queries > 10));
    assert!(limits.points.iter().all(|p| p.queries <= 46));

    // §7.3 directions: void-limit violations are the norm; nobody
    // follows both duplicate records.
    let battery = behavior_battery(&run.log);
    let void = battery
        .iter()
        .find(|s| s.behavior.contains("exceeded two void"))
        .unwrap();
    assert!(void.fraction() > 0.85, "void violators {}", void.fraction());
    let both = battery
        .iter()
        .find(|s| s.behavior.contains("BOTH"))
        .unwrap();
    assert_eq!(both.exhibited, 0);
}

#[test]
fn probe_sessions_never_deliver_mail() {
    // §5.1's ethics invariant, enforced mechanically: probe sessions
    // cannot deliver because no DATA payload is ever transmitted.
    let seed = 5;
    let twoweek = pop(DatasetKind::TwoWeekMx, 0.005, seed);
    let profiles = sample_host_profiles(&twoweek, seed);
    let run = run_campaign(
        &config(CampaignKind::TwoWeekMx, vec!["t12", "t15", "t39"], seed),
        &twoweek,
        &profiles,
    );
    // Even for the +all "control-pass" policies, nothing is delivered.
    for s in &run.sessions {
        assert!(s.delivery_time_ms.is_none());
        if let Some(outcome) = &s.outcome {
            assert!(!outcome.delivered);
        }
    }
}

#[test]
fn unique_from_domains_attribute_concurrent_validators() {
    // §4.5: attribution works even when many MTAs validate at once —
    // every logged query maps back to exactly one (test, MTA).
    let seed = 9;
    let twoweek = pop(DatasetKind::TwoWeekMx, 0.01, seed);
    let profiles = sample_host_profiles(&twoweek, seed);
    let run = run_campaign(
        &config(CampaignKind::TwoWeekMx, vec!["t01", "t12"], seed),
        &twoweek,
        &profiles,
    );
    let probed: std::collections::HashSet<usize> =
        run.sessions.iter().map(|s| s.host_index).collect();
    for r in &run.log.records {
        let attr = r
            .attribution()
            .unwrap_or_else(|| panic!("unattributable query {}", r.qname));
        let h = attr.host_index.expect("probe queries carry an mtaid");
        assert!(probed.contains(&h), "query from unprobed host {h}");
        let t = attr.testid.unwrap();
        assert!(t == "t01" || t == "t12");
    }
}

#[test]
fn dkim_signatures_survive_the_smtp_path() {
    // The notification is signed before transmission and verified by the
    // receiving MTA after dot-stuffing, wire transfer and re-parsing;
    // DKIM-validating MTAs must query the key of the exact signing
    // domain.
    let seed = 31;
    let notify = pop(DatasetKind::NotifyEmail, 0.008, seed);
    let profiles = sample_host_profiles(&notify, seed);
    let run = run_campaign(
        &config(CampaignKind::NotifyEmail, vec![], seed),
        &notify,
        &profiles,
    );
    let key_queries: Vec<&mailval::measure::apparatus::QueryRecord> = run
        .log
        .records
        .iter()
        .filter(|r| {
            r.attribution()
                .is_some_and(|a| a.path.labels().any(|l| l == "_domainkey"))
        })
        .collect();
    assert!(!key_queries.is_empty(), "no DKIM key queries observed");
    for q in &key_queries {
        assert!(q.qname.to_string().starts_with("sel1._domainkey.d"));
    }
}

#[test]
fn deliveries_and_validations_are_deterministic() {
    let seed = 55;
    let notify = pop(DatasetKind::NotifyEmail, 0.005, seed);
    let profiles = sample_host_profiles(&notify, seed);
    let a = run_campaign(
        &config(CampaignKind::NotifyEmail, vec![], seed),
        &notify,
        &profiles,
    );
    let b = run_campaign(
        &config(CampaignKind::NotifyEmail, vec![], seed),
        &notify,
        &profiles,
    );
    assert_eq!(a.log.records.len(), b.log.records.len());
    let da: Vec<Option<u64>> = a.sessions.iter().map(|s| s.delivery_time_ms).collect();
    let db: Vec<Option<u64>> = b.sessions.iter().map(|s| s.delivery_time_ms).collect();
    assert_eq!(da, db);
}
