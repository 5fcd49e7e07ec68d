//! A miniature end-to-end measurement campaign: generate a synthetic
//! recipient population, run all three experiments of the paper at
//! small scale, and print the headline numbers.
//!
//! Run with `cargo run --release --example campaign`.

use mailval::datasets::{DatasetKind, Population, PopulationConfig};
use mailval::measure::analysis::{
    behavior_battery, consistency, notify_email_flags, notify_validating_counts,
    probe_validating_counts, serial_vs_parallel, spf_timing, table4, validating_hosts,
};
use mailval::measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind,
};
use mailval::simnet::LatencyModel;

fn main() {
    let seed = 7;
    let scale = 0.05;

    println!(
        "generating populations at {:.0}% of paper scale ...",
        scale * 100.0
    );
    let notify = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale,
        seed,
    });
    let twoweek = Population::generate(&PopulationConfig {
        kind: DatasetKind::TwoWeekMx,
        scale,
        seed,
    });
    let notify_profiles = sample_host_profiles(&notify, seed);
    let twoweek_profiles = sample_host_profiles(&twoweek, seed);

    let config = |kind| CampaignConfig {
        kind,
        tests: vec!["t01", "t03", "t04", "t06", "t12"],
        seed,
        probe_pause_ms: 15_000,
        latency: LatencyModel::default(),
        shards: 4,
        faults: mailval::simnet::FaultConfig::default(),
        ..CampaignConfig::default()
    };

    println!(
        "\n-- NotifyEmail: {} legitimate deliveries --",
        notify.domains.len()
    );
    let email_run = run_campaign(
        &config(CampaignKind::NotifyEmail),
        &notify,
        &notify_profiles,
    );
    let flags = notify_email_flags(&email_run, notify.domains.len());
    let counts = notify_validating_counts(&email_run, &flags, &notify);
    println!(
        "SPF-validating: {}/{} domains ({:.0}%)",
        counts.validating_domains,
        counts.total_domains,
        counts.domain_rate() * 100.0
    );
    for row in table4(&flags) {
        let (s, d, m) = row.combo;
        let mark = |b: bool| if b { "v" } else { "x" };
        println!(
            "  SPF={} DKIM={} DMARC={}: {}",
            mark(s),
            mark(d),
            mark(m),
            row.count
        );
    }
    let timing = spf_timing(&email_run);
    println!(
        "SPF before delivery: {:.0}% of {} timed domains",
        timing.negative_fraction * 100.0,
        timing.domains
    );

    println!("\n-- NotifyMX: probing every MX host --");
    let mx_run = run_campaign(&config(CampaignKind::NotifyMx), &notify, &notify_profiles);
    let mx_hosts = validating_hosts(&mx_run.log);
    let mx_counts = probe_validating_counts(&mx_run, &mx_hosts, &notify);
    println!(
        "SPF-validating: {}/{} MTAs ({:.0}%)",
        mx_counts.validating_mtas,
        mx_counts.total_mtas,
        mx_counts.mta_rate() * 100.0
    );
    let cons = consistency(&flags, &mx_run, &mx_hosts, &notify);
    println!(
        "inconsistent with NotifyEmail: {}/{} domains, {:.0}% of them Email-only",
        cons.inconsistent,
        cons.common_domains,
        100.0 * cons.email_only as f64 / cons.inconsistent.max(1) as f64
    );

    println!("\n-- TwoWeekMX: probing the high-demand dataset --");
    let tw_run = run_campaign(
        &config(CampaignKind::TwoWeekMx),
        &twoweek,
        &twoweek_profiles,
    );
    let tw_counts = probe_validating_counts(&tw_run, &validating_hosts(&tw_run.log), &twoweek);
    println!(
        "SPF-validating: {}/{} MTAs ({:.0}%)",
        tw_counts.validating_mtas,
        tw_counts.total_mtas,
        tw_counts.mta_rate() * 100.0
    );
    let sp = serial_vs_parallel(&tw_run.log);
    println!(
        "serial lookups: {}/{} classified MTAs",
        sp.serial, sp.classified
    );
    for stat in behavior_battery(&tw_run.log) {
        if stat.evaluated > 0 {
            println!(
                "  [{}] {}: {}/{} ({:.0}%; paper {:.0}%)",
                stat.testid,
                stat.behavior,
                stat.exhibited,
                stat.evaluated,
                stat.fraction() * 100.0,
                stat.paper_fraction * 100.0
            );
        }
    }
}
