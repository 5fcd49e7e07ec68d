//! Table 5: SPF-validating domains and MTAs in all three experiments,
//! the TwoWeekMX deciles, and the §6.2 NotifyEmail-vs-NotifyMX
//! consistency statistics.

use crate::{CampaignRequest, Runner, TABLE5_PROBES};
use mailval_datasets::DatasetKind;
use mailval_measure::analysis::{
    consistency, decile_counts, notify_email_flags, notify_validating_counts,
    probe_validating_counts, validating_hosts,
};
use mailval_measure::report::{count_pct, pct, render_table};
use std::fmt::Write;

/// Campaigns this artifact is derived from: the NotifyEmail delivery
/// campaign, the drifted NotifyMX probe (§4.2: nine months pass between
/// the two, so a small fraction of operators change configuration), and
/// a TwoWeekMX probe over [`TABLE5_PROBES`].
pub fn needs() -> Vec<CampaignRequest> {
    vec![
        CampaignRequest::NotifyEmail,
        CampaignRequest::NotifyMxDrifted,
        CampaignRequest::TwoWeek(TABLE5_PROBES),
    ]
}

/// Render the artifact text.
pub fn render(runner: &mut Runner) -> String {
    // NotifyEmail + NotifyMX share one population and one base profile
    // set (the §6.2 comparison depends on it).
    let email_run = runner.campaign(&CampaignRequest::NotifyEmail);
    let mx_run = runner.campaign(&CampaignRequest::NotifyMxDrifted);
    let tw_run = runner.campaign(&CampaignRequest::TwoWeek(TABLE5_PROBES));
    let notify = runner.prepared(DatasetKind::NotifyEmail);
    let twoweek = runner.prepared(DatasetKind::TwoWeekMx);

    // Each log is read once; every row below derives from these.
    let flags = notify_email_flags(&email_run, notify.pop.domains.len());
    let mx_hosts = validating_hosts(&mx_run.log);
    let tw_hosts = validating_hosts(&tw_run.log);
    let ne = notify_validating_counts(&email_run, &flags, &notify.pop);
    let nm = probe_validating_counts(&mx_run, &mx_hosts, &notify.pop);
    let tw = probe_validating_counts(&tw_run, &tw_hosts, &twoweek.pop);

    let mut rows = vec![
        vec![
            "NotifyEmail".into(),
            "22,703/26,695 (85%) dom; 15,323/18,851 (81%) MTA".into(),
            format!(
                "{} dom; {} MTA",
                count_pct(ne.validating_domains, ne.total_domains),
                count_pct(ne.validating_mtas, ne.total_mtas)
            ),
        ],
        vec![
            "NotifyMX".into(),
            "13,538/26,390 (51%) dom; 14,560/28,896 (50%) MTA".into(),
            format!(
                "{} dom; {} MTA",
                count_pct(nm.validating_domains, nm.total_domains),
                count_pct(nm.validating_mtas, nm.total_mtas)
            ),
        ],
        vec![
            "TwoWeekMX (all)".into(),
            "2,949/22,548 (13%) dom; 1,574/11,137 (14%) MTA".into(),
            format!(
                "{} dom; {} MTA",
                count_pct(tw.validating_domains, tw.total_domains),
                count_pct(tw.validating_mtas, tw.total_mtas)
            ),
        ],
    ];

    // Deciles (paper: 13% ± 1.7% domains, 17% ± 1.8% MTAs).
    let deciles = decile_counts(&tw_run, &tw_hosts, &twoweek.pop);
    for (i, d) in deciles.iter().enumerate() {
        rows.push(vec![
            format!("TwoWeekMX decile {}", i + 1),
            "≈13% dom; ≈17% MTA".into(),
            format!("{} dom; {} MTA", pct(d.domain_rate()), pct(d.mta_rate())),
        ]);
    }
    let mut out = String::new();
    writeln!(
        out,
        "{}",
        render_table(
            "Table 5 — SPF-validating domains and MTAs",
            &["experiment", "paper", "measured"],
            &rows
        )
    )
    .unwrap();

    // Decile variability.
    let dom_rates: Vec<f64> = deciles.iter().map(|d| d.domain_rate()).collect();
    let mta_rates: Vec<f64> = deciles.iter().map(|d| d.mta_rate()).collect();
    let stddev = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    writeln!(
        out,
        "decile stddev: paper 1.7% (domains) / 1.8% (MTAs); measured {} / {}\n",
        pct(stddev(&dom_rates)),
        pct(stddev(&mta_rates)),
    )
    .unwrap();

    // §6.2 consistency.
    let stats = consistency(&flags, &mx_run, &mx_hosts, &notify.pop);
    writeln!(
        out,
        "{}",
        render_table(
            "§6.2 — NotifyEmail vs NotifyMX consistency",
            &["statistic", "paper", "measured"],
            &[
                vec![
                    "domains with inconsistent status".into(),
                    "15,316 (58% of common)".into(),
                    count_pct(stats.inconsistent, stats.common_domains),
                ],
                vec![
                    "of those, Email-validating only".into(),
                    "14,584 (95%)".into(),
                    count_pct(stats.email_only, stats.inconsistent.max(1)),
                ],
                vec![
                    "MTAs rejecting with 'spam'".into(),
                    "7,803 (27%)".into(),
                    count_pct(stats.spam_rejections, stats.probed_mtas),
                ],
                vec![
                    "MTAs rejecting citing a blacklist".into(),
                    "872 (3.0%)".into(),
                    count_pct(stats.blacklist_rejections, stats.probed_mtas),
                ],
            ]
        )
    )
    .unwrap();
    out
}
