//! The `trace` export subcommand: run one NotifyEmail campaign at the
//! environment's scale with tracing on and emit Chrome trace-event
//! JSON (Perfetto-loadable) or the metrics-summary JSON, with
//! session/shard filters. The tracer's overhead gate is the `trace`
//! sweep of [`super::sweep`].

use mailval_datasets::DatasetKind;
use mailval_measure::campaign::{run_campaign, CampaignConfig, CampaignKind, TelemetryConfig};
use mailval_measure::progress;
use mailval_measure::telemetry::{chrome_trace_json, metrics_json, TraceFilter};

/// The `mailval-artifacts trace` subcommand: simulate the NotifyEmail
/// campaign at the environment's scale with tracing on and export
/// Chrome trace-event JSON (default) or the metrics summary. Returns
/// `false` on bad arguments.
///
/// ```text
/// trace [--session N]... [--shard K/N] [--metrics] [--out FILE]
/// ```
pub fn export(args: &[String]) -> bool {
    let mut filter = TraceFilter::default();
    let mut metrics = false;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--session" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(id) => filter.sessions.push(id),
                None => {
                    progress!("trace: --session needs a session id");
                    return false;
                }
            },
            "--shard" => {
                let parsed = iter.next().and_then(|v| {
                    let (k, n) = v.split_once('/')?;
                    Some((k.parse().ok()?, n.parse().ok()?))
                });
                match parsed {
                    Some((k, n)) if n > 0 && k < n => filter.shard = Some((k, n)),
                    _ => {
                        progress!("trace: --shard needs K/N with K < N");
                        return false;
                    }
                }
            }
            "--metrics" => metrics = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    progress!("trace: --out needs a path");
                    return false;
                }
            },
            other => {
                progress!("trace: unknown argument '{other}'");
                return false;
            }
        }
    }

    let env = crate::Env::from_env();
    let prepared = crate::prepare_with(&env, DatasetKind::NotifyEmail);
    let cfg = CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed: env.seed,
        probe_pause_ms: 15_000,
        shards: env.shards,
        telemetry: TelemetryConfig {
            tracing: true,
            heartbeat_ms: 500,
        },
        ..CampaignConfig::default()
    };
    progress!(
        "trace: NotifyEmail over {} domains / {} hosts on {} shard(s), tracing on",
        prepared.pop.domains.len(),
        prepared.pop.hosts.len(),
        env.shards.max(1)
    );
    let result = run_campaign(&cfg, &prepared.pop, &prepared.profiles);
    let telemetry = result.telemetry.expect("tracing was enabled");
    progress!(
        "trace: {} sessions, {} trace events{}",
        result.sessions.len(),
        telemetry.events.len(),
        telemetry
            .metrics
            .cache_hit_rate()
            .map(|r| format!(", resolver cache hit-rate {:.1}%", r * 100.0))
            .unwrap_or_default()
    );
    let doc = if metrics {
        metrics_json(&telemetry.metrics)
    } else {
        chrome_trace_json(&telemetry.events, &filter)
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write trace file");
            progress!("trace: wrote {path} ({} bytes)", doc.len());
        }
        None => print!("{doc}"),
    }
    true
}
