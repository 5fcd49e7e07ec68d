//! The sweep harness behind `mailval-artifacts bench`: every
//! performance measurement of the campaign engine is a [`Sweep`] — a
//! named table of points, each a population spec plus a labelled
//! [`CampaignConfig`] — run by one runner into one [`Row`] schema,
//! written one row per line to [`RESULTS_PATH`] and checked by one
//! function, [`gate`].
//!
//! | sweep     | population                       | points                                  |
//! |-----------|----------------------------------|-----------------------------------------|
//! | `perf`    | NotifyEmail 2k and 20k           | shards 1, 2, 4, 8                       |
//! | `trace`   | NotifyEmail 2k                   | shards 1 with tracing on                |
//! | `chaos`   | NotifyEmail 1k                   | loss 0, .01, .05, .20 under a fixed plan |
//! | `journal` | NotifyEmail 2k                   | journal off; on at fsync 64, 1, 16, 256 |
//! | `io`      | NotifyEmail 1k, journaled        | IO fault rate 0, .01, .05, .20          |
//! | `hostile` | NotifyEmail 1k, 1 host in 8 bait | corrupt rate 0, .05, .20, .50           |
//!
//! Every point runs [`ROUNDS`] times. A row keeps the best and median
//! wall clock, with throughput, phases and per-shard wall taken from
//! the best round: contention on a shared box only ever slows a run,
//! so best-of-N estimates what the engine can do. Everything else in a
//! row is deterministic and identical across rounds.
//!
//! Sweeps off the shard axis run at one shard, so their rows compare
//! with each other and with the `perf` shards=1 rows on any machine.

use mailval_datasets::alexa::NOTIFY_EMAIL_TOTAL;
use mailval_datasets::DatasetKind;
use mailval_measure::campaign::{
    run_campaign, CampaignConfig, CampaignKind, PhaseTimes, TelemetryConfig,
};
use mailval_measure::{journal, progress};
use mailval_simnet::{
    FaultConfig, FaultStats, IoConfig, LatencyModel, MalformedClass, MalformedStats, PayloadConfig,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Measurement rounds per point, when writing and when checking.
const ROUNDS: usize = 3;

/// The committed results file: written by `bench`, the baseline of
/// `bench --check`.
const RESULTS_PATH: &str = "results/BENCH.json";

/// Maximum setup share of a `perf` row's wall clock.
const MAX_SETUP_SHARE: f64 = 0.30;

/// A `perf` row's sessions/s must reach this share of its committed row.
const MIN_PERF_RATIO: f64 = 0.90;

/// With the tracer compiled in but off, the `perf` row at
/// [`TRACE_BASE_POINT`] must reach this share of its committed row.
const MIN_TRACE_OFF_RATIO: f64 = 0.99;

/// A traced row must reach this share of the committed
/// [`TRACE_BASE_POINT`] row.
const MIN_TRACE_ON_RATIO: f64 = 0.90;

/// The `perf` point the `trace` sweep re-runs with tracing on: its row
/// is the untraced side of the tracer-overhead comparison.
const TRACE_BASE_POINT: &str = "2k/shards=1";

/// Journal wall-clock overhead budget at the default fsync interval
/// (reported, not gated: the difference is within run-to-run noise).
const JOURNAL_OVERHEAD_BUDGET: f64 = 0.10;

/// The population a point runs over: NotifyEmail at a domain count,
/// optionally with every `stride`-th host serving hostile DNS content.
#[derive(Clone, Copy, PartialEq)]
struct PopSpec {
    domains: usize,
    hostile_stride: Option<usize>,
}

impl PopSpec {
    fn notify(domains: usize) -> PopSpec {
        PopSpec {
            domains,
            hostile_stride: None,
        }
    }

    fn prepare(self, seed: u64) -> crate::Prepared {
        let env = crate::Env {
            scale: self.domains as f64 / NOTIFY_EMAIL_TOTAL as f64,
            seed,
            shards: 1,
        };
        let mut prepared = crate::prepare_with(&env, DatasetKind::NotifyEmail);
        if let Some(stride) = self.hostile_stride {
            for (i, p) in prepared.profiles.iter_mut().enumerate() {
                p.hostile_dns = i % stride == 0;
            }
        }
        prepared
    }
}

/// One measured configuration of a sweep.
struct Point {
    label: String,
    pop: PopSpec,
    config: CampaignConfig,
}

/// A named table of points.
pub(crate) struct Sweep {
    name: &'static str,
    /// Sweeps naming the same group must produce one content hash per
    /// population across all their points: their axes vary only knobs
    /// that cannot change the merged output.
    same_output: Option<&'static str>,
    /// The points, given the seed and a scratch directory for journals.
    points: fn(u64, &Path) -> Vec<Point>,
}

const fn sweep(
    name: &'static str,
    same_output: Option<&'static str>,
    points: fn(u64, &Path) -> Vec<Point>,
) -> Sweep {
    Sweep {
        name,
        same_output,
        points,
    }
}

/// Every sweep, in run order.
const SWEEPS: [Sweep; 6] = [
    sweep("perf", Some("perf"), perf_points),
    sweep("trace", Some("perf"), trace_points),
    sweep("chaos", None, chaos_points),
    sweep("journal", Some("journal"), journal_points),
    sweep("io", Some("io"), io_points),
    sweep("hostile", None, hostile_points),
];

fn sweep_named(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.name == name)
}

/// The NotifyEmail campaign at one shard: the base of every point.
fn notify(seed: u64, probe_pause_ms: u64) -> CampaignConfig {
    CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed,
        probe_pause_ms,
        shards: 1,
        ..CampaignConfig::default()
    }
}

fn perf_points(seed: u64, _: &Path) -> Vec<Point> {
    let mut points = Vec::new();
    for (name, domains) in [("2k", 2_000), ("20k", 20_000)] {
        for shards in [1, 2, 4, 8] {
            points.push(Point {
                label: format!("{name}/shards={shards}"),
                pop: PopSpec::notify(domains),
                config: CampaignConfig {
                    shards,
                    ..notify(seed, 15_000)
                },
            });
        }
    }
    points
}

fn trace_points(seed: u64, _: &Path) -> Vec<Point> {
    vec![Point {
        label: format!("{TRACE_BASE_POINT}/tracing"),
        pop: PopSpec::notify(2_000),
        config: CampaignConfig {
            telemetry: TelemetryConfig {
                tracing: true,
                heartbeat_ms: 0,
            },
            ..notify(seed, 15_000)
        },
    }]
}

fn chaos_points(seed: u64, _: &Path) -> Vec<Point> {
    [0.0, 0.01, 0.05, 0.20]
        .map(|loss| Point {
            label: format!("loss={loss}"),
            pop: PopSpec::notify(1_000),
            config: CampaignConfig {
                latency: LatencyModel {
                    loss_probability: loss,
                    ..LatencyModel::default()
                },
                faults: FaultConfig {
                    duplicate_probability: 0.02,
                    reorder_probability: 0.02,
                    reorder_delay_ms: 40,
                    truncate_probability: 0.02,
                    conn_reset_probability: 0.01,
                    conn_stall_probability: 0.02,
                    conn_stall_ms: 200,
                    seed,
                    ..FaultConfig::default()
                },
                ..notify(seed, 0)
            },
        })
        .into()
}

fn journal_points(seed: u64, scratch: &Path) -> Vec<Point> {
    let mut points = vec![Point {
        label: "journal off".to_string(),
        pop: PopSpec::notify(2_000),
        config: notify(seed, 0),
    }];
    for fsync_every in [journal::DEFAULT_FSYNC_EVERY, 1, 16, 256] {
        points.push(Point {
            label: format!("fsync={fsync_every}"),
            pop: PopSpec::notify(2_000),
            config: CampaignConfig {
                journal_dir: Some(scratch.join(format!("journal-fsync-{fsync_every}"))),
                fsync_every,
                ..notify(seed, 0)
            },
        });
    }
    points
}

fn io_points(seed: u64, scratch: &Path) -> Vec<Point> {
    [0.0, 0.01, 0.05, 0.20]
        .map(|rate| Point {
            label: format!("rate={rate}"),
            pop: PopSpec::notify(1_000),
            config: CampaignConfig {
                journal_dir: Some(scratch.join(format!("io-rate-{rate}"))),
                io: IoConfig {
                    short_write_probability: rate,
                    fsync_fail_probability: rate,
                    rename_fail_probability: rate,
                    read_corrupt_probability: rate,
                    seed,
                    ..IoConfig::default()
                },
                ..notify(seed, 0)
            },
        })
        .into()
}

fn hostile_points(seed: u64, _: &Path) -> Vec<Point> {
    [0.0, 0.05, 0.20, 0.50]
        .map(|rate| Point {
            label: format!("corrupt={rate}"),
            pop: PopSpec {
                domains: 1_000,
                hostile_stride: Some(8),
            },
            config: CampaignConfig {
                payload: PayloadConfig {
                    dns_corrupt_probability: rate,
                    smtp_corrupt_probability: rate,
                    seed,
                },
                ..notify(seed, 0)
            },
        })
        .into()
}

/// One measured point: one line of the results file. Timings are
/// wall clock in seconds (ms for `shard_wall_ms`); `wall_s` is the best
/// round, which `sessions_per_s`, `phases` and `shard_wall_ms` also
/// describe. `dead` sessions neither delivered nor were rejected;
/// `journal_bytes` is what the journal left on disk after the last
/// round; `content_hash` is the hex campaign content hash.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    sweep: String,
    point: String,
    domains: usize,
    shards: usize,
    rounds: usize,
    sessions: usize,
    wall_s: f64,
    wall_s_median: f64,
    sessions_per_s: f64,
    phases: PhaseTimes,
    shard_wall_ms: Vec<f64>,
    delivered: usize,
    rejected: usize,
    dead: usize,
    queries_logged: usize,
    events: u64,
    content_hash: String,
    faults: FaultStats,
    shards_demoted: usize,
    journal_bytes: u64,
    trace_events: usize,
}

/// The fault counters as JSON members named as the [`FaultStats`]
/// fields, with the malformed classes nested under `"malformed"`.
fn render_faults(f: &FaultStats) -> String {
    let member = |(name, n): (&str, u64)| format!("\"{name}\": {n}");
    let names = FaultStats::COUNTER_NAMES.into_iter();
    let counters: Vec<String> = names.zip(f.counters()).map(member).collect();
    let classes = f.malformed.iter().map(|(class, n)| (class.label(), n));
    let classes: Vec<String> = classes.map(member).collect();
    let (counters, classes) = (counters.join(", "), classes.join(", "));
    format!("{counters}, \"malformed\": {{{classes}}}")
}

fn parse_faults(line: &str) -> Option<FaultStats> {
    let mut counters = FaultStats::default().counters();
    let mut classes = [0; MalformedClass::ALL.len()];
    let names = FaultStats::COUNTER_NAMES
        .into_iter()
        .chain(MalformedClass::ALL.map(|c| c.label()));
    for (n, name) in counters.iter_mut().chain(&mut classes).zip(names) {
        *n = num(line, name)?;
    }
    let malformed = MalformedStats::from_counts(classes);
    Some(FaultStats::from_counters(counters, malformed))
}

impl Row {
    /// The row as one line of JSON. The destructure names every field,
    /// so a field added to `Row` fails to compile here until rendered.
    fn render(&self) -> String {
        let Row {
            sweep,
            point,
            domains,
            shards,
            rounds,
            sessions,
            wall_s,
            wall_s_median,
            sessions_per_s,
            phases,
            shard_wall_ms,
            delivered,
            rejected,
            dead,
            queries_logged,
            events,
            content_hash,
            faults,
            shards_demoted,
            journal_bytes,
            trace_events,
        } = self;
        let PhaseTimes {
            setup_s,
            simulate_s,
            merge_s,
            persist_s,
        } = phases;
        let setup_share = phases.setup_share();
        let walls: Vec<String> = shard_wall_ms.iter().map(|w| format!("{w:.1}")).collect();
        let walls = walls.join(", ");
        let faults = render_faults(faults);
        format!(
            "{{\"sweep\": \"{sweep}\", \"point\": \"{point}\", \"domains\": {domains}, \
             \"shards\": {shards}, \"rounds\": {rounds}, \"sessions\": {sessions}, \
             \"wall_s\": {wall_s:.3}, \"wall_s_median\": {wall_s_median:.3}, \
             \"sessions_per_s\": {sessions_per_s:.1}, \"phases\": {{\"setup_s\": {setup_s:.3}, \
             \"simulate_s\": {simulate_s:.3}, \"merge_s\": {merge_s:.3}, \
             \"persist_s\": {persist_s:.3}, \"setup_share\": {setup_share:.3}}}, \
             \"shard_wall_ms\": [{walls}], \"delivered\": {delivered}, \
             \"rejected\": {rejected}, \"dead\": {dead}, \"queries_logged\": {queries_logged}, \
             \"events\": {events}, \"content_hash\": \"{content_hash}\", \"faults\": {{{faults}}}, \
             \"shards_demoted\": {shards_demoted}, \"journal_bytes\": {journal_bytes}, \
             \"trace_events\": {trace_events}}}"
        )
    }

    /// Parse a line written by [`Row::render`]; `None` for any other
    /// line (the workspace has no serde, and every key in a row line
    /// is unique, so fields are found by name).
    fn parse(line: &str) -> Option<Row> {
        let shard_wall_ms = field(line, "shard_wall_ms")?
            .split(", ")
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().ok())
            .collect::<Option<_>>()?;
        Some(Row {
            sweep: field(line, "sweep")?.to_string(),
            point: field(line, "point")?.to_string(),
            domains: num(line, "domains")?,
            shards: num(line, "shards")?,
            rounds: num(line, "rounds")?,
            sessions: num(line, "sessions")?,
            wall_s: num(line, "wall_s")?,
            wall_s_median: num(line, "wall_s_median")?,
            sessions_per_s: num(line, "sessions_per_s")?,
            phases: PhaseTimes {
                setup_s: num(line, "setup_s")?,
                simulate_s: num(line, "simulate_s")?,
                merge_s: num(line, "merge_s")?,
                persist_s: num(line, "persist_s")?,
            },
            shard_wall_ms,
            delivered: num(line, "delivered")?,
            rejected: num(line, "rejected")?,
            dead: num(line, "dead")?,
            queries_logged: num(line, "queries_logged")?,
            events: num(line, "events")?,
            content_hash: field(line, "content_hash")?.to_string(),
            faults: parse_faults(line)?,
            shards_demoted: num(line, "shards_demoted")?,
            journal_bytes: num(line, "journal_bytes")?,
            trace_events: num(line, "trace_events")?,
        })
    }
}

/// The raw value of `"key": ...` in `line`: a string's contents, an
/// array's contents, or a scalar token.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let (body, close) = match rest.as_bytes().first()? {
        b'"' => (&rest[1..], '"'),
        b'[' => (&rest[1..], ']'),
        _ => return rest.split([',', '}']).next(),
    };
    Some(&body[..body.find(close)?])
}

fn num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field(line, key)?.parse().ok()
}

/// The results file: a small header and one row per line.
fn render_file(rows: &[Row], seed: u64) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
    format!(
        "{{\n  \"benchmark\": \"mailval campaign sweeps\",\n  \"cpus\": {cpus},\n  \
         \"seed\": {seed},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Every row in a results file.
fn parse_file(text: &str) -> Vec<Row> {
    text.lines().filter_map(Row::parse).collect()
}

/// Run `sweeps` in order, one row per point.
fn run(sweeps: &[&Sweep], seed: u64) -> Vec<Row> {
    let scratch = std::env::temp_dir().join(format!("mailval-bench-{}", std::process::id()));
    let mut prepared: Option<(PopSpec, crate::Prepared)> = None;
    let mut rows = Vec::new();
    for sweep in sweeps {
        for point in (sweep.points)(seed, &scratch) {
            if prepared.as_ref().is_none_or(|(spec, _)| *spec != point.pop) {
                prepared = Some((point.pop, point.pop.prepare(seed)));
            }
            let (_, p) = prepared.as_ref().expect("population prepared above");
            let row = measure(sweep.name, &point, p);
            progress!(
                "bench: {:<7} {:<22} {:>7.3}s best {:>7.3}s median {:>7.0} sessions/s  \
                 setup {:>4.1}%  delivered {} / rejected {} / dead {}  hash {}",
                row.sweep,
                row.point,
                row.wall_s,
                row.wall_s_median,
                row.sessions_per_s,
                row.phases.setup_share() * 100.0,
                row.delivered,
                row.rejected,
                row.dead,
                &row.content_hash[..16]
            );
            rows.push(row);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    rows
}

fn measure(sweep: &str, point: &Point, prepared: &crate::Prepared) -> Row {
    let mut walls = Vec::with_capacity(ROUNDS);
    let mut best: Option<(f64, PhaseTimes, Vec<f64>)> = None;
    let mut last = None;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let result = run_campaign(&point.config, &prepared.pop, &prepared.profiles);
        let wall_s = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(w, _, _)| wall_s < *w) {
            let shard_wall_ms = result.shard_stats.iter().map(|s| s.wall_ms).collect();
            best = Some((wall_s, result.phases, shard_wall_ms));
        }
        walls.push(wall_s);
        last = Some(result);
    }
    let result = last.expect("at least one round");
    let (wall_s, phases, shard_wall_ms) = best.expect("at least one round");
    walls.sort_by(f64::total_cmp);

    let journal_bytes = point.config.journal_dir.as_deref().map_or(0, |dir| {
        let bytes = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(dir);
        bytes
    });
    let delivered = result
        .sessions
        .iter()
        .filter(|s| s.delivery_time_ms.is_some())
        .count();
    let rejected = result
        .sessions
        .iter()
        .filter(|s| {
            s.delivery_time_ms.is_none()
                && s.outcome.as_ref().is_some_and(|o| o.rejection.is_some())
        })
        .count();
    Row {
        sweep: sweep.to_string(),
        point: point.label.clone(),
        domains: prepared.pop.domains.len(),
        shards: point.config.shards,
        rounds: ROUNDS,
        sessions: result.sessions.len(),
        wall_s,
        wall_s_median: walls[walls.len() / 2],
        sessions_per_s: result.sessions.len() as f64 / wall_s,
        phases,
        shard_wall_ms,
        delivered,
        rejected,
        dead: result.sessions.len() - delivered - rejected,
        queries_logged: result.log.records.len(),
        events: result.events,
        content_hash: result
            .content_hash()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect(),
        faults: result.faults,
        shards_demoted: result
            .shard_stats
            .iter()
            .filter(|s| s.durability_lost)
            .count(),
        journal_bytes,
        trace_events: result.telemetry.as_ref().map_or(0, |t| t.events.len()),
    }
}

/// Check `rows`, returning one message per violation.
///
/// Always: sweeps of one output group carry one content hash per
/// population (shard-axis, traced-vs-untraced, journal and IO-rate
/// equality), and traced rows recorded events. Against `baseline`,
/// the committed rows: `perf` rows keep setup under
/// [`MAX_SETUP_SHARE`] and sessions/s at [`MIN_PERF_RATIO`] of their
/// committed row; with `trace` rows present, the untraced and traced
/// [`TRACE_BASE_POINT`] runs keep [`MIN_TRACE_OFF_RATIO`] and
/// [`MIN_TRACE_ON_RATIO`] of the committed `perf` row.
pub(crate) fn gate(rows: &[Row], baseline: Option<&[Row]>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut firsts: Vec<(&str, &Row)> = Vec::new();
    for row in rows {
        let Some(group) = sweep_named(&row.sweep).and_then(|s| s.same_output) else {
            continue;
        };
        match firsts
            .iter()
            .find(|(g, first)| *g == group && first.domains == row.domains)
        {
            Some((_, first)) if first.content_hash != row.content_hash => failures.push(format!(
                "{} {}: content hash differs from {} {}",
                row.sweep, row.point, first.sweep, first.point
            )),
            Some(_) => {}
            None => firsts.push((group, row)),
        }
    }
    let traced: Vec<&Row> = rows.iter().filter(|r| r.sweep == "trace").collect();
    for row in traced.iter().filter(|r| r.trace_events == 0) {
        failures.push(format!("trace {}: no trace events recorded", row.point));
    }

    let Some(baseline) = baseline else {
        return failures;
    };
    for row in rows.iter().filter(|r| r.sweep == "perf") {
        let share = row.phases.setup_share();
        if share > MAX_SETUP_SHARE {
            failures.push(format!(
                "perf {}: setup share {:.1}% > {:.0}%",
                row.point,
                share * 100.0,
                MAX_SETUP_SHARE * 100.0
            ));
        }
        match perf_row(baseline, &row.point) {
            Some(base) => failures.extend(slower(
                &format!("perf {}", row.point),
                row,
                base,
                MIN_PERF_RATIO,
            )),
            None => progress!("bench: note: no committed row for perf {}", row.point),
        }
    }
    if !traced.is_empty() {
        match (
            perf_row(baseline, TRACE_BASE_POINT),
            perf_row(rows, TRACE_BASE_POINT),
        ) {
            (Some(base), Some(off)) => {
                failures.extend(slower("tracer off", off, base, MIN_TRACE_OFF_RATIO));
                for on in &traced {
                    let what = format!("tracer on ({})", on.point);
                    failures.extend(slower(&what, on, base, MIN_TRACE_ON_RATIO));
                }
            }
            _ => failures.push(format!(
                "trace: needs committed and fresh perf {TRACE_BASE_POINT} rows"
            )),
        }
    }
    failures
}

fn perf_row<'a>(rows: &'a [Row], point: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.sweep == "perf" && r.point == point)
}

/// A failure message when `row` ran below `ratio` of `base`'s sessions/s.
fn slower(what: &str, row: &Row, base: &Row, ratio: f64) -> Option<String> {
    (row.sessions_per_s < base.sessions_per_s * ratio).then(|| {
        format!(
            "{what}: {:.0} sessions/s < {:.0}% of committed {:.0}",
            row.sessions_per_s,
            ratio * 100.0,
            base.sessions_per_s
        )
    })
}

/// Report each journaled row's wall-clock overhead over the unjournaled
/// one; the budget is [`JOURNAL_OVERHEAD_BUDGET`].
fn report_journal_overhead(rows: &[Row]) {
    let journal: Vec<&Row> = rows.iter().filter(|r| r.sweep == "journal").collect();
    if let Some((off, on)) = journal.split_first() {
        for row in on {
            progress!(
                "bench: journal {}: {:+.1}% wall vs {} (budget {:+.0}%)",
                row.point,
                (row.wall_s / off.wall_s - 1.0) * 100.0,
                off.point,
                JOURNAL_OVERHEAD_BUDGET * 100.0
            );
        }
    }
}

/// The `bench` subcommand: `bench [SWEEP]... [--out FILE]` runs the
/// sweeps (all by default) and writes their rows to `FILE`, by default
/// [`RESULTS_PATH`]; `bench --check [SWEEP]...` re-runs them and gates
/// against [`RESULTS_PATH`], writing rows only when given `--out`.
/// Selecting `trace` also runs `perf`, whose [`TRACE_BASE_POINT`] row
/// is the untraced side of the overhead comparison.
pub fn command(args: &[String], usage: &str) -> ExitCode {
    let mut check = false;
    let mut out: Option<String> = None;
    let mut names: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("error: --out needs a path\n{usage}");
                    return ExitCode::from(2);
                }
            },
            name if sweep_named(name).is_some() => names.push(name),
            other => {
                eprintln!("error: unknown sweep '{other}'\n{usage}");
                return ExitCode::from(2);
            }
        }
    }
    if names.contains(&"trace") {
        names.push("perf");
    }
    let selected: Vec<&Sweep> = SWEEPS
        .iter()
        .filter(|s| names.is_empty() || names.contains(&s.name))
        .collect();

    let baseline = if check {
        let rows = std::fs::read_to_string(RESULTS_PATH)
            .map(|text| parse_file(&text))
            .unwrap_or_default();
        if rows.is_empty() {
            progress!("bench: no committed rows in {RESULTS_PATH}");
            return ExitCode::FAILURE;
        }
        Some(rows)
    } else {
        None
    };

    let seed = crate::seed();
    let rows = run(&selected, seed);
    if let Some(out) = out.or_else(|| (!check).then(|| RESULTS_PATH.to_string())) {
        std::fs::write(&out, render_file(&rows, seed)).expect("write results file");
        progress!("bench: wrote {} rows to {out}", rows.len());
    }
    report_journal_overhead(&rows);
    let failures = gate(&rows, baseline.as_deref());
    for failure in &failures {
        progress!("bench: FAIL {failure}");
    }
    if failures.is_empty() {
        progress!("bench: {} rows, all gates passed", rows.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(sweep: &str, point: &str, domains: usize, sessions_per_s: f64) -> Row {
        Row {
            sweep: sweep.to_string(),
            point: point.to_string(),
            domains,
            shards: 1,
            rounds: ROUNDS,
            sessions: domains,
            wall_s: 1.0,
            wall_s_median: 1.25,
            sessions_per_s,
            phases: PhaseTimes {
                setup_s: 0.02,
                simulate_s: 0.95,
                merge_s: 0.002,
                persist_s: 0.0,
            },
            shard_wall_ms: vec![950.0],
            delivered: domains,
            rejected: 0,
            dead: 0,
            queries_logged: 6 * domains,
            events: 40 * domains as u64,
            content_hash: format!("hash-of-{domains}"),
            faults: FaultStats::default(),
            shards_demoted: 0,
            journal_bytes: 0,
            trace_events: if sweep == "trace" { 90_000 } else { 0 },
        }
    }

    #[test]
    fn row_roundtrips_through_render_and_parse() {
        let mut classes = [0; MalformedClass::ALL.len()];
        for (i, n) in classes.iter_mut().enumerate() {
            *n = 100 + i as u64;
        }
        let mut counters = FaultStats::default().counters();
        for (i, n) in counters.iter_mut().enumerate() {
            *n = 1 + i as u64;
        }
        let faults = FaultStats::from_counters(counters, MalformedStats::from_counts(classes));
        let rows = vec![
            Row {
                point: "journal off".to_string(),
                rejected: 7,
                dead: 93,
                faults,
                shards_demoted: 1,
                journal_bytes: 1_879_352,
                shard_wall_ms: vec![1.5, 2.5, 1000.0],
                ..row("io", "x", 1_000, 1987.5)
            },
            Row {
                shard_wall_ms: vec![],
                ..row("trace", "2k/shards=1/tracing", 2_000, 2000.0)
            },
        ];
        let text = render_file(&rows, 2021);
        assert_eq!(text.lines().filter(|l| l.contains("\"sweep\"")).count(), 2);
        assert_eq!(parse_file(&text), rows);
    }

    #[test]
    fn gate_flags_each_violation() {
        let committed = vec![
            row("perf", "2k/shards=1", 2_000, 2000.0),
            row("perf", "2k/shards=2", 2_000, 2000.0),
        ];
        let clean = vec![
            row("perf", "2k/shards=1", 2_000, 2000.0),
            row("perf", "2k/shards=2", 2_000, 1900.0),
            row("trace", "2k/shards=1/tracing", 2_000, 1850.0),
            row("io", "rate=0", 1_000, 2000.0),
            row("io", "rate=0.2", 1_000, 2100.0),
            row("chaos", "loss=0", 1_000, 2000.0),
            Row {
                content_hash: "lossy".to_string(),
                ..row("chaos", "loss=0.2", 1_000, 2000.0)
            },
        ];
        assert_eq!(gate(&clean, Some(&committed)), Vec::<String>::new());

        type Break = fn(&mut Row);
        let cases: [(&str, usize, Break); 8] = [
            ("sessions/s", 1, |r| r.sessions_per_s = 1780.0),
            ("setup share", 1, |r| r.phases.setup_s = 0.31 / 0.69 * 0.952),
            ("tracer off", 0, |r| r.sessions_per_s = 1970.0),
            ("tracer on", 2, |r| r.sessions_per_s = 1780.0),
            ("content hash", 2, |r| r.content_hash = "traced".to_string()),
            ("no trace events", 2, |r| r.trace_events = 0),
            ("content hash", 4, |r| {
                r.content_hash = "faulted".to_string()
            }),
            ("content hash", 1, |r| {
                r.content_hash = "sharded".to_string()
            }),
        ];
        for (expected, index, break_row) in cases {
            let mut rows = clean.clone();
            break_row(&mut rows[index]);
            let failures = gate(&rows, Some(&committed));
            assert_eq!(failures.len(), 1, "{expected}: {failures:?}");
            assert!(failures[0].contains(expected), "{expected}: {failures:?}");
        }

        let mut unhashed = clean.clone();
        unhashed[4].content_hash = "faulted".to_string();
        assert_eq!(
            gate(&unhashed, None).len(),
            1,
            "output checks run without a baseline"
        );
        assert!(gate(&clean[2..], Some(&committed))[0].contains("needs committed and fresh"));
    }
}
