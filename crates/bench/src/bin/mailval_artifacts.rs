//! The unified artifact CLI: render any subset of the paper's tables
//! and figures from one process, simulating each needed campaign at
//! most once and serving everything else from the content-addressed
//! campaign store.
//!
//! ```text
//! mailval-artifacts table2 fig2          # two artifacts, shared store
//! mailval-artifacts --all                # the full suite
//! mailval-artifacts --list               # what exists
//! mailval-artifacts --store DIR table4   # explicit store directory
//! mailval-artifacts --no-store table4    # always simulate, never persist
//! mailval-artifacts bench [SWEEP]...     # campaign sweeps -> results/BENCH.json
//! mailval-artifacts bench --check        # re-run and gate against it
//! ```
//!
//! Artifact text goes to stdout; all progress (campaign content
//! hashes, store hit/miss, the final accounting line) goes to stderr
//! through the `[mailval]` channel.

use mailval_bench::artifacts::{by_name, Artifact, ALL};
use mailval_bench::{suites, CampaignRequest, Env, Runner};
use mailval_measure::progress;
use mailval_measure::store::CampaignStore;
use std::process::ExitCode;

const USAGE: &str = "\
usage: mailval-artifacts [OPTIONS] ARTIFACT...
       mailval-artifacts bench [SWEEP]... [--out FILE]
       mailval-artifacts bench --check [SWEEP]... [--out FILE]
       mailval-artifacts trace [--session N]... [--shard K/N] [--metrics] [--out FILE]
       mailval-artifacts fuzz [FRAMES]

Render the paper's tables and figures. Campaigns are simulated at most
once per store: results land in a content-addressed store and later
invocations (or later artifacts in the same invocation) reload them.

options:
  --all          render every artifact, in paper order
  --list         list artifact names and exit
  --store DIR    campaign store directory
                 (default: $MAILVAL_STORE, else results/store)
  --no-store     disable the store: always simulate, never persist
  -h, --help     this text

bench runs the campaign sweeps (perf trace chaos journal io hostile;
all by default) and writes one row per point to results/BENCH.json or
--out FILE; --check re-runs them and gates against results/BENCH.json,
writing rows only to an explicit --out FILE.

environment: MAILVAL_SCALE, MAILVAL_SEED, MAILVAL_SHARDS, MAILVAL_STORE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Measurement subcommands.
    if let Some(first) = args.first() {
        let out = args.get(1).cloned();
        match first.as_str() {
            "bench" => return suites::sweep::command(&args[1..], USAGE),
            "trace" => {
                // Chrome trace-event / metrics JSON export.
                return if suites::trace::export(&args[1..]) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                };
            }
            "fuzz" => {
                suites::fuzz::fuzz(out);
                return ExitCode::SUCCESS;
            }
            _ => {}
        }
    }

    let mut names: Vec<&'static str> = Vec::new();
    let mut all = false;
    let mut store_dir: Option<String> = None;
    let mut no_store = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list" => {
                for a in ALL {
                    println!("{:<12} {}", a.name, a.title);
                }
                return ExitCode::SUCCESS;
            }
            "--all" => all = true,
            "--no-store" => no_store = true,
            "--store" => match iter.next() {
                Some(dir) => store_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --store needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            name => match by_name(name) {
                Some(a) => names.push(a.name),
                None => {
                    eprintln!("error: unknown artifact '{name}' (try --list)");
                    return ExitCode::from(2);
                }
            },
        }
    }
    let selected: Vec<&'static Artifact> = if all {
        ALL.iter().collect()
    } else {
        names
            .iter()
            .map(|n| by_name(n).expect("validated"))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("error: no artifacts selected\n{USAGE}");
        return ExitCode::from(2);
    }

    let store = if no_store {
        None
    } else {
        let dir = store_dir
            .or_else(|| std::env::var("MAILVAL_STORE").ok())
            .unwrap_or_else(|| "results/store".to_string());
        Some(CampaignStore::new(dir))
    };
    let env = Env::from_env();
    progress!(
        "scale={} seed={} shards={} store={}",
        env.scale,
        env.seed,
        env.shards,
        store
            .as_ref()
            .map_or("off".to_string(), |s| s.root().display().to_string())
    );
    let mut runner = Runner::new(env, store);

    // Phase 1: resolve the union of campaign needs, first-use order, so
    // a batch like `fig2 table4 table5` runs NotifyEmail exactly once.
    let mut needed: Vec<CampaignRequest> = Vec::new();
    for a in &selected {
        for req in (a.needs)() {
            if !needed.contains(&req) {
                needed.push(req);
            }
        }
    }
    progress!(
        "{} artifact(s) selected, {} campaign(s) needed",
        selected.len(),
        needed.len()
    );
    for req in &needed {
        runner.campaign(req);
    }

    // Phase 2: render, all campaigns now memoized.
    for a in &selected {
        progress!("rendering {}", a.name);
        print!("{}", (a.render)(&mut runner));
    }
    progress!("{}", runner.summary());
    ExitCode::SUCCESS
}
