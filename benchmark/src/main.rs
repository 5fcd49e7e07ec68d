//! `mailval-benchmark`: the campaign benchmark.
//!
//! ```text
//! mailval-benchmark --workload notify_email --seed 7 --seconds 20 --trace 0 --r0 0.08
//! mailval-benchmark --steady 5 --seconds 20 --r0 0.08 [--workload W]
//! ```
//!
//! One process runs one workload on one thread. Timed repetitions are
//! interleaved with reference blocks ([`reference`]) and every host time
//! is reported as `raw × R0 / R`. The last line of stdout is the result
//! object; progress and the metric table go to stderr, and the full
//! result with provenance goes to a result file. See `README.md`.

mod layers;
mod pins;
mod reference;
mod report;
mod stats;
mod steady;
mod workloads;

use report::{Metric, Provenance, Series};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{
    artifacts_env, artifacts_pass, artifacts_setup_s, campaign_rep, campaign_setup_s, dir_bytes,
    hex, remove_dir, sub_seeds, verify_campaign, CampaignRep, CampaignSpec, Workload, DEFAULT_SEED,
    INPUT_SETS,
};

const USAGE: &str = "\
usage: mailval-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] --r0 R0 [--out FILE]
       mailval-benchmark --steady RUNS [--workload W] [--seed N] [--seconds S] --r0 R0

workloads: notify_email, probe_battery, artifacts_warm
  --seed N      input seed (default 2021, the seed the digests are pinned at)
  --seconds S   measuring time per run (default 10)
  --trace 1     per-layer run instead of the end-to-end run
  --r0 R0       reference constant, seconds (committed in BENCHMARK.json)
  --out FILE    result file (default .bench_work/results/<workload>-s<seed>-t<trace>.json)
  --steady RUNS run each workload RUNS times (seeds N, N+1, ...) and print
                median and quartile spread of raw and normalized metrics";

/// Cycles over the input sets (end-to-end) or traced iterations every
/// run makes, however short `--seconds` is; two, so that every input
/// set's repetitions can be compared with each other.
pub const MIN_CYCLES: usize = 2;

/// Parsed command line.
pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    r0: Option<f64>,
    out: Option<PathBuf>,
    steady: Option<usize>,
    populate: Option<PathBuf>,
    peak_unit: Option<PathBuf>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
            r0: None,
            out: None,
            steady: None,
            populate: None,
            peak_unit: None,
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            let bad = |what: &str| format!("bad {flag} value '{what}'");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    parsed.workload = Some(Workload::parse(&v).ok_or(bad(&v))?);
                }
                "--seed" => {
                    let v = value()?;
                    parsed.seed = v.parse().map_err(|_| bad(&v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    parsed.seconds = v.parse().map_err(|_| bad(&v))?;
                }
                "--trace" => {
                    let v = value()?;
                    parsed.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&v)),
                    };
                }
                "--r0" => {
                    let v = value()?;
                    let r0: f64 = v.parse().map_err(|_| bad(&v))?;
                    if !(r0 > 0.0 && r0.is_finite()) {
                        return Err(bad(&v));
                    }
                    parsed.r0 = Some(r0);
                }
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--steady" => {
                    let v = value()?;
                    parsed.steady = Some(v.parse().map_err(|_| bad(&v))?);
                }
                "--populate" => parsed.populate = Some(PathBuf::from(value()?)),
                "--peak-unit" => parsed.peak_unit = Some(PathBuf::from(value()?)),
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(parsed)
    }
}

/// Verified operations: every repetition and every pin check is one.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or did not pass verification.
    pub failed: u64,
}

impl Ops {
    /// Count one operation; report and count a failure.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("[benchmark] CHECK FAILED: {what}: {e}");
                false
            }
        }
    }

    /// Completed-and-verified share of the attempted operations.
    pub fn completed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Per-run measuring state: the interleaved reference blocks and the
/// clock.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring seconds.
    pub seconds: u64,
    /// The reference constant.
    pub r0: f64,
    /// Scratch directory of this run.
    pub work: PathBuf,
    /// Verified operations.
    pub ops: Ops,
    /// Every reference block's seconds.
    pub blocks: Vec<f64>,
    start: Instant,
}

/// Reference-kernel time as a share of the timed work it is interleaved
/// with.
const KERNEL_SHARE: f64 = 0.15;

impl Ctx {
    /// Run reference blocks until their summed time reaches
    /// [`KERNEL_SHARE`] of the work measured since the clock started.
    /// Call it only once the last repetition's values are dropped, so the
    /// kernel never runs beside the program's live heap.
    pub fn block_if_due(&mut self) {
        let mut kernel: f64 = self.blocks.iter().sum();
        let work = self.start.elapsed().as_secs_f64() - kernel;
        while kernel < KERNEL_SHARE * work {
            let block = reference::block();
            self.blocks.push(block);
            kernel += block;
        }
    }

    /// Start the measuring clock (after untimed set-up and warm-up) with
    /// one reference block, so the first repetition has a block before it
    /// as every later one does.
    pub fn start_clock(&mut self) {
        self.start = Instant::now();
        self.blocks.push(reference::block());
    }

    /// Keep measuring: fewer than [`MIN_CYCLES`] cycles done, or another
    /// cycle (of the mean length so far) would end nearer to `--seconds`
    /// than stopping now does. Runs measure whole cycles, so every input
    /// set weighs the same.
    pub fn more(&self, cycles: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let cycle = elapsed / cycles.max(1) as f64;
        cycles < MIN_CYCLES || elapsed + cycle / 2.0 < self.seconds as f64
    }

    /// `R`: the run's summed reference time over its number of blocks.
    pub fn r(&self) -> f64 {
        self.blocks.iter().sum::<f64>() / self.blocks.len().max(1) as f64
    }

    /// The normalization factor `R0 / R` for every host time.
    pub fn norm(&self) -> f64 {
        let r = self.r();
        if r > 0.0 {
            self.r0 / r
        } else {
            0.0
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            if e.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program's progress channel would drown the benchmark's own.
    std::env::set_var("MAILVAL_QUIET", "1");

    if let Some(dir) = &args.populate {
        return match populate(args.seed, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: populate {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        };
    }
    if let (Some(dir), Some(workload)) = (&args.peak_unit, args.workload) {
        return match peak_unit(workload, args.seed, dir) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: unit in {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        };
    }
    let Some(r0) = args.r0 else {
        eprintln!("error: --r0 is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if let Some(runs) = args.steady {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        return steady::run(&workloads, args.seed, args.seconds, r0, runs);
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        r0,
        work: work.clone(),
        ops: Ops::default(),
        blocks: Vec::new(),
        start: Instant::now(),
    };
    eprintln!(
        "[benchmark] {} seed={} seconds={} trace={} shards=1 nproc={} cpu={:?}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc(),
        report::cpu_model()
    );
    let measured = if args.trace {
        layers::run(&mut ctx)
    } else {
        end_to_end(&mut ctx)
    };
    let _ = remove_dir(&work);
    let (metrics, repetitions, sessions) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };

    let correct = ctx.ops.failed == 0;
    let provenance = Provenance {
        workload: workload.name(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        repetitions,
        r: ctx.r(),
        blocks: ctx.blocks.clone(),
        r0,
        sessions,
    };
    eprintln!(
        "[benchmark] {} reps, R={:.6}s R0={r0}s, {}/{} operations verified\n{}",
        repetitions,
        provenance.r,
        ctx.ops.attempted - ctx.ops.failed,
        ctx.ops.attempted,
        report::describe(&metrics)
    );
    let out = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_work/results").join(format!(
            "{}-s{}-t{}.json",
            workload.name(),
            args.seed,
            u8::from(args.trace)
        ))
    });
    let file = report::result_file(
        &provenance,
        correct,
        ctx.ops.attempted,
        ctx.ops.failed,
        &metrics,
    );
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, file));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", out.display());
    }
    println!(
        "{}",
        report::result_line(correct, ctx.ops.attempted, ctx.ops.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-ups timed on their own after each repetition, so `setup_s`, the
/// shortest time measured, averages several samples per unit of work.
const EXTRA_SETUPS: usize = 3;

/// `(metrics, timed repetitions, sessions per unit of work)`.
pub type Measured = Result<(Vec<Metric>, usize, usize), String>;

/// The end-to-end run: every `end_to_end` metric of `BENCHMARK.json`.
fn end_to_end(ctx: &mut Ctx) -> Measured {
    match ctx.workload {
        Workload::ArtifactsWarm => artifacts_end_to_end(ctx),
        _ => campaign_end_to_end(ctx),
    }
}

/// The six end-to-end metrics from a run's series.
fn end_to_end_metrics(
    ctx: &Ctx,
    wall: &Series,
    setup: &Series,
    sessions: f64,
    peak_rss_mb: f64,
    store_bytes: f64,
) -> Vec<Metric> {
    let wall_m = wall.metric("wall_s", "s", ctx.norm(), 1.0);
    let setup_m = setup.metric("setup_s", "s", ctx.norm(), 1.0);
    let rate = |w: f64, s: f64| sessions / (w - s);
    let sessions_per_s = Metric {
        raw: Some(rate(wall_m.raw.unwrap_or(0.0), setup_m.raw.unwrap_or(0.0))),
        ..Metric::plain("sessions_per_s", "1/s", rate(wall_m.value, setup_m.value))
    };
    vec![
        wall_m,
        setup_m,
        sessions_per_s,
        Metric::plain("peak_rss_mb", "MB", peak_rss_mb),
        Metric::plain("store_mb", "MB", store_bytes / 1e6),
        Metric::plain("completed_share", "share", ctx.ops.completed_share()),
    ]
}

/// Verify a campaign repetition, counting it as one operation; the
/// first verified hash becomes the one every later repetition must
/// reproduce. Returns the repetition if it passed.
pub fn check_campaign(
    ctx: &mut Ctx,
    spec: &CampaignSpec,
    rep: std::io::Result<CampaignRep>,
    expected: &mut Option<[u8; 32]>,
    what: &str,
) -> Option<CampaignRep> {
    let outcome = match &rep {
        Ok(rep) => verify_campaign(spec, rep, &ctx.work, expected.as_ref()).map(|hash| {
            expected.get_or_insert(hash);
        }),
        Err(e) => Err(format!("repetition failed: {e}")),
    };
    if ctx.ops.record(what, outcome) {
        rep.ok()
    } else {
        None
    }
}

/// Check the pinned content hash of a campaign workload. At the default
/// seed the measured repetitions already carry the pin; at any other
/// seed one more (untimed) repetition runs at the default seed.
pub fn check_campaign_pin(ctx: &mut Ctx, measured_hash: Option<[u8; 32]>) {
    let Some(pin) = pins::content_hash(ctx.workload) else {
        if ctx.seed == DEFAULT_SEED {
            eprintln!(
                "[benchmark] {} content hash at the default seed (unpinned): {}",
                ctx.workload.name(),
                measured_hash.map_or("none".to_string(), |h| hex(&h))
            );
        }
        return;
    };
    if ctx.seed == DEFAULT_SEED {
        return;
    }
    let spec = CampaignSpec::new(ctx.workload, DEFAULT_SEED, &ctx.work.join("journal"));
    let rep = campaign_rep(&spec, &ctx.work, false);
    check_campaign(ctx, &spec, rep, &mut Some(pin), "pinned content hash");
}

fn campaign_end_to_end(ctx: &mut Ctx) -> Measured {
    let work = ctx.work.clone();
    let specs: Vec<CampaignSpec> = sub_seeds(ctx.seed, INPUT_SETS)
        .into_iter()
        .map(|seed| CampaignSpec::new(ctx.workload, seed, &work.join("journal")))
        .collect();
    let mut expected = vec![None; specs.len()];
    expected[0] = pins::content_hash(ctx.workload).filter(|_| ctx.seed == DEFAULT_SEED);

    // Warm-up: lets lazy set-up and the page cache settle.
    let warm = campaign_rep(&specs[0], &work, false);
    check_campaign(ctx, &specs[0], warm, &mut expected[0], "warm-up repetition");

    let (mut wall, mut setup) = (Series::default(), Series::default());
    let (mut sessions, mut store_bytes) = (Series::default(), Series::default());
    ctx.start_clock();
    let mut cycles = 0;
    while ctx.more(cycles) {
        for (spec, expected) in specs.iter().zip(&mut expected) {
            let rep = campaign_rep(spec, &work, false);
            if let Some(rep) = check_campaign(ctx, spec, rep, expected, "repetition") {
                wall.push(rep.wall_s);
                setup.push(rep.setup_s);
                sessions.push(rep.result.sessions.len() as f64);
                store_bytes.push(std::fs::metadata(&rep.entry).map_or(0, |m| m.len()) as f64);
            }
            for _ in 0..EXTRA_SETUPS {
                setup.push(campaign_setup_s(spec));
            }
            ctx.block_if_due();
        }
        cycles += 1;
    }
    let reps = wall.samples.len();
    let units: Vec<(u64, PathBuf)> = specs
        .iter()
        .enumerate()
        .map(|(j, spec)| (spec.seed, work.join(format!("unit-{j}"))))
        .collect();
    let peak = peak_rss_of_units(ctx, &units)?;
    check_campaign_pin(ctx, expected[0]);
    if reps == 0 {
        return Err("no repetition passed verification".to_string());
    }
    let metrics = end_to_end_metrics(
        ctx,
        &wall,
        &setup,
        sessions.mean(),
        peak,
        store_bytes.mean(),
    );
    Ok((metrics, reps, sessions.mean() as usize))
}

/// Run one unit of work of `workload` at `seed` in `dir` (a campaign's
/// scratch directory, or the populated store of a warm pass) and return
/// this process's peak RSS.
fn peak_unit(workload: Workload, seed: u64, dir: &Path) -> Result<f64, String> {
    if workload == Workload::ArtifactsWarm {
        let pass = artifacts_pass(artifacts_env(seed), dir, |_| true);
        if pass.simulated != 0 {
            return Err(format!("warm pass reports simulated={}", pass.simulated));
        }
    } else {
        let spec = CampaignSpec::new(workload, seed, &dir.join("journal"));
        campaign_rep(&spec, dir, false).map_err(|e| e.to_string())?;
    }
    Ok(report::peak_rss_mb())
}

/// `peak_rss_mb`: the mean over `(seed, dir)` units of the peak RSS of a
/// child process that runs that one unit of work, so the figure is one
/// unit's high-water mark, not the largest input set's or the heap
/// growth of repeated units in one process.
fn peak_rss_of_units(ctx: &Ctx, units: &[(u64, PathBuf)]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut total = 0.0;
    for (seed, dir) in units {
        let out = Command::new(&exe)
            .args(["--workload", ctx.workload.name()])
            .args(["--seed", &seed.to_string()])
            .arg("--peak-unit")
            .arg(dir)
            .output()
            .map_err(|e| e.to_string())?;
        let mb: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| {
                format!(
                    "peak-RSS child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        total += mb;
    }
    Ok(total / units.len().max(1) as f64)
}

/// Populate a fresh store at `dir` with every campaign `--all` needs
/// (a cold pass), writing the rendered text beside it as `DIR.txt`.
/// Runs in a child process so the parent's peak RSS covers warm passes
/// only.
fn populate(seed: u64, dir: &Path) -> Result<(), String> {
    remove_dir(dir).map_err(|e| e.to_string())?;
    let pass = artifacts_pass(artifacts_env(seed), dir, |_| true);
    if pass.simulated == 0 {
        return Err("the cold pass simulated nothing".to_string());
    }
    std::fs::write(dir.with_extension("txt"), pass.text).map_err(|e| e.to_string())
}

/// Run [`populate`] in a child process and return the cold text.
pub fn populate_in_child(seed: u64, dir: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("--populate")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("populate child exited with {status}"));
    }
    std::fs::read_to_string(dir.with_extension("txt")).map_err(|e| e.to_string())
}

/// Verify one warm pass: no simulation, text identical to the cold
/// render.
pub fn check_warm(ctx: &mut Ctx, pass: &workloads::ArtifactsPass, cold: &str, what: &str) -> bool {
    let outcome = if pass.simulated != 0 {
        Err(format!("warm pass reports simulated={}", pass.simulated))
    } else if pass.text != cold {
        Err("warm render differs from the cold render".to_string())
    } else {
        Ok(())
    };
    ctx.ops.record(what, outcome)
}

/// Check the pinned digest of the rendered text: at the default seed
/// against the measured cold render, at any other seed through one more
/// populate-and-warm-pass at the default seed.
pub fn check_artifacts_pin(ctx: &mut Ctx, cold: &str) {
    let Some(pin) = pins::artifacts_text() else {
        if ctx.seed == DEFAULT_SEED {
            eprintln!(
                "[benchmark] artifacts text sha256 at the default seed (unpinned): {}",
                hex(&mailval_crypto::sha256::sha256(cold.as_bytes()))
            );
        }
        return;
    };
    let text = if ctx.seed == DEFAULT_SEED {
        Ok(cold.to_string())
    } else {
        let dir = ctx.work.join("store-default");
        populate_in_child(DEFAULT_SEED, &dir).and_then(|cold| {
            let pass = artifacts_pass(artifacts_env(DEFAULT_SEED), &dir, |_| true);
            if pass.simulated == 0 && pass.text == cold {
                Ok(cold)
            } else {
                Err("default-seed warm pass does not reproduce its cold render".to_string())
            }
        })
    };
    let outcome = text.and_then(|text| {
        let digest = mailval_crypto::sha256::sha256(text.as_bytes());
        if digest == pin {
            Ok(())
        } else {
            Err(format!(
                "rendered text sha256 {} differs from the pin",
                hex(&digest)
            ))
        }
    });
    ctx.ops.record("pinned artifacts text", outcome);
}

fn artifacts_end_to_end(ctx: &mut Ctx) -> Measured {
    let seeds = sub_seeds(ctx.seed, INPUT_SETS);
    let mut stores = Vec::with_capacity(seeds.len());
    for (j, seed) in seeds.iter().enumerate() {
        let dir = ctx.work.join(format!("store-{j}"));
        let cold = populate_in_child(*seed, &dir)?;
        stores.push((artifacts_env(*seed), dir, cold));
    }

    let (env, dir, cold) = &stores[0];
    let warm = artifacts_pass(*env, dir, |_| true);
    check_warm(ctx, &warm, cold, "warm-up pass");
    drop(warm);

    let (mut wall, mut setup, mut sessions) =
        (Series::default(), Series::default(), Series::default());
    ctx.start_clock();
    let mut cycles = 0;
    while ctx.more(cycles) {
        for (env, dir, cold) in &stores {
            let pass = artifacts_pass(*env, dir, |_| true);
            if check_warm(ctx, &pass, cold, "warm pass") {
                wall.push(pass.wall_s);
                setup.push(pass.setup_s);
                sessions.push(pass.sessions as f64);
            }
            drop(pass);
            for _ in 0..EXTRA_SETUPS {
                setup.push(artifacts_setup_s(*env, dir));
            }
            ctx.block_if_due();
        }
        cycles += 1;
    }
    let reps = wall.samples.len();
    let units: Vec<(u64, PathBuf)> = seeds
        .iter()
        .copied()
        .zip(stores.iter().map(|s| s.1.clone()))
        .collect();
    let peak = peak_rss_of_units(ctx, &units)?;
    let store_bytes = stores
        .iter()
        .map(|(_, dir, _)| dir_bytes(dir) as f64)
        .sum::<f64>()
        / stores.len() as f64;
    check_artifacts_pin(ctx, &stores[0].2);
    if reps == 0 {
        return Err("no warm pass passed verification".to_string());
    }
    let metrics = end_to_end_metrics(ctx, &wall, &setup, sessions.mean(), peak, store_bytes);
    Ok((metrics, reps, sessions.mean() as usize))
}
