//! Steadiness mode: run each workload several times, each in its own
//! process with its own seed, and print per metric the median and the
//! quartile spread of the normalized and of the raw values. Bounds in
//! `BENCHMARK.json` are set from these spreads; the raw column shows the
//! drift that normalization removes.

use crate::report::read_metrics;
use crate::stats::{median, spread};
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// One metric's values over the runs.
struct Column {
    name: String,
    values: Vec<f64>,
    raw: Vec<f64>,
}

/// Run `runs` end-to-end runs of each workload (seeds `seed`,
/// `seed + 1`, ...) and print the spread table to stdout.
pub fn run(workloads: &[Workload], seed: u64, seconds: u64, r0: f64, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = PathBuf::from(".bench_work/steady");
    let mut all_ok = true;
    println!(
        "{:<16} {:<16} {:>12} {:>8} {:>12} {:>8}",
        "workload", "metric", "median", "spread", "raw median", "raw sprd"
    );
    for workload in workloads {
        let mut columns: Vec<Column> = Vec::new();
        for i in 0..runs as u64 {
            let out = dir.join(format!("{}-{i}.json", workload.name()));
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &(seed + i).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0", "--r0", &r0.to_string()])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
            let text = match status {
                Ok(s) if s.success() => std::fs::read_to_string(&out).unwrap_or_default(),
                other => {
                    eprintln!(
                        "{} seed {}: run failed: {other:?}",
                        workload.name(),
                        seed + i
                    );
                    all_ok = false;
                    continue;
                }
            };
            let r = text
                .lines()
                .find_map(|l| l.trim().strip_prefix("\"r_s\":"))
                .and_then(|v| v.trim().trim_end_matches(',').parse::<f64>().ok());
            let mut metrics = read_metrics(&text);
            if let Some(r) = r {
                metrics.push(("R".to_string(), r, Some(r)));
            }
            for (name, value, raw) in metrics {
                let column = match columns.iter().position(|c| c.name == name) {
                    Some(i) => &mut columns[i],
                    None => {
                        columns.push(Column {
                            name: name.clone(),
                            values: Vec::new(),
                            raw: Vec::new(),
                        });
                        columns.last_mut().expect("just pushed")
                    }
                };
                column.values.push(value);
                column.raw.push(raw.unwrap_or(value));
            }
        }
        for c in &columns {
            println!(
                "{:<16} {:<16} {:>12.6} {:>7.2}% {:>12.6} {:>7.2}%",
                workload.name(),
                c.name,
                median(&c.values),
                spread(&c.values) * 100.0,
                median(&c.raw),
                spread(&c.raw) * 100.0
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
