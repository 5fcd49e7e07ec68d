//! Metrics, normalization, provenance and the result file.

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`s`, `us`, `1/s`, `MB`, `count`, `share`, ...).
    pub unit: &'static str,
    /// The reported value (normalized for host times).
    pub value: f64,
    /// The raw host-time median behind a normalized value.
    pub raw: Option<f64>,
    /// Listed in `BENCHMARK.json`, so printed on the result line; the
    /// rest go to the result file and stderr only.
    pub listed: bool,
    /// The raw samples behind a host time.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A plain (not normalized) metric.
    pub fn plain(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            raw: None,
            listed: true,
            samples: Vec::new(),
        }
    }

    /// Mark the metric as a breakdown kept out of the result line.
    pub fn unlisted(mut self) -> Metric {
        self.listed = false;
        self
    }
}

/// Raw host-time samples of one quantity over a run.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// Raw seconds per sample.
    pub samples: Vec<f64>,
}

impl Series {
    /// Record one sample.
    pub fn push(&mut self, raw: f64) {
        self.samples.push(raw);
    }

    /// Mean raw value (0.0 without samples).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// A time metric: the mean raw value times the run's normalization
    /// factor `R0 / R`, with the raw mean beside it, both scaled by
    /// `scale` (1e6 for µs). The mean over the run, not a median: with
    /// one `R` per run, the run's summed time over its summed reference
    /// time is the estimate whose bursts of contention average out.
    pub fn metric(&self, name: &str, unit: &'static str, norm: f64, scale: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: self.mean() * norm * scale,
            raw: Some(self.mean() * scale),
            listed: true,
            samples: self.samples.clone(),
        }
    }
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer) run or not.
    pub trace: bool,
    /// Requested measuring seconds.
    pub seconds: u64,
    /// Timed repetitions.
    pub repetitions: usize,
    /// The run's reference time per block, seconds.
    pub r: f64,
    /// Every reference block, seconds.
    pub blocks: Vec<f64>,
    /// The committed reference constant, seconds.
    pub r0: f64,
    /// Sessions per unit of work.
    pub sessions: usize,
}

/// Commit of the checkout, read from `.git` without running git; the
/// benchmark also runs from exported trees, which have none.
pub fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values print as 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// listed metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The result file: provenance, outcome and every metric with its raw
/// value. One metric per line, so the steadiness mode can read it back
/// with [`read_metrics`].
pub fn result_file(
    p: &Provenance,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", json_str(p.workload));
    out.push_str("  \"provenance\": {\n");
    let fields = [
        ("seed", p.seed.to_string()),
        ("trace", u8::from(p.trace).to_string()),
        ("git_commit", json_str(&git_commit())),
        ("nproc", nproc().to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("shards", "1".to_string()),
        ("run_seconds", p.seconds.to_string()),
        ("repetitions", p.repetitions.to_string()),
        ("r_s", json_num(p.r)),
        ("r0_s", json_num(p.r0)),
        ("sessions", p.sessions.to_string()),
        (
            "reference_blocks_s",
            format!(
                "[{}]",
                p.blocks
                    .iter()
                    .map(|b| json_num(*b))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("    {}: {v}", json_str(k)))
        .collect();
    out.push_str(&fields.join(",\n"));
    out.push_str("\n  },\n");
    let _ = writeln!(
        out,
        "  \"correct\": {correct},\n  \"attempted\": {attempted},\n  \"failed\": {failed},"
    );
    out.push_str("  \"metrics\": {\n");
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            let raw = m
                .raw
                .map(|r| format!(", \"raw\": {}", json_num(r)))
                .unwrap_or_default();
            let samples: Vec<String> = m.samples.iter().map(|x| json_num(*x)).collect();
            format!(
                "    {}: {{\"value\": {}{raw}, \"unit\": {}, \"samples\": [{}]}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                samples.join(", ")
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Read back `(name, value, raw)` per metric from a result file written
/// by [`result_file`].
pub fn read_metrics(text: &str) -> Vec<(String, f64, Option<f64>)> {
    let field = |line: &str, key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            let name = line.strip_prefix('"')?.split('"').next()?;
            let value = field(line, "\"value\":")?;
            Some((name.to_string(), value, field(line, "\"raw\":")))
        })
        .collect()
}

/// Human-readable metric lines for stderr.
pub fn describe(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let raw = m.raw.map(|r| format!("  (raw {r:.6})")).unwrap_or_default();
        let _ = writeln!(out, "  {:<28} {:>16.6} {:<6}{raw}", m.name, m.value, m.unit);
    }
    out
}
