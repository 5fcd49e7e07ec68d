//! Digests pinned at [`crate::workloads::DEFAULT_SEED`].
//!
//! A change that only claims speed must leave all of these as they
//! are. A deliberate change to the simulation re-pins them here, in a
//! change of its own.

use crate::workloads::Workload;

/// `CampaignResult::content_hash` of each campaign workload.
const CONTENT_HASH: [(Workload, &str); 2] = [
    (
        Workload::NotifyEmail,
        "75717ce238f1bc4ebdf19d6c61c7082e6cac3362251e3d8abc10bae94c3e9292",
    ),
    (
        Workload::ProbeBattery,
        "544d33fd3509dd105971d837ec98e9961907904255bb04f89f06a83dea79bc32",
    ),
];

/// SHA-256 of the concatenated `--all` render of `artifacts_warm`.
const ARTIFACTS_TEXT: &str = "298c5f6662369c77e907be73f50e200ae9fa55e1ca0a3e92aec3d0091dbb2ec6";

/// SHA-256 of `metrics_json` of each campaign workload's traced
/// `MetricsRegistry` (virtual-time histograms and counts).
const METRICS_DIGEST: [(Workload, &str); 2] = [
    (
        Workload::NotifyEmail,
        "f710860d2b0e8a1bef9c3fa1f6af383c2a21d17ad827cba07900e6ad0036ba0a",
    ),
    (
        Workload::ProbeBattery,
        "116acd499e9cc6bc6513c7535071039ff9b70954a1b32acf9165649f56a5ebd1",
    ),
];

fn parse(hex: &str) -> Option<[u8; 32]> {
    if hex.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).ok()?;
    }
    Some(out)
}

fn lookup(table: &[(Workload, &str)], workload: Workload) -> Option<[u8; 32]> {
    table
        .iter()
        .find(|(w, _)| *w == workload)
        .and_then(|(_, hex)| parse(hex))
}

/// The pinned content hash of a campaign workload, if pinned.
pub fn content_hash(workload: Workload) -> Option<[u8; 32]> {
    lookup(&CONTENT_HASH, workload)
}

/// The pinned digest of the rendered artifact text, if pinned.
pub fn artifacts_text() -> Option<[u8; 32]> {
    parse(ARTIFACTS_TEXT)
}

/// The pinned `MetricsRegistry` digest of a campaign workload, if
/// pinned.
pub fn metrics_digest(workload: Workload) -> Option<[u8; 32]> {
    lookup(&METRICS_DIGEST, workload)
}
