//! Content-addressed, durable storage for campaign results.
//!
//! The paper's tables and figures are all projections of a handful of
//! measurement campaigns; real studies therefore separate *collection*
//! from *analysis* so one expensive crawl can be re-analyzed many
//! times. This module gives the simulation the same run-once /
//! analyze-many shape: a completed [`CampaignResult`] is serialized to
//! one file under the store root, **keyed by a content hash of
//! everything that determines the result** — the [`CampaignConfig`]
//! (campaign kind, probe set, seed, pause, latency model, fault plan,
//! shard count, session budget), the dataset kind, the population
//! scale and seed, and the profile derivation. A stale file can never
//! serve wrong data: a config change produces a different hash (a
//! different file), and the stored header repeats the full hash so
//! even a filename collision is caught at load time.
//!
//! On-disk format, in the `codec` encoding and framing shared
//! with the journal (magic + length-prefixed CRC-32 frames):
//!
//! ```text
//! file   := magic frames*
//! magic  := "MVALSTO1"                          (8 bytes)
//! frame  := len:u32le crc:u32le payload         (crc = CRC-32/IEEE)
//! payload:= tag:u8 body
//! tags   := 0 header   (key hash, label, totals, fault + shard stats)
//!           1 sessions (chunk of SessionRecords)
//!           2 queries  (chunk of QueryRecords, canonical order)
//!           3 end      (totals again; nothing may follow)
//! ```
//!
//! [`CampaignStore::load`] verifies the magic, every frame's length and
//! CRC, the header hash against the requested key, the chunk counts
//! against the header totals, and that the end frame is the last byte
//! of the file. The header totals size allocations only up to what the
//! entry's bytes can hold.
//! **Any** mismatch — torn tail, bit flip, stale key, short write —
//! returns a [`StoreError`], and the caller falls back to re-running
//! the campaign; corruption is never a panic and never trusted data.
//!
//! All store IO goes through the [`crate::vfs`] seam, so the
//! deterministic IO fault layer ([`mailval_simnet::IoPlan`]) exercises
//! the same save/load paths production uses: a failed save degrades to
//! store-off behavior, a corrupted read is just another clean miss.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::apparatus::QueryLog;
use crate::campaign::{CampaignConfig, CampaignKind, CampaignResult};
use crate::codec::{Codec, Dec, Enc, FrameError};
use crate::vfs::{OsFs, Vfs};
use mailval_crypto::sha256::sha256;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic: identifies a mailval campaign store entry, version 1.
pub const MAGIC: [u8; 8] = *b"MVALSTO1";
/// Records per sessions/queries chunk frame (bounds frame size well
/// under the codec's frame-length cap on huge campaigns).
const CHUNK: usize = 4096;
/// Domain-separation prefix mixed into every content hash; bump the
/// version suffix when the key encoding changes shape (v2 added the
/// hostile-payload knobs; v3 added the IO fault plan, the memory
/// budget and the `resource_shed`/`durability_lost` entry codec).
const KEY_DOMAIN: &[u8] = b"mailval-campaign-key-v3";

/// Encoded sizes of the smallest session and query records (every
/// option absent, root name): how many of each an entry's bytes can hold
/// at most.
const MIN_SESSION_LEN: usize = 38;
const MIN_QUERY_LEN: usize = 26;

const TAG_HEADER: u8 = 0;
const TAG_SESSIONS: u8 = 1;
const TAG_QUERIES: u8 = 2;
const TAG_END: u8 = 3;

// ---------------------------------------------------------------------------
// Content-addressed keys
// ---------------------------------------------------------------------------

/// Everything that determines a campaign's bytes, gathered for hashing.
///
/// The fields beyond `config` describe how the population and profiles
/// were derived (they are inputs to `run_campaign` but live outside
/// [`CampaignConfig`]): the dataset kind, its generation scale and
/// seed, and a label for the profile pipeline (`"base"`,
/// `"drift:0.05"`, `"providers"`, ...).
#[derive(Debug, Clone)]
pub struct KeySpec<'a> {
    /// The campaign configuration to fingerprint.
    pub config: &'a CampaignConfig,
    /// Dataset label (e.g. `"NotifyEmail"`, `"TwoWeekMx"`,
    /// `"providers"`).
    pub dataset: &'a str,
    /// Population scale relative to the paper (`MAILVAL_SCALE`).
    pub scale: f64,
    /// Population generation seed.
    pub population_seed: u64,
    /// Profile-derivation label.
    pub profiles: &'a str,
}

/// Append the listed fields of each value, in order.
macro_rules! put_fields {
    ($enc:ident; $($v:expr => $($field:ident),*;)*) => {
        $($($enc.put(&$v.$field);)*)*
    };
}

impl KeySpec<'_> {
    /// Compute the content-addressed key for this spec.
    ///
    /// Durability-only knobs (`journal_dir`, `resume`, `fsync_every`,
    /// `supervisor`) are deliberately excluded: they cannot change a
    /// completed campaign's output, only how it survives crashes.
    /// Everything else — including the shard count and the IO fault
    /// plan, which are output-invariant by construction but cheap to
    /// key on — is hashed, so changing any knob forces a re-run.
    pub fn key(&self) -> CampaignKey {
        let c = self.config;
        let mut enc = Enc(KEY_DOMAIN.to_vec());
        enc.put(&kind_tag(c.kind));
        enc.put(&c.tests.len());
        for t in &c.tests {
            enc.str(t);
        }
        put_fields!(enc;
            c => seed, probe_pause_ms;
            c.latency => base_one_way_ms, spread_ms, loss_probability, seed;
            c.faults => duplicate_probability, reorder_probability, reorder_delay_ms,
                truncate_probability, conn_reset_probability, conn_stall_probability,
                conn_stall_ms, seed, crash_after_sessions;
            c.payload => dns_corrupt_probability, smtp_corrupt_probability, seed;
            c.io => enospc_after_bytes, short_write_probability, fsync_fail_probability,
                rename_fail_probability, read_corrupt_probability, seed;
            c => shards;
            c.budget => max_virtual_ms, max_events;
            c.memory => max_session_bytes, max_pending_events;
        );
        enc.str(self.dataset);
        enc.put(&self.scale);
        enc.put(&self.population_seed);
        enc.str(self.profiles);
        CampaignKey {
            hash: sha256(&enc.0),
            label: format!(
                "{}/{:?}/tests={}/profiles={}",
                self.dataset,
                c.kind,
                if c.tests.is_empty() {
                    "-".to_string()
                } else {
                    c.tests.join("+")
                },
                self.profiles
            ),
        }
    }
}

fn kind_tag(kind: CampaignKind) -> u8 {
    match kind {
        CampaignKind::NotifyEmail => 0,
        CampaignKind::NotifyMx => 1,
        CampaignKind::TwoWeekMx => 2,
    }
}

/// A campaign's content-addressed identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignKey {
    /// SHA-256 over the canonical encoding of every result-determining
    /// knob.
    pub hash: [u8; 32],
    /// Human-readable description for progress lines and diagnostics
    /// (not part of the identity).
    pub label: String,
}

impl CampaignKey {
    /// The short hex form used in filenames and progress lines.
    pub fn short_hex(&self) -> String {
        self.hash[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a store entry could not be served. Every variant is a clean
/// miss: the caller re-runs the campaign and overwrites the entry.
#[derive(Debug)]
pub enum StoreError {
    /// No entry file for this key.
    Missing,
    /// The file exists but is not a version-1 store entry.
    BadMagic,
    /// A frame was torn, its CRC failed, or bytes trail the end frame.
    Corrupt(&'static str),
    /// A frame payload failed to decode.
    Frame(FrameError),
    /// The entry's stored hash is not the requested key (stale config
    /// or filename collision).
    KeyMismatch,
    /// The entry decoded but its totals disagree with its chunks.
    CountMismatch,
    /// Underlying I/O failure while reading.
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing => write!(f, "no store entry"),
            StoreError::BadMagic => write!(f, "bad store magic"),
            StoreError::Corrupt(what) => write!(f, "corrupt entry: {what}"),
            StoreError::Frame(e) => write!(f, "undecodable frame: {e}"),
            StoreError::KeyMismatch => write!(f, "stale entry (key mismatch)"),
            StoreError::CountMismatch => write!(f, "entry totals disagree with chunks"),
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Frame(e)
    }
}

/// How a stored-campaign request was satisfied (surfaced in progress
/// lines and counted by the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreStatus {
    /// Served from disk.
    Hit,
    /// Simulated (and persisted); the payload says why the entry could
    /// not be served (`"cold"` for a simply-missing entry).
    Miss(String),
    /// No store configured; simulated without persistence.
    Off,
}

impl StoreStatus {
    /// `true` when the campaign had to be simulated.
    pub fn simulated(&self) -> bool {
        !matches!(self, StoreStatus::Hit)
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A directory of content-addressed campaign results.
pub struct CampaignStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CampaignStore {
    /// Open (lazily — the directory is created on first save) a store
    /// rooted at `root`, on the real filesystem.
    pub fn new(root: impl Into<PathBuf>) -> CampaignStore {
        CampaignStore::new_with_vfs(root, Arc::new(OsFs))
    }

    /// Open a store whose every IO operation goes through `vfs` (the
    /// fault-injection seam). Opening sweeps orphaned `*.camp.tmp`
    /// files — the residue of saves that died between write and rename
    /// — so a crashed run can never accumulate junk.
    pub fn new_with_vfs(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> CampaignStore {
        let store = CampaignStore {
            root: root.into(),
            vfs,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        };
        store.sweep_orphans();
        store
    }

    /// Remove leftover temporary entries under the root. Best-effort:
    /// a sweep failure (missing root, unremovable file) costs nothing
    /// but disk — every load path already ignores `.camp.tmp` files.
    fn sweep_orphans(&self) {
        let Ok(entries) = self.vfs.list_dir(&self.root) else {
            return;
        };
        for path in entries {
            let is_orphan = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".camp.tmp"));
            if is_orphan {
                match self.vfs.remove_file(&path) {
                    Ok(()) => crate::progress!("store: swept orphan {}", path.display()),
                    Err(e) => {
                        crate::progress!("store: could not sweep orphan {}: {e}", path.display())
                    }
                }
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Entry filename for a key: the first 16 hash bytes, hex.
    pub fn path_for(&self, key: &CampaignKey) -> PathBuf {
        let hex: String = key.hash[..16].iter().map(|b| format!("{b:02x}")).collect();
        self.root.join(format!("{hex}.camp"))
    }

    /// Loads served since this store was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed loads (any [`StoreError`]) since this store was opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Load the result stored for `key`, verifying framing, checksums,
    /// the embedded key hash and the totals. Every failure is a clean
    /// [`StoreError`] — the caller re-runs the campaign.
    pub fn load(&self, key: &CampaignKey) -> Result<CampaignResult, StoreError> {
        let result = self.load_inner(key);
        match &result {
            Ok(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn load_inner(&self, key: &CampaignKey) -> Result<CampaignResult, StoreError> {
        let path = self.path_for(key);
        let data = match self.vfs.read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::Missing),
            Err(e) => return Err(StoreError::Io(e)),
        };
        decode_entry(&data, key)
    }

    /// Persist `result` under `key`. The entry is written to a
    /// temporary sibling and renamed into place, so a crash mid-save
    /// leaves either the old entry or none — never a torn one at the
    /// final path. A failed rename removes the temporary before
    /// reporting the error, so a fault-heavy run leaves no residue.
    pub fn save(&self, key: &CampaignKey, result: &CampaignResult) -> io::Result<PathBuf> {
        self.vfs.create_dir_all(&self.root)?;
        let path = self.path_for(key);
        let tmp = path.with_extension("camp.tmp");
        let bytes = encode_entry(key, result);
        let write = (|| -> io::Result<()> {
            let mut file = self.vfs.open_write(&tmp, true)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = self.vfs.remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = self.vfs.rename(&tmp, &path) {
            let _ = self.vfs.remove_file(&tmp);
            return Err(e);
        }
        Ok(path)
    }
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

fn push_chunks<T: Codec>(out: &mut Enc, tag: u8, items: &[T]) {
    for chunk in items.chunks(CHUNK) {
        out.push_frame(|enc| {
            enc.put(&tag);
            enc.seq(chunk);
        });
    }
}

/// Serialize a complete store entry (magic + all frames).
pub fn encode_entry(key: &CampaignKey, result: &CampaignResult) -> Vec<u8> {
    let totals = (result.sessions.len(), result.log.records.len());
    let mut out = Enc(MAGIC.to_vec());
    out.push_frame(|enc| {
        enc.put(&TAG_HEADER);
        enc.put(&key.hash);
        enc.str(&key.label);
        enc.put(&totals);
        enc.put(&result.events);
        enc.put(&result.partial);
        enc.put(&result.faults);
        enc.put(&result.shard_stats.len());
        for s in &result.shard_stats {
            enc.put(s);
        }
    });
    // Session chunks in global session order, then query chunks in the
    // log's canonical order.
    push_chunks(&mut out, TAG_SESSIONS, &result.sessions);
    push_chunks(&mut out, TAG_QUERIES, &result.log.records);
    // End frame: repeat the totals so a truncated chunk sequence that
    // still frames cleanly is caught by the count check.
    out.push_frame(|enc| enc.put(&(TAG_END, totals)));
    out.0
}

/// Decode and verify a complete store entry against `key`.
pub fn decode_entry(data: &[u8], key: &CampaignKey) -> Result<CampaignResult, StoreError> {
    let body = data
        .strip_prefix(MAGIC.as_slice())
        .ok_or(StoreError::BadMagic)?;
    // Verify every frame's length and CRC before touching any payload;
    // the walk must end exactly at the end of the file.
    let mut walker = Dec::new(body);
    let payloads: Vec<&[u8]> = std::iter::from_fn(|| walker.frame()).collect();
    if walker.finished().is_err() {
        return Err(StoreError::Corrupt("torn or corrupt frame"));
    }

    let mut iter = payloads.into_iter();
    let header = iter.next().ok_or(StoreError::Corrupt("no header frame"))?;
    let mut dec = Dec::new(header);
    if dec.get::<u8>()? != TAG_HEADER {
        return Err(StoreError::Corrupt("first frame is not the header"));
    }
    if dec.get::<[u8; 32]>()? != key.hash {
        return Err(StoreError::KeyMismatch);
    }
    let _label = dec.str()?;
    let totals: (usize, usize) = dec.get()?;
    let events = dec.get()?;
    let partial = dec.get()?;
    let faults = dec.get()?;
    let nshards: usize = dec.get()?;
    if nshards > 1 << 20 {
        return Err(StoreError::Corrupt("implausible shard count"));
    }
    let shard_stats = (0..nshards)
        .map(|_| dec.get())
        .collect::<Result<Vec<_>, _>>()?;
    dec.finished()?;

    // Pre-size by the header's totals, but never beyond what the bytes
    // present can hold: a corrupt count must not size an allocation.
    let mut sessions = Vec::with_capacity(totals.0.min(data.len() / MIN_SESSION_LEN));
    let mut log = QueryLog {
        records: Vec::with_capacity(totals.1.min(data.len() / MIN_QUERY_LEN)),
    };
    let mut end = None;
    for payload in iter {
        if end.is_some() {
            return Err(StoreError::Corrupt("frame after end frame"));
        }
        let mut dec = Dec::new(payload);
        match dec.get::<u8>()? {
            TAG_SESSIONS => dec.seq_into(&mut sessions)?,
            TAG_QUERIES => dec.seq_into(&mut log.records)?,
            TAG_END => end = Some(dec.get::<(usize, usize)>()?),
            TAG_HEADER => return Err(StoreError::Corrupt("duplicate header frame")),
            _ => return Err(StoreError::Frame(FrameError::BadTag)),
        }
        dec.finished()?;
    }
    if end.is_none() {
        return Err(StoreError::Corrupt("missing end frame"));
    }
    if end != Some(totals) || (sessions.len(), log.records.len()) != totals {
        return Err(StoreError::CountMismatch);
    }

    // The log was stored canonical; re-sorting is an idempotent
    // belt-and-suspenders (stable sort, same key).
    log.sort_canonical();
    Ok(CampaignResult {
        log,
        sessions,
        events,
        faults,
        shard_stats,
        partial,
        // Phase timings and telemetry are observability about the
        // producing run, not campaign output; a store hit costs no
        // setup or simulation and carries no trace.
        phases: crate::campaign::PhaseTimes::default(),
        telemetry: None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, sample_host_profiles};
    use crate::vfs::SimFs;
    use mailval_datasets::{DatasetKind, Population, PopulationConfig};
    use mailval_simnet::{FaultConfig, IoConfig, IoPlan, PayloadConfig};

    fn tiny_result(seed: u64) -> (CampaignConfig, Population, CampaignResult) {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::NotifyEmail,
            scale: 0.002,
            seed,
        });
        let profiles = sample_host_profiles(&pop, seed);
        let config = CampaignConfig {
            kind: CampaignKind::NotifyEmail,
            seed,
            probe_pause_ms: 0,
            shards: 2,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&config, &pop, &profiles);
        (config, pop, result)
    }

    fn spec<'a>(config: &'a CampaignConfig, seed: u64) -> KeySpec<'a> {
        KeySpec {
            config,
            dataset: "NotifyEmail",
            scale: 0.002,
            population_seed: seed,
            profiles: "base",
        }
    }

    fn temp_store(name: &str) -> CampaignStore {
        let dir =
            std::env::temp_dir().join(format!("mailval-store-tests-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignStore::new(dir)
    }

    fn assert_results_equal(a: &CampaignResult, b: &CampaignResult) {
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.log.records, b.log.records);
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.partial, b.partial);
        assert_eq!(a.shard_stats.len(), b.shard_stats.len());
        for (x, y) in a.shard_stats.iter().zip(&b.shard_stats) {
            assert_eq!(x.shard, y.shard);
            assert_eq!(x.sessions, y.sessions);
            assert_eq!(x.events, y.events);
            assert_eq!(x.queries_logged, y.queries_logged);
            assert_eq!(x.virtual_ms, y.virtual_ms);
            assert_eq!(x.wall_ms.to_bits(), y.wall_ms.to_bits());
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.restarts, y.restarts);
            assert_eq!(x.durability_lost, y.durability_lost);
        }
    }

    #[test]
    fn save_load_roundtrips_byte_identically() {
        let (config, _pop, result) = tiny_result(41);
        let store = temp_store("roundtrip");
        let key = spec(&config, 41).key();
        let path = store.save(&key, &result).unwrap();
        // The file is deterministic: re-encoding yields the same bytes.
        assert_eq!(std::fs::read(&path).unwrap(), encode_entry(&key, &result));
        let loaded = store.load(&key).unwrap();
        assert_results_equal(&loaded, &result);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_entry_is_a_clean_miss() {
        let (config, ..) = tiny_result(43);
        let store = temp_store("missing");
        let err = store.load(&spec(&config, 43).key()).unwrap_err();
        assert!(matches!(err, StoreError::Missing));
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn truncated_tail_is_rejected_never_a_panic() {
        let (config, _pop, result) = tiny_result(47);
        let store = temp_store("truncated");
        let key = spec(&config, 47).key();
        let path = store.save(&key, &result).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Every possible truncation point must fail cleanly.
        for cut in [
            0,
            4,
            MAGIC.len(),
            MAGIC.len() + 3,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                store.load(&key).is_err(),
                "cut at {cut} must not load as valid"
            );
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn bit_flipped_frame_is_rejected() {
        let (config, _pop, result) = tiny_result(53);
        let store = temp_store("bitflip");
        let key = spec(&config, 53).key();
        let path = store.save(&key, &result).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte at a spread of positions (header, middle, tail).
        for at in [9, clean.len() / 3, clean.len() / 2, clean.len() - 2] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(store.load(&key).is_err(), "flip at {at} must be rejected");
        }
        // Trailing garbage after the end frame is also rejected.
        let mut bytes = clean.clone();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key).is_err());
        // And the pristine bytes still load.
        std::fs::write(&path, &clean).unwrap();
        assert!(store.load(&key).is_ok());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_single_byte_flip_is_rejected_never_a_panic() {
        let (config, _pop, mut result) = tiny_result(59);
        // Keep the entry small so the exhaustive byte sweep stays fast; the
        // header counts are derived from the vectors at save time, so a
        // truncated result is still a perfectly well-formed entry.
        result.sessions.truncate(2);
        result.log.records.truncate(2);
        let store = temp_store("flipsweep");
        let key = spec(&config, 59).key();
        let path = store.save(&key, &result).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Exhaustive: a hostile byte anywhere in the entry must yield a clean
        // error, never a panic and never a silently different result.
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(store.load(&key).is_err(), "flip at {at} must be rejected");
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(store.load(&key).is_ok());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_key_is_rejected_at_load() {
        let (config, _pop, result) = tiny_result(59);
        let store = temp_store("stale");
        let key = spec(&config, 59).key();
        store.save(&key, &result).unwrap();
        // Same file, different expected key: refuse to serve.
        let mut other = key.clone();
        other.hash[0] ^= 1;
        std::fs::rename(store.path_for(&key), store.path_for(&other)).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(matches!(err, StoreError::KeyMismatch));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn every_result_determining_knob_changes_the_hash() {
        let base_config = CampaignConfig {
            kind: CampaignKind::TwoWeekMx,
            tests: vec!["t01", "t06"],
            seed: 2021,
            shards: 4,
            ..CampaignConfig::default()
        };
        let base = KeySpec {
            config: &base_config,
            dataset: "TwoWeekMx",
            scale: 1.0,
            population_seed: 2021,
            profiles: "base",
        };
        let base_hash = base.key().hash;
        let changed = |config: &CampaignConfig| KeySpec { config, ..base }.key().hash;

        // Campaign seed.
        let mut c = base_config.clone();
        c.seed = 2022;
        assert_ne!(changed(&c), base_hash, "seed must invalidate");
        // Scale (MAILVAL_SCALE).
        assert_ne!(
            KeySpec { scale: 0.5, ..base }.key().hash,
            base_hash,
            "scale must invalidate"
        );
        // Shard count.
        let mut c = base_config.clone();
        c.shards = 8;
        assert_ne!(changed(&c), base_hash, "shard count must invalidate");
        // Fault plan (each class of knob).
        let mut c = base_config.clone();
        c.faults.duplicate_probability = 0.01;
        assert_ne!(changed(&c), base_hash, "fault probability must invalidate");
        let mut c = base_config.clone();
        c.faults.seed = 7;
        assert_ne!(changed(&c), base_hash, "fault seed must invalidate");
        let mut c = base_config.clone();
        c.faults.crash_after_sessions = 10;
        assert_ne!(changed(&c), base_hash, "crash injection must invalidate");
        let mut c = base_config.clone();
        c.latency.loss_probability = 0.05;
        assert_ne!(changed(&c), base_hash, "loss probability must invalidate");
        // Probe set: membership and order.
        let mut c = base_config.clone();
        c.tests = vec!["t01"];
        assert_ne!(changed(&c), base_hash, "probe set must invalidate");
        let mut c = base_config.clone();
        c.tests = vec!["t06", "t01"];
        assert_ne!(changed(&c), base_hash, "probe order must invalidate");
        // Population inputs.
        assert_ne!(
            KeySpec {
                population_seed: 1,
                ..base
            }
            .key()
            .hash,
            base_hash,
            "population seed must invalidate"
        );
        assert_ne!(
            KeySpec {
                dataset: "NotifyEmail",
                ..base
            }
            .key()
            .hash,
            base_hash,
            "dataset must invalidate"
        );
        assert_ne!(
            KeySpec {
                profiles: "drift:0.05",
                ..base
            }
            .key()
            .hash,
            base_hash,
            "profile derivation must invalidate"
        );
        // Session budget.
        let mut c = base_config.clone();
        c.budget.max_events = 10;
        assert_ne!(changed(&c), base_hash, "session budget must invalidate");
        // Hostile-payload knobs are result-determining.
        let mut c = base_config.clone();
        c.payload.dns_corrupt_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "dns payload knob must invalidate");
        let mut c = base_config.clone();
        c.payload.smtp_corrupt_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "smtp payload knob must invalidate");
        let mut c = base_config.clone();
        c.payload.seed = 99;
        assert_ne!(changed(&c), base_hash, "payload seed must invalidate");
        // IO fault plan (output-invariant by construction, but keyed
        // conservatively like the shard count).
        let mut c = base_config.clone();
        c.io.enospc_after_bytes = 4096;
        assert_ne!(changed(&c), base_hash, "io capacity must invalidate");
        let mut c = base_config.clone();
        c.io.short_write_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "short-write knob must invalidate");
        let mut c = base_config.clone();
        c.io.read_corrupt_probability = 0.1;
        assert_ne!(changed(&c), base_hash, "read-corrupt knob must invalidate");
        let mut c = base_config.clone();
        c.io.seed = 77;
        assert_ne!(changed(&c), base_hash, "io seed must invalidate");
        // Memory backpressure budget is result-determining.
        let mut c = base_config.clone();
        c.memory.max_session_bytes = 1 << 20;
        assert_ne!(changed(&c), base_hash, "memory byte budget must invalidate");
        let mut c = base_config.clone();
        c.memory.max_pending_events = 64;
        assert_ne!(
            changed(&c),
            base_hash,
            "memory event budget must invalidate"
        );

        // Durability knobs must NOT invalidate: they cannot change the
        // output, only how it survives crashes.
        let mut c = base_config.clone();
        c.journal_dir = Some(PathBuf::from("/tmp/somewhere"));
        c.resume = true;
        c.fsync_every = 1;
        c.supervisor.max_shard_restarts = 9;
        assert_eq!(changed(&c), base_hash, "durability knobs must not key");
    }

    /// A small probe campaign: testids, rejections, attributed queries
    /// with paths.
    fn probe_result() -> (CampaignKey, CampaignResult) {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::TwoWeekMx,
            scale: 0.002,
            seed: 61,
        });
        let profiles = sample_host_profiles(&pop, 61);
        let config = CampaignConfig {
            kind: CampaignKind::TwoWeekMx,
            tests: vec!["t01", "t12"],
            seed: 61,
            probe_pause_ms: 15_000,
            shards: 3,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&config, &pop, &profiles);
        let key = KeySpec {
            config: &config,
            dataset: "TwoWeekMx",
            scale: 0.002,
            population_seed: 61,
            profiles: "base",
        }
        .key();
        (key, result)
    }

    /// A campaign under chaos, hostile payloads, a tight event budget and
    /// a pending-event budget: every [`SessionOutcome`] variant occurs
    /// and most fault counters are nonzero.
    fn every_outcome_result() -> (CampaignKey, CampaignResult) {
        let pop = Population::generate(&PopulationConfig {
            kind: DatasetKind::NotifyEmail,
            scale: 0.002,
            seed: 73,
        });
        let mut profiles = sample_host_profiles(&pop, 73);
        for (i, p) in profiles.iter_mut().enumerate() {
            p.greylists = i % 2 == 0;
            p.hostile_dns = i % 3 == 0;
            if i % 7 == 0 {
                p.stall_at_mail_ms = 500;
            }
        }
        let mut config = CampaignConfig {
            kind: CampaignKind::NotifyEmail,
            seed: 73,
            probe_pause_ms: 0,
            shards: 2,
            ..CampaignConfig::default()
        };
        config.latency.loss_probability = 0.05;
        config.faults = FaultConfig {
            duplicate_probability: 0.05,
            reorder_probability: 0.05,
            reorder_delay_ms: 40,
            truncate_probability: 0.05,
            conn_reset_probability: 0.02,
            conn_stall_probability: 0.05,
            conn_stall_ms: 200,
            seed: 0xC0FFEE,
            ..Default::default()
        };
        config.payload = PayloadConfig {
            dns_corrupt_probability: 0.25,
            smtp_corrupt_probability: 0.08,
            seed: 0xBAD_F00D,
        };
        config.budget.max_events = 30;
        config.memory.max_pending_events = 4;
        let result = run_campaign(&config, &pop, &profiles);
        (spec(&config, 73).key(), result)
    }

    /// SHA-256 of the entry bytes, with the (wall-clock) shard timings
    /// zeroed so the digest is deterministic.
    fn entry_digest(key: &CampaignKey, result: &mut CampaignResult) -> String {
        for s in &mut result.shard_stats {
            s.wall_ms = 0.0;
        }
        let bytes = encode_entry(key, result);
        sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn minimal_record_lengths_bound_preallocation() {
        use crate::apparatus::QueryRecord;
        use crate::engine::{SessionOutcome, SessionRecord};
        let session = SessionRecord {
            session_id: 0,
            host_index: 0,
            domain_index: 0,
            testid: None,
            start_ms: 0,
            outcome: None,
            delivery_time_ms: None,
            closed_by_server: false,
            error: None,
            termination: SessionOutcome::Completed,
        };
        let query = QueryRecord {
            time_ms: 0,
            session: 0,
            qname: mailval_dns::Name::root(),
            qtype: mailval_dns::rr::RecordType::A,
            transport: mailval_dns::server::Transport::Udp,
            via_ipv6: false,
        };
        let len = |put: &dyn Fn(&mut Enc)| {
            let mut enc = Enc::default();
            put(&mut enc);
            enc.0.len()
        };
        assert_eq!(len(&|e| e.put(&session)), MIN_SESSION_LEN);
        assert_eq!(len(&|e| e.put(&query)), MIN_QUERY_LEN);
    }

    #[test]
    fn probe_entry_bytes_match_known_answer() {
        let (key, mut result) = probe_result();
        assert!(result.log.attributed().next().is_some());
        assert_eq!(
            entry_digest(&key, &mut result),
            "86c13393527087474c94c2f37636401039389e421d573294c24175949a75821c"
        );
    }

    #[test]
    fn every_outcome_entry_bytes_match_known_answer() {
        use crate::engine::SessionOutcome;
        let (key, mut result) = every_outcome_result();
        let mut seen = [false; 4];
        for s in &result.sessions {
            seen[match s.termination {
                SessionOutcome::Completed => 0,
                SessionOutcome::BudgetExhausted { .. } => 1,
                SessionOutcome::HostileInput { .. } => 2,
                SessionOutcome::ResourceShed { .. } => 3,
            }] = true;
        }
        assert_eq!(seen, [true; 4], "fixture must cover every outcome");
        let f = &result.faults;
        assert!(f.any_injected() && f.mta_stalls > 0 && f.malformed.total() > 0);
        assert!(f.budget_exhausted > 0 && f.hostile_inputs > 0 && f.resource_shed > 0);
        assert_eq!(
            entry_digest(&key, &mut result),
            "534851c29af608c6b61ea108597ecfd38e2313c42ab4f9b8f6448ba3ecef833d"
        );
        // And the entry still roundtrips.
        let loaded = decode_entry(&encode_entry(&key, &result), &key).unwrap();
        assert_results_equal(&loaded, &result);
    }

    #[test]
    fn probe_campaign_roundtrips_with_attributions() {
        let (key, result) = probe_result();
        assert!(result.log.attributed().next().is_some());
        let store = temp_store("probe");
        store.save(&key, &result).unwrap();
        let loaded = store.load(&key).unwrap();
        assert_results_equal(&loaded, &result);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// An entry whose first query chunk stores an attribution its query
    /// name does not derive, every frame's CRC intact, is a clean miss.
    #[test]
    fn misattributed_entry_is_a_clean_miss() {
        use crate::codec::tests::{misattributions, RefQuery};
        let (key, result) = probe_result();
        let store = temp_store("misattributed");
        let path = store.save(&key, &result).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // The entry re-framed, with `edit` applied to the first query
        // chunk in its stored layout.
        let rewrite = |edit: &dyn Fn(&mut [RefQuery])| {
            let mut walker = Dec::new(&clean[MAGIC.len()..]);
            let mut out = Enc(MAGIC.to_vec());
            let mut edited = false;
            while let Some(payload) = walker.frame() {
                let mut dec = Dec::new(payload);
                if dec.get::<u8>().unwrap() == TAG_QUERIES && !edited {
                    let mut queries: Vec<RefQuery> = dec.get().unwrap();
                    edit(&mut queries);
                    edited = true;
                    out.push_frame(|enc| {
                        enc.put(&TAG_QUERIES);
                        enc.seq(&queries);
                    });
                } else {
                    out.push_frame(|enc| enc.0.extend_from_slice(payload));
                }
            }
            out.0
        };
        assert_eq!(rewrite(&|_| {}), clean);
        let at = result
            .log
            .records
            .iter()
            .position(|r| r.attribution().is_some_and(|a| !a.path.is_empty()))
            .unwrap();
        for wrong in misattributions(&RefQuery::of(&result.log.records[at]).attribution) {
            std::fs::write(&path, rewrite(&|q| q[at].attribution = wrong.clone())).unwrap();
            let err = store.load(&key).unwrap_err();
            assert!(
                matches!(err, StoreError::Frame(FrameError::Misattributed)),
                "{err}"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        assert_results_equal(&store.load(&key).unwrap(), &result);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn opening_a_store_sweeps_orphaned_tmp_files() {
        let (config, _pop, result) = tiny_result(67);
        let store = temp_store("orphans");
        let key = spec(&config, 67).key();
        store.save(&key, &result).unwrap();
        // Plant the residue of a save that died between write and
        // rename, plus a bystander that must survive the sweep.
        let orphan = store.root().join("deadbeefdeadbeef.camp.tmp");
        let bystander = store.root().join("notes.txt");
        std::fs::write(&orphan, b"torn half-save").unwrap();
        std::fs::write(&bystander, b"keep me").unwrap();
        let reopened = CampaignStore::new(store.root());
        assert!(!orphan.exists(), "orphan tmp must be swept on open");
        assert!(bystander.exists(), "sweep must only touch *.camp.tmp");
        assert!(
            store.path_for(&key).exists(),
            "sweep must not touch completed entries"
        );
        assert_results_equal(&reopened.load(&key).unwrap(), &result);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn read_corruption_through_simfs_is_a_clean_miss() {
        // Load the same entry through a SimFs that corrupts one byte of
        // every read: the production load path must classify each
        // corrupted image as a StoreError, never panic, and never serve
        // it as data. (The exhaustive positional sweep lives in
        // `every_single_byte_flip_is_rejected_never_a_panic`; this pins
        // the same property through the IO fault seam itself.)
        let (config, _pop, mut result) = tiny_result(71);
        result.sessions.truncate(4);
        result.log.records.truncate(4);
        let store = temp_store("simfs-miss");
        let key = spec(&config, 71).key();
        store.save(&key, &result).unwrap();
        let faulty = CampaignStore::new_with_vfs(
            store.root(),
            Arc::new(SimFs::new(IoPlan::new(IoConfig {
                read_corrupt_probability: 1.0,
                seed: 0x10_FA11,
                ..IoConfig::default()
            }))),
        );
        let mut rejected = 0;
        for _ in 0..64 {
            match faulty.load(&key) {
                Err(StoreError::Missing) => panic!("entry exists; corruption must not hide it"),
                Err(_) => rejected += 1,
                // The flipped byte can land in the ignored label text;
                // a lucky load is allowed, silent corruption is not.
                Ok(loaded) => assert_results_equal(&loaded, &result),
            }
        }
        assert!(rejected > 32, "only {rejected}/64 corrupted reads rejected");
        // The pristine path still serves the entry.
        assert_results_equal(&store.load(&key).unwrap(), &result);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
