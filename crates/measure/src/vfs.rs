//! The storage seam: a minimal virtual filesystem ([`Vfs`]) with a
//! passthrough implementation ([`OsFs`]) and a deterministic
//! fault-injecting one ([`SimFs`]).
//!
//! Every byte [`crate::journal`] and [`crate::store`] persist or load
//! flows through this trait, so the environment itself can be made an
//! adversary: a full disk (ENOSPC after N bytes), short writes, failed
//! fsyncs, failed renames and read-side bit rot, all decided by an
//! [`IoPlan`] as pure functions of `(seed, stable file id, op stream,
//! per-file op cursor)` — never wall-clock or thread scheduling. The
//! file id hashes only the file *name* (journals are `shard-NNNN.jrnl`,
//! store entries are named by their content key), so a given file sees
//! the same fault sequence no matter which temp directory it lives in,
//! and the ENOSPC capacity cursor is re-derived from the on-disk length
//! on open, making disk-full behavior kill-and-resume invariant.
//!
//! The invariant the whole layer rests on: **storage faults never
//! change campaign results, only durability and counters**. Consumers
//! degrade (demote to non-durable, report a store miss) instead of
//! panicking, and the merged output stays byte-identical.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mailval_simnet::{IoPlan, WriteFault};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One open writable file behind the seam.
pub trait VfsFile: Send {
    /// Write the whole buffer (or fail, possibly after persisting a
    /// prefix — exactly like a real `write` loop hitting ENOSPC).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncate or extend the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Seek to an absolute offset.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

/// The filesystem operations the measurement stack performs.
pub trait Vfs: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create a directory and all its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Open `path` for writing, creating it if needed; `truncate`
    /// empties an existing file.
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>>;
    /// List the entries of a directory (files and subdirectories).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

// ---------------------------------------------------------------------------
// OsFs: the passthrough
// ---------------------------------------------------------------------------

/// Passthrough [`Vfs`]: plain `std::fs`, no fault injection. This is
/// what every campaign uses unless an [`IoPlan`] is active.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsFs;

struct OsFile(File);

impl VfsFile for OsFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl Vfs for OsFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        Ok(Box::new(OsFile(file)))
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// SimFs: deterministic fault injection
// ---------------------------------------------------------------------------

/// Counters for faults the [`SimFs`] actually fired (observability —
/// these are wall-effect tallies, never hashed or stored).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Writes that persisted only a prefix before erroring.
    pub short_writes: AtomicU64,
    /// Writes refused (fully or partially) by the simulated full disk.
    pub enospc: AtomicU64,
    /// fsyncs that reported failure.
    pub fsync_failures: AtomicU64,
    /// Renames that reported failure.
    pub rename_failures: AtomicU64,
    /// Whole-file reads returned with one corrupted byte.
    pub reads_corrupted: AtomicU64,
}

impl IoStats {
    /// Total faults fired across all kinds.
    pub fn total(&self) -> u64 {
        self.short_writes.load(Ordering::Relaxed)
            + self.enospc.load(Ordering::Relaxed)
            + self.fsync_failures.load(Ordering::Relaxed)
            + self.rename_failures.load(Ordering::Relaxed)
            + self.reads_corrupted.load(Ordering::Relaxed)
    }
}

/// Per-file fault-stream cursors: how many writes / fsyncs / renames /
/// reads of this file have been adjudicated, plus the simulated byte
/// count for the ENOSPC capacity check.
#[derive(Debug, Default, Clone, Copy)]
struct FileCursors {
    writes: u64,
    fsyncs: u64,
    renames: u64,
    reads: u64,
    written: u64,
}

/// Stable 64-bit id of a file: FNV-1a over its final path component.
/// Only the *name* is hashed — journals (`shard-NNNN.jrnl`) and store
/// entries (named by content key) carry their identity in the name, so
/// the id survives temp-directory relocation and process restarts.
pub fn stable_file_id(path: &Path) -> u64 {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fault-injecting [`Vfs`]: real `std::fs` underneath, with every
/// operation first adjudicated by the sealed [`IoPlan`].
pub struct SimFs {
    plan: IoPlan,
    stats: Arc<IoStats>,
    state: Arc<Mutex<HashMap<u64, FileCursors>>>,
}

impl std::fmt::Debug for SimFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFs").field("plan", &self.plan).finish()
    }
}

impl SimFs {
    /// Build a fault-injecting filesystem from a sealed plan.
    pub fn new(plan: IoPlan) -> SimFs {
        SimFs {
            plan,
            stats: Arc::new(IoStats::default()),
            state: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The fault counters, shared with every file handle.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn cursors<R>(&self, file_id: u64, f: impl FnOnce(&mut FileCursors) -> R) -> R {
        let mut map = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(map.entry(file_id).or_default())
    }
}

struct SimFile {
    inner: OsFile,
    file_id: u64,
    plan: IoPlan,
    stats: Arc<IoStats>,
    state: Arc<Mutex<HashMap<u64, FileCursors>>>,
}

impl SimFile {
    fn cursors<R>(&self, f: impl FnOnce(&mut FileCursors) -> R) -> R {
        let mut map = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(map.entry(self.file_id).or_default())
    }
}

impl VfsFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (index, written) = self.cursors(|c| {
            let out = (c.writes, c.written);
            c.writes += 1;
            out
        });
        match self
            .plan
            .write_fault(self.file_id, index, written, buf.len())
        {
            WriteFault::Full => {
                self.inner.write_all(buf)?;
                self.cursors(|c| c.written += buf.len() as u64);
                Ok(())
            }
            WriteFault::Short { keep } => {
                self.inner.write_all(&buf[..keep])?;
                self.cursors(|c| c.written += keep as u64);
                self.stats.short_writes.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "injected short write: {keep} of {} bytes persisted",
                    buf.len()
                )))
            }
            WriteFault::Enospc { keep } => {
                self.inner.write_all(&buf[..keep])?;
                self.cursors(|c| c.written += keep as u64);
                self.stats.enospc.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "injected ENOSPC: {keep} of {} bytes persisted, device full",
                    buf.len()
                )))
            }
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let index = self.cursors(|c| {
            let out = c.fsyncs;
            c.fsyncs += 1;
            out
        });
        if self.plan.fsync_fails(self.file_id, index) {
            self.stats.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)?;
        self.cursors(|c| c.written = len);
        Ok(())
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
}

impl Vfs for SimFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut data = std::fs::read(path)?;
        let file_id = stable_file_id(path);
        let index = self.cursors(file_id, |c| {
            let out = c.reads;
            c.reads += 1;
            out
        });
        if let Some((pos, mask)) = self.plan.read_corruption(file_id, index, data.len()) {
            data[pos] ^= mask;
            self.stats.reads_corrupted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(data)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // The *destination* name is the stable identity (store tmp
        // files are `<key>.camp.tmp` renamed onto `<key>.camp`).
        let file_id = stable_file_id(to);
        let index = self.cursors(file_id, |c| {
            let out = c.renames;
            c.renames += 1;
            out
        });
        if self.plan.rename_fails(file_id, index) {
            self.stats.rename_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected rename failure"));
        }
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        let file_id = stable_file_id(path);
        // Re-derive the ENOSPC capacity cursor from on-disk state so a
        // resumed process sees the same remaining capacity as the one
        // it replaced (kill-and-resume invariance of disk-full runs).
        let on_disk = if truncate {
            0
        } else {
            file.metadata().map(|m| m.len()).unwrap_or(0)
        };
        self.cursors(file_id, |c| c.written = on_disk);
        Ok(Box::new(SimFile {
            inner: OsFile(file),
            file_id,
            plan: self.plan.clone(),
            stats: Arc::clone(&self.stats),
            state: Arc::clone(&self.state),
        }))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        OsFs.list_dir(path)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use mailval_simnet::IoConfig;
    use std::sync::atomic::AtomicUsize;

    /// A fresh directory under the temp dir, unique to this call and
    /// removed with its contents on drop, so that no test run, passing
    /// or failing, leaves it behind.
    pub(crate) struct TestDir(PathBuf);

    impl TestDir {
        pub(crate) fn new(name: &str) -> TestDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let seq = NEXT.fetch_add(1, Ordering::Relaxed);
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!("mailval-tests-{pid}-{seq}-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn osfs_roundtrips_and_lists() {
        let dir = TestDir::new("osfs");
        let path = dir.join("a.bin");
        let mut f = OsFs.open_write(&path, true).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(OsFs.read(&path).unwrap(), b"hello");
        let listed = OsFs.list_dir(&dir).unwrap();
        assert!(listed.contains(&path));
        OsFs.rename(&path, &dir.join("b.bin")).unwrap();
        OsFs.remove_file(&dir.join("b.bin")).unwrap();
    }

    #[test]
    fn stable_file_id_depends_only_on_the_name() {
        assert_eq!(
            stable_file_id(Path::new("/tmp/x/shard-0001.jrnl")),
            stable_file_id(Path::new("/var/other/shard-0001.jrnl")),
        );
        assert_ne!(
            stable_file_id(Path::new("shard-0001.jrnl")),
            stable_file_id(Path::new("shard-0002.jrnl")),
        );
    }

    /// SimFs fault streams are keyed by file *name*, not path: that is
    /// what makes a journal's fault sequence identical across scratch
    /// directories and resumed processes, while each shard's journal
    /// gets an independent stream.
    #[test]
    fn fault_streams_are_keyed_by_name_not_path() {
        let fsync_failures = |path: &Path| -> Vec<bool> {
            let fs = SimFs::new(IoPlan::new(IoConfig {
                fsync_fail_probability: 0.5,
                seed: 3,
                ..Default::default()
            }));
            let mut f = fs.open_write(path, true).unwrap();
            (0..64).map(|_| f.sync_data().is_err()).collect()
        };
        let (a, b) = (TestDir::new("streams-a"), TestDir::new("streams-b"));
        let shard0 = fsync_failures(&a.join("shard-0000.jrnl"));
        assert!(shard0.contains(&true) && shard0.contains(&false));
        assert_eq!(
            shard0,
            fsync_failures(&b.join("shard-0000.jrnl")),
            "same name must map to the same fault stream"
        );
        assert_ne!(
            shard0,
            fsync_failures(&a.join("shard-0001.jrnl")),
            "different shards must get independent streams"
        );
    }

    #[test]
    fn inert_simfs_behaves_like_osfs() {
        let fs = SimFs::new(IoPlan::new(IoConfig::default()));
        let dir = TestDir::new("inert");
        let path = dir.join("a.bin");
        let mut f = fs.open_write(&path, true).unwrap();
        f.write_all(b"payload").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"payload");
        assert_eq!(fs.stats().total(), 0);
    }

    #[test]
    fn enospc_persists_the_exact_prefix_then_fails() {
        let fs = SimFs::new(IoPlan::new(IoConfig {
            enospc_after_bytes: 10,
            seed: 1,
            ..Default::default()
        }));
        let dir = TestDir::new("enospc");
        let path = dir.join("full.bin");
        let mut f = fs.open_write(&path, true).unwrap();
        f.write_all(b"123456").unwrap(); // 6 bytes, fits
        let err = f.write_all(b"789abc").unwrap_err(); // 4 of 6 fit
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"123456789a");
        assert_eq!(fs.stats().enospc.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn enospc_capacity_rederived_on_reopen() {
        // A resumed process opening the same (named) file must see the
        // same remaining capacity, not a fresh disk.
        let fs = SimFs::new(IoPlan::new(IoConfig {
            enospc_after_bytes: 8,
            seed: 2,
            ..Default::default()
        }));
        let dir = TestDir::new("enospc-reopen");
        let path = dir.join("cap.bin");
        let mut f = fs.open_write(&path, true).unwrap();
        f.write_all(b"12345678").unwrap();
        drop(f);
        // Fresh SimFs simulates a fresh process: cursors start empty.
        let fs2 = SimFs::new(IoPlan::new(IoConfig {
            enospc_after_bytes: 8,
            seed: 2,
            ..Default::default()
        }));
        let mut f = fs2.open_write(&path, false).unwrap();
        let err = f.write_all(b"x").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
    }

    #[test]
    fn read_corruption_changes_exactly_one_byte() {
        let fs = SimFs::new(IoPlan::new(IoConfig {
            read_corrupt_probability: 1.0,
            seed: 3,
            ..Default::default()
        }));
        let dir = TestDir::new("corrupt-read");
        let path = dir.join("data.bin");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        let got = fs.read(&path).unwrap();
        let flipped: Vec<usize> = (0..64).filter(|&i| got[i] != 0).collect();
        assert_eq!(flipped.len(), 1, "exactly one byte must differ");
        assert_eq!(fs.stats().reads_corrupted.load(Ordering::Relaxed), 1);
        // The on-disk bytes are untouched: it's read-side rot.
        assert_eq!(std::fs::read(&path).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn fsync_and_rename_failures_fire_and_count() {
        let fs = SimFs::new(IoPlan::new(IoConfig {
            fsync_fail_probability: 1.0,
            rename_fail_probability: 1.0,
            seed: 4,
            ..Default::default()
        }));
        let dir = TestDir::new("fail-ops");
        let path = dir.join("f.bin");
        let mut f = fs.open_write(&path, true).unwrap();
        f.write_all(b"x").unwrap();
        assert!(f.sync_data().is_err());
        drop(f);
        assert!(fs.rename(&path, &dir.join("g.bin")).is_err());
        assert_eq!(fs.stats().fsync_failures.load(Ordering::Relaxed), 1);
        assert_eq!(fs.stats().rename_failures.load(Ordering::Relaxed), 1);
        // The failed rename left the source in place.
        assert!(path.exists());
    }
}
