//! Durable, append-only session journals for crash/resume campaigns.
//!
//! The paper's measurement ran for nine months (§4, §6); at that
//! horizon the apparatus must survive process death without losing
//! completed work. Each shard of a campaign appends one **frame** per
//! completed session to its own journal file:
//!
//! ```text
//! file   := magic frames*
//! magic  := "MVALJNL1"                      (8 bytes)
//! frame  := len:u32le crc:u32le payload     (crc = CRC-32/IEEE of payload)
//! ```
//!
//! The payload is a [`JournalFrame`] in the `codec` encoding:
//! everything the merged [`crate::campaign::CampaignResult`] needs from
//! that session — the [`SessionRecord`], the session's query-log
//! entries, its fault counters, its dispatched-event count and its final
//! virtual time. On resume, [`replay`] walks the file, drops the first
//! frame whose length, checksum or payload fails to verify **and
//! everything after it** (a torn tail is re-run, never trusted), and the
//! shard skips the surviving sessions — producing output byte-identical
//! to an uninterrupted run.
//!
//! Durability discipline: every append is flushed to the file (a
//! crashed *process* loses at most nothing), and the file is fsync'd
//! every [`JournalWriter`] `fsync_every` frames (a crashed *machine*
//! loses at most the unsynced suffix, which replay then re-runs).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::apparatus::QueryRecord;
use crate::codec::{Dec, Enc};
use crate::engine::{EngineOutput, SessionRecord};
use crate::vfs::{OsFs, Vfs, VfsFile};
use mailval_simnet::FaultStats;
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

pub use crate::codec::{crc32, FrameError};

/// File magic: identifies a mailval journal, version 1.
pub const MAGIC: [u8; 8] = *b"MVALJNL1";
/// Frames synced to disk between fsyncs, by default.
pub const DEFAULT_FSYNC_EVERY: u64 = 64;
const HEADER_LEN: u64 = MAGIC.len() as u64;

/// One journal frame: the durable remains of one completed session.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalFrame {
    /// The completed session's record.
    pub record: SessionRecord,
    /// Query-log entries the session's resolver generated, in dispatch
    /// order (sorted canonically by the campaign merge).
    pub queries: Vec<QueryRecord>,
    /// The session's fault counters.
    pub faults: FaultStats,
    /// Events dispatched to the session.
    pub events: u64,
    /// Virtual time of the session's last event, ms.
    pub end_ms: u64,
}

/// Serialize one frame's payload (length/checksum framing excluded).
pub fn encode_frame(frame: &JournalFrame) -> Vec<u8> {
    let mut enc = Enc::default();
    enc.put(frame);
    enc.0
}

/// Deserialize one frame payload; the whole payload must be consumed.
pub fn decode_frame(payload: &[u8]) -> Result<JournalFrame, FrameError> {
    let mut dec = Dec::new(payload);
    let frame = dec.get()?;
    dec.finished()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends checksummed frames to a journal file.
///
/// Every append is written through to the file immediately (a process
/// crash after `append` returns loses nothing); `sync_data` is invoked
/// every `fsync_every` appends (and on [`JournalWriter::sync`]) to
/// bound what an OS crash can lose.
///
/// All file I/O flows through a [`Vfs`], so a campaign under an active
/// `IoPlan` exercises the journal's failure paths through the same
/// code production uses. Any error surfaced here is degradable: the
/// engine demotes the shard to non-durable mode rather than panicking.
pub struct JournalWriter {
    file: Box<dyn VfsFile>,
    fsync_every: u64,
    appended_since_sync: u64,
    /// Reused frame buffer.
    buf: Enc,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("fsync_every", &self.fsync_every)
            .field("appended_since_sync", &self.appended_since_sync)
            .finish()
    }
}

impl JournalWriter {
    /// Create (or reset) the journal at `path`: the file is truncated
    /// to an empty journal containing only the magic header.
    pub fn create(path: &Path) -> io::Result<JournalWriter> {
        JournalWriter::open_append(path, 0, DEFAULT_FSYNC_EVERY)
    }

    /// Open `path` for appending after a [`replay`] established that
    /// its first `valid_len` bytes hold intact frames. The file is
    /// truncated to that prefix (a torn tail must not survive — the
    /// sessions it held are re-run and re-journaled), or initialized
    /// with the magic header when no valid prefix exists.
    pub fn open_append(path: &Path, valid_len: u64, fsync_every: u64) -> io::Result<JournalWriter> {
        JournalWriter::open_append_with(path, valid_len, fsync_every, &OsFs)
    }

    /// [`JournalWriter::open_append`] through an explicit [`Vfs`].
    pub fn open_append_with(
        path: &Path,
        valid_len: u64,
        fsync_every: u64,
        vfs: &dyn Vfs,
    ) -> io::Result<JournalWriter> {
        let mut file = vfs.open_write(path, false)?;
        if valid_len < HEADER_LEN {
            file.set_len(0)?;
            file.seek_to(0)?;
            file.write_all(&MAGIC)?;
        } else {
            file.set_len(valid_len)?;
            file.seek_to(valid_len)?;
        }
        Ok(JournalWriter {
            file,
            fsync_every,
            appended_since_sync: 0,
            buf: Enc::default(),
        })
    }

    /// Append one frame: `[len][crc32][payload]`, written in a single
    /// `write_all`, flushed through to the file.
    pub fn append(&mut self, frame: &JournalFrame) -> io::Result<()> {
        self.buf.0.clear();
        self.buf.push_frame(|enc| enc.put(frame));
        self.file.write_all(&self.buf.0)?;
        self.appended_since_sync += 1;
        if self.fsync_every > 0 && self.appended_since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force the journal to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.appended_since_sync = 0;
        self.file.sync_data()
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// The verified contents of one shard's journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Intact frames, in append order, deduplicated by session id (the
    /// first occurrence wins; later duplicates can only come from a
    /// writer that crashed between append and supervisor restart
    /// bookkeeping, and re-ran the session identically).
    pub frames: Vec<JournalFrame>,
    /// Byte length of the verified prefix (header + intact frames).
    /// [`JournalWriter::open_append`] truncates to this before resuming.
    pub valid_len: u64,
    /// Bytes dropped behind the verified prefix (torn/corrupt tail).
    pub dropped_bytes: u64,
}

impl Replay {
    /// Session ids whose frames survived verification; the engine skips
    /// these on resume.
    pub fn completed_ids(&self) -> HashSet<usize> {
        self.frames.iter().map(|f| f.record.session_id).collect()
    }

    /// Reconstruct a shard's [`EngineOutput`] from its journal alone —
    /// the salvage path when a shard exhausts its restart budget and
    /// the journaled prefix is all that survives of it. It folds the
    /// frames exactly as a live run does; telemetry is never journaled,
    /// so a salvaged shard's trace covers nothing, by design.
    pub fn into_engine_output(self) -> EngineOutput {
        EngineOutput::from_frames(self.frames, None)
    }
}

/// Read and verify a journal. Never fails: a missing file, a bad
/// header, or a torn/corrupt tail all just shorten the verified prefix
/// (the sessions behind it will be re-run). Corruption is detected by
/// the per-frame CRC-32, a length prefix running past the end of file
/// (or past the codec's frame-length cap), or a payload that does not
/// decode.
pub fn replay(path: &Path) -> Replay {
    replay_with(path, &OsFs)
}

/// [`replay`] through an explicit [`Vfs`]: under an active `IoPlan`
/// the read itself may come back corrupted, which is just another way
/// to shorten the verified prefix.
pub fn replay_with(path: &Path, vfs: &dyn Vfs) -> Replay {
    let data = match vfs.read(path) {
        Ok(data) => data,
        Err(_) => return Replay::default(),
    };
    let Some(body) = data.strip_prefix(MAGIC.as_slice()) else {
        return Replay {
            frames: Vec::new(),
            valid_len: 0,
            dropped_bytes: data.len() as u64,
        };
    };
    let mut frames = Vec::new();
    let mut seen = HashSet::new();
    let mut walker = Dec::new(body);
    let mut valid_len = MAGIC.len();
    while let Some(Ok(frame)) = walker.frame().map(decode_frame) {
        if seen.insert(frame.record.session_id) {
            frames.push(frame);
        }
        valid_len = MAGIC.len() + walker.pos;
    }
    Replay {
        frames,
        valid_len: valid_len as u64,
        dropped_bytes: (data.len() - valid_len) as u64,
    }
}

/// The canonical journal path for shard `shard` under `dir`.
pub fn shard_journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.jrnl"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::apparatus::Attribution;
    use crate::engine::SessionOutcome;
    use crate::vfs::tests::TestDir;
    use mailval_dns::rr::RecordType;
    use mailval_dns::server::Transport;
    use mailval_dns::Name;
    use mailval_simnet::MalformedClass;
    use mailval_smtp::client::{ClientOutcome, Phase};
    use mailval_smtp::reply::Reply;
    use mailval_smtp::EmailAddress;

    fn sample_frame(session_id: usize) -> JournalFrame {
        let name = Name::parse("t01.m5.spf.dns-lab.org").unwrap();
        let reply = Reply::multiline(451, vec!["greylisted,".into(), "try later".into()]);
        let outcome = ClientOutcome {
            phase_reached: Phase::Rcpt,
            accepted_rcpt: Some(EmailAddress::new(
                "operator",
                Name::parse("example.org").unwrap(),
            )),
            delivered: false,
            rejection: Some((Phase::Rcpt, reply.clone())),
            retries: 2,
            transcript: [
                (Phase::Greeting, Reply::greeting("mx.test")),
                (Phase::Rcpt, reply),
            ]
            .into_iter()
            .collect(),
        };
        JournalFrame {
            record: SessionRecord {
                session_id,
                host_index: 5,
                domain_index: 7,
                testid: Some(crate::policies::ALL_TESTS[0].id),
                start_ms: 35,
                outcome: Some(outcome),
                delivery_time_ms: Some(90_000),
                closed_by_server: true,
                error: Some("contained: poisoned MTA profile".into()),
                termination: SessionOutcome::BudgetExhausted {
                    virtual_ms: 604_800_001,
                    events: 17,
                },
            },
            queries: vec![QueryRecord {
                time_ms: 120,
                session: session_id,
                qname: name,
                qtype: RecordType::Txt,
                transport: Transport::Tcp,
                via_ipv6: true,
                attribution: Some(Attribution {
                    testid: Some("t01".into()),
                    host_index: Some(5),
                    domain_index: None,
                    path: vec!["l2".into(), "l1".into()],
                }),
            }],
            faults: FaultStats {
                dns_dropped: 3,
                tempfails: 1,
                budget_exhausted: 1,
                ..Default::default()
            },
            events: 17,
            end_ms: 604_800_036,
        }
    }

    /// A frame ended by hostile input, with classified rejections —
    /// exercises the payload-fault extensions of the codec.
    fn hostile_frame(session_id: usize) -> JournalFrame {
        let mut frame = sample_frame(session_id);
        frame.record.termination = SessionOutcome::HostileInput {
            class: MalformedClass::SmtpBadChar,
        };
        frame.faults.dns_payload_mutations = 4;
        frame.faults.smtp_payload_mutations = 2;
        frame.faults.hostile_inputs = 1;
        frame.faults.malformed.record(MalformedClass::SmtpBadChar);
        frame.faults.malformed.record(MalformedClass::DnsBadPointer);
        frame.faults.malformed.record(MalformedClass::DnsBadPointer);
        frame
    }

    /// A journal path in a directory that is removed when the returned
    /// guard drops.
    fn temp_journal(name: &str) -> (TestDir, PathBuf) {
        let dir = TestDir::new(&format!("journal-{name}"));
        let path = dir.join(format!("{name}.jrnl"));
        (dir, path)
    }

    #[test]
    fn frame_payload_roundtrips() {
        let frame = sample_frame(42);
        let payload = encode_frame(&frame);
        assert_eq!(decode_frame(&payload).unwrap(), frame);
    }

    #[test]
    fn hostile_frame_payload_roundtrips() {
        let frame = hostile_frame(43);
        let payload = encode_frame(&frame);
        let decoded = decode_frame(&payload).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(
            decoded
                .faults
                .malformed
                .count(MalformedClass::DnsBadPointer),
            2
        );
    }

    /// A frame shed by the memory budget — exercises the v3 codec
    /// extensions (termination tag 3 + the resource_shed counter).
    fn shed_frame(session_id: usize) -> JournalFrame {
        let mut frame = sample_frame(session_id);
        frame.record.termination = SessionOutcome::ResourceShed {
            queued_bytes: 9_000_000,
            pending_events: 4_096,
        };
        frame.faults.resource_shed = 1;
        frame
    }

    #[test]
    fn shed_frame_payload_roundtrips() {
        let frame = shed_frame(44);
        let payload = encode_frame(&frame);
        let decoded = decode_frame(&payload).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(decoded.faults.resource_shed, 1);
        assert_eq!(
            decoded.record.termination,
            SessionOutcome::ResourceShed {
                queued_bytes: 9_000_000,
                pending_events: 4_096,
            }
        );
    }

    /// SHA-256 of `encode_frame` for the sample, hostile and shed frames.
    /// Recorded before the journal and store moved onto the shared codec;
    /// frames must never change bytes under a refactor.
    #[test]
    fn frame_bytes_match_known_answers() {
        let digest = |frame: &JournalFrame| -> String {
            let hash = mailval_crypto::sha256::sha256(&encode_frame(frame));
            hash.iter().map(|b| format!("{b:02x}")).collect()
        };
        assert_eq!(
            digest(&sample_frame(42)),
            "dd1f265fcf4b6f67c9d12a026f6b524e1d0d3d26f9960e1f9ccac0246e7a2eae"
        );
        assert_eq!(
            digest(&hostile_frame(43)),
            "3d0d2c15ea8fdcdf7d4ccf3cf4465f46f6ca513ccb15b62bcdc5d658da0fe0d8"
        );
        assert_eq!(
            digest(&shed_frame(44)),
            "57508936171920e5578e6d95b6239c3fc3b7125853daf989d78711395ba4f6f7"
        );
    }

    #[test]
    fn frame_decode_rejects_any_truncation() {
        let payload = encode_frame(&sample_frame(1));
        for cut in 0..payload.len() {
            assert!(decode_frame(&payload[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = payload;
        extended.push(0);
        assert_eq!(decode_frame(&extended), Err(FrameError::Trailing));
    }

    #[test]
    fn write_then_replay_roundtrips() {
        let (_dir, path) = temp_journal("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        for id in 0..5 {
            w.append(&sample_frame(id)).unwrap();
        }
        w.sync().unwrap();
        let replayed = replay(&path);
        assert_eq!(replayed.frames.len(), 5);
        assert_eq!(replayed.dropped_bytes, 0);
        assert_eq!(replayed.valid_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(replayed.frames[3], sample_frame(3));
        assert_eq!(replayed.completed_ids(), (0..5).collect::<HashSet<usize>>());
    }

    #[test]
    fn corrupt_tail_is_dropped_not_fatal() {
        let (_dir, path) = temp_journal("corrupt-tail");
        let mut w = JournalWriter::create(&path).unwrap();
        for id in 0..4 {
            w.append(&sample_frame(id)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Flip one byte inside the last frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path);
        assert_eq!(replayed.frames.len(), 3, "corrupt last frame dropped");
        assert!(replayed.dropped_bytes > 0);
        // Resume writing after the valid prefix: the torn tail is gone.
        let valid_len = replayed.valid_len;
        let mut w = JournalWriter::open_append(&path, valid_len, 1).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
        w.append(&sample_frame(99)).unwrap();
        let ids = replay(&path).completed_ids();
        assert_eq!(ids, HashSet::from([0, 1, 2, 99]));
    }

    #[test]
    fn every_single_byte_flip_salvages_cleanly() {
        // Hostile-filesystem sweep: flip every byte of a small journal
        // (magic, length prefixes, CRCs, payloads — including a
        // HostileInput frame) one at a time. Every flip must replay as
        // a clean salvage of some prefix of the original frames; none
        // may panic, and no flipped frame may be served as valid data.
        let (_dir, path) = temp_journal("flip-sweep");
        let mut w = JournalWriter::create(&path).unwrap();
        let originals = [sample_frame(0), hostile_frame(1), shed_frame(2)];
        for frame in &originals {
            w.append(frame).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let pristine = std::fs::read(&path).unwrap();
        for pos in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let replayed = replay(&path);
            assert!(
                replayed.frames.len() <= originals.len(),
                "flip at {pos} grew the journal"
            );
            // Whatever survived must be an exact prefix of the original
            // frames: a flip can only shorten the salvage, never alter
            // or reorder what is served.
            for (got, want) in replayed.frames.iter().zip(&originals) {
                assert_eq!(got, want, "flip at {pos} corrupted a served frame");
            }
        }
    }

    #[test]
    fn torn_write_is_dropped() {
        let (_dir, path) = temp_journal("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        for id in 0..3 {
            w.append(&sample_frame(id)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        // Chop the file mid-way through the last frame.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let replayed = replay(&path);
        assert_eq!(replayed.frames.len(), 2);
        assert!(replayed.dropped_bytes > 0);
    }

    #[test]
    fn bad_magic_means_empty_journal() {
        let (_dir, path) = temp_journal("bad-magic");
        std::fs::write(&path, b"NOTAJRNLgarbage").unwrap();
        let replayed = replay(&path);
        assert!(replayed.frames.is_empty());
        assert_eq!(replayed.valid_len, 0);
        // open_append rewrites a fresh header over it.
        drop(JournalWriter::open_append(&path, 0, 16).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC);
    }

    #[test]
    fn missing_file_is_empty_journal() {
        let replayed = replay(Path::new("/nonexistent/journal.jrnl"));
        assert!(replayed.frames.is_empty());
        assert_eq!(replayed.valid_len, 0);
    }

    #[test]
    fn salvage_reconstructs_engine_output() {
        let frames = vec![sample_frame(3), sample_frame(1)];
        let replayed = Replay {
            frames,
            valid_len: 0,
            dropped_bytes: 0,
        };
        let out = replayed.into_engine_output();
        assert_eq!(out.stats.sessions, 2);
        assert_eq!(out.stats.events, 34);
        assert_eq!(out.stats.queries_logged, 2);
        assert_eq!(out.stats.virtual_ms, 604_800_036);
        assert_eq!(out.stats.faults.dns_dropped, 6);
        // The salvaged frames keep journal order; the campaign merge
        // sorts them canonically.
        let ids: Vec<usize> = out.frames.iter().map(|f| f.record.session_id).collect();
        assert_eq!(ids, vec![3, 1]);
        assert!(out.telemetry.is_none());
    }

    #[test]
    fn crc32_table_matches_bitwise_on_known_answer_frames() {
        use crate::codec::tests::crc32_bitwise;
        for frame in [sample_frame(42), hostile_frame(43), shed_frame(44)] {
            let payload = encode_frame(&frame);
            assert_eq!(crc32(&payload), crc32_bitwise(&payload));
            let mut framed = Enc::default();
            framed.push_frame(|enc| enc.put(&frame));
            assert_eq!(crc32(&framed.0), crc32_bitwise(&framed.0));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 test vectors ("check" values).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }
}
