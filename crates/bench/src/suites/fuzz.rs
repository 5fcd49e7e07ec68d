//! The deterministic in-tree fuzz harness behind `mailval-artifacts
//! fuzz`: it drives mutated DNS response frames and SMTP reply
//! segments straight into the wire decoder and reply parser — no
//! campaign around them — and checks the two hardening invariants the
//! payload layer relies on: no input ever panics a parser, and every
//! rejected input maps to exactly one [`MalformedClass`]. Everything
//! is derived from `MAILVAL_SEED`, so a failing frame index reproduces
//! exactly.
//!
//! The harness's storage stage turns the same discipline on the
//! on-disk codecs: store entries and journals are re-read through a
//! [`SimFs`] whose read path flips one byte per load (the production
//! IO fault seam, corruption position advancing every read), and every
//! load must come back as a clean reject or a byte-faithful result —
//! never a panic, never silently different data.

use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_dmarc::record::looks_like_dmarc;
use mailval_dmarc::DmarcRecord;
use mailval_dns::{Message, Name, RData, Rcode, Record, RecordType};
use mailval_measure::campaign::{run_campaign, sample_host_profiles, CampaignConfig, CampaignKind};
use mailval_measure::hostile::{classify_reply, classify_wire, synthesize_hostile_dns};
use mailval_measure::store::{CampaignStore, KeySpec};
use mailval_measure::vfs::SimFs;
use mailval_measure::{journal, progress};
use mailval_simnet::{
    DnsMutation, FaultCursor, IoConfig, IoPlan, MalformedClass, MalformedStats, PayloadConfig,
    PayloadPlan, SimRng,
};
use mailval_smtp::reply::ReplyParser;
use mailval_spf::record::SpfRecord;
use std::sync::Arc;
use std::time::Instant;

/// Default frame budget for the fuzz harness: the acceptance floor.
pub const DEFAULT_FUZZ_FRAMES: u64 = 100_000;

/// Tallies from one fuzz run, asserted on and reported.
pub struct FuzzReport {
    /// Frames driven (DNS + SMTP combined).
    pub frames: u64,
    /// Frames the payload layer left untouched (probability pass-through
    /// is forced to 1.0, so this stays 0; a nonzero value means the plan
    /// went inert).
    pub unmutated: u64,
    /// Mutated frames the parsers still accepted (benign mutations: a
    /// bit flip in a TTL, a truncation landing on a record boundary).
    pub accepted: u64,
    /// Mutated frames the parsers refused — every one classified.
    pub rejected: u64,
    /// Accepted DNS frames whose TXT rdata then failed SPF record
    /// parsing (graceful `Err`, not a [`MalformedClass`]: a syntactically
    /// broken policy is a *policy* problem, not a wire problem).
    pub spf_record_rejected: u64,
    /// The classification histogram; `total()` must equal `rejected`.
    pub malformed: MalformedStats,
}

/// Run the fuzz harness over `frames` mutated inputs (default
/// [`DEFAULT_FUZZ_FRAMES`]). Panics — and thereby fails the harness —
/// if any parser accepts/rejects inconsistently; a parser panic
/// propagates and fails it too, which is the point.
pub fn fuzz(frames_arg: Option<String>) {
    let frames: u64 = frames_arg
        .as_deref()
        .map(|s| s.parse().expect("fuzz frame count must be an integer"))
        .unwrap_or(DEFAULT_FUZZ_FRAMES);
    let seed = crate::seed();
    progress!("fuzz: {frames} frames, seed {seed}");
    let start = Instant::now();
    let report = fuzz_run(frames, seed);
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(report.frames, frames, "every frame must be driven");
    assert_eq!(
        report.unmutated, 0,
        "corruption probability 1.0 must mutate every frame"
    );
    assert_eq!(
        report.accepted + report.rejected,
        frames,
        "every frame is either accepted or rejected"
    );
    assert_eq!(
        report.malformed.total(),
        report.rejected,
        "every rejection must carry exactly one classification"
    );
    progress!(
        "fuzz: {} frames in {:.2}s ({:.0}/s): {} accepted, {} rejected, \
         {} spf-record rejects, 0 panics",
        report.frames,
        wall_s,
        report.frames as f64 / wall_s,
        report.accepted,
        report.rejected,
        report.spf_record_rejected
    );
    for (class, n) in report.malformed.iter() {
        progress!("fuzz:   {:<22} {n}", class.label());
    }

    // Stage 2: the storage codecs, through the production IO fault
    // seam. Scale the sweep with the frame budget, floored so even a
    // smoke run exercises both codecs.
    let loads = (frames / 200).clamp(64, 2_048);
    let start = Instant::now();
    let storage = fuzz_storage(loads, seed);
    progress!(
        "fuzz: storage stage in {:.2}s: {} corrupted store loads \
         ({} rejected, {} benign), {} corrupted journal replays \
         ({} frames salvaged), 0 panics",
        start.elapsed().as_secs_f64(),
        storage.store_loads,
        storage.store_rejected,
        storage.store_loads - storage.store_rejected,
        storage.journal_replays,
        storage.journal_frames_salvaged
    );
}

/// Tallies from the storage fuzz stage.
pub struct StorageFuzzReport {
    /// Store loads driven through the corrupting [`SimFs`].
    pub store_loads: u64,
    /// Loads the entry verifier refused (clean [`StoreError`]s). The
    /// remainder hit the one ignored region (the header's label text)
    /// and MUST have decoded byte-identically.
    pub store_rejected: u64,
    /// Journal replays driven through the corrupting [`SimFs`].
    pub journal_replays: u64,
    /// Intact frames salvaged across all corrupted replays (each one
    /// verified against the uncorrupted reference).
    pub journal_frames_salvaged: u64,
}

/// Byte-flip the on-disk codecs through the production seam: persist
/// one small campaign, then re-read its store entry and journal
/// `loads` times each through a [`SimFs`] that corrupts one byte per
/// read (position keyed by the per-file read index, so the sweep walks
/// the file). Panics on any safety violation.
pub fn fuzz_storage(loads: u64, seed: u64) -> StorageFuzzReport {
    let pop = Population::generate(&PopulationConfig {
        kind: DatasetKind::NotifyEmail,
        scale: 0.002,
        seed,
    });
    let profiles = sample_host_profiles(&pop, seed);
    let scratch = std::env::temp_dir().join(format!("mailval-fuzz-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let journal_dir = scratch.join("journal");
    let config = CampaignConfig {
        kind: CampaignKind::NotifyEmail,
        tests: vec![],
        seed,
        probe_pause_ms: 0,
        shards: 2,
        journal_dir: Some(journal_dir.clone()),
        ..CampaignConfig::default()
    };
    let result = run_campaign(&config, &pop, &profiles);

    // A store entry saved clean, loaded corrupt.
    let store_root = scratch.join("store");
    let key = KeySpec {
        config: &config,
        dataset: "NotifyEmail",
        scale: 0.002,
        population_seed: seed,
        profiles: "fuzz",
    }
    .key();
    CampaignStore::new(store_root.clone())
        .save(&key, &result)
        .expect("save reference entry");
    let corrupting = |salt: u64| -> Arc<SimFs> {
        Arc::new(SimFs::new(IoPlan::new(IoConfig {
            read_corrupt_probability: 1.0,
            seed: seed ^ salt,
            ..IoConfig::default()
        })))
    };
    let store = CampaignStore::new_with_vfs(store_root, corrupting(0x0005_708E));
    let mut report = StorageFuzzReport {
        store_loads: 0,
        store_rejected: 0,
        journal_replays: 0,
        journal_frames_salvaged: 0,
    };
    for _ in 0..loads {
        report.store_loads += 1;
        match store.load(&key) {
            Err(_) => report.store_rejected += 1,
            Ok(loaded) => {
                assert_eq!(
                    loaded.sessions, result.sessions,
                    "corrupt load changed data"
                );
                assert_eq!(loaded.log.records, result.log.records);
                assert_eq!(loaded.events, result.events);
            }
        }
    }
    assert!(
        report.store_rejected * 2 > report.store_loads,
        "only {}/{} corrupted store loads rejected — the verifier is \
         not seeing the corruption",
        report.store_rejected,
        report.store_loads
    );

    // Journals re-read corrupt: replay never fails, never panics, and
    // every frame that survives the CRC matches the reference result.
    let vfs = corrupting(0x0010_1234);
    for k in 0..2usize {
        let path = journal::shard_journal_path(&journal_dir, k);
        for _ in 0..loads {
            report.journal_replays += 1;
            let replay = journal::replay_with(&path, &*vfs);
            for frame in &replay.frames {
                let reference = result
                    .sessions
                    .iter()
                    .find(|s| s.session_id == frame.record.session_id)
                    .expect("salvaged frame exists in reference result");
                assert_eq!(&frame.record, reference, "salvaged frame diverged");
                report.journal_frames_salvaged += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// The harness body, separated so tests can run a small frame budget.
pub fn fuzz_run(frames: u64, seed: u64) -> FuzzReport {
    let plan = PayloadPlan::new(PayloadConfig {
        dns_corrupt_probability: 1.0,
        smtp_corrupt_probability: 1.0,
        seed,
    });
    let dns_corpus = dns_corpus();
    let smtp_corpus = smtp_corpus();
    let mut report = FuzzReport {
        frames: 0,
        unmutated: 0,
        accepted: 0,
        rejected: 0,
        spf_record_rejected: 0,
        malformed: MalformedStats::default(),
    };
    // One RNG for corpus selection only; the mutations themselves come
    // from the plan's own (session, cursor) streams, exactly as a
    // campaign would draw them.
    let mut pick = SimRng::new(seed ^ 0xF0_2221);
    for frame in 0..frames {
        report.frames += 1;
        if frame % 2 == 0 {
            fuzz_dns_frame(&plan, frame, &dns_corpus, &mut pick, &mut report);
        } else {
            fuzz_smtp_frame(&plan, frame, &smtp_corpus, &mut pick, &mut report);
        }
    }
    report
}

fn fuzz_dns_frame(
    plan: &PayloadPlan,
    frame: u64,
    corpus: &[Vec<u8>],
    pick: &mut SimRng,
    report: &mut FuzzReport,
) {
    let mut bytes = corpus[pick.next_below(corpus.len() as u64) as usize].clone();
    let mut cursor = FaultCursor::default();
    // Every third DNS frame fuzzes through the hostile-content palette,
    // exercising the synthesis path as well as the byte mutations.
    let hostile = frame.is_multiple_of(3);
    match plan.mutate_dns(frame, &mut cursor, &mut bytes, hostile) {
        None => {
            report.unmutated += 1;
        }
        Some(kind @ (DnsMutation::SpfCycle | DnsMutation::CnameChain)) => {
            if let Some(replacement) = synthesize_hostile_dns(&bytes, kind) {
                bytes = replacement;
            }
        }
        Some(_) => {}
    }
    match Message::from_bytes(&bytes) {
        Ok(msg) => {
            report.accepted += 1;
            // Anything that decodes cleanly and carries TXT rdata is fed
            // to the SPF and DMARC record parsers: the next consumers in
            // the real pipeline, which must also never panic on hostile
            // content (mutated rdata reaches them as lossy UTF-8, so
            // multibyte replacement chars land at arbitrary offsets).
            for record in msg.answers.iter() {
                if let Some(txt) = record.rdata.txt_joined() {
                    if SpfRecord::parse(&txt).is_err() {
                        report.spf_record_rejected += 1;
                    }
                    if looks_like_dmarc(&txt) {
                        let _ = DmarcRecord::parse(&txt);
                    }
                }
            }
        }
        Err(e) => {
            report.rejected += 1;
            report.malformed.record(classify_wire(&e));
        }
    }
}

fn fuzz_smtp_frame(
    plan: &PayloadPlan,
    frame: u64,
    corpus: &[String],
    pick: &mut SimRng,
    report: &mut FuzzReport,
) {
    let mut text = corpus[pick.next_below(corpus.len() as u64) as usize].clone();
    let mut cursor = FaultCursor::default();
    if plan.mutate_smtp(frame, &mut cursor, &mut text).is_none() {
        report.unmutated += 1;
    }
    let mut parser = ReplyParser::new();
    let mut refused: Option<MalformedClass> = None;
    for line in text.split("\r\n").filter(|l| !l.is_empty()) {
        match parser.push_line(line) {
            Ok(_) => {}
            Err(e) => {
                refused = Some(classify_reply(&e));
                break;
            }
        }
    }
    match refused {
        Some(class) => {
            report.rejected += 1;
            report.malformed.record(class);
        }
        None => report.accepted += 1,
    }
}

/// Well-formed DNS responses spanning the record types the measurement
/// pipeline actually consumes: the fuzz layer then breaks them.
fn dns_corpus() -> Vec<Vec<u8>> {
    let name = |s: &str| Name::parse(s).expect("valid corpus name");
    let build = |qname: &str, rtype: RecordType, answers: Vec<Record>| {
        let query = Message::query(0x4d56, name(qname), rtype);
        let mut response = Message::response_to(&query, Rcode::NoError);
        response.answers = answers;
        response.to_bytes()
    };
    vec![
        build(
            "mx1.example.test",
            RecordType::A,
            vec![Record::new(
                name("mx1.example.test"),
                300,
                RData::A(std::net::Ipv4Addr::new(192, 0, 2, 25)),
            )],
        ),
        build(
            "example.test",
            RecordType::Mx,
            vec![
                Record::new(
                    name("example.test"),
                    3600,
                    RData::Mx {
                        preference: 10,
                        exchange: name("mx1.example.test"),
                    },
                ),
                Record::new(
                    name("example.test"),
                    3600,
                    RData::Mx {
                        preference: 20,
                        exchange: name("mx2.example.test"),
                    },
                ),
            ],
        ),
        build(
            "example.test",
            RecordType::Txt,
            vec![Record::new(
                name("example.test"),
                300,
                RData::txt_from_str("v=spf1 ip4:192.0.2.0/24 include:spf.example.test ~all"),
            )],
        ),
        build(
            "alias.example.test",
            RecordType::A,
            vec![
                Record::new(
                    name("alias.example.test"),
                    300,
                    RData::Cname(name("mx1.example.test")),
                ),
                Record::new(
                    name("mx1.example.test"),
                    300,
                    RData::A(std::net::Ipv4Addr::new(192, 0, 2, 26)),
                ),
            ],
        ),
        build(
            "_dmarc.example.test",
            RecordType::Txt,
            vec![Record::new(
                name("_dmarc.example.test"),
                300,
                RData::txt_from_str("v=DMARC1; p=reject; rua=mailto:reports@example.test"),
            )],
        ),
        build(
            "long.example.test",
            RecordType::Txt,
            vec![Record::new(
                name("long.example.test"),
                60,
                RData::txt_from_str(&format!("v=spf1 {} -all", "ip4:198.51.100.1 ".repeat(30))),
            )],
        ),
    ]
}

/// Well-formed SMTP reply segments — single-line, multiline and
/// multi-reply — for the mutation layer to break.
fn smtp_corpus() -> Vec<String> {
    vec![
        "220 mx1.example.test ESMTP ready\r\n".to_string(),
        "250-mx1.example.test greets you\r\n250-SIZE 35882577\r\n250-8BITMIME\r\n250 STARTTLS\r\n"
            .to_string(),
        "250 2.1.0 sender ok\r\n".to_string(),
        "550 5.7.1 rejected: SPF fail\r\n".to_string(),
        "451 4.7.1 greylisted, try again later\r\n".to_string(),
        "250 2.1.0 ok\r\n354 end data with <CRLF>.<CRLF>\r\n".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_smoke_classifies_every_rejection() {
        let report = fuzz_run(2_000, 2021);
        assert_eq!(report.frames, 2_000);
        assert_eq!(report.unmutated, 0);
        assert_eq!(report.accepted + report.rejected, 2_000);
        assert_eq!(report.malformed.total(), report.rejected);
        // The palette is broad enough that a 2k-frame run must reject a
        // healthy share on both channels.
        assert!(report.rejected > 200, "rejected {}", report.rejected);
        let dns_rejects: u64 = MalformedClass::ALL[..4]
            .iter()
            .map(|&c| report.malformed.count(c))
            .sum();
        let smtp_rejects: u64 = MalformedClass::ALL[4..8]
            .iter()
            .map(|&c| report.malformed.count(c))
            .sum();
        assert!(dns_rejects > 0, "no DNS rejections classified");
        assert!(smtp_rejects > 0, "no SMTP rejections classified");
    }

    #[test]
    fn fuzz_storage_smoke_rejects_or_roundtrips() {
        // A small sweep through the SimFs read-corruption seam: panics
        // inside fuzz_storage are the failure mode, the report is the
        // evidence the stage actually drove both codecs.
        let report = fuzz_storage(64, 2021);
        assert_eq!(report.store_loads, 64);
        assert!(report.store_rejected * 2 > 64);
        assert_eq!(report.journal_replays, 128);
        assert!(
            report.journal_frames_salvaged > 0,
            "no journal frame ever survived a single byte flip"
        );
    }

    #[test]
    fn fuzz_is_deterministic_for_a_seed() {
        let a = fuzz_run(500, 7);
        let b = fuzz_run(500, 7);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.spf_record_rejected, b.spf_record_rejected);
        for (class, n) in a.malformed.iter() {
            assert_eq!(b.malformed.count(class), n, "{class:?} diverged");
        }
        let c = fuzz_run(500, 8);
        let differs = a.accepted != c.accepted
            || MalformedClass::ALL
                .iter()
                .any(|&cl| a.malformed.count(cl) != c.malformed.count(cl));
        assert!(differs, "distinct seeds must explore distinct frames");
    }

    #[test]
    fn corpus_is_well_formed_before_mutation() {
        for bytes in dns_corpus() {
            Message::from_bytes(&bytes).expect("pristine corpus frame must decode");
        }
        for text in smtp_corpus() {
            let mut parser = ReplyParser::new();
            for line in text.split("\r\n").filter(|l| !l.is_empty()) {
                parser
                    .push_line(line)
                    .expect("pristine corpus reply parses");
            }
        }
    }
}
