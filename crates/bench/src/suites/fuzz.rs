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
//!
//! The DKIM stage mutates `DKIM-Signature` values and key-record TXT
//! and drives them through the verifier (`DkimVerifier::new`, `start`,
//! `on_key`): no signature or key ever panics it, and every verdict
//! lands in one result class.
//!
//! The MTA stage drives mutated command lines, pipelined segments and
//! DATA bodies through the receiving MTA (`MtaActor::handle`, and the
//! server `Session` inside it) under sampled behavior switches: no
//! dialogue ever panics it, every reply it writes parses back, and every
//! reply lands in one class.

use mailval_crypto::bigint::SplitMix64;
use mailval_crypto::rsa::RsaKeyPair;
use mailval_crypto::HashAlg;
use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_dkim::{
    sign_message, Canonicalization, DkimKeyRecord, DkimResult, DkimVerifier, SignConfig, VerifyStep,
};
use mailval_dmarc::record::looks_like_dmarc;
use mailval_dmarc::DmarcRecord;
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::{Message, Name, RData, Rcode, Record, RecordType};
use mailval_measure::campaign::{run_campaign, sample_host_profiles, CampaignConfig, CampaignKind};
use mailval_measure::hostile::{classify_reply, classify_wire, synthesize_hostile_dns};
use mailval_measure::store::{CampaignStore, KeySpec};
use mailval_measure::vfs::SimFs;
use mailval_measure::{journal, progress};
use mailval_mta::actor::{ConnContext, MtaActor, MtaInput, MtaOutput, MtaSink};
use mailval_mta::profile::{MtaProfile, SpfTrigger};
use mailval_simnet::{
    DnsMutation, FaultCursor, IoConfig, IoPlan, MalformedClass, MalformedStats, PayloadConfig,
    PayloadPlan, SimRng,
};
use mailval_smtp::line::crlf_lines;
use mailval_smtp::mail::MailMessage;
use mailval_smtp::reply::ReplyParser;
use mailval_spf::record::SpfRecord;
use std::collections::BTreeMap;
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

    // Stage 3: DKIM signatures and key records through the verifier.
    let dkim_frames = (frames / 5).clamp(256, 50_000);
    let start = Instant::now();
    let dkim = fuzz_dkim(dkim_frames, seed);
    assert_eq!(
        dkim.results.values().sum::<u64>(),
        dkim.frames,
        "every DKIM frame must end in one result class"
    );
    progress!(
        "fuzz: dkim stage in {:.2}s: {} mutated signatures and key records, \
         {} key queries, {} oversized key names, 0 panics",
        start.elapsed().as_secs_f64(),
        dkim.frames,
        dkim.key_queries,
        dkim.oversized_key_names
    );
    for (class, n) in &dkim.results {
        progress!("fuzz:   dkim {class:<17} {n}");
    }

    // Stage 4: SMTP dialogues through the receiving MTA.
    let mta_frames = (frames / 5).clamp(256, 50_000);
    let start = Instant::now();
    let mta = fuzz_mta(mta_frames, seed);
    assert_eq!(
        mta.classes.values().sum::<u64>(),
        mta.replies,
        "every MTA reply must land in one class"
    );
    progress!(
        "fuzz: mta stage in {:.2}s: {} mutated dialogues, {} lines, {} replies, 0 panics",
        start.elapsed().as_secs_f64(),
        mta.frames,
        mta.lines,
        mta.replies
    );
    for (class, n) in &mta.classes {
        progress!("fuzz:   mta {class:<18} {n}");
    }
}

/// Tallies from the MTA fuzz stage.
pub struct MtaFuzzReport {
    /// Dialogues driven, each on its own actor.
    pub frames: u64,
    /// Command and DATA lines fed to the actors.
    pub lines: u64,
    /// Replies the actors wrote.
    pub replies: u64,
    /// Replies by class (`accepted`, `syntax`, `sequence`, ...); they
    /// sum to `replies`.
    pub classes: BTreeMap<&'static str, u64>,
}

/// The class of an MTA reply, by its code; `None` for a code the MTA
/// has no business writing.
fn mta_reply_class(code: u16) -> Option<&'static str> {
    Some(match code {
        220 => "greeting",
        221 => "closing",
        250 => "accepted",
        252 => "vrfy",
        354 => "data",
        451 => "tempfail",
        500 => "syntax",
        501 => "arguments",
        503 => "sequence",
        550 => "no_such_user",
        554 => "policy",
        _ => return None,
    })
}

/// A probe-shaped dialogue, one line per entry: EHLO, MAIL, two RCPTs,
/// DATA, a short message, the end-of-data dot and QUIT.
const MTA_DIALOGUE: &[&str] = &[
    "EHLO probe.dns-lab.org",
    "MAIL FROM:<spf-test@t01.m00042.spf-test.dns-lab.org>",
    "RCPT TO:<michael@org00042.com>",
    "RCPT TO:<postmaster@org00042.com>",
    "DATA",
    "From: Notifier <spf-test@t01.m00042.spf-test.dns-lab.org>",
    "Subject: network notification",
    "",
    "..a stuffed dot",
    "body",
    ".",
    "QUIT",
];

/// Lines the DATA-body mutator splices into a dialogue.
const MTA_LINES: &[&str] = &[
    ".",
    "..",
    "...",
    "",
    " ",
    "DATA",
    "RSET",
    "MAIL FROM:<>",
    "RCPT TO:<support@org00042.com>",
    "HELO legacy.test",
    "VRFY postmaster",
    "NOOP",
    "DKIM-Signature: v=1; a=rsa-sha256; d=org00042.com; s=s1; h=from; bh=AA; b=BB",
    "From: <a@b.test>",
    "From: no address at all",
    "X-Bad:\0nul",
    "bare\rcr",
    "\u{e9}\u{fffd}",
];

/// Drive `frames` mutated dialogues through [`MtaActor`]. Each frame
/// samples the actor's behavior switches and its connection, mutates
/// the dialogue's lines (byte edits, spliced lines), groups them into
/// pipelined segments, and answers every lookup and timer the actor
/// asks for. Panics on a reply that does not parse or has no class; an
/// actor panic propagates.
pub fn fuzz_mta(frames: u64, seed: u64) -> MtaFuzzReport {
    let mut report = MtaFuzzReport {
        frames: 0,
        lines: 0,
        replies: 0,
        classes: BTreeMap::new(),
    };
    let mut rng = SimRng::new(seed ^ 0x37A_F022);
    let triggers = [
        SpfTrigger::AtMail,
        SpfTrigger::AtRcpt,
        SpfTrigger::AtData,
        SpfTrigger::AfterDelivery,
    ];
    let usernames = [None, Some("michael"), Some("support")];
    let mut sink = MtaSink::default();
    for _ in 0..frames {
        report.frames += 1;
        let mut profile = MtaProfile::strict();
        profile.spf_trigger = *rng.pick(&triggers);
        profile.checks_helo = rng.chance(0.3);
        profile.greylists = rng.chance(0.2);
        profile.rejects_spam = rng.chance(0.2);
        profile.rejects_blacklist = rng.chance(0.2);
        profile.rejects_all_recipients = rng.chance(0.1);
        profile.postmaster_bypass = rng.chance(0.3);
        profile.accepted_username = *rng.pick(&usernames);
        profile.spf_unfinished = rng.chance(0.1);
        let ctx = ConnContext {
            client_ip: "192.0.2.77".parse().expect("a literal address"),
            client_blacklisted: rng.chance(0.2),
            recipients_guessed: rng.chance(0.5),
        };
        let mut actor = MtaActor::new("mx.fuzz.test", profile, ctx);
        actor.handle(MtaInput::Connected, &mut sink);
        drain_mta(&mut actor, &mut sink, &mut rng, &mut report);

        let mut lines: Vec<String> = MTA_DIALOGUE.iter().map(|l| l.to_string()).collect();
        for _ in 0..1 + rng.next_below(3) {
            let at = rng.next_below(lines.len() as u64 + 1) as usize;
            match rng.next_below(3) {
                0 if at < lines.len() => lines[at] = mutate_text(&lines[at], &mut rng),
                1 => lines.insert(at, rng.pick(MTA_LINES).to_string()),
                _ => {
                    let long = "x".repeat(rng.next_below(2_000) as usize);
                    lines.insert(at, long);
                }
            }
        }
        // Pipeline: one to four lines per segment, framed as the engine
        // frames a segment.
        let mut rest = lines.as_slice();
        while !rest.is_empty() {
            let take = (1 + rng.next_below(4) as usize).min(rest.len());
            let segment: String = rest[..take].iter().map(|l| format!("{l}\r\n")).collect();
            rest = &rest[take..];
            for line in crlf_lines(&segment) {
                report.lines += 1;
                let line = line.trim_end_matches(['\r', '\n']);
                actor.handle(MtaInput::Line(line), &mut sink);
            }
            drain_mta(&mut actor, &mut sink, &mut rng, &mut report);
        }
        actor.handle(MtaInput::Disconnected, &mut sink);
        drain_mta(&mut actor, &mut sink, &mut rng, &mut report);
    }
    report
}

/// Act on everything the actor emitted until it emits nothing more:
/// classify each reply, answer each lookup (NXDOMAIN, SERVFAIL, a
/// timeout or a `-all` policy) and fire each timer.
fn drain_mta(
    actor: &mut MtaActor,
    sink: &mut MtaSink,
    rng: &mut SimRng,
    report: &mut MtaFuzzReport,
) {
    let mut parser = ReplyParser::new();
    for _ in 0..10_000 {
        if sink.outputs.is_empty() {
            return;
        }
        let mut inputs = Vec::new();
        for output in std::mem::take(&mut sink.outputs) {
            match output {
                MtaOutput::Smtp(text) => {
                    for line in crlf_lines(&text) {
                        let reply = parser
                            .push_line(line)
                            .unwrap_or_else(|e| panic!("MTA wrote {text:?}: {e}"));
                        if let Some(reply) = reply {
                            report.replies += 1;
                            let class = mta_reply_class(reply.code)
                                .unwrap_or_else(|| panic!("unclassified MTA reply {text:?}"));
                            *report.classes.entry(class).or_default() += 1;
                        }
                    }
                    sink.recycle(text);
                }
                MtaOutput::Resolve { qid, name, .. } => {
                    let outcome = match rng.next_below(4) {
                        0 => ResolveOutcome::NxDomain,
                        1 => ResolveOutcome::ServFail,
                        2 => ResolveOutcome::Timeout,
                        _ => ResolveOutcome::Records(vec![Record::new(
                            name,
                            300,
                            RData::txt_from_str("v=spf1 -all"),
                        )]),
                    };
                    inputs.push(MtaInput::DnsFinished { qid, outcome });
                }
                MtaOutput::SetTimer { token, .. } => inputs.push(MtaInput::Timer { token }),
                MtaOutput::Close | MtaOutput::Stall { .. } | MtaOutput::Event(_) => {}
            }
        }
        for input in inputs {
            actor.handle(input, sink);
        }
    }
    panic!("the MTA kept emitting for 10,000 rounds");
}

/// Tallies from the DKIM fuzz stage.
pub struct DkimFuzzReport {
    /// Verifier runs driven, each on a mutated signature, key record or
    /// both.
    pub frames: u64,
    /// Runs whose signature got as far as the key query.
    pub key_queries: u64,
    /// Runs ended at `start` because `s=` and `d=` do not fit in one
    /// DNS name.
    pub oversized_key_names: u64,
    /// Verdicts by result class (`pass`, `fail`, `permerror`, ...);
    /// they sum to `frames`.
    pub results: BTreeMap<&'static str, u64>,
}

/// Drive `frames` mutated `DKIM-Signature` values and key-record TXT
/// answers through [`DkimVerifier`]. Each frame takes a signature from
/// a small signed corpus (one of which names a key record too long for
/// DNS) and mutates the signature, the key record or both. Panics on a
/// verdict without its reason; a verifier panic propagates.
pub fn fuzz_dkim(frames: u64, seed: u64) -> DkimFuzzReport {
    let keypair = RsaKeyPair::generate(512, &mut SplitMix64::new(seed ^ 0xD41A));
    let key_text = DkimKeyRecord::for_key(&keypair.public).to_record_text();
    let mut message = MailMessage::new();
    message.add_header("From", "Notifier <spf-test@signer.example>");
    message.add_header("Subject", "Network notification");
    message.set_body_text("Dear operator,\nYour network has an issue.\n");
    let name = |s: &str| Name::parse(s).expect("valid corpus name");
    let long_domain = ["a", "b", "c", "d"].map(|c| c.repeat(60)).join(".");
    let corpus: Vec<String> = [
        ("signer.example", "sel1", false),
        ("signer.example", "sel1", true),
        (long_domain.as_str(), "selector", false),
    ]
    .into_iter()
    .map(|(domain, selector, simple)| {
        let mut config = SignConfig::new(name(domain), name(selector));
        if simple {
            config.header_canon = Canonicalization::Simple;
            config.body_canon = Canonicalization::Simple;
            config.algorithm = HashAlg::Sha1;
            config.timestamp = Some(1_600_000_000);
        }
        sign_message(&message, &config, &keypair.private).expect("corpus signs")
    })
    .collect();

    let mut report = DkimFuzzReport {
        frames: 0,
        key_queries: 0,
        oversized_key_names: 0,
        results: BTreeMap::new(),
    };
    let mut rng = SimRng::new(seed ^ 0xD4_1A5E);
    for _ in 0..frames {
        report.frames += 1;
        // 0: the signature, 1: the key record, 2: both.
        let target = rng.next_below(3);
        let mut signature = rng.pick(&corpus).clone();
        if target != 1 {
            signature = mutate_text(&signature, &mut rng);
        }
        let mut signed = message.clone();
        signed.prepend_header("DKIM-Signature", &signature);
        let mut verifier = DkimVerifier::new(&signed, 0);
        let result = match verifier.start() {
            VerifyStep::Done(result) => result,
            VerifyStep::NeedKey { name, .. } => {
                report.key_queries += 1;
                let outcome = if target == 0 {
                    ResolveOutcome::Records(vec![Record::new(
                        name,
                        300,
                        RData::txt_from_str(&key_text),
                    )])
                } else {
                    match rng.next_below(8) {
                        0 => ResolveOutcome::NxDomain,
                        1 => ResolveOutcome::Timeout,
                        _ => ResolveOutcome::Records(vec![Record::new(
                            name,
                            300,
                            RData::Txt(vec![mutate_text(&key_text, &mut rng).into_bytes()]),
                        )]),
                    }
                };
                match verifier.on_key(outcome) {
                    VerifyStep::Done(result) => result,
                    VerifyStep::NeedKey { .. } => panic!("verifier asked for a second key"),
                }
            }
        };
        if result == DkimResult::PermError("key record name too long".into()) {
            report.oversized_key_names += 1;
        }
        let (class, reason) = match &result {
            DkimResult::Pass => ("pass", None),
            DkimResult::None => ("none", None),
            DkimResult::TempError => ("temperror", None),
            DkimResult::Fail(reason) => ("fail", Some(reason)),
            DkimResult::PermError(reason) => ("permerror", Some(reason)),
            DkimResult::Neutral(reason) => ("neutral", Some(reason)),
        };
        assert!(
            reason.is_none_or(|r| !r.is_empty()),
            "{result:?} without a reason"
        );
        *report.results.entry(class).or_default() += 1;
    }
    report
}

/// Tokens the DKIM mutator splices in: tag syntax, folding, hostile
/// values and non-ASCII text.
const DKIM_TOKENS: &[&str] = &[
    ";",
    "=",
    " ",
    "\r\n\t",
    "d=",
    "s=",
    "h=",
    "b=",
    "a=rsa-sha1;",
    "c=simple/relaxed;",
    "l=99999999999999999999;",
    "l=0;",
    "i=@signer.example;",
    "q=dns/txt;",
    "k=ed25519;",
    "h=sha1;",
    "p=;",
    "v=DKIM1;",
    "\u{fffd}",
    "\u{e9}",
];

/// One to three byte-level mutations of `text`: a bit flip, a cut, a
/// deleted or repeated span, a spliced token, or a 63-byte label put in
/// front of the `d=` or `s=` value. Bytes that are no longer UTF-8
/// arrive as U+FFFD, as a header or TXT string decoded lossily would.
fn mutate_text(text: &str, rng: &mut SimRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.next_below(3) {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        let end = (at + 1 + rng.next_below(16) as usize).min(bytes.len());
        match rng.next_below(6) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.next_below(8),
            1 => bytes.truncate(at),
            2 => {
                bytes.drain(at..end);
            }
            3 => {
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            4 => {
                let tag = if rng.next_below(2) == 0 { "d=" } else { "s=" };
                if let Some(pos) = text_find(&bytes, tag.as_bytes()) {
                    let label = format!("{}.", "x".repeat(63));
                    bytes.splice(pos + 2..pos + 2, label.into_bytes());
                }
            }
            _ => {
                let token = rng.pick(DKIM_TOKENS).as_bytes().to_vec();
                bytes.splice(at..at, token);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The offset of the first `needle` in `haystack`.
fn text_find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
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
    fn fuzz_dkim_smoke_classifies_every_verdict() {
        let report = fuzz_dkim(600, 2021);
        assert_eq!(report.frames, 600);
        assert_eq!(report.results.values().sum::<u64>(), 600);
        // The stage reaches the key query, ends some runs on a key name
        // too long for DNS, and both accepts and rejects.
        assert!(
            report.key_queries > 100,
            "{} key queries",
            report.key_queries
        );
        assert!(report.oversized_key_names > 0);
        assert!(report.results.get("pass").is_some_and(|&n| n > 0));
        assert!(report.results.get("permerror").is_some_and(|&n| n > 0));
        assert!(report.results.get("fail").is_some_and(|&n| n > 0));
    }

    #[test]
    fn fuzz_mta_smoke_classifies_every_reply() {
        let report = fuzz_mta(400, 2021);
        assert_eq!(report.frames, 400);
        assert_eq!(report.classes.values().sum::<u64>(), report.replies);
        // The dialogues reach the greeting, acceptances and every
        // kind of refusal the session writes.
        for class in ["greeting", "accepted", "syntax", "arguments", "sequence"] {
            assert!(
                report.classes.get(class).is_some_and(|&n| n > 0),
                "no {class} replies: {:?}",
                report.classes
            );
        }
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
