//! The traced run: per-layer metrics.
//!
//! On the campaign workloads, repetitions alternate untraced and traced
//! (`telemetry.tracing = true`). Layer times come from the benchmark's
//! own spans around the program's public calls in the untraced
//! repetitions; the traced ones supply the deterministic work counts (the
//! `MetricsRegistry` of the program's `RecordingTracer`) and the tracing
//! overhead. Unit costs of the DNS, SPF, DKIM, SMTP and journal layers
//! come from replaying one result's inputs through those layers' public
//! functions once per iteration. A layer a workload bypasses reports 0.

use crate::report::{Metric, Series};
use crate::workloads::{
    artifacts_env, artifacts_pass, campaign_rep, hex, remove_dir, CampaignSpec, Workload,
    CAMPAIGN_SEED, DEFAULT_SEED,
};
use crate::{
    check_artifacts_pin, check_campaign, check_campaign_pin, check_warm, pins, Ctx, Measured,
};
use mailval_bench::CampaignRequest;
use mailval_crypto::bigint::SplitMix64;
use mailval_crypto::rsa::RsaKeyPair;
use mailval_crypto::sha256::sha256;
use mailval_crypto::HashAlg;
use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_dkim::key::DkimKeyRecord;
use mailval_dkim::{sign_message, DkimVerifier, SignConfig, VerifyStep};
use mailval_dmarc::record::DmarcRecord;
use mailval_dns::message::Message;
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::rr::RData;
use mailval_dns::server::{ServerCore, Transport};
use mailval_dns::{Name, Record};
use mailval_measure::campaign::{sample_host_profiles, CampaignResult, CampaignWorld};
use mailval_measure::journal::{self, JournalFrame, JournalWriter};
use mailval_measure::names::NameScheme;
use mailval_measure::policies::SynthAddrs;
use mailval_measure::store::{decode_entry, encode_entry, CampaignKey, CampaignStore};
use mailval_measure::telemetry::{metrics_json, MetricsRegistry};
use mailval_measure::SynthesizingAuthority;
use mailval_simnet::FaultStats;
use mailval_smtp::reply::ReplyParser;
use mailval_smtp::{Command, MailMessage};
use mailval_spf::record::looks_like_spf;
use mailval_spf::SpfRecord;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `f`'s value and the seconds it took.
fn clocked<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = black_box(f());
    (value, start.elapsed().as_secs_f64())
}

/// Seconds `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> f64 {
    clocked(f).1
}

/// Per-layer host-time series of one run.
#[derive(Default)]
struct Layers {
    generate: Series,
    build: Series,
    instantiate: Series,
    simulate: Series,
    merge: Series,
    store_encode: Series,
    store_save: Series,
    store_load: Series,
    store_decode: Series,
    resolve: Series,
    render: Series,
    renders: Vec<(&'static str, Series)>,
    untraced: Series,
    traced: Series,
}

impl Layers {
    fn add_renders(&mut self, renders: &[(&'static str, f64)]) {
        for (name, s) in renders {
            match self.renders.iter_mut().find(|(n, _)| n == name) {
                Some((_, series)) => series.push(*s),
                None => {
                    let mut series = Series::default();
                    series.push(*s);
                    self.renders.push((name, series));
                }
            }
        }
    }
}

/// Work counts of one traced repetition.
#[derive(Default)]
struct Counts {
    sessions: usize,
    events: u64,
    queries: usize,
    signed: usize,
    journal_frames: usize,
    journal_bytes: u64,
    trace_events: usize,
    registry: MetricsRegistry,
}

impl Counts {
    fn counter(&self, name: &str) -> u64 {
        self.registry.counters.get(name).copied().unwrap_or(0)
    }

    fn sum_prefix(&self, prefix: &str, except: &str) -> u64 {
        self.registry
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.as_str() != except)
            .map(|(_, v)| v)
            .sum()
    }

    fn spf_lookups_mean(&self) -> f64 {
        self.registry
            .histograms
            .get("spf_lookups")
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.sum as f64 / h.count as f64)
    }
}

/// The traced run of `ctx.workload`.
pub fn run(ctx: &mut Ctx) -> Measured {
    match ctx.workload {
        Workload::ArtifactsWarm => artifacts(ctx),
        _ => campaign(ctx),
    }
}

/// Time the store codec and a scratch save/load of `result`.
fn store_layers(
    layers: &mut Layers,
    key: &CampaignKey,
    result: &CampaignResult,
    scratch: &Path,
) -> Result<(), String> {
    let (bytes, t) = clocked(|| encode_entry(key, result));
    layers.store_encode.push(t);
    let (decoded, t) = clocked(|| decode_entry(&bytes, key).is_ok());
    layers.store_decode.push(t);
    if !decoded {
        return Err("store entry does not decode".to_string());
    }
    let store = CampaignStore::new(scratch);
    let (saved, t) = clocked(|| store.save(key, result).is_ok());
    layers.store_save.push(t);
    let (loaded, t) = clocked(|| store.load(key).map(|l| l.content_hash()).ok());
    layers.store_load.push(t);
    if saved && loaded == Some(result.content_hash()) {
        Ok(())
    } else {
        Err("scratch store save/load does not reproduce the content hash".to_string())
    }
}

fn campaign(ctx: &mut Ctx) -> Measured {
    let work = ctx.work.clone();
    let spec = CampaignSpec::new(ctx.workload, ctx.seed, &work.join("journal"));
    let key = spec.key();
    let mut expected = pins::content_hash(ctx.workload).filter(|_| ctx.seed == DEFAULT_SEED);
    let notify = ctx.workload == Workload::NotifyEmail;

    // The warm-up repetition's inputs drive the unit-cost replays.
    let warm = campaign_rep(&spec, &work, false);
    let warm = check_campaign(ctx, &spec, warm, &mut expected, "warm-up repetition")
        .ok_or("the warm-up repetition did not pass verification")?;
    let replays = Replays::new(ctx, &warm.result, &work)?;
    drop(warm);
    let mut units = UnitCosts::default();

    let mut layers = Layers::default();
    let mut counts = Counts::default();
    let mut digest: Option<[u8; 32]> = None;
    ctx.start_clock();
    let mut iterations = 0;
    while ctx.more(iterations) {
        iterations += 1;
        let rep = campaign_rep(&spec, &work, false);
        if let Some(rep) = check_campaign(ctx, &spec, rep, &mut expected, "untraced repetition") {
            layers.untraced.push(rep.wall_s);
            layers.generate.push(rep.generate_s);
            layers.build.push(rep.build_s);
            layers.simulate.push(rep.result.phases.simulate_s);
            layers.merge.push(rep.result.phases.merge_s);
            layers
                .instantiate
                .push(time(|| rep.world.shard_sessions(0, 1)));
            let stored = store_layers(&mut layers, &key, &rep.result, &work.join("scratch"));
            ctx.ops.record("store codec round trip", stored);
        }
        ctx.block_if_due();

        let traced = campaign_rep(&spec, &work, true);
        if let Some(traced) = check_campaign(ctx, &spec, traced, &mut expected, "traced repetition")
        {
            layers.traced.push(traced.wall_s);
            let telemetry = traced.result.telemetry.clone().unwrap_or_default();
            let d = sha256(metrics_json(&telemetry.metrics).as_bytes());
            let repeats = match digest {
                Some(prev) if prev != d => {
                    Err("MetricsRegistry digest differs between repetitions")
                }
                _ => Ok(()),
            };
            ctx.ops
                .record("metrics digest repeats", repeats.map_err(String::from));
            digest = Some(d);
            counts = Counts {
                sessions: traced.result.sessions.len(),
                events: traced.result.events,
                queries: traced.result.log.records.len(),
                signed: if notify {
                    traced.result.sessions.len()
                } else {
                    0
                },
                trace_events: telemetry.events.len(),
                registry: telemetry.metrics,
                ..Counts::default()
            };
            if let Some(dir) = &spec.config.journal_dir {
                let path = journal::shard_journal_path(dir, 0);
                counts.journal_frames = journal::replay(&path).frames.len();
                counts.journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            }
        }
        replays.measure(&mut units);
        ctx.block_if_due();
    }
    if layers.untraced.samples.is_empty() || digest.is_none() {
        return Err("no repetition passed verification".to_string());
    }
    check_digest_pin(ctx, digest);
    check_campaign_pin(ctx, expected);

    let reps = layers.untraced.samples.len();
    let sessions = counts.sessions;
    Ok((report(ctx, &layers, &counts, &units), reps, sessions))
}

/// Compare the traced `MetricsRegistry` digest with the pinned one. A
/// mismatch is loud but not a failure: the content hash is the
/// correctness gate; this names the statistics that moved.
fn check_digest_pin(ctx: &Ctx, digest: Option<[u8; 32]>) {
    let Some(digest) = digest else { return };
    if ctx.seed != DEFAULT_SEED {
        return;
    }
    match pins::metrics_digest(ctx.workload) {
        None => eprintln!(
            "[benchmark] {} MetricsRegistry digest at the default seed (unpinned): {}",
            ctx.workload.name(),
            hex(&digest)
        ),
        Some(pin) if pin != digest => eprintln!(
            "[benchmark] !!! MetricsRegistry DIGEST MISMATCH for {}: {} (pinned {}) — \
             the simulated statistics changed",
            ctx.workload.name(),
            hex(&digest),
            hex(&pin)
        ),
        Some(_) => eprintln!("[benchmark] MetricsRegistry digest matches the pin"),
    }
}

fn artifacts(ctx: &mut Ctx) -> Measured {
    let work = ctx.work.clone();
    let store_dir = work.join("store");
    let env = artifacts_env(ctx.seed);
    let mut layers = Layers::default();

    // The cold pass that populates the store: the simulation behind
    // this workload, outside its timed warm passes. Its NotifyEmail
    // result drives the unit-cost replays.
    remove_dir(&store_dir).map_err(|e| e.to_string())?;
    let mut cold = artifacts_pass(env, &store_dir, |_| true);
    let results = cold.results();
    let total = |phase: fn(&CampaignResult) -> f64| results.iter().map(|r| phase(r)).sum();
    layers.build.push(total(|r| r.phases.setup_s));
    layers.simulate.push(total(|r| r.phases.simulate_s));
    layers.merge.push(total(|r| r.phases.merge_s));
    let mut counts = Counts {
        events: results.iter().map(|r| r.events).sum(),
        ..Counts::default()
    };
    drop(results);
    let notify = cold.runner.campaign(&CampaignRequest::NotifyEmail);
    let replays = Replays::new(ctx, &notify, &work)?;
    drop(notify);
    let mut units = UnitCosts::default();
    let cold_text = std::mem::take(&mut cold.text);
    drop(cold);

    // Instantiation of the same NotifyEmail world, timed on its own.
    let spec = CampaignSpec::new(Workload::NotifyEmail, ctx.seed, &work.join("journal"));
    let pop = spec.population();
    let profiles = sample_host_profiles(&pop, CAMPAIGN_SEED);
    let world = CampaignWorld::build(&spec.config, &pop, &profiles);
    layers.instantiate.push(time(|| world.shard_sessions(0, 1)));
    drop(world);

    ctx.start_clock();
    let mut iterations = 0;
    while ctx.more(iterations) {
        iterations += 1;
        let mut pass = artifacts_pass(env, &store_dir, |_| true);
        if check_warm(ctx, &pass, &cold_text, "warm pass") {
            counts.sessions = pass.sessions;
            layers.untraced.push(pass.wall_s);
            layers.resolve.push(pass.resolve_s);
            layers.render.push(pass.render_s());
            layers.add_renders(&pass.renders);
            // The store codec and a scratch save and load of every entry
            // this pass read.
            let mut codec = Layers::default();
            for (i, result) in pass.results().iter().enumerate() {
                let key = CampaignKey {
                    hash: sha256(format!("artifacts_warm entry {i}").as_bytes()),
                    label: format!("entry {i}"),
                };
                let stored = store_layers(&mut codec, &key, result, &work.join("scratch"));
                ctx.ops.record("store codec round trip", stored);
            }
            let total = |s: &Series| s.samples.iter().sum::<f64>();
            layers.store_encode.push(total(&codec.store_encode));
            layers.store_decode.push(total(&codec.store_decode));
            layers.store_save.push(total(&codec.store_save));
            layers.store_load.push(total(&codec.store_load));
        }
        drop(pass);
        layers.generate.push(time(|| {
            for kind in [DatasetKind::NotifyEmail, DatasetKind::TwoWeekMx] {
                Population::generate(&PopulationConfig {
                    kind,
                    scale: env.scale,
                    seed: env.seed,
                });
            }
        }));
        replays.measure(&mut units);
        ctx.block_if_due();
    }
    if layers.untraced.samples.is_empty() {
        return Err("no warm pass passed verification".to_string());
    }
    check_artifacts_pin(ctx, &cold_text);
    let reps = layers.untraced.samples.len();
    Ok((report(ctx, &layers, &counts, &units), reps, counts.sessions))
}

/// Per-item unit costs replayed over this run's inputs, in seconds per
/// item (the journal replay in seconds per replay); one sample per pass.
#[derive(Default)]
struct UnitCosts {
    server: Series,
    codec: Series,
    spf_parse: Series,
    dkim_sign: Series,
    dkim_verify: Series,
    rsa_sign: Series,
    smtp_parse: Series,
    journal_encode: Series,
    journal_replay: Series,
}

/// Iterations of each fixed-input kernel per pass.
const KERNEL_ITERS: usize = 40;

/// Seconds per item of `f`, which handles `items` items.
fn per_item(items: usize, f: impl FnOnce()) -> f64 {
    time(f) / items.max(1) as f64
}

/// The replay inputs taken from one campaign result. Built once per
/// run, after which the result is dropped; replayed once per iteration,
/// so the unit costs sample the same host states as the layer times and
/// the reference blocks.
struct Replays {
    server: ServerCore<SynthesizingAuthority>,
    keypair: RsaKeyPair,
    dkim_record: String,
    requests: Vec<(Vec<u8>, Transport, bool)>,
    responses: Vec<Vec<u8>>,
    policies: Vec<String>,
    message: MailMessage,
    sign_config: SignConfig,
    signed: MailMessage,
    digest: Vec<u8>,
    frames: Vec<JournalFrame>,
    journal: PathBuf,
}

impl Replays {
    /// Take the replay inputs from `result`, writing its journal frames
    /// under `work` and checking that they replay.
    fn new(ctx: &mut Ctx, result: &CampaignResult, work: &Path) -> Result<Replays, String> {
        // The apparatus's DNS server and DKIM key, as a campaign stands
        // them up.
        let mut rng = SplitMix64::new(CAMPAIGN_SEED ^ 0x444b_4559);
        let keypair = RsaKeyPair::generate(1024, &mut rng);
        let dkim_record = DkimKeyRecord::for_key(&keypair.public).to_record_text();
        let server = ServerCore::new(SynthesizingAuthority::new(
            NameScheme::default(),
            SynthAddrs::default(),
            dkim_record.clone(),
            DmarcRecord::strict_reject("dmarc-reports@dns-lab.org").to_record_text(),
        ));

        // DNS: every logged query, re-asked of the server.
        let requests: Vec<_> = result
            .log
            .records
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let query = Message::query(i as u16, q.qname.clone(), q.qtype).to_bytes();
                (query, q.transport, q.via_ipv6)
            })
            .collect();
        let responses: Vec<Vec<u8>> = requests
            .iter()
            .filter_map(|(q, t, v6)| server.handle(q, *t, *v6).map(|r| r.bytes))
            .collect();

        // SPF: every policy record the server handed out.
        let mut policies: Vec<String> = responses
            .iter()
            .filter_map(|b| Message::from_bytes(b).ok())
            .flat_map(|m| m.answers)
            .filter_map(|rr| rr.rdata.txt_joined())
            .filter(|txt| looks_like_spf(txt))
            .collect();
        if policies.is_empty() {
            policies.push("v=spf1 ip4:192.0.2.0/24 include:example.net ~all".to_string());
        }

        // DKIM and RSA: a notification like the campaign's, signed with
        // the apparatus key and verified against its key record.
        let message = notification();
        let sign_config = SignConfig::new(name("notify.dns-lab.org"), name("sel1"));
        let value =
            sign_message(&message, &sign_config, &keypair.private).map_err(|e| format!("{e:?}"))?;
        let mut signed = message.clone();
        signed.prepend_header("DKIM-Signature", &value);

        // Journal: one frame per session of this result, written and
        // replayed once as a check.
        let frames = journal_frames(result);
        let journal = work.join("replay.jrnl");
        let mut writer = JournalWriter::create(&journal).map_err(|e| e.to_string())?;
        for f in &frames {
            writer.append(f).map_err(|e| e.to_string())?;
        }
        writer.sync().map_err(|e| e.to_string())?;
        drop(writer);
        let replayed = journal::replay(&journal).frames.len();
        let replay_ok = if replayed == frames.len() {
            Ok(())
        } else {
            Err(format!(
                "journal replay returned {replayed} of {} frames",
                frames.len()
            ))
        };
        ctx.ops.record("journal replay", replay_ok);

        let replays = Replays {
            server,
            keypair,
            dkim_record,
            requests,
            responses,
            policies,
            message,
            sign_config,
            signed,
            digest: HashAlg::Sha256.digest(b"reference notification digest"),
            frames,
            journal,
        };
        if !replays.verify_once() {
            return Err("DKIM verification replay did not complete".to_string());
        }
        Ok(replays)
    }

    fn verify_once(&self) -> bool {
        let mut v = DkimVerifier::new(&self.signed, 0);
        match v.start() {
            VerifyStep::NeedKey { name, .. } => {
                let key = Record::new(name, 60, RData::txt_from_str(&self.dkim_record));
                matches!(
                    v.on_key(ResolveOutcome::Records(vec![key])),
                    VerifyStep::Done(_)
                )
            }
            VerifyStep::Done(_) => false,
        }
    }

    /// One pass over every replay, one sample per layer.
    fn measure(&self, u: &mut UnitCosts) {
        u.server.push(per_item(self.requests.len(), || {
            for (query, transport, v6) in &self.requests {
                black_box(self.server.handle(query, *transport, *v6));
            }
        }));
        u.codec.push(per_item(self.responses.len(), || {
            for bytes in &self.responses {
                if let Ok(msg) = Message::from_bytes(bytes) {
                    black_box(msg.to_bytes());
                }
            }
        }));
        u.spf_parse.push(per_item(self.policies.len(), || {
            for p in &self.policies {
                black_box(SpfRecord::parse(p).is_ok());
            }
        }));
        let private = &self.keypair.private;
        u.dkim_sign.push(per_item(KERNEL_ITERS, || {
            for _ in 0..KERNEL_ITERS {
                black_box(sign_message(&self.message, &self.sign_config, private).is_ok());
            }
        }));
        u.dkim_verify.push(per_item(KERNEL_ITERS, || {
            for _ in 0..KERNEL_ITERS {
                black_box(self.verify_once());
            }
        }));
        u.rsa_sign.push(per_item(KERNEL_ITERS, || {
            for _ in 0..KERNEL_ITERS {
                black_box(private.sign_digest(HashAlg::Sha256, &self.digest).is_ok());
            }
        }));
        // SMTP: one session's command and reply lines.
        let lines = KERNEL_ITERS * (COMMANDS.len() + REPLIES.len());
        u.smtp_parse.push(per_item(lines, || {
            for _ in 0..KERNEL_ITERS {
                for line in COMMANDS {
                    black_box(Command::parse(line).is_ok());
                }
                let mut parser = ReplyParser::new();
                for line in REPLIES {
                    black_box(parser.push_line(line).is_ok());
                }
            }
        }));
        u.journal_encode.push(per_item(self.frames.len(), || {
            for f in &self.frames {
                black_box(journal::encode_frame(f));
            }
        }));
        u.journal_replay.push(per_item(1, || {
            black_box(journal::replay(&self.journal).frames.len());
        }));
    }
}

const COMMANDS: [&str; 6] = [
    "EHLO probe.dns-lab.org",
    "MAIL FROM:<notify@m00042.notify.dns-lab.org>",
    "RCPT TO:<postmaster@example.com>",
    "DATA",
    "RSET",
    "QUIT",
];

const REPLIES: [&str; 8] = [
    "220 mx1.example.com ESMTP ready",
    "250-mx1.example.com greets probe.dns-lab.org",
    "250-PIPELINING",
    "250 8BITMIME",
    "250 2.1.0 Sender OK",
    "354 End data with <CR><LF>.<CR><LF>",
    "550 5.7.1 Message rejected by SPF policy",
    "221 2.0.0 Bye",
];

fn name(s: &str) -> Name {
    Name::parse(s).expect("static name is valid")
}

/// A notification message shaped like the NotifyEmail campaign's.
fn notification() -> MailMessage {
    let mut m = MailMessage::new();
    m.add_header(
        "From",
        "Network Notifier <notify@m00042.notify.dns-lab.org>",
    );
    m.add_header("To", "operator@example.com");
    m.add_header(
        "Subject",
        "Action recommended: source-address-validation issue detected",
    );
    m.add_header("Date", "Mon, 12 Oct 2020 09:00:00 +0000");
    m.add_header("Message-ID", "<notify.m00042@dns-lab.org>");
    m.add_header("Reply-To", "research@dns-lab.org");
    m.set_body_text(
        "Dear network operator,\n\nDuring a recent measurement study we detected that your \
         network\ndoes not enforce destination-side source address validation.\nDetails and \
         remediation guidance: https://dns-lab.org/dsav\n\nTo opt out of future \
         notifications, reply to this message.\n",
    );
    m
}

/// One journal frame per session, carrying the session's queries.
fn journal_frames(result: &CampaignResult) -> Vec<JournalFrame> {
    let mut queries: HashMap<usize, Vec<_>> = HashMap::new();
    for q in &result.log.records {
        queries.entry(q.session).or_default().push(q.clone());
    }
    result
        .sessions
        .iter()
        .map(|record| JournalFrame {
            record: record.clone(),
            queries: queries.remove(&record.session_id).unwrap_or_default(),
            faults: FaultStats::default(),
            events: 0,
            end_ms: 0,
        })
        .collect()
}

fn report(ctx: &Ctx, l: &Layers, c: &Counts, u: &UnitCosts) -> Vec<Metric> {
    let norm = ctx.norm();
    let s = |series: &Series, name: &str| series.metric(name, "s", norm, 1.0);
    let us = |series: &Series, name: &str| series.metric(name, "us", norm, 1e6);
    let count = |name: &str, v: f64| Metric::plain(name, "count", v);
    let share = |name: &str, v: f64| Metric::plain(name, "share", v);

    let simulate = s(&l.simulate, "engine.simulate_s");
    let per_session = if c.sessions == 0 {
        0.0
    } else {
        c.events as f64 / c.sessions as f64
    };
    let ns_per_event = if c.events == 0 {
        0.0
    } else {
        simulate.value * 1e9 / c.events as f64
    };
    let metrics_u = [
        us(&u.server, "dns.server_us"),
        us(&u.codec, "dns.codec_us"),
        us(&u.spf_parse, "spf.parse_us"),
        us(&u.dkim_sign, "dkim.sign_us"),
        us(&u.dkim_verify, "dkim.verify_us"),
        us(&u.rsa_sign, "crypto.rsa_sign_us"),
        us(&u.smtp_parse, "smtp.parse_us"),
        us(&u.journal_encode, "journal.encode_us"),
    ];
    let [server, codec, spf_parse, sign, verify, rsa, smtp_parse, journal_encode] = metrics_u;

    // Unit cost × count over the replayed layers, against simulate.
    let spf_evaluations = c.sum_prefix("spf_", "spf_hostile") as f64;
    let spf_parses = spf_evaluations * (1.0 + c.spf_lookups_mean());
    let commands = c.counter("smtp_commands") as f64;
    let replies = c.counter("smtp_replies") as f64;
    let dkim_verifies = (c.counter("dkim_pass") + c.counter("dkim_fail")) as f64;
    let attributed_us = server.value * c.queries as f64
        + codec.value * c.queries as f64
        + spf_parse.value * spf_parses
        + sign.value * c.signed as f64
        + verify.value * dkim_verifies
        + smtp_parse.value * (commands + replies)
        + journal_encode.value * c.journal_frames as f64;
    let attributed = if simulate.value > 0.0 {
        attributed_us / 1e6 / simulate.value
    } else {
        0.0
    };
    // Nothing is traced on artifacts_warm.
    let overhead = if l.traced.samples.is_empty() {
        0.0
    } else {
        l.traced.mean() / l.untraced.mean() - 1.0
    };

    let mut metrics = vec![
        s(&l.generate, "datasets.generate_s"),
        s(&l.build, "campaign.build_s"),
        s(&l.instantiate, "campaign.instantiate_s"),
        simulate.clone(),
        s(&l.merge, "engine.merge_s"),
        count("engine.events", c.events as f64),
        count("engine.events_per_session", per_session),
        Metric {
            raw: simulate.raw.map(|raw| {
                if c.events == 0 {
                    0.0
                } else {
                    raw * 1e9 / c.events as f64
                }
            }),
            ..Metric::plain("engine.ns_per_event", "ns", ns_per_event)
        },
        count("dns.lookups", c.counter("dns_lookups") as f64),
        share(
            "dns.cache_hit_rate",
            c.registry.cache_hit_rate().unwrap_or(0.0),
        ),
        count("dns.sends", c.counter("dns_sends") as f64),
        count(
            "dns.attempt_timeouts",
            c.counter("dns_attempt_timeouts") as f64,
        ),
        count("dns.tcp_fallbacks", c.counter("dns_tcp_fallbacks") as f64),
        server,
        codec,
        count("spf.evaluations", spf_evaluations),
        count("spf.lookups_mean", c.spf_lookups_mean()),
        spf_parse,
        sign,
        verify,
        rsa,
        count("smtp.commands", commands),
        count("smtp.replies", replies),
        count("smtp.rejected", c.counter("smtp_rejected") as f64),
        smtp_parse,
        count("fault.interventions", c.sum_prefix("fault_", "") as f64),
        count("client.retries", c.counter("client_retries") as f64),
        count("conn.resets", c.counter("conn_resets") as f64),
        count("journal.frames", c.journal_frames as f64),
        Metric::plain("journal.mb", "MB", c.journal_bytes as f64 / 1e6),
        journal_encode,
        s(&u.journal_replay, "journal.replay_s"),
        s(&l.store_encode, "store.encode_s"),
        s(&l.store_save, "store.save_s"),
        s(&l.store_load, "store.load_s"),
        s(&l.store_decode, "store.decode_s"),
        s(&l.resolve, "artifacts.resolve_s"),
        s(&l.render, "artifacts.render_s"),
        count("trace.events", c.trace_events as f64),
        share("trace.overhead", overhead),
        share("attributed_share", attributed),
    ];
    for (name, series) in &l.renders {
        metrics.push(s(series, &format!("artifacts.{name}_s")).unlisted());
    }
    metrics
}
