//! Micro-benchmarks over the protocol cores: DNS wire codec, SMTP
//! framing, SPF parsing and evaluation, DKIM sign/verify, policy synthesis, the
//! simulator event loop, RSA, a probe campaign's world build, the
//! journal/store frame CRC-32, DNS name parsing and store entry
//! decoding. Built on the in-tree
//! [`mailval_bench::timing`] harness (no external dependencies;
//! `harness = false`).
//!
//! Run with `cargo bench -p mailval-bench --bench microbench [-- FILTER...]`:
//! only rows whose name contains one of the `FILTER`s run (cargo's own
//! `--bench` argument is ignored). Set `MAILVAL_BENCH_MS` to shrink or
//! grow the per-benchmark budget.

use mailval_bench::timing::bench_fn;
use mailval_crypto::bigint::{Rng64, SplitMix64};
use mailval_crypto::rsa::RsaKeyPair;
use mailval_crypto::HashAlg;
use mailval_datasets::{DatasetKind, Population, PopulationConfig};
use mailval_dns::message::Message;
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::rr::{RData, RecordType};
use mailval_dns::{Name, Record};
use mailval_measure::campaign::{
    run_campaign, sample_host_profiles, CampaignConfig, CampaignKind, CampaignWorld,
};
use mailval_measure::journal::crc32;
use mailval_measure::names::NameScheme;
use mailval_measure::policies::{synthesize_probe, SynthAddrs};
use mailval_measure::store::{decode_entry, encode_entry, CampaignKey};
use mailval_simnet::Simulator;
use mailval_smtp::command::{Command, Mailbox};
use mailval_smtp::line::crlf_lines;
use mailval_smtp::reply::{push_wire_line, Canned, ReplyParser};
use mailval_spf::{DnsQuestion, EvalParams, EvalStep, SpfBehavior, SpfEvaluator, SpfRecord};
use std::hint::black_box;

/// The rows to run: those whose name contains one of the arguments
/// that are not flags, or every row without one.
struct Filter(Vec<String>);

impl Filter {
    fn from_args() -> Filter {
        Filter(
            std::env::args()
                .skip(1)
                .filter(|a| !a.starts_with('-'))
                .collect(),
        )
    }

    fn wants(&self, name: &str) -> bool {
        self.0.is_empty() || self.0.iter().any(|f| name.contains(f.as_str()))
    }

    fn wants_any(&self, names: &[&str]) -> bool {
        names.iter().any(|name| self.wants(name))
    }

    fn bench<T>(&self, name: &str, f: impl FnMut() -> T) {
        if self.wants(name) {
            bench_fn(name, f);
        }
    }
}

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn bench_dns_wire(filter: &Filter) {
    let mut msg = Message::query(1, n("l2.t01.m00042.spf-test.dns-lab.org"), RecordType::Txt);
    msg.answers = vec![
        Record::new(
            n("l2.t01.m00042.spf-test.dns-lab.org"),
            60,
            RData::txt_from_str("v=spf1 include:l3.t01.m00042.spf-test.dns-lab.org ?all"),
        ),
        Record::new(
            n("a.l2.t01.m00042.spf-test.dns-lab.org"),
            60,
            RData::A("192.0.2.1".parse().unwrap()),
        ),
    ];
    let bytes = msg.to_bytes();
    filter.bench("dns_encode", || black_box(&msg).to_bytes());
    filter.bench("dns_decode", || {
        Message::from_bytes(black_box(&bytes)).unwrap()
    });
}

fn bench_smtp_wire(filter: &Filter) {
    // One probe session's dialogue up to the DATA reply, as the engine
    // runs it: every reply written to wire text in a reused buffer,
    // framed into lines and parsed back borrowed; every command written
    // to wire text in a reused buffer, framed and parsed borrowed.
    let ehlo = [
        "mx1.as64500.mail.sim",
        "PIPELINING",
        "SIZE 10240000",
        "8BITMIME",
    ];
    let replies = [
        Canned::greeting("mx1.as64500.mail.sim"),
        Canned::OK,
        Canned::no_such_user("michael@org00042.com"),
        Canned::OK,
        Canned::START_MAIL_INPUT,
    ];
    let mailbox = |text| Mailbox::parse(text).unwrap();
    let commands = [
        Command::Ehlo("probe.dns-lab.org"),
        Command::Mail(Some(mailbox("spf-test@t01.m00042.spf-test.dns-lab.org"))),
        Command::Rcpt(mailbox("michael@org00042.com")),
        Command::Rcpt(mailbox("john.smith@org00042.com")),
        Command::Data,
    ];
    let mut parser = ReplyParser::new();
    let mut wire = String::new();
    filter.bench("smtp_wire", || {
        let mut parsed = 0;
        let mut parse = |wire: &str, parser: &mut ReplyParser| {
            for line in crlf_lines(wire) {
                let line = line.trim_end_matches(['\r', '\n']);
                parsed += parser.push_line(line).unwrap().is_some() as usize;
            }
        };
        // The greeting, then the EHLO reply, then the rest.
        let (greeting, rest) = black_box(&replies).split_first().unwrap();
        wire.clear();
        greeting.write_wire(&mut wire);
        parse(&wire, &mut parser);
        wire.clear();
        for (i, line) in black_box(&ehlo).iter().enumerate() {
            push_wire_line(&mut wire, 250, i + 1 == ehlo.len(), &[line]);
        }
        parse(&wire, &mut parser);
        for reply in rest {
            wire.clear();
            reply.write_wire(&mut wire);
            parse(&wire, &mut parser);
        }
        for command in black_box(&commands) {
            wire.clear();
            command.write_line(&mut wire);
            wire.push_str("\r\n");
            for line in crlf_lines(&wire) {
                let line = line.trim_end_matches(['\r', '\n']);
                parsed += Command::parse(line).is_ok() as usize;
            }
        }
        parsed
    });
}

fn bench_spf(filter: &Filter) {
    let policy = "v=spf1 ip4:192.0.2.0/24 a:mail.example.com include:other.example.net ~all";
    filter.bench("spf_parse", || SpfRecord::parse(black_box(policy)).unwrap());

    // Full evaluation against an in-memory answer set.
    filter.bench("spf_evaluate", || {
        let params = EvalParams {
            ip: "192.0.2.9".parse().unwrap(),
            domain: n("example.com"),
            sender_local: "user".into(),
            sender_domain: n("example.com"),
            helo: "probe.test".into(),
        };
        let mut ev = SpfEvaluator::new(params, SpfBehavior::default());
        let mut step = ev.start();
        loop {
            match step {
                EvalStep::Done(done) => break black_box(done.result),
                EvalStep::NeedLookups(questions) => {
                    let answers: Vec<(DnsQuestion, ResolveOutcome)> = questions
                        .into_iter()
                        .map(|q| {
                            let outcome = if q.rtype == RecordType::Txt {
                                ResolveOutcome::Records(vec![Record::new(
                                    q.name.clone(),
                                    60,
                                    RData::txt_from_str(policy),
                                )])
                            } else {
                                ResolveOutcome::NxDomain
                            };
                            (q, outcome)
                        })
                        .collect();
                    step = ev.resume(answers);
                }
            }
        }
    });
}

fn bench_dkim(filter: &Filter) {
    if !filter.wants_any(&["dkim_sign", "dkim_verify"]) {
        return;
    }
    use mailval_dkim::sign::{sign_message, SignConfig};
    use mailval_smtp::mail::MailMessage;
    let mut rng = SplitMix64::new(42);
    let kp = RsaKeyPair::generate(1024, &mut rng);
    let mut msg = MailMessage::new();
    msg.add_header("From", "a@example.com");
    msg.add_header("To", "b@target.test");
    msg.add_header("Subject", "benchmark");
    msg.set_body_text(&"benchmark body line\n".repeat(40));
    let config = SignConfig::new(n("example.com"), n("sel1"));
    filter.bench("dkim_sign", || {
        sign_message(black_box(&msg), &config, &kp.private).unwrap()
    });

    let value = sign_message(&msg, &config, &kp.private).unwrap();
    let mut signed = msg.clone();
    signed.prepend_header("DKIM-Signature", &value);
    let key_record = mailval_dkim::key::DkimKeyRecord::for_key(&kp.public).to_record_text();
    filter.bench("dkim_verify", || {
        let mut v = mailval_dkim::DkimVerifier::new(black_box(&signed), 0);
        let mailval_dkim::VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        let answer = ResolveOutcome::Records(vec![Record::new(
            name,
            60,
            RData::txt_from_str(&key_record),
        )]);
        match v.on_key(answer) {
            mailval_dkim::VerifyStep::Done(r) => black_box(r),
            _ => panic!(),
        }
    });
}

fn bench_synthesis(filter: &Filter) {
    let scheme = NameScheme::default();
    let addrs = SynthAddrs::default();
    let base = scheme.probe_domain("t02", 42);
    let qname = n("c.a.s3.t02.m00042.spf-test.dns-lab.org");
    let path = ["c", "a", "s3"];
    filter.bench("policy_synthesis", || {
        synthesize_probe(
            black_box("t02"),
            black_box(&path),
            &qname,
            base.as_str(),
            RecordType::Txt,
            &addrs,
        )
    });
    filter.bench("name_attribution", || {
        scheme.parse(black_box(&qname)).unwrap()
    });
}

fn bench_simulator(filter: &Filter) {
    filter.bench("simulator_100k_events", || {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..100_000u32 {
            sim.schedule((i % 977) as u64, i);
        }
        let mut acc = 0u64;
        while let Some((t, _)) = sim.next() {
            acc = acc.wrapping_add(t);
        }
        black_box(acc)
    });
}

fn bench_rsa(filter: &Filter) {
    // The apparatus key's seed (`CampaignWorld::build` at seed 2021):
    // every iteration repeats the same prime search.
    filter.bench("rsa1024_keygen", || {
        RsaKeyPair::generate(1024, &mut SplitMix64::new(black_box(2021 ^ 0x444b_4559)))
    });
    if !filter.wants_any(&["rsa1024_sign", "rsa1024_verify"]) {
        return;
    }
    let mut rng = SplitMix64::new(7);
    let kp = RsaKeyPair::generate(1024, &mut rng);
    let digest = HashAlg::Sha256.digest(b"benchmark payload");
    let sig = kp.private.sign_digest(HashAlg::Sha256, &digest).unwrap();
    filter.bench("rsa1024_sign", || {
        kp.private.sign_digest(HashAlg::Sha256, black_box(&digest))
    });
    filter.bench("rsa1024_verify", || {
        kp.public
            .verify_digest(HashAlg::Sha256, &digest, black_box(&sig))
    });
}

fn bench_world_build(filter: &Filter) {
    if !filter.wants("world_build") {
        return;
    }
    // The probe battery's world: a TwoWeekMX campaign with tests
    // t01–t11 over 1,000 domains at seed 2021. A probe world generates
    // no DKIM key, so this is the layout and the per-host data alone.
    let kind = DatasetKind::TwoWeekMx;
    let pop = Population::generate(&PopulationConfig {
        kind,
        scale: 1_000.0 / kind.paper_domain_count() as f64,
        seed: 2021,
    });
    let profiles = sample_host_profiles(&pop, 2021);
    let config = CampaignConfig {
        kind: CampaignKind::TwoWeekMx,
        tests: vec![
            "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11",
        ],
        seed: 2021,
        shards: 1,
        ..CampaignConfig::default()
    };
    filter.bench("world_build", || {
        CampaignWorld::build(black_box(&config), &pop, &profiles)
    });
}

fn bench_crc32(filter: &Filter) {
    if !filter.wants("crc32") {
        return;
    }
    let mut rng = SplitMix64::new(0x0043_5243);
    let buf: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    // Over a 1 MiB buffer, then over one mean-sized `probe_battery`
    // journal frame payload (650 bytes).
    filter.bench("crc32", || crc32(black_box(&buf)));
    filter.bench("crc32_frame", || crc32(black_box(&buf[..650])));
}

fn bench_name_parse(filter: &Filter) {
    // A stored query name: lowercase, so parsing copies it unchanged.
    filter.bench("name_parse", || {
        Name::parse(black_box("l2.t01.m00042.spf-test.dns-lab.org")).unwrap()
    });
}

/// The store entry of a campaign of `kind` over 2,000 domains of
/// `dataset` at seed 2021, with its key.
fn store_entry(
    dataset: DatasetKind,
    kind: CampaignKind,
    tests: Vec<&'static str>,
) -> (Vec<u8>, CampaignKey) {
    let pop = Population::generate(&PopulationConfig {
        kind: dataset,
        scale: 2_000.0 / dataset.paper_domain_count() as f64,
        seed: 2021,
    });
    let profiles = sample_host_profiles(&pop, 2021);
    let config = CampaignConfig {
        kind,
        tests,
        seed: 2021,
        shards: 1,
        ..CampaignConfig::default()
    };
    let result = run_campaign(&config, &pop, &profiles);
    let key = CampaignKey {
        hash: [0x2b; 32],
        label: "microbench".into(),
    };
    (encode_entry(&key, &result), key)
}

fn bench_store_decode(filter: &Filter) {
    // Each entry decoded and verified whole: a NotifyEmail campaign's,
    // then a TwoWeekMX t03–t11 probe campaign's, whose records carry
    // more transcripts and test ids.
    if filter.wants("store_decode") {
        let (entry, key) = store_entry(
            DatasetKind::NotifyEmail,
            CampaignKind::NotifyEmail,
            Vec::new(),
        );
        filter.bench("store_decode", || {
            decode_entry(black_box(&entry), &key).unwrap()
        });
    }
    if filter.wants("store_decode_probe") {
        let tests = vec![
            "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11",
        ];
        let (entry, key) = store_entry(DatasetKind::TwoWeekMx, CampaignKind::TwoWeekMx, tests);
        filter.bench("store_decode_probe", || {
            decode_entry(black_box(&entry), &key).unwrap()
        });
    }
}

fn main() {
    let filter = Filter::from_args();
    bench_dns_wire(&filter);
    bench_smtp_wire(&filter);
    bench_spf(&filter);
    bench_dkim(&filter);
    bench_synthesis(&filter);
    bench_simulator(&filter);
    bench_rsa(&filter);
    bench_world_build(&filter);
    bench_crc32(&filter);
    bench_name_parse(&filter);
    bench_store_decode(&filter);
}
