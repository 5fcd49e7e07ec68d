//! Live loopback: the same sans-IO cores that power the simulation,
//! bound to real sockets.
//!
//! Run with `cargo run --example live_loopback`.
//!
//! Three components talk over 127.0.0.1:
//!
//! * the apparatus's **synthesizing authoritative DNS server** on a real
//!   UDP+TCP socket pair,
//! * a **receiving MTA** (SMTP server + SPF/DKIM/DMARC validation) on a
//!   real TCP listener, resolving through the DNS server,
//! * the **sending client**, delivering a DKIM-signed notification.
//!
//! Guide note: these are a handful of sequential exchanges, so plain
//! blocking `std::net` is the right tool (simpler than an async
//! runtime); the scale path lives in the virtual-time simulator.

use mailval::crypto::bigint::SplitMix64;
use mailval::crypto::rsa::RsaKeyPair;
use mailval::dkim::key::DkimKeyRecord;
use mailval::dkim::sign::{sign_message, SignConfig};
use mailval::dmarc::record::DmarcRecord;
use mailval::dns::resolver::ResolveOutcome;
use mailval::dns::server::{ServerCore, Transport};
use mailval::dns::{Message, Name};
use mailval::measure::apparatus::SynthesizingAuthority;
use mailval::measure::names::NameScheme;
use mailval::measure::policies::SynthAddrs;
use mailval::mta::actor::{ConnContext, MtaActor, MtaEvent, MtaInput, MtaOutput, MtaSink};
use mailval::mta::profile::MtaProfile;
use mailval::smtp::client::{ClientAction, ClientConfig, ClientSession};
use mailval::smtp::mail::MailMessage;
use mailval::smtp::reply::ReplyParser;
use mailval::smtp::EmailAddress;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // --- Apparatus: key material + synthesizing authority -------------
    let mut rng = SplitMix64::new(0x10ca1);
    let keypair = RsaKeyPair::generate(1024, &mut rng);
    let scheme = NameScheme::default();
    // The live client connects from loopback; publish that as the
    // legitimate sender so SPF passes end to end.
    let addrs = SynthAddrs {
        sender_v4: "127.0.0.1".parse().unwrap(),
        sender_v6: "::1".parse().unwrap(),
        ..SynthAddrs::default()
    };
    let authority = SynthesizingAuthority::new(
        scheme.clone(),
        addrs,
        DkimKeyRecord::for_key(&keypair.public).to_record_text(),
        DmarcRecord::strict_reject("dmarc-reports@dns-lab.org").to_record_text(),
    );
    let server = Arc::new(ServerCore::new(authority));

    // --- DNS server on real UDP + TCP sockets -------------------------
    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
    let dns_addr = udp.local_addr().unwrap();
    let tcp = TcpListener::bind(dns_addr).expect("bind tcp");
    println!("[dns] authoritative server on {dns_addr} (udp+tcp)");

    {
        let server = Arc::clone(&server);
        let udp = udp.try_clone().unwrap();
        std::thread::spawn(move || loop {
            let mut buf = [0u8; 1500];
            let Ok((len, peer)) = udp.recv_from(&mut buf) else {
                break;
            };
            if let Some(reply) = server.handle(&buf[..len], Transport::Udp, false) {
                // Scale down the measurement delays (100 ms → 1 ms).
                std::thread::sleep(Duration::from_millis(reply.delay_ms / 100));
                let _ = udp.send_to(&reply.bytes, peer);
            }
        });
    }
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for stream in tcp.incoming().flatten() {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let mut len_buf = [0u8; 2];
                    if stream.read_exact(&mut len_buf).is_err() {
                        return;
                    }
                    let len = u16::from_be_bytes(len_buf) as usize;
                    let mut msg = vec![0u8; len];
                    if stream.read_exact(&mut msg).is_err() {
                        return;
                    }
                    if let Some(reply) = server.handle(&msg, Transport::Tcp, false) {
                        let _ = stream.write_all(&(reply.bytes.len() as u16).to_be_bytes());
                        let _ = stream.write_all(&reply.bytes);
                    }
                });
            }
        });
    }

    // --- The receiving MTA on a real TCP listener ----------------------
    let smtp_listener = TcpListener::bind("127.0.0.1:0").expect("bind smtp");
    let smtp_addr = smtp_listener.local_addr().unwrap();
    println!("[mta] receiving MTA on {smtp_addr}");

    let mta_thread = std::thread::spawn(move || {
        let (stream, peer) = smtp_listener.accept().expect("accept");
        serve_mta(stream, peer, dns_addr);
    });

    // --- The sending client --------------------------------------------
    let from = scheme.notify_from(1);
    let mut message = MailMessage::new();
    message.add_header("From", &format!("Network Notifier <{from}>"));
    message.add_header("To", "operator@recipient.test");
    message.add_header("Subject", "Live loopback demonstration");
    message.add_header("Date", "Mon, 12 Oct 2020 09:00:00 +0000");
    message.add_header("Reply-To", "research@dns-lab.org");
    message.set_body_text("This message crossed real sockets.\n");
    let sign_config = SignConfig::new(scheme.notify_domain(1), Name::parse("sel1").unwrap());
    let signature = sign_message(&message, &sign_config, &keypair.private).unwrap();
    message.prepend_header("DKIM-Signature", &signature);

    let mut client = ClientSession::new(ClientConfig {
        helo_identity: "notify.dns-lab.org".into(),
        mail_from: Some(from),
        rcpt_candidates: vec![EmailAddress::new(
            "operator",
            Name::parse("recipient.test").unwrap(),
        )],
        message: Some(message.to_bytes()),
        pause_before_commands_ms: 0,
        max_session_retries: 0,
        retry_backoff_ms: 0,
    });

    let stream = TcpStream::connect(smtp_addr).expect("connect smtp");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut parser = ReplyParser::new();
    let mut line = String::new();
    let mut out = String::new();
    'outer: loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        print!("[client] <- {line}");
        if let Ok(Some(reply)) = parser.push_line(line.trim_end()) {
            out.clear();
            let mut action = client.on_reply(reply, &mut out);
            loop {
                match action {
                    ClientAction::Send => {
                        writer.write_all(out.as_bytes()).unwrap();
                        if out.len() < 120 {
                            print!("[client] -> {out}");
                        } else {
                            println!("[client] -> <{} bytes of message data>", out.len());
                        }
                        break;
                    }
                    ClientAction::Pause(ms) => {
                        if ms == 0 {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(ms / 100));
                        action = client.on_pause_elapsed(&mut out);
                    }
                    ClientAction::Close(outcome) => {
                        println!(
                            "[client] done: delivered={} rejection={:?}",
                            outcome.delivered, outcome.rejection
                        );
                        break 'outer;
                    }
                }
            }
        }
    }
    drop(writer);
    mta_thread.join().unwrap();
    println!("live loopback complete");
}

/// Serve one SMTP connection with the MtaActor, resolving through the
/// live DNS server.
fn serve_mta(stream: TcpStream, peer: SocketAddr, dns_addr: SocketAddr) {
    let mut actor = MtaActor::new(
        "mx.recipient.test",
        MtaProfile::strict(),
        ConnContext {
            client_ip: peer.ip(),
            client_blacklisted: false,
            recipients_guessed: false,
        },
    );
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let mut pending = MtaSink::default();
    let mut next = MtaSink::default();
    actor.handle(MtaInput::Connected, &mut pending);
    let mut line = String::new();
    loop {
        // Drain outputs, performing real I/O for each.
        while !pending.outputs.is_empty() {
            for output in pending.outputs.drain(..) {
                match output {
                    MtaOutput::Smtp(text) => {
                        let _ = writer.write_all(text.as_bytes());
                    }
                    MtaOutput::Resolve { qid, name, rtype } => {
                        println!("[mta] resolving {name} {rtype}");
                        let outcome = blocking_resolve(dns_addr, &name, rtype);
                        actor.handle(MtaInput::DnsFinished { qid, outcome }, &mut next);
                    }
                    MtaOutput::SetTimer { token, delay_ms } => {
                        std::thread::sleep(Duration::from_millis(delay_ms / 1000));
                        actor.handle(MtaInput::Timer { token }, &mut next);
                    }
                    MtaOutput::Event(MtaEvent::SpfConcluded(result)) => {
                        println!("[mta] SPF: {result}");
                    }
                    MtaOutput::Event(MtaEvent::SpfLookups(n)) => {
                        println!("[mta] SPF used {n} DNS lookups");
                    }
                    MtaOutput::Event(MtaEvent::DkimConcluded(ok)) => {
                        println!("[mta] DKIM: {}", if ok { "pass" } else { "fail" });
                    }
                    MtaOutput::Event(MtaEvent::DmarcConcluded(ok)) => {
                        println!("[mta] DMARC: {}", if ok { "pass" } else { "fail" });
                    }
                    MtaOutput::Event(MtaEvent::MessageAccepted) => {
                        println!("[mta] message accepted for delivery");
                    }
                    MtaOutput::Event(MtaEvent::TempFailed) => {
                        println!("[mta] greylisted the client (451)");
                    }
                    MtaOutput::Event(MtaEvent::SpfHostile {
                        cycle_detected,
                        lookups_exhausted,
                    }) => {
                        println!(
                            "[mta] hostile SPF policy: cycle={cycle_detected} \
                             exhausted={lookups_exhausted}"
                        );
                    }
                    MtaOutput::Stall { delay_ms } => {
                        std::thread::sleep(Duration::from_millis(delay_ms / 1000));
                    }
                    MtaOutput::Close => return,
                }
            }
            std::mem::swap(&mut pending, &mut next);
        }
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        actor.handle(MtaInput::Line(line.trim_end()), &mut pending);
    }
}

/// Blocking stub resolution against the live server: UDP first, TCP on
/// truncation (the resolver core's logic, driven synchronously).
fn blocking_resolve(
    dns_addr: SocketAddr,
    name: &Name,
    rtype: mailval::dns::rr::RecordType,
) -> ResolveOutcome {
    let query = Message::query(0x4242, name.clone(), rtype);
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    if socket.send_to(&query.to_bytes(), dns_addr).is_err() {
        return ResolveOutcome::Timeout;
    }
    let mut buf = [0u8; 1500];
    let Ok(len) = socket.recv(&mut buf) else {
        return ResolveOutcome::Timeout;
    };
    let Ok(response) = Message::from_bytes(&buf[..len]) else {
        return ResolveOutcome::ServFail;
    };
    let response = if response.truncated {
        // Retry over TCP with the 2-byte length framing.
        let Ok(mut stream) = TcpStream::connect(dns_addr) else {
            return ResolveOutcome::Timeout;
        };
        let bytes = query.to_bytes();
        let _ = stream.write_all(&(bytes.len() as u16).to_be_bytes());
        let _ = stream.write_all(&bytes);
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return ResolveOutcome::Timeout;
        }
        let mut msg = vec![0u8; u16::from_be_bytes(len_buf) as usize];
        if stream.read_exact(&mut msg).is_err() {
            return ResolveOutcome::Timeout;
        }
        match Message::from_bytes(&msg) {
            Ok(m) => m,
            Err(_) => return ResolveOutcome::ServFail,
        }
    } else {
        response
    };
    match response.rcode {
        mailval::dns::Rcode::NoError if response.answers.is_empty() => ResolveOutcome::NoData,
        mailval::dns::Rcode::NoError => ResolveOutcome::Records(response.answers),
        mailval::dns::Rcode::NxDomain => ResolveOutcome::NxDomain,
        _ => ResolveOutcome::ServFail,
    }
}
