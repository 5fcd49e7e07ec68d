//! Test-only reference copies of the owned SMTP wire path: a reply
//! parser that collects each line into its own `String`, a command
//! parser that builds owned arguments and addresses, the `write!` form
//! of reply serialization and the per-reply transcript encoding.
//!
//! The borrowed path ([`crate::reply::ReplyParser`],
//! [`crate::command::Command`], [`crate::client::Transcript::push`]) must
//! agree with these on every input; the seeded sweeps below check it on
//! generated dialogues, on hostile reply mutations drawn from the
//! payload plan, and on mutated command lines.

use crate::client::{ClientAction, ClientConfig, ClientSession, Phase, Transcript};
use crate::command::{Command, CommandError, EmailAddress};
use crate::line::crlf_lines;
use crate::reply::{Reply, ReplyParseError, ReplyParser, MAX_REPLY_LINES, MAX_REPLY_LINE_LEN};
use mailval_dns::Name;
use mailval_simnet::{FaultCursor, PayloadConfig, PayloadPlan, SimRng};
use std::fmt::Write as _;

/// The owned reply parser.
#[derive(Default)]
struct OwnedReplyParser {
    code: Option<u16>,
    lines: Vec<String>,
}

impl OwnedReplyParser {
    fn push_line(&mut self, line: &str) -> Result<Option<Reply>, ReplyParseError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.bytes().any(|b| b == 0 || b == b'\r') {
            return Err(self.fail(ReplyParseError::BadChar));
        }
        if line.len() < 3 {
            return Err(self.fail(ReplyParseError::BadFormat));
        }
        if line.len() > MAX_REPLY_LINE_LEN {
            return Err(self.fail(ReplyParseError::LineTooLong));
        }
        let Some(code) = line.get(..3).and_then(|c| c.parse::<u16>().ok()) else {
            return Err(self.fail(ReplyParseError::BadFormat));
        };
        if !(200..=599).contains(&code) && !(100..200).contains(&code) {
            return Err(self.fail(ReplyParseError::BadFormat));
        }
        if let Some(expected) = self.code {
            if code != expected {
                return Err(self.fail(ReplyParseError::CodeMismatch));
            }
        } else {
            self.code = Some(code);
        }
        if self.lines.len() >= MAX_REPLY_LINES {
            return Err(self.fail(ReplyParseError::TooManyLines));
        }
        let (is_final, text) = match line.as_bytes().get(3) {
            None => (true, ""),
            Some(b' ') => (true, &line[4..]),
            Some(b'-') => (false, &line[4..]),
            Some(_) => return Err(self.fail(ReplyParseError::BadFormat)),
        };
        self.lines.push(text.to_string());
        if is_final {
            let reply = Reply {
                code,
                lines: std::mem::take(&mut self.lines),
            };
            self.code = None;
            Ok(Some(reply))
        } else {
            Ok(None)
        }
    }

    fn fail(&mut self, err: ReplyParseError) -> ReplyParseError {
        self.code = None;
        self.lines = Vec::new();
        err
    }
}

/// The owned command.
#[derive(Debug, PartialEq, Eq)]
enum OwnedCommand {
    Ehlo(String),
    Helo(String),
    Mail(Option<EmailAddress>),
    Rcpt(EmailAddress),
    Data,
    Rset,
    Noop,
    Quit,
    Vrfy(String),
}

/// The owned address parse.
fn owned_address(s: &str) -> Option<EmailAddress> {
    let (local, domain) = s.rsplit_once('@')?;
    if local.is_empty() {
        return None;
    }
    let dot_atom = |b: u8| b.is_ascii_alphanumeric() || b"._-+=!#$%&'*/?^`{|}~".contains(&b);
    if !local.bytes().all(dot_atom) {
        return None;
    }
    let domain = Name::parse(domain).ok()?;
    if domain.is_root() {
        return None;
    }
    Some(EmailAddress::new(local.to_string(), domain))
}

fn owned_path(s: &str) -> Result<Option<EmailAddress>, CommandError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('<')
        .and_then(|rest| rest.strip_suffix('>'))
        .ok_or(CommandError::BadArguments("path must be angle-bracketed"))?;
    if inner.is_empty() {
        return Ok(None);
    }
    let inner = match inner.rfind(':') {
        Some(pos) if inner.starts_with('@') => &inner[pos + 1..],
        _ => inner,
    };
    owned_address(inner)
        .map(Some)
        .ok_or(CommandError::BadArguments("malformed mailbox"))
}

fn owned_keyword<'a>(s: &'a str, keyword: &str) -> Option<&'a str> {
    let head = s.get(..keyword.len())?;
    head.eq_ignore_ascii_case(keyword)
        .then(|| s[keyword.len()..].trim_start())
}

fn owned_params(s: &str) -> &str {
    match (s.find('>'), s.find(' ')) {
        (Some(pos), _) => &s[..=pos],
        (None, Some(pos)) => &s[..pos],
        (None, None) => s,
    }
}

fn owned_command(line: &str) -> Result<OwnedCommand, CommandError> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, args) = match line.find(' ') {
        Some(pos) => (&line[..pos], line[pos + 1..].trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "EHLO" | "HELO" if args.is_empty() => Err(CommandError::BadArguments(
            if verb.eq_ignore_ascii_case("EHLO") {
                "EHLO requires a domain"
            } else {
                "HELO requires a domain"
            },
        )),
        "EHLO" => Ok(OwnedCommand::Ehlo(args.to_string())),
        "HELO" => Ok(OwnedCommand::Helo(args.to_string())),
        "MAIL" => {
            let rest =
                owned_keyword(args, "FROM:").ok_or(CommandError::BadArguments("expected FROM:"))?;
            Ok(OwnedCommand::Mail(owned_path(owned_params(rest))?))
        }
        "RCPT" => {
            let rest =
                owned_keyword(args, "TO:").ok_or(CommandError::BadArguments("expected TO:"))?;
            match owned_path(owned_params(rest))? {
                Some(addr) => Ok(OwnedCommand::Rcpt(addr)),
                None => Err(CommandError::BadArguments("RCPT path cannot be null")),
            }
        }
        "DATA" => Ok(OwnedCommand::Data),
        "RSET" => Ok(OwnedCommand::Rset),
        "NOOP" => Ok(OwnedCommand::Noop),
        "QUIT" => Ok(OwnedCommand::Quit),
        "VRFY" => Ok(OwnedCommand::Vrfy(args.to_string())),
        _ => Err(CommandError::UnknownCommand(verb.to_ascii_uppercase())),
    }
}

/// A borrowed command, owned.
fn to_owned(command: Command<'_>) -> OwnedCommand {
    match command {
        Command::Ehlo(d) => OwnedCommand::Ehlo(d.to_string()),
        Command::Helo(d) => OwnedCommand::Helo(d.to_string()),
        Command::Mail(from) => OwnedCommand::Mail(from.map(|m| m.to_address())),
        Command::Rcpt(to) => OwnedCommand::Rcpt(to.to_address()),
        Command::Data => OwnedCommand::Data,
        Command::Rset => OwnedCommand::Rset,
        Command::Noop => OwnedCommand::Noop,
        Command::Quit => OwnedCommand::Quit,
        Command::Vrfy(who) => OwnedCommand::Vrfy(who.to_string()),
    }
}

/// The `write!` form of a reply's wire text.
fn owned_wire(reply: &Reply) -> String {
    let mut out = String::new();
    for (i, line) in reply.lines.iter().enumerate() {
        let sep = if i + 1 == reply.lines.len() { ' ' } else { '-' };
        write!(out, "{}{sep}{line}\r\n", reply.code).unwrap();
    }
    out
}

/// The per-reply transcript encoding: `phase code:u16le lines:u32le`,
/// then per line `len:u32le` and its bytes.
fn owned_transcript(replies: &[(Phase, Reply)]) -> Transcript {
    let mut bytes = Vec::new();
    for (phase, reply) in replies {
        bytes.push(*phase as u8);
        bytes.extend_from_slice(&reply.code.to_le_bytes());
        bytes.extend_from_slice(&(reply.lines.len() as u32).to_le_bytes());
        for line in &reply.lines {
            bytes.extend_from_slice(&(line.len() as u32).to_le_bytes());
            bytes.extend_from_slice(line.as_bytes());
        }
    }
    let (transcript, used) = Transcript::decode_packed(&bytes, replies.len() as u32).unwrap();
    assert_eq!(used, bytes.len());
    transcript
}

/// Feed every line of `segment` to both parsers, as the engine frames
/// it, and check each step agrees; the replies completed, owned.
fn parse_both(
    segment: &str,
    ours: &mut ReplyParser,
    owned: &mut OwnedReplyParser,
) -> Result<Vec<Reply>, ReplyParseError> {
    let mut replies = Vec::new();
    for line in crlf_lines(segment) {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            continue;
        }
        let expected = owned.push_line(line);
        let got = ours.push_line(line).map(|r| r.map(|v| v.to_reply()));
        assert_eq!(got, expected, "line {line:?} of {segment:?}");
        if let Some(reply) = expected? {
            replies.push(reply);
        }
    }
    Ok(replies)
}

/// Reply text pieces: plain, empty, spaced, multibyte, code-like.
const TEXTS: &[&str] = &[
    "OK",
    "",
    " ",
    "mx1.example.test greets probe.dns-lab.org",
    "SIZE 26214400",
    "No such user: michael",
    "\u{e9}t\u{e9} \u{672a}",
    "250-looks like a code",
    "-",
    "4.7.1 Greylisted: please try again later",
];

/// Codes, in and out of the range the parser accepts.
const CODES: &[u16] = &[
    0, 7, 99, 100, 199, 220, 221, 250, 354, 421, 451, 550, 554, 599, 600, 999, 1000, 65535,
];

fn random_reply(rng: &mut SimRng) -> Reply {
    let code = *rng.pick(CODES);
    let lines = 1 + rng.next_below(4) as usize;
    let lines = (0..lines)
        .map(|_| {
            let mut line = rng.pick(TEXTS).to_string();
            if rng.chance(0.2) {
                let more = rng.pick::<&str>(TEXTS);
                line.push_str(more);
            }
            // A NUL or bare CR, in a line of any length: the parser
            // must name the bad byte before the line's length.
            if rng.chance(0.1) {
                if rng.chance(0.5) {
                    line.push_str(&"x".repeat(MAX_REPLY_LINE_LEN));
                }
                let at = rng.next_below(line.len() as u64 + 1) as usize;
                if line.is_char_boundary(at) {
                    line.insert(at, if rng.chance(0.5) { '\0' } else { '\r' });
                }
            }
            line
        })
        .collect();
    Reply { code, lines }
}

/// Flip the first digit of the last line's code (2 and 5 swap, any
/// other digit becomes 2): a multiline reply whose code switches.
fn switch_last_code(wire: &mut String) {
    let body = wire.strip_suffix("\r\n").unwrap_or(wire);
    let start = body.rfind("\r\n").map_or(0, |i| i + 2);
    if let Some(first) = wire[start..].chars().next().filter(char::is_ascii_digit) {
        let flipped = if first == '2' { "5" } else { "2" };
        wire.replace_range(start..start + 1, flipped);
    }
}

/// Check `transcript` holds `replies`, byte for byte as the per-reply
/// encoding writes them under the transcript's own phases.
fn check_transcript(transcript: &Transcript, replies: &[Reply]) {
    assert_eq!(transcript.len(), replies.len());
    let phased: Vec<(Phase, Reply)> = transcript
        .iter()
        .zip(replies)
        .map(|((phase, ..), reply)| (phase, reply.clone()))
        .collect();
    assert_eq!(*transcript, owned_transcript(&phased));
}

#[test]
fn dialogues_match_the_owned_path_on_a_seeded_sweep() {
    let mut rng = SimRng::new(0x5e1f_2021);
    let mut ours = ReplyParser::new();
    let mut owned = OwnedReplyParser::default();
    let mut completed = 0;
    for _ in 0..2_000 {
        let replies: Vec<Reply> = (0..1 + rng.next_below(8))
            .map(|_| random_reply(&mut rng))
            .collect();
        let mut client = ClientSession::new(ClientConfig {
            helo_identity: "probe.dns-lab.org".into(),
            mail_from: EmailAddress::parse("spf-test@t01.m1.spf-test.dns-lab.org"),
            rcpt_candidates: vec![EmailAddress::parse("michael@r.test").unwrap()],
            message: None,
            pause_before_commands_ms: 0,
            max_session_retries: 1,
            retry_backoff_ms: 10,
        });
        // The replies the client got since its outcome was last handed
        // over.
        let mut received = Vec::new();
        let mut out = String::new();
        for reply in &replies {
            let mut wire = reply.to_wire();
            assert_eq!(wire, owned_wire(reply));
            if reply.lines.len() > 1 && rng.chance(0.2) {
                switch_last_code(&mut wire);
            }
            let Ok(parsed) = parse_both(&wire, &mut ours, &mut owned) else {
                continue;
            };
            for reply in parsed {
                completed += 1;
                let action = client.on_reply(reply.view(), &mut out);
                received.push(reply);
                if let ClientAction::Close(outcome) = action {
                    check_transcript(&outcome.transcript, &received);
                    received.clear();
                }
            }
        }
        check_transcript(&client.on_disconnect().transcript, &received);
        // The whole dialogue as one segment.
        let whole: String = replies.iter().map(owned_wire).collect();
        let _ = parse_both(&whole, &mut ours, &mut owned);
    }
    assert!(completed > 1_000, "{completed} replies completed");
}

#[test]
fn hostile_mutations_match_the_owned_path() {
    let plan = PayloadPlan::new(PayloadConfig {
        dns_corrupt_probability: 0.0,
        smtp_corrupt_probability: 1.0,
        seed: 2021,
    });
    let corpus = [
        "220 mx1.example.test ESMTP ready\r\n",
        "250-mx1.example.test greets probe.dns-lab.org\r\n250-SIZE 26214400\r\n250 8BITMIME\r\n",
        "250 OK\r\n",
        "550 No such user: michael\r\n",
        "451 4.7.1 Greylisted: please try again later\r\n",
        "250 OK\r\n354 Start mail input; end with <CRLF>.<CRLF>\r\n",
    ];
    let mut rng = SimRng::new(0xbad_5e9);
    let mut ours = ReplyParser::new();
    let mut owned = OwnedReplyParser::default();
    let (mut accepted, mut refused) = (0, 0);
    for session in 0..20_000u64 {
        let mut text = rng.pick(&corpus).to_string();
        let mut cursor = FaultCursor::default();
        assert!(plan.mutate_smtp(session, &mut cursor, &mut text).is_some());
        match parse_both(&text, &mut ours, &mut owned) {
            Ok(_) => accepted += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

/// Valid command lines for the mutator to break.
const COMMANDS: &[&str] = &[
    "EHLO probe.dns-lab.org",
    "helo legacy.test",
    "MAIL FROM:<spf-test@t01.m00042.spf-test.dns-lab.org>",
    "mail from: <a@B.Test.> SIZE=1024 BODY=8BITMIME",
    "MAIL FROM:<>",
    "MAIL FROM:<@relay.test,@b.test:a@b.test>",
    "RCPT TO:<john.smith@org00042.com>",
    "RCPT TO:<postmaster@r.test> NOTIFY=NEVER",
    "DATA",
    "RSET",
    "NOOP",
    "QUIT",
    "VRFY postmaster",
];

/// Bytes and tokens the command mutator splices in.
const COMMAND_TOKENS: &[&str] = &[
    "<", ">", "@", ":", " ", ".", "..", "\u{e9}", "\u{fffd}", "A", "-", "\"", "\t", "\r", "\n",
];

fn mutate_command(line: &str, rng: &mut SimRng) -> String {
    let mut text = line.to_string();
    for _ in 0..1 + rng.next_below(3) {
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let at = *rng.pick(&boundaries);
        match rng.next_below(4) {
            0 => text.truncate(at),
            1 => {
                let end = boundaries.iter().copied().find(|&b| b > at).unwrap_or(at);
                text.replace_range(at..end, "");
            }
            2 => text.insert_str(at, &"x".repeat(64)),
            _ => {
                let token = rng.pick::<&str>(COMMAND_TOKENS);
                text.insert_str(at, token);
            }
        }
    }
    text
}

#[test]
fn command_parses_match_the_owned_path_on_a_seeded_sweep() {
    let mut rng = SimRng::new(0xc0_3a2d);
    let (mut parsed, mut refused) = (0, 0);
    for i in 0..30_000 {
        let line = rng.pick(COMMANDS);
        let line = if i % 8 == 0 {
            line.to_string()
        } else {
            mutate_command(line, &mut rng)
        };
        let expected = owned_command(&line);
        let got = Command::parse(&line).map(to_owned);
        assert_eq!(got, expected, "{line:?}");
        if let Ok(command) = Command::parse(&line) {
            parsed += 1;
            // What a command writes parses back to the same command.
            let written = command.to_line();
            assert_eq!(Command::parse(&written).map(to_owned), expected, "{line:?}");
        } else {
            refused += 1;
        }
    }
    assert!(
        parsed > 3_000 && refused > 3_000,
        "{parsed} parsed, {refused} refused"
    );
}
