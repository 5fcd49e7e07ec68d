//! Sans-IO SMTP sending client.
//!
//! One state machine serves both experiment modes of the paper:
//!
//! * **Delivery mode** (NotifyEmail): carries a real message, sends
//!   `DATA`, the payload and the terminating dot, and records acceptance.
//! * **Probe mode** (NotifyMX / TwoWeekMX, §4.6): inserts a configurable
//!   pause (15 s in the paper) before `MAIL`, `RCPT` and `DATA`, tries
//!   recipient usernames in order until one is accepted
//!   (michael → john.smith → support → postmaster, §4.4), and after the
//!   server's `DATA` reply **disconnects without transmitting any message
//!   data**, so no email can possibly be delivered.

use crate::command::{push_mail_line, push_rcpt_line, EmailAddress};
use crate::mail::dot_stuff_into;
use crate::reply::{Reply, ReplyView};
use std::fmt;

/// The dialogue phase a reply belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Server greeting.
    #[default]
    Greeting,
    /// EHLO/HELO exchange.
    Helo,
    /// MAIL FROM.
    Mail,
    /// RCPT TO.
    Rcpt,
    /// DATA command.
    Data,
    /// Message payload acceptance.
    Message,
    /// QUIT.
    Quit,
}

impl Phase {
    /// Every phase, in declaration (and dialogue) order.
    const ALL: [Phase; 7] = [
        Phase::Greeting,
        Phase::Helo,
        Phase::Mail,
        Phase::Rcpt,
        Phase::Data,
        Phase::Message,
        Phase::Quit,
    ];
}

/// Client configuration for one session.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Identity for EHLO/HELO.
    pub helo_identity: String,
    /// Reverse path for MAIL FROM (`None` = null sender).
    pub mail_from: Option<EmailAddress>,
    /// Forward-path candidates, tried in order while the server rejects
    /// them (the paper's username fallback list).
    pub rcpt_candidates: Vec<EmailAddress>,
    /// Message to deliver; `None` selects probe mode (disconnect after the
    /// DATA reply, transmitting nothing).
    pub message: Option<Vec<u8>>,
    /// Pause inserted immediately before MAIL, RCPT and DATA (15 000 ms in
    /// the paper; 0 disables).
    pub pause_before_commands_ms: u64,
    /// How many times a transiently-failed (4xx) transaction may be
    /// retried within the session before giving up (the paper's probes
    /// re-attempted greylisted deliveries; 0 disables retries).
    pub max_session_retries: u32,
    /// Base backoff before the first retry; doubles per retry
    /// (exponential, in virtual time).
    pub retry_backoff_ms: u64,
}

/// What the embedder must do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Transmit the text just appended to the output buffer the
    /// session was handed (already CRLF-terminated).
    Send,
    /// Wait this long, then call [`ClientSession::on_pause_elapsed`].
    Pause(u64),
    /// Close the connection; the session is finished.
    Close(Box<ClientOutcome>),
}

/// Result of a finished session; the default is the outcome of a
/// session that has seen nothing yet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientOutcome {
    /// The furthest phase for which a server reply was processed.
    pub phase_reached: Phase,
    /// The recipient the server accepted, if any.
    pub accepted_rcpt: Option<EmailAddress>,
    /// True only in delivery mode after the message got a 250.
    pub delivered: bool,
    /// The decisive rejection, if the session failed.
    pub rejection: Option<(Phase, Reply)>,
    /// Transaction retries performed after transient (4xx) failures.
    pub retries: u32,
    /// Every reply received, in order, tagged by phase.
    pub transcript: Transcript,
}

/// Every reply of a session, in order, tagged by phase, packed into one
/// byte buffer: a whole dialogue is one allocation, and a clone is one
/// copy.
///
/// Per reply the buffer holds `phase:u8 code:u16le lines:u32le`, then
/// per line `len:u32le` and the line's UTF-8 text. That is exactly the
/// measurement codec's encoding of the same replies, so a decoder hands
/// the encoded span to [`Transcript::decode_packed`], which checks it
/// and copies it once.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    bytes: Vec<u8>,
    replies: usize,
}

/// Bytes of a reply's header in a [`Transcript`]'s buffer.
const REPLY_HEADER_LEN: usize = 7;

/// Room a transcript takes at its first reply: a probe dialogue's
/// replies fit, so the buffer grows once and is trimmed once.
const TRANSCRIPT_ROOM: usize = 512;

/// Why bytes handed to [`Transcript::decode_packed`] are not a packed
/// transcript.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedError {
    /// The bytes ended inside a reply.
    Truncated,
    /// A phase byte names no [`Phase`].
    BadPhase,
    /// A line is not UTF-8.
    BadText,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read `replies` packed replies from the front of `bytes` and return
    /// them with the number of bytes they span.
    ///
    /// One walk checks, per reply, that the phase byte is present and
    /// names a phase, that the code and line count are whole, and per
    /// line that its length is whole, that its bytes are present and
    /// that they are UTF-8; the first failing check, in that order,
    /// decides the error. The walked span is then copied in one piece.
    pub fn decode_packed(bytes: &[u8], replies: u32) -> Result<(Transcript, usize), PackedError> {
        let mut rest = bytes;
        for _ in 0..replies {
            let (&phase, after_phase) = rest.split_first().ok_or(PackedError::Truncated)?;
            if usize::from(phase) >= Phase::ALL.len() {
                return Err(PackedError::BadPhase);
            }
            let (header, body) = after_phase
                .split_first_chunk::<{ REPLY_HEADER_LEN - 1 }>()
                .ok_or(PackedError::Truncated)?;
            rest = body;
            let count = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
            for _ in 0..count {
                let (len, body) = rest
                    .split_first_chunk::<4>()
                    .ok_or(PackedError::Truncated)?;
                let len = u32::from_le_bytes(*len) as usize;
                let line = body.get(..len).ok_or(PackedError::Truncated)?;
                // Reply text is mostly ASCII, which needs no decoder call.
                if !line.is_ascii() {
                    std::str::from_utf8(line).map_err(|_| PackedError::BadText)?;
                }
                rest = &body[len..];
            }
        }
        let used = bytes.len() - rest.len();
        let transcript = Transcript {
            bytes: bytes[..used].to_vec(),
            replies: replies as usize,
        };
        Ok((transcript, used))
    }

    /// Number of replies.
    pub fn len(&self) -> usize {
        self.replies
    }

    /// True when no reply was recorded.
    pub fn is_empty(&self) -> bool {
        self.replies == 0
    }

    /// Append `reply`, received in `phase`.
    ///
    /// Every count is written as a `u32`: a reply from the wire has at
    /// most [`crate::reply::MAX_REPLY_LINES`] lines of at most
    /// [`crate::reply::MAX_REPLY_LINE_LEN`] bytes, and an owned reply
    /// with more lines, or a line of 4 GiB or more, is refused before
    /// anything is written.
    pub fn push(&mut self, phase: Phase, reply: ReplyView<'_>) -> Result<(), TooLarge> {
        let lines = reply.lines();
        let count = u32::try_from(lines.len()).map_err(|_| TooLarge)?;
        if lines.clone().any(|line| u32::try_from(line.len()).is_err()) {
            return Err(TooLarge);
        }
        if self.bytes.capacity() == 0 {
            self.bytes.reserve(TRANSCRIPT_ROOM);
        }
        self.bytes.push(phase as u8);
        self.bytes.extend_from_slice(&reply.code.to_le_bytes());
        self.bytes.extend_from_slice(&count.to_le_bytes());
        for line in lines {
            self.bytes
                .extend_from_slice(&(line.len() as u32).to_le_bytes());
            self.bytes.extend_from_slice(line.as_bytes());
        }
        self.replies += 1;
        Ok(())
    }

    /// Give back the buffer's growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// The replies in order, each as its phase, code and lines.
    pub fn iter(&self) -> Replies<'_> {
        Replies {
            rest: &self.bytes,
            left: self.replies,
        }
    }
}

impl fmt::Debug for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A reply too large for a [`Transcript`]'s `u32` counts: 4 Gi lines,
/// or a line of 4 GiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooLarge;

impl fmt::Display for TooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reply too large for a transcript")
    }
}

impl std::error::Error for TooLarge {}

impl FromIterator<(Phase, Reply)> for Transcript {
    /// Replies too large for a transcript are left out.
    fn from_iter<I: IntoIterator<Item = (Phase, Reply)>>(iter: I) -> Self {
        let mut transcript = Transcript::new();
        for (phase, reply) in iter {
            let _ = transcript.push(phase, reply.view());
        }
        transcript
    }
}

/// Splits `len:u32le` and that many following bytes off `bytes`.
fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    let (len, rest) = bytes.split_at(4);
    let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
    rest.split_at(len)
}

/// Iterator over a [`Transcript`]'s replies.
pub struct Replies<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Replies<'a> {
    type Item = (Phase, u16, Lines<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (header, mut body) = self.rest.split_at(REPLY_HEADER_LEN);
        let phase = Phase::ALL[usize::from(header[0])];
        let code = u16::from_le_bytes([header[1], header[2]]);
        let count = u32::from_le_bytes([header[3], header[4], header[5], header[6]]);
        let lines_start = body;
        for _ in 0..count {
            body = split_line(body).1;
        }
        self.rest = body;
        let lines = Lines(RawLines {
            rest: &lines_start[..lines_start.len() - body.len()],
            left: count as usize,
        });
        Some((phase, code, lines))
    }
}

/// Iterator over one transcript reply's lines.
#[derive(Clone)]
pub struct Lines<'a>(RawLines<'a>);

impl<'a> Lines<'a> {
    /// The same lines as the bytes they were pushed as, without
    /// re-checking that they are UTF-8 (every line was pushed as a
    /// `&str`), for callers that only copy them.
    pub fn raw(self) -> RawLines<'a> {
        self.0
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let line = self.0.next()?;
        // A transcript's bytes come from `push`, which writes `&str`
        // lines, or from `decode_packed`, which checks that each line
        // is UTF-8 before it keeps any: no input reaches the panic.
        Some(std::str::from_utf8(line).expect("transcript lines are pushed as text"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Lines<'_> {}

/// Iterator over one transcript reply's lines as their UTF-8 bytes.
#[derive(Clone)]
pub struct RawLines<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for RawLines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (line, rest) = split_line(self.rest);
        self.rest = rest;
        Some(line)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RawLines<'_> {}

impl fmt::Debug for Lines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitGreeting,
    AwaitHeloReply { fell_back: bool },
    PauseBeforeMail,
    AwaitMailReply,
    PauseBeforeRcpt,
    AwaitRcptReply,
    PauseBeforeData,
    AwaitDataReply,
    AwaitMessageReply,
    PauseBeforeRetry,
    AwaitRsetReply,
    AwaitQuitReply,
    Done,
}

/// Sans-IO SMTP client session.
#[derive(Debug)]
pub struct ClientSession {
    config: ClientConfig,
    state: State,
    rcpt_index: usize,
    outcome: ClientOutcome,
}

impl ClientSession {
    /// Start a session. The first action is always to await the server
    /// greeting (feed it via [`ClientSession::on_reply`]).
    pub fn new(config: ClientConfig) -> Self {
        assert!(
            !config.rcpt_candidates.is_empty(),
            "need at least one recipient candidate"
        );
        ClientSession {
            config,
            state: State::AwaitGreeting,
            rcpt_index: 0,
            outcome: ClientOutcome::default(),
        }
    }

    fn phase_of(&self) -> Phase {
        match self.state {
            State::AwaitGreeting => Phase::Greeting,
            State::AwaitHeloReply { .. } => Phase::Helo,
            State::PauseBeforeMail
            | State::AwaitMailReply
            | State::PauseBeforeRetry
            | State::AwaitRsetReply => Phase::Mail,
            State::PauseBeforeRcpt | State::AwaitRcptReply => Phase::Rcpt,
            State::PauseBeforeData | State::AwaitDataReply => Phase::Data,
            State::AwaitMessageReply => Phase::Message,
            State::AwaitQuitReply | State::Done => Phase::Quit,
        }
    }

    /// Append one command line to `out`: `write` writes it, without
    /// its CRLF.
    fn send(out: &mut String, write: impl FnOnce(&mut String)) -> ClientAction {
        write(out);
        out.push_str("\r\n");
        ClientAction::Send
    }

    /// Enter `paused` (a `PauseBefore*` state) and wait the configured
    /// pause, or, with no pause configured, send the command it waits
    /// for at once. Either way the command is built only when sent.
    fn pause_then(&mut self, paused: State, out: &mut String) -> ClientAction {
        self.state = paused;
        if self.config.pause_before_commands_ms > 0 {
            ClientAction::Pause(self.config.pause_before_commands_ms)
        } else {
            self.on_pause_elapsed(out)
        }
    }

    fn can_retry(&self, reply: &ReplyView<'_>) -> bool {
        reply.is_transient_failure() && self.outcome.retries < self.config.max_session_retries
    }

    /// Begin a bounded exponential-backoff retry of the transaction:
    /// pause, then RSET and replay from MAIL with the same recipient
    /// candidate.
    fn begin_retry(&mut self) -> ClientAction {
        self.outcome.retries += 1;
        let shift = (self.outcome.retries - 1).min(16);
        let backoff = self
            .config
            .retry_backoff_ms
            .saturating_mul(1u64 << shift)
            .max(1); // Pause(0) is an embedder no-op; never emit it
        self.state = State::PauseBeforeRetry;
        ClientAction::Pause(backoff)
    }

    /// Keep the first decisive rejection (the one copy of a reply the
    /// session keeps besides its transcript).
    fn reject(&mut self, phase: Phase, reply: ReplyView<'_>) {
        if self.outcome.rejection.is_none() {
            self.outcome.rejection = Some((phase, reply.to_reply()));
        }
    }

    fn fail(&mut self, phase: Phase, reply: ReplyView<'_>, out: &mut String) -> ClientAction {
        self.reject(phase, reply);
        self.state = State::AwaitQuitReply;
        Self::send(out, |o| o.push_str("QUIT"))
    }

    fn close(&mut self) -> ClientAction {
        ClientAction::Close(Box::new(self.finish()))
    }

    /// End the session and hand its outcome over: the session keeps
    /// nothing. A finished outcome is kept until the campaign's results
    /// merge, so its transcript gives back the growth slack a clone
    /// would not have had.
    fn finish(&mut self) -> ClientOutcome {
        self.state = State::Done;
        let mut outcome = std::mem::take(&mut self.outcome);
        outcome.transcript.shrink_to_fit();
        outcome
    }

    /// Feed a complete server reply; a command it answers with is
    /// appended to `out` ([`ClientAction::Send`]).
    ///
    /// The reply is read where it lies: only the transcript and a
    /// decisive rejection copy it. A reply too large for the
    /// transcript's counts (only an owned [`Reply`] can be) is left out
    /// of it.
    pub fn on_reply(&mut self, reply: ReplyView<'_>, out: &mut String) -> ClientAction {
        let phase = self.phase_of();
        let _ = self.outcome.transcript.push(phase, reply);
        self.outcome.phase_reached = self.outcome.phase_reached.max(phase);
        match self.state {
            State::AwaitGreeting => {
                if !reply.is_positive() {
                    return self.fail(Phase::Greeting, reply, out);
                }
                self.state = State::AwaitHeloReply { fell_back: false };
                let identity = &self.config.helo_identity;
                Self::send(out, |o| o.extend(["EHLO ", identity]))
            }
            State::AwaitHeloReply { fell_back } => {
                if reply.is_positive() {
                    return self.pause_then(State::PauseBeforeMail, out);
                }
                if !fell_back && reply.is_permanent_failure() {
                    // EHLO unsupported: fall back to HELO (§4.6).
                    self.state = State::AwaitHeloReply { fell_back: true };
                    let identity = &self.config.helo_identity;
                    return Self::send(out, |o| o.extend(["HELO ", identity]));
                }
                self.fail(Phase::Helo, reply, out)
            }
            State::AwaitMailReply => {
                if !reply.is_positive() {
                    if self.can_retry(&reply) {
                        return self.begin_retry();
                    }
                    return self.fail(Phase::Mail, reply, out);
                }
                self.pause_then(State::PauseBeforeRcpt, out)
            }
            State::AwaitRcptReply => {
                if reply.is_positive() {
                    self.outcome.accepted_rcpt =
                        Some(self.config.rcpt_candidates[self.rcpt_index].clone());
                    return self.pause_then(State::PauseBeforeData, out);
                }
                // A transient failure (451 greylisting) is "come back
                // later", not a verdict on the username: retry the whole
                // transaction with the *same* candidate before falling
                // through to the next-username logic.
                if self.can_retry(&reply) {
                    return self.begin_retry();
                }
                // Try the next username (the paper moves on to the next
                // candidate whenever the server rejects the recipient).
                if self.rcpt_index + 1 < self.config.rcpt_candidates.len() {
                    self.rcpt_index += 1;
                    return self.pause_then(State::PauseBeforeRcpt, out);
                }
                self.fail(Phase::Rcpt, reply, out)
            }
            State::AwaitDataReply => {
                match &self.config.message {
                    None => {
                        // Probe mode: regardless of the reply, disconnect
                        // *without* sending message data (§4.6, §5.1).
                        if !reply.is_intermediate() {
                            self.reject(Phase::Data, reply);
                        }
                        self.close()
                    }
                    Some(message) => {
                        if !reply.is_intermediate() {
                            if self.can_retry(&reply) {
                                return self.begin_retry();
                            }
                            return self.fail(Phase::Data, reply, out);
                        }
                        // The payload as text: a message that is not
                        // UTF-8 goes out with U+FFFD where its bad
                        // bytes were.
                        let start = out.len();
                        match std::str::from_utf8(message) {
                            Ok(text) => dot_stuff_into(text, out),
                            Err(_) => dot_stuff_into(&String::from_utf8_lossy(message), out),
                        }
                        if !out[start..].ends_with("\r\n") {
                            out.push_str("\r\n");
                        }
                        out.push_str(".\r\n");
                        self.state = State::AwaitMessageReply;
                        ClientAction::Send
                    }
                }
            }
            State::AwaitMessageReply => {
                if reply.is_positive() {
                    self.outcome.delivered = true;
                    self.state = State::AwaitQuitReply;
                    return Self::send(out, |o| o.push_str("QUIT"));
                }
                if self.can_retry(&reply) {
                    return self.begin_retry();
                }
                self.fail(Phase::Message, reply, out)
            }
            State::AwaitRsetReply => {
                if !reply.is_positive() {
                    return self.fail(Phase::Mail, reply, out);
                }
                self.pause_then(State::PauseBeforeMail, out)
            }
            State::AwaitQuitReply => self.close(),
            State::Done
            | State::PauseBeforeMail
            | State::PauseBeforeRcpt
            | State::PauseBeforeData
            | State::PauseBeforeRetry => {
                // Unexpected extra reply; ignore but record (already in
                // transcript).
                ClientAction::Pause(0)
            }
        }
    }

    /// Resume after a [`ClientAction::Pause`]; a command it sends is
    /// appended to `out`.
    pub fn on_pause_elapsed(&mut self, out: &mut String) -> ClientAction {
        match self.state {
            State::PauseBeforeMail => {
                self.state = State::AwaitMailReply;
                let from = self.config.mail_from.as_ref();
                Self::send(out, |o| push_mail_line(o, from))
            }
            State::PauseBeforeRcpt => {
                self.state = State::AwaitRcptReply;
                let to = &self.config.rcpt_candidates[self.rcpt_index];
                Self::send(out, |o| push_rcpt_line(o, to))
            }
            State::PauseBeforeData => {
                self.state = State::AwaitDataReply;
                Self::send(out, |o| o.push_str("DATA"))
            }
            State::PauseBeforeRetry => {
                // Backoff elapsed: clear the transaction server-side,
                // then replay from MAIL once the RSET is acknowledged.
                self.state = State::AwaitRsetReply;
                Self::send(out, |o| o.push_str("RSET"))
            }
            _ => ClientAction::Pause(0),
        }
    }

    /// The connection dropped (timeout, reset). Finish with what we have.
    ///
    /// The outcome is handed over, not copied: the session keeps
    /// nothing, so a second call, or one after [`ClientAction::Close`],
    /// returns an empty outcome. Call it at most once per session.
    pub fn on_disconnect(&mut self) -> ClientOutcome {
        self.finish()
    }
}

/// The paper's recipient-username fallback list (§4.4).
pub fn probe_usernames() -> [&'static str; 4] {
    ["michael", "john.smith", "support", "postmaster"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mailval_dns::Name;

    fn addr(s: &str) -> EmailAddress {
        EmailAddress::parse(s).unwrap()
    }

    fn probe_config() -> ClientConfig {
        ClientConfig {
            helo_identity: "probe.dns-lab.org".into(),
            mail_from: Some(addr("spf-test@t01.m9.spf-test.dns-lab.org")),
            rcpt_candidates: probe_usernames()
                .iter()
                .map(|u| EmailAddress::new(*u, Name::parse("target.test").unwrap()))
                .collect(),
            message: None,
            pause_before_commands_ms: 15_000,
            max_session_retries: 0,
            retry_backoff_ms: 0,
        }
    }

    /// What a call did, with the text a send appended.
    #[derive(Debug, PartialEq)]
    enum Did {
        Send(String),
        Pause(u64),
        Close(Box<ClientOutcome>),
    }

    fn did(action: ClientAction, out: String) -> Did {
        match action {
            ClientAction::Send => Did::Send(out),
            ClientAction::Pause(ms) => {
                assert!(out.is_empty());
                Did::Pause(ms)
            }
            ClientAction::Close(outcome) => {
                assert!(out.is_empty());
                Did::Close(outcome)
            }
        }
    }

    fn reply(c: &mut ClientSession, r: Reply) -> Did {
        let mut out = String::new();
        let action = c.on_reply(r.view(), &mut out);
        did(action, out)
    }

    fn pause_elapsed(c: &mut ClientSession) -> Did {
        let mut out = String::new();
        let action = c.on_pause_elapsed(&mut out);
        did(action, out)
    }

    fn expect_send(done: Did) -> String {
        match done {
            Did::Send(text) => text,
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn probe_session_full_flow() {
        let mut c = ClientSession::new(probe_config());
        // Greeting → EHLO immediately (no pause before EHLO).
        let line = expect_send(reply(&mut c, Reply::greeting("mx.target.test")));
        assert!(line.starts_with("EHLO"));
        // EHLO ok → pause 15s → MAIL.
        assert_eq!(reply(&mut c, Reply::ok()), Did::Pause(15_000));
        let line = expect_send(pause_elapsed(&mut c));
        assert!(line.starts_with("MAIL FROM:<spf-test@t01.m9"));
        // MAIL ok → pause → RCPT michael.
        assert_eq!(reply(&mut c, Reply::ok()), Did::Pause(15_000));
        let line = expect_send(pause_elapsed(&mut c));
        assert!(line.contains("<michael@target.test>"));
        // michael rejected → pause → john.smith.
        assert_eq!(
            reply(&mut c, Reply::no_such_user("michael")),
            Did::Pause(15_000)
        );
        let line = expect_send(pause_elapsed(&mut c));
        assert!(line.contains("<john.smith@target.test>"));
        // accepted → pause → DATA.
        assert_eq!(reply(&mut c, Reply::ok()), Did::Pause(15_000));
        let line = expect_send(pause_elapsed(&mut c));
        assert_eq!(line, "DATA\r\n");
        // 354 → probe disconnects without sending anything.
        match reply(&mut c, Reply::start_mail_input()) {
            Did::Close(outcome) => {
                assert_eq!(outcome.accepted_rcpt.unwrap().local, "john.smith");
                assert!(!outcome.delivered);
                assert!(outcome.rejection.is_none());
                assert_eq!(outcome.phase_reached, Phase::Data);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_all_usernames_rejected() {
        let mut c = ClientSession::new(probe_config());
        expect_send(reply(&mut c, Reply::greeting("mx")));
        reply(&mut c, Reply::ok()); // EHLO → pause
        pause_elapsed(&mut c); // MAIL
        reply(&mut c, Reply::ok()); // → pause
        pause_elapsed(&mut c); // RCPT 1
        for _ in 0..3 {
            reply(&mut c, Reply::no_such_user("x"));
            pause_elapsed(&mut c);
        }
        // Fourth rejection exhausts the list → QUIT.
        let line = expect_send(reply(&mut c, Reply::no_such_user("postmaster")));
        assert_eq!(line, "QUIT\r\n");
        match reply(&mut c, Reply::closing()) {
            Did::Close(outcome) => {
                assert!(outcome.accepted_rcpt.is_none());
                assert_eq!(outcome.rejection.as_ref().unwrap().0, Phase::Rcpt);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delivery_mode_sends_message() {
        let mut config = probe_config();
        config.message = Some(b"Subject: notification\r\n\r\n.hidden\r\nbody\r\n".to_vec());
        config.pause_before_commands_ms = 0;
        let mut c = ClientSession::new(config);
        expect_send(reply(&mut c, Reply::greeting("mx")));
        expect_send(reply(&mut c, Reply::ok())); // EHLO → MAIL (no pause)
        expect_send(reply(&mut c, Reply::ok())); // MAIL → RCPT
        let line = expect_send(reply(&mut c, Reply::ok())); // RCPT → DATA
        assert_eq!(line, "DATA\r\n");
        let payload = expect_send(reply(&mut c, Reply::start_mail_input()));
        assert!(payload.contains("..hidden\r\n"), "dot-stuffed");
        assert!(payload.ends_with("\r\n.\r\n"));
        let line = expect_send(reply(&mut c, Reply::new(250, "queued as 123")));
        assert_eq!(line, "QUIT\r\n");
        match reply(&mut c, Reply::closing()) {
            Did::Close(outcome) => {
                assert!(outcome.delivered);
                assert_eq!(outcome.phase_reached, Phase::Quit);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ehlo_falls_back_to_helo() {
        let mut config = probe_config();
        config.pause_before_commands_ms = 0;
        let mut c = ClientSession::new(config);
        expect_send(reply(&mut c, Reply::greeting("mx")));
        let line = expect_send(reply(&mut c, Reply::new(502, "command not implemented")));
        assert!(line.starts_with("HELO"));
        let line = expect_send(reply(&mut c, Reply::ok()));
        assert!(line.starts_with("MAIL"));
    }

    #[test]
    fn spam_rejection_at_mail_recorded() {
        let mut config = probe_config();
        config.pause_before_commands_ms = 0;
        let mut c = ClientSession::new(config);
        expect_send(reply(&mut c, Reply::greeting("mx")));
        expect_send(reply(&mut c, Reply::ok())); // EHLO → MAIL
        let line = expect_send(reply(&mut c, Reply::new(554, "sender on spam blacklist")));
        assert_eq!(line, "QUIT\r\n");
        match reply(&mut c, Reply::closing()) {
            Did::Close(outcome) => {
                let (phase, reply) = outcome.rejection.unwrap();
                assert_eq!(phase, Phase::Mail);
                assert!(reply.text().contains("spam"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn greylisted_rcpt_retried_with_exponential_backoff() {
        let mut config = probe_config();
        config.pause_before_commands_ms = 0;
        config.max_session_retries = 2;
        config.retry_backoff_ms = 30_000;
        let mut c = ClientSession::new(config);
        expect_send(reply(&mut c, Reply::greeting("mx")));
        expect_send(reply(&mut c, Reply::ok())); // EHLO → MAIL
        expect_send(reply(&mut c, Reply::ok())); // MAIL → RCPT michael
        let greylist = Reply::new(451, "4.7.1 Greylisted, try again later");
        // First 451 → backoff 30s, then RSET / MAIL / same RCPT.
        assert_eq!(reply(&mut c, greylist.clone()), Did::Pause(30_000));
        assert_eq!(expect_send(pause_elapsed(&mut c)), "RSET\r\n");
        let line = expect_send(reply(&mut c, Reply::ok()));
        assert!(line.starts_with("MAIL FROM:"));
        let line = expect_send(reply(&mut c, Reply::ok()));
        assert!(line.contains("<michael@target.test>"), "same candidate");
        // Second 451 → backoff doubles to 60s.
        assert_eq!(reply(&mut c, greylist.clone()), Did::Pause(60_000));
        assert_eq!(expect_send(pause_elapsed(&mut c)), "RSET\r\n");
        expect_send(reply(&mut c, Reply::ok())); // RSET → MAIL
        let line = expect_send(reply(&mut c, Reply::ok())); // MAIL → RCPT
        assert!(line.contains("<michael@target.test>"));
        // Accepted this time: the session proceeds to DATA.
        let line = expect_send(reply(&mut c, Reply::ok()));
        assert_eq!(line, "DATA\r\n");
        match reply(&mut c, Reply::start_mail_input()) {
            Did::Close(outcome) => {
                assert_eq!(outcome.retries, 2);
                assert_eq!(outcome.accepted_rcpt.unwrap().local, "michael");
                assert!(outcome.rejection.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retry_budget_exhaustion_falls_back_to_failure_path() {
        let mut config = probe_config();
        config.pause_before_commands_ms = 0;
        config.max_session_retries = 1;
        config.retry_backoff_ms = 10_000;
        let mut c = ClientSession::new(config);
        expect_send(reply(&mut c, Reply::greeting("mx")));
        expect_send(reply(&mut c, Reply::ok())); // EHLO → MAIL
        expect_send(reply(&mut c, Reply::ok())); // MAIL → RCPT
        let greylist = Reply::new(451, "4.7.1 Greylisted");
        assert_eq!(reply(&mut c, greylist.clone()), Did::Pause(10_000));
        assert_eq!(expect_send(pause_elapsed(&mut c)), "RSET\r\n");
        expect_send(reply(&mut c, Reply::ok())); // RSET → MAIL
        expect_send(reply(&mut c, Reply::ok())); // MAIL → RCPT
                                                 // Budget spent: the 451 now walks the username-fallback list.
        let line = expect_send(reply(&mut c, greylist.clone()));
        assert!(line.contains("<john.smith@target.test>"));
        // And once candidates run out, the session fails with the 451.
        for _ in 0..2 {
            expect_send(reply(&mut c, greylist.clone()));
        }
        let line = expect_send(reply(&mut c, greylist));
        assert_eq!(line, "QUIT\r\n");
        match reply(&mut c, Reply::closing()) {
            Did::Close(outcome) => {
                assert_eq!(outcome.retries, 1);
                let (phase, reply) = outcome.rejection.unwrap();
                assert_eq!(phase, Phase::Rcpt);
                assert_eq!(reply.code, 451);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Every line a probe session sends up to DATA, when the server
    /// rejects the first recipient and accepts the second.
    fn sent_lines(pause_before_commands_ms: u64) -> Vec<String> {
        let mut config = probe_config();
        config.pause_before_commands_ms = pause_before_commands_ms;
        let mut c = ClientSession::new(config);
        let replies = [
            Reply::greeting("mx"),
            Reply::ok(),
            Reply::ok(),
            Reply::no_such_user("michael"),
            Reply::ok(),
        ];
        let mut sent = Vec::new();
        for r in replies {
            let mut action = reply(&mut c, r);
            if let Did::Pause(ms) = action {
                assert_eq!(ms, pause_before_commands_ms);
                action = pause_elapsed(&mut c);
            }
            sent.push(expect_send(action));
        }
        sent
    }

    #[test]
    fn commands_after_a_pause_are_the_exact_unpaused_bytes() {
        let expected = [
            "EHLO probe.dns-lab.org\r\n",
            "MAIL FROM:<spf-test@t01.m9.spf-test.dns-lab.org>\r\n",
            "RCPT TO:<michael@target.test>\r\n",
            "RCPT TO:<john.smith@target.test>\r\n",
            "DATA\r\n",
        ];
        assert_eq!(sent_lines(15_000), expected);
        assert_eq!(sent_lines(0), expected);
    }

    #[test]
    fn greeting_failure_quits() {
        let mut c = ClientSession::new(probe_config());
        let line = expect_send(reply(&mut c, Reply::new(554, "no service")));
        assert_eq!(line, "QUIT\r\n");
    }

    #[test]
    fn disconnect_mid_session_yields_partial_outcome() {
        let mut c = ClientSession::new(probe_config());
        expect_send(reply(&mut c, Reply::greeting("mx")));
        let outcome = c.on_disconnect();
        assert_eq!(outcome.phase_reached, Phase::Greeting);
        assert_eq!(outcome.transcript.len(), 1);
        // The outcome was handed over: the session kept nothing.
        assert_eq!(c.on_disconnect(), ClientOutcome::default());
    }

    fn unpacked(t: &Transcript) -> Vec<(Phase, u16, Vec<&str>)> {
        t.iter()
            .map(|(phase, code, lines)| (phase, code, lines.collect()))
            .collect()
    }

    #[test]
    fn transcript_records_every_reply_in_order() {
        let mut c = ClientSession::new(probe_config());
        expect_send(reply(&mut c, Reply::greeting("mx")));
        let ehlo = Reply::multiline(250, vec!["mx".into(), String::new(), "8BITMIME".into()]);
        reply(&mut c, ehlo);
        let outcome = c.on_disconnect();
        assert_eq!(outcome.transcript.len(), 2);
        assert_eq!(
            unpacked(&outcome.transcript),
            [
                (Phase::Greeting, 220, vec!["mx ESMTP ready"]),
                (Phase::Helo, 250, vec!["mx", "", "8BITMIME"]),
            ]
        );
        assert_eq!(
            format!("{:?}", outcome.transcript),
            r#"[(Greeting, 220, ["mx ESMTP ready"]), (Helo, 250, ["mx", "", "8BITMIME"])]"#
        );
    }

    #[test]
    fn decode_packed_takes_back_what_push_packed() {
        let mut t = Transcript::new();
        t.push(Phase::Greeting, Reply::greeting("mx").view())
            .unwrap();
        t.push(
            Phase::Quit,
            Reply::multiline(221, vec!["Bye".into(), "\u{e9}t\u{e9}".into()]).view(),
        )
        .unwrap();
        t.push(
            Phase::Rcpt,
            Reply {
                code: 451,
                lines: vec![],
            }
            .view(),
        )
        .unwrap();
        let mut bytes = t.bytes.clone();
        bytes.extend_from_slice(b"after");
        let (decoded, used) = Transcript::decode_packed(&bytes, 3).unwrap();
        assert_eq!((decoded, used), (t.clone(), t.bytes.len()));
        assert_eq!(
            Transcript::decode_packed(&bytes, 0).unwrap(),
            (Transcript::new(), 0)
        );
        // Every cut inside the replies is a truncation.
        for len in 0..t.bytes.len() {
            assert_eq!(
                Transcript::decode_packed(&bytes[..len], 3),
                Err(PackedError::Truncated),
                "cut at {len}"
            );
        }
        let mut bad = t.bytes.clone();
        bad[0] = 7;
        assert_eq!(
            Transcript::decode_packed(&bad, 3),
            Err(PackedError::BadPhase)
        );
        // The greeting's line starts at byte 11; 0xff is never UTF-8.
        let mut bad = t.bytes.clone();
        bad[11] = 0xff;
        assert_eq!(
            Transcript::decode_packed(&bad, 3),
            Err(PackedError::BadText)
        );
        assert!(Transcript::new().is_empty() && Transcript::new().iter().next().is_none());
    }

    #[test]
    fn raw_lines_are_the_text_lines_bytes() {
        let mut t = Transcript::new();
        t.push(Phase::Greeting, Reply::greeting("mx").view())
            .unwrap();
        let ehlo = Reply::multiline(
            250,
            vec!["mx".into(), String::new(), "\u{e9}t\u{e9}".into()],
        );
        t.push(Phase::Helo, ehlo.view()).unwrap();
        t.push(
            Phase::Quit,
            Reply {
                code: 221,
                lines: vec![],
            }
            .view(),
        )
        .unwrap();
        for (_, _, lines) in t.iter() {
            let raw = lines.clone().raw();
            assert_eq!(raw.len(), lines.len());
            let text: Vec<&[u8]> = lines.map(str::as_bytes).collect();
            assert_eq!(raw.collect::<Vec<_>>(), text);
        }
    }
}
