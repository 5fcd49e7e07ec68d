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

use crate::command::{mail_line, rcpt_line, Command, EmailAddress};
use crate::mail::dot_stuff;
use crate::reply::Reply;
use std::convert::Infallible;
use std::fmt;

/// The dialogue phase a reply belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Server greeting.
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
    /// Transmit these bytes (already CRLF-terminated).
    Send(Vec<u8>),
    /// Wait this long, then call [`ClientSession::on_pause_elapsed`].
    Pause(u64),
    /// Close the connection; the session is finished.
    Close(Box<ClientOutcome>),
}

/// Result of a finished session.
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// per line `len:u32le` and the line's UTF-8 text. That is exactly as
/// many bytes as the measurement codec's encoding of the same reply, so
/// a decoder that has measured an encoded transcript can
/// [`Transcript::with_capacity`] the buffer to its final size.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    bytes: Vec<u8>,
    replies: usize,
}

/// Bytes of a reply's header in a [`Transcript`]'s buffer.
const REPLY_HEADER_LEN: usize = 7;

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty transcript whose buffer holds `bytes` packed bytes
    /// before it grows.
    pub fn with_capacity(bytes: usize) -> Self {
        Transcript {
            bytes: Vec::with_capacity(bytes),
            replies: 0,
        }
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
    pub fn push(&mut self, phase: Phase, reply: &Reply) {
        let lines = reply.lines.iter().map(|l| Ok::<_, Infallible>(l.as_str()));
        let Ok(()) = self.try_push(phase, reply.code, lines);
    }

    /// Append one reply whose lines come from a fallible source (a
    /// decoder). On the first error nothing of the reply is kept and the
    /// error is returned.
    pub fn try_push<'a, E>(
        &mut self,
        phase: Phase,
        code: u16,
        lines: impl IntoIterator<Item = Result<&'a str, E>>,
    ) -> Result<(), E> {
        let start = self.bytes.len();
        self.bytes.push(phase as u8);
        self.bytes.extend_from_slice(&code.to_le_bytes());
        self.bytes.extend_from_slice(&[0; 4]);
        let mut count = 0u32;
        for line in lines {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    self.bytes.truncate(start);
                    return Err(e);
                }
            };
            let len = u32::try_from(line.len()).expect("a reply line is under 4 GiB");
            self.bytes.extend_from_slice(&len.to_le_bytes());
            self.bytes.extend_from_slice(line.as_bytes());
            count += 1;
        }
        self.bytes[start + 3..start + REPLY_HEADER_LEN].copy_from_slice(&count.to_le_bytes());
        self.replies += 1;
        Ok(())
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

impl FromIterator<(Phase, Reply)> for Transcript {
    fn from_iter<I: IntoIterator<Item = (Phase, Reply)>>(iter: I) -> Self {
        let mut transcript = Transcript::new();
        for (phase, reply) in iter {
            transcript.push(phase, &reply);
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
        let lines = Lines {
            rest: &lines_start[..lines_start.len() - body.len()],
            left: count as usize,
        };
        Some((phase, code, lines))
    }
}

/// Iterator over one transcript reply's lines.
#[derive(Clone)]
pub struct Lines<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (line, rest) = split_line(self.rest);
        self.rest = rest;
        Some(std::str::from_utf8(line).expect("transcript lines are pushed as text"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Lines<'_> {}

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
            outcome: ClientOutcome {
                phase_reached: Phase::Greeting,
                accepted_rcpt: None,
                delivered: false,
                rejection: None,
                retries: 0,
                transcript: Transcript::new(),
            },
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

    /// Send one command line, CRLF-terminated.
    fn send_line(mut line: String) -> ClientAction {
        line.push_str("\r\n");
        ClientAction::Send(line.into_bytes())
    }

    /// Enter `paused` (a `PauseBefore*` state) and wait the configured
    /// pause, or, with no pause configured, send the command it waits
    /// for at once. Either way the command is built only when sent.
    fn pause_then(&mut self, paused: State) -> ClientAction {
        self.state = paused;
        if self.config.pause_before_commands_ms > 0 {
            ClientAction::Pause(self.config.pause_before_commands_ms)
        } else {
            self.on_pause_elapsed()
        }
    }

    fn can_retry(&self, reply: &Reply) -> bool {
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

    fn fail(&mut self, phase: Phase, reply: Reply) -> ClientAction {
        if self.outcome.rejection.is_none() {
            self.outcome.rejection = Some((phase, reply));
        }
        self.state = State::AwaitQuitReply;
        Self::send_line(Command::Quit.to_line())
    }

    fn close(&mut self) -> ClientAction {
        self.state = State::Done;
        ClientAction::Close(Box::new(self.outcome.clone()))
    }

    /// Feed a complete server reply.
    pub fn on_reply(&mut self, reply: Reply) -> ClientAction {
        let phase = self.phase_of();
        self.outcome.transcript.push(phase, &reply);
        self.outcome.phase_reached = self.outcome.phase_reached.max(phase);
        match self.state {
            State::AwaitGreeting => {
                if !reply.is_positive() {
                    return self.fail(Phase::Greeting, reply);
                }
                self.state = State::AwaitHeloReply { fell_back: false };
                Self::send_line(Command::Ehlo(self.config.helo_identity.clone()).to_line())
            }
            State::AwaitHeloReply { fell_back } => {
                if reply.is_positive() {
                    return self.pause_then(State::PauseBeforeMail);
                }
                if !fell_back && reply.is_permanent_failure() {
                    // EHLO unsupported: fall back to HELO (§4.6).
                    self.state = State::AwaitHeloReply { fell_back: true };
                    return Self::send_line(
                        Command::Helo(self.config.helo_identity.clone()).to_line(),
                    );
                }
                self.fail(Phase::Helo, reply)
            }
            State::AwaitMailReply => {
                if !reply.is_positive() {
                    if self.can_retry(&reply) {
                        return self.begin_retry();
                    }
                    return self.fail(Phase::Mail, reply);
                }
                self.pause_then(State::PauseBeforeRcpt)
            }
            State::AwaitRcptReply => {
                if reply.is_positive() {
                    self.outcome.accepted_rcpt =
                        Some(self.config.rcpt_candidates[self.rcpt_index].clone());
                    return self.pause_then(State::PauseBeforeData);
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
                    return self.pause_then(State::PauseBeforeRcpt);
                }
                self.fail(Phase::Rcpt, reply)
            }
            State::AwaitDataReply => {
                match &self.config.message {
                    None => {
                        // Probe mode: regardless of the reply, disconnect
                        // *without* sending message data (§4.6, §5.1).
                        if !reply.is_intermediate() && self.outcome.rejection.is_none() {
                            self.outcome.rejection = Some((Phase::Data, reply));
                        }
                        self.close()
                    }
                    Some(message) => {
                        if !reply.is_intermediate() {
                            if self.can_retry(&reply) {
                                return self.begin_retry();
                            }
                            return self.fail(Phase::Data, reply);
                        }
                        let mut payload = dot_stuff(message);
                        if !payload.ends_with(b"\r\n") {
                            payload.extend_from_slice(b"\r\n");
                        }
                        payload.extend_from_slice(b".\r\n");
                        self.state = State::AwaitMessageReply;
                        ClientAction::Send(payload)
                    }
                }
            }
            State::AwaitMessageReply => {
                if reply.is_positive() {
                    self.outcome.delivered = true;
                    self.state = State::AwaitQuitReply;
                    return Self::send_line(Command::Quit.to_line());
                }
                if self.can_retry(&reply) {
                    return self.begin_retry();
                }
                self.fail(Phase::Message, reply)
            }
            State::AwaitRsetReply => {
                if !reply.is_positive() {
                    return self.fail(Phase::Mail, reply);
                }
                self.pause_then(State::PauseBeforeMail)
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

    /// Resume after a [`ClientAction::Pause`].
    pub fn on_pause_elapsed(&mut self) -> ClientAction {
        match self.state {
            State::PauseBeforeMail => {
                self.state = State::AwaitMailReply;
                Self::send_line(mail_line(self.config.mail_from.as_ref()))
            }
            State::PauseBeforeRcpt => {
                self.state = State::AwaitRcptReply;
                Self::send_line(rcpt_line(&self.config.rcpt_candidates[self.rcpt_index]))
            }
            State::PauseBeforeData => {
                self.state = State::AwaitDataReply;
                Self::send_line(Command::Data.to_line())
            }
            State::PauseBeforeRetry => {
                // Backoff elapsed: clear the transaction server-side,
                // then replay from MAIL once the RSET is acknowledged.
                self.state = State::AwaitRsetReply;
                Self::send_line(Command::Rset.to_line())
            }
            _ => ClientAction::Pause(0),
        }
    }

    /// The connection dropped (timeout, reset). Finish with what we have.
    pub fn on_disconnect(&mut self) -> ClientOutcome {
        self.state = State::Done;
        self.outcome.clone()
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
                .map(|u| EmailAddress::new(u, Name::parse("target.test").unwrap()))
                .collect(),
            message: None,
            pause_before_commands_ms: 15_000,
            max_session_retries: 0,
            retry_backoff_ms: 0,
        }
    }

    fn expect_send(action: ClientAction) -> String {
        match action {
            ClientAction::Send(bytes) => String::from_utf8(bytes).unwrap(),
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn probe_session_full_flow() {
        let mut c = ClientSession::new(probe_config());
        // Greeting → EHLO immediately (no pause before EHLO).
        let line = expect_send(c.on_reply(Reply::greeting("mx.target.test")));
        assert!(line.starts_with("EHLO"));
        // EHLO ok → pause 15s → MAIL.
        assert_eq!(c.on_reply(Reply::ok()), ClientAction::Pause(15_000));
        let line = expect_send(c.on_pause_elapsed());
        assert!(line.starts_with("MAIL FROM:<spf-test@t01.m9"));
        // MAIL ok → pause → RCPT michael.
        assert_eq!(c.on_reply(Reply::ok()), ClientAction::Pause(15_000));
        let line = expect_send(c.on_pause_elapsed());
        assert!(line.contains("<michael@target.test>"));
        // michael rejected → pause → john.smith.
        assert_eq!(
            c.on_reply(Reply::no_such_user("michael")),
            ClientAction::Pause(15_000)
        );
        let line = expect_send(c.on_pause_elapsed());
        assert!(line.contains("<john.smith@target.test>"));
        // accepted → pause → DATA.
        assert_eq!(c.on_reply(Reply::ok()), ClientAction::Pause(15_000));
        let line = expect_send(c.on_pause_elapsed());
        assert_eq!(line, "DATA\r\n");
        // 354 → probe disconnects without sending anything.
        match c.on_reply(Reply::start_mail_input()) {
            ClientAction::Close(outcome) => {
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
        expect_send(c.on_reply(Reply::greeting("mx")));
        c.on_reply(Reply::ok()); // EHLO → pause
        c.on_pause_elapsed(); // MAIL
        c.on_reply(Reply::ok()); // → pause
        c.on_pause_elapsed(); // RCPT 1
        for _ in 0..3 {
            c.on_reply(Reply::no_such_user("x"));
            c.on_pause_elapsed();
        }
        // Fourth rejection exhausts the list → QUIT.
        let line = expect_send(c.on_reply(Reply::no_such_user("postmaster")));
        assert_eq!(line, "QUIT\r\n");
        match c.on_reply(Reply::closing()) {
            ClientAction::Close(outcome) => {
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
        expect_send(c.on_reply(Reply::greeting("mx")));
        expect_send(c.on_reply(Reply::ok())); // EHLO → MAIL (no pause)
        expect_send(c.on_reply(Reply::ok())); // MAIL → RCPT
        let line = expect_send(c.on_reply(Reply::ok())); // RCPT → DATA
        assert_eq!(line, "DATA\r\n");
        let payload = expect_send(c.on_reply(Reply::start_mail_input()));
        assert!(payload.contains("..hidden\r\n"), "dot-stuffed");
        assert!(payload.ends_with("\r\n.\r\n"));
        let line = expect_send(c.on_reply(Reply::new(250, "queued as 123")));
        assert_eq!(line, "QUIT\r\n");
        match c.on_reply(Reply::closing()) {
            ClientAction::Close(outcome) => {
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
        expect_send(c.on_reply(Reply::greeting("mx")));
        let line = expect_send(c.on_reply(Reply::new(502, "command not implemented")));
        assert!(line.starts_with("HELO"));
        let line = expect_send(c.on_reply(Reply::ok()));
        assert!(line.starts_with("MAIL"));
    }

    #[test]
    fn spam_rejection_at_mail_recorded() {
        let mut config = probe_config();
        config.pause_before_commands_ms = 0;
        let mut c = ClientSession::new(config);
        expect_send(c.on_reply(Reply::greeting("mx")));
        expect_send(c.on_reply(Reply::ok())); // EHLO → MAIL
        let line = expect_send(c.on_reply(Reply::new(554, "sender on spam blacklist")));
        assert_eq!(line, "QUIT\r\n");
        match c.on_reply(Reply::closing()) {
            ClientAction::Close(outcome) => {
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
        expect_send(c.on_reply(Reply::greeting("mx")));
        expect_send(c.on_reply(Reply::ok())); // EHLO → MAIL
        expect_send(c.on_reply(Reply::ok())); // MAIL → RCPT michael
        let greylist = Reply::new(451, "4.7.1 Greylisted, try again later");
        // First 451 → backoff 30s, then RSET / MAIL / same RCPT.
        assert_eq!(c.on_reply(greylist.clone()), ClientAction::Pause(30_000));
        assert_eq!(expect_send(c.on_pause_elapsed()), "RSET\r\n");
        let line = expect_send(c.on_reply(Reply::ok()));
        assert!(line.starts_with("MAIL FROM:"));
        let line = expect_send(c.on_reply(Reply::ok()));
        assert!(line.contains("<michael@target.test>"), "same candidate");
        // Second 451 → backoff doubles to 60s.
        assert_eq!(c.on_reply(greylist.clone()), ClientAction::Pause(60_000));
        assert_eq!(expect_send(c.on_pause_elapsed()), "RSET\r\n");
        expect_send(c.on_reply(Reply::ok())); // RSET → MAIL
        let line = expect_send(c.on_reply(Reply::ok())); // MAIL → RCPT
        assert!(line.contains("<michael@target.test>"));
        // Accepted this time: the session proceeds to DATA.
        let line = expect_send(c.on_reply(Reply::ok()));
        assert_eq!(line, "DATA\r\n");
        match c.on_reply(Reply::start_mail_input()) {
            ClientAction::Close(outcome) => {
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
        expect_send(c.on_reply(Reply::greeting("mx")));
        expect_send(c.on_reply(Reply::ok())); // EHLO → MAIL
        expect_send(c.on_reply(Reply::ok())); // MAIL → RCPT
        let greylist = Reply::new(451, "4.7.1 Greylisted");
        assert_eq!(c.on_reply(greylist.clone()), ClientAction::Pause(10_000));
        assert_eq!(expect_send(c.on_pause_elapsed()), "RSET\r\n");
        expect_send(c.on_reply(Reply::ok())); // RSET → MAIL
        expect_send(c.on_reply(Reply::ok())); // MAIL → RCPT
                                              // Budget spent: the 451 now walks the username-fallback list.
        let line = expect_send(c.on_reply(greylist.clone()));
        assert!(line.contains("<john.smith@target.test>"));
        // And once candidates run out, the session fails with the 451.
        for _ in 0..2 {
            expect_send(c.on_reply(greylist.clone()));
        }
        let line = expect_send(c.on_reply(greylist));
        assert_eq!(line, "QUIT\r\n");
        match c.on_reply(Reply::closing()) {
            ClientAction::Close(outcome) => {
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
        for reply in replies {
            let mut action = c.on_reply(reply);
            if let ClientAction::Pause(ms) = action {
                assert_eq!(ms, pause_before_commands_ms);
                action = c.on_pause_elapsed();
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
        let line = expect_send(c.on_reply(Reply::new(554, "no service")));
        assert_eq!(line, "QUIT\r\n");
    }

    #[test]
    fn disconnect_mid_session_yields_partial_outcome() {
        let mut c = ClientSession::new(probe_config());
        expect_send(c.on_reply(Reply::greeting("mx")));
        let outcome = c.on_disconnect();
        assert_eq!(outcome.phase_reached, Phase::Greeting);
        assert_eq!(outcome.transcript.len(), 1);
    }

    fn unpacked(t: &Transcript) -> Vec<(Phase, u16, Vec<&str>)> {
        t.iter()
            .map(|(phase, code, lines)| (phase, code, lines.collect()))
            .collect()
    }

    #[test]
    fn transcript_records_every_reply_in_order() {
        let mut c = ClientSession::new(probe_config());
        expect_send(c.on_reply(Reply::greeting("mx")));
        let ehlo = Reply::multiline(250, vec!["mx".into(), String::new(), "8BITMIME".into()]);
        c.on_reply(ehlo);
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
    fn failed_try_push_keeps_nothing_of_the_reply() {
        let mut t = Transcript::new();
        t.push(Phase::Greeting, &Reply::greeting("mx"));
        let before = t.clone();
        let lines = [Ok("first"), Err("cut"), Ok("never read")];
        assert_eq!(t.try_push(Phase::Helo, 250, lines), Err("cut"));
        assert_eq!(t, before);
        t.try_push::<()>(Phase::Quit, 221, [Ok("Bye"), Ok("\u{e9}t\u{e9}")])
            .unwrap();
        assert_eq!(
            unpacked(&t),
            [
                (Phase::Greeting, 220, vec!["mx ESMTP ready"]),
                (Phase::Quit, 221, vec!["Bye", "\u{e9}t\u{e9}"]),
            ]
        );
        assert!(Transcript::new().is_empty() && Transcript::new().iter().next().is_none());
    }
}
