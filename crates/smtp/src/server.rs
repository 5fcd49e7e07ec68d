//! Sans-IO receiving-MTA SMTP session.
//!
//! The session is a state machine fed complete lines; it either replies
//! immediately or *suspends* with a [`PolicyQuery`] so the embedding MTA
//! can consult policy — including policy that requires DNS round trips
//! (SPF validation during the SMTP dialogue, which the paper shows 83% of
//! validating domains perform before accepting delivery, §6.2). The
//! embedder resumes the session with [`Session::on_decision`].
//!
//! Replies are written as wire text into a buffer the embedder passes
//! in, and a query borrows its arguments from the command line: the
//! session builds no owned reply or address.

use crate::command::{Command, CommandError, Mailbox};
use crate::reply::{push_wire_line, Canned};
use std::fmt;

/// Where the session is in the SMTP dialogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// TCP established, greeting sent, awaiting EHLO/HELO.
    Connected,
    /// EHLO/HELO done.
    Greeted,
    /// MAIL accepted.
    MailGiven,
    /// At least one RCPT accepted.
    RcptGiven,
    /// Inside DATA, collecting message lines.
    ReceivingData,
    /// QUIT processed; the connection should be closed.
    Closed,
    /// Waiting for the embedder's policy decision.
    AwaitingDecision,
}

/// A policy question the embedding MTA must answer, borrowing from the
/// command line that raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyQuery<'a> {
    /// EHLO/HELO seen. The paper's HELO test policy (§7.3) hinges on
    /// whether MTAs check SPF for this identity.
    Helo {
        /// Identity given by the client.
        identity: &'a str,
        /// True for EHLO, false for HELO.
        esmtp: bool,
    },
    /// MAIL FROM seen.
    Mail {
        /// The reverse path; `None` is the null sender.
        from: Option<Mailbox<'a>>,
    },
    /// RCPT TO seen.
    Rcpt {
        /// The forward path.
        to: Mailbox<'a>,
    },
    /// DATA command seen (decision before 354 is issued).
    Data,
    /// A complete message was received (decision before the final 250).
    Message {
        /// Raw message bytes, dot-unstuffed, without the terminating line.
        raw: Vec<u8>,
    },
}

/// The embedder's answer to a [`PolicyQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision<'a> {
    /// Proceed (a default positive reply is sent).
    Accept,
    /// Refuse with the given reply (4xx/5xx).
    Reject(Canned<'a>),
    /// Refuse *temporarily* with a 4xx reply (greylisting, resource
    /// pressure). State rollback is identical to [`Decision::Reject`];
    /// the variant exists so embedders and transcripts can distinguish
    /// "come back later" from a verdict — the paper's probes retried
    /// tempfailed transactions, permanent rejections they did not.
    TempFail(Canned<'a>),
    /// Refuse and drop the connection right after the reply (the
    /// "DNSBL slam": operators that terminate blacklisted clients
    /// instead of letting the dialogue continue, §6.2). The embedder
    /// must emit its close output after sending the reply.
    RejectAndClose(Canned<'a>),
}

/// What the session wants the embedder to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<'a> {
    /// A reply was written to the wire buffer: send it.
    Replied,
    /// Ask the embedder for a decision, then call
    /// [`Session::on_decision`].
    Ask(PolicyQuery<'a>),
    /// A reply was written to the wire buffer: send it, then close the
    /// connection.
    RepliedAndClose,
    /// No output: a mid-DATA content line, or a line that arrived while
    /// a decision was pending (a client pipelining past a suspended
    /// command), which the session does not read.
    None,
}

/// The accepted reverse path of the transaction in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReversePath {
    /// The null reverse path `<>`.
    Null,
    /// A mailbox.
    Mailbox,
}

/// [`Session::on_decision`] was called with no query pending: the
/// embedder answered twice, or answered a question never asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoPendingQuery;

impl fmt::Display for NoPendingQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no policy decision pending")
    }
}

impl std::error::Error for NoPendingQuery {}

/// The suspended command a decision answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// EHLO (`esmtp`) or HELO; the identity waits in `offered`.
    Helo {
        esmtp: bool,
    },
    Mail(ReversePath),
    Rcpt,
    Data,
    Message,
}

/// A sans-IO SMTP server session.
#[derive(Debug)]
pub struct Session {
    hostname: String,
    state: SessionState,
    resume_state: SessionState,
    pending: Option<Pending>,
    /// The identity of a pending EHLO/HELO.
    offered: String,
    /// Identity from EHLO/HELO.
    pub helo_identity: Option<String>,
    /// Whether EHLO (vs HELO) was used.
    pub esmtp: bool,
    /// Accepted reverse path.
    pub mail_from: Option<ReversePath>,
    /// Accepted forward paths.
    pub rcpt_count: usize,
    data_buf: Vec<u8>,
}

impl Session {
    /// Create a session; the embedder should first send
    /// [`Session::greeting`].
    pub fn new(hostname: &str) -> Self {
        Session {
            hostname: hostname.to_string(),
            state: SessionState::Connected,
            resume_state: SessionState::Connected,
            pending: None,
            offered: String::new(),
            helo_identity: None,
            esmtp: false,
            mail_from: None,
            rcpt_count: 0,
            data_buf: Vec::new(),
        }
    }

    /// Write the 220 greeting to send on connect.
    pub fn greeting(&self, wire: &mut String) {
        Canned::greeting(&self.hostname).write_wire(wire);
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Feed one line from the client (without CRLF); a reply it gets at
    /// once is written to `wire`.
    pub fn on_line<'a>(&mut self, line: &'a str, wire: &mut String) -> Action<'a> {
        match self.state {
            SessionState::Closed | SessionState::AwaitingDecision => Action::None,
            SessionState::ReceivingData => self.on_data_line(line),
            _ => self.on_command_line(line, wire),
        }
    }

    fn on_command_line<'a>(&mut self, line: &'a str, wire: &mut String) -> Action<'a> {
        let reply = |wire: &mut String, canned: Canned<'_>| {
            canned.write_wire(wire);
            Action::Replied
        };
        let cmd = match Command::parse(line) {
            Ok(cmd) => cmd,
            Err(CommandError::UnknownCommand(_)) => return reply(wire, Canned::SYNTAX_ERROR),
            Err(CommandError::BadArguments(_)) => return reply(wire, Canned::BAD_ARGUMENTS),
        };
        match cmd {
            Command::Ehlo(identity) | Command::Helo(identity) => {
                // The identity is echoed in the greets line: a control
                // byte in it (a bare CR, a NUL) would make that a reply
                // the client must refuse.
                if identity.bytes().any(|b| b.is_ascii_control()) {
                    return reply(wire, Canned::BAD_ARGUMENTS);
                }
                let esmtp = matches!(cmd, Command::Ehlo(_));
                // EHLO resets any transaction in progress (RFC 5321 §4.1.4).
                self.reset_transaction();
                self.offered.clear();
                self.offered.push_str(identity);
                self.suspend(
                    SessionState::Greeted,
                    Pending::Helo { esmtp },
                    PolicyQuery::Helo { identity, esmtp },
                )
            }
            Command::Mail(from) => {
                if self.state != SessionState::Greeted {
                    return reply(wire, Canned::BAD_SEQUENCE);
                }
                let path = match from {
                    Some(_) => ReversePath::Mailbox,
                    None => ReversePath::Null,
                };
                self.suspend(
                    SessionState::MailGiven,
                    Pending::Mail(path),
                    PolicyQuery::Mail { from },
                )
            }
            Command::Rcpt(to) => {
                if self.state != SessionState::MailGiven && self.state != SessionState::RcptGiven {
                    return reply(wire, Canned::BAD_SEQUENCE);
                }
                self.suspend(
                    SessionState::RcptGiven,
                    Pending::Rcpt,
                    PolicyQuery::Rcpt { to },
                )
            }
            Command::Data => {
                if self.state != SessionState::RcptGiven {
                    return reply(wire, Canned::BAD_SEQUENCE);
                }
                self.suspend(
                    SessionState::ReceivingData,
                    Pending::Data,
                    PolicyQuery::Data,
                )
            }
            Command::Rset => {
                self.reset_transaction();
                if self.state != SessionState::Connected {
                    self.state = SessionState::Greeted;
                }
                reply(wire, Canned::OK)
            }
            Command::Noop => reply(wire, Canned::OK),
            Command::Quit => {
                self.state = SessionState::Closed;
                Canned::CLOSING.write_wire(wire);
                Action::RepliedAndClose
            }
            Command::Vrfy(_) => reply(
                wire,
                Canned::new(
                    252,
                    "Cannot VRFY user, but will accept message and attempt delivery",
                ),
            ),
        }
    }

    fn on_data_line<'a>(&mut self, line: &str) -> Action<'a> {
        if line == "." {
            let raw = crate::mail::dot_unstuff(&self.data_buf);
            self.data_buf.clear();
            return self.suspend(
                SessionState::Greeted,
                Pending::Message,
                PolicyQuery::Message { raw },
            );
        }
        self.data_buf.extend_from_slice(line.as_bytes());
        self.data_buf.extend_from_slice(b"\r\n");
        Action::None
    }

    fn suspend<'a>(
        &mut self,
        resume_state: SessionState,
        pending: Pending,
        query: PolicyQuery<'a>,
    ) -> Action<'a> {
        self.resume_state = resume_state;
        self.pending = Some(pending);
        self.state = SessionState::AwaitingDecision;
        Action::Ask(query)
    }

    /// Resume after a policy decision: write the reply to `wire` and
    /// return its code, or refuse when no query is pending (nothing is
    /// written and nothing changes).
    pub fn on_decision(
        &mut self,
        decision: Decision<'_>,
        wire: &mut String,
    ) -> Result<u16, NoPendingQuery> {
        let pending = self.pending.take().ok_or(NoPendingQuery)?;
        let rejection = match decision {
            Decision::Accept => None,
            Decision::Reject(reply) | Decision::TempFail(reply) => {
                // Rejected: roll back to the pre-command state.
                self.state = match pending {
                    Pending::Helo { .. } => SessionState::Connected,
                    Pending::Mail(_) | Pending::Message => SessionState::Greeted,
                    Pending::Rcpt if self.rcpt_count == 0 => SessionState::MailGiven,
                    Pending::Rcpt | Pending::Data => SessionState::RcptGiven,
                };
                if pending == Pending::Message {
                    self.reset_transaction();
                }
                Some(reply)
            }
            Decision::RejectAndClose(reply) => {
                self.state = SessionState::Closed;
                Some(reply)
            }
        };
        if let Some(reply) = rejection {
            reply.write_wire(wire);
            return Ok(reply.code);
        }
        // Accepted: reply, and record the command's effects.
        let code = match pending {
            Pending::Helo { esmtp } => {
                let greets = [self.hostname.as_str(), " greets ", &self.offered];
                push_wire_line(wire, 250, !esmtp, &greets);
                if esmtp {
                    push_wire_line(wire, 250, false, &["SIZE 26214400"]);
                    push_wire_line(wire, 250, true, &["8BITMIME"]);
                }
                self.helo_identity = Some(std::mem::take(&mut self.offered));
                self.esmtp = esmtp;
                250
            }
            Pending::Mail(path) => {
                self.mail_from = Some(path);
                ok(wire)
            }
            Pending::Rcpt => {
                self.rcpt_count += 1;
                ok(wire)
            }
            Pending::Data => {
                self.data_buf.clear();
                Canned::START_MAIL_INPUT.write_wire(wire);
                Canned::START_MAIL_INPUT.code
            }
            Pending::Message => {
                self.reset_transaction();
                let queued = Canned::new(250, "OK: queued");
                queued.write_wire(wire);
                queued.code
            }
        };
        self.state = self.resume_state;
        Ok(code)
    }

    fn reset_transaction(&mut self) {
        self.mail_from = None;
        self.rcpt_count = 0;
        self.data_buf.clear();
    }
}

/// Write 250 OK to `wire` and return its code.
fn ok(wire: &mut String) -> u16 {
    Canned::OK.write_wire(wire);
    Canned::OK.code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::crlf_lines;
    use crate::reply::{Reply, ReplyParser};

    /// The one reply written to `wire`, owned.
    fn parsed(wire: &str) -> Reply {
        let mut parser = ReplyParser::new();
        let mut reply = None;
        for line in crlf_lines(wire) {
            if let Some(r) = parser.push_line(line).unwrap() {
                assert!(reply.is_none(), "one reply in {wire:?}");
                reply = Some(r.to_reply());
            }
        }
        reply.expect("a whole reply")
    }

    /// Feed `line`; the action and whatever was written.
    fn feed<'a>(session: &mut Session, line: &'a str) -> (Action<'a>, String) {
        let mut wire = String::new();
        let action = session.on_line(line, &mut wire);
        (action, wire)
    }

    /// Decide, and read back the reply.
    fn decide(session: &mut Session, decision: Decision<'_>) -> Reply {
        let mut wire = String::new();
        let code = session.on_decision(decision, &mut wire).unwrap();
        let reply = parsed(&wire);
        assert_eq!(reply.code, code);
        reply
    }

    fn accept_all(session: &mut Session, line: &str) -> Reply {
        match feed(session, line) {
            (Action::Ask(_), wire) => {
                assert!(wire.is_empty());
                decide(session, Decision::Accept)
            }
            (Action::Replied | Action::RepliedAndClose, wire) => parsed(&wire),
            (Action::None, _) => panic!("no reply for {line}"),
        }
    }

    /// The immediate reply to `line`, as its wire text.
    fn immediate(session: &mut Session, line: &str) -> String {
        let (action, wire) = feed(session, line);
        assert_eq!(action, Action::Replied, "{line}");
        wire
    }

    #[test]
    fn greets_line_is_the_formatted_line() {
        for (host, identity) in [
            ("mx.test", "probe.test"),
            ("", "x"),
            ("mx\u{e9}", "[192.0.2.1]"),
        ] {
            for verb in ["EHLO", "HELO"] {
                let mut s = Session::new(host);
                let reply = accept_all(&mut s, &format!("{verb} {identity}"));
                assert_eq!(reply.lines[0], format!("{host} greets {identity}"));
                let lines = if verb == "EHLO" { 3 } else { 1 };
                assert_eq!(reply.lines.len(), lines);
            }
        }
    }

    #[test]
    fn happy_path_delivery() {
        let mut s = Session::new("mx.recipient.test");
        let mut greeting = String::new();
        s.greeting(&mut greeting);
        assert_eq!(parsed(&greeting), Reply::greeting("mx.recipient.test"));
        assert_eq!(accept_all(&mut s, "EHLO probe.test").code, 250);
        assert_eq!(accept_all(&mut s, "MAIL FROM:<a@sender.test>").code, 250);
        assert_eq!(accept_all(&mut s, "RCPT TO:<b@recipient.test>").code, 250);
        assert_eq!(accept_all(&mut s, "DATA").code, 354);
        for line in ["Subject: hi", "", "body"] {
            assert_eq!(feed(&mut s, line), (Action::None, String::new()));
        }
        match feed(&mut s, ".").0 {
            Action::Ask(PolicyQuery::Message { raw }) => {
                assert_eq!(raw, b"Subject: hi\r\n\r\nbody\r\n");
                assert_eq!(decide(&mut s, Decision::Accept).code, 250);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.state(), SessionState::Greeted);
        assert_eq!(accept_all(&mut s, "QUIT").code, 221);
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn rejection_at_rcpt_allows_retry() {
        // The probe client's username fallback depends on this: reject one
        // RCPT, accept the next.
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO probe.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        match feed(&mut s, "RCPT TO:<michael@r.test>").0 {
            Action::Ask(PolicyQuery::Rcpt { to }) => {
                assert_eq!(to.local(), "michael");
                let r = decide(&mut s, Decision::Reject(Canned::no_such_user("michael")));
                assert_eq!(r, Reply::no_such_user("michael"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.state(), SessionState::MailGiven);
        assert_eq!(accept_all(&mut s, "RCPT TO:<postmaster@r.test>").code, 250);
        assert_eq!(s.state(), SessionState::RcptGiven);
    }

    #[test]
    fn rejection_at_mail_with_spam_text() {
        // §6.2: 27% of NotifyMX MTAs rejected with "spam" in the text
        // before DATA.
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO probe.test");
        match feed(&mut s, "MAIL FROM:<a@s.test>").0 {
            Action::Ask(_) => {
                let r = decide(
                    &mut s,
                    Decision::Reject(Canned::new(
                        554,
                        "rejected: sender listed on spam blocklist",
                    )),
                );
                assert!(r.text().contains("spam"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.state(), SessionState::Greeted);
    }

    #[test]
    fn tempfail_at_rcpt_rolls_back_like_reject() {
        // Greylisting: the 451 must leave the transaction in a state
        // where the client can RSET and retry the same recipient.
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO probe.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        match feed(&mut s, "RCPT TO:<postmaster@r.test>").0 {
            Action::Ask(PolicyQuery::Rcpt { .. }) => {
                let r = decide(
                    &mut s,
                    Decision::TempFail(Canned::new(
                        451,
                        "4.7.1 Greylisted, please try again later",
                    )),
                );
                assert_eq!(r.code, 451);
                assert!(r.is_transient_failure());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.state(), SessionState::MailGiven);
        assert_eq!(s.rcpt_count, 0);
        // The retried transaction goes through.
        assert_eq!(accept_all(&mut s, "RSET").code, 250);
        assert_eq!(accept_all(&mut s, "MAIL FROM:<a@s.test>").code, 250);
        assert_eq!(accept_all(&mut s, "RCPT TO:<postmaster@r.test>").code, 250);
        assert_eq!(s.state(), SessionState::RcptGiven);
    }

    #[test]
    fn sequence_enforcement() {
        let mut s = Session::new("mx.test");
        let bad_sequence = Reply::bad_sequence().to_wire();
        assert_eq!(immediate(&mut s, "MAIL FROM:<a@s.test>"), bad_sequence);
        accept_all(&mut s, "EHLO probe.test");
        assert_eq!(immediate(&mut s, "RCPT TO:<b@r.test>"), bad_sequence);
        assert_eq!(immediate(&mut s, "DATA"), bad_sequence);
    }

    #[test]
    fn rset_clears_transaction() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO probe.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        accept_all(&mut s, "RCPT TO:<b@r.test>");
        assert_eq!(s.rcpt_count, 1);
        assert_eq!(accept_all(&mut s, "RSET").code, 250);
        assert!(s.mail_from.is_none());
        assert_eq!(s.rcpt_count, 0);
        // MAIL works again after RSET.
        assert_eq!(accept_all(&mut s, "MAIL FROM:<c@s.test>").code, 250);
    }

    #[test]
    fn ehlo_restarts_session() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO first.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        accept_all(&mut s, "EHLO second.test");
        assert_eq!(s.helo_identity.as_deref(), Some("second.test"));
        assert!(s.mail_from.is_none());
    }

    #[test]
    fn unknown_command_and_bad_args() {
        let mut s = Session::new("mx.test");
        assert_eq!(immediate(&mut s, "XYZZY"), Reply::syntax_error().to_wire());
        assert_eq!(immediate(&mut s, "EHLO"), Reply::bad_arguments().to_wire());
    }

    #[test]
    fn dot_stuffed_message_unstuffed() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO p.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        accept_all(&mut s, "RCPT TO:<b@r.test>");
        accept_all(&mut s, "DATA");
        feed(&mut s, "Subject: x");
        feed(&mut s, "");
        feed(&mut s, "..literal dot line");
        match feed(&mut s, ".").0 {
            Action::Ask(PolicyQuery::Message { raw }) => {
                assert!(raw.ends_with(b".literal dot line\r\n"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn null_sender_accepted() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO p.test");
        match feed(&mut s, "MAIL FROM:<>").0 {
            Action::Ask(PolicyQuery::Mail { from }) => {
                assert!(from.is_none());
                decide(&mut s, Decision::Accept);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.mail_from, Some(ReversePath::Null));
    }

    #[test]
    fn helo_vs_ehlo_distinguished() {
        let mut s = Session::new("mx.test");
        match feed(&mut s, "HELO old.test").0 {
            Action::Ask(PolicyQuery::Helo { esmtp, .. }) => {
                assert!(!esmtp);
                let r = decide(&mut s, Decision::Accept);
                assert_eq!(r.lines.len(), 1); // HELO reply is single-line
            }
            other => panic!("{other:?}"),
        }
        assert!(!s.esmtp);
    }

    #[test]
    fn an_identity_with_control_bytes_is_refused_not_echoed() {
        for line in ["EHLO probe\rtest", "HELO a\0b", "EHLO x\ty", "EHLO x\x7f"] {
            let mut s = Session::new("mx.test");
            assert_eq!(immediate(&mut s, line), Reply::bad_arguments().to_wire());
            assert_eq!(s.state(), SessionState::Connected);
        }
    }

    #[test]
    fn a_decision_with_nothing_pending_is_refused() {
        let mut s = Session::new("mx.test");
        let mut wire = String::new();
        assert_eq!(
            s.on_decision(Decision::Accept, &mut wire),
            Err(NoPendingQuery)
        );
        accept_all(&mut s, "EHLO p.test");
        assert_eq!(
            s.on_decision(Decision::Accept, &mut wire),
            Err(NoPendingQuery)
        );
        assert!(wire.is_empty());
        assert_eq!(s.state(), SessionState::Greeted);
    }

    #[test]
    fn lines_pipelined_past_a_pending_decision_are_not_read() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO p.test");
        assert!(matches!(
            feed(&mut s, "MAIL FROM:<a@s.test>").0,
            Action::Ask(_)
        ));
        assert_eq!(
            feed(&mut s, "RCPT TO:<b@r.test>"),
            (Action::None, String::new())
        );
        assert_eq!(decide(&mut s, Decision::Accept).code, 250);
        assert_eq!(s.state(), SessionState::MailGiven);
    }
}
