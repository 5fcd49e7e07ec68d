//! Sans-IO receiving-MTA SMTP session.
//!
//! The session is a state machine fed complete lines; it either replies
//! immediately or *suspends* with a [`PolicyQuery`] so the embedding MTA
//! can consult policy — including policy that requires DNS round trips
//! (SPF validation during the SMTP dialogue, which the paper shows 83% of
//! validating domains perform before accepting delivery, §6.2). The
//! embedder resumes the session with [`Session::on_decision`].

use crate::command::{Command, CommandError, EmailAddress};
use crate::reply::Reply;

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

/// A policy question the embedding MTA must answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyQuery {
    /// EHLO/HELO seen. The paper's HELO test policy (§7.3) hinges on
    /// whether MTAs check SPF for this identity.
    Helo {
        /// Identity given by the client.
        identity: String,
        /// True for EHLO, false for HELO.
        esmtp: bool,
    },
    /// MAIL FROM seen.
    Mail {
        /// The reverse path; `None` is the null sender.
        from: Option<EmailAddress>,
    },
    /// RCPT TO seen.
    Rcpt {
        /// The forward path.
        to: EmailAddress,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Proceed (a default positive reply is sent).
    Accept,
    /// Proceed with a custom positive reply.
    AcceptWith(Reply),
    /// Refuse with the given reply (4xx/5xx).
    Reject(Reply),
    /// Refuse *temporarily* with a 4xx reply (greylisting, resource
    /// pressure). State rollback is identical to [`Decision::Reject`];
    /// the variant exists so embedders and transcripts can distinguish
    /// "come back later" from a verdict — the paper's probes retried
    /// tempfailed transactions, permanent rejections they did not.
    TempFail(Reply),
    /// Refuse and drop the connection right after the reply (the
    /// "DNSBL slam": operators that terminate blacklisted clients
    /// instead of letting the dialogue continue, §6.2). The embedder
    /// must emit its close output after sending the reply.
    RejectAndClose(Reply),
}

/// What the session wants the embedder to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send this reply to the client.
    Reply(Reply),
    /// Ask the embedder for a decision, then call
    /// [`Session::on_decision`].
    Ask(PolicyQuery),
    /// Send this reply, then close the connection.
    ReplyAndClose(Reply),
    /// No output (mid-DATA content line).
    None,
}

/// A sans-IO SMTP server session.
#[derive(Debug)]
pub struct Session {
    hostname: String,
    state: SessionState,
    resume_state: SessionState,
    pending: Option<PolicyQuery>,
    /// Identity from EHLO/HELO.
    pub helo_identity: Option<String>,
    /// Whether EHLO (vs HELO) was used.
    pub esmtp: bool,
    /// Accepted reverse path.
    pub mail_from: Option<Option<EmailAddress>>,
    /// Accepted forward paths.
    pub rcpt_to: Vec<EmailAddress>,
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
            helo_identity: None,
            esmtp: false,
            mail_from: None,
            rcpt_to: Vec::new(),
            data_buf: Vec::new(),
        }
    }

    /// The 220 greeting to send on connect.
    pub fn greeting(&self) -> Reply {
        Reply::greeting(&self.hostname)
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Feed one line from the client (without CRLF).
    pub fn on_line(&mut self, line: &str) -> Action {
        match self.state {
            SessionState::Closed => Action::None,
            SessionState::AwaitingDecision => {
                // Protocol violation by the embedder, not the peer.
                debug_assert!(false, "line fed while awaiting decision");
                Action::None
            }
            SessionState::ReceivingData => self.on_data_line(line),
            _ => self.on_command_line(line),
        }
    }

    fn on_command_line(&mut self, line: &str) -> Action {
        let cmd = match Command::parse(line) {
            Ok(cmd) => cmd,
            Err(CommandError::UnknownCommand(_)) => return Action::Reply(Reply::syntax_error()),
            Err(CommandError::BadArguments(_)) => return Action::Reply(Reply::bad_arguments()),
        };
        match cmd {
            Command::Ehlo(identity) | Command::Helo(identity) => {
                let esmtp = matches!(Command::parse(line), Ok(Command::Ehlo(_)));
                // EHLO resets any transaction in progress (RFC 5321 §4.1.4).
                self.reset_transaction();
                self.suspend(
                    SessionState::Greeted,
                    PolicyQuery::Helo {
                        identity: identity.clone(),
                        esmtp,
                    },
                )
            }
            Command::Mail(from) => {
                if self.state != SessionState::Greeted {
                    return Action::Reply(Reply::bad_sequence());
                }
                self.suspend(SessionState::MailGiven, PolicyQuery::Mail { from })
            }
            Command::Rcpt(to) => {
                if self.state != SessionState::MailGiven && self.state != SessionState::RcptGiven {
                    return Action::Reply(Reply::bad_sequence());
                }
                self.suspend(SessionState::RcptGiven, PolicyQuery::Rcpt { to })
            }
            Command::Data => {
                if self.state != SessionState::RcptGiven {
                    return Action::Reply(Reply::bad_sequence());
                }
                self.suspend(SessionState::ReceivingData, PolicyQuery::Data)
            }
            Command::Rset => {
                self.reset_transaction();
                if self.state != SessionState::Connected {
                    self.state = SessionState::Greeted;
                }
                Action::Reply(Reply::ok())
            }
            Command::Noop => Action::Reply(Reply::ok()),
            Command::Quit => {
                self.state = SessionState::Closed;
                Action::ReplyAndClose(Reply::closing())
            }
            Command::Vrfy(_) => Action::Reply(Reply::new(
                252,
                "Cannot VRFY user, but will accept message and attempt delivery",
            )),
        }
    }

    fn on_data_line(&mut self, line: &str) -> Action {
        if line == "." {
            let raw = crate::mail::dot_unstuff(&std::mem::take(&mut self.data_buf));
            return self.suspend_raw(SessionState::Greeted, PolicyQuery::Message { raw });
        }
        self.data_buf.extend_from_slice(line.as_bytes());
        self.data_buf.extend_from_slice(b"\r\n");
        Action::None
    }

    fn suspend(&mut self, resume_state: SessionState, query: PolicyQuery) -> Action {
        self.suspend_raw(resume_state, query)
    }

    fn suspend_raw(&mut self, resume_state: SessionState, query: PolicyQuery) -> Action {
        self.resume_state = resume_state;
        self.pending = Some(query.clone());
        self.state = SessionState::AwaitingDecision;
        Action::Ask(query)
    }

    /// Resume after a policy decision. Returns the reply to send.
    ///
    /// # Panics
    /// Panics if no decision is pending (embedder bug).
    pub fn on_decision(&mut self, decision: Decision) -> Reply {
        let query = self.pending.take().expect("no policy decision pending");
        let reply = match decision {
            Decision::Accept => match &query {
                PolicyQuery::Helo { identity, esmtp } => {
                    let greets = [self.hostname.as_str(), " greets ", identity].concat();
                    if *esmtp {
                        Reply::multiline(
                            250,
                            vec![greets, "SIZE 26214400".into(), "8BITMIME".into()],
                        )
                    } else {
                        Reply::multiline(250, vec![greets])
                    }
                }
                PolicyQuery::Data => Reply::start_mail_input(),
                PolicyQuery::Message { .. } => Reply::new(250, "OK: queued"),
                _ => Reply::ok(),
            },
            Decision::AcceptWith(custom) => custom,
            Decision::Reject(reply) | Decision::TempFail(reply) => {
                // Rejected: roll back to the pre-command state.
                self.state = match &query {
                    PolicyQuery::Helo { .. } => SessionState::Connected,
                    PolicyQuery::Mail { .. } => SessionState::Greeted,
                    PolicyQuery::Rcpt { .. } => {
                        if self.rcpt_to.is_empty() {
                            SessionState::MailGiven
                        } else {
                            SessionState::RcptGiven
                        }
                    }
                    PolicyQuery::Data => SessionState::RcptGiven,
                    PolicyQuery::Message { .. } => SessionState::Greeted,
                };
                if matches!(query, PolicyQuery::Message { .. }) {
                    self.reset_transaction();
                }
                return reply;
            }
            Decision::RejectAndClose(reply) => {
                self.state = SessionState::Closed;
                return reply;
            }
        };
        // Accepted: record state effects.
        match query {
            PolicyQuery::Helo { identity, esmtp } => {
                self.helo_identity = Some(identity);
                self.esmtp = esmtp;
            }
            PolicyQuery::Mail { from } => {
                self.mail_from = Some(from);
            }
            PolicyQuery::Rcpt { to } => {
                self.rcpt_to.push(to);
            }
            PolicyQuery::Data => {
                self.data_buf.clear();
            }
            PolicyQuery::Message { .. } => {
                self.reset_transaction();
            }
        }
        self.state = self.resume_state;
        reply
    }

    fn reset_transaction(&mut self) {
        self.mail_from = None;
        self.rcpt_to.clear();
        self.data_buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accept_all(session: &mut Session, line: &str) -> Reply {
        match session.on_line(line) {
            Action::Ask(_) => session.on_decision(Decision::Accept),
            Action::Reply(r) | Action::ReplyAndClose(r) => r,
            Action::None => panic!("no reply for {line}"),
        }
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
                assert_eq!(reply.lines[0].capacity(), reply.lines[0].len());
            }
        }
    }

    #[test]
    fn happy_path_delivery() {
        let mut s = Session::new("mx.recipient.test");
        assert_eq!(s.greeting().code, 220);
        assert_eq!(accept_all(&mut s, "EHLO probe.test").code, 250);
        assert_eq!(accept_all(&mut s, "MAIL FROM:<a@sender.test>").code, 250);
        assert_eq!(accept_all(&mut s, "RCPT TO:<b@recipient.test>").code, 250);
        assert_eq!(accept_all(&mut s, "DATA").code, 354);
        assert_eq!(s.on_line("Subject: hi"), Action::None);
        assert_eq!(s.on_line(""), Action::None);
        assert_eq!(s.on_line("body"), Action::None);
        match s.on_line(".") {
            Action::Ask(PolicyQuery::Message { raw }) => {
                assert_eq!(raw, b"Subject: hi\r\n\r\nbody\r\n");
                assert_eq!(s.on_decision(Decision::Accept).code, 250);
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
        match s.on_line("RCPT TO:<michael@r.test>") {
            Action::Ask(PolicyQuery::Rcpt { to }) => {
                assert_eq!(to.local, "michael");
                let r = s.on_decision(Decision::Reject(Reply::no_such_user("michael")));
                assert_eq!(r.code, 550);
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
        match s.on_line("MAIL FROM:<a@s.test>") {
            Action::Ask(_) => {
                let r = s.on_decision(Decision::Reject(Reply::new(
                    554,
                    "rejected: sender listed on spam blocklist",
                )));
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
        match s.on_line("RCPT TO:<postmaster@r.test>") {
            Action::Ask(PolicyQuery::Rcpt { .. }) => {
                let r = s.on_decision(Decision::TempFail(Reply::new(
                    451,
                    "4.7.1 Greylisted, please try again later",
                )));
                assert_eq!(r.code, 451);
                assert!(r.is_transient_failure());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.state(), SessionState::MailGiven);
        assert!(s.rcpt_to.is_empty());
        // The retried transaction goes through.
        assert_eq!(accept_all(&mut s, "RSET").code, 250);
        assert_eq!(accept_all(&mut s, "MAIL FROM:<a@s.test>").code, 250);
        assert_eq!(accept_all(&mut s, "RCPT TO:<postmaster@r.test>").code, 250);
        assert_eq!(s.state(), SessionState::RcptGiven);
    }

    #[test]
    fn sequence_enforcement() {
        let mut s = Session::new("mx.test");
        assert_eq!(
            s.on_line("MAIL FROM:<a@s.test>"),
            Action::Reply(Reply::bad_sequence())
        );
        accept_all(&mut s, "EHLO probe.test");
        assert_eq!(
            s.on_line("RCPT TO:<b@r.test>"),
            Action::Reply(Reply::bad_sequence())
        );
        assert_eq!(s.on_line("DATA"), Action::Reply(Reply::bad_sequence()));
    }

    #[test]
    fn rset_clears_transaction() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO probe.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        accept_all(&mut s, "RCPT TO:<b@r.test>");
        assert_eq!(accept_all(&mut s, "RSET").code, 250);
        assert!(s.mail_from.is_none());
        assert!(s.rcpt_to.is_empty());
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
        assert_eq!(s.on_line("XYZZY"), Action::Reply(Reply::syntax_error()));
        assert_eq!(s.on_line("EHLO"), Action::Reply(Reply::bad_arguments()));
    }

    #[test]
    fn dot_stuffed_message_unstuffed() {
        let mut s = Session::new("mx.test");
        accept_all(&mut s, "EHLO p.test");
        accept_all(&mut s, "MAIL FROM:<a@s.test>");
        accept_all(&mut s, "RCPT TO:<b@r.test>");
        accept_all(&mut s, "DATA");
        s.on_line("Subject: x");
        s.on_line("");
        s.on_line("..literal dot line");
        match s.on_line(".") {
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
        match s.on_line("MAIL FROM:<>") {
            Action::Ask(PolicyQuery::Mail { from }) => {
                assert!(from.is_none());
                s.on_decision(Decision::Accept);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.mail_from, Some(None));
    }

    #[test]
    fn helo_vs_ehlo_distinguished() {
        let mut s = Session::new("mx.test");
        match s.on_line("HELO old.test") {
            Action::Ask(PolicyQuery::Helo { esmtp, .. }) => {
                assert!(!esmtp);
                let r = s.on_decision(Decision::Accept);
                assert_eq!(r.lines.len(), 1); // HELO reply is single-line
            }
            other => panic!("{other:?}"),
        }
        assert!(!s.esmtp);
    }
}
