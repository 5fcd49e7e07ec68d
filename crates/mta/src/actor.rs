//! The receiving-MTA actor: an SMTP session wired to the SPF/DKIM/DMARC
//! evaluators through a per-MTA resolver, with a behavior profile's
//! deviations applied.
//!
//! The actor is pure message-in/message-out: the embedding event loop
//! feeds it SMTP lines, completed DNS resolutions and timer expiries,
//! and receives SMTP reply text, resolution requests and timer arms.
//! All the *observable* behavior the paper measures — which DNS queries
//! reach the apparatus, when, and in what order — emerges from this
//! actor running the real protocol stacks.

use crate::profile::{MtaProfile, SpfTrigger};
use mailval_dkim::verify::{DkimVerifier, VerifyStep};
use mailval_dkim::DkimResult;
use mailval_dmarc::eval::{AuthResults, DmarcEvaluator, DmarcStep};
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::rr::RecordType;
use mailval_dns::Name;
use mailval_smtp::mail::MailMessage;
use mailval_smtp::reply::Canned;
use mailval_smtp::server::{Action, Decision, PolicyQuery, Session};
use mailval_spf::{EvalParams, EvalStep, SpfEvaluation, SpfEvaluator, SpfResult};
use std::collections::HashMap;
use std::net::IpAddr;

/// Per-connection context supplied by the driver.
#[derive(Debug, Clone)]
pub struct ConnContext {
    /// The connecting client's IP (the identity SPF validates).
    pub client_ip: IpAddr,
    /// Whether the client's address is on DNSBLs at connect time — the
    /// probe client earned listings during the NotifyMX campaign (§6.2).
    pub client_blacklisted: bool,
    /// Whether the session's recipients are guesses (TwoWeekMX, §6.3):
    /// MTAs with `validates_guessed_recipient == false` skip sender
    /// validation for such sessions.
    pub recipients_guessed: bool,
}

/// Inputs to the actor.
#[derive(Debug, Clone)]
pub enum MtaInput<'a> {
    /// TCP established: emit the greeting.
    Connected,
    /// One SMTP line from the client (CRLF stripped), borrowed from the
    /// segment that carried it: the actor only reads it.
    Line(&'a str),
    /// A resolution requested via [`MtaOutput::Resolve`] completed.
    DnsFinished {
        /// The request id.
        qid: u64,
        /// The outcome.
        outcome: ResolveOutcome,
    },
    /// A timer armed via [`MtaOutput::SetTimer`] fired.
    Timer {
        /// The token.
        token: u64,
    },
    /// The client disconnected.
    Disconnected,
}

/// Notable milestones the driver records (timestamps for Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtaEvent {
    /// A message was accepted for delivery (the 250 after DATA content).
    MessageAccepted,
    /// An SPF evaluation concluded.
    SpfConcluded(SpfResult),
    /// DNS lookups the concluded SPF evaluation completed (per-policy
    /// lookup depth; emitted alongside [`MtaEvent::SpfConcluded`] for
    /// MAIL FROM evaluations).
    SpfLookups(u32),
    /// An SPF evaluation tripped a hostile-policy guard (include or
    /// redirect cycle, or lookup-budget exhaustion). Emitted alongside
    /// [`MtaEvent::SpfConcluded`] so the driver can classify the input.
    SpfHostile {
        /// An include/redirect cycle was detected and broken.
        cycle_detected: bool,
        /// A DNS-term or void-lookup budget was exhausted.
        lookups_exhausted: bool,
    },
    /// A DKIM verification concluded.
    DkimConcluded(bool),
    /// A DMARC evaluation concluded (pass?).
    DmarcConcluded(bool),
    /// The MTA issued a 451 tempfail (greylisting).
    TempFailed,
}

/// Outputs from the actor.
#[derive(Debug, Clone)]
pub enum MtaOutput {
    /// SMTP reply text to transmit (includes CRLFs), in a buffer taken
    /// from [`MtaSink::spare`].
    Smtp(String),
    /// Ask the MTA's resolver to resolve this; report back with
    /// [`MtaInput::DnsFinished`].
    Resolve {
        /// Request id (unique per connection).
        qid: u64,
        /// Name to resolve.
        name: Name,
        /// Record type.
        rtype: RecordType,
    },
    /// Arm a timer.
    SetTimer {
        /// Token to return in [`MtaInput::Timer`].
        token: u64,
        /// Delay, ms.
        delay_ms: u64,
    },
    /// Close the connection.
    Close,
    /// The MTA stalls: delay delivery of every output that follows in
    /// this batch by `delay_ms` (a flaky, overloaded implementation).
    Stall {
        /// Extra delay, ms.
        delay_ms: u64,
    },
    /// A milestone for the driver's logs.
    Event(MtaEvent),
}

/// Where the actor puts what it emits: the outputs of each
/// [`MtaActor::handle`] call in order, appended, and the spare text
/// buffers its SMTP replies are written into.
///
/// An embedder that hands each reply's buffer back through
/// [`MtaSink::recycle`] once it is done with it, and clears `outputs`
/// between calls, lets a whole campaign's replies reuse a few buffers.
#[derive(Debug, Default)]
pub struct MtaSink {
    /// The outputs, in the order the actor emitted them.
    pub outputs: Vec<MtaOutput>,
    /// Cleared buffers for reply text.
    pub spare: Vec<String>,
}

/// Spare buffers a sink keeps at most.
const MAX_SPARE: usize = 64;

impl MtaSink {
    /// An empty text buffer: a spare one if there is one.
    pub fn buffer(&mut self) -> String {
        self.spare.pop().unwrap_or_default()
    }

    /// Keep `text`'s buffer, cleared, for a later reply.
    pub fn recycle(&mut self, mut text: String) {
        if self.spare.len() < MAX_SPARE {
            text.clear();
            self.spare.push(text);
        }
    }
}

/// What validation work is in flight.
enum Work {
    /// SPF evaluation (HELO identity or MAIL FROM domain).
    Spf {
        evaluator: Box<SpfEvaluator>,
        outstanding: HashMap<u64, mailval_spf::DnsQuestion>,
        /// Completed lookups so far (for the §6.1 partial validators).
        completed: u32,
        /// Is this the HELO-identity check (result always ignored)?
        helo_check: bool,
    },
    /// DKIM key fetch + verification.
    Dkim {
        verifier: Box<DkimVerifier>,
        qid: u64,
    },
    /// DMARC discovery.
    Dmarc {
        evaluator: Box<DmarcEvaluator>,
        qid: u64,
    },
    /// Waiting out the accept-latency timer before the final 250.
    AcceptDelay,
}

/// Queued work items that run sequentially before the pending SMTP
/// decision is answered. (SPF evaluations start eagerly and are never
/// queued behind other work.)
enum QueuedWork {
    Dkim,
    Dmarc,
    AcceptDelay,
}

const TIMER_ACCEPT: u64 = 1;
const TIMER_POST_DELIVERY: u64 = 2;

/// The receiving-MTA actor.
pub struct MtaActor {
    profile: MtaProfile,
    ctx: ConnContext,
    session: Session,
    next_qid: u64,
    current: Option<Work>,
    queue: Vec<QueuedWork>,
    /// The SMTP decision owed once the queue drains.
    owed_decision: Option<Decision<'static>>,
    /// Sender validation bypassed for this session (postmaster
    /// whitelisting, §6.3).
    bypassed: bool,
    spf_done: bool,
    spf_result: Option<SpfResult>,
    dkim_results: Vec<(Name, bool)>,
    message: Option<MailMessage>,
    mail_from_domain: Option<Name>,
    mail_from_local: Option<String>,
    closed: bool,
    /// Greylisting state: the next RCPT gets a 451 (armed from
    /// `profile.greylists`, cleared once spent so the retried
    /// transaction goes through).
    greylist_pending: bool,
}

impl MtaActor {
    /// Create an actor for one connection.
    pub fn new(hostname: &str, profile: MtaProfile, ctx: ConnContext) -> MtaActor {
        let greylist_pending = profile.greylists;
        MtaActor {
            profile,
            ctx,
            session: Session::new(hostname),
            next_qid: 1,
            current: None,
            queue: Vec::new(),
            owed_decision: None,
            bypassed: false,
            spf_done: false,
            spf_result: None,
            dkim_results: Vec::new(),
            message: None,
            mail_from_domain: None,
            mail_from_local: None,
            closed: false,
            greylist_pending,
        }
    }

    /// The behavior profile.
    pub fn profile(&self) -> &MtaProfile {
        &self.profile
    }

    fn qid(&mut self) -> u64 {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    /// Feed an input; append its outputs to `out`.
    ///
    /// A closed connection stops SMTP traffic, but DNS completions and
    /// timers keep flowing: post-delivery validation (§6.2) is offline
    /// processing that outlives the TCP session.
    pub fn handle(&mut self, input: MtaInput<'_>, out: &mut MtaSink) {
        if self.closed && matches!(input, MtaInput::Connected | MtaInput::Line(_)) {
            return;
        }
        match input {
            MtaInput::Connected => {
                let mut text = out.buffer();
                self.session.greeting(&mut text);
                out.outputs.push(MtaOutput::Smtp(text));
            }
            MtaInput::Line(line) => {
                let mut text = out.buffer();
                match self.session.on_line(line, &mut text) {
                    Action::Replied => out.outputs.push(MtaOutput::Smtp(text)),
                    Action::RepliedAndClose => {
                        out.outputs.push(MtaOutput::Smtp(text));
                        out.outputs.push(MtaOutput::Close);
                        self.closed = true;
                    }
                    Action::None => out.recycle(text),
                    Action::Ask(query) => {
                        out.recycle(text);
                        self.on_policy(query, out);
                    }
                }
            }
            MtaInput::DnsFinished { qid, outcome } => {
                self.on_dns(qid, outcome, out);
            }
            MtaInput::Timer { token } => {
                self.on_timer(token, out);
            }
            MtaInput::Disconnected => {
                self.closed = true;
            }
        }
    }

    /// Answer the pending SMTP decision: its reply goes out, and its
    /// code comes back. With no decision pending (the session was
    /// answered already) nothing is sent.
    fn decide(&mut self, decision: Decision<'_>, out: &mut MtaSink) -> Option<u16> {
        let mut text = out.buffer();
        match self.session.on_decision(decision, &mut text) {
            Ok(code) => {
                out.outputs.push(MtaOutput::Smtp(text));
                Some(code)
            }
            Err(_) => {
                out.recycle(text);
                None
            }
        }
    }

    fn on_policy(&mut self, query: PolicyQuery<'_>, out: &mut MtaSink) {
        match query {
            PolicyQuery::Helo { identity, .. } => {
                let helo_suppressed = (self.ctx.recipients_guessed
                    && !self.profile.validates_guessed_recipient)
                    // HELO checking is a connect-time filter of MTAs that
                    // validate in real time at MAIL (§7.3: every observed
                    // HELO checker proceeded to the MAIL policy lookup).
                    || self.profile.spf_trigger != SpfTrigger::AtMail;
                if self.profile.checks_helo && self.profile.combo.spf && !helo_suppressed {
                    if let Ok(domain) = Name::parse(identity) {
                        if !domain.is_root() {
                            // §7.3: check the HELO identity's policy. All
                            // observed MTAs ignored the verdict, so the
                            // decision is Accept either way.
                            self.owed_decision = Some(Decision::Accept);
                            self.start_helo_spf(domain, out);
                            return;
                        }
                    }
                }
                self.decide(Decision::Accept, out);
            }
            PolicyQuery::Mail { from } => {
                if self.profile.poison {
                    panic!("poisoned MTA profile: injected crash at MAIL");
                }
                if self.profile.stall_at_mail_ms > 0 {
                    out.outputs.push(MtaOutput::Stall {
                        delay_ms: self.profile.stall_at_mail_ms,
                    });
                }
                if self.ctx.client_blacklisted && self.profile.rejects_spam {
                    self.decide(
                        Decision::Reject(Canned::new(
                            554,
                            "5.7.1 Rejected: sender address triggered spam filters",
                        )),
                        out,
                    );
                    return;
                }
                if self.ctx.client_blacklisted && self.profile.rejects_blacklist {
                    // DNSBL operators slam the connection after the 554
                    // (§6.2): reply, then a server-initiated close the
                    // driver must propagate to the probe client.
                    self.decide(
                        Decision::RejectAndClose(Canned::new(
                            554,
                            "5.7.1 Client host found on blacklist (DNSBL)",
                        )),
                        out,
                    );
                    out.outputs.push(MtaOutput::Close);
                    self.closed = true;
                    return;
                }
                // The one address the actor keeps: SPF validates its
                // domain.
                if let Some(addr) = from {
                    self.mail_from_domain = Some(addr.domain_name());
                    self.mail_from_local = Some(addr.local().to_string());
                }
                if self.should_run_spf(SpfTrigger::AtMail) && from.is_some() {
                    self.owed_decision = Some(Decision::Accept);
                    self.start_mail_spf(out);
                    return;
                }
                self.decide(Decision::Accept, out);
            }
            PolicyQuery::Rcpt { to } => {
                if self.greylist_pending {
                    // Greylisting tempfails the first RCPT of an unknown
                    // sender regardless of whether the mailbox exists;
                    // the retried transaction passes.
                    self.greylist_pending = false;
                    self.decide(
                        Decision::TempFail(Canned::new(
                            451,
                            "4.7.1 Greylisted: please try again later",
                        )),
                        out,
                    );
                    out.outputs.push(MtaOutput::Event(MtaEvent::TempFailed));
                    return;
                }
                let local = to.local();
                let is = |name: &str| lowercase_is(local, name);
                let postmaster = is("postmaster");
                let probe_username =
                    is("michael") || is("john.smith") || is("support") || postmaster;
                let accepted = if !(self.ctx.recipients_guessed || probe_username) {
                    // A real address (NotifyEmail/NotifyMX recipients come
                    // from the notification list, which is defined by
                    // accepted deliveries).
                    true
                } else if self.profile.rejects_all_recipients {
                    false
                } else if postmaster {
                    true
                } else {
                    self.profile.accepted_username.is_some_and(is)
                };
                if !accepted {
                    self.decide(Decision::Reject(Canned::no_such_user(local)), out);
                    return;
                }
                let first_rcpt = self.session.rcpt_count == 0;
                if postmaster && self.profile.postmaster_bypass {
                    // §6.3 whitelisting: skip sender validation entirely.
                    self.bypassed = true;
                }
                if first_rcpt && !self.bypassed && self.should_run_spf(SpfTrigger::AtRcpt) {
                    self.owed_decision = Some(Decision::Accept);
                    self.start_mail_spf(out);
                    return;
                }
                self.decide(Decision::Accept, out);
            }
            PolicyQuery::Data => {
                if !self.bypassed && self.should_run_spf(SpfTrigger::AtData) {
                    self.owed_decision = Some(Decision::Accept);
                    self.start_mail_spf(out);
                    return;
                }
                self.decide(Decision::Accept, out);
            }
            PolicyQuery::Message { raw } => {
                self.message = MailMessage::parse(&raw).ok();
                self.owed_decision = Some(Decision::Accept);
                if !self.bypassed && self.profile.combo.dkim && self.message.is_some() {
                    self.queue.push(QueuedWork::Dkim);
                }
                if !self.bypassed && self.profile.combo.dmarc && self.message.is_some() {
                    self.queue.push(QueuedWork::Dmarc);
                }
                self.queue.push(QueuedWork::AcceptDelay);
                self.advance_queue(out);
            }
        }
    }

    fn should_run_spf(&self, at: SpfTrigger) -> bool {
        self.profile.combo.spf
            && !self.spf_done
            && self.profile.spf_trigger == at
            && self.mail_from_domain.is_some()
            && (!self.ctx.recipients_guessed || self.profile.validates_guessed_recipient)
    }

    /// Pop and start the next queued work item; when the queue is empty,
    /// answer the owed SMTP decision.
    fn advance_queue(&mut self, out: &mut MtaSink) {
        if self.current.is_some() {
            return;
        }
        match self.queue.first() {
            None => {
                if let Some(decision) = self.owed_decision.take() {
                    let was_message = matches!(
                        self.session.state(),
                        mailval_smtp::server::SessionState::AwaitingDecision
                    );
                    let code = self.decide(decision, out);
                    if was_message && code == Some(250) && self.message.is_some() {
                        out.outputs
                            .push(MtaOutput::Event(MtaEvent::MessageAccepted));
                        // Post-delivery SPF validation (§6.2's 17%).
                        if self.should_run_spf(SpfTrigger::AfterDelivery) && !self.bypassed {
                            out.outputs.push(MtaOutput::SetTimer {
                                token: TIMER_POST_DELIVERY,
                                delay_ms: self.profile.post_delivery_delay_ms,
                            });
                        }
                        self.message = None;
                    }
                }
            }
            Some(QueuedWork::AcceptDelay) => {
                self.queue.remove(0);
                self.current = Some(Work::AcceptDelay);
                out.outputs.push(MtaOutput::SetTimer {
                    token: TIMER_ACCEPT,
                    delay_ms: self.profile.accept_latency_ms,
                });
            }
            Some(QueuedWork::Dkim) => {
                self.queue.remove(0);
                self.start_dkim(out);
            }
            Some(QueuedWork::Dmarc) => {
                self.queue.remove(0);
                self.start_dmarc(out);
            }
        }
    }

    // --- SPF ---------------------------------------------------------

    fn start_helo_spf(&mut self, domain: Name, out: &mut MtaSink) {
        let params = EvalParams {
            ip: self.ctx.client_ip,
            domain: domain.clone(),
            sender_local: "postmaster".into(),
            sender_domain: domain,
            helo: self.session.helo_identity.clone().unwrap_or_default(),
        };
        let mut evaluator = Box::new(SpfEvaluator::new(params, self.profile.spf_behavior.clone()));
        let step = evaluator.start();
        self.install_spf(evaluator, step, true, out);
    }

    fn start_mail_spf(&mut self, out: &mut MtaSink) {
        let domain = self.mail_from_domain.clone().expect("mail from domain set");
        let params = EvalParams {
            ip: self.ctx.client_ip,
            domain: domain.clone(),
            sender_local: self
                .mail_from_local
                .clone()
                .unwrap_or_else(|| "postmaster".into()),
            sender_domain: domain,
            helo: self.session.helo_identity.clone().unwrap_or_default(),
        };
        let mut evaluator = Box::new(SpfEvaluator::new(params, self.profile.spf_behavior.clone()));
        let step = evaluator.start();
        self.spf_done = true; // one MAIL-identity evaluation per session
        self.install_spf(evaluator, step, false, out);
    }

    fn install_spf(
        &mut self,
        evaluator: Box<SpfEvaluator>,
        step: EvalStep,
        helo_check: bool,
        out: &mut MtaSink,
    ) {
        match step {
            EvalStep::Done(done) => {
                push_spf_hostile(&done, out);
                if !helo_check {
                    self.spf_result = Some(done.result);
                    out.outputs
                        .push(MtaOutput::Event(MtaEvent::SpfConcluded(done.result)));
                    out.outputs.push(MtaOutput::Event(MtaEvent::SpfLookups(0)));
                }
                self.advance_queue(out);
            }
            EvalStep::NeedLookups(questions) => {
                let mut outstanding = HashMap::new();
                for q in questions {
                    let qid = self.qid();
                    out.outputs.push(MtaOutput::Resolve {
                        qid,
                        name: q.name.clone(),
                        rtype: q.rtype,
                    });
                    outstanding.insert(qid, q);
                }
                self.current = Some(Work::Spf {
                    evaluator,
                    outstanding,
                    completed: 0,
                    helo_check,
                });
            }
        }
    }

    fn start_dkim(&mut self, out: &mut MtaSink) {
        let message = self.message.as_ref().expect("message present");
        let mut verifier = Box::new(DkimVerifier::new(message, 0));
        match verifier.start() {
            VerifyStep::Done(result) => {
                self.record_dkim(&verifier, result, out);
                self.advance_queue(out);
            }
            VerifyStep::NeedKey { name, rtype } => {
                let qid = self.qid();
                out.outputs.push(MtaOutput::Resolve { qid, name, rtype });
                self.current = Some(Work::Dkim { verifier, qid });
            }
        }
    }

    fn record_dkim(&mut self, verifier: &DkimVerifier, result: DkimResult, out: &mut MtaSink) {
        let passed = result == DkimResult::Pass;
        out.outputs
            .push(MtaOutput::Event(MtaEvent::DkimConcluded(passed)));
        // Record the signing domain (`d=`) for DMARC alignment; a missing
        // or unparsable signature has none.
        if let Some(sig) = verifier.signature() {
            self.dkim_results.push((sig.domain.clone(), passed));
        }
    }

    fn start_dmarc(&mut self, out: &mut MtaSink) {
        let Some(from_domain) = self.header_from_domain() else {
            self.advance_queue(out);
            return;
        };
        let auth = AuthResults {
            from_domain,
            spf_result: self.spf_result.unwrap_or(SpfResult::None),
            spf_domain: self.mail_from_domain.clone(),
            dkim: self.dkim_results.clone(),
        };
        let pct_roll = (self.profile.accept_latency_ms % 100) as u8;
        let mut evaluator = Box::new(DmarcEvaluator::new(auth, pct_roll));
        match evaluator.start() {
            DmarcStep::Done(verdict) => {
                out.outputs
                    .push(MtaOutput::Event(MtaEvent::DmarcConcluded(verdict.pass)));
                self.advance_queue(out);
            }
            DmarcStep::NeedLookup { name, rtype } => {
                let qid = self.qid();
                out.outputs.push(MtaOutput::Resolve { qid, name, rtype });
                self.current = Some(Work::Dmarc { evaluator, qid });
            }
        }
    }

    fn header_from_domain(&self) -> Option<Name> {
        let message = self.message.as_ref()?;
        let from = message.header("From")?.value();
        // Extract the addr-spec: inside <...> if present, else the token
        // containing '@'.
        let addr = match (from.find('<'), from.find('>')) {
            (Some(lt), Some(gt)) if gt > lt => from[lt + 1..gt].to_string(),
            _ => from
                .split_whitespace()
                .find(|tok| tok.contains('@'))?
                .to_string(),
        };
        let (_, domain) = addr.rsplit_once('@')?;
        Name::parse(domain.trim()).ok()
    }

    // --- DNS completions ----------------------------------------------

    fn on_dns(&mut self, qid: u64, outcome: ResolveOutcome, out: &mut MtaSink) {
        match self.current.take() {
            Some(Work::Spf {
                mut evaluator,
                mut outstanding,
                mut completed,
                helo_check,
            }) => {
                let Some(question) = outstanding.remove(&qid) else {
                    self.current = Some(Work::Spf {
                        evaluator,
                        outstanding,
                        completed,
                        helo_check,
                    });
                    return;
                };
                completed += 1;
                // §6.1 partial validators: fetch the policy TXT, never
                // follow up.
                if self.profile.spf_unfinished && completed >= 1 && !helo_check {
                    self.spf_result = Some(SpfResult::None);
                    out.outputs
                        .push(MtaOutput::Event(MtaEvent::SpfConcluded(SpfResult::None)));
                    out.outputs
                        .push(MtaOutput::Event(MtaEvent::SpfLookups(completed)));
                    self.advance_queue(out);
                    return;
                }
                match evaluator.resume(vec![(question, outcome)]) {
                    EvalStep::Done(done) => {
                        push_spf_hostile(&done, out);
                        if !helo_check {
                            self.spf_result = Some(done.result);
                            out.outputs
                                .push(MtaOutput::Event(MtaEvent::SpfConcluded(done.result)));
                            out.outputs
                                .push(MtaOutput::Event(MtaEvent::SpfLookups(completed)));
                        }
                        self.advance_queue(out);
                    }
                    EvalStep::NeedLookups(questions) => {
                        for q in questions {
                            let new_qid = self.qid();
                            out.outputs.push(MtaOutput::Resolve {
                                qid: new_qid,
                                name: q.name.clone(),
                                rtype: q.rtype,
                            });
                            outstanding.insert(new_qid, q);
                        }
                        if outstanding.is_empty() {
                            // Evaluator stalled without questions: treat
                            // as concluded (defensive; should not happen).
                            self.advance_queue(out);
                        } else {
                            self.current = Some(Work::Spf {
                                evaluator,
                                outstanding,
                                completed,
                                helo_check,
                            });
                        }
                    }
                }
            }
            Some(Work::Dkim {
                mut verifier,
                qid: expect,
            }) => {
                if qid != expect {
                    self.current = Some(Work::Dkim {
                        verifier,
                        qid: expect,
                    });
                    return;
                }
                match verifier.on_key(outcome) {
                    VerifyStep::Done(result) => {
                        self.record_dkim(&verifier, result, out);
                        self.advance_queue(out);
                    }
                    VerifyStep::NeedKey { .. } => unreachable!("single key fetch"),
                }
            }
            Some(Work::Dmarc {
                mut evaluator,
                qid: expect,
            }) => {
                if qid != expect {
                    self.current = Some(Work::Dmarc {
                        evaluator,
                        qid: expect,
                    });
                    return;
                }
                match evaluator.on_answer(outcome) {
                    DmarcStep::Done(verdict) => {
                        out.outputs
                            .push(MtaOutput::Event(MtaEvent::DmarcConcluded(verdict.pass)));
                        self.advance_queue(out);
                    }
                    DmarcStep::NeedLookup { name, rtype } => {
                        let new_qid = self.qid();
                        out.outputs.push(MtaOutput::Resolve {
                            qid: new_qid,
                            name,
                            rtype,
                        });
                        self.current = Some(Work::Dmarc {
                            evaluator,
                            qid: new_qid,
                        });
                    }
                }
            }
            Some(other) => {
                self.current = Some(other);
            }
            None => {}
        }
    }

    fn on_timer(&mut self, token: u64, out: &mut MtaSink) {
        match token {
            TIMER_ACCEPT => {
                if matches!(self.current, Some(Work::AcceptDelay)) {
                    self.current = None;
                    self.advance_queue(out);
                }
            }
            TIMER_POST_DELIVERY if self.current.is_none() && self.mail_from_domain.is_some() => {
                self.start_mail_spf(out);
            }
            _ => {}
        }
    }
}

/// Whether `local`, lowercased, is `name`, without lowercasing a copy.
fn lowercase_is(local: &str, name: &str) -> bool {
    local.len() == name.len()
        && local
            .bytes()
            .zip(name.bytes())
            .all(|(l, n)| l.to_ascii_lowercase() == n)
}

/// Surface an evaluation's hostile-policy flags as a driver event (both
/// HELO- and MAIL-identity checks: a malicious policy is hostile input
/// regardless of which identity tripped it).
fn push_spf_hostile(done: &SpfEvaluation, out: &mut MtaSink) {
    if done.cycle_detected || done.lookups_exhausted {
        out.outputs.push(MtaOutput::Event(MtaEvent::SpfHostile {
            cycle_detected: done.cycle_detected,
            lookups_exhausted: done.lookups_exhausted,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mailval_spf::SpfResult as SR;

    fn ctx() -> ConnContext {
        ConnContext {
            client_ip: "192.0.2.77".parse().unwrap(),
            client_blacklisted: false,
            recipients_guessed: false,
        }
    }

    /// Feed one input; its outputs.
    fn handle(actor: &mut MtaActor, input: MtaInput<'_>) -> Vec<MtaOutput> {
        let mut sink = MtaSink::default();
        actor.handle(input, &mut sink);
        sink.outputs
    }

    fn drive_line(actor: &mut MtaActor, line: &str) -> Vec<MtaOutput> {
        handle(actor, MtaInput::Line(line))
    }

    fn first_smtp(outputs: &[MtaOutput]) -> Option<&str> {
        outputs.iter().find_map(|o| match o {
            MtaOutput::Smtp(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Answer every Resolve output with NXDOMAIN until the actor stops
    /// asking; return all outputs produced along the way.
    fn drain_dns(actor: &mut MtaActor, mut outputs: Vec<MtaOutput>) -> Vec<MtaOutput> {
        let mut all = Vec::new();
        loop {
            let resolves: Vec<u64> = outputs
                .iter()
                .filter_map(|o| match o {
                    MtaOutput::Resolve { qid, .. } => Some(*qid),
                    _ => None,
                })
                .collect();
            all.extend(outputs);
            if resolves.is_empty() {
                return all;
            }
            outputs = Vec::new();
            for qid in resolves {
                outputs.extend(handle(
                    actor,
                    MtaInput::DnsFinished {
                        qid,
                        outcome: ResolveOutcome::NxDomain,
                    },
                ));
            }
        }
    }

    #[test]
    fn greeting_and_ehlo() {
        let mut actor = MtaActor::new("mx.r.test", MtaProfile::strict(), ctx());
        let out = handle(&mut actor, MtaInput::Connected);
        assert!(first_smtp(&out).unwrap().starts_with("220"));
        let out = drive_line(&mut actor, "EHLO probe.test");
        assert!(first_smtp(&out).unwrap().starts_with("250"));
    }

    #[test]
    fn at_mail_spf_defers_reply_until_lookup_completes() {
        let mut actor = MtaActor::new("mx.r.test", MtaProfile::strict(), ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        let out = drive_line(&mut actor, "MAIL FROM:<spf-test@t01.m3.spf.test>");
        // No SMTP reply yet — a TXT resolve was requested instead.
        assert!(first_smtp(&out).is_none());
        let qid = out
            .iter()
            .find_map(|o| match o {
                MtaOutput::Resolve { qid, name, rtype } => {
                    assert_eq!(*rtype, RecordType::Txt);
                    assert_eq!(name.to_string(), "t01.m3.spf.test");
                    Some(*qid)
                }
                _ => None,
            })
            .expect("resolve requested");
        let out = handle(
            &mut actor,
            MtaInput::DnsFinished {
                qid,
                outcome: ResolveOutcome::NxDomain,
            },
        );
        // SPF none → accept.
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        assert!(out
            .iter()
            .any(|o| matches!(o, MtaOutput::Event(MtaEvent::SpfConcluded(SR::None)))));
    }

    #[test]
    fn blacklisted_client_rejected_with_spam_text() {
        let mut profile = MtaProfile::strict();
        profile.rejects_spam = true;
        let mut actor = MtaActor::new(
            "mx.r.test",
            profile,
            ConnContext {
                client_ip: "192.0.2.77".parse().unwrap(),
                client_blacklisted: true,
                recipients_guessed: false,
            },
        );
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        let out = drive_line(&mut actor, "MAIL FROM:<x@y.test>");
        let reply = first_smtp(&out).unwrap();
        assert!(reply.starts_with("554"));
        assert!(reply.to_lowercase().contains("spam"));
    }

    #[test]
    fn blacklisted_client_slammed_with_close() {
        // The "DNSBL slam" (§6.2): the operator not only rejects the
        // blacklisted client at MAIL but drops the connection itself.
        let mut profile = MtaProfile::strict();
        profile.rejects_blacklist = true;
        let mut actor = MtaActor::new(
            "mx.r.test",
            profile,
            ConnContext {
                client_ip: "192.0.2.77".parse().unwrap(),
                client_blacklisted: true,
                recipients_guessed: false,
            },
        );
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        let out = drive_line(&mut actor, "MAIL FROM:<x@y.test>");
        let reply = first_smtp(&out).unwrap();
        assert!(reply.starts_with("554"));
        assert!(reply.contains("blacklist"));
        assert!(
            out.iter().any(|o| matches!(o, MtaOutput::Close)),
            "slam must close the connection after the 554"
        );
        // Everything after the slam is ignored: the session is closed.
        let out = drive_line(&mut actor, "RCPT TO:<u@r.test>");
        assert!(first_smtp(&out).is_none());
    }

    #[test]
    fn non_blacklisted_client_not_rejected() {
        let mut profile = MtaProfile::strict();
        profile.rejects_spam = true;
        profile.spf_trigger = SpfTrigger::AfterDelivery;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        let out = drive_line(&mut actor, "MAIL FROM:<x@y.test>");
        assert!(first_smtp(&out).unwrap().starts_with("250"));
    }

    #[test]
    fn username_fallback_and_postmaster_bypass() {
        let mut profile = MtaProfile::strict();
        profile.accepted_username = None;
        profile.postmaster_bypass = true;
        profile.spf_trigger = SpfTrigger::AtRcpt;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        drive_line(&mut actor, "MAIL FROM:<spf-test@t.m.spf.test>");
        let out = drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        assert!(first_smtp(&out).unwrap().starts_with("550"));
        let out = drive_line(&mut actor, "RCPT TO:<postmaster@r.test>");
        // Accepted, and because of the bypass no SPF resolve happened.
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        assert!(!out.iter().any(|o| matches!(o, MtaOutput::Resolve { .. })));
    }

    #[test]
    fn at_rcpt_trigger_validates_without_bypass() {
        let mut profile = MtaProfile::strict();
        profile.accepted_username = Some("michael");
        profile.spf_trigger = SpfTrigger::AtRcpt;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        drive_line(&mut actor, "MAIL FROM:<spf-test@t.m.spf.test>");
        let out = drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        assert!(out.iter().any(|o| matches!(o, MtaOutput::Resolve { .. })));
    }

    #[test]
    fn helo_check_queries_helo_domain_then_proceeds() {
        let mut profile = MtaProfile::strict();
        profile.checks_helo = true;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        let out = drive_line(&mut actor, "EHLO h.t39.m3.spf.test");
        let qid = out
            .iter()
            .find_map(|o| match o {
                MtaOutput::Resolve { qid, name, .. } => {
                    assert_eq!(name.to_string(), "h.t39.m3.spf.test");
                    Some(*qid)
                }
                _ => None,
            })
            .expect("helo policy lookup");
        // A -all policy for the HELO domain...
        let record = mailval_dns::Record::new(
            Name::parse("h.t39.m3.spf.test").unwrap(),
            60,
            mailval_dns::rr::RData::txt_from_str("v=spf1 -all"),
        );
        let out = handle(
            &mut actor,
            MtaInput::DnsFinished {
                qid,
                outcome: ResolveOutcome::Records(vec![record]),
            },
        );
        // ... is ignored: EHLO accepted (§7.3).
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        // And MAIL still triggers the MAIL-identity evaluation.
        let out = drive_line(&mut actor, "MAIL FROM:<spf-test@t39.m3.spf.test>");
        assert!(out.iter().any(|o| matches!(o, MtaOutput::Resolve { .. })));
    }

    #[test]
    fn full_delivery_runs_dkim_dmarc_and_accept_timer() {
        let mut profile = MtaProfile::strict();
        profile.spf_trigger = SpfTrigger::AtMail;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO sender.test");
        let out = drive_line(&mut actor, "MAIL FROM:<a@sender.test>");
        let all = drain_dns(&mut actor, out);
        assert!(first_smtp(&all).is_some());
        drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        drive_line(&mut actor, "DATA");
        drive_line(
            &mut actor,
            "DKIM-Signature: v=1; a=rsa-sha256; d=sender.test; s=s1;",
        );
        drive_line(&mut actor, " c=relaxed/relaxed; h=from; bh=AAAA; b=BBBB");
        drive_line(&mut actor, "From: Alice <a@sender.test>");
        drive_line(&mut actor, "Subject: hello");
        drive_line(&mut actor, "");
        drive_line(&mut actor, "body");
        let out = drive_line(&mut actor, ".");
        // DKIM key lookup first.
        let all = drain_dns(&mut actor, out);
        // DKIM + DMARC lookups happened; accept timer armed.
        let resolves: Vec<String> = all
            .iter()
            .filter_map(|o| match o {
                MtaOutput::Resolve { name, .. } => Some(name.to_string()),
                _ => None,
            })
            .collect();
        assert!(
            resolves.iter().any(|n| n.contains("_domainkey")),
            "{resolves:?}"
        );
        assert!(
            resolves.iter().any(|n| n.starts_with("_dmarc.")),
            "{resolves:?}"
        );
        let timer = all.iter().find_map(|o| match o {
            MtaOutput::SetTimer { token, .. } => Some(*token),
            _ => None,
        });
        assert_eq!(timer, Some(TIMER_ACCEPT));
        // Fire the accept timer → 250 + MessageAccepted event.
        let out = handle(
            &mut actor,
            MtaInput::Timer {
                token: TIMER_ACCEPT,
            },
        );
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        assert!(out
            .iter()
            .any(|o| matches!(o, MtaOutput::Event(MtaEvent::MessageAccepted))));
    }

    /// Deliver `message` to a DKIM- and DMARC-checking MTA, answering
    /// the DKIM key query with `key` and every other query NXDOMAIN.
    /// Returns whether the key was asked for and the `(d=, passed)` list
    /// DMARC received.
    fn dkim_for_dmarc(
        message: &MailMessage,
        key: impl Fn() -> ResolveOutcome,
    ) -> (bool, Vec<(Name, bool)>) {
        let mut actor = MtaActor::new("mx.r.test", MtaProfile::strict(), ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO sender.test");
        let out = drive_line(&mut actor, "MAIL FROM:<a@signer.test>");
        drain_dns(&mut actor, out);
        drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        drive_line(&mut actor, "DATA");
        let text = String::from_utf8(message.to_bytes()).unwrap();
        for line in text.strip_suffix("\r\n").unwrap().split("\r\n") {
            drive_line(&mut actor, line);
        }
        let mut out = drive_line(&mut actor, ".");
        let mut asked_key = false;
        while let Some((qid, name)) = out.iter().find_map(|o| match o {
            MtaOutput::Resolve { qid, name, .. } => Some((*qid, name.clone())),
            _ => None,
        }) {
            let outcome = if name.as_str().contains("._domainkey.") {
                asked_key = true;
                key()
            } else {
                ResolveOutcome::NxDomain
            };
            out = handle(&mut actor, MtaInput::DnsFinished { qid, outcome });
        }
        (asked_key, actor.dkim_results.clone())
    }

    #[test]
    fn dmarc_gets_the_signing_domain_of_each_verdict() {
        use mailval_crypto::bigint::SplitMix64;
        use mailval_crypto::rsa::RsaKeyPair;
        use mailval_dkim::{sign_message, DkimKeyRecord, SignConfig};
        use mailval_dns::rr::RData;

        let kp = RsaKeyPair::generate(512, &mut SplitMix64::new(5));
        let d = Name::parse("signer.test").unwrap();
        let record = DkimKeyRecord::for_key(&kp.public).to_record_text();
        let key = || {
            let name = Name::parse("s1._domainkey.signer.test").unwrap();
            ResolveOutcome::Records(vec![mailval_dns::Record::new(
                name,
                60,
                RData::txt_from_str(&record),
            )])
        };
        let mut unsigned = MailMessage::new();
        unsigned.add_header("From", "Alice <a@signer.test>");
        unsigned.add_header("Subject", "hello");
        unsigned.set_body_text("body\n");
        let config = SignConfig::new(d.clone(), Name::parse("s1").unwrap());
        let value = sign_message(&unsigned, &config, &kp.private).unwrap();
        let mut signed = unsigned.clone();
        signed.prepend_header("DKIM-Signature", &value);
        let mut tampered = signed.clone();
        tampered.set_body_text("another body\n");
        let mut unparsable = unsigned.clone();
        unparsable.prepend_header("DKIM-Signature", &value.replacen("v=1", "v=2", 1));

        assert_eq!(
            dkim_for_dmarc(&signed, key),
            (true, vec![(d.clone(), true)])
        );
        assert_eq!(
            dkim_for_dmarc(&tampered, key),
            (true, vec![(d.clone(), false)])
        );
        assert_eq!(dkim_for_dmarc(&unparsable, key), (false, vec![]));
        assert_eq!(dkim_for_dmarc(&unsigned, key), (false, vec![]));
        assert_eq!(
            dkim_for_dmarc(&signed, || ResolveOutcome::Timeout),
            (true, vec![(d, false)])
        );
    }

    #[test]
    fn after_delivery_trigger_validates_post_acceptance() {
        let mut profile = MtaProfile::strict();
        profile.spf_trigger = SpfTrigger::AfterDelivery;
        profile.combo.dkim = false;
        profile.combo.dmarc = false;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO sender.test");
        let out = drive_line(&mut actor, "MAIL FROM:<a@sender.test>");
        // No SPF at MAIL.
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        drive_line(&mut actor, "DATA");
        drive_line(&mut actor, "From: Alice <a@sender.test>");
        drive_line(&mut actor, "");
        let out = drive_line(&mut actor, ".");
        // Accept timer; fire it.
        assert!(out.iter().any(|o| matches!(
            o,
            MtaOutput::SetTimer {
                token: TIMER_ACCEPT,
                ..
            }
        )));
        let out = handle(
            &mut actor,
            MtaInput::Timer {
                token: TIMER_ACCEPT,
            },
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, MtaOutput::Event(MtaEvent::MessageAccepted))));
        // Post-delivery timer armed; firing it starts SPF.
        assert!(out.iter().any(|o| matches!(
            o,
            MtaOutput::SetTimer {
                token: TIMER_POST_DELIVERY,
                ..
            }
        )));
        let out = handle(
            &mut actor,
            MtaInput::Timer {
                token: TIMER_POST_DELIVERY,
            },
        );
        assert!(out.iter().any(|o| matches!(o, MtaOutput::Resolve { .. })));
    }

    #[test]
    fn unfinished_validator_stops_after_policy_fetch() {
        let mut profile = MtaProfile::strict();
        profile.spf_unfinished = true;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        let out = drive_line(&mut actor, "MAIL FROM:<spf-test@t.m.spf.test>");
        let qid = out
            .iter()
            .find_map(|o| match o {
                MtaOutput::Resolve { qid, .. } => Some(*qid),
                _ => None,
            })
            .unwrap();
        // Policy says to look up an A record, but the partial validator
        // won't.
        let record = mailval_dns::Record::new(
            Name::parse("t.m.spf.test").unwrap(),
            60,
            mailval_dns::rr::RData::txt_from_str("v=spf1 a:foo.t.m.spf.test -all"),
        );
        let out = handle(
            &mut actor,
            MtaInput::DnsFinished {
                qid,
                outcome: ResolveOutcome::Records(vec![record]),
            },
        );
        assert!(
            !out.iter().any(|o| matches!(o, MtaOutput::Resolve { .. })),
            "partial validator must not follow up"
        );
        assert!(first_smtp(&out).unwrap().starts_with("250"));
    }

    #[test]
    fn greylisting_tempfails_first_rcpt_then_accepts_retry() {
        let mut profile = MtaProfile::strict();
        profile.greylists = true;
        profile.spf_trigger = SpfTrigger::AfterDelivery; // keep MAIL synchronous
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        drive_line(&mut actor, "MAIL FROM:<a@sender.test>");
        let out = drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        assert!(first_smtp(&out).unwrap().starts_with("451"));
        assert!(out
            .iter()
            .any(|o| matches!(o, MtaOutput::Event(MtaEvent::TempFailed))));
        // The client retries the transaction: RSET / MAIL / same RCPT.
        let out = drive_line(&mut actor, "RSET");
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        let out = drive_line(&mut actor, "MAIL FROM:<a@sender.test>");
        assert!(first_smtp(&out).unwrap().starts_with("250"));
        let out = drive_line(&mut actor, "RCPT TO:<michael@r.test>");
        assert!(first_smtp(&out).unwrap().starts_with("250"));
    }

    #[test]
    fn stalling_profile_emits_stall_before_mail_reply() {
        let mut profile = MtaProfile::strict();
        profile.stall_at_mail_ms = 7_000;
        profile.spf_trigger = SpfTrigger::AfterDelivery;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        let out = drive_line(&mut actor, "MAIL FROM:<a@sender.test>");
        assert!(matches!(out[0], MtaOutput::Stall { delay_ms: 7_000 }));
        assert!(first_smtp(&out).unwrap().starts_with("250"));
    }

    #[test]
    #[should_panic(expected = "poisoned MTA profile")]
    fn poisoned_profile_panics_at_mail() {
        let mut profile = MtaProfile::strict();
        profile.poison = true;
        let mut actor = MtaActor::new("mx.r.test", profile, ctx());
        handle(&mut actor, MtaInput::Connected);
        drive_line(&mut actor, "EHLO probe.test");
        drive_line(&mut actor, "MAIL FROM:<a@sender.test>");
    }

    #[test]
    fn quit_closes() {
        let mut actor = MtaActor::new("mx.r.test", MtaProfile::strict(), ctx());
        handle(&mut actor, MtaInput::Connected);
        let out = drive_line(&mut actor, "QUIT");
        assert!(first_smtp(&out).unwrap().starts_with("221"));
        assert!(out.iter().any(|o| matches!(o, MtaOutput::Close)));
    }
}
