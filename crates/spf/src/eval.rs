//! `check_host()` (RFC 7208 §4) as a resumable, sans-IO state machine.
//!
//! The evaluator never performs I/O: [`SpfEvaluator::start`] and
//! [`SpfEvaluator::resume`] return [`EvalStep::NeedLookups`] with DNS
//! questions, and the caller feeds answers back in. In *serial* mode (the
//! behavior 97% of measured MTAs exhibit, §7.1 of the paper) one question
//! is emitted at a time, strictly on demand. In *parallel-prefetch* mode,
//! every lookup a freshly fetched record will need is emitted at once.
//!
//! [`SpfBehavior`] defaults to strict RFC 7208 conformance; every flag on
//! it reproduces a deviation the paper observed in deployed validators
//! (§7.2, §7.3).

use crate::macros::{expand, MacroContext};
use crate::record::{
    looks_like_spf, DualCidr, Mechanism, Modifier, Qualifier, RecordParseError, SpfRecord, Term,
};
use crate::SpfResult;
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::rr::{RData, RecordType};
use mailval_dns::Name;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::IpAddr;

/// A DNS question the evaluator needs answered.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnsQuestion {
    /// Name to query.
    pub name: Name,
    /// Record type to query.
    pub rtype: RecordType,
}

/// What to do next.
#[derive(Debug, Clone)]
pub enum EvalStep {
    /// Resolve these questions and call [`SpfEvaluator::resume`].
    /// Serial mode always emits exactly one; parallel-prefetch mode may
    /// emit several (resolve them concurrently).
    NeedLookups(Vec<DnsQuestion>),
    /// Evaluation finished.
    Done(SpfEvaluation),
}

/// How a validator handles multiple SPF records at one name (§7.3 of the
/// paper: 77% correctly error out, 23% follow one of the records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiRecordPolicy {
    /// RFC 7208 §4.5: `permerror`.
    PermError,
    /// Non-compliant: evaluate the first record returned.
    FollowFirst,
}

/// Compliance knobs. `Default` is strict RFC 7208.
#[derive(Debug, Clone)]
pub struct SpfBehavior {
    /// §4.6.4 limit on DNS-querying terms (10).
    pub max_dns_mechanisms: u32,
    /// Enforce the term limit (violated by 39% of MTAs in Fig. 5 of the
    /// paper; 28% executed all 46 queries of the stress policy).
    pub enforce_lookup_limit: bool,
    /// §4.6.4 void-lookup limit (2).
    pub max_void_lookups: u32,
    /// Enforce the void limit (97% of measured MTAs exceeded it).
    pub enforce_void_limit: bool,
    /// §4.6.4 limit on address lookups per `mx` term (10).
    pub max_mx_addr_lookups: u32,
    /// Enforce the per-`mx` limit (92% of measured MTAs violated it).
    pub enforce_mx_limit: bool,
    /// Skip syntactically invalid terms instead of returning `permerror`
    /// (5.5% of measured MTAs kept evaluating past errors).
    pub skip_invalid_terms: bool,
    /// Treat `permerror` from an included policy as "no match" instead of
    /// propagating it (12.3% of measured MTAs).
    pub ignore_include_permerror: bool,
    /// After a failed `mx` lookup, issue the A/AAAA fallback query that
    /// RFC 5321 mail routing would use — explicitly disallowed by RFC
    /// 7208 §5.4 (14% of measured MTAs do it anyway).
    pub mx_fallback_a_lookup: bool,
    /// Multiple-record handling.
    pub on_multiple_records: MultiRecordPolicy,
    /// Emit all of a record's lookups at once instead of on demand
    /// (3% of measured MTAs, §7.1).
    pub parallel_prefetch: bool,
    /// Include recursion depth cap (not in the RFC; loop protection).
    pub max_include_depth: u32,
}

impl Default for SpfBehavior {
    fn default() -> Self {
        SpfBehavior {
            max_dns_mechanisms: 10,
            enforce_lookup_limit: true,
            max_void_lookups: 2,
            enforce_void_limit: true,
            max_mx_addr_lookups: 10,
            enforce_mx_limit: true,
            skip_invalid_terms: false,
            ignore_include_permerror: false,
            mx_fallback_a_lookup: false,
            on_multiple_records: MultiRecordPolicy::PermError,
            parallel_prefetch: false,
            max_include_depth: 15,
        }
    }
}

/// Inputs to `check_host()`.
#[derive(Debug, Clone)]
pub struct EvalParams {
    /// The connecting client's IP.
    pub ip: IpAddr,
    /// The domain whose policy is evaluated (MAIL FROM domain, or the
    /// HELO identity for a HELO check).
    pub domain: Name,
    /// Sender local part (`postmaster` when MAIL FROM was null, §4.3).
    pub sender_local: String,
    /// Sender domain (usually equals `domain`).
    pub sender_domain: Name,
    /// HELO/EHLO identity.
    pub helo: String,
}

impl EvalParams {
    fn macro_ctx(&self, current_domain: &Name) -> MacroContext {
        MacroContext {
            sender: format!("{}@{}", self.sender_local, self.sender_domain),
            local_part: self.sender_local.clone(),
            sender_domain: self.sender_domain.to_string(),
            domain: current_domain.to_string(),
            ip: self.ip,
            helo: self.helo.clone(),
        }
    }
}

/// The completed evaluation.
#[derive(Debug, Clone)]
pub struct SpfEvaluation {
    /// The SPF result.
    pub result: SpfResult,
    /// DNS-querying terms processed (§4.6.4 counter).
    pub dns_mechanism_terms: u32,
    /// Void lookups observed.
    pub void_lookups: u32,
    /// Total DNS questions emitted.
    pub queries_issued: u32,
    /// Text of the mechanism that decided the result, if any.
    pub matched_term: Option<String>,
    /// Human-readable error detail for temperror/permerror.
    pub error: Option<String>,
    /// An include/redirect cycle was detected and broken (typed flag
    /// for hostile-input classification).
    pub cycle_detected: bool,
    /// A DNS-term or void-lookup budget was exhausted (typed flag for
    /// hostile-input classification).
    pub lookups_exhausted: bool,
}

#[derive(Debug)]
enum RecordPurpose {
    Initial,
    Include { qualifier: Qualifier },
    Redirect,
}

#[derive(Debug)]
enum Waiting {
    /// TXT lookup to fetch a policy.
    Record {
        domain: Name,
        purpose: RecordPurpose,
    },
    /// A/AAAA lookup for an `a` mechanism.
    MechAddr {
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
    },
    /// A lookup for an `exists` mechanism (always type A, §5.7).
    Exists { qualifier: Qualifier, term: String },
    /// MX list lookup for an `mx` mechanism.
    MxList {
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        mx_domain: Name,
    },
    /// Per-exchange address lookups for an `mx` mechanism.
    MxAddr {
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        remaining: VecDeque<Name>,
        looked: u32,
    },
    /// Non-compliant A/AAAA fallback after a void `mx` lookup.
    MxFallbackAddr {
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
    },
    /// PTR list lookup for a `ptr` mechanism.
    PtrList {
        qualifier: Qualifier,
        target: Name,
        term: String,
    },
    /// Forward-confirmation lookups for `ptr`.
    PtrConfirm {
        qualifier: Qualifier,
        target: Name,
        term: String,
        remaining: VecDeque<Name>,
        current: Name,
    },
}

#[derive(Debug)]
struct Frame {
    record: SpfRecord,
    idx: usize,
    domain: Name,
    /// Qualifier of the `include` that spawned this frame (None for the
    /// root / redirect continuations).
    on_pass_qualifier: Option<Qualifier>,
    /// Domains this frame already occupied via `redirect=` hops. A
    /// redirect targeting any of them (or the current domain) is a
    /// cycle and permerrors instead of looping forever.
    redirect_trail: Vec<Name>,
}

/// The resumable evaluator. Create one per `check_host()` invocation.
pub struct SpfEvaluator {
    params: EvalParams,
    behavior: SpfBehavior,
    frames: Vec<Frame>,
    waiting: Option<(DnsQuestion, Waiting)>,
    inbox: HashMap<DnsQuestion, ResolveOutcome>,
    /// Outcomes already consumed once, kept so a policy that repeats a
    /// term (e.g. `mx mx`) is served from this evaluation-local cache —
    /// exactly what a co-located resolver cache would do.
    answered: HashMap<DnsQuestion, ResolveOutcome>,
    requested: HashSet<DnsQuestion>,
    pending_prefetch: Vec<DnsQuestion>,
    dns_terms: u32,
    voids: u32,
    queries: u32,
    started: bool,
    cycle_detected: bool,
    lookups_exhausted: bool,
}

impl SpfEvaluator {
    /// Create an evaluator.
    pub fn new(params: EvalParams, behavior: SpfBehavior) -> Self {
        SpfEvaluator {
            params,
            behavior,
            frames: Vec::new(),
            waiting: None,
            inbox: HashMap::new(),
            answered: HashMap::new(),
            requested: HashSet::new(),
            pending_prefetch: Vec::new(),
            dns_terms: 0,
            voids: 0,
            queries: 0,
            started: false,
            cycle_detected: false,
            lookups_exhausted: false,
        }
    }

    /// The address-record type matching the client IP family.
    fn addr_rtype(&self) -> RecordType {
        match self.params.ip {
            IpAddr::V4(_) => RecordType::A,
            IpAddr::V6(_) => RecordType::Aaaa,
        }
    }

    /// Begin evaluation: emits the initial TXT lookup.
    pub fn start(&mut self) -> EvalStep {
        assert!(!self.started, "start() called twice");
        self.started = true;
        let domain = self.params.domain.clone();
        self.await_lookup(
            DnsQuestion {
                name: domain.clone(),
                rtype: RecordType::Txt,
            },
            Waiting::Record {
                domain,
                purpose: RecordPurpose::Initial,
            },
        )
    }

    /// Feed answers for previously requested questions, then continue.
    pub fn resume(&mut self, answers: Vec<(DnsQuestion, ResolveOutcome)>) -> EvalStep {
        for (q, outcome) in answers {
            self.inbox.insert(q, outcome);
        }
        self.drive()
    }

    fn await_lookup(&mut self, question: DnsQuestion, waiting: Waiting) -> EvalStep {
        self.waiting = Some((question, waiting));
        self.drive()
    }

    fn drive(&mut self) -> EvalStep {
        loop {
            match self.waiting.take() {
                Some((question, waiting)) => {
                    let ready = self
                        .inbox
                        .remove(&question)
                        .or_else(|| self.answered.get(&question).cloned());
                    if let Some(outcome) = ready {
                        self.answered.insert(question, outcome.clone());
                        if let Some(EvalStep::Done(done)) = self.apply(waiting, outcome) {
                            return EvalStep::Done(done);
                        }
                        continue;
                    }
                    // Not yet answered: request it (once), along with any
                    // parallel-prefetch questions queued up.
                    let mut need = Vec::new();
                    if self.requested.insert(question.clone()) {
                        self.queries += 1;
                        need.push(question.clone());
                    }
                    for q in std::mem::take(&mut self.pending_prefetch) {
                        if self.requested.insert(q.clone()) {
                            self.queries += 1;
                            need.push(q);
                        }
                    }
                    self.waiting = Some((question, waiting));
                    // `need` may be empty if everything was already
                    // requested; the caller still owes us answers.
                    return EvalStep::NeedLookups(need);
                }
                None => {
                    if let Some(EvalStep::Done(done)) = self.advance() {
                        return EvalStep::Done(done);
                    }
                    // advance() either set up a new waiting state or
                    // concluded an include child; loop around.
                }
            }
        }
    }

    /// Finish with a result.
    fn done(
        &mut self,
        result: SpfResult,
        matched: Option<String>,
        error: Option<String>,
    ) -> EvalStep {
        self.frames.clear();
        EvalStep::Done(SpfEvaluation {
            result,
            dns_mechanism_terms: self.dns_terms,
            void_lookups: self.voids,
            queries_issued: self.queries,
            matched_term: matched,
            error,
            cycle_detected: self.cycle_detected,
            lookups_exhausted: self.lookups_exhausted,
        })
    }

    /// A frame concluded with `result`; propagate through includes.
    /// Returns Some(step) if the whole evaluation is done.
    fn conclude_frame(
        &mut self,
        result: SpfResult,
        matched: Option<String>,
        error: Option<String>,
    ) -> Option<EvalStep> {
        let frame = self.frames.pop().expect("conclude without frame");
        match frame.on_pass_qualifier {
            None => Some(self.done(result, matched, error)),
            Some(qualifier) => {
                // This was an include child (RFC 7208 §5.2 table).
                match result {
                    SpfResult::Pass => {
                        // Include matched: parent mechanism matches.
                        self.mechanism_matched(qualifier, matched.unwrap_or_default())
                    }
                    SpfResult::Fail | SpfResult::SoftFail | SpfResult::Neutral => {
                        // Not a match; parent continues.
                        None
                    }
                    SpfResult::TempError => Some(self.done(
                        SpfResult::TempError,
                        None,
                        error.or(Some("temperror in included policy".into())),
                    )),
                    SpfResult::PermError | SpfResult::None => {
                        if self.behavior.ignore_include_permerror {
                            None // non-compliant: keep evaluating parent
                        } else {
                            Some(self.done(
                                SpfResult::PermError,
                                None,
                                error.or(Some("permerror in included policy".into())),
                            ))
                        }
                    }
                }
            }
        }
    }

    /// A mechanism with `qualifier` matched in the current frame.
    fn mechanism_matched(&mut self, qualifier: Qualifier, term: String) -> Option<EvalStep> {
        let result = match qualifier {
            Qualifier::Pass => SpfResult::Pass,
            Qualifier::Fail => SpfResult::Fail,
            Qualifier::SoftFail => SpfResult::SoftFail,
            Qualifier::Neutral => SpfResult::Neutral,
        };
        if result == SpfResult::Pass {
            // A Pass inside an include propagates as "include matched".
            self.conclude_frame(SpfResult::Pass, Some(term), None)
        } else {
            self.conclude_frame(result, Some(term), None)
        }
    }

    /// Expand a domain-spec in the current frame's context.
    fn expand_spec(&self, spec: &str) -> Result<Name, String> {
        let frame = self.frames.last().expect("no frame");
        let ctx = OnceCell::new();
        let expanded = expand(
            spec,
            || ctx.get_or_init(|| self.params.macro_ctx(&frame.domain)),
            false,
        )
        .map_err(|e| e.to_string())?;
        // §7.3: if the expansion exceeds 253 chars, drop left labels; we
        // approximate by letting Name::parse reject and erroring.
        Name::parse(&expanded).map_err(|e| e.to_string())
    }

    fn current_domain(&self) -> Name {
        self.frames.last().expect("no frame").domain.clone()
    }

    /// Count a DNS-querying term; returns an error step on limit breach.
    fn count_dns_term(&mut self) -> Option<EvalStep> {
        self.dns_terms += 1;
        if self.behavior.enforce_lookup_limit && self.dns_terms > self.behavior.max_dns_mechanisms {
            self.lookups_exhausted = true;
            return Some(self.done(
                SpfResult::PermError,
                None,
                Some(format!(
                    "too many DNS-querying mechanisms (> {})",
                    self.behavior.max_dns_mechanisms
                )),
            ));
        }
        None
    }

    /// Count a void lookup; returns an error step on limit breach.
    fn count_void(&mut self) -> Option<EvalStep> {
        self.voids += 1;
        if self.behavior.enforce_void_limit && self.voids > self.behavior.max_void_lookups {
            self.lookups_exhausted = true;
            return Some(self.done(
                SpfResult::PermError,
                None,
                Some(format!(
                    "too many void lookups (> {})",
                    self.behavior.max_void_lookups
                )),
            ));
        }
        None
    }

    /// Move to the next term of the top frame; set up `waiting` or
    /// conclude. Returns Some(step) when the evaluation is done.
    fn advance(&mut self) -> Option<EvalStep> {
        loop {
            let Some(frame) = self.frames.last_mut() else {
                unreachable!("advance without frames");
            };
            if frame.idx >= frame.record.terms.len() {
                // No mechanism matched: redirect or default Neutral.
                let redirect = frame.record.terms.iter().find_map(|t| match t {
                    Term::Modifier(Modifier::Redirect { domain_spec }) => Some(domain_spec.clone()),
                    _ => None,
                });
                match redirect {
                    Some(spec) => {
                        if let Some(step) = self.count_dns_term() {
                            return Some(step);
                        }
                        let target = match self.expand_spec(&spec) {
                            Ok(t) => t,
                            Err(e) => {
                                return self.conclude_frame(
                                    SpfResult::PermError,
                                    None,
                                    Some(format!("bad redirect target: {e}")),
                                )
                            }
                        };
                        // Cycle guard: policy content is a pure function
                        // of the domain, so revisiting a domain this
                        // frame already occupied can only loop forever.
                        let cycle = {
                            let frame = self.frames.last().expect("redirect without frame");
                            frame.domain == target || frame.redirect_trail.contains(&target)
                        };
                        if cycle {
                            self.cycle_detected = true;
                            return self.conclude_frame(
                                SpfResult::PermError,
                                None,
                                Some(format!("redirect loop at {target}")),
                            );
                        }
                        let frame = self.frames.last_mut().expect("redirect without frame");
                        let leaving = frame.domain.clone();
                        frame.redirect_trail.push(leaving);
                        // Replace this frame's record via a TXT fetch.
                        self.waiting = Some((
                            DnsQuestion {
                                name: target.clone(),
                                rtype: RecordType::Txt,
                            },
                            Waiting::Record {
                                domain: target,
                                purpose: RecordPurpose::Redirect,
                            },
                        ));
                        return None;
                    }
                    None => {
                        // RFC 7208 §4.7 default result.
                        return self.conclude_frame(SpfResult::Neutral, None, None);
                    }
                }
            }
            let term = frame.record.terms[frame.idx].clone();
            frame.idx += 1;
            match term {
                Term::Modifier(_) => continue, // handled at end / ignored
                Term::Mechanism(qualifier, mech) => match self.process_mechanism(qualifier, mech) {
                    ProcessOutcome::Continue => continue,
                    ProcessOutcome::Await => return None,
                    ProcessOutcome::Finished(step) => return Some(step),
                },
            }
        }
    }

    /// Evaluate one mechanism. Its text (what `matched_term` reports)
    /// is formatted only where it is used: at a match, or when a lookup
    /// whose answer may match is queued.
    fn process_mechanism(&mut self, qualifier: Qualifier, mech: Mechanism) -> ProcessOutcome {
        let term_text = || format!("{mech:?}");
        match &mech {
            Mechanism::All => match self.mechanism_matched(qualifier, "all".into()) {
                Some(step) => ProcessOutcome::Finished(step),
                None => ProcessOutcome::Continue,
            },
            Mechanism::Ip4(net) => {
                if let IpAddr::V4(ip) = self.params.ip {
                    if net.contains(ip) {
                        return match self.mechanism_matched(qualifier, term_text()) {
                            Some(step) => ProcessOutcome::Finished(step),
                            None => ProcessOutcome::Continue,
                        };
                    }
                }
                ProcessOutcome::Continue
            }
            Mechanism::Ip6(net) => {
                if let IpAddr::V6(ip) = self.params.ip {
                    if net.contains(ip) {
                        return match self.mechanism_matched(qualifier, term_text()) {
                            Some(step) => ProcessOutcome::Finished(step),
                            None => ProcessOutcome::Continue,
                        };
                    }
                }
                ProcessOutcome::Continue
            }
            Mechanism::A { domain_spec, cidr } => {
                if let Some(step) = self.count_dns_term() {
                    return ProcessOutcome::Finished(step);
                }
                let target = match domain_spec {
                    Some(spec) => match self.expand_spec(spec) {
                        Ok(t) => t,
                        Err(e) => return self.perm(format!("bad a target: {e}")),
                    },
                    None => self.current_domain(),
                };
                let rtype = self.addr_rtype();
                self.waiting = Some((
                    DnsQuestion {
                        name: target,
                        rtype,
                    },
                    Waiting::MechAddr {
                        qualifier,
                        cidr: *cidr,
                        term: term_text(),
                    },
                ));
                ProcessOutcome::Await
            }
            Mechanism::Mx { domain_spec, cidr } => {
                if let Some(step) = self.count_dns_term() {
                    return ProcessOutcome::Finished(step);
                }
                let target = match domain_spec {
                    Some(spec) => match self.expand_spec(spec) {
                        Ok(t) => t,
                        Err(e) => return self.perm(format!("bad mx target: {e}")),
                    },
                    None => self.current_domain(),
                };
                self.waiting = Some((
                    DnsQuestion {
                        name: target.clone(),
                        rtype: RecordType::Mx,
                    },
                    Waiting::MxList {
                        qualifier,
                        cidr: *cidr,
                        term: term_text(),
                        mx_domain: target,
                    },
                ));
                ProcessOutcome::Await
            }
            Mechanism::Ptr { domain_spec } => {
                if let Some(step) = self.count_dns_term() {
                    return ProcessOutcome::Finished(step);
                }
                let target = match domain_spec {
                    Some(spec) => match self.expand_spec(spec) {
                        Ok(t) => t,
                        Err(e) => return self.perm(format!("bad ptr target: {e}")),
                    },
                    None => self.current_domain(),
                };
                let rev = reverse_name(self.params.ip);
                self.waiting = Some((
                    DnsQuestion {
                        name: rev,
                        rtype: RecordType::Ptr,
                    },
                    Waiting::PtrList {
                        qualifier,
                        target,
                        term: term_text(),
                    },
                ));
                ProcessOutcome::Await
            }
            Mechanism::Exists { domain_spec } => {
                if let Some(step) = self.count_dns_term() {
                    return ProcessOutcome::Finished(step);
                }
                let target = match self.expand_spec(domain_spec) {
                    Ok(t) => t,
                    Err(e) => return self.perm(format!("bad exists target: {e}")),
                };
                self.waiting = Some((
                    DnsQuestion {
                        name: target,
                        // Always A, even for IPv6 clients (§5.7).
                        rtype: RecordType::A,
                    },
                    Waiting::Exists {
                        qualifier,
                        term: term_text(),
                    },
                ));
                ProcessOutcome::Await
            }
            Mechanism::Include { domain_spec } => {
                if let Some(step) = self.count_dns_term() {
                    return ProcessOutcome::Finished(step);
                }
                if self.frames.len() as u32 >= self.behavior.max_include_depth {
                    return self.perm("include recursion too deep".into());
                }
                let target = match self.expand_spec(domain_spec) {
                    Ok(t) => t,
                    Err(e) => return self.perm(format!("bad include target: {e}")),
                };
                // Cycle guard: including a domain that is already an
                // active ancestor (self-include, two-node cycles, …)
                // re-evaluates the identical record and can only
                // recurse until the depth cap; permerror immediately.
                if self.frames.iter().any(|f| f.domain == target) {
                    self.cycle_detected = true;
                    return self.perm(format!("include loop at {target}"));
                }
                self.waiting = Some((
                    DnsQuestion {
                        name: target.clone(),
                        rtype: RecordType::Txt,
                    },
                    Waiting::Record {
                        domain: target,
                        purpose: RecordPurpose::Include { qualifier },
                    },
                ));
                ProcessOutcome::Await
            }
        }
    }

    fn perm(&mut self, error: String) -> ProcessOutcome {
        if self.behavior.skip_invalid_terms {
            return ProcessOutcome::Continue;
        }
        match self.conclude_frame(SpfResult::PermError, None, Some(error)) {
            Some(step) => ProcessOutcome::Finished(step),
            None => ProcessOutcome::Continue,
        }
    }

    /// Apply an answered lookup. Returns Some(Done) if finished, None to
    /// keep driving.
    fn apply(&mut self, waiting: Waiting, outcome: ResolveOutcome) -> Option<EvalStep> {
        match waiting {
            Waiting::Record { domain, purpose } => self.apply_record(domain, purpose, outcome),
            Waiting::MechAddr {
                qualifier,
                cidr,
                term,
            } => self.apply_addresses(qualifier, cidr, term, outcome),
            Waiting::Exists { qualifier, term } => match outcome {
                ResolveOutcome::Records(records)
                    if records.iter().any(|r| r.rtype() == RecordType::A) =>
                {
                    self.mechanism_matched(qualifier, term)
                }
                ResolveOutcome::Timeout | ResolveOutcome::ServFail => Some(self.done(
                    SpfResult::TempError,
                    None,
                    Some("exists lookup failed".into()),
                )),
                other => {
                    if other.is_void() {
                        if let Some(step) = self.count_void() {
                            return Some(step);
                        }
                    }
                    None
                }
            },
            Waiting::MxList {
                qualifier,
                cidr,
                term,
                mx_domain,
            } => self.apply_mx_list(qualifier, cidr, term, mx_domain, outcome),
            Waiting::MxAddr {
                qualifier,
                cidr,
                term,
                remaining,
                looked,
            } => self.apply_mx_addr(qualifier, cidr, term, remaining, looked, outcome),
            Waiting::MxFallbackAddr {
                qualifier,
                cidr,
                term,
            } => {
                // Non-compliant fallback: match like an `a` mechanism.
                self.apply_addresses(qualifier, cidr, term, outcome)
            }
            Waiting::PtrList {
                qualifier,
                target,
                term,
            } => self.apply_ptr_list(qualifier, target, term, outcome),
            Waiting::PtrConfirm {
                qualifier,
                target,
                term,
                remaining,
                current,
            } => self.apply_ptr_confirm(qualifier, target, term, remaining, current, outcome),
        }
    }

    fn apply_record(
        &mut self,
        domain: Name,
        purpose: RecordPurpose,
        outcome: ResolveOutcome,
    ) -> Option<EvalStep> {
        let spf_strings: Vec<String> = match &outcome {
            ResolveOutcome::Records(records) => records
                .iter()
                .filter_map(|r| r.rdata.txt_joined())
                .filter(|s| looks_like_spf(s))
                .collect(),
            ResolveOutcome::NoData | ResolveOutcome::NxDomain => Vec::new(),
            ResolveOutcome::Timeout | ResolveOutcome::ServFail => {
                return match purpose {
                    RecordPurpose::Initial => Some(self.done(
                        SpfResult::TempError,
                        None,
                        Some("policy lookup failed".into()),
                    )),
                    _ => Some(self.done(
                        SpfResult::TempError,
                        None,
                        Some("nested policy lookup failed".into()),
                    )),
                };
            }
        };

        let no_record_result = |purpose: &RecordPurpose| match purpose {
            // §4.5: no SPF record → None.
            RecordPurpose::Initial => SpfResult::None,
            // §5.2: include target without a record → PermError.
            RecordPurpose::Include { .. } => SpfResult::PermError,
            // §6.1: redirect target without a record → PermError.
            RecordPurpose::Redirect => SpfResult::PermError,
        };

        if spf_strings.is_empty() {
            // Void lookup accounting applies to include/redirect fetches.
            if !matches!(purpose, RecordPurpose::Initial) && outcome.is_void() {
                if let Some(step) = self.count_void() {
                    return Some(step);
                }
            }
            let result = no_record_result(&purpose);
            return match purpose {
                RecordPurpose::Initial => Some(self.done(result, None, None)),
                RecordPurpose::Include { qualifier } => {
                    // Synthesize a concluded child frame.
                    self.frames.push(Frame {
                        record: SpfRecord::default(),
                        idx: 0,
                        domain,
                        on_pass_qualifier: Some(qualifier),
                        redirect_trail: Vec::new(),
                    });
                    self.conclude_frame(
                        result,
                        None,
                        Some("no SPF record at include target".into()),
                    )
                }
                RecordPurpose::Redirect => self.conclude_frame(
                    result,
                    None,
                    Some("no SPF record at redirect target".into()),
                ),
            };
        }

        let chosen = if spf_strings.len() > 1 {
            match self.behavior.on_multiple_records {
                MultiRecordPolicy::PermError => {
                    let err = Some("multiple SPF records".to_string());
                    return match purpose {
                        RecordPurpose::Initial => Some(self.done(SpfResult::PermError, None, err)),
                        RecordPurpose::Include { qualifier } => {
                            self.frames.push(Frame {
                                record: SpfRecord::default(),
                                idx: 0,
                                domain,
                                on_pass_qualifier: Some(qualifier),
                                redirect_trail: Vec::new(),
                            });
                            self.conclude_frame(SpfResult::PermError, None, err)
                        }
                        RecordPurpose::Redirect => {
                            self.conclude_frame(SpfResult::PermError, None, err)
                        }
                    };
                }
                MultiRecordPolicy::FollowFirst => spf_strings[0].clone(),
            }
        } else {
            spf_strings[0].clone()
        };

        let record = match self.parse_with_behavior(&chosen) {
            Ok(r) => r,
            Err(e) => {
                let err = Some(format!("syntax error: {e}"));
                return match purpose {
                    RecordPurpose::Initial => Some(self.done(SpfResult::PermError, None, err)),
                    RecordPurpose::Include { qualifier } => {
                        self.frames.push(Frame {
                            record: SpfRecord::default(),
                            idx: 0,
                            domain,
                            on_pass_qualifier: Some(qualifier),
                            redirect_trail: Vec::new(),
                        });
                        self.conclude_frame(SpfResult::PermError, None, err)
                    }
                    RecordPurpose::Redirect => self.conclude_frame(SpfResult::PermError, None, err),
                };
            }
        };

        if self.behavior.parallel_prefetch {
            self.prefetch_record_lookups(&record, &domain);
        }

        match purpose {
            RecordPurpose::Initial => {
                self.frames.push(Frame {
                    record,
                    idx: 0,
                    domain,
                    on_pass_qualifier: None,
                    redirect_trail: Vec::new(),
                });
            }
            RecordPurpose::Include { qualifier } => {
                self.frames.push(Frame {
                    record,
                    idx: 0,
                    domain,
                    on_pass_qualifier: Some(qualifier),
                    redirect_trail: Vec::new(),
                });
            }
            RecordPurpose::Redirect => {
                let frame = self.frames.last_mut().expect("redirect without frame");
                frame.record = record;
                frame.idx = 0;
                frame.domain = domain;
            }
        }
        None
    }

    /// Parse a record; with `skip_invalid_terms`, drop bad terms instead
    /// of failing (the §7.3 lenient-validator behavior).
    fn parse_with_behavior(&self, txt: &str) -> Result<SpfRecord, RecordParseError> {
        match SpfRecord::parse(txt) {
            Ok(r) => Ok(r),
            Err(RecordParseError::NotSpf) => Err(RecordParseError::NotSpf),
            Err(e) => {
                if !self.behavior.skip_invalid_terms {
                    return Err(e);
                }
                // Re-parse term by term, skipping the bad ones.
                let body = txt.trim_start()[6..].trim();
                let mut terms = Vec::new();
                for (i, raw) in body.split_ascii_whitespace().enumerate() {
                    if let Ok(t) = SpfRecord::parse_term(raw, i) {
                        terms.push(t);
                    }
                }
                Ok(SpfRecord { terms })
            }
        }
    }

    /// Parallel-prefetch: mark every lookup this record will need as
    /// requested and emit it on the next NeedLookups.
    fn prefetch_record_lookups(&mut self, record: &SpfRecord, domain: &Name) {
        // Built on the record's first macro, if it has one.
        let ctx = OnceCell::new();
        let params = &self.params;
        let name_of = |spec: &str| {
            expand(spec, || ctx.get_or_init(|| params.macro_ctx(domain)), false)
                .ok()
                .and_then(|d| Name::parse(&d).ok())
        };
        let question = |name: Option<Name>, rtype| name.map(|name| DnsQuestion { name, rtype });
        let addr_rtype = self.addr_rtype();
        let mut extra: Vec<DnsQuestion> = Vec::new();
        for term in &record.terms {
            let q = match term {
                Term::Mechanism(_, Mechanism::Include { domain_spec })
                | Term::Modifier(Modifier::Redirect { domain_spec }) => {
                    question(name_of(domain_spec), RecordType::Txt)
                }
                Term::Mechanism(_, Mechanism::A { domain_spec, .. }) => {
                    let name = domain_spec
                        .as_deref()
                        .map_or_else(|| Some(domain.clone()), name_of);
                    question(name, addr_rtype)
                }
                Term::Mechanism(_, Mechanism::Mx { domain_spec, .. }) => {
                    let name = domain_spec
                        .as_deref()
                        .map_or_else(|| Some(domain.clone()), name_of);
                    question(name, RecordType::Mx)
                }
                Term::Mechanism(_, Mechanism::Exists { domain_spec }) => {
                    question(name_of(domain_spec), RecordType::A)
                }
                Term::Mechanism(_, Mechanism::Ptr { .. }) => Some(DnsQuestion {
                    name: reverse_name(self.params.ip),
                    rtype: RecordType::Ptr,
                }),
                _ => None,
            };
            if let Some(q) = q {
                if !self.requested.contains(&q) && !self.inbox.contains_key(&q) {
                    extra.push(q);
                }
            }
        }
        // Stash as pre-requested; drive() will emit them alongside the next
        // on-demand question via `pending_prefetch`.
        self.pending_prefetch.extend(extra);
    }

    fn apply_addresses(
        &mut self,
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        outcome: ResolveOutcome,
    ) -> Option<EvalStep> {
        match outcome {
            ResolveOutcome::Records(records) => {
                if self.any_addr_matches(&records, cidr) {
                    return self.mechanism_matched(qualifier, term);
                }
                None
            }
            ResolveOutcome::Timeout | ResolveOutcome::ServFail => Some(self.done(
                SpfResult::TempError,
                None,
                Some("address lookup failed".into()),
            )),
            other => {
                if other.is_void() {
                    if let Some(step) = self.count_void() {
                        return Some(step);
                    }
                }
                None
            }
        }
    }

    fn any_addr_matches(&self, records: &[mailval_dns::Record], cidr: DualCidr) -> bool {
        records.iter().any(|r| match (&r.rdata, self.params.ip) {
            (RData::A(a), IpAddr::V4(ip)) => crate::record::Ipv4Net {
                addr: *a,
                prefix: cidr.v4,
            }
            .contains(ip),
            (RData::Aaaa(a), IpAddr::V6(ip)) => crate::record::Ipv6Net {
                addr: *a,
                prefix: cidr.v6,
            }
            .contains(ip),
            _ => false,
        })
    }

    fn apply_mx_list(
        &mut self,
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        mx_domain: Name,
        outcome: ResolveOutcome,
    ) -> Option<EvalStep> {
        match outcome {
            ResolveOutcome::Records(records) => {
                let mut exchanges: Vec<(u16, Name)> = records
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Mx {
                            preference,
                            exchange,
                        } => Some((*preference, exchange.clone())),
                        _ => None,
                    })
                    .collect();
                exchanges.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                let remaining: VecDeque<Name> =
                    exchanges.into_iter().map(|(_, name)| name).collect();
                if remaining.is_empty() {
                    if let Some(step) = self.count_void() {
                        return Some(step);
                    }
                    return self.maybe_mx_fallback(qualifier, cidr, term, mx_domain);
                }
                self.next_mx_addr(qualifier, cidr, term, remaining, 0)
            }
            ResolveOutcome::Timeout | ResolveOutcome::ServFail => {
                Some(self.done(SpfResult::TempError, None, Some("mx lookup failed".into())))
            }
            other => {
                if other.is_void() {
                    if let Some(step) = self.count_void() {
                        return Some(step);
                    }
                }
                self.maybe_mx_fallback(qualifier, cidr, term, mx_domain)
            }
        }
    }

    /// §7.3 of the paper: 14% of MTAs follow a failed `mx` lookup with an
    /// address query, which RFC 7208 §5.4 explicitly disallows.
    fn maybe_mx_fallback(
        &mut self,
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        mx_domain: Name,
    ) -> Option<EvalStep> {
        if !self.behavior.mx_fallback_a_lookup {
            return None;
        }
        let rtype = self.addr_rtype();
        self.waiting = Some((
            DnsQuestion {
                name: mx_domain,
                rtype,
            },
            Waiting::MxFallbackAddr {
                qualifier,
                cidr,
                term,
            },
        ));
        None
    }

    fn next_mx_addr(
        &mut self,
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        mut remaining: VecDeque<Name>,
        looked: u32,
    ) -> Option<EvalStep> {
        if looked >= self.behavior.max_mx_addr_lookups && self.behavior.enforce_mx_limit {
            // §4.6.4: MUST permerror past 10 address lookups per mx term.
            return Some(self.done(
                SpfResult::PermError,
                None,
                Some("too many mx address lookups".into()),
            ));
        }
        let Some(next) = remaining.pop_front() else {
            return None; // exhausted: no match, continue evaluation
        };
        let rtype = self.addr_rtype();
        self.waiting = Some((
            DnsQuestion { name: next, rtype },
            Waiting::MxAddr {
                qualifier,
                cidr,
                term,
                remaining,
                looked: looked + 1,
            },
        ));
        None
    }

    fn apply_mx_addr(
        &mut self,
        qualifier: Qualifier,
        cidr: DualCidr,
        term: String,
        remaining: VecDeque<Name>,
        looked: u32,
        outcome: ResolveOutcome,
    ) -> Option<EvalStep> {
        match outcome {
            ResolveOutcome::Records(records) => {
                if self.any_addr_matches(&records, cidr) {
                    return self.mechanism_matched(qualifier, term);
                }
            }
            ResolveOutcome::Timeout | ResolveOutcome::ServFail => {
                return Some(self.done(
                    SpfResult::TempError,
                    None,
                    Some("mx address lookup failed".into()),
                ));
            }
            other => {
                if other.is_void() {
                    if let Some(step) = self.count_void() {
                        return Some(step);
                    }
                }
            }
        }
        self.next_mx_addr(qualifier, cidr, term, remaining, looked)
    }

    fn apply_ptr_list(
        &mut self,
        qualifier: Qualifier,
        target: Name,
        term: String,
        outcome: ResolveOutcome,
    ) -> Option<EvalStep> {
        match outcome {
            ResolveOutcome::Records(records) => {
                let mut names: VecDeque<Name> = records
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Ptr(name) => Some(name.clone()),
                        _ => None,
                    })
                    .take(10) // §5.5: only the first 10 are evaluated
                    .collect();
                let Some(first) = names.pop_front() else {
                    if let Some(step) = self.count_void() {
                        return Some(step);
                    }
                    return None;
                };
                let rtype = self.addr_rtype();
                self.waiting = Some((
                    DnsQuestion {
                        name: first.clone(),
                        rtype,
                    },
                    Waiting::PtrConfirm {
                        qualifier,
                        target,
                        term,
                        remaining: names,
                        current: first,
                    },
                ));
                None
            }
            // §5.5: if the PTR lookup errors, the mechanism does not match
            // (no temperror).
            _ => {
                if outcome.is_void() {
                    if let Some(step) = self.count_void() {
                        return Some(step);
                    }
                }
                None
            }
        }
    }

    fn apply_ptr_confirm(
        &mut self,
        qualifier: Qualifier,
        target: Name,
        term: String,
        mut remaining: VecDeque<Name>,
        current: Name,
        outcome: ResolveOutcome,
    ) -> Option<EvalStep> {
        if let ResolveOutcome::Records(records) = &outcome {
            let confirmed = records.iter().any(|r| match (&r.rdata, self.params.ip) {
                (RData::A(a), IpAddr::V4(ip)) => *a == ip,
                (RData::Aaaa(a), IpAddr::V6(ip)) => *a == ip,
                _ => false,
            });
            if confirmed && current.is_subdomain_of(&target) {
                return self.mechanism_matched(qualifier, term);
            }
        }
        let next = remaining.pop_front()?;
        let rtype = self.addr_rtype();
        self.waiting = Some((
            DnsQuestion {
                name: next.clone(),
                rtype,
            },
            Waiting::PtrConfirm {
                qualifier,
                target,
                term,
                remaining,
                current: next,
            },
        ));
        None
    }
}

enum ProcessOutcome {
    Continue,
    Await,
    Finished(EvalStep),
}

/// The reverse-DNS name for an address (`in-addr.arpa` / `ip6.arpa`).
pub fn reverse_name(ip: IpAddr) -> Name {
    match ip {
        IpAddr::V4(v4) => {
            let o = v4.octets();
            Name::parse(&format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0]))
                .expect("valid reverse name")
        }
        IpAddr::V6(v6) => {
            let mut labels: Vec<String> = Vec::with_capacity(34);
            for b in v6.octets().iter().rev() {
                labels.push(format!("{:x}", b & 0xf));
                labels.push(format!("{:x}", b >> 4));
            }
            labels.push("ip6".into());
            labels.push("arpa".into());
            Name::from_labels(labels).expect("valid reverse name")
        }
    }
}
