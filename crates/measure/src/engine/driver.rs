//! The per-shard session engine: it runs a shard's **independent**
//! probe sessions one at a time against the shared authoritative
//! server.
//!
//! Each session runs to completion on its own virtual-time queue
//! ([`LiveSession`] owns a [`mailval_simnet::Simulator`]) until the
//! queue is empty or the engine terminates the session (budget, memory
//! shed, hostile input, contained panic). The engine then folds the
//! session into one [`JournalFrame`], appends it to the shard's
//! journal, and only then takes the next session. Sessions never
//! exchange events, so nothing here depends on which sessions share a
//! shard or in what order they run.

use super::event::Ev;
use super::session::{LiveSession, SessionOutcome};
use crate::apparatus::{QueryRecord, SynthesizingAuthority};
use crate::journal::{JournalFrame, JournalWriter};
use crate::telemetry::{NullTracer, Telemetry, TraceKind, Tracer};
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::server::{ServerCore, Transport};
use mailval_mta::actor::{MtaEvent, MtaInput, MtaOutput, MtaSink};
use mailval_mta::resolver::{ResolverEvent, UpstreamSend};
use mailval_simnet::{
    ConnFault, DatagramFate, DnsMutation, FaultConfig, FaultPlan, FaultStats, LatencyModel,
    MalformedClass, PayloadConfig, PayloadPlan, Simulator,
};
use mailval_smtp::client::ClientAction;
use mailval_smtp::line::crlf_lines;
use mailval_smtp::reply::ReplyParser;
use std::net::IpAddr;
use std::sync::Arc;

/// Per-session runaway limits. A nine-month campaign cannot afford one
/// pathological session (a retry loop against a profile that tempfails
/// forever, a stall cascade) holding its shard hostage: the engine
/// terminates any session that exceeds either limit with
/// [`SessionOutcome::BudgetExhausted`] and moves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionBudget {
    /// Maximum virtual time a session may span, from its start event to
    /// its latest event, ms. Default: seven virtual days — an order of
    /// magnitude past the two-week probes' longest legitimate single
    /// session, far below a runaway loop's reach.
    pub max_virtual_ms: u64,
    /// Maximum events dispatched to one session. Default: one million —
    /// real sessions take tens to hundreds.
    pub max_events: u64,
}

impl Default for SessionBudget {
    fn default() -> Self {
        SessionBudget {
            max_virtual_ms: 7 * 24 * 60 * 60 * 1000,
            max_events: 1_000_000,
        }
    }
}

/// Per-session memory backpressure: bounds on the *queued* work a
/// session may accumulate before the engine sheds it. The
/// [`SessionBudget`] caps events already dispatched; this caps events
/// (and their `Arc` payload bytes) scheduled but not yet popped — the
/// quantity that actually grows the heap when a runaway session
/// schedules faster than it drains. Both bounds are checked at
/// dispatch time against the session's own accounting, so the decision
/// is shard- and resume-invariant like every other engine decision.
/// Zero means unlimited; the default is fully inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget {
    /// Maximum payload bytes queued for one session (the sum of
    /// `Ev::payload_bytes` over its pending events). Zero = unlimited.
    pub max_session_bytes: u64,
    /// Maximum pending (scheduled, not yet dispatched) events for one
    /// session. Zero = unlimited.
    pub max_pending_events: u64,
}

impl MemoryBudget {
    /// True when some limit can ever trip (fast-path check).
    pub fn is_active(&self) -> bool {
        self.max_session_bytes > 0 || self.max_pending_events > 0
    }
}

/// Engine wiring that is identical for every session: the latency model
/// and the fixed apparatus endpoints.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Network latency model (injectable: tests swap in zero-latency or
    /// adversarial models without touching the driver).
    pub latency: LatencyModel,
    /// Fault-injection knobs; the default injects nothing. Combined with
    /// `latency.loss_probability` (the loss oracle) into a [`FaultPlan`].
    pub faults: FaultConfig,
    /// Hostile-peer payload mutation knobs; the default mutates nothing.
    /// Decisions are keyed by (seed, session id, payload cursor), so
    /// like the fault plan they are shard- and resume-invariant.
    pub payload: PayloadConfig,
    /// The probe client's source address.
    pub client_ip: IpAddr,
    /// The authoritative server's address.
    pub auth_ip: IpAddr,
    /// Local validator↔resolver hop, ms.
    pub local_hop_ms: u64,
    /// Per-session runaway limits.
    pub budget: SessionBudget,
    /// Per-session queued-work limits (memory backpressure); the
    /// default is inert.
    pub memory: MemoryBudget,
}

/// What one engine run produced.
pub struct EngineOutput {
    /// One frame per session the shard completed, replayed from its
    /// journal or run live, in completion order. The campaign merge
    /// puts them into canonical order.
    pub frames: Vec<JournalFrame>,
    /// Run counters.
    pub stats: EngineStats,
    /// The shard's trace + metrics, when the engine ran with a
    /// recording tracer. Observability only: never journaled or hashed,
    /// and `None` for replayed (journal-finalized) output.
    pub telemetry: Option<Telemetry>,
}

impl EngineOutput {
    /// Fold a shard's frames into its output. The live path and the
    /// journal-salvage path ([`crate::journal::Replay::into_engine_output`])
    /// both count through here, so a salvaged shard reports exactly
    /// what its live run would have for the same sessions.
    pub fn from_frames(frames: Vec<JournalFrame>, telemetry: Option<Telemetry>) -> EngineOutput {
        let mut stats = EngineStats {
            sessions: frames.len(),
            ..EngineStats::default()
        };
        for frame in &frames {
            stats.events += frame.events;
            stats.queries_logged += frame.queries.len() as u64;
            stats.virtual_ms = stats.virtual_ms.max(frame.end_ms);
            stats.faults.merge(&frame.faults);
        }
        EngineOutput {
            frames,
            stats,
            telemetry,
        }
    }
}

/// Live heartbeat configuration: a rate-limited progress line the
/// engine emits from its event loop (per-shard sessions/s, the current
/// session's queue length). Wall-clock rate limiting only affects
/// *when lines print*, never the simulation — the heartbeat reads
/// engine state, it does not write it.
#[derive(Debug)]
struct Heartbeat {
    shard: usize,
    interval: std::time::Duration,
    started: std::time::Instant,
    last: std::time::Instant,
    last_completed: u64,
}

/// Lightweight per-engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Sessions driven (including sessions replayed from a journal).
    pub sessions: usize,
    /// Virtual events dispatched, summed over the shard's frames. Events
    /// still queued when a session is terminated are never dispatched
    /// and not counted, so the count is shard- and resume-invariant.
    pub events: u64,
    /// Queries logged at the authoritative server.
    pub queries_logged: u64,
    /// Virtual time of the latest event dispatched to any of the
    /// shard's sessions (live or replayed), ms.
    pub virtual_ms: u64,
    /// Fault-injection counters (all zero when no faults configured).
    pub faults: FaultStats,
    /// The shard's journal failed mid-run and the engine demoted it to
    /// non-durable mode: results are complete and correct, but a crash
    /// after the demotion would lose the un-journaled suffix.
    /// Observability only — never hashed into campaign content.
    pub durability_lost: bool,
}

/// A driver for a set of sessions that never interact.
///
/// This is the unit of parallelism: a campaign assigns its sessions
/// round-robin to shards and runs one `SessionEngine` per shard, all
/// borrowing the same [`ServerCore`] (whose handling is `&self`-only
/// and stateless per query).
///
/// The engine is generic over its [`Tracer`]; the default
/// [`NullTracer`] monomorphizes every `if self.tracer.enabled()` hook
/// to dead code, so tracing costs nothing unless a recording tracer is
/// injected.
pub struct SessionEngine<'a, T: Tracer = NullTracer> {
    server: &'a ServerCore<SynthesizingAuthority>,
    config: EngineConfig,
    plan: FaultPlan,
    payload: PayloadPlan,
    /// Journal receiving one frame per completed session, when the
    /// campaign runs with durability enabled.
    journal: Option<JournalWriter>,
    /// Sessions completed so far, replayed *plus* live — the cursor the
    /// deterministic `crash_after_sessions` injection compares against.
    completed: u64,
    /// Reusable DNS reply encode buffer: one allocation per shard
    /// absorbs every server reply encode instead of one `Vec` per
    /// datagram (see [`ServerCore::handle_with`]).
    scratch: Vec<u8>,
    /// Where the sessions' MTAs emit: its output vector, and its spare
    /// text buffers, which every SMTP segment of the shard is written
    /// into — replies by the MTA, commands by the client — and handed
    /// back to once the segment is read.
    sink: MtaSink,
    /// The client's actions on one reply segment, each with the buffer
    /// a command it sends was written into.
    actions: Vec<(ClientAction, String)>,
    /// The last session's queue and reply parser, drained, for the next
    /// session to use.
    spare_queue: Simulator<Ev>,
    spare_parser: ReplyParser,
    /// The journal failed and was demoted mid-run (see
    /// [`EngineStats::durability_lost`]).
    durability_lost: bool,
    /// The tracing seam (NullTracer unless injected).
    tracer: T,
    /// Live heartbeat state, when enabled.
    heartbeat: Option<Heartbeat>,
    /// Dispatch counter driving the cheap heartbeat check mask.
    ticks: u64,
}

impl<'a, T: Tracer> SessionEngine<'a, T> {
    /// A fresh engine recording through `tracer`. Tracing is
    /// observability only: the simulation takes exactly the same steps
    /// as an untraced run (the golden determinism tests pin this).
    pub fn new(
        server: &'a ServerCore<SynthesizingAuthority>,
        config: EngineConfig,
        tracer: T,
    ) -> Self {
        let plan = FaultPlan::new(config.faults.clone(), config.latency.clone());
        let payload = PayloadPlan::new(config.payload.clone());
        SessionEngine {
            server,
            config,
            plan,
            payload,
            journal: None,
            completed: 0,
            scratch: Vec::new(),
            sink: MtaSink::default(),
            actions: Vec::new(),
            spare_queue: Simulator::new(),
            spare_parser: ReplyParser::new(),
            durability_lost: false,
            tracer,
            heartbeat: None,
            ticks: 0,
        }
    }

    /// Enable the live heartbeat: at most one `progress!` line per
    /// `interval_ms` of wall clock, labeled with `shard`.
    pub fn set_heartbeat(&mut self, shard: usize, interval_ms: u64) {
        let now = std::time::Instant::now();
        self.heartbeat = Some(Heartbeat {
            shard,
            interval: std::time::Duration::from_millis(interval_ms.max(1)),
            started: now,
            last: now,
            last_completed: 0,
        });
    }

    /// Attach a journal: every completed session is appended as one
    /// frame. On resume, attach with `JournalWriter::open_append` at the
    /// `valid_len` established by the replay whose frames are passed to
    /// [`SessionEngine::run`].
    pub fn set_journal(&mut self, writer: JournalWriter) {
        self.journal = Some(writer);
    }

    /// Run `sessions` one after another, each to completion, and return
    /// the shard's output. `replayed` holds the frames of sessions a
    /// previous run of this shard already completed (from its journal);
    /// they count towards `crash_after_sessions` and are part of the
    /// output, and `sessions` must not contain them again. The caller
    /// passes a lazy iterator, so only one session is alive at a time.
    ///
    /// Per-session failures are *contained*: a panic while dispatching an
    /// event (e.g. a poisoned MTA implementation) marks that session's
    /// record with an error outcome and ends it, instead of killing the
    /// whole shard.
    pub fn run(
        mut self,
        replayed: Vec<JournalFrame>,
        sessions: impl IntoIterator<Item = LiveSession>,
    ) -> EngineOutput {
        self.completed = replayed.len() as u64;
        let mut frames = replayed;
        frames.extend(sessions.into_iter().map(|s| self.run_session(s)));
        if let Some(w) = self.journal.as_mut() {
            if let Err(e) = w.sync() {
                // The final fsync failing means the journal tail may not
                // survive a machine crash: surface it as lost durability.
                crate::progress!("final journal sync failed: {e}");
                self.durability_lost = true;
            }
        }
        let mut output = EngineOutput::from_frames(frames, self.tracer.finish());
        output.stats.durability_lost = self.durability_lost;
        output
    }

    /// Run one session from its connection at `record.start_ms` until
    /// its queue is empty or the engine terminates it, then finish it.
    fn run_session(&mut self, mut s: LiveSession) -> JournalFrame {
        let budget = self.config.budget;
        let memory = self.config.memory;
        std::mem::swap(&mut s.queue, &mut self.spare_queue);
        std::mem::swap(&mut s.parser, &mut self.spare_parser);
        s.queue.schedule_at(s.record.start_ms, Ev::Start);
        while let Some((time_ms, ev)) = s.queue.next() {
            self.ticks += 1;
            if self.heartbeat.is_some() && self.ticks & 0xFFF == 0 {
                self.maybe_heartbeat(time_ms, s.queue.pending());
            }
            s.queued_bytes -= ev.payload_bytes();
            s.last_event_ms = time_ms;
            let elapsed = time_ms.saturating_sub(s.record.start_ms);
            if s.events >= budget.max_events || elapsed > budget.max_virtual_ms {
                // Checked *before* dispatch and *before* counting the
                // event, so a terminated session never exceeds either
                // limit.
                s.record.termination = SessionOutcome::BudgetExhausted {
                    virtual_ms: elapsed,
                    events: s.events,
                };
                s.stats.budget_exhausted += 1;
                break;
            }
            let pending = s.queue.pending() as u64;
            if (memory.max_pending_events > 0 && pending > memory.max_pending_events)
                || (memory.max_session_bytes > 0 && s.queued_bytes > memory.max_session_bytes)
            {
                // Memory backpressure: the session's *queued* work
                // exceeds its budget — shed it before its payload queue
                // can blow up the shard. Decided purely from the
                // session's own queue, so the shed point is shard- and
                // resume-invariant.
                s.record.termination = SessionOutcome::ResourceShed {
                    queued_bytes: s.queued_bytes,
                    pending_events: pending,
                };
                s.stats.resource_shed += 1;
                break;
            }
            s.events += 1;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.dispatch(&mut s, ev);
            }));
            match result {
                // A hostile-input termination ends the session at the
                // rejection even while later events are still queued.
                Ok(()) if matches!(s.record.termination, SessionOutcome::HostileInput { .. }) => {
                    break
                }
                Ok(()) => {}
                Err(payload) => {
                    // Materialized only here, on the (rare) error path;
                    // an owned `String` payload is moved, not cloned.
                    let msg = match payload.downcast::<String>() {
                        Ok(s) => *s,
                        Err(payload) => payload
                            .downcast_ref::<&str>()
                            .map_or_else(|| "panic".to_string(), |s| (*s).to_string()),
                    };
                    s.record.error = Some(msg);
                    s.stats.contained_panics += 1;
                    break;
                }
            }
        }
        // Events a terminated session left queued are dropped here.
        s.queue.clear();
        s.parser.clear();
        std::mem::swap(&mut s.queue, &mut self.spare_queue);
        std::mem::swap(&mut s.parser, &mut self.spare_parser);
        self.finish_session(s)
    }

    /// Emit the rate-limited heartbeat line, if its interval elapsed.
    /// Pure observability: reads counters, emits one `progress!` line.
    fn maybe_heartbeat(&mut self, virtual_ms: u64, pending: usize) {
        let completed = self.completed;
        let Some(hb) = self.heartbeat.as_mut() else {
            return;
        };
        if hb.last.elapsed() < hb.interval {
            return;
        }
        let elapsed = hb.started.elapsed().as_secs_f64().max(1e-9);
        let rate = completed as f64 / elapsed;
        let delta = completed.saturating_sub(hb.last_completed);
        hb.last = std::time::Instant::now();
        hb.last_completed = completed;
        let shard = hb.shard;
        crate::progress!(
            "shard {shard} heartbeat: {completed} sessions done (+{delta}, {rate:.0}/s), \
             {pending} pending events, t={virtual_ms}ms"
        );
    }

    /// Finish a session: fold its retries into its fault counters and
    /// journal it as one frame. Fires the deterministic
    /// `crash_after_sessions` injection once the completion count
    /// (replayed + live) reaches the configured N — *after* the N-th
    /// frame is durably journaled, so a resumed run replays exactly N
    /// sessions and sails past the trigger. (A supervised restart runs
    /// with the trigger disarmed: see `CampaignWorld::run_shard`.)
    fn finish_session(&mut self, mut s: LiveSession) -> JournalFrame {
        if self.tracer.enabled() {
            let termination = match (&s.record.error, &s.record.termination) {
                (Some(_), _) => "contained_panic",
                (None, SessionOutcome::Completed) => "completed",
                (None, SessionOutcome::BudgetExhausted { .. }) => "budget_exhausted",
                (None, SessionOutcome::HostileInput { .. }) => "hostile_input",
                (None, SessionOutcome::ResourceShed { .. }) => "resource_shed",
            };
            self.tracer.record(
                s.last_event_ms,
                s.record.session_id,
                TraceKind::SessionEnd { termination },
            );
        }
        if let Some(outcome) = &s.record.outcome {
            s.stats.client_retries += u64::from(outcome.retries);
        }
        let frame = JournalFrame {
            record: s.record,
            queries: s.queries,
            faults: s.stats,
            events: s.events,
            end_ms: s.last_event_ms,
        };
        if let Some(w) = self.journal.as_mut() {
            if let Err(e) = w.append(&frame) {
                // Graceful degradation: a failed append (full disk, short
                // write, failed fsync) demotes this shard to non-durable
                // mode. Results stay complete and correct — only crash
                // recovery coverage is lost, and that loss is visible in
                // `durability_lost`. The torn frame the failure may have
                // left behind is exactly what replay's CRC/prefix salvage
                // is built to drop.
                crate::progress!("journal demoted to non-durable: {e}");
                self.journal = None;
                self.durability_lost = true;
            }
        }
        self.completed += 1;
        let crash_after = self.config.faults.crash_after_sessions;
        if crash_after > 0 && self.completed == crash_after {
            if let Some(w) = self.journal.as_mut() {
                let _ = w.sync();
            }
            panic!("fault injection: shard crash after {crash_after} completed sessions");
        }
        frame
    }

    /// Record one trace event for session `s` at its current virtual
    /// time. Call sites guard with `self.tracer.enabled()` so payload
    /// construction never happens on the untraced hot path.
    #[inline]
    fn trace(&mut self, s: &LiveSession, kind: TraceKind) {
        self.tracer
            .record(s.queue.now_ms(), s.record.session_id, kind);
    }

    fn one_way_client(&self, s: &LiveSession) -> u64 {
        self.config
            .latency
            .one_way_ms(&self.config.client_ip, &s.mta_ip)
    }

    fn one_way_auth(&self, s: &LiveSession) -> u64 {
        self.config
            .latency
            .one_way_ms(&s.mta_ip, &self.config.auth_ip)
    }

    /// The fate of the next UDP datagram of session `s`. Keyed by the
    /// campaign-global session id and the session's own datagram cursor,
    /// so the decision is independent of shard count and run order.
    fn datagram_fate(&self, s: &mut LiveSession, may_truncate: bool) -> DatagramFate {
        let sid = s.record.session_id as u64;
        self.plan.datagram_fate(sid, &mut s.faults, may_truncate)
    }

    /// The fate of the next SMTP segment of session `s`.
    fn conn_fault(&self, s: &mut LiveSession) -> ConnFault {
        let sid = s.record.session_id as u64;
        self.plan.conn_fault(sid, &mut s.faults)
    }

    /// Maybe mutate the next DNS response payload of session `s` in
    /// place (keyed like the fate decisions: campaign-global session id
    /// plus the session's payload cursor). Content-level kinds (SPF
    /// cycle, CNAME self-chain; only offered when the session's profile
    /// is `hostile_dns`) are synthesized here from the response's own
    /// question — the plan itself never sees domain names.
    fn mutate_dns_payload(&self, s: &mut LiveSession, bytes: &mut Vec<u8>) -> Option<DnsMutation> {
        let sid = s.record.session_id as u64;
        let mutation = self
            .payload
            .mutate_dns(sid, &mut s.faults, bytes, s.hostile_dns);
        if let Some(kind) = mutation {
            s.stats.dns_payload_mutations += 1;
            if matches!(kind, DnsMutation::SpfCycle | DnsMutation::CnameChain) {
                if let Some(replacement) = crate::hostile::synthesize_hostile_dns(bytes, kind) {
                    *bytes = replacement;
                }
            }
        }
        mutation
    }

    /// Maybe mutate the next SMTP reply payload of session `s` in
    /// place; true when a mutation was applied.
    fn mutate_smtp_payload(&self, s: &mut LiveSession, text: &mut String) -> bool {
        let sid = s.record.session_id as u64;
        let mutated = self.payload.mutate_smtp(sid, &mut s.faults, text).is_some();
        if mutated {
            s.stats.smtp_payload_mutations += 1;
        }
        mutated
    }

    fn dispatch(&mut self, s: &mut LiveSession, ev: Ev) {
        match ev {
            Ev::Start => {
                if self.tracer.enabled() {
                    self.trace(s, TraceKind::SessionStart);
                }
                self.feed_mta(s, MtaInput::Connected);
            }
            Ev::ToMta(text) => {
                if self.tracer.enabled() {
                    let verb = text.split_whitespace().next().unwrap_or("").to_string();
                    self.trace(s, TraceKind::SmtpCommand { verb });
                }
                let mut sink = std::mem::take(&mut self.sink);
                for line in crlf_lines(&text) {
                    let line = line.trim_end_matches(['\r', '\n']);
                    s.mta.handle(MtaInput::Line(line), &mut sink);
                }
                sink.recycle(text);
                self.handle_mta_outputs(s, sink);
            }
            Ev::ToClient(text) => {
                let mut actions = std::mem::take(&mut self.actions);
                let mut refused = None;
                for line in crlf_lines(&text) {
                    let line = line.trim_end_matches(['\r', '\n']);
                    if line.is_empty() {
                        continue;
                    }
                    match s.parser.push_line(line) {
                        Ok(Some(reply)) => {
                            if self.tracer.enabled() {
                                let kind = TraceKind::SmtpReply { code: reply.code };
                                let now = s.queue.now_ms();
                                self.tracer.record(now, s.record.session_id, kind);
                            }
                            let mut out = self.sink.buffer();
                            let action = s.client.on_reply(reply, &mut out);
                            actions.push((action, out));
                        }
                        Ok(None) => {}
                        Err(e) => {
                            refused = Some(e);
                            break;
                        }
                    }
                }
                self.sink.recycle(text);
                if let Some(e) = refused {
                    // The probe client fails closed on a reply its
                    // parser refuses: classify the rejection, settle the
                    // outcome, and end the session here (a measurement
                    // probe has no business guessing at garbage). What
                    // it would have sent on the segment's earlier
                    // replies is not sent.
                    for (_, out) in actions.drain(..) {
                        self.sink.recycle(out);
                    }
                    self.actions = actions;
                    let class = crate::hostile::classify_reply(&e);
                    if self.tracer.enabled() {
                        let class = format!("{class:?}");
                        self.trace(s, TraceKind::SmtpRejected { class });
                    }
                    s.stats.malformed.record(class);
                    s.stats.hostile_inputs += 1;
                    s.record.termination = SessionOutcome::HostileInput { class };
                    if s.record.outcome.is_none() {
                        s.record.outcome = Some(s.client.on_disconnect());
                    }
                    // The client hangs up; the MTA observes the
                    // disconnect. The session ends here, and anything
                    // the MTA schedules is dropped with its queue.
                    self.feed_mta(s, MtaInput::Disconnected);
                    return;
                }
                for (action, out) in actions.drain(..) {
                    self.handle_client_action(s, action, out);
                }
                self.actions = actions;
            }
            Ev::ClientPauseDone => {
                let mut out = self.sink.buffer();
                let action = s.client.on_pause_elapsed(&mut out);
                self.handle_client_action(s, action, out);
            }
            Ev::MtaTimer(token) => {
                self.feed_mta(s, MtaInput::Timer { token });
            }
            Ev::DnsArrive(core_id, bytes, transport, via_ipv6) => {
                // Encode the reply into the engine's scratch buffer
                // (taken out of `self` for the duration so the borrow
                // checker sees disjoint pieces, returned below with its
                // allocation intact for the next reply).
                let mut reply = std::mem::take(&mut self.scratch);
                let handled = self
                    .server
                    .handle_with(&bytes, transport, via_ipv6, &mut reply);
                // Log the decoded question; its name attributes it
                // (§4.5). Buffered on the session so a completed session
                // journals as one self-contained frame; the campaign
                // merge sorts every frame's queries into canonical
                // order once.
                if let Some(q) = handled.question {
                    s.queries.push(QueryRecord {
                        time_ms: s.queue.now_ms(),
                        session: s.record.session_id,
                        qname: q.name,
                        qtype: q.rtype,
                        transport,
                        via_ipv6,
                    });
                }
                if let Some(delay_ms) = handled.delay_ms {
                    let rtt = self.one_way_auth(s);
                    let base = delay_ms + rtt;
                    // Hostile-peer payload mutation happens at the
                    // *server* (before the network decides the
                    // datagram's fate), so it applies on TCP too: a
                    // hostile peer is not bound by transport
                    // reliability.
                    let mutation = self.mutate_dns_payload(s, &mut reply);
                    if self.tracer.enabled() {
                        if let Some(kind) = mutation {
                            self.trace(
                                s,
                                TraceKind::FaultDnsMutation {
                                    kind: format!("{kind:?}"),
                                },
                            );
                        }
                    }
                    // Response-side faults (UDP only; TCP is reliable,
                    // and only responses can be meaningfully truncated).
                    let fate = if transport == Transport::Udp {
                        self.datagram_fate(s, true)
                    } else {
                        DatagramFate::Deliver
                    };
                    if self.tracer.enabled() {
                        if let Some(label) = fate_label(fate) {
                            self.trace(
                                s,
                                TraceKind::FaultDatagram {
                                    fate: label,
                                    query_side: false,
                                },
                            );
                        }
                    }
                    match fate {
                        DatagramFate::Drop => {
                            s.stats.dns_dropped += 1;
                            // The armed DnsTimeout will fire the retry.
                        }
                        DatagramFate::Truncate => {
                            s.stats.dns_truncated += 1;
                            if let Some(mangled) = mailval_dns::truncate_response(&reply) {
                                reply = mangled;
                            }
                            let bytes: Arc<[u8]> = reply.as_slice().into();
                            s.sched(base, Ev::DnsReturn(core_id, bytes, via_ipv6));
                        }
                        DatagramFate::Duplicate { gap_ms } => {
                            s.stats.dns_duplicated += 1;
                            let bytes: Arc<[u8]> = reply.as_slice().into();
                            s.sched(base, Ev::DnsReturn(core_id, Arc::clone(&bytes), via_ipv6));
                            // The copy arrives after the original; the
                            // resolver sees it as Idle (lookup settled).
                            s.sched(base + gap_ms, Ev::DnsReturn(core_id, bytes, via_ipv6));
                        }
                        DatagramFate::Delay { extra_ms } => {
                            s.stats.dns_delayed += 1;
                            let bytes: Arc<[u8]> = reply.as_slice().into();
                            s.sched(base + extra_ms, Ev::DnsReturn(core_id, bytes, via_ipv6));
                        }
                        DatagramFate::Deliver => {
                            let bytes: Arc<[u8]> = reply.as_slice().into();
                            s.sched(base, Ev::DnsReturn(core_id, bytes, via_ipv6));
                        }
                    }
                }
                self.scratch = reply;
            }
            Ev::DnsReturn(core_id, bytes, via_ipv6) => {
                if self.tracer.enabled() {
                    self.trace(
                        s,
                        TraceKind::DnsRecv {
                            core_id,
                            bytes: bytes.len(),
                        },
                    );
                }
                let now = s.queue.now_ms();
                let event = s
                    .resolver
                    .on_upstream_response(core_id, &bytes, via_ipv6, now);
                // The resolver failed closed (ServFail) on anything its
                // decoder rejected; classify those rejections. DNS-level
                // garbage never ends a session — the dialogue continues
                // on the failed lookup.
                for e in s.resolver.take_wire_errors() {
                    let class = crate::hostile::classify_wire(&e);
                    s.stats.malformed.record(class);
                }
                self.handle_resolver_event(s, event);
            }
            Ev::DnsTimeout(core_id, via_ipv6) => {
                let now = s.queue.now_ms();
                let event = s.resolver.on_timeout(core_id, via_ipv6, now);
                // A stale timer pop (lookup already settled) comes back
                // Idle — simulator bookkeeping, not a wire fact, so it
                // leaves no trace.
                if self.tracer.enabled() && !matches!(event, ResolverEvent::Idle) {
                    self.trace(s, TraceKind::DnsTimeout { core_id });
                }
                self.handle_resolver_event(s, event);
            }
            Ev::MtaDns(qid, outcome) => {
                self.feed_mta(s, MtaInput::DnsFinished { qid, outcome });
            }
            Ev::ServerClosed => {
                if self.tracer.enabled() {
                    self.trace(s, TraceKind::ServerClose);
                }
                // The server-side FIN reached the client. If the client
                // already finished through its own close path the session
                // record is settled; otherwise capture the partial
                // outcome (§6.2: MTA-initiated disconnects, e.g.
                // blacklist rejections that slam the connection).
                if s.record.outcome.is_none() {
                    s.record.outcome = Some(s.client.on_disconnect());
                    s.record.closed_by_server = true;
                }
            }
            Ev::ConnReset => {
                if self.tracer.enabled() {
                    self.trace(s, TraceKind::ConnReset);
                }
                // An injected reset reached the wire: the segment that
                // carried it is gone and both ends observe a disconnect.
                // Unlike `ServerClosed` this is the *network's* doing,
                // so `closed_by_server` stays false.
                if s.record.outcome.is_none() {
                    s.record.outcome = Some(s.client.on_disconnect());
                }
                self.feed_mta(s, MtaInput::Disconnected);
            }
        }
    }

    /// Feed `input` to the session's MTA and act on what it emits.
    fn feed_mta(&mut self, s: &mut LiveSession, input: MtaInput<'_>) {
        let mut sink = std::mem::take(&mut self.sink);
        s.mta.handle(input, &mut sink);
        self.handle_mta_outputs(s, sink);
    }

    /// Act on the outputs in `sink`, in order, then keep the sink (its
    /// outputs emptied) for the next batch.
    fn handle_mta_outputs(&mut self, s: &mut LiveSession, mut sink: MtaSink) {
        let mut outputs = std::mem::take(&mut sink.outputs);
        for output in outputs.drain(..) {
            match output {
                MtaOutput::Smtp(mut text) => {
                    // Hostile-peer reply mutation happens at the server,
                    // before the network decides the segment's fate.
                    if self.mutate_smtp_payload(s, &mut text) && self.tracer.enabled() {
                        self.trace(s, TraceKind::FaultSmtpMutation);
                    }
                    // Any stall the MTA declared in this batch delays the
                    // reply segment that follows it.
                    let stall = std::mem::take(&mut s.stall_credit_ms);
                    let delay = self.one_way_client(s) + stall;
                    match self.conn_fault(s) {
                        ConnFault::Reset => {
                            s.stats.conn_resets += 1;
                            if self.tracer.enabled() {
                                self.trace(s, TraceKind::FaultConn { kind: "reset" });
                            }
                            sink.recycle(text);
                            s.sched(delay, Ev::ConnReset);
                        }
                        ConnFault::Stall { extra_ms } => {
                            s.stats.conn_stalls += 1;
                            if self.tracer.enabled() {
                                self.trace(s, TraceKind::FaultConn { kind: "stall" });
                            }
                            s.sched(delay + extra_ms, Ev::ToClient(text));
                        }
                        ConnFault::Deliver => {
                            s.sched(delay, Ev::ToClient(text));
                        }
                    }
                }
                MtaOutput::Stall { delay_ms } => {
                    s.stats.mta_stalls += 1;
                    s.stall_credit_ms += delay_ms;
                    if self.tracer.enabled() {
                        self.trace(s, TraceKind::MtaStall { delay_ms });
                    }
                }
                MtaOutput::Resolve { qid, name, rtype } => {
                    let now = s.queue.now_ms();
                    // Snapshot the cache-hit counter around the resolve
                    // call: a lookup answered synchronously from cache is
                    // marked `cached` so the exporter doesn't draw a
                    // zero-length wire span for it.
                    let traced = if self.tracer.enabled() {
                        Some((name.to_string(), format!("{rtype:?}")))
                    } else {
                        None
                    };
                    let hits_before = s.resolver.cache_hits();
                    let event = s.resolver.resolve(qid, name, rtype, now);
                    if let Some((qname, qtype)) = traced {
                        let cached = s.resolver.cache_hits() > hits_before;
                        self.trace(
                            s,
                            TraceKind::ResolveStart {
                                qid,
                                name: qname,
                                rtype: qtype,
                                cached,
                            },
                        );
                    }
                    self.handle_resolver_event(s, event);
                }
                MtaOutput::SetTimer { token, delay_ms } => {
                    s.sched(delay_ms, Ev::MtaTimer(token));
                }
                MtaOutput::Close => {
                    // Propagate the server-initiated disconnect to the
                    // client after the wire delay (it travels with, and
                    // sorts after, any final reply emitted in the same
                    // output batch).
                    let delay = self.one_way_client(s);
                    s.sched(delay, Ev::ServerClosed);
                }
                MtaOutput::Event(MtaEvent::MessageAccepted) => {
                    s.record.delivery_time_ms = Some(s.queue.now_ms());
                    if self.tracer.enabled() {
                        self.trace(s, TraceKind::Delivered);
                    }
                }
                MtaOutput::Event(MtaEvent::TempFailed) => {
                    s.stats.tempfails += 1;
                    if self.tracer.enabled() {
                        self.trace(s, TraceKind::TempFail);
                    }
                }
                MtaOutput::Event(MtaEvent::SpfConcluded(result)) if self.tracer.enabled() => {
                    self.trace(
                        s,
                        TraceKind::SpfConcluded {
                            result: format!("{result:?}"),
                        },
                    );
                }
                MtaOutput::Event(MtaEvent::SpfLookups(count)) if self.tracer.enabled() => {
                    self.trace(s, TraceKind::SpfLookups { count });
                }
                MtaOutput::Event(MtaEvent::DkimConcluded(pass)) if self.tracer.enabled() => {
                    self.trace(s, TraceKind::DkimConcluded { pass });
                }
                MtaOutput::Event(MtaEvent::DmarcConcluded(pass)) if self.tracer.enabled() => {
                    self.trace(s, TraceKind::DmarcConcluded { pass });
                }
                MtaOutput::Event(MtaEvent::SpfHostile {
                    cycle_detected,
                    lookups_exhausted,
                }) => {
                    if self.tracer.enabled() {
                        self.trace(
                            s,
                            TraceKind::SpfHostile {
                                cycle: cycle_detected,
                                exhausted: lookups_exhausted,
                            },
                        );
                    }
                    // Classification only: the evaluator already failed
                    // closed with a deterministic PermError and the
                    // session continues. Counted only under an active
                    // payload campaign (or a hostile zone) — the paper's
                    // own probe policies deliberately exceed the lookup
                    // limits, and those measurements are not attacks.
                    if self.payload.is_active() || s.hostile_dns {
                        let stats = &mut s.stats;
                        if cycle_detected {
                            stats.malformed.record(MalformedClass::SpfPolicyLoop);
                        }
                        if lookups_exhausted {
                            stats.malformed.record(MalformedClass::SpfLookupExhausted);
                        }
                    }
                }
                MtaOutput::Event(_) => {}
            }
        }
        sink.outputs = outputs;
        self.sink = sink;
    }

    fn handle_resolver_event(&mut self, s: &mut LiveSession, event: ResolverEvent) {
        match event {
            ResolverEvent::Finished { qid, outcome } => {
                if matches!(outcome, ResolveOutcome::Timeout) {
                    s.stats.dns_timeouts += 1;
                }
                if self.tracer.enabled() {
                    self.trace(
                        s,
                        TraceKind::ResolveDone {
                            qid,
                            outcome: outcome_label(&outcome),
                        },
                    );
                }
                s.sched(self.config.local_hop_ms, Ev::MtaDns(qid, outcome));
            }
            ResolverEvent::Send(UpstreamSend {
                core_id,
                bytes,
                transport,
                via_ipv6,
                timeout_ms,
            }) => {
                let rtt = self.one_way_auth(s);
                // The attempt timeout is ALWAYS armed, whatever happens
                // to the datagram: a dropped query must trip
                // `ResolverCore::on_timeout`'s retry machinery.
                s.sched(timeout_ms, Ev::DnsTimeout(core_id, via_ipv6));
                if self.tracer.enabled() {
                    self.trace(
                        s,
                        TraceKind::DnsSend {
                            core_id,
                            transport: match transport {
                                Transport::Udp => "udp",
                                Transport::Tcp => "tcp",
                            },
                            via_ipv6,
                            bytes: bytes.len(),
                        },
                    );
                }
                let bytes: Arc<[u8]> = bytes.into();
                // Query-side faults (UDP only; queries can't truncate).
                let fate = if transport == Transport::Udp {
                    self.datagram_fate(s, false)
                } else {
                    DatagramFate::Deliver
                };
                if self.tracer.enabled() {
                    if let Some(label) = fate_label(fate) {
                        self.trace(
                            s,
                            TraceKind::FaultDatagram {
                                fate: label,
                                query_side: true,
                            },
                        );
                    }
                }
                match fate {
                    DatagramFate::Drop => {
                        s.stats.dns_dropped += 1;
                    }
                    DatagramFate::Duplicate { gap_ms } => {
                        s.stats.dns_duplicated += 1;
                        s.sched(
                            rtt,
                            Ev::DnsArrive(core_id, Arc::clone(&bytes), transport, via_ipv6),
                        );
                        s.sched(
                            rtt + gap_ms,
                            Ev::DnsArrive(core_id, bytes, transport, via_ipv6),
                        );
                    }
                    DatagramFate::Delay { extra_ms } => {
                        s.stats.dns_delayed += 1;
                        s.sched(
                            rtt + extra_ms,
                            Ev::DnsArrive(core_id, bytes, transport, via_ipv6),
                        );
                    }
                    DatagramFate::Deliver | DatagramFate::Truncate => {
                        s.sched(rtt, Ev::DnsArrive(core_id, bytes, transport, via_ipv6));
                    }
                }
            }
            ResolverEvent::Idle => {}
        }
    }

    /// Carry out the client's `action`; `text` is the buffer a command
    /// it sends was written into.
    fn handle_client_action(&mut self, s: &mut LiveSession, action: ClientAction, text: String) {
        match action {
            ClientAction::Send => {
                let delay = self.one_way_client(s);
                // The segment is the client's buffer itself, moved into
                // the event: no copy.
                match self.conn_fault(s) {
                    ConnFault::Reset => {
                        s.stats.conn_resets += 1;
                        if self.tracer.enabled() {
                            self.trace(s, TraceKind::FaultConn { kind: "reset" });
                        }
                        self.sink.recycle(text);
                        s.sched(delay, Ev::ConnReset);
                    }
                    ConnFault::Stall { extra_ms } => {
                        s.stats.conn_stalls += 1;
                        if self.tracer.enabled() {
                            self.trace(s, TraceKind::FaultConn { kind: "stall" });
                        }
                        s.sched(delay + extra_ms, Ev::ToMta(text));
                    }
                    ConnFault::Deliver => {
                        s.sched(delay, Ev::ToMta(text));
                    }
                }
            }
            ClientAction::Pause(ms) => {
                self.sink.recycle(text);
                if ms > 0 {
                    if self.tracer.enabled() {
                        self.trace(s, TraceKind::ClientPause { ms });
                    }
                    s.sched(ms, Ev::ClientPauseDone);
                }
            }
            ClientAction::Close(outcome) => {
                self.sink.recycle(text);
                if self.tracer.enabled() {
                    self.trace(
                        s,
                        TraceKind::ClientClose {
                            delivered: outcome.delivered,
                            retries: outcome.retries,
                        },
                    );
                }
                s.record.outcome = Some(*outcome);
                self.feed_mta(s, MtaInput::Disconnected);
            }
        }
    }
}

/// Trace label for a non-trivial datagram fate (`None` for a normal
/// delivery, which is not a fault and leaves no trace).
fn fate_label(fate: DatagramFate) -> Option<&'static str> {
    match fate {
        DatagramFate::Deliver => None,
        DatagramFate::Drop => Some("drop"),
        DatagramFate::Truncate => Some("truncate"),
        DatagramFate::Duplicate { .. } => Some("duplicate"),
        DatagramFate::Delay { .. } => Some("delay"),
    }
}

/// Trace label for a lookup outcome.
fn outcome_label(outcome: &ResolveOutcome) -> &'static str {
    match outcome {
        ResolveOutcome::Records(_) => "records",
        ResolveOutcome::NoData => "nodata",
        ResolveOutcome::NxDomain => "nxdomain",
        ResolveOutcome::Timeout => "timeout",
        ResolveOutcome::ServFail => "servfail",
    }
}
