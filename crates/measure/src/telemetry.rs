//! Deterministic telemetry: virtual-time tracing, a metrics registry,
//! and exportable run reports.
//!
//! Everything in this module follows the [`crate::campaign::PhaseTimes`]
//! precedent: telemetry is **observability only**. Trace events and
//! metrics are never journaled, never hashed into
//! [`crate::campaign::CampaignResult::content_hash`], and never join a
//! store key — a traced run and an untraced run of the same campaign
//! produce byte-identical results, which the golden determinism test
//! pins with tracing both off and on.
//!
//! The tracing seam is the [`Tracer`] trait. The engine is generic over
//! it with [`NullTracer`] as the default: every hook site is guarded by
//! `if self.tracer.enabled()`, and `NullTracer::enabled` is a constant
//! `false`, so after monomorphization the disabled hooks are dead code
//! — zero allocations and zero branch cost on the hot path. The
//! [`RecordingTracer`] records one [`TraceEvent`] per hook with a
//! per-session sequence number; because sessions never interact, a
//! session's own event stream is invariant under shard count and
//! kill-and-resume, and the canonical `(time_ms, session, seq)` sort
//! makes the *merged* stream byte-identical for any shard fan-out.
//!
//! Replayed sessions (journal resume) emit no trace events: telemetry
//! is not journaled, so a resumed run's trace covers exactly the
//! sessions it actually simulated.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One traced occurrence inside a session, in virtual time.
///
/// Variants carry only what the export needs; labels are `&'static str`
/// where the vocabulary is closed and owned strings only where the
/// value is data-dependent (names, mutation kinds). Allocation happens
/// exclusively under an `enabled()` guard.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// The session's connection-establishment event fired.
    SessionStart,
    /// The session finished; `termination` labels how.
    SessionEnd {
        /// `completed`, `budget_exhausted`, `hostile_input`,
        /// `resource_shed` or `contained_panic`.
        termination: &'static str,
    },
    /// The MTA accepted the message for delivery.
    Delivered,
    /// The MTA issued a 451 tempfail (greylisting).
    TempFail,
    /// A client command batch arrived at the MTA.
    SmtpCommand {
        /// First verb of the batch (`EHLO`, `MAIL`, ...).
        verb: String,
    },
    /// The client parsed one complete server reply.
    SmtpReply {
        /// Three-digit reply code.
        code: u16,
    },
    /// The client's parser refused a server reply (hostile input).
    SmtpRejected {
        /// The [`mailval_simnet::MalformedClass`] label.
        class: String,
    },
    /// The client scheduled a backoff pause (greylist retry rounds).
    ClientPause {
        /// Pause length, virtual ms.
        ms: u64,
    },
    /// The client closed the session.
    ClientClose {
        /// Message delivered?
        delivered: bool,
        /// Transaction retries attempted.
        retries: u32,
    },
    /// The server-side FIN reached the client.
    ServerClose,
    /// The MTA stalled its next reply (flaky-implementation behavior).
    MtaStall {
        /// Extra delay, ms.
        delay_ms: u64,
    },
    /// An SPF evaluation concluded.
    SpfConcluded {
        /// The [`mailval_spf::SpfResult`] label.
        result: String,
    },
    /// Completed DNS lookups of the concluded SPF evaluation
    /// (per-term lookup depth; the §6.1 lookup-limit analyses).
    SpfLookups {
        /// Lookups the evaluation completed.
        count: u32,
    },
    /// An SPF evaluation tripped a hostile-policy guard.
    SpfHostile {
        /// An include/redirect cycle was detected.
        cycle: bool,
        /// A lookup budget was exhausted.
        exhausted: bool,
    },
    /// A DKIM verification concluded.
    DkimConcluded {
        /// Signature verified?
        pass: bool,
    },
    /// A DMARC evaluation concluded.
    DmarcConcluded {
        /// Policy passed?
        pass: bool,
    },
    /// The MTA asked its resolver for a lookup (lookup-span open).
    ResolveStart {
        /// MTA-side request id (pairs with [`TraceKind::ResolveDone`]).
        qid: u64,
        /// Queried name.
        name: String,
        /// Record type label.
        rtype: String,
        /// Served synchronously from the resolver cache.
        cached: bool,
    },
    /// A lookup finished (lookup-span close).
    ResolveDone {
        /// MTA-side request id.
        qid: u64,
        /// `records`, `nodata`, `nxdomain`, `timeout` or `servfail`.
        outcome: &'static str,
    },
    /// The resolver transmitted an upstream query (attempt-span open).
    DnsSend {
        /// Resolver-core attempt id.
        core_id: u16,
        /// `udp` or `tcp` (TCP = truncation fallback).
        transport: &'static str,
        /// Sent over the IPv6 apparatus endpoint.
        via_ipv6: bool,
        /// Encoded query size.
        bytes: usize,
    },
    /// An upstream response reached the resolver (attempt-span close).
    DnsRecv {
        /// Resolver-core attempt id.
        core_id: u16,
        /// Response size on the wire.
        bytes: usize,
    },
    /// An attempt timeout tripped the retry machinery.
    DnsTimeout {
        /// Resolver-core attempt id.
        core_id: u16,
    },
    /// The fault plan decided a datagram's fate.
    FaultDatagram {
        /// `drop`, `truncate`, `duplicate` or `delay`.
        fate: &'static str,
        /// Query-side (true) or response-side (false).
        query_side: bool,
    },
    /// The fault plan injected a connection fault.
    FaultConn {
        /// `reset` or `stall`.
        kind: &'static str,
    },
    /// The payload plan mutated a DNS response in flight.
    FaultDnsMutation {
        /// The [`mailval_simnet::DnsMutation`] label.
        kind: String,
    },
    /// The payload plan mutated an SMTP reply in flight.
    FaultSmtpMutation,
    /// An injected connection reset reached the wire.
    ConnReset,
}

impl TraceKind {
    /// Short stable name for exports.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::SessionStart => "session_start",
            TraceKind::SessionEnd { .. } => "session_end",
            TraceKind::Delivered => "delivered",
            TraceKind::TempFail => "tempfail",
            TraceKind::SmtpCommand { .. } => "smtp_command",
            TraceKind::SmtpReply { .. } => "smtp_reply",
            TraceKind::SmtpRejected { .. } => "smtp_rejected",
            TraceKind::ClientPause { .. } => "client_pause",
            TraceKind::ClientClose { .. } => "client_close",
            TraceKind::ServerClose => "server_close",
            TraceKind::MtaStall { .. } => "mta_stall",
            TraceKind::SpfConcluded { .. } => "spf_concluded",
            TraceKind::SpfLookups { .. } => "spf_lookups",
            TraceKind::SpfHostile { .. } => "spf_hostile",
            TraceKind::DkimConcluded { .. } => "dkim_concluded",
            TraceKind::DmarcConcluded { .. } => "dmarc_concluded",
            TraceKind::ResolveStart { .. } => "resolve_start",
            TraceKind::ResolveDone { .. } => "resolve_done",
            TraceKind::DnsSend { .. } => "dns_send",
            TraceKind::DnsRecv { .. } => "dns_recv",
            TraceKind::DnsTimeout { .. } => "dns_timeout",
            TraceKind::FaultDatagram { .. } => "fault_datagram",
            TraceKind::FaultConn { .. } => "fault_conn",
            TraceKind::FaultDnsMutation { .. } => "fault_dns_mutation",
            TraceKind::FaultSmtpMutation => "fault_smtp_mutation",
            TraceKind::ConnReset => "conn_reset",
        }
    }
}

/// One trace record: what happened, when (virtual ms), to which
/// session, and its per-session emission index.
///
/// `(session, seq)` is unique and `(time_ms, session, seq)` is the
/// canonical sort key: a session's events are emitted at non-decreasing
/// virtual time in an order that depends only on the session's own
/// inputs, so the sorted stream is invariant under shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time, ms.
    pub time_ms: u64,
    /// Campaign-global session id.
    pub session: usize,
    /// Per-session emission index (0, 1, 2, ...).
    pub seq: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// Sort into the canonical, shard-invariant order.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_unstable_by_key(|e| (e.time_ms, e.session, e.seq));
}

// ---------------------------------------------------------------------------
// The tracer seam
// ---------------------------------------------------------------------------

/// The engine's tracing seam.
///
/// The engine is generic over this trait with [`NullTracer`] as the
/// default type parameter; every hook site checks
/// [`Tracer::enabled`] before constructing event payloads, so the
/// disabled impl monomorphizes to nothing.
pub trait Tracer {
    /// Is this tracer recording? Hook sites guard on this; the null
    /// impl returns a constant `false` that dead-codes the hook away.
    fn enabled(&self) -> bool;
    /// Record one event. Only called under an `enabled()` guard.
    fn record(&mut self, time_ms: u64, session: usize, kind: TraceKind);
    /// Consume the recording into a shard's telemetry (`None` for the
    /// null tracer). Events come back canonically sorted.
    fn finish(&mut self) -> Option<Telemetry>;
}

/// The zero-cost disabled tracer (the engine default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&mut self, _time_ms: u64, _session: usize, _kind: TraceKind) {}
    fn finish(&mut self) -> Option<Telemetry> {
        None
    }
}

/// A tracer that records everything, assigning per-session sequence
/// numbers as it goes.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    events: Vec<TraceEvent>,
    next_seq: HashMap<usize, u32>,
}

impl Tracer for RecordingTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, time_ms: u64, session: usize, kind: TraceKind) {
        let seq = self.next_seq.entry(session).or_insert(0);
        let s = *seq;
        *seq += 1;
        self.events.push(TraceEvent {
            time_ms,
            session,
            seq: s,
            kind,
        });
    }

    fn finish(&mut self) -> Option<Telemetry> {
        let mut events = std::mem::take(&mut self.events);
        self.next_seq.clear();
        sort_events(&mut events);
        let metrics = MetricsRegistry::from_events(&events);
        Some(Telemetry { events, metrics })
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A log2-bucketed histogram of virtual-time (or count) values.
///
/// Bucket `i > 0` counts values `v` with `2^(i-1) <= v < 2^i`; bucket 0
/// counts zeros. 33 buckets cover the u64 values the simulation can
/// produce (virtual times beyond 2^32 ms exceed any session budget).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Log2 buckets (see type docs).
    pub buckets: [u64; 33],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; 33],
        }
    }
}

impl Histogram {
    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(32)
        };
        self.buckets[idx] += 1;
    }

    /// Fold another histogram in (summation: order-invariant).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Upper bound (exclusive) of bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            1
        } else {
            1u64 << i
        }
    }
}

/// Counters and histograms, keyed by stable names.
///
/// Built per shard from that shard's sorted event stream and merged by
/// summation over `BTreeMap` keys — addition commutes, so the merged
/// registry is identical for any shard count or merge order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Log2-bucketed histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `by` to counter `name`.
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Record `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Fold another registry in (summation over keys).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Derive the full registry from an event stream. Metrics are a
    /// pure function of the trace, so per-shard registries built here
    /// and merged equal the registry built from the merged stream.
    pub fn from_events(events: &[TraceEvent]) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        // Open spans: lookup start times by (session, qid), session
        // start times by session.
        let mut lookups: HashMap<(usize, u64), u64> = HashMap::new();
        let mut starts: HashMap<usize, u64> = HashMap::new();
        for e in events {
            match &e.kind {
                TraceKind::SessionStart => {
                    m.inc("sessions", 1);
                    starts.insert(e.session, e.time_ms);
                }
                TraceKind::SessionEnd { termination } => {
                    m.inc(&format!("sessions_{termination}"), 1);
                    if let Some(t0) = starts.remove(&e.session) {
                        m.observe("session_ms", e.time_ms.saturating_sub(t0));
                    }
                }
                TraceKind::Delivered => m.inc("deliveries", 1),
                TraceKind::TempFail => m.inc("tempfails", 1),
                TraceKind::SmtpCommand { .. } => m.inc("smtp_commands", 1),
                TraceKind::SmtpReply { code } => {
                    m.inc("smtp_replies", 1);
                    m.inc(&format!("smtp_replies_{}xx", code / 100), 1);
                }
                TraceKind::SmtpRejected { .. } => m.inc("smtp_rejected", 1),
                TraceKind::ClientPause { .. } => m.inc("client_pauses", 1),
                TraceKind::ClientClose { retries, .. } => {
                    m.inc("client_retries", u64::from(*retries));
                    m.observe("client_retries_per_session", u64::from(*retries));
                }
                TraceKind::ServerClose => m.inc("server_closes", 1),
                TraceKind::MtaStall { .. } => m.inc("mta_stalls", 1),
                TraceKind::SpfConcluded { result } => {
                    m.inc(&format!("spf_{}", result.to_ascii_lowercase()), 1);
                }
                TraceKind::SpfLookups { count } => {
                    m.observe("spf_lookups", u64::from(*count));
                }
                TraceKind::SpfHostile { .. } => m.inc("spf_hostile", 1),
                TraceKind::DkimConcluded { pass } => {
                    m.inc(if *pass { "dkim_pass" } else { "dkim_fail" }, 1);
                }
                TraceKind::DmarcConcluded { pass } => {
                    m.inc(if *pass { "dmarc_pass" } else { "dmarc_fail" }, 1);
                }
                TraceKind::ResolveStart { qid, cached, .. } => {
                    m.inc("dns_lookups", 1);
                    if *cached {
                        m.inc("dns_cache_hits", 1);
                    } else {
                        lookups.insert((e.session, *qid), e.time_ms);
                    }
                }
                TraceKind::ResolveDone { qid, outcome } => {
                    m.inc(&format!("dns_outcome_{outcome}"), 1);
                    if let Some(t0) = lookups.remove(&(e.session, *qid)) {
                        m.observe("dns_lookup_ms", e.time_ms.saturating_sub(t0));
                    }
                }
                TraceKind::DnsSend { transport, .. } => {
                    m.inc("dns_sends", 1);
                    if *transport == "tcp" {
                        m.inc("dns_tcp_fallbacks", 1);
                    }
                }
                TraceKind::DnsRecv { .. } => m.inc("dns_recvs", 1),
                TraceKind::DnsTimeout { .. } => m.inc("dns_attempt_timeouts", 1),
                TraceKind::FaultDatagram { fate, .. } => {
                    m.inc(&format!("fault_datagram_{fate}"), 1);
                }
                TraceKind::FaultConn { kind } => m.inc(&format!("fault_conn_{kind}"), 1),
                TraceKind::FaultDnsMutation { .. } => m.inc("fault_dns_mutations", 1),
                TraceKind::FaultSmtpMutation => m.inc("fault_smtp_mutations", 1),
                TraceKind::ConnReset => m.inc("conn_resets", 1),
            }
        }
        m
    }

    /// Resolver cache hit-rate, if any lookup was traced.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = *self.counters.get("dns_lookups")?;
        if lookups == 0 {
            return None;
        }
        let hits = self.counters.get("dns_cache_hits").copied().unwrap_or(0);
        Some(hits as f64 / lookups as f64)
    }
}

// ---------------------------------------------------------------------------
// Merged telemetry
// ---------------------------------------------------------------------------

/// One run's telemetry: the canonical event stream plus the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Trace events in canonical `(time_ms, session, seq)` order.
    pub events: Vec<TraceEvent>,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// Merge per-shard telemetry into the campaign view: events
    /// re-sorted into the canonical order, registries summed. Both are
    /// order-invariant, so the merge is deterministic for any shard
    /// count.
    pub fn merge(parts: Vec<Telemetry>) -> Telemetry {
        let mut events = Vec::with_capacity(parts.iter().map(|p| p.events.len()).sum());
        let mut metrics = MetricsRegistry::default();
        for p in parts {
            events.extend(p.events);
            metrics.merge(&p.metrics);
        }
        sort_events(&mut events);
        Telemetry { events, metrics }
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Which sessions/shard a trace export keeps. Default keeps everything.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    /// Keep only these campaign-global session ids (empty = all).
    pub sessions: Vec<usize>,
    /// Keep only sessions of shard `k` of `n` (the campaign's
    /// round-robin assignment, `session % n == k`).
    pub shard: Option<(usize, usize)>,
}

impl TraceFilter {
    /// Does `session` pass the filter?
    pub fn keeps(&self, session: usize) -> bool {
        if let Some((k, n)) = self.shard {
            if n > 0 && session % n != k {
                return false;
            }
        }
        self.sessions.is_empty() || self.sessions.contains(&session)
    }
}

/// Attribute a lookup to the validation stage that issued it, from the
/// query shape alone (the probe's name scheme keeps these disjoint).
pub fn lookup_stage(name: &str, rtype: &str) -> &'static str {
    let lower = name.to_ascii_lowercase();
    if lower.starts_with("_dmarc.") {
        "dmarc"
    } else if lower.contains("._domainkey.") {
        "dkim"
    } else if rtype == "Txt" {
        "spf"
    } else {
        "spf-term"
    }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One Chrome trace line: a complete ("X") span.
fn push_span(
    out: &mut String,
    first: &mut bool,
    name: &str,
    session: usize,
    ts_ms: u64,
    dur_ms: u64,
    args: &str,
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(out, "  {{\"name\": \"",);
    json_escape(name, out);
    let _ = write!(
        out,
        "\", \"ph\": \"X\", \"pid\": 1, \"tid\": {session}, \
         \"ts\": {}, \"dur\": {}{args}}}",
        ts_ms * 1000,
        dur_ms.max(1) * 1000,
    );
}

/// One Chrome trace line: an instant ("i") event.
fn push_instant(out: &mut String, first: &mut bool, name: &str, session: usize, ts_ms: u64) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(out, "  {{\"name\": \"");
    json_escape(name, out);
    let _ = write!(
        out,
        "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": {session}, \"ts\": {}}}",
        ts_ms * 1000
    );
}

/// Export a filtered event stream as Chrome trace-event JSON
/// (Perfetto-loadable): session and DNS lookup/attempt spans as
/// complete ("X") events, everything else as instants, `ts` in
/// microseconds of virtual time, `tid` = session id.
///
/// Purely a function of the (already canonical) event stream, so the
/// export is byte-identical for any shard count.
pub fn chrome_trace_json(events: &[TraceEvent], filter: &TraceFilter) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;

    // Span-open bookkeeping, keyed to pair opens with closes.
    let mut session_open: HashMap<usize, u64> = HashMap::new();
    let mut lookup_open: HashMap<(usize, u64), (u64, String)> = HashMap::new();
    let mut attempt_open: HashMap<(usize, u16), (u64, &'static str)> = HashMap::new();

    for e in events {
        if !filter.keeps(e.session) {
            continue;
        }
        match &e.kind {
            TraceKind::SessionStart => {
                session_open.insert(e.session, e.time_ms);
            }
            TraceKind::SessionEnd { termination } => {
                if let Some(t0) = session_open.remove(&e.session) {
                    let name = format!("session {} [{termination}]", e.session);
                    push_span(
                        &mut out,
                        &mut first,
                        &name,
                        e.session,
                        t0,
                        e.time_ms.saturating_sub(t0),
                        "",
                    );
                }
            }
            TraceKind::ResolveStart {
                qid,
                name,
                rtype,
                cached,
            } => {
                let stage = lookup_stage(name, rtype);
                let label = format!("dns:{stage} {name} {rtype}");
                if *cached {
                    push_instant(
                        &mut out,
                        &mut first,
                        &format!("{label} [cached]"),
                        e.session,
                        e.time_ms,
                    );
                } else {
                    lookup_open.insert((e.session, *qid), (e.time_ms, label));
                }
            }
            TraceKind::ResolveDone { qid, outcome } => {
                if let Some((t0, label)) = lookup_open.remove(&(e.session, *qid)) {
                    let name = format!("{label} [{outcome}]");
                    push_span(
                        &mut out,
                        &mut first,
                        &name,
                        e.session,
                        t0,
                        e.time_ms.saturating_sub(t0),
                        "",
                    );
                }
            }
            TraceKind::DnsSend {
                core_id, transport, ..
            } => {
                attempt_open.insert((e.session, *core_id), (e.time_ms, transport));
            }
            TraceKind::DnsRecv { core_id, .. } => {
                if let Some((t0, transport)) = attempt_open.remove(&(e.session, *core_id)) {
                    let name = format!("attempt:{transport}");
                    push_span(
                        &mut out,
                        &mut first,
                        &name,
                        e.session,
                        t0,
                        e.time_ms.saturating_sub(t0),
                        "",
                    );
                }
            }
            TraceKind::DnsTimeout { core_id } => {
                if let Some((t0, transport)) = attempt_open.remove(&(e.session, *core_id)) {
                    let name = format!("attempt:{transport} [timeout]");
                    push_span(
                        &mut out,
                        &mut first,
                        &name,
                        e.session,
                        t0,
                        e.time_ms.saturating_sub(t0),
                        "",
                    );
                } else {
                    push_instant(&mut out, &mut first, "dns_timeout", e.session, e.time_ms);
                }
            }
            other => {
                let name = match other {
                    TraceKind::SmtpCommand { verb } => format!("smtp:{verb}"),
                    TraceKind::SmtpReply { code } => format!("reply:{code}"),
                    TraceKind::SmtpRejected { class } => format!("smtp_rejected:{class}"),
                    TraceKind::SpfConcluded { result } => format!("spf:{result}"),
                    TraceKind::FaultDatagram { fate, query_side } => {
                        format!(
                            "fault:datagram_{fate}:{}",
                            if *query_side { "query" } else { "response" }
                        )
                    }
                    TraceKind::FaultConn { kind } => format!("fault:conn_{kind}"),
                    TraceKind::FaultDnsMutation { kind } => format!("fault:dns_mutation:{kind}"),
                    _ => other.label().to_string(),
                };
                push_instant(&mut out, &mut first, &name, e.session, e.time_ms);
            }
        }
    }
    // Unclosed spans (e.g. a filter cutting a session's tail) degrade
    // to instants so nothing recorded is silently dropped.
    let mut leftovers: Vec<(u64, usize, String)> = Vec::new();
    for (session, t0) in session_open {
        leftovers.push((t0, session, format!("session {session} [unterminated]")));
    }
    for ((session, _qid), (t0, label)) in lookup_open {
        leftovers.push((t0, session, format!("{label} [open]")));
    }
    for ((session, _core), (t0, transport)) in attempt_open {
        leftovers.push((t0, session, format!("attempt:{transport} [open]")));
    }
    leftovers.sort_unstable_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    for (t0, session, name) in leftovers {
        push_instant(&mut out, &mut first, &name, session, t0);
    }
    out.push_str("\n]}\n");
    out
}

/// Export a registry as a metrics-summary JSON document: counters and
/// histograms under sorted keys, histogram buckets as
/// `[upper_bound_exclusive, count]` pairs (zero buckets omitted).
pub fn metrics_json(m: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {\n");
    for (i, (k, v)) in m.counters.iter().enumerate() {
        let _ = write!(out, "    \"");
        json_escape(k, &mut out);
        let _ = writeln!(
            out,
            "\": {v}{}",
            if i + 1 == m.counters.len() { "" } else { "," }
        );
    }
    out.push_str("  },\n  \"histograms\": {\n");
    for (i, (k, h)) in m.histograms.iter().enumerate() {
        let _ = write!(out, "    \"");
        json_escape(k, &mut out);
        let _ = write!(
            out,
            "\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
            h.count, h.sum
        );
        let mut first = true;
        for (b, n) in h.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "[{}, {n}]", Histogram::bucket_bound(b));
        }
        let _ = writeln!(
            out,
            "]}}{}",
            if i + 1 == m.histograms.len() { "" } else { "," }
        );
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ms: u64, session: usize, seq: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time_ms,
            session,
            seq,
            kind,
        }
    }

    #[test]
    fn null_tracer_is_disabled_and_yields_nothing() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        t.record(1, 2, TraceKind::SessionStart);
        assert!(t.finish().is_none());
    }

    #[test]
    fn recording_tracer_assigns_per_session_seq() {
        let mut t = RecordingTracer::default();
        t.record(5, 1, TraceKind::SessionStart);
        t.record(5, 0, TraceKind::SessionStart);
        t.record(9, 1, TraceKind::Delivered);
        let tel = t.finish().expect("recording");
        // Canonical order: (5,0,0), (5,1,0), (9,1,1).
        assert_eq!(tel.events.len(), 3);
        assert_eq!((tel.events[0].session, tel.events[0].seq), (0, 0));
        assert_eq!((tel.events[1].session, tel.events[1].seq), (1, 0));
        assert_eq!((tel.events[2].session, tel.events[2].seq), (1, 1));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1000 in [512, 1024)
    }

    #[test]
    fn registry_merge_is_order_invariant() {
        let mut a = MetricsRegistry::default();
        a.inc("x", 2);
        a.observe("h", 7);
        let mut b = MetricsRegistry::default();
        b.inc("x", 3);
        b.inc("y", 1);
        b.observe("h", 100);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["x"], 5);
        assert_eq!(ab.histograms["h"].count, 2);
    }

    #[test]
    fn metrics_from_events_pairs_lookup_spans() {
        let events = vec![
            ev(0, 7, 0, TraceKind::SessionStart),
            ev(
                2,
                7,
                1,
                TraceKind::ResolveStart {
                    qid: 1,
                    name: "spf.test".into(),
                    rtype: "Txt".into(),
                    cached: false,
                },
            ),
            ev(
                10,
                7,
                2,
                TraceKind::ResolveDone {
                    qid: 1,
                    outcome: "records",
                },
            ),
            ev(
                11,
                7,
                3,
                TraceKind::SessionEnd {
                    termination: "completed",
                },
            ),
        ];
        let m = MetricsRegistry::from_events(&events);
        assert_eq!(m.counters["sessions"], 1);
        assert_eq!(m.counters["sessions_completed"], 1);
        assert_eq!(m.counters["dns_lookups"], 1);
        let h = &m.histograms["dns_lookup_ms"];
        assert_eq!((h.count, h.sum), (1, 8));
        assert_eq!(m.histograms["session_ms"].sum, 11);
        assert_eq!(m.cache_hit_rate(), Some(0.0));
    }

    #[test]
    fn chrome_export_emits_spans_and_filters() {
        let events = vec![
            ev(0, 0, 0, TraceKind::SessionStart),
            ev(1, 1, 0, TraceKind::SessionStart),
            ev(
                3,
                0,
                1,
                TraceKind::SessionEnd {
                    termination: "completed",
                },
            ),
            ev(
                4,
                1,
                1,
                TraceKind::SessionEnd {
                    termination: "completed",
                },
            ),
        ];
        let all = chrome_trace_json(&events, &TraceFilter::default());
        assert!(all.starts_with("{\"traceEvents\": ["));
        assert!(all.contains("\"tid\": 0"));
        assert!(all.contains("\"tid\": 1"));
        assert!(all.contains("\"ph\": \"X\""));
        let only1 = chrome_trace_json(
            &events,
            &TraceFilter {
                sessions: vec![1],
                shard: None,
            },
        );
        assert!(!only1.contains("\"tid\": 0"));
        assert!(only1.contains("\"tid\": 1"));
        // Shard filter: session 1 of 2 shards is shard 1.
        let shard0 = chrome_trace_json(
            &events,
            &TraceFilter {
                sessions: vec![],
                shard: Some((0, 2)),
            },
        );
        assert!(shard0.contains("\"tid\": 0"));
        assert!(!shard0.contains("\"tid\": 1"));
    }

    #[test]
    fn metrics_json_renders_sorted_and_sparse() {
        let mut m = MetricsRegistry::default();
        m.inc("b", 2);
        m.inc("a", 1);
        m.observe("lat", 5);
        let json = metrics_json(&m);
        let a = json.find("\"a\": 1").expect("a");
        let b = json.find("\"b\": 2").expect("b");
        assert!(a < b, "keys must render sorted");
        assert!(json.contains("\"buckets\": [[8, 1]]"));
    }

    #[test]
    fn lookup_stage_classifies_query_shapes() {
        assert_eq!(lookup_stage("_dmarc.x.test", "Txt"), "dmarc");
        assert_eq!(lookup_stage("sel1._domainkey.x.test", "Txt"), "dkim");
        assert_eq!(lookup_stage("x.test", "Txt"), "spf");
        assert_eq!(lookup_stage("x.test", "A"), "spf-term");
    }
}
