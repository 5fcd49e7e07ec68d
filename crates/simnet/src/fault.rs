//! Deterministic fault injection: per-datagram and per-connection fates.
//!
//! The paper's apparatus survived nine months on the real Internet —
//! lost and duplicated datagrams, UDP answers truncated mid-path,
//! greylisting MTAs, mid-dialogue resets. A [`FaultPlan`] lets the
//! simulation inject those faults while keeping every campaign output a
//! pure function of its seed, **independent of shard count**.
//!
//! The trick is that no fault decision ever consumes a shared RNG in
//! event order (event interleaving differs across shard counts). Each
//! decision is instead a pure function of stable identifiers:
//!
//! ```text
//! fate(i) = SimRng::new(mix(plan seed, global session id, stream, i))
//! ```
//!
//! where `i` is a per-session, per-stream cursor ([`FaultCursor`]) that
//! advances with each consulted datagram or SMTP segment. Per-session
//! event subsequences are shard-invariant (sessions never interact), so
//! the cursor values — and therefore every fate — are too.
//!
//! Datagram **loss** is not decided here: the plan delegates to
//! [`LatencyModel::lost`], making the latency model's `loss_probability`
//! the single loss oracle for the whole simulation.

use crate::net::LatencyModel;
use crate::rng::SimRng;

/// Probabilities and magnitudes for injected faults. The default is
/// all-zero: a plan built from it never alters anything.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Probability a UDP datagram is delivered twice.
    pub duplicate_probability: f64,
    /// Probability a UDP datagram is delayed (reordered past later
    /// traffic) by up to [`FaultConfig::reorder_delay_ms`].
    pub reorder_probability: f64,
    /// Maximum extra delay for reordered (and gap for duplicated)
    /// datagrams, ms.
    pub reorder_delay_ms: u64,
    /// Probability a UDP *response* is truncated mid-path (TC=1, answers
    /// stripped), driving capable resolvers to TCP fallback.
    pub truncate_probability: f64,
    /// Probability an SMTP segment is replaced by a connection reset.
    pub conn_reset_probability: f64,
    /// Probability an SMTP segment is stalled by up to
    /// [`FaultConfig::conn_stall_ms`].
    pub conn_stall_probability: f64,
    /// Maximum stall added to a stalled SMTP segment, ms.
    pub conn_stall_ms: u64,
    /// Seed mixed into every fate decision (fork of the campaign seed).
    pub seed: u64,
    /// Deterministic *shard-level* crash injection (supervisor testing):
    /// when nonzero, the engine panics immediately after durably
    /// journaling its N-th completed session. Unlike the per-session
    /// faults above this is not contained by the engine — it kills the
    /// whole shard, which is the point: the campaign supervisor must
    /// restart the shard from its journal. Replayed sessions count
    /// toward N, so a resumed shard that has already completed N
    /// sessions runs to the end instead of crash-looping.
    pub crash_after_sessions: u64,
}

/// The fate of one UDP datagram crossing the virtual wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop (the receiver sees nothing; timeouts must fire).
    Drop,
    /// Deliver, then deliver a second copy `gap_ms` later.
    Duplicate {
        /// Gap between the two copies, ms.
        gap_ms: u64,
    },
    /// Deliver late by `extra_ms` (reordering past later traffic).
    Delay {
        /// Extra one-way delay, ms.
        extra_ms: u64,
    },
    /// Deliver with TC=1 and the answer sections stripped (responses
    /// only; callers pass `may_truncate = false` for queries).
    Truncate,
}

/// The fate of one SMTP segment (reply text or client command bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Deliver normally.
    Deliver,
    /// The connection is reset instead: the segment is lost and both
    /// ends must observe a disconnect.
    Reset,
    /// Deliver late by `extra_ms` (a mid-session stall).
    Stall {
        /// Extra one-way delay, ms.
        extra_ms: u64,
    },
}

/// Per-session fault cursors: how many datagrams / SMTP segments /
/// payload mutations of the session have been adjudicated so far.
/// Stored with the session so the index sequence is shard-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCursor {
    datagrams: u64,
    segments: u64,
    dns_payloads: u64,
    smtp_payloads: u64,
}

const STREAM_DATAGRAM: u64 = 0xDA7A_6BAD;
const STREAM_SEGMENT: u64 = 0x5E65_BAD5;
const STREAM_DNS_PAYLOAD: u64 = 0xD05E_BAD1;
const STREAM_SMTP_PAYLOAD: u64 = 0x53D7_BAD0;
const STREAM_IO_WRITE: u64 = 0xD15C_BAD2;
const STREAM_IO_FSYNC: u64 = 0xF5FC_BAD3;
const STREAM_IO_RENAME: u64 = 0x2E4A_BAD4;
const STREAM_IO_READ: u64 = 0x2EAD_BAD6;

/// Classification of one rejected hostile input, assigned by the
/// consumer that refused it (never by the injector): the DNS wire
/// decoder, the SMTP reply parser, or the SPF evaluator. Every
/// rejection of a mutated frame maps to exactly one class, so the sum
/// of the [`MalformedStats`] counters equals the number of inputs the
/// parsers failed closed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalformedClass {
    /// DNS frame ended mid-structure (header, name, or record).
    DnsTruncatedFrame,
    /// DNS compression pointer loop or forward pointer.
    DnsBadPointer,
    /// DNS label with an invalid tag, charset, or lying length.
    DnsBadLabel,
    /// DNS RDATA length inconsistent with its content.
    DnsBadRdata,
    /// SMTP reply line without a valid 3-digit code, or malformed
    /// separator byte.
    SmtpBadCode,
    /// SMTP reply line containing an embedded NUL or bare CR.
    SmtpBadChar,
    /// SMTP reply line over the 512-byte cap.
    SmtpLineTooLong,
    /// SMTP multiline reply switching codes or exceeding the line cap.
    SmtpBadContinuation,
    /// SPF policy include/redirect cycle detected.
    SpfPolicyLoop,
    /// SPF lookup or void-lookup budget exhausted by a hostile policy.
    SpfLookupExhausted,
}

impl MalformedClass {
    /// Every class, in the canonical (serialization) order.
    pub const ALL: [MalformedClass; 10] = [
        MalformedClass::DnsTruncatedFrame,
        MalformedClass::DnsBadPointer,
        MalformedClass::DnsBadLabel,
        MalformedClass::DnsBadRdata,
        MalformedClass::SmtpBadCode,
        MalformedClass::SmtpBadChar,
        MalformedClass::SmtpLineTooLong,
        MalformedClass::SmtpBadContinuation,
        MalformedClass::SpfPolicyLoop,
        MalformedClass::SpfLookupExhausted,
    ];

    /// Stable index into [`MalformedClass::ALL`] (also the journal and
    /// store encoding of the class).
    pub fn index(self) -> usize {
        MalformedClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("class in ALL")
    }

    /// Inverse of [`MalformedClass::index`].
    pub fn from_index(index: usize) -> Option<MalformedClass> {
        MalformedClass::ALL.get(index).copied()
    }

    /// Short snake_case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MalformedClass::DnsTruncatedFrame => "dns_truncated_frame",
            MalformedClass::DnsBadPointer => "dns_bad_pointer",
            MalformedClass::DnsBadLabel => "dns_bad_label",
            MalformedClass::DnsBadRdata => "dns_bad_rdata",
            MalformedClass::SmtpBadCode => "smtp_bad_code",
            MalformedClass::SmtpBadChar => "smtp_bad_char",
            MalformedClass::SmtpLineTooLong => "smtp_line_too_long",
            MalformedClass::SmtpBadContinuation => "smtp_bad_continuation",
            MalformedClass::SpfPolicyLoop => "spf_policy_loop",
            MalformedClass::SpfLookupExhausted => "spf_lookup_exhausted",
        }
    }
}

/// Per-class counters of classified hostile-input rejections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MalformedStats {
    counts: [u64; MalformedClass::ALL.len()],
}

impl MalformedStats {
    /// Record one rejection of the given class.
    pub fn record(&mut self, class: MalformedClass) {
        self.counts[class.index()] += 1;
    }

    /// Rejections of one class.
    pub fn count(&self, class: MalformedClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total rejections across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulate another block into this one.
    pub fn merge(&mut self, other: &MalformedStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Rebuild from counters in [`MalformedClass::ALL`] order (the
    /// journal/store decode path).
    pub fn from_counts(counts: [u64; MalformedClass::ALL.len()]) -> MalformedStats {
        MalformedStats { counts }
    }

    /// Iterate `(class, count)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (MalformedClass, u64)> + '_ {
        MalformedClass::ALL
            .iter()
            .zip(self.counts.iter())
            .map(|(c, n)| (*c, *n))
    }
}

/// Declares the [`FaultStats`] counters once: the struct's public
/// `u64` fields plus [`FaultStats::COUNTER_NAMES`],
/// [`FaultStats::counters`], [`FaultStats::from_counters`] and
/// [`FaultStats::merge`]. Every encoding (journal, store, content hash)
/// and every report walks the counters in this order, so adding one is a
/// one-line change in the invocation below (append it: the journal and
/// store encode counters positionally).
macro_rules! fault_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Fault counters, aggregated across engines and shards. All
        /// fields are shard-count invariant (they count deterministic
        /// fate decisions and their consequences, never wall-clock
        /// effects).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FaultStats {
            $($(#[$doc])* pub $field: u64,)*
            /// Classified hostile-input rejections, by taxonomy class.
            pub malformed: MalformedStats,
        }

        impl FaultStats {
            /// The counter field names, in declaration order.
            pub const COUNTER_NAMES: [&'static str; FAULT_COUNTERS] = [$(stringify!($field)),*];

            /// The counters, in [`FaultStats::COUNTER_NAMES`] order.
            pub fn counters(&self) -> [u64; FAULT_COUNTERS] {
                [$(self.$field),*]
            }

            /// Inverse of [`FaultStats::counters`].
            pub fn from_counters(
                counters: [u64; FAULT_COUNTERS],
                malformed: MalformedStats,
            ) -> FaultStats {
                let [$($field),*] = counters;
                FaultStats { $($field,)* malformed }
            }

            /// Accumulate another stats block into this one.
            pub fn merge(&mut self, other: &FaultStats) {
                $(self.$field += other.$field;)*
                self.malformed.merge(&other.malformed);
            }
        }

        /// Number of [`FaultStats`] counters (excluding `malformed`).
        pub const FAULT_COUNTERS: usize = [$(stringify!($field)),*].len();
    };
}

fault_stats! {
    /// UDP datagrams (queries or responses) dropped by the loss oracle.
    dns_dropped,
    /// UDP datagrams delivered twice.
    dns_duplicated,
    /// UDP datagrams delivered late (reordered).
    dns_delayed,
    /// UDP responses truncated mid-path.
    dns_truncated,
    /// Lookups that concluded in a timeout outcome (includes retries
    /// exhausted under loss and unreachable v6-only zones).
    dns_timeouts,
    /// SMTP segments replaced by connection resets.
    conn_resets,
    /// SMTP segments stalled in flight.
    conn_stalls,
    /// Stalls issued by flaky MTAs before reacting to MAIL.
    mta_stalls,
    /// 451 tempfails issued by greylisting MTAs.
    tempfails,
    /// Transaction retries performed by probe clients after 4xx replies.
    client_retries,
    /// Session panics contained by the engine (`catch_unwind`).
    contained_panics,
    /// Sessions terminated for exceeding their virtual-time or
    /// dispatched-event budget (`SessionOutcome::BudgetExhausted`).
    budget_exhausted,
    /// DNS response datagrams mutated in flight by the payload plan.
    dns_payload_mutations,
    /// SMTP reply segments mutated in flight by the payload plan.
    smtp_payload_mutations,
    /// Sessions terminated because the probe client received input it
    /// refused to parse (`SessionOutcome::HostileInput`).
    hostile_inputs,
    /// Sessions shed by the engine's memory budget before their queued
    /// payloads could blow up the shard (`SessionOutcome::ResourceShed`).
    resource_shed,
}

impl FaultStats {
    /// True when any wire-level fault fired (injection diagnostics).
    pub fn any_injected(&self) -> bool {
        self.dns_dropped
            + self.dns_duplicated
            + self.dns_delayed
            + self.dns_truncated
            + self.conn_resets
            + self.conn_stalls
            + self.dns_payload_mutations
            + self.smtp_payload_mutations
            > 0
    }
}

/// A sealed fault plan: the fault configuration plus the latency model
/// whose [`LatencyModel::lost`] is the loss oracle.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    latency: LatencyModel,
    active: bool,
}

fn mix(seed: u64, session: u64, stream: u64, index: u64) -> u64 {
    // splitmix64-style finalizer over the four identifiers; any good
    // avalanche works, it just has to be stable.
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in [session, stream, index] {
        h ^= v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

impl FaultPlan {
    /// Seal a plan from a config and the campaign's latency model.
    pub fn new(config: FaultConfig, latency: LatencyModel) -> FaultPlan {
        let active = latency.loss_probability > 0.0
            || config.duplicate_probability > 0.0
            || config.reorder_probability > 0.0
            || config.truncate_probability > 0.0
            || config.conn_reset_probability > 0.0
            || config.conn_stall_probability > 0.0;
        FaultPlan {
            config,
            latency,
            active,
        }
    }

    /// True when some fault can ever fire (fast-path check).
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn rng(&self, session: u64, stream: u64, index: u64) -> SimRng {
        SimRng::new(mix(self.config.seed, session, stream, index))
    }

    /// Decide the fate of one UDP datagram of `session`. `may_truncate`
    /// is true for responses (truncation of a query makes no sense).
    ///
    /// The decision depends only on `(plan, session, cursor position)` —
    /// never on global event order — so it is shard-count invariant.
    pub fn datagram_fate(
        &self,
        session: u64,
        cursor: &mut FaultCursor,
        may_truncate: bool,
    ) -> DatagramFate {
        if !self.active {
            return DatagramFate::Deliver;
        }
        let index = cursor.datagrams;
        cursor.datagrams += 1;
        let mut rng = self.rng(session, STREAM_DATAGRAM, index);
        if self.latency.lost(&mut rng) {
            return DatagramFate::Drop;
        }
        if may_truncate
            && self.config.truncate_probability > 0.0
            && rng.chance(self.config.truncate_probability)
        {
            return DatagramFate::Truncate;
        }
        if self.config.duplicate_probability > 0.0 && rng.chance(self.config.duplicate_probability)
        {
            let span = self.config.reorder_delay_ms.max(1);
            return DatagramFate::Duplicate {
                gap_ms: 1 + rng.next_below(span),
            };
        }
        if self.config.reorder_probability > 0.0 && rng.chance(self.config.reorder_probability) {
            let span = self.config.reorder_delay_ms.max(1);
            return DatagramFate::Delay {
                extra_ms: 1 + rng.next_below(span),
            };
        }
        DatagramFate::Deliver
    }

    /// Decide the fate of one SMTP segment of `session`.
    pub fn conn_fault(&self, session: u64, cursor: &mut FaultCursor) -> ConnFault {
        if !self.active {
            return ConnFault::Deliver;
        }
        let index = cursor.segments;
        cursor.segments += 1;
        let mut rng = self.rng(session, STREAM_SEGMENT, index);
        if self.config.conn_reset_probability > 0.0
            && rng.chance(self.config.conn_reset_probability)
        {
            return ConnFault::Reset;
        }
        if self.config.conn_stall_probability > 0.0
            && rng.chance(self.config.conn_stall_probability)
        {
            let span = self.config.conn_stall_ms.max(1);
            return ConnFault::Stall {
                extra_ms: 1 + rng.next_below(span),
            };
        }
        ConnFault::Deliver
    }
}

/// Probabilities for hostile-peer payload mutation. The default is
/// all-zero: a plan built from it never alters any bytes.
#[derive(Debug, Clone, Default)]
pub struct PayloadConfig {
    /// Probability a DNS *response* datagram is structurally corrupted
    /// before delivery.
    pub dns_corrupt_probability: f64,
    /// Probability an SMTP reply segment is corrupted before delivery.
    pub smtp_corrupt_probability: f64,
    /// Seed mixed into every mutation decision (fork of the campaign
    /// seed, independent of the transport [`FaultConfig::seed`]).
    pub seed: u64,
}

/// The structure-aware corruption applied to one DNS response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsMutation {
    /// One random bit flipped.
    BitFlip,
    /// One random byte overwritten.
    ByteSplice,
    /// A compression pointer spliced in that points at itself.
    PointerLoop,
    /// A compression pointer spliced in that points forward.
    ForwardPointer,
    /// A label-length byte rewritten to lie about its extent.
    LabelLie,
    /// The datagram cut short at a random offset.
    Truncation,
    /// The answer count bumped with garbage bytes appended as the
    /// phantom record.
    Inflation,
    /// A header section count rewritten to 0xFFFF.
    CountLie,
    /// Content-level: the answer replaced by a well-formed response
    /// whose TXT rdata is an SPF policy that includes its own name
    /// (hostile [`MalformedClass::SpfPolicyLoop`] bait). Only offered
    /// when the peer's hostile knob is set; the embedder synthesizes
    /// the bytes (it knows the query name).
    SpfCycle,
    /// Content-level: the answer replaced by a CNAME pointing back at
    /// the queried name. Only offered when the peer's hostile knob is
    /// set; the embedder synthesizes the bytes.
    CnameChain,
}

/// The corruption applied to one SMTP reply segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtpMutation {
    /// The 3-digit code replaced with garbage characters.
    GarbageCode,
    /// The line inflated past the 512-byte reply-line cap.
    OverlongLine,
    /// A NUL byte embedded in the reply text.
    EmbeddedNul,
    /// A bare CR (no following LF) embedded in the reply text.
    BareCr,
    /// A continuation line's code switched mid-reply.
    CodeSwitch,
    /// The final line's separator flipped to `-`, promising
    /// continuation lines that never come.
    ContinuationAbuse,
}

/// A sealed hostile-peer payload plan. Like [`FaultPlan`], every
/// decision is a pure function of `(plan seed, global session id,
/// per-session payload cursor)` via the same [`mix`] hashing, so the
/// mutation sequence each session observes is byte-identical across
/// shard counts and journal-replay resumes.
#[derive(Debug, Clone)]
pub struct PayloadPlan {
    config: PayloadConfig,
    active: bool,
}

impl PayloadPlan {
    /// Seal a plan from a config.
    pub fn new(config: PayloadConfig) -> PayloadPlan {
        let active = config.dns_corrupt_probability > 0.0 || config.smtp_corrupt_probability > 0.0;
        PayloadPlan { config, active }
    }

    /// True when some mutation can ever fire (fast-path check).
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn rng(&self, session: u64, stream: u64, index: u64) -> SimRng {
        SimRng::new(mix(self.config.seed, session, stream, index))
    }

    /// Maybe corrupt one DNS response datagram of `session` in place.
    /// `hostile_content` extends the mutation palette with the two
    /// content-level kinds ([`DnsMutation::SpfCycle`],
    /// [`DnsMutation::CnameChain`]); for those the bytes are left
    /// untouched and the caller synthesizes the replacement (it knows
    /// the query name). Returns the mutation applied, if any.
    pub fn mutate_dns(
        &self,
        session: u64,
        cursor: &mut FaultCursor,
        bytes: &mut Vec<u8>,
        hostile_content: bool,
    ) -> Option<DnsMutation> {
        if !self.active || bytes.is_empty() {
            return None;
        }
        let index = cursor.dns_payloads;
        cursor.dns_payloads += 1;
        let mut rng = self.rng(session, STREAM_DNS_PAYLOAD, index);
        if !rng.chance(self.config.dns_corrupt_probability) {
            return None;
        }
        let palette: &[DnsMutation] = if hostile_content {
            &[
                DnsMutation::BitFlip,
                DnsMutation::ByteSplice,
                DnsMutation::PointerLoop,
                DnsMutation::ForwardPointer,
                DnsMutation::LabelLie,
                DnsMutation::Truncation,
                DnsMutation::Inflation,
                DnsMutation::CountLie,
                DnsMutation::SpfCycle,
                DnsMutation::CnameChain,
            ]
        } else {
            &[
                DnsMutation::BitFlip,
                DnsMutation::ByteSplice,
                DnsMutation::PointerLoop,
                DnsMutation::ForwardPointer,
                DnsMutation::LabelLie,
                DnsMutation::Truncation,
                DnsMutation::Inflation,
                DnsMutation::CountLie,
            ]
        };
        let kind = *rng.pick(palette);
        match kind {
            DnsMutation::BitFlip => {
                let pos = rng.next_below(bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << rng.next_below(8);
            }
            DnsMutation::ByteSplice => {
                let pos = rng.next_below(bytes.len() as u64) as usize;
                bytes[pos] = rng.next_u64() as u8;
            }
            DnsMutation::PointerLoop | DnsMutation::ForwardPointer => {
                // Splice a 2-byte compression pointer somewhere past the
                // 12-byte header. A self-pointer violates the strictly-
                // backwards rule (a one-hop loop); a forward pointer
                // targets bytes not yet parsed. Both must be rejected.
                if bytes.len() < 15 {
                    bytes.truncate(bytes.len().saturating_sub(1));
                } else {
                    let pos = 12 + rng.next_below((bytes.len() - 14) as u64) as usize;
                    let target = match kind {
                        DnsMutation::PointerLoop => pos as u64,
                        _ => (bytes.len() as u64 - 1).min(0x3FFF),
                    };
                    bytes[pos] = 0xC0 | ((target >> 8) as u8 & 0x3F);
                    bytes[pos + 1] = target as u8;
                }
            }
            DnsMutation::LabelLie => {
                // Rewrite one post-header byte to either a reserved
                // label tag (0b01/0b10) or a 63-byte length the
                // remaining buffer cannot satisfy.
                if bytes.len() < 14 {
                    bytes.truncate(bytes.len().saturating_sub(1));
                } else {
                    let pos = 12 + rng.next_below((bytes.len() - 13) as u64) as usize;
                    bytes[pos] = if rng.chance(0.5) {
                        0x40 | (rng.next_u64() as u8 & 0x3F)
                    } else {
                        0x3F
                    };
                }
            }
            DnsMutation::Truncation => {
                let keep = rng.next_below(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            }
            DnsMutation::Inflation => {
                // Promise one more answer record than exists, backed by
                // garbage tail bytes the decoder must refuse.
                if bytes.len() >= 8 {
                    let an = u16::from_be_bytes([bytes[6], bytes[7]]).wrapping_add(1);
                    bytes[6..8].copy_from_slice(&an.to_be_bytes());
                }
                let extra = 1 + rng.next_below(48);
                for _ in 0..extra {
                    bytes.push(rng.next_u64() as u8);
                }
            }
            DnsMutation::CountLie => {
                if bytes.len() >= 12 {
                    let pos = 4 + 2 * rng.next_below(4) as usize;
                    bytes[pos] = 0xFF;
                    bytes[pos + 1] = 0xFF;
                }
            }
            DnsMutation::SpfCycle | DnsMutation::CnameChain => {
                // Content-level: the caller rebuilds the response.
            }
        }
        Some(kind)
    }

    /// Maybe corrupt one SMTP reply segment of `session` in place.
    /// Returns the mutation applied, if any.
    pub fn mutate_smtp(
        &self,
        session: u64,
        cursor: &mut FaultCursor,
        text: &mut String,
    ) -> Option<SmtpMutation> {
        if !self.active || text.is_empty() {
            return None;
        }
        let index = cursor.smtp_payloads;
        cursor.smtp_payloads += 1;
        let mut rng = self.rng(session, STREAM_SMTP_PAYLOAD, index);
        if !rng.chance(self.config.smtp_corrupt_probability) {
            return None;
        }
        const PALETTE: [SmtpMutation; 6] = [
            SmtpMutation::GarbageCode,
            SmtpMutation::OverlongLine,
            SmtpMutation::EmbeddedNul,
            SmtpMutation::BareCr,
            SmtpMutation::CodeSwitch,
            SmtpMutation::ContinuationAbuse,
        ];
        let kind = *rng.pick(&PALETTE);
        // Work on the line starts so multiline replies can be attacked
        // mid-dialogue; `text` may carry several CRLF-separated lines.
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(text.match_indices("\r\n").filter_map(|(i, _)| {
                let next = i + 2;
                (next < text.len()).then_some(next)
            }))
            .collect();
        match kind {
            SmtpMutation::GarbageCode => {
                let start = *rng.pick(&line_starts);
                let garbage = ["@#!", "abc", "9x9", "---"];
                let g = *rng.pick(&garbage);
                let end = (start + 3).min(text.len());
                if text.is_char_boundary(start) && text.is_char_boundary(end) {
                    text.replace_range(start..end, &g[..end - start]);
                }
            }
            SmtpMutation::OverlongLine => {
                let start = *rng.pick(&line_starts);
                let eol = text[start..].find("\r\n").map_or(text.len(), |i| start + i);
                text.insert_str(eol, &"x".repeat(600));
            }
            SmtpMutation::EmbeddedNul | SmtpMutation::BareCr => {
                let ch = if kind == SmtpMutation::EmbeddedNul {
                    '\0'
                } else {
                    '\r'
                };
                // Insert strictly inside a line (offset ≥ 4 from its
                // start) so the CRLF framing itself stays intact and
                // the parser sees the byte inside the reply text.
                let start = *rng.pick(&line_starts);
                let eol = text[start..].find("\r\n").map_or(text.len(), |i| start + i);
                let pos = if eol > start + 4 {
                    start + 4 + rng.next_below((eol - start - 4) as u64) as usize
                } else {
                    eol
                };
                if text.is_char_boundary(pos) {
                    text.insert(pos, ch);
                }
            }
            SmtpMutation::CodeSwitch => {
                // Rewrite the code digits of one line to a different
                // (valid) code: a mid-reply code switch on multiline
                // replies, an out-of-protocol code jump otherwise.
                let start = *rng.pick(&line_starts);
                let codes = ["299", "388", "477", "566"];
                let c = *rng.pick(&codes);
                let end = (start + 3).min(text.len());
                if text.is_char_boundary(start) && text.is_char_boundary(end) {
                    text.replace_range(start..end, &c[..end - start]);
                }
            }
            SmtpMutation::ContinuationAbuse => {
                let start = *line_starts.last().expect("at least one line");
                let sep = start + 3;
                if sep < text.len() && text.as_bytes()[sep] == b' ' {
                    text.replace_range(sep..=sep, "-");
                }
            }
        }
        Some(kind)
    }
}

/// Probabilities and limits for injected storage faults. The default is
/// all-zero: a plan built from it never fails an operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoConfig {
    /// Simulated disk capacity per file, bytes: every write that would
    /// push the file past this limit is cut short with an ENOSPC-style
    /// error (the allowed prefix is still written, exactly as a real
    /// filesystem fills). Zero means unlimited.
    pub enospc_after_bytes: u64,
    /// Probability a write persists only a prefix before erroring.
    pub short_write_probability: f64,
    /// Probability an fsync/fdatasync reports failure (data may or may
    /// not be durable — the caller must assume not).
    pub fsync_fail_probability: f64,
    /// Probability an atomic rename fails.
    pub rename_fail_probability: f64,
    /// Probability a whole-file read returns one corrupted byte.
    pub read_corrupt_probability: f64,
    /// Seed mixed into every fault decision (fork of the campaign seed,
    /// independent of the transport and payload seeds).
    pub seed: u64,
}

/// The fate of one write issued through the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Persist the full buffer.
    Full,
    /// Persist only the first `keep` bytes, then report an I/O error.
    Short {
        /// Bytes actually persisted before the fault.
        keep: usize,
    },
    /// Persist only the first `keep` bytes, then report ENOSPC: the
    /// simulated device is full and stays full.
    Enospc {
        /// Bytes that still fit before the capacity limit.
        keep: usize,
    },
}

/// A sealed storage fault plan. Like the transport and payload plans,
/// every decision is a pure function of `(plan seed, stable file id,
/// op stream, per-file op cursor)` via the same [`mix`] hashing — never
/// of wall-clock, thread scheduling, or global op order — so the fault
/// sequence each file observes is identical across shard counts and
/// across kill-and-resume (the per-file cursors are owned by the
/// filesystem layer, which re-derives them from file state on open).
#[derive(Debug, Clone)]
pub struct IoPlan {
    config: IoConfig,
    active: bool,
}

impl IoPlan {
    /// Seal a plan from a config.
    pub fn new(config: IoConfig) -> IoPlan {
        let active = config.enospc_after_bytes > 0
            || config.short_write_probability > 0.0
            || config.fsync_fail_probability > 0.0
            || config.rename_fail_probability > 0.0
            || config.read_corrupt_probability > 0.0;
        IoPlan { config, active }
    }

    /// True when some fault can ever fire (fast-path check).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The sealed configuration.
    pub fn config(&self) -> &IoConfig {
        &self.config
    }

    fn rng(&self, file_id: u64, stream: u64, index: u64) -> SimRng {
        SimRng::new(mix(self.config.seed, file_id, stream, index))
    }

    /// Decide the fate of one write of `len` bytes to the file
    /// identified by `file_id`, which already holds `written` bytes;
    /// `index` is the file's write-op cursor.
    pub fn write_fault(&self, file_id: u64, index: u64, written: u64, len: usize) -> WriteFault {
        if !self.active || len == 0 {
            return WriteFault::Full;
        }
        let cap = self.config.enospc_after_bytes;
        if cap > 0 && written.saturating_add(len as u64) > cap {
            return WriteFault::Enospc {
                keep: cap.saturating_sub(written).min(len as u64) as usize,
            };
        }
        if self.config.short_write_probability > 0.0 {
            let mut rng = self.rng(file_id, STREAM_IO_WRITE, index);
            if rng.chance(self.config.short_write_probability) {
                return WriteFault::Short {
                    keep: rng.next_below(len as u64) as usize,
                };
            }
        }
        WriteFault::Full
    }

    /// Decide whether the file's `index`-th fsync reports failure.
    pub fn fsync_fails(&self, file_id: u64, index: u64) -> bool {
        self.active
            && self.config.fsync_fail_probability > 0.0
            && self
                .rng(file_id, STREAM_IO_FSYNC, index)
                .chance(self.config.fsync_fail_probability)
    }

    /// Decide whether the file's `index`-th rename fails.
    pub fn rename_fails(&self, file_id: u64, index: u64) -> bool {
        self.active
            && self.config.rename_fail_probability > 0.0
            && self
                .rng(file_id, STREAM_IO_RENAME, index)
                .chance(self.config.rename_fail_probability)
    }

    /// Decide whether the file's `index`-th whole-file read of `len`
    /// bytes is corrupted; returns the byte position and XOR mask to
    /// apply (mask is never zero, so corruption always changes a byte).
    pub fn read_corruption(&self, file_id: u64, index: u64, len: usize) -> Option<(usize, u8)> {
        if !self.active || len == 0 || self.config.read_corrupt_probability <= 0.0 {
            return None;
        }
        let mut rng = self.rng(file_id, STREAM_IO_READ, index);
        if !rng.chance(self.config.read_corrupt_probability) {
            return None;
        }
        let pos = rng.next_below(len as u64) as usize;
        let mask = (rng.next_u64() as u8) | 1;
        Some((pos, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(p: f64) -> LatencyModel {
        LatencyModel {
            loss_probability: p,
            ..Default::default()
        }
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::new(FaultConfig::default(), LatencyModel::default());
        assert!(!plan.is_active());
        let mut cursor = FaultCursor::default();
        for _ in 0..100 {
            assert_eq!(
                plan.datagram_fate(3, &mut cursor, true),
                DatagramFate::Deliver
            );
            assert_eq!(plan.conn_fault(3, &mut cursor), ConnFault::Deliver);
        }
    }

    #[test]
    fn loss_routed_through_latency_model() {
        // loss_probability lives on the LatencyModel and the plan must
        // consult it — total loss means every datagram drops.
        let plan = FaultPlan::new(FaultConfig::default(), lossy(1.0));
        assert!(plan.is_active());
        let mut cursor = FaultCursor::default();
        for _ in 0..50 {
            assert_eq!(
                plan.datagram_fate(0, &mut cursor, false),
                DatagramFate::Drop
            );
        }
    }

    #[test]
    fn loss_statistics_follow_probability() {
        let plan = FaultPlan::new(FaultConfig::default(), lossy(0.3));
        let mut drops = 0;
        for session in 0..100u64 {
            let mut cursor = FaultCursor::default();
            for _ in 0..100 {
                if plan.datagram_fate(session, &mut cursor, true) == DatagramFate::Drop {
                    drops += 1;
                }
            }
        }
        assert!((2_600..3_400).contains(&drops), "drops={drops}");
    }

    #[test]
    fn fates_are_independent_of_consultation_order() {
        // The shard-determinism property: interleaving sessions A and B
        // must produce the same per-session fate sequences as running
        // them back to back.
        let config = FaultConfig {
            duplicate_probability: 0.1,
            reorder_probability: 0.1,
            reorder_delay_ms: 40,
            truncate_probability: 0.1,
            conn_reset_probability: 0.1,
            conn_stall_probability: 0.1,
            conn_stall_ms: 500,
            seed: 9,
            ..Default::default()
        };
        let plan = FaultPlan::new(config, lossy(0.1));

        let sequential: Vec<Vec<DatagramFate>> = (0..3u64)
            .map(|session| {
                let mut cursor = FaultCursor::default();
                (0..40)
                    .map(|_| plan.datagram_fate(session, &mut cursor, true))
                    .collect()
            })
            .collect();

        let mut cursors = [FaultCursor::default(); 3];
        let mut interleaved = vec![Vec::new(), Vec::new(), Vec::new()];
        for round in 0..40 {
            // Rotate the visiting order every round.
            for k in 0..3usize {
                let session = (round + k) % 3;
                interleaved[session].push(plan.datagram_fate(
                    session as u64,
                    &mut cursors[session],
                    true,
                ));
            }
        }
        assert_eq!(sequential, interleaved);
    }

    #[test]
    fn sessions_get_distinct_fault_sequences() {
        let plan = FaultPlan::new(FaultConfig::default(), lossy(0.5));
        let seq = |session: u64| -> Vec<DatagramFate> {
            let mut cursor = FaultCursor::default();
            (0..64)
                .map(|_| plan.datagram_fate(session, &mut cursor, true))
                .collect()
        };
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn truncation_only_offered_to_responses() {
        let config = FaultConfig {
            truncate_probability: 1.0,
            seed: 4,
            ..Default::default()
        };
        let plan = FaultPlan::new(config, LatencyModel::default());
        let mut cursor = FaultCursor::default();
        assert_eq!(
            plan.datagram_fate(0, &mut cursor, false),
            DatagramFate::Deliver
        );
        assert_eq!(
            plan.datagram_fate(0, &mut cursor, true),
            DatagramFate::Truncate
        );
    }

    #[test]
    fn conn_faults_fire_and_bound_their_magnitudes() {
        let config = FaultConfig {
            conn_reset_probability: 0.3,
            conn_stall_probability: 0.3,
            conn_stall_ms: 200,
            seed: 11,
            ..Default::default()
        };
        let plan = FaultPlan::new(config, LatencyModel::default());
        let mut resets = 0;
        let mut stalls = 0;
        for session in 0..50u64 {
            let mut cursor = FaultCursor::default();
            for _ in 0..50 {
                match plan.conn_fault(session, &mut cursor) {
                    ConnFault::Reset => resets += 1,
                    ConnFault::Stall { extra_ms } => {
                        assert!((1..=200).contains(&extra_ms));
                        stalls += 1;
                    }
                    ConnFault::Deliver => {}
                }
            }
        }
        assert!(resets > 500, "resets={resets}");
        assert!(stalls > 300, "stalls={stalls}");
    }

    #[test]
    fn default_payload_plan_is_inert() {
        let plan = PayloadPlan::new(PayloadConfig::default());
        assert!(!plan.is_active());
        let mut cursor = FaultCursor::default();
        let mut bytes = vec![1, 2, 3, 4];
        let mut text = "250 OK".to_string();
        for _ in 0..50 {
            assert_eq!(plan.mutate_dns(7, &mut cursor, &mut bytes, true), None);
            assert_eq!(plan.mutate_smtp(7, &mut cursor, &mut text), None);
        }
        assert_eq!(bytes, vec![1, 2, 3, 4]);
        assert_eq!(text, "250 OK");
    }

    #[test]
    fn payload_mutations_are_independent_of_consultation_order() {
        // The same shard-determinism property as the transport plan:
        // interleaving sessions must reproduce the back-to-back
        // per-session mutation sequences, bytes included.
        let plan = PayloadPlan::new(PayloadConfig {
            dns_corrupt_probability: 0.5,
            smtp_corrupt_probability: 0.5,
            seed: 21,
        });
        let base_frame: Vec<u8> = (0..64u8).collect();
        let run = |session: u64, cursor: &mut FaultCursor| -> (Vec<u8>, String) {
            let mut bytes = base_frame.clone();
            let mut text = "250-first\r\n250 done".to_string();
            plan.mutate_dns(session, cursor, &mut bytes, true);
            plan.mutate_smtp(session, cursor, &mut text);
            (bytes, text)
        };
        let sequential: Vec<Vec<(Vec<u8>, String)>> = (0..3u64)
            .map(|session| {
                let mut cursor = FaultCursor::default();
                (0..20).map(|_| run(session, &mut cursor)).collect()
            })
            .collect();
        let mut cursors = [FaultCursor::default(); 3];
        let mut interleaved = vec![Vec::new(), Vec::new(), Vec::new()];
        for round in 0..20 {
            for k in 0..3usize {
                let session = (round + k) % 3;
                interleaved[session].push(run(session as u64, &mut cursors[session]));
            }
        }
        assert_eq!(sequential, interleaved);
    }

    #[test]
    fn payload_mutations_fire_and_change_bytes() {
        let plan = PayloadPlan::new(PayloadConfig {
            dns_corrupt_probability: 1.0,
            smtp_corrupt_probability: 1.0,
            seed: 5,
        });
        assert!(plan.is_active());
        let base: Vec<u8> = (0..48u8).collect();
        let mut dns_changed = 0;
        let mut smtp_changed = 0;
        let mut content_kinds = 0;
        for session in 0..40u64 {
            let mut cursor = FaultCursor::default();
            let mut bytes = base.clone();
            let kind = plan
                .mutate_dns(session, &mut cursor, &mut bytes, true)
                .expect("p=1 must mutate");
            match kind {
                DnsMutation::SpfCycle | DnsMutation::CnameChain => content_kinds += 1,
                _ => {
                    assert_ne!(bytes, base, "{kind:?} left bytes untouched");
                    dns_changed += 1;
                }
            }
            let mut text = "250-greeting line here\r\n250 final line".to_string();
            plan.mutate_smtp(session, &mut cursor, &mut text)
                .expect("p=1 must mutate");
            if text != "250-greeting line here\r\n250 final line" {
                smtp_changed += 1;
            }
        }
        assert!(dns_changed > 10, "dns_changed={dns_changed}");
        assert!(content_kinds > 0, "content kinds never drawn");
        assert!(smtp_changed > 20, "smtp_changed={smtp_changed}");
    }

    #[test]
    fn content_mutations_gated_by_hostile_knob() {
        let plan = PayloadPlan::new(PayloadConfig {
            dns_corrupt_probability: 1.0,
            smtp_corrupt_probability: 0.0,
            seed: 6,
        });
        let base: Vec<u8> = (0..48u8).collect();
        for session in 0..100u64 {
            let mut cursor = FaultCursor::default();
            let mut bytes = base.clone();
            let kind = plan
                .mutate_dns(session, &mut cursor, &mut bytes, false)
                .expect("p=1 must mutate");
            assert!(
                !matches!(kind, DnsMutation::SpfCycle | DnsMutation::CnameChain),
                "content kind without hostile knob"
            );
        }
    }

    #[test]
    fn malformed_class_roundtrips_through_index() {
        for (i, class) in MalformedClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(MalformedClass::from_index(i), Some(*class));
            assert!(!class.label().is_empty());
        }
        assert_eq!(MalformedClass::from_index(MalformedClass::ALL.len()), None);
    }

    #[test]
    fn malformed_stats_merge_and_total() {
        let mut a = MalformedStats::default();
        a.record(MalformedClass::DnsBadPointer);
        a.record(MalformedClass::DnsBadPointer);
        let mut b = MalformedStats::default();
        b.record(MalformedClass::SmtpBadChar);
        a.merge(&b);
        assert_eq!(a.count(MalformedClass::DnsBadPointer), 2);
        assert_eq!(a.count(MalformedClass::SmtpBadChar), 1);
        assert_eq!(a.total(), 3);
        assert_eq!(a.iter().map(|(_, n)| n).sum::<u64>(), 3);
    }

    #[test]
    fn default_io_plan_is_inert() {
        let plan = IoPlan::new(IoConfig::default());
        assert!(!plan.is_active());
        for index in 0..100u64 {
            assert_eq!(plan.write_fault(3, index, index * 64, 64), WriteFault::Full);
            assert!(!plan.fsync_fails(3, index));
            assert!(!plan.rename_fails(3, index));
            assert_eq!(plan.read_corruption(3, index, 4096), None);
        }
    }

    #[test]
    fn enospc_caps_the_file_and_stays_full() {
        let plan = IoPlan::new(IoConfig {
            enospc_after_bytes: 100,
            seed: 1,
            ..Default::default()
        });
        assert!(plan.is_active());
        assert_eq!(plan.write_fault(0, 0, 0, 64), WriteFault::Full);
        assert_eq!(
            plan.write_fault(0, 1, 64, 64),
            WriteFault::Enospc { keep: 36 }
        );
        // Once at capacity, every further write yields zero bytes.
        assert_eq!(
            plan.write_fault(0, 2, 100, 1),
            WriteFault::Enospc { keep: 0 }
        );
        assert_eq!(
            plan.write_fault(0, 3, 100, 4096),
            WriteFault::Enospc { keep: 0 }
        );
    }

    #[test]
    fn short_writes_keep_a_strict_prefix() {
        let plan = IoPlan::new(IoConfig {
            short_write_probability: 1.0,
            seed: 2,
            ..Default::default()
        });
        for index in 0..50u64 {
            match plan.write_fault(9, index, 0, 128) {
                WriteFault::Short { keep } => assert!(keep < 128),
                other => panic!("p=1 must short-write, got {other:?}"),
            }
        }
    }

    #[test]
    fn io_faults_are_independent_of_consultation_order() {
        // The resume-invariance property: fault decisions depend only on
        // (file id, op index), never on the order files are visited.
        let plan = IoPlan::new(IoConfig {
            short_write_probability: 0.4,
            fsync_fail_probability: 0.3,
            rename_fail_probability: 0.3,
            read_corrupt_probability: 0.4,
            seed: 77,
            ..Default::default()
        });
        let probe = |file: u64, index: u64| {
            (
                plan.write_fault(file, index, index * 10, 64),
                plan.fsync_fails(file, index),
                plan.rename_fails(file, index),
                plan.read_corruption(file, index, 512),
            )
        };
        let sequential: Vec<Vec<_>> = (0..3u64)
            .map(|file| (0..40).map(|i| probe(file, i)).collect())
            .collect();
        let mut interleaved = vec![Vec::new(), Vec::new(), Vec::new()];
        for round in 0..40u64 {
            for k in 0..3usize {
                let file = (round as usize + k) % 3;
                interleaved[file].push(probe(file as u64, round));
            }
        }
        assert_eq!(sequential, interleaved);
    }

    #[test]
    fn distinct_files_get_distinct_io_fault_sequences() {
        let plan = IoPlan::new(IoConfig {
            fsync_fail_probability: 0.5,
            seed: 13,
            ..Default::default()
        });
        let seq = |file: u64| -> Vec<bool> { (0..64).map(|i| plan.fsync_fails(file, i)).collect() };
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn read_corruption_always_changes_a_byte_in_range() {
        let plan = IoPlan::new(IoConfig {
            read_corrupt_probability: 1.0,
            seed: 3,
            ..Default::default()
        });
        for index in 0..100u64 {
            let (pos, mask) = plan
                .read_corruption(4, index, 256)
                .expect("p=1 must corrupt");
            assert!(pos < 256);
            assert_ne!(mask, 0, "mask must change the byte");
        }
        assert_eq!(plan.read_corruption(4, 0, 0), None, "empty reads pass");
    }

    #[test]
    fn stats_merge_adds_fieldwise() {
        let mut a = FaultStats {
            dns_dropped: 1,
            tempfails: 2,
            ..Default::default()
        };
        let b = FaultStats {
            dns_dropped: 3,
            contained_panics: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dns_dropped, 4);
        assert_eq!(a.tempfails, 2);
        assert_eq!(a.contained_panics, 4);
        assert!(a.any_injected());
        assert!(!FaultStats::default().any_injected());
    }

    #[test]
    fn counters_roundtrip_in_declaration_order() {
        let mut counters = [0u64; FAULT_COUNTERS];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = i as u64 + 1;
        }
        let mut malformed = MalformedStats::default();
        malformed.record(MalformedClass::SpfPolicyLoop);
        let stats = FaultStats::from_counters(counters, malformed);
        assert_eq!(stats.counters(), counters);
        assert_eq!(stats.malformed, malformed);
        assert_eq!(FaultStats::COUNTER_NAMES[0], "dns_dropped");
        assert_eq!(stats.dns_dropped, 1);
        assert_eq!(
            FaultStats::COUNTER_NAMES[FAULT_COUNTERS - 1],
            "resource_shed"
        );
        assert_eq!(stats.resource_shed, FAULT_COUNTERS as u64);
    }
}
