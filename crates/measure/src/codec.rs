//! The one binary codec behind the session journal ([`crate::journal`]),
//! the campaign store ([`crate::store`]) and the campaign content hash
//! ([`crate::campaign::CampaignResult::content_hash`]).
//!
//! Every persisted type implements [`Codec`]: `put` appends its encoding
//! to an [`Enc`], `get` reads it back from a [`Dec`]. Every read is
//! bounds-checked, so corruption surfaces as a [`FrameError`], never a
//! panic. Plain structs are declared as field lists and enums as tag
//! lists (`codec_structs!`, `codec_enums!`); each encodes its fields in
//! the listed order. Only the primitives, the test-id lookup, the packed
//! SMTP transcript and the fault counters' two layouts (journal/store
//! and the legacy content hash) are written by hand.
//!
//! ```text
//! u8 u16 u32 u64  little-endian          bool      u8 (0 | 1)
//! usize           u64                    f64       u64 (IEEE bits)
//! String, Name    len:u32 utf8           Option<T> 0 | 1 T
//! Vec<T>          len:u32 T*             [T; N]    T*  (no length)
//! (A, B)          A B                    enum      tag:u8 fields
//! frame           len:u32le crc:u32le payload   (crc = CRC-32/IEEE of payload)
//! ```
//!
//! Journal files and store entries are a magic header followed by
//! frames, written by [`Enc::push_frame`] and walked by [`Dec::frame`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::apparatus::{Attribution, QueryRecord};
use crate::engine::{SessionOutcome, SessionRecord};
use crate::journal::JournalFrame;
use crate::shard::ShardStats;
use mailval_dns::rr::RecordType;
use mailval_dns::server::Transport;
use mailval_dns::Name;
use mailval_simnet::{FaultStats, MalformedClass, MalformedStats};
use mailval_smtp::client::{ClientOutcome, Phase, Transcript};
use mailval_smtp::reply::Reply;
use mailval_smtp::EmailAddress;

/// Upper bound on one frame's payload length; anything larger in a
/// length prefix is treated as corruption, not an allocation.
const MAX_FRAME_LEN: u32 = 64 << 20;
/// Pre-allocation cap for a decoded `Vec`: a corrupt length prefix can
/// cost at most this many slots before the payload runs out.
const MAX_PREALLOC: usize = 1024;
/// The first [`FaultStats`] counters (through `hostile_inputs`) precede
/// the malformed-class block in every encoding; later counters follow it.
const COUNTERS_BEFORE_MALFORMED: usize = 15;
/// Tag of the first post-malformed counter in the content hash's tail
/// (`"RESHED"`); the next counter would use tag + 1, and so on.
const HASH_TAIL_TAG: u64 = 0x5245_5348_4544;

/// Why a payload failed to decode. Journal replay treats any of these as
/// tail corruption; the store as a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Payload ended early.
    Truncated,
    /// Payload has bytes left over after the frame decoded.
    Trailing,
    /// An enum tag byte was out of range.
    BadTag,
    /// A string was not valid UTF-8.
    BadString,
    /// A DNS name failed to re-parse.
    BadName,
    /// A test id not present in [`crate::policies::ALL_TESTS`].
    UnknownTest,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            FrameError::Truncated => "frame payload truncated",
            FrameError::Trailing => "frame payload has trailing bytes",
            FrameError::BadTag => "bad enum tag",
            FrameError::BadString => "invalid UTF-8 string",
            FrameError::BadName => "unparseable DNS name",
            FrameError::UnknownTest => "unknown test id",
        };
        write!(f, "{what}")
    }
}

impl std::error::Error for FrameError {}

/// CRC-32 (IEEE 802.3, reflected, the zlib/`cksum -o3` polynomial) of
/// `data`, sliced by 16: each step folds sixteen input bytes through
/// sixteen independent table lookups, and the tail goes one byte per
/// lookup.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut block = [0u8; 16];
        block.copy_from_slice(chunk);
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        block[..4].copy_from_slice(&head.to_le_bytes());
        // Byte i still has 15 - i bytes after it in the block, so it
        // goes through the table that appends that many zero bytes.
        crc = 0;
        for (i, &b) in block.iter().enumerate() {
            crc ^= CRC32_TABLES[15 - i][usize::from(b)];
        }
    }
    for &b in chunks.remainder() {
        crc = CRC32_TABLES[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// Row 0, entry `i`, is eight bitwise CRC-32 steps applied to `i`: the
/// effect of one input byte on the register. Row `k` is the effect of
/// that byte followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A value with a binary encoding.
pub(crate) trait Codec: Sized {
    /// Append this value's encoding.
    fn put(&self, enc: &mut Enc);
    /// Read one value back.
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError>;
}

/// Append-only encoding buffer.
#[derive(Default)]
pub(crate) struct Enc(pub(crate) Vec<u8>);

impl Enc {
    pub(crate) fn put<T: Codec>(&mut self, v: &T) {
        v.put(self);
    }

    pub(crate) fn str(&mut self, s: &str) {
        (s.len() as u32).put(self);
        self.0.extend_from_slice(s.as_bytes());
    }

    /// A length-prefixed sequence, as a `Vec<T>` encodes.
    pub(crate) fn seq<T: Codec>(&mut self, items: &[T]) {
        (items.len() as u32).put(self);
        for item in items {
            item.put(self);
        }
    }

    /// Append one frame, `len:u32le crc:u32le payload`, whose payload
    /// `body` writes.
    pub(crate) fn push_frame(&mut self, body: impl FnOnce(&mut Enc)) {
        let start = self.0.len();
        self.0.extend_from_slice(&[0; 8]);
        body(self);
        let payload = &self.0[start + 8..];
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(payload).to_le_bytes();
        self.0[start..start + 4].copy_from_slice(&len);
        self.0[start + 4..start + 8].copy_from_slice(&crc);
    }
}

/// Bounds-checked decoding cursor over a payload or a file of frames.
#[derive(Clone, Copy)]
pub(crate) struct Dec<'a> {
    data: &'a [u8],
    /// Bytes consumed so far.
    pub(crate) pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    pub(crate) fn get<T: Codec>(&mut self) -> Result<T, FrameError> {
        T::get(self)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        let out = self.data.get(self.pos..end).ok_or(FrameError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        self.take(N)?.try_into().map_err(|_| FrameError::Truncated)
    }

    /// A length-prefixed string, borrowed from the payload.
    pub(crate) fn str(&mut self) -> Result<&'a str, FrameError> {
        let len = self.get::<u32>()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| FrameError::BadString)
    }

    /// Decode a `Vec<T>`-encoded sequence, appending to `out`.
    pub(crate) fn seq_into<T: Codec>(&mut self, out: &mut Vec<T>) -> Result<(), FrameError> {
        let n = self.get::<u32>()? as usize;
        out.reserve_exact(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(T::get(self)?);
        }
        Ok(())
    }

    /// The frame walker: the next frame's payload, if its header is
    /// whole, its length at most [`MAX_FRAME_LEN`] and in bounds, and its
    /// CRC verifies. Otherwise `None`, with the cursor left at the frame.
    pub(crate) fn frame(&mut self) -> Option<&'a [u8]> {
        let mut ahead = *self;
        let (len, crc) = ahead.get::<(u32, u32)>().ok()?;
        if len > MAX_FRAME_LEN {
            return None;
        }
        let payload = ahead.take(len as usize).ok()?;
        if crc32(payload) != crc {
            return None;
        }
        *self = ahead;
        Some(payload)
    }

    pub(crate) fn finished(&self) -> Result<(), FrameError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(FrameError::Trailing)
        }
    }
}

// ---------------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------------

macro_rules! codec_le {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, enc: &mut Enc) {
                enc.0.extend_from_slice(&self.to_le_bytes());
            }
            fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
                Ok(<$t>::from_le_bytes(dec.array()?))
            }
        }
    )*};
}

codec_le!(u8, u16, u32, u64);

/// Types encoded as a primitive image: `put` writes the image `$to`
/// computes from `&self`, `get` maps it back through `$from`, which may
/// reject it.
macro_rules! codec_via {
    ($($ty:ty => $wire:ty, |$v:ident| $to:expr, |$w:ident| $from:expr;)*) => {$(
        impl Codec for $ty {
            fn put(&self, enc: &mut Enc) {
                let $v = self;
                let image: $wire = $to;
                image.put(enc);
            }
            fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
                let $w: $wire = dec.get()?;
                $from
            }
        }
    )*};
}

codec_via! {
    bool => u8, |v| u8::from(*v), |b| [false, true].get(b as usize).copied().ok_or(FrameError::BadTag);
    usize => u64, |v| *v as u64, |v| usize::try_from(v).map_err(|_| FrameError::Truncated);
    f64 => u64, |v| v.to_bits(), |v| Ok(f64::from_bits(v));
    RecordType => u16, |t| t.code(), |c| Ok(RecordType::from_code(c));
    MalformedClass => u8, |c| c.index() as u8,
        |i| MalformedClass::from_index(i as usize).ok_or(FrameError::BadTag);
}

impl Codec for String {
    fn put(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        dec.str().map(str::to_owned)
    }
}

/// Session test ids: stored as the id string, decoded back to the
/// `'static` id of the matching [`crate::policies::ALL_TESTS`] entry.
impl Codec for &'static str {
    fn put(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        let test = crate::policies::test_by_id(dec.str()?).ok_or(FrameError::UnknownTest)?;
        Ok(test.id)
    }
}

impl Codec for Name {
    /// The `Display` text, written without formatting it: `"."` for
    /// the root, the dotted text otherwise.
    fn put(&self, enc: &mut Enc) {
        enc.str(if self.is_root() { "." } else { self.as_str() });
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        Name::parse(dec.str()?).map_err(|_| FrameError::BadName)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, enc: &mut Enc) {
        self.is_some().put(enc);
        if let Some(v) = self {
            v.put(enc);
        }
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        dec.get::<bool>()?.then(|| dec.get()).transpose()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, enc: &mut Enc) {
        enc.seq(self);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        let mut out = Vec::new();
        dec.seq_into(&mut out)?;
        Ok(out)
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn put(&self, enc: &mut Enc) {
        for v in self {
            v.put(enc);
        }
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = dec.get()?;
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, enc: &mut Enc) {
        self.0.put(enc);
        self.1.put(enc);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        Ok((dec.get()?, dec.get()?))
    }
}

// ---------------------------------------------------------------------------
// Enums
// ---------------------------------------------------------------------------

/// Enums as a `u8` tag followed by the variant's fields, in order. Both
/// matches are exhaustive, so a new variant fails to compile until it
/// has a tag.
macro_rules! codec_enums {
    ($($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),* })?,)* })*) => {$(
        impl Codec for $ty {
            fn put(&self, enc: &mut Enc) {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        let tag: u8 = $tag;
                        tag.put(enc);
                        $($($field.put(enc);)*)?
                    })*
                }
            }
            fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
                Ok(match dec.get::<u8>()? {
                    $($tag => $ty::$variant $({ $($field: dec.get()?),* })?,)*
                    _ => return Err(FrameError::BadTag),
                })
            }
        }
    )*};
}

codec_enums! {
    Phase { 0 => Greeting, 1 => Helo, 2 => Mail, 3 => Rcpt, 4 => Data, 5 => Message, 6 => Quit, }
    Transport { 0 => Udp, 1 => Tcp, }
    SessionOutcome {
        0 => Completed,
        1 => BudgetExhausted { virtual_ms, events },
        2 => HostileInput { class },
        3 => ResourceShed { queued_bytes, pending_events },
    }
}

// ---------------------------------------------------------------------------
// Fault counters
// ---------------------------------------------------------------------------

impl Codec for MalformedStats {
    fn put(&self, enc: &mut Enc) {
        for (_, count) in self.iter() {
            count.put(enc);
        }
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        Ok(MalformedStats::from_counts(dec.get()?))
    }
}

/// Both fault layouts share a prefix: the counters before the malformed
/// block, then the block; `later` writes each later counter.
fn put_faults_with(enc: &mut Enc, faults: &FaultStats, later: impl Fn(&mut Enc, u64, u64)) {
    let counters = faults.counters();
    let (before, after) = counters.split_at(COUNTERS_BEFORE_MALFORMED);
    for v in before {
        v.put(enc);
    }
    faults.malformed.put(enc);
    for (offset, &v) in after.iter().enumerate() {
        later(enc, offset as u64, v);
    }
}

/// The journal and store layout: every counter, in order around the
/// malformed block.
impl Codec for FaultStats {
    fn put(&self, enc: &mut Enc) {
        put_faults_with(enc, self, |enc, _, v| v.put(enc));
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        let mut counters = FaultStats::default().counters();
        let (before, after) = counters.split_at_mut(COUNTERS_BEFORE_MALFORMED);
        for v in before {
            *v = dec.get()?;
        }
        let malformed = dec.get()?;
        for v in after {
            *v = dec.get()?;
        }
        Ok(FaultStats::from_counters(counters, malformed))
    }
}

/// The content hash's layout, which predates the later counters: each
/// joins the digest only when it fired, as `(HASH_TAIL_TAG + offset,
/// value)`, so a result whose later counters are all zero hashes exactly
/// as it did before they existed.
pub(crate) fn put_hashed_faults(enc: &mut Enc, faults: &FaultStats) {
    put_faults_with(enc, faults, |enc, offset, v| {
        if v > 0 {
            (HASH_TAIL_TAG + offset, v).put(enc);
        }
    });
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Move past `replies` encoded transcript replies, reading only their
/// line counts and lengths.
fn skip_replies(dec: &mut Dec<'_>, replies: u32) -> Result<(), FrameError> {
    for _ in 0..replies {
        dec.take(3)?; // phase, code
        for _ in 0..dec.get::<u32>()? {
            let len = dec.get::<u32>()?;
            dec.take(len as usize)?;
        }
    }
    Ok(())
}

/// A transcript encodes as the `Vec<(Phase, Reply)>` it replaced:
/// `len:u32`, then per reply its phase, code and `Vec<String>` lines.
impl Codec for Transcript {
    fn put(&self, enc: &mut Enc) {
        (self.len() as u32).put(enc);
        for (phase, code, lines) in self.iter() {
            phase.put(enc);
            code.put(enc);
            (lines.len() as u32).put(enc);
            for line in lines {
                enc.str(line);
            }
        }
    }

    /// The packed form is as long as the encoding, so a first walk over
    /// a copy of the cursor, reading only the counts and lengths, sizes
    /// the transcript's one allocation. The walk checks nothing else and
    /// stops where the bytes run out; the second pass makes every check,
    /// in the `Vec<(Phase, Reply)>` decoder's order.
    fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
        let replies = dec.get::<u32>()?;
        let mut ahead = *dec;
        // A walk cut short by damaged bytes only reserves less.
        let _ = skip_replies(&mut ahead, replies);
        let mut transcript = Transcript::with_capacity(ahead.pos - dec.pos);
        for _ in 0..replies {
            let phase = dec.get()?;
            let code = dec.get()?;
            let lines = dec.get::<u32>()?;
            transcript.try_push(phase, code, (0..lines).map(|_| dec.str()))?;
        }
        Ok(transcript)
    }
}

/// Plain structs as the concatenation of the listed fields, in order.
/// The decoder builds each struct literally, so a field missing from its
/// list fails to compile.
macro_rules! codec_structs {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Codec for $ty {
            fn put(&self, enc: &mut Enc) {
                $(self.$field.put(enc);)*
            }
            fn get(dec: &mut Dec<'_>) -> Result<Self, FrameError> {
                Ok($ty { $($field: dec.get()?,)* })
            }
        }
    )*};
}

codec_structs! {
    Reply { code, lines }
    EmailAddress { local, domain }
    ClientOutcome { phase_reached, accepted_rcpt, delivered, rejection, retries, transcript }
    Attribution { testid, host_index, domain_index, path }
    QueryRecord { time_ms, session, qname, qtype, transport, via_ipv6, attribution }
    SessionRecord {
        session_id, host_index, domain_index, testid, start_ms, outcome, delivery_time_ms,
        closed_by_server, error, termination,
    }
    ShardStats {
        shard, sessions, events, queries_logged, virtual_ms, wall_ms, faults, restarts,
        durability_lost,
    }
    JournalFrame { record, queries, faults, events, end_ms }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;

    /// The bitwise CRC-32 the tables are derived from: the reference the
    /// sliced [`crc32`] is tested against.
    pub(crate) fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_and_bitwise_match_the_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // Every single-byte input exercises every table entry.
        for b in 0..=255u8 {
            assert_eq!(crc32(&[b]), crc32_bitwise(&[b]), "byte {b:#04x}");
        }
    }

    /// `len` bytes of xorshift64 output: a fixed pseudo-random buffer.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_at_every_length_and_alignment() {
        // Lengths below, at and across the 16-byte step, each started
        // at every offset within one step.
        let buf = noise(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_on_a_multi_megabyte_buffer() {
        let buf = noise(3 << 20 | 7);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    /// The outcome as it was before transcripts were packed: the
    /// reference decoder the [`Transcript`] codec must match byte for
    /// byte and error for error.
    #[derive(Debug)]
    struct RefOutcome {
        phase_reached: Phase,
        accepted_rcpt: Option<EmailAddress>,
        delivered: bool,
        rejection: Option<(Phase, Reply)>,
        retries: u32,
        transcript: Vec<(Phase, Reply)>,
    }

    /// A [`SessionRecord`] whose outcome is a [`RefOutcome`].
    #[derive(Debug)]
    struct RefRecord {
        session_id: usize,
        host_index: usize,
        domain_index: usize,
        testid: Option<&'static str>,
        start_ms: u64,
        outcome: Option<RefOutcome>,
        delivery_time_ms: Option<u64>,
        closed_by_server: bool,
        error: Option<String>,
        termination: SessionOutcome,
    }

    codec_structs! {
        RefOutcome { phase_reached, accepted_rcpt, delivered, rejection, retries, transcript }
        RefRecord {
            session_id, host_index, domain_index, testid, start_ms, outcome, delivery_time_ms,
            closed_by_server, error, termination,
        }
    }

    fn encode<T: Codec>(v: &T) -> Vec<u8> {
        let mut enc = Enc::default();
        enc.put(v);
        enc.0
    }

    /// Decode exactly one `T` from `bytes`.
    fn decode<T: Codec>(bytes: &[u8]) -> Result<T, FrameError> {
        let mut dec = Dec::new(bytes);
        let v = dec.get()?;
        dec.finished()?;
        Ok(v)
    }

    /// Transcripts covering a multiline EHLO, an empty line, a reply
    /// with no lines, non-ASCII text and the empty transcript.
    fn sample_transcripts() -> Vec<Vec<(Phase, Reply)>> {
        let ehlo = Reply::multiline(
            250,
            vec![
                "mx.test greets probe.dns-lab.org".into(),
                "SIZE 10485760".into(),
                "8BITMIME".into(),
                String::new(),
                "SMTPUTF8".into(),
            ],
        );
        vec![
            vec![],
            vec![(Phase::Greeting, Reply::greeting("mx.test"))],
            vec![
                (Phase::Greeting, Reply::new(220, "")),
                (Phase::Helo, ehlo),
                (Phase::Mail, Reply::ok()),
                (
                    Phase::Rcpt,
                    Reply::new(550, "Empf\u{e4}nger unbekannt \u{2014} \u{672a}\u{77e5}"),
                ),
                (
                    Phase::Rcpt,
                    Reply {
                        code: 451,
                        lines: vec![],
                    },
                ),
                (Phase::Data, Reply::start_mail_input()),
                (Phase::Quit, Reply::closing()),
            ],
        ]
    }

    fn record(transcript: &[(Phase, Reply)]) -> SessionRecord {
        SessionRecord {
            session_id: 9,
            host_index: 4,
            domain_index: 2,
            testid: Some(crate::policies::ALL_TESTS[0].id),
            start_ms: 1_500,
            outcome: Some(ClientOutcome {
                phase_reached: Phase::Data,
                accepted_rcpt: Some(EmailAddress::new(
                    "john.smith",
                    Name::parse("target.test").expect("valid name"),
                )),
                delivered: false,
                rejection: transcript.last().cloned(),
                retries: 1,
                transcript: transcript.iter().cloned().collect(),
            }),
            delivery_time_ms: None,
            closed_by_server: false,
            error: None,
            termination: SessionOutcome::Completed,
        }
    }

    #[test]
    fn transcript_bytes_match_the_reply_vector_reference() {
        for replies in sample_transcripts() {
            let transcript: Transcript = replies.iter().cloned().collect();
            let bytes = encode(&replies);
            assert_eq!(encode(&transcript), bytes, "{replies:?}");
            let decoded = decode::<Transcript>(&bytes).expect("decodes");
            assert_eq!(decoded, transcript);
            assert_eq!(decoded.len(), replies.len());
            let unpacked: Vec<(Phase, Reply)> = decoded
                .iter()
                .map(|(phase, code, lines)| {
                    let lines = lines.map(str::to_owned).collect();
                    (phase, Reply { code, lines })
                })
                .collect();
            assert_eq!(unpacked, replies);
        }
    }

    /// `bytes` decodes to the same value or the same error as a
    /// [`SessionRecord`] and as a [`RefRecord`].
    fn assert_decodes_alike(bytes: &[u8], what: &str) {
        let packed = decode::<SessionRecord>(bytes).map(|r| encode(&r));
        let reference = decode::<RefRecord>(bytes).map(|r| encode(&r));
        assert_eq!(packed, reference, "{what}");
    }

    #[test]
    fn damaged_session_records_fail_like_the_reference_decoder() {
        for replies in sample_transcripts() {
            let bytes = encode(&record(&replies));
            assert_decodes_alike(&bytes, "intact");
            for len in 0..bytes.len() {
                assert_decodes_alike(&bytes[..len], &format!("truncated to {len}"));
            }
            for at in 0..bytes.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut damaged = bytes.clone();
                    damaged[at] ^= mask;
                    assert_decodes_alike(&damaged, &format!("byte {at} ^ {mask:#04x}"));
                }
            }
        }
    }
}
