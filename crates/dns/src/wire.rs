//! DNS wire format (RFC 1035 §4): header, questions, resource records,
//! name compression and decompression.
//!
//! The encoder performs standard suffix compression (every encoded name
//! suffix at an offset < 0x3fff is remembered and reused as a pointer).
//! The decoder follows compression pointers with strict loop protection:
//! pointers must point strictly backwards, bounding the walk.

use crate::message::{Message, Question};
use crate::name::{Name, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::rr::{RData, Record, RecordClass, RecordType, SoaData};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Response codes (RFC 1035 §4.1.1, names per RFC 2136 usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    /// 4-bit wire code.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c & 0xf,
        }
    }

    /// From a 4-bit wire code.
    pub fn from_code(code: u8) -> Self {
        match code & 0xf {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            c => Rcode::Other(c),
        }
    }
}

/// Errors decoding (or encoding) wire-format messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran off the end of the buffer.
    Truncated,
    /// A compression pointer pointed forwards or at itself.
    BadPointer,
    /// A label exceeded 63 bytes or used a reserved length prefix.
    BadLabel,
    /// A decompressed name exceeded 255 bytes.
    NameTooLong,
    /// RDATA length did not match its contents.
    BadRdataLength,
    /// A name contained bytes we refuse to process.
    BadName,
    /// A TXT character-string exceeded 255 bytes (its length prefix is
    /// a single byte; encoding it would silently corrupt the message).
    TxtTooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            WireError::Truncated => "message truncated",
            WireError::BadPointer => "bad compression pointer",
            WireError::BadLabel => "bad label",
            WireError::NameTooLong => "name too long",
            WireError::BadRdataLength => "rdata length mismatch",
            WireError::BadName => "invalid name contents",
            WireError::TxtTooLong => "TXT character-string over 255 bytes",
        };
        write!(f, "{what}")
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Streaming encoder with name compression.
///
/// The compression table is a list of (suffix text, offset) pairs in the
/// order they were first written, borrowed from the names being encoded.
/// The apparatus's messages record few suffixes, because the names an
/// answer carries share their tails with the question: at most 6 over
/// the determinism fixtures, and 38 for an IPv6 reverse name under a
/// probe domain. Scanning that few short strings beats hashing each
/// probe.
pub struct Encoder<'a> {
    buf: Vec<u8>,
    /// Each encoded name suffix (as dotted text) and the offset of its
    /// first occurrence, for compression pointers; a suffix appears at
    /// most once.
    suffixes: Vec<(&'a str, usize)>,
}

impl Default for Encoder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Encoder<'a> {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self::with_buf(Vec::with_capacity(512))
    }

    /// Create an encoder that reuses `buf`'s allocation (cleared). Lets
    /// a hot encode loop amortize the output buffer across messages.
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Encoder {
            buf,
            suffixes: Vec::new(),
        }
    }

    /// Finish, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Encode a name with compression.
    ///
    /// Fails with [`WireError::BadLabel`] on a label over
    /// [`MAX_LABEL_LEN`] bytes: the length prefix is a single byte with
    /// the top two bits reserved for compression pointers, so an
    /// oversized label cannot be represented — truncating it (what an
    /// unchecked `as u8` cast would do) would silently corrupt the
    /// message.
    pub fn put_name(&mut self, name: &'a Name) -> Result<(), WireError> {
        let text = name.as_str();
        let mut start = 0;
        for label in name.labels() {
            let tail = &text[start..];
            if let Some(&(_, off)) = self.suffixes.iter().find(|(s, _)| *s == tail) {
                // Emit a pointer to the previously-encoded suffix.
                self.put_u16(0xc000 | off as u16);
                return Ok(());
            }
            if self.buf.len() < 0x3fff {
                self.suffixes.push((tail, self.buf.len()));
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::BadLabel);
            }
            self.put_u8(label.len() as u8);
            self.buf.extend_from_slice(label.as_bytes());
            start += label.len() + 1;
        }
        self.put_u8(0);
        Ok(())
    }

    /// Encode a name without compression (required inside RDATA of types
    /// that some implementations won't decompress; we compress only
    /// NS/CNAME/PTR/MX/SOA names which RFC 3597 grandfathers). Same
    /// label-length failure mode as [`Encoder::put_name`].
    pub fn put_name_uncompressed(&mut self, name: &Name) -> Result<(), WireError> {
        for label in name.labels() {
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::BadLabel);
            }
            self.put_u8(label.len() as u8);
            self.buf.extend_from_slice(label.as_bytes());
        }
        self.put_u8(0);
        Ok(())
    }

    fn put_question(&mut self, q: &'a Question) -> Result<(), WireError> {
        self.put_name(&q.name)?;
        self.put_u16(q.rtype.code());
        self.put_u16(q.class.code());
        Ok(())
    }

    fn put_record(&mut self, r: &'a Record) -> Result<(), WireError> {
        self.put_name(&r.name)?;
        self.put_u16(r.rtype().code());
        self.put_u16(r.class.code());
        self.put_u32(r.ttl);
        // Reserve rdlength, fill after encoding rdata.
        let len_pos = self.buf.len();
        self.put_u16(0);
        let start = self.buf.len();
        match &r.rdata {
            RData::A(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.put_name(n)?,
            RData::Mx {
                preference,
                exchange,
            } => {
                self.put_u16(*preference);
                self.put_name(exchange)?;
            }
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::TxtTooLong);
                    }
                    self.put_u8(s.len() as u8);
                    self.buf.extend_from_slice(s);
                }
            }
            RData::Soa(soa) => {
                self.put_name(&soa.mname)?;
                self.put_name(&soa.rname)?;
                self.put_u32(soa.serial);
                self.put_u32(soa.refresh);
                self.put_u32(soa.retry);
                self.put_u32(soa.expire);
                self.put_u32(soa.minimum);
            }
            RData::Opt(bytes) | RData::Other(bytes) => self.buf.extend_from_slice(bytes),
        }
        let rdlen = (self.buf.len() - start) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        Ok(())
    }
}

/// Encode a complete message to wire format. Fails if any name label or
/// TXT character-string cannot be represented (see
/// [`Encoder::put_name`]); a `Message` built from validated [`Name`]s
/// and [`RData::txt_from_str`] chunks always encodes.
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, WireError> {
    encode_message_with(msg, Vec::with_capacity(512))
}

/// [`encode_message`] reusing `buf`'s allocation for the output.
pub fn encode_message_with(msg: &Message, buf: Vec<u8>) -> Result<Vec<u8>, WireError> {
    let mut enc = Encoder::with_buf(buf);
    enc.put_u16(msg.id);
    let mut flags: u16 = 0;
    if msg.is_response {
        flags |= 0x8000;
    }
    flags |= ((msg.opcode & 0xf) as u16) << 11;
    if msg.authoritative {
        flags |= 0x0400;
    }
    if msg.truncated {
        flags |= 0x0200;
    }
    if msg.recursion_desired {
        flags |= 0x0100;
    }
    if msg.recursion_available {
        flags |= 0x0080;
    }
    flags |= msg.rcode.code() as u16;
    enc.put_u16(flags);
    enc.put_u16(msg.questions.len() as u16);
    enc.put_u16(msg.answers.len() as u16);
    enc.put_u16(msg.authorities.len() as u16);
    enc.put_u16(msg.additionals.len() as u16);
    for q in &msg.questions {
        enc.put_question(q)?;
    }
    for r in &msg.answers {
        enc.put_record(r)?;
    }
    for r in &msg.authorities {
        enc.put_record(r)?;
    }
    for r in &msg.additionals {
        enc.put_record(r)?;
    }
    Ok(enc.into_bytes())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(((self.get_u8()? as u16) << 8) | self.get_u8()? as u16)
    }

    fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(((self.get_u16()? as u32) << 16) | self.get_u16()? as u32)
    }

    fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Decode a (possibly compressed) name starting at the current
    /// position. Pointers must point strictly backwards.
    fn get_name(&mut self) -> Result<Name, WireError> {
        // Validated, lowercased text; `wire_len <= 255` bounds it to 253.
        let mut text = [0u8; MAX_NAME_LEN];
        let mut text_len = 0usize;
        let mut wire_len = 1usize; // terminating zero
        let mut pos = self.pos;
        // `end` is where parsing resumes after the name: set at the first
        // pointer encountered (or after the terminating zero if none).
        let mut resume: Option<usize> = None;
        // Strictly-decreasing pointer targets bound the loop.
        let mut min_ptr = pos;

        loop {
            let len = *self.data.get(pos).ok_or(WireError::Truncated)?;
            match len {
                0 => {
                    pos += 1;
                    break;
                }
                1..=63 => {
                    let start = pos + 1;
                    let end = start + len as usize;
                    if end > self.data.len() {
                        return Err(WireError::Truncated);
                    }
                    wire_len += 1 + len as usize;
                    if wire_len > 255 {
                        return Err(WireError::NameTooLong);
                    }
                    if text_len > 0 {
                        text[text_len] = b'.';
                        text_len += 1;
                    }
                    for &b in &self.data[start..end] {
                        if !(0x21..=0x7e).contains(&b) || b == b'.' {
                            return Err(WireError::BadName);
                        }
                        text[text_len] = b.to_ascii_lowercase();
                        text_len += 1;
                    }
                    pos = end;
                }
                l if l & 0xc0 == 0xc0 => {
                    let second = *self.data.get(pos + 1).ok_or(WireError::Truncated)?;
                    let target = (((l & 0x3f) as usize) << 8) | second as usize;
                    if resume.is_none() {
                        resume = Some(pos + 2);
                    }
                    if target >= min_ptr {
                        return Err(WireError::BadPointer);
                    }
                    min_ptr = target;
                    pos = target;
                }
                _ => return Err(WireError::BadLabel),
            }
        }
        self.pos = resume.unwrap_or(pos);
        let text = std::str::from_utf8(&text[..text_len]).map_err(|_| WireError::BadName)?;
        Ok(Name::from_canonical(text))
    }

    fn get_question(&mut self) -> Result<Question, WireError> {
        let name = self.get_name()?;
        let rtype = RecordType::from_code(self.get_u16()?);
        let class = RecordClass::from_code(self.get_u16()?);
        Ok(Question { name, rtype, class })
    }

    fn get_record(&mut self) -> Result<Record, WireError> {
        let name = self.get_name()?;
        let rtype = RecordType::from_code(self.get_u16()?);
        let class = RecordClass::from_code(self.get_u16()?);
        let ttl = self.get_u32()?;
        let rdlen = self.get_u16()? as usize;
        let rdata_end = self.pos.checked_add(rdlen).ok_or(WireError::Truncated)?;
        if rdata_end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let rdata = match rtype {
            RecordType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdataLength);
                }
                let o = self.get_bytes(4)?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdataLength);
                }
                let o = self.get_bytes(16)?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(oct))
            }
            RecordType::Ns => RData::Ns(self.get_name()?),
            RecordType::Cname => RData::Cname(self.get_name()?),
            RecordType::Ptr => RData::Ptr(self.get_name()?),
            RecordType::Mx => {
                let preference = self.get_u16()?;
                let exchange = self.get_name()?;
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                while self.pos < rdata_end {
                    let len = self.get_u8()? as usize;
                    if self.pos + len > rdata_end {
                        return Err(WireError::BadRdataLength);
                    }
                    strings.push(self.get_bytes(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RecordType::Soa => {
                let mname = self.get_name()?;
                let rname = self.get_name()?;
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial: self.get_u32()?,
                    refresh: self.get_u32()?,
                    retry: self.get_u32()?,
                    expire: self.get_u32()?,
                    minimum: self.get_u32()?,
                })
            }
            RecordType::Opt => RData::Opt(self.get_bytes(rdlen)?.to_vec()),
            RecordType::Other(_) => RData::Other(self.get_bytes(rdlen)?.to_vec()),
        };
        if self.pos != rdata_end {
            return Err(WireError::BadRdataLength);
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

/// Decode a complete wire-format message.
pub fn decode_message(data: &[u8]) -> Result<Message, WireError> {
    let mut dec = Decoder::new(data);
    let id = dec.get_u16()?;
    let flags = dec.get_u16()?;
    let qd = dec.get_u16()? as usize;
    let an = dec.get_u16()? as usize;
    let ns = dec.get_u16()? as usize;
    let ar = dec.get_u16()? as usize;
    let mut msg = Message {
        id,
        is_response: flags & 0x8000 != 0,
        opcode: ((flags >> 11) & 0xf) as u8,
        authoritative: flags & 0x0400 != 0,
        truncated: flags & 0x0200 != 0,
        recursion_desired: flags & 0x0100 != 0,
        recursion_available: flags & 0x0080 != 0,
        rcode: Rcode::from_code(flags as u8),
        // Pre-allocation is capped by what the remaining bytes could
        // possibly hold (a question is ≥ 5 bytes, a record ≥ 11), so a
        // header lying about its counts can never allocate past the
        // datagram itself; the parse loops below still fail with
        // `Truncated` when the promised entries run out of bytes.
        questions: Vec::with_capacity(qd.min(data.len().saturating_sub(12) / 5)),
        answers: Vec::with_capacity(an.min(64).min(data.len().saturating_sub(12) / 11)),
        authorities: Vec::with_capacity(ns.min(64).min(data.len().saturating_sub(12) / 11)),
        additionals: Vec::with_capacity(ar.min(64).min(data.len().saturating_sub(12) / 11)),
    };
    for _ in 0..qd {
        msg.questions.push(dec.get_question()?);
    }
    for _ in 0..an {
        msg.answers.push(dec.get_record()?);
    }
    for _ in 0..ns {
        msg.authorities.push(dec.get_record()?);
    }
    for _ in 0..ar {
        msg.additionals.push(dec.get_record()?);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_message() -> Message {
        let mut msg = Message::query(0x1234, n("t01.m5.spf.example"), RecordType::Txt);
        msg.recursion_desired = true;
        msg
    }

    #[test]
    fn query_roundtrip() {
        let msg = sample_message();
        let bytes = encode_message(&msg).unwrap();
        let decoded = decode_message(&bytes).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn response_roundtrip_all_rdata_types() {
        let mut msg = Message::response_to(&sample_message(), Rcode::NoError);
        msg.authoritative = true;
        msg.answers = vec![
            Record::new(n("a.example"), 300, RData::A("192.0.2.1".parse().unwrap())),
            Record::new(
                n("a.example"),
                300,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ),
            Record::new(
                n("a.example"),
                300,
                RData::Mx {
                    preference: 10,
                    exchange: n("mx1.a.example"),
                },
            ),
            Record::new(
                n("a.example"),
                60,
                RData::Txt(vec![b"v=spf1 ip4:192.0.2.1 -all".to_vec()]),
            ),
            Record::new(n("alias.example"), 60, RData::Cname(n("a.example"))),
            Record::new(n("a.example"), 60, RData::Ns(n("ns1.a.example"))),
            Record::new(n("1.2.0.192.in-addr.arpa"), 60, RData::Ptr(n("a.example"))),
        ];
        msg.authorities = vec![Record::new(
            n("example"),
            3600,
            RData::Soa(SoaData {
                mname: n("ns1.example"),
                rname: n("hostmaster.example"),
                serial: 2021120701,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        )];
        let bytes = encode_message(&msg).unwrap();
        let decoded = decode_message(&bytes).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn compression_known_answer() {
        // Answer owners, an MX exchange, an NS target and the SOA
        // mname/rname all share suffixes with the question and with
        // each other. The hex is the encoding of the label-vector
        // encoder this one replaced: every pointer must land where it did.
        let query = Message::query(0x1234, n("example.com"), RecordType::Mx);
        let mut msg = Message::response_to(&query, Rcode::NoError);
        msg.authoritative = true;
        let mx = |preference, exchange| RData::Mx {
            preference,
            exchange: n(exchange),
        };
        msg.answers = vec![
            Record::new(n("example.com"), 300, mx(10, "mx1.example.com")),
            Record::new(n("example.com"), 300, mx(20, "mx2.mail.example.com")),
            Record::new(n("www.example.com"), 60, RData::Cname(n("example.com"))),
            Record::new(n("example.com"), 60, RData::Ns(n("ns1.example.net"))),
        ];
        msg.authorities = vec![Record::new(
            n("example.com"),
            3600,
            RData::Soa(SoaData {
                mname: n("ns1.example.net"),
                rname: n("hostmaster.mail.example.com"),
                serial: 2021,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        )];
        msg.additionals = vec![Record::new(
            n("mx2.mail.example.com"),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        )];
        let bytes = encode_message(&msg).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "123484000001000400010001076578616d706c6503636f6d00000f0001c00c000f00010000012c0008000a036d7831c00cc00c000f00010000012c000d0014036d7832046d61696cc00c03777777c00c000500010000003c0002c00cc00c000200010000003c0011036e7331076578616d706c65036e657400c00c0006000100000e100023c0680a686f73746d6173746572c043000007e500001c2000000e10001275000000012cc03f000100010000003c0004c0000202"
        );
        assert_eq!(decode_message(&bytes).unwrap(), msg);

        // A mixed-case name reached through a chain of two pointers
        // decodes to the parsed, lowercase name.
        let mut bytes = vec![0x12, 0x34, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(b"\x07ExAmPlE\x03COM\x00\x00\x01\x00\x01");
        bytes.extend_from_slice(b"\x04MaIl\xc0\x0c\x00\x01\x00\x01");
        bytes.extend_from_slice(b"\x03Sub\xc0\x1d\x00\x01\x00\x01");
        let decoded = decode_message(&bytes).unwrap();
        assert_eq!(decoded.questions[1].name, n("mail.example.com"));
        assert_eq!(decoded.questions[2].name, n("sub.mail.example.com"));
        assert_eq!(
            decoded.questions[2].name.to_string(),
            "sub.mail.example.com"
        );
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let mut msg = Message::response_to(&sample_message(), Rcode::NoError);
        let name = n("really.quite.long.domain.name.example.com");
        for i in 0..10 {
            msg.answers.push(Record::new(
                name.clone(),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        let bytes = encode_message(&msg).unwrap();
        // Without compression each record would repeat the 44-byte name;
        // with compression later records use a 2-byte pointer.
        let uncompressed_estimate = 12 + 30 + 10 * (44 + 14);
        assert!(
            bytes.len() < uncompressed_estimate - 300,
            "len={} not compressed",
            bytes.len()
        );
        let decoded = decode_message(&bytes).unwrap();
        assert_eq!(decoded.answers.len(), 10);
        assert_eq!(decoded.answers[9].name, name);
    }

    #[test]
    fn multi_string_txt_roundtrip() {
        let mut msg = Message::response_to(&sample_message(), Rcode::NoError);
        let long = "y".repeat(700);
        msg.answers = vec![Record::new(n("p.example"), 60, RData::txt_from_str(&long))];
        let bytes = encode_message(&msg).unwrap();
        let decoded = decode_message(&bytes).unwrap();
        assert_eq!(decoded.answers[0].rdata.txt_joined().unwrap(), long);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_message(&sample_message()).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_message(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// Every encoded form this module can produce, for sweep tests.
    fn encoded_corpus() -> Vec<Vec<u8>> {
        let query = sample_message();
        let mut all_rdata = Message::response_to(&query, Rcode::NoError);
        all_rdata.answers = vec![
            Record::new(n("a.example"), 300, RData::A("192.0.2.1".parse().unwrap())),
            Record::new(
                n("a.example"),
                300,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ),
            Record::new(
                n("a.example"),
                300,
                RData::Mx {
                    preference: 10,
                    exchange: n("mx1.a.example"),
                },
            ),
            Record::new(n("a.example"), 60, RData::txt_from_str(&"t".repeat(300))),
            Record::new(n("alias.example"), 60, RData::Cname(n("a.example"))),
            Record::new(n("a.example"), 60, RData::Ns(n("ns1.a.example"))),
            Record::new(n("1.2.0.192.in-addr.arpa"), 60, RData::Ptr(n("a.example"))),
        ];
        all_rdata.authorities = vec![Record::new(
            n("example"),
            3600,
            RData::Soa(SoaData {
                mname: n("ns1.example"),
                rname: n("hostmaster.example"),
                serial: 2021120701,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        )];
        let mut compressed = Message::response_to(&query, Rcode::NoError);
        let name = n("really.quite.long.domain.name.example.com");
        for i in 0..10 {
            compressed.answers.push(Record::new(
                name.clone(),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        [query, all_rdata, compressed]
            .iter()
            .map(|m| encode_message(m).unwrap())
            .collect()
    }

    #[test]
    fn exhaustive_truncation_sweep_over_corpus() {
        // Hostile-input regression: every strict prefix of every encoded
        // test message must decode to a WireError — never a panic, and
        // (via the capped pre-allocation in `decode_message`) never an
        // allocation past the prefix itself.
        for (i, bytes) in encoded_corpus().iter().enumerate() {
            assert!(decode_message(bytes).is_ok(), "corpus[{i}] must decode");
            for cut in 0..bytes.len() {
                assert!(
                    decode_message(&bytes[..cut]).is_err(),
                    "corpus[{i}] cut={cut} accepted a truncated frame"
                );
            }
        }
    }

    #[test]
    fn lying_header_counts_never_overallocate() {
        // A 12-byte header promising 65,535 entries per section: the
        // decoder must fail with Truncated, and its pre-allocation is
        // bounded by the remaining buffer (here zero), not the counts.
        let mut bytes = vec![0u8; 12];
        for pos in [4, 6, 8, 10] {
            bytes[pos] = 0xFF;
            bytes[pos + 1] = 0xFF;
        }
        assert_eq!(decode_message(&bytes), Err(WireError::Truncated));
        // Same lie atop an otherwise valid message: still a clean error.
        for original in encoded_corpus() {
            let mut lied = original.clone();
            for pos in [4, 6, 8, 10] {
                lied[pos] = 0xFF;
                lied[pos + 1] = 0xFF;
            }
            assert!(decode_message(&lied).is_err());
        }
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Header + a name that is a pointer to itself.
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1; // one question
        bytes.extend_from_slice(&[0xc0, 0x0c]); // pointer to offset 12 (itself)
        bytes.extend_from_slice(&[0, 16, 0, 1]);
        assert_eq!(decode_message(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1;
        // name at 12: label "a" then pointer back to offset 12 -> loop
        bytes.extend_from_slice(&[1, b'a', 0xc0, 0x0c]);
        bytes.extend_from_slice(&[0, 16, 0, 1]);
        assert_eq!(decode_message(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_bad_rdata_length() {
        let q = sample_message();
        let mut msg = Message::response_to(&q, Rcode::NoError);
        msg.answers = vec![Record::new(
            n("a.example"),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        )];
        let mut bytes = encode_message(&msg).unwrap();
        // Corrupt the A rdlength (last 6 bytes are rdlength + 4 octets).
        let pos = bytes.len() - 6;
        bytes[pos] = 0;
        bytes[pos + 1] = 3;
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn rcode_roundtrip() {
        for c in 0..16u8 {
            assert_eq!(Rcode::from_code(c).code(), c);
        }
    }

    #[test]
    fn truncated_flag_roundtrip() {
        let mut msg = Message::response_to(&sample_message(), Rcode::NoError);
        msg.truncated = true;
        let decoded = decode_message(&encode_message(&msg).unwrap()).unwrap();
        assert!(decoded.truncated);
    }

    #[test]
    fn encode_rejects_oversized_txt_string() {
        // Regression: the encoder used to debug_assert! here, so a
        // release build would truncate the length via `as u8` and emit a
        // corrupt wire image. It must be a real error instead.
        let mut msg = Message::response_to(&sample_message(), Rcode::NoError);
        msg.answers = vec![Record::new(
            n("p.example"),
            60,
            RData::Txt(vec![vec![b'x'; 256]]),
        )];
        assert_eq!(encode_message(&msg), Err(WireError::TxtTooLong));
        // At exactly 255 bytes the string still encodes.
        msg.answers = vec![Record::new(
            n("p.example"),
            60,
            RData::Txt(vec![vec![b'x'; 255]]),
        )];
        let bytes = encode_message(&msg).unwrap();
        let decoded = decode_message(&bytes).unwrap();
        assert_eq!(decoded.answers[0].rdata, RData::Txt(vec![vec![b'x'; 255]]));
    }

    #[test]
    fn encoder_rejects_oversized_label() {
        // `Name::parse`/`from_labels` refuse labels over 63 bytes, so the
        // encoder-side check is defense in depth for names of other
        // provenance; exercise it through the raw Encoder API.
        let long = "a".repeat(MAX_LABEL_LEN + 1);
        let name = Name::from_labels(vec![long]);
        assert!(name.is_err(), "Name constructors reject oversized labels");
        let ok = n("ok.example");
        let mut enc = Encoder::new();
        assert_eq!(enc.put_name(&ok), Ok(()));
        assert_eq!(enc.put_name_uncompressed(&ok), Ok(()));
    }

    /// The hash-map encoder the suffix list replaced, kept as the
    /// reference its bytes are compared against: every suffix of every
    /// compressed name, keyed by its dotted text, maps to the offset it
    /// was first written at (below 0x3fff).
    fn reference_encode(msg: &Message) -> Vec<u8> {
        use std::collections::HashMap;
        fn name(buf: &mut Vec<u8>, map: &mut HashMap<String, usize>, name: &Name) {
            let mut start = 0;
            for label in name.labels() {
                let tail = &name.as_str()[start..];
                if let Some(&off) = map.get(tail) {
                    buf.extend_from_slice(&(0xc000 | off as u16).to_be_bytes());
                    return;
                }
                if buf.len() < 0x3fff {
                    map.insert(tail.to_string(), buf.len());
                }
                buf.push(label.len() as u8);
                buf.extend_from_slice(label.as_bytes());
                start += label.len() + 1;
            }
            buf.push(0);
        }
        // The header is compression-free: take it from the encoder.
        let mut buf = encode_message(msg).unwrap()[..12].to_vec();
        let mut map = HashMap::new();
        for q in &msg.questions {
            name(&mut buf, &mut map, &q.name);
            buf.extend_from_slice(&q.rtype.code().to_be_bytes());
            buf.extend_from_slice(&q.class.code().to_be_bytes());
        }
        let records = msg.answers.iter().chain(&msg.authorities);
        for r in records.chain(&msg.additionals) {
            name(&mut buf, &mut map, &r.name);
            buf.extend_from_slice(&r.rtype().code().to_be_bytes());
            buf.extend_from_slice(&r.class.code().to_be_bytes());
            buf.extend_from_slice(&r.ttl.to_be_bytes());
            let len_pos = buf.len();
            buf.extend_from_slice(&[0, 0]);
            match &r.rdata {
                RData::A(ip) => buf.extend_from_slice(&ip.octets()),
                RData::Aaaa(ip) => buf.extend_from_slice(&ip.octets()),
                RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => name(&mut buf, &mut map, n),
                RData::Mx {
                    preference,
                    exchange,
                } => {
                    buf.extend_from_slice(&preference.to_be_bytes());
                    name(&mut buf, &mut map, exchange);
                }
                RData::Txt(strings) => {
                    for s in strings {
                        buf.push(s.len() as u8);
                        buf.extend_from_slice(s);
                    }
                }
                RData::Soa(soa) => {
                    name(&mut buf, &mut map, &soa.mname);
                    name(&mut buf, &mut map, &soa.rname);
                    for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                        buf.extend_from_slice(&v.to_be_bytes());
                    }
                }
                RData::Opt(bytes) | RData::Other(bytes) => buf.extend_from_slice(bytes),
            }
            let rdlen = (buf.len() - len_pos - 2) as u16;
            buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
        buf
    }

    /// SplitMix64, for the seeded sweeps.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random name over a small label alphabet, so names share
    /// suffixes often; one in eight is the root.
    fn random_name(rng: &mut Rng) -> Name {
        const LABELS: [&str; 6] = ["example", "com", "mail", "mx1", "spf-test", "a"];
        let labels: Vec<&str> = (0..rng.below(8) % 5)
            .map(|_| LABELS[rng.below(LABELS.len())])
            .collect();
        Name::from_labels(labels).unwrap()
    }

    fn random_rdata(rng: &mut Rng) -> RData {
        match rng.below(6) {
            0 => RData::A(Ipv4Addr::new(192, 0, 2, rng.below(256) as u8)),
            1 => RData::Cname(random_name(rng)),
            2 => RData::Ns(random_name(rng)),
            3 => RData::Mx {
                preference: rng.below(50) as u16,
                exchange: random_name(rng),
            },
            4 => RData::Soa(SoaData {
                mname: random_name(rng),
                rname: random_name(rng),
                serial: rng.next() as u32,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
            _ => RData::txt_from_str(&"t".repeat(rng.below(300))),
        }
    }

    fn random_records(rng: &mut Rng) -> Vec<Record> {
        (0..rng.below(6))
            .map(|_| Record::new(random_name(rng), 60, random_rdata(rng)))
            .collect()
    }

    #[test]
    fn suffix_list_matches_the_hash_map_encoder_on_a_seeded_sweep() {
        let mut rng = Rng(0x5eed_0d15);
        for i in 0..2_000 {
            let mut msg = Message::query(i, random_name(&mut rng), RecordType::Mx);
            msg.questions.extend((0..rng.below(3)).map(|_| Question {
                name: random_name(&mut rng),
                rtype: RecordType::A,
                class: RecordClass::In,
            }));
            msg.answers = random_records(&mut rng);
            msg.authorities = random_records(&mut rng);
            msg.additionals = random_records(&mut rng);
            let bytes = encode_message(&msg).unwrap();
            assert_eq!(bytes, reference_encode(&msg), "message {i}");
            assert_eq!(decode_message(&bytes).unwrap(), msg, "message {i}");
        }
        // The known answer's message, through the reference.
        let root = Name::root();
        let mut msg = Message::query(7, root.clone(), RecordType::Ns);
        msg.answers = vec![Record::new(root.clone(), 60, RData::Ns(root))];
        assert_eq!(encode_message(&msg).unwrap(), reference_encode(&msg));
    }

    #[test]
    fn suffix_list_matches_the_hash_map_encoder_around_offset_0x3fff() {
        // A padding TXT record ends at every offset from 80 bytes below
        // 0x3fff, the last offset a suffix may be recorded at, to past
        // it, so the names after it start on either side.
        let mut rng = Rng(0x3fff);
        let mut ends = Vec::new();
        for pad in 0x3fff - 200..0x3fff - 80 {
            let mut msg = Message::query(1, n("q.example.com"), RecordType::Txt);
            let text = "p".repeat(pad);
            msg.answers = vec![Record::new(
                n("q.example.com"),
                60,
                RData::txt_from_str(&text),
            )];
            ends.push(encode_message(&msg).unwrap().len());
            msg.answers.extend(
                [
                    "a.mail.example.com",
                    "mx1.mail.example.com",
                    "b.a.mail.example.com",
                ]
                .iter()
                .map(|name| Record::new(n(name), 60, RData::Cname(n("mail.example.com")))),
            );
            msg.additionals = random_records(&mut rng);
            let bytes = encode_message(&msg).unwrap();
            assert_eq!(bytes, reference_encode(&msg), "pad {pad}");
            assert_eq!(decode_message(&bytes).unwrap(), msg, "pad {pad}");
        }
        assert!(ends[0] < 0x3fff - 80 && *ends.last().unwrap() > 0x3fff);
    }
}
