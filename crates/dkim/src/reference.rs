//! The DKIM code as it stood before signing and verification became one
//! pass over each message, kept only to test against: tag lists of owned
//! strings behind a `HashMap`, line-by-line canonicalization through
//! `String`s, header values built with `format!` (twice when signing),
//! and a verifier that keeps a copy of the message and checks the body
//! after the key arrives.
//!
//! The sweeps below hold the current code to it: canonical bytes,
//! `DKIM-Signature` values, tag lists and [`DkimResult`]s must be equal,
//! also for damaged signatures and key records. The one intended
//! difference is octets: the reference turns invalid UTF-8 in a relaxed
//! body into U+FFFD and re-encodes non-ASCII header bytes, so the sweeps
//! draw header text from ASCII and body text from valid UTF-8.

use crate::canon::Canonicalization;
use crate::key::{DkimKeyRecord, KeyRecordError};
use crate::sign::{select_headers, SignConfig, SignError};
use crate::signature::{DkimSignature, SignatureError};
use crate::taglist::TagListError;
use crate::verify::{DkimResult, VerifyStep};
use mailval_crypto::rsa::{decode_spki, RsaPrivateKey};
use mailval_crypto::HashAlg;
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::rr::RecordType;
use mailval_dns::Name;
use mailval_smtp::mail::{HeaderField, MailMessage};
use std::collections::HashMap;

/// The tag list with an owned copy of every name and value.
#[derive(Debug, Default)]
pub(crate) struct RefTagList {
    tags: Vec<(String, String)>,
    index: HashMap<String, usize>,
}

impl RefTagList {
    pub(crate) fn parse(input: &str) -> Result<RefTagList, TagListError> {
        let mut list = RefTagList::default();
        for entry in input.split(';') {
            let entry = entry.trim_matches([' ', '\t', '\r', '\n']);
            if entry.is_empty() {
                continue;
            }
            let eq = entry.find('=').ok_or(TagListError::MissingEquals)?;
            let name = entry[..eq].trim_matches([' ', '\t', '\r', '\n']);
            if name.is_empty() {
                return Err(TagListError::EmptyName);
            }
            let value = entry[eq + 1..].trim_matches([' ', '\t', '\r', '\n']);
            if list.index.contains_key(name) {
                return Err(TagListError::Duplicate(name.to_string()));
            }
            list.index.insert(name.to_string(), list.tags.len());
            list.tags.push((name.to_string(), value.to_string()));
        }
        Ok(list)
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.index.get(name).map(|&i| self.tags[i].1.as_str())
    }

    pub(crate) fn get_compact(&self, name: &str) -> Option<String> {
        self.get(name)
            .map(|v| v.chars().filter(|c| !c.is_ascii_whitespace()).collect())
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.tags.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

fn relax_whitespace(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_wsp = false;
    for c in s.chars() {
        if c == ' ' || c == '\t' {
            in_wsp = true;
        } else {
            if in_wsp && !out.is_empty() {
                out.push(' ');
            }
            in_wsp = false;
            out.push(c);
        }
    }
    out
}

pub(crate) fn canonicalize_header(canon: Canonicalization, field: &HeaderField) -> String {
    match canon {
        Canonicalization::Simple => format!("{}:{}\r\n", field.name, field.raw_value),
        Canonicalization::Relaxed => {
            let name = field.name.to_ascii_lowercase();
            let unfolded = mailval_smtp::mail::unfold(&field.raw_value);
            let value = relax_whitespace(unfolded.trim());
            format!("{name}:{value}\r\n")
        }
    }
}

pub(crate) fn canonicalize_body(canon: Canonicalization, body: &[u8]) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = Vec::new();
    let mut current = Vec::new();
    let mut iter = body.iter().peekable();
    while let Some(&b) = iter.next() {
        if b == b'\r' && iter.peek() == Some(&&b'\n') {
            iter.next();
            lines.push(std::mem::take(&mut current));
        } else {
            current.push(b);
        }
    }
    if !current.is_empty() {
        lines.push(current);
    }
    if canon == Canonicalization::Relaxed {
        for line in &mut lines {
            let s = String::from_utf8_lossy(line).into_owned();
            let mut relaxed = String::with_capacity(s.len());
            let mut wsp_run = false;
            for c in s.trim_end_matches([' ', '\t']).chars() {
                if c == ' ' || c == '\t' {
                    wsp_run = true;
                } else {
                    if wsp_run {
                        relaxed.push(' ');
                    }
                    wsp_run = false;
                    relaxed.push(c);
                }
            }
            *line = relaxed.into_bytes();
        }
    }
    while lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    let mut out = Vec::with_capacity(body.len());
    for line in &lines {
        out.extend_from_slice(line);
        out.extend_from_slice(b"\r\n");
    }
    if out.is_empty() && canon == Canonicalization::Simple {
        out.extend_from_slice(b"\r\n");
    }
    out
}

pub(crate) fn key_record_name(sig: &DkimSignature) -> Result<Name, SignatureError> {
    sig.selector
        .concat(&Name::parse("_domainkey").unwrap())
        .and_then(|n| n.concat(&sig.domain))
        .map_err(|_| SignatureError::KeyNameTooLong)
}

pub(crate) fn parse_signature(value: &str) -> Result<DkimSignature, SignatureError> {
    let tags = RefTagList::parse(value).map_err(|e| SignatureError::TagList(e.to_string()))?;
    if tags.get("v").map(str::trim) != Some("1") {
        return Err(SignatureError::BadVersion);
    }
    let algorithm = match tags.get("a").ok_or(SignatureError::MissingTag("a"))? {
        a if a.eq_ignore_ascii_case("rsa-sha256") => HashAlg::Sha256,
        a if a.eq_ignore_ascii_case("rsa-sha1") => HashAlg::Sha1,
        _ => return Err(SignatureError::Unsupported("algorithm")),
    };
    let signature = mailval_crypto::base64::decode(
        &tags
            .get_compact("b")
            .ok_or(SignatureError::MissingTag("b"))?,
    )
    .map_err(|_| SignatureError::BadTag("b"))?;
    let body_hash = mailval_crypto::base64::decode(
        &tags
            .get_compact("bh")
            .ok_or(SignatureError::MissingTag("bh"))?,
    )
    .map_err(|_| SignatureError::BadTag("bh"))?;
    let (header_canon, body_canon) = match tags.get("c") {
        None => (Canonicalization::Simple, Canonicalization::Simple),
        Some(c) => {
            let (h, b) = match c.find('/') {
                Some(pos) => (&c[..pos], &c[pos + 1..]),
                None => (c, "simple"),
            };
            (
                Canonicalization::parse(h.trim()).ok_or(SignatureError::BadTag("c"))?,
                Canonicalization::parse(b.trim()).ok_or(SignatureError::BadTag("c"))?,
            )
        }
    };
    let domain = Name::parse(tags.get("d").ok_or(SignatureError::MissingTag("d"))?.trim())
        .map_err(|_| SignatureError::BadTag("d"))?;
    let selector = Name::parse(tags.get("s").ok_or(SignatureError::MissingTag("s"))?.trim())
        .map_err(|_| SignatureError::BadTag("s"))?;
    let signed_headers: Vec<String> = tags
        .get("h")
        .ok_or(SignatureError::MissingTag("h"))?
        .split(':')
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .collect();
    if signed_headers.is_empty() {
        return Err(SignatureError::BadTag("h"));
    }
    if !signed_headers
        .iter()
        .any(|h| h.eq_ignore_ascii_case("from"))
    {
        return Err(SignatureError::FromNotSigned);
    }
    if let Some(q) = tags.get("q") {
        if !q
            .split(':')
            .any(|m| m.trim().eq_ignore_ascii_case("dns/txt"))
        {
            return Err(SignatureError::Unsupported("query method"));
        }
    }
    let parse_u64 = |tag: &'static str| -> Result<Option<u64>, SignatureError> {
        match tags.get(tag) {
            None => Ok(None),
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map(Some)
                .map_err(|_| SignatureError::BadTag(tag)),
        }
    };
    Ok(DkimSignature {
        algorithm,
        signature,
        body_hash,
        header_canon,
        body_canon,
        domain,
        selector,
        identity: tags.get("i").map(|s| s.to_string()),
        body_length: parse_u64("l")?,
        timestamp: parse_u64("t")?,
        expiration: parse_u64("x")?,
        signed_headers,
    })
}

pub(crate) fn header_value(sig: &DkimSignature, b_value: &str) -> String {
    let alg = match sig.algorithm {
        HashAlg::Sha256 => "rsa-sha256",
        HashAlg::Sha1 => "rsa-sha1",
    };
    let mut parts = vec![
        "v=1".to_string(),
        format!("a={alg}"),
        format!("c={}/{}", sig.header_canon, sig.body_canon),
        format!("d={}", sig.domain),
        format!("s={}", sig.selector),
    ];
    if let Some(t) = sig.timestamp {
        parts.push(format!("t={t}"));
    }
    if let Some(x) = sig.expiration {
        parts.push(format!("x={x}"));
    }
    if let Some(l) = sig.body_length {
        parts.push(format!("l={l}"));
    }
    if let Some(i) = &sig.identity {
        parts.push(format!("i={i}"));
    }
    parts.push(format!("h={}", sig.signed_headers.join(":")));
    parts.push(format!(
        "bh={}",
        mailval_crypto::base64::encode(&sig.body_hash)
    ));
    parts.push(format!("b={b_value}"));
    parts.join("; ")
}

pub(crate) fn parse_key_record(txt: &str) -> Result<DkimKeyRecord, KeyRecordError> {
    let tags = RefTagList::parse(txt).map_err(|e| KeyRecordError::TagList(e.to_string()))?;
    if let Some(v) = tags.get("v") {
        if !v.trim().eq_ignore_ascii_case("DKIM1") {
            return Err(KeyRecordError::BadVersion);
        }
    }
    let key_type = tags.get("k").unwrap_or("rsa").trim().to_string();
    if !key_type.eq_ignore_ascii_case("rsa") {
        return Err(KeyRecordError::UnsupportedKeyType(key_type));
    }
    let p = tags.get_compact("p").ok_or(KeyRecordError::MissingKey)?;
    let public_key = if p.is_empty() {
        None
    } else {
        let der = mailval_crypto::base64::decode(&p).map_err(|_| KeyRecordError::BadKey)?;
        Some(decode_spki(&der).map_err(|_| KeyRecordError::BadKey)?)
    };
    let hash_algs = tags
        .get("h")
        .map(|h| {
            h.split(':')
                .filter_map(|a| match a.trim().to_ascii_lowercase().as_str() {
                    "sha256" => Some(HashAlg::Sha256),
                    "sha1" => Some(HashAlg::Sha1),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let flags = tags
        .get("t")
        .map(|t| t.split(':').map(|f| f.trim().to_string()).collect())
        .unwrap_or_default();
    let services = tags
        .get("s")
        .map(|s| s.split(':').map(|f| f.trim().to_string()).collect())
        .unwrap_or_default();
    Ok(DkimKeyRecord {
        hash_algs,
        key_type,
        public_key,
        flags,
        services,
    })
}

pub(crate) fn strip_b_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    loop {
        let Some(pos) = rest.find('b') else {
            out.push_str(rest);
            return out;
        };
        let (before, after) = rest.split_at(pos);
        let at_boundary = before
            .trim_end_matches([' ', '\t', '\r', '\n'])
            .ends_with(';')
            || before.trim().is_empty();
        let after_tag = &after[1..];
        let is_b_tag = at_boundary
            && after_tag
                .trim_start_matches([' ', '\t', '\r', '\n'])
                .starts_with('=');
        if !is_b_tag {
            out.push_str(before);
            out.push('b');
            rest = after_tag;
            continue;
        }
        out.push_str(before);
        out.push('b');
        let eq_rel = after_tag.find('=').expect("checked above");
        out.push_str(&after_tag[..=eq_rel]);
        let value_rest = &after_tag[eq_rel + 1..];
        match value_rest.find(';') {
            Some(semi) => rest = &value_rest[semi..],
            None => return out,
        }
    }
}

pub(crate) fn data_hash_input(
    message_headers: &[HeaderField],
    sig_raw_value: &str,
    header_canon: Canonicalization,
    signed: &[String],
) -> Vec<u8> {
    let mut input = Vec::new();
    for header in select_headers(message_headers, signed)
        .into_iter()
        .flatten()
    {
        input.extend_from_slice(canonicalize_header(header_canon, header).as_bytes());
    }
    let sig_field = HeaderField {
        name: "DKIM-Signature".into(),
        raw_value: sig_raw_value.to_string(),
    };
    let canon_sig = canonicalize_header(header_canon, &sig_field);
    let trimmed = canon_sig
        .strip_suffix("\r\n")
        .unwrap_or(&canon_sig)
        .as_bytes();
    input.extend_from_slice(trimmed);
    input
}

pub(crate) fn sign_message(
    message: &MailMessage,
    config: &SignConfig,
    key: &RsaPrivateKey,
) -> Result<String, SignError> {
    if message.header("from").is_none()
        || !config
            .signed_headers
            .iter()
            .any(|h| h.trim().eq_ignore_ascii_case("from"))
    {
        return Err(SignError::NoFrom);
    }
    let canon_body = canonicalize_body(config.body_canon, &message.body);
    let sig = DkimSignature {
        algorithm: config.algorithm,
        signature: Vec::new(),
        body_hash: config.algorithm.digest(&canon_body),
        header_canon: config.header_canon,
        body_canon: config.body_canon,
        domain: config.domain.clone(),
        selector: config.selector.clone(),
        identity: None,
        body_length: None,
        timestamp: config.timestamp,
        expiration: None,
        signed_headers: config
            .signed_headers
            .iter()
            .map(|h| h.trim().to_ascii_lowercase())
            .collect(),
    };
    sign_parsed(message, &sig, key)
}

/// The reference's signing step for a signature built by hand (an `l=`
/// tag, say): hash the headers and the unsigned value, sign, and return
/// the full header value.
pub(crate) fn sign_parsed(
    message: &MailMessage,
    sig: &DkimSignature,
    key: &RsaPrivateKey,
) -> Result<String, SignError> {
    let unsigned_value = format!(" {}", header_value(sig, ""));
    let input = data_hash_input(
        &message.headers,
        &unsigned_value,
        sig.header_canon,
        &sig.signed_headers,
    );
    let digest = sig.algorithm.digest(&input);
    let signature = key
        .sign_digest(sig.algorithm, &digest)
        .map_err(|e| SignError::Rsa(e.to_string()))?;
    Ok(header_value(
        sig,
        &mailval_crypto::base64::encode(&signature),
    ))
}

fn verification_digest(message: &MailMessage, sig: &DkimSignature, raw_sig_value: &str) -> Vec<u8> {
    let stripped = strip_b_value(raw_sig_value);
    let input = data_hash_input(
        &message.headers,
        &stripped,
        sig.header_canon,
        &sig.signed_headers,
    );
    sig.algorithm.digest(&input)
}

fn body_hash_matches(message: &MailMessage, sig: &DkimSignature) -> bool {
    let mut canon = canonicalize_body(sig.body_canon, &message.body);
    if let Some(l) = sig.body_length {
        let l = l as usize;
        if l > canon.len() {
            return false;
        }
        canon.truncate(l);
    }
    sig.algorithm.digest(&canon) == sig.body_hash
}

/// The verifier that keeps a copy of the message.
pub(crate) struct RefVerifier {
    message: MailMessage,
    raw_sig_value: Option<String>,
    signature: Option<DkimSignature>,
    done: bool,
}

impl RefVerifier {
    pub(crate) fn new(message: &MailMessage, index: usize) -> RefVerifier {
        let raw_sig_value = message
            .headers_named("DKIM-Signature")
            .nth(index)
            .map(|h| h.raw_value.clone());
        RefVerifier {
            message: message.clone(),
            raw_sig_value,
            signature: None,
            done: false,
        }
    }

    pub(crate) fn start(&mut self) -> VerifyStep {
        assert!(!self.done, "verifier already finished");
        let Some(raw) = &self.raw_sig_value else {
            self.done = true;
            return VerifyStep::Done(DkimResult::None);
        };
        let sig = match parse_signature(raw) {
            Ok(sig) => sig,
            Err(e) => {
                self.done = true;
                return VerifyStep::Done(DkimResult::PermError(e.to_string()));
            }
        };
        let name = match key_record_name(&sig) {
            Ok(name) => name,
            Err(e) => {
                self.done = true;
                return VerifyStep::Done(DkimResult::PermError(e.to_string()));
            }
        };
        self.signature = Some(sig);
        VerifyStep::NeedKey {
            name,
            rtype: RecordType::Txt,
        }
    }

    pub(crate) fn on_key(&mut self, outcome: ResolveOutcome) -> VerifyStep {
        assert!(!self.done, "verifier already finished");
        let sig = self.signature.as_ref().expect("on_key before start");
        self.done = true;
        let records = match outcome {
            ResolveOutcome::Records(records) => records,
            ResolveOutcome::NoData | ResolveOutcome::NxDomain => {
                return VerifyStep::Done(DkimResult::PermError("no key for signature".into()));
            }
            ResolveOutcome::Timeout | ResolveOutcome::ServFail => {
                return VerifyStep::Done(DkimResult::TempError);
            }
        };
        let key_record = records
            .iter()
            .filter_map(|r| r.rdata.txt_joined())
            .find_map(|txt| parse_key_record(&txt).ok());
        let Some(key_record) = key_record else {
            return VerifyStep::Done(DkimResult::PermError("unusable key record".into()));
        };
        let Some(public_key) = &key_record.public_key else {
            return VerifyStep::Done(DkimResult::Neutral("key revoked".into()));
        };
        if !key_record.allows_hash(sig.algorithm) {
            return VerifyStep::Done(DkimResult::PermError(
                "hash algorithm not permitted by key".into(),
            ));
        }
        if !body_hash_matches(&self.message, sig) {
            return VerifyStep::Done(DkimResult::Fail("body hash mismatch".into()));
        }
        let digest = verification_digest(
            &self.message,
            sig,
            self.raw_sig_value.as_ref().expect("sig exists"),
        );
        match public_key.verify_digest(sig.algorithm, &digest, &sig.signature) {
            Ok(()) => VerifyStep::Done(DkimResult::Pass),
            Err(_) => VerifyStep::Done(DkimResult::Fail("signature mismatch".into())),
        }
    }
}

mod tests {
    use super::*;
    use crate::canon;
    use crate::taglist::TagList;
    use crate::verify::DkimVerifier;
    use mailval_crypto::bigint::{Rng64, SplitMix64};
    use mailval_crypto::rsa::RsaKeyPair;
    use mailval_dns::rr::RData;
    use mailval_dns::Record;

    struct Draw(SplitMix64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            (self.0.next_u64() % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }

        /// 0..=max pieces drawn from `pieces`, concatenated.
        fn text(&mut self, pieces: &[&str], max: usize) -> String {
            (0..=self.below(max + 1))
                .skip(1)
                .map(|_| *self.pick(pieces))
                .collect()
        }
    }

    /// ASCII header-value pieces: folding (CRLF and bare LF before WSP),
    /// a CRLF before a non-WSP byte, runs of SP/HTAB, VT and FF.
    const VALUE_PIECES: &[&str] = &[
        "word",
        "Mixed Case",
        " ",
        "  ",
        "\t",
        " \t ",
        "\r\n ",
        "\r\n\t",
        "\n ",
        "\r\nX",
        ":",
        ";",
        "<a@b.test>",
        "\x0b",
        "\x0c",
        "b=",
    ];

    /// Body-line pieces: WSP runs, bare CR and LF, valid UTF-8.
    const LINE_PIECES: &[&str] = &[
        " ",
        "\t",
        "  \t",
        "text",
        "two  words",
        "tab\there",
        "end \t ",
        "\r",
        "\n",
        "caf\u{e9}",
        "\u{2003}",
    ];

    const NAMES: &[&str] = &[
        "From",
        "FROM",
        "to",
        "Subject",
        "SUBJECT",
        "Date",
        "Message-ID",
        "Reply-To",
        "X-Extra",
        "B ",
    ];

    fn draw_body(d: &mut Draw) -> Vec<u8> {
        let lines: Vec<String> = (0..d.below(6)).map(|_| d.text(LINE_PIECES, 4)).collect();
        let mut body = lines.join("\r\n");
        if d.below(2) == 0 {
            body.push_str("\r\n"); // a final CRLF
        }
        for _ in 0..d.below(3) {
            body.push_str("\r\n"); // trailing empty lines
        }
        body.into_bytes()
    }

    fn draw_message(d: &mut Draw) -> MailMessage {
        let mut m = MailMessage::new();
        for _ in 0..d.below(5) {
            let name = d.pick(NAMES).to_string();
            let raw_value = d.text(VALUE_PIECES, 6);
            m.headers.push(HeaderField { name, raw_value });
        }
        let from = d.below(m.headers.len() + 1);
        m.headers.insert(
            from,
            HeaderField {
                name: "From".into(),
                raw_value: format!(" {}", d.text(VALUE_PIECES, 4)),
            },
        );
        m.body = draw_body(d);
        m
    }

    fn draw_config(d: &mut Draw) -> SignConfig {
        let mut config = SignConfig::new(
            Name::parse("Signer.Example").unwrap(),
            Name::parse("sel1").unwrap(),
        );
        let canons = [Canonicalization::Simple, Canonicalization::Relaxed];
        config.header_canon = *d.pick(&canons);
        config.body_canon = *d.pick(&canons);
        if d.below(2) == 0 {
            config.timestamp = Some(d.0.next_u64() >> 20);
        }
        if d.below(2) == 0 {
            config.algorithm = HashAlg::Sha1;
        }
        // Over-signed, missing, odd-case and whitespace-padded names as
        // well as From.
        let mut signed = vec!["from".to_string()];
        for _ in 0..d.below(6) {
            let name = d.pick(NAMES).to_string();
            signed.insert(d.below(signed.len() + 1), name);
        }
        config.signed_headers = signed;
        config
    }

    fn keypair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut SplitMix64::new(2025))
    }

    fn key_text(kp: &RsaKeyPair) -> String {
        DkimKeyRecord::for_key(&kp.public).to_record_text()
    }

    fn answer(name: &Name, text: &[u8]) -> ResolveOutcome {
        ResolveOutcome::Records(vec![Record::new(
            name.clone(),
            300,
            RData::Txt(vec![text.to_vec()]),
        )])
    }

    /// Run the current verifier: the key name it asks for, if any, and
    /// its result given `outcome` for that name.
    fn verify(
        m: &MailMessage,
        outcome: &dyn Fn(&Name) -> ResolveOutcome,
    ) -> (Option<Name>, DkimResult) {
        let mut v = DkimVerifier::new(m, 0);
        match v.start() {
            VerifyStep::Done(r) => (None, r),
            VerifyStep::NeedKey { name, .. } => match v.on_key(outcome(&name)) {
                VerifyStep::Done(r) => (Some(name), r),
                VerifyStep::NeedKey { .. } => panic!("second key query"),
            },
        }
    }

    /// [`verify`] with the reference verifier.
    fn verify_ref(
        m: &MailMessage,
        outcome: &dyn Fn(&Name) -> ResolveOutcome,
    ) -> (Option<Name>, DkimResult) {
        let mut v = RefVerifier::new(m, 0);
        match v.start() {
            VerifyStep::Done(r) => (None, r),
            VerifyStep::NeedKey { name, .. } => match v.on_key(outcome(&name)) {
                VerifyStep::Done(r) => (Some(name), r),
                VerifyStep::NeedKey { .. } => panic!("second key query"),
            },
        }
    }

    fn assert_same_verdict(m: &MailMessage, outcome: &dyn Fn(&Name) -> ResolveOutcome) {
        assert_eq!(verify(m, outcome), verify_ref(m, outcome), "{m:?}");
    }

    fn with_signature(m: &MailMessage, value: &str) -> MailMessage {
        let mut signed = m.clone();
        signed.prepend_header("DKIM-Signature", value);
        signed
    }

    #[test]
    fn canonical_bytes_match_the_reference_on_a_seeded_sweep() {
        let mut d = Draw(SplitMix64::new(6376));
        for _ in 0..4000 {
            let field = HeaderField {
                name: d.pick(NAMES).to_string(),
                raw_value: d.text(VALUE_PIECES, 8),
            };
            let body = draw_body(&mut d);
            for c in [Canonicalization::Simple, Canonicalization::Relaxed] {
                assert_eq!(
                    canon::canonicalize_header(c, &field),
                    canonicalize_header(c, &field).into_bytes(),
                    "{c} {field:?}"
                );
                assert_eq!(
                    canon::canonicalize_body(c, &body),
                    canonicalize_body(c, &body),
                    "{c} {body:?}"
                );
            }
        }
        // The edges by name: empty, only WSP, only empty lines, no final
        // CRLF, a CR or LF alone at either end.
        for body in [
            &b""[..],
            b" ",
            b"\r\n",
            b"\r\n\r\n",
            b" \t\r\n\t\r\n",
            b"line",
            b"line\r",
            b"\nline\r\n",
            b"\r\r\n",
            b"a\r\n\r\nb",
        ] {
            for c in [Canonicalization::Simple, Canonicalization::Relaxed] {
                assert_eq!(
                    canon::canonicalize_body(c, body),
                    canonicalize_body(c, body),
                    "{c} {body:?}"
                );
            }
        }
    }

    #[test]
    fn tag_lists_match_the_reference_on_a_seeded_sweep() {
        let pieces = [
            "v", "=", ";", " ", "\t", "\r\n ", "a", "bh", "b", "x y", "=1", "; ;", "\x0c", "p=",
        ];
        let mut d = Draw(SplitMix64::new(32));
        for _ in 0..4000 {
            let input = d.text(&pieces, 10);
            // The same texts through the `b=` stripping of §3.7.
            let mut stripped = Vec::new();
            crate::sign::strip_b_value(&input, &mut stripped);
            assert_eq!(stripped, strip_b_value(&input).into_bytes(), "{input:?}");
            match (TagList::parse(&input), RefTagList::parse(&input)) {
                (Ok(got), Ok(want)) => {
                    assert!(got.iter().eq(want.iter()), "{input:?}");
                    for (name, _) in want.iter() {
                        assert_eq!(got.get(name), want.get(name));
                        assert_eq!(
                            got.get_compact(name).as_deref(),
                            want.get_compact(name).as_deref()
                        );
                    }
                    assert_eq!(got.get("absent"), None);
                }
                (got, want) => assert_eq!(got.err(), want.err(), "{input:?}"),
            }
        }
    }

    #[test]
    fn signatures_and_results_match_the_reference_on_a_seeded_sweep() {
        let kp = keypair();
        let key = key_text(&kp);
        let good = |name: &Name| answer(name, key.as_bytes());
        let mut d = Draw(SplitMix64::new(2021));
        for _ in 0..48 {
            let m = draw_message(&mut d);
            let config = draw_config(&mut d);
            let value = crate::sign_message(&m, &config, &kp.private).unwrap();
            assert_eq!(value, sign_message(&m, &config, &kp.private).unwrap());
            let parsed = DkimSignature::parse(&value).unwrap();
            assert_eq!(parsed, parse_signature(&value).unwrap());
            assert_eq!(parsed.to_header_value("b64"), header_value(&parsed, "b64"));
            assert_eq!(parsed.key_record_name(), key_record_name(&parsed));

            let signed = with_signature(&m, &value);
            assert_eq!(verify(&signed, &good).1, DkimResult::Pass);
            assert_same_verdict(&signed, &good);
            // Changed body; re-spaced, dropped and added headers.
            let mut changed = signed.clone();
            changed.body.extend_from_slice(b"appended\r\n");
            assert_same_verdict(&changed, &good);
            let mut changed = signed.clone();
            let last = changed.headers.len() - 1;
            changed.headers[last].raw_value.push_str(" \t");
            assert_same_verdict(&changed, &good);
            changed.headers.remove(last);
            assert_same_verdict(&changed, &good);
            changed.add_header("From", "second@from.test");
            assert_same_verdict(&changed, &good);
        }
    }

    #[test]
    fn body_length_tags_match_the_reference() {
        let kp = keypair();
        let key = key_text(&kp);
        let good = |name: &Name| answer(name, key.as_bytes());
        let mut m = MailMessage::new();
        m.add_header("From", "a@signer.example");
        m.set_body_text("first line\n  second \t line\n\n");
        for body_canon in [Canonicalization::Simple, Canonicalization::Relaxed] {
            let canon_len = canonicalize_body(body_canon, &m.body).len() as u64;
            for l in [0, 1, canon_len - 1, canon_len, canon_len + 1, 1 << 40] {
                let mut canon = canonicalize_body(body_canon, &m.body);
                canon.truncate(l as usize);
                let sig = DkimSignature {
                    algorithm: HashAlg::Sha256,
                    signature: Vec::new(),
                    body_hash: HashAlg::Sha256.digest(&canon),
                    header_canon: Canonicalization::Relaxed,
                    body_canon,
                    domain: Name::parse("signer.example").unwrap(),
                    selector: Name::parse("sel1").unwrap(),
                    identity: Some("@signer.example".into()),
                    body_length: Some(l),
                    timestamp: None,
                    expiration: Some(1 << 33),
                    signed_headers: vec!["from".into()],
                };
                let value = sign_parsed(&m, &sig, &kp.private).unwrap();
                let signed = with_signature(&m, &value);
                let want = if l <= canon_len {
                    DkimResult::Pass
                } else {
                    DkimResult::Fail("body hash mismatch".into())
                };
                assert_eq!(verify(&signed, &good).1, want, "l={l} {body_canon}");
                assert_same_verdict(&signed, &good);
                // Text appended past `l=` is outside the signature.
                let mut appended = signed.clone();
                appended.body.extend_from_slice(b"more\r\n");
                assert_same_verdict(&appended, &good);
            }
        }
    }

    #[test]
    fn duplicated_and_missing_tags_match_the_reference() {
        let kp = keypair();
        let key = key_text(&kp);
        let good = |name: &Name| answer(name, key.as_bytes());
        let mut m = MailMessage::new();
        m.add_header("From", "a@signer.example");
        m.add_header("Subject", "tags");
        m.set_body_text("body\n");
        let mut config = SignConfig::new(
            Name::parse("signer.example").unwrap(),
            Name::parse("sel1").unwrap(),
        );
        config.timestamp = Some(1_600_000_000);
        let value = crate::sign_message(&m, &config, &kp.private).unwrap();
        let tags: Vec<&str> = value.split("; ").collect();
        let mut results = Vec::new();
        for i in 0..tags.len() {
            let mut missing = tags.clone();
            missing.remove(i);
            let mut duplicated = tags.clone();
            duplicated.insert(i, tags[i]);
            let mut extra = tags.clone();
            extra.insert(i, "q=dns/txt");
            for variant in [missing, duplicated, extra] {
                let signed = with_signature(&m, &variant.join("; "));
                assert_same_verdict(&signed, &good);
                results.push(verify(&signed, &good).1);
            }
        }
        assert!(results.contains(&DkimResult::PermError(
            "bad tag list: duplicate tag \"d\"".into()
        )));
        assert!(results.contains(&DkimResult::PermError("missing bh= tag".into())));
        assert!(results.contains(&DkimResult::Fail("signature mismatch".into())));
    }

    #[test]
    fn key_outcomes_match_the_reference() {
        let kp = keypair();
        let mut m = MailMessage::new();
        m.add_header("From", "a@signer.example");
        m.set_body_text("body\n");
        let config = SignConfig::new(
            Name::parse("signer.example").unwrap(),
            Name::parse("sel1").unwrap(),
        );
        let signed = with_signature(&m, &crate::sign_message(&m, &config, &kp.private).unwrap());
        // The key checks come before the body hash: a changed body under
        // a revoked, missing or unreachable key reports the key.
        let mut tampered = signed.clone();
        tampered.set_body_text("another body\n");
        let texts = [
            key_text(&kp),
            "v=DKIM1; k=rsa; p=".to_string(),
            format!("v=DKIM1; h=sha1; {}", &key_text(&kp)[8..]),
            "v=DKIM2; p=AAAA".to_string(),
            "k=ed25519; p=AAAA".to_string(),
            "garbage".to_string(),
        ];
        for text in &texts {
            assert_eq!(
                format!("{:?}", DkimKeyRecord::parse(text)),
                format!("{:?}", parse_key_record(text))
            );
            for m in [&signed, &tampered] {
                assert_same_verdict(m, &|name: &Name| answer(name, text.as_bytes()));
            }
        }
        for outcome in [
            ResolveOutcome::NxDomain,
            ResolveOutcome::NoData,
            ResolveOutcome::Timeout,
            ResolveOutcome::ServFail,
        ] {
            for m in [&signed, &tampered] {
                assert_same_verdict(m, &|_: &Name| outcome.clone());
            }
        }
        assert_eq!(
            verify(&tampered, &|_: &Name| ResolveOutcome::Timeout).1,
            DkimResult::TempError
        );
        assert_same_verdict(&m, &|_: &Name| unreachable!("unsigned"));
        // A key record name too long for DNS ends verification at `start`.
        let domain = ["a", "b", "c", "d"].map(|c| c.repeat(60)).join(".");
        let oversized = with_signature(
            &m,
            &format!("v=1; a=rsa-sha256; d={domain}; s=selector; h=from; b=; bh="),
        );
        assert_same_verdict(&oversized, &|_: &Name| unreachable!("no key query"));
    }

    #[test]
    fn damaged_signatures_and_key_records_match_the_reference() {
        let kp = keypair();
        let key = key_text(&kp);
        let mut m = MailMessage::new();
        m.add_header("From", "Alice <a@signer.example>");
        m.add_header("Subject", "damage");
        m.set_body_text("body line\n");
        for canon in [Canonicalization::Simple, Canonicalization::Relaxed] {
            let mut config = SignConfig::new(
                Name::parse("signer.example").unwrap(),
                Name::parse("sel1").unwrap(),
            );
            config.header_canon = canon;
            config.body_canon = canon;
            let signed =
                with_signature(&m, &crate::sign_message(&m, &config, &kp.private).unwrap());
            let good = |name: &Name| answer(name, key.as_bytes());
            // Every byte of the signature value, flipped three ways; a
            // byte that is no longer UTF-8 arrives as U+FFFD.
            let raw = signed.headers[0].raw_value.clone().into_bytes();
            for i in 0..raw.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut bytes = raw.clone();
                    bytes[i] ^= mask;
                    let mut damaged = signed.clone();
                    damaged.headers[0].raw_value = String::from_utf8_lossy(&bytes).into_owned();
                    assert_same_verdict(&damaged, &good);
                }
            }
            // Every byte of the key record text, flipped the same ways.
            let text = key.as_bytes();
            for i in 0..text.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut bytes = text.to_vec();
                    bytes[i] ^= mask;
                    let lossy = String::from_utf8_lossy(&bytes);
                    assert_eq!(
                        format!("{:?}", DkimKeyRecord::parse(&lossy)),
                        format!("{:?}", parse_key_record(&lossy))
                    );
                    assert_same_verdict(&signed, &|name: &Name| answer(name, &bytes));
                }
            }
        }
    }
}
