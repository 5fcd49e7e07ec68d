//! The DKIM signing pipeline (RFC 6376 §3.7, §5).

use crate::canon::{append_header, append_header_with, canonicalize_body, Canonicalization};
use crate::signature::DkimSignature;
use mailval_crypto::rsa::RsaPrivateKey;
use mailval_crypto::HashAlg;
use mailval_dns::Name;
use mailval_smtp::mail::{HeaderField, MailMessage};

/// Signing configuration.
#[derive(Debug, Clone)]
pub struct SignConfig {
    /// SDID (`d=`).
    pub domain: Name,
    /// Selector (`s=`).
    pub selector: Name,
    /// Hash algorithm (`a=rsa-<alg>`).
    pub algorithm: HashAlg,
    /// Header canonicalization.
    pub header_canon: Canonicalization,
    /// Body canonicalization.
    pub body_canon: Canonicalization,
    /// Headers to sign (must include `From`).
    pub signed_headers: Vec<String>,
    /// Optional signing timestamp (`t=`).
    pub timestamp: Option<u64>,
}

impl SignConfig {
    /// A sensible default configuration (relaxed/relaxed, rsa-sha256,
    /// From/To/Subject/Date/Message-ID signed) — what the paper's Exim4
    /// setup effectively used.
    pub fn new(domain: Name, selector: Name) -> SignConfig {
        SignConfig {
            domain,
            selector,
            algorithm: HashAlg::Sha256,
            header_canon: Canonicalization::Relaxed,
            body_canon: Canonicalization::Relaxed,
            signed_headers: vec![
                "From".into(),
                "To".into(),
                "Subject".into(),
                "Date".into(),
                "Message-ID".into(),
                "Reply-To".into(),
            ],
            timestamp: None,
        }
    }
}

/// Signing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignError {
    /// The message has no `From` header (unsignable).
    NoFrom,
    /// RSA failure (key too small for the digest).
    Rsa(String),
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignError::NoFrom => write!(f, "message has no From header"),
            SignError::Rsa(e) => write!(f, "rsa failure: {e}"),
        }
    }
}

impl std::error::Error for SignError {}

/// Select header instances for `h=` (§5.4.2): for each listed name, take
/// instances from the *bottom* of the header block upward; names listed
/// more times than they occur select nothing for the excess ("over-
/// signing"). Returns the selected fields in signing order.
pub fn select_headers<'a>(
    headers: &'a [HeaderField],
    signed: &[String],
) -> Vec<Option<&'a HeaderField>> {
    let mut used = vec![false; headers.len()];
    let mut out = Vec::with_capacity(signed.len());
    for name in signed {
        let mut found = None;
        for (i, h) in headers.iter().enumerate().rev() {
            if !used[i] && h.name.eq_ignore_ascii_case(name) {
                used[i] = true;
                found = Some(h);
                break;
            }
        }
        out.push(found);
    }
    out
}

/// Append the canonicalized selected headers to the data hash input
/// (§3.7), each with its CRLF. The `DKIM-Signature` header follows,
/// without one: see [`append_signature_header`].
fn append_signed_headers(
    message_headers: &[HeaderField],
    header_canon: Canonicalization,
    signed: &[String],
    input: &mut Vec<u8>,
) {
    for header in select_headers(message_headers, signed)
        .into_iter()
        .flatten()
    {
        append_header(header_canon, &header.name, &header.raw_value, input);
        input.extend_from_slice(b"\r\n");
    }
}

/// The hash algorithm's digest of the canonical body (the `bh=` value).
pub fn body_hash(config: &SignConfig, body: &[u8]) -> Vec<u8> {
    config
        .algorithm
        .digest(&canonicalize_body(config.body_canon, body))
}

/// Sign `message`, returning the `DKIM-Signature` header *value* to
/// prepend. The message itself is not modified.
pub fn sign_message(
    message: &MailMessage,
    config: &SignConfig,
    key: &RsaPrivateKey,
) -> Result<String, SignError> {
    sign_headers(
        &message.headers,
        config,
        &body_hash(config, &message.body),
        key,
    )
}

/// Sign the header block `headers` of a message whose body hashes to
/// `body_hash` ([`body_hash`] under the same `config`), returning the
/// `DKIM-Signature` header value, as [`sign_message`] does. A sender of
/// many messages with one body hashes it once and signs each through
/// here.
pub fn sign_headers(
    headers: &[HeaderField],
    config: &SignConfig,
    body_hash: &[u8],
    key: &RsaPrivateKey,
) -> Result<String, SignError> {
    // `h=` names are trimmed as `DkimSignature::parse` trims them, so
    // the verifier selects the headers the signer did.
    let signed_headers: Vec<String> = config
        .signed_headers
        .iter()
        .map(|h| h.trim().to_ascii_lowercase())
        .collect();
    if !headers.iter().any(|h| h.name.eq_ignore_ascii_case("from"))
        || !signed_headers.iter().any(|h| h == "from")
    {
        return Err(SignError::NoFrom);
    }
    let sig = DkimSignature {
        algorithm: config.algorithm,
        signature: Vec::new(),
        body_hash: body_hash.to_vec(),
        header_canon: config.header_canon,
        body_canon: config.body_canon,
        domain: config.domain.clone(),
        selector: config.selector.clone(),
        identity: None,
        body_length: None,
        timestamp: config.timestamp,
        expiration: None,
        signed_headers,
    };

    // The header will be attached as "DKIM-Signature: <value>", i.e. with
    // a single leading space in the raw value; hash exactly that. The
    // signed value is this one with the base64 signature after `b=`.
    let mut value = String::with_capacity(512);
    value.push(' ');
    sig.write_header_value(&mut value);
    let mut input = Vec::with_capacity(1024);
    append_signed_headers(
        headers,
        config.header_canon,
        &sig.signed_headers,
        &mut input,
    );
    append_header(config.header_canon, SIGNATURE_HEADER, &value, &mut input);
    let digest = config.algorithm.digest(&input);
    let signature = key
        .sign_digest(config.algorithm, &digest)
        .map_err(|e| SignError::Rsa(e.to_string()))?;
    mailval_crypto::base64::encode_into(&signature, &mut value);
    value.remove(0);
    Ok(value)
}

/// The name the signature header is hashed under.
const SIGNATURE_HEADER: &str = "DKIM-Signature";

/// Append the `DKIM-Signature` header as received, with its `b=` value
/// emptied, canonicalized and without a trailing CRLF (§3.7): the last
/// piece of the data hash input.
fn append_signature_header(canon: Canonicalization, raw_sig_value: &str, input: &mut Vec<u8>) {
    append_header_with(canon, SIGNATURE_HEADER, input, |out| {
        strip_b_value(raw_sig_value, out)
    });
}

/// Recompute the data-hash digest for verification of a *parsed*
/// signature against a message. Exposed for the verifier.
pub fn verification_digest(
    message: &MailMessage,
    sig: &DkimSignature,
    raw_sig_value: &str,
) -> Vec<u8> {
    // The signed header value is the received one with b= emptied but
    // everything else byte-identical (§3.7: remove the b= value from the
    // header as received).
    let mut input = Vec::with_capacity(1024);
    append_signed_headers(
        &message.headers,
        sig.header_canon,
        &sig.signed_headers,
        &mut input,
    );
    append_signature_header(sig.header_canon, raw_sig_value, &mut input);
    sig.algorithm.digest(&input)
}

/// Append `raw` to `out` with the value of its `b=` tag removed, keeping
/// everything else byte-for-byte (§3.7 step 2).
///
/// A `b` starts the tag when the text since the previous `b` examined
/// ends in `;` (before FWS) or is all whitespace, and `=` follows it
/// (after FWS); the value runs to the next `;` or the end.
pub fn strip_b_value(raw: &str, out: &mut Vec<u8>) {
    const FWS: [char; 4] = [' ', '\t', '\r', '\n'];
    let mut rest = raw;
    loop {
        let Some(pos) = rest.find('b') else {
            out.extend_from_slice(rest.as_bytes());
            return;
        };
        let before = &rest[..pos];
        let after_tag = &rest[pos + 1..];
        let at_boundary = before.trim_end_matches(FWS).ends_with(';') || before.trim().is_empty();
        out.extend_from_slice(&rest.as_bytes()[..=pos]);
        if !(at_boundary && after_tag.trim_start_matches(FWS).starts_with('=')) {
            rest = after_tag;
            continue;
        }
        let eq = after_tag.find('=').expect("checked above");
        out.extend_from_slice(&after_tag.as_bytes()[..=eq]);
        // Skip the value up to the next ';' or end.
        let value_rest = &after_tag[eq + 1..];
        match value_rest.find(';') {
            Some(semi) => rest = &value_rest[semi..],
            None => return,
        }
    }
}

/// Compute and compare the body hash (§3.7 step 1).
pub fn body_hash_matches(message: &MailMessage, sig: &DkimSignature) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn stripped(raw: &str) -> String {
        let mut out = Vec::new();
        strip_b_value(raw, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn strip_b_value_basic() {
        assert_eq!(stripped("v=1; bh=XYZ; b=ABCDEF"), "v=1; bh=XYZ; b=");
        assert_eq!(stripped("v=1; b=ABC; d=x.test"), "v=1; b=; d=x.test");
        // bh= must not be stripped.
        assert_eq!(stripped("bh=KEEP; b=GO"), "bh=KEEP; b=");
        // Folded b= value.
        assert_eq!(stripped("v=1; b=abc\r\n\tdef; d=x"), "v=1; b=; d=x");
        // A leading b= tag, after FWS or none.
        assert_eq!(stripped(" b=GO; v=1"), " b=; v=1");
        assert_eq!(stripped("b =GO"), "b =");
    }

    #[test]
    fn padded_header_names_sign_what_verifies() {
        use crate::verify::{DkimResult, DkimVerifier, VerifyStep};
        use mailval_crypto::bigint::SplitMix64;
        use mailval_crypto::rsa::RsaKeyPair;
        use mailval_dns::resolver::ResolveOutcome;
        use mailval_dns::rr::RData;
        use mailval_dns::Record;
        let kp = RsaKeyPair::generate(512, &mut SplitMix64::new(7));
        let mut m = MailMessage::new();
        m.add_header("From", "a@signer.example");
        m.add_header("Subject", "padded");
        m.set_body_text("body\n");
        let mut config = SignConfig::new(
            Name::parse("signer.example").unwrap(),
            Name::parse("sel1").unwrap(),
        );
        config.signed_headers = vec!["From".into(), "Subject ".into()];
        let value = sign_message(&m, &config, &kp.private).unwrap();
        assert!(value.contains("h=from:subject;"), "{value}");
        m.prepend_header("DKIM-Signature", &value);
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!("expected key lookup");
        };
        let key = crate::key::DkimKeyRecord::for_key(&kp.public).to_record_text();
        let answer =
            ResolveOutcome::Records(vec![Record::new(name, 300, RData::txt_from_str(&key))]);
        match v.on_key(answer) {
            VerifyStep::Done(DkimResult::Pass) => {}
            other => panic!("{other:?}"),
        }
        // A padded "From " is From.
        config.signed_headers = vec![" From ".into()];
        assert!(sign_message(&m, &config, &kp.private).is_ok());
    }

    #[test]
    fn select_headers_bottom_up() {
        let headers = vec![
            HeaderField::new("Received", "hop1"),
            HeaderField::new("From", "first@x.test"),
            HeaderField::new("Subject", "s"),
            HeaderField::new("From", "second@x.test"),
        ];
        let selected = select_headers(&headers, &["from".into(), "from".into(), "from".into()]);
        assert_eq!(selected[0].unwrap().value(), "second@x.test");
        assert_eq!(selected[1].unwrap().value(), "first@x.test");
        assert!(selected[2].is_none(), "over-signed slot selects nothing");
    }
}
