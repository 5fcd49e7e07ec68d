//! The `DKIM-Signature` header (RFC 6376 §3.5).

use crate::canon::Canonicalization;
use crate::taglist::TagList;
use mailval_crypto::HashAlg;
use mailval_dns::Name;

/// A parsed `DKIM-Signature` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DkimSignature {
    /// `a=`: signing algorithm.
    pub algorithm: HashAlg,
    /// `b=`: the signature bytes.
    pub signature: Vec<u8>,
    /// `bh=`: the body hash bytes.
    pub body_hash: Vec<u8>,
    /// `c=`: header canonicalization.
    pub header_canon: Canonicalization,
    /// `c=`: body canonicalization.
    pub body_canon: Canonicalization,
    /// `d=`: signing domain (SDID).
    pub domain: Name,
    /// `h=`: signed header field names, in order.
    pub signed_headers: Vec<String>,
    /// `s=`: selector.
    pub selector: Name,
    /// `i=`: agent/user identifier, if present.
    pub identity: Option<String>,
    /// `l=`: body length limit, if present.
    pub body_length: Option<u64>,
    /// `t=`: signing timestamp, if present.
    pub timestamp: Option<u64>,
    /// `x=`: expiration, if present.
    pub expiration: Option<u64>,
}

/// Signature parse/validation failures (verifier maps these to
/// `permerror`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureError {
    /// Not a valid tag list.
    TagList(String),
    /// Wrong or missing `v=`.
    BadVersion,
    /// A required tag is missing.
    MissingTag(&'static str),
    /// A tag value is malformed.
    BadTag(&'static str),
    /// `h=` does not include `From` (REQUIRED by §3.5).
    FromNotSigned,
    /// Unsupported algorithm or query method.
    Unsupported(&'static str),
    /// `s=`, `_domainkey` and `d=` together exceed a DNS name.
    KeyNameTooLong,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::TagList(e) => write!(f, "bad tag list: {e}"),
            SignatureError::BadVersion => write!(f, "bad v= tag"),
            SignatureError::MissingTag(t) => write!(f, "missing {t}= tag"),
            SignatureError::BadTag(t) => write!(f, "bad {t}= tag"),
            SignatureError::FromNotSigned => write!(f, "From header not signed"),
            SignatureError::Unsupported(what) => write!(f, "unsupported {what}"),
            SignatureError::KeyNameTooLong => write!(f, "key record name too long"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl DkimSignature {
    /// The DNS name of the key record: `<selector>._domainkey.<domain>`
    /// (§3.6.2.1) — the exact name whose TXT query the paper's apparatus
    /// watches for to call an MTA DKIM-validating. A selector and domain
    /// that each parse may still not fit in one name together.
    pub fn key_record_name(&self) -> Result<Name, SignatureError> {
        Name::from_labels(
            self.selector
                .labels()
                .chain(["_domainkey"])
                .chain(self.domain.labels()),
        )
        .map_err(|_| SignatureError::KeyNameTooLong)
    }

    /// Parse the value of a `DKIM-Signature` header.
    pub fn parse(value: &str) -> Result<DkimSignature, SignatureError> {
        let tags = TagList::parse(value).map_err(|e| SignatureError::TagList(e.to_string()))?;
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

    /// Serialize to a header value with the given `b=` content (empty for
    /// the signing pass).
    pub fn to_header_value(&self, b_value: &str) -> String {
        let mut out = String::with_capacity(256 + b_value.len());
        self.write_header_value(&mut out);
        out.push_str(b_value);
        out
    }

    /// Append the header value up to and including `b=` (its value is
    /// the caller's) to `out`.
    pub fn write_header_value(&self, out: &mut String) {
        use std::fmt::Write;
        let alg = match self.algorithm {
            HashAlg::Sha256 => "rsa-sha256",
            HashAlg::Sha1 => "rsa-sha1",
        };
        for piece in [
            "v=1; a=",
            alg,
            "; c=",
            self.header_canon.as_str(),
            "/",
            self.body_canon.as_str(),
            "; d=",
            name_text(&self.domain),
            "; s=",
            name_text(&self.selector),
        ] {
            out.push_str(piece);
        }
        // Writing to a String cannot fail.
        if let Some(t) = self.timestamp {
            let _ = write!(out, "; t={t}");
        }
        if let Some(x) = self.expiration {
            let _ = write!(out, "; x={x}");
        }
        if let Some(l) = self.body_length {
            let _ = write!(out, "; l={l}");
        }
        if let Some(i) = &self.identity {
            out.push_str("; i=");
            out.push_str(i);
        }
        out.push_str("; h=");
        for (k, h) in self.signed_headers.iter().enumerate() {
            if k > 0 {
                out.push(':');
            }
            out.push_str(h);
        }
        out.push_str("; bh=");
        mailval_crypto::base64::encode_into(&self.body_hash, out);
        out.push_str("; b=");
    }
}

/// A name as it displays: the root is `.`.
fn name_text(name: &Name) -> &str {
    if name.is_root() {
        "."
    } else {
        name.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "v=1; a=rsa-sha256; d=example.net; s=brisbane;\r\n\
\tc=relaxed/simple; q=dns/txt; t=1117574938; x=1118006938; l=200;\r\n\
\th=from:to:subject:date; bh=MTIzNDU2Nzg5MDEyMzQ1Njc4OTAxMjM0NTY3ODkwMTI=;\r\n\
\tb=dzdVyOfAKCdLXdJOc9G2q8LoXSlEniSbav+yuU4zGeeruD00lszZVoG4ZHRNiYzR";

    #[test]
    fn parse_rfc_style_signature() {
        let sig = DkimSignature::parse(SAMPLE).unwrap();
        assert_eq!(sig.algorithm, HashAlg::Sha256);
        assert_eq!(sig.domain, Name::parse("example.net").unwrap());
        assert_eq!(sig.selector, Name::parse("brisbane").unwrap());
        assert_eq!(sig.header_canon, Canonicalization::Relaxed);
        assert_eq!(sig.body_canon, Canonicalization::Simple);
        assert_eq!(sig.signed_headers, vec!["from", "to", "subject", "date"]);
        assert_eq!(sig.body_length, Some(200));
        assert_eq!(sig.timestamp, Some(1117574938));
        assert_eq!(sig.body_hash.len(), 32);
        assert_eq!(
            sig.key_record_name(),
            Ok(Name::parse("brisbane._domainkey.example.net").unwrap())
        );
    }

    #[test]
    fn oversized_key_record_name_is_an_error() {
        let domain = ["a", "b", "c", "d"].map(|c| c.repeat(60)).join(".");
        let value = format!("v=1; a=rsa-sha256; d={domain}; s=selector; h=from; b=; bh=");
        let sig = DkimSignature::parse(&value).unwrap();
        assert_eq!(sig.key_record_name(), Err(SignatureError::KeyNameTooLong));
    }

    #[test]
    fn missing_required_tags() {
        assert_eq!(
            DkimSignature::parse("v=1; a=rsa-sha256; d=x.test; s=s; h=from; b=aa"),
            Err(SignatureError::MissingTag("bh"))
        );
        assert_eq!(
            DkimSignature::parse("v=1; a=rsa-sha256; s=s; h=from; b=; bh="),
            Err(SignatureError::MissingTag("d"))
        );
    }

    #[test]
    fn from_must_be_signed() {
        assert_eq!(
            DkimSignature::parse("v=1; a=rsa-sha256; d=x.test; s=s; h=to:subject; b=; bh="),
            Err(SignatureError::FromNotSigned)
        );
    }

    #[test]
    fn bad_version_and_algorithm() {
        assert_eq!(
            DkimSignature::parse("v=2; a=rsa-sha256; d=x.test; s=s; h=from; b=; bh="),
            Err(SignatureError::BadVersion)
        );
        assert_eq!(
            DkimSignature::parse("v=1; a=ed25519-sha256; d=x.test; s=s; h=from; b=; bh="),
            Err(SignatureError::Unsupported("algorithm"))
        );
    }

    #[test]
    fn default_canon_is_simple_simple() {
        let sig =
            DkimSignature::parse("v=1; a=rsa-sha256; d=x.test; s=s; h=from; b=; bh=").unwrap();
        assert_eq!(sig.header_canon, Canonicalization::Simple);
        assert_eq!(sig.body_canon, Canonicalization::Simple);
    }

    #[test]
    fn single_sided_c_tag() {
        let sig =
            DkimSignature::parse("v=1; a=rsa-sha256; c=relaxed; d=x.test; s=s; h=from; b=; bh=")
                .unwrap();
        assert_eq!(sig.header_canon, Canonicalization::Relaxed);
        assert_eq!(sig.body_canon, Canonicalization::Simple);
    }

    #[test]
    fn roundtrip_serialize_parse() {
        let sig = DkimSignature::parse(SAMPLE).unwrap();
        let value = sig.to_header_value(&mailval_crypto::base64::encode(&sig.signature));
        let reparsed = DkimSignature::parse(&value).unwrap();
        assert_eq!(reparsed.domain, sig.domain);
        assert_eq!(reparsed.signed_headers, sig.signed_headers);
        assert_eq!(reparsed.body_hash, sig.body_hash);
        assert_eq!(reparsed.signature, sig.signature);
    }

    #[test]
    fn unsupported_query_method() {
        assert_eq!(
            DkimSignature::parse("v=1; a=rsa-sha256; q=dns/frob; d=x.test; s=s; h=from; b=; bh="),
            Err(SignatureError::Unsupported("query method"))
        );
    }
}
