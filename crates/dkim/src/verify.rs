//! Resumable DKIM verification (RFC 6376 §6).
//!
//! Like the SPF evaluator, the verifier is sans-IO: it yields the
//! key-record DNS question (`<selector>._domainkey.<domain>` TXT) and is
//! resumed with the resolver outcome. That TXT query is the signal the
//! paper's apparatus logs to classify a receiving MTA as DKIM-validating.

use crate::key::DkimKeyRecord;
use crate::sign::{body_hash_matches, verification_digest};
use crate::signature::DkimSignature;
use mailval_dns::resolver::ResolveOutcome;
use mailval_dns::rr::RecordType;
use mailval_dns::Name;
use mailval_smtp::mail::MailMessage;

/// DKIM verification results (RFC 8601 §2.7.1 vocabulary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DkimResult {
    /// The signature verified.
    Pass,
    /// The signature did not verify (reason attached).
    Fail(String),
    /// The message carries no DKIM-Signature header.
    None,
    /// The signature is unusable (syntax, unsupported algorithm...).
    PermError(String),
    /// Key retrieval failed transiently.
    TempError,
    /// Signature present but not checkable (revoked key).
    Neutral(String),
}

/// Next step of verification.
#[derive(Debug, Clone)]
pub enum VerifyStep {
    /// Resolve this TXT name and resume with the outcome.
    NeedKey {
        /// Key record name.
        name: Name,
        /// Always TXT.
        rtype: RecordType,
    },
    /// Verification finished.
    Done(DkimResult),
}

/// A resumable verifier for one message's *first* DKIM signature.
/// (Messages with multiple signatures can run one verifier per header.)
///
/// [`DkimVerifier::new`] does all the work that needs the message: it
/// parses the signature and, if that succeeds, computes the body-hash
/// verdict and the header digest, so the verifier keeps neither the
/// message nor a copy of it. [`DkimVerifier::start`] and
/// [`DkimVerifier::on_key`] then report in RFC order: the key query,
/// the key checks, and only then the body hash and the signature.
pub struct DkimVerifier {
    /// What the signature header came to: a signature ready to check, or
    /// the result verification ends with at `start`.
    parsed: Result<Checked, DkimResult>,
    started: bool,
    done: bool,
}

/// A parsed signature with the message-side work already done.
struct Checked {
    signature: DkimSignature,
    /// Does the canonical body (cut to `l=`) hash to `bh=`?
    body_hash_ok: bool,
    /// The digest of the data hash input (§3.7), which the signature
    /// must sign.
    digest: Vec<u8>,
}

impl DkimVerifier {
    /// Prepare verification of the `index`-th DKIM-Signature header
    /// (0-based).
    pub fn new(message: &MailMessage, index: usize) -> DkimVerifier {
        let parsed = match message.headers_named("DKIM-Signature").nth(index) {
            None => Err(DkimResult::None),
            Some(header) => match DkimSignature::parse(&header.raw_value) {
                Err(e) => Err(DkimResult::PermError(e.to_string())),
                Ok(signature) => Ok(Checked {
                    body_hash_ok: body_hash_matches(message, &signature),
                    digest: verification_digest(message, &signature, &header.raw_value),
                    signature,
                }),
            },
        };
        DkimVerifier {
            parsed,
            started: false,
            done: false,
        }
    }

    /// Number of DKIM-Signature headers on a message.
    pub fn signature_count(message: &MailMessage) -> usize {
        message.headers_named("DKIM-Signature").count()
    }

    /// The parsed signature, if the header is present and parses (known
    /// from [`DkimVerifier::new`] on).
    pub fn signature(&self) -> Option<&DkimSignature> {
        self.parsed.as_ref().ok().map(|c| &c.signature)
    }

    /// Begin: report a missing or unparsable signature, or one whose
    /// key record name does not fit in a DNS name, or ask for the key
    /// record. Only the signature's syntax is judged here; the body hash
    /// is checked in [`DkimVerifier::on_key`], after the key. The order
    /// matters to the measurement: every verifier whose signature parses
    /// and names a key asks for it, and that query is the paper's
    /// observable of a DKIM-validating MTA (§4.5), whatever the body
    /// turns out to be.
    pub fn start(&mut self) -> VerifyStep {
        assert!(!self.done, "verifier already finished");
        let name = match &self.parsed {
            Err(result) => Err(result.clone()),
            Ok(checked) => checked
                .signature
                .key_record_name()
                .map_err(|e| DkimResult::PermError(e.to_string())),
        };
        match name {
            Err(result) => {
                self.done = true;
                VerifyStep::Done(result)
            }
            Ok(name) => {
                self.started = true;
                VerifyStep::NeedKey {
                    name,
                    rtype: RecordType::Txt,
                }
            }
        }
    }

    /// Resume with the key-record lookup outcome.
    pub fn on_key(&mut self, outcome: ResolveOutcome) -> VerifyStep {
        assert!(!self.done, "verifier already finished");
        assert!(self.started, "on_key before start");
        let checked = self.parsed.as_ref().expect("started with a signature");
        self.done = true;
        VerifyStep::Done(checked.verify(outcome))
    }
}

impl Checked {
    /// The result given the key-record lookup outcome (§6.1.2, §6.1.3).
    fn verify(&self, outcome: ResolveOutcome) -> DkimResult {
        let sig = &self.signature;
        let records = match outcome {
            ResolveOutcome::Records(records) => records,
            ResolveOutcome::NoData | ResolveOutcome::NxDomain => {
                return DkimResult::PermError("no key for signature".into());
            }
            ResolveOutcome::Timeout | ResolveOutcome::ServFail => {
                return DkimResult::TempError;
            }
        };
        // §3.6.2.2: use the first parsable TXT string as the key record.
        let key_record = records
            .iter()
            .filter_map(|r| r.rdata.txt_joined())
            .find_map(|txt| DkimKeyRecord::parse(&txt).ok());
        let Some(key_record) = key_record else {
            return DkimResult::PermError("unusable key record".into());
        };
        let Some(public_key) = &key_record.public_key else {
            return DkimResult::Neutral("key revoked".into());
        };
        if !key_record.allows_hash(sig.algorithm) {
            return DkimResult::PermError("hash algorithm not permitted by key".into());
        }
        if !self.body_hash_ok {
            return DkimResult::Fail("body hash mismatch".into());
        }
        match public_key.verify_digest(sig.algorithm, &self.digest, &sig.signature) {
            Ok(()) => DkimResult::Pass,
            Err(_) => DkimResult::Fail("signature mismatch".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::Canonicalization;
    use crate::sign::{sign_message, SignConfig};
    use mailval_crypto::bigint::SplitMix64;
    use mailval_crypto::rsa::RsaKeyPair;
    use mailval_dns::rr::RData;
    use mailval_dns::Record;

    fn keypair() -> RsaKeyPair {
        let mut rng = SplitMix64::new(2024);
        RsaKeyPair::generate(512, &mut rng)
    }

    fn sample_message() -> MailMessage {
        let mut m = MailMessage::new();
        m.add_header("From", "Notifier <spf-test@d1.dsav-mail.dns-lab.org>");
        m.add_header("To", "operator@target.test");
        m.add_header("Subject", "Network notification");
        m.add_header("Date", "Mon, 12 Oct 2020 10:00:00 +0000");
        m.set_body_text("Dear operator,\nYour network has an issue.\n");
        m
    }

    fn config() -> SignConfig {
        SignConfig::new(
            Name::parse("d1.dsav-mail.dns-lab.org").unwrap(),
            Name::parse("sel1").unwrap(),
        )
    }

    fn key_answer(kp: &RsaKeyPair, name: &Name) -> ResolveOutcome {
        let record_text = DkimKeyRecord::for_key(&kp.public).to_record_text();
        ResolveOutcome::Records(vec![Record::new(
            name.clone(),
            300,
            RData::txt_from_str(&record_text),
        )])
    }

    fn sign_and_attach(m: &mut MailMessage, cfg: &SignConfig, kp: &RsaKeyPair) {
        let value = sign_message(m, cfg, &kp.private).unwrap();
        m.prepend_header("DKIM-Signature", &value);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!("expected key lookup");
        };
        assert_eq!(
            name,
            Name::parse("sel1._domainkey.d1.dsav-mail.dns-lab.org").unwrap()
        );
        match v.on_key(key_answer(&kp, &name)) {
            VerifyStep::Done(DkimResult::Pass) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip_all_canonicalizations() {
        let kp = keypair();
        for hc in [Canonicalization::Simple, Canonicalization::Relaxed] {
            for bc in [Canonicalization::Simple, Canonicalization::Relaxed] {
                let mut cfg = config();
                cfg.header_canon = hc;
                cfg.body_canon = bc;
                let mut m = sample_message();
                sign_and_attach(&mut m, &cfg, &kp);
                let mut v = DkimVerifier::new(&m, 0);
                let VerifyStep::NeedKey { name, .. } = v.start() else {
                    panic!()
                };
                match v.on_key(key_answer(&kp, &name)) {
                    VerifyStep::Done(DkimResult::Pass) => {}
                    other => panic!("{hc}/{bc}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn verify_survives_reparse_roundtrip() {
        // Transport the signed message through bytes, as SMTP would.
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        let reparsed = MailMessage::parse(&m.to_bytes()).unwrap();
        let mut v = DkimVerifier::new(&reparsed, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        match v.on_key(key_answer(&kp, &name)) {
            VerifyStep::Done(DkimResult::Pass) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relaxed_tolerates_whitespace_churn() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        // An intermediary re-spaces a signed header (relaxed must survive).
        for h in &mut m.headers {
            if h.name.eq_ignore_ascii_case("subject") {
                h.raw_value = "  Network   notification".into();
            }
        }
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        match v.on_key(key_answer(&kp, &name)) {
            VerifyStep::Done(DkimResult::Pass) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tampered_body_fails_bh() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        m.set_body_text("Entirely different body\n");
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        match v.on_key(key_answer(&kp, &name)) {
            VerifyStep::Done(DkimResult::Fail(reason)) => {
                assert!(reason.contains("body hash"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tampered_signed_header_fails_signature() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        for h in &mut m.headers {
            if h.name.eq_ignore_ascii_case("from") {
                h.raw_value = " Spoofer <evil@attacker.test>".into();
            }
        }
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        match v.on_key(key_answer(&kp, &name)) {
            VerifyStep::Done(DkimResult::Fail(reason)) => {
                assert!(reason.contains("signature"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsigned_message_is_none() {
        let m = sample_message();
        let mut v = DkimVerifier::new(&m, 0);
        match v.start() {
            VerifyStep::Done(DkimResult::None) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_key_name_is_permerror() {
        let domain = ["a", "b", "c", "d"].map(|c| c.repeat(60)).join(".");
        let mut m = sample_message();
        m.prepend_header(
            "DKIM-Signature",
            &format!("v=1; a=rsa-sha256; d={domain}; s=selector; h=from; b=; bh="),
        );
        let mut v = DkimVerifier::new(&m, 0);
        match v.start() {
            VerifyStep::Done(DkimResult::PermError(reason)) => {
                assert_eq!(reason, "key record name too long");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_key_is_permerror() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { .. } = v.start() else {
            panic!()
        };
        match v.on_key(ResolveOutcome::NxDomain) {
            VerifyStep::Done(DkimResult::PermError(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dns_failure_is_temperror() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { .. } = v.start() else {
            panic!()
        };
        match v.on_key(ResolveOutcome::Timeout) {
            VerifyStep::Done(DkimResult::TempError) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn revoked_key_is_neutral() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        let revoked = ResolveOutcome::Records(vec![Record::new(
            name,
            300,
            RData::txt_from_str("v=DKIM1; k=rsa; p="),
        )]);
        match v.on_key(revoked) {
            VerifyStep::Done(DkimResult::Neutral(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_key_fails() {
        let kp = keypair();
        let mut rng = SplitMix64::new(999);
        let other = RsaKeyPair::generate(512, &mut rng);
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        let mut v = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v.start() else {
            panic!()
        };
        match v.on_key(key_answer(&other, &name)) {
            VerifyStep::Done(DkimResult::Fail(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_signatures_independent() {
        let kp = keypair();
        let mut m = sample_message();
        sign_and_attach(&mut m, &config(), &kp);
        // Second (outer) signature from another domain.
        let mut cfg2 = config();
        cfg2.domain = Name::parse("relay.test").unwrap();
        cfg2.selector = Name::parse("r1").unwrap();
        sign_and_attach(&mut m, &cfg2, &kp);
        assert_eq!(DkimVerifier::signature_count(&m), 2);
        // Index 0 is the outer (prepended last).
        let mut v0 = DkimVerifier::new(&m, 0);
        let VerifyStep::NeedKey { name, .. } = v0.start() else {
            panic!()
        };
        assert_eq!(name, Name::parse("r1._domainkey.relay.test").unwrap());
        match v0.on_key(key_answer(&kp, &name)) {
            VerifyStep::Done(DkimResult::Pass) => {}
            other => panic!("{other:?}"),
        }
    }
}
