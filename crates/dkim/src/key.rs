//! DKIM key records (RFC 6376 §3.6.1), published as TXT at
//! `<selector>._domainkey.<domain>`.

use crate::taglist::TagList;
use mailval_crypto::rsa::{decode_spki, encode_spki, RsaPublicKey};
use mailval_crypto::HashAlg;

/// A parsed key record.
#[derive(Debug, Clone)]
pub struct DkimKeyRecord {
    /// `h=`: acceptable hash algorithms; empty = all.
    pub hash_algs: Vec<HashAlg>,
    /// `k=`: key type (only `rsa` supported).
    pub key_type: String,
    /// The public key from `p=`; `None` means the key is revoked
    /// (`p=` empty).
    pub public_key: Option<RsaPublicKey>,
    /// `t=` flags, e.g. `y` (testing), `s` (strict identity).
    pub flags: Vec<String>,
    /// `s=` service types; empty = all.
    pub services: Vec<String>,
}

/// Key record errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyRecordError {
    /// Malformed tag list.
    TagList(String),
    /// `v=` present but not `DKIM1` (must be first if present).
    BadVersion,
    /// Key type other than rsa.
    UnsupportedKeyType(String),
    /// Missing `p=` tag.
    MissingKey,
    /// `p=` could not be decoded as base64 SPKI.
    BadKey,
}

impl std::fmt::Display for KeyRecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyRecordError::TagList(e) => write!(f, "bad tag list: {e}"),
            KeyRecordError::BadVersion => write!(f, "bad v= tag"),
            KeyRecordError::UnsupportedKeyType(k) => write!(f, "unsupported key type {k:?}"),
            KeyRecordError::MissingKey => write!(f, "missing p= tag"),
            KeyRecordError::BadKey => write!(f, "undecodable p= key"),
        }
    }
}

impl std::error::Error for KeyRecordError {}

impl DkimKeyRecord {
    /// Build a record for a public key (for publication).
    pub fn for_key(key: &RsaPublicKey) -> DkimKeyRecord {
        DkimKeyRecord {
            hash_algs: Vec::new(),
            key_type: "rsa".into(),
            public_key: Some(key.clone()),
            flags: Vec::new(),
            services: Vec::new(),
        }
    }

    /// Serialize to the TXT record text.
    pub fn to_record_text(&self) -> String {
        let p = match &self.public_key {
            Some(key) => mailval_crypto::base64::encode(&encode_spki(key)),
            None => String::new(),
        };
        let mut parts = vec!["v=DKIM1".to_string(), format!("k={}", self.key_type)];
        if !self.hash_algs.is_empty() {
            let names: Vec<&str> = self
                .hash_algs
                .iter()
                .map(|a| match a {
                    HashAlg::Sha256 => "sha256",
                    HashAlg::Sha1 => "sha1",
                })
                .collect();
            parts.push(format!("h={}", names.join(":")));
        }
        if !self.flags.is_empty() {
            parts.push(format!("t={}", self.flags.join(":")));
        }
        parts.push(format!("p={p}"));
        parts.join("; ")
    }

    /// Parse a key record TXT string.
    pub fn parse(txt: &str) -> Result<DkimKeyRecord, KeyRecordError> {
        let tags = TagList::parse(txt).map_err(|e| KeyRecordError::TagList(e.to_string()))?;
        if let Some(v) = tags.get("v") {
            if !v.trim().eq_ignore_ascii_case("DKIM1") {
                return Err(KeyRecordError::BadVersion);
            }
        }
        let key_type = tags.get("k").unwrap_or("rsa").trim();
        if !key_type.eq_ignore_ascii_case("rsa") {
            return Err(KeyRecordError::UnsupportedKeyType(key_type.to_string()));
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
                    .filter_map(|a| {
                        let a = a.trim();
                        if a.eq_ignore_ascii_case("sha256") {
                            Some(HashAlg::Sha256)
                        } else if a.eq_ignore_ascii_case("sha1") {
                            Some(HashAlg::Sha1)
                        } else {
                            None
                        }
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
            key_type: key_type.to_string(),
            public_key,
            flags,
            services,
        })
    }

    /// Does this key permit the given hash algorithm?
    pub fn allows_hash(&self, alg: HashAlg) -> bool {
        self.hash_algs.is_empty() || self.hash_algs.contains(&alg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mailval_crypto::bigint::SplitMix64;
    use mailval_crypto::rsa::RsaKeyPair;

    fn keypair() -> RsaKeyPair {
        let mut rng = SplitMix64::new(77);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn roundtrip() {
        let kp = keypair();
        let record = DkimKeyRecord::for_key(&kp.public);
        let text = record.to_record_text();
        assert!(text.starts_with("v=DKIM1; k=rsa; p="));
        let parsed = DkimKeyRecord::parse(&text).unwrap();
        assert_eq!(parsed.public_key.unwrap(), kp.public);
    }

    #[test]
    fn revoked_key() {
        let parsed = DkimKeyRecord::parse("v=DKIM1; k=rsa; p=").unwrap();
        assert!(parsed.public_key.is_none());
    }

    #[test]
    fn defaults() {
        let kp = keypair();
        let p = mailval_crypto::base64::encode(&encode_spki(&kp.public));
        // No v=, no k= — both default.
        let parsed = DkimKeyRecord::parse(&format!("p={p}")).unwrap();
        assert_eq!(parsed.key_type, "rsa");
        assert!(parsed.allows_hash(HashAlg::Sha256));
        assert!(parsed.allows_hash(HashAlg::Sha1));
    }

    #[test]
    fn hash_restriction() {
        let kp = keypair();
        let p = mailval_crypto::base64::encode(&encode_spki(&kp.public));
        let parsed = DkimKeyRecord::parse(&format!("v=DKIM1; h=sha256; p={p}")).unwrap();
        assert!(parsed.allows_hash(HashAlg::Sha256));
        assert!(!parsed.allows_hash(HashAlg::Sha1));
    }

    #[test]
    fn errors() {
        assert!(matches!(
            DkimKeyRecord::parse("v=DKIM2; p="),
            Err(KeyRecordError::BadVersion)
        ));
        assert!(matches!(
            DkimKeyRecord::parse("v=DKIM1; k=ed25519; p="),
            Err(KeyRecordError::UnsupportedKeyType(_))
        ));
        assert!(matches!(
            DkimKeyRecord::parse("v=DKIM1; k=rsa"),
            Err(KeyRecordError::MissingKey)
        ));
        assert!(matches!(
            DkimKeyRecord::parse("v=DKIM1; k=rsa; p=!!!"),
            Err(KeyRecordError::BadKey)
        ));
    }
}
