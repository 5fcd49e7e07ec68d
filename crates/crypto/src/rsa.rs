//! RSA key generation and RSASSA-PKCS1-v1_5 signatures (RFC 8017), plus the
//! minimal ASN.1 DER codec needed for `SubjectPublicKeyInfo` — the encoding
//! DKIM key records carry in their `p=` tag (RFC 6376 §3.6.1).

use crate::bigint::{BigUint, Modulus, Rng64};
use crate::HashAlg;

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message representative out of range or key too small for the
    /// requested encoding.
    MessageTooLong,
    /// Signature length does not match the modulus length.
    BadSignatureLength,
    /// The signature failed to verify.
    VerifyFailed,
    /// A DER structure could not be parsed.
    Der(&'static str),
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::BadSignatureLength => write!(f, "signature length mismatch"),
            RsaError::VerifyFailed => write!(f, "signature verification failed"),
            RsaError::Der(what) => write!(f, "DER parse error: {what}"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

/// An RSA private key.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
    /// Private exponent.
    pub d: BigUint,
    /// CRT acceleration parameters, present when the factorization is
    /// known (generated keys). Signatures are bit-identical with or
    /// without them; `None` only costs speed.
    pub crt: Option<RsaCrtParams>,
}

/// The Chinese-remainder private-key form (RFC 8017 §3.2, second
/// representation): signing computes two half-width exponentiations
/// `m^dP mod p` / `m^dQ mod q` and recombines with Garner's formula
/// instead of one full-width `m^d mod n` — ~4× fewer limb operations,
/// same signature bytes (`s = m^d mod n` is unique in `[0, n)`). The
/// primes' Montgomery contexts are built once, with the parameters.
#[derive(Debug, Clone)]
pub struct RsaCrtParams {
    /// First prime factor.
    p: Modulus,
    /// Second prime factor.
    q: Modulus,
    /// `d mod (p − 1)`.
    dp: BigUint,
    /// `d mod (q − 1)`.
    dq: BigUint,
    /// `q⁻¹ mod p`.
    qinv: BigUint,
}

impl RsaCrtParams {
    /// The CRT form of the private exponent `d` of the modulus `p·q`,
    /// or `None` if `q` has no inverse mod `p` (the primes are not
    /// distinct).
    pub(crate) fn new(p: BigUint, q: BigUint, d: &BigUint) -> Option<RsaCrtParams> {
        let qinv = q.mod_inverse(&p)?;
        Some(RsaCrtParams {
            dp: d.rem(&p.sub(&BigUint::one())),
            dq: d.rem(&q.sub(&BigUint::one())),
            qinv,
            p: Modulus::new(&p),
            q: Modulus::new(&q),
        })
    }

    /// `m^d mod n` via the two prime-power residues.
    fn modpow_d(&self, m: &BigUint) -> BigUint {
        let (p, q) = (self.p.value(), self.q.value());
        let m1 = self.p.modpow(m, &self.dp);
        let m2 = self.q.modpow(m, &self.dq);
        // h = qinv·(m1 − m2) mod p, with the subtraction lifted into
        // [0, p) first (m2 can be ≥ p when q > p).
        let m2p = m2.rem(p);
        let diff = if m1 >= m2p {
            m1.sub(&m2p)
        } else {
            m1.add(p).sub(&m2p)
        };
        let h = diff.mulmod(&self.qinv, p);
        m2.add(&q.mul(&h))
    }
}

/// A generated key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    /// The private half.
    pub private: RsaPrivateKey,
}

/// The fixed public exponent used for generated keys (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

impl RsaKeyPair {
    /// Generate a key pair with a modulus of `bits` bits.
    ///
    /// 1024 bits is the traditional DKIM key size; 2048 the current
    /// recommendation. Test code uses smaller keys for speed.
    pub fn generate(bits: usize, rng: &mut dyn Rng64) -> RsaKeyPair {
        assert!(bits >= 128, "modulus too small to be meaningful");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = BigUint::gen_prime(bits / 2, rng);
            let q = BigUint::gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let Some(crt) = RsaCrtParams::new(p, q, &d) else {
                continue; // unreachable for distinct primes
            };
            return RsaKeyPair {
                public: RsaPublicKey {
                    n: n.clone(),
                    e: e.clone(),
                },
                private: RsaPrivateKey {
                    n,
                    e,
                    d,
                    crt: Some(crt),
                },
            };
        }
    }
}

/// `DigestInfo` DER prefixes (RFC 8017 §9.2 note 1).
fn digest_info_prefix(alg: HashAlg) -> &'static [u8] {
    match alg {
        HashAlg::Sha256 => &[
            0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x01, 0x05, 0x00, 0x04, 0x20,
        ],
        HashAlg::Sha1 => &[
            0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
            0x14,
        ],
    }
}

/// EMSA-PKCS1-v1_5 encoding of a message hash into `k` bytes.
fn emsa_encode(alg: HashAlg, hash: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let prefix = digest_info_prefix(alg);
    let t_len = prefix.len() + hash.len();
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(hash);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

impl RsaPrivateKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Sign `message` with RSASSA-PKCS1-v1_5 using the given hash.
    pub fn sign(&self, alg: HashAlg, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        self.sign_digest(alg, &alg.digest(message))
    }

    /// Sign a precomputed digest (the DKIM data-hash path).
    pub fn sign_digest(&self, alg: HashAlg, digest: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.modulus_len();
        let em = emsa_encode(alg, digest, k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = match &self.crt {
            Some(crt) => crt.modpow_d(&m),
            None => m.modpow(&self.d, &self.n),
        };
        s.to_bytes_be_padded(k).ok_or(RsaError::MessageTooLong)
    }
}

impl RsaPublicKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verify an RSASSA-PKCS1-v1_5 signature over `message`.
    pub fn verify(&self, alg: HashAlg, message: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        self.verify_digest(alg, &alg.digest(message), signature)
    }

    /// Verify against a precomputed digest (the DKIM data-hash path).
    pub fn verify_digest(
        &self,
        alg: HashAlg,
        digest: &[u8],
        signature: &[u8],
    ) -> Result<(), RsaError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(RsaError::BadSignatureLength);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_big(&self.n) != std::cmp::Ordering::Less {
            return Err(RsaError::VerifyFailed);
        }
        let m = s.modpow(&self.e, &self.n);
        let em = m.to_bytes_be_padded(k).ok_or(RsaError::VerifyFailed)?;
        let expected = emsa_encode(alg, digest, k)?;
        if em == expected {
            Ok(())
        } else {
            Err(RsaError::VerifyFailed)
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal DER for SubjectPublicKeyInfo (rsaEncryption)
// ---------------------------------------------------------------------------

/// OID 1.2.840.113549.1.1.1 (rsaEncryption), DER-encoded value bytes.
const OID_RSA_ENCRYPTION: &[u8] = &[0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x01, 0x01, 0x01];

fn der_len(len: usize, out: &mut Vec<u8>) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = (usize::BITS / 8 - len.leading_zeros() / 8) as usize;
        out.push(0x80 | bytes as u8);
        for i in (0..bytes).rev() {
            out.push((len >> (i * 8)) as u8);
        }
    }
}

fn der_tlv(tag: u8, value: &[u8], out: &mut Vec<u8>) {
    out.push(tag);
    der_len(value.len(), out);
    out.extend_from_slice(value);
}

fn der_integer(v: &BigUint, out: &mut Vec<u8>) {
    let mut bytes = v.to_bytes_be();
    if bytes.is_empty() {
        bytes.push(0);
    }
    // INTEGER is signed: prepend 0x00 if the high bit is set.
    if bytes[0] & 0x80 != 0 {
        bytes.insert(0, 0);
    }
    der_tlv(0x02, &bytes, out);
}

/// Encode an [`RsaPublicKey`] as a DER `SubjectPublicKeyInfo`
/// (the format carried in a DKIM key record's `p=` tag).
pub fn encode_spki(key: &RsaPublicKey) -> Vec<u8> {
    // RSAPublicKey ::= SEQUENCE { modulus INTEGER, publicExponent INTEGER }
    let mut rsa_pub = Vec::new();
    der_integer(&key.n, &mut rsa_pub);
    der_integer(&key.e, &mut rsa_pub);
    let mut rsa_pub_seq = Vec::new();
    der_tlv(0x30, &rsa_pub, &mut rsa_pub_seq);

    // AlgorithmIdentifier ::= SEQUENCE { OID rsaEncryption, NULL }
    let mut alg = Vec::new();
    der_tlv(0x06, OID_RSA_ENCRYPTION, &mut alg);
    der_tlv(0x05, &[], &mut alg);
    let mut alg_seq = Vec::new();
    der_tlv(0x30, &alg, &mut alg_seq);

    // BIT STRING with zero unused bits wrapping RSAPublicKey.
    let mut bit_string = vec![0u8];
    bit_string.extend_from_slice(&rsa_pub_seq);

    let mut spki_body = alg_seq;
    der_tlv(0x03, &bit_string, &mut spki_body);

    let mut out = Vec::new();
    der_tlv(0x30, &spki_body, &mut out);
    out
}

struct DerReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> DerReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        DerReader { data, pos: 0 }
    }

    fn read_tlv(&mut self, expect_tag: u8) -> Result<&'a [u8], RsaError> {
        let tag = *self
            .data
            .get(self.pos)
            .ok_or(RsaError::Der("truncated tag"))?;
        if tag != expect_tag {
            return Err(RsaError::Der("unexpected tag"));
        }
        self.pos += 1;
        let first = *self
            .data
            .get(self.pos)
            .ok_or(RsaError::Der("truncated length"))?;
        self.pos += 1;
        let len = if first < 0x80 {
            first as usize
        } else {
            let n = (first & 0x7f) as usize;
            if n == 0 || n > 8 {
                return Err(RsaError::Der("bad long-form length"));
            }
            let mut len = 0usize;
            for _ in 0..n {
                let b = *self
                    .data
                    .get(self.pos)
                    .ok_or(RsaError::Der("truncated length"))?;
                self.pos += 1;
                len = (len << 8) | b as usize;
            }
            len
        };
        let end = self
            .pos
            .checked_add(len)
            .ok_or(RsaError::Der("length overflow"))?;
        if end > self.data.len() {
            return Err(RsaError::Der("value past end"));
        }
        let value = &self.data[self.pos..end];
        self.pos = end;
        Ok(value)
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Decode a DER `SubjectPublicKeyInfo` carrying an rsaEncryption key.
pub fn decode_spki(der: &[u8]) -> Result<RsaPublicKey, RsaError> {
    let mut outer = DerReader::new(der);
    let spki_body = outer.read_tlv(0x30)?;
    if !outer.done() {
        return Err(RsaError::Der("trailing bytes after SPKI"));
    }
    let mut spki = DerReader::new(spki_body);
    let alg_body = spki.read_tlv(0x30)?;
    let mut alg = DerReader::new(alg_body);
    let oid = alg.read_tlv(0x06)?;
    if oid != OID_RSA_ENCRYPTION {
        return Err(RsaError::Der("not an rsaEncryption key"));
    }
    // Parameters must be NULL (or absent; we require NULL as RFC 3279 does).
    if !alg.done() {
        let null = alg.read_tlv(0x05)?;
        if !null.is_empty() || !alg.done() {
            return Err(RsaError::Der("bad algorithm parameters"));
        }
    }
    let bit_string = spki.read_tlv(0x03)?;
    if !spki.done() {
        return Err(RsaError::Der("trailing bytes in SPKI body"));
    }
    let Some((&unused, key_der)) = bit_string.split_first() else {
        return Err(RsaError::Der("empty bit string"));
    };
    if unused != 0 {
        return Err(RsaError::Der("unused bits in key bit string"));
    }
    let mut keyr = DerReader::new(key_der);
    let rsa_body = keyr.read_tlv(0x30)?;
    if !keyr.done() {
        return Err(RsaError::Der("trailing bytes after RSAPublicKey"));
    }
    let mut rsar = DerReader::new(rsa_body);
    let n_bytes = rsar.read_tlv(0x02)?;
    let e_bytes = rsar.read_tlv(0x02)?;
    if !rsar.done() {
        return Err(RsaError::Der("trailing bytes in RSAPublicKey"));
    }
    Ok(RsaPublicKey {
        n: BigUint::from_bytes_be(n_bytes),
        e: BigUint::from_bytes_be(e_bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::SplitMix64;

    fn test_key() -> RsaKeyPair {
        let mut rng = SplitMix64::new(0xd155_ec10);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_key();
        let msg = b"From: a@example.com\r\nSubject: hi\r\n\r\nbody";
        let sig = kp.private.sign(HashAlg::Sha256, msg).unwrap();
        assert_eq!(sig.len(), kp.public.modulus_len());
        kp.public.verify(HashAlg::Sha256, msg, &sig).unwrap();
    }

    #[test]
    fn crt_signature_is_bit_identical_to_plain() {
        let kp = test_key();
        assert!(kp.private.crt.is_some(), "generated keys carry CRT params");
        let mut plain = kp.private.clone();
        plain.crt = None;
        for msg in [&b"abc"[..], b"", b"a longer message body\r\nwith lines"] {
            let fast = kp.private.sign(HashAlg::Sha256, msg).unwrap();
            let slow = plain.sign(HashAlg::Sha256, msg).unwrap();
            assert_eq!(fast, slow, "CRT path diverged from m^d mod n");
            kp.public.verify(HashAlg::Sha256, msg, &fast).unwrap();
        }
    }

    #[test]
    fn crt_signature_is_bit_identical_to_plain_at_1024_bits() {
        let mut rng = SplitMix64::new(0x5eed_1024);
        let kp = RsaKeyPair::generate(1024, &mut rng);
        let mut plain = kp.private.clone();
        plain.crt = None;
        for i in 0u32..8 {
            let digest = HashAlg::Sha256.digest(&i.to_be_bytes());
            let fast = kp.private.sign_digest(HashAlg::Sha256, &digest).unwrap();
            let slow = plain.sign_digest(HashAlg::Sha256, &digest).unwrap();
            assert_eq!(fast, slow, "CRT path diverged from m^d mod n");
            kp.public
                .verify_digest(HashAlg::Sha256, &digest, &fast)
                .unwrap();
        }
    }

    #[test]
    fn campaign_key_signature_known_answer() {
        // The apparatus key exactly as `CampaignWorld::build` seeds it
        // at the default campaign seed (2021), signing a fixed digest.
        // Both hashes were recorded before the fixed-width Montgomery
        // kernel replaced the allocating one; any change to keygen
        // (prime search, Miller–Rabin verdicts, RNG draws) or to the
        // signature value moves them.
        let mut rng = SplitMix64::new(2021 ^ 0x444b_4559);
        let kp = RsaKeyPair::generate(1024, &mut rng);
        let digest = HashAlg::Sha256.digest(b"mailval rsa1024 known-answer");
        let sig = kp.private.sign_digest(HashAlg::Sha256, &digest).unwrap();
        let hex_sha256 = |bytes: &[u8]| crate::hex::encode(&crate::sha256::sha256(bytes));
        assert_eq!(
            hex_sha256(&kp.public.n.to_bytes_be()),
            "c5756af9c23e7c27a827e4e7f66581593872d06e92f81df7a8815941118644c7"
        );
        assert_eq!(
            hex_sha256(&sig),
            "548de517636e9753bcf8c2b61a98373fbf66014415b3f443a5c0334d6cc460f8"
        );
        kp.public
            .verify_digest(HashAlg::Sha256, &digest, &sig)
            .unwrap();
    }

    #[test]
    fn sign_verify_sha1() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha1, b"legacy").unwrap();
        kp.public.verify(HashAlg::Sha1, b"legacy", &sig).unwrap();
    }

    #[test]
    fn tampered_message_fails() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"original").unwrap();
        assert_eq!(
            kp.public.verify(HashAlg::Sha256, b"tampered", &sig),
            Err(RsaError::VerifyFailed)
        );
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = test_key();
        let mut sig = kp.private.sign(HashAlg::Sha256, b"msg").unwrap();
        sig[0] ^= 1;
        assert!(kp.public.verify(HashAlg::Sha256, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_hash_alg_fails() {
        let kp = test_key();
        let sig = kp.private.sign(HashAlg::Sha256, b"msg").unwrap();
        assert!(kp.public.verify(HashAlg::Sha1, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = test_key();
        assert_eq!(
            kp.public.verify(HashAlg::Sha256, b"msg", &[0u8; 3]),
            Err(RsaError::BadSignatureLength)
        );
    }

    #[test]
    fn spki_roundtrip() {
        let kp = test_key();
        let der = encode_spki(&kp.public);
        let decoded = decode_spki(&der).unwrap();
        assert_eq!(decoded, kp.public);
    }

    #[test]
    fn spki_rejects_truncation() {
        let kp = test_key();
        let der = encode_spki(&kp.public);
        for cut in [0, 1, der.len() / 2, der.len() - 1] {
            assert!(decode_spki(&der[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn spki_rejects_trailing_garbage() {
        let kp = test_key();
        let mut der = encode_spki(&kp.public);
        der.push(0x00);
        assert!(decode_spki(&der).is_err());
    }

    #[test]
    fn key_too_small_for_digest() {
        // A 128-bit key cannot hold a SHA-256 DigestInfo.
        let mut rng = SplitMix64::new(3);
        let kp = RsaKeyPair::generate(128, &mut rng);
        assert_eq!(
            kp.private.sign(HashAlg::Sha256, b"x"),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn keypair_is_consistent() {
        let kp = test_key();
        // e*d == 1 mod lcm is implied by sign/verify, but check basic shape.
        assert_eq!(kp.public.n, kp.private.n);
        assert_eq!(kp.public.e.to_u64(), Some(PUBLIC_EXPONENT));
        assert_eq!(kp.public.n.bit_len(), 512);
    }
}
