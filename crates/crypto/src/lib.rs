//! # mailval-crypto
//!
//! Self-contained cryptographic and encoding primitives used by the DKIM
//! implementation and the measurement apparatus.
//!
//! Everything here is implemented from scratch so the workspace has no
//! external cryptography dependency:
//!
//! * [`base64`] — RFC 4648 standard-alphabet Base64 (DKIM signatures and key
//!   records are Base64-encoded).
//! * [`hex`] — lowercase hex encoding (diagnostics, test vectors).
//! * [`sha1`] / [`sha256`] — the two hash algorithms named by RFC 6376
//!   (`rsa-sha1` is historic; `rsa-sha256` is required).
//! * [`hmac`] — HMAC over either hash (used for deterministic identifier
//!   derivation in the measurement name encoding).
//! * [`bigint`] — arbitrary-precision unsigned integers with schoolbook
//!   multiplication, Knuth Algorithm D division and modular
//!   exponentiation on a fixed-width, allocation-free Montgomery kernel.
//! * [`rsa`] — RSA key generation (Miller–Rabin), PKCS#1 v1.5 signing and
//!   verification with SHA-1/SHA-256 `DigestInfo` encodings.
//!
//! The implementations favor clarity and determinism over speed; they are
//! more than fast enough for signing and verifying the simulated mail volume
//! used in the reproduction (see `EXPERIMENTS.md`).
//!
//! ## Security note
//!
//! This crate exists to make a *measurement reproduction* self-contained.
//! It is not hardened (no constant-time guarantees, no blinding) and must not
//! be used to protect real traffic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod base64;
pub mod bigint;
pub mod hex;
pub mod hmac;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use bigint::BigUint;
pub use rsa::{RsaCrtParams, RsaKeyPair, RsaPrivateKey, RsaPublicKey};

/// Hash algorithms supported by the workspace (the two named in RFC 6376).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// SHA-1 (historic; `rsa-sha1` DKIM signatures).
    Sha1,
    /// SHA-256 (the required DKIM algorithm).
    Sha256,
}

impl HashAlg {
    /// Digest output length in bytes.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlg::Sha1 => 20,
            HashAlg::Sha256 => 32,
        }
    }

    /// Hash `data` with this algorithm.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Sha1 => sha1::sha1(data).to_vec(),
            HashAlg::Sha256 => sha256::sha256(data).to_vec(),
        }
    }
}
