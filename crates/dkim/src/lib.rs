//! # mailval-dkim
//!
//! DomainKeys Identified Mail (RFC 6376), from scratch:
//!
//! * [`canon`] — `simple` and `relaxed` canonicalization for headers and
//!   bodies (§3.4).
//! * [`taglist`] — the `tag=value` list syntax shared by signature
//!   headers and key records (§3.2).
//! * [`signature`] — the `DKIM-Signature` header (§3.5): parse,
//!   serialize, header selection semantics.
//! * [`key`] — the DNS key record published at
//!   `<selector>._domainkey.<domain>` (§3.6.1).
//! * [`sign`] — the signing pipeline: body hash, data hash, RSA.
//! * [`verify`] — a **resumable verifier**: it yields the key-record DNS
//!   question and is resumed with the answer, so the embedding MTA can
//!   run it through whatever resolver it has. The DNS query it emits is
//!   precisely what the paper's apparatus observes to classify an MTA as
//!   DKIM-validating (§6).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod canon;
pub mod key;
#[cfg(test)]
mod reference;
pub mod sign;
pub mod signature;
pub mod taglist;
pub mod verify;

pub use canon::Canonicalization;
pub use key::DkimKeyRecord;
pub use sign::{sign_message, SignConfig};
pub use signature::DkimSignature;
pub use verify::{DkimResult, DkimVerifier, VerifyStep};
