//! # mailval-smtp
//!
//! A from-scratch SMTP implementation (RFC 5321) sized for the paper's
//! methodology:
//!
//! * [`command`] — command grammar (EHLO/HELO, MAIL, RCPT, DATA, RSET,
//!   NOOP, QUIT, VRFY) and mailbox/path parsing.
//! * [`reply`] — reply codes and multiline reply parsing/serialization.
//! * [`line`] — CRLF line framing of the text either side sends.
//! * [`mail`] — the Internet Message Format model (RFC 5322): ordered
//!   headers, body, folding/unfolding, dot-stuffing for DATA.
//! * [`server`] — a sans-IO receiving-MTA session state machine with
//!   *suspendable policy decisions*, so the embedding MTA can run SPF /
//!   DKIM / DMARC validation (which needs DNS round trips) in the middle
//!   of the dialogue — exactly the behavior the paper times (§6.2).
//! * [`client`] — a sans-IO sending-client state machine supporting both
//!   the legitimate-delivery mode (NotifyEmail) and the probe mode of
//!   §4.6: 15-second pauses before MAIL/RCPT/DATA, recipient-username
//!   fallback (michael → john.smith → support → postmaster), and
//!   disconnecting after the DATA reply so no message can be delivered.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod command;
pub mod line;
pub mod mail;
#[cfg(test)]
mod reference;
pub mod reply;
pub mod server;

pub use command::{Command, EmailAddress};
pub use mail::MailMessage;
pub use reply::Reply;
