//! # mailval-mta
//!
//! The simulated Internet mail-server population the measurement
//! apparatus probes — the substitute for the ~30k real MTAs of the paper
//! (see DESIGN.md for the substitution argument):
//!
//! * [`profile`] — per-MTA behavior profiles. Every knob corresponds to
//!   a behavior the paper measured (§6–§7); the *prevalences* are the
//!   seeded calibration constants, each cited to its paper section in
//!   [`profile::calibration`].
//! * [`resolver`] — the MTA-side recursive-resolver actor: wraps the
//!   sans-IO `mailval-dns` resolver core and decides v4/v6 upstream
//!   routing (the IPv6-only test hinges on this).
//! * [`actor`] — the receiving-MTA actor: an SMTP server session wired
//!   to SPF/DKIM/DMARC evaluators through the resolver, with the
//!   profile's deviations applied. Pure message-in/message-out, driven
//!   by the `mailval-measure` event loop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod profile;
pub mod resolver;

pub use actor::{ConnContext, MtaActor, MtaInput, MtaOutput};
pub use profile::{MtaProfile, SpfTrigger};
pub use resolver::{ResolverActor, V6_ONLY_LABEL};
