//! # mailval-simnet
//!
//! A small, deterministic discrete-event simulation substrate:
//!
//! * [`sim`] — a virtual-time event queue generic over the embedder's
//!   event type. Single-threaded, deterministic, million-events-per-
//!   second cheap.
//! * [`rng`] — a self-contained xoshiro256** PRNG plus the samplers the
//!   population models need (Bernoulli, weighted choice, Zipf, shuffle).
//!   No dependency on the `rand` crate: reproducibility of the simulated
//!   Internet across toolchain updates matters more than API comfort.
//! * [`net`] — a latency model assigning per-pair RTTs between simulated
//!   endpoints, with optional jitter and loss, used to time DNS and SMTP
//!   exchanges (the serial-vs-parallel inference of §7.1 of the paper is
//!   all about these RTT sums).
//! * [`shard`] — a scoped-thread shard runner: workloads that partition
//!   into independent shards run one simulator per shard in parallel and
//!   merge outputs deterministically afterwards.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   deciding per-datagram drop / duplicate / reorder / truncate and
//!   per-connection resets and stalls, as pure functions of stable
//!   identifiers so fates are byte-identical across shard counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod net;
pub mod rng;
pub mod shard;
pub mod sim;

pub use fault::{
    ConnFault, DatagramFate, DnsMutation, FaultConfig, FaultCursor, FaultPlan, FaultStats,
    IoConfig, IoPlan, MalformedClass, MalformedStats, PayloadConfig, PayloadPlan, SmtpMutation,
    WriteFault,
};
pub use net::LatencyModel;
pub use rng::{SimRng, WeightTable};
pub use shard::{run_shards_catch, ShardTiming};
pub use sim::Simulator;
