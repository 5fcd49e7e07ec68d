//! The measurement subcommands of `mailval-artifacts`: the campaign
//! sweep harness behind `bench` ([`sweep`]: one sweep type, one row
//! schema, one results file, one gate), the parser fuzz harness behind
//! `fuzz` ([`fuzz`]) and the trace exporter behind `trace` ([`trace`]).
//! All report progress through the unified `[mailval]` channel.

pub mod fuzz;
pub mod sweep;
pub mod trace;
