//! End-to-end benchmark of the durable daemon path.
//!
//! One process, one client thread: the client encodes `SubmitBatch`
//! frames, hands them to the shipped [`stochastic_hmd::Daemon`], pumps it,
//! and decodes the verdicts, while the daemon journals every batch with
//! a flush and checkpoints every 8 batches. See `NOTES.md` for the
//! workloads, the metrics and why they are measured the way they are.

pub mod drive;
pub mod host;
pub mod ladder;
pub mod recovery;
pub mod report;
pub mod run;
pub mod setup;
pub mod trace;
pub mod workload;
