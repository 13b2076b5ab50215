//! Crash to ready: recover the journal, restore the service, replay the
//! committed tail, and prove the result equals the live daemon.

use crate::report::process_cpu_ns;
use crate::setup::{exec, supervision, Fixture};
use crate::workload::Spec;
use std::path::Path;
use std::time::Instant;
use stochastic_hmd::{MonitoringService, StateJournal};

/// One recovery, step by step.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    /// `StateJournal::recover`, nanoseconds.
    pub recover_ns: u64,
    /// `MonitoringService::restore` plus re-installing the anomaly
    /// scorer, nanoseconds.
    pub restore_ns: u64,
    /// Re-serving the batches committed after the checkpoint,
    /// nanoseconds.
    pub replay_ns: u64,
    /// Batches replayed.
    pub replayed: u64,
    /// Every replayed batch reproduced its commit's checksum and stream
    /// position.
    pub commits_match: bool,
    /// Process CPU time of the whole recovery, nanoseconds.
    pub cpu_ns: u64,
    /// Verdict checksum once ready.
    pub checksum: u64,
}

impl Recovery {
    /// Crash to ready, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.recover_ns + self.restore_ns + self.replay_ns
    }
}

/// Recovers the journal at `path` as if the daemon had been killed after
/// its last append. Batch `b` of a pass is frame `b` of the stream, so
/// the tail is replayed from the client's own frames.
///
/// # Panics
///
/// Panics if the journal cannot be read or holds no checkpoint.
pub fn recover(fixture: &Fixture, spec: &Spec, seed: u64, workers: usize, path: &Path) -> Recovery {
    let cpu = process_cpu_ns();
    let t = Instant::now();
    let journal = StateJournal::recover(path).expect("the journal reads");
    let recover_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let checkpoint = journal.checkpoint.as_ref().expect("a checkpoint survived");
    let mut service = MonitoringService::restore(
        &fixture.baseline,
        Some(supervision(spec, seed)),
        checkpoint,
        exec(workers),
    )
    .expect("the checkpoint restores");
    if spec.requery.is_some() {
        service
            .install_anomaly_scorer(fixture.scorer.clone())
            .expect("the scorer was fitted on this baseline's features");
    }
    let restore_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let mut commits_match = true;
    for commit in &journal.commits {
        service.process_feature_batch(fixture.stream.queries(commit.batch as usize));
        commits_match &=
            commit.checksum == service.verdict_checksum() && commit.stream_pos == service.served();
    }
    let replay_ns = t.elapsed().as_nanos() as u64;

    Recovery {
        recover_ns,
        restore_ns,
        replay_ns,
        replayed: journal.commits.len() as u64,
        commits_match,
        cpu_ns: process_cpu_ns() - cpu,
        checksum: service.verdict_checksum(),
    }
}
