//! The monitoring daemon: admission control and zero-downtime rolling
//! upgrade in front of [`MonitoringService`].
//!
//! [`crate::serve`] is a library you call in-process; this module is the
//! always-on deployment the paper assumes. A [`Daemon`] owns a service and
//! its write-ahead [`StateJournal`], takes [`crate::wire`] frames from
//! hostile byte streams, and adds the two things a wire boundary demands:
//!
//! - **Admission control** — a bounded in-flight queue with deterministic
//!   reject accounting ([`AdmissionStats`] satisfies an exact conservation
//!   law), optional per-tenant quotas, oversized-frame rejection *before*
//!   any allocation, and a batch-indexed deadline that force-degrades a
//!   hung shard (a chaos `Hang`) to the baseline instead of wedging the
//!   daemon.
//! - **Rolling upgrade** — a first-class state machine
//!   ([`DaemonPhase`]): drain admissions → journaled checkpoint →
//!   [`Frame::HandoffState`] → the successor restores and asserts
//!   verdict-checksum identity *before* taking traffic
//!   ([`Daemon::resume_from_handoff`]).
//!
//! # Determinism
//!
//! Every daemon decision — admission, rejection, hang deadlines, drain,
//! hand-off — is driven from batch indices and queue contents, never from
//! wall-clock time or thread scheduling. The service underneath already
//! guarantees serial == N-thread bit-identical verdicts, so the whole
//! drain → handoff → resume cycle preserves that: an upgraded stream's
//! verdict checksum equals a never-upgraded run's, at any thread count.

// Frames arrive from outside the process; the admission path is audited
// to the same "hostile bytes never panic" bar as the wire codec.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use crate::baseline::BaselineHmd;
use crate::checkpoint::{CheckpointError, RestoreError, ServiceCheckpoint, StateJournal};
use crate::exec::ExecConfig;
use crate::serve::MonitoringService;
use crate::supervisor::SupervisorConfig;
use crate::wire::{decode_frame, encode_frame, Frame, RejectCode, WireError};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;

/// Frame cap for decoding a hand-off, which carries a whole service
/// checkpoint and therefore dwarfs ordinary traffic frames.
pub const HANDOFF_FRAME_CAP: u32 = 1 << 26;

/// Admission-control bounds. Defaults are deliberate: a 1 MiB frame cap,
/// an 8192-query in-flight bound, no tenant quota, a 64-batch hang
/// deadline, and a checkpoint every 8 batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Whole-frame byte cap; larger frames are rejected before allocation.
    pub max_frame_bytes: u32,
    /// Bound on queries queued but not yet pumped.
    pub max_queued_queries: usize,
    /// Per-tenant bound on queued queries, if any.
    pub tenant_quota: Option<usize>,
    /// Batches a shard may stay non-serving before the daemon
    /// force-degrades it to the baseline.
    pub hang_deadline: u64,
    /// Journaled-checkpoint cadence in batches.
    pub checkpoint_cadence: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_frame_bytes: crate::wire::DEFAULT_MAX_FRAME_BYTES,
            max_queued_queries: 8192,
            tenant_quota: None,
            hang_deadline: 64,
            checkpoint_cadence: 8,
        }
    }
}

impl AdmissionConfig {
    /// Sets the whole-frame byte cap.
    pub fn with_max_frame_bytes(mut self, cap: u32) -> AdmissionConfig {
        self.max_frame_bytes = cap;
        self
    }

    /// Sets the in-flight query bound.
    pub fn with_max_queued_queries(mut self, cap: usize) -> AdmissionConfig {
        self.max_queued_queries = cap;
        self
    }

    /// Sets a per-tenant queued-query quota.
    pub fn with_tenant_quota(mut self, quota: usize) -> AdmissionConfig {
        self.tenant_quota = Some(quota);
        self
    }

    /// Sets the hang deadline in batches (clamped to at least 1).
    pub fn with_hang_deadline(mut self, batches: u64) -> AdmissionConfig {
        self.hang_deadline = batches.max(1);
        self
    }

    /// Sets the checkpoint cadence in batches (clamped to at least 1).
    pub fn with_checkpoint_cadence(mut self, batches: u64) -> AdmissionConfig {
        self.checkpoint_cadence = batches.max(1);
        self
    }
}

/// Deterministic admission accounting. Every offered frame lands in
/// exactly one bucket, so the conservation law
/// `offered_frames == admitted_frames + rejected_* + malformed_frames +
/// control_frames` holds exactly — overload is *accounted*, not guessed
/// at.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Frames offered to [`Daemon::handle_frame`].
    pub offered_frames: u64,
    /// Submissions admitted to the queue.
    pub admitted_frames: u64,
    /// Queries inside admitted submissions.
    pub admitted_queries: u64,
    /// Frames rejected for declaring more bytes than the cap.
    pub rejected_oversized: u64,
    /// Submissions rejected because the in-flight queue was full.
    pub rejected_backpressure: u64,
    /// Submissions rejected by a tenant quota.
    pub rejected_quota: u64,
    /// Submissions rejected while draining for an upgrade.
    pub rejected_draining: u64,
    /// Submissions rejected after shutdown.
    pub rejected_shutdown: u64,
    /// Frames that failed to decode (truncated, corrupt, foreign).
    pub malformed_frames: u64,
    /// Non-submission frames (snapshot, retarget, checkpoint, handoff,
    /// shutdown) — accounted so conservation stays exact.
    pub control_frames: u64,
    /// Hung shards force-degraded by the admission deadline.
    pub deadline_degrades: u64,
}

impl AdmissionStats {
    /// The conservation law: every offered frame is in exactly one bucket.
    pub fn is_conserved(&self) -> bool {
        self.offered_frames
            == self.admitted_frames
                + self.rejected_oversized
                + self.rejected_backpressure
                + self.rejected_quota
                + self.rejected_draining
                + self.rejected_shutdown
                + self.malformed_frames
                + self.control_frames
    }
}

/// Where the daemon is in its lifecycle / rolling-upgrade state machine.
///
/// ```text
/// Serving --Handoff--> Draining --queue empties--> Drained
///    |                                               |
///    |                                         --Handoff--> HandedOff
///    +--Shutdown--> ShutDown <--Shutdown-- (any phase)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonPhase {
    /// Admitting and serving traffic.
    Serving,
    /// An upgrade began: no new admissions, queued work still pumping.
    Draining,
    /// The queue is empty; the hand-off frame can be produced.
    Drained,
    /// The hand-off frame was produced; this instance is done.
    HandedOff,
    /// Shut down; every submission is rejected.
    ShutDown,
}

/// Why resuming from a hand-off frame failed. The successor refuses to
/// take traffic unless every check passes — a half-restored instance
/// never serves.
#[derive(Clone, Debug, PartialEq)]
pub enum HandoffError {
    /// The hand-off bytes were not a valid wire frame.
    Wire(WireError),
    /// The bytes decoded to a frame other than [`Frame::HandoffState`].
    NotHandoff,
    /// The embedded checkpoint failed to decode.
    Checkpoint(CheckpointError),
    /// The checkpoint decoded but the service could not be rebuilt.
    Restore(RestoreError),
    /// The restored service does not reproduce the predecessor's
    /// identity; taking traffic would fork the verdict stream.
    ChecksumMismatch {
        /// Identity the hand-off frame promised.
        expected: u64,
        /// Identity the restored service computed.
        got: u64,
    },
    /// Writing the successor's initial checkpoint failed.
    Io(String),
}

impl fmt::Display for HandoffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandoffError::Wire(e) => write!(f, "hand-off frame: {e}"),
            HandoffError::NotHandoff => write!(f, "frame is not a hand-off"),
            HandoffError::Checkpoint(e) => write!(f, "hand-off checkpoint: {e}"),
            HandoffError::Restore(e) => write!(f, "hand-off restore: {e}"),
            HandoffError::ChecksumMismatch { expected, got } => write!(
                f,
                "restored verdict checksum {got:#018x} does not match hand-off {expected:#018x}"
            ),
            HandoffError::Io(e) => write!(f, "hand-off journal: {e}"),
        }
    }
}

impl std::error::Error for HandoffError {}

impl From<WireError> for HandoffError {
    fn from(e: WireError) -> HandoffError {
        HandoffError::Wire(e)
    }
}

/// A submission admitted to the queue but not yet pumped.
struct PendingBatch {
    tenant: u32,
    features: Vec<Vec<f32>>,
}

/// The wire-facing monitoring daemon: a [`MonitoringService`] behind
/// admission control, journaled checkpoints, and the rolling-upgrade
/// state machine. See the module docs for the architecture.
pub struct Daemon {
    service: MonitoringService,
    journal: StateJournal,
    config: AdmissionConfig,
    stats: AdmissionStats,
    queue: VecDeque<PendingBatch>,
    queued_queries: usize,
    tenant_queued: BTreeMap<u32, usize>,
    phase: DaemonPhase,
    /// Batch index at which each currently non-serving shard was first
    /// seen down, for the hang deadline.
    down_since: BTreeMap<usize, u64>,
}

impl Daemon {
    /// Puts `service` behind the daemon, journaling (and syncing) an
    /// initial checkpoint so a crash before the first cadence point still
    /// recovers.
    pub fn new(
        service: MonitoringService,
        mut journal: StateJournal,
        config: AdmissionConfig,
    ) -> io::Result<Daemon> {
        journal.append_checkpoint(&service.checkpoint())?;
        Ok(Daemon {
            service,
            journal,
            config,
            stats: AdmissionStats::default(),
            queue: VecDeque::new(),
            queued_queries: 0,
            tenant_queued: BTreeMap::new(),
            phase: DaemonPhase::Serving,
            down_since: BTreeMap::new(),
        })
    }

    /// Handles one wire frame and returns the encoded response frame.
    ///
    /// Submissions go through admission control and are answered with
    /// `Ack` (queued; verdicts arrive when [`Daemon::pump`] runs) or
    /// `Reject`. Control frames are answered synchronously. An
    /// over-the-cap frame is answered `Reject(Oversized)` *without
    /// decoding its payload*.
    ///
    /// # Errors
    ///
    /// A frame that fails to decode (other than by size) is unanswerable
    /// — there is no tenant to address — so the decode error is returned
    /// for the transport to handle. Never panics, for any input.
    pub fn handle_frame(&mut self, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        self.stats.offered_frames += 1;
        let frame = match decode_frame(bytes, self.config.max_frame_bytes) {
            Ok((frame, _)) => frame,
            Err(WireError::Oversized { declared, cap }) => {
                self.stats.rejected_oversized += 1;
                return Ok(encode_frame(&Frame::Reject {
                    code: RejectCode::Oversized,
                    queued: declared,
                    cap,
                }));
            }
            Err(e) => {
                self.stats.malformed_frames += 1;
                return Err(e);
            }
        };
        let reply = match frame {
            Frame::SubmitBatch { tenant, queries } => self.admit(tenant, queries),
            Frame::Snapshot => {
                self.stats.control_frames += 1;
                Frame::SnapshotText {
                    json: self.service.snapshot().to_json(),
                }
            }
            Frame::Retarget { target_error_rate } => {
                self.stats.control_frames += 1;
                match self.service.retarget(target_error_rate) {
                    Ok(()) => Frame::Ack,
                    Err(e) => Frame::ErrorReply {
                        message: e.to_string(),
                    },
                }
            }
            Frame::Checkpoint => {
                self.stats.control_frames += 1;
                let checkpoint = self.service.checkpoint();
                match self.journal.append_checkpoint(&checkpoint) {
                    Ok(()) => Frame::CheckpointBytes {
                        bytes: checkpoint.encode(),
                    },
                    Err(e) => Frame::ErrorReply {
                        message: e.to_string(),
                    },
                }
            }
            Frame::Handoff => {
                self.stats.control_frames += 1;
                if self.phase == DaemonPhase::Serving {
                    self.begin_drain();
                }
                if self.queue.is_empty() {
                    match self.handoff() {
                        Ok(bytes) => return Ok(bytes),
                        Err(e) => Frame::ErrorReply {
                            message: e.to_string(),
                        },
                    }
                } else {
                    // Drain in progress: the caller pumps and asks again.
                    Frame::Reject {
                        code: RejectCode::Draining,
                        queued: self.queued_queries as u64,
                        cap: self.config.max_queued_queries as u64,
                    }
                }
            }
            Frame::Shutdown => {
                self.stats.control_frames += 1;
                self.phase = DaemonPhase::ShutDown;
                Frame::Ack
            }
            // Response frames offered as requests decode fine but cannot
            // be served; answering typed beats panicking on a confused
            // (or probing) peer.
            other => {
                self.stats.control_frames += 1;
                Frame::ErrorReply {
                    message: format!("frame kind is not a request: {other:?}"),
                }
            }
        };
        Ok(encode_frame(&reply))
    }

    /// The in-process submission path, used by tests and embedders that
    /// skip the wire: same admission control, typed errors instead of
    /// reply frames.
    ///
    /// # Errors
    ///
    /// [`WireError::Backpressure`] when the queue, a tenant quota, or the
    /// daemon's phase refuses the submission.
    pub fn try_submit(&mut self, tenant: u32, features: Vec<Vec<f32>>) -> Result<(), WireError> {
        self.stats.offered_frames += 1;
        match self.admit(tenant, features) {
            Frame::Ack => Ok(()),
            Frame::Reject { queued, cap, .. } => Err(WireError::Backpressure { queued, cap }),
            // admit() only returns Ack or Reject; a typed error keeps the
            // path panic-free without an unreachable!.
            _ => Err(WireError::Corrupted(
                "admission returned non-ack".to_string(),
            )),
        }
    }

    /// Admission control for one submission. Exactly one stats bucket is
    /// incremented.
    fn admit(&mut self, tenant: u32, queries: Vec<Vec<f32>>) -> Frame {
        let n = queries.len();
        match self.phase {
            DaemonPhase::Serving => {}
            DaemonPhase::Draining | DaemonPhase::Drained | DaemonPhase::HandedOff => {
                self.stats.rejected_draining += 1;
                return Frame::Reject {
                    code: RejectCode::Draining,
                    queued: self.queued_queries as u64,
                    cap: self.config.max_queued_queries as u64,
                };
            }
            DaemonPhase::ShutDown => {
                self.stats.rejected_shutdown += 1;
                return Frame::Reject {
                    code: RejectCode::ShuttingDown,
                    queued: self.queued_queries as u64,
                    cap: self.config.max_queued_queries as u64,
                };
            }
        }
        // Quota before backpressure: "your quota is full" is true no
        // matter what the rest of the fleet queued, so the more precise
        // rejection wins when both bounds are violated.
        if let Some(quota) = self.config.tenant_quota {
            let used = self.tenant_queued.get(&tenant).copied().unwrap_or(0);
            if used.saturating_add(n) > quota {
                self.stats.rejected_quota += 1;
                return Frame::Reject {
                    code: RejectCode::TenantQuota,
                    queued: used as u64,
                    cap: quota as u64,
                };
            }
        }
        if self.queued_queries.saturating_add(n) > self.config.max_queued_queries {
            self.stats.rejected_backpressure += 1;
            return Frame::Reject {
                code: RejectCode::Backpressure,
                queued: self.queued_queries as u64,
                cap: self.config.max_queued_queries as u64,
            };
        }
        self.stats.admitted_frames += 1;
        self.stats.admitted_queries += n as u64;
        self.queued_queries += n;
        *self.tenant_queued.entry(tenant).or_insert(0) += n;
        self.queue.push_back(PendingBatch {
            tenant,
            features: queries,
        });
        Frame::Ack
    }

    /// Pumps up to `max_batches` queued submissions through the service,
    /// returning one encoded [`Frame::Verdicts`] per batch. The hang
    /// deadline is enforced from batch indices after every batch.
    ///
    /// Durability is a group commit over this one call: each drained
    /// batch's commit, and a checkpoint at the configured cadence, are
    /// staged in the journal in order, and the call ends with one write
    /// and one `fdatasync` of the whole group *before* it returns any
    /// verdict. A crash therefore loses at most the batches of one `pump`
    /// call, and none of their verdicts had left the daemon; replay
    /// reproduces them bit-identically. `pump(1)` syncs after every
    /// batch; a pump that drains nothing writes nothing.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the group's write or sync. No verdict of
    /// the call is returned then, although the service has advanced.
    pub fn pump(&mut self, max_batches: usize) -> io::Result<Vec<Vec<u8>>> {
        let mut replies = Vec::new();
        for _ in 0..max_batches {
            let Some(batch) = self.queue.pop_front() else {
                break;
            };
            let n = batch.features.len();
            self.queued_queries = self.queued_queries.saturating_sub(n);
            if let Some(used) = self.tenant_queued.get_mut(&batch.tenant) {
                *used = used.saturating_sub(n);
                if *used == 0 {
                    self.tenant_queued.remove(&batch.tenant);
                }
            }
            let verdicts = self
                .service
                .process_feature_batch_staged(&batch.features, &mut self.journal);
            self.enforce_hang_deadline();
            if self
                .service
                .batches()
                .is_multiple_of(self.config.checkpoint_cadence.max(1))
            {
                self.journal.stage_checkpoint(&self.service.checkpoint());
            }
            replies.push(encode_frame(&Frame::Verdicts {
                tenant: batch.tenant,
                verdicts,
            }));
        }
        self.journal.sync()?;
        if self.phase == DaemonPhase::Draining && self.queue.is_empty() {
            self.phase = DaemonPhase::Drained;
        }
        Ok(replies)
    }

    /// Pumps until the queue is empty.
    pub fn pump_all(&mut self) -> io::Result<Vec<Vec<u8>>> {
        self.pump(usize::MAX)
    }

    /// The hang deadline: a shard that has not served for
    /// `hang_deadline` consecutive batches is force-degraded to the
    /// baseline. Driven purely from batch indices, so the decision is
    /// identical at any thread count.
    fn enforce_hang_deadline(&mut self) {
        let batch = self.service.batches();
        let deadline = self.config.hang_deadline.max(1);
        let healths = self.service.shard_healths();
        for (id, health) in healths.iter().enumerate() {
            if health.is_serving() {
                self.down_since.remove(&id);
                continue;
            }
            let since = *self.down_since.entry(id).or_insert(batch);
            if batch.saturating_sub(since) >= deadline
                && self
                    .service
                    .force_degrade_shard(id, "hung past the admission deadline")
            {
                self.stats.deadline_degrades += 1;
                self.down_since.remove(&id);
            }
        }
    }

    /// Starts draining: no new admissions; queued work still pumps.
    pub fn begin_drain(&mut self) {
        if self.phase == DaemonPhase::Serving {
            self.phase = DaemonPhase::Draining;
        }
    }

    /// Produces the hand-off frame: final journaled checkpoint plus the
    /// verdict-checksum identity the successor must reproduce. The queue
    /// must already be drained — committed queries are never abandoned.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] if queued work remains or the final checkpoint
    /// cannot be journaled.
    pub fn handoff(&mut self) -> io::Result<Vec<u8>> {
        if !self.queue.is_empty() {
            return Err(io::Error::other(format!(
                "handoff with {} queries still queued",
                self.queued_queries
            )));
        }
        let checkpoint = self.service.checkpoint();
        self.journal.append_checkpoint(&checkpoint)?;
        self.phase = DaemonPhase::HandedOff;
        Ok(encode_frame(&Frame::HandoffState {
            checkpoint: checkpoint.encode(),
            verdict_checksum: self.service.verdict_checksum(),
            served: self.service.served(),
            batches: self.service.batches(),
        }))
    }

    /// The successor's half of the rolling upgrade: decode the hand-off
    /// frame, restore the service from the embedded checkpoint, and
    /// assert verdict-checksum identity — only then does the new daemon
    /// exist to take traffic. `journal` is the *successor's* journal; its
    /// initial checkpoint is appended before returning.
    ///
    /// # Errors
    ///
    /// A typed [`HandoffError`] for every way the hand-off can be wrong;
    /// hostile or stale hand-off bytes never panic and never produce a
    /// serving daemon.
    pub fn resume_from_handoff(
        handoff: &[u8],
        baseline: &BaselineHmd,
        supervision: Option<SupervisorConfig>,
        exec: ExecConfig,
        journal: StateJournal,
        config: AdmissionConfig,
    ) -> Result<Daemon, HandoffError> {
        let (frame, _) = decode_frame(handoff, HANDOFF_FRAME_CAP)?;
        let Frame::HandoffState {
            checkpoint,
            verdict_checksum,
            served,
            batches,
        } = frame
        else {
            return Err(HandoffError::NotHandoff);
        };
        let checkpoint =
            ServiceCheckpoint::decode(&checkpoint).map_err(HandoffError::Checkpoint)?;
        let service = MonitoringService::restore(baseline, supervision, &checkpoint, exec)
            .map_err(HandoffError::Restore)?;
        if service.verdict_checksum() != verdict_checksum
            || service.served() != served
            || service.batches() != batches
        {
            return Err(HandoffError::ChecksumMismatch {
                expected: verdict_checksum,
                got: service.verdict_checksum(),
            });
        }
        let mut daemon =
            Daemon::new(service, journal, config).map_err(|e| HandoffError::Io(e.to_string()))?;
        daemon.phase = DaemonPhase::Serving;
        Ok(daemon)
    }

    /// Admission accounting so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> DaemonPhase {
        self.phase
    }

    /// Queries queued but not yet pumped.
    pub fn queued_queries(&self) -> usize {
        self.queued_queries
    }

    /// The service behind the daemon.
    pub fn service(&self) -> &MonitoringService {
        &self.service
    }

    /// The running verdict-checksum identity (see
    /// [`MonitoringService::verdict_checksum`]).
    pub fn verdict_checksum(&self) -> u64 {
        self.service.verdict_checksum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::checkpoint::{unique_scratch, BatchCommit};
    use crate::serve::ServeConfig;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_volt::calibration::{Calibrator, DeviceProfile};
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;

    fn setup() -> (Dataset, BaselineHmd, MonitoringService) {
        let dataset = Dataset::generate(&DatasetConfig::small(80), 31);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        let service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2).with_seed(5))
                .expect("valid config");
        (dataset, baseline, service)
    }

    fn feature_batch(dataset: &Dataset, baseline: &BaselineHmd, n: usize) -> Vec<Vec<f32>> {
        let spec = baseline.spec();
        (0..n)
            .map(|i| spec.extract(dataset.trace(i % dataset.len())))
            .collect()
    }

    #[test]
    fn admission_accounting_is_conserved_under_overload() {
        let (dataset, baseline, service) = setup();
        let batch = feature_batch(&dataset, &baseline, 4);
        let config = AdmissionConfig::default()
            .with_max_queued_queries(10)
            .with_tenant_quota(8);
        let journal = StateJournal::create(unique_scratch("daemon-test")).expect("journal");
        let mut daemon = Daemon::new(service, journal, config).expect("daemon");

        // Tenant 1 admits twice (8 queries), then hits its quota.
        for _ in 0..2 {
            let reply = daemon
                .handle_frame(&encode_frame(&Frame::SubmitBatch {
                    tenant: 1,
                    queries: batch.clone(),
                }))
                .expect("handled");
            let (frame, _) = decode_frame(&reply, HANDOFF_FRAME_CAP).expect("reply");
            assert_eq!(frame, Frame::Ack);
        }
        let reply = daemon
            .handle_frame(&encode_frame(&Frame::SubmitBatch {
                tenant: 1,
                queries: batch.clone(),
            }))
            .expect("handled");
        let (frame, _) = decode_frame(&reply, HANDOFF_FRAME_CAP).expect("reply");
        assert_eq!(
            frame,
            Frame::Reject {
                code: RejectCode::TenantQuota,
                queued: 8,
                cap: 8,
            }
        );
        // Tenant 2 hits the global bound (8 queued + 4 > 10).
        let reply = daemon
            .handle_frame(&encode_frame(&Frame::SubmitBatch {
                tenant: 2,
                queries: batch.clone(),
            }))
            .expect("handled");
        let (frame, _) = decode_frame(&reply, HANDOFF_FRAME_CAP).expect("reply");
        assert_eq!(
            frame,
            Frame::Reject {
                code: RejectCode::Backpressure,
                queued: 8,
                cap: 10,
            }
        );
        // Malformed bytes are counted and fail typed.
        assert!(daemon.handle_frame(b"SHWP garbage").is_err());
        // Oversized is rejected before decode.
        let mut daemon2_cfg = daemon.config;
        daemon2_cfg.max_frame_bytes = 64;
        daemon.config = daemon2_cfg;
        let big = encode_frame(&Frame::SubmitBatch {
            tenant: 3,
            queries: vec![vec![0.0; 100]],
        });
        let reply = daemon.handle_frame(&big).expect("handled");
        let (frame, _) = decode_frame(&reply, HANDOFF_FRAME_CAP).expect("reply");
        assert!(matches!(
            frame,
            Frame::Reject {
                code: RejectCode::Oversized,
                ..
            }
        ));

        let stats = daemon.stats();
        assert_eq!(stats.offered_frames, 6);
        assert_eq!(stats.admitted_frames, 2);
        assert_eq!(stats.admitted_queries, 8);
        assert_eq!(stats.rejected_quota, 1);
        assert_eq!(stats.rejected_backpressure, 1);
        assert_eq!(stats.malformed_frames, 1);
        assert_eq!(stats.rejected_oversized, 1);
        assert!(stats.is_conserved());

        // Pumping drains the queue and frees the quota.
        let replies = daemon.pump_all().expect("pumps");
        assert_eq!(replies.len(), 2);
        assert_eq!(daemon.queued_queries(), 0);
        daemon.config.max_frame_bytes = crate::wire::DEFAULT_MAX_FRAME_BYTES;
        assert!(daemon.try_submit(1, batch).is_ok());
        let _ = std::fs::remove_file(daemon.journal.path());
    }

    #[test]
    fn drain_handoff_resume_preserves_the_verdict_stream() {
        let (dataset, baseline, service) = setup();
        let batch = feature_batch(&dataset, &baseline, 6);
        let journal_a = StateJournal::create(unique_scratch("daemon-test")).expect("journal");
        let mut old = Daemon::new(service, journal_a, AdmissionConfig::default()).expect("daemon");

        // Reference: the same stream on a never-upgraded service.
        let (_, _, mut reference) = setup();
        for _ in 0..6 {
            reference.process_feature_batch(&batch);
        }

        for _ in 0..3 {
            old.try_submit(0, batch.clone()).expect("admitted");
        }
        old.pump_all().expect("pumps");

        // Handoff while work is queued: rejected as draining, then fine.
        old.try_submit(0, batch.clone()).expect("admitted");
        let reply = old
            .handle_frame(&encode_frame(&Frame::Handoff))
            .expect("handled");
        let (frame, _) = decode_frame(&reply, HANDOFF_FRAME_CAP).expect("reply");
        assert!(matches!(
            frame,
            Frame::Reject {
                code: RejectCode::Draining,
                ..
            }
        ));
        assert_eq!(old.phase(), DaemonPhase::Draining);
        assert!(
            old.try_submit(0, batch.clone()).is_err(),
            "draining admits nothing"
        );
        old.pump_all().expect("pumps");
        assert_eq!(old.phase(), DaemonPhase::Drained);

        let handoff = old
            .handle_frame(&encode_frame(&Frame::Handoff))
            .expect("handled");
        let (frame, _) = decode_frame(&handoff, HANDOFF_FRAME_CAP).expect("handoff frame");
        assert!(matches!(frame, Frame::HandoffState { .. }));
        assert_eq!(old.phase(), DaemonPhase::HandedOff);

        let journal_b = StateJournal::create(unique_scratch("daemon-test")).expect("journal");
        let mut new = Daemon::resume_from_handoff(
            &handoff,
            &baseline,
            None,
            ExecConfig::serial(),
            journal_b,
            AdmissionConfig::default(),
        )
        .expect("resumes");
        assert_eq!(new.phase(), DaemonPhase::Serving);
        assert_eq!(new.verdict_checksum(), old.verdict_checksum());

        // The successor continues the stream exactly where the reference is.
        new.try_submit(0, batch.clone()).expect("admitted");
        new.try_submit(0, batch).expect("admitted");
        new.pump_all().expect("pumps");
        assert_eq!(new.verdict_checksum(), reference.verdict_checksum());
        assert_eq!(new.service().served(), reference.served());
        let _ = std::fs::remove_file(new.journal.path());
    }

    #[test]
    fn hostile_handoff_bytes_never_produce_a_serving_daemon() {
        let (_, baseline, _) = setup();
        let resume = |bytes: &[u8]| {
            let journal = StateJournal::create(unique_scratch("daemon-test")).expect("journal");
            let path = journal.path().to_path_buf();
            let out = Daemon::resume_from_handoff(
                bytes,
                &baseline,
                None,
                ExecConfig::serial(),
                journal,
                AdmissionConfig::default(),
            );
            let _ = std::fs::remove_file(path);
            out
        };
        assert!(matches!(
            resume(b"not a frame"),
            Err(HandoffError::Wire(WireError::BadMagic))
        ));
        assert_eq!(
            resume(&encode_frame(&Frame::Ack)).err(),
            Some(HandoffError::NotHandoff)
        );
        let bad_checkpoint = encode_frame(&Frame::HandoffState {
            checkpoint: vec![0; 16],
            verdict_checksum: 1,
            served: 1,
            batches: 1,
        });
        assert!(matches!(
            resume(&bad_checkpoint),
            Err(HandoffError::Checkpoint(_))
        ));
    }

    #[test]
    fn group_commit_syncs_once_per_pump_and_once_per_durable_call() {
        let (dataset, baseline, service) = setup();
        let batch = feature_batch(&dataset, &baseline, 4);
        let config = AdmissionConfig::default().with_checkpoint_cadence(3);
        let journal = StateJournal::create(unique_scratch("daemon-test")).expect("journal");
        let path = journal.path().to_path_buf();
        let on_disk = || std::fs::metadata(&path).expect("journal exists").len();

        // Daemon::new syncs its initial checkpoint before returning.
        let mut daemon = Daemon::new(service, journal, config).expect("daemon");
        assert_eq!(daemon.journal.syncs(), 1);
        assert!(on_disk() > 0);

        // A pump that drains nothing writes and syncs nothing.
        assert!(daemon.pump_all().expect("pumps").is_empty());
        assert_eq!(daemon.journal.syncs(), 1);

        // Seven batches across two checkpoint cadence points: one sync,
        // and every commit is on disk when the verdicts come back.
        for _ in 0..7 {
            daemon.try_submit(0, batch.clone()).expect("admitted");
        }
        let before = on_disk();
        assert_eq!(daemon.pump_all().expect("pumps").len(), 7);
        assert_eq!(daemon.journal.syncs(), 2);
        assert!(on_disk() > before);
        let recovered = StateJournal::recover(&path).expect("recovers");
        assert_eq!(recovered.last_committed_batch(), Some(6));
        assert_eq!(recovered.checkpoint.map(|c| c.batches), Some(6));

        // pump(1) syncs after its one batch.
        for _ in 0..2 {
            daemon.try_submit(0, batch.clone()).expect("admitted");
        }
        assert_eq!(daemon.pump(1).expect("pumps").len(), 1);
        assert_eq!(daemon.journal.syncs(), 3);
        let recovered = StateJournal::recover(&path).expect("recovers");
        assert_eq!(recovered.last_committed_batch(), Some(7));
        assert_eq!(daemon.pump(1).expect("pumps").len(), 1);
        assert_eq!(daemon.journal.syncs(), 4);

        // Frame::Checkpoint syncs its checkpoint before replying.
        let before = on_disk();
        let reply = daemon
            .handle_frame(&encode_frame(&Frame::Checkpoint))
            .expect("handled");
        let (frame, _) = decode_frame(&reply, HANDOFF_FRAME_CAP).expect("reply");
        assert!(matches!(frame, Frame::CheckpointBytes { .. }));
        assert_eq!(daemon.journal.syncs(), 5);
        assert!(on_disk() > before);

        // process_feature_batch_journaled and the public appends each sync.
        daemon
            .service
            .process_feature_batch_journaled(&batch, &mut daemon.journal)
            .expect("commits");
        assert_eq!(daemon.journal.syncs(), 6);
        let recovered = StateJournal::recover(&path).expect("recovers");
        assert_eq!(recovered.last_committed_batch(), Some(9));
        daemon
            .journal
            .append_commit(BatchCommit {
                batch: 10,
                stream_pos: 44,
                checksum: 7,
            })
            .expect("appends");
        assert_eq!(daemon.journal.syncs(), 7);
        daemon
            .journal
            .append_checkpoint(&daemon.service.checkpoint())
            .expect("appends");
        assert_eq!(daemon.journal.syncs(), 8);

        // The hand-off syncs its final checkpoint before returning.
        let before = on_disk();
        daemon.handoff().expect("hands off");
        assert_eq!(daemon.journal.syncs(), 9);
        assert!(on_disk() > before);
        let _ = std::fs::remove_file(&path);
    }
}
