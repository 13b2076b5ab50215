//! The client loop: one thread drives the shipped `Daemon` over the wire
//! codec, round by round, and checks every reply.

use crate::host::HostSpeed;
use crate::report::process_cpu_ns;
use crate::setup::{deploy_daemon, Fixture};
use crate::trace::{span, Tracer};
use crate::workload::{Kind, Spec, WARMUP_ROUNDS};
use std::path::{Path, PathBuf};
use std::time::Instant;
use stochastic_hmd::{
    decode_frame, encode_frame, Daemon, Frame, QueryDisposition, HANDOFF_FRAME_CAP,
};

/// Band-hit queries kept for timing the anomaly scorer.
const BAND_HIT_SAMPLE: usize = 4096;

/// Per-query outcome counts of a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries offered in submit frames.
    pub offered: u64,
    /// Verdicts with disposition `Served`.
    pub served: u64,
    /// Benign queries served / labelled benign.
    pub benign: u64,
    /// Benign queries labelled benign.
    pub benign_ok: u64,
    /// Natural malware queries served.
    pub malware: u64,
    /// Natural malware queries flagged.
    pub malware_ok: u64,
    /// Evasive queries served.
    pub evasive: u64,
    /// Evasive queries flagged.
    pub evasive_flagged: u64,
    /// Poison queries offered.
    pub poison: u64,
    /// Queries without their expected disposition: well-formed but not
    /// served, poison but served, refused by admission, or missing from
    /// the reply.
    pub wrong: u64,
    /// Submit frames refused by admission.
    pub refused_frames: u64,
    /// Replies that failed to decode, had the wrong kind or tenant, or
    /// did not carry one verdict per query.
    pub bad_replies: u64,
}

impl Tally {
    /// Correct verdicts over benign and natural malware served.
    pub fn accuracy(&self) -> f64 {
        (self.benign_ok + self.malware_ok) as f64 / (self.benign + self.malware).max(1) as f64
    }

    /// Evasive queries flagged over evasive queries served.
    pub fn evasive_flag_rate(&self) -> f64 {
        self.evasive_flagged as f64 / self.evasive.max(1) as f64
    }

    /// Queries without their expected disposition over queries offered.
    pub fn error_ratio(&self) -> f64 {
        self.wrong as f64 / self.offered.max(1) as f64
    }
}

/// What one pass measured and left behind.
pub struct Pass {
    /// The daemon after the last round (kept for snapshots and probes).
    pub daemon: Daemon,
    /// Its journal file.
    pub journal: PathBuf,
    /// `(frames submitted, verdict checksum)` after every round.
    pub checksums: Vec<(usize, u64)>,
    /// Per-frame round trips of the timed rounds, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the timed rounds, nanoseconds.
    pub timed_ns: u64,
    /// Per-frame process CPU time over the same span as `latencies_ns`.
    pub cpu_latencies_ns: Vec<u64>,
    /// Process CPU time of the timed rounds, nanoseconds.
    pub timed_cpu_ns: u64,
    /// Verdicts decoded in the timed rounds.
    pub timed_verdicts: u64,
    /// Frames in the timed rounds.
    pub timed_frames: u64,
    /// Frames in the warm-up rounds.
    pub warmup_frames: u64,
    /// Outcome counts over the whole pass.
    pub tally: Tally,
    /// Deepest queue seen after a round's admissions, in queries.
    pub queue_depth_max: usize,
    /// Round trips of `Snapshot` control frames, nanoseconds.
    pub snapshot_ns: Vec<u64>,
    /// Submit plus verdict frame bytes.
    pub wire_bytes: u64,
    /// Features of (up to 4096) re-queried verdicts.
    pub band_hits: Vec<Vec<f32>>,
    /// The reference loop, run once after every round.
    pub host: HostSpeed,
}

/// How to run a pass.
pub struct PassPlan<'a> {
    /// Trained models and the stream.
    pub fixture: &'a Fixture,
    /// Workload shape.
    pub spec: &'a Spec,
    /// Workload seed (also the service's master seed).
    pub seed: u64,
    /// Service worker threads.
    pub workers: usize,
    /// Journal directory.
    pub dir: &'a Path,
    /// Frames to send (a prefix of the stream).
    pub frames: usize,
}

fn decode(bytes: &[u8]) -> Option<Frame> {
    decode_frame(bytes, HANDOFF_FRAME_CAP).ok().map(|(f, _)| f)
}

/// Deploys a fresh daemon and sends the first `plan.frames` frames of
/// the stream through it, `spec.tenants` frames per round, one
/// `pump_all` per round.
///
/// # Panics
///
/// Panics if the journal cannot be written (the daemon's only I/O).
pub fn run_pass(plan: &PassPlan<'_>, mut tracer: Option<&mut Tracer>) -> Pass {
    let PassPlan {
        fixture,
        spec,
        seed,
        ..
    } = *plan;
    let stream = &fixture.stream;
    let (mut daemon, journal) = deploy_daemon(fixture, spec, seed, plan.workers, plan.dir);
    let mut tally = Tally::default();
    let mut checksums = Vec::new();
    let mut latencies_ns = Vec::new();
    let mut snapshot_ns = Vec::new();
    let mut band_hits = Vec::new();
    let (mut timed_ns, mut timed_verdicts, mut timed_frames, mut warmup_frames) = (0, 0, 0, 0);
    let (mut queue_depth_max, mut wire_bytes, mut submitted) = (0usize, 0u64, 0usize);
    let frames = plan.frames.min(stream.frames.len());

    let mut starts = vec![0u64; spec.tenants];
    let mut dones = vec![0u64; spec.tenants];
    let mut cpu_starts = vec![0u64; spec.tenants];
    let mut cpu_dones = vec![0u64; spec.tenants];
    let (mut cpu_latencies_ns, mut timed_cpu_ns) = (Vec::new(), 0u64);
    let mut host = HostSpeed::default();
    let mut admitted = Vec::with_capacity(spec.tenants);
    let mut replies = Vec::with_capacity(spec.tenants);
    let clock = Instant::now();
    let now = || clock.elapsed().as_nanos() as u64;
    for (round, first) in (0..frames).step_by(spec.tenants).enumerate() {
        let last = (first + spec.tenants).min(frames);
        let root = tracer.as_mut().map(|t| t.open("round", None, first as u64));
        let round_start = now();
        let round_cpu = process_cpu_ns();
        admitted.clear();
        for k in first..last {
            starts[k - first] = now();
            cpu_starts[k - first] = process_cpu_ns();
            let id = k as u64;
            let bytes = span(&mut tracer, "wire.encode_submit", root, id, || {
                encode_frame(&stream.frames[k])
            });
            wire_bytes += bytes.len() as u64;
            let ack = span(&mut tracer, "daemon.handle_frame", root, id, || {
                daemon.handle_frame(&bytes)
            });
            let ack = span(&mut tracer, "wire.decode_ack", root, id, || {
                ack.ok().and_then(|a| decode(&a))
            });
            if ack == Some(Frame::Ack) {
                admitted.push(k);
            } else {
                tally.refused_frames += 1;
            }
            submitted += 1;
            if spec.snapshot_every.is_some_and(|n| submitted % n == 0) {
                let t0 = now();
                let text = span(&mut tracer, "telemetry.snapshot", root, id, || {
                    daemon
                        .handle_frame(&encode_frame(&Frame::Snapshot))
                        .ok()
                        .and_then(|r| decode(&r))
                });
                snapshot_ns.push(now() - t0);
                if !matches!(text, Some(Frame::SnapshotText { .. })) {
                    tally.bad_replies += 1;
                }
            }
        }
        queue_depth_max = queue_depth_max.max(daemon.queued_queries());
        let out = span(&mut tracer, "daemon.pump", root, first as u64, || {
            daemon.pump_all().expect("the journal accepts appends")
        });
        replies.clear();
        for (bytes, &k) in out.iter().zip(&admitted) {
            wire_bytes += bytes.len() as u64;
            let frame = span(&mut tracer, "wire.decode_verdicts", root, k as u64, || {
                decode(bytes)
            });
            dones[k - first] = now();
            cpu_dones[k - first] = process_cpu_ns();
            replies.push(frame);
        }
        let round_end = now();
        let round_cpu_end = process_cpu_ns();
        if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
            t.close(id);
        }
        checksums.push((last, daemon.verdict_checksum()));
        host.sample();

        // Checks and counts, outside the clocked round.
        if out.len() != admitted.len() {
            tally.bad_replies += 1;
        }
        let timed = round >= WARMUP_ROUNDS;
        if timed {
            timed_ns += round_end - round_start;
            timed_cpu_ns += round_cpu_end - round_cpu;
            timed_frames += (last - first) as u64;
        } else {
            warmup_frames += (last - first) as u64;
        }
        let mut answered = vec![false; last - first];
        for (reply, &k) in replies.iter().zip(&admitted) {
            let kinds = &stream.kinds[k];
            let queries = stream.queries(k);
            let Some(Frame::Verdicts { tenant, verdicts }) = reply else {
                tally.bad_replies += 1;
                continue;
            };
            if *tenant as usize != k % spec.tenants || verdicts.len() != kinds.len() {
                tally.bad_replies += 1;
                continue;
            }
            answered[k - first] = true;
            if timed {
                latencies_ns.push(dones[k - first] - starts[k - first]);
                cpu_latencies_ns.push(cpu_dones[k - first] - cpu_starts[k - first]);
                timed_verdicts += verdicts.len() as u64;
            }
            for ((v, &kind), features) in verdicts.iter().zip(kinds).zip(queries) {
                let served = v.disposition == QueryDisposition::Served;
                let flagged = v.label.is_malware();
                if served {
                    tally.served += 1;
                }
                if v.is_requeried() && band_hits.len() < BAND_HIT_SAMPLE {
                    band_hits.push(features.clone());
                }
                match (kind, served) {
                    (Kind::Poison, false) => {}
                    (Kind::Poison, true) | (_, false) => tally.wrong += 1,
                    (Kind::Benign, true) => {
                        tally.benign += 1;
                        tally.benign_ok += u64::from(!flagged);
                    }
                    (Kind::Malware, true) => {
                        tally.malware += 1;
                        tally.malware_ok += u64::from(flagged);
                    }
                    (Kind::Evasive, true) => {
                        tally.evasive += 1;
                        tally.evasive_flagged += u64::from(flagged);
                    }
                }
            }
        }
        for k in first..last {
            let n = stream.kinds[k].len() as u64;
            tally.offered += n;
            tally.poison += stream.kinds[k]
                .iter()
                .filter(|&&kd| kd == Kind::Poison)
                .count() as u64;
            if !answered[k - first] {
                tally.wrong += n;
            }
        }
    }
    Pass {
        daemon,
        journal,
        checksums,
        latencies_ns,
        timed_ns,
        cpu_latencies_ns,
        timed_cpu_ns,
        timed_verdicts,
        timed_frames,
        warmup_frames,
        tally,
        queue_depth_max,
        snapshot_ns,
        wire_bytes,
        band_hits,
        host,
    }
}
