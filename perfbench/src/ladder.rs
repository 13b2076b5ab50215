//! The traced run's layer probes: the ladder (kernel → detector → serve
//! → pump, one thread, same frames, each rung timed once per frame in
//! thread CPU time and interleaved frame by frame so host speed drift
//! hits every rung alike), the journal append costs, the
//! anomaly scorer, and the journal's record count.

use crate::report::thread_cpu_ns;
use crate::setup::{deploy_daemon, deploy_service, journal_path, Fixture};
use crate::workload::{Kind, Spec};
use shmd_ann::network::BatchScratch;
use shmd_volt::fault::BatchFaultStream;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use stochastic_hmd::checkpoint::ServiceCheckpoint;
use stochastic_hmd::{derive_seed, encode_frame, BatchCommit, StateJournal, StochasticHmd};

/// Lane width of the kernel and detector rungs: the service's default.
const LANES: usize = 8;

const LADDER_TAG: u64 = 0x4c41_4444;

/// Wall time the ladder spends at most.
const LADDER_BUDGET: Duration = Duration::from_millis(1500);

/// Per-query cost of each rung, in thread CPU nanoseconds, over the same
/// frames. Everything runs on the calling thread (one worker), so its
/// CPU time is all the work; the wait for the pump's flush is not in it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ladder {
    /// `QuantizedNetwork::infer_batch_into` with a `BatchFaultStream` at
    /// the deployed fault model.
    pub kernel_ns: f64,
    /// `StochasticHmd::score_features_batch_with` on the same stream.
    pub detector_ns: f64,
    /// `MonitoringService::process_feature_batch`, one worker.
    pub serve_ns: f64,
    /// `Daemon::pump_all` of one admitted frame, one worker (journal
    /// commit and flush included).
    pub pump_ns: f64,
    /// Median `process_feature_batch` call, CPU microseconds.
    pub serve_batch_p50_us: f64,
    /// Frames the ladder covered.
    pub frames: usize,
}

impl Ladder {
    /// Rungs that sit below the rung under them by more than `slack`
    /// (a share), as `"lower > upper"` descriptions.
    pub fn misordered(&self, slack: f64) -> Vec<String> {
        let rungs = [
            ("kernel", self.kernel_ns),
            ("detector", self.detector_ns),
            ("serve", self.serve_ns),
            ("pump", self.pump_ns),
        ];
        rungs
            .windows(2)
            .filter(|w| w[1].1 < w[0].1 * (1.0 - slack))
            .map(|w| format!("{} {:.1} ns > {} {:.1} ns", w[0].0, w[0].1, w[1].0, w[1].1))
            .collect()
    }
}

/// Times the four rungs over the stream's frames, frame by frame.
///
/// # Panics
///
/// Panics if the scratch journal cannot be written.
pub fn ladder(fixture: &Fixture, spec: &Spec, seed: u64, dir: &Path) -> Ladder {
    let mut service = deploy_service(fixture, spec, seed, 1);
    let (mut daemon, path) = deploy_daemon(fixture, spec, seed, 1, dir);
    let controller = service
        .supervisor()
        .expect("the service is supervised")
        .controller();
    let hmd = StochasticHmd::at_offset(
        &fixture.baseline,
        controller.curve(),
        controller.offset(),
        seed,
    )
    .expect("the deployed offset has a fault model");
    let model = hmd.fault_model().clone();
    let network = fixture.baseline.quantized();
    let (mut scratch, mut kernel_scratch) = (BatchScratch::<LANES>::new(), BatchScratch::new());

    let (mut kernel, mut detector, mut serve, mut pump) = (0u64, 0u64, 0u64, 0u64);
    let mut batch_us = Vec::new();
    let mut queries = 0u64;
    let mut frames = 0usize;
    let budget = Instant::now();
    for (k, frame) in fixture.stream.frames.iter().enumerate() {
        if budget.elapsed() > LADDER_BUDGET {
            break;
        }
        let all = fixture.stream.queries(k);
        let valid: Vec<&[f32]> = all
            .iter()
            .zip(&fixture.stream.kinds[k])
            .filter(|(_, &kind)| kind != Kind::Poison)
            .map(|(q, _)| q.as_slice())
            .collect();
        let groups: Vec<[&[f32]; LANES]> = valid
            .chunks(LANES)
            .map(|c| std::array::from_fn(|l| c[l.min(c.len() - 1)]))
            .collect();
        let seeds = |g: usize| -> [u64; LANES] {
            std::array::from_fn(|l| {
                derive_seed(seed, &[LADDER_TAG, k as u64, (g * LANES + l) as u64])
            })
        };

        // Every rung is timed once per frame, in kernel-detector-serve-
        // pump order, after an untimed kernel call that warms the caches
        // the previous frame's pump evicted.
        let mut kernel_rung = || {
            let t = thread_cpu_ns();
            for (g, lanes) in groups.iter().enumerate() {
                let mut faults = BatchFaultStream::<LANES>::new(&model, seeds(g));
                black_box(network.infer_batch_into(lanes, &mut faults, &mut kernel_scratch)[0]);
            }
            thread_cpu_ns() - t
        };
        kernel_rung();
        kernel += kernel_rung();

        let t = thread_cpu_ns();
        for (g, lanes) in groups.iter().enumerate() {
            let mut faults = BatchFaultStream::<LANES>::new(&model, seeds(g));
            black_box(hmd.score_features_batch_with(lanes, &mut faults, &mut scratch)[0]);
        }
        detector += thread_cpu_ns() - t;

        let t = thread_cpu_ns();
        black_box(service.process_feature_batch(all));
        let took = thread_cpu_ns() - t;
        serve += took;
        batch_us.push(took as f64 / 1e3);

        let bytes = encode_frame(frame);
        daemon
            .handle_frame(&bytes)
            .expect("a generated frame decodes");
        let t = thread_cpu_ns();
        black_box(daemon.pump_all().expect("the journal accepts appends"));
        pump += thread_cpu_ns() - t;

        queries += valid.len() as u64;
        frames += 1;
    }
    drop(daemon);
    let _ = std::fs::remove_file(path);
    let per = |ns: u64| ns as f64 / queries.max(1) as f64;
    Ladder {
        kernel_ns: per(kernel),
        detector_ns: per(detector),
        serve_ns: per(serve),
        pump_ns: per(pump),
        serve_batch_p50_us: crate::report::percentile(&mut batch_us, 0.5),
        frames,
    }
}

/// Journal append costs on a scratch journal beside the live one.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppendCosts {
    /// Mean `append_commit` (write + flush), microseconds.
    pub commit_us: f64,
    /// Mean `append_checkpoint` (encode + write + flush), microseconds.
    pub checkpoint_us: f64,
    /// Encoded checkpoint size, bytes.
    pub checkpoint_bytes: usize,
}

/// Appends `commits` commit records, with a checkpoint of `checkpoint`
/// after every eighth, to a scratch journal in `dir`.
///
/// # Panics
///
/// Panics if the scratch journal cannot be written.
pub fn append_costs(checkpoint: &ServiceCheckpoint, dir: &Path, commits: u64) -> AppendCosts {
    let path = journal_path(dir, "append-probe");
    let mut journal = StateJournal::create(&path).expect("the journal directory is writable");
    let (mut commit_ns, mut checkpoint_ns, mut checkpoints) = (0u64, 0u64, 0u64);
    for batch in 0..commits {
        let t = Instant::now();
        journal
            .append_commit(BatchCommit {
                batch,
                stream_pos: batch * 32,
                checksum: batch,
            })
            .expect("commit appends");
        commit_ns += t.elapsed().as_nanos() as u64;
        if batch % 8 == 7 {
            let t = Instant::now();
            journal
                .append_checkpoint(checkpoint)
                .expect("checkpoint appends");
            checkpoint_ns += t.elapsed().as_nanos() as u64;
            checkpoints += 1;
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(path);
    AppendCosts {
        commit_us: commit_ns as f64 / commits.max(1) as f64 / 1e3,
        checkpoint_us: checkpoint_ns as f64 / checkpoints.max(1) as f64 / 1e3,
        checkpoint_bytes: checkpoint.encode().len(),
    }
}

/// Mean `AnomalyScorer::score` cost over `rows`, nanoseconds per call,
/// repeating the rows until at least 50 ms have been timed.
pub fn anomaly_ns_per_call(fixture: &Fixture, rows: &[Vec<f32>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let (mut calls, start) = (0u64, Instant::now());
    while start.elapsed() < Duration::from_millis(50) {
        for row in rows {
            black_box(fixture.scorer.score(row));
        }
        calls += rows.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Records in a journal file, walking its `[u32 len][u8 kind][payload]
/// [u64 checksum]` framing up to the first frame that does not fit.
pub fn journal_records(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    let (mut pos, mut records) = (0usize, 0u64);
    while let Some(len) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        let next = pos + 4 + 1 + len + 8;
        if next > bytes.len() {
            break;
        }
        records += 1;
        pos = next;
    }
    records
}
