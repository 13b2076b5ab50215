//! One benchmark run: set up, serve passes for the measured time, recover,
//! check, and report.
//!
//! A *pass* deploys a fresh daemon and sends the whole seeded stream
//! through it. Every pass of a run is the same experiment, so every pass
//! must end with the same verdict checksums, counts and journal; timing
//! figures pool all passes, and the deterministic figures come from the
//! first. Set-ups and recoveries are spread between passes so that the
//! host's slow drift in speed falls on every figure alike.

use crate::drive::{run_pass, Pass, PassPlan, Tally};
use crate::host::HostSpeed;
use crate::ladder::{anomaly_ns_per_call, append_costs, journal_records, ladder};
use crate::recovery::{recover, Recovery};
use crate::report::{cpu_times, filesystem_of, median, percentile, Metric, Outcome};
use crate::setup::{timed_setup, Fixture, SetupTimes};
use crate::trace::Tracer;
use crate::workload::{Spec, Workload};
use std::path::PathBuf;
use std::time::Instant;
use stochastic_hmd::{encode_frame, AdmissionStats, Frame, TelemetrySnapshot};

/// Recoveries of each pass's final journal.
const RECOVERIES_PER_PASS: usize = 3;

/// A timed set-up follows every this many passes.
const SETUP_EVERY: usize = 4;

/// Fewest timed set-ups in a run. Until there are this many one follows
/// every pass, then every [`SETUP_EVERY`]th; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// Frames of the 1-worker vs N-worker prefix check (rounded down to
/// whole rounds).
const PREFIX_FRAMES: usize = 96;

/// Commits appended by the traced run's journal probe.
const APPEND_PROBE_COMMITS: u64 = 400;

/// `Snapshot` round trips the traced run adds after a pass.
const SNAPSHOT_PROBES: usize = 32;

/// A ladder rung may read this share below the rung beneath it before
/// the order check fails. The rungs are timed separately, and the
/// detector is a thin wrapper over the kernel (its self time is near 0),
/// so on 32-query frames the two read within about 5% of each other in
/// either order.
const LADDER_SLACK: f64 = 0.1;

/// The traced round trip must be at least this share covered by the
/// layer calls inside it.
const MIN_ACCOUNTED: f64 = 0.95;

/// Metrics that are a function of the workload seed alone: they repeat
/// bit for bit across runs and worker counts.
pub const DETERMINISTIC: &[&str] = &[
    "journal_bytes_per_query",
    "accuracy",
    "evasive_flag_rate",
    "energy_uj_per_query",
    "expected_disposition_ratio",
    "volt.faults_per_kquery",
    "serve.requery_ratio",
    "serve.draws_per_query",
    "serve.rejected_per_kquery",
    "supervisor.transitions",
    "supervisor.recalibrations",
    "supervisor.crashes",
    "wire.bytes_per_query",
    "daemon.queue_depth_max",
    "daemon.rejects.quota",
    "daemon.rejects.backpressure",
    "daemon.rejects.oversized",
    "daemon.rejects.malformed",
    "checkpoint.checkpoint_bytes",
    "checkpoint.records_per_kquery",
];

/// Everything a run needs to know.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the stream, the service, chaos and drift.
    pub seed: u64,
    /// Seconds of timed serving.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Service worker threads.
    pub workers: usize,
    /// Directory for the journals (in `journal/`) and the traced run's
    /// spans (`trace-<workload>.tsv`).
    pub out_dir: PathBuf,
}

impl Options {
    fn journal_dir(&self) -> PathBuf {
        self.out_dir.join("journal")
    }

    fn trace_file(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}.tsv", self.workload.name()))
    }
}

/// The outcome plus the context lines printed before it.
pub struct Run {
    /// The result line's content.
    pub outcome: Outcome,
    /// Run context, one fact per line.
    pub context: Vec<String>,
}

/// What must repeat exactly across the passes of a run.
#[derive(Clone, Debug, PartialEq)]
struct Deterministic {
    checksums: Vec<(usize, u64)>,
    tally: Tally,
    journal_bytes: u64,
    stats: AdmissionStats,
    snapshot: TelemetrySnapshot,
    queue_depth_max: usize,
    wire_bytes: u64,
}

impl Deterministic {
    fn of(pass: &Pass) -> Deterministic {
        Deterministic {
            checksums: pass.checksums.clone(),
            tally: pass.tally,
            journal_bytes: std::fs::metadata(&pass.journal).map_or(0, |m| m.len()),
            stats: pass.daemon.stats(),
            snapshot: pass.daemon.service().snapshot().without_timing(),
            queue_depth_max: pass.queue_depth_max,
            wire_bytes: pass.wire_bytes,
        }
    }
}

/// Timing pooled over passes.
#[derive(Default)]
struct Pooled {
    latencies_ns: Vec<f64>,
    cpu_latencies_ns: Vec<f64>,
    timed_ns: u64,
    timed_cpu_ns: u64,
    verdicts: u64,
    timed_frames: u64,
    warmup_frames: u64,
    passes: usize,
}

impl Pooled {
    fn add(&mut self, pass: &Pass) {
        self.latencies_ns
            .extend(pass.latencies_ns.iter().map(|&ns| ns as f64));
        self.cpu_latencies_ns
            .extend(pass.cpu_latencies_ns.iter().map(|&ns| ns as f64));
        self.timed_ns += pass.timed_ns;
        self.timed_cpu_ns += pass.timed_cpu_ns;
        self.verdicts += pass.timed_verdicts;
        self.timed_frames += pass.timed_frames;
        self.warmup_frames += pass.warmup_frames;
        self.passes += 1;
    }

    fn qps(&self) -> f64 {
        self.verdicts as f64 / (self.timed_ns as f64 / 1e9).max(1e-9)
    }

    fn cpu_qps(&self) -> f64 {
        self.verdicts as f64 / (self.timed_cpu_ns as f64 / 1e9).max(1e-9)
    }

    fn seconds(&self) -> f64 {
        self.timed_ns as f64 / 1e9
    }
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Run {
    let spec = opts.workload.spec();
    let journal_dir = opts.journal_dir();
    std::fs::create_dir_all(&journal_dir).expect("the journal directory can be created");
    let mut ctx = Context::new(opts, &spec, &journal_dir);
    let (fixture, first_setup) = timed_setup(&spec, opts.seed, opts.workers, &journal_dir);
    ctx.line(format!(
        "deployed at delivered er {:.4}, offset {}, {} shards, {} evasive samples crafted",
        first_setup.delivered_er,
        first_setup.offset,
        crate::setup::SHARDS,
        fixture.evasive_samples
    ));
    let mut setups = vec![first_setup];
    let plan = PassPlan {
        fixture: &fixture,
        spec: &spec,
        seed: opts.seed,
        workers: opts.workers,
        dir: &journal_dir,
        frames: spec.pass_frames,
    };

    let mut reference: Option<Deterministic> = None;
    let mut untraced = Pooled::default();
    let mut traced = Pooled::default();
    let mut recoveries: Vec<Recovery> = Vec::new();
    let mut tracer = Tracer::new();
    let mut last_pass: Option<Pass> = None;
    let mut band_hits = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let cpu_before = cpu_times();
    let mut pass_steal: Vec<f64> = Vec::new();
    let mut host = HostSpeed::default();
    loop {
        // The traced run alternates untraced and traced passes, so the
        // tracing overhead is measured against the same host phases.
        let with_trace = opts.trace && untraced.passes > traced.passes;
        let pass_cpu = cpu_times();
        let pass = run_pass(&plan, with_trace.then_some(&mut tracer));
        if let (Some(a), Some(b)) = (pass_cpu, cpu_times()) {
            pass_steal.push(b.steal_share_since(&a) * 100.0);
        }
        ctx.check_pass(&pass);
        host.add(pass.host);
        attempted += pass.tally.offered;
        failed += pass.tally.wrong;
        let det = Deterministic::of(&pass);
        match &reference {
            None => reference = Some(det),
            Some(r) if *r != det => ctx.fail(format!(
                "pass {} diverged from pass 1 (final checksum {:#018x} vs {:#018x})",
                untraced.passes + traced.passes + 1,
                det.checksums.last().map_or(0, |c| c.1),
                r.checksums.last().map_or(0, |c| c.1)
            )),
            Some(_) => {}
        }
        if with_trace {
            traced.add(&pass);
        } else {
            untraced.add(&pass);
        }
        if band_hits.is_empty() {
            band_hits = pass.band_hits.clone();
        }
        let live = pass.daemon.verdict_checksum();
        for _ in 0..RECOVERIES_PER_PASS {
            let r = recover(&fixture, &spec, opts.seed, opts.workers, &pass.journal);
            ctx.check_recovery(&r, live);
            recoveries.push(r);
        }
        if let Some(old) = last_pass.replace(pass) {
            let _ = std::fs::remove_file(&old.journal);
        }
        let passes = untraced.passes + traced.passes;
        if passes % SETUP_EVERY == 0 || setups.len() < MIN_SETUPS {
            let (again, times) = timed_setup(&spec, opts.seed, opts.workers, &journal_dir);
            if !again.stream.same_as(&fixture.stream) {
                ctx.fail("a repeated set-up generated a different stream".to_string());
            }
            setups.push(times);
        }
        let measured = untraced.seconds() + traced.seconds();
        let traced_enough = !opts.trace || traced.passes > 0;
        if ctx.failed() || (measured >= opts.seconds && setups.len() >= MIN_SETUPS && traced_enough)
        {
            break;
        }
    }
    let reference = reference.expect("at least one pass ran");
    let last = last_pass.expect("at least one pass ran");
    if let (Some(before), Some(after)) = (cpu_before, cpu_times()) {
        let worst = pass_steal.iter().copied().fold(0.0, f64::max);
        ctx.line(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the passes (median \
             pass {:.1}%, worst {worst:.1}%, from /proc/stat); a contended host reads \
             slower, with longer tails",
            after.steal_share_since(&before) * 100.0,
            median(&mut pass_steal),
        ));
    }

    // One worker must give the verdicts two workers gave.
    let prefix =
        (PREFIX_FRAMES / spec.tenants * spec.tenants).clamp(spec.tenants, spec.pass_frames);
    let serial = run_pass(
        &PassPlan {
            workers: 1,
            frames: prefix,
            ..plan
        },
        None,
    );
    let want = reference
        .checksums
        .iter()
        .find(|c| c.0 == prefix)
        .map(|c| c.1);
    if serial.checksums.last().map(|c| c.1) != want {
        ctx.fail(format!(
            "the first {prefix} frames gave another checksum with 1 worker than with {}",
            opts.workers
        ));
    }
    let _ = std::fs::remove_file(&serial.journal);

    let tally = reference.tally;
    ctx.timing_lines(&untraced, &traced, &tally);
    ctx.wall_lines(&untraced, &setups, &recoveries);

    // The gated timings: process CPU time, divided by how much slower
    // than nominal the reference loop ran in the same run.
    let slow = host.slowdown();
    let mut setup_s: Vec<f64> = setups.iter().map(|t| t.cpu_s).collect();
    let mut recovery_ms: Vec<f64> = recoveries.iter().map(|r| r.cpu_ns as f64 / 1e6).collect();
    let mut lat = untraced.cpu_latencies_ns.clone();
    let (setup_s, recovery_ms) = (median(&mut setup_s), median(&mut recovery_ms));
    let (p50_us, p90_us) = (
        percentile(&mut lat, 0.5) / 1e3,
        percentile(&mut lat, 0.9) / 1e3,
    );
    ctx.line(format!(
        "host speed: the reference loop ran {slow:.4}x its nominal CPU time over {} chunks; \
         before dividing by that, the CPU figures were set-up {setup_s:.4} s, {:.0} q/cpu-s, \
         p50 {p50_us:.1} us, p90 {p90_us:.1} us, recovery {recovery_ms:.3} ms",
        host.chunks,
        untraced.cpu_qps()
    ));
    let metrics = if opts.trace {
        layer_metrics(
            &LayerInputs {
                fixture: &fixture,
                spec: &spec,
                opts,
                journal_dir: &journal_dir,
                setup: &setups[0],
                reference: &reference,
                last: &last,
                tracer: &tracer,
                untraced: &untraced,
                traced: &traced,
                recoveries: &recoveries,
                band_hits: &band_hits,
            },
            &mut ctx,
        )
    } else {
        let served = tally.served.max(1) as f64;
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric("setup_s", setup_s / slow, "s"),
            metric("throughput_qps_cpu", untraced.cpu_qps() * slow, "q/cpu-s"),
            metric("latency_p50_us_cpu", p50_us / slow, "us"),
            metric("latency_p90_us_cpu", p90_us / slow, "us"),
            metric("recovery_ms_cpu", recovery_ms / slow, "ms"),
            metric(
                "journal_bytes_per_query",
                reference.journal_bytes as f64 / served,
                "B/q",
            ),
            metric("accuracy", tally.accuracy(), "ratio"),
            metric("evasive_flag_rate", tally.evasive_flag_rate(), "ratio"),
            metric(
                "energy_uj_per_query",
                reference.snapshot.total_energy_uj() / served,
                "uJ/q",
            ),
            metric(
                "expected_disposition_ratio",
                1.0 - tally.error_ratio(),
                "ratio",
            ),
        ]
    };
    let _ = std::fs::remove_file(&last.journal);
    let failures = ctx.failures.clone();
    Run {
        outcome: Outcome {
            correct: failures.is_empty(),
            attempted,
            failed,
            metrics,
            failures,
        },
        context: ctx.lines,
    }
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    fixture: &'a Fixture,
    spec: &'a Spec,
    opts: &'a Options,
    journal_dir: &'a std::path::Path,
    setup: &'a SetupTimes,
    reference: &'a Deterministic,
    last: &'a Pass,
    tracer: &'a Tracer,
    untraced: &'a Pooled,
    traced: &'a Pooled,
    recoveries: &'a [Recovery],
    band_hits: &'a [Vec<f32>],
}

/// The traced run's per-layer metrics, with the reconciliation and
/// ladder-order checks.
fn layer_metrics(inp: &LayerInputs<'_>, ctx: &mut Context) -> Vec<Metric> {
    let LayerInputs {
        fixture,
        spec,
        opts,
        reference,
        ..
    } = *inp;
    let seed = opts.seed;
    let dir = inp.journal_dir;
    let tally = reference.tally;
    let snap = &reference.snapshot;
    let stats = reference.stats;
    let served = tally.served.max(1) as f64;
    let offered = tally.offered.max(1) as f64;

    // Spans: mean duration by name, and how much of each round the
    // layer calls inside it cover.
    let spans = inp.tracer.spans();
    let mean_us = |name: &str| {
        let (sum, n) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.duration_ns(), n + 1));
        sum as f64 / n.max(1) as f64 / 1e3
    };
    let self_ns = inp.tracer.self_times();
    let (round_ns, round_self_ns) = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "round")
        .fold((0u64, 0u64), |(d, o), (s, own)| {
            (d + s.duration_ns(), o + own)
        });
    let rounds = spans.iter().filter(|s| s.name == "round").count();
    if rounds == 0 || round_ns == 0 {
        ctx.fail("the traced run traced no round".to_string());
    }
    let accounted = 1.0 - round_self_ns as f64 / round_ns.max(1) as f64;
    let rounds = rounds.max(1) as f64;
    ctx.line(format!(
        "trace: {} spans over {} rounds; per round {:.2} us = encode {:.2} + handle_frame {:.2} + \
         decode ack {:.2} (x{} frames) + pump {:.2} + decode verdicts {:.2} (x{}) + snapshot, \
         {:.2}% covered by layer calls",
        spans.len(),
        rounds,
        round_ns as f64 / rounds / 1e3,
        mean_us("wire.encode_submit"),
        mean_us("daemon.handle_frame"),
        mean_us("wire.decode_ack"),
        spec.tenants,
        mean_us("daemon.pump"),
        mean_us("wire.decode_verdicts"),
        spec.tenants,
        accounted * 100.0
    ));
    if accounted < MIN_ACCOUNTED {
        ctx.fail(format!(
            "layer calls cover only {:.2}% of the traced round trip",
            accounted * 100.0
        ));
    }
    let path = opts.trace_file();
    match inp.tracer.write_tsv(&path) {
        Ok(()) => ctx.line(format!("trace: spans written to {}", path.display())),
        Err(e) => ctx.fail(format!("writing spans to {}: {e}", path.display())),
    }
    let overhead = 1.0 - inp.traced.cpu_qps() / inp.untraced.cpu_qps().max(1e-9);
    ctx.line(format!(
        "trace: overhead {:.2}% ({:.0} q/cpu-s traced vs {:.0} untraced, {} + {} passes \
         alternated)",
        overhead * 100.0,
        inp.traced.cpu_qps(),
        inp.untraced.cpu_qps(),
        inp.traced.passes,
        inp.untraced.passes
    ));

    let ladder = ladder(fixture, spec, seed, dir);
    ctx.line(format!(
        "ladder over {} frames, 1 worker, {} lanes: kernel {:.1} <= detector {:.1} <= serve {:.1} \
         <= pump {:.1} ns/query",
        ladder.frames, 8, ladder.kernel_ns, ladder.detector_ns, ladder.serve_ns, ladder.pump_ns
    ));
    for bad in ladder.misordered(LADDER_SLACK) {
        ctx.fail(format!("ladder out of order: {bad}"));
    }

    let checkpoint = inp.last.daemon.service().checkpoint();
    let append = append_costs(&checkpoint, dir, APPEND_PROBE_COMMITS);
    let anomaly_rows: Vec<Vec<f32>> = if inp.band_hits.is_empty() {
        fixture.stream.queries(0).to_vec()
    } else {
        inp.band_hits.to_vec()
    };
    let anomaly_ns = anomaly_ns_per_call(fixture, &anomaly_rows);

    // Snapshot control frames: the stream's own, plus a probe after the
    // pass (the probe frames are not part of any pass's accounting).
    let mut snapshot_us: Vec<f64> = inp
        .last
        .snapshot_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let mut daemon_probe = crate::setup::deploy_daemon(fixture, spec, seed, opts.workers, dir);
    for _ in 0..SNAPSHOT_PROBES {
        let t = Instant::now();
        let reply = daemon_probe.0.handle_frame(&encode_frame(&Frame::Snapshot));
        snapshot_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if reply.is_err() {
            ctx.fail("a snapshot frame was not answered".to_string());
        }
    }
    drop(daemon_probe.0);
    let _ = std::fs::remove_file(&daemon_probe.1);

    let med_ms = |f: fn(&Recovery) -> u64| {
        let mut v: Vec<f64> = inp.recoveries.iter().map(|r| f(r) as f64 / 1e6).collect();
        median(&mut v)
    };
    let faults = snap.total_faults();
    let records = journal_records(&inp.last.journal);
    let setup = inp.setup;
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("setup.dataset_s", setup.dataset_s, "s"),
        metric("setup.train_s", setup.train_s, "s"),
        metric("setup.evasion_s", setup.evasion_s, "s"),
        metric("setup.deploy_s", setup.deploy_s, "s"),
        metric("ann.ns_per_query", ladder.kernel_ns, "ns"),
        metric("stochastic.ns_per_query", ladder.detector_ns, "ns"),
        metric("serve.ns_per_query", ladder.serve_ns, "ns"),
        metric("serve.batch_p50_us", ladder.serve_batch_p50_us, "us"),
        metric("ladder.pump_ns_per_query", ladder.pump_ns, "ns"),
        metric(
            "volt.faults_per_kquery",
            faults.faulty as f64 / served * 1e3,
            "count",
        ),
        metric(
            "serve.requery_ratio",
            snap.band_hits as f64 / served,
            "ratio",
        ),
        metric(
            "serve.draws_per_query",
            snap.requeries as f64 / served,
            "ratio",
        ),
        metric(
            "serve.rejected_per_kquery",
            snap.rejected_queries as f64 / offered * 1e3,
            "count",
        ),
        metric("ml.anomaly_ns_per_call", anomaly_ns, "ns"),
        metric(
            "supervisor.transitions",
            snap.total_transitions() as f64,
            "count",
        ),
        metric(
            "supervisor.recalibrations",
            snap.total_retries() as f64,
            "count",
        ),
        metric("supervisor.crashes", snap.total_crashes() as f64, "count"),
        metric(
            "wire.encode_us_per_frame",
            mean_us("wire.encode_submit"),
            "us",
        ),
        metric(
            "wire.decode_us_per_frame",
            mean_us("wire.decode_verdicts"),
            "us",
        ),
        metric(
            "wire.bytes_per_query",
            reference.wire_bytes as f64 / offered,
            "B/q",
        ),
        metric(
            "daemon.handle_frame_us",
            mean_us("daemon.handle_frame"),
            "us",
        ),
        metric("daemon.pump_us", mean_us("daemon.pump"), "us"),
        metric(
            "daemon.queue_depth_max",
            reference.queue_depth_max as f64,
            "count",
        ),
        metric("daemon.rejects.quota", stats.rejected_quota as f64, "count"),
        metric(
            "daemon.rejects.backpressure",
            stats.rejected_backpressure as f64,
            "count",
        ),
        metric(
            "daemon.rejects.oversized",
            stats.rejected_oversized as f64,
            "count",
        ),
        metric(
            "daemon.rejects.malformed",
            stats.malformed_frames as f64,
            "count",
        ),
        metric("checkpoint.commit_append_us", append.commit_us, "us"),
        metric(
            "checkpoint.checkpoint_append_us",
            append.checkpoint_us,
            "us",
        ),
        metric(
            "checkpoint.checkpoint_bytes",
            append.checkpoint_bytes as f64,
            "B",
        ),
        metric(
            "checkpoint.records_per_kquery",
            records as f64 / offered * 1e3,
            "count",
        ),
        metric("checkpoint.recover_ms", med_ms(|r| r.recover_ns), "ms"),
        metric("checkpoint.restore_ms", med_ms(|r| r.restore_ns), "ms"),
        metric("checkpoint.replay_ms", med_ms(|r| r.replay_ns), "ms"),
        metric("telemetry.snapshot_us", median(&mut snapshot_us), "us"),
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("trace.accounted_ratio", accounted, "ratio"),
    ]
}

/// Context lines and failed checks of a run.
struct Context {
    lines: Vec<String>,
    failures: Vec<String>,
}

impl Context {
    fn new(opts: &Options, spec: &Spec, journal_dir: &std::path::Path) -> Context {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut ctx = Context {
            lines: Vec::new(),
            failures: Vec::new(),
        };
        ctx.line(format!(
            "workload {} seed {} seconds {} trace {}: {} tenants x {}-query frames, {} frames per \
             pass",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            spec.tenants,
            spec.frame_queries,
            spec.pass_frames
        ));
        ctx.line(format!(
            "host: nproc {nproc}, service worker threads {}, one client thread",
            opts.workers
        ));
        ctx.line(format!(
            "journal: {} on {}; fdatasync after every batch commit, checkpoint every 8 batches",
            journal_dir.display(),
            filesystem_of(journal_dir)
        ));
        ctx
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    fn check_pass(&mut self, pass: &Pass) {
        let t = &pass.tally;
        if t.bad_replies > 0 {
            self.fail(format!(
                "{} replies did not decode to one verdict per query",
                t.bad_replies
            ));
        }
        if t.wrong > 0 {
            self.fail(format!(
                "{} of {} queries lacked their expected disposition",
                t.wrong, t.offered
            ));
        }
        if t.refused_frames > 0 {
            self.fail(format!(
                "{} frames were refused by admission",
                t.refused_frames
            ));
        }
        let stats = pass.daemon.stats();
        if !stats.is_conserved() {
            self.fail(format!("admission accounting is not conserved: {stats:?}"));
        }
    }

    fn check_recovery(&mut self, r: &Recovery, live: u64) {
        if r.replayed == 0 {
            self.fail("the crash fell on a checkpoint: nothing to replay".to_string());
        }
        if !r.commits_match {
            self.fail("a replayed batch missed its journaled commit".to_string());
        }
        if r.checksum != live {
            self.fail(format!(
                "recovery ended at checksum {:#018x}, the live daemon at {live:#018x}",
                r.checksum
            ));
        }
    }

    fn timing_lines(&mut self, untraced: &Pooled, traced: &Pooled, tally: &Tally) {
        for (label, pooled) in [("untraced", untraced), ("traced", traced)] {
            if pooled.passes == 0 {
                continue;
            }
            let mut lat = pooled.cpu_latencies_ns.clone();
            let n = lat.len();
            let p99 = percentile(&mut lat, 0.99);
            let beyond = lat.iter().filter(|&&v| v > p99).count();
            self.line(format!(
                "{label}: {} passes, {} frames timed over {:.3} s wall and {:.3} s process CPU, \
                 {} warm-up frames excluded; p50/p90 over {n} samples; CPU p99 {:.1} us with \
                 {beyond} samples beyond it (context, not gated)",
                pooled.passes,
                pooled.timed_frames,
                pooled.seconds(),
                pooled.timed_cpu_ns as f64 / 1e9,
                pooled.warmup_frames,
                p99 / 1e3
            ));
        }
        self.line(format!(
            "per pass: {} queries offered, {} served, {} poison; accuracy {}/{}, evasive flagged \
             {}/{}, error_ratio {} ({} wrong)",
            tally.offered,
            tally.served,
            tally.poison,
            tally.benign_ok + tally.malware_ok,
            tally.benign + tally.malware,
            tally.evasive_flagged,
            tally.evasive,
            tally.error_ratio(),
            tally.wrong
        ));
    }

    /// The wall-clock figures, for context: they include time the
    /// hypervisor gives to other guests and the wait for each flush.
    fn wall_lines(&mut self, untraced: &Pooled, setups: &[SetupTimes], recoveries: &[Recovery]) {
        let mut lat = untraced.latencies_ns.clone();
        let (p50, p90, p99) = (
            percentile(&mut lat, 0.5),
            percentile(&mut lat, 0.9),
            percentile(&mut lat, 0.99),
        );
        let mut setup: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
        let mut recovery: Vec<f64> = recoveries
            .iter()
            .map(|r| r.total_ns() as f64 / 1e6)
            .collect();
        self.line(format!(
            "wall clock (context, not gated): {:.0} q/s, round trip p50 {:.1} us, p90 {:.1} us, \
             p99 {:.1} us; recovery {:.3} ms (median of {}); set-up {:.4} s (median of {})",
            untraced.qps(),
            p50 / 1e3,
            p90 / 1e3,
            p99 / 1e3,
            median(&mut recovery),
            recovery.len(),
            median(&mut setup),
            setup.len()
        ));
    }
}
