//! The deterministic metrics are a function of the seed alone: two runs
//! of one seed agree bit for bit, 1 and 2 service workers agree bit for
//! bit, and another seed moves them.
//!
//! Each run is the shipped configuration with no timed seconds: it ends
//! as soon as it has its fewest set-ups and, when traced, a traced pass.
//! Build with `--release` for a quick run:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::Outcome;
use perfbench::run::{run, Options, DETERMINISTIC};
use perfbench::workload::Workload;
use std::path::Path;

fn options(workload: Workload, seed: u64, workers: usize, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        workers,
        out_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench"),
    }
}

/// The deterministic metrics of a run, as bit patterns, plus the query
/// counts of the result line.
fn fingerprint(out: &Outcome) -> Vec<(String, u64)> {
    assert!(out.correct, "checks failed: {:?}", out.failures);
    let mut print: Vec<(String, u64)> = out
        .metrics
        .iter()
        .filter(|m| DETERMINISTIC.contains(&m.name))
        .map(|m| (m.name.to_string(), m.value.to_bits()))
        .collect();
    print.push(("attempted".to_string(), out.attempted));
    print.push(("failed".to_string(), out.failed));
    print
}

fn run_print(workload: Workload, seed: u64, workers: usize, trace: bool) -> Vec<(String, u64)> {
    let out = run(&options(workload, seed, workers, trace)).outcome;
    if trace {
        // The traced path ran: it timed pumps and reconciled the rounds.
        assert!(out.metric("daemon.pump_us").is_some_and(|us| us > 0.0));
        assert!(out.metric("trace.accounted_ratio").is_some_and(|r| r < 1.0));
    }
    fingerprint(&out)
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_worker_counts() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let first = run_print(workload, 7, 2, trace);
            assert!(
                first.len() > 4,
                "{workload:?} trace {trace}: too few deterministic metrics: {first:?}"
            );
            assert_eq!(
                first,
                run_print(workload, 7, 2, trace),
                "{workload:?} trace {trace}: two runs of one seed differ"
            );
            assert_eq!(
                first,
                run_print(workload, 7, 1, trace),
                "{workload:?} trace {trace}: 1 and 2 workers differ"
            );
        }
    }
}

#[test]
fn another_seed_moves_the_deterministic_metrics() {
    for workload in Workload::ALL {
        let a = run(&options(workload, 7, 2, false)).outcome;
        let b = run(&options(workload, 8, 2, false)).outcome;
        let quality = |o: &Outcome| (o.metric("accuracy"), o.metric("evasive_flag_rate"));
        assert_ne!(
            quality(&a),
            quality(&b),
            "{workload:?}: the seed did not reach the stream"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    assert!(Workload::parse("wire_tiny").is_none());
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}
