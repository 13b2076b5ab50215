//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run context as `# ` lines, then one JSON result line. Exits
//! 1 when a correctness check fails and 2 on a bad command line.

use perfbench::run::{run, Options};
use perfbench::workload::Workload;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <wire_small|wire_bulk|requery_mix> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Journals and span files live here, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

fn parse() -> Result<Options, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Options {
        workload: Workload::WireSmall,
        seed: 42,
        seconds: 10.0,
        trace: false,
        workers: nproc.min(2),
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&opts);
    for line in &out.context {
        println!("# {line}");
    }
    for failure in &out.outcome.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", out.outcome.to_json());
    if !out.outcome.correct {
        std::process::exit(1);
    }
}
