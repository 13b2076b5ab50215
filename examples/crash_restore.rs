//! Kill a supervised monitoring service mid-shift and bring it back.
//!
//! A journaled deployment checkpoints its full state (per-shard RNG
//! streams, fault-injector gap, supervisor health machine, thermal step,
//! telemetry counters) every few batches and write-ahead-logs a commit
//! record per batch. We simulate a kill -9 — including a torn final
//! journal record, as if the power died mid-append — then recover the
//! journal, restore the service, replay the at-most-one uncommitted
//! batch, and finish the shift. The resumed run is bit-identical to one
//! that never died.
//!
//! ```text
//! cargo run --release --example crash_restore
//! ```

use shmd_volt::environment::EnvironmentConfig;
use shmd_volt::DeviceProfile;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::checkpoint::{unique_scratch, StateJournal};
use stochastic_hmd::serve::{MonitoringService, ServeConfig, Verdict};
use stochastic_hmd::supervisor::{ChaosPlan, SupervisorConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

const SHARDS: usize = 4;
const BATCHES: usize = 24;
const BATCH_SIZE: usize = 16;
const CADENCE: u64 = 6;
const KILL_BATCH: usize = 14;
const SEED: u64 = 7;

fn supervision(device: &DeviceProfile) -> SupervisorConfig {
    SupervisorConfig::new(device.clone())
        .with_environment(EnvironmentConfig::drifting(device.temp_c, SEED))
        .with_chaos(ChaosPlan::seeded(SEED, SHARDS, 16, 2, 1))
}

fn config() -> ServeConfig {
    ServeConfig::new(SHARDS)
        .with_seed(SEED)
        .with_batch_size(BATCH_SIZE)
        .with_target_error_rate(0.2)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(&DatasetConfig::small(200), 42);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )?;
    let device = DeviceProfile::reference();
    let spec = baseline.spec();
    let batch_at = |b: usize| -> Vec<Vec<f32>> {
        (0..BATCH_SIZE)
            .map(|i| spec.extract(dataset.trace((b * BATCH_SIZE + i) % dataset.len())))
            .collect()
    };

    // The uninterrupted reference shift, for the final comparison.
    let mut reference = MonitoringService::supervised(&baseline, supervision(&device), config())?;
    let reference_verdicts: Vec<Vec<Verdict>> = (0..BATCHES)
        .map(|b| reference.process_feature_batch(&batch_at(b)))
        .collect();

    // The victim: same deployment, but journaled — a checkpoint every
    // CADENCE batches, a commit record fsynced after every batch.
    let path = unique_scratch("crash-restore");
    let mut service = MonitoringService::supervised(&baseline, supervision(&device), config())?;
    let mut journal = StateJournal::create(&path)?;
    for b in 0..=KILL_BATCH {
        if (b as u64).is_multiple_of(CADENCE) {
            journal.append_checkpoint(&service.checkpoint())?;
            println!("batch {b:>2}: checkpoint journaled");
        }
        service.process_feature_batch_journaled(&batch_at(b), &mut journal)?;
    }
    println!("batch {KILL_BATCH}: kill -9 (and the tail of the last journal append is torn off)");
    drop(journal);
    drop(service);
    let bytes = std::fs::read(&path)?;
    std::fs::write(&path, &bytes[..bytes.len() - 5])?;

    // Recovery: scan the journal, discard the torn tail, restore from the
    // last checkpoint, replay forward to the last committed batch.
    let recovery = StateJournal::recover(&path)?;
    println!(
        "\nrecovered: checkpoint at batch {:?}, {} commits, last committed batch {:?}, \
         {} torn bytes discarded",
        recovery.checkpoint.as_ref().map(|c| c.batches),
        recovery.commits.len(),
        recovery.last_committed_batch(),
        recovery.torn_bytes
    );
    let checkpoint = recovery.checkpoint.ok_or("no checkpoint in journal")?;
    let mut service = MonitoringService::restore(
        &baseline,
        Some(supervision(&device)),
        &checkpoint,
        Default::default(),
    )?;
    let mut identical = true;
    for (b, reference) in reference_verdicts
        .iter()
        .enumerate()
        .skip(checkpoint.batches as usize)
    {
        let verdicts = service.process_feature_batch(&batch_at(b));
        identical &= verdicts == *reference;
        if b <= KILL_BATCH {
            println!("batch {b:>2}: replayed");
        }
    }
    std::fs::remove_file(&path)?;

    let snapshot = service.snapshot();
    println!(
        "\nresumed shift: {} queries in {} batches, verdict checksum {:#018x}",
        snapshot.queries,
        snapshot.batches,
        service.verdict_checksum()
    );
    println!(
        "verdicts {} the uninterrupted reference",
        if identical {
            "bit-identical to"
        } else {
            "DIVERGED from"
        }
    );
    println!(
        "\nthe journal is the contract: a commit record is fsynced before a batch's \
         verdicts\nare exposed, so a crash loses at most one uncommitted batch — and \
         replaying it\nfrom the checkpoint is deterministic, so nothing is lost at all"
    );
    Ok(())
}
