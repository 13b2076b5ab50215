//! Fuzzes the admission path: hostile bytes, oversized frames, and
//! random-width submissions stream through `Daemon::handle_frame` and
//! `pump`. Invariants: no panic for any input, the admission accounting
//! stays exactly conserved, and wrong-width queries cost per-query
//! rejections, never the daemon.

use proptest::collection::vec as vec_of;
use proptest::Strategy;
use rand::Rng;
use shmd_fuzz::{corpus, mutate, FuzzArgs, Tally};
use stochastic_hmd::checkpoint::unique_scratch;
use stochastic_hmd::{
    encode_frame, AdmissionConfig, Daemon, Frame, MonitoringService, StateJournal,
};

fn main() {
    let args = FuzzArgs::parse("fuzz_daemon");
    let mut rng = args.rng();
    let corpus = corpus();
    let journal_path = unique_scratch("fuzz-daemon");
    let service = MonitoringService::restore(
        &corpus.baseline,
        None,
        &stochastic_hmd::ServiceCheckpoint::decode(&corpus.checkpoint)
            .expect("corpus checkpoint decodes"),
        stochastic_hmd::ExecConfig::serial(),
    )
    .expect("corpus checkpoint restores");
    let journal = StateJournal::create(&journal_path).expect("scratch journal");
    let config = AdmissionConfig::default()
        .with_max_queued_queries(64)
        .with_tenant_quota(32)
        .with_max_frame_bytes(1 << 16);
    let mut daemon = Daemon::new(service, journal, config).expect("daemon deploys");

    let mut tally = Tally::default();
    for _ in 0..args.iters {
        // Hostile bytes: mutations of every frame kind plus garbage.
        for frame in &corpus.frames {
            for bad in mutate::hostile_set(frame, &mut rng, 8) {
                // A typed decode error counts as rejected; an Ok is a
                // well-formed reply frame (e.g. Reject for an oversized
                // declaration) and counts as handled.
                tally.record(daemon.handle_frame(&bad).is_err());
                assert!(
                    daemon.stats().is_conserved(),
                    "accounting leaked a frame: {:?}",
                    daemon.stats()
                );
            }
        }
        // Random-width submissions: some match the model, most don't;
        // every one must come back as a verdict or an accounted reject.
        let widths = vec_of(0usize..80, 4).sample(&mut rng);
        let queries: Vec<Vec<f32>> = widths
            .iter()
            .map(|&w| (0..w).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let frame = encode_frame(&Frame::SubmitBatch {
            tenant: rng.gen_range(0..4u32),
            queries,
        });
        tally.record(daemon.handle_frame(&frame).is_err());
        daemon
            .pump_all()
            .expect("pump never fails on a live journal");
        assert!(daemon.stats().is_conserved());
    }
    let stats = daemon.stats();
    assert!(stats.is_conserved(), "final accounting broken: {stats:?}");
    let _ = std::fs::remove_file(&journal_path);
    println!("{}", tally.summary("daemon"));
    println!(
        "daemon accounting: offered {} admitted {} oversized {} malformed {} conserved true",
        stats.offered_frames,
        stats.admitted_frames,
        stats.rejected_oversized,
        stats.malformed_frames
    );
}
