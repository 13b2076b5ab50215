//! Everything before the first timed frame: the dataset, the victim,
//! the evasive samples, the anomaly scorer, and the supervised daemon.

use crate::report::process_cpu_ns;
use crate::workload::{Pools, Spec, Stream};
use hmd_bench::chaos::SUPERVISION_CADENCE;
use hmd_bench::setup::OPERATING_ERROR_RATE;
use hmd_bench::Args;
use shmd_attack::ReverseConfig;
use shmd_attack::{generate_evasive_malware, reverse_engineer, EvasionConfig, ProxyKind};
use shmd_ml::anomaly::{AnomalyConfig, AnomalyScorer};
use shmd_volt::calibration::DeviceProfile;
use shmd_volt::environment::EnvironmentConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use stochastic_hmd::supervisor::SupervisorConfig;
use stochastic_hmd::{
    AdmissionConfig, BaselineHmd, ChaosPlan, Daemon, ExecConfig, MonitoringService, ServeConfig,
    StateJournal,
};

/// Shards behind the daemon on every workload.
pub const SHARDS: usize = 4;

/// Seed of the corpus, the victim, the proxy and the evasive samples:
/// the system under test. It is fixed so that runs with different
/// workload seeds measure one deployed model; across corpus seeds the
/// evasive flag rate alone ranges from about 0.15 to 0.70 (see
/// `NOTES.md`), which would swamp any change to the serving path.
pub const MODEL_SEED: u64 = 42;

/// The trained models and the stream one pass sends.
pub struct Fixture {
    /// The victim baseline every shard protects.
    pub baseline: BaselineHmd,
    /// Benign-profile anomaly scorer (installed on re-query workloads).
    pub scorer: AnomalyScorer,
    /// The frames of one pass.
    pub stream: Stream,
    /// Evasive samples the proxy attack produced.
    pub evasive_samples: usize,
}

/// Wall time of each set-up stage, seconds.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// Dataset generation and stream sampling.
    pub dataset_s: f64,
    /// Victim training and anomaly-scorer fit.
    pub train_s: f64,
    /// Proxy training and evasive-sample crafting.
    pub evasion_s: f64,
    /// Supervised deploy with calibration, and daemon creation with its
    /// initial checkpoint.
    pub deploy_s: f64,
    /// Process CPU time of the whole set-up, seconds.
    pub cpu_s: f64,
    /// Error rate the calibrated device delivers at deploy.
    pub delivered_er: f64,
    /// Undervolting offset the controller chose at deploy.
    pub offset: String,
}

impl SetupTimes {
    /// All stages together.
    pub fn total(&self) -> f64 {
        self.dataset_s + self.train_s + self.evasion_s + self.deploy_s
    }
}

/// Builds the fixture at medium scale (600 malware + 120 benign
/// programs), timing each stage: the models from [`MODEL_SEED`], the
/// stream from the workload `seed`.
pub fn build(spec: &Spec, seed: u64) -> (Fixture, SetupTimes) {
    let mut times = SetupTimes::default();
    let args = Args::parse_from(["--seed".to_string(), MODEL_SEED.to_string()]);

    let t = Instant::now();
    let dataset = hmd_bench::setup::dataset(&args);
    times.dataset_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let baseline = hmd_bench::setup::victim(&dataset, 0, &args);
    let split = dataset.three_fold_split(0);
    let spec_f = baseline.spec();
    let training = dataset.labeled_features(split.victim_training(), spec_f);
    let benign_training: Vec<Vec<f32>> = training
        .inputs
        .iter()
        .zip(&training.labels)
        .filter(|(_, &malware)| !malware)
        .map(|(row, _)| row.clone())
        .collect();
    let scorer = AnomalyScorer::fit(&benign_training, &AnomalyConfig::default())
        .expect("generated datasets always hold benign training rows");
    times.train_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut victim = baseline.clone();
    let proxy = reverse_engineer(
        &mut victim,
        &dataset,
        split.attacker_training(),
        &ReverseConfig::new(ProxyKind::Mlp).with_seed(MODEL_SEED),
    )
    .expect("reverse engineering a generated victim succeeds");
    let targets: Vec<usize> = dataset
        .malware_indices(split.testing())
        .filter(|&i| proxy.predict_trace(dataset.trace(i)))
        .collect();
    let evasive = generate_evasive_malware(&proxy, &dataset, &targets, &EvasionConfig::default());
    times.evasion_s += t.elapsed().as_secs_f64();
    assert!(
        !evasive.is_empty(),
        "the proxy attack crafted no evasive sample"
    );

    let t = Instant::now();
    let testing = dataset.labeled_features(split.testing(), spec_f);
    let (malware, benign): (Vec<_>, Vec<_>) = testing
        .inputs
        .into_iter()
        .zip(testing.labels)
        .partition(|(_, malware)| *malware);
    let pools = Pools {
        benign: benign.into_iter().map(|(f, _)| f).collect(),
        malware: malware.into_iter().map(|(f, _)| f).collect(),
        evasive: evasive.iter().map(|s| spec_f.extract(&s.trace)).collect(),
    };
    let stream = Stream::generate(spec, &pools, spec.pass_frames, seed);
    times.dataset_s += t.elapsed().as_secs_f64();

    let fixture = Fixture {
        baseline,
        scorer,
        stream,
        evasive_samples: pools.evasive.len(),
    };
    (fixture, times)
}

/// The supervised world a workload runs in.
pub fn supervision(spec: &Spec, seed: u64) -> SupervisorConfig {
    let device = DeviceProfile::reference();
    let temp_c = device.temp_c;
    let config = SupervisorConfig::new(device).with_supervision_cadence(SUPERVISION_CADENCE);
    if spec.chaos {
        config
            .with_environment(EnvironmentConfig::drifting(temp_c, seed))
            .with_chaos(ChaosPlan::new(spec.chaos_events(seed, SHARDS)))
    } else {
        config
    }
}

/// The service configuration for `workers` worker threads.
pub fn serve_config(spec: &Spec, seed: u64, workers: usize) -> ServeConfig {
    let config = ServeConfig::new(SHARDS)
        .with_seed(seed)
        .with_target_error_rate(OPERATING_ERROR_RATE)
        .with_batch_size(spec.frame_queries)
        .with_exec(exec(workers));
    match spec.requery {
        Some(rq) => config.with_requery(rq),
        None => config,
    }
}

/// The worker pool for `workers` threads (1 = serial).
pub fn exec(workers: usize) -> ExecConfig {
    if workers <= 1 {
        ExecConfig::serial()
    } else {
        ExecConfig::threads(workers)
    }
}

/// Deploys the supervised service (calibrating the device) and installs
/// the anomaly scorer on re-query workloads.
pub fn deploy_service(
    fixture: &Fixture,
    spec: &Spec,
    seed: u64,
    workers: usize,
) -> MonitoringService {
    let mut service = MonitoringService::supervised(
        &fixture.baseline,
        supervision(spec, seed),
        serve_config(spec, seed, workers),
    )
    .expect("the reference device calibrates at the operating point");
    if spec.requery.is_some() {
        service
            .install_anomaly_scorer(fixture.scorer.clone())
            .expect("the scorer was fitted on this baseline's features");
    }
    service
}

/// Admission bounds: the shipped defaults plus the workload's quota.
pub fn admission(spec: &Spec) -> AdmissionConfig {
    match spec.tenant_quota {
        Some(quota) => AdmissionConfig::default().with_tenant_quota(quota),
        None => AdmissionConfig::default(),
    }
}

static JOURNALS: AtomicU64 = AtomicU64::new(0);

/// A fresh journal path in `dir`, unique within the process.
pub fn journal_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!(
        "perfbench-{}-{tag}-{}.journal",
        std::process::id(),
        JOURNALS.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A daemon over a freshly deployed service and a new journal in `dir`.
pub fn deploy_daemon(
    fixture: &Fixture,
    spec: &Spec,
    seed: u64,
    workers: usize,
    dir: &Path,
) -> (Daemon, PathBuf) {
    let service = deploy_service(fixture, spec, seed, workers);
    let path = journal_path(dir, "live");
    let journal = StateJournal::create(&path).expect("the journal directory is writable");
    let daemon =
        Daemon::new(service, journal, admission(spec)).expect("the initial checkpoint appends");
    (daemon, path)
}

/// One timed set-up: fixture plus a deployed daemon, which is then torn
/// down. Returns the fixture and the stage times.
pub fn timed_setup(spec: &Spec, seed: u64, workers: usize, dir: &Path) -> (Fixture, SetupTimes) {
    let cpu = process_cpu_ns();
    let (fixture, mut times) = build(spec, seed);
    let t = Instant::now();
    let (daemon, path) = deploy_daemon(&fixture, spec, seed, workers, dir);
    times.deploy_s = t.elapsed().as_secs_f64();
    if let Some(supervisor) = daemon.service().supervisor() {
        times.delivered_er = supervisor.controller().delivered_error_rate();
        times.offset = supervisor.controller().offset().to_string();
    }
    drop(daemon);
    let _ = std::fs::remove_file(path);
    times.cpu_s = (process_cpu_ns() - cpu) as f64 / 1e9;
    (fixture, times)
}
