//! The three workloads and the seeded query streams they send.
//!
//! A stream is a list of `SubmitBatch` frames plus the ground-truth kind
//! of every query in them. Frame `k` belongs to tenant `k % tenants`;
//! a *round* is one frame per tenant, submitted back to back and then
//! drained by one `pump_all` (a closed loop of `tenants` clients).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stochastic_hmd::supervisor::ChaosEvent;
use stochastic_hmd::{derive_seed, encode_frame, Frame, RequeryConfig};

/// Ground truth of one query, and so its expected disposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A benign program from the test fold: expect `Served`, benign.
    Benign,
    /// A natural malware program from the test fold: expect `Served`,
    /// malware.
    Malware,
    /// Malware padded by `shmd_attack` until a proxy of the baseline
    /// calls it benign: expect `Served`; flagging it is the defence.
    Evasive,
    /// A malformed query (non-finite feature or wrong width): expect
    /// `Rejected`.
    Poison,
}

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Eight tenants, 32-query frames: per-frame layers and the journal
    /// flush dominate.
    WireSmall,
    /// One tenant, 1024-query frames: the kernel, detector and serve
    /// batch dominate.
    WireBulk,
    /// Four tenants, 128-query frames with poison, re-query, chaos and
    /// operator snapshots.
    RequeryMix,
}

impl Workload {
    /// Every workload, in the order the notes describe them.
    pub const ALL: [Workload; 3] = [
        Workload::WireSmall,
        Workload::WireBulk,
        Workload::RequeryMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::WireBulk => "wire_bulk",
            Workload::RequeryMix => "requery_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::WireSmall => Spec {
                tenants: 8,
                frame_queries: 32,
                pass_frames: 8 * 150 + 5,
                evasive_share: 0.2,
                malware_share: 0.4,
                poison: false,
                requery: None,
                chaos: false,
                snapshot_every: None,
                tenant_quota: None,
            },
            Workload::WireBulk => Spec {
                tenants: 1,
                frame_queries: 1024,
                pass_frames: 8 * 30 + 5,
                evasive_share: 0.2,
                malware_share: 0.4,
                poison: false,
                requery: None,
                chaos: false,
                snapshot_every: None,
                tenant_quota: None,
            },
            Workload::RequeryMix => Spec {
                tenants: 4,
                frame_queries: 128,
                pass_frames: 8 * 80 + 5,
                evasive_share: 0.4,
                malware_share: 0.3,
                poison: true,
                requery: Some(RequeryConfig::new(REQUERY_BAND, REQUERY_REPLICAS)),
                chaos: true,
                snapshot_every: Some(64),
                tenant_quota: Some(2 * 128),
            },
        }
    }
}

/// Half-width of the re-query band on `requery_mix`.
pub const REQUERY_BAND: f64 = 0.3;

/// Ensemble draws per band hit on `requery_mix`.
pub const REQUERY_REPLICAS: usize = 8;

/// Rounds at the start of every pass left out of the timed figures.
pub const WARMUP_ROUNDS: usize = 8;

/// The shape of one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Clients, each with one frame in flight.
    pub tenants: usize,
    /// Queries per submit frame.
    pub frame_queries: usize,
    /// Frames in one pass. Chosen `≡ 5 (mod 8)` so a pass never ends on
    /// a checkpoint boundary and recovery always has a tail to replay.
    pub pass_frames: usize,
    /// Share of well-formed queries that are evasive malware.
    pub evasive_share: f64,
    /// Share of well-formed queries that are natural malware (the rest
    /// are benign).
    pub malware_share: f64,
    /// One poison query per frame.
    pub poison: bool,
    /// Selective re-query band, with the anomaly scorer installed.
    pub requery: Option<RequeryConfig>,
    /// The seeded chaos plan (crashes, a hang, a cooling spike) in a
    /// drifting environment.
    pub chaos: bool,
    /// A `Snapshot` control frame after every this many submissions.
    pub snapshot_every: Option<usize>,
    /// Per-tenant queued-query quota.
    pub tenant_quota: Option<usize>,
}

impl Spec {
    /// Chaos events for one pass: two crashes and one cooling spike from
    /// [`stochastic_hmd::ChaosPlan::seeded`] plus one hang, all inside
    /// the first half of the pass so its tail (the part recovery
    /// replays) is calm.
    pub fn chaos_events(&self, seed: u64, shards: usize) -> Vec<ChaosEvent> {
        let horizon = (self.pass_frames / 2) as u64;
        let mut events = stochastic_hmd::ChaosPlan::seeded(seed, shards, horizon, 2, 1)
            .events()
            .to_vec();
        events.push(ChaosEvent::Hang {
            batch: derive_seed(seed, &[HANG_TAG, 0]) % horizon,
            shard: (derive_seed(seed, &[HANG_TAG, 1]) % shards as u64) as usize,
        });
        events
    }
}

const STREAM_TAG: u64 = 0x5354_5245_414d;
const HANG_TAG: u64 = 0x4841_4e47;

/// Feature vectors to draw queries from, by kind.
pub struct Pools {
    /// Benign test-fold programs.
    pub benign: Vec<Vec<f32>>,
    /// Natural malware test-fold programs.
    pub malware: Vec<Vec<f32>>,
    /// Evasive variants crafted against the proxy.
    pub evasive: Vec<Vec<f32>>,
}

/// One pass's worth of frames and their ground truth.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Submit frames, in submission order.
    pub frames: Vec<Frame>,
    /// The kind of every query, frame by frame.
    pub kinds: Vec<Vec<Kind>>,
}

impl Stream {
    /// Draws `frames` submit frames from `pools` with seeded sampling.
    pub fn generate(spec: &Spec, pools: &Pools, frames: usize, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[STREAM_TAG]));
        let dim = pools.benign.first().map_or(0, Vec::len);
        let mut out = Stream {
            frames: Vec::with_capacity(frames),
            kinds: Vec::with_capacity(frames),
        };
        for k in 0..frames {
            let poison_at = spec.poison.then(|| rng.gen_range(0..spec.frame_queries));
            let mut queries = Vec::with_capacity(spec.frame_queries);
            let mut kinds = Vec::with_capacity(spec.frame_queries);
            for i in 0..spec.frame_queries {
                if poison_at == Some(i) {
                    let mut bad = vec![0.25f32; dim];
                    if k % 2 == 0 {
                        bad[rng.gen_range(0..dim)] = f32::NAN;
                    } else {
                        bad.push(0.25);
                    }
                    queries.push(bad);
                    kinds.push(Kind::Poison);
                    continue;
                }
                let u: f64 = rng.gen();
                let (kind, pool) = if u < spec.evasive_share {
                    (Kind::Evasive, &pools.evasive)
                } else if u < spec.evasive_share + spec.malware_share {
                    (Kind::Malware, &pools.malware)
                } else {
                    (Kind::Benign, &pools.benign)
                };
                queries.push(pool[rng.gen_range(0..pool.len())].clone());
                kinds.push(kind);
            }
            out.frames.push(Frame::SubmitBatch {
                tenant: (k % spec.tenants) as u32,
                queries,
            });
            out.kinds.push(kinds);
        }
        out
    }

    /// Whether two streams send the same bytes with the same ground
    /// truth (poison NaNs compare by bits, not by value).
    pub fn same_as(&self, other: &Stream) -> bool {
        self.kinds == other.kinds
            && self.frames.len() == other.frames.len()
            && self
                .frames
                .iter()
                .zip(&other.frames)
                .all(|(a, b)| encode_frame(a) == encode_frame(b))
    }

    /// The queries of frame `k`.
    pub fn queries(&self, k: usize) -> &[Vec<f32>] {
        match &self.frames[k] {
            Frame::SubmitBatch { queries, .. } => queries,
            _ => &[],
        }
    }
}
