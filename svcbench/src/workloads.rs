//! The three workloads: set-up, request stream and expected end state.
//!
//! Every workload runs the paper's configuration — on-demand
//! preallocation (§III) with the embedded directory (§IV) — on four OSTs
//! whose data caches hold 4 × 65 536 blocks (4 × 256 MiB).

use std::collections::BTreeMap;
use std::time::Instant;

use mif_alloc::{PolicyKind, StreamId};
use mif_core::{ConcurrentFs, FileSystem, FsConfig, OpenFile};
use mif_mds::{DirMode, RemapWal};
use mif_rng::{SliceRandom, SmallRng};
use mif_server::ServerConfig;
use mif_tier::{MaintenanceStats, TierConfig, TierEngine};
use mif_workloads::ZipfGen;

use crate::plan::{DataKind, Hook, Phase, Program, Stage, Step};
use crate::traced::Span;

pub const OSTS: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    IorShared,
    MetaStorm,
    ZipfChurn,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "ior_shared" => Some(Kind::IorShared),
            "meta_storm" => Some(Kind::MetaStorm),
            "zipf_churn" => Some(Kind::ZipfChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::IorShared => "ior_shared",
            Kind::MetaStorm => "meta_storm",
            Kind::ZipfChurn => "zipf_churn",
        }
    }

    /// Simulated clients and the pipeline window each keeps in flight.
    pub fn clients_and_window(self) -> (usize, usize) {
        match self {
            Kind::IorShared => (IOR_RANKS as usize, 4),
            Kind::MetaStorm => (META_CLIENTS as usize, 2),
            Kind::ZipfChurn => (ZIPF_CLIENTS as usize, 4),
        }
    }

    /// One worker shard; the queue holds every in-flight request, so the
    /// client thread never parks on it.
    pub fn server_config(self) -> ServerConfig {
        let (clients, window) = self.clients_and_window();
        ServerConfig {
            workers: 1,
            queue_capacity: clients * window,
            admission_window: window,
            replay_cache: 4,
            batch: 64,
            worker_delay_ns: 0,
        }
    }
}

/// A workload instance, ready to serve.
pub struct Built {
    /// The serial engine after population and aging.
    pub engine: FileSystem,
    /// Free blocks of the fresh file system (the space-amplification base).
    pub capacity_blocks: u64,
    pub stages: Vec<Stage>,
    /// Every file that must be live at the end, with its size in blocks.
    pub expect_sizes: BTreeMap<String, u64>,
    /// Handles of files created during set-up (not through `Create`).
    pub setup_handles: Vec<(String, u64)>,
}

fn config() -> FsConfig {
    FsConfig::with_modes(PolicyKind::OnDemand, OSTS, DirMode::Embedded)
}

pub fn build(kind: Kind, seed: u64) -> Built {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EB_C4A5E);
    match kind {
        Kind::IorShared => ior_shared(&mut rng),
        Kind::MetaStorm => meta_storm(&mut rng),
        Kind::ZipfChurn => zipf_churn(&mut rng, seed),
    }
}

// ----- ior_shared --------------------------------------------------------

/// N-1 checkpoint (IOR segmented layout): 64 ranks, 20 timesteps, each
/// rank writing one 1 MiB block per timestep in 64 KiB transfers. Block
/// `(step, rank)` sits at `(step * RANKS + rank) * BLOCK`. The file is
/// 20 × 64 MiB = 1.25 GiB, larger than the 1 GiB of data caches.
pub const IOR_RANKS: u64 = 64;
const IOR_STEPS: u64 = 20;
const IOR_BLOCK: u64 = 256;
const IOR_XFER: u64 = 16;
const IOR_FILE: &str = "checkpoint.shared";

fn ior_program(rank: u64, owner: u64, read: bool) -> Program {
    let mut steps = Vec::new();
    for step in 0..IOR_STEPS {
        // Each timestep reopens the shared file, as a checkpoint library
        // does; the ranks together keep it open across timesteps.
        steps.push(Step::Open(IOR_FILE.into()));
        let base = (step * IOR_RANKS + owner) * IOR_BLOCK;
        for x in 0..IOR_BLOCK / IOR_XFER {
            let (offset, len) = (base + x * IOR_XFER, IOR_XFER);
            steps.push(if read {
                Step::Read { offset, len }
            } else {
                Step::Write { offset, len }
            });
        }
        steps.push(Step::Close);
    }
    if !read {
        steps.push(Step::Sync);
    }
    Program {
        client: rank,
        steps,
    }
}

/// Other jobs' files already on the array when `ior_shared` and
/// `meta_storm` start: their holes are where the seed moves the layout,
/// and writing them is set-up work of a steady size.
const BACKGROUND: Aging = Aging {
    prefix: "job",
    rounds: 2,
    creates: 128,
    sizes: 64..=1024,
    unlink_pct: 50,
};

fn ior_shared(rng: &mut SmallRng) -> Built {
    let cfs = ConcurrentFs::new(config());
    let capacity_blocks = cfs.free_blocks();
    let background = age(&cfs, rng, &BACKGROUND);
    // The seed sets which rank starts first (the interleaving, hence the
    // layout) and whose segments each rank reads back.
    let mut order: Vec<u64> = (0..IOR_RANKS).collect();
    order.shuffle(rng);
    let shift = rng.gen_range(1..IOR_RANKS);
    let writes = order.iter().map(|&r| ior_program(r, r, false)).collect();
    let reads = order
        .iter()
        .map(|&r| ior_program(r, (r + shift) % IOR_RANKS, true))
        .collect();
    let stages = vec![
        Stage::Traffic(Phase {
            name: "create",
            data: DataKind::Write,
            programs: vec![Program {
                client: order[0],
                steps: vec![Step::Create(IOR_FILE.into()), Step::Close],
            }],
        }),
        Stage::Traffic(Phase {
            name: "write",
            data: DataKind::Write,
            programs: writes,
        }),
        Stage::Quiesce(Hook::DropCaches { mds: false }),
        Stage::Traffic(Phase {
            name: "read",
            data: DataKind::Read,
            programs: reads,
        }),
        // Reads are serviced at the next flush. One `Sync` after the
        // phase services them all, with no read request queued behind it.
        one_sync("read.sync", DataKind::Read, order[0]),
    ];
    let mut expect_sizes: BTreeMap<String, u64> = background
        .iter()
        .map(|(s, _)| (s.name.clone(), s.size))
        .collect();
    expect_sizes.insert(IOR_FILE.into(), IOR_STEPS * IOR_RANKS * IOR_BLOCK);
    Built {
        engine: cfs.into_engine(),
        capacity_blocks,
        stages,
        expect_sizes,
        setup_handles: background
            .iter()
            .map(|(s, f)| (s.name.clone(), f.0 .0))
            .collect(),
    }
}

// ----- meta_storm --------------------------------------------------------

/// 1024 clients create 10 one-block files each in one embedded directory
/// (10 240 files), then open, read and close 5 files each, chosen
/// uniformly over the whole population after a remount (caches dropped).
/// Creates outnumber lookups two to one, so the median meta ack sits
/// inside the create phase instead of on the edge between the phases.
pub const META_CLIENTS: u64 = 1024;
const META_FILES_PER_CLIENT: u64 = 10;
const META_LOOKUPS_PER_CLIENT: u64 = 5;

fn meta_name(client: u64, i: u64) -> String {
    format!("c{client:04}.f{i}")
}

fn one_sync(name: &'static str, data: DataKind, client: u64) -> Stage {
    Stage::Traffic(Phase {
        name,
        data,
        programs: vec![Program {
            client,
            steps: vec![Step::Sync],
        }],
    })
}

fn meta_storm(rng: &mut SmallRng) -> Built {
    let cfs = ConcurrentFs::new(config());
    let capacity_blocks = cfs.free_blocks();
    let background = age(&cfs, rng, &BACKGROUND);
    let mut order: Vec<u64> = (0..META_CLIENTS).collect();
    order.shuffle(rng);
    let creates = order
        .iter()
        .map(|&c| Program {
            client: c,
            steps: (0..META_FILES_PER_CLIENT)
                .flat_map(|i| {
                    [
                        Step::Create(meta_name(c, i)),
                        Step::Write { offset: 0, len: 1 },
                        Step::Close,
                    ]
                })
                .collect(),
        })
        .collect();
    let lookups = order
        .iter()
        .map(|&c| Program {
            client: c,
            steps: (0..META_LOOKUPS_PER_CLIENT)
                .flat_map(|_| {
                    let name = meta_name(
                        rng.gen_range(0..META_CLIENTS),
                        rng.gen_range(0..META_FILES_PER_CLIENT),
                    );
                    [
                        Step::Open(name),
                        Step::Read { offset: 0, len: 1 },
                        Step::Close,
                    ]
                })
                .collect(),
        })
        .collect();
    let stages = vec![
        Stage::Traffic(Phase {
            name: "create",
            data: DataKind::Write,
            programs: creates,
        }),
        one_sync("create.sync", DataKind::Write, order[0]),
        Stage::Quiesce(Hook::DropCaches { mds: true }),
        Stage::Traffic(Phase {
            name: "lookup",
            data: DataKind::Read,
            programs: lookups,
        }),
        one_sync("lookup.sync", DataKind::Read, order[0]),
    ];
    let mut expect_sizes: BTreeMap<String, u64> = background
        .iter()
        .map(|(s, _)| (s.name.clone(), s.size))
        .collect();
    expect_sizes.extend(
        (0..META_CLIENTS)
            .flat_map(|c| (0..META_FILES_PER_CLIENT).map(move |i| (meta_name(c, i), 1))),
    );
    Built {
        engine: cfs.into_engine(),
        capacity_blocks,
        stages,
        expect_sizes,
        setup_handles: background
            .iter()
            .map(|(s, f)| (s.name.clone(), f.0 .0))
            .collect(),
    }
}

// ----- zipf_churn --------------------------------------------------------

/// The aged population: about 500 files (~310 MiB) survive, so the hot
/// set fits in the data caches.
const ZIPF_AGING: Aging = Aging {
    prefix: "aged",
    rounds: 4,
    creates: 384,
    sizes: 64..=256,
    unlink_pct: 40,
};
/// Traffic: waves of zipf-chosen sessions with a maintenance pass between
/// waves.
const ZIPF_WAVES: u64 = 8;
pub const ZIPF_CLIENTS: u64 = 256;
const ZIPF_OPS: u64 = 12;
const ZIPF_THETA: f64 = 0.8;

struct Shadow {
    name: String,
    size: u64,
}

/// Seeded create/write/unlink rounds through `ConcurrentFs`, leaving
/// free-space holes between the survivors (which stay closed).
struct Aging {
    prefix: &'static str,
    rounds: u64,
    creates: u64,
    sizes: std::ops::RangeInclusive<u64>,
    /// Share of live files unlinked after each round, in percent.
    unlink_pct: u64,
}

fn age(cfs: &ConcurrentFs, rng: &mut SmallRng, a: &Aging) -> Vec<(Shadow, OpenFile)> {
    let mut live: Vec<(Shadow, OpenFile)> = Vec::new();
    for round in 0..a.rounds {
        for i in 0..a.creates {
            let name = format!("{}{round}.{i:03}", a.prefix);
            let size = rng.gen_range(a.sizes.clone());
            let f = cfs.create(&name, None);
            let stream = StreamId::new(u32::MAX - 1, i as u32);
            let mut off = 0;
            while off < size {
                let len = (size - off).min(64);
                cfs.write(f, stream, off, len);
                off += len;
            }
            cfs.close(f);
            live.push((Shadow { name, size }, f));
        }
        for _ in 0..live.len() as u64 * a.unlink_pct / 100 {
            let (_, f) = live.swap_remove(rng.gen_range(0..live.len()));
            cfs.unlink(f);
        }
    }
    live
}

fn zipf_churn(rng: &mut SmallRng, seed: u64) -> Built {
    let cfs = ConcurrentFs::new(config());
    let capacity_blocks = cfs.free_blocks();
    let live = age(&cfs, rng, &ZIPF_AGING);
    let setup_handles = live.iter().map(|(s, f)| (s.name.clone(), f.0 .0)).collect();
    let mut files: Vec<Shadow> = live.into_iter().map(|(s, _)| s).collect();
    // Zipf rank r maps to files[perm[r]]: the hot files are a seeded
    // sample of the aged population; files created by traffic join cold.
    let mut perm: Vec<usize> = (0..files.len()).collect();
    perm.shuffle(rng);
    let mut stages = Vec::new();
    for wave in 0..ZIPF_WAVES {
        let hot_bound: Vec<u64> = files.iter().map(|f| f.size).collect();
        let mut zipf = ZipfGen::new(perm.len() as u64, ZIPF_THETA, seed ^ (wave << 40));
        let mut programs = Vec::new();
        let mut created = Vec::new();
        for c in 0..ZIPF_CLIENTS {
            let mut steps = Vec::new();
            if rng.gen_range(0..16u32) == 0 {
                let name = format!("new{wave}.{c:03}");
                steps.push(Step::Create(name.clone()));
                for i in 0..8 {
                    steps.push(Step::Write {
                        offset: i * 16,
                        len: 16,
                    });
                }
                steps.push(Step::Close);
                created.push(Shadow { name, size: 128 });
            } else {
                let idx = perm[zipf.next_key() as usize];
                let f = &mut files[idx];
                // Reads stay inside the size the file had when the wave
                // began, so they never race an extend of the same wave.
                let stable = hot_bound[idx];
                steps.push(Step::Open(f.name.clone()));
                for _ in 0..ZIPF_OPS {
                    let roll = rng.gen_range(0..100u32);
                    if roll < 80 {
                        let len = rng.gen_range(1..=16u64).min(stable);
                        let offset = rng.gen_range(0..=stable - len);
                        steps.push(Step::Read { offset, len });
                    } else if roll < 94 {
                        let len = rng.gen_range(1..=8u64).min(stable);
                        let offset = rng.gen_range(0..=stable - len);
                        steps.push(Step::Write { offset, len });
                    } else {
                        let len = rng.gen_range(4..=32u64);
                        steps.push(Step::Write {
                            offset: f.size,
                            len,
                        });
                        f.size += len;
                    }
                }
                steps.push(Step::Close);
            }
            programs.push(Program { client: c, steps });
        }
        stages.push(Stage::Traffic(Phase {
            name: "wave",
            data: DataKind::Mixed,
            programs,
        }));
        stages.push(one_sync("wave.sync", DataKind::Mixed, 0));
        if wave + 1 < ZIPF_WAVES {
            stages.push(Stage::Quiesce(Hook::Maintain));
        }
        for s in created {
            perm.push(files.len());
            files.push(s);
        }
    }
    let mut engine = cfs.into_engine();
    engine.release_preallocations();
    Built {
        engine,
        capacity_blocks,
        stages,
        expect_sizes: files.into_iter().map(|s| (s.name, s.size)).collect(),
        setup_handles,
    }
}

// ----- quiesce hooks -----------------------------------------------------

fn tier_config() -> TierConfig {
    let mut cfg = TierConfig::default();
    // The pass runs while the service is stopped: nothing to back off for.
    cfg.defrag.latency_backoff_ns = u64::MAX;
    cfg
}

/// State the hooks carry across one round, and what they cost.
pub struct Hooks {
    tier: TierEngine,
    remap: RemapWal,
    /// `into_engine` + `from_engine` of every quiesce round trip (wall).
    pub quiesce: Span,
    /// `TierEngine::maintain` passes (wall).
    pub maintain: Span,
    pub maint: MaintenanceStats,
}

impl Hooks {
    pub fn new() -> Self {
        Hooks {
            tier: TierEngine::new(tier_config()),
            remap: RemapWal::new(),
            quiesce: Span::default(),
            maintain: Span::default(),
            maint: MaintenanceStats::default(),
        }
    }

    pub fn run(&mut self, hook: Hook, cfs: ConcurrentFs) -> ConcurrentFs {
        let access = matches!(hook, Hook::Maintain).then(|| cfs.drain_access());
        let t = Instant::now();
        let mut fs = cfs.into_engine();
        let mut quiesce_ns = t.elapsed().as_nanos() as u64;
        match hook {
            Hook::DropCaches { mds } => {
                fs.drop_data_caches();
                if mds {
                    fs.mds().drop_caches();
                }
            }
            Hook::Maintain => {
                self.tier.observe(&access.unwrap_or_default());
                fs.release_preallocations();
                let t = Instant::now();
                let s = self
                    .tier
                    .maintain(&mut fs, &mut self.remap)
                    .expect("maintenance IO on a fault-free array");
                self.maintain.add(t.elapsed().as_nanos() as u64);
                self.maint.absorb(&s);
            }
        }
        let t = Instant::now();
        let cfs = ConcurrentFs::from_engine(fs);
        quiesce_ns += t.elapsed().as_nanos() as u64;
        self.quiesce.add(quiesce_ns);
        cfs
    }
}
