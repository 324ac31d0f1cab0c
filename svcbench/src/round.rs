//! One round: build a workload instance, serve its request stream through
//! a transport, then check the end state against the benchmark's own
//! expectations and offline fsck.

use std::time::Instant;

use mif_alloc::FileId;
use mif_core::{ConcurrentFs, ContentionSnapshot, FileSystem, OpenFile};
use mif_fsck::FsckOptions;
use mif_mds::Mds;
use mif_tier::MaintenanceStats;

use crate::plan::{run_phase, DataKind, Stage, Tally, Transport};
use crate::service::ServiceTransport;
use crate::traced::{Ledger, Span, TracedTransport};
use crate::workloads::{build, Hooks, Kind};

/// Modelled (simdisk / MDS clock) totals of a round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    pub write_bytes: u64,
    pub write_ns: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub mds_ops: u64,
    pub mds_ns: u64,
    pub mds_journal_records: u64,
    pub mds_disk_dispatched: u64,
}

const MIB: f64 = 1024.0 * 1024.0;

impl Model {
    pub fn write_mib_s(&self) -> f64 {
        self.write_bytes as f64 / MIB / (self.write_ns as f64 / 1e9)
    }
    pub fn read_mib_s(&self) -> f64 {
        self.read_bytes as f64 / MIB / (self.read_ns as f64 / 1e9)
    }
    pub fn meta_ops_per_s(&self) -> f64 {
        self.mds_ops as f64 / (self.mds_ns as f64 / 1e9)
    }
}

#[derive(Debug, Clone, Copy)]
struct MdsSnap {
    ops: u64,
    ns: u64,
    journal: u64,
    dispatched: u64,
}

impl MdsSnap {
    fn of(mds: &mut Mds) -> Self {
        MdsSnap {
            ops: mds.op_stats().total_ops(),
            ns: mds.total_elapsed_ns(),
            journal: mds.journal_records(),
            dispatched: mds.disk_stats().dispatched,
        }
    }
}

/// Exact nearest-rank percentile of a sorted sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One ack class of one round: sample count, exact p50 and p99 in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acks {
    pub n: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Everything one round produced.
pub struct RoundOut {
    pub setup_s: f64,
    /// Wall time of the timed window (every stage, hooks included).
    pub wall_s: f64,
    /// Wall time of each traffic phase, by stage index.
    pub phase_wall_ns: Vec<(usize, &'static str, u64)>,
    /// Requests attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Per [`crate::plan::Class`]; the samples themselves are dropped at
    /// the end of the round, so memory does not grow with the run.
    pub acks: [Acks; 3],
    pub model: Model,
    pub extents_per_file: f64,
    pub space_amp: f64,
    pub contention: ContentionSnapshot,
    pub io: Vec<(&'static str, u64)>,
    pub quiesce: Span,
    pub maintain: Span,
    pub maint: MaintenanceStats,
    pub ledger: Option<Ledger>,
    pub errors: Vec<String>,
}

impl RoundOut {
    /// The figures that must repeat bit for bit at one seed, whichever
    /// transport served the round.
    pub fn fingerprint(&self) -> Vec<(String, u64)> {
        let c = &self.contention;
        let mut fp: Vec<(String, u64)> = vec![
            (
                "model_write_mib_s".into(),
                self.model.write_mib_s().to_bits(),
            ),
            ("model_read_mib_s".into(), self.model.read_mib_s().to_bits()),
            (
                "model_meta_ops_per_s".into(),
                self.model.meta_ops_per_s().to_bits(),
            ),
            ("extents_per_file".into(), self.extents_per_file.to_bits()),
            ("space_amp".into(), self.space_amp.to_bits()),
            ("mds.journal_records".into(), self.model.mds_journal_records),
            ("mds.disk_dispatched".into(), self.model.mds_disk_dispatched),
            ("alloc.lockfree_claims".into(), c.lockfree_window_claims),
            ("alloc.policy_extends".into(), c.locked_policy_extends),
            ("concurrent.writeback_batches".into(), c.writeback_batches),
            ("concurrent.writeback_requests".into(), c.writeback_requests),
            ("groupcommit.records".into(), c.wal_records),
            ("tier.replica_runs".into(), self.maint.replicas_placed),
            ("defrag.blocks_moved".into(), self.maint.defrag.blocks_moved),
        ];
        fp.extend(self.io.iter().map(|&(k, v)| (k.to_string(), v)));
        fp
    }
}

fn add_contention(acc: &mut ContentionSnapshot, s: ContentionSnapshot) {
    acc.write_ops += s.write_ops;
    acc.disk_lock_acquisitions += s.disk_lock_acquisitions;
    acc.lockfree_window_claims += s.lockfree_window_claims;
    acc.locked_policy_extends += s.locked_policy_extends;
    acc.writeback_batches += s.writeback_batches;
    acc.writeback_requests += s.writeback_requests;
    acc.wal_records += s.wal_records;
    acc.wal_flushes += s.wal_flushes;
    acc.wal_max_batch = acc.wal_max_batch.max(s.wal_max_batch);
    acc.wal_backpressure_parks += s.wal_backpressure_parks;
}

pub fn run_round(kind: Kind, seed: u64, traced: bool) -> RoundOut {
    let t0 = Instant::now();
    let built = build(kind, seed);
    let mut engine = built.engine;
    let mds0 = MdsSnap::of(engine.mds());
    let cfs = ConcurrentFs::from_engine(engine);
    let (_, window) = kind.clients_and_window();
    let cfg = kind.server_config();
    let mut t: Box<dyn Transport> = if traced {
        Box::new(TracedTransport::new(cfs, cfg, window))
    } else {
        Box::new(ServiceTransport::start(cfs, cfg, window))
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let io0 = t.fs().stats().io;
    let mut tally = Tally::default();
    for (name, h) in &built.setup_handles {
        tally.handles.insert(name.clone(), *h);
    }
    let mut hooks = Hooks::new();
    let mut contention = ContentionSnapshot::default();
    let mut model = Model::default();
    let mut errors = Vec::new();
    let mut phase_wall_ns = Vec::new();
    let timed = Instant::now();
    for (i, stage) in built.stages.iter().enumerate() {
        match stage {
            Stage::Traffic(phase) => {
                t.begin_phase(i);
                let (d0, w0, r0) = (
                    t.fs().data_elapsed_ns(),
                    tally.bytes_written,
                    tally.bytes_read,
                );
                let pt = Instant::now();
                run_phase(t.as_mut(), phase, window, &mut tally);
                phase_wall_ns.push((i, phase.name, pt.elapsed().as_nanos() as u64));
                let dt = t.fs().data_elapsed_ns() - d0;
                if phase.data != DataKind::Read {
                    model.write_ns += dt;
                    model.write_bytes += tally.bytes_written - w0;
                }
                if phase.data != DataKind::Write {
                    model.read_ns += dt;
                    model.read_bytes += tally.bytes_read - r0;
                }
                let durable = t.fs().wal_durable_watermark();
                if durable < tally.acked_writes_since_quiesce {
                    errors.push(format!(
                        "phase {}: WAL durable watermark {durable} < {} acked writes",
                        phase.name, tally.acked_writes_since_quiesce
                    ));
                }
            }
            &Stage::Quiesce(hook) => {
                t.quiesce(&mut |cfs| {
                    add_contention(&mut contention, cfs.stats().contention);
                    hooks.run(hook, cfs)
                });
                tally.acked_writes_since_quiesce = 0;
            }
        }
    }
    let wall_s = timed.elapsed().as_secs_f64();
    let cfs = t.finish();
    let ledger = t.ledger().cloned();
    let stats = cfs.stats();
    add_contention(&mut contention, stats.contention);
    let io1 = stats.io;
    let io = vec![
        ("simdisk.dispatched", io1.dispatched - io0.dispatched),
        ("simdisk.seeks", io1.seeks - io0.seeks),
        (
            "simdisk.seek_distance_cyl",
            io1.seek_distance_cyl - io0.seek_distance_cyl,
        ),
        ("simdisk.cache_hits", io1.cache_hits - io0.cache_hits),
        ("simdisk.bytes_read", io1.bytes_read - io0.bytes_read),
        (
            "simdisk.bytes_written",
            io1.bytes_written - io0.bytes_written,
        ),
        ("simdisk.busy_ns", io1.busy_ns - io0.busy_ns),
    ];

    let mut engine = cfs.into_engine();
    let mds1 = MdsSnap::of(engine.mds());
    model.mds_ops = mds1.ops - mds0.ops;
    model.mds_ns = mds1.ns - mds0.ns;
    model.mds_journal_records = mds1.journal - mds0.journal;
    model.mds_disk_dispatched = mds1.dispatched - mds0.dispatched;

    if tally.failed > 0 {
        errors.push(format!(
            "{} of {} requests failed",
            tally.failed, tally.attempted
        ));
    }
    if tally.open_mismatches > 0 {
        errors.push(format!(
            "{} opens returned another handle than the name's create",
            tally.open_mismatches
        ));
    }
    let expected_reads: u64 = built
        .stages
        .iter()
        .filter_map(|s| match s {
            Stage::Traffic(p) => Some(p),
            Stage::Quiesce(_) => None,
        })
        .flat_map(|p| p.programs.iter().flat_map(|prog| prog.steps.iter()))
        .filter(|s| matches!(s, crate::plan::Step::Read { .. }))
        .count() as u64;
    if tally.reads_ok != expected_reads {
        errors.push(format!(
            "{} reads acked ok, {expected_reads} sent",
            tally.reads_ok
        ));
    }
    let (extents_per_file, user_blocks) =
        check_files(&engine, &built.expect_sizes, &tally, &mut errors);
    let space_amp =
        (built.capacity_blocks - engine.free_blocks()) as f64 / user_blocks.max(1) as f64;
    let report = mif_fsck::run(&mut engine, &FsckOptions::offline_repair());
    if !report.clean() || report.repaired != 0 {
        errors.push(format!("offline fsck: {}", report.summary()));
    }

    let acks = tally.samples.map(|mut v| {
        v.sort_unstable();
        if v.is_empty() {
            return Acks::default();
        }
        Acks {
            n: v.len(),
            p50_ns: percentile(&v, 0.50),
            p99_ns: percentile(&v, 0.99),
        }
    });
    RoundOut {
        setup_s,
        wall_s,
        phase_wall_ns,
        attempted: tally.attempted,
        failed: tally.failed,
        acks,
        model,
        extents_per_file,
        space_amp,
        contention,
        io,
        quiesce: hooks.quiesce,
        maintain: hooks.maintain,
        maint: hooks.maint,
        ledger,
        errors,
    }
}

/// Compare every live file with the workload's own record: the same set
/// of files, each with the expected size, and at least one extent on
/// every stripe column its size reaches. Returns the mean extent count
/// and the user data in blocks.
fn check_files(
    engine: &FileSystem,
    expect: &std::collections::BTreeMap<String, u64>,
    tally: &Tally,
    errors: &mut Vec<String>,
) -> (f64, u64) {
    let live = engine.file_handles();
    if live.len() != expect.len() {
        errors.push(format!(
            "{} live files, {} expected",
            live.len(),
            expect.len()
        ));
    }
    let stripe = engine.config.stripe_blocks;
    let mut bad = 0u64;
    for (name, &size) in expect {
        let Some(&h) = tally.handles.get(name) else {
            bad += 1;
            continue;
        };
        let f = OpenFile(FileId(h));
        let columns = (engine.column_count(f) as u64).min(size.div_ceil(stripe));
        if engine.file_size(f) != size || engine.file_extents(f) < columns {
            bad += 1;
        }
    }
    if bad > 0 {
        errors.push(format!(
            "{bad} files differ from the expected size or layout floor"
        ));
    }
    let extents: u64 = live.iter().map(|&f| engine.file_extents(f)).sum();
    (
        extents as f64 / live.len().max(1) as f64,
        expect.values().sum(),
    )
}
