//! svcbench — the MiF service path, end to end and layer by layer.
//!
//! `svcbench --workload <ior_shared|meta_storm|zipf_churn> --seed N
//!  --seconds S --trace <0|1>`
//!
//! A run repeats rounds of one workload until `S` seconds have passed
//! (at least two rounds). Each round builds a fresh file system from the
//! seed, serves the workload's request stream through `mif-server` with
//! one client thread and one worker shard, and checks the end state.
//! Every round at one seed must produce bit-identical modelled figures
//! and layout counts; a difference fails the run.
//!
//! With `--trace 0` the last stdout line is a JSON object of end-to-end
//! metrics; with `--trace 1` rounds alternate between the server and a
//! traced single-thread replay, and the JSON holds per-layer metrics.
//! A failed check prints `"correct": false` and exits with status 1.

mod plan;
mod round;
mod service;
mod traced;
mod workloads;

use std::time::Instant;

use plan::CLASSES;
use round::{run_round, Acks, RoundOut};
use traced::{Layer, Ledger, Span, LAYERS};
use workloads::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: svcbench --workload <ior_shared|meta_storm|zipf_churn> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Smallest sample count that lets p99 leave ten samples beyond it.
const MIN_CLASS_SAMPLES: usize = 1000;

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    errors: Vec<String>,
}

impl Report {
    /// A metric of the JSON result line.
    fn put(&mut self, name: &str, value: f64, unit: &'static str, clock: &str, note: &str) {
        println!("metric {name:<28} {value:>16.4} {unit:<7} {clock:<5} {note}");
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A figure printed beside the metrics but kept out of the JSON line
    /// (see `end_to_end`).
    fn show(&mut self, name: &str, value: f64, unit: &'static str, clock: &str, note: &str) {
        println!("figure {name:<28} {value:>16.4} {unit:<7} {clock:<5} {note}");
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite"));
        }
    }
}

/// End-to-end figures. The JSON line holds set-up time, the modelled
/// figures, the layout figures and peak RSS. Throughput and ack latency
/// are wall-clock figures of two threads handing requests to each other;
/// on a shared host they follow the host's wake-up latency and memory
/// speed, which drift by more than a quarter from minute to minute, so
/// they are printed per run (median over rounds) but are not part of
/// the result a change is judged by.
fn end_to_end(rounds: &[RoundOut], rep: &mut Report) {
    let first = &rounds[0];
    let served: Vec<&RoundOut> = rounds.iter().filter(|r| r.ledger.is_none()).collect();
    rep.put(
        "setup_s",
        median(rounds.iter().map(|r| r.setup_s).collect()),
        "s",
        "wall",
        &format!("median of {} rounds", rounds.len()),
    );
    let ops: Vec<f64> = served
        .iter()
        .map(|r| (r.attempted - r.failed) as f64 / r.wall_s)
        .collect();
    rep.show(
        "ops_per_s",
        median(ops),
        "ops/s",
        "wall",
        &format!("median of {} rounds", served.len()),
    );
    for class in CLASSES {
        let per_round: Vec<Acks> = served.iter().map(|r| r.acks[class as usize]).collect();
        let fewest = per_round.iter().map(|a| a.n).min().unwrap_or(0);
        if fewest < MIN_CLASS_SAMPLES {
            rep.errors.push(format!(
                "{} acks: {fewest} samples in a round, {MIN_CLASS_SAMPLES} needed",
                class.name()
            ));
            continue;
        }
        let n: usize = per_round.iter().map(|a| a.n).sum();
        let note = format!(
            "n={n} ({fewest}+ per round), median of {} rounds",
            served.len()
        );
        for (tag, pick) in [("p50", 0), ("p99", 1)] {
            let v: Vec<f64> = per_round
                .iter()
                .map(|a| [a.p50_ns, a.p99_ns][pick] as f64 / 1e3)
                .collect();
            rep.show(
                &format!("{}_ack_{tag}_us", class.name()),
                median(v),
                "us",
                "wall",
                &note,
            );
        }
    }
    let m = &first.model;
    rep.put("model_write_mib_s", m.write_mib_s(), "MiB/s", "model", "");
    rep.put("model_read_mib_s", m.read_mib_s(), "MiB/s", "model", "");
    rep.put(
        "model_meta_ops_per_s",
        m.meta_ops_per_s(),
        "ops/s",
        "model",
        "",
    );
    rep.put(
        "extents_per_file",
        first.extents_per_file,
        "extents",
        "model",
        "",
    );
    rep.put("space_amp", first.space_amp, "ratio", "model", "");
    rep.put("peak_rss_mib", peak_rss_mib(), "MiB", "wall", "");
}

fn per_layer(rounds: &[RoundOut], rep: &mut Report) {
    let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.ledger.is_some()).collect();
    let served: Vec<&RoundOut> = rounds.iter().filter(|r| r.ledger.is_none()).collect();
    let first = traced[0];
    let mut layers = [Span::default(); LAYERS.len()];
    let mut quiesce = Span::default();
    let mut maintain = Span::default();
    for r in &traced {
        let l = r.ledger.as_ref().expect("traced round");
        for (acc, s) in layers.iter_mut().zip(l.layers) {
            acc.absorb(s);
        }
        quiesce.absorb(r.quiesce);
        maintain.absorb(r.maintain);
    }
    let ledger: &Ledger = first.ledger.as_ref().expect("traced round");
    let span = |l: Layer| layers[l as usize];
    let wall = |name: &str, s: Span, rep: &mut Report| {
        rep.put(
            name,
            s.mean_ns(),
            "ns",
            "wall",
            &format!("calls={}", s.calls),
        );
    };
    wall("protocol.decode_ns", span(Layer::Decode), rep);
    rep.put(
        "protocol.frame_bytes",
        ledger.frame_bytes as f64 / ledger.frames as f64,
        "bytes",
        "count",
        &format!("frames={}", ledger.frames),
    );
    wall("queue.push_ns", span(Layer::Push), rep);
    wall("queue.pop_batch_ns", span(Layer::PopBatch), rep);
    rep.put(
        "queue.parks",
        ledger.queue_parks as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "queue.max_depth",
        ledger.queue_max_depth as f64,
        "count",
        "count",
        "",
    );
    wall("session.dispatch_ns", span(Layer::Dispatch), rep);
    wall("session.deliver_ns", span(Layer::Deliver), rep);
    rep.put(
        "session.sessions",
        ledger.sessions as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "session.admission_parks",
        ledger.admission_parks as f64,
        "count",
        "count",
        "",
    );
    wall("concurrent.open_ns", span(Layer::Open), rep);
    wall("concurrent.create_ns", span(Layer::Create), rep);
    wall("concurrent.close_ns", span(Layer::Close), rep);
    wall("concurrent.write_ns", span(Layer::Write), rep);
    let c = &first.contention;
    rep.put(
        "alloc.lockfree_claims",
        c.lockfree_window_claims as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "alloc.policy_extends",
        c.locked_policy_extends as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "alloc.lockfree_share",
        c.lockfree_window_claims as f64
            / (c.lockfree_window_claims + c.locked_policy_extends).max(1) as f64,
        "ratio",
        "count",
        "",
    );
    wall("groupcommit.commit_ns", span(Layer::Commit), rep);
    rep.put(
        "groupcommit.records",
        c.wal_records as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "groupcommit.flushes",
        c.wal_flushes as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "groupcommit.records_per_flush",
        c.wal_records as f64 / c.wal_flushes.max(1) as f64,
        "ratio",
        "count",
        "",
    );
    rep.put(
        "groupcommit.backpressure_parks",
        c.wal_backpressure_parks as f64,
        "count",
        "count",
        "",
    );
    wall("concurrent.sync_ns", span(Layer::Sync), rep);
    rep.put(
        "concurrent.writeback_batches",
        c.writeback_batches as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "concurrent.writeback_requests",
        c.writeback_requests as f64,
        "count",
        "count",
        "",
    );
    wall("concurrent.read_ns", span(Layer::Read), rep);
    for &(name, v) in &first.io {
        let (unit, clock) = match name {
            "simdisk.busy_ns" => ("ns", "model"),
            "simdisk.bytes_read" | "simdisk.bytes_written" => ("bytes", "count"),
            "simdisk.seek_distance_cyl" => ("cyl", "count"),
            _ => ("count", "count"),
        };
        rep.put(name, v as f64, unit, clock, "");
    }
    let m = &first.model;
    rep.put(
        "mds.journal_records",
        m.mds_journal_records as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "mds.disk_dispatched",
        m.mds_disk_dispatched as f64,
        "count",
        "count",
        "",
    );
    wall("concurrent.quiesce_ns", quiesce, rep);
    rep.put(
        "tier.replica_runs",
        first.maint.replicas_placed as f64,
        "count",
        "count",
        "",
    );
    rep.put(
        "defrag.blocks_moved",
        first.maint.defrag.blocks_moved as f64,
        "count",
        "count",
        "",
    );

    // Diagnostics outside the JSON: the remaining spans, and the ledger
    // set against the untraced rounds.
    for l in [Layer::Encode, Layer::Admit, Layer::MarkApplied, Layer::Reap] {
        let s = span(l);
        println!(
            "layer  {:<28} {:>12.1} ns wall  calls={}",
            format!("{}_ns", l.name()),
            s.mean_ns(),
            s.calls
        );
    }
    // Modelled per-op MDS cost: constant on workloads whose only MDS ops
    // are cached lookups, so it is printed here rather than in the JSON.
    println!(
        "layer  {:<28} {:>12.1} ns model calls={}",
        "mds.model_ns_per_op",
        m.mds_ns as f64 / m.mds_ops.max(1) as f64,
        m.mds_ops
    );
    if maintain.calls > 0 {
        println!(
            "layer  {:<28} {:>12.1} ns wall  calls={} (tiering + defrag pass; replicas placed {}, groups encoded {})",
            "tier.maintain_ns",
            maintain.mean_ns(),
            maintain.calls,
            first.maint.replicas_placed,
            first.maint.groups_encoded
        );
    }
    ledger_vs_untraced(&traced, &served);
}

/// Per request class: the summed layer time the traced replay charged to
/// each request, beside the untraced cost per request. The untraced cost
/// splits each phase's wall time over classes in proportion to their
/// traced time in that phase (phases are the only boundaries both runs
/// share). `gap` is untraced − traced: negative where the two server
/// threads overlap work, positive where hand-offs or tracing cost show.
fn ledger_vs_untraced(traced: &[&RoundOut], served: &[&RoundOut]) {
    let ledger = traced[0].ledger.as_ref().expect("traced round");
    let mut untraced_ns = [0f64; 3];
    let mut traced_ns = [0f64; 3];
    let mut requests = [0u64; 3];
    for &(stage, name, _) in &served[0].phase_wall_ns {
        let wall = served
            .iter()
            .map(|r| {
                r.phase_wall_ns
                    .iter()
                    .find(|p| p.0 == stage)
                    .map_or(0, |p| p.2) as f64
            })
            .sum::<f64>()
            / served.len() as f64;
        let charged: [f64; 3] = std::array::from_fn(|c| {
            traced
                .iter()
                .map(|r| {
                    r.ledger
                        .as_ref()
                        .expect("traced")
                        .charged
                        .get(stage)
                        .map_or(0, |s| s[c].ns)
                })
                .sum::<u64>() as f64
                / traced.len() as f64
        });
        let total: f64 = charged.iter().sum();
        let counts = ledger
            .charged
            .get(stage)
            .map_or([0; 3], |s| s.map(|x| x.calls));
        println!(
            "phase  {name:<12} stage {stage:<2} untraced wall {:>10.3} ms · traced layer sum {:>10.3} ms · requests w/r/m {}/{}/{}",
            wall / 1e6,
            total / 1e6,
            counts[0],
            counts[1],
            counts[2]
        );
        for c in 0..3 {
            traced_ns[c] += charged[c];
            if total > 0.0 {
                untraced_ns[c] += wall * charged[c] / total;
            }
            requests[c] += counts[c];
        }
    }
    for class in CLASSES {
        let c = class as usize;
        let n = requests[c].max(1) as f64;
        println!(
            "class  {:<6} requests {:>7} · traced layer sum {:>9.2} us/req · untraced {:>9.2} us/req · gap {:>+9.2} us/req",
            class.name(),
            requests[c],
            traced_ns[c] / n / 1e3,
            untraced_ns[c] / n / 1e3,
            (untraced_ns[c] - traced_ns[c]) / n / 1e3
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (clients, window) = args.kind.clients_and_window();
    println!(
        "svcbench {} seed={} seconds={} trace={} · {clients} simulated clients × window {window} on 1 client thread · 1 worker shard · available_parallelism={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let start = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        let r = run_round(args.kind, args.seed, traced);
        println!(
            "round {:>2} {} setup {:.3} s · timed {:.3} s · {} requests · p50/p99 us w {}/{} r {}/{} m {}/{}",
            rounds.len(),
            if traced { "traced  " } else { "untraced" },
            r.setup_s,
            r.wall_s,
            r.attempted,
            r.acks[0].p50_ns / 1000,
            r.acks[0].p99_ns / 1000,
            r.acks[1].p50_ns / 1000,
            r.acks[1].p99_ns / 1000,
            r.acks[2].p50_ns / 1000,
            r.acks[2].p99_ns / 1000,
        );
        rounds.push(r);
    }

    let mut rep = Report {
        metrics: Vec::new(),
        errors: Vec::new(),
    };
    for (i, r) in rounds.iter().enumerate() {
        rep.errors
            .extend(r.errors.iter().map(|e| format!("round {i}: {e}")));
    }
    // Every round replays one seed: modelled figures and layout counts
    // must repeat exactly, through either transport.
    let fp0 = rounds[0].fingerprint();
    for (i, r) in rounds.iter().enumerate().skip(1) {
        for ((k, a), (_, b)) in fp0.iter().zip(r.fingerprint()) {
            if *a != b {
                rep.errors
                    .push(format!("round {i}: {k} differs from round 0 ({a} vs {b})"));
            }
        }
    }
    if args.trace {
        per_layer(&rounds, &mut rep);
    } else {
        end_to_end(&rounds, &mut rep);
    }
    for e in &rep.errors {
        eprintln!("svcbench: CHECK FAILED: {e}");
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let correct = rep.errors.is_empty();
    println!("{}", json(correct, attempted, failed, &rep.metrics));
    if !correct {
        std::process::exit(1);
    }
}
