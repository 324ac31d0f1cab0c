//! The request stream and the closed loop that plays it.
//!
//! A workload is a list of [`Stage`]s: traffic phases, each a set of
//! simulated-client [`Program`]s, and quiesce hooks between them. The
//! closed loop is shared by both transports (the real server and the
//! traced replay), so both send the engine the identical op sequence.
//!
//! Order is fixed by the ack FIFO, not by timing: the loop always waits
//! for the oldest outstanding request, and only the client it belonged to
//! may submit next. With one worker executing frames in queue order, the
//! engine therefore sees the same ops in the same order on every run.

use std::collections::{HashMap, VecDeque};

use mif_core::ConcurrentFs;
use mif_server::{Op, Reply, SeqNo, Status};

/// End-to-end ack classes. `Sync` counts as a write: it is the
/// durability half of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write = 0,
    Read = 1,
    Meta = 2,
}

pub const CLASSES: [Class; 3] = [Class::Write, Class::Read, Class::Meta];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Write => "write",
            Class::Read => "read",
            Class::Meta => "meta",
        }
    }

    pub fn of(op: &Op) -> Class {
        match op {
            Op::Write { .. } | Op::Sync => Class::Write,
            Op::Read { .. } => Class::Read,
            Op::Create { .. } | Op::Open { .. } | Op::Close { .. } => Class::Meta,
        }
    }
}

/// One step of a simulated client. Data steps and `Close` act on the
/// handle the client's latest `Create`/`Open` returned.
#[derive(Debug, Clone)]
pub enum Step {
    Create(String),
    Open(String),
    Write { offset: u64, len: u64 },
    Read { offset: u64, len: u64 },
    Sync,
    Close,
}

impl Step {
    fn op(&self, handle: u64) -> Op {
        match self {
            Step::Create(name) => Op::Create {
                name: name.clone(),
                size_hint_blocks: None,
            },
            Step::Open(name) => Op::Open { name: name.clone() },
            &Step::Write { offset, len } => Op::Write {
                handle,
                stream: 0,
                offset,
                len,
            },
            &Step::Read { offset, len } => Op::Read {
                handle,
                stream: 0,
                offset,
                len,
            },
            Step::Sync => Op::Sync,
            Step::Close => Op::Close { handle },
        }
    }

    fn yields_handle(&self) -> bool {
        matches!(self, Step::Create(_) | Step::Open(_))
    }
}

/// One simulated client's part in a phase.
#[derive(Debug, Clone)]
pub struct Program {
    pub client: u64,
    pub steps: Vec<Step>,
}

/// Which modelled data-path figure a phase's simulated time counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    Write,
    Read,
    /// Reads and writes side by side: the phase's time counts toward both.
    Mixed,
}

#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub data: DataKind,
    /// Clients start in this order (the workload shuffles it by seed).
    pub programs: Vec<Program>,
}

/// Stop-the-world work between phases, run through the quiesce round
/// trip `ConcurrentFs::into_engine` → … → `ConcurrentFs::from_engine`.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    /// `FileSystem::drop_data_caches`, plus the MDS cache when `mds`.
    DropCaches { mds: bool },
    /// One tiering + defrag maintenance pass.
    Maintain,
}

#[derive(Debug, Clone)]
pub enum Stage {
    Traffic(Phase),
    Quiesce(Hook),
}

/// The two ways a request reaches the engine.
pub trait Transport {
    /// Send `op` for `client`; returns its seq_no and `sent_at_ns`.
    fn submit(&mut self, client: u64, op: Op) -> (SeqNo, u64);
    /// The ack of `(client, seq)`, waiting (or executing) until it exists.
    fn ack(&mut self, client: u64, seq: SeqNo) -> Reply;
    /// The engine, between requests.
    fn fs(&self) -> &ConcurrentFs;
    /// Stop the world, hand the engine to `f`, resume on what it returns.
    fn quiesce(&mut self, f: &mut dyn FnMut(ConcurrentFs) -> ConcurrentFs);
    /// Marks the phase whose requests follow (the traced ledger keys on it).
    fn begin_phase(&mut self, _phase: usize) {}
    /// Stop serving and hand the engine back.
    fn finish(&mut self) -> ConcurrentFs;
    /// The per-layer ledger, for the traced transport.
    fn ledger(&self) -> Option<&crate::traced::Ledger> {
        None
    }
}

/// What the client side observed, per round.
#[derive(Debug, Default)]
pub struct Tally {
    /// Send→ack latency of every request, per [`Class`], in ns.
    pub samples: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Handle each name's `Create` returned.
    pub handles: HashMap<String, u64>,
    /// `Open` replies whose handle differs from the name's `Create`.
    pub open_mismatches: u64,
    /// Acked writes since the current engine instance started (its WAL
    /// restarts at every quiesce).
    pub acked_writes_since_quiesce: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub reads_ok: u64,
}

impl Tally {
    fn record(&mut self, step: &Step, reply: &Reply, latency_ns: u64) {
        self.attempted += 1;
        if !reply.status.ok() {
            self.failed += 1;
            return;
        }
        let class = match step {
            Step::Write { .. } | Step::Sync => Class::Write,
            Step::Read { .. } => Class::Read,
            _ => Class::Meta,
        };
        self.samples[class as usize].push(latency_ns);
        match (step, reply.status) {
            (Step::Create(name), Status::Handle(h)) => {
                self.handles.insert(name.clone(), h);
            }
            (Step::Open(name), Status::Handle(h)) if self.handles.get(name) != Some(&h) => {
                self.open_mismatches += 1;
            }
            (&Step::Write { len, .. }, _) => {
                self.acked_writes_since_quiesce += 1;
                self.bytes_written += len * BLOCK_BYTES;
            }
            (&Step::Read { len, .. }, _) => {
                self.reads_ok += 1;
                self.bytes_read += len * BLOCK_BYTES;
            }
            _ => {}
        }
    }
}

pub const BLOCK_BYTES: u64 = 4096;

struct Client<'a> {
    id: u64,
    steps: &'a [Step],
    next: usize,
    outstanding: usize,
    handle: u64,
    /// A `Create`/`Open` is in flight: later steps need its handle.
    awaiting_handle: bool,
}

struct Pending {
    client: usize,
    seq: SeqNo,
    step: usize,
    sent_at_ns: u64,
}

/// Play one phase to its end: every client keeps up to `window` requests
/// in flight and waits for acks (a closed loop).
pub fn run_phase(t: &mut dyn Transport, phase: &Phase, window: usize, tally: &mut Tally) {
    let mut clients: Vec<Client> = phase
        .programs
        .iter()
        .map(|p| Client {
            id: p.client,
            steps: &p.steps,
            next: 0,
            outstanding: 0,
            handle: u64::MAX,
            awaiting_handle: false,
        })
        .collect();
    let mut ready: VecDeque<usize> = (0..clients.len()).collect();
    let mut fifo: VecDeque<Pending> = VecDeque::new();
    loop {
        while let Some(ci) = ready.pop_front() {
            let c = &mut clients[ci];
            while c.outstanding < window && c.next < c.steps.len() && !c.awaiting_handle {
                let step = &c.steps[c.next];
                let (seq, sent_at_ns) = t.submit(c.id, step.op(c.handle));
                fifo.push_back(Pending {
                    client: ci,
                    seq,
                    step: c.next,
                    sent_at_ns,
                });
                c.awaiting_handle = step.yields_handle();
                c.outstanding += 1;
                c.next += 1;
            }
        }
        let Some(p) = fifo.pop_front() else {
            break;
        };
        let c = &mut clients[p.client];
        let reply = t.ack(c.id, p.seq);
        let step = &c.steps[p.step];
        tally.record(step, &reply, reply.acked_at_ns.saturating_sub(p.sent_at_ns));
        c.outstanding -= 1;
        if step.yields_handle() {
            c.awaiting_handle = false;
            if let Status::Handle(h) = reply.status {
                c.handle = h;
            }
        }
        if c.next < c.steps.len() {
            ready.push_back(p.client);
        }
    }
}
