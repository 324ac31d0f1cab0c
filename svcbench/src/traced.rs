//! The traced transport: the same request stream, replayed on one thread
//! through each layer's public functions, with every call timed.
//!
//! It does what `Server::submit` and the server's worker loop do, in the
//! same order — encode, admit, push, pop a batch, decode, dispatch,
//! execute, commit the batch's WAL records, deliver — but runs the worker
//! step inline whenever the client side must wait. Batches are therefore
//! deterministic, and so is every count this transport reports.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use mif_alloc::{FileId, StreamId};
use mif_core::{ConcurrentFs, OpenFile};
use mif_server::{
    decode_request, encode_request, BoundedQueue, Dispatch, Op, Reply, Request, SeqNo,
    ServerConfig, SessionTable, Status,
};

use crate::plan::{Class, Transport};

/// Timed layer calls. The first group runs per request, the rest per
/// batch or per quiesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Encode,
    Admit,
    Push,
    PopBatch,
    Decode,
    Dispatch,
    MarkApplied,
    Create,
    Open,
    Close,
    Write,
    Read,
    Sync,
    Commit,
    Deliver,
    Reap,
}

pub const LAYERS: [Layer; 16] = [
    Layer::Encode,
    Layer::Admit,
    Layer::Push,
    Layer::PopBatch,
    Layer::Decode,
    Layer::Dispatch,
    Layer::MarkApplied,
    Layer::Create,
    Layer::Open,
    Layer::Close,
    Layer::Write,
    Layer::Read,
    Layer::Sync,
    Layer::Commit,
    Layer::Deliver,
    Layer::Reap,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Encode => "protocol.encode",
            Layer::Admit => "session.admit",
            Layer::Push => "queue.push",
            Layer::PopBatch => "queue.pop_batch",
            Layer::Decode => "protocol.decode",
            Layer::Dispatch => "session.dispatch",
            Layer::MarkApplied => "session.mark_applied",
            Layer::Create => "concurrent.create",
            Layer::Open => "concurrent.open",
            Layer::Close => "concurrent.close",
            Layer::Write => "concurrent.write",
            Layer::Read => "concurrent.read",
            Layer::Sync => "concurrent.sync",
            Layer::Commit => "groupcommit.commit",
            Layer::Deliver => "session.deliver",
            Layer::Reap => "session.reap",
        }
    }
}

/// Total wall time and call count of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

impl Span {
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    pub fn absorb(&mut self, o: Span) {
        self.ns += o.ns;
        self.calls += o.calls;
    }

    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Everything one traced round measured.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub layers: [Span; LAYERS.len()],
    /// Layer time charged to each request, summed per `[phase][class]`;
    /// batch-level calls are split evenly over the batch's requests.
    pub charged: Vec<[Span; 3]>,
    pub frame_bytes: u64,
    pub frames: u64,
    pub queue_parks: u64,
    pub queue_max_depth: u64,
    pub sessions: u64,
    pub admission_parks: u64,
}

impl Ledger {
    fn charge(&mut self, phase: usize, class: Class, ns: u64) {
        if self.charged.len() <= phase {
            self.charged.resize(phase + 1, [Span::default(); 3]);
        }
        self.charged[phase][class as usize].ns += ns;
    }

    fn count(&mut self, phase: usize, class: Class) {
        if self.charged.len() <= phase {
            self.charged.resize(phase + 1, [Span::default(); 3]);
        }
        self.charged[phase][class as usize].calls += 1;
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

pub struct TracedTransport {
    fs: Option<ConcurrentFs>,
    cfg: ServerConfig,
    window: usize,
    epoch: Instant,
    queue: BoundedQueue,
    depth: usize,
    sessions: SessionTable,
    dead: AtomicBool,
    next_seq: HashMap<u64, SeqNo>,
    inbox: HashMap<u64, VecDeque<Reply>>,
    class_of: HashMap<(u64, SeqNo), Class>,
    phase: usize,
    ledger: Ledger,
}

impl TracedTransport {
    pub fn new(fs: ConcurrentFs, cfg: ServerConfig, window: usize) -> Self {
        TracedTransport {
            fs: Some(fs),
            cfg,
            window,
            epoch: Instant::now(),
            queue: BoundedQueue::new(cfg.queue_capacity),
            depth: 0,
            sessions: SessionTable::new(cfg.replay_cache),
            dead: AtomicBool::new(false),
            next_seq: HashMap::new(),
            inbox: HashMap::new(),
            class_of: HashMap::new(),
            phase: 0,
            ledger: Ledger::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn engine(&self) -> &ConcurrentFs {
        self.fs.as_ref().expect("engine present")
    }

    fn add(&mut self, l: Layer, ns: u64) {
        self.ledger.layers[l as usize].add(ns);
    }

    /// One pass of the worker loop (`Server::execute_batch`).
    fn work(&mut self) {
        let (batch, pop_ns) = timed(|| self.queue.pop_batch(self.cfg.batch));
        assert!(!batch.is_empty(), "worker step with nothing queued");
        self.add(Layer::PopBatch, pop_ns);
        self.depth -= batch.len();
        let mut executed: Vec<(Reply, Class)> = Vec::with_capacity(batch.len());
        let mut max_wal_seq: Option<u64> = None;
        for frame in &batch {
            let (req, ns) = timed(|| decode_request(frame));
            self.add(Layer::Decode, ns);
            let req = req.expect("frames are encoded by this process");
            let class = Class::of(&req.op);
            let mut charged = ns;
            let (dispatch, ns) =
                timed(|| self.sessions.session(req.client_id).dispatch(req.seq_no));
            self.add(Layer::Dispatch, ns);
            charged += ns;
            assert_eq!(
                dispatch,
                Dispatch::Execute,
                "the replay sends each request once"
            );
            let fs = self.fs.as_ref().expect("engine present");
            let (status, ns) = timed(|| apply(fs, &req.op, req.client_id, &mut max_wal_seq));
            self.add(engine_layer(&req.op), ns);
            charged += ns;
            let reply = Reply {
                client_id: req.client_id,
                seq_no: req.seq_no,
                status,
                acked_at_ns: 0,
            };
            let ((), ns) = timed(|| self.sessions.session(req.client_id).mark_applied(reply));
            self.add(Layer::MarkApplied, ns);
            charged += ns;
            self.ledger.charge(self.phase, class, charged);
            executed.push((reply, class));
        }
        let mut batch_ns = pop_ns;
        if let Some(seq) = max_wal_seq {
            let fs = self.fs.as_ref().expect("engine present");
            let ((), ns) = timed(|| fs.wal_commit(seq));
            self.add(Layer::Commit, ns);
            batch_ns += ns;
        }
        let now = self.now_ns();
        let share = batch_ns / executed.len() as u64;
        for (mut reply, class) in executed {
            reply.acked_at_ns = now;
            let ((), ns) = timed(|| {
                self.sessions
                    .session(reply.client_id)
                    .deliver_applied(reply)
            });
            self.add(Layer::Deliver, ns);
            self.ledger.charge(self.phase, class, ns + share);
        }
    }
}

fn engine_layer(op: &Op) -> Layer {
    match op {
        Op::Create { .. } => Layer::Create,
        Op::Open { .. } => Layer::Open,
        Op::Write { .. } => Layer::Write,
        Op::Read { .. } => Layer::Read,
        Op::Sync => Layer::Sync,
        Op::Close { .. } => Layer::Close,
    }
}

/// The engine half of the server's worker (`Server::apply`), verbatim in
/// behaviour: same calls, same statuses.
fn apply(fs: &ConcurrentFs, op: &Op, client_id: u64, max_wal_seq: &mut Option<u64>) -> Status {
    match op {
        Op::Create {
            name,
            size_hint_blocks,
        } => Status::Handle(fs.create(name, *size_hint_blocks).0 .0),
        Op::Open { name } => match fs.open(name) {
            Some(f) => Status::Handle(f.0 .0),
            None => Status::NotFound,
        },
        &Op::Write {
            handle,
            stream,
            offset,
            len,
        } => {
            let file = OpenFile(FileId(handle));
            if len == 0 {
                return Status::Invalid;
            }
            if !fs.has_file(file) {
                return Status::NotFound;
            }
            let sid = StreamId::new(client_id as u32, stream);
            match fs.try_write_journaled(file, sid, offset, len) {
                Ok(seq) => {
                    *max_wal_seq = Some(max_wal_seq.map_or(seq, |m| m.max(seq)));
                    Status::Done
                }
                Err((ost, _)) => Status::IoError { ost: ost as u32 },
            }
        }
        &Op::Read {
            handle,
            stream,
            offset,
            len,
        } => {
            let file = OpenFile(FileId(handle));
            if len == 0 || !fs.has_file(file) {
                return Status::NotFound;
            }
            fs.read(file, StreamId::new(client_id as u32, stream), offset, len);
            Status::Done
        }
        Op::Sync => match fs.try_sync() {
            Ok(()) => Status::Done,
            Err((ost, _)) => Status::IoError { ost: ost as u32 },
        },
        &Op::Close { handle } => {
            let file = OpenFile(FileId(handle));
            if !fs.has_file(file) {
                return Status::NotFound;
            }
            fs.close(file);
            Status::Done
        }
    }
}

impl Transport for TracedTransport {
    fn submit(&mut self, client: u64, op: Op) -> (SeqNo, u64) {
        let seq = {
            let s = self.next_seq.entry(client).or_insert(0);
            *s += 1;
            *s
        };
        let class = Class::of(&op);
        let req = Request {
            client_id: client,
            seq_no: seq,
            sent_at_ns: self.now_ns(),
            op,
        };
        let (frame, encode_ns) = timed(|| encode_request(&req));
        self.add(Layer::Encode, encode_ns);
        self.ledger.frame_bytes += frame.len() as u64;
        self.ledger.frames += 1;
        let window = self.window;
        let (admitted, admit_ns) =
            timed(|| self.sessions.session(client).admit(window, &self.dead));
        assert!(admitted, "the replay never overfills a window");
        self.add(Layer::Admit, admit_ns);
        if self.depth == self.cfg.queue_capacity {
            // Where the real submitter would park, run the worker instead.
            self.ledger.queue_parks += 1;
            self.work();
        }
        let (pushed, push_ns) = timed(|| self.queue.push(frame));
        pushed.expect("the replay queue never closes");
        self.add(Layer::Push, push_ns);
        self.depth += 1;
        self.ledger.queue_max_depth = self.ledger.queue_max_depth.max(self.depth as u64);
        self.ledger.count(self.phase, class);
        self.ledger
            .charge(self.phase, class, encode_ns + admit_ns + push_ns);
        self.class_of.insert((client, seq), class);
        (seq, req.sent_at_ns)
    }

    fn ack(&mut self, client: u64, seq: SeqNo) -> Reply {
        let class = self
            .class_of
            .remove(&(client, seq))
            .expect("ack of a request this transport sent");
        loop {
            if let Some(r) = self.inbox.get_mut(&client).and_then(|q| q.pop_front()) {
                assert_eq!(r.seq_no, seq, "acks out of program order");
                return r;
            }
            let session = self.sessions.session(client);
            let (acks, ns) = timed(|| session.take_acks(false, &self.dead));
            if acks.is_empty() {
                self.work();
                continue;
            }
            self.add(Layer::Reap, ns);
            self.ledger.charge(self.phase, class, ns);
            self.inbox.entry(client).or_default().extend(acks);
        }
    }

    fn fs(&self) -> &ConcurrentFs {
        self.engine()
    }

    fn quiesce(&mut self, f: &mut dyn FnMut(ConcurrentFs) -> ConcurrentFs) {
        assert_eq!(self.depth, 0, "quiesce with requests queued");
        self.ledger.sessions += self.sessions.len() as u64;
        self.ledger.admission_parks += self.sessions.total_admission_parks();
        // A restarted server starts with fresh sessions, as the real one.
        self.sessions = SessionTable::new(self.cfg.replay_cache);
        self.next_seq.clear();
        let fs = self.fs.take().expect("engine present");
        self.fs = Some(f(fs));
    }

    fn ledger(&self) -> Option<&Ledger> {
        Some(&self.ledger)
    }

    fn begin_phase(&mut self, phase: usize) {
        self.phase = phase;
    }

    fn finish(&mut self) -> ConcurrentFs {
        self.ledger.sessions += self.sessions.len() as u64;
        self.ledger.admission_parks += self.sessions.total_admission_parks();
        self.fs.take().expect("engine present")
    }
}
