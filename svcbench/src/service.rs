//! The untraced transport: `ClientConn` → frame → `BoundedQueue` →
//! `SessionTable` → `ConcurrentFs` → `GroupCommitWal`, inside a running
//! `mif-server` with one worker shard. The calling thread is the one
//! client thread every simulated client is multiplexed on.

use std::sync::Arc;

use mif_core::ConcurrentFs;
use mif_server::{ClientConn, Op, Reply, SeqNo, Server, ServerConfig};

use crate::plan::Transport;

/// Non-blocking reaps before `ack` parks on the session.
const SPIN_POLLS: u32 = 64;

pub struct ServiceTransport {
    server: Option<Arc<Server>>,
    cfg: ServerConfig,
    window: usize,
    /// One connection per simulated client id, for the server's lifetime.
    conns: Vec<Option<ClientConn>>,
}

impl ServiceTransport {
    pub fn start(fs: ConcurrentFs, cfg: ServerConfig, window: usize) -> Self {
        ServiceTransport {
            server: Some(Server::start(fs, cfg)),
            cfg,
            window,
            conns: Vec::new(),
        }
    }

    fn server(&self) -> &Arc<Server> {
        self.server.as_ref().expect("server running")
    }

    fn conn(&mut self, client: u64) -> &mut ClientConn {
        let i = client as usize;
        if self.conns.len() <= i {
            self.conns.resize_with(i + 1, || None);
        }
        let server = Arc::clone(self.server.as_ref().expect("server running"));
        let window = self.window;
        self.conns[i].get_or_insert_with(|| ClientConn::connect(server, client, window, false))
    }

    fn stop(&mut self) -> ConcurrentFs {
        self.conns.clear();
        self.server.take().expect("server running").into_fs()
    }
}

impl Transport for ServiceTransport {
    fn submit(&mut self, client: u64, op: Op) -> (SeqNo, u64) {
        let conn = self.conn(client);
        let seq = conn.submit(op).expect("server died mid-run");
        let sent = conn
            .unacked()
            .last()
            .expect("a just-submitted request is unacked")
            .sent_at_ns;
        (seq, sent)
    }

    fn ack(&mut self, client: u64, seq: SeqNo) -> Reply {
        let conn = self.conn(client);
        // Seqs run from 1 and every first ack is kept in order, so the
        // reply to `seq` sits at index `seq - 1` once it has arrived.
        // Poll a few microseconds before parking: an ack that is about to
        // arrive costs no wake-up, while a long wait (a flush) leaves the
        // core idle, so the two busy threads are not the ones the kernel
        // preempts when anything else on the host needs to run.
        let mut polls = 0u32;
        while (conn.replies().len() as u64) < seq {
            polls += 1;
            assert!(conn.reap(polls > SPIN_POLLS), "server died mid-run");
            std::hint::spin_loop();
        }
        let reply = conn.replies()[seq as usize - 1];
        assert_eq!(reply.seq_no, seq, "acks out of program order");
        reply
    }

    fn fs(&self) -> &ConcurrentFs {
        self.server().fs()
    }

    fn quiesce(&mut self, f: &mut dyn FnMut(ConcurrentFs) -> ConcurrentFs) {
        let fs = self.stop();
        self.server = Some(Server::start(f(fs), self.cfg));
    }

    fn finish(&mut self) -> ConcurrentFs {
        self.stop()
    }
}
