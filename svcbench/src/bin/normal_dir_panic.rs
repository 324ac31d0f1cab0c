//! Reproduces a known fault the workloads stay clear of: with the default
//! `DirMode::Normal`, the 16 384th file created in one directory fails an
//! assertion in the MDS ("group 0 inode table full"), and a client
//! `Create` frame reaches it through `mif-server`. The panic kills the
//! worker shard, so every later request waits forever for its ack.
//!
//! Run: `cargo run --release --manifest-path svcbench/Cargo.toml --bin normal_dir_panic`
//!
//! Exits 0 when the fault reproduces (acks stop and the worker has died),
//! 1 if every create is acked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mif_alloc::PolicyKind;
use mif_core::{ConcurrentFs, FsConfig};
use mif_mds::DirMode;
use mif_server::{ClientConn, Op, Server, ServerConfig};

const FILES: u64 = 16_500;
const WINDOW: usize = 8;
const STALL: Duration = Duration::from_secs(5);

fn main() {
    let fs = ConcurrentFs::new(FsConfig::with_modes(
        PolicyKind::OnDemand,
        4,
        DirMode::Normal,
    ));
    let server = Server::start(
        fs,
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            admission_window: WINDOW,
            replay_cache: 4,
            batch: 16,
            worker_delay_ns: 0,
        },
    );
    let mut conn = ClientConn::connect(Arc::clone(&server), 1, WINDOW, false);
    for i in 0..FILES {
        // Never let `submit` block: a dead worker would strand it.
        let deadline = Instant::now() + STALL;
        while conn.unacked().count() >= WINDOW {
            conn.reap(false);
            if Instant::now() > deadline {
                let acked = conn.replies().len();
                println!(
                    "reproduced: no ack for {}s after create #{i}; {acked} creates acked, \
                     the worker shard died (see its panic above)",
                    STALL.as_secs()
                );
                std::process::exit(0);
            }
            std::thread::yield_now();
        }
        conn.submit(Op::Create {
            name: format!("f{i:05}"),
            size_hint_blocks: None,
        })
        .expect("server accepts creates");
    }
    assert!(conn.drain(), "server died after the last submit");
    println!("not reproduced: all {FILES} creates acked");
    server.shutdown();
    std::process::exit(1);
}
