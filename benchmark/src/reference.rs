//! The in-run host reference behind `bench.host_ref_ms`: a reading of how
//! fast the host's kernel paths run during a traced run.
//!
//! On the shared host this benchmark was built on, kernel paths (thread
//! handoffs, socket and file system calls) ran up to 1.9x slower for
//! phases lasting seconds to minutes, while user-mode compute loops kept
//! their speed within a few percent. Every workload spends most of its
//! time on those kernel paths, so a run's times are read beside this
//! figure. It is not used to scale them: how much of the program's time
//! follows the reference depends on the program.
//!
//! The reference uses none of the program's code: std channel ping-pong
//! between two threads, loopback TCP round trips and small-file reads,
//! the same kernel paths the workloads take.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::time::Instant;

const HANDOFFS: usize = 1_000;
const ROUND_TRIPS: usize = 150;
const FILE_READS: usize = 100;
const FILES: usize = 8;

/// The reference task and the files it reads.
pub struct Reference {
    dir: PathBuf,
}

impl Reference {
    /// Create the reference's files under `work`.
    pub fn new(work: &Path) -> Result<Reference, String> {
        let dir = work.join("reference");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for i in 0..FILES {
            std::fs::write(dir.join(format!("f{i}")), [i as u8; 512])
                .map_err(|e| format!("writing reference files: {e}"))?;
        }
        Ok(Reference { dir })
    }

    /// Run the reference task once; its wall time in seconds.
    pub fn measure(&self) -> Result<f64, String> {
        let t = Instant::now();
        handoffs()?;
        round_trips()?;
        let mut bytes = 0;
        for i in 0..FILE_READS {
            bytes += std::fs::read(self.dir.join(format!("f{}", i % FILES)))
                .map_err(|e| format!("reference file read: {e}"))?
                .len();
        }
        std::hint::black_box(bytes);
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Ping-pong through two bounded std channels with a helper thread.
fn handoffs() -> Result<(), String> {
    let (to_helper, helper_rx) = sync_channel::<usize>(1);
    let (helper_tx, from_helper) = sync_channel::<usize>(1);
    let helper = std::thread::spawn(move || {
        while let Ok(v) = helper_rx.recv() {
            if helper_tx.send(v).is_err() {
                return;
            }
        }
    });
    let mut ok = true;
    for i in 0..HANDOFFS {
        ok &= to_helper.send(i).is_ok() && from_helper.recv() == Ok(i);
    }
    drop(to_helper);
    let joined = helper.join().is_ok();
    if ok && joined {
        Ok(())
    } else {
        Err("reference handoff failed".to_string())
    }
}

/// Echo 64-byte messages over a loopback TCP connection.
fn round_trips() -> Result<(), String> {
    let io = |e: std::io::Error| format!("reference round trip: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        for _ in 0..ROUND_TRIPS {
            s.read_exact(&mut buf)?;
            s.write_all(&buf)?;
        }
        Ok(())
    });
    let client = || -> std::io::Result<()> {
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        let mut buf = [7u8; 64];
        for _ in 0..ROUND_TRIPS {
            c.write_all(&buf)?;
            c.read_exact(&mut buf)?;
        }
        Ok(())
    };
    let sent = client().map_err(io);
    if sent.is_err() {
        // Unblock an echo thread still waiting in `accept`; one past it
        // sees the failed client's connection close and returns.
        let _ = TcpStream::connect(addr);
    }
    let echoed = echo
        .join()
        .map_err(|_| "reference echo thread panicked".to_string())?
        .map_err(io);
    sent.and(echoed)
}
