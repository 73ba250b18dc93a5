//! `serve_mixed`: an in-process `comb serve` on loopback, 2 workers at
//! `jobs 1`, driven by 2 closed-loop clients with one keep-alive
//! connection each, sending a seeded stream of single-cell polling sweeps.
//!
//! * 3 of 4 requests repeat one of the 16 warm-set sweeps served during
//!   set-up: memory-tier cache hits, checked against recorded digests.
//! * 1 of 4 asks for a cell never requested before: simulated, then
//!   stored in the fsync'd disk tier. Its body is checked after the timed
//!   phase against the same cell computed directly (`run_polling_point_on`)
//!   and rendered by `render_polling_sweep`, the CLI's `comb sweep` path.

use crate::metrics::Outcome;
use crate::oracle;
use comb_core::{run_polling_point_on, CacheMode, CacheStats, CellCache, MethodConfig, Transport};
use comb_report::Fidelity;
use comb_serve::http::{read_client_response, send_request};
use comb_serve::{ServeConfig, Server, ServerHandle};
use std::collections::HashSet;
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sweeps served during set-up and repeated by the hit class.
pub const WARM_SET: usize = 16;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Every request is one polling cell of this shape.
const MSG_BYTES: u64 = 10 * 1024;
const CYCLES: u64 = 3;
const TARGET_ITERS: u64 = 400_000;
const MAX_INTERVALS: u64 = 500;
/// Warm-set poll intervals (each on GM and on Portals); all lie above the
/// fresh range, so a fresh cell can never be a warm one.
const WARM_XS: [u64; 8] = [
    100_000, 150_000, 200_000, 300_000, 500_000, 700_000, 1_000_000, 2_000_000,
];
/// Fresh poll intervals are drawn log-uniformly from this range.
const FRESH_XS: (u64, u64) = (3_000, 100_000);

/// One single-cell polling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Portals, else GM.
    pub portals: bool,
    /// Poll interval.
    pub x: u64,
}

impl Cell {
    fn config(self) -> MethodConfig {
        let transport = if self.portals {
            Transport::Portals
        } else {
            Transport::Gm
        };
        let mut cfg = MethodConfig::new(transport, MSG_BYTES);
        cfg.cycles = CYCLES;
        cfg.target_iters = TARGET_ITERS;
        cfg.max_intervals = MAX_INTERVALS;
        cfg.jobs = 1;
        cfg
    }

    /// The `POST /v1/sweep` body.
    pub fn body(self) -> String {
        format!(
            "{{\"method\":\"polling\",\"transport\":\"{}\",\"msg_bytes\":{MSG_BYTES},\
             \"cycles\":{CYCLES},\"target_iters\":{TARGET_ITERS},\
             \"max_intervals\":{MAX_INTERVALS},\"xs\":[{}]}}",
            if self.portals { "portals" } else { "gm" },
            self.x
        )
    }

    /// The body `comb sweep` prints for this cell, computed without the
    /// server or the cache.
    pub fn expected_body(self) -> Result<String, String> {
        let cfg = self.config();
        let sample = run_polling_point_on(&cfg.resolved_hw(), &cfg, self.x)
            .map_err(|e| format!("direct run of {self:?}: {e}"))?;
        Ok(comb_report::render_polling_sweep(&cfg, &[sample]))
    }
}

/// Warm-set sweep `i`.
pub fn warm_cell(i: usize) -> Cell {
    Cell {
        portals: i % 2 == 1,
        x: WARM_XS[i / 2],
    }
}

/// Digest-record name of warm-set sweep `i`.
pub fn warm_name(i: usize) -> String {
    format!("serve/warm-{i:02}")
}

/// A request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Repeat warm-set sweep `i`.
    Hit(usize),
    /// A cell not requested before in this stream.
    Fresh(Cell),
}

/// splitmix64: small, seedable, and the same on every platform.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded request stream. The sequence depends on the seed alone;
/// which client sends a given request depends on timing.
pub struct Stream {
    rng: SplitMix64,
    seen: HashSet<Cell>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: SplitMix64(seed),
            seen: HashSet::new(),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        if !self.rng.next().is_multiple_of(4) {
            return Req::Hit((self.rng.next() % WARM_SET as u64) as usize);
        }
        let (lo, hi) = (FRESH_XS.0 as f64, FRESH_XS.1 as f64);
        loop {
            let cell = Cell {
                portals: self.rng.next() % 2 == 1,
                x: (lo * (hi / lo).powf(self.rng.unit())) as u64,
            };
            if self.seen.insert(cell) {
                return Req::Fresh(cell);
            }
        }
    }
}

/// A running in-process server.
pub struct Served {
    handle: ServerHandle,
    join: JoinHandle<Result<(), comb_core::CombError>>,
    /// Loopback address.
    pub addr: String,
}

impl Served {
    /// Bind on an ephemeral loopback port with a fresh store at `store`.
    pub fn start(store: &Path) -> Result<Served, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            jobs: 1,
            fidelity: Fidelity::smoke().with_jobs(1),
            cache: Some(Arc::new(CellCache::new(store, CacheMode::ReadWrite))),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("binding the server: {e}"))?;
        let addr = server.local_addr().to_string();
        let (handle, join) = server.spawn();
        Ok(Served { handle, join, addr })
    }

    /// The server's cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.handle.cache_stats().unwrap_or_default()
    }

    /// `GET /metrics`, as text.
    pub fn metrics(&self) -> Result<String, String> {
        let resp = comb_serve::client_request(&self.addr, "GET", "/metrics", None)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics: status {}", resp.status));
        }
        Ok(resp.text())
    }

    /// Drain and join the server.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with an error: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One request on an open keep-alive connection: `(status, body)`.
fn post(conn: &mut TcpStream, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
    send_request(conn, "POST", "/v1/sweep", Some(body.as_bytes()))?;
    let resp = read_client_response(conn)?;
    Ok((resp.status, resp.body))
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(conn)
}

/// Request the warm set once through one connection: each sweep's body,
/// or why it failed.
pub fn warm_bodies(addr: &str) -> Result<Vec<Result<Vec<u8>, String>>, String> {
    let mut conn = connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    Ok((0..WARM_SET)
        .map(|i| match post(&mut conn, &warm_cell(i).body()) {
            Ok((200, body)) => Ok(body),
            Ok((status, _)) => Err(format!("warm sweep {i}: status {status}")),
            Err(e) => Err(format!("warm sweep {i}: {e}")),
        })
        .collect())
}

/// Set up a server for the timed phase: bind with a fresh store and serve
/// the warm set. Returns the server and the set-up time.
pub fn set_up(store: &Path, out: &mut Outcome) -> Result<(Served, f64), String> {
    let t0 = Instant::now();
    let served = Served::start(store)?;
    let bodies = match warm_bodies(&served.addr) {
        Ok(b) => b,
        Err(e) => {
            let _ = served.stop();
            return Err(e);
        }
    };
    for (i, body) in bodies.into_iter().enumerate() {
        out.op(body.and_then(|b| oracle::check(&warm_name(i), &b)));
    }
    Ok((served, t0.elapsed().as_secs_f64()))
}

/// What the clients saw in one phase.
#[derive(Default)]
pub struct ClientLog {
    /// Latency of every completed request (ms).
    pub all_ms: Vec<f64>,
    /// Latency of hit-class requests (ms).
    pub hit_ms: Vec<f64>,
    /// Latency of fresh-class requests (ms).
    pub fresh_ms: Vec<f64>,
    /// Fresh cells and their bodies, for the post-run check.
    pub fresh: Vec<(Cell, Vec<u8>)>,
    /// Results of every request (digest checks of hits included).
    pub results: Vec<Result<(), String>>,
    /// Wall time of the phase (s).
    pub wall_s: f64,
}

/// Run the closed-loop clients against `addr` until `deadline`, drawing
/// requests from `stream`.
pub fn drive(addr: &str, stream: &Mutex<Stream>, deadline: Instant) -> ClientLog {
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(addr, stream, deadline)))
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join().unwrap_or_else(|_| ClientLog {
                    results: vec![Err("client thread panicked".to_string())],
                    ..ClientLog::default()
                })
            })
            .collect()
    });
    let mut log = ClientLog {
        wall_s: t0.elapsed().as_secs_f64(),
        ..ClientLog::default()
    };
    for l in logs {
        log.all_ms.extend(l.all_ms);
        log.hit_ms.extend(l.hit_ms);
        log.fresh_ms.extend(l.fresh_ms);
        log.fresh.extend(l.fresh);
        log.results.extend(l.results);
    }
    log
}

fn client(addr: &str, stream: &Mutex<Stream>, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = None;
    while Instant::now() < deadline {
        let req = stream.lock().expect("stream lock poisoned").next_req();
        let (cell, name) = match req {
            Req::Hit(i) => (warm_cell(i), Some(warm_name(i))),
            Req::Fresh(cell) => (cell, None),
        };
        let body = cell.body();
        let c = match conn.take() {
            Some(c) => c,
            None => match connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    log.results.push(Err(format!("connecting: {e}")));
                    continue;
                }
            },
        };
        let mut c = c;
        let t = Instant::now();
        let reply = post(&mut c, &body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok((200, resp)) => {
                conn = Some(c);
                log.all_ms.push(ms);
                match name {
                    Some(name) => {
                        log.hit_ms.push(ms);
                        log.results.push(oracle::check(&name, &resp));
                    }
                    None => {
                        log.fresh_ms.push(ms);
                        log.fresh.push((cell, resp));
                        log.results.push(Ok(()));
                    }
                }
            }
            Ok((status, _)) => {
                conn = Some(c);
                log.results.push(Err(format!("{cell:?}: status {status}")));
            }
            Err(e) => log.results.push(Err(format!("{cell:?}: {e}"))),
        }
    }
    log
}

/// Fresh bodies recomputed directly per phase, at most (each costs one
/// cell simulation); every other fresh body gets the shape check only.
const FRESH_RECOMPUTED: usize = 64;

/// A fresh body is the sweep table of exactly its one cell, with a
/// positive bandwidth and message count and an availability in [0, 1].
fn check_shape(cell: Cell, body: &[u8]) -> Result<(), String> {
    let bad = |why: &str| Err(format!("{cell:?}: {why}"));
    let Ok(text) = std::str::from_utf8(body) else {
        return bad("body is not UTF-8");
    };
    let lines: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let [header, row] = &lines[..] else {
        return bad("not a one-row sweep table");
    };
    if header[..]
        != [
            "poll_iters",
            "bw_MB/s",
            "avail",
            "msgs",
            "elapsed",
            "stolen",
        ]
        || row.len() != 6
    {
        return bad("unexpected table columns");
    }
    let num = |i: usize| row[i].parse::<f64>().unwrap_or(f64::NAN);
    if num(0) != cell.x as f64 {
        return bad("row is for another poll interval");
    }
    if !(num(1) > 0.0 && (0.0..=1.0).contains(&num(2)) && num(3) >= 1.0) {
        return bad("bandwidth, availability or message count out of range");
    }
    Ok(())
}

/// Check every fresh body's shape, and compare an evenly spread sample of
/// them with the same cell computed directly.
pub fn check_fresh(fresh: &[(Cell, Vec<u8>)], out: &mut Outcome) {
    let step = fresh.len().div_ceil(FRESH_RECOMPUTED).max(1);
    for (i, (cell, body)) in fresh.iter().enumerate() {
        out.op(check_shape(*cell, body).and_then(|()| {
            if i % step != 0 {
                return Ok(());
            }
            let want = cell.expected_body()?;
            if want.as_bytes() == &body[..] {
                Ok(())
            } else {
                Err(format!("{cell:?}: served body differs from `comb sweep`"))
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(seed: u64, n: usize) -> Vec<Req> {
        let mut s = Stream::new(seed);
        (0..n).map(|_| s.next_req()).collect()
    }

    #[test]
    fn shape_check_accepts_a_served_table_and_rejects_others() {
        let cell = Cell {
            portals: false,
            x: 5_000,
        };
        let body = cell.expected_body().expect("cell runs");
        check_shape(cell, body.as_bytes()).expect("a real sweep table passes");
        let other = Cell {
            portals: false,
            x: 5_001,
        };
        assert!(check_shape(other, body.as_bytes()).is_err());
        assert!(check_shape(cell, &body.as_bytes()[..body.len() / 2]).is_err());
        assert!(check_shape(cell, format!("{body}{body}").as_bytes()).is_err());
    }

    #[test]
    fn stream_is_fixed_by_its_seed() {
        assert_eq!(prefix(7, 2000), prefix(7, 2000));
        assert_ne!(prefix(7, 2000), prefix(8, 2000));
    }

    #[test]
    fn stream_mixes_three_hits_to_one_fresh_cell() {
        let reqs = prefix(1, 20_000);
        let fresh: Vec<Cell> = reqs
            .iter()
            .filter_map(|r| match r {
                Req::Fresh(c) => Some(*c),
                Req::Hit(_) => None,
            })
            .collect();
        let share = fresh.len() as f64 / reqs.len() as f64;
        assert!((0.23..0.27).contains(&share), "fresh share {share}");
        let distinct: HashSet<Cell> = fresh.iter().copied().collect();
        assert_eq!(distinct.len(), fresh.len(), "a fresh cell repeated");
        let warm: HashSet<Cell> = (0..WARM_SET).map(warm_cell).collect();
        assert_eq!(warm.len(), WARM_SET);
        assert!(fresh.iter().all(|c| !warm.contains(c)));
        assert!(fresh
            .iter()
            .all(|c| (FRESH_XS.0..FRESH_XS.1).contains(&c.x)));
    }
}
