//! The COMB host-time benchmark. See README.md for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload figures_cold|figures_warm|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The process pins itself to one CPU,
//! prints a host fingerprint line, measures for `S` seconds, and prints
//! one JSON result as its last line: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`).

mod cells;
mod figures;
mod host;
mod metrics;
mod oracle;
mod probes;
mod reference;
mod serve;
mod sha256;
mod stats;

use comb_core::CacheStats;
use metrics::Outcome;
use probes::Counters;
use reference::Reference;
use stats::{blocked_quantile, median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scratch space for stores and CSVs, under the directory the benchmark
/// runs in.
const WORK_ROOT: &str = ".bench_work";
/// Set-ups per untraced figure run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Set-ups per untraced `serve_mixed` run: each takes ~60 ms, so more of
/// them steady the median.
const SERVE_SETUPS: usize = 9;
/// Warm replays run, untimed, at the end of `figures_warm` set-up.
const WARM_UP_REPLAYS: usize = 10;
/// The `serve_mixed` clients stop at the end of each chunk of this
/// length, so the peak RSS can be read after a fixed number of requests.
const SERVE_CHUNK: Duration = Duration::from_millis(1000);
/// Length of the serving probe in the figure workloads' traced runs.
const SERVE_PROBE: Duration = Duration::from_millis(1500);
/// Length of the warm-replay overhead probe in `serve_mixed`'s traced run.
const OVERHEAD_PROBE: Duration = Duration::from_millis(2000);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FiguresCold,
    FiguresWarm,
    ServeMixed,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: comb-benchmark --workload figures_cold|figures_warm|serve_mixed \
                     --seed N --seconds S --trace 0|1\n       comb-benchmark --record-digests";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "figures_cold" => Workload::FiguresCold,
                    "figures_warm" => Workload::FiguresWarm,
                    "serve_mixed" => Workload::ServeMixed,
                    other => return Err(format!("unknown workload '{other}'")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=120).contains(s))
                        .ok_or("--seconds must be 1..=120")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-run scratch directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty scratch root behind either (fails harmlessly
        // while another run still uses it).
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn remove(paths: &[&Path]) {
    for p in paths {
        let _ = std::fs::remove_dir_all(p);
    }
}

/// The quantile of operation times reported as `wall_s`. On a shared
/// host, kernel paths can slow in phases that cover parts of a run; the
/// low decile moves least with them, while every quantile moves with the
/// cost of an operation that is the same work each time (see README.md).
const WALL_QUANTILE: f64 = 0.1;
/// Operations per block of `req_p99_ms`: enough that ten lie beyond each
/// block's p99.
const P99_BLOCK: usize = 1_000;

/// Record the end-to-end metrics of a timed phase from the measured
/// seconds of its operations and set-ups. `rss_mb` is the peak RSS after
/// a fixed number of operations (NaN if it could not be read, which fails
/// the run). `req_per_s` is `1 / wall_s` here; `serve_mixed` replaces it
/// with its closed-loop throughput.
fn record_ops(ops: &[f64], setups: &[f64], rss_mb: f64, out: &mut Outcome) -> Result<(), String> {
    if ops.is_empty() {
        return Err("no operation completed in the timed phase".to_string());
    }
    let wall_s = quantile(ops, WALL_QUANTILE);
    out.set("setup_s", median(setups));
    out.set("wall_s", wall_s);
    out.set("req_per_s", 1.0 / wall_s);
    out.set("req_p99_ms", blocked_quantile(ops, 0.99, P99_BLOCK) * 1e3);
    out.set("peak_rss_mb", rss_mb);
    Ok(())
}

/// Operations after which `peak_rss_mb` is read: a fixed amount of work,
/// so the figure does not grow with the host's speed.
const RSS_AFTER_COLD: usize = 5;
const RSS_AFTER_WARM: usize = 2_000;
const RSS_AFTER_REQUESTS: usize = 4_000;

/// Read the peak RSS the first time `done` operations reach `after`.
fn rss_after(rss: &mut Option<f64>, done: usize, after: usize) {
    if rss.is_none() && done >= after {
        *rss = Some(host::peak_rss_mb().unwrap_or(f64::NAN));
    }
}

fn figures_cold(work: &Path, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    // Set-up: cold figure sets, untimed, so one-time costs (page cache,
    // lazy initialisation, allocator growth) land here and not in the
    // first timed pass.
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let t = Instant::now();
        let (store, csv) = (
            work.join(format!("setup-store-{k}")),
            work.join("setup-csv"),
        );
        figures::timed(out, figures::cold_pass(&store, &csv));
        remove(&[&store, &csv]);
        setups.push(t.elapsed().as_secs_f64());
    }

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut secs, mut rss) = (Vec::new(), None);
    for i in 0.. {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let (store, csv) = (
            work.join(format!("store-{i}")),
            work.join(format!("csv-{i}")),
        );
        secs.extend(figures::timed(out, figures::cold_pass(&store, &csv)));
        remove(&[&store, &csv]);
        rss_after(&mut rss, secs.len(), RSS_AFTER_COLD);
    }
    rss_after(&mut rss, secs.len(), 0);
    record_ops(&secs, &setups, rss.unwrap_or(f64::NAN), out)
}

fn figures_warm(work: &Path, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    // Set-up: fill a fresh store with a cold figure set and replay it a
    // few times untimed; the last store filled is the one replayed.
    let mut setups = Vec::with_capacity(SETUPS);
    let (store, csv) = (work.join("store"), work.join("setup-csv"));
    for _ in 0..SETUPS {
        remove(&[&store, &csv]);
        let t = Instant::now();
        figures::timed(out, figures::cold_pass(&store, &csv));
        for _ in 0..WARM_UP_REPLAYS {
            figures::timed(out, figures::warm_pass(&store));
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut secs, mut rss) = (Vec::new(), None);
    while secs.is_empty() || Instant::now() < deadline {
        match figures::timed(out, figures::warm_pass(&store)) {
            Some(s) => secs.push(s),
            None => break,
        }
        rss_after(&mut rss, secs.len(), RSS_AFTER_WARM);
    }
    rss_after(&mut rss, secs.len(), 0);
    record_ops(&secs, &setups, rss.unwrap_or(f64::NAN), out)
}

fn serve_mixed(work: &Path, seed: u64, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    // Set-up: bind a server on a fresh store and serve the warm set; the
    // last server set up is the one measured.
    let mut setups = Vec::with_capacity(SERVE_SETUPS);
    let mut served = None;
    for k in 0..SERVE_SETUPS {
        let next = serve::set_up(&work.join(format!("store-{k}")), out);
        if let Some(previous) = served.take() {
            out.op(serve::Served::stop(previous));
        }
        let (s, secs) = next?;
        served = Some(s);
        setups.push(secs);
    }
    let served = served.ok_or("no server was set up")?;

    let stream = Mutex::new(serve::Stream::new(seed));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut secs, mut rss, mut wall_s) = (Vec::new(), None, 0.0);
    let mut fresh = Vec::new();
    while secs.is_empty() || Instant::now() < deadline {
        let log = serve::drive(&served.addr, &stream, Instant::now() + SERVE_CHUNK);
        for r in log.results {
            out.op(r);
        }
        fresh.extend(log.fresh);
        secs.extend(log.all_ms.iter().map(|ms| ms / 1e3));
        wall_s += log.wall_s;
        rss_after(&mut rss, secs.len(), RSS_AFTER_REQUESTS);
        if log.all_ms.is_empty() {
            break;
        }
    }
    rss_after(&mut rss, secs.len(), 0);
    out.op(served.stop());
    serve::check_fresh(&fresh, out);
    record_ops(&secs, &setups, rss.unwrap_or(f64::NAN), out)?;
    // Closed loop: throughput is requests over the phase's wall time, not
    // over summed latencies (two clients overlap).
    out.set("req_per_s", secs.len() as f64 / wall_s);
    Ok(())
}

/// Record the serving metrics: client-side latency by class, the rest
/// from the server's `/metrics`.
fn record_serve(
    served: &serve::Served,
    hit_ms: &[f64],
    fresh_ms: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let text = served.metrics()?;
    let get = |name: &str| {
        comb_serve::metric_value(&text, name).ok_or_else(|| format!("/metrics has no {name}"))
    };
    out.set("serve.hit_p50_ms", median(hit_ms));
    out.set("serve.fresh_p50_ms", median(fresh_ms));
    out.set("serve.server_p50_us", get("latency_p50_us")?);
    out.set("serve.server_p99_us", get("latency_p99_us")?);
    out.set(
        "serve.rejected",
        get("rejected_total")? + get("shed_rejected_total")?,
    );
    out.set(
        "serve.timeouts",
        get("request_timeouts_total")? + get("deadline_expired_total")?,
    );
    Ok(())
}

fn record_cache(s: CacheStats, out: &mut Outcome) {
    out.set("cache.hits_mem", s.hits_mem as f64);
    out.set("cache.hits_disk", s.hits_disk as f64);
    out.set("cache.misses", s.misses as f64);
    out.set("cache.joined", s.joined as f64);
    out.set("cache.stored", s.stored as f64);
    out.set("cache.hit_rate", s.hit_rate());
}

/// The serving part of a traced run: the seeded stream until `deadline`.
/// With `own_counters`, its kernel and cache counters are recorded as the
/// run's own.
fn traced_serving(
    work: &Path,
    seed: u64,
    deadline: Instant,
    own_counters: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let (served, _) = serve::set_up(&work.join("serve-store"), out)?;
    let stream = Mutex::new(serve::Stream::new(seed));
    let (k0, c0) = (Counters::now(), served.cache_stats());
    let log = serve::drive(&served.addr, &stream, deadline);
    let (k1, c1) = (Counters::now(), served.cache_stats());
    let r = record_serve(&served, &log.hit_ms, &log.fresh_ms, out);
    out.op(r);
    out.op(served.stop());
    for r in log.results {
        out.op(r);
    }
    serve::check_fresh(&log.fresh, out);
    if own_counters {
        k1.since(k0).record(log.wall_s, out);
        record_cache(
            CacheStats {
                hits_mem: c1.hits_mem - c0.hits_mem,
                misses: c1.misses - c0.misses,
                joined: c1.joined - c0.joined,
                stored: c1.stored - c0.stored,
                ..CacheStats::default()
            },
            out,
        );
    }
    Ok(())
}

/// The figure part of a traced run: alternate the untraced pass with the
/// traced one (each public call timed) until `deadline`, at least once,
/// and record the timers' overhead. Cold passes use fresh stores; warm
/// ones replay `store`. Returns the first traced pass's kernel counters,
/// seconds and cache counters.
fn traced_figures(
    work: &Path,
    cold: bool,
    store: &Path,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<(Counters, f64, CacheStats), String> {
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut first = None;
    let want = if cold {
        figures::cold_counts()
    } else {
        figures::warm_counts()
    };
    for i in 0.. {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let (cold_store, csv) = (
            work.join(format!("store-{i}")),
            work.join(format!("csv-{i}")),
        );
        let r = if cold {
            figures::cold_pass(&cold_store, &csv)
        } else {
            figures::warm_pass(store)
        };
        remove(&[&cold_store, &csv]);
        untraced_s.extend(figures::timed(out, r));

        let before = Counters::now();
        let r = if cold {
            figures::traced_pass(&cold_store, Some(&csv))
        } else {
            figures::traced_pass(store, None)
        };
        let counters = Counters::now().since(before);
        remove(&[&cold_store, &csv]);
        match r {
            Ok((spans, stats)) if stats == want => {
                out.op(Ok(()));
                first.get_or_insert((counters, spans.total_s, stats));
                traced_s.push(spans.total_s);
            }
            Ok((_, stats)) => out.op(Err(format!("traced pass: cache counters {stats:?}"))),
            Err(e) => out.op(Err(e)),
        }
    }
    if untraced_s.is_empty() {
        return Err("no untraced figure pass completed".to_string());
    }
    let first = first.ok_or("no traced figure pass completed")?;
    let (t, u) = (median(&traced_s), median(&untraced_s));
    out.set("bench.trace_overhead_pct", (t - u) / u * 100.0);
    Ok(first)
}

/// The traced run: every layer probe, then the workload with its public
/// calls timed one by one. The figure workloads alternate each traced
/// pass with an untraced one to measure the timers' overhead, and end
/// with a short serving probe, so every run reports the serving layer.
/// No timer sits on `serve_mixed`'s request path, so it measures the
/// overhead on warm replays of the probe store instead.
fn traced(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let reference = Reference::new(work)?;
    let mut refs = Vec::with_capacity(5);
    for _ in 0..5 {
        refs.push(reference.measure()?);
    }
    out.set("bench.host_ref_ms", median(&refs) * 1e3);
    probes::run_all(work, out);
    let probe_store = work.join("probe-store");
    match args.workload {
        Workload::FiguresCold | Workload::FiguresWarm => {
            let cold = args.workload == Workload::FiguresCold;
            let (counters, secs, stats) =
                traced_figures(work, cold, &probe_store, deadline - SERVE_PROBE, out)?;
            counters.record(secs, out);
            record_cache(stats, out);
            traced_serving(work, args.seed, Instant::now() + SERVE_PROBE, false, out)
        }
        Workload::ServeMixed => {
            let end = Instant::now() + OVERHEAD_PROBE;
            traced_figures(work, false, &probe_store, end, out)?;
            traced_serving(work, args.seed, deadline, true, out)
        }
    }
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let name = match args.workload {
        Workload::FiguresCold => "figures_cold",
        Workload::FiguresWarm => "figures_warm",
        Workload::ServeMixed => "serve_mixed",
    };
    let work = WorkDir::create(name)?;
    if args.trace {
        return traced(args, &work.0, out);
    }
    match args.workload {
        Workload::FiguresCold => figures_cold(&work.0, args.seconds, out),
        Workload::FiguresWarm => figures_warm(&work.0, args.seconds, out),
        Workload::ServeMixed => serve_mixed(&work.0, args.seed, args.seconds, out),
    }
}

/// Print a fresh digest record (the contents of `digests.txt`).
fn record_digests() -> Result<(), String> {
    let work = WorkDir::create("record")?;
    println!("# SHA-256 of every figure CSV (smoke fidelity) and every warm-set sweep body.");
    println!("# Written by `comb-benchmark --record-digests`; see README.md.");
    let reports = comb_report::run_figures(&comb_report::FigureId::ALL, figures::fidelity(), None)
        .map_err(|e| format!("figure set: {e}"))?;
    for r in &reports {
        println!(
            "{}.csv {}",
            r.id,
            sha256::hex(r.dataset.to_csv().as_bytes())
        );
    }
    let served = serve::Served::start(&work.0.join("store"))?;
    let bodies = serve::warm_bodies(&served.addr);
    served.stop()?;
    for (i, body) in bodies?.into_iter().enumerate() {
        let body = body?;
        if body != serve::warm_cell(i).expected_body()?.into_bytes() {
            return Err(format!(
                "warm sweep {i}: served body differs from `comb sweep`"
            ));
        }
        println!("{} {}", serve::warm_name(i), sha256::hex(&body));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record-digests"] {
        return match record_digests() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (allowed, cpu) = match host::pin_to_one_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", host::fingerprint(&allowed, cpu));

    let mut out = Outcome::default();
    let result = run(&args, &mut out);
    for e in &out.errors {
        eprintln!("failed: {e}");
    }
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    match result.and_then(|()| out.to_json(table)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
