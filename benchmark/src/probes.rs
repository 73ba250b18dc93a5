//! Standalone layer probes: each a timed call into one layer's public API,
//! repeated, reported as a median, with its exact event count checked to
//! repeat. A change to one layer should show here before it shows in a
//! workload.

use crate::cells::{figure_cells, Cell};
use crate::figures::{self, Spans};
use crate::metrics::Outcome;
use crate::stats::{median, quantile};
use comb_core::cache::cell_desc;
use comb_core::{
    run_pingpong, run_polling_point_on, run_pww_point_on, CacheMode, CacheOutcome, CellCache,
    CellKey, CellMethod, MethodConfig, PointSample, RunError, Transport,
};
use comb_sim::{KernelStats, SimDuration, Simulation};
use std::path::Path;
use std::time::Instant;

/// Repetitions of each micro-probe; the median is reported.
const REPS: usize = 5;
/// Holds in the handoff probe.
const HOLDS: u64 = 20_000;
/// Closure events in the event probe.
const EVENTS: u64 = 100_000;
/// Round trips in the MPI probe (plus one warm-up).
const ROUND_TRIPS: u64 = 200;
/// Traced replays in the report probe.
const REPORT_PASSES: usize = 10;

/// Process-wide kernel and NIC counters, or a difference of two readings.
/// Kernel counters are flushed when a simulation's queue drops, so a
/// difference is exact once every simulation started in between has
/// finished.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    fired: u64,
    scheduled: u64,
    cancelled: u64,
    lane_scheduled: u64,
    boxed_calls: u64,
    burst: u64,
}

impl Counters {
    /// Read the counters now.
    pub fn now() -> Counters {
        let k = KernelStats::global();
        Counters {
            fired: k.fired,
            scheduled: k.scheduled,
            cancelled: k.cancelled,
            lane_scheduled: k.lane_scheduled,
            boxed_calls: k.boxed_calls,
            burst: comb_hw::burst_batched_packets_total(),
        }
    }

    /// What happened between `before` and this reading.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            fired: self.fired - before.fired,
            scheduled: self.scheduled - before.scheduled,
            cancelled: self.cancelled - before.cancelled,
            lane_scheduled: self.lane_scheduled - before.lane_scheduled,
            boxed_calls: self.boxed_calls - before.boxed_calls,
            burst: self.burst - before.burst,
        }
    }

    /// Record a difference as the run's `sim.*` and `hw.*` metrics, for
    /// a section that took `secs` of wall time.
    pub fn record(self, secs: f64, out: &mut Outcome) {
        out.set("sim.events", self.fired as f64);
        out.set("sim.scheduled", self.scheduled as f64);
        out.set("sim.cancelled", self.cancelled as f64);
        out.set("sim.lane_scheduled", self.lane_scheduled as f64);
        out.set("sim.boxed_calls", self.boxed_calls as f64);
        out.set("sim.events_per_s", self.fired as f64 / secs);
        out.set("hw.burst_batched_packets", self.burst as f64);
    }
}

/// Run `body` `REPS` times; return the median seconds and the events one
/// call executed, failing if that count differs between calls.
fn repeat<F: FnMut() -> Result<(), String>>(name: &str, mut body: F) -> Result<(f64, u64), String> {
    let mut secs = Vec::with_capacity(REPS);
    let mut events = None;
    for _ in 0..REPS {
        let before = Counters::now();
        let t = Instant::now();
        body()?;
        secs.push(t.elapsed().as_secs_f64());
        let n = Counters::now().since(before).fired;
        if *events.get_or_insert(n) != n {
            return Err(format!("{name}: event count changed between calls"));
        }
    }
    Ok((median(&secs), events.unwrap_or(0)))
}

fn run_sim(mut sim: Simulation) -> Result<(), String> {
    sim.run().map(|_| ()).map_err(|e| format!("{e}"))
}

/// `sim.handoff_us`: one simulated process doing `HOLDS` holds, each a
/// round trip from the kernel to the process and back.
fn handoff(out: &mut Outcome) -> Result<(), String> {
    let (secs, events) = repeat("handoff probe", || {
        let mut sim = Simulation::new();
        sim.spawn("probe", |ctx| {
            for _ in 0..HOLDS {
                ctx.hold(SimDuration::from_nanos(1));
            }
        });
        run_sim(sim)
    })?;
    if events < HOLDS {
        return Err(format!("handoff probe: {events} events for {HOLDS} holds"));
    }
    out.set("sim.handoff_us", secs / HOLDS as f64 * 1e6);
    Ok(())
}

/// `sim.event_ns`: schedule `EVENTS` empty closures, then pop and run
/// them all.
fn closure_events(out: &mut Outcome) -> Result<(), String> {
    let (secs, events) = repeat("event probe", || {
        let sim = Simulation::new();
        let h = sim.handle();
        for i in 0..EVENTS {
            h.schedule_in(SimDuration::from_nanos(i + 1), || {});
        }
        run_sim(sim)
    })?;
    if events != EVENTS {
        return Err(format!("event probe: {events} events, expected {EVENTS}"));
    }
    out.set("sim.event_ns", secs / EVENTS as f64 * 1e9);
    Ok(())
}

/// `mpi.rtt_us.*` and `mpi.rtt_events.*`: blocking ping-pong through
/// `run_pingpong`, eager at 1 KB and rendezvous at 100 KB. Events per round
/// trip are the exact difference between runs of 2N and N round trips.
fn mpi(out: &mut Outcome) -> Result<(), String> {
    let cases: [(&'static str, &'static str, Transport, u64); 4] = [
        (
            "mpi.rtt_us.gm_eager",
            "mpi.rtt_events.gm_eager",
            Transport::Gm,
            1024,
        ),
        (
            "mpi.rtt_us.gm_rndv",
            "mpi.rtt_events.gm_rndv",
            Transport::Gm,
            100 * 1024,
        ),
        (
            "mpi.rtt_us.portals_eager",
            "mpi.rtt_events.portals_eager",
            Transport::Portals,
            1024,
        ),
        (
            "mpi.rtt_us.portals_rndv",
            "mpi.rtt_events.portals_rndv",
            Transport::Portals,
            100 * 1024,
        ),
    ];
    for (rtt, events, transport, size) in cases {
        let cfg = MethodConfig::new(transport, size);
        let pingpong = |n: u64| {
            run_pingpong(&cfg, &[size], n)
                .map(|_| ())
                .map_err(|e| format!("{rtt}: {e}"))
        };
        let (_, half) = repeat(rtt, || pingpong(ROUND_TRIPS / 2))?;
        let (secs, full) = repeat(rtt, || pingpong(ROUND_TRIPS))?;
        let per_rtt = (full - half) as f64 / (ROUND_TRIPS / 2) as f64;
        out.set(rtt, secs / (ROUND_TRIPS + 1) as f64 * 1e6);
        out.set(events, per_rtt);
    }
    Ok(())
}

/// `core.*`: every cell of the figure set run directly through its point
/// runner, once. Returns the samples for the cache probe.
fn core(out: &mut Outcome) -> Result<Vec<(Cell, PointSample)>, String> {
    let mut polling_ms = Vec::new();
    let mut pww_ms = Vec::new();
    let mut runs = Vec::new();
    let t0 = Instant::now();
    for cell in figure_cells(figures::fidelity()) {
        let t = Instant::now();
        let sample = match cell.method {
            CellMethod::Polling => {
                run_polling_point_on(&cell.hw, &cell.cfg, cell.x).map(PointSample::Polling)
            }
            CellMethod::Pww { test_in_work } => {
                run_pww_point_on(&cell.hw, &cell.cfg, cell.x, test_in_work).map(PointSample::Pww)
            }
        }
        .map_err(|e| format!("cell x={}: {e}", cell.x))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match cell.method {
            CellMethod::Polling => polling_ms.push(ms),
            CellMethod::Pww { .. } => pww_ms.push(ms),
        }
        runs.push((cell, sample));
    }
    out.set("core.runner_s", t0.elapsed().as_secs_f64());
    out.set("core.cell_ms.polling.p50", median(&polling_ms));
    out.set("core.cell_ms.polling.p90", quantile(&polling_ms, 0.9));
    out.set("core.cell_ms.pww.p50", median(&pww_ms));
    Ok(runs)
}

/// `cache.put_us`, `cache.hit_disk_us`, `cache.hit_mem_us`: each figure
/// cell resolved through `CellCache::get_or_compute` (key hashing
/// included) into an empty store, then from a new cache on that store,
/// then again from the same cache's memory tier. Leaves `store` filled
/// with the figure set.
fn cache(runs: &[(Cell, PointSample)], store: &Path, out: &mut Outcome) -> Result<(), String> {
    let pass = |cache: &CellCache, want: CacheOutcome| -> Result<f64, String> {
        let mut us = Vec::with_capacity(runs.len());
        for (cell, sample) in runs {
            let t = Instant::now();
            let desc = cell_desc(&cell.hw, &cell.cfg, cell.method, cell.x);
            let key = CellKey::from_desc(&desc);
            let (got, outcome) = cache
                .get_or_compute(&desc, &key, || match want {
                    CacheOutcome::Miss => Ok(sample.clone()),
                    _ => Err(RunError::NoResult),
                })
                .map_err(|e| format!("cache probe ({want:?}): {e}"))?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
            if outcome != want || &got != sample {
                return Err(format!("cache probe: {outcome:?} where {want:?} was due"));
            }
        }
        Ok(median(&us))
    };
    let cold = CellCache::new(store, CacheMode::ReadWrite);
    out.set("cache.put_us", pass(&cold, CacheOutcome::Miss)?);
    let warm = CellCache::new(store, CacheMode::ReadWrite);
    out.set("cache.hit_disk_us", pass(&warm, CacheOutcome::HitDisk)?);
    out.set("cache.hit_mem_us", pass(&warm, CacheOutcome::HitMem)?);
    Ok(())
}

/// `report.*`: traced replays of the figure set from `store` (filled by
/// the cache probe, so this also proves the probe's cells are exactly the
/// figure set's), with the CSVs exported into `csv_dir`.
fn report(store: &Path, csv_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut spans: Vec<Spans> = Vec::with_capacity(REPORT_PASSES);
    for _ in 0..REPORT_PASSES {
        let (sp, stats) = figures::traced_pass(store, Some(csv_dir))?;
        if stats != figures::warm_counts() {
            return Err(format!("report probe: cache counters {stats:?}"));
        }
        spans.push(sp);
    }
    let med = |f: fn(&Spans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
    out.set("report.prepare_s", med(|s| s.prepare_s));
    out.set("report.generate_ms", med(|s| s.generate_ms));
    out.set("report.csv_ms", med(|s| s.csv_ms));
    out.set("report.check_ms", med(|s| s.check_ms));
    out.set("report.export_ms", med(|s| s.export_ms));
    Ok(())
}

/// Run every probe, counting each as one operation. `work` is a scratch
/// directory; the probe store is left in `work/probe-store` for reuse.
pub fn run_all(work: &Path, out: &mut Outcome) {
    let r = handoff(out);
    out.op(r);
    let r = closure_events(out);
    out.op(r);
    let r = mpi(out);
    out.op(r);
    let store = work.join("probe-store");
    let r = core(out).and_then(|runs| cache(&runs, &store, out));
    out.op(r);
    let r = report(&store, &work.join("probe-csv"), out);
    out.op(r);
}
