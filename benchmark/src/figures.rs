//! `figures_cold` and `figures_warm`: the paper's figure set at smoke
//! fidelity and `--jobs 1`, through the calls `comb all` makes.

use crate::metrics::Outcome;
use crate::oracle;
use comb_core::{CacheMode, CacheStats, CellCache};
use comb_report::{check_figure, generate, Campaigns, FigureId, FigureReport};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cells in the smoke figure set.
pub const CELLS: u64 = 104;

/// The benchmark's fidelity: `comb all --fidelity smoke --jobs 1`.
pub fn fidelity() -> comb_report::Fidelity {
    comb_report::Fidelity::smoke().with_jobs(1)
}

fn cache(store: &Path) -> Arc<CellCache> {
    Arc::new(CellCache::new(store, CacheMode::ReadWrite))
}

/// Every shape check passes and every CSV matches its recorded digest.
fn check_outputs(reports: &[FigureReport], csvs: &[String]) -> Result<(), String> {
    if reports.len() != FigureId::ALL.len() || csvs.len() != reports.len() {
        return Err(format!("{} figures, {} CSVs", reports.len(), csvs.len()));
    }
    for (r, csv) in reports.iter().zip(csvs) {
        if let Some(c) = r.checks.iter().find(|c| !c.pass) {
            return Err(format!("{}: shape check failed: {c:?}", r.id));
        }
        oracle::check(&format!("{}.csv", r.id), csv.as_bytes())?;
    }
    Ok(())
}

fn check_counts(stats: CacheStats, want: CacheStats) -> Result<(), String> {
    if stats == want {
        Ok(())
    } else {
        Err(format!("cache counters {stats:?}, expected {want:?}"))
    }
}

/// Counters a cold pass leaves: every cell computed and stored once.
pub fn cold_counts() -> CacheStats {
    CacheStats {
        misses: CELLS,
        stored: CELLS,
        ..CacheStats::default()
    }
}

/// Counters a warm replay leaves: every cell read from disk.
pub fn warm_counts() -> CacheStats {
    CacheStats {
        hits_disk: CELLS,
        ..CacheStats::default()
    }
}

/// One cold figure set, as `comb all --fidelity smoke --jobs 1 --out`
/// does it on first use: 104 cells simulated into a fresh store, 14 CSVs
/// written. Returns the timed seconds; `store` and `out` are left behind
/// for the caller to remove.
pub fn cold_pass(store: &Path, out: &Path) -> Result<f64, String> {
    let cache = cache(store);
    let t0 = Instant::now();
    let reports =
        comb_report::run_figures_cached(&FigureId::ALL, fidelity(), Some(out), Some(cache.clone()))
            .map_err(|e| format!("cold figure set: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let mut csvs = Vec::with_capacity(reports.len());
    for r in &reports {
        let path = r.csv_path.as_ref().ok_or("a figure wrote no CSV")?;
        csvs.push(std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    check_outputs(&reports, &csvs)?;
    check_counts(cache.stats(), cold_counts())?;
    Ok(secs)
}

/// One warm replay from a filled store: a fresh `CellCache` on the store
/// (so the disk tier is read, as a second `comb all` would), CSV bytes
/// rendered in memory. Returns the timed seconds.
pub fn warm_pass(store: &Path) -> Result<f64, String> {
    let cache = cache(store);
    let t0 = Instant::now();
    let reports =
        comb_report::run_figures_cached(&FigureId::ALL, fidelity(), None, Some(cache.clone()))
            .map_err(|e| format!("warm replay: {e}"))?;
    let csvs: Vec<String> = reports.iter().map(|r| r.dataset.to_csv()).collect();
    let secs = t0.elapsed().as_secs_f64();
    check_outputs(&reports, &csvs)?;
    check_counts(cache.stats(), warm_counts())?;
    Ok(secs)
}

/// Time spent in each report-layer call of one traced figure pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// `Campaigns::prepare` (all cells, through the cache).
    pub prepare_s: f64,
    /// `generate`, summed over the figures.
    pub generate_ms: f64,
    /// `Dataset::to_csv`, summed.
    pub csv_ms: f64,
    /// `check_figure`, summed.
    pub check_ms: f64,
    /// `atomic_write` of each CSV into `out`, summed (0 without `out`).
    pub export_ms: f64,
    /// The whole pass, as the untraced call would time it.
    pub total_s: f64,
}

/// The figure pass split into the public calls `run_figures_cached`
/// makes, with a timer around each. With `out`, CSVs are exported as
/// `comb all --out` does.
pub fn traced_pass(store: &Path, out: Option<&Path>) -> Result<(Spans, CacheStats), String> {
    let cache = cache(store);
    let mut sp = Spans::default();
    let start = Instant::now();
    let mut campaigns = Campaigns::new(fidelity());
    campaigns.set_cache(cache.clone());
    campaigns
        .prepare(&FigureId::ALL)
        .map_err(|e| format!("prepare: {e}"))?;
    sp.prepare_s = start.elapsed().as_secs_f64();
    let mut csvs = Vec::with_capacity(FigureId::ALL.len());
    let mut checks = Vec::with_capacity(FigureId::ALL.len());
    for id in FigureId::ALL {
        let t = Instant::now();
        let ds = generate(id, &mut campaigns).map_err(|e| format!("generate {id}: {e}"))?;
        sp.generate_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let c = check_figure(id, &ds);
        sp.check_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let csv = ds.to_csv();
        sp.csv_ms += t.elapsed().as_secs_f64() * 1e3;
        if let Some(dir) = out {
            let t = Instant::now();
            comb_trace::atomic_write_str(&dir.join(format!("{id}.csv")), &csv)
                .map_err(|e| format!("exporting {id}.csv: {e}"))?;
            sp.export_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        checks.push((id, c));
        csvs.push(csv);
    }
    sp.total_s = start.elapsed().as_secs_f64();
    for ((id, c), csv) in checks.iter().zip(&csvs) {
        if let Some(failed) = c.iter().find(|c| !c.pass) {
            return Err(format!("{id}: shape check failed: {failed:?}"));
        }
        oracle::check(&format!("{id}.csv"), csv.as_bytes())?;
    }
    Ok((sp, cache.stats()))
}

/// Record one operation's result and return its timing, if any.
pub fn timed(out: &mut Outcome, r: Result<f64, String>) -> Option<f64> {
    match r {
        Ok(s) => {
            out.op(Ok(()));
            Some(s)
        }
        Err(e) => {
            out.op(Err(e));
            None
        }
    }
}
