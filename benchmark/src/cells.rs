//! The figure set's sweep cells, enumerated from the public planner.
//!
//! `Campaigns::plan` names the campaigns the 14 figures need; the x axes
//! and per-campaign configuration below restate comb-report's (private)
//! campaign planning. The cache probe stores exactly these cells and then
//! replays the figure set from that store, so a drift between the two
//! shows as a cache miss and fails the run.

use comb_core::{lin_spaced, log_spaced, CellMethod, MethodConfig, Transport};
use comb_hw::HwConfig;
use comb_report::figures::CampaignKey;
use comb_report::{Campaigns, Fidelity, FigureId};

/// Polling x axis (poll interval, loop iterations).
const POLL_RANGE: (u64, u64) = (10, 100_000_000);
/// PWW x axis (work interval, loop iterations).
const PWW_RANGE: (u64, u64) = (10_000, 10_000_000);
/// Figures 12/13: linear axis, 8 points.
const OVERHEAD_RANGE: (u64, u64, usize) = (25_000, 500_000, 8);

/// One sweep cell: everything a point runner or the cell cache needs.
pub struct Cell {
    /// Resolved hardware description.
    pub hw: HwConfig,
    /// Method configuration at the benchmark's fidelity.
    pub cfg: MethodConfig,
    /// Polling or PWW.
    pub method: CellMethod,
    /// Poll or work interval.
    pub x: u64,
}

fn transport(platform: &str) -> Transport {
    match platform {
        "GM" => Transport::Gm,
        "Portals" => Transport::Portals,
        other => panic!("figure campaigns use GM and Portals only, got {other}"),
    }
}

/// Every cell of the figure set at `fid`, in the planner's campaign order.
pub fn figure_cells(fid: Fidelity) -> Vec<Cell> {
    let config = |platform: &str, msg_bytes: u64| {
        let mut cfg = MethodConfig::new(transport(platform), msg_bytes);
        cfg.cycles = fid.cycles;
        cfg.target_iters = fid.target_iters;
        cfg.max_intervals = fid.max_intervals;
        cfg.jobs = fid.jobs;
        cfg.shards = fid.shards;
        cfg
    };
    let mut cells = Vec::new();
    for key in Campaigns::new(fid).plan(&FigureId::ALL) {
        let (cfg, method, xs) = match key {
            CampaignKey::Polling {
                platform,
                msg_bytes,
            } => (
                config(&platform, msg_bytes),
                CellMethod::Polling,
                log_spaced(POLL_RANGE.0, POLL_RANGE.1, fid.per_decade),
            ),
            CampaignKey::Pww {
                platform,
                msg_bytes,
                test_in_work,
            } => (
                config(&platform, msg_bytes),
                CellMethod::Pww { test_in_work },
                log_spaced(PWW_RANGE.0, PWW_RANGE.1, fid.per_decade),
            ),
            CampaignKey::Overhead { platform } => (
                config(&platform, 100 * 1024),
                CellMethod::Pww {
                    test_in_work: false,
                },
                lin_spaced(OVERHEAD_RANGE.0, OVERHEAD_RANGE.1, OVERHEAD_RANGE.2),
            ),
        };
        let hw = cfg.transport.config();
        cells.extend(xs.into_iter().map(|x| Cell {
            hw: hw.clone(),
            cfg: cfg.clone(),
            method,
            x,
        }));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_figure_set_has_104_cells() {
        let cells = figure_cells(Fidelity::smoke().with_jobs(1));
        assert_eq!(cells.len(), 104);
        let pww = cells
            .iter()
            .filter(|c| matches!(c.method, CellMethod::Pww { .. }))
            .count();
        assert!(pww > 0 && pww < cells.len());
    }
}
