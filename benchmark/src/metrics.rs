//! Metric names and units, and the one-line JSON result.
//!
//! The two tables are the benchmark's vocabulary: an untraced run
//! (`--trace 0`) prints exactly the end-to-end set, a traced run exactly
//! the per-layer set, and a test checks both against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.handoff_us", "us"),
    ("sim.event_ns", "ns"),
    ("sim.events", "count"),
    ("sim.scheduled", "count"),
    ("sim.cancelled", "count"),
    ("sim.lane_scheduled", "count"),
    ("sim.boxed_calls", "count"),
    ("sim.events_per_s", "1/s"),
    ("hw.burst_batched_packets", "count"),
    ("mpi.rtt_us.gm_eager", "us"),
    ("mpi.rtt_us.gm_rndv", "us"),
    ("mpi.rtt_us.portals_eager", "us"),
    ("mpi.rtt_us.portals_rndv", "us"),
    ("mpi.rtt_events.gm_eager", "count"),
    ("mpi.rtt_events.gm_rndv", "count"),
    ("mpi.rtt_events.portals_eager", "count"),
    ("mpi.rtt_events.portals_rndv", "count"),
    ("core.cell_ms.polling.p50", "ms"),
    ("core.cell_ms.polling.p90", "ms"),
    ("core.cell_ms.pww.p50", "ms"),
    ("core.runner_s", "s"),
    ("cache.put_us", "us"),
    ("cache.hit_disk_us", "us"),
    ("cache.hit_mem_us", "us"),
    ("cache.hits_mem", "count"),
    ("cache.hits_disk", "count"),
    ("cache.misses", "count"),
    ("cache.joined", "count"),
    ("cache.stored", "count"),
    ("cache.hit_rate", "ratio"),
    ("report.prepare_s", "s"),
    ("report.generate_ms", "ms"),
    ("report.csv_ms", "ms"),
    ("report.check_ms", "ms"),
    ("report.export_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_ref_ms", "ms"),
];

/// Operations attempted and failed, plus the metric values of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (set-up, probes and timed operations).
    pub attempted: u64,
    /// Failures: error returns, non-200 responses, failing shape checks
    /// and outputs whose digest differs from the recorded one.
    pub failed: u64,
    /// The first few failure messages, echoed to stderr.
    pub errors: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one operation; a failed one keeps its message.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for a run that measured `table`: every metric of
    /// the table, no other, each a finite number.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric '{extra}' is not in this run's table"));
        }
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric '{name}' is not finite ({v})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comb_serve::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn ours(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        assert_eq!(ours(END_TO_END), declared("end_to_end"));
        assert_eq!(ours(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_has_every_metric_and_no_other() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let line = o.to_json(END_TO_END).expect("complete");
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert!(o.to_json(PER_LAYER).is_err());
        o.set("sim.events", 1.0);
        assert!(o.to_json(END_TO_END).is_err());
    }

    #[test]
    fn a_failed_operation_marks_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(Err("boom".to_string()));
        for (name, _) in END_TO_END {
            o.set(name, 2.0);
        }
        let line = o.to_json(END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
