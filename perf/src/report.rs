//! Metric names, units and the result line. `BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step.

use std::collections::BTreeMap;
use tqsim_json::{num, num_u64, obj, str_val, Value};

/// End-to-end metrics: every workload measures every one of them, in both
/// modes; the result line carries them with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("us_per_shot", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (layer = crate name). A workload measures the ones of
/// the layers it exercises; the result line of a traced run carries all of
/// them, because the driver's contract wants every name on every workload,
/// and reads 0 for one the workload did not measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.build_s", "s"),
    ("core.plan_s", "s"),
    ("core.compile_s", "s"),
    ("core.execute_s", "s"),
    ("core.tree_us_per_shot", "us"),
    ("core.mc_us_per_shot", "us"),
    ("core.speedup_vs_mc", "x"),
    ("core.tree_nodes", "count"),
    ("core.tree_leaves", "count"),
    ("core.reuse_ratio", "x"),
    ("core.walk_other_s", "s"),
    ("core.walk_unattributed_frac", "frac"),
    ("statevec.replay_s", "s"),
    ("statevec.copy_s", "s"),
    ("statevec.sample_s", "s"),
    ("statevec.amp_passes", "count"),
    ("statevec.state_copies", "count"),
    ("statevec.samples", "count"),
    ("statevec.fused_gates", "count"),
    ("statevec.replay_ns_per_amp_pass", "ns"),
    ("statevec.copy_ns_per_amp", "ns"),
    ("statevec.sample_ns_per_amp", "ns"),
    ("statevec.gate_ns_per_amp_1q", "ns"),
    ("statevec.gate_ns_per_amp_2q", "ns"),
    ("statevec.gate_ns_per_amp_diag", "ns"),
    ("statevec.bytes_moved_computed_gb", "GB"),
    ("statevec.effective_gbps", "GB/s"),
    ("statevec.copy_gbps", "GB/s"),
    ("noise.ops", "count"),
    ("noise.overhead_s", "s"),
    ("noise.overhead_frac", "frac"),
    ("rayon.tasks", "count"),
    ("rayon.busy_s", "s"),
    ("rayon.amp_parallel_speedup", "x"),
    ("engine.us_per_shot", "us"),
    ("engine.tasks", "count"),
    ("engine.steals", "count"),
    ("engine.parks", "count"),
    ("engine.busy_s", "s"),
    ("engine.idle_s", "s"),
    ("engine.pool_allocations", "count"),
    ("engine.pool_high_water", "count"),
    ("engine.parallel_efficiency", "frac"),
    ("engine.overhead_frac_p1", "frac"),
    ("service.jobs_per_s", "1/s"),
    ("service.job_ms_p50", "ms"),
    ("service.job_ms_p90", "ms"),
    ("service.hit_job_ms_p50", "ms"),
    ("service.miss_job_ms_p50", "ms"),
    ("service.stage_queue_wait_s", "s"),
    ("service.stage_compile_s", "s"),
    ("service.stage_execute_s", "s"),
    ("service.stage_stream_s", "s"),
    ("service.stage_e2e_s", "s"),
    ("service.stage_e2e_ms_p50", "ms"),
    ("service.wire_overhead_ms_p50", "ms"),
    ("service.cache_hit_rate", "frac"),
    ("service.cache_compiles", "count"),
    ("service.direct_jobs_per_s", "1/s"),
    ("json.parse_us_per_kb", "us"),
    ("json.print_us_per_kb", "us"),
    ("obs.overhead_frac", "frac"),
    ("cluster.us_per_shot", "us"),
    ("cluster.exchanges", "count"),
    ("cluster.bytes_exchanged", "count"),
    ("cluster.local_gates", "count"),
    ("cluster.global_gates", "count"),
    ("cluster.state_copies", "count"),
    ("cluster.modeled_s", "s"),
    ("cluster.vs_single_node", "x"),
    ("shard.us_per_shot", "us"),
    ("shard.spawn_s", "s"),
    ("shard.exchanges", "count"),
    ("shard.bytes_exchanged", "count"),
    ("shard.exchange_wire_s", "s"),
    ("shard.wire_frac", "frac"),
    ("shard.worker_rss_mb", "MB"),
    ("densmat.oracle_fidelity", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// What one run measured, by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Add to `name` (layer totals summed over circuits).
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name).unwrap_or(0.0) + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric that was measured, in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|&(name, unit)| Some((name, self.get(name)?, unit)))
    }
}

/// One op = one run or job. A refused, errored or check-failing op is
/// failed and misses every latency figure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one op; `ok` is whether its output passed its checks.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
        ok
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
/// The metrics are the end-to-end table with tracing off and the per-layer
/// table with tracing on.
///
/// # Panics
///
/// Panics when an end-to-end metric was not measured: every workload
/// measures all of them.
pub fn result_json(ops: &Ops, metrics: &Metrics, trace: bool) -> Value {
    let fields = if trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|&(name, unit)| {
            let value = match metrics.get(name) {
                Some(value) => value,
                None if trace => 0.0,
                None => panic!("{name} was not measured"),
            };
            (
                name.to_string(),
                obj(vec![("value", num(value)), ("unit", str_val(unit))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(ops.failed == 0)),
        ("attempted", num_u64(ops.attempted)),
        ("failed", num_u64(ops.failed)),
        ("metrics", Value::Obj(fields)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_tqsim_json() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set("us_per_shot", 1.2034e3);
        m.set("peak_rss_mb", 42.0);
        m.set("core.plan_s", 9.0); // per-layer: printed, not in the untraced result
        let mut ops = Ops::default();
        ops.op(true, String::new);
        ops.op(false, || "deliberately wrong expected Counts".into());
        let text = result_json(&ops, &m, false).to_json();
        assert!(!text.contains('\n'));
        let v = tqsim_json::parse(&text).expect("result parses");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        let metrics = v.get("metrics").expect("metrics");
        let Value::Obj(fields) = metrics else {
            panic!("metrics is an object")
        };
        assert_eq!(fields.len(), END_TO_END.len());
        let us = metrics.get("us_per_shot").expect("us_per_shot");
        assert_eq!(us.get("value").and_then(Value::as_f64), Some(1.2034e3));
        assert_eq!(us.get("unit").and_then(Value::as_str), Some("us"));
    }

    #[test]
    fn rows_list_what_was_measured_and_the_traced_result_lists_every_name() {
        let mut m = Metrics::default();
        m.add("statevec.replay_s", 1.5);
        m.add("statevec.replay_s", 0.25);
        m.set("us_per_shot", 3.0);
        assert_eq!(m.get("statevec.replay_s"), Some(1.75));
        assert_eq!(m.get("service.job_ms_p90"), None);
        let rows: Vec<_> = m.rows().collect();
        assert_eq!(
            rows,
            [("us_per_shot", 3.0, "us"), ("statevec.replay_s", 1.75, "s")]
        );
        let v = result_json(&Ops::default(), &m, true);
        let Some(Value::Obj(fields)) = v.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(fields.len(), PER_LAYER.len());
        assert!(v
            .get("metrics")
            .and_then(|f| f.get("us_per_shot"))
            .is_none());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
