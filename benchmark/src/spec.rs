//! The benchmark's vocabulary: workloads, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root states the same tables for
//! the driver; a unit test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperLvfl,
    PaperCmp,
    PaperLvflObserved,
    CitySharded,
    LiveChain,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperLvfl,
        Workload::PaperCmp,
        Workload::PaperLvflObserved,
        Workload::CitySharded,
        Workload::LiveChain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLvfl => "paper_lvfl",
            Workload::PaperCmp => "paper_cmp",
            Workload::PaperLvflObserved => "paper_lvfl_observed",
            Workload::CitySharded => "city_sharded",
            Workload::LiveChain => "live_chain",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; one line, repeated in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperLvfl => "paper config, headline scheme lvfl on the classic engine: planner, announce flood and label sharing do the work; least link traffic",
            Workload::PaperCmp => "same scenarios and engine, scheme cmp: no planner, about 6x the bytes, ticks and data deliveries; a planner change must leave it unchanged",
            Workload::PaperLvflObserved => "paper_lvfl through run_scenario_observed into a JSONL sink with the ledger teed in: dde-obs work shows here and must not leak into paper_lvfl",
            Workload::CitySharded => "city config on the sharded engine at one thread: the other event loop, which the three paper workloads bypass",
            Workload::LiveChain => "4-node chain over real loopback TCP, open loop at about 256 queries/s, checked against the DES oracle: the only path through dde-net",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one.
///
/// A bound is a regression threshold and cannot be tighter than the metric
/// repeats on its worst workload. The driver takes a metric's spread over ten
/// *seeds*, and each bound here is about three times the widest spread
/// measured that way (README.md, "Bounds"). The simulated metrics owe their
/// spread to the paper's scenario generator alone: between two commits on one
/// seed they are exact. `host_us_per_query` owes its bound to `live_chain`,
/// whose raw latency drifts with the load on the shared host.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_us_per_query", "us", Lower, 0.25),
    e2e("resolution_ratio", "ratio", Higher, 0.20),
    e2e("accuracy", "ratio", Higher, 0.01),
    e2e("mb_per_decision", "MB", Lower, 0.20),
    e2e("decision_latency_s_p50", "sim_s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Single layers, by crate (`dde-` dropped). A workload that does not run a
/// layer reports 0 for it.
pub const PER_LAYER: [Metric; 76] = [
    layer("workload.build_ms", "ms", Lower),
    layer("netsim.events", "count", Lower),
    layer("netsim.msgs_announce", "count", Lower),
    layer("netsim.msgs_request", "count", Lower),
    layer("netsim.msgs_data", "count", Lower),
    layer("netsim.msgs_label", "count", Lower),
    layer("netsim.engine_self_ms", "ms", Lower),
    layer("netsim.ns_per_event", "ns", Lower),
    layer("netsim.shard_regions", "count", Higher),
    layer("netsim.shard_boundary_link_share", "ratio", Lower),
    layer("netsim.shard_lookahead_us", "sim_us", Higher),
    layer("netsim.classic_over_shard1", "ratio", Higher),
    layer("netsim.shard_tN_over_t1", "ratio", Lower),
    layer("core.on_external.busy_ms", "ms", Lower),
    layer("core.on_external.calls", "count", Lower),
    layer("core.on_message_announce.busy_ms", "ms", Lower),
    layer("core.on_message_announce.calls", "count", Lower),
    layer("core.on_message_request.busy_ms", "ms", Lower),
    layer("core.on_message_request.calls", "count", Lower),
    layer("core.on_message_data.busy_ms", "ms", Lower),
    layer("core.on_message_data.calls", "count", Lower),
    layer("core.on_message_label.busy_ms", "ms", Lower),
    layer("core.on_message_label.calls", "count", Lower),
    layer("core.on_timer_tick.busy_ms", "ms", Lower),
    layer("core.on_timer_tick.calls", "count", Lower),
    layer("core.on_timer_deadline.busy_ms", "ms", Lower),
    layer("core.on_timer_deadline.calls", "count", Lower),
    layer("core.handler_share", "ratio", Lower),
    layer("core.allocs_per_event", "count", Lower),
    layer("core.alloc_bytes_per_event", "B", Lower),
    layer("core.cache_hits", "count", Higher),
    layer("core.label_hits", "count", Higher),
    layer("core.requests_forwarded", "count", Lower),
    layer("core.data_forwarded", "count", Lower),
    layer("core.decision_latency_s_p95", "sim_s", Lower),
    layer("sched.plan_dnf_ns", "ns", Lower),
    layer("coverage.greedy_cover_ns", "ns", Lower),
    layer("logic.resolution_ns", "ns", Lower),
    layer("naming.name_parse_ns", "ns", Lower),
    layer("naming.store_insert_ns", "ns", Lower),
    layer("naming.store_insert_evict_ns", "ns", Lower),
    layer("naming.store_get_fresh_ns", "ns", Lower),
    layer("naming.pit_register_take_ns", "ns", Lower),
    layer("naming.store_share", "ratio", Lower),
    layer("obs.records", "count", Lower),
    layer("obs.trace_bytes", "B", Lower),
    layer("obs.sink_busy_ms", "ms", Lower),
    layer("obs.ns_per_record", "ns", Lower),
    layer("obs.ledger_fold_ms", "ms", Lower),
    layer("obs.feedback_fold_ms", "ms", Lower),
    layer("obs.overhead_ratio", "ratio", Lower),
    layer("net.frame_encode_ns.announce", "ns", Lower),
    layer("net.frame_encode_ns.request", "ns", Lower),
    layer("net.frame_encode_ns.data", "ns", Lower),
    layer("net.frame_encode_ns.label", "ns", Lower),
    layer("net.frame_decode_ns.announce", "ns", Lower),
    layer("net.frame_decode_ns.request", "ns", Lower),
    layer("net.frame_decode_ns.data", "ns", Lower),
    layer("net.frame_decode_ns.label", "ns", Lower),
    layer("net.frame_bytes_mean", "B", Lower),
    layer("net.tcp_send_to_us_p50", "us", Lower),
    layer("net.tcp_rtt_us_p50", "us", Lower),
    layer("net.tcp_oneway_frames_per_s", "1/s", Higher),
    layer("net.tcp_fanout_frames_per_s", "1/s", Higher),
    layer("net.frames_out", "count", Lower),
    layer("net.bytes_out", "B", Lower),
    layer("net.connect_retries", "count", Lower),
    layer("net.send_errors", "count", Lower),
    layer("net.decode_errors", "count", Lower),
    layer("net.issue_lag_us_max", "us", Lower),
    layer("net.decision_wall_us_p95", "us", Lower),
    layer("host.cpus", "count", Higher),
    layer("host.calib_ms_p50", "ms", Lower),
    layer("host.calib_ms_iqr", "ms", Lower),
    layer("host.run_ms_raw", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The metrics of one invocation, by name.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// One `(metric, value)` per row of `table`; a metric never set reads 0.
    pub fn in_table_order(&self, table: &[Metric]) -> Vec<(Metric, f64)> {
        table
            .iter()
            .map(|m| (*m, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }

    /// Names set that `table` does not list: a typo in a driver.
    pub fn unknown_to(&self, table: &[Metric]) -> Vec<&str> {
        self.0
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| table.iter().all(|m| m.name != *n))
            .collect()
    }
}

/// Whether a metric is a count or a simulated quantity that two runs of the
/// same code on the same seed must reproduce bit for bit. Host times, rates
/// and anything the kernel's scheduler can touch are not.
pub fn repeats_exactly(name: &str) -> bool {
    name.ends_with(".calls")
        || name.starts_with("netsim.msgs_")
        || matches!(
            name,
            "resolution_ratio"
                | "accuracy"
                | "mb_per_decision"
                | "decision_latency_s_p50"
                | "core.decision_latency_s_p95"
                | "netsim.events"
                | "core.cache_hits"
                | "core.label_hits"
                | "core.requests_forwarded"
                | "core.data_forwarded"
                | "obs.records"
                | "obs.trace_bytes"
                | "net.frame_bytes_mean"
        )
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub values: Values,
    /// Queries issued across the timed passes.
    pub attempted: u64,
    /// Queries of the runs that failed a correctness check. A query that
    /// misses its simulated deadline is an outcome of the modelled system,
    /// reported by `resolution_ratio`, not a failed operation.
    pub failed: u64,
    /// Correctness checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{parse_json, JsonValue};

    fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(charset_ok(m.name, "_.-", 64), "metric name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(charset_ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in Workload::ALL {
            assert!(charset_ok(w.name(), "_.-", 64));
            assert!(seen.insert(w.name()), "{} used twice", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn items(v: &JsonValue) -> &[JsonValue] {
        match v {
            JsonValue::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");

        let workloads = items(field(&doc, "workloads"));
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (json, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(json, "name").as_str(), Some(w.name()));
            assert_eq!(field(json, "why").as_str(), Some(w.why()));
        }
        let check = |key: &str, table: &[Metric], bounded: bool| {
            let listed = items(field(&doc, key));
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (json, m) in listed.iter().zip(table) {
                assert_eq!(field(json, "name").as_str(), Some(m.name));
                assert_eq!(field(json, "unit").as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field(json, "better").as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                if bounded {
                    assert_eq!(field(json, "bound").as_float(), Some(m.bound), "{}", m.name);
                } else {
                    assert!(json.get("bound").is_none(), "{} has no bound", m.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        assert_eq!(items(field(&doc, "paths")).len(), 1);
        assert_eq!(items(field(&doc, "paths"))[0].as_str(), Some("benchmark"));
    }

    #[test]
    fn values_keep_table_order_and_flag_typos() {
        let mut v = Values::default();
        v.set("peak_rss_mb", 3.0);
        v.set("setup_s", 1.0);
        v.set("setup_s", 2.0);
        v.set("not_a_metric", 9.0);
        let rows = v.in_table_order(&END_TO_END);
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!((rows[0].0.name, rows[0].1), ("setup_s", 2.0));
        assert_eq!(rows[1].1, 0.0, "unset reads 0");
        assert_eq!(v.unknown_to(&END_TO_END), vec!["not_a_metric"]);
    }
}
