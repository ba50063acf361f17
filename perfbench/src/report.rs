//! Metric names, units and the printed result.
//!
//! The end-to-end and per-layer catalogues below are the single list of
//! what the benchmark prints; `BENCHMARK.json` declares the same names
//! (checked by this module's tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use saav_core::{ResponseStrategy, ScenarioFamily};

/// End-to-end metrics, printed by every untraced run. Tick percentiles
/// are per-layer only (`runner.tick_*`, `city.tick_*`): on a shared host
/// their spread between runs (p50 on `solo-stepped`, p99 on `city-dense`)
/// was too wide to gate on, and `fleet-sweep` has no per-tick hook.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("vehicle_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics that are not per family × strategy cell, printed by
/// every traced run. A layer the workload does not exercise reads 0, and
/// the detail line records which metrics that applies to.
const LAYER_FIXED: [(&str, &str); 62] = [
    ("scenario.build_us", "us"),
    ("runner.new_us", "us"),
    ("runner.finish_us", "us"),
    ("runner.tick_p50_us", "us"),
    ("runner.tick_p99_us", "us"),
    ("runner.tick_tail_us", "us"),
    ("runner.tick_tail_pct", "%"),
    ("runner.tick_samples", "count"),
    ("monitor.ns_per_call", "ns"),
    ("monitor.tick_share", "ratio"),
    ("monitor.anomalies_raised", "count"),
    ("coordinator.escalations_routed", "count"),
    ("coordinator.resolved_ratio", "ratio"),
    ("rte.deadline_misses", "count"),
    ("mcc.switches_admitted", "count"),
    ("mcc.switches_rejected", "count"),
    ("mcc.switches_rolled_back", "count"),
    ("platoon.ns_per_round", "ns"),
    ("platoon.ejections", "count"),
    ("can.v2v_sent", "count"),
    ("can.v2v_dropped", "count"),
    ("can.v2v_delayed", "count"),
    ("city.new_ms", "ms"),
    ("city.tick_mean_us", "us"),
    ("city.tick_p50_us", "us"),
    ("city.tick_p99_us", "us"),
    ("city.tick_tail_us", "us"),
    ("city.tick_tail_pct", "%"),
    ("city.tick_samples", "count"),
    ("city.focal_ns_per_vehicle_tick", "ns"),
    ("city.full_tier_share", "ratio"),
    ("city.promotions", "count"),
    ("city.demotions", "count"),
    ("city.max_full_tier", "count"),
    ("surrogate.ns_per_vehicle_tick", "ns"),
    ("pool.barriers_per_tick", "count"),
    ("process.cpu_util", "ratio"),
    ("fleet.cold_sweep_s", "s"),
    ("fleet.warm_sweep_us", "us"),
    ("fleet.stats_us", "us"),
    ("executor.steals", "count"),
    ("cache.key_ns", "ns"),
    ("cache.get_ns", "ns"),
    ("cache.disk_get_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.entry_bytes", "B"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.disk_hits", "count"),
    ("cache.insertions", "count"),
    ("colstore.encode_ns_per_row", "ns"),
    ("colstore.decode_ns_per_row", "ns"),
    ("colstore.bytes_per_row", "B"),
    ("colstore.stats_us", "us"),
    ("colstore.percentiles_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("span.workload.self_ms", "ms"),
    ("span.run.self_ms", "ms"),
    ("span.tick.self_ms", "ms"),
    ("span.sweep.self_ms", "ms"),
    ("span.cache.self_ms", "ms"),
    ("span.colstore.self_ms", "ms"),
];

/// A strategy's name in metric names.
pub fn strategy_name(s: ResponseStrategy) -> &'static str {
    match s {
        ResponseStrategy::SingleLayer => "single-layer",
        ResponseStrategy::CrossLayer => "cross-layer",
        ResponseStrategy::ObjectiveStop => "objective-stop",
    }
}

/// The per-cell solo tick metric: `runner.tick_ns.<family>.<strategy>`,
/// with `+` in family names replaced by `-`.
pub fn cell_metric(family: ScenarioFamily, strategy: ResponseStrategy) -> String {
    format!(
        "runner.tick_ns.{}.{}",
        family.name().replace('+', "-"),
        strategy_name(strategy)
    )
}

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for family in ScenarioFamily::ALL {
        for strategy in ResponseStrategy::ALL {
            all.push((cell_metric(family, strategy), "ns"));
        }
    }
    all
}

/// Whether `name` obeys the metric naming rule `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one run measured: metric values by name, plus free-form detail
/// (host record, sample counts, ratio bases, checks) as raw JSON values.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    detail: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a detail entry; `json` must already be a JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.insert(key.to_string(), json);
    }

    /// Takes over every value and detail entry of `other`.
    pub fn absorb(&mut self, other: Report) {
        self.values.extend(other.values);
        self.detail.extend(other.detail);
    }

    pub fn detail_str(&mut self, key: &str, s: &str) {
        self.detail(key, json_str(s));
    }

    /// Prints the detail line, then the result line (always last).
    /// `catalogue` is the metric list this run must print; a metric the
    /// workload did not measure reads 0 and is listed under
    /// `not_exercised`.
    pub fn print(
        mut self,
        catalogue: &[(String, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) {
        let unknown: Vec<&String> = self
            .values
            .keys()
            .filter(|k| !catalogue.iter().any(|(n, _)| n == *k))
            .collect();
        assert!(unknown.is_empty(), "uncatalogued metrics {unknown:?}");
        assert!(catalogue.iter().all(|(n, _)| valid_name(n)));
        let mut metrics = String::new();
        let mut missing = Vec::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    missing.push(json_str(name));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                value,
                json_str(unit)
            );
        }
        self.detail("not_exercised", format!("[{}]", missing.join(", ")));
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        println!("{{\"detail\": {{{}}}}}", detail.join(", "));
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        );
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = json
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("no {list} list"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list is closed")];
        body.split("\"name\"")
            .skip(1)
            .map(|entry| {
                let entry = &entry[entry.find('"').expect("name value") + 1..];
                entry[..entry.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn every_printed_name_obeys_the_naming_rule() {
        let names = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n));
        for name in names {
            assert!(valid_name(&name), "{name}");
            assert!(name.len() <= 64, "{name}");
        }
        assert!(!valid_name("runner.tick_ns.fog+intrusion.cross-layer"));
        assert!(!valid_name(""));
    }

    #[test]
    fn family_names_lose_their_plus() {
        assert_eq!(
            cell_metric(ScenarioFamily::FogIntrusion, ResponseStrategy::SingleLayer),
            "runner.tick_ns.fog-intrusion.single-layer"
        );
        assert_eq!(per_layer().len(), LAYER_FIXED.len() + 27);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
