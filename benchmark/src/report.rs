//! The metric registry — every name the benchmark may print, with its
//! unit and direction (what each one measures and which end-to-end metric a
//! per-layer metric is expected to move is in `README.md`, held to this
//! registry by a unit test) — and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Length of the timed phase the driver asks for (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("req_cost_rel", "ref-op", "lower", 0.25),
    e2e("lat_p50_rel", "ref-op", "lower", 0.25),
    e2e("lat_p90_rel", "ref-op", "lower", 0.25),
    e2e("cpu_cost_rel", "ref-op", "lower", 0.25),
    e2e("ok_frac", "ratio", "higher", 0.001),
    e2e("index_bytes_per_vertex", "B/vertex", "lower", 0.001),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("gen.graph_s", "s", "lower"),
    layer("labelling.build_s", "s", "lower"),
    layer("labelling.build_rel", "ref-op", "lower"),
    layer("labelling.entries_per_vertex", "count", "lower"),
    layer("labelling.bytes_per_vertex", "B/vertex", "lower"),
    layer("store.save_s", "s", "lower"),
    layer("store.open_us", "us", "lower"),
    layer("store.file_bytes_per_vertex", "B/vertex", "lower"),
    layer("store.mapped_over_owned", "ratio", "lower"),
    layer("sketch.call_us", "us", "lower"),
    layer("sketch.call_rel", "ref-op", "lower"),
    layer("sketch.hops_per_call", "count", "lower"),
    layer("sketch.meta_edges_per_call", "count", "lower"),
    layer("sketch.slack_mean", "count", "lower"),
    layer("search.dist_us", "us", "lower"),
    layer("search.dist_rel", "ref-op", "lower"),
    layer("search.spg_us", "us", "lower"),
    layer("search.spg_rel", "ref-op", "lower"),
    layer("search.self_rel", "ref-op", "lower"),
    layer("search.materialise_rel", "ref-op", "lower"),
    layer("search.edges_per_query", "count", "lower"),
    layer("search.settled_per_query", "count", "lower"),
    layer("search.levels_per_query", "count", "lower"),
    layer("search.recover_frac", "ratio", "lower"),
    layer("search.reverse_frac", "ratio", "lower"),
    layer("search.answer_edges_per_query", "count", "lower"),
    layer("plan.batch_speedup", "ratio", "higher"),
    layer("plan.dup_in_frame_frac", "ratio", "higher"),
    layer("plan.same_source_frac", "ratio", "higher"),
    layer("cache.repeat_frac", "ratio", "higher"),
    layer("cache.speedup", "ratio", "higher"),
    layer("cache.hit_rel", "ref-op", "lower"),
    layer("cache.miss_overhead", "ratio", "lower"),
    layer("engine.fanout_speedup", "ratio", "higher"),
    layer("engine.midbatch_speedup", "ratio", "higher"),
    layer("engine.submit1_over_execute", "ratio", "lower"),
    layer("wire.req_bytes_per_req", "B", "lower"),
    layer("wire.reply_bytes_per_req", "B", "lower"),
    layer("wire.encode_rel", "ref-op", "lower"),
    layer("wire.decode_rel", "ref-op", "lower"),
    layer("server.ping_us", "us", "lower"),
    layer("server.ping_rel", "ref-op", "lower"),
    layer("server.frame_rel", "ref-op", "lower"),
    layer("server.overhead_rel", "ref-op", "lower"),
    layer("server.pipelined_speedup", "ratio", "higher"),
    layer("server.shed_frac", "ratio", "lower"),
    layer("router.ping_rel", "ref-op", "lower"),
    layer("router.frame_rel", "ref-op", "lower"),
    layer("router.overhead_rel", "ref-op", "lower"),
    layer("router.unavailable_frac", "ratio", "lower"),
    layer("loadgen.req_per_s", "1/s", "higher"),
    layer("loadgen.lat_p50_us", "us", "lower"),
    layer("loadgen.lat_p99_us", "us", "lower"),
    layer("loadgen.cpu_us_per_req", "us", "lower"),
    layer("loadgen.ref_op_us", "us", "lower"),
    layer("loadgen.ref_spread", "ratio", "lower"),
    layer("loadgen.rounds", "count", "higher"),
    layer("loadgen.samples", "count", "higher"),
    layer("loadgen.offered_per_s", "1/s", "higher"),
    layer("loadgen.achieved_per_s", "1/s", "higher"),
    layer("loadgen.lag_p99_us", "us", "lower"),
    layer("loadgen.setup_raw_s", "s", "lower"),
    layer("loadgen.trace_overhead_frac", "ratio", "lower"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a registered metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `defs`, each of which must have been measured.
    fn json(&self, defs: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, def) in defs.iter().enumerate() {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("write to string");
        }
        out.push('}');
        out
    }

    /// A table of `defs` for people, one metric per line.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            if let Some(value) = self.get(def.name) {
                out.push_str(&def.row(value));
            }
        }
        out
    }
}

impl MetricDef {
    /// One line of a table for people.
    pub fn row(&self, value: f64) -> String {
        format!(
            "  {:<32} {value:>16.4} {:<8} ({} is better)\n",
            self.name, self.unit, self.better
        )
    }
}

/// The single JSON object a run prints as its last line.
pub fn result_line(metrics: &Metrics, defs: &[MetricDef], attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json(defs)
    )
}

/// Reads one metric's value back out of a result line.
pub fn value_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of `BENCHMARK.json`: the registry and the workloads in the
    /// shape the driver reads. A unit test holds the checked-in file to it.
    fn manifest() -> String {
        let mut out = String::from(
            "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
        );
        writeln!(out, "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [")
            .expect("write to string");
        let workloads: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        writeln!(out, "{}\n  ],\n  \"end_to_end\": [", workloads.join(",\n"))
            .expect("write to string");
        let entry = |d: &MetricDef| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            )
        };
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|d| format!("{}, \"bound\": {}}}", entry(d), d.bound))
            .collect();
        writeln!(out, "{}\n  ],\n  \"per_layer\": [", end_to_end.join(",\n"))
            .expect("write to string");
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|d| format!("{}}}", entry(d)))
            .collect();
        writeln!(out, "{}\n  ]\n}}", per_layer.join(",\n")).expect("write to string");
        out
    }

    #[test]
    fn benchmark_json_is_the_registry() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
        assert!(manifest().len() < 64 * 1024);
    }

    /// `README.md` is where each metric is explained; it must explain
    /// exactly the registered ones, under their unit, direction and bound.
    #[test]
    fn readme_glossary_is_the_registry() {
        let readme = include_str!("../README.md");
        let (_, section) = readme.split_once("\n## Metrics\n").expect("section");
        let (glossary, _) = section.split_once("\n##").expect("a section follows");
        let rows: Vec<&str> = glossary.lines().filter(|l| l.starts_with("| `")).collect();
        let defs: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        assert_eq!(rows.len(), defs.len());
        for (row, def) in rows.iter().zip(defs) {
            let start = format!("| `{}` | {} | {} | ", def.name, def.unit, def.better);
            assert!(row.starts_with(&start), "{row}");
            if def.bound > 0.0 {
                assert!(row.ends_with(&format!("| bound {} |", def.bound)), "{row}");
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, def) in all.iter().enumerate() {
            assert!(ok_name(def.name), "{}", def.name);
            assert!(ok_unit(def.unit), "{}", def.unit);
            assert!(def.better == "lower" || def.better == "higher");
            assert!(
                all[i + 1..].iter().all(|o| o.name != def.name),
                "{}",
                def.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    fn result_line_round_trips_its_values() {
        let mut m = Metrics::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            m.set(def.name, 1.0 + i as f64 / 3.0);
        }
        let line = result_line(&m, END_TO_END, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(value_in_line(&line, "setup_s"), Some(1.0));
        assert_eq!(value_in_line(&line, "lat_p50_rel"), Some(1.0 + 2.0 / 3.0));
        assert_eq!(value_in_line(&line, "peak_rss_mb"), Some(1.0 + 7.0 / 3.0));
        assert_eq!(value_in_line(&line, "nope"), None);
        assert!(result_line(&m, END_TO_END, 10, 1).contains("\"correct\": false"));
    }
}
