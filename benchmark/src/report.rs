//! Metric names and units — the code-side copy of `BENCHMARK.json`, kept
//! equal to it by a test — and the result line both binaries print.

use crate::json::Json;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order. A layer a
/// workload never enters reports 0 there.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sql.parse_us", "us"),
    ("engine.prepare_us", "us"),
    ("engine.plancache_hit_frac", "ratio"),
    ("engine.exec_ms", "ms"),
    ("engine.exec_scan_ms", "ms"),
    ("engine.exec_fused_ms", "ms"),
    ("engine.exec_breaker_ms", "ms"),
    ("engine.exec_glue_ms", "ms"),
    ("engine.batches_skipped_frac", "ratio"),
    ("engine.catalog_append_ms", "ms"),
    ("engine.catalog_register_ms", "ms"),
    ("core.to_columns_ms", "ms"),
    ("core.normalize_ms", "ms"),
    ("core.sortkey_ms", "ms"),
    ("core.stats_ms", "ms"),
    ("core.truth_ms", "ms"),
    ("core.bytes_per_row", "B"),
    ("native.sort_ms", "ms"),
    ("native.topk_ms", "ms"),
    ("native.window_part_ms", "ms"),
    ("native.window_flat_ms", "ms"),
    ("conheap.cycle_ns", "ns"),
    ("par.speedup_2t", "ratio"),
    ("rel.det_ms", "ms"),
    ("rel.overhead_vs_det", "ratio"),
    ("server.req_append_ms", "ms"),
    ("server.req_top_miss_ms", "ms"),
    ("server.req_top_hit_ms", "ms"),
    ("server.req_page_ms", "ms"),
    ("server.req_window_ms", "ms"),
    ("server.req_register_ms", "ms"),
    ("server.handle_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.bytes_in_per_op", "B"),
    ("server.bytes_out_per_op", "B"),
    ("server.reconnects_per_op", "ratio"),
    ("workloads.csv_parse_ms", "ms"),
    ("workloads.csv_load_rows_per_s", "1/s"),
    ("quality.bound_width_rel", "ratio"),
    ("quality.certain_frac", "ratio"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_rel", "ratio"),
];

/// The one-line JSON result: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in the order of `names`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    value_of: impl Fn(&str) -> f64,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = value_of(name);
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A result line read back.
pub struct RunResult {
    pub correct: bool,
    pub attempted: i64,
    pub failed: i64,
    /// `(name, value)` in print order.
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let json = Json::parse(line.as_bytes())?;
    let correct = json.get("correct") == Some(&Json::Bool(true));
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_i64)
            .ok_or(format!("result has no {key} count"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("result has no metrics".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Json::Int(i)) => Ok((name.clone(), *i as f64)),
            Some(Json::Float(f)) => Ok((name.clone(), *f)),
            _ => Err(format!("metric {name} has no numeric value")),
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the names the binaries print must agree,
    /// name by name, unit by unit, in order.
    #[test]
    fn manifest_names_match_printed_names() {
        let manifest = Json::parse(include_bytes!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let owned = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(true, 280, 0, &END_TO_END, |name| name.len() as f64 + 0.25);
        let run = parse_result_line(&line).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (280, 0));
        assert_eq!(run.metrics.len(), END_TO_END.len());
        assert_eq!(run.metrics[0], ("setup_s".to_string(), 7.25));
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 280, \"failed\": 0, \"metrics\": {\"setup_s\""
        ));
    }
}
