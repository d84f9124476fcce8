//! Schema checks: `BENCHMARK.json` against the metric registry, and a
//! result line against `BENCHMARK.json`.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::repo_root;
use serde::Value;

/// Read and parse `BENCHMARK.json` at the repository root.
pub fn load_benchmark_json() -> Result<Value, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.field(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn list<'a>(bench: &'a Value, key: &str) -> Result<&'a [Value], String> {
    bench
        .field(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
}

fn same_metrics(bench: &Value, key: &str, defs: &[MetricDef]) -> Result<(), String> {
    let listed = list(bench, key)?;
    if listed.len() != defs.len() {
        return Err(format!(
            "{key}: BENCHMARK.json lists {} metrics, the benchmark reports {}",
            listed.len(),
            defs.len()
        ));
    }
    for (v, d) in listed.iter().zip(defs) {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let (name, unit, dir) = (
            str_field(v, "name")?,
            str_field(v, "unit")?,
            str_field(v, "better")?,
        );
        if (name, unit, dir) != (d.name, d.unit, better) {
            return Err(format!(
                "{key}: BENCHMARK.json has {name} [{unit}, {dir}], the benchmark {} [{}, {better}]",
                d.name, d.unit
            ));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` names the same workloads, reasons and metrics, in the
/// same order, as the registry in [`crate::metrics`].
pub fn check_benchmark_json(bench: &Value) -> Result<(), String> {
    let workloads = list(bench, "workloads")?;
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| Ok((str_field(w, "name")?, str_field(w, "why")?)))
        .collect::<Result<_, String>>()?;
    if listed != WORKLOADS {
        return Err(format!("workloads differ: {listed:?} vs {WORKLOADS:?}"));
    }
    same_metrics(bench, "end_to_end", &END_TO_END)?;
    same_metrics(bench, "per_layer", &PER_LAYER)
}

/// A result line has exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, is correct, and reports every metric `BENCHMARK.json`
/// lists for its mode, with that unit and a finite value.
pub fn check_result_line(line: &str, trace: bool, bench: &Value) -> Result<(), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let keys: Vec<&str> = v
        .as_object()
        .ok_or("result line is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line keys {keys:?}"));
    }
    if v.field("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("result not correct: {line}"));
    }
    let attempted = v.field("attempted").and_then(Value::as_u64).unwrap_or(0);
    let failed = v.field("failed").and_then(Value::as_u64);
    if attempted < 1 || failed != Some(0) {
        return Err(format!("attempted {attempted}, failed {failed:?}"));
    }
    let metrics = v
        .field("metrics")
        .and_then(Value::as_object)
        .ok_or("metrics is not an object")?;
    let expected = list(bench, if trace { "per_layer" } else { "end_to_end" })?;
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected
        .iter()
        .map(|m| str_field(m, "name"))
        .collect::<Result<_, String>>()?;
    let mut sorted = (names.clone(), want.clone());
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    if sorted.0 != sorted.1 {
        return Err(format!("metric names {names:?}, expected {want:?}"));
    }
    for m in expected {
        let name = str_field(m, "name")?;
        let got = v
            .field("metrics")
            .and_then(|ms| ms.field(name))
            .ok_or(name)?;
        let value = got.field("value").and_then(Value::as_f64);
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("{name}: value {value:?}"));
        }
        if got.field("unit").and_then(Value::as_str) != Some(str_field(m, "unit")?) {
            return Err(format!("{name}: unit differs from BENCHMARK.json"));
        }
    }
    Ok(())
}
