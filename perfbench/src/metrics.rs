//! The metric lists of `BENCHMARK.json` and the selection of a run's
//! metrics from them. `BENCHMARK.json` is the only catalogue: a metric
//! is added, renamed or given a unit there.

use gsim_json::{obj, Json};

use crate::Report;

/// `(name, unit)` of a listed metric.
pub type Def = (String, String);

/// The metrics `BENCHMARK.json` lists under `key` (`end_to_end` or
/// `per_layer`), in its order.
pub fn listed(key: &str) -> Result<Vec<Def>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = gsim_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
        .iter()
        .map(|m| Some((field(m, "name")?, field(m, "unit")?)))
        .collect::<Option<Vec<Def>>>()
        .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks a name or unit"))
}

/// The metrics object of the result line: every metric of `defs`. A
/// per-layer metric the workload does not exercise reads 0; a missing
/// end-to-end metric is an error.
pub fn select(report: &Report, defs: &[Def], traced: bool) -> Result<Json, String> {
    let mut out = Vec::new();
    for (name, unit) in defs {
        let value = match report.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if report.missing.contains(name) => {
                eprintln!("perfbench: {name}: counter missing from /metrics, not reported");
                continue;
            }
            None if traced => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        out.push((
            name.clone(),
            obj([
                ("value", Json::from(value)),
                ("unit", Json::from(unit.as_str())),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}
