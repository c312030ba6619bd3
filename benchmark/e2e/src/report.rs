//! `BENCHMARK.json` as the single list of metric names, units, directions
//! and bounds; result files; the printed table; `--compare`.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::{json, Map, Value};

use crate::stats::{summarize, Summary};

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

fn metric_specs(v: &Value) -> Result<Vec<MetricSpec>, String> {
    v.as_array()
        .ok_or("BENCHMARK.json: metric list is not an array")?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m["name"].as_str().ok_or("metric without name")?.to_string(),
                unit: m["unit"].as_str().ok_or("metric without unit")?.to_string(),
                higher_is_better: m["better"].as_str() == Some("higher"),
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            workloads: v["workloads"]
                .as_array()
                .ok_or("BENCHMARK.json: no workloads")?
                .iter()
                .filter_map(|w| w["name"].as_str().map(str::to_string))
                .collect(),
            end_to_end: metric_specs(&v["end_to_end"])?,
            per_layer: metric_specs(&v["per_layer"])?,
            run_seconds: v["run_seconds"]
                .as_f64()
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }
}

/// The contract's metrics object: every listed metric, with its unit.
pub fn metrics_object(
    specs: &[MetricSpec],
    values: &BTreeMap<String, f64>,
) -> Result<Value, String> {
    let mut m = Map::new();
    for s in specs {
        let v = values
            .get(&s.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric '{}' was not measured", s.name))?;
        m.insert(
            s.name.clone(),
            json!({ "value": v, "unit": s.unit.clone() }),
        );
    }
    Ok(Value::Object(m))
}

/// Samples of every metric of one workload, over repeats.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, values: impl IntoIterator<Item = (String, f64)>) {
        for (k, v) in values {
            self.0.entry(k).or_default().push(v);
        }
    }

    /// `{name: {unit, median, q1, q3, n, values}}`; units from `specs`
    /// where listed (extras carry theirs in the name).
    pub fn to_json(&self, specs: &[MetricSpec]) -> Value {
        let mut m = Map::new();
        for (name, values) in &self.0 {
            let s = summarize(values);
            let unit = specs
                .iter()
                .find(|x| x.name == *name)
                .map(|x| x.unit.clone());
            m.insert(
                name.clone(),
                json!({ "unit": unit, "median": s.median, "q1": s.q1, "q3": s.q3,
                        "n": s.n, "values": values }),
            );
        }
        Value::Object(m)
    }
}

fn summary_of(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v["median"].as_f64()?,
        q1: v["q1"].as_f64()?,
        q3: v["q3"].as_f64()?,
        n: v["n"].as_u64()? as usize,
    })
}

pub fn print_section(title: &str, section: &Value) {
    let Some(rows) = section.as_object() else {
        return;
    };
    println!("  {title}");
    println!(
        "    {:<34} {:>10} {:>14} {:>14} {:>14} {:>3} {:>7}",
        "metric", "unit", "median", "q1", "q3", "n", "spread"
    );
    for (name, v) in rows.iter() {
        let Some(s) = summary_of(v) else { continue };
        println!(
            "    {:<34} {:>10} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>6.2}%",
            name,
            v["unit"].as_str().unwrap_or("-"),
            s.median,
            s.q1,
            s.q3,
            s.n,
            100.0 * s.spread()
        );
    }
}

pub fn print_result(result: &Value) {
    let Some(workloads) = result["workloads"].as_object() else {
        return;
    };
    for (name, w) in workloads.iter() {
        println!(
            "{name}: fail_frac {} ({} failed / {} attempted){}",
            w["fail_frac"],
            w["failed"],
            w["attempted"],
            if result["comparable"].as_bool() == Some(false) {
                "  [quick: not comparable]"
            } else {
                ""
            }
        );
        print_section("end-to-end", &w["end_to_end"]);
        print_section("extras (not gated)", &w["extras"]);
        match &w["per_layer"] {
            Value::Null => {}
            Value::String(why) => println!("  {why}"),
            section => print_section("per-layer (traced run)", section),
        }
    }
}

/// Verdict of one workload x metric row of `--compare`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The spread of either side exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// `change` is positive when `b` is worse than `a`, as a share of `a`.
pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let raw = (b.median - a.median) / a.median.abs();
    let change = if higher_is_better { -raw } else { raw };
    let spread = a.spread().max(b.spread());
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (change, spread, verdict)
}

/// Apply the bounds of `spec` row by row (one row per workload x metric).
/// Returns the number of regressed rows.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> usize {
    if a["comparable"].as_bool() == Some(false) || b["comparable"].as_bool() == Some(false) {
        println!("note: at least one side is a --quick run; its numbers are not comparable");
    }
    if a["host"]["cpu_model"] != b["host"]["cpu_model"] || a["host"]["nproc"] != b["host"]["nproc"]
    {
        println!("note: the two result files come from different hosts");
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "b worse", "spread", "bound"
    );
    let mut regressed = 0;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (sa, sb) = (
                summary_of(&a["workloads"][w.as_str()]["end_to_end"][m.name.as_str()]),
                summary_of(&b["workloads"][w.as_str()]["end_to_end"][m.name.as_str()]),
            );
            let (Some(sa), Some(sb), Some(bound)) = (sa, sb, m.bound) else {
                println!("{w:<14} {:<14} missing on one side", m.name);
                continue;
            };
            let (change, spread, verdict) = judge(&sa, &sb, m.higher_is_better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{w:<14} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
                m.name,
                sa.median,
                sb.median,
                100.0 * change,
                100.0 * spread,
                100.0 * bound,
                match verdict {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for side in [a, b] {
            let f = &side["workloads"][w.as_str()]["failed"];
            if f.as_u64().unwrap_or(0) > 0 {
                println!("{w:<14} fail_frac       {f} operation(s) failed (bound: 0)");
                regressed += 1;
            }
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // 3 % slower, 1 % spread, 5 % bound: inside the bound.
        assert_eq!(
            judge(&s(100.0, 1.0), &s(103.0, 1.0), false, 0.05).2,
            Verdict::Unchanged
        );
        // 8 % slower: regression.
        assert_eq!(
            judge(&s(100.0, 1.0), &s(108.0, 1.0), false, 0.05).2,
            Verdict::Regressed
        );
        // 8 % slower but 7 % spread: the runs cannot tell.
        assert_eq!(
            judge(&s(100.0, 7.0), &s(108.0, 1.0), false, 0.05).2,
            Verdict::Unresolved
        );
        // Throughput: lower is worse.
        assert_eq!(
            judge(&s(100.0, 1.0), &s(90.0, 1.0), true, 0.05).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&s(100.0, 1.0), &s(90.0, 1.0), false, 0.05).2,
            Verdict::Improved
        );
    }
}
