//! The benchmark's fixed vocabulary — workload names, metric names,
//! units, directions, bounds, run length — read from `BENCHMARK.json`
//! at the repo root, which is compiled in and is their only source.

use std::sync::OnceLock;

use crate::layers::json::{parse, Json};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen
    /// before it counts as a regression; `None` for layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures (the driver passes it as `--seconds`).
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// What a user of the system sees. The same on every workload; an
    /// *op* and a *call* are defined per workload (README.md).
    pub end_to_end: Vec<Metric>,
    /// The layer ledger (`--trace 1`). Layers are crate names. A metric
    /// a workload does not exercise reads 0 there.
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Option<Vec<Metric>> {
    doc.get(key)?
        .as_arr()?
        .iter()
        .map(|entry| {
            Some(Metric {
                name: entry.get("name")?.as_str()?.to_string(),
                unit: entry.get("unit")?.as_str()?.to_string(),
                better: match entry.get("better")?.as_str()? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    _ => return None,
                },
                bound: entry.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn read(text: &str) -> Option<Spec> {
    let doc = parse(text).ok()?;
    Some(Spec {
        run_seconds: doc.get("run_seconds")?.as_f64()?,
        workloads: doc
            .get("workloads")?
            .as_arr()?
            .iter()
            .map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect::<Option<_>>()?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| read(MANIFEST).expect("BENCHMARK.json follows the driver's schema"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_fits_the_drivers_contract() {
        assert!(MANIFEST.len() <= 64 * 1024);
        let doc = parse(MANIFEST).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else { panic!("BENCHMARK.json is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let spec = spec();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(legal_name(&m.name), "{}", m.name);
            assert!(legal_unit(&m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.as_str()), "duplicate metric {}", m.name);
        }
        assert!((2..=8).contains(&spec.workloads.len()));
        for entry in doc.get("workloads").and_then(Json::as_arr).expect("workloads") {
            let name = entry.get("name").and_then(Json::as_str).expect("name");
            let why = entry.get("why").and_then(Json::as_str).expect("why");
            assert!(legal_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound), "setup_s: largest bound");
        assert!(spec.per_layer.len() <= 128);
    }
}
