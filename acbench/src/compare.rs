//! `acbench compare`: for each workload and metric, both sides' medians
//! and quartiles and a verdict against the bound in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// One run's metrics, as `acbench run --json FILE` appends them.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

/// The line `--json` appends: the result object plus the workload, seed
/// and trace flag that produced it.
pub fn record_line(workload: &str, seed: u64, trace: bool, result: &Value) -> Value {
    let mut fields = vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("trace".to_string(), Value::U64(trace as u64)),
    ];
    fields.extend(result.as_obj().unwrap_or_default().iter().cloned());
    Value::Obj(fields)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    serde::obj_get(obj, key).ok_or_else(|| format!("missing key `{key}`"))
}

/// Parse JSON-lines records; blank lines are skipped.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("line {}: {e}", n + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
        let obj = v.as_obj().ok_or_else(|| at("not an object".into()))?;
        let workload = get(obj, "workload").map_err(at)?;
        let metrics = get(obj, "metrics").map_err(at)?;
        let metrics = metrics
            .as_obj()
            .ok_or_else(|| at("`metrics` is not an object".into()))?
            .iter()
            .map(|(name, m)| {
                let value = m.as_obj().and_then(|o| serde::obj_get(o, "value"));
                let value = value.and_then(number);
                value
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| at(format!("metric `{name}` has no numeric value")))
            })
            .collect::<Result<_, _>>()?;
        out.push(Record {
            workload: workload
                .as_str()
                .ok_or_else(|| at("`workload` is not a string".into()))?
                .to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// A metric's direction and regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which it may worsen; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Read every metric's direction and bound from `BENCHMARK.json`.
pub fn parse_bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let obj = v.as_obj().ok_or("BENCHMARK.json is not an object")?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = get(obj, key)?
            .as_arr()
            .ok_or(format!("`{key}` is not a list"))?;
        for m in list {
            let m = m
                .as_obj()
                .ok_or(format!("`{key}` entry is not an object"))?;
            let name = get(m, "name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let better = get(m, "better")?
                .as_str()
                .ok_or("`better` is not a string")?;
            out.insert(
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound: serde::obj_get(m, "bound").and_then(number),
                },
            );
        }
    }
    Ok(out)
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread between quartiles on either side exceeds the bound, so
    /// the runs cannot tell.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    NoBound,
}

impl Verdict {
    /// Label printed in the verdict column.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise a sample.
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles(v);
        Summary {
            n: v.len(),
            median: median(v),
            q1,
            q3,
        }
    }

    /// Quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judge B against A.
pub fn verdict(a: &Summary, b: &Summary, bound: Bound) -> Verdict {
    let Some(limit) = bound.bound else {
        return Verdict::NoBound;
    };
    if a.spread().max(b.spread()) > limit {
        return Verdict::Unresolved;
    }
    let change = if a.median == 0.0 {
        if b.median == 0.0 {
            0.0
        } else {
            f64::INFINITY * (b.median - a.median).signum()
        }
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worsening = if bound.lower_is_better {
        change
    } else {
        -change
    };
    if worsening > limit {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Side A.
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every (workload, metric) present on both sides; metrics with
/// no entry in `bounds` are judged as having no bound.
pub fn compare(a: &[Record], b: &[Record], bounds: &BTreeMap<String, Bound>) -> Vec<Row> {
    type Samples = BTreeMap<(String, String), Vec<f64>>;
    let collect = |records: &[Record]| {
        let mut m: Samples = BTreeMap::new();
        for r in records {
            for (name, v) in &r.metrics {
                m.entry((r.workload.clone(), name.clone()))
                    .or_default()
                    .push(*v);
            }
        }
        m
    };
    let (sa, sb) = (collect(a), collect(b));
    let unbounded = Bound {
        lower_is_better: false,
        bound: None,
    };
    sa.iter()
        .filter_map(|(key, va)| {
            let vb = sb.get(key)?;
            let (a, b) = (Summary::of(va), Summary::of(vb));
            let bound = bounds.get(&key.1).copied().unwrap_or(unbounded);
            Some(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                a,
                b,
                verdict: verdict(&a, &b, bound),
            })
        })
        .collect()
}

/// Render rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let side = |s: &Summary| format!("{:.6e} [{:.6e}, {:.6e}] n={}", s.median, s.q1, s.q3, s.n);
    let mut out = format!(
        "{:<12} {:<46} {:<52} {:<52} verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<46} {:<52} {:<52} {}\n",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            r.verdict.label()
        ));
    }
    out
}
