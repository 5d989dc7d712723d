//! The pipeline on tiny inputs: determinism, seed sensitivity, the
//! correctness gate on sharded serving, and agreement with the metric
//! lists in `BENCHMARK.json`.

use acbench::compare::parse_bounds;
use acbench::pipeline::{run, Options};
use acbench::spec::{Inputs, Spec};
use acbench::{Clock, Metric};
use serde::Value;

fn tiny() -> Spec {
    Spec {
        name: "tiny",
        patterns: 40,
        bulk_bytes: 16 << 10,
        jobs: 40,
        job_bytes: 512,
        chunked: false,
        devices: 1,
        streams: 2,
        shard_bytes: None,
        rates: vec![20_000.0, 2_000_000.0],
        nominal: 0,
        tail_limit_us: 1_000.0,
    }
}

const QUICK: Options = Options {
    seconds: 0.0,
    trace: false,
};

fn sim_only(metrics: &[Metric]) -> Vec<Metric> {
    metrics
        .iter()
        .filter(|m| m.clock == Clock::Sim)
        .cloned()
        .collect()
}

#[test]
fn same_seed_gives_identical_sim_metrics() {
    let a = run(&tiny(), 7, &QUICK).unwrap();
    let b = run(&tiny(), 7, &QUICK).unwrap();
    assert!(a.gate.ok(), "{:?}", a.gate.notes);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert!(!sim_only(&a.metrics).is_empty());
    assert_eq!(sim_only(&a.metrics), sim_only(&b.metrics));
}

#[test]
fn different_seeds_give_different_fingerprints() {
    let spec = tiny();
    let one = Inputs::generate(&spec, 1);
    assert_eq!(one.fingerprint(), Inputs::generate(&spec, 1).fingerprint());
    assert_ne!(one.fingerprint(), Inputs::generate(&spec, 2).fingerprint());
}

#[test]
fn sharded_fleet_jobs_pass_the_gate() {
    let spec = Spec {
        devices: 2,
        shard_bytes: Some(256),
        ..tiny()
    };
    let out = run(&spec, 3, &QUICK).unwrap();
    assert!(out.gate.ok(), "{:?}", out.gate.notes);
    // Bulk checks plus one check per completed job on each rung.
    assert!(out.gate.attempted > 2 * spec.jobs);
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    parse_bounds(&text).expect("BENCHMARK.json parses");
    let v: Value = serde_json::from_str(&text).unwrap();
    let list = serde::obj_get(v.as_obj().unwrap(), key).unwrap();
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.as_obj().unwrap();
            let s = |k| serde::obj_get(m, k).unwrap().as_str().unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn metrics_match_benchmark_json() {
    let untraced = run(&tiny(), 1, &QUICK).unwrap();
    assert_eq!(printed(&untraced.metrics), listed("end_to_end"));
    let traced = run(
        &tiny(),
        1,
        &Options {
            seconds: 0.0,
            trace: true,
        },
    )
    .unwrap();
    assert!(traced.gate.ok(), "{:?}", traced.gate.notes);
    assert_eq!(printed(&traced.metrics), listed("per_layer"));
    assert!(!traced.spans.is_empty());
    assert_eq!(traced.sim_traces.len(), 2);
}
