//! Self-test of the benchmark at reduced size: every metric named in
//! `BENCHMARK.json` prints with its unit, a correct program reports no
//! failures, an injected wrong expected answer is reported, and on `lookup`
//! the per-layer self times add up to the wire time.

use std::path::{Path, PathBuf};
use warebench::{run, stats, Options, Outcome, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

/// How far (percentage points) the sum of the lookup layers' self times
/// may stray from the wire time.
const LAYERS_SUM_TOLERANCE_PCT: f64 = 15.0;

fn options(workload: Workload, trace: bool, inject_wrong: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        small: true,
        inject_wrong,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("warebench-selftest"),
    }
}

fn assert_metrics(outcome: &Outcome, want: &[(String, String)], what: &str) {
    let got: Vec<(String, String)> =
        outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    assert_eq!(got, want, "{what}: metrics and units must match BENCHMARK.json");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{what}: {} is not a number", m.name);
    }
    let line =
        stats::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics);
    for (name, unit) in want {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert!(line.contains(&entry), "{what}: {name} missing from {line}");
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{what}: unit {unit}");
    }
}

#[test]
fn every_workload_reports_every_metric_and_catches_wrong_answers() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in Workload::ALL {
        let name = workload.name();

        let timed = run(&options(workload, false, false));
        assert!(timed.correct, "{name}: {:?}", timed.problems);
        assert_eq!(timed.failed, 0, "{name}");
        assert!(timed.attempted > 0, "{name}");
        assert_metrics(&timed, &end_to_end, name);
        for m in &timed.metrics {
            assert!(m.value > 0.0, "{name}: end-to-end metric {} reads 0", m.name);
        }

        let traced = run(&options(workload, true, false));
        assert!(traced.correct, "{name} traced: {:?}", traced.problems);
        assert_metrics(&traced, &per_layer, &format!("{name} traced"));

        let injected = run(&options(workload, false, true));
        assert!(!injected.correct, "{name}: injected wrong answer went unnoticed");
        assert!(injected.failed >= 1, "{name}: injected failure not counted");
        assert!(
            injected.problems.iter().any(|p| p.contains("injected")),
            "{name}: mismatch not reported: {:?}",
            injected.problems
        );
    }
}

/// On `lookup` at full size, protocol + service + engine self times add up
/// to the wire time of the same replayed requests. (At reduced size the
/// result cache answers most lookups, the wire time is bimodal, and medians
/// of per-request differences need not add.)
#[test]
fn lookup_layers_add_up_to_the_wire_time() {
    let opts = Options { small: false, seconds: 2.0, ..options(Workload::Lookup, true, false) };
    let traced = run(&opts);
    assert!(traced.correct, "{:?}", traced.problems);
    let sum = traced.metrics.iter().find(|m| m.name == "replay.layers_sum_pct");
    let sum = sum.expect("replay.layers_sum_pct reported").value;
    assert!(
        (100.0 - LAYERS_SUM_TOLERANCE_PCT..=100.0 + LAYERS_SUM_TOLERANCE_PCT).contains(&sum),
        "lookup: the layers add up to {sum:.1} % of the wire time"
    );
}
