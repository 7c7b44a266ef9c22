//! Smoke-sized self-tests of the benchmark itself: the correctness gate
//! fails on a corrupted reference, and every metric `BENCHMARK.json`
//! names prints with its unit.

use std::sync::Mutex;

use cira_perfbench::{execute, Args, Kind, Report, Scale};

/// Runs share the process-wide span recorder; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: Kind, trace: bool, corrupt: bool) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let args = Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
    };
    execute(&args, Scale::Smoke, corrupt)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn failed(report: &Report) -> u64 {
    let at = report.result.find("\"failed\": ").expect("failed key") + 10;
    report.result[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("failed count")
}

fn assert_prints(report: &Report, metrics: &[(String, String)]) {
    assert_eq!(report.metrics.len(), metrics.len(), "{report:?}");
    for (name, unit) in metrics {
        let m = report
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(&m.unit, unit, "{name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
        let line = format!("{name} {} {unit}", m.value);
        assert!(report.lines.contains(&line), "no line {line:?}");
        assert!(
            report
                .result
                .contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} not in the result line"
        );
    }
}

#[test]
fn corrupted_reference_fails_the_gate_on_every_workload() {
    for kind in Kind::ALL {
        let clean = run(kind, false, false);
        assert!(clean.correct, "{}: {}", kind.name(), clean.result);
        assert_eq!(failed(&clean), 0);
        let corrupt = run(kind, false, true);
        assert!(!corrupt.correct, "{}: {}", kind.name(), corrupt.result);
        assert!(failed(&corrupt) > 0, "{}", corrupt.result);
        assert!(corrupt.result.starts_with("{\"correct\": false, "));
    }
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    let metrics = declared("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for kind in Kind::ALL {
        assert_prints(&run(kind, false, false), &metrics);
    }
}

#[test]
fn every_per_layer_metric_prints_with_its_unit() {
    let metrics = declared("per_layer");
    let report = run(Kind::ServeStream, true, false);
    assert!(report.correct, "{}", report.result);
    assert_prints(&report, &metrics);
    for prefix in [
        "overhead.records_per_s ",
        "closure analysis.replay ",
        "closure serve.send_batch ",
    ] {
        assert!(
            report.lines.iter().any(|l| l.starts_with(prefix)),
            "no {prefix:?} line"
        );
    }
}
