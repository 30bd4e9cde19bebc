//! Smoke test of the whole path: the built binary, one workload, `--quick`.

use serde::Json;
use std::process::Command;

#[test]
fn quick_serve_mix_reports_zero_failed_operations() {
    let out = Command::new(env!("CARGO_BIN_EXE_chopper-benchmark"))
        .args(["--workload", "serve_mix", "--trace", "0", "--quick"])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is JSON");
    assert_eq!(doc.get_field("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get_field("failed"), Some(&Json::Int(0)));
    assert_eq!(doc.get_field("attempted"), Some(&Json::Int(1)));
    let Some(Json::Obj(metrics)) = doc.get_field("metrics") else {
        panic!("no metrics object in {last}");
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "virtual_s"]
    );
    for (name, m) in metrics {
        match m.get_field("value") {
            Some(Json::Float(v)) => assert!(*v > 0.0, "{name} = {v}"),
            other => panic!("{name} has value {other:?}"),
        }
    }
}
