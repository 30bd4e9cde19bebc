//! The bench harness reads a run through the one per-stage record,
//! `StageMetrics`, in its two printed forms: the stage table
//! (`Context::report`) and the JSON `chopper-cli run --summary-out`
//! writes (`ctx.jobs()` through `#[derive(Serialize)]`).
//!
//! By construction, the table's rows are the stage metrics — the renderer
//! reads the fields, it keeps no copy — so the row checks pin the column
//! layout and that nothing is dropped or reordered. The JSON checks are
//! not by construction: every float must survive the text round trip
//! bit-for-bit.

use bench::{paper_engine, stages};
use chopper::Workload;
use engine::{TraceSink, WorkloadConf};
use serde::Json;
use workloads::{KMeans, KMeansConfig};

fn field<'j>(j: &'j Json, name: &str) -> &'j Json {
    j.get_field(name)
        .unwrap_or_else(|| panic!("no `{name}` in {j:?}"))
}

fn int(j: &Json, name: &str) -> u64 {
    match field(j, name) {
        Json::Int(i) => *i as u64,
        other => panic!("`{name}` must be an integer, got {other:?}"),
    }
}

fn float(j: &Json) -> f64 {
    match j {
        Json::Float(f) => *f,
        Json::Int(i) => *i as f64,
        other => panic!("a number expected, got {other:?}"),
    }
}

#[test]
fn stage_table_and_json_agree_with_stage_metrics() {
    let mut cfg = KMeansConfig::paper();
    cfg.points = 5_000;
    let w = KMeans::new(cfg);
    let mut opts = paper_engine(60, false);
    opts.trace = TraceSink::enabled();
    let ctx = w.run(&opts, &WorkloadConf::new(), 1.0);
    let metrics = stages(&ctx);

    // The table: one row per stage, between the header and `total:`.
    let report = ctx.report();
    let rows: Vec<Vec<&str>> = report
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("total:"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), metrics.len(), "{report}");
    for (row, m) in rows.iter().zip(&metrics) {
        let want = [
            m.stage_id.to_string(),
            m.name.clone(),
            m.num_tasks.to_string(),
            format!("{:.2}s", m.duration()),
            format!("{:.1}", m.shuffle_data() as f64 / 1024.0),
            format!("{:.1}", m.remote_read_bytes as f64 / 1024.0),
            format!("{:.2}", m.task_skew()),
        ];
        assert_eq!(row, &want, "{report}");
    }
    let total = report.lines().find(|l| l.starts_with("total:"));
    assert!(
        total.is_some_and(|l| !l.starts_with("total: 0.00s")),
        "{report}"
    );
    let pool = ctx.pool().stats();
    assert!(pool.items >= pool.stolen, "{pool:?}");

    // The JSON: parses with the workspace parser, one entry per stage,
    // every field bit-equal to the record it was written from.
    let text = serde_json::to_string(ctx.jobs()).expect("jobs serialize");
    let jobs = match Json::parse(&text).expect("stage JSON parses") {
        Json::Arr(jobs) => jobs,
        other => panic!("jobs must be an array, got {other:?}"),
    };
    let entries: Vec<&Json> = jobs
        .iter()
        .flat_map(|j| match field(j, "stages") {
            Json::Arr(stages) => stages.iter(),
            other => panic!("stages must be an array, got {other:?}"),
        })
        .collect();
    assert_eq!(entries.len(), metrics.len());
    for (s, m) in entries.iter().zip(&metrics) {
        assert_eq!(int(s, "stage_id"), m.stage_id as u64);
        assert_eq!(int(s, "num_tasks"), m.num_tasks as u64);
        let span = float(field(s, "end")) - float(field(s, "start"));
        assert_eq!(span.to_bits(), m.duration().to_bits());
        let durations: Vec<f64> = match field(s, "task_durations") {
            Json::Arr(d) => d.iter().map(float).collect(),
            other => panic!("task_durations must be an array, got {other:?}"),
        };
        assert_eq!(durations.len(), m.num_tasks);
        let parsed = engine::StageMetrics {
            task_durations: durations,
            ..m.clone()
        };
        assert_eq!(parsed.task_skew().to_bits(), m.task_skew().to_bits());
        let write_skew = float(field(s, "write_bucket_skew"));
        assert_eq!(write_skew.to_bits(), m.write_bucket_skew.to_bits());
        assert_eq!(int(s, "shuffle_read_bytes"), m.shuffle_read_bytes);
        assert_eq!(int(s, "shuffle_write_bytes"), m.shuffle_write_bytes);
        assert_eq!(int(s, "remote_read_bytes"), m.remote_read_bytes);
    }
}
