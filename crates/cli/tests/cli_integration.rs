//! End-to-end tests driving the compiled `chopper-cli` binary through the
//! full tune → inspect → plan → run pipeline.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chopper-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chopper-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn help_prints_usage() {
    let usage = run_ok(bin().arg("help")).stdout;
    let text = String::from_utf8_lossy(&usage);
    assert!(text.contains("chopper-cli"));
    assert!(text.contains("compare"));
    // The flag spellings are the same command, wherever they stand:
    // usage on stdout, exit 0, and nothing run.
    for tokens in [
        &["--help"][..],
        &["-h"],
        &["run", "--workload", "sql", "--help"],
    ] {
        assert_eq!(run_ok(bin().args(tokens)).stdout, usage, "{tokens:?}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn missing_required_flag_fails_cleanly() {
    let out = bin().args(["run"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn run_prints_stage_table() {
    let out = run_ok(bin().args([
        "run",
        "--workload",
        "sql",
        "--scale",
        "0.05",
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "16",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("join-revenue"),
        "stage table expected:\n{text}"
    );
    assert!(text.contains("total:"));
}

/// `run` at its defaults keeps LogReg's plan: every `sum-gradients` round
/// runs its 300 partitions (8 keys — nothing to split), where a between-job
/// re-planner once walked it to 176, 506 and 1856.
#[test]
fn run_keeps_every_logreg_round_at_its_partition_count() {
    let out = run_ok(bin().args(["run", "--workload", "logreg", "--scale", "0.1"]));
    let text = String::from_utf8_lossy(&out.stdout);
    let rounds: Vec<&str> = text
        .lines()
        .filter(|line| line.contains("sum-gradients"))
        .map(|line| line.split_whitespace().nth(2).unwrap_or(""))
        .collect();
    assert_eq!(rounds, ["300"; 5], "{text}");
}

#[test]
fn run_composes_a_memory_budget_with_a_fault_plan() {
    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans/plan_lossy.plan");
    let mut cmd = bin();
    cmd.args([
        "run",
        "--workload",
        "kmeans",
        "--scale",
        "0.05",
        "--executor-mem",
        "64k",
        "--fault-plan",
        plan,
    ]);
    let out = run_ok(&mut cmd);
    let text = String::from_utf8_lossy(&out.stdout);
    let line = |prefix: &str| {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line:\n{text}"))
    };
    // Both books report, and both did something: the cached input
    // spilled, and the lost node's share of it re-homed.
    let memory = line("memory:");
    assert!(!memory.contains(" 0 spills"), "{memory}");
    let faults = line("faults:");
    assert!(faults.contains(" 1 nodes lost"), "{faults}");
    assert!(!faults.contains(" 0 re-homed"), "{faults}");
    assert_eq!(out.stdout, run_ok(&mut cmd).stdout, "rerun differs");
}

/// `run` and `trace` print one stage table from one renderer: with the
/// same flags, `trace`'s stdout opens with `run`'s whole stdout — table,
/// `memory:` and `faults:` lines — and adds only host and file lines.
/// `--summary-out` is the same stage records as JSON, one entry a stage.
#[test]
fn run_and_trace_print_the_same_stage_table() {
    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans/plan_lossy.plan");
    let flags = [
        "--workload",
        "kmeans",
        "--scale",
        "0.05",
        "--partitions",
        "24",
        "--executor-mem",
        "64k",
        "--fault-plan",
        plan,
    ];
    let run = run_ok(bin().arg("run").args(flags)).stdout;
    let run = String::from_utf8_lossy(&run);
    let dir = tmpdir("stage-table");
    let (trace_out, summary) = (dir.join("t.json"), dir.join("s.json"));
    let traced = run_ok(bin().arg("trace").args(flags).args([
        "--out",
        trace_out.to_str().unwrap(),
        "--summary-out",
        summary.to_str().unwrap(),
    ]))
    .stdout;
    let traced = String::from_utf8_lossy(&traced);
    let extra = traced
        .strip_prefix(run.as_ref())
        .unwrap_or_else(|| panic!("trace's table differs from run's:\n{run}\n---\n{traced}"));
    assert!(extra.starts_with("pool (host): "), "{extra}");
    for prefix in ["memory: ", "faults: ", "total: "] {
        assert!(
            run.lines().any(|l| l.starts_with(prefix)),
            "no `{prefix}`:\n{run}"
        );
    }
    // Rows sit between the header and the `total:` line.
    let rows = run
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("total:"))
        .count();
    assert!(rows > 2, "{run}");

    let text = std::fs::read_to_string(&summary).expect("summary written");
    let jobs = match serde::Json::parse(&text).expect("summary JSON parses") {
        serde::Json::Arr(jobs) => jobs,
        other => panic!("an array of jobs expected, got {other:?}"),
    };
    let stages: Vec<&serde::Json> = jobs
        .iter()
        .flat_map(|j| match j.get_field("stages") {
            Some(serde::Json::Arr(stages)) => stages.iter(),
            other => panic!("a job's stages must be an array, got {other:?}"),
        })
        .collect();
    assert_eq!(stages.len(), rows, "one JSON entry per table row");
    for (i, s) in stages.iter().enumerate() {
        assert_eq!(s.get_field("stage_id"), Some(&serde::Json::Int(i as i128)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tune_plan_run_round_trip() {
    let dir = tmpdir("roundtrip");
    let db = dir.join("db.json");
    let conf = dir.join("conf.txt");

    // Tune on a tiny grid.
    run_ok(bin().args([
        "tune",
        "--workload",
        "sql",
        "--db",
        db.to_str().unwrap(),
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "64",
        "--scales",
        "0.02,0.05",
        "--test-partitions",
        "8,24,64",
    ]));
    assert!(db.exists(), "database persisted");

    // Inspect it.
    let out = run_ok(bin().args(["inspect", "--db", db.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("workload 'sql'"));
    assert!(text.contains("join"));

    // Plan from it, writing the Fig. 6 config file.
    let out = run_ok(bin().args([
        "plan",
        "--workload",
        "sql",
        "--db",
        db.to_str().unwrap(),
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "64",
        "--out-conf",
        conf.to_str().unwrap(),
    ]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("retune"));
    assert!(conf.exists());

    // Validate the config file.
    let out = run_ok(bin().args(["conf", "--file", conf.to_str().unwrap()]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid"));

    // Run under the tuned configuration.
    run_ok(bin().args([
        "run",
        "--workload",
        "sql",
        "--scale",
        "0.05",
        "--cluster",
        "uniform:2,4,2.0",
        "--partitions",
        "64",
        "--copartition",
        "--conf",
        conf.to_str().unwrap(),
    ]));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conf_rejects_garbage() {
    let dir = tmpdir("badconf");
    let path = dir.join("bad.txt");
    std::fs::write(&path, "stage zz hash ten\n").unwrap();
    let out = bin()
        .args(["conf", "--file", path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate engine input is a one-line error at parse time: every case
/// here used to reach an assertion deep in the simulator, the block store,
/// a partitioner or a workload's generator (or, for a negative speed, to
/// run).
#[test]
fn degenerate_engine_input_is_an_error_not_a_panic() {
    let dir = tmpdir("degenerate");
    let conf = dir.join("zero.conf");
    std::fs::write(&conf, "default 0\n").unwrap();
    let conf = conf.to_str().unwrap();
    let db = dir.join("d.json");
    let tune = ["tune", "--workload", "sql", "--db", db.to_str().unwrap()];
    let run = ["run", "--workload", "sql", "--scale", "0.05"];
    let cases: [(&[&str], &str); 11] = [
        (&["--cluster", "uniform:0,4,2.0"], "at least one node"),
        (&["--cluster", "uniform:2,0,2.0"], "cores is 0"),
        (&["--cluster", "uniform:2,4,0"], "speed is 0"),
        (&["--cluster", "uniform:2,4,nan"], "speed is NaN"),
        (&["--cluster", "uniform:2,4,-1"], "speed is -1"),
        (&["--partitions", "0"], "default_parallelism is 0"),
        (&["--conf", conf], "default parallelism must be positive"),
        (
            &["conf", "--file", conf],
            "default parallelism must be positive",
        ),
        (&["--scales", "0"], "--scales entries must be in (0, 1]"),
        (&["--scales", "1.5"], "--scales entries must be in (0, 1]"),
        (
            &["--test-partitions", "0"],
            "--test-partitions entries must be",
        ),
    ];
    for (flags, message) in cases {
        let mut cmd = bin();
        match flags[0] {
            "conf" => {}
            "--scales" | "--test-partitions" => {
                cmd.args(tune);
            }
            _ => {
                cmd.args(run);
            }
        }
        let out = cmd.args(flags).output().expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flags:?} must fail");
        assert!(err.contains(message), "{flags:?}: {err}");
        assert!(!err.contains("panicked"), "{flags:?}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{flags:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
