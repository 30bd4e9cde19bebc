//! Layered end-to-end host benchmark of the CHOPPER reproduction.
//!
//! `--workload W --trace 0|1` measures one workload in this process and
//! prints its metrics, last of all as one JSON line. Without `--trace` the
//! process is an orchestrator: for every workload (or the one named) it
//! starts an untraced child for the end-to-end numbers and a traced child
//! for the per-layer ones, `--sets N` times over, and checks that the sets
//! agree. See `README.md`.

mod drives;
mod layers;
mod measure;
mod metrics;
mod programs;
mod spans;
mod stats;
mod suites;
mod sys;

use measure::{RunArgs, RunResult};
use metrics::{Values, END_TO_END, PER_LAYER};
use serde::Json;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use suites::Workload;

const USAGE: &str = "usage: chopper-benchmark [--workload batch_fat|batch_wide|tune_grid|serve_mix]
       [--seed N] [--seconds N] [--trace 0|1] [--sets N] [--quick]

  --workload W   run one workload (default: all four)
  --seed N       XOR-ed into every generated input's seed (default 0)
  --seconds N    time budget of the timed passes of one process (default 15)
  --trace 0|1    measure in this process: 0 end-to-end metrics, tracing off;
                 1 per-layer metrics, traced. Without it, orchestrate both
                 as child processes per workload
  --sets N       orchestrator: run everything N times and fail unless every
                 end-to-end metric agrees within its bound (default 1)
  --quick        one timed pass, no layer drives (smoke use)";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    sets: usize,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: 15.0,
        trace: None,
        sets: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cli.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--sets" => {
                cli.sets = value.parse().map_err(|_| bad())?;
                if cli.sets == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(cli)
}

/// The result line: the contract's four keys, the metrics of the mode.
fn result_json(result: &RunResult, trace: bool) -> Json {
    let metric = |name: &str, unit: &str| {
        (
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Float(result.values.get(name))),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        )
    };
    let metrics = if trace {
        PER_LAYER.iter().map(|m| metric(m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(result.failed == 0)),
        ("attempted".into(), Json::Int(result.attempted.into())),
        ("failed".into(), Json::Int(result.failed.into())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn print_metrics(values: &Values, trace: bool) {
    let line = |name: &str, unit: &str, better: &str| {
        println!(
            "metric     {name:<44} {:>16.6} {unit} ({better} is better)",
            values.get(name)
        )
    };
    if trace {
        for m in &PER_LAYER {
            line(m.name, m.unit, m.better.as_str());
        }
    } else {
        for m in &END_TO_END {
            line(m.name, m.unit, "lower");
        }
    }
}

/// One child's parsed result line.
struct ChildResult {
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs this executable as a child measuring one workload, echoing what it
/// prints, and parses its last line.
fn child(cli: &Cli, workload: Workload, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null());
    if cli.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let out = cmd.output().map_err(|e| format!("start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    for l in text.lines().filter(|l| *l != last) {
        println!("  {l}");
    }
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} trace {}: no result line ({e}); exit {}",
            workload.name(),
            trace as u8,
            out.status
        )
    })?;
    let failed = match doc.get_field("failed") {
        Some(Json::Int(n)) => *n as u64,
        _ => return Err("result line lacks `failed`".into()),
    };
    let Some(Json::Obj(fields)) = doc.get_field("metrics") else {
        return Err("result line lacks `metrics`".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = match m.get_field("value") {
                Some(Json::Float(f)) => *f,
                Some(Json::Int(i)) => *i as f64,
                _ => f64::NAN,
            };
            (name.clone(), value)
        })
        .collect();
    Ok(ChildResult { failed, metrics })
}

/// Runs every requested workload `sets` times, each as an untraced and a
/// traced child, then checks that the sets agree.
fn orchestrate(cli: &Cli) -> Result<bool, String> {
    let workloads: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut ok = true;
    // Per workload and metric name, the value each set saw.
    let mut seen: Vec<(Workload, String, Vec<f64>)> = Vec::new();
    for set in 1..=cli.sets {
        for &w in &workloads {
            for trace in [false, true] {
                println!("set {set} · {} · trace {}", w.name(), trace as u8);
                let result = child(cli, w, trace)?;
                ok &= result.failed == 0;
                for (name, value) in result.metrics {
                    match seen.iter_mut().find(|(sw, sn, _)| *sw == w && *sn == name) {
                        Some((_, _, values)) => values.push(value),
                        None => seen.push((w, name, vec![value])),
                    }
                }
            }
        }
    }
    if cli.sets < 2 {
        return Ok(ok);
    }
    println!("agreement between {} sets", cli.sets);
    for (w, name, values) in &seen {
        let spread = stats::rel_spread(values);
        // End-to-end metrics must agree within their bound, exactly where
        // the metric is a virtual-clock or counted quantity.
        let limit = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| if m.exact { 0.0 } else { m.bound })
            .or_else(|| {
                PER_LAYER
                    .iter()
                    .find(|m| m.name == name && m.exact)
                    .map(|_| 0.0)
            });
        let Some(limit) = limit else { continue };
        let agrees = spread <= limit;
        ok &= agrees;
        println!(
            "  {:<10} {name:<44} spread {:>8.4} %  limit {:>5.1} %  {}",
            w.name(),
            100.0 * spread,
            100.0 * limit,
            if agrees { "ok" } else { "DISAGREES" }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (cli.trace, cli.workload) {
        (Some(trace), Some(workload)) => {
            let result = measure::run(
                &RunArgs {
                    workload,
                    seed: cli.seed,
                    seconds: cli.seconds,
                    trace,
                    quick: cli.quick,
                },
                started,
            );
            print_metrics(&result.values, trace);
            println!(
                "operations attempted {} failed {}",
                result.attempted, result.failed
            );
            println!("{}", result_json(&result, trace).render(false));
            result.failed == 0
        }
        (Some(_), None) => {
            eprintln!("error: --trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        }
        (None, _) => match orchestrate(&cli) {
            Ok(ok) => ok,
            Err(msg) => {
                eprintln!("error: {msg}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
