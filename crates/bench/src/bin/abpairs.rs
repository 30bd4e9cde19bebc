//! Alternating parent/change runs of the frozen benchmark, judged by the
//! rule a performance claim has to meet.
//!
//! ```text
//! cargo run --release -p bench --bin abpairs -- \
//!     --parent /path/to/parent/chopper-benchmark \
//!     --change /path/to/change/chopper-benchmark \
//!     --workload batch_fat --pairs 10 [--seed 7] [--layer NAME]...
//! ```
//!
//! `--workload` may be given more than once, and `--workload all` names
//! every workload of `BENCHMARK.json`: the workloads run one after the
//! other, each with its own pairs and its own table — the check a merge
//! applies in one command.
//!
//! Build each commit's `benchmark/` package once into its own target
//! directory and hand the two executables over. Every pair runs both with
//! `--workload W --seed S --seconds <run_seconds> --trace 0`; who goes
//! first flips each pair. Only the benchmark's stdout contract is read —
//! the last line, `{correct, attempted, failed, metrics}` — and the
//! metric names, directions and bounds come from `BENCHMARK.json` in the
//! working directory. Per end-to-end metric the report gives each side's
//! median and quartiles, the pairs the change won, and a verdict:
//!
//! * `gain` — the change reads better in at least nine tenths of all
//!   pairs (ties count for neither side) and the medians differ by more
//!   than the distance between the parent's quartiles;
//! * `identical` — every run of both sides printed the same value;
//! * `unresolved` — the parent's own quartile distance is wider than the
//!   metric's bound, and not every run of the change beats every run of
//!   the parent;
//! * `REGRESSED` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `within bound` — none of the above.
//!
//! Each `--layer NAME` (a `per_layer` metric of `BENCHMARK.json`) adds one
//! more run of both sides to every pair, with `--trace 1`, and a `layer`
//! line with each side's median and quartiles of that metric and the
//! pairs the change won — the layer's share before and after, next to the
//! end-to-end number it is supposed to explain. A layer line carries no
//! verdict, and the end-to-end verdicts never read a traced run.
//!
//! Exits 1 when any workload has a `REGRESSED` metric or a larger share of
//! the change's operations failed, 2 on a bad command line or a run
//! without a result line.

use numeric::percentile;
use serde::Json;
use std::process::{Command, Stdio};

const USAGE: &str = "usage: abpairs --parent BIN --change BIN --workload W|all [--workload W]... \
                     --pairs N [--seed S] [--layer NAME]...";

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Share of the parent's median by which the change may be worse; 0
    /// for a per-layer metric, which is reported and never judged.
    bound: f64,
}

/// What `abpairs` reads of a `BENCHMARK.json`.
struct Contract {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    run_seconds: f64,
}

fn parse_benchmark_json(text: &str) -> Result<Contract, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let run_seconds = number(doc.get_field("run_seconds")).ok_or("no `run_seconds`")?;
    let table = |field: &str, bounded: bool| -> Result<Vec<Metric>, String> {
        let Some(Json::Arr(rows)) = doc.get_field(field) else {
            return Err(format!("no `{field}` array"));
        };
        let text_of = |row: &Json, column: &str| match row.get_field(column) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("a `{field}` metric lacks `{column}`")),
        };
        rows.iter()
            .map(|row| {
                Ok(Metric {
                    name: text_of(row, "name")?,
                    unit: text_of(row, "unit")?,
                    lower_is_better: text_of(row, "better")? == "lower",
                    bound: match bounded {
                        true => number(row.get_field("bound")).ok_or("a metric lacks `bound`")?,
                        false => 0.0,
                    },
                })
            })
            .collect()
    };
    let Some(Json::Arr(workloads)) = doc.get_field("workloads") else {
        return Err("no `workloads` array".into());
    };
    let workloads = workloads
        .iter()
        .map(|w| match w.get_field("name") {
            Some(Json::Str(name)) => Ok(name.clone()),
            _ => Err("a workload lacks `name`".to_string()),
        })
        .collect::<Result<_, _>>()?;
    Ok(Contract {
        workloads,
        end_to_end: table("end_to_end", true)?,
        per_layer: table("per_layer", false)?,
        run_seconds,
    })
}

fn number(node: Option<&Json>) -> Option<f64> {
    match node? {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// One benchmark process, as its result line reports it.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    attempted: u64,
    failed: u64,
    /// One value per metric, in `BENCHMARK.json` order.
    values: Vec<f64>,
}

fn parse_result_line(line: &str, metrics: &[Metric]) -> Result<Run, String> {
    let doc = Json::parse(line).map_err(|e| format!("no result line ({e})"))?;
    let count = |field: &str| match doc.get_field(field) {
        Some(Json::Int(n)) if *n >= 0 => Ok(*n as u64),
        _ => Err(format!("result line lacks `{field}`")),
    };
    let values = metrics
        .iter()
        .map(|m| {
            number(
                doc.get_field("metrics")
                    .and_then(|all| all.get_field(&m.name))
                    .and_then(|one| one.get_field("value")),
            )
            .ok_or_else(|| format!("result line lacks metric `{}`", m.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Run {
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    })
}

/// One benchmark process over `workload` — traced if `traced` — read
/// for `metrics`.
fn run_once(
    bin: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    metrics: &[Metric],
) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {bin}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    parse_result_line(text.lines().last().unwrap_or(""), metrics)
        .map_err(|e| format!("{bin}: {e}; exit {}", out.status))
}

/// First and third quartile by the exclusive method — the cut points of
/// Python's `statistics.quantiles(xs, n=4)`, which the acceptance check
/// of a claim uses. A single sample is both its quartiles.
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Gain,
    Identical,
    Unresolved,
    Regressed,
    WithinBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Identical => "identical",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// One metric's comparison over all pairs; `parent[i]` and `change[i]`
/// are the two runs of pair `i`.
struct Comparison {
    parent_median: f64,
    parent_quartiles: (f64, f64),
    change_median: f64,
    change_quartiles: (f64, f64),
    /// Pairs in which the change read better.
    won: usize,
    verdict: Verdict,
}

fn compare(metric: &Metric, parent: &[f64], change: &[f64]) -> Comparison {
    // Orient every difference so that positive means "better".
    let gain = |from: f64, to: f64| {
        if metric.lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let (parent_median, change_median) = (percentile(parent, 0.5), percentile(change, 0.5));
    let parent_quartiles = quartiles(parent);
    let spread = parent_quartiles.1 - parent_quartiles.0;
    let won = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| gain(p, c) > 0.0)
        .count();
    let median_gain = gain(parent_median, change_median);
    let allowed = metric.bound * parent_median.abs();
    let every_run_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    let verdict = if 10 * won >= 9 * parent.len() && median_gain > spread {
        Verdict::Gain
    } else if parent.iter().chain(change).all(|&x| x == parent[0]) {
        Verdict::Identical
    } else if spread > allowed && !every_run_better {
        Verdict::Unresolved
    } else if -median_gain > allowed {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Comparison {
        parent_median,
        parent_quartiles,
        change_median,
        change_quartiles: quartiles(change),
        won,
        verdict,
    }
}

struct Cli {
    parent: String,
    change: String,
    /// As given; `all` stands for every workload of `BENCHMARK.json`.
    workloads: Vec<String>,
    pairs: usize,
    seed: u64,
    /// Per-layer metrics to read off an extra traced run of each side.
    layers: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut parent, mut change, mut pairs, mut seed) = (None, None, None, 0);
    let (mut workloads, mut layers) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--parent" => parent = Some(value.clone()),
            "--change" => change = Some(value.clone()),
            "--workload" => workloads.push(value.clone()),
            "--pairs" => {
                pairs = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--layer" => layers.push(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Cli {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        workloads: match workloads.is_empty() {
            true => return Err("--workload is required".into()),
            false => workloads,
        },
        pairs: pairs.ok_or("--pairs is required")?,
        seed,
        layers,
    })
}

/// Pair `pair`'s two runs of `workload`, traced or not, read for
/// `metrics`, printed and appended to `into[side]`. The parent goes first
/// on even pairs, the change on odd ones.
fn run_pair(
    cli: &Cli,
    workload: &str,
    pair: usize,
    seconds: f64,
    traced: bool,
    metrics: &[Metric],
    into: &mut [Vec<Run>; 2],
) {
    for turn in 0..2 {
        let side = (pair + turn) % 2;
        let bin = [&cli.parent, &cli.change][side];
        let run =
            run_once(bin, workload, cli.seed, seconds, traced, metrics).unwrap_or_else(|msg| {
                eprintln!("error: {msg}");
                std::process::exit(2);
            });
        let values: Vec<String> = run.values.iter().map(|v| format!("{v:?}")).collect();
        println!(
            "{:<10} {:>4} {} {}",
            if traced { "traced" } else { "run" },
            pair + 1,
            ["parent", "change"][side],
            values.join(" ")
        );
        into[side].push(run);
    }
}

/// One line per metric over all pairs of `runs`: a `metric` line with its
/// verdict when `judged`, a `layer` line without one otherwise. Returns
/// whether a judged metric regressed.
fn report(metrics: &[Metric], runs: &[Vec<Run>; 2], judged: bool) -> bool {
    let mut regressed = false;
    for (i, metric) in metrics.iter().enumerate() {
        let column = |side: &[Run]| -> Vec<f64> { side.iter().map(|r| r.values[i]).collect() };
        let c = compare(metric, &column(&runs[0]), &column(&runs[1]));
        regressed |= judged && c.verdict == Verdict::Regressed;
        // A count that reads 0 on both sides moved by 0 %, not by 0/0.
        let moved = match c.change_median - c.parent_median {
            0.0 => 0.0,
            by => 100.0 * by / c.parent_median.abs(),
        };
        println!(
            "{:<10} {:<12} parent {:.4} ({:.4}-{:.4})  change {:.4} ({:.4}-{:.4}) {}  \
             {:+.1} %  change better in {}/{}{}{}",
            if judged { "metric" } else { "layer" },
            metric.name,
            c.parent_median,
            c.parent_quartiles.0,
            c.parent_quartiles.1,
            c.change_median,
            c.change_quartiles.0,
            c.change_quartiles.1,
            metric.unit,
            moved,
            c.won,
            runs[0].len(),
            if judged { "  " } else { "" },
            if judged { c.verdict.label() } else { "" },
        );
    }
    regressed
}

/// Every pair of one workload, then its table. Returns whether a judged
/// metric regressed or a larger share of the change's operations failed.
fn compare_workload(
    cli: &Cli,
    workload: &str,
    seconds: f64,
    metrics: &[Metric],
    layers: &[Metric],
) -> bool {
    println!(
        "abpairs    workload {workload} seed {} pairs {} seconds {seconds} nproc {}",
        cli.seed,
        cli.pairs,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let names = |metrics: &[Metric]| -> String {
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.join(" ")
    };
    println!("run        pair side   {}", names(metrics));
    if !layers.is_empty() {
        println!("traced     pair side   {}", names(layers));
    }
    // sides[0] = parent, sides[1] = change; one run per pair each, and one
    // traced run more when layers were asked for.
    let mut sides: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut traced: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..cli.pairs {
        run_pair(cli, workload, pair, seconds, false, metrics, &mut sides);
        if !layers.is_empty() {
            run_pair(cli, workload, pair, seconds, true, layers, &mut traced);
        }
    }

    let regressed = report(metrics, &sides, true);
    report(layers, &traced, false);
    let totals = |side: &[Run]| {
        side.iter()
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
    };
    let ((pf, pa), (cf, ca)) = (totals(&sides[0]), totals(&sides[1]));
    println!("failed     parent {pf}/{pa}  change {cf}/{ca}");
    // Compared as shares of the operations attempted, without dividing.
    let more_failed = cf * pa > pf * ca;
    regressed || more_failed
}

/// The workloads `asked` names, in order, with `all` standing for every
/// one of `declared`; an undeclared name is an error.
fn expand_workloads(asked: &[String], declared: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for name in asked {
        match name.as_str() {
            "all" => out.extend(declared.iter().cloned()),
            _ if declared.contains(name) => out.push(name.clone()),
            _ => return Err(format!("`{name}` is no workload of BENCHMARK.json")),
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |msg: String| -> ! {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    };
    let cli = parse_cli(&args).unwrap_or_else(|msg| usage_error(msg));
    let Contract {
        workloads,
        end_to_end: metrics,
        per_layer,
        run_seconds: seconds,
    } = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|text| parse_benchmark_json(&text))
        .unwrap_or_else(|msg| usage_error(format!("BENCHMARK.json: {msg}")));
    let workloads =
        expand_workloads(&cli.workloads, &workloads).unwrap_or_else(|msg| usage_error(msg));
    let layers: Vec<Metric> = cli
        .layers
        .iter()
        .map(|name| match per_layer.iter().find(|m| m.name == *name) {
            Some(metric) => metric.clone(),
            None => usage_error(format!("`{name}` is no per-layer metric of BENCHMARK.json")),
        })
        .collect();

    let mut bad = Vec::new();
    for (i, workload) in workloads.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if compare_workload(&cli, workload, seconds, &metrics, &layers) {
            bad.push(workload.as_str());
        }
    }
    if !bad.is_empty() {
        println!("REGRESSED  {}", bad.join(" "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> Metric {
        Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: 0.25,
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_parents_quartiles() {
        let parent: Vec<f64> = (0..10).map(|i| 3.0 + 0.01 * i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let c = compare(&wall(), &parent, &faster);
        assert_eq!((c.won, c.verdict), (10, Verdict::Gain));

        // Nine wins and one loss still carry the claim; eight do not.
        let mut nine = faster.clone();
        nine[4] = parent[4] + 0.2;
        assert_eq!(compare(&wall(), &parent, &nine).verdict, Verdict::Gain);
        let mut eight = nine.clone();
        eight[7] = parent[7] + 0.2;
        let c = compare(&wall(), &parent, &eight);
        assert_eq!((c.won, c.verdict), (8, Verdict::WithinBound));

        // A tie counts for neither side: 9 wins + 1 tie out of 10 is a gain.
        let mut tie = faster.clone();
        tie[0] = parent[0];
        let c = compare(&wall(), &parent, &tie);
        assert_eq!((c.won, c.verdict), (9, Verdict::Gain));

        // Ten wins by less than the parent's own quartile distance are not.
        let noisy: Vec<f64> = (0..10).map(|i| 3.0 + 0.1 * i as f64).collect();
        let slightly: Vec<f64> = noisy.iter().map(|p| p - 0.05).collect();
        let c = compare(&wall(), &noisy, &slightly);
        assert_eq!((c.won, c.verdict), (10, Verdict::WithinBound));
    }

    #[test]
    fn direction_follows_the_metric() {
        let higher = Metric {
            lower_is_better: false,
            ..wall()
        };
        let parent = [10.0, 10.1, 10.2, 10.3];
        let change = [12.0, 12.1, 12.2, 12.3];
        assert_eq!(compare(&higher, &parent, &change).verdict, Verdict::Gain);
        assert_eq!(compare(&wall(), &parent, &change).won, 0);
        assert_eq!(
            compare(&wall(), &parent, &change).verdict,
            Verdict::WithinBound,
            "20 % slower is inside a 25 % bound"
        );
    }

    #[test]
    fn a_median_beyond_the_bound_is_a_regression_and_a_wide_spread_is_unresolved() {
        let parent = [2.0, 2.02, 2.04, 2.06];
        let slower = [2.7, 2.72, 2.74, 2.76];
        assert_eq!(
            compare(&wall(), &parent, &slower).verdict,
            Verdict::Regressed
        );

        // Parent quartiles 2.5 apart on a median of 2.5: wider than 25 %.
        let wild = [1.0, 2.0, 3.0, 4.0];
        let c = compare(&wall(), &wild, &[2.4, 2.5, 2.6, 2.7]);
        assert_eq!(c.verdict, Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let c = compare(&wall(), &wild, &[0.9, 0.8, 0.9, 0.8]);
        assert_eq!(c.verdict, Verdict::WithinBound);
    }

    #[test]
    fn equal_values_everywhere_are_identical() {
        let v = [13247.819262787954; 6];
        let virt = Metric {
            bound: 0.05,
            ..wall()
        };
        assert_eq!(compare(&virt, &v, &v).verdict, Verdict::Identical);
    }

    #[test]
    fn reads_the_two_contracts() {
        let bench = r#"{"command": ["x"], "run_seconds": 15,
            "workloads": [{"name": "batch_fat", "why": "kernels"}, {"name": "serve_mix"}],
            "end_to_end": [
              {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
            "per_layer": [{"name": "workloads.pca.run_s", "unit": "s", "better": "lower"}]}"#;
        let contract = parse_benchmark_json(bench).expect("well-formed");
        assert_eq!(contract.run_seconds, 15.0);
        assert_eq!(contract.workloads, ["batch_fat", "serve_mix"]);
        let metrics = contract.end_to_end;
        assert_eq!(metrics[0], wall());
        assert!(!metrics[1].lower_is_better);
        let layer = Metric {
            name: "workloads.pca.run_s".into(),
            bound: 0.0,
            ..wall()
        };
        assert_eq!(contract.per_layer, std::slice::from_ref(&layer));

        let line = r#"{"correct":true,"attempted":28,"failed":1,"metrics":{"wall_s":{"value":3.25,"unit":"s"},"jobs_per_s":{"value":40,"unit":"1/s"}}}"#;
        let run = parse_result_line(line, &metrics).expect("well-formed");
        assert_eq!(
            run,
            Run {
                attempted: 28,
                failed: 1,
                values: vec![3.25, 40.0],
            }
        );
        // A traced run's line is read the same way, for the layers asked for.
        let traced = r#"{"correct":true,"attempted":28,"failed":0,"metrics":{"engine.tasks":{"value":9,"unit":"count"},"workloads.pca.run_s":{"value":0.25,"unit":"s"}}}"#;
        let run = parse_result_line(traced, &[layer]).expect("well-formed");
        assert_eq!(run.values, [0.25]);
        assert!(parse_result_line("operations attempted 28 failed 0", &metrics).is_err());
        assert!(parse_result_line(r#"{"attempted":1,"failed":0,"metrics":{}}"#, &metrics).is_err());
    }

    #[test]
    fn command_line_is_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let cli = parse_cli(&args(
            "--parent a --change b --workload batch_fat --pairs 10",
        ))
        .expect("complete");
        assert_eq!((cli.pairs, cli.seed), (10, 0));
        assert_eq!(cli.workloads, ["batch_fat"]);
        assert!(cli.layers.is_empty());
        let cli = parse_cli(&args(
            "--parent a --change b --workload w --workload all --pairs 3",
        ))
        .expect("complete");
        assert_eq!(cli.workloads, ["w", "all"]);
        let cli = parse_cli(&args(
            "--parent a --change b --workload w --pairs 3 --layer x.run_s --layer y.run_s",
        ))
        .expect("complete");
        assert_eq!(cli.layers, ["x.run_s", "y.run_s"]);
        assert!(parse_cli(&args(
            "--parent a --change b --workload w --pairs 3 --layer"
        ))
        .is_err());
        assert!(parse_cli(&args("--parent a --change b --workload w")).is_err());
        assert!(parse_cli(&args("--parent a --change b --workload w --pairs 0")).is_err());
        assert!(parse_cli(&args(
            "--parent a --change b --workload w --pairs 3 --trace 1"
        ))
        .is_err());
        assert!(parse_cli(&args("--parent a --change b --workload w --pairs")).is_err());
    }

    #[test]
    fn all_names_every_declared_workload_in_order() {
        let declared: Vec<String> = ["batch_fat", "batch_wide", "tune_grid"]
            .map(String::from)
            .into();
        let asked = |names: &[&str]| -> Vec<String> { names.iter().map(|&n| n.into()).collect() };
        assert_eq!(
            expand_workloads(&asked(&["all"]), &declared),
            Ok(declared.clone())
        );
        assert_eq!(
            expand_workloads(&asked(&["tune_grid", "batch_fat"]), &declared),
            Ok(asked(&["tune_grid", "batch_fat"]))
        );
        assert!(expand_workloads(&asked(&["batch_fat", "nope"]), &declared).is_err());
    }
}
