//! Dynamic configuration updates (paper Section III-A): CHOPPER's
//! configuration file can be updated while a workload is running; the
//! scheduler picks up the new partition schemes at the next stage boundary.
//! Iterative stages share a structural signature, so a single entry retunes
//! every remaining iteration.
//!
//! ```text
//! cargo run --release --example dynamic_reconfig
//! ```

use engine::{Context, EngineOptions, Key, Record, ReduceFn, Value};
use std::sync::Arc;

fn main() {
    let mut ctx = Context::new(EngineOptions {
        cluster: simcluster::paper_cluster(),
        default_parallelism: 300,
        ..EngineOptions::default()
    });

    // A cached dataset iterated over repeatedly (KMeans-like driver loop).
    let data: Vec<Record> = (0..120_000)
        .map(|i| Record::new(Key::Int(i % 64), Value::Int(1)))
        .collect();
    let points = ctx.parallelize(data, 64, "points");
    ctx.cache(points);
    ctx.count(points, "materialize");

    let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));

    let mut iteration_sig = None;
    for iter in 0..6 {
        // Halfway through, "CHOPPER" writes an updated configuration file.
        // The engine re-resolves schemes at the next planning point, so
        // iterations 3.. run with the new partitioning — no recompilation,
        // exactly the paper's dynamic-update path.
        if iter == 3 {
            let sig = iteration_sig.expect("observed after first iteration");
            let conf_text = format!("# updated mid-run\nstage {sig:016x} hash 48\n");
            println!("-- installing updated configuration:\n{conf_text}");
            ctx.set_conf_text(&conf_text).expect("valid config");
        }

        let mapped = ctx.map(
            points,
            Arc::new(|r: &Record, out: &mut Record| *out = r.clone()),
            1e-4,
            "iterate",
        );
        let reduced = ctx.reduce_by_key(mapped, Arc::clone(&sum), None, 1e-5, "accumulate");
        iteration_sig = Some(ctx.signature(reduced));
        ctx.count(reduced, "iteration");

        let stage = ctx
            .jobs()
            .last()
            .expect("job ran")
            .stages
            .last()
            .expect("has stages")
            .clone();
        println!(
            "iteration {iter}: reduce ran with {} tasks ({:.2}s)",
            stage.num_tasks,
            stage.duration()
        );
    }

    let reduce_counts: Vec<usize> = ctx
        .jobs()
        .iter()
        .skip(1) // the materialize job
        .map(|j| j.stages.last().expect("reduce stage").num_tasks)
        .collect();
    assert_eq!(
        &reduce_counts[..3],
        &[300, 300, 300],
        "default until the update"
    );
    assert_eq!(
        &reduce_counts[3..],
        &[48, 48, 48],
        "new scheme from iteration 3 on"
    );
    println!("\nconfiguration change applied at a stage boundary, mid-workload.");
}
