//! Failure injection (paper Section VI future work: "we will also explore
//! how CHOPPER behaves under failures"): a `FaultPlan` slows one node and
//! then loses another between aggregation rounds. The engine recovers —
//! the lost node's cached partitions re-home onto the survivors — so
//! results stay correct and only the stages stretch.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use engine::{
    Context, EngineOptions, FaultPlan, Key, NodeLoss, Record, ReduceFn, Straggler, Value,
};
use std::sync::Arc;

/// Keys found by one aggregation round, how long it took, when it ended.
#[derive(Debug, PartialEq)]
struct Round {
    keys: u64,
    duration: f64,
    end: f64,
}

/// Caches a dataset, then runs three aggregation rounds over it.
fn run(faults: Option<FaultPlan>) -> (Vec<Round>, Context) {
    let mut ctx = Context::new(EngineOptions {
        cluster: simcluster::paper_cluster(),
        default_parallelism: 300,
        faults,
        ..EngineOptions::default()
    });
    let data: Vec<Record> = (0..600_000)
        .map(|i| Record::new(Key::Int(i % 500), Value::Int(1)))
        .collect();
    let points = ctx.parallelize(data, 300, "events");
    ctx.cache(points);
    ctx.count(points, "materialize");

    let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
    let rounds = ["first", "second", "third"].map(|label| {
        let m = ctx.map(
            points,
            Arc::new(|r: &Record, out: &mut Record| *out = r.clone()),
            4e-4,
            "process",
        );
        let red = ctx.reduce_by_key(m, Arc::clone(&sum), None, 1e-5, "aggregate");
        let keys = ctx.count(red, label);
        let job = ctx.jobs().last().expect("job ran");
        Round {
            keys,
            duration: job.duration(),
            end: job.end,
        }
    });
    (rounds.into(), ctx)
}

fn main() {
    let (healthy, _) = run(None);

    // Node B degrades to quarter speed (contention, thermal throttling...)
    // once the first round is done. An event is applied at the first stage
    // boundary past its time, and the virtual clock is deterministic, so
    // the end of the healthy first round is exactly between the rounds.
    let mut plan = FaultPlan::default();
    plan.stragglers.push(Straggler {
        node: 1,
        factor: 4.0,
        at: healthy[0].end,
    });
    let (slowed, _) = run(Some(plan.clone()));
    assert_eq!(
        slowed[0], healthy[0],
        "the plan replays the run it was timed on"
    );

    // Node A then fails outright after the second round — which under the
    // slow node ends later than its healthy twin, so that run times it.
    plan.node_loss.push(NodeLoss {
        node: 0,
        at: slowed[1].end,
    });
    let (degraded, ctx) = run(Some(plan));
    assert_eq!(degraded[..2], slowed[..2]);

    let [first, slow, lost] = &degraded[..] else {
        unreachable!("three rounds ran")
    };
    println!(
        "healthy cluster:          {} keys in {:.2}s",
        first.keys, first.duration
    );
    println!(
        "node B at quarter speed:  {} keys in {:.2}s",
        slow.keys, slow.duration
    );
    println!(
        "node A lost as well:      {} keys in {:.2}s",
        lost.keys, lost.duration
    );
    let fc = ctx.fault_counters();
    println!(
        "faults: {} stragglers, {} nodes lost, {} re-homed partitions ({} B)",
        fc.stragglers_applied, fc.nodes_lost, fc.replica_rehomed_partitions, fc.replica_read_bytes
    );

    assert!(degraded.iter().all(|r| r.keys == 500));
    assert!(
        slow.duration > healthy[1].duration,
        "a straggler node must slow the barrier"
    );
    // Interestingly, losing A outright can be slightly *cheaper* than
    // keeping it as a straggler trap would be — but it must still be worse
    // than the healthy cluster.
    assert!(
        lost.duration > healthy[2].duration,
        "a 32-core hole must show in the makespan"
    );
    assert_eq!((fc.stragglers_applied, fc.nodes_lost), (1, 1));
    assert!(
        fc.replica_rehomed_partitions > 0,
        "node A's cached `events` partitions re-home onto the survivors"
    );
    println!("\nresults identical under every condition; only timing degraded.");
}
