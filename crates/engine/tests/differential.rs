//! The differential property in full: generated programs under generated
//! options against the reference evaluator (`support/dags.rs`), whose own
//! tests come along with it (`support/oracle.rs`). One targeted test stays
//! beside them, because it is no cross-configuration invariant: fat map
//! tasks spill under a budget and thin ones do not.

use engine::{Context, EngineOptions, Key, Record, Value};
use std::sync::Arc;

#[path = "support/dags.rs"]
mod dags;
#[path = "support/observed.rs"]
mod observed;
#[path = "support/oracle.rs"]
mod oracle;
#[path = "support/plans.rs"]
mod plans;

#[test]
fn generated_programs_match_the_reference_evaluator() {
    dags::check_cases("differential", 256).assert_all();
}

/// Distinct keys, so map-side combine cannot collapse the shuffle and a
/// task's write volume scales as 1/P: under a 16 KiB budget four fat
/// tasks overflow their execution share and spill, sixty-four thin ones
/// do not — the mechanism the memory-aware optimizer relies on.
#[test]
fn shuffle_spills_with_fat_tasks_and_not_with_thin_ones() {
    let spilled = |partitions: usize| {
        let mut ctx = Context::new(EngineOptions {
            cluster: simcluster::uniform_cluster(3, 4, 2.0),
            default_parallelism: partitions,
            workers: 2,
            executor_mem: Some(16 * 1024),
            ..EngineOptions::default()
        });
        let records = (0..3000).map(|i| Record::new(Key::Int(i), Value::Int(i)));
        let src = ctx.parallelize(records.collect(), partitions, "src");
        let sum = |a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int());
        let summed = ctx.reduce_by_key(src, Arc::new(sum), None, 1e-6, "sum");
        ctx.collect(summed, "distinct-sum");
        let mem = ctx.mem_counters();
        (mem.spills, mem.spill_bytes)
    };
    let (spills, bytes) = spilled(4);
    assert!(spills > 0 && bytes > 0, "P=4 under 16 KiB must spill");
    assert_eq!(spilled(64), (0, 0), "P=64 under 16 KiB must not spill");
}
