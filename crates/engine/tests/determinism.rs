//! Worker-count determinism: the pool's thread interleaving must never
//! leak into anything observable. Collected records, per-stage shuffle
//! byte volumes, and simulated stage timings are functions of the plan
//! alone, so `workers = 1` and `workers = 8` runs must agree bit-for-bit.

use engine::{Context, Emit, EngineOptions, JobMetrics, Key, PartitionerSpec, Record, Value};
use simcluster::uniform_cluster;
use std::sync::Arc;

fn options(workers: usize) -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(3, 4, 2.0),
        default_parallelism: 8,
        workers,
        ..EngineOptions::default()
    }
}

/// A workload exercising every data-plane path that fans out over the
/// pool: a cached fused narrow chain (map, filter, flatMap, sample), a
/// hash-partitioned reduce, a range-partitioned group (per-task reservoir
/// sampling), and a repartition.
fn run(workers: usize) -> (Vec<Record>, Vec<Record>, Vec<JobMetrics>) {
    let mut ctx = Context::new(options(workers));

    let data: Vec<Record> = (0..4000)
        .map(|i| Record::new(Key::Int(i % 97), Value::Int(i)))
        .collect();
    let src = ctx.parallelize(data, 8, "src");
    let mapped = ctx.map(
        src,
        Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 3))),
        1e-7,
        "mapped",
    );
    let filtered = ctx.filter(
        mapped,
        Arc::new(|r: &Record| r.value.as_int() % 4 != 0),
        1e-7,
        "filtered",
    );
    let expanded = ctx.flat_map(
        filtered,
        Arc::new(|r: &Record, out: &mut dyn Emit| {
            out.lend(r);
            out.emit(Record::new(r.key.clone(), Value::Int(r.value.as_int() + 1)));
        }),
        1e-7,
        "expanded",
    );
    let sampled = ctx.sample(expanded, 0.7, 42, "sampled");
    ctx.cache(sampled);
    let reduced = ctx.reduce_by_key(
        sampled,
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
        None,
        1e-6,
        "reduced",
    );
    let out_reduce = ctx.collect(reduced, "sum-job");

    // Second job re-reads the cache (CachedRead root) and range-groups,
    // exercising the per-task reservoir sampling path.
    let grouped = ctx.group_by_key(sampled, Some(PartitionerSpec::range(6)), 1e-6, "grouped");
    let repart = ctx.repartition(grouped, Some(PartitionerSpec::hash(5)), "repart");
    let out_group = ctx.collect(repart, "group-job");

    (out_reduce, out_group, ctx.jobs().to_vec())
}

#[test]
fn workers_1_and_8_agree_bit_for_bit() {
    let (rec1, grp1, jobs1) = run(1);
    let (rec8, grp8, jobs8) = run(8);

    assert_eq!(rec1, rec8, "collected reduce records must match exactly");
    assert_eq!(grp1, grp8, "collected group records must match exactly");

    assert_eq!(jobs1.len(), jobs8.len());
    for (j1, j8) in jobs1.iter().zip(&jobs8) {
        assert_eq!(j1.stages.len(), j8.stages.len());
        assert!(j1.start.to_bits() == j8.start.to_bits());
        assert!(j1.end.to_bits() == j8.end.to_bits());
        for (s1, s8) in j1.stages.iter().zip(&j8.stages) {
            assert_eq!(
                s1.shuffle_write_bytes, s8.shuffle_write_bytes,
                "stage {}",
                s1.name
            );
            assert_eq!(
                s1.shuffle_read_bytes, s8.shuffle_read_bytes,
                "stage {}",
                s1.name
            );
            assert_eq!(
                s1.remote_read_bytes, s8.remote_read_bytes,
                "stage {}",
                s1.name
            );
            assert_eq!(s1.output_records, s8.output_records, "stage {}", s1.name);
            assert_eq!(s1.output_bytes, s8.output_bytes, "stage {}", s1.name);
            // Simulated timings must agree to the bit, not within epsilon.
            assert!(
                s1.start.to_bits() == s8.start.to_bits() && s1.end.to_bits() == s8.end.to_bits(),
                "stage {} timing diverged: {} vs {}",
                s1.name,
                s1.end - s1.start,
                s8.end - s8.start,
            );
        }
    }
}

#[test]
fn repeated_runs_same_worker_count_agree() {
    let (a1, a2, ja) = run(4);
    let (b1, b2, jb) = run(4);
    assert_eq!(a1, b1);
    assert_eq!(a2, b2);
    assert_eq!(ja.len(), jb.len());
    for (j1, j2) in ja.iter().zip(&jb) {
        assert!(j1.end.to_bits() == j2.end.to_bits());
    }
}
