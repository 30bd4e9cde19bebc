//! Small-scale versions of the paper's result *shapes*, asserted as
//! integration tests so regressions in any crate surface immediately. The
//! full-size experiments live in the bench harness (`repro`); these run the
//! same code paths at test-friendly sizes.

use chopper_repro::chopper::Workload;
use chopper_repro::engine::{EngineOptions, WorkloadConf};
use chopper_repro::simcluster::paper_cluster;
use chopper_repro::workloads::{KMeans, KMeansConfig, Sql, SqlConfig};

fn engine(parallelism: usize, copartition: bool) -> EngineOptions {
    EngineOptions {
        cluster: paper_cluster(),
        default_parallelism: parallelism,
        copartition_scheduling: copartition,
        workers: 2,
        ..EngineOptions::default()
    }
}

fn kmeans() -> KMeans {
    let mut cfg = KMeansConfig::paper();
    cfg.points = 40_000; // ~1/10 of evaluation scale; same shapes
    KMeans::new(cfg)
}

/// Fig 3: stage-0 time decreases from P=100 to P=500, with P=100 worst.
#[test]
fn fig3_stage0_improves_with_partitions() {
    let w = kmeans();
    let t = |p: usize| {
        let ctx = w.run(&engine(p, false), &WorkloadConf::new(), 1.0);
        ctx.all_stages()[0].duration()
    };
    let t100 = t(100);
    let t300 = t(300);
    let t500 = t(500);
    assert!(
        t100 > t300,
        "P=100 ({t100:.1}s) must be worse than P=300 ({t300:.1}s)"
    );
    assert!(
        t300 > t500,
        "P=300 ({t300:.1}s) must be worse than P=500 ({t500:.1}s)"
    );
}

/// Fig 4: shuffle volume grows monotonically with the partition count at
/// every shuffle stage.
#[test]
fn fig4_shuffle_grows_with_partitions() {
    let w = kmeans();
    let shuffle_per_p: Vec<Vec<u64>> = [100, 300, 500]
        .iter()
        .map(|&p| {
            let ctx = w.run(&engine(p, false), &WorkloadConf::new(), 1.0);
            ctx.all_stages()
                .iter()
                .filter(|s| s.shuffle_data() > 0)
                .map(|s| s.shuffle_data())
                .collect()
        })
        .collect();
    assert_eq!(shuffle_per_p[0].len(), shuffle_per_p[1].len());
    for i in 0..shuffle_per_p[0].len() {
        assert!(
            shuffle_per_p[0][i] < shuffle_per_p[1][i] && shuffle_per_p[1][i] < shuffle_per_p[2][i],
            "stage {i} shuffle must grow with P: {:?}",
            shuffle_per_p.iter().map(|v| v[i]).collect::<Vec<_>>()
        );
    }
}

/// Section II-B: 2000 partitions are substantially slower than a moderate
/// choice, and shuffle far more.
#[test]
fn sec2b_2000_partitions_blow_up() {
    let w = kmeans();
    let run = |p: usize| {
        let ctx = w.run(&engine(p, false), &WorkloadConf::new(), 1.0);
        let total = ctx.jobs().last().unwrap().end;
        let shuffle: u64 = ctx.all_stages().iter().map(|s| s.shuffle_write_bytes).sum();
        (total, shuffle)
    };
    let (t500, s500) = run(500);
    let (t2000, s2000) = run(2000);
    assert!(
        t2000 > 1.2 * t500,
        "2000 partitions must be >20% slower: {t2000:.0} vs {t500:.0}"
    );
    assert!(s2000 > 3 * s500, "2000 partitions must shuffle much more");
}

/// Fig 2: different stages have different optimal partition counts —
/// no single P dominates every stage.
#[test]
fn fig2_no_single_p_wins_everywhere() {
    let w = kmeans();
    let per_stage = |p: usize| -> Vec<f64> {
        let ctx = w.run(&engine(p, false), &WorkloadConf::new(), 1.0);
        ctx.all_stages().iter().map(|s| s.duration()).collect()
    };
    let a = per_stage(100);
    let b = per_stage(500);
    let a_wins = a.iter().zip(&b).filter(|(x, y)| x < y).count();
    let b_wins = a.iter().zip(&b).filter(|(x, y)| x > y).count();
    assert!(
        a_wins > 0 && b_wins > 0,
        "each P must win somewhere (P100 {a_wins}, P500 {b_wins})"
    );
}

/// Figs 9-10: stage 4 (the join) moves the same volume under both systems,
/// and co-partitioning makes it read locally.
#[test]
fn fig9_join_volume_is_placement_independent() {
    let w = Sql::new(SqlConfig::small());
    let vanilla = w.run(&engine(60, false), &WorkloadConf::new(), 1.0);
    let chopper = w.run(&engine(60, true), &WorkloadConf::new(), 1.0);
    let v_join = vanilla.all_stages()[4].clone();
    let c_join = chopper.all_stages()[4].clone();
    assert_eq!(v_join.shuffle_read_bytes, c_join.shuffle_read_bytes);
    assert!(
        vanilla.all_stages()[..4]
            .iter()
            .all(|s| s.shuffle_data() > 0),
        "the scans and aggregations feeding the join all shuffle"
    );
    assert_eq!(
        c_join.remote_read_bytes, 0,
        "co-partitioned join is fully local"
    );
}

/// Figs 11-14: the utilization traces exist, are bounded, and show the
/// cluster doing real work.
#[test]
fn utilization_traces_are_sane() {
    let w = kmeans();
    let ctx = w.run(&engine(300, false), &WorkloadConf::new(), 1.0);
    let points = ctx.sim().trace().points();
    assert!(!points.is_empty());
    let peak_cpu = points.iter().map(|p| p.cpu_pct).fold(0.0, f64::max);
    assert!(
        peak_cpu > 20.0,
        "the cluster should be visibly busy, peak {peak_cpu:.1}%"
    );
    for p in &points {
        assert!((0.0..=100.0 + 1e-6).contains(&p.cpu_pct), "cpu {p:?}");
        assert!((0.0..=100.0 + 1e-6).contains(&p.mem_pct), "mem {p:?}");
        assert!(p.packets_per_sec >= 0.0 && p.transactions_per_sec >= 0.0);
    }
    // Shuffle stages produce network packets; input stages produce disk
    // transactions.
    assert!(points.iter().any(|p| p.packets_per_sec > 0.0));
    assert!(points.iter().any(|p| p.transactions_per_sec > 0.0));
    // The cached input shows as resident memory.
    assert!(points.iter().any(|p| p.mem_pct > 0.0));
}

/// The engine's virtual timing is fully deterministic across repeated runs
/// — the property every experiment above relies on.
#[test]
fn experiments_are_reproducible() {
    let w = Sql::new(SqlConfig::small());
    let a = w.run(&engine(60, true), &WorkloadConf::new(), 1.0);
    let b = w.run(&engine(60, true), &WorkloadConf::new(), 1.0);
    assert_eq!(
        a.jobs().last().unwrap().end.to_bits(),
        b.jobs().last().unwrap().end.to_bits()
    );
    let sa: Vec<u64> = a.all_stages().iter().map(|s| s.shuffle_data()).collect();
    let sb: Vec<u64> = b.all_stages().iter().map(|s| s.shuffle_data()).collect();
    assert_eq!(sa, sb);
}
