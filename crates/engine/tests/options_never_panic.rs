//! Generated `EngineOptions` never panic: `validate` is the one gate, so
//! whatever it lets through must build a context and run a job, and
//! whatever it rejects must say which field was wrong. The strategy mixes
//! sane values with every degenerate one the simulator, the block store
//! or a partitioner would otherwise assert on.

use engine::{Context, EngineOptions, Key, Record, Value};
use proptest::prelude::*;
use simcluster::{ClusterSpec, NodeSpec, Topology};
use std::sync::Arc;

/// The generator of valid-on-three-nodes fault plans; on a smaller
/// cluster its plans name absent nodes or lose every node.
#[path = "support/plans.rs"]
mod plans;

/// One way to break a valid set of options; the index picks the node.
type Break = fn(&mut EngineOptions, usize);

const BREAKS: [Break; 13] = [
    |o, _| o.cluster.nodes.clear(),
    |o, i| with_node(o, i, |n| n.cores = 0),
    |o, i| with_node(o, i, |n| n.speed = 0.0),
    |o, i| with_node(o, i, |n| n.speed = f64::NAN),
    |o, i| with_node(o, i, |n| n.speed = -1.0),
    |o, i| with_node(o, i, |n| n.net_bandwidth = 0.0),
    |o, i| with_node(o, i, |n| n.net_bandwidth = f64::INFINITY),
    |o, i| with_node(o, i, |n| n.disk_bandwidth = f64::NAN),
    |o, _| o.default_parallelism = 0,
    |o, _| o.block_size = 0,
    |o, _| o.driver_bandwidth = 0.0,
    |o, _| o.driver_bandwidth = f64::NAN,
    |o, _| o.driver_bandwidth = -1e8,
];

fn with_node(opts: &mut EngineOptions, i: usize, f: fn(&mut NodeSpec)) {
    let n = opts.cluster.nodes.len();
    if n > 0 {
        f(&mut opts.cluster.nodes[i % n]);
    }
}

/// One to four sane nodes — fewer than the three a generated plan is valid
/// on, often enough — under a flat fabric or a rack grid that may be too
/// small for them.
fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    let node = (1usize..5, 0.5f64..4.0, 1e8f64..2e9, 5e7f64..4e8);
    let topology = prop_oneof![
        Just(Topology::Flat),
        Just(Topology::Flat),
        (1usize..4, 2usize..4, 1.0f64..4.0).prop_map(|(racks, hosts, oversub)| Topology::Rack {
            racks,
            hosts,
            oversub
        }),
    ];
    (proptest::collection::vec(node, 1..5), topology).prop_map(|(nodes, topology)| {
        let nodes = nodes.into_iter().enumerate();
        let mut spec = simcluster::uniform_cluster(1, 1, 1.0);
        spec.nodes = nodes
            .map(|(i, (cores, speed, net, disk))| NodeSpec {
                net_bandwidth: net,
                disk_bandwidth: disk,
                ..NodeSpec::new(&format!("n{i}"), cores, speed, 40, 10.0)
            })
            .collect();
        spec.topology = topology;
        spec
    })
}

/// Sane options, left alone half of the time and otherwise broken in one
/// or two of the ways above.
fn arb_options() -> impl Strategy<Value = EngineOptions> {
    let a_break = (0..BREAKS.len(), 0usize..4);
    (
        arb_cluster(),
        (1usize..12, 1u64 << 10..1u64 << 28, 1e6f64..1e9),
        proptest::option::of(plans::arb_plan()),
        prop_oneof![Just(1usize), Just(8usize)],
        prop_oneof![Just(None), Just(Some(4096u64))],
        prop_oneof![Just(Vec::new()), proptest::collection::vec(a_break, 1..3)],
    )
        .prop_map(
            |(cluster, scalars, faults, workers, executor_mem, breaks)| {
                let (default_parallelism, block_size, driver_bandwidth) = scalars;
                let mut opts = EngineOptions {
                    cluster,
                    default_parallelism,
                    block_size,
                    driver_bandwidth,
                    faults,
                    workers,
                    executor_mem,
                    ..EngineOptions::default()
                };
                for (which, node) in breaks {
                    BREAKS[which](&mut opts, node);
                }
                opts
            },
        )
}

/// The fields of `opts` that make it invalid, restated independently of
/// `validate` (by the name `validate` is expected to use for each).
fn offenders(opts: &EngineOptions) -> Vec<&'static str> {
    let bad = |x: f64| !(x.is_finite() && x > 0.0);
    let nodes = &opts.cluster.nodes;
    let mut out = Vec::new();
    let mut check = |is_bad: bool, name| {
        if is_bad {
            out.push(name)
        }
    };
    check(nodes.is_empty(), "cluster.nodes is empty");
    check(nodes.iter().any(|n| n.cores == 0), "].cores");
    check(nodes.iter().any(|n| bad(n.speed)), "].speed");
    check(
        nodes.iter().any(|n| bad(n.net_bandwidth)),
        "].net_bandwidth",
    );
    check(
        nodes.iter().any(|n| bad(n.disk_bandwidth)),
        "].disk_bandwidth",
    );
    check(opts.default_parallelism == 0, "default_parallelism");
    check(opts.block_size == 0, "block_size");
    check(bad(opts.driver_bandwidth), "driver_bandwidth");
    check(!opts.cluster.topology.covers(nodes.len()), "topology");
    if let Some(plan) = &opts.faults {
        check(plan.validate(nodes.len()).is_err(), "fault plan");
    }
    out
}

/// A cached map feeding a `reduce_by_key`: two stages, one shuffle, one
/// cache for the ledger (and a lost node's re-homing) to book.
fn word_count(opts: EngineOptions) -> Vec<Record> {
    let mut ctx = Context::new(opts);
    let data = (0..600).map(|i| Record::new(Key::Int(i % 37), Value::Int(i)));
    let src = ctx.parallelize(data.collect(), 5, "src");
    let ones = ctx.map(
        src,
        Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(1))),
        1e-5,
        "ones",
    );
    ctx.cache(ones);
    let counts = ctx.reduce_by_key(
        ones,
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
        None,
        1e-6,
        "count",
    );
    let mut out = ctx.collect(counts, "word-count");
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_options_are_rejected_by_name_or_run_to_the_same_result(opts in arb_options()) {
        let expected = offenders(&opts);
        match opts.validate() {
            Err(msg) => prop_assert!(
                expected.iter().any(|field| msg.contains(field)),
                "`{msg}` names none of the offending fields {expected:?}"
            ),
            Ok(()) => {
                prop_assert!(expected.is_empty(), "validate let {expected:?} through");
                let reference = word_count(EngineOptions::default());
                prop_assert_eq!(reference.len(), 37);
                prop_assert_eq!(word_count(opts), reference);
            }
        }
    }
}
