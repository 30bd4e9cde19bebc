//! The differential harness: programs over the engine's operators and the
//! options they run under, drawn at random, and the property each draw is
//! held to — its sorted output equals the reference evaluator's
//! ([`super::oracle`]), and no option that must not move a virtual bit or
//! a byte table moves one.
//!
//! A program is two collection sources, a few ops and one to three actions,
//! an `uncache` possibly between two: narrow ops from a fixed menu (a
//! lending flat-map among them; `sample` only while partitions are still a
//! source's), `reduce_by_key` / `group_by_key` / `repartition` / `join` /
//! `co_group` under no scheme, hash or range at P ∈ {1, 2, 7, 64, 512},
//! cache points, self-joins and diamonds over one wide RDD. Never drawn: a
//! range-partitioned two-sided op at P > 1, whose sides cut their bounds
//! from their own samples and lose matches (ROADMAP item 8).
//!
//! Each test crate that includes this file uses part of it.
#![allow(dead_code)]

use super::observed::Observed;
use super::oracle::{sorted, Oracle};
use super::plans::arb_plan;
use engine::stage::plan_job;
use engine::{Context, Emit, EngineOptions, FaultPlan, Key, PartitionerSpec, Rdd, Record};
use engine::{StageKind, StageMetrics, TraceSink, Value};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use simcluster::{uniform_cluster, Topology};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A collection source of `rows` records, split evenly, over ints,
/// strings, keyless records and two couples of unequal pair keys that
/// share a `stable_hash` (a pair's encoding is not prefix-free, so
/// `("a", (None, None))` and `("a\u{3}\0", None)` hash the same bytes).
/// If `hot`, two records in three have the key 3, which so outgrows a
/// partition.
#[derive(Clone, Copy, Debug)]
struct Source {
    rows: u64,
    partitions: usize,
    hot: bool,
    seed: u64,
}

impl Source {
    fn records(&self) -> Vec<Record> {
        let pair = |a: &str, b: Key| Key::Pair(Box::new(Key::str(a)), Box::new(b));
        let nested = || Key::Pair(Box::new(Key::None), Box::new(Key::None));
        let mut keys: Vec<Key> = (0..6).map(Key::Int).collect();
        keys.extend(["", "a", "b"].map(Key::str));
        keys.extend([pair("a", nested()), pair("a\u{3}\0", Key::None), Key::None]);
        keys.extend([pair("b", nested()), pair("b\u{3}\0", Key::None)]);
        let record = |i: u64| {
            // SplitMix64's output function.
            let mut x = (self.seed ^ i).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            let key = match self.hot && !i.is_multiple_of(3) {
                true => Key::Int(3),
                false => keys[(x % keys.len() as u64) as usize].clone(),
            };
            Record::new(key, Value::Int((x >> 40) as i64 % 1000))
        };
        (0..self.rows).map(record).collect()
    }
}

/// What makes a node: a narrow op of the menu, or a wide op.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// `map_values` to the value's [`digest`].
    Digest,
    /// `map` to a coarser key: an int mod 3, a string's first byte, a
    /// pair's first half.
    Rekey,
    /// `filter`: values whose digest is no multiple of 3.
    Filter,
    /// `flat_map` to digest-mod-3 records, lent out of one scratch record.
    FanOut,
    /// `sample` of half of each partition.
    Sample,
    Reduce,
    Group,
    Repartition,
    Join,
    CoGroup,
}

#[rustfmt::skip]
const OPS: [Op; 10] = {
    use Op::*;
    [Digest, Rekey, Filter, FanOut, Sample, Reduce, Group, Repartition, Join, CoGroup]
};

/// A number standing for a value: the identity on ints, blind to the order
/// of a list's elements (which the partitioning decides).
fn digest(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::List(vs) => vs.iter().map(digest).fold(0, i64::wrapping_add),
        Value::Pair(a, b) => digest(a).wrapping_mul(31).wrapping_add(digest(b)),
        other => other.encoded_size() as i64,
    }
}

fn rekey(r: &Record) -> Record {
    let key = match &r.key {
        Key::Int(i) => Key::Int(i.rem_euclid(3)),
        Key::Str(s) => Key::str(s.get(..1).unwrap_or("")),
        Key::Pair(a, _) => (**a).clone(),
        Key::None => Key::None,
    };
    Record::new(key, r.value.clone())
}

fn fan_out(r: &Record, out: &mut dyn Emit) {
    let (d, mut scratch) = (digest(&r.value), r.clone());
    for j in 0..d.rem_euclid(3) {
        scratch.value = Value::Int(d.wrapping_add(j));
        out.lend(&scratch);
    }
}

/// Adds `op` over `l` (and `r`, if it is two-sided) to the context.
fn build(ctx: &mut Context, op: Op, scheme: Option<PartitionerSpec>, l: Rdd, r: Rdd) -> Rdd {
    let digested = |r: &Record| Record::new(r.key.clone(), Value::Int(digest(&r.value)));
    let kept = |r: &Record| digest(&r.value) % 3 != 0;
    // Associative and commutative: `digest` is the identity on what it returns.
    let sum = |a: &Value, b: &Value| Value::Int(digest(a).wrapping_add(digest(b)));
    match op {
        Op::Digest => ctx.map_values(l, Arc::new(digested), 1e-6, "digest"),
        Op::Rekey => ctx.map(l, Arc::new(rekey), 1e-6, "rekey"),
        Op::Filter => ctx.filter(l, Arc::new(kept), 1e-6, "filter"),
        Op::FanOut => ctx.flat_map(l, Arc::new(fan_out), 1e-6, "fan-out"),
        Op::Sample => ctx.sample(l, 0.5, 11, "sample"),
        Op::Reduce => ctx.reduce_by_key(l, Arc::new(sum), scheme, 1e-6, "reduce"),
        Op::Group => ctx.group_by_key(l, scheme, 1e-6, "group"),
        Op::Repartition => ctx.repartition(l, scheme, "repartition"),
        Op::Join => ctx.join(l, r, scheme, 1e-6, "join"),
        Op::CoGroup => ctx.co_group(l, r, scheme, 1e-6, "co-group"),
    }
}

/// One line of a program. Nodes are numbered in the order they are made,
/// the two sources first.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `op` over a left and a right node (one-sided ops: the same one).
    Node(Op, Option<PartitionerSpec>, usize, usize),
    Cache(usize),
    Uncache(usize),
    Collect(usize),
    Count(usize),
}

#[derive(Debug)]
struct Program {
    sources: [Source; 2],
    steps: Vec<Step>,
}

/// Per action: its RDD, the count, and the records a `collect` returned.
type Outcomes = Vec<(Rdd, u64, Option<Vec<Record>>)>;

impl Program {
    /// Builds the program in a fresh context and runs its actions.
    fn run(&self, opts: &EngineOptions) -> (Outcomes, Context) {
        let mut ctx = Context::new(opts.clone());
        let source =
            |ctx: &mut Context, s: &Source| ctx.parallelize(s.records(), s.partitions, "source");
        let mut nodes: Vec<Rdd> = self.sources.iter().map(|s| source(&mut ctx, s)).collect();
        let mut outcomes = Vec::new();
        for &step in &self.steps {
            match step {
                Step::Node(op, scheme, l, r) => {
                    let rdd = build(&mut ctx, op, scheme, nodes[l], nodes[r]);
                    nodes.push(rdd);
                }
                Step::Cache(n) => ctx.cache(nodes[n]),
                Step::Uncache(n) => ctx.uncache(nodes[n]),
                Step::Collect(n) => {
                    let got = ctx.collect(nodes[n], "collect");
                    outcomes.push((nodes[n], got.len() as u64, Some(got)));
                }
                Step::Count(n) => outcomes.push((nodes[n], ctx.count(nodes[n], "count"), None)),
            }
        }
        (outcomes, ctx)
    }
}

/// Engine options as drawn; fault event times are fractions of the
/// fault-free run.
#[derive(Clone, Debug)]
struct Knobs {
    workers: usize,
    tight_mem: bool,
    faults: Option<FaultPlan>,
    one_rack: bool,
    copartition: bool,
    trace: bool,
}

/// The default parallelism, which a scheme-less wide op runs at.
const PARALLELISM: usize = 7;

impl Knobs {
    /// The same without a fault plan or a budget.
    fn clean(&self) -> Knobs {
        Knobs {
            faults: None,
            tight_mem: false,
            ..self.clone()
        }
    }

    /// The options, fault events placed on a run `run_s` virtual seconds
    /// long.
    fn options(&self, run_s: f64) -> EngineOptions {
        let mut faults = self.faults.clone();
        if let Some(plan) = &mut faults {
            plan.node_loss.iter_mut().for_each(|l| l.at *= run_s);
            plan.stragglers.iter_mut().for_each(|s| s.at *= run_s);
        }
        let mut cluster = uniform_cluster(3, 4, 2.0);
        if self.one_rack {
            cluster = cluster.with_topology(Topology::Rack {
                racks: 1,
                hosts: 3,
                oversub: 1.0,
            });
        }
        EngineOptions {
            cluster,
            default_parallelism: PARALLELISM,
            copartition_scheduling: self.copartition,
            workers: self.workers,
            trace: self.trace.then(TraceSink::enabled).unwrap_or_default(),
            // Small enough that a few hundred records spill.
            executor_mem: self.tight_mem.then_some(16 * 1024),
            faults,
            ..EngineOptions::default()
        }
    }
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.range_u64(0, n as u64) as usize
}

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[below(rng, xs.len())]
}

fn draw_program(rng: &mut TestRng) -> Program {
    use Op::*;
    let hot = Source {
        rows: 300 + rng.range_u64(0, 1700),
        partitions: 3 + below(rng, 6),
        hot: true,
        seed: rng.next_u64(),
    };
    let other = Source {
        rows: if below(rng, 8) == 0 {
            0
        } else {
            1 + rng.range_u64(0, 150)
        },
        partitions: 1 + below(rng, 5),
        hot: false,
        seed: rng.next_u64(),
    };
    // Per node: at least as many records as it holds, whether its
    // partitions are still its source's, the wide op (or source) its narrow
    // chain starts at, and whether it or a node it reads from is cached.
    let mut nodes = vec![(hot.rows, true, 0, false), (other.rows, true, 1, false)];
    let mut steps = Vec::new();
    for _ in 0..2 + below(rng, 5) {
        // The first op reads the hot source; a later one, the node before
        // it half of the time.
        let n = nodes.len();
        let of = match n {
            2 => 0,
            _ if rng.bool() => n - 1,
            _ => below(rng, n),
        };
        let ((rows, from_source, origin, under_cache), mut op) = (nodes[of], pick(rng, &OPS));
        let two_sided = matches!(op, Join | CoGroup);
        // A self-join a quarter of the time; another quarter, a diamond:
        // the other side off the same wide op's chain.
        let kin = (0..n).filter(|&c| c != of && nodes[c].2 == origin);
        let kin: Vec<usize> = kin.collect();
        let right = match below(rng, 4) {
            _ if !two_sided => of,
            0 => of,
            1 if !kin.is_empty() => pick(rng, &kin),
            _ => below(rng, n),
        };
        let pairs = rows * nodes[right].0;
        op = match op {
            Sample if !from_source => Filter,
            // Two hot sides would square: past a few thousand pairs, co-group.
            Join if pairs > 3000 => CoGroup,
            op => op,
        };
        let p = pick(rng, &[1, 2, 7, 64, 512]);
        let scheme = match below(rng, 3) {
            0 => None,
            // The one exclusion: ROADMAP item 8.
            _ if two_sided && p > 1 => Some(PartitionerSpec::hash(p)),
            1 => Some(PartitionerSpec::hash(p)),
            _ => Some(PartitionerSpec::range(p)),
        };
        let narrow = OPS[..5].contains(&op);
        let rows = match op {
            FanOut => 2 * rows,
            Join => pairs,
            Reduce | Group | CoGroup => 16,
            _ => rows,
        };
        let origin = if narrow { origin } else { n };
        let under_cache = under_cache || nodes[right].3;
        nodes.push((rows, narrow && from_source, origin, under_cache));
        steps.push(Step::Node(op, scheme.filter(|_| !narrow), of, right));
        if below(rng, 3) == 0 {
            steps.push(Step::Cache(n));
            nodes[n].3 = true;
        }
    }
    // The first action computes the last node; a later one, half of the
    // time, reads through a cache — after, half of the time, an uncache.
    let under_cache: Vec<usize> = (0..nodes.len()).filter(|&n| nodes[n].3).collect();
    for i in 0..1 + below(rng, 3) {
        let target = match i {
            0 => nodes.len() - 1,
            _ if !under_cache.is_empty() && rng.bool() => pick(rng, &under_cache),
            _ => below(rng, nodes.len()),
        };
        let cached = steps.iter().rev().find_map(|s| match s {
            Step::Cache(n) => Some(*n),
            _ => None,
        });
        if let Some(n) = cached.filter(|_| i > 0 && rng.bool()) {
            steps.push(Step::Uncache(n));
        }
        steps.push(pick(rng, &[Step::Collect(target), Step::Count(target)]));
    }
    let sources = [hot, other];
    Program { sources, steps }
}

fn draw_knobs(rng: &mut TestRng) -> Knobs {
    Knobs {
        workers: pick(rng, &[1, 4]),
        tight_mem: rng.bool(),
        faults: rng.bool().then(|| arb_plan().generate(rng)),
        one_rack: rng.bool(),
        copartition: rng.bool(),
        trace: rng.bool(),
    }
}

/// In how many cases each shape the property must reach happened.
#[derive(Debug, Default)]
pub struct Seen(BTreeMap<&'static str, usize>);

impl Seen {
    fn note(&mut self, shape: &'static str, happened: bool) {
        *self.0.entry(shape).or_default() += usize::from(happened);
    }

    /// Every shape happened in some case.
    pub fn assert_all(&self) {
        assert!(self.0.values().all(|&n| n > 0), "unreached: {self:?}");
    }
}

/// Runs `check` on `cases` draws from a stream seeded by `name`; a failing
/// draw is printed as it panics.
fn draw_cases<T: std::fmt::Debug>(
    name: &str,
    cases: usize,
    draw: impl Fn(&mut TestRng) -> T,
    mut check: impl FnMut(&T),
) {
    let mut rng = TestRng::for_test(name);
    for i in 0..cases {
        let case = draw(&mut rng);
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| check(&case))) {
            eprintln!("case {i} of `{name}` failed:\n{case:?}");
            resume_unwind(cause);
        }
    }
}

/// Holds `cases` drawn programs, each under drawn options, to the property.
pub fn check_cases(name: &str, cases: usize) -> Seen {
    let mut seen = Seen::default();
    let draw = |rng: &mut TestRng| (draw_program(rng), draw_knobs(rng));
    draw_cases(name, cases, draw, |(program, knobs)| {
        check(program, knobs, &mut seen)
    });
    seen
}

/// Holds a workload — `run`, from options to what the run observed — to
/// the property's option legs under `cases` drawn options, a generated
/// fault plan among them half of the time.
pub fn check_workload(name: &str, cases: usize, run: impl Fn(&EngineOptions) -> Observed) {
    draw_cases(name, cases, draw_knobs, |knobs| {
        let clean = run(&knobs.clean().options(0.0));
        check_options(knobs, clean, &mut Seen::default(), &run);
    });
}

/// One draw's property: the program runs fault- and budget-free, where its
/// sorted output must equal the evaluator's, then through
/// [`check_options`].
fn check(program: &Program, knobs: &Knobs, seen: &mut Seen) {
    let rendered = |outcomes: &Outcomes| format!("{outcomes:?}");
    let (outcomes, ctx) = program.run(&knobs.clean().options(0.0));
    let mut oracle = Oracle::new(ctx.graph());
    for (rdd, count, collected) in &outcomes {
        let want = sorted(oracle.records(*rdd));
        assert_eq!(*count, want.len() as u64, "{rdd:?}: count");
        let got = sorted(collected.clone().unwrap_or_else(|| want.clone()));
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            let (g, w) = (&got[i], &want[i]);
            panic!("{rdd:?}: sorted, the records first differ at {i}:\n{g:?}\n{w:?}");
        }
    }
    // The first job plans with nothing cached yet.
    let (rdd, none) = (outcomes[0].0, HashMap::new());
    let first = plan_job(ctx.graph(), rdd, ctx.conf(), PARALLELISM, &none);
    let shared = (0..first.shuffles.len()).any(|s| first.shuffle_reads(s) > 1);
    seen.note("shuffle read twice", shared);
    let stages = ctx.all_stages();
    // One task per partition.
    for m in &stages {
        let scheme = m.scheme.expect("every stage has a scheme");
        assert_eq!(m.num_tasks, scheme.partitions, "{}: tasks", m.name);
    }
    let is_wide = |m: &&&StageMetrics| matches!(m.kind, StageKind::Shuffle | StageKind::Join);
    let wide: Vec<_> = stages.iter().filter(is_wide).collect();
    let p = |m: &StageMetrics| m.scheme.expect("a wide stage has a scheme").partitions;
    // The records a stage fetched bound its keys.
    let sparse = |m: &&&StageMetrics| p(m) >= 64 && 8 * m.input_records as usize <= p(m);
    seen.note("P ≫ keys", wide.iter().any(sparse));
    let reread = stages.iter().any(|m| m.kind == StageKind::Cached);
    seen.note("cached partition re-read", reread);
    let uncache = program.steps.iter().any(|s| matches!(s, Step::Uncache(_)));
    seen.note("uncache", uncache);
    let run = |opts: &EngineOptions| {
        let (outcomes, ctx) = program.run(opts);
        Observed::of(&ctx, rendered(&outcomes))
    };
    check_options(knobs, Observed::of(&ctx, rendered(&outcomes)), seen, run);
}

/// The legs after the fault- and budget-free run `clean`: the options as
/// drawn keep its results and byte tables, and with workers, topology
/// and tracing flipped they move no bit.
fn check_options(
    knobs: &Knobs,
    clean: Observed,
    seen: &mut Seen,
    run: impl Fn(&EngineOptions) -> Observed,
) {
    let run_s = f64::from_bits(clean.clock_bits);
    let base = match knobs.faults.is_some() || knobs.tight_mem {
        false => clean,
        true => {
            let base = run(&knobs.options(run_s));
            clean.assert_same_data(&base, !knobs.tight_mem, "fault plan and budget");
            base
        }
    };
    seen.note("spill", base.mem.spills > 0);
    seen.note("eviction", base.mem.evictions > 0);
    let recovered = base.faults.replica_rehomed_partitions + base.faults.recomputed_map_tasks;
    seen.note("re-home or recompute", recovered > 0);
    let flipped = Knobs {
        workers: 5 - knobs.workers,
        one_rack: !knobs.one_rack,
        trace: true,
        ..knobs.clone()
    };
    let what = "workers, topology and tracing flipped";
    base.assert_identical(&run(&flipped.options(run_s)), what);
}
