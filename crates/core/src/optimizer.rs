//! The partition optimizer (paper Algorithms 1–3).
//!
//! * [`get_stage_par`] — Algorithm 1: fit one model per partitioner kind,
//!   grid-search the partition count minimizing Eq. 4's cost for each, and
//!   return the cheaper partitioner.
//! * [`get_workload_par`] — Algorithm 2: the naive per-stage pass over the
//!   workload DAG.
//! * [`get_global_par`] — Algorithm 3: regroup the DAG at join/co-group
//!   dependencies, unify schemes within each subgraph by total modeled
//!   cost (`getSubGraphPar`/`getCost`), leave user-fixed stages intact, and
//!   insert an explicit repartition phase when its benefit exceeds the
//!   γ-discounted cost (γ = 1.5 "to tolerate the model estimation error").

use crate::collector::DagStage;
use crate::db::WorkloadRecord;
use crate::model::{
    cost_with_baseline, CostConstants, CostSurface, CostWeights, ModelBasis, StageModel,
};
use engine::{PartitionerKind, PartitionerSpec, TraceSink, WorkloadConf};
use std::collections::HashMap;

/// Thread id of the optimizer's event track within the
/// [`trace::pids::AUTOTUNE`] process (grid lanes occupy the low tids).
const OPTIMIZER_TID: u32 = 999;

/// Lazily names the optimizer track and returns it.
fn optimizer_track(sink: &TraceSink) -> trace::Track {
    let track = trace::Track::new(trace::pids::AUTOTUNE, OPTIMIZER_TID);
    if !sink.has_thread_name(track) {
        sink.name_process(trace::pids::AUTOTUNE, "autotune (wall time)");
        sink.name_thread(track, "optimizer");
    }
    track
}

/// Every numeric guard and cutoff of the objective — the static search's
/// and the runtime re-planner's alike — one documented, pin-tested block.
pub(crate) const CONSTS: CostConstants = CostConstants::DEFAULT;

/// Per-task launch overhead in seconds, as the simulated cluster charges
/// it (`ClusterSpec::task_launch_overhead`): what an expected retry and a
/// task of an inserted repartition phase each pay once.
pub(crate) const TASK_OVERHEAD: f64 = 0.015;

/// Effective bandwidth (bytes/s) an inserted repartition phase moves a
/// stage's output at.
const REPART_BANDWIDTH: f64 = 400e6;

/// Weight of the spill penalty: an infeasible candidate's cost scales by
/// `1 + SPILL_PENALTY × overflow/budget`.
const SPILL_PENALTY: f64 = 2.0;

/// Optimizer knobs.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    /// Eq. 3 weights (α, β).
    pub weights: CostWeights,
    /// Repartition-insertion benefit threshold (paper: 1.5).
    pub gamma: f64,
    /// The default parallelism the cost function normalizes against.
    pub default_parallelism: usize,
    /// Candidate partition counts for the grid search.
    pub candidates: Vec<usize>,
    /// Restrict the grid search to the partition-count range the model was
    /// trained on (on by default; the ablation harness turns it off to
    /// demonstrate how badly the Eq. 1–2 polynomial extrapolates).
    pub clamp_to_trained_range: bool,
    /// Feature basis for the Eq. 1–2 fits (extended by default; the
    /// paper's exact basis is available for ablation).
    pub basis: ModelBasis,
    /// Effective shuffle bandwidth (bytes/s) used to estimate how
    /// significant a stage's shuffle volume is relative to its runtime.
    /// `None` (the default) disables significance weighting — the paper's
    /// raw Eq. 3. Callers that know the cluster derive the value from its
    /// spec (`ClusterSpec::effective_shuffle_bandwidth`: the slowest NIC,
    /// degraded by topology oversubscription for cross-rack traffic), as
    /// `Autotuner` does, instead of guessing a hard-coded constant.
    pub shuffle_bandwidth: Option<f64>,
    /// Execution-trace sink: when enabled, model fits and per-stage
    /// decisions are recorded as wall-clock instants.
    pub trace: TraceSink,
    /// Per-task execution-memory budget in bytes (derived from the
    /// engine's `--executor-mem`). When set, candidates whose estimated
    /// task working set (input share plus produced output) exceeds it
    /// are memory-infeasible: the search prefers feasible candidates (a
    /// lower bound on the partition count) and penalizes infeasible
    /// ones by their spill overflow.
    pub task_mem_budget: Option<f64>,
    /// Expected per-task failure probability (derived from the engine's
    /// fault plan). When positive, every candidate's cost is scaled by a
    /// recovery factor that charges the expected re-runs plus their
    /// per-task launch overhead — penalizing high partition counts whose
    /// retries are overhead-dominated. Zero (the default) leaves every
    /// cost untouched, so fault-free plans are bit-identical.
    pub fault_prob: f64,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        let mut candidates: Vec<usize> = (1..=99).map(|i| i * 10).collect();
        candidates.extend((10..=20).map(|i| i * 100));
        OptimizerOptions {
            weights: CostWeights::default(),
            gamma: 1.5,
            default_parallelism: 300,
            candidates,
            clamp_to_trained_range: true,
            basis: ModelBasis::default(),
            shuffle_bandwidth: None,
            trace: TraceSink::disabled(),
            task_mem_budget: None,
            fault_prob: 0.0,
        }
    }
}

/// Estimated per-task execution working set at candidate `p` (see
/// [`CostConstants::working_set_factor`]).
fn task_working_set(input: InputResponse, p: f64) -> f64 {
    CONSTS.working_set_factor * input.d_at(p) / p
}

/// Spill-cost multiplier for evaluating a candidate `p`: 1 when the
/// estimated task working set fits the execution-memory budget, and
/// `1 + SPILL_PENALTY × overflow/budget` when it does not — each byte
/// over budget pays a disk round-trip the in-memory path avoids.
fn spill_factor(input: InputResponse, p: f64, opts: &OptimizerOptions) -> f64 {
    let Some(budget) = opts.task_mem_budget else {
        return 1.0;
    };
    if budget <= 0.0 || p <= 0.0 {
        return 1.0;
    }
    let overflow = (task_working_set(input, p) - budget).max(0.0);
    1.0 + SPILL_PENALTY * overflow / budget
}

/// Recovery-cost multiplier for evaluating a candidate `p` under an
/// expected per-task failure rate: each expected failure re-runs one task
/// and pays a fresh launch overhead, so the penalty grows with the
/// partition count relative to the stage's predicted time — after a node
/// loss shrinks the topology, re-tuning with this factor steers `P` away
/// from retry-overhead-dominated choices. Exactly 1 when `fault_prob` is
/// zero (the default), leaving fault-free plans bit-identical.
fn recovery_factor(p: f64, pred_time: f64, opts: &OptimizerOptions) -> f64 {
    if opts.fault_prob <= 0.0 || p <= 0.0 {
        return 1.0;
    }
    let relaunch = p * TASK_OVERHEAD / pred_time.max(CONSTS.pred_time_floor);
    1.0 + opts.fault_prob * (1.0 + relaunch)
}

/// Algorithm 1's result for one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePar {
    /// Chosen partitioner kind.
    pub kind: PartitionerKind,
    /// Chosen partition count.
    pub partitions: usize,
    /// Eq. 3 cost at the chosen point.
    pub cost: f64,
    /// Predicted execution time at the chosen point (seconds).
    pub pred_time: f64,
}

/// What the planner decided for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDecision {
    /// Stage signature.
    pub signature: u64,
    /// Stage label.
    pub name: String,
    /// What was done.
    pub action: DecisionAction,
}

/// The possible per-stage outcomes of Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionAction {
    /// Scheme retuned via the configuration file.
    Retune(PartitionerSpec),
    /// Scheme retuned as part of a join subgraph unification.
    RetuneGrouped(PartitionerSpec),
    /// User-fixed scheme left intact.
    KeepUserFixed,
    /// User-fixed scheme left intact, but a repartition phase is inserted
    /// after the stage.
    InsertRepartition(PartitionerSpec),
    /// This stage's task count follows another stage's scheme (partition
    /// dependency, e.g. a cached RDD); its cost was folded into that
    /// stage's group decision.
    FollowsProducer(u64),
    /// No model available — default behaviour kept.
    KeepDefault,
}

/// A complete tuning plan: the configuration to install plus an audit trail.
#[derive(Debug, Clone, Default)]
pub struct TuningPlan {
    /// The configuration file content (paper Fig. 6).
    pub conf: WorkloadConf,
    /// Per-stage decisions in DAG order.
    pub decisions: Vec<StageDecision>,
}

impl TuningPlan {
    /// Looks up the decided scheme for a stage signature, if retuned.
    pub fn scheme_for(&self, signature: u64) -> Option<PartitionerSpec> {
        self.conf.stage_scheme(signature)
    }
}

/// Fits (or retrieves) the model for `(sig, kind)`.
fn model_for(
    rec: &WorkloadRecord,
    sig: u64,
    kind: PartitionerKind,
    basis: ModelBasis,
) -> Option<StageModel> {
    StageModel::fit_with_basis(rec.observations(sig, kind), basis)
}

/// The Eq. 3 baseline for a stage: predicted `(t₀, s₀)` at the default
/// parallelism from the default (hash) partitioner's model, so hash and
/// range candidates are scored on a common scale. The baseline's `D` is
/// the input the stage would see *at the default parallelism*.
fn stage_baseline(
    rec: &WorkloadRecord,
    sig: u64,
    input: InputResponse,
    opts: &OptimizerOptions,
) -> Option<(f64, f64, f64)> {
    let model = model_for(rec, sig, PartitionerKind::Hash, opts.basis)
        .or_else(|| model_for(rec, sig, PartitionerKind::Range, opts.basis))?;
    let p0 = opts.default_parallelism as f64;
    let d0 = input.d_at(p0);
    let t0 = model.predict_time(d0, p0);
    let s0 = model.predict_shuffle(d0, p0);
    let significance = match opts.shuffle_bandwidth {
        None => 1.0,
        Some(bw) => {
            let shuffle_time = s0 / bw.max(1.0);
            (shuffle_time / t0.max(CONSTS.pred_time_floor)).clamp(0.0, 1.0)
        }
    };
    Some((t0, s0, significance))
}

/// Eq. 3 for one candidate `p`, with its multipliers, spelled once: the
/// baseline-normalized `α·t + β·s` objective, scaled by the spill penalty
/// of a working set that overflows the memory budget and by the expected
/// cost of retries. `baseline` is `(t₀, s₀, shuffle significance)`.
fn candidate_cost<M: CostSurface + ?Sized>(
    model: &M,
    input: InputResponse,
    p: f64,
    (t0, s0, significance): (f64, f64, f64),
    opts: &OptimizerOptions,
) -> f64 {
    let d = input.d_at(p);
    spill_factor(input, p, opts)
        * recovery_factor(p, model.predict_time(d, p), opts)
        * cost_with_baseline(model, opts.weights, d, p, t0, s0, significance)
}

/// `getMinPar`: grid search over candidate partition counts, restricted to
/// the range the model was actually trained on — the Eq. 1–2 polynomial has
/// no business being evaluated far outside its observations.
pub(crate) fn get_min_par<M: CostSurface + ?Sized>(
    model: &M,
    input: InputResponse,
    baseline: (f64, f64, f64),
    opts: &OptimizerOptions,
) -> (usize, f64) {
    let (p_lo, p_hi) = model.trained_p_range();
    let in_range: Vec<usize> = opts
        .candidates
        .iter()
        .copied()
        .filter(|&p| !opts.clamp_to_trained_range || ((p as f64) >= p_lo && (p as f64) <= p_hi))
        .collect();
    let candidates = if in_range.is_empty() {
        opts.candidates.clone()
    } else {
        in_range
    };
    // Memory-feasibility lower bound: when a budget is set and at least
    // one candidate's estimated task working set fits in it, search only
    // those — the optimizer must not pick a partition count that cannot
    // hold a task's working set in memory. If no candidate fits, fall
    // through with the spill penalty deciding among evils.
    let feasible: Vec<usize> = match opts.task_mem_budget {
        None => candidates.clone(),
        Some(budget) => candidates
            .iter()
            .copied()
            .filter(|&p| task_working_set(input, p as f64) <= budget)
            .collect(),
    };
    let candidates = if feasible.is_empty() {
        candidates
    } else {
        feasible
    };
    candidates
        .iter()
        .map(|&p| (p, candidate_cost(model, input, p as f64, baseline, opts)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .expect("candidate list is non-empty")
}

/// Algorithm 1: the optimal `(partitioner, partitions, cost)` for one stage
/// at input size `d`, or `None` when no model can be fitted.
pub fn get_stage_par(
    rec: &WorkloadRecord,
    sig: u64,
    d: f64,
    opts: &OptimizerOptions,
) -> Option<StagePar> {
    get_stage_par_with_input(rec, sig, InputResponse::Fixed(d), opts)
}

fn get_stage_par_with_input(
    rec: &WorkloadRecord,
    sig: u64,
    input: InputResponse,
    opts: &OptimizerOptions,
) -> Option<StagePar> {
    let baseline = stage_baseline(rec, sig, input, opts)?;
    let mut best: Option<StagePar> = None;
    for kind in [PartitionerKind::Hash, PartitionerKind::Range] {
        if let Some(model) = model_for(rec, sig, kind, opts.basis) {
            let (p, c) = get_min_par(&model, input, baseline, opts);
            let candidate = StagePar {
                kind,
                partitions: p,
                cost: c,
                pred_time: model.predict_time(input.d_at(p as f64), p as f64),
            };
            if opts.trace.is_enabled() {
                let track = optimizer_track(&opts.trace);
                opts.trace.instant(
                    trace::Clock::Wall,
                    track,
                    format!("fit {kind:?} sig={sig:016x}"),
                    "model",
                    opts.trace.wall_now(),
                    vec![
                        ("signature", sig.into()),
                        ("kind", format!("{kind:?}").into()),
                        ("best_p", p.into()),
                        ("cost", c.into()),
                        ("pred_time_s", candidate.pred_time.into()),
                    ],
                );
            }
            if best.is_none_or(|b| c < b.cost) {
                best = Some(candidate);
            }
        }
    }
    best
}

/// Algorithm 2: independent per-stage optimization over the workload DAG.
///
/// Returns `(stage, optimal)` pairs in DAG order; `None` optima mean no
/// model was available for that stage.
pub fn get_workload_par(
    rec: &WorkloadRecord,
    target_input_bytes: u64,
    opts: &OptimizerOptions,
) -> Vec<(DagStage, Option<StagePar>)> {
    let Some(reference) = rec.reference_run() else {
        return Vec::new();
    };
    reference
        .dag
        .iter()
        .map(|stage| {
            let input = input_response(rec, stage, target_input_bytes);
            let par = get_stage_par_with_input(rec, stage.signature, input, opts);
            (stage.clone(), par)
        })
        .collect()
}

/// `getStageInput`: scales the stage's observed input ratio to the target
/// workload input.
fn stage_input(stage: &DagStage, target_input_bytes: u64) -> f64 {
    (stage.input_ratio * target_input_bytes as f64).max(1.0)
}

/// How a stage's input size `D` responds to its own partition count.
///
/// For scan-like stages `D` is fixed by the workload input; for reduce
/// stages behind a map-side combine, `D` is largely a function of the
/// partition count (`≈ keys-per-map × P × record size`), so evaluating
/// Eq. 3 at a fixed `D` queries the model far off its training manifold.
/// We detect the correlation in the observations and, when strong, model
/// `D(P)` with a linear fit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum InputResponse {
    /// `D` is independent of `P`: use the ratio-scaled workload input.
    Fixed(f64),
    /// `D ≈ a + b·P` (strong observed correlation).
    FollowsP { a: f64, b: f64 },
}

impl InputResponse {
    fn d_at(&self, p: f64) -> f64 {
        match *self {
            InputResponse::Fixed(d) => d,
            InputResponse::FollowsP { a, b } => (a + b * p).max(1.0),
        }
    }
}

/// Builds the input-response description for a stage from its pooled
/// observations (both partitioner kinds).
fn input_response(
    rec: &WorkloadRecord,
    stage: &DagStage,
    target_input_bytes: u64,
) -> InputResponse {
    let mut pts: Vec<(f64, f64)> = Vec::new(); // (p, d)
    for kind in [PartitionerKind::Hash, PartitionerKind::Range] {
        pts.extend(
            rec.observations(stage.signature, kind)
                .iter()
                .map(|o| (o.p, o.d)),
        );
    }
    let fixed = InputResponse::Fixed(stage_input(stage, target_input_bytes));
    if pts.len() < CONSTS.input_min_points {
        return fixed;
    }
    let n = pts.len() as f64;
    let mean_p = pts.iter().map(|(p, _)| p).sum::<f64>() / n;
    let mean_d = pts.iter().map(|(_, d)| d).sum::<f64>() / n;
    let cov: f64 = pts
        .iter()
        .map(|(p, d)| (p - mean_p) * (d - mean_d))
        .sum::<f64>()
        / n;
    let var_p: f64 = pts.iter().map(|(p, _)| (p - mean_p).powi(2)).sum::<f64>() / n;
    let var_d: f64 = pts.iter().map(|(_, d)| (d - mean_d).powi(2)).sum::<f64>() / n;
    if var_p <= CONSTS.variance_eps || var_d <= CONSTS.variance_eps {
        return fixed;
    }
    let corr = cov / (var_p.sqrt() * var_d.sqrt());
    if corr.abs() < CONSTS.input_corr_cutoff {
        return fixed;
    }
    let b = cov / var_p;
    let a = mean_d - b * mean_p;
    InputResponse::FollowsP { a, b }
}

/// `getCost` over a subgraph: total cost of applying one scheme to every
/// member stage that has a model for the scheme's kind.
///
/// Each member's Eq. 3 (dimensionless, ~1 at the default parallelism) is
/// weighted by `multiplicity × t₀` — its share of the run's wall time —
/// so a 45-second parse stage outvotes a 3-second iteration stage instead
/// of counting equally, and a stage that runs five times counts five
/// times. Without this, normalizing erases magnitude and the group picks
/// whatever is best for its cheapest members.
fn group_cost(
    rec: &WorkloadRecord,
    members: &[&DagStage],
    scheme: PartitionerSpec,
    target_input_bytes: u64,
    opts: &OptimizerOptions,
) -> Option<f64> {
    let mut total = 0.0;
    let mut any = false;
    for stage in members {
        if let Some(model) = model_for(rec, stage.signature, scheme.kind, opts.basis) {
            let input = input_response(rec, stage, target_input_bytes);
            let Some(baseline) = stage_baseline(rec, stage.signature, input, opts) else {
                continue;
            };
            let weight = stage.multiplicity as f64 * baseline.0.max(CONSTS.group_weight_floor);
            let p = scheme.partitions as f64;
            total += weight * candidate_cost(&model, input, p, baseline, opts);
            any = true;
        }
    }
    any.then_some(total)
}

/// Algorithm 3: the globally optimized partition plan.
pub fn get_global_par(
    rec: &WorkloadRecord,
    target_input_bytes: u64,
    opts: &OptimizerOptions,
) -> TuningPlan {
    let Some(reference) = rec.reference_run() else {
        return TuningPlan::default();
    };
    let dag = &reference.dag;

    // ---- getReGroupedDAG: union joins with their direct parents, and
    // partition-dependent stages with their producers ----------------------
    let index_of: HashMap<u64, usize> = dag
        .iter()
        .enumerate()
        .map(|(i, s)| (s.signature, i))
        .collect();
    let mut group_id: Vec<usize> = (0..dag.len()).collect();
    fn find(group_id: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while group_id[root] != root {
            root = group_id[root];
        }
        let mut cur = i;
        while group_id[cur] != root {
            let next = group_id[cur];
            group_id[cur] = root;
            cur = next;
        }
        root
    }
    for (i, stage) in dag.iter().enumerate() {
        if stage.is_join {
            for parent_sig in &stage.parents {
                if let Some(&pi) = index_of.get(parent_sig) {
                    let a = find(&mut group_id, i);
                    let b = find(&mut group_id, pi);
                    group_id[a] = b;
                }
            }
        }
        if let Some(dep) = stage.depends_on {
            if let Some(&pi) = index_of.get(&dep) {
                let a = find(&mut group_id, i);
                let b = find(&mut group_id, pi);
                group_id[a] = b;
            }
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..dag.len() {
        let g = find(&mut group_id, i);
        groups.entry(g).or_default().push(i);
    }

    // ---- Decide each group's scheme --------------------------------------
    // decided[i] = the action for dag[i].
    let mut decided: Vec<Option<DecisionAction>> = vec![None; dag.len()];
    for members_idx in groups.values() {
        let members: Vec<&DagStage> = members_idx.iter().map(|&i| &dag[i]).collect();
        if members.len() == 1 {
            let stage = members[0];
            let i = members_idx[0];
            decided[i] = Some(decide_single(rec, stage, target_input_bytes, opts));
            continue;
        }

        // getSubGraphPar: candidates are each member's stage-level optimum,
        // each member's observed scheme, and the default parallelism (the
        // group must always be able to "keep things as they are");
        // evaluate each applied to the whole subgraph and take the min.
        let mut candidates: Vec<PartitionerSpec> = Vec::new();
        let push = |spec: PartitionerSpec, candidates: &mut Vec<PartitionerSpec>| {
            if !candidates.contains(&spec) {
                candidates.push(spec);
            }
        };
        for stage in &members {
            let input = input_response(rec, stage, target_input_bytes);
            if let Some(par) = get_stage_par_with_input(rec, stage.signature, input, opts) {
                push(
                    PartitionerSpec {
                        kind: par.kind,
                        partitions: par.partitions,
                    },
                    &mut candidates,
                );
            }
            push(
                PartitionerSpec {
                    kind: stage.observed_kind,
                    partitions: stage.observed_partitions,
                },
                &mut candidates,
            );
        }
        push(
            PartitionerSpec::hash(opts.default_parallelism),
            &mut candidates,
        );
        let best = candidates
            .iter()
            .filter_map(|&spec| {
                group_cost(rec, &members, spec, target_input_bytes, opts).map(|c| (spec, c))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));

        for (&i, stage) in members_idx.iter().zip(&members) {
            decided[i] = Some(match best {
                Some((spec, _)) if stage.configurable && !stage.user_fixed => {
                    DecisionAction::RetuneGrouped(spec)
                }
                _ if stage.depends_on.is_some() => {
                    DecisionAction::FollowsProducer(stage.depends_on.expect("just checked"))
                }
                _ if stage.user_fixed => {
                    decide_fixed(rec, stage, best.map(|(s, _)| s), target_input_bytes, opts)
                }
                _ => DecisionAction::KeepDefault,
            });
        }
    }

    // ---- Emit configuration + audit trail in DAG order -------------------
    let mut plan = TuningPlan::default();
    for (i, stage) in dag.iter().enumerate() {
        let action = decided[i].clone().unwrap_or(DecisionAction::KeepDefault);
        match &action {
            DecisionAction::Retune(spec) | DecisionAction::RetuneGrouped(spec) => {
                plan.conf.set_stage(stage.signature, *spec);
            }
            DecisionAction::InsertRepartition(spec) => {
                plan.conf.set_repartition(stage.signature, *spec);
            }
            DecisionAction::KeepUserFixed
            | DecisionAction::KeepDefault
            | DecisionAction::FollowsProducer(_) => {}
        }
        if opts.trace.is_enabled() {
            let track = optimizer_track(&opts.trace);
            let (what, detail) = describe_action(&action);
            opts.trace.instant(
                trace::Clock::Wall,
                track,
                format!("decide {what}: {}", stage.name),
                "decision",
                opts.trace.wall_now(),
                vec![
                    ("signature", stage.signature.into()),
                    ("stage", stage.name.clone().into()),
                    ("action", what.into()),
                    ("detail", detail.into()),
                ],
            );
        }
        plan.decisions.push(StageDecision {
            signature: stage.signature,
            name: stage.name.clone(),
            action,
        });
    }
    plan
}

/// `(variant, detail)` labels for trace emission.
fn describe_action(action: &DecisionAction) -> (&'static str, String) {
    match action {
        DecisionAction::Retune(s) => ("retune", format!("{:?} p={}", s.kind, s.partitions)),
        DecisionAction::RetuneGrouped(s) => {
            ("retune-grouped", format!("{:?} p={}", s.kind, s.partitions))
        }
        DecisionAction::KeepUserFixed => ("keep-user-fixed", String::new()),
        DecisionAction::InsertRepartition(s) => (
            "insert-repartition",
            format!("{:?} p={}", s.kind, s.partitions),
        ),
        DecisionAction::FollowsProducer(sig) => ("follows-producer", format!("sig={sig:016x}")),
        DecisionAction::KeepDefault => ("keep-default", String::new()),
    }
}

/// Decision for an ungrouped stage.
fn decide_single(
    rec: &WorkloadRecord,
    stage: &DagStage,
    target_input_bytes: u64,
    opts: &OptimizerOptions,
) -> DecisionAction {
    let input = input_response(rec, stage, target_input_bytes);
    let par = get_stage_par_with_input(rec, stage.signature, input, opts);
    match par {
        Some(par) if stage.configurable && !stage.user_fixed => {
            DecisionAction::Retune(PartitionerSpec {
                kind: par.kind,
                partitions: par.partitions,
            })
        }
        Some(par) if stage.user_fixed => decide_fixed(
            rec,
            stage,
            Some(PartitionerSpec {
                kind: par.kind,
                partitions: par.partitions,
            }),
            target_input_bytes,
            opts,
        ),
        _ => DecisionAction::KeepDefault,
    }
}

/// Decision for a user-fixed stage: keep it, unless inserting an explicit
/// repartition phase wins by more than γ (paper Algorithm 3, final check).
fn decide_fixed(
    rec: &WorkloadRecord,
    stage: &DagStage,
    optimal: Option<PartitionerSpec>,
    target_input_bytes: u64,
    opts: &OptimizerOptions,
) -> DecisionAction {
    let Some(spec) = optimal else {
        return DecisionAction::KeepUserFixed;
    };
    if spec.partitions == stage.observed_partitions && spec.kind == stage.observed_kind {
        return DecisionAction::KeepUserFixed;
    }
    // Current cost: predicted time under the observed (fixed) scheme.
    let Some(cur_model) = model_for(rec, stage.signature, stage.observed_kind, opts.basis) else {
        return DecisionAction::KeepUserFixed;
    };
    let d = stage_input(stage, target_input_bytes);
    let cur_time = cur_model.predict_time(d, stage.observed_partitions as f64);

    // Optimized cost: time under the optimal scheme + the inserted
    // repartition phase (moving the stage's output once more).
    let Some(opt_model) = model_for(rec, stage.signature, spec.kind, opts.basis) else {
        return DecisionAction::KeepUserFixed;
    };
    let opt_time = opt_model.predict_time(d, spec.partitions as f64);
    let scale = target_input_bytes as f64
        / rec
            .reference_run()
            .map(|r| r.input_bytes.max(1))
            .unwrap_or(1) as f64;
    let moved_bytes = stage.output_bytes as f64 * scale;
    let repart_time = moved_bytes / REPART_BANDWIDTH + spec.partitions as f64 * TASK_OVERHEAD;

    if cur_time > opts.gamma * (opt_time + repart_time) {
        DecisionAction::InsertRepartition(spec)
    } else {
        DecisionAction::KeepUserFixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Observation, RunSnapshot};
    use crate::db::WorkloadDb;

    /// The overhead the recovery factor, the repartition-insertion test and
    /// `ObservedSurface::calibrate` reason with is the one the simulated
    /// cluster charges.
    #[test]
    fn task_overhead_matches_the_simulated_cluster() {
        assert_eq!(
            TASK_OVERHEAD,
            simcluster::paper_cluster().task_launch_overhead
        );
    }

    /// Builds a record with synthetic observations for one stage under both
    /// partitioner kinds: hash has per-P overhead 0.02 s, range 0.01 s
    /// (range wins), both share a work term D/1e6/P-ish linear surface.
    /// Ground-truth surface shaped like the simulator's reality: work
    /// parallelizes over at most 112 cores (underutilization below that,
    /// flat above), with a per-task overhead linear in P.
    fn truth(d: f64, p: f64, overhead: f64) -> f64 {
        let work = d / 2e6;
        work / p.min(112.0) + overhead * p
    }

    fn synth_record(
        sigs: &[u64],
        dag: Vec<DagStage>,
        hash_overhead: f64,
        range_overhead: f64,
    ) -> WorkloadRecord {
        let mut db = WorkloadDb::new();
        let mut observations = Vec::new();
        for &sig in sigs {
            for &d in &[0.7e8f64, 1e8, 2e8, 3e8, 4e8, 6e8] {
                for &p in &[30.0f64, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0] {
                    observations.push((
                        sig,
                        PartitionerKind::Hash,
                        Observation {
                            d,
                            p,
                            t_exe: truth(d, p, hash_overhead),
                            s_shuffle: 100.0 * p,
                        },
                    ));
                    observations.push((
                        sig,
                        PartitionerKind::Range,
                        Observation {
                            d,
                            p,
                            t_exe: truth(d, p, range_overhead),
                            s_shuffle: 100.0 * p,
                        },
                    ));
                }
            }
        }
        let snapshot = RunSnapshot {
            input_bytes: 4e8 as u64,
            dag,
            duration: 100.0,
        };
        db.record_run("w", observations, snapshot);
        db.workload("w").unwrap().clone()
    }

    fn dag_stage(sig: u64, name: &str) -> DagStage {
        DagStage {
            signature: sig,
            name: name.into(),
            is_join: false,
            configurable: true,
            user_fixed: false,
            observed_kind: PartitionerKind::Hash,
            observed_partitions: 300,
            parents: vec![],
            depends_on: None,
            input_ratio: 1.0,
            output_bytes: 1e8 as u64,
            multiplicity: 1,
        }
    }

    #[test]
    fn stage_par_finds_interior_optimum() {
        let rec = synth_record(&[1], vec![dag_stage(1, "s")], 0.02, 0.01);
        let par = get_stage_par(&rec, 1, 4e8, &OptimizerOptions::default()).unwrap();
        // True optimum of work/P + c·P at D=4e8: sqrt(200/c); for range
        // (c=0.01) that's ~141. The fitted polynomial won't be exact, but
        // the choice must be an interior point, not an extreme.
        assert!(par.partitions > 10 && par.partitions < 2000);
        assert!(
            par.cost < 1.0,
            "optimum must beat the default parallelism cost"
        );
    }

    #[test]
    fn stage_par_prefers_cheaper_partitioner() {
        let rec = synth_record(&[1], vec![dag_stage(1, "s")], 0.05, 0.005);
        let par = get_stage_par(&rec, 1, 4e8, &OptimizerOptions::default()).unwrap();
        assert_eq!(
            par.kind,
            PartitionerKind::Range,
            "range has 10x lower overhead"
        );

        let rec2 = synth_record(&[1], vec![dag_stage(1, "s")], 0.005, 0.05);
        let par2 = get_stage_par(&rec2, 1, 4e8, &OptimizerOptions::default()).unwrap();
        assert_eq!(par2.kind, PartitionerKind::Hash);
    }

    #[test]
    fn zero_fault_prob_leaves_the_plan_bit_identical() {
        let rec = synth_record(&[1], vec![dag_stage(1, "s")], 0.02, 0.01);
        let base = get_stage_par(&rec, 1, 4e8, &OptimizerOptions::default()).unwrap();
        let opts = OptimizerOptions {
            fault_prob: 0.0,
            ..OptimizerOptions::default()
        };
        let same = get_stage_par(&rec, 1, 4e8, &opts).unwrap();
        assert_eq!(base, same, "fault_prob = 0 must not perturb any cost");
    }

    #[test]
    fn fault_prob_charges_recovery_and_penalizes_high_partition_counts() {
        let rec = synth_record(&[1], vec![dag_stage(1, "s")], 0.02, 0.01);
        let base = get_stage_par(&rec, 1, 4e8, &OptimizerOptions::default()).unwrap();
        let opts = OptimizerOptions {
            fault_prob: 0.5,
            ..OptimizerOptions::default()
        };
        let faulted = get_stage_par(&rec, 1, 4e8, &opts).unwrap();
        assert!(
            faulted.cost > base.cost,
            "expected retries must cost something: {} !> {}",
            faulted.cost,
            base.cost
        );
        assert!(
            faulted.partitions <= base.partitions,
            "relaunch overhead grows with P, so the optimum must not move up: {} !<= {}",
            faulted.partitions,
            base.partitions
        );
    }

    #[test]
    fn stage_par_none_without_observations() {
        let rec = synth_record(&[1], vec![dag_stage(1, "s")], 0.02, 0.01);
        assert!(get_stage_par(&rec, 999, 4e8, &OptimizerOptions::default()).is_none());
    }

    #[test]
    fn workload_par_covers_dag_in_order() {
        let dag = vec![dag_stage(1, "a"), dag_stage(2, "b")];
        let rec = synth_record(&[1, 2], dag, 0.02, 0.01);
        let out = get_workload_par(&rec, 4e8 as u64, &OptimizerOptions::default());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0.signature, 1);
        assert!(out.iter().all(|(_, p)| p.is_some()));
    }

    #[test]
    fn workload_par_scales_stage_input_by_ratio() {
        let mut a = dag_stage(1, "a");
        a.input_ratio = 1.0;
        let mut b = dag_stage(2, "b");
        b.input_ratio = 0.25; // smaller stage: less work to parallelize
        let rec = synth_record(&[1, 2], vec![a, b], 0.02, 0.02);
        let out = get_workload_par(&rec, 4e8 as u64, &OptimizerOptions::default());
        let pa = out[0].1.unwrap().partitions;
        let pb = out[1].1.unwrap().partitions;
        // The objective is shallow near its optimum, so the fitted argmin
        // can wobble by a grid step; assert no *substantial* inversion.
        assert!(
            pb as f64 <= pa as f64 * 1.5,
            "smaller stage input must not get substantially more partitions: {pb} vs {pa}"
        );
        assert!(
            pa < 300 && pb < 300,
            "both should undercut the oversized default"
        );
        // The decision is driven by the scaled stage input, not the raw
        // workload size: both stages share one model, so the only way pa
        // and pb can differ is through getStageInput's ratio scaling.
        let d_a = out[0].0.input_ratio * 4e8;
        let d_b = out[1].0.input_ratio * 4e8;
        assert!(d_b < d_a);
    }

    #[test]
    fn global_par_unifies_join_subgraph() {
        let mut a = dag_stage(1, "side-a");
        let mut b = dag_stage(2, "side-b");
        // Different per-stage optima (different input ratios).
        a.input_ratio = 1.0;
        b.input_ratio = 0.2;
        let mut j = dag_stage(3, "join");
        j.is_join = true;
        j.parents = vec![1, 2];
        let rec = synth_record(&[1, 2, 3], vec![a, b, j], 0.02, 0.01);
        let plan = get_global_par(&rec, 4e8 as u64, &OptimizerOptions::default());
        let sa = plan.scheme_for(1).unwrap();
        let sb = plan.scheme_for(2).unwrap();
        let sj = plan.scheme_for(3).unwrap();
        assert_eq!(sa, sb, "join sides must be co-partitioned");
        assert_eq!(sa, sj, "join uses the same scheme as its sides");
        assert!(plan
            .decisions
            .iter()
            .all(|d| matches!(d.action, DecisionAction::RetuneGrouped(_))));
    }

    #[test]
    fn global_par_leaves_user_fixed_intact() {
        let mut s = dag_stage(1, "fixed");
        s.user_fixed = true;
        // Observed scheme is near-optimal: repartition insertion must not
        // trigger.
        s.observed_partitions = 140;
        let rec = synth_record(&[1], vec![s], 0.02, 0.02);
        let plan = get_global_par(&rec, 4e8 as u64, &OptimizerOptions::default());
        assert_eq!(plan.scheme_for(1), None);
        assert!(matches!(
            plan.decisions[0].action,
            DecisionAction::KeepUserFixed | DecisionAction::InsertRepartition(_)
        ));
        // With an observed scheme this close to optimal, γ=1.5 must reject
        // the insertion.
        assert_eq!(plan.decisions[0].action, DecisionAction::KeepUserFixed);
    }

    #[test]
    fn global_par_inserts_repartition_when_benefit_is_large() {
        let mut s = dag_stage(1, "badly-fixed");
        s.user_fixed = true;
        // Pathologically bad fixed scheme: P=10000 where optimum ~140.
        s.observed_partitions = 10_000;
        s.output_bytes = 1e6 as u64; // cheap to move
        let rec = synth_record(&[1], vec![s], 0.02, 0.02);
        let plan = get_global_par(&rec, 4e8 as u64, &OptimizerOptions::default());
        match &plan.decisions[0].action {
            DecisionAction::InsertRepartition(spec) => {
                assert!(spec.partitions < 2000);
                assert_eq!(plan.conf.repartition_after(1), Some(*spec));
            }
            other => panic!("expected repartition insertion, got {other:?}"),
        }
    }

    #[test]
    fn global_par_without_reference_run_is_empty() {
        let rec = WorkloadRecord::default();
        let plan = get_global_par(&rec, 1000, &OptimizerOptions::default());
        assert!(plan.decisions.is_empty());
        assert!(plan.conf.is_empty());
    }

    #[test]
    fn stage_without_model_keeps_default() {
        // DAG mentions signature 9, but observations only exist for 1.
        let mut dag = vec![dag_stage(1, "a"), dag_stage(9, "mystery")];
        dag[1].input_ratio = 0.5;
        let rec = synth_record(&[1], dag, 0.02, 0.01);
        let plan = get_global_par(&rec, 4e8 as u64, &OptimizerOptions::default());
        assert!(plan.scheme_for(1).is_some());
        assert_eq!(plan.scheme_for(9), None);
        assert_eq!(plan.decisions[1].action, DecisionAction::KeepDefault);
    }
}
