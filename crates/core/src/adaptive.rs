//! Runtime re-optimization: the feedback path from the engine's per-stage
//! actuals back into CHOPPER's cost objective.
//!
//! After each job the engine hands [`replan`] the job's stage metrics
//! ([`engine::StageMetrics`], the record `Context::jobs` keeps): bytes
//! moved, per-bucket write skew, virtual durations. When a shuffle's written
//! buckets are hot (max/mean byte skew at or above
//! [`crate::model::CostConstants::skew_retune_trigger`] — the *same* statistic and
//! threshold the engine's in-job splitter uses), the re-planner re-runs
//! the static optimizer's grid search (`get_min_par`) over an
//! observation-backed [`CostSurface`], considering
//!
//! * re-choosing the partition count under the observed skew, and
//! * for hash stages, flipping to range partitioning — whose sampled
//!   bounds balance bytes, and whose residual hot buckets the engine
//!   splits in-job.
//!
//! A new scheme is adopted only when its modeled cost beats the observed
//! plan by [`crate::model::CostConstants::retune_margin`] — the runtime analogue of the
//! paper's γ tolerance. Because the surface is calibrated so the *current*
//! plan's cost is exactly `α + β = 1`, the adoption test is simply
//! `cost < retune_margin`.
//!
//! Determinism: every input is either a data-plane byte count (identical
//! under any fault plan and worker count) or a virtual-clock duration
//! (identical across worker counts), and the search itself is a pure
//! `f64` grid minimization — so adaptive plans are bit-identical across
//! `--workers 1` vs `8`.

use crate::model::CostSurface;
use crate::optimizer::{get_min_par, InputResponse, OptimizerOptions, CONSTS, TASK_OVERHEAD};
use engine::{
    PartitionerKind, PartitionerSpec, ReplanHook, ReplanInput, StageKind, StageMetrics,
    WorkloadConf,
};
use std::sync::Arc;

/// Trust region for the one-point calibration: candidates outside
/// `[p_obs / TRUST_FACTOR, p_obs × TRUST_FACTOR]` are excluded from the
/// grid search. The wave model ignores per-task fetch-chunk and dispatch
/// overheads that grow with `P`, so far extrapolation from a single
/// observation systematically flatters large partition counts.
const TRUST_FACTOR: f64 = 4.0;

/// Knobs for the runtime re-planner.
#[derive(Debug, Clone)]
pub struct ReplanOptions {
    /// The underlying optimizer configuration — weights, candidate grid
    /// and spill budget. The grid defaults to a wider, finer ladder than
    /// the static planner's because observed stages can legitimately run
    /// at single-digit parallelism.
    pub optimizer: OptimizerOptions,
    /// Concurrent task slots in the cluster (workers × cores) — the wave
    /// width the observed-time surface models stage makespan over.
    pub slots: usize,
}

impl Default for ReplanOptions {
    fn default() -> Self {
        let mut candidates: Vec<usize> = (1..=32).collect();
        candidates.extend((4..=40).map(|i| i * 10));
        candidates.extend((9..=40).map(|i| i * 50));
        ReplanOptions {
            optimizer: OptimizerOptions {
                candidates,
                ..OptimizerOptions::default()
            },
            slots: 8,
        }
    }
}

/// A [`CostSurface`] calibrated from one stage's observed actuals instead
/// of a trained Eq. 1–2 polynomial, so [`get_min_par`] can run the exact
/// same objective with measured inputs.
///
/// Stage makespan is modeled as waves of parallel tasks plus a serialized
/// hot-task excess:
///
/// ```text
/// time(d, p) = waves(p)·(overhead + rate·d/p) + rate·(skew − 1)·d/p
/// waves(p)   = max(p / slots, 1)
/// ```
///
/// `rate` (serial seconds per input byte) is solved from the observation
/// by inverting the same formula at `(d_obs, p_obs, skew_obs)`, which
/// makes the surface reproduce the observed time exactly at the observed
/// point. Shuffle volume is modeled as proportional to input bytes and
/// independent of `p` (map-side combine second-order effects are below
/// this surface's resolution).
#[derive(Debug, Clone, Copy)]
struct ObservedSurface {
    d_obs: f64,
    p_obs: f64,
    s_obs: f64,
    /// Max/mean input-bucket byte skew this surface assumes at any `p`.
    skew: f64,
    rate: f64,
    slots: f64,
}

impl ObservedSurface {
    /// Calibrates a surface from observed `(d, t, s)` at `p_obs` under
    /// input skew `skew_obs`, assuming future runs see `skew_assumed`.
    fn calibrate(
        d_obs: f64,
        p_obs: f64,
        t_obs: f64,
        s_obs: f64,
        skew_obs: f64,
        skew_assumed: f64,
        opts: &ReplanOptions,
    ) -> ObservedSurface {
        let slots = (opts.slots.max(1)) as f64;
        let waves_obs = (p_obs / slots).max(1.0);
        let serial = (t_obs - waves_obs * TASK_OVERHEAD).max(CONSTS.pred_time_floor);
        let rate = serial * p_obs / (d_obs * (waves_obs + skew_obs - 1.0));
        ObservedSurface {
            d_obs,
            p_obs,
            s_obs,
            skew: skew_assumed,
            rate,
            slots,
        }
    }
}

impl CostSurface for ObservedSurface {
    fn predict_time(&self, d: f64, p: f64) -> f64 {
        let p = p.max(1.0);
        let waves = (p / self.slots).max(1.0);
        waves * (TASK_OVERHEAD + self.rate * d / p) + self.rate * (self.skew - 1.0) * d / p
    }

    fn predict_shuffle(&self, d: f64, p: f64) -> f64 {
        let _ = p;
        self.s_obs * d / self.d_obs.max(1.0)
    }

    fn trained_p_range(&self) -> (f64, f64) {
        // A one-point calibration: mechanistic in shape, but only
        // trustworthy near the observation it was inverted from.
        (self.p_obs / TRUST_FACTOR, self.p_obs * TRUST_FACTOR)
    }
}

/// One adopted re-planning decision (for logging/auditing by callers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanDecision {
    /// The stage signature the new scheme attaches to.
    pub signature: u64,
    /// The scheme the stage ran under.
    pub from: PartitionerSpec,
    /// The scheme the next job will run under.
    pub to: PartitionerSpec,
    /// Modeled Eq. 3 cost of the new scheme (the observed plan is 1.0 by
    /// construction).
    pub cost: f64,
}

/// Re-optimizes the workload configuration from one job's observed
/// actuals; returns `None` when no stage's plan is worth changing.
///
/// This is the policy behind the engine's `EngineOptions::replan` hook —
/// wrap it with [`hook`] to install it.
pub fn replan(input: &ReplanInput, opts: &ReplanOptions) -> Option<WorkloadConf> {
    let decisions = replan_decisions(&input.job.stages, opts);
    if decisions.is_empty() {
        return None;
    }
    let mut conf = input.conf.clone();
    for d in &decisions {
        conf.set_stage(d.signature, d.to);
    }
    Some(conf)
}

/// The decision list behind [`replan`], exposed for tests and reporting.
pub fn replan_decisions(stages: &[StageMetrics], opts: &ReplanOptions) -> Vec<ReplanDecision> {
    let mut decisions = Vec::new();
    // Pair each shuffle-reading stage with the byte skew of the buckets
    // written for it: walk plan order, carrying the max write skew seen
    // since the last reader (a join reads two writers; take the worse).
    // Source and cached stages read no shuffle, so they only write.
    let mut pending_skew = 1.0_f64;
    for stage in stages {
        if !matches!(stage.kind, StageKind::Shuffle | StageKind::Join) {
            pending_skew = pending_skew.max(stage.write_bucket_skew);
            continue;
        }
        let skew_obs = pending_skew.max(1.0);
        pending_skew = stage.write_bucket_skew.max(1.0);
        let Some(spec) = stage.scheme else {
            continue;
        };
        if !stage.configurable
            || spec.partitions == 0
            || stage.input_bytes == 0
            || skew_obs < CONSTS.skew_retune_trigger
        {
            continue;
        }
        let d_obs = stage.input_bytes as f64;
        let p_obs = spec.partitions as f64;
        let t_obs = stage.duration().max(CONSTS.pred_time_floor);
        let s_obs = stage.shuffle_write_bytes as f64;
        let input = InputResponse::Fixed(d_obs);
        // Observed baseline: the current plan's cost is exactly α + β.
        let baseline = (t_obs, s_obs, 1.0);

        // Candidate 1: keep the kind, re-choose P under the observed skew.
        let keep = ObservedSurface::calibrate(d_obs, p_obs, t_obs, s_obs, skew_obs, skew_obs, opts);
        let (p_keep, c_keep) = get_min_par(&keep, input, baseline, &opts.optimizer);
        let mut best = (spec.kind, p_keep, c_keep);

        // Candidate 2: flip hash → range. Sampled bounds balance bytes and
        // the engine splits residual hot buckets in-job, so the flipped
        // surface assumes the skew is gone.
        if spec.kind == PartitionerKind::Hash {
            let flip = ObservedSurface::calibrate(d_obs, p_obs, t_obs, s_obs, skew_obs, 1.0, opts);
            let (p_flip, c_flip) = get_min_par(&flip, input, baseline, &opts.optimizer);
            if c_flip < best.2 {
                best = (PartitionerKind::Range, p_flip, c_flip);
            }
        }

        let to = PartitionerSpec {
            kind: best.0,
            partitions: best.1,
        };
        if best.2 < CONSTS.retune_margin && to != spec {
            decisions.push(ReplanDecision {
                signature: stage.root_signature,
                from: spec,
                to,
                cost: best.2,
            });
        }
    }
    decisions
}

/// Wraps [`replan`] as an [`engine::ReplanHook`] ready to install into
/// `EngineOptions::replan`.
pub fn hook(opts: ReplanOptions) -> ReplanHook {
    Arc::new(move |input: &ReplanInput| replan(input, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::JobMetrics;

    /// A stage as the engine records it: every stage carries a scheme
    /// (a source's is `hash` over its splits), and only a stage that
    /// wrote a shuffle has a write skew above 1.
    fn stage(kind: StageKind, signature: u64, spec: PartitionerSpec, skew: f64) -> StageMetrics {
        let reads = matches!(kind, StageKind::Shuffle | StageKind::Join);
        StageMetrics {
            stage_id: 0,
            job_id: 0,
            name: "s".into(),
            root_signature: signature,
            terminal_signature: signature,
            kind,
            scheme: Some(spec),
            configurable: kind != StageKind::Cached,
            user_fixed: false,
            num_tasks: spec.partitions,
            input_records: 10_000,
            input_bytes: if reads { 800_000 } else { 1_000_000 },
            output_records: 10_000,
            output_bytes: if reads { 100_000 } else { 800_000 },
            shuffle_read_bytes: if reads { 800_000 } else { 0 },
            shuffle_write_bytes: if skew > 1.0 { 800_000 } else { 0 },
            remote_read_bytes: 0,
            write_bucket_skew: skew,
            start: 0.0,
            end: if reads { 2.0 } else { 0.5 },
            task_durations: Vec::new(),
            placements: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// A source stage of 4 splits whose shuffle write has `skew`.
    fn writer(skew: f64) -> StageMetrics {
        stage(StageKind::Source, 11, PartitionerSpec::hash(4), skew)
    }

    /// The stage reading the writer's shuffle (signature 42).
    fn reader(spec: PartitionerSpec, configurable: bool) -> StageMetrics {
        StageMetrics {
            configurable,
            ..stage(StageKind::Shuffle, 42, spec, 1.0)
        }
    }

    fn input(stages: Vec<StageMetrics>) -> ReplanInput {
        ReplanInput {
            conf: WorkloadConf::new(),
            job: JobMetrics {
                job_id: 0,
                name: "j".into(),
                stages,
                start: 0.0,
                end: 1.0,
            },
        }
    }

    #[test]
    fn balanced_buckets_leave_the_plan_alone() {
        let opts = ReplanOptions::default();
        let actuals = vec![writer(1.1), reader(PartitionerSpec::hash(8), true)];
        assert!(replan_decisions(&actuals, &opts).is_empty());
    }

    #[test]
    fn hot_hash_stage_flips_to_range() {
        let opts = ReplanOptions::default();
        let actuals = vec![writer(4.0), reader(PartitionerSpec::hash(8), true)];
        let decisions = replan_decisions(&actuals, &opts);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].signature, 42);
        assert_eq!(decisions[0].to.kind, PartitionerKind::Range);
        assert!(decisions[0].cost < CONSTS.retune_margin);
    }

    #[test]
    fn non_configurable_stage_is_left_intact() {
        let opts = ReplanOptions::default();
        let actuals = vec![writer(4.0), reader(PartitionerSpec::hash(8), false)];
        assert!(replan_decisions(&actuals, &opts).is_empty());
    }

    #[test]
    fn decisions_are_deterministic() {
        let opts = ReplanOptions::default();
        let actuals = vec![writer(3.5), reader(PartitionerSpec::hash(16), true)];
        let a = replan_decisions(&actuals, &opts);
        let b = replan_decisions(&actuals, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn replan_installs_decisions_into_the_conf() {
        let opts = ReplanOptions::default();
        let hot = input(vec![writer(4.0), reader(PartitionerSpec::hash(8), true)]);
        let conf = replan(&hot, &opts).expect("hot stage should retune");
        let scheme = conf.stage_scheme(42).expect("decision keyed on signature");
        assert_eq!(scheme.kind, PartitionerKind::Range);
        let cool = input(vec![writer(1.0), reader(PartitionerSpec::hash(8), true)]);
        assert!(replan(&cool, &opts).is_none());
    }

    /// Each reader is paired with what was written for it: a join with
    /// the worse of its two sides, however the sides are ordered, and a
    /// source or cached stage — which reads no shuffle, whatever its
    /// scheme — is never retuned for the skew of the stage before it.
    #[test]
    fn a_join_answers_for_the_skew_of_both_its_sides() {
        let opts = ReplanOptions::default();
        let join = stage(StageKind::Join, 42, PartitionerSpec::hash(8), 1.0);
        let right = |kind| stage(kind, 7, PartitionerSpec::hash(62), 1.01);
        for (first, second) in [
            (writer(7.31), right(StageKind::Source)),
            (right(StageKind::Cached), writer(7.31)),
        ] {
            let decisions = replan_decisions(&[first, second, join.clone()], &opts);
            let signatures: Vec<u64> = decisions.iter().map(|d| d.signature).collect();
            assert_eq!(signatures, [42], "{decisions:?}");
        }
    }

    #[test]
    fn observed_surface_reproduces_the_observation() {
        let opts = ReplanOptions::default();
        let s = ObservedSurface::calibrate(1e6, 8.0, 2.0, 5e5, 3.0, 3.0, &opts);
        let t = s.predict_time(1e6, 8.0);
        assert!(
            (t - 2.0).abs() < 1e-9,
            "calibration must invert exactly: {t}"
        );
        assert_eq!(s.predict_shuffle(1e6, 8.0), 5e5);
        assert_eq!(s.predict_shuffle(2e6, 400.0), 1e6);
    }

    #[test]
    fn retuned_parallelism_stays_inside_the_trust_region() {
        let opts = ReplanOptions::default();
        let s = ObservedSurface::calibrate(1e6, 190.0, 2.0, 5e5, 3.0, 3.0, &opts);
        assert_eq!(s.trained_p_range(), (190.0 / 4.0, 190.0 * 4.0));
        // Every adopted decision lands inside the region, however hot the
        // observed stage: the surface's wave model has no per-task
        // dispatch/fetch overheads, so 6x-beyond-observation candidates
        // it flatters must never be reachable.
        for skew in [2.0, 4.0, 16.0] {
            let actuals = vec![writer(skew), reader(PartitionerSpec::range(190), true)];
            for d in replan_decisions(&actuals, &opts) {
                let p = d.to.partitions as f64;
                assert!(
                    (190.0 / TRUST_FACTOR..=190.0 * TRUST_FACTOR).contains(&p),
                    "retune to {p} left the trust region"
                );
            }
        }
    }

    #[test]
    fn hook_wraps_replan() {
        let h = hook(ReplanOptions::default());
        assert!(h(&input(vec![
            writer(4.0),
            reader(PartitionerSpec::hash(8), true)
        ]))
        .is_some());
    }
}
