//! The per-stage cost models (paper Eq. 1–4).
//!
//! Execution time and shuffle volume are each modeled as a linear
//! combination of `{D³, D², D, √D, P³, P², P, √P}` (plus an intercept),
//! fitted by least squares over the observations gathered from test runs —
//! "a simple linear programming problem" in the paper's wording. Features
//! are computed in a scaled space (`numeric::FeatureScaler`) to keep the
//! normal equations conditioned when `D` is in the gigabytes.
//!
//! The objective (Eq. 3–4) normalizes both predictions by their value at
//! the default parallelism, so the two terms are dimensionless and can be
//! weighted with `α`/`β` (0.5 each by default — "equally important").

use crate::collector::Observation;
use numeric::{least_squares, FeatureScaler, Matrix};
use serde::{Deserialize, Serialize};

/// Which feature basis Eq. 1–2 are fitted over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ModelBasis {
    /// The paper's exact additive basis `{D³, D², D, √D, P³, P², P, √P}`.
    Paper,
    /// The paper basis plus `D/P`, `D·P`, and `D/√P` interaction terms.
    ///
    /// The default: the additive basis cannot express work-per-task
    /// (`D/P`), so group decisions over partition-dependent stages — which
    /// must compare the (large `D`, small `P`) corner against the trained
    /// grid — go badly wrong without it. `results/ablation_basis.txt`
    /// quantifies the difference.
    #[default]
    Extended,
}

/// Minimum observations required to fit a model (9 coefficients need at
/// least as many points to be meaningful; ridge regularization handles the
/// remaining conditioning).
pub const MIN_OBSERVATIONS: usize = 6;

/// Every numeric guard and cutoff the cost objective depends on, in one
/// named, unit-tested place (the grep-proof successor to the scattered
/// `1e-9`/`0.8`/`2.0` literals these used to be).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Below this, the Eq. 3 time baseline `t₀` is treated as vanishing
    /// and its term neutralized to 1.
    pub time_baseline_eps: f64,
    /// Below this, the Eq. 3 shuffle baseline `s₀` (bytes) is treated as
    /// vanishing and its ratio neutralized to 1.
    pub shuffle_baseline_eps: f64,
    /// Floor on predicted times used as denominators (shuffle
    /// significance, retry-overhead ratio) so a degenerate fit cannot
    /// produce an unbounded factor.
    pub pred_time_floor: f64,
    /// Floor on a subgraph member's `t₀` weight in `getCost`, so stages
    /// with a vanishing baseline still count a little instead of zero.
    pub group_weight_floor: f64,
    /// A task's execution working set relative to its input share: it
    /// holds the input partition plus the output it produces, which we
    /// bound by the input (the engine's `TaskMetrics::memory_bytes` is
    /// input+output, and the optimizer must model the same quantity its
    /// reservations use).
    pub working_set_factor: f64,
    /// Minimum |correlation| between observed `D` and `P` before the
    /// optimizer models a stage's input as partition-dependent
    /// (`D ≈ a + b·P`) instead of fixed.
    pub input_corr_cutoff: f64,
    /// Minimum pooled observations before the input-response correlation
    /// test is even attempted.
    pub input_min_points: usize,
    /// Variance floor below which the correlation test is meaningless
    /// (all observations at one `D` or one `P`).
    pub variance_eps: f64,
}

impl CostConstants {
    /// The tree-wide defaults (also what [`Default`] returns); `const` so
    /// call sites that predate the hoist can stay allocation-free.
    pub const DEFAULT: CostConstants = CostConstants {
        time_baseline_eps: 1e-12,
        shuffle_baseline_eps: 1e-9,
        pred_time_floor: 1e-9,
        group_weight_floor: 1e-6,
        working_set_factor: 2.0,
        input_corr_cutoff: 0.8,
        input_min_points: 4,
        variance_eps: 1e-12,
    };
}

impl Default for CostConstants {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A fitted per-stage model: Eq. 1 (time) and Eq. 2 (shuffle volume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageModel {
    coeffs_t: Vec<f64>,
    coeffs_s: Vec<f64>,
    d_scale: f64,
    p_scale: f64,
    p_min: f64,
    p_max: f64,
    #[serde(default)]
    basis: ModelBasis,
}

impl StageModel {
    /// Fits a model with the default ([`ModelBasis::Extended`]) basis, or
    /// `None` when there are too few observations.
    pub fn fit(observations: &[Observation]) -> Option<StageModel> {
        Self::fit_with_basis(observations, ModelBasis::default())
    }

    /// Fits a model over an explicit feature basis.
    pub fn fit_with_basis(observations: &[Observation], basis: ModelBasis) -> Option<StageModel> {
        if observations.len() < MIN_OBSERVATIONS {
            return None;
        }
        let points: Vec<(f64, f64)> = observations.iter().map(|o| (o.d, o.p)).collect();
        let scaler = FeatureScaler::from_observations(&points);
        let expand = |o: &Observation| match basis {
            ModelBasis::Paper => scaler.features(o.d, o.p),
            ModelBasis::Extended => scaler.extended_features(o.d, o.p),
        };
        let rows: Vec<Vec<f64>> = observations.iter().map(expand).collect();
        let x = Matrix::from_rows(&rows);
        let t: Vec<f64> = observations.iter().map(|o| o.t_exe).collect();
        let s: Vec<f64> = observations.iter().map(|o| o.s_shuffle).collect();
        let coeffs_t = least_squares(&x, &t).ok()?;
        let coeffs_s = least_squares(&x, &s).ok()?;
        let p_min = points.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        let p_max = points.iter().map(|&(_, p)| p).fold(0.0, f64::max);
        Some(StageModel {
            coeffs_t,
            coeffs_s,
            d_scale: scaler.d_scale(),
            p_scale: scaler.p_scale(),
            p_min,
            p_max,
            basis,
        })
    }

    /// The basis this model was fitted over.
    pub fn basis(&self) -> ModelBasis {
        self.basis
    }

    /// The partition-count range the model was trained on. Predictions
    /// outside this range are polynomial extrapolation and should not be
    /// trusted by the optimizer.
    pub fn trained_p_range(&self) -> (f64, f64) {
        (self.p_min, self.p_max)
    }

    fn features(&self, d: f64, p: f64) -> Vec<f64> {
        let scaler = FeatureScaler::new(self.d_scale, self.p_scale);
        match self.basis {
            ModelBasis::Paper => scaler.features(d, p),
            ModelBasis::Extended => scaler.extended_features(d, p),
        }
    }

    /// Predicted stage execution time in seconds (clamped non-negative).
    pub fn predict_time(&self, d: f64, p: f64) -> f64 {
        dot(&self.features(d, p), &self.coeffs_t).max(0.0)
    }

    /// Predicted shuffle volume in bytes (clamped non-negative).
    pub fn predict_shuffle(&self, d: f64, p: f64) -> f64 {
        dot(&self.features(d, p), &self.coeffs_s).max(0.0)
    }

    /// Mean relative error of the time model over a validation set.
    pub fn time_error(&self, observations: &[Observation]) -> f64 {
        if observations.is_empty() {
            return 0.0;
        }
        observations
            .iter()
            .map(|o| {
                let pred = self.predict_time(o.d, o.p);
                (pred - o.t_exe).abs() / o.t_exe.max(1e-9)
            })
            .sum::<f64>()
            / observations.len() as f64
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// K-fold cross-validated mean relative error of the *time* model over the
/// observations. A diagnostic for how trustworthy a stage's model is —
/// useful before acting on its recommendation (the paper's γ tolerance is
/// the blunt version of the same idea). Returns `None` when any training
/// fold is too small to fit.
pub fn cross_validation_error(observations: &[Observation], folds: usize) -> Option<f64> {
    assert!(folds >= 2, "need at least two folds");
    if observations.len() < folds.max(MIN_OBSERVATIONS + 1) {
        return None;
    }
    let n = observations.len();
    let mut total = 0.0;
    let mut count = 0usize;
    for fold in 0..folds {
        // Deterministic striped split: every `folds`-th point is held out.
        let (train, test): (Vec<Observation>, Vec<Observation>) =
            observations.iter().enumerate().partition_map(|(i, &o)| {
                if i % folds == fold {
                    Either::Right(o)
                } else {
                    Either::Left(o)
                }
            });
        if test.is_empty() {
            continue;
        }
        let model = StageModel::fit(&train)?;
        total += model.time_error(&test) * test.len() as f64;
        count += test.len();
    }
    let _ = n;
    (count > 0).then(|| total / count as f64)
}

// Tiny stand-ins for itertools' partition_map, to stay dependency-free.
enum Either<L, R> {
    Left(L),
    Right(R),
}

trait PartitionMap: Iterator + Sized {
    fn partition_map<L, R, F>(self, f: F) -> (Vec<L>, Vec<R>)
    where
        F: FnMut(Self::Item) -> Either<L, R>;
}

impl<I: Iterator> PartitionMap for I {
    fn partition_map<L, R, F>(self, mut f: F) -> (Vec<L>, Vec<R>)
    where
        F: FnMut(Self::Item) -> Either<L, R>,
    {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for item in self {
            match f(item) {
                Either::Left(l) => left.push(l),
                Either::Right(r) => right.push(r),
            }
        }
        (left, right)
    }
}

/// Weights of the Eq. 3 objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Weight of the normalized execution-time term.
    pub alpha: f64,
    /// Weight of the normalized shuffle-volume term.
    pub beta: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Paper: "we set the constants to a default value of 0.5, making
        // them equally important".
        CostWeights {
            alpha: 0.5,
            beta: 0.5,
        }
    }
}

/// Eq. 3 with an explicit baseline: `cost = α·t(D,P)/t₀ + β·s(D,P)/s₀`.
///
/// The baseline `(t₀, s₀)` is the stage's behaviour "using default
/// parallelism" — predicted from the *default partitioner's* model so that
/// hash and range candidates are compared on a common scale. A vanishing
/// baseline neutralizes its term.
///
/// `significance ∈ [0, 1]` scales how much the shuffle term participates:
/// the raw Eq. 3 ratio is dimensionless, so for a stage whose shuffle is
/// kilobytes inside a minutes-long stage it can veto decisions worth whole
/// seconds over bytes worth milliseconds. Callers estimate significance as
/// the shuffle's plausible share of the stage time (1.0 reproduces the
/// paper's formula exactly; the unweighted behaviour is kept as an
/// ablation).
pub fn cost_with_baseline(
    model: &StageModel,
    weights: CostWeights,
    d: f64,
    p: f64,
    t0: f64,
    s0: f64,
    significance: f64,
) -> f64 {
    let consts = CostConstants::DEFAULT;
    debug_assert!((0.0..=1.0).contains(&significance));
    let t_term = if t0 > consts.time_baseline_eps {
        model.predict_time(d, p) / t0
    } else {
        1.0
    };
    let s_ratio = if s0 > consts.shuffle_baseline_eps {
        model.predict_shuffle(d, p) / s0
    } else {
        1.0
    };
    // Blend toward neutral (1.0) as the shuffle loses significance, so the
    // cost at the default parallelism stays exactly α + β.
    let s_term = significance * s_ratio + (1.0 - significance);
    weights.alpha * t_term + weights.beta * s_term
}

/// Eq. 3 self-baselined: `cost = α·t(D,P)/t(D,P₀) + β·s(D,P)/s(D,P₀)`
/// where `P₀` is the default parallelism. Used when only one model exists.
pub fn cost(
    model: &StageModel,
    weights: CostWeights,
    d: f64,
    p: f64,
    default_parallelism: usize,
) -> f64 {
    let p0 = default_parallelism as f64;
    let t0 = model.predict_time(d, p0);
    let s0 = model.predict_shuffle(d, p0);
    cost_with_baseline(model, weights, d, p, t0, s0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_constants_defaults_are_sane() {
        let c = CostConstants::default();
        assert_eq!(c, CostConstants::DEFAULT);
        // Guards are positive and ordered: the variance/time epsilons are
        // strictly tighter than the byte-scale and weight floors.
        assert!(c.time_baseline_eps > 0.0 && c.time_baseline_eps < c.shuffle_baseline_eps);
        assert!(c.variance_eps > 0.0 && c.pred_time_floor > 0.0);
        assert!(c.pred_time_floor < c.group_weight_floor);
        // Cutoffs and factors live where the docs say they do.
        assert!((0.0..=1.0).contains(&c.input_corr_cutoff));
        assert!(c.input_min_points >= 2);
        assert!(c.working_set_factor >= 1.0);
    }

    /// A vanishing baseline neutralizes its term via the named epsilons
    /// (the old inline `1e-12`/`1e-9` behaviour, now addressable).
    #[test]
    fn cost_constants_gate_degenerate_baselines() {
        // Constant predictions: only the intercept (the paper basis' last
        // feature, 1.0) carries a coefficient.
        let intercept = |c: f64| {
            let mut coeffs = vec![0.0; numeric::NUM_FEATURES];
            coeffs[numeric::NUM_FEATURES - 1] = c;
            coeffs
        };
        let flat = StageModel {
            coeffs_t: intercept(5.0),
            coeffs_s: intercept(100.0),
            d_scale: 1.0,
            p_scale: 1.0,
            p_min: 1.0,
            p_max: 1e9,
            basis: ModelBasis::Paper,
        };
        assert_eq!(flat.predict_time(3.0, 40.0), 5.0);
        assert_eq!(flat.predict_shuffle(3.0, 40.0), 100.0);
        let w = CostWeights::default();
        // Both baselines below their epsilons: cost is exactly α + β.
        let c = cost_with_baseline(&flat, w, 1.0, 10.0, 0.0, 0.0, 1.0);
        assert!((c - (w.alpha + w.beta)).abs() < 1e-12);
        // Live baselines: the ratios participate.
        let c = cost_with_baseline(&flat, w, 1.0, 10.0, 10.0, 200.0, 1.0);
        assert!((c - (w.alpha * 0.5 + w.beta * 0.5)).abs() < 1e-12);
    }

    /// Synthesizes observations from a known ground-truth surface. Uses six
    /// distinct values per axis so the 9-feature basis is well-conditioned
    /// (with fewer distinct inputs the intercept becomes collinear with the
    /// polynomial columns and the fit falls back to ridge).
    fn synth(f_t: impl Fn(f64, f64) -> f64, f_s: impl Fn(f64, f64) -> f64) -> Vec<Observation> {
        let mut obs = Vec::new();
        for &d in &[0.7e8, 1e8, 2e8, 3.3e8, 4e8, 8e8] {
            for &p in &[50.0, 100.0, 200.0, 400.0, 650.0, 800.0] {
                obs.push(Observation {
                    d,
                    p,
                    t_exe: f_t(d, p),
                    s_shuffle: f_s(d, p),
                });
            }
        }
        obs
    }

    #[test]
    fn refuses_to_fit_with_too_few_points() {
        let obs = vec![
            Observation {
                d: 1.0,
                p: 1.0,
                t_exe: 1.0,
                s_shuffle: 1.0
            };
            3
        ];
        assert!(StageModel::fit(&obs).is_none());
    }

    #[test]
    fn fits_linear_surface_exactly() {
        // t = 2 + D/1e8 + P/100 lies inside the basis.
        let obs = synth(|d, p| 2.0 + d / 1e8 + p / 100.0, |_d, p| p * 10.0);
        let m = StageModel::fit(&obs).unwrap();
        for o in &obs {
            assert!(
                (m.predict_time(o.d, o.p) - o.t_exe).abs() < 1e-4 * o.t_exe,
                "time misfit at ({}, {}): {} vs {}",
                o.d,
                o.p,
                m.predict_time(o.d, o.p),
                o.t_exe
            );
            assert!((m.predict_shuffle(o.d, o.p) - o.s_shuffle).abs() < 1e-3 * o.s_shuffle);
        }
        assert!(m.time_error(&obs) < 1e-4);
    }

    #[test]
    fn captures_u_shaped_time_curves() {
        // The shape that matters for CHOPPER: work/P + overhead*P has an
        // interior minimum in P.
        let truth = |d: f64, p: f64| d / 1e6 / p + 0.01 * p;
        let obs = synth(truth, |_d, _p| 0.0);
        let m = StageModel::fit(&obs).unwrap();
        // The model should rank a mid-range P below the extremes at a D
        // inside the training range. (1/P is outside the basis, so we check
        // ordering rather than exact values.)
        let d = 4e8;
        let t100 = m.predict_time(d, 100.0);
        let t50 = m.predict_time(d, 50.0);
        let t800 = m.predict_time(d, 800.0);
        assert!(
            t100 < t800,
            "overhead should penalize large P: {t100} vs {t800}"
        );
        assert!(
            t100 < t50 * 1.5,
            "mid P should not look far worse than small P"
        );
    }

    #[test]
    fn predictions_are_clamped_nonnegative() {
        let obs = synth(|_d, p| (500.0 - p).max(0.0) / 100.0, |_d, _p| 0.0);
        let m = StageModel::fit(&obs).unwrap();
        assert!(m.predict_time(1e8, 10_000.0) >= 0.0);
        assert!(m.predict_shuffle(1e8, 10_000.0) >= 0.0);
    }

    #[test]
    fn cost_prefers_cheaper_partition_counts() {
        let truth_t = |d: f64, p: f64| d / 1e6 / p + 0.05 * p;
        let truth_s = |_d: f64, p: f64| 1e4 * p;
        let obs = synth(truth_t, truth_s);
        let m = StageModel::fit(&obs).unwrap();
        let w = CostWeights::default();
        let d = 4e8;
        // Both terms grow with P beyond the compute sweet spot, so cost at
        // P=800 must exceed cost at P=100.
        assert!(cost(&m, w, d, 800.0, 300) > cost(&m, w, d, 100.0, 300));
    }

    #[test]
    fn cost_at_default_parallelism_is_alpha_plus_beta() {
        let obs = synth(|d, p| d / 1e8 + p / 100.0, |_d, p| p * 7.0);
        let m = StageModel::fit(&obs).unwrap();
        let w = CostWeights {
            alpha: 0.3,
            beta: 0.7,
        };
        let c = cost(&m, w, 4e8, 300.0, 300);
        assert!(
            (c - 1.0).abs() < 1e-6,
            "normalized cost at P₀ is α+β = 1, got {c}"
        );
    }

    #[test]
    fn zero_shuffle_stage_neutralizes_beta_term() {
        let obs = synth(|d, p| d / 1e8 + p / 100.0, |_d, _p| 0.0);
        let m = StageModel::fit(&obs).unwrap();
        let w = CostWeights::default();
        // s-term is 1.0 regardless of P; only the time term varies.
        let c_lo = cost(&m, w, 4e8, 50.0, 300);
        let c_hi = cost(&m, w, 4e8, 800.0, 300);
        assert!(c_lo < c_hi);
        assert!(c_lo > 0.5, "beta term contributes its full neutral 0.5");
    }

    #[test]
    fn model_roundtrips_serde() {
        let obs = synth(|d, p| d / 1e8 + p / 100.0, |_d, p| p);
        let m = StageModel::fit(&obs).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: StageModel = serde_json::from_str(&json).unwrap();
        // JSON float printing may perturb the last ulp; compare behaviour.
        for o in &obs {
            let (a, b) = (m.predict_time(o.d, o.p), back.predict_time(o.d, o.p));
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        assert_eq!(back.trained_p_range(), m.trained_p_range());
    }

    #[test]
    fn trained_p_range_matches_grid() {
        let obs = synth(|d, p| d / 1e8 + p / 100.0, |_d, p| p);
        let m = StageModel::fit(&obs).unwrap();
        assert_eq!(m.trained_p_range(), (50.0, 800.0));
    }

    #[test]
    fn default_weights_are_half_half() {
        let w = CostWeights::default();
        assert_eq!((w.alpha, w.beta), (0.5, 0.5));
    }

    #[test]
    fn cross_validation_reflects_fit_quality() {
        // A surface inside the basis cross-validates near zero.
        let clean = synth(|d, p| 2.0 + d / 1e8 + p / 100.0, |_d, p| p);
        let cv_clean = cross_validation_error(&clean, 4).expect("enough points");
        assert!(
            cv_clean < 0.05,
            "in-basis surface should CV cleanly, got {cv_clean}"
        );
    }

    #[test]
    fn extended_basis_captures_work_per_task_where_paper_basis_cannot() {
        // The surface every parallel stage actually follows: t = D/(c·P).
        // The paper's additive basis cannot express it; the extended basis
        // (with the D/P term) nails it. This is the ablation behind
        // ModelBasis::Extended being the default.
        let work = synth(|d, p| d / 1e6 / p, |_d, _p| 0.0);
        let paper = StageModel::fit_with_basis(&work, ModelBasis::Paper).expect("fits");
        let extended = StageModel::fit_with_basis(&work, ModelBasis::Extended).expect("fits");
        let err_paper = paper.time_error(&work);
        let err_extended = extended.time_error(&work);
        assert!(
            err_extended < err_paper / 5.0,
            "interaction terms must dominate: extended {err_extended} vs paper {err_paper}"
        );
        assert!(
            err_extended < 0.05,
            "D/P surface is in the extended span: {err_extended}"
        );
        assert_eq!(paper.basis(), ModelBasis::Paper);
        assert_eq!(extended.basis(), ModelBasis::Extended);
    }

    #[test]
    fn cross_validation_needs_enough_points() {
        let few: Vec<Observation> = synth(|d, p| d + p, |_d, p| p).into_iter().take(5).collect();
        assert!(cross_validation_error(&few, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "two folds")]
    fn cross_validation_rejects_single_fold() {
        let obs = synth(|d, p| d + p, |_d, p| p);
        let _ = cross_validation_error(&obs, 1);
    }
}
