//! Logistic regression by distributed gradient descent — the fourth
//! workload. The paper cites logistic regression as a consumer of PCA
//! (Section IV); it is also the canonical iterative Spark example and a
//! natural extra subject for CHOPPER: every iteration is a map
//! ("gradient") + reduce ("sum-gradients") pair whose stages repeat with
//! identical signatures, exactly like KMeans' Lloyd iterations.
//!
//! Stage layout: stage 0 parses and caches the labelled points; stages
//! 1..=2·iterations are the gradient map/reduce pairs; the final two
//! stages evaluate training accuracy.

use crate::datagen::PointGen;
use chopper::Workload;
use engine::{sum_vectors, Context, Emit, EngineOptions, GenFn, Key, Record, Value, WorkloadConf};
use std::sync::Arc;

/// Logistic-regression workload parameters.
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    /// Labelled points at full scale.
    pub points: u64,
    /// Feature dimensionality.
    pub dim: usize,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Data seed.
    pub seed: u64,
}

impl LogRegConfig {
    /// Evaluation-scale instance.
    pub fn paper() -> Self {
        LogRegConfig {
            points: 300_000,
            dim: 12,
            iterations: 5,
            learning_rate: 4.0,
            seed: 77,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        LogRegConfig {
            points: 6_000,
            dim: 6,
            iterations: 30,
            learning_rate: 6.0,
            seed: 3,
        }
    }
}

/// Units per parsed record.
const PARSE_COST: f64 = 0.12;
/// Units per record per dimension for gradient evaluation.
const GRAD_COST_PER_DIM: f64 = 2.0e-4;
/// Units per record for gradient merges, per dimension.
const MERGE_COST_PER_DIM: f64 = 4.0e-5;
/// Virtual bytes per record (ratio-free; logreg is an extra workload).
const VIRTUAL_RECORD_BYTES: u64 = 170;

/// The logistic-regression workload.
pub struct LogReg {
    /// Parameters.
    pub config: LogRegConfig,
}

/// Final state of a run.
pub struct LogRegResult {
    /// The finished engine context.
    pub ctx: Context,
    /// Learned weights (including bias as the last element).
    pub weights: Vec<f64>,
    /// Training accuracy in `[0, 1]`.
    pub accuracy: f64,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Feature scaling applied inside the model (the generator emits features
/// in roughly ±10; gradient descent conditions far better on ±1).
const FEATURE_SCALE: f64 = 0.1;

/// The model's linear response for features `x` under `w` (weights plus
/// trailing bias).
fn response(x: &[f64], w: &[f64]) -> f64 {
    x.iter()
        .zip(w.iter())
        .map(|(a, b)| a * FEATURE_SCALE * b)
        .sum::<f64>()
        + w[x.len()]
}

/// The label of point `i`: a separating hyperplane with deterministic
/// noise, derived from the same generator as the features.
fn label(x: &[f64]) -> f64 {
    let s: f64 = x
        .iter()
        .enumerate()
        .map(|(j, v)| if j % 2 == 0 { *v } else { -*v })
        .sum();
    if s > 0.0 {
        1.0
    } else {
        0.0
    }
}

impl LogReg {
    /// Creates the workload.
    pub fn new(config: LogRegConfig) -> Self {
        LogReg { config }
    }

    /// The generator of the input points: a mixture of two clusters.
    pub fn points(&self) -> PointGen {
        PointGen::new(2, self.config.dim, 1.5, self.config.seed)
    }

    /// Runs the full pipeline, returning the learned model.
    pub fn execute(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> LogRegResult {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let cfg = &self.config;
        let n = ((cfg.points as f64 * scale) as u64).max(64);
        let dim = cfg.dim;
        let gen = self.points();

        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());

        // ---- stage 0: parse + cache --------------------------------------
        let g = gen.clone();
        let gen_full: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n, i, parts, out));
        let src = ctx.text_file(
            "logreg.data",
            n * VIRTUAL_RECORD_BYTES,
            gen_full,
            PARSE_COST,
            "parse-labelled",
        );
        let points = ctx.maybe_insert_repartition(src);
        ctx.cache(points);
        ctx.count(points, "load");

        // ---- gradient-descent iterations ---------------------------------
        let grad_cost = GRAD_COST_PER_DIM * dim as f64;
        // weights has dim+1 entries; the last is the bias.
        let mut weights = vec![0.0; dim + 1];
        for _ in 0..cfg.iterations {
            let w = Arc::new(weights.clone());
            let grad_map = ctx.map(
                points,
                {
                    let w = Arc::clone(&w);
                    Arc::new(move |r: &Record| {
                        let x = r.value.as_vector();
                        let y = label(x);
                        let z = response(x, &w);
                        let err = sigmoid(z) - y;
                        // Partial gradient, then the bias term and a count
                        // for averaging; 8 pseudo-keys for parallel sums.
                        let grad = Value::vector_from(
                            x.iter().map(|v| err * v * FEATURE_SCALE).chain([err, 1.0]),
                        );
                        let k = match r.key {
                            Key::Int(i) => i % 8,
                            _ => 0,
                        };
                        Record::new(Key::Int(k), grad)
                    })
                },
                grad_cost,
                "gradient",
            );
            let grad_red = ctx.reduce_by_key(
                grad_map,
                sum_vectors(),
                None,
                MERGE_COST_PER_DIM * dim as f64,
                "sum-gradients",
            );
            let partials = ctx.collect(grad_red, "iteration");
            let mut total = vec![0.0; dim + 2];
            for r in &partials {
                for (t, v) in total.iter_mut().zip(r.value.as_vector()) {
                    *t += v;
                }
            }
            let count = total[dim + 1].max(1.0);
            for (j, w) in weights.iter_mut().enumerate() {
                *w -= cfg.learning_rate * total[j] / count;
            }
        }

        // ---- final evaluation: training accuracy --------------------------
        let w = Arc::new(weights.clone());
        let correct = ctx.filter(
            points,
            {
                let w = Arc::clone(&w);
                Arc::new(move |r: &Record| {
                    let x = r.value.as_vector();
                    (sigmoid(response(x, &w)) > 0.5) == (label(x) > 0.5)
                })
            },
            grad_cost,
            "evaluate",
        );
        let hits = ctx.count(correct, "accuracy");
        let accuracy = hits as f64 / n as f64;

        LogRegResult {
            ctx,
            weights,
            accuracy,
        }
    }
}

impl Workload for LogReg {
    fn name(&self) -> &str {
        "logreg"
    }

    fn full_input_bytes(&self) -> u64 {
        self.config.points * VIRTUAL_RECORD_BYTES
    }

    fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
        self.execute(opts, conf, scale).ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::uniform_cluster;

    fn opts() -> EngineOptions {
        EngineOptions {
            cluster: uniform_cluster(3, 8, 2.0),
            default_parallelism: 12,
            workers: 2,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn model_learns_the_separating_plane() {
        let w = LogReg::new(LogRegConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert!(
            res.accuracy > 0.9,
            "separable data should be learned to >90%, got {:.3}",
            res.accuracy
        );
        assert_eq!(res.weights.len(), w.config.dim + 1);
        // Weight signs should alternate like the generating hyperplane.
        assert!(res.weights[0] > 0.0);
        assert!(res.weights[1] < 0.0);
    }

    #[test]
    fn stage_layout_is_iterative() {
        let w = LogReg::new(LogRegConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages: Vec<_> = res.ctx.all_stages().into_iter().cloned().collect();
        // load + 2 per iteration + evaluate.
        assert_eq!(stages.len(), 1 + 2 * w.config.iterations + 1);
        // Iteration stages share signatures.
        let sig_map = stages[1].root_signature;
        let sig_red = stages[2].root_signature;
        for i in 0..w.config.iterations {
            assert_eq!(stages[1 + 2 * i].root_signature, sig_map);
            assert_eq!(stages[2 + 2 * i].root_signature, sig_red);
        }
    }

    #[test]
    fn accuracy_improves_with_iterations() {
        let mut one = LogRegConfig::small();
        one.iterations = 1;
        let acc1 = LogReg::new(one)
            .execute(&opts(), &WorkloadConf::new(), 1.0)
            .accuracy;
        let acc4 = LogReg::new(LogRegConfig::small())
            .execute(&opts(), &WorkloadConf::new(), 1.0)
            .accuracy;
        assert!(
            acc4 >= acc1,
            "more iterations must not hurt: {acc4} vs {acc1}"
        );
    }

    #[test]
    fn deterministic() {
        let w = LogReg::new(LogRegConfig::small());
        let a = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let b = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.ctx.clock().to_bits(), b.ctx.clock().to_bits());
    }

    #[test]
    fn tunable_via_conf() {
        let mut ctx_probe = LogReg::new(LogRegConfig::small());
        let probe = ctx_probe.execute(&opts(), &WorkloadConf::new(), 1.0);
        let reduce_sig = probe.ctx.all_stages()[2].root_signature;
        let mut conf = WorkloadConf::new();
        conf.set_stage(reduce_sig, engine::PartitionerSpec::hash(3));
        ctx_probe.config = LogRegConfig::small();
        let tuned = ctx_probe.execute(&opts(), &conf, 1.0);
        assert_eq!(tuned.ctx.all_stages()[2].num_tasks, 3);
        // Results agree regardless of partitioning (up to float summation
        // order, which legitimately differs across bucketings).
        for (a, b) in tuned.weights.iter().zip(&probe.weights) {
            assert!((a - b).abs() < 1e-9, "weights diverged: {a} vs {b}");
        }
    }
}
