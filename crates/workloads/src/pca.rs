//! The PCA workload (SparkBench analog, paper Section IV).
//!
//! "Both computation and network-intensive … involves multiple iterations
//! to compute a linearly uncorrelated set of vectors." The distributed
//! part follows the standard covariance decomposition:
//!
//! * **stage 0** — parse the input points from block storage and cache,
//! * **stages 1–2** — mean vector: map each point to a single-key partial
//!   sum, reduce, collect (one shuffle),
//! * **stages 3–4** — covariance matrix by row blocks: each centered point
//!   `x` flat-maps to `dim` records `(row r, x[r]·x)`, reduced per row
//!   (the shuffle-heavy phase),
//! * **stage 5** — a validation scan over an input sample,
//!
//! after which the driver runs power iteration with deflation on the
//! collected `dim × dim` covariance to extract the top components — real
//! math, verified against the generator's anisotropy in tests.

use crate::datagen::PointGen;
use chopper::Workload;
use engine::{
    sum_vector_counts, sum_vectors, Context, Emit, EngineOptions, GenFn, Key, Record, Value,
    WorkloadConf,
};
use std::sync::Arc;

/// PCA workload parameters.
#[derive(Debug, Clone)]
pub struct PcaConfig {
    /// Total points at full scale.
    pub points: u64,
    /// Point dimensionality.
    pub dim: usize,
    /// Top components to extract.
    pub components: usize,
    /// Power-iteration sweeps per component.
    pub power_iters: usize,
    /// Data seed.
    pub seed: u64,
}

impl PcaConfig {
    /// Paper-shaped instance (input ratio vs. KMeans preserved from
    /// Table I: 27.6 GB vs 21.8 GB).
    pub fn paper() -> Self {
        PcaConfig {
            points: 360_000,
            dim: 16,
            components: 3,
            power_iters: 12,
            seed: 1606,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        PcaConfig {
            points: 6_000,
            dim: 5,
            components: 2,
            power_iters: 10,
            seed: 13,
        }
    }
}

/// Units per parsed record (stage 0; PCA's input is denser than KMeans').
const PARSE_COST: f64 = 0.10;
/// Units per record for the mean partial-sum map.
const MEAN_COST: f64 = 0.01;
/// Units per input record for the covariance row-block flat-map, per dim².
const COV_COST_PER_DIM2: f64 = 3.0e-4;
/// Units per record for covariance row merges, per dim.
const COV_MERGE_PER_DIM: f64 = 3.0e-4;
/// Units per record for the validation scan.
const SCAN_COST: f64 = 0.02;
/// Virtual serialized bytes per input record. Each generated record stands
/// in for a row group of the paper's 27.6 GB input; this constant keeps
/// Table I's PCA/KMeans input ratio (27.6/21.8 ≈ 1.27) at our scale.
const VIRTUAL_RECORD_BYTES: u64 = 257;

/// The PCA workload.
pub struct Pca {
    /// Parameters.
    pub config: PcaConfig,
}

/// Final state of a PCA run.
pub struct PcaResult {
    /// The finished engine context.
    pub ctx: Context,
    /// Mean vector.
    pub mean: Vec<f64>,
    /// Top principal components (unit vectors), strongest first.
    pub components: Vec<Vec<f64>>,
    /// Eigenvalues corresponding to the components.
    pub eigenvalues: Vec<f64>,
}

impl Pca {
    /// Creates the workload.
    pub fn new(config: PcaConfig) -> Self {
        Pca { config }
    }

    /// The generator of the input points: an anisotropic cloud around
    /// three centers, so the top component is predictable.
    pub fn points(&self) -> PointGen {
        PointGen::new(3, self.config.dim, 1.0, self.config.seed)
    }

    /// Runs the pipeline and extracts principal components.
    pub fn execute(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> PcaResult {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let cfg = &self.config;
        let n = ((cfg.points as f64 * scale) as u64).max(64);
        let dim = cfg.dim;
        let gen = self.points();

        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());

        // ---- stage 0: parse + cache ---------------------------------------
        let g = gen.clone();
        let gen_full: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n, i, parts, out));
        let src = ctx.text_file(
            "pca.data",
            n * VIRTUAL_RECORD_BYTES,
            gen_full,
            PARSE_COST,
            "parse-points",
        );
        let points = ctx.maybe_insert_repartition(src);
        ctx.cache(points);
        ctx.count(points, "load");

        // ---- stages 1–2: mean vector --------------------------------------
        // A few pseudo-keys keep the reduce parallel without a full
        // shuffle of the raw points.
        let mean_map = ctx.map(
            points,
            Arc::new(|r: &Record| {
                let k = match r.key {
                    Key::Int(i) => i % 4,
                    _ => 0,
                };
                Record::new(
                    Key::Int(k),
                    Value::Pair(Box::new(r.value.clone()), Box::new(Value::Int(1))),
                )
            }),
            MEAN_COST,
            "mean-partials",
        );
        let mean_red = ctx.reduce_by_key(
            mean_map,
            sum_vector_counts(),
            None,
            MEAN_COST,
            "mean-reduce",
        );
        let partials = ctx.collect(mean_red, "mean");
        let mut mean = vec![0.0; dim];
        let mut count = 0i64;
        for r in &partials {
            if let Value::Pair(s, c) = &r.value {
                for (m, v) in mean.iter_mut().zip(s.as_vector()) {
                    *m += v;
                }
                count += c.as_int();
            }
        }
        for m in &mut mean {
            *m /= count.max(1) as f64;
        }

        // ---- stages 3–4: covariance row blocks ----------------------------
        let mean_arc = Arc::new(mean.clone());
        let cov_cost = COV_COST_PER_DIM2 * (dim * dim) as f64;
        let cov_map = ctx.flat_map(
            points,
            {
                let mean = Arc::clone(&mean_arc);
                Arc::new(move |r: &Record, out: &mut dyn Emit| {
                    // The centered point, on the stack up to `STACK_DIM`.
                    let point = r.value.as_vector();
                    let (mut stack, mut heap) = ([0.0; STACK_DIM], Vec::new());
                    let x = if point.len() <= STACK_DIM {
                        &mut stack[..point.len()]
                    } else {
                        heap.resize(point.len(), 0.0);
                        &mut heap[..]
                    };
                    for ((c, a), b) in x.iter_mut().zip(point).zip(mean.iter()) {
                        *c = a - b;
                    }
                    let x = &*x;
                    // One scratch row per point, rewritten and lent once
                    // per covariance row: the map-side combine adds it to
                    // the row's sum by reference and keeps no copy.
                    let mut scaled = Record::keyless(Value::vector_from(x.iter().copied()));
                    for (row, &x_row) in x.iter().enumerate() {
                        scaled.key = Key::Int(row as i64);
                        if let Value::Vector(buf) = &mut scaled.value {
                            for (s, &v) in Arc::make_mut(buf).iter_mut().zip(x) {
                                *s = v * x_row;
                            }
                        }
                        out.lend(&scaled);
                    }
                })
            },
            cov_cost,
            "cov-rows",
        );
        let cov_red = ctx.reduce_by_key(
            cov_map,
            sum_vectors(),
            None,
            COV_MERGE_PER_DIM * dim as f64,
            "cov-reduce",
        );
        let rows = ctx.collect(cov_red, "covariance");
        let mut cov = vec![vec![0.0; dim]; dim];
        for r in &rows {
            if let Key::Int(row) = r.key {
                cov[row as usize] = r.value.as_vector().to_vec();
            }
        }
        for row in &mut cov {
            for v in row.iter_mut() {
                *v /= count.max(1) as f64;
            }
        }

        // ---- stage 5: validation scan over a sample ------------------------
        let sample_n = (n / 20).max(1);
        let g = gen.clone();
        let gen_sample: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(sample_n, i, parts, out));
        let sample = ctx.text_file(
            "pca.sample",
            sample_n * VIRTUAL_RECORD_BYTES,
            gen_sample,
            PARSE_COST,
            "validate",
        );
        let checked = ctx.filter(
            sample,
            Arc::new(|r: &Record| r.value.as_vector().iter().all(|v| v.is_finite())),
            SCAN_COST,
            "validate",
        );
        ctx.count(checked, "validate");

        // ---- driver: power iteration with deflation ------------------------
        let (components, eigenvalues) =
            power_iteration(&cov, cfg.components, cfg.power_iters, cfg.seed);

        PcaResult {
            ctx,
            mean,
            components,
            eigenvalues,
        }
    }
}

/// Widest point `cov-rows` centers on the stack; a wider one goes to the
/// heap.
const STACK_DIM: usize = 32;

/// Power iteration with deflation over a symmetric matrix.
fn power_iteration(
    matrix: &[Vec<f64>],
    components: usize,
    iters: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let dim = matrix.len();
    let mut m: Vec<Vec<f64>> = matrix.to_vec();
    let mut comps = Vec::new();
    let mut eigs = Vec::new();
    let mut rng = numeric::XorShift64::new(seed | 1);
    for _ in 0..components.min(dim) {
        let mut v: Vec<f64> = (0..dim).map(|_| rng.next_f64() - 0.5).collect();
        normalize(&mut v);
        for _ in 0..iters {
            let mut next = vec![0.0; dim];
            for (r, row) in m.iter().enumerate() {
                next[r] = row.iter().zip(&v).map(|(a, b)| a * b).sum();
            }
            normalize(&mut next);
            v = next;
        }
        // Rayleigh quotient.
        let mv: Vec<f64> = m
            .iter()
            .map(|row| row.iter().zip(&v).map(|(a, b)| a * b).sum())
            .collect();
        let lambda: f64 = mv.iter().zip(&v).map(|(a, b)| a * b).sum();
        // Deflate: m -= λ v vᵀ.
        for r in 0..dim {
            for c in 0..dim {
                m[r][c] -= lambda * v[r] * v[c];
            }
        }
        comps.push(v);
        eigs.push(lambda);
    }
    (comps, eigs)
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

impl Workload for Pca {
    fn name(&self) -> &str {
        "pca"
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
    fn pipeline_runs_six_stages() {
        let w = Pca::new(PcaConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        // load, mean map+reduce, cov map+reduce, validate = 6 stages.
        assert_eq!(res.ctx.all_stages().len(), 6);
    }

    #[test]
    fn covariance_shuffle_is_the_heavy_one() {
        let w = Pca::new(PcaConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages = res.ctx.all_stages();
        let mean_shuffle = stages[1].shuffle_data();
        let cov_shuffle = stages[3].shuffle_data();
        assert!(cov_shuffle > mean_shuffle, "row-block shuffle dominates");
    }

    #[test]
    fn mean_matches_direct_computation() {
        let w = Pca::new(PcaConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let gen = w.points();
        let n = w.config.points;
        let mut direct = vec![0.0; w.config.dim];
        for i in 0..n {
            for (d, v) in direct.iter_mut().zip(gen.point(i)) {
                *d += v;
            }
        }
        for d in &mut direct {
            *d /= n as f64;
        }
        for (a, b) in res.mean.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "mean mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let w = Pca::new(PcaConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert_eq!(res.components.len(), w.config.components);
        for (i, a) in res.components.iter().enumerate() {
            let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-6, "component {i} not unit: {norm}");
            for b in res.components.iter().skip(i + 1) {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-3, "components not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn eigenvalues_are_sorted_and_positive() {
        let w = Pca::new(PcaConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        for win in res.eigenvalues.windows(2) {
            assert!(
                win[0] >= win[1] - 1e-9,
                "eigenvalues must be non-increasing"
            );
        }
        assert!(res.eigenvalues[0] > 0.0);
    }

    #[test]
    fn top_component_captures_center_spread() {
        // The mixture's centers are far apart relative to the 1.0 spread,
        // so the top eigenvalue must exceed the isotropic noise variance.
        let w = Pca::new(PcaConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert!(
            res.eigenvalues[0] > 2.0,
            "top eigenvalue should reflect between-center variance, got {}",
            res.eigenvalues[0]
        );
    }

    #[test]
    fn deterministic_runs() {
        let w = Pca::new(PcaConfig::small());
        let a = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let b = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert_eq!(a.components, b.components);
        assert_eq!(a.ctx.clock().to_bits(), b.ctx.clock().to_bits());
    }
}
