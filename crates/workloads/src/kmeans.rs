//! The KMeans workload (SparkBench analog, paper Sections II-B and IV).
//!
//! Reproduces the paper's 20-stage layout:
//!
//! * **stage 0** — parse the full input from block storage and cache the
//!   point RDD (the dominant stage: 372 s under vanilla Spark, Table II),
//! * **stages 1–11** — eleven light preparation passes, each a separate
//!   scan of a small input sample (statistics/initialization work). These
//!   are narrow, shuffle-free stages with individually tunable split
//!   counts — matching Table III, where CHOPPER assigns stages 1–11 their
//!   own partition counts,
//! * **stages 12–17** — three Lloyd iterations, each a map ("assign",
//!   over the cached points) plus a reduce-by-key ("update"): the only
//!   shuffle stages, as in Fig. 4. All iterations share stage signatures,
//!   so one configuration entry retunes them all,
//! * **stages 18–19** — final cluster-assignment histogram (map + reduce).
//!
//! The clustering itself is real: Lloyd iterations run on actual
//! Gaussian-mixture data and converge; the returned [`KMeansResult`]
//! carries the final centers for verification.

use crate::datagen::PointGen;
use chopper::Workload;
use engine::{
    sum_vector_counts, Context, Emit, EngineOptions, GenFn, Key, MapFn, Record, Value, WorkloadConf,
};
use std::sync::Arc;

/// Distinct tags for the prep passes so each gets its own stage signature
/// (and thus its own Table III row).
const PREP_TAGS: [&str; 11] = [
    "prep-00", "prep-01", "prep-02", "prep-03", "prep-04", "prep-05", "prep-06", "prep-07",
    "prep-08", "prep-09", "prep-10",
];

/// KMeans workload parameters.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Total points at full scale.
    pub points: u64,
    /// Point dimensionality.
    pub dim: usize,
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations (paper layout: 3 → stages 12–17).
    pub iterations: usize,
    /// Preparation passes (paper layout: 11 → stages 1–11).
    pub prep_passes: usize,
    /// Fraction of the input scanned by each prep pass.
    pub sample_fraction: f64,
    /// Data seed.
    pub seed: u64,
}

impl KMeansConfig {
    /// The paper-shaped instance: 20 stages, input scaled down from the
    /// paper's 21.8 GB to a volume a single build machine materializes
    /// comfortably (virtual task costs are calibrated so the simulated
    /// times land in the paper's range).
    pub fn paper() -> Self {
        KMeansConfig {
            points: 400_000,
            dim: 20,
            k: 10,
            iterations: 3,
            prep_passes: 11,
            sample_fraction: 0.03,
            seed: 20160926,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        KMeansConfig {
            points: 8_000,
            dim: 6,
            k: 4,
            iterations: 2,
            prep_passes: 2,
            sample_fraction: 0.05,
            seed: 7,
        }
    }

    /// Number of stages this configuration executes.
    pub fn expected_stages(&self) -> usize {
        1 + self.prep_passes + 2 * self.iterations + 2
    }
}

/// Virtual compute units charged per parsed record. Each generated record
/// stands in for a row group of the paper's 21.8 GB input, so this is the
/// knob that puts stage 0 at the paper's ~6-minute scale.
const PARSE_COST: f64 = 0.2;
/// Units per record for the prep-pass predicates.
const PREP_COST: f64 = 0.02;
/// Units per record per (cluster × dimension) for nearest-center search.
const ASSIGN_COST_PER_KDIM: f64 = 7.5e-5;
/// Units per record per dimension for center accumulation merges.
const UPDATE_COST_PER_DIM: f64 = 5.0e-5;

/// The KMeans workload.
pub struct KMeans {
    /// Parameters.
    pub config: KMeansConfig,
}

/// Final state of a KMeans run.
pub struct KMeansResult {
    /// The finished engine context (metrics, traces, store counters).
    pub ctx: Context,
    /// Cluster centers after the last iteration.
    pub centers: Vec<Vec<f64>>,
    /// Points per cluster from the final histogram.
    pub histogram: Vec<(i64, i64)>,
}

impl KMeans {
    /// Creates the workload.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config }
    }

    fn assign_fn(centers: Arc<Centers>) -> MapFn {
        Arc::new(move |r: &Record| {
            let c = centers.nearest(r.value.as_vector());
            // Emit (cluster, (sum vector, count)) for the center update. The
            // point is shared with the cached partition, not copied: the
            // update's first fold into it copies once per key per task.
            Record::new(
                Key::Int(c as i64),
                Value::Pair(Box::new(r.value.clone()), Box::new(Value::Int(1))),
            )
        })
    }

    /// The generator of the input points: a mixture of `k` clusters.
    pub fn points(&self) -> PointGen {
        PointGen::new(self.config.k, self.config.dim, 2.0, self.config.seed)
    }

    /// Runs the full 20-stage pipeline, returning clustering results.
    pub fn execute(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> KMeansResult {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let cfg = &self.config;
        let n = ((cfg.points as f64 * scale) as u64).max(cfg.k as u64 * 10);
        let gen = self.points();

        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());

        // ---- stage 0: parse + cache the full input -----------------------
        let g = gen.clone();
        let gen_full: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n, i, parts, out));
        let src = ctx.text_file(
            "kmeans.data",
            gen.bytes(n),
            gen_full,
            PARSE_COST,
            "parse-points",
        );
        let points = ctx.maybe_insert_repartition(src);
        ctx.cache(points);
        ctx.count(points, "load");

        // ---- stages 1..=prep: light sample scans --------------------------
        let sample_n = ((n as f64 * cfg.sample_fraction) as u64).max(1);
        for (j, tag) in PREP_TAGS.iter().enumerate().take(cfg.prep_passes) {
            let g = gen.clone();
            let gen_sample: GenFn =
                Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(sample_n, i, parts, out));
            let sample = ctx.text_file(
                "kmeans.sample",
                gen.bytes(sample_n),
                gen_sample,
                PARSE_COST,
                tag,
            );
            let dim = j % cfg.dim;
            let pass = ctx.filter(
                sample,
                Arc::new(move |r: &Record| r.value.as_vector()[dim] > 0.0),
                PREP_COST,
                tag,
            );
            ctx.count(pass, tag);
        }

        // ---- stages 12..: Lloyd iterations --------------------------------
        let assign_cost = ASSIGN_COST_PER_KDIM * cfg.k as f64 * cfg.dim as f64;
        let update_cost = UPDATE_COST_PER_DIM * cfg.dim as f64;
        let mut centers: Vec<Vec<f64>> = (0..cfg.k as u64).map(|i| gen.point(i)).collect();
        for _ in 0..cfg.iterations {
            let mapped = ctx.map(
                points,
                Self::assign_fn(Arc::new(Centers::new(&centers))),
                assign_cost,
                "assign",
            );
            let reduced =
                ctx.reduce_by_key(mapped, sum_vector_counts(), None, update_cost, "update");
            let out = ctx.collect(reduced, "iteration");
            for r in &out {
                let c = match r.key {
                    Key::Int(c) => c as usize,
                    _ => unreachable!("cluster keys are ints"),
                };
                if let Value::Pair(sum, count) = &r.value {
                    let cnt = count.as_int().max(1) as f64;
                    centers[c] = sum.as_vector().iter().map(|s| s / cnt).collect();
                }
            }
        }

        // ---- stages 18–19: final assignment histogram ---------------------
        let final_map = ctx.map(
            points,
            {
                let centers: Centers = Centers::new(&centers);
                Arc::new(move |r: &Record| {
                    let c = centers.nearest(r.value.as_vector());
                    Record::new(Key::Int(c as i64), Value::Int(1))
                })
            },
            assign_cost,
            "final-assign",
        );
        let hist_rdd = ctx.reduce_by_key(
            final_map,
            Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
            None,
            1e-4,
            "histogram",
        );
        let hist = ctx.collect(hist_rdd, "final-histogram");
        // The driver is done with the cached input: release the pin so
        // the storage layer frees it (memory or spill files) right away.
        ctx.uncache(points);
        let mut histogram: Vec<(i64, i64)> = hist
            .iter()
            .map(|r| match (&r.key, &r.value) {
                (Key::Int(c), v) => (*c, v.as_int()),
                other => unreachable!("malformed histogram row {other:?}"),
            })
            .collect();
        histogram.sort_unstable();

        KMeansResult {
            ctx,
            centers,
            histogram,
        }
    }
}

/// Lanes of a center block: one 256-bit vector of `f64`s.
const LANES: usize = 4;

/// The centers of a nearest-center search, laid out across centers: block
/// `b` holds centers `b·L .. b·L + L` dimension-major, so row `j` of the
/// block is coordinate `j` of its `L` centers, and one pass over a point
/// sums `L` squared distances at once. Each lane still sums its center's
/// squared differences coordinate by coordinate, from the first, with no
/// fused multiply-add — the very operations, in the very order, of
/// [`nearest_scalar`] — so the distances and the chosen index are its
/// bits. Lanes past the last center hold zeros and are never chosen.
struct Centers<const L: usize = LANES> {
    k: usize,
    dim: usize,
    /// `blocks · dim` rows.
    rows: Vec<[f64; L]>,
}

impl<const L: usize> Centers<L> {
    /// Lays `centers` (at least one, each `dim > 0` long) out in blocks.
    fn new(centers: &[Vec<f64>]) -> Self {
        let (k, dim) = (centers.len(), centers.first().map_or(0, Vec::len));
        assert!(k > 0 && dim > 0, "a nearest-center search needs a center");
        let mut rows = vec![[0.0; L]; k.div_ceil(L) * dim];
        for (i, c) in centers.iter().enumerate() {
            assert_eq!(c.len(), dim, "centers of one dimension");
            for (j, &v) in c.iter().enumerate() {
                rows[i / L * dim + j][i % L] = v;
            }
        }
        Centers { k, dim, rows }
    }

    /// Index of the nearest center to `x` (squared Euclidean distance; the
    /// lowest index wins a tie, and a NaN distance never wins), as
    /// [`nearest_scalar`] chooses it.
    fn nearest(&self, x: &[f64]) -> usize {
        self.nearest_dispatched(x).0
    }

    /// [`Centers::nearest_portable`] compiled for AVX2 where the host has
    /// it. The code is the same; only the vector width differs.
    fn nearest_dispatched(&self, x: &[f64]) -> (usize, f64) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `nearest_avx2` requires AVX2, which was just detected
            // on this host.
            return unsafe { self.nearest_avx2(x) };
        }
        self.nearest_portable(x)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn nearest_avx2(&self, x: &[f64]) -> (usize, f64) {
        self.nearest_portable(x)
    }

    /// The nearest center's index and squared distance.
    #[inline(always)]
    fn nearest_portable(&self, x: &[f64]) -> (usize, f64) {
        assert_eq!(x.len(), self.dim, "point and centers of one dimension");
        let mut best = (0, f64::INFINITY);
        for (b, block) in self.rows.chunks_exact(self.dim).enumerate() {
            let mut d = [0.0; L];
            for (&xj, row) in x.iter().zip(block) {
                for (d, &c) in d.iter_mut().zip(row) {
                    let t = xj - c;
                    *d += t * t;
                }
            }
            for (l, &d) in d.iter().enumerate().take(self.k - b * L) {
                if d < best.1 {
                    best = (b * L + l, d);
                }
            }
        }
        best
    }
}

/// The nearest center to `x` and its squared distance, one center at a
/// time: the reference [`Centers`] reproduces bit for bit.
#[cfg(test)]
fn nearest_scalar(x: &[f64], centers: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d: f64 = x.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

impl Workload for KMeans {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn full_input_bytes(&self) -> u64 {
        self.points().bytes(self.config.points)
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
    fn stage_layout_matches_paper_structure() {
        let w = KMeans::new(KMeansConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages: Vec<_> = res.ctx.all_stages().into_iter().cloned().collect();
        assert_eq!(stages.len(), w.config.expected_stages());
        // Stage 0 is the heavy parse.
        assert_eq!(stages[0].stage_id, 0);
        assert!(stages[0].shuffle_write_bytes == 0);
        // Prep stages are shuffle-free.
        for s in &stages[1..=w.config.prep_passes] {
            assert_eq!(
                s.shuffle_data(),
                0,
                "prep stage {} must not shuffle",
                s.stage_id
            );
        }
        // Iteration stages shuffle.
        let first_iter = 1 + w.config.prep_passes;
        for s in &stages[first_iter..first_iter + 2 * w.config.iterations] {
            assert!(
                s.shuffle_data() > 0,
                "iteration stage {} must shuffle",
                s.stage_id
            );
        }
    }

    #[test]
    fn iterations_share_signatures() {
        let w = KMeans::new(KMeansConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages = res.ctx.all_stages();
        let first_iter = 1 + w.config.prep_passes;
        let sig_map_0 = stages[first_iter].root_signature;
        let sig_red_0 = stages[first_iter + 1].root_signature;
        let sig_map_1 = stages[first_iter + 2].root_signature;
        let sig_red_1 = stages[first_iter + 3].root_signature;
        assert_eq!(sig_map_0, sig_map_1, "assign stages share a signature");
        assert_eq!(sig_red_0, sig_red_1, "update stages share a signature");
        assert_ne!(sig_map_0, sig_red_0);
    }

    #[test]
    fn prep_stages_have_distinct_signatures() {
        let w = KMeans::new(KMeansConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages = res.ctx.all_stages();
        let s1 = stages[1].root_signature;
        let s2 = stages[2].root_signature;
        assert_ne!(s1, s2, "each prep pass is separately tunable");
    }

    #[test]
    fn clustering_actually_converges() {
        // Well-separated mixture: the final centers must each sit close to
        // a distinct true center.
        let w = KMeans::new(KMeansConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let truth = w.points().centers;
        for c in &res.centers {
            let min_d = truth
                .iter()
                .map(|t| {
                    t.iter()
                        .zip(c)
                        .map(|(a, b)| (a - b).powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                min_d < 2.0,
                "center {c:?} too far from any true center ({min_d})"
            );
        }
    }

    #[test]
    fn histogram_accounts_for_every_point() {
        let w = KMeans::new(KMeansConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let total: i64 = res.histogram.iter().map(|(_, n)| n).sum();
        assert_eq!(total as u64, w.config.points);
        // Balanced mixture → roughly balanced clusters.
        for &(_, n) in &res.histogram {
            assert!(n > 0, "no empty clusters on well-separated data");
        }
    }

    #[test]
    fn scale_shrinks_input_proportionally() {
        let w = KMeans::new(KMeansConfig::small());
        let full = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let half = w.execute(&opts(), &WorkloadConf::new(), 0.5);
        let f0 = full.ctx.all_stages()[0].input_records;
        let h0 = half.ctx.all_stages()[0].input_records;
        assert!((h0 as f64 - f0 as f64 / 2.0).abs() <= 1.0);
    }

    #[test]
    fn runs_deterministically() {
        let w = KMeans::new(KMeansConfig::small());
        let a = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let b = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.histogram, b.histogram);
        assert_eq!(a.ctx.clock().to_bits(), b.ctx.clock().to_bits());
    }

    /// `Centers` against `nearest_scalar`, index and distance bits, on
    /// every path the host can run: the portable code and the dispatched
    /// one (AVX2 where it is detected). `k` covers one center, a partial
    /// block, a full block, and one and four blocks past it.
    #[test]
    fn the_lane_search_is_the_scalar_search_bit_for_bit() {
        let mut rng = numeric::XorShift64::new(0x6b6d_6561_6e73);
        // Coordinates of mixed magnitude, so that a lane summing in another
        // order rounds differently.
        let coord = |rng: &mut numeric::XorShift64| {
            (rng.next_f64() - 0.5) * [1.0, 3.0, 1e3, 1e-3][rng.next_below(4) as usize]
        };
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for k in [1, 3, 4, 10, 17] {
            for dim in [1, 2, 7, 20] {
                let mut plain: Vec<Vec<f64>> = (0..k)
                    .map(|_| (0..dim).map(|_| coord(&mut rng)).collect())
                    .collect();
                // An exact tie: the last center repeats the first, and the
                // lower index must win.
                if k > 1 {
                    plain[k - 1] = plain[0].clone();
                }
                // The same centers with a NaN or an infinite coordinate in
                // two of them.
                let mut odd_centers = plain.clone();
                odd_centers[k / 2][dim - 1] = odd[k % 3];
                odd_centers[k - 1][0] = odd[(k + 1) % 3];
                for centers in [plain, odd_centers] {
                    let lanes: Centers = Centers::new(&centers);
                    for i in 0..400 {
                        let mut x: Vec<f64> = match i % 4 {
                            // A center itself: distance 0, tied if repeated.
                            0 => centers[i / 4 % k].clone(),
                            _ => (0..dim).map(|_| coord(&mut rng)).collect(),
                        };
                        if i % 10 == 1 {
                            x[i % dim] = odd[i % 3];
                        }
                        let want = nearest_scalar(&x, &centers);
                        for (path, got) in [
                            ("portable", lanes.nearest_portable(&x)),
                            ("dispatched", lanes.nearest_dispatched(&x)),
                        ] {
                            assert_eq!(
                                (got.0, got.1.to_bits()),
                                (want.0, want.1.to_bits()),
                                "{path} k={k} dim={dim} x={x:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn workload_trait_reports_consistent_bytes() {
        let w = KMeans::new(KMeansConfig::small());
        assert!(w.full_input_bytes() > 0);
        assert_eq!(w.name(), "kmeans");
    }
}
