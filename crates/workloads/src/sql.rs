//! The SQL workload (SparkBench analog, paper Sections IV and IV-C).
//!
//! "SQL is compute intensive for count and aggregation operations and
//! shuffle intensive in the join phase." The pipeline is the paper's
//! five-stage layout (Figs. 9–10):
//!
//! * **stages 0–1** — scan the `orders` table, aggregate revenue per key
//!   (map stage + reduce stage); the aggregate is cached,
//! * **stages 2–3** — the same for the `returns` table,
//! * **stage 4** — join the two aggregates. Both sides are cached under
//!   the same scheme, so the join is narrow (no third shuffle) — under
//!   CHOPPER's co-partition-aware scheduling both sides of each partition
//!   live on the same node and the join reads everything locally, which is
//!   exactly the stage-4 behaviour of Fig. 10.
//!
//! Keys are Zipf-skewed: hot keys make the hash partitioner's buckets
//! uneven while the sampled range partitioner adapts its bounds — giving
//! CHOPPER's partitioner *choice* (Algorithm 1) something real to decide.

use crate::datagen::{TableGen, ZipfSlot};
use chopper::Workload;
use engine::{Context, Emit, EngineOptions, GenFn, Key, Record, ReduceFn, Value, WorkloadConf};
use std::sync::Arc;

/// SQL workload parameters.
#[derive(Debug, Clone)]
pub struct SqlConfig {
    /// Rows in the `orders` table at full scale.
    pub orders: u64,
    /// Rows in the `returns` table at full scale.
    pub returns: u64,
    /// Distinct join keys.
    pub keys: usize,
    /// Zipf exponent of the key distribution (0 = uniform).
    pub zipf: f64,
    /// String payload bytes per row.
    pub payload: usize,
    /// Data seed.
    pub seed: u64,
}

impl SqlConfig {
    /// Paper-shaped instance (input ratio vs. KMeans preserved from
    /// Table I: 34.5 GB vs 21.8 GB).
    pub fn paper() -> Self {
        SqlConfig {
            orders: 500_000,
            returns: 250_000,
            keys: 40_000,
            zipf: 0.9,
            payload: 24,
            seed: 3405,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        SqlConfig {
            orders: 8_000,
            returns: 4_000,
            keys: 500,
            zipf: 1.3,
            payload: 8,
            seed: 5,
        }
    }
}

/// Units per scanned row (parse + predicate evaluation).
const SCAN_COST: f64 = 0.12;
/// Units per row for aggregate merges.
const AGG_COST: f64 = 0.008;
/// Units per row pair for the join probe.
const JOIN_COST: f64 = 0.002;
/// Virtual serialized bytes per table row, keeping Table I's SQL/KMeans
/// input ratio (34.5/21.8 ≈ 1.58) at our scale.
const VIRTUAL_RECORD_BYTES: u64 = 154;

/// The SQL workload.
pub struct Sql {
    /// Parameters.
    pub config: SqlConfig,
    /// The key law both tables draw from, shared by every run.
    key_table: ZipfSlot,
}

/// Final state of a SQL run.
pub struct SqlResult {
    /// The finished engine context.
    pub ctx: Context,
    /// `(key, orders revenue, returns revenue)` rows of the join output.
    pub joined: Vec<(i64, f64, f64)>,
}

impl Sql {
    /// Creates the workload.
    pub fn new(config: SqlConfig) -> Self {
        Sql {
            config,
            key_table: ZipfSlot::default(),
        }
    }

    /// The `orders` and `returns` table generators, over one key table.
    pub fn tables(&self) -> [TableGen; 2] {
        let cfg = &self.config;
        let keys = self.key_table.get(cfg.keys, cfg.zipf);
        [cfg.seed, cfg.seed ^ 0xDEAD]
            .map(|seed| TableGen::over(Arc::clone(&keys), cfg.payload, seed))
    }

    fn sum_amounts() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Float(a.as_float() + b.as_float()))
    }

    /// Runs the five-stage pipeline.
    pub fn execute(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> SqlResult {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let cfg = &self.config;
        let n_orders = ((cfg.orders as f64 * scale) as u64).max(16);
        let n_returns = ((cfg.returns as f64 * scale) as u64).max(16);

        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());
        let [orders_gen, returns_gen] = self.tables();

        // ---- stages 0–1: aggregate orders ---------------------------------
        let g = orders_gen;
        let gen_orders: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n_orders, i, parts, out));
        let orders = ctx.text_file(
            "sql.orders",
            n_orders * VIRTUAL_RECORD_BYTES,
            gen_orders,
            SCAN_COST,
            "scan-orders",
        );
        // Project rows to (key, amount) — the aggregation input.
        let order_amounts = ctx.map_values(
            orders,
            Arc::new(|r: &Record, out: &mut Record| {
                let amount = match &r.value {
                    Value::Pair(a, _) => a.as_float(),
                    other => panic!("malformed row {other:?}"),
                };
                *out = Record::new(r.key.clone(), Value::Float(amount))
            }),
            AGG_COST,
            "project-orders",
        );
        let order_totals = ctx.reduce_by_key(
            order_amounts,
            Self::sum_amounts(),
            None,
            AGG_COST,
            "agg-orders",
        );
        ctx.cache(order_totals);
        ctx.count(order_totals, "orders-aggregate");

        // ---- stages 2–3: aggregate returns --------------------------------
        let g = returns_gen;
        let gen_returns: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n_returns, i, parts, out));
        let returns = ctx.text_file(
            "sql.returns",
            n_returns * VIRTUAL_RECORD_BYTES,
            gen_returns,
            SCAN_COST,
            "scan-returns",
        );
        let return_amounts = ctx.map_values(
            returns,
            Arc::new(|r: &Record, out: &mut Record| {
                let amount = match &r.value {
                    Value::Pair(a, _) => a.as_float(),
                    other => panic!("malformed row {other:?}"),
                };
                *out = Record::new(r.key.clone(), Value::Float(amount))
            }),
            AGG_COST,
            "project-returns",
        );
        let return_totals = ctx.reduce_by_key(
            return_amounts,
            Self::sum_amounts(),
            None,
            AGG_COST,
            "agg-returns",
        );
        ctx.cache(return_totals);
        ctx.count(return_totals, "returns-aggregate");

        // ---- stage 4: join -------------------------------------------------
        let joined_rdd = ctx.join(order_totals, return_totals, None, JOIN_COST, "join-revenue");
        let out = ctx.collect(joined_rdd, "join");
        let mut joined: Vec<(i64, f64, f64)> = out
            .iter()
            .map(|r| match (&r.key, &r.value) {
                (Key::Int(k), Value::Pair(o, ret)) => (*k, o.as_float(), ret.as_float()),
                other => panic!("malformed join row {other:?}"),
            })
            .collect();
        joined.sort_by_key(|a| a.0);

        SqlResult { ctx, joined }
    }
}

impl Workload for Sql {
    fn name(&self) -> &str {
        "sql"
    }

    fn full_input_bytes(&self) -> u64 {
        (self.config.orders + self.config.returns) * VIRTUAL_RECORD_BYTES
    }

    fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
        self.execute(opts, conf, scale).ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::StageKind;
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
    fn pipeline_is_five_stages_with_narrow_join() {
        let w = Sql::new(SqlConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages = res.ctx.all_stages();
        assert_eq!(stages.len(), 5, "scan+agg ×2 plus the join");
        assert_eq!(stages[4].kind, StageKind::Join);
        // Narrow join: stage 4 fetches the cached sides but writes no
        // shuffle and triggers no extra map stages.
        assert_eq!(stages[4].shuffle_write_bytes, 0);
        assert!(stages[4].shuffle_read_bytes > 0);
    }

    #[test]
    fn stages_zero_to_three_shuffle() {
        let w = Sql::new(SqlConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages = res.ctx.all_stages();
        for s in &stages[..4] {
            assert!(s.shuffle_data() > 0, "stage {} should shuffle", s.stage_id);
        }
    }

    #[test]
    fn join_matches_direct_aggregation() {
        let w = Sql::new(SqlConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        // Direct computation.
        let cfg = &w.config;
        let [og, rg] = w.tables();
        let mut o_tot = std::collections::HashMap::new();
        for i in 0..cfg.orders {
            let r = og.record(i);
            if let (Key::Int(k), Value::Pair(a, _)) = (&r.key, &r.value) {
                *o_tot.entry(*k).or_insert(0.0) += a.as_float();
            }
        }
        let mut r_tot = std::collections::HashMap::new();
        for i in 0..cfg.returns {
            let r = rg.record(i);
            if let (Key::Int(k), Value::Pair(a, _)) = (&r.key, &r.value) {
                *r_tot.entry(*k).or_insert(0.0) += a.as_float();
            }
        }
        let expected: usize = o_tot.keys().filter(|k| r_tot.contains_key(k)).count();
        assert_eq!(res.joined.len(), expected);
        for (k, o, r) in &res.joined {
            assert!(
                (o - o_tot[k]).abs() < 1e-6,
                "orders total mismatch for key {k}"
            );
            assert!(
                (r - r_tot[k]).abs() < 1e-6,
                "returns total mismatch for key {k}"
            );
        }
    }

    #[test]
    fn zipf_skew_shows_in_task_durations() {
        let w = Sql::new(SqlConfig::small());
        let res = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let stages = res.ctx.all_stages();
        // The orders aggregation reduce (stage 1) sees the hot keys.
        let skew = stages[1].task_skew();
        assert!(
            skew > 1.2,
            "zipf keys should skew hash buckets, skew={skew}"
        );
    }

    #[test]
    fn copartitioning_localizes_the_join() {
        let run = |copart: bool| {
            let mut o = opts();
            o.copartition_scheduling = copart;
            // More partitions than cores → multi-wave placement, so the two
            // aggregation stages land differently without anchoring.
            o.default_parallelism = 60;
            let w = Sql::new(SqlConfig::small());
            let res = w.execute(&o, &WorkloadConf::new(), 1.0);
            let stages: Vec<_> = res.ctx.all_stages().into_iter().cloned().collect();
            stages[4].remote_read_bytes
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with, 0, "anchored sides make the join fully local");
        assert!(without > 0, "vanilla placement pays network on the join");
    }

    #[test]
    fn deterministic_runs() {
        let w = Sql::new(SqlConfig::small());
        let a = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let b = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        assert_eq!(a.joined, b.joined);
        assert_eq!(a.ctx.clock().to_bits(), b.ctx.clock().to_bits());
    }

    #[test]
    fn a_changed_key_law_never_draws_from_a_stale_table() {
        let mut w = Sql::new(SqlConfig::small());
        let first = w.execute(&opts(), &WorkloadConf::new(), 0.5);
        for change in [
            |c: &mut SqlConfig| c.keys = 37,
            |c: &mut SqlConfig| c.zipf = 0.4,
        ] {
            change(&mut w.config);
            let fresh = Sql::new(w.config.clone());
            let (a, b) = (w.tables(), fresh.tables());
            for (a, b) in a.iter().zip(&b) {
                assert!((0..4000).all(|i| a.key(i) == b.key(i)));
            }
            let reused = w.execute(&opts(), &WorkloadConf::new(), 0.5);
            assert_eq!(
                reused.joined,
                fresh.execute(&opts(), &WorkloadConf::new(), 0.5).joined
            );
            assert_ne!(reused.joined, first.joined);
        }
    }

    #[test]
    fn scale_reduces_rows() {
        let w = Sql::new(SqlConfig::small());
        let full = w.execute(&opts(), &WorkloadConf::new(), 1.0);
        let half = w.execute(&opts(), &WorkloadConf::new(), 0.5);
        assert!(half.ctx.all_stages()[0].input_records < full.ctx.all_stages()[0].input_records);
    }
}
