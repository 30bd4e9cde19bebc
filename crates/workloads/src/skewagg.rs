//! The skewed-aggregation workload — the adaptive execution layer's
//! demonstration subject.
//!
//! Three jobs over two deterministic tables:
//!
//! * **job 0 — `hot-agg`**: a group-by aggregation over a byte-skewed
//!   table ([`crate::datagen::HotTableGen`]: uniform key frequencies, a
//!   contiguous low key range carrying `fat_factor ×` payloads) under a
//!   user-fixed **range** partitioner. Sampled range bounds equalize
//!   record *counts*, so the partition holding the fat key range is
//!   byte-hot — with `--adaptive on` the engine detects it from the
//!   published per-bucket byte columns and splits it into key-preserving
//!   sub-tasks; with `--adaptive off` the hot task serializes the stage.
//! * **jobs 1–2 — `freq-agg` ×2**: the same group-by aggregation, twice,
//!   over a Zipf count-skewed table with no explicit scheme (engine
//!   default: hash). The head keys make their hash bucket byte-hot, and
//!   with `--adaptive on` each round splits it in-job like the range one.
//!
//! Aggregates are order-insensitive per key and splitting is
//! key-preserving, so the sorted output tables — and [`SkewAggResult`]'s
//! fingerprint — are bit-identical between `--adaptive on` and `off`;
//! only the simulated timings differ.

use crate::datagen::{table_bytes, HotTableGen, TableGen, ZipfSlot};
use chopper::Workload;
use engine::{
    Context, Emit, EngineOptions, GenFn, Key, PartitionerSpec, Record, Value, WorkloadConf,
};
use std::sync::Arc;

/// Skewed-aggregation workload parameters.
#[derive(Debug, Clone)]
pub struct SkewAggConfig {
    /// Rows of the byte-skewed table at full scale.
    pub rows_hot: u64,
    /// Rows of the count-skewed table at full scale (per round).
    pub rows_freq: u64,
    /// Distinct keys in both tables.
    pub keys: usize,
    /// Contiguous low keys carrying the fat payload.
    pub fat_keys: usize,
    /// Thin-row payload bytes.
    pub payload: usize,
    /// Fat-row payload multiplier.
    pub fat_factor: usize,
    /// Zipf exponent of the count-skewed table.
    pub zipf: f64,
    /// User-fixed range partitions of the `hot-agg` job.
    pub partitions: usize,
    /// Data seed.
    pub seed: u64,
    /// Compute units per scanned row.
    pub scan_cost: f64,
    /// Compute units per grouped row (reduce-side collection). Charged
    /// per *record*, so count-balanced range partitions have balanced
    /// compute — the hot partition's excess is pure byte time.
    pub group_cost: f64,
    /// Compute units per group for the narrow summarization pass.
    pub agg_cost: f64,
}

impl SkewAggConfig {
    /// Full-size instance for the `fig_adaptive` benchmark: cheap
    /// per-row compute and very fat payloads, so on a bandwidth-scaled
    /// cluster the byte-hot partition's fetch time dominates its reduce
    /// stage and splitting it pays off end to end.
    pub fn paper() -> Self {
        SkewAggConfig {
            rows_hot: 60_000,
            rows_freq: 30_000,
            keys: 4096,
            fat_keys: 320,
            payload: 64,
            fat_factor: 192,
            zipf: 1.15,
            partitions: 16,
            seed: 71,
            scan_cost: 0.005,
            group_cost: 0.004,
            agg_cost: 0.001,
        }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        SkewAggConfig {
            rows_hot: 6_000,
            rows_freq: 3_000,
            keys: 512,
            fat_keys: 48,
            payload: 8,
            fat_factor: 24,
            zipf: 1.25,
            partitions: 8,
            seed: 71,
            scan_cost: 0.12,
            group_cost: 0.02,
            agg_cost: 0.004,
        }
    }
}

/// The skewed-aggregation workload.
pub struct SkewAgg {
    /// Parameters.
    pub config: SkewAggConfig,
    /// The count-skewed table's key law, shared by every run.
    key_table: ZipfSlot,
}

/// Final state of a run.
pub struct SkewAggResult {
    /// The finished engine context.
    pub ctx: Context,
    /// `(key, amount sum, row count)` of the byte-skew aggregation,
    /// sorted by key.
    pub hot_table: Vec<(i64, f64, u64)>,
    /// The same for the final count-skew aggregation round.
    pub freq_table: Vec<(i64, f64, u64)>,
}

impl SkewAggResult {
    /// FNV-1a fingerprint over both sorted tables — bit-identical results
    /// produce equal fingerprints, any divergence (values, order, counts)
    /// changes it.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for table in [&self.hot_table, &self.freq_table] {
            eat(table.len() as u64);
            for &(k, sum, n) in table.iter() {
                eat(k as u64);
                eat(sum.to_bits());
                eat(n);
            }
        }
        h
    }
}

/// Collapses a grouped record `(key, List(Pair(amount, payload), …))`
/// into `(key, Pair(sum, count))`.
fn summarize(r: &Record) -> Record {
    let Value::List(vals) = &r.value else {
        panic!("expected grouped values, got {:?}", r.value);
    };
    let mut sum = 0.0;
    for v in vals.iter() {
        match v {
            Value::Pair(amount, _) => sum += amount.as_float(),
            other => panic!("malformed row {other:?}"),
        }
    }
    Record::new(
        r.key.clone(),
        Value::Pair(
            Box::new(Value::Float(sum)),
            Box::new(Value::Int(vals.len() as i64)),
        ),
    )
}

/// Decodes a collected summary row.
fn summary_row(r: &Record) -> (i64, f64, u64) {
    match (&r.key, &r.value) {
        (Key::Int(k), Value::Pair(sum, n)) => (*k, sum.as_float(), n.as_int() as u64),
        other => panic!("malformed summary row {other:?}"),
    }
}

impl SkewAgg {
    /// Creates the workload.
    pub fn new(config: SkewAggConfig) -> Self {
        SkewAgg {
            config,
            key_table: ZipfSlot::default(),
        }
    }

    /// The generator of the count-skewed `freq` table.
    pub fn freq_table(&self) -> TableGen {
        let cfg = &self.config;
        TableGen::over(
            self.key_table.get(cfg.keys, cfg.zipf),
            cfg.payload,
            cfg.seed ^ 0xBEEF,
        )
    }

    /// Runs the three jobs.
    pub fn execute(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> SkewAggResult {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let cfg = &self.config;
        let n_hot = ((cfg.rows_hot as f64 * scale) as u64).max(64);
        let n_freq = ((cfg.rows_freq as f64 * scale) as u64).max(64);

        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());

        // ---- job 0: byte-skewed aggregation under a fixed range scheme ----
        let hot_gen = HotTableGen::new(
            cfg.keys,
            cfg.fat_keys,
            cfg.payload,
            cfg.fat_factor,
            cfg.seed,
        );
        let g = hot_gen.clone();
        let gen_hot: GenFn =
            Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n_hot, i, parts, out));
        let hot = ctx.text_file(
            "skewagg.hot",
            hot_gen.bytes(n_hot),
            gen_hot,
            cfg.scan_cost,
            "scan-hot",
        );
        let grouped = ctx.group_by_key(
            hot,
            Some(PartitionerSpec::range(cfg.partitions)),
            cfg.group_cost,
            "group-hot",
        );
        let summarized = ctx.map_values(grouped, Arc::new(summarize), cfg.agg_cost, "sum-hot");
        let mut hot_table: Vec<(i64, f64, u64)> = ctx
            .collect(summarized, "hot-agg")
            .iter()
            .map(summary_row)
            .collect();
        hot_table.sort_by_key(|r| r.0);

        // ---- jobs 1–2: count-skewed aggregation, hash → adaptive retune ----
        let freq_gen = self.freq_table();
        let mut freq_table = Vec::new();
        for _round in 0..2 {
            let g = freq_gen.clone();
            let gen_freq: GenFn =
                Arc::new(move |i, parts, out: &mut dyn Emit| g.stream(n_freq, i, parts, out));
            // Identical tags each round → identical structural signatures,
            // so a scheme retuned after round one applies to round two.
            let freq = ctx.text_file(
                "skewagg.freq",
                freq_gen.bytes(n_freq),
                gen_freq,
                cfg.scan_cost,
                "scan-freq",
            );
            let grouped = ctx.group_by_key(freq, None, cfg.group_cost, "group-freq");
            let summarized = ctx.map_values(grouped, Arc::new(summarize), cfg.agg_cost, "sum-freq");
            let mut rows: Vec<(i64, f64, u64)> = ctx
                .collect(summarized, "freq-agg")
                .iter()
                .map(summary_row)
                .collect();
            rows.sort_by_key(|r| r.0);
            freq_table = rows;
        }

        SkewAggResult {
            ctx,
            hot_table,
            freq_table,
        }
    }
}

impl Workload for SkewAgg {
    fn name(&self) -> &str {
        "skewagg"
    }

    fn full_input_bytes(&self) -> u64 {
        let cfg = &self.config;
        let hot = HotTableGen::new(
            cfg.keys,
            cfg.fat_keys,
            cfg.payload,
            cfg.fat_factor,
            cfg.seed,
        );
        hot.bytes(cfg.rows_hot) + 2 * table_bytes(cfg.rows_freq, cfg.payload)
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

    fn opts(adaptive: bool) -> EngineOptions {
        EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 8,
            workers: 2,
            adaptive,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn three_jobs_six_stages() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let res = w.execute(&opts(false), &WorkloadConf::new(), 1.0);
        assert_eq!(res.ctx.jobs().len(), 3, "hot-agg + two freq-agg rounds");
        let stages = res.ctx.all_stages();
        assert_eq!(stages.len(), 6, "each job is a map + reduce pair");
        for pair in stages.chunks(2) {
            assert_eq!(pair[0].kind, StageKind::Source);
            assert_eq!(pair[1].kind, StageKind::Shuffle);
        }
    }

    #[test]
    fn aggregation_matches_direct_computation() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let res = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        let cfg = &w.config;
        let gen = HotTableGen::new(
            cfg.keys,
            cfg.fat_keys,
            cfg.payload,
            cfg.fat_factor,
            cfg.seed,
        );
        let mut sums = std::collections::HashMap::new();
        for i in 0..cfg.rows_hot {
            let r = gen.record(i);
            if let (Key::Int(k), Value::Pair(a, _)) = (&r.key, &r.value) {
                let e = sums.entry(*k).or_insert((0.0, 0u64));
                e.0 += a.as_float();
                e.1 += 1;
            }
        }
        assert_eq!(res.hot_table.len(), sums.len());
        for (k, sum, n) in &res.hot_table {
            let (want_sum, want_n) = sums[k];
            assert_eq!(*n, want_n, "row count mismatch for key {k}");
            assert!((sum - want_sum).abs() < 1e-6, "sum mismatch for key {k}");
        }
    }

    #[test]
    fn adaptive_on_and_off_agree_bit_for_bit() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let on = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        let off = w.execute(&opts(false), &WorkloadConf::new(), 1.0);
        assert_eq!(on.hot_table, off.hot_table);
        assert_eq!(on.freq_table, off.freq_table);
        assert_eq!(on.fingerprint(), off.fingerprint());
    }

    #[test]
    fn adaptive_beats_static_on_the_virtual_clock() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let on = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        let off = w.execute(&opts(false), &WorkloadConf::new(), 1.0);
        let t_on = on.ctx.clock();
        let t_off = off.ctx.clock();
        assert!(
            t_on < t_off,
            "splitting the hot partition must shorten the simulated run: \
             on={t_on:.4}s off={t_off:.4}s"
        );
    }

    #[test]
    fn split_fires_on_the_hot_range_stage() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let on = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        let stages = on.ctx.all_stages();
        // Stage 1 is the range group-by reduce: with adaptive on it runs
        // more virtual tasks than its physical partition count.
        assert!(
            stages[1].num_tasks > w.config.partitions,
            "hot partition should split: {} tasks over {} partitions",
            stages[1].num_tasks,
            w.config.partitions
        );
        let off = w.execute(&opts(false), &WorkloadConf::new(), 1.0);
        assert_eq!(off.ctx.all_stages()[1].num_tasks, w.config.partitions);
    }

    #[test]
    fn split_fires_on_both_hash_freq_rounds() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let on = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        let stages = on.ctx.all_stages();
        // Stages 3 and 5 are the two rounds' hash group-bys.
        for round in [&stages[3], &stages[5]] {
            assert_eq!(
                round.scheme.map(|s| s.kind),
                Some(engine::PartitionerKind::Hash)
            );
            assert!(
                round.num_tasks > w.config.partitions,
                "hot hash partition should split: {} tasks",
                round.num_tasks
            );
        }
    }

    #[test]
    fn deterministic_runs() {
        let w = SkewAgg::new(SkewAggConfig::small());
        let a = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        let b = w.execute(&opts(true), &WorkloadConf::new(), 1.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.ctx.clock().to_bits(), b.ctx.clock().to_bits());
    }
}
