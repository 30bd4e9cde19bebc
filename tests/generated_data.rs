//! Tier-1 pin of the generated input data: the first 100 000 `(key,
//! amount)` pairs of the paper-sized SQL `orders` and `returns` tables and
//! of the skewed-aggregation workload's Zipf `freq` table, and the first
//! 20 000 points of the paper-sized KMeans, PCA and LogReg inputs, hashed.
//! The Zipf and normal samplers may be rewritten for speed; what they draw
//! may not change.

use chopper_repro::engine::{Emit, Key, Record, Value};
use chopper_repro::workloads::datagen::TableGen;
use chopper_repro::workloads::{
    KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig, SkewAgg, SkewAggConfig, Sql,
    SqlConfig,
};

/// Rows hashed per table.
const ROWS: u64 = 100_000;

/// FNV-1a over each streamed row's key and amount bits.
struct Fingerprint(u64);

impl Fingerprint {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl Emit for Fingerprint {
    fn emit(&mut self, rec: Record) {
        self.lend(&rec);
    }
    fn lend(&mut self, rec: &Record) {
        match (&rec.key, &rec.value) {
            (Key::Int(k), Value::Pair(amount, _)) => {
                self.eat(*k as u64);
                self.eat(amount.as_float().to_bits());
            }
            other => panic!("unexpected row shape {other:?}"),
        }
    }
}

/// The fingerprint of `gen`'s first [`ROWS`] rows.
fn fingerprint(gen: &TableGen) -> u64 {
    let mut fp = Fingerprint(0xCBF2_9CE4_8422_2325);
    gen.stream(ROWS, 0, 1, &mut fp);
    fp.0
}

#[test]
fn paper_tables_draw_the_pinned_rows() {
    let [orders, returns] = Sql::new(SqlConfig::paper()).tables();
    let freq = SkewAgg::new(SkewAggConfig::paper()).freq_table();
    let got = [&orders, &returns, &freq].map(fingerprint);
    assert_eq!(
        got,
        [
            0x4956_66cc_a50c_b207,
            0x06c6_6aca_5402_1768,
            0x21c0_214a_472d_e309
        ],
        "{got:#018x?}"
    );
}

/// Points hashed per generator.
const POINTS: u64 = 20_000;

/// FNV-1a over each streamed point's key and coordinate bits.
struct PointPrint(Fingerprint);

impl Emit for PointPrint {
    fn emit(&mut self, rec: Record) {
        self.lend(&rec);
    }
    fn lend(&mut self, rec: &Record) {
        match (&rec.key, &rec.value) {
            (Key::Int(k), Value::Vector(coords)) => {
                self.0.eat(*k as u64);
                for c in coords.iter() {
                    self.0.eat(c.to_bits());
                }
            }
            other => panic!("unexpected point shape {other:?}"),
        }
    }
}

#[test]
fn paper_points_draw_the_pinned_coordinates() {
    let gens = [
        KMeans::new(KMeansConfig::paper()).points(),
        Pca::new(PcaConfig::paper()).points(),
        LogReg::new(LogRegConfig::paper()).points(),
    ];
    let got = gens.map(|gen| {
        let mut fp = PointPrint(Fingerprint(0xCBF2_9CE4_8422_2325));
        gen.stream(POINTS, 0, 1, &mut fp);
        fp.0 .0
    });
    assert_eq!(
        got,
        [
            0xa71a_f0fa_ccf4_ba0b,
            0xbcb8_e8e2_1720_90bd,
            0x6a4b_a150_16ae_4e5e
        ],
        "{got:#018x?}"
    );
}
