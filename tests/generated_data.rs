//! Tier-1 pin of the generated input data: the first 100 000 `(key,
//! amount)` pairs of the paper-sized SQL `orders` and `returns` tables and
//! of the skewed-aggregation workload's Zipf `freq` table, hashed. The
//! Zipf sampler may be rewritten for speed; what it draws may not change.

use chopper_repro::engine::{Emit, Key, Record, Value};
use chopper_repro::workloads::datagen::TableGen;
use chopper_repro::workloads::{SkewAgg, SkewAggConfig, Sql, SqlConfig};

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
