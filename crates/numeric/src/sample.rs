//! Deterministic reservoir sampling and random draws.
//!
//! Spark's range partitioner estimates key-range bounds by sampling the RDD
//! contents; our engine does the same. The sampler here is seeded explicitly
//! (an xorshift64* generator — no external RNG dependency) so partitioning
//! decisions, and therefore every experiment, are reproducible. The same
//! generator draws standard normals by the ziggurat method
//! ([`XorShift64::next_normal`]), which the point generators call once per
//! coordinate.

use std::sync::OnceLock;

/// A fixed-capacity reservoir sampler (Vitter's Algorithm R).
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng: XorShift64,
}

impl<T> Reservoir<T> {
    /// Creates a reservoir that keeps at most `capacity` items, using the
    /// given RNG seed.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: XorShift64::new(seed),
        }
    }

    /// Offers one item to the reservoir.
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = self.rng.next_below(self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Total number of items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sampled items (at most `capacity`, in insertion/replacement order).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the reservoir, returning the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// xorshift64* PRNG — tiny, fast, deterministic, good enough for sampling.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed (0 is remapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)` via rejection-free multiply-shift.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift; slight modulo bias is irrelevant for sampling.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard-normal draw by Marsaglia & Tsang's 256-layer ziggurat
    /// (2000). About 99 % of draws cost one [`next_u64`](Self::next_u64),
    /// one table lookup and one compare: its top 8 bits pick a layer, its
    /// low 52 bits a signed abscissa in `[-1, 1)` scaled by the layer's
    /// width, and an abscissa inside the next layer's width lies under the
    /// density. The rest pay one `exp` (a wedge) or, past the base layer's
    /// rectangle, Marsaglia's `ln` tail method.
    #[inline]
    pub fn next_normal(&mut self) -> f64 {
        self.normal_from(ziggurat())
    }

    /// Standard-normal draws forever: [`next_normal`](Self::next_normal)
    /// after [`next_normal`](Self::next_normal), with the tables fetched
    /// once for the whole stream rather than once per draw.
    pub fn normals(mut self) -> impl Iterator<Item = f64> {
        let z = ziggurat();
        std::iter::repeat_with(move || self.normal_from(z))
    }

    /// One draw: the common case inline, the rest out of line.
    #[inline]
    fn normal_from(&mut self, z: &Ziggurat) -> f64 {
        let (i, u) = self.layer_draw();
        let x = u * z.x[i];
        if x.abs() < z.x[i + 1] {
            return x;
        }
        self.normal_rest(z, i, u, x)
    }

    /// A layer and a signed abscissa in `[-1, 1)` from one output.
    #[inline]
    fn layer_draw(&mut self) -> (usize, f64) {
        let bits = self.next_u64();
        let u = 2.0 * f64::from_bits(ONE_BITS | (bits & MANTISSA)) - 3.0;
        ((bits >> 56) as usize, u)
    }

    /// A draw whose first try `x = u · x[i]` fell outside layer `i + 1`'s
    /// width: the tail, the wedge test, or a fresh try.
    #[cold]
    #[inline(never)]
    fn normal_rest(&mut self, z: &Ziggurat, mut i: usize, mut u: f64, mut x: f64) -> f64 {
        loop {
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            if z.f[i] + (z.f[i + 1] - z.f[i]) * self.next_f64() < density(x) {
                return x;
            }
            (i, u) = self.layer_draw();
            x = u * z.x[i];
            if x.abs() < z.x[i + 1] {
                return x;
            }
        }
    }

    /// A draw from the normal tail beyond `±ZIG_R` (Marsaglia, 1964).
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // `1 - next_f64()` lies in (0, 1], so both logs are finite.
            let x = -(1.0 - self.next_f64()).ln() / ZIG_R;
            let y = -(1.0 - self.next_f64()).ln();
            if 2.0 * y >= x * x {
                return if negative { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }
}

/// The bits of `1.0_f64`: OR-ed with 52 random mantissa bits they give a
/// uniform value in `[1, 2)`.
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
/// The 52 mantissa bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;
/// Layers of the normal ziggurat, each of area [`ZIG_V`].
const ZIG_LAYERS: usize = 256;
/// Where the base layer's rectangle ends and its tail begins.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The area of every layer under [`density`]. Marsaglia & Tsang print it
/// to 12 digits (`4.92867323399e-3`); these 16 are `R·f(R)` plus the tail
/// integral, which closes the top layer to ~1e-13 instead of ~1e-9.
const ZIG_V: f64 = 4.928673233974655e-3;

/// The unnormalized standard-normal density `exp(-x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The layer tables: layer `i` is the rectangle `[0, x[i]] × [f[i],
/// f[i+1]]`, where `f[i] = density(x[i])`. `x[0] = V / f(R)` is the base
/// layer's width (its rectangle up to `R` plus the tail folded into the
/// same area), `x[1] = R`, and `x` falls strictly to `x[256] = 0`.
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

impl Ziggurat {
    /// Builds the tables from the recurrence that gives every layer area
    /// `V`: `x[i+1] = density⁻¹(V / x[i] + f(x[i]))`. The top layer's
    /// right edge is `0` by definition, not by the recurrence.
    fn build() -> Self {
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + density(x[i])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    }
}

/// The ziggurat tables, built on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_when_under_capacity() {
        let mut r = Reservoir::new(10, 42);
        for i in 0..5 {
            r.offer(i);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut r = Reservoir::new(8, 7);
        for i in 0..1000 {
            r.offer(i);
        }
        assert_eq!(r.items().len(), 8);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(16, seed);
            for i in 0..500 {
                r.offer(i);
            }
            r.into_items()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Offer 0..10_000 into a reservoir of 1000; mean of the kept sample
        // should be near the population mean of ~5000.
        let mut r = Reservoir::new(1000, 12345);
        for i in 0..10_000u64 {
            r.offer(i as f64);
        }
        let mean: f64 = r.items().iter().sum::<f64>() / r.items().len() as f64;
        assert!(
            (mean - 5000.0).abs() < 500.0,
            "sample mean {mean} too far from 5000"
        );
    }

    #[test]
    fn xorshift_next_below_respects_bound() {
        let mut rng = XorShift64::new(3);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn xorshift_f64_in_unit_interval() {
        let mut rng = XorShift64::new(5);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: Reservoir<u32> = Reservoir::new(0, 1);
    }

    /// The stream is the single draw repeated: the same bits, the wedge
    /// and the tail included, from the same generator state.
    #[test]
    fn normals_are_next_normal_draw_for_draw() {
        for seed in [1, 0x5EED, u64::MAX] {
            let mut one = XorShift64::new(seed);
            let stream = XorShift64::new(seed).normals().take(1 << 18);
            for (i, z) in stream.enumerate() {
                assert_eq!(
                    z.to_bits(),
                    one.next_normal().to_bits(),
                    "draw {i}, seed {seed}"
                );
            }
        }
    }

    /// Moments and tail mass of 2^20 draws, each within 4σ of the standard
    /// normal's. The tail beyond `R` is the ziggurat's rarest path.
    #[test]
    fn normal_draws_follow_the_standard_normal() {
        const N: usize = 1 << 20;
        let n = N as f64;
        let mut rng = XorShift64::new(0x5EED);
        let (mut m1, mut m2, mut m4, mut tail) = (0.0, 0.0, 0.0, 0usize);
        for _ in 0..N {
            let x = rng.next_normal();
            m1 += x;
            m2 += x * x;
            m4 += x.powi(4);
            tail += usize::from(x.abs() > ZIG_R);
        }
        let (mean, var) = (m1 / n, m2 / n - (m1 / n).powi(2));
        let kurtosis = m4 / n / var.powi(2);
        // Two-sided mass beyond R: the base layer's area less its rectangle
        // up to R, twice, over the density's integral √(2π).
        let p = 2.0 * (ZIG_V - ZIG_R * density(ZIG_R)) / std::f64::consts::TAU.sqrt();
        assert!((p - 2.58e-4).abs() < 1e-6, "tail mass {p}");
        let within = |got: f64, want: f64, sd: f64| (got - want).abs() < 4.0 * sd;
        assert!(within(mean, 0.0, (1.0 / n).sqrt()), "mean {mean}");
        assert!(within(var, 1.0, (2.0 / n).sqrt()), "variance {var}");
        assert!(
            within(kurtosis, 3.0, (24.0 / n).sqrt()),
            "kurtosis {kurtosis}"
        );
        let share = tail as f64 / n;
        assert!(within(share, p, (p * (1.0 - p) / n).sqrt()), "tail {share}");
    }

    /// The built layers fall strictly to 0 and each has area `V`; the base
    /// layer's area is its rectangle up to `R` plus the tail integral.
    #[test]
    fn every_ziggurat_layer_has_area_v() {
        let z = ziggurat();
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "{:?}", z.x);
        assert_eq!(z.x[ZIG_LAYERS], 0.0);
        assert_eq!(z.x[1], ZIG_R);
        let close = |area: f64| ((area - ZIG_V) / ZIG_V).abs() < 1e-9;
        for i in 1..ZIG_LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(close(area), "layer {i}: area {area}");
        }
        // Simpson's rule over [R, R + 14]; the density is ~1e-57 beyond.
        let (steps, h) = (100_000, 14.0 / 100_000.0);
        let weight = |k: usize| match k {
            0 => 1.0,
            k if k == steps => 1.0,
            k if k % 2 == 1 => 4.0,
            _ => 2.0,
        };
        let tail: f64 = (0..=steps)
            .map(|k| weight(k) * density(ZIG_R + k as f64 * h))
            .sum::<f64>()
            * h
            / 3.0;
        let base = ZIG_R * density(ZIG_R) + tail;
        assert!(close(base), "base layer: area {base}");
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut a = XorShift64::new(0);
        // Must not get stuck at zero.
        assert_ne!(a.next_u64(), 0);
    }
}
