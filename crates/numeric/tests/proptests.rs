//! Property-based tests for the numeric substrate.

use numeric::{
    feature_vector, least_squares, percentile, solve_linear, FeatureScaler, Matrix, Reservoir,
    NUM_FEATURES,
};
use proptest::prelude::*;

/// Strategy: a diagonally-dominant square matrix (guaranteed non-singular)
/// plus a solution vector.
fn dominant_system(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    let entry = -1.0..1.0f64;
    (
        proptest::collection::vec(proptest::collection::vec(entry.clone(), n), n),
        proptest::collection::vec(-10.0..10.0f64, n),
    )
        .prop_map(move |(mut rows, x)| {
            for (i, row) in rows.iter_mut().enumerate() {
                let off: f64 = row.iter().map(|v| v.abs()).sum();
                row[i] = off + 1.0; // strict diagonal dominance
            }
            (rows, x)
        })
}

proptest! {
    #[test]
    fn solve_roundtrips_dominant_systems((rows, x) in dominant_system(5)) {
        let a = Matrix::from_rows(&rows);
        let b = a.matvec(&x);
        let solved = solve_linear(&a, &b).expect("dominant systems are solvable");
        for (got, want) in solved.iter().zip(&x) {
            prop_assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        }
    }

    #[test]
    fn least_squares_recovers_noiseless_model(
        coeffs in proptest::collection::vec(-5.0..5.0f64, NUM_FEATURES),
        // observation grid large enough to be overdetermined and varied
        seeds in proptest::collection::vec((0.05..1.0f64, 0.05..1.0f64), 20..40)
    ) {
        let rows: Vec<Vec<f64>> = seeds.iter().map(|&(d, p)| feature_vector(d, p)).collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows.iter()
            .map(|r| r.iter().zip(&coeffs).map(|(a, b)| a * b).sum())
            .collect();
        let beta = least_squares(&x, &y).expect("fit should succeed");
        // The basis can be near-collinear on random grids, so compare
        // predictions rather than coefficients.
        for (row, want) in rows.iter().zip(&y) {
            let got: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            prop_assert!((got - want).abs() < 1e-4 * (1.0 + want.abs()),
                "prediction {got} vs {want}");
        }
    }

    #[test]
    fn transpose_is_involution(rows in proptest::collection::vec(
        proptest::collection::vec(-100.0..100.0f64, 4), 1..8)) {
        let a = Matrix::from_rows(&rows);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associative_with_vector(
        rows in proptest::collection::vec(proptest::collection::vec(-3.0..3.0f64, 3), 3..6),
        v in proptest::collection::vec(-3.0..3.0f64, 3),
    ) {
        // (A * I) v == A v
        let a = Matrix::from_rows(&rows);
        let ai = a.matmul(&Matrix::identity(3));
        let lhs = ai.matvec(&v);
        let rhs = a.matvec(&v);
        for (x, y) in lhs.iter().zip(&rhs) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn percentile_is_monotone(values in proptest::collection::vec(-1e3..1e3f64, 1..50)) {
        let p25 = percentile(&values, 0.25);
        let p50 = percentile(&values, 0.50);
        let p75 = percentile(&values, 0.75);
        prop_assert!(p25 <= p50 && p50 <= p75);
    }

    #[test]
    fn reservoir_size_invariant(cap in 1usize..64, n in 0usize..500, seed in any::<u64>()) {
        let mut r = Reservoir::new(cap, seed);
        for i in 0..n {
            r.offer(i);
        }
        prop_assert_eq!(r.items().len(), cap.min(n));
        prop_assert_eq!(r.seen(), n as u64);
        // every kept item must have actually been offered
        for &it in r.items() {
            prop_assert!(it < n);
        }
    }

    #[test]
    fn scaler_maps_training_points_into_unit_box(
        pts in proptest::collection::vec((1.0..1e9f64, 1.0..4096.0f64), 1..20)
    ) {
        let s = FeatureScaler::from_observations(&pts);
        for &(d, p) in &pts {
            let (ds, ps) = s.scale(d, p);
            prop_assert!(ds > 0.0 && ds <= 1.0 + 1e-12);
            prop_assert!(ps > 0.0 && ps <= 1.0 + 1e-12);
        }
    }
}
