//! Small, dependency-free numerical substrate for the CHOPPER reproduction.
//!
//! CHOPPER (CLUSTER 2016) models per-stage execution time and shuffle volume
//! as linear combinations of polynomial/sub-linear features of the input size
//! `D` and the partition count `P` (paper Eq. 1–2), fitted by least squares
//! over observations gathered from test runs. This crate provides exactly the
//! numerical machinery that requires:
//!
//! * [`matrix::Matrix`] — dense row-major matrices with the handful of
//!   operations the fitting pipeline needs,
//! * [`solve`] — Gaussian elimination with partial pivoting and
//!   (ridge-regularized) normal-equation least squares,
//! * [`features`] — the paper's 8-term feature basis over `(D, P)`,
//! * [`stats`] — percentiles of a sample,
//! * [`sample`] — deterministic reservoir sampling used by the range
//!   partitioner to estimate key-range bounds, and the seeded generator
//!   whose ziggurat normal draws ([`XorShift64::next_normal`]) the point
//!   generators use.
//!
//! Everything is deterministic and `f64`-based; no external linear-algebra
//! dependency is used.

pub mod features;
pub mod matrix;
pub mod sample;
pub mod solve;
pub mod stats;

pub use features::{
    extended_feature_vector, feature_names, feature_vector, FeatureScaler, NUM_FEATURES,
    NUM_FEATURES_EXTENDED,
};
pub use matrix::Matrix;
pub use sample::{Reservoir, XorShift64};
pub use solve::{least_squares, least_squares_ridge, r_squared, solve_linear, SolveError};
pub use stats::percentile;
