//! SparkBench-style workloads over the mini DAG engine.
//!
//! The three workloads the CHOPPER paper evaluates (Section IV / Table I),
//! rebuilt on the reproduction engine with the same stage structure the
//! paper reports:
//!
//! * [`kmeans`] — 20 stages: heavy parse (stage 0), eleven light prep
//!   passes (1–11), three shuffling Lloyd iterations (12–17), final
//!   histogram (18–19).
//! * [`pca`] — mean + covariance row-block shuffles, driver-side power
//!   iteration; computation- and network-intensive.
//! * [`sql`] — scan/aggregate/join over Zipf-skewed tables; the join is
//!   narrow over two cached co-partitionable aggregates (Figs. 9–10).
//! * [`logreg`] — logistic regression by distributed gradient descent, an
//!   extra iterative subject beyond the paper's three.
//! * [`skewagg`] — byte- and count-skewed group-by aggregations, whose
//!   hot partitions only the partitioner and P can spread.
//!
//! All input data comes from the deterministic generators in [`datagen`];
//! rerunning any workload with the same seed reproduces results, shuffle
//! volumes, and virtual timings bit-for-bit.

pub mod datagen;
pub mod kmeans;
pub mod logreg;
pub mod pca;
pub mod skewagg;
pub mod sql;

pub use datagen::{HotTableGen, PointGen, TableGen};
pub use kmeans::{KMeans, KMeansConfig, KMeansResult};
pub use logreg::{LogReg, LogRegConfig, LogRegResult};
pub use pca::{Pca, PcaConfig, PcaResult};
pub use skewagg::{SkewAgg, SkewAggConfig, SkewAggResult};
pub use sql::{Sql, SqlConfig, SqlResult};
