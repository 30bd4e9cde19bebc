//! Multi-tenant job server over the mini DAG engine.
//!
//! The engine's [`engine::Context`] is a single-tenant driver: one
//! program, one lineage graph, one virtual cluster. This crate promotes
//! it into a long-lived **job server** that admits a stream of jobs from
//! multiple tenants:
//!
//! * [`trace_file`] — the job-trace text format (`tenant`/`job` lines)
//!   and the deterministic load generator behind `chopper-cli loadgen`.
//! * [`jobs`] — per-tenant runtimes: four workload kinds (wordcount,
//!   sql, kmeans, logreg) built over one persistent context per tenant,
//!   with cross-job reuse of cached source RDDs: a dataset is cached only
//!   if another job of the trace reads it, and released after the last.
//! * [`server`] — bounded-queue admission, weighted-fair (SFQ) or FIFO
//!   dispatch, tenant memory budgets via [`memman::TenantLedger`], and a
//!   fluid contention model on the server's virtual clock.
//!
//! The cross-cutting invariant, inherited from the engine: **data is
//! real, time is virtual**. Tenant data planes really execute — on one
//! shared host [`engine::WorkerPool`], capped per tenant — while every
//! scheduling decision keys on virtual-clock state only. A fixed trace
//! therefore produces bit-identical per-job result tables and latencies
//! across worker counts, row/columnar layouts, and physical
//! interleavings; `tests/server_equivalence.rs` pins this.

pub mod jobs;
pub mod server;
pub mod trace_file;

pub use jobs::{mem_demand, JobOutcome, TenantRuntime};
pub use server::{
    serve, server_engine_defaults, Interleave, JobRow, Policy, ServeReport, ServerConfig,
};
pub use trace_file::{generate, parse_mem, JobKind, JobRequest, JobTrace, TenantSpec};
