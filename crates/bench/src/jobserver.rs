//! Multi-tenant contention sweep over the job server
//! (`results/BENCH_jobserver.json`, `jobserver.txt`, `fig_tenants.txt`).
//!
//! Every figure here is *virtual-clock* time from the simulated cluster:
//! a fixed trace + seed produces bit-identical latencies on any host, so
//! `repro jobserver` regenerates the committed report verbatim and CI's
//! doc-sync step (`repro all`, then `git diff --exit-code -- results/`)
//! pins it. The two floors the sweep is read by — the concurrent
//! 16-tenant server at least 2x the serial one, fair below FIFO on
//! interactive p99 — are asserted on the same trace by
//! `crates/jobserver/tests/fairness.rs`; host wall-clock is measured by
//! `benchmark/` alone.

use jobserver::{generate, serve, Interleave, Policy, ServerConfig};
use serde::Serialize;

/// Tenant counts swept by the contention benchmark.
pub const TENANT_COUNTS: [usize; 3] = [1, 4, 16];
/// Jobs per tenant at every sweep point (so load scales with tenants).
pub const JOBS_PER_TENANT: usize = 14;
/// Loadgen seed shared by every sweep point.
pub const TRACE_SEED: u64 = 5;
/// Concurrent dispatch slots for the contended rows.
pub const SLOTS: usize = 8;

/// Bench-sized engine: the small uniform cluster the jobserver test
/// suite uses, so a 16-tenant trace serves in seconds.
fn bench_engine() -> engine::EngineOptions {
    engine::EngineOptions {
        cluster: simcluster::uniform_cluster(4, 4, 2.0),
        default_parallelism: 8,
        block_size: 128 * 1024,
        workers: 4,
        ..jobserver::server_engine_defaults()
    }
}

/// One (tenant count, policy) sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct ContentionRow {
    /// Tenants in the trace.
    pub tenants: usize,
    /// Scheduling policy (`"fair"` or `"fifo"`).
    pub policy: String,
    /// Concurrent dispatch slots.
    pub slots: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Median job latency, virtual seconds.
    pub p50_latency: f64,
    /// p99 job latency over all tenants, virtual seconds.
    pub p99_latency: f64,
    /// p99 latency over interactive tenants only (the fairness headline).
    pub p99_interactive: f64,
    /// Completed jobs per virtual second.
    pub throughput: f64,
    /// Last completion, virtual seconds.
    pub makespan: f64,
}

/// The whole `BENCH_jobserver.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct JobserverReport {
    /// Always `"jobserver"`.
    pub experiment: String,
    /// Fair + FIFO rows per tenant count.
    pub rows: Vec<ContentionRow>,
    /// 16-tenant trace, fair policy, one slot: the serial baseline.
    pub serial_throughput: f64,
    /// 16-tenant fair throughput over [`Self::serial_throughput`].
    pub speedup_16: f64,
}

impl JobserverReport {
    /// Renders the report as indented JSON (what gets committed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Looks up a sweep point.
    pub fn row(&self, tenants: usize, policy: &str) -> Option<&ContentionRow> {
        self.rows
            .iter()
            .find(|r| r.tenants == tenants && r.policy == policy)
    }
}

/// Runs the contention sweep. Deterministic: virtual-clock figures only.
pub fn measure_jobserver() -> JobserverReport {
    let mut rows = Vec::new();
    let mut serial_throughput = 0.0;
    for &tenants in &TENANT_COUNTS {
        let trace = generate(tenants, tenants * JOBS_PER_TENANT, TRACE_SEED);
        for policy in [Policy::Fair, Policy::Fifo] {
            let cfg = ServerConfig {
                policy,
                slots: SLOTS,
                engine: bench_engine(),
                interleave: Interleave::TenantThreads,
                ..ServerConfig::default()
            };
            let rep = serve(&trace, &cfg).expect("bench trace serves");
            assert_eq!(
                rep.completed,
                trace.jobs.len(),
                "bench trace must not reject"
            );
            rows.push(ContentionRow {
                tenants,
                policy: policy.name().to_string(),
                slots: SLOTS,
                jobs: trace.jobs.len(),
                p50_latency: rep.p50_latency,
                p99_latency: rep.p99_latency,
                p99_interactive: rep.p99_interactive,
                throughput: rep.throughput,
                makespan: rep.makespan,
            });
        }
        if tenants == 16 {
            let cfg = ServerConfig {
                policy: Policy::Fair,
                slots: 1,
                engine: bench_engine(),
                interleave: Interleave::TenantThreads,
                ..ServerConfig::default()
            };
            serial_throughput = serve(&trace, &cfg).expect("serial trace serves").throughput;
        }
    }
    let fair16 = rows
        .iter()
        .find(|r| r.tenants == 16 && r.policy == "fair")
        .expect("16-tenant fair row present")
        .throughput;
    JobserverReport {
        experiment: "jobserver".to_string(),
        rows,
        serial_throughput,
        speedup_16: fair16 / serial_throughput,
    }
}
