//! Multi-tenant contention benchmark over the job server, plus its CI
//! gate (`results/BENCH_jobserver.json`).
//!
//! Every figure here is *virtual-clock* time from the simulated cluster:
//! a fixed trace + seed produces bit-identical latencies on any host, so
//! the committed baseline is regenerated verbatim by `repro jobserver`
//! and participates in the doc-sync drift check.
//! The gate still applies the shared perfgate tolerance so deliberate
//! cost-model recalibrations inside the band do not require a lockstep
//! baseline refresh.

use jobserver::{generate, serve, Interleave, Policy, ServerConfig};
use serde::{Deserialize, Serialize};

/// Tenant counts swept by the contention benchmark.
pub const TENANT_COUNTS: [usize; 3] = [1, 4, 16];
/// Jobs per tenant at every sweep point (so load scales with tenants).
pub const JOBS_PER_TENANT: usize = 14;
/// Loadgen seed shared by every sweep point.
pub const TRACE_SEED: u64 = 5;
/// Concurrent dispatch slots for the contended rows.
pub const SLOTS: usize = 8;
/// Hard floor: 16-tenant fair-share throughput over the same trace run
/// serially (one slot), regardless of what the baseline says.
pub const JOBSERVER_SPEEDUP_FLOOR: f64 = 2.0;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Parses a report from JSON text.
    pub fn parse(text: &str) -> Result<JobserverReport, String> {
        serde_json::from_str(text).map_err(|e| format!("parse jobserver report: {e}"))
    }

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

/// Gate verdicts for the job server, `(label, passed)` per check, in the
/// style of perfgate's memory and fault gates.
///
/// Relative checks against the committed baseline (p99 latency must not
/// rise, throughput must not fall, by more than `tolerance`), plus two
/// absolute floors independent of the baseline: 16-tenant concurrency
/// must beat the serial server by [`JOBSERVER_SPEEDUP_FLOOR`], and the
/// fair policy must beat FIFO on interactive p99 under 16-tenant
/// contention.
pub fn jobserver_gate_checks(
    baseline: &JobserverReport,
    fresh: &JobserverReport,
    tolerance: f64,
) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    for b in &baseline.rows {
        let label = format!("{}x {}", b.tenants, b.policy);
        let Some(f) = fresh.row(b.tenants, &b.policy) else {
            checks.push((
                format!("jobserver {label}: missing from fresh report"),
                false,
            ));
            continue;
        };
        checks.push((
            format!(
                "jobserver {label} p99 {:.3}s vs baseline {:.3}s (+{:.0}% cap)",
                f.p99_latency,
                b.p99_latency,
                tolerance * 100.0
            ),
            f.p99_latency <= b.p99_latency * (1.0 + tolerance),
        ));
        checks.push((
            format!(
                "jobserver {label} throughput {:.3}/s vs baseline {:.3}/s (-{:.0}% cap)",
                f.throughput,
                b.throughput,
                tolerance * 100.0
            ),
            f.throughput >= b.throughput * (1.0 - tolerance),
        ));
    }
    checks.push((
        format!(
            "jobserver 16-tenant throughput {:.2}x serial (hard floor {JOBSERVER_SPEEDUP_FLOOR:.1}x)",
            fresh.speedup_16
        ),
        fresh.speedup_16 >= JOBSERVER_SPEEDUP_FLOOR,
    ));
    match (fresh.row(16, "fair"), fresh.row(16, "fifo")) {
        (Some(fair), Some(fifo)) => checks.push((
            format!(
                "jobserver fair p99_interactive {:.3}s < fifo {:.3}s at 16 tenants",
                fair.p99_interactive, fifo.p99_interactive
            ),
            fair.p99_interactive < fifo.p99_interactive,
        )),
        _ => checks.push((
            "jobserver 16-tenant fair/fifo rows missing from fresh report".to_string(),
            false,
        )),
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobserverReport {
        JobserverReport {
            experiment: "jobserver".into(),
            rows: vec![
                ContentionRow {
                    tenants: 16,
                    policy: "fair".into(),
                    slots: 8,
                    jobs: 224,
                    p50_latency: 3.0,
                    p99_latency: 20.0,
                    p99_interactive: 6.7,
                    throughput: 2.5,
                    makespan: 90.0,
                },
                ContentionRow {
                    tenants: 16,
                    policy: "fifo".into(),
                    slots: 8,
                    jobs: 224,
                    p50_latency: 5.4,
                    p99_latency: 16.6,
                    p99_interactive: 9.2,
                    throughput: 2.5,
                    makespan: 90.0,
                },
            ],
            serial_throughput: 1.0,
            speedup_16: 2.5,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        assert_eq!(JobserverReport::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn identical_reports_pass_every_check() {
        let r = sample();
        let checks = jobserver_gate_checks(&r, &r, 0.15);
        assert!(checks.iter().all(|(_, ok)| *ok), "{checks:?}");
    }

    #[test]
    fn regressions_and_floor_misses_fail() {
        let base = sample();
        let mut slow = base.clone();
        slow.rows[0].p99_latency *= 1.30;
        assert!(
            jobserver_gate_checks(&base, &slow, 0.15)
                .iter()
                .any(|(name, ok)| !ok && name.contains("p99")),
            "a 30% p99 regression must fail a 15% gate"
        );
        let mut starved = base.clone();
        starved.speedup_16 = 1.4;
        assert!(
            jobserver_gate_checks(&base, &starved, 0.15)
                .iter()
                .any(|(name, ok)| !ok && name.contains("hard floor")),
            "speedup below the absolute floor must fail"
        );
        let mut unfair = base.clone();
        unfair.rows[0].p99_interactive = 10.0;
        assert!(
            jobserver_gate_checks(&base, &unfair, 0.15)
                .iter()
                .any(|(name, ok)| !ok && name.contains("p99_interactive")),
            "fair losing to fifo on interactive p99 must fail"
        );
    }

    #[test]
    fn missing_rows_fail_closed() {
        let base = sample();
        let empty = JobserverReport {
            rows: Vec::new(),
            ..base.clone()
        };
        let checks = jobserver_gate_checks(&base, &empty, 0.15);
        assert!(
            checks.iter().filter(|(_, ok)| !ok).count() >= 3,
            "{checks:?}"
        );
    }
}
