//! The multi-tenant job server: bounded-queue admission, weighted-fair
//! (start-time fair queueing) or FIFO dispatch, tenant-scoped memory
//! budgets, and a deterministic fluid contention model.
//!
//! # Two clocks, one more time
//!
//! The engine already splits *data* (real, host threads) from *timing*
//! (virtual cluster). The server adds a third layer with the same split:
//! jobs **execute** for real on tenant contexts sharing one host worker
//! pool, but **when** they dispatch and complete is decided on the
//! server's own virtual clock by a fluid processor-sharing model fed with
//! each job's uncontended service time and core demand. Scheduling state
//! (virtual time, fair tags, queue contents, the memory ledger) is keyed
//! only on trace content — never on host timing — so a fixed trace + seed
//! replays bit-identically regardless of worker count or how tenant
//! executions physically interleave.
//!
//! # Scheduling
//!
//! * **Admission**: arrivals enter a bounded server-wide queue
//!   (per-tenant FIFO order is preserved); overflow is rejected.
//! * **Dispatch** fills `slots` concurrently-running jobs. `Policy::Fair`
//!   implements start-time fair queueing over tenant flows: a job's start
//!   tag is `max(v, tenant finish tag)`, the smallest tag dispatches
//!   first, and the tenant's finish tag advances by `service /
//!   weight` — so a tenant's backlog cannot starve light tenants.
//!   `Policy::Fifo` dispatches strictly by arrival time.
//! * **Memory**: dispatch must first reserve the job's (deterministic,
//!   pre-execution) memory demand from the tenant's
//!   [`memman::TenantLedger`] budget — a per-tenant guarantee plus a
//!   shared overflow pool. Denied reservations stall the job without
//!   blocking other tenants.
//! * **Contention**: running jobs share the virtual cluster's cores by
//!   weighted water-filling; a job's progress rate is capped at 1 (its
//!   solo speed) and shrinks when demand exceeds capacity.

use std::sync::Arc;

use engine::{EngineOptions, FaultPlan, WorkerPool};
use memman::TenantLedger;
use serde::{Deserialize, Serialize};
use trace::{pids, ArgValue, Clock, TraceSink, Track};

use crate::jobs::{mem_demand, JobOutcome, TenantRuntime};
use crate::trace_file::JobTrace;

/// Dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Start-time fair queueing over tenant flows, weighted.
    Fair,
    /// Strict arrival order, tenants undifferentiated.
    Fifo,
}

impl Policy {
    /// Parses the CLI token.
    pub fn parse(s: &str) -> Result<Policy, String> {
        match s {
            "fair" => Ok(Policy::Fair),
            "fifo" => Ok(Policy::Fifo),
            other => Err(format!("unknown policy '{other}' (expected fair|fifo)")),
        }
    }

    /// The CLI token.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fair => "fair",
            Policy::Fifo => "fifo",
        }
    }
}

/// How tenant executions physically interleave on the host. Purely a
/// host-side choice — reports are bit-identical across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Execute each job inline at its dispatch point, one at a time.
    Serial,
    /// Pre-execute every tenant's job stream on its own OS thread, all
    /// tenants concurrently on the shared pool; the scheduler then
    /// consumes recorded outcomes. Requires `queue_cap >= jobs` (a
    /// rejected job must not execute).
    TenantThreads,
}

/// Server configuration.
pub struct ServerConfig {
    /// Dispatch policy.
    pub policy: Policy,
    /// Concurrent running-job slots.
    pub slots: usize,
    /// Bounded admission-queue capacity (queued, not yet dispatched).
    pub queue_cap: usize,
    /// Shared memory overflow pool in bytes.
    pub mem_shared: u64,
    /// Default per-tenant memory guarantee (a trace `tenant ... mem`
    /// clause overrides it).
    pub mem_guarantee: u64,
    /// Engine options for every tenant context (cluster, workers,
    /// parallelism). `shared_pool` is overwritten by the server.
    pub engine: EngineOptions,
    /// Host-side execution interleaving.
    pub interleave: Interleave,
    /// Server-level trace sink (queue depth, per-job spans).
    pub trace: TraceSink,
    /// Fault plans by tenant name — that tenant's context runs with
    /// deterministic fault injection enabled.
    pub fault_plans: Vec<(String, FaultPlan)>,
}

/// Engine defaults tuned for many small jobs: modest parallelism and
/// small blocks so a scale-0.1 job still has a few tasks per stage.
pub fn server_engine_defaults() -> EngineOptions {
    EngineOptions {
        default_parallelism: 12,
        block_size: 256 * 1024,
        ..EngineOptions::default()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            policy: Policy::Fair,
            slots: 8,
            queue_cap: 1024,
            mem_shared: 1 << 30,
            mem_guarantee: 256 << 20,
            engine: server_engine_defaults(),
            interleave: Interleave::TenantThreads,
            trace: TraceSink::disabled(),
            fault_plans: Vec::new(),
        }
    }
}

/// One completed job's row in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRow {
    /// Trace job id.
    pub id: usize,
    /// Tenant name.
    pub tenant: String,
    /// Workload kind token.
    pub kind: String,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Dispatch time (virtual seconds).
    pub dispatched: f64,
    /// Completion time (virtual seconds).
    pub completed: f64,
    /// `completed - arrival`.
    pub latency: f64,
    /// Result-table row count.
    pub rows: usize,
    /// FNV-1a fingerprint of the result table.
    pub hash: u64,
    /// Whether the tenant's dataset cache served this job's sources.
    pub cache_hit: bool,
}

/// The server's run report. Every field derives from trace content and
/// virtual time only, so it is bit-identical across host configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Dispatch policy token.
    pub policy: String,
    /// Running-job slots.
    pub slots: usize,
    /// Tenant count.
    pub tenants: usize,
    /// Jobs in the trace.
    pub total_jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs rejected at the bounded queue.
    pub rejected: Vec<usize>,
    /// Dispatch attempts stalled by a denied memory reservation.
    pub mem_stalls: u64,
    /// Dataset-cache hits across all tenants.
    pub cache_hits: u64,
    /// Fault-injection events across all tenant contexts.
    pub faults_injected: u64,
    /// Median job latency (virtual seconds).
    pub p50_latency: f64,
    /// 99th-percentile job latency (virtual seconds).
    pub p99_latency: f64,
    /// 99th-percentile latency over *interactive* tenants only — tenants
    /// whose weight exceeds the trace's minimum weight (all tenants when
    /// weights are uniform). This is the multi-tenancy headline: fair
    /// scheduling protects it from a batch tenant's backlog, at the
    /// deliberate cost of the batch tenant's own tail (which dominates
    /// `p99_latency`).
    pub p99_interactive: f64,
    /// Completed jobs per virtual second of makespan.
    pub throughput: f64,
    /// Last completion time (virtual seconds).
    pub makespan: f64,
    /// Per-job rows, in trace order (rejected jobs absent).
    pub per_job: Vec<JobRow>,
}

impl ServeReport {
    /// Parses the JSON rendering.
    pub fn parse(text: &str) -> Result<ServeReport, String> {
        serde_json::from_str(text).map_err(|e| format!("parse serve report: {e}"))
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Policy-independent result-table fingerprint: one line per job with
    /// its rows and hash. CI compares this text across schedulers and
    /// worker counts — it must be identical as long as the same jobs ran.
    pub fn tables_text(&self) -> String {
        let mut out = String::new();
        for row in &self.per_job {
            out.push_str(&format!(
                "job {} tenant {} kind {} rows {} hash {:016x}\n",
                row.id, row.tenant, row.kind, row.rows, row.hash
            ));
        }
        for id in &self.rejected {
            out.push_str(&format!("job {id} rejected\n"));
        }
        out
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "job server: policy={} slots={} tenants={} jobs={}\n",
            self.policy, self.slots, self.tenants, self.total_jobs
        ));
        out.push_str(&format!(
            "  completed={} rejected={} mem_stalls={} cache_hits={} faults={}\n",
            self.completed,
            self.rejected.len(),
            self.mem_stalls,
            self.cache_hits,
            self.faults_injected
        ));
        out.push_str(&format!(
            "  p50={:.3}s p99={:.3}s p99_interactive={:.3}s throughput={:.3} jobs/s makespan={:.3}s\n",
            self.p50_latency,
            self.p99_latency,
            self.p99_interactive,
            self.throughput,
            self.makespan
        ));
        out.push_str(&format!(
            "  {:>4} {:>8} {:>10} {:>9} {:>10} {:>10} {:>9} {:>6} {:>5}\n",
            "id", "tenant", "kind", "arrive", "dispatch", "complete", "latency", "rows", "cache"
        ));
        for row in &self.per_job {
            out.push_str(&format!(
                "  {:>4} {:>8} {:>10} {:>9.3} {:>10.3} {:>10.3} {:>9.3} {:>6} {:>5}\n",
                row.id,
                row.tenant,
                row.kind,
                row.arrival,
                row.dispatched,
                row.completed,
                row.latency,
                row.rows,
                if row.cache_hit { "hit" } else { "miss" }
            ));
        }
        for id in &self.rejected {
            out.push_str(&format!("  {id:>4} rejected (queue full)\n"));
        }
        out
    }
}

/// A job currently occupying a slot in the fluid model.
struct Running {
    id: usize,
    tenant: usize,
    /// Remaining service in solo-seconds.
    remaining: f64,
    /// Core demand while running.
    cores: f64,
    /// Progress rate in solo-seconds per virtual second (0, 1].
    speed: f64,
    dispatched: f64,
    mem: u64,
    outcome: JobOutcome,
}

/// Per-tenant flow state.
struct Flow {
    /// Queued job ids, arrival order.
    queue: std::collections::VecDeque<usize>,
    /// SFQ finish tag of the tenant's last dispatched job.
    finish_tag: f64,
    weight: f64,
}

/// Runs a job trace to completion and reports per-job latencies and
/// result fingerprints. See the module docs for the model.
pub fn serve(trace: &JobTrace, cfg: &ServerConfig) -> Result<ServeReport, String> {
    serve_tenants(trace, cfg).map(|(report, _)| report)
}

/// [`serve`], also handing back the tenant runtimes as the trace left
/// them.
fn serve_tenants(
    trace: &JobTrace,
    cfg: &ServerConfig,
) -> Result<(ServeReport, Vec<TenantRuntime>), String> {
    trace.validate()?;
    if cfg.slots == 0 {
        return Err("slots must be >= 1".to_string());
    }
    if cfg.engine.faults.is_some() {
        return Err(
            "set per-tenant fault plans via ServerConfig::fault_plans, not EngineOptions::faults"
                .to_string(),
        );
    }
    for (name, _) in &cfg.fault_plans {
        if !trace.tenants.iter().any(|t| &t.name == name) {
            return Err(format!("fault plan names unknown tenant '{name}'"));
        }
    }
    // Each tenant's options are validated as assembled — its fault plan
    // attached — so a plan that does not fit the cluster is an `Err` here
    // rather than a panic in `Context::new`.
    let mut tenant_options = Vec::with_capacity(trace.tenants.len());
    for t in &trace.tenants {
        let faults = cfg
            .fault_plans
            .iter()
            .find(|(name, _)| name == &t.name)
            .map(|(_, plan)| plan.clone());
        let options = EngineOptions {
            faults,
            ..cfg.engine.clone()
        };
        options
            .validate()
            .map_err(|e| format!("tenant '{}': {e}", t.name))?;
        tenant_options.push(options);
    }
    if cfg.interleave == Interleave::TenantThreads && trace.jobs.len() > cfg.queue_cap {
        return Err(format!(
            "interleave=tenant-threads pre-executes every job, which is only sound when no job \
             can be rejected: need queue_cap >= {} jobs, got {}",
            trace.jobs.len(),
            cfg.queue_cap
        ));
    }

    let guarantees: Vec<u64> = trace
        .tenants
        .iter()
        .map(|t| t.mem.unwrap_or(cfg.mem_guarantee))
        .collect();
    for job in &trace.jobs {
        let need = mem_demand(job.kind, job.scale);
        let most = guarantees[job.tenant] + cfg.mem_shared;
        if need > most {
            return Err(format!(
                "job {} needs {need} bytes but tenant '{}' can reserve at most {most} \
                 (guarantee + shared pool); it would stall forever",
                job.id, trace.tenants[job.tenant].name
            ));
        }
    }

    // --- Host side: tenant contexts over one shared worker pool. -------
    let pool = Arc::new(WorkerPool::with_trace(
        cfg.engine.workers,
        cfg.engine.trace.clone(),
    ));
    let total_weight: f64 = trace.tenants.iter().map(|t| t.weight).sum();
    let mut runtimes: Vec<TenantRuntime> = trace
        .tenants
        .iter()
        .zip(tenant_options)
        .map(|(t, options)| {
            let rt = TenantRuntime::new(EngineOptions {
                shared_pool: Some(Arc::clone(&pool)),
                ..options
            });
            // Weighted share of host lanes, at least one.
            let lanes = ((cfg.engine.workers as f64) * t.weight / total_weight).round() as usize;
            rt.ctx
                .slot_cap_handle()
                .store(lanes.max(1), std::sync::atomic::Ordering::Relaxed);
            rt
        })
        .collect();
    // Every job runs or is rejected exactly once, so each tenant's
    // datasets are released after their last job in the trace — the same
    // point of the tenant's own job stream under either interleaving.
    for job in &trace.jobs {
        runtimes[job.tenant].expect(job);
    }

    // Pre-execute per tenant when asked: every tenant's stream runs on
    // its own OS thread, so data planes genuinely contend on the shared
    // pool. Outcomes (and therefore the schedule) are identical to
    // serial execution because each tenant's job order is preserved.
    let mut prerun: Vec<Option<JobOutcome>> = Vec::new();
    if cfg.interleave == Interleave::TenantThreads {
        prerun = trace.jobs.iter().map(|_| None).collect();
        let mut outcomes: Vec<(usize, JobOutcome)> = Vec::new();
        let order = trace.arrival_order();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, rt) in runtimes.iter_mut().enumerate() {
                let jobs: Vec<&crate::trace_file::JobRequest> = order
                    .iter()
                    .map(|&id| &trace.jobs[id])
                    .filter(|j| j.tenant == t)
                    .collect();
                handles.push(scope.spawn(move || {
                    jobs.into_iter()
                        .map(|job| (job.id, rt.run(job)))
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                outcomes.extend(handle.join().expect("tenant thread panicked"));
            }
        });
        for (id, outcome) in outcomes {
            prerun[id] = Some(outcome);
        }
    }

    // --- Virtual side: the fluid scheduling model. ----------------------
    let sink = &cfg.trace;
    sink.name_process(pids::SERVER, "job server (virtual time)");
    sink.name_thread(Track::new(pids::SERVER, 0), "admission queue");
    for (t, spec) in trace.tenants.iter().enumerate() {
        sink.name_thread(
            Track::new(pids::SERVER, 1 + t as u32),
            &format!("tenant {}", spec.name),
        );
    }

    let capacity: f64 = cfg
        .engine
        .cluster
        .nodes
        .iter()
        .map(|n| n.cores as f64)
        .sum();
    let mut ledger = TenantLedger::new(cfg.mem_shared, guarantees);
    let mut flows: Vec<Flow> = trace
        .tenants
        .iter()
        .map(|t| Flow {
            queue: std::collections::VecDeque::new(),
            finish_tag: 0.0,
            weight: t.weight,
        })
        .collect();
    let arrivals = trace.arrival_order();
    let mut next_arrival = 0usize;
    let mut running: Vec<Running> = Vec::new();
    let mut v = 0.0f64; // virtual now
    let mut vtag = 0.0f64; // SFQ virtual start-tag clock
    let mut queued = 0usize;
    let mut rejected: Vec<usize> = Vec::new();
    let mut mem_stalls = 0u64;
    let mut rows_out: Vec<Option<JobRow>> = trace.jobs.iter().map(|_| None).collect();

    // Weighted water-filling of cluster cores over running jobs; rates
    // iterate in stored (job-id) order, so the fill is deterministic.
    let recompute_rates = |running: &mut Vec<Running>, policy: Policy, flows: &[Flow]| {
        if running.is_empty() {
            return;
        }
        let mut remaining_capacity = capacity;
        let mut unfilled: Vec<usize> = (0..running.len()).collect();
        // Fair: tenant weight split over the tenant's running jobs.
        // FIFO: every job asks for its own core demand (plain processor
        // sharing of the cluster).
        let share = |r: &Running| -> f64 {
            match policy {
                Policy::Fair => {
                    let siblings = running.iter().filter(|o| o.tenant == r.tenant).count();
                    flows[r.tenant].weight / siblings as f64
                }
                Policy::Fifo => r.cores,
            }
        };
        let shares: Vec<f64> = running.iter().map(share).collect();
        // Water-fill: grant each unfilled job its proportional share of
        // the remaining capacity, cap at its demand (speed 1 = `cores`
        // cores), repeat until nothing caps.
        loop {
            let total_share: f64 = unfilled.iter().map(|&i| shares[i]).sum();
            if total_share <= 0.0 || remaining_capacity <= 1e-12 {
                for &i in &unfilled {
                    running[i].speed = 1e-9; // starved, negligible progress
                }
                break;
            }
            // Snapshot the pass's capacity so grants don't depend on the
            // order jobs cap within the pass.
            let pass_capacity = remaining_capacity;
            let mut capped = Vec::new();
            for &i in &unfilled {
                let grant = pass_capacity * shares[i] / total_share;
                if grant >= running[i].cores {
                    running[i].speed = 1.0;
                    remaining_capacity -= running[i].cores;
                    capped.push(i);
                }
            }
            if capped.is_empty() {
                // Nobody caps: everyone runs slowed by their grant.
                for &i in &unfilled {
                    let grant = pass_capacity * shares[i] / total_share;
                    running[i].speed = (grant / running[i].cores).clamp(1e-9, 1.0);
                }
                break;
            }
            unfilled.retain(|i| !capped.contains(i));
            if unfilled.is_empty() {
                break;
            }
        }
    };

    let total_jobs = trace.jobs.len();
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 20 * total_jobs + 1000 {
            return Err("scheduler stalled (internal error)".to_string());
        }

        // Dispatch as many queued jobs as fit (slots + memory).
        let mut dispatched_any = false;
        while running.len() < cfg.slots {
            // Candidate = head of each non-empty flow, ordered by policy.
            let mut candidates: Vec<usize> = (0..flows.len())
                .filter(|&t| !flows[t].queue.is_empty())
                .collect();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|&a, &b| {
                let (ja, jb) = (flows[a].queue[0], flows[b].queue[0]);
                match cfg.policy {
                    Policy::Fair => {
                        let sa = vtag.max(flows[a].finish_tag);
                        let sb = vtag.max(flows[b].finish_tag);
                        sa.total_cmp(&sb)
                            .then(trace.jobs[ja].at.total_cmp(&trace.jobs[jb].at))
                            .then(ja.cmp(&jb))
                    }
                    Policy::Fifo => trace.jobs[ja]
                        .at
                        .total_cmp(&trace.jobs[jb].at)
                        .then(ja.cmp(&jb)),
                }
            });
            let mut picked = None;
            for &t in &candidates {
                let id = flows[t].queue[0];
                let need = mem_demand(trace.jobs[id].kind, trace.jobs[id].scale);
                if ledger.try_admit(t, need) {
                    picked = Some((t, id, need));
                    break;
                }
                mem_stalls += 1;
            }
            let Some((t, id, need)) = picked else { break };
            flows[t].queue.pop_front();
            queued -= 1;
            let req = &trace.jobs[id];
            let outcome = match cfg.interleave {
                Interleave::TenantThreads => prerun[id].clone().expect("job pre-executed"),
                Interleave::Serial => runtimes[t].run(req),
            };
            let service = outcome.t_solo.max(1e-9);
            if cfg.policy == Policy::Fair {
                let start_tag = vtag.max(flows[t].finish_tag);
                flows[t].finish_tag = start_tag + service / flows[t].weight;
                vtag = start_tag;
            }
            let slot = running
                .binary_search_by(|r| r.id.cmp(&id))
                .expect_err("job ids are unique");
            running.insert(
                slot,
                Running {
                    id,
                    tenant: t,
                    remaining: service,
                    cores: outcome.cores,
                    speed: 1.0,
                    dispatched: v,
                    mem: need,
                    outcome,
                },
            );
            dispatched_any = true;
        }
        if dispatched_any {
            recompute_rates(&mut running, cfg.policy, &flows);
            sink.counter(
                Clock::Virtual,
                Track::new(pids::SERVER, 0),
                "queued jobs",
                "server",
                v,
                queued as f64,
            );
        }

        // Next event: earliest completion vs next arrival. Completions
        // win ties so freed slots are visible to same-instant arrivals.
        let next_completion = running
            .iter()
            .map(|r| v + r.remaining / r.speed)
            .fold(f64::INFINITY, f64::min);
        let next_arrival_at = arrivals
            .get(next_arrival)
            .map(|&id| trace.jobs[id].at)
            .unwrap_or(f64::INFINITY);
        if next_completion.is_infinite() && next_arrival_at.is_infinite() {
            break;
        }

        if next_completion <= next_arrival_at {
            let dt = (next_completion - v).max(0.0);
            for r in running.iter_mut() {
                r.remaining -= r.speed * dt;
            }
            v = next_completion;
            // Complete every job that just drained (id order, since
            // `running` is id-sorted).
            let mut i = 0;
            while i < running.len() {
                if running[i].remaining <= 1e-9 {
                    let done = running.remove(i);
                    ledger.release(done.tenant, done.mem);
                    let req = &trace.jobs[done.id];
                    let latency = v - req.at;
                    sink.span(
                        Clock::Virtual,
                        Track::new(pids::SERVER, 1 + done.tenant as u32),
                        format!("{} #{}", req.kind.name(), done.id),
                        "job",
                        done.dispatched,
                        v,
                        vec![
                            ("job", ArgValue::UInt(done.id as u64)),
                            ("kind", ArgValue::Str(req.kind.name().to_string())),
                            ("latency_s", ArgValue::Float(latency)),
                            ("rows", ArgValue::UInt(done.outcome.rows as u64)),
                        ],
                    );
                    rows_out[done.id] = Some(JobRow {
                        id: done.id,
                        tenant: trace.tenants[done.tenant].name.clone(),
                        kind: req.kind.name().to_string(),
                        arrival: req.at,
                        dispatched: done.dispatched,
                        completed: v,
                        latency,
                        rows: done.outcome.rows,
                        hash: done.outcome.hash,
                        cache_hit: done.outcome.cache_hit,
                    });
                } else {
                    i += 1;
                }
            }
            recompute_rates(&mut running, cfg.policy, &flows);
        } else {
            let dt = (next_arrival_at - v).max(0.0);
            for r in running.iter_mut() {
                r.remaining -= r.speed * dt;
            }
            v = next_arrival_at;
            // Admit every arrival at this instant (arrival order).
            while next_arrival < arrivals.len() && trace.jobs[arrivals[next_arrival]].at <= v {
                let id = arrivals[next_arrival];
                next_arrival += 1;
                if queued >= cfg.queue_cap {
                    rejected.push(id);
                    runtimes[trace.jobs[id].tenant].skip(&trace.jobs[id]);
                    sink.instant(
                        Clock::Virtual,
                        Track::new(pids::SERVER, 0),
                        format!("reject #{id}"),
                        "server",
                        v,
                        vec![("job", ArgValue::UInt(id as u64))],
                    );
                    continue;
                }
                flows[trace.jobs[id].tenant].queue.push_back(id);
                queued += 1;
                sink.counter(
                    Clock::Virtual,
                    Track::new(pids::SERVER, 0),
                    "queued jobs",
                    "server",
                    v,
                    queued as f64,
                );
            }
        }
    }

    // --- Report. --------------------------------------------------------
    let per_job: Vec<JobRow> = rows_out.into_iter().flatten().collect();
    let mut latencies: Vec<f64> = per_job.iter().map(|r| r.latency).collect();
    latencies.sort_by(f64::total_cmp);
    let min_weight = trace
        .tenants
        .iter()
        .map(|t| t.weight)
        .fold(f64::INFINITY, f64::min);
    let uniform = trace.tenants.iter().all(|t| t.weight == min_weight);
    let interactive: Vec<&str> = trace
        .tenants
        .iter()
        .filter(|t| uniform || t.weight > min_weight)
        .map(|t| t.name.as_str())
        .collect();
    let mut interactive_lat: Vec<f64> = per_job
        .iter()
        .filter(|r| interactive.contains(&r.tenant.as_str()))
        .map(|r| r.latency)
        .collect();
    interactive_lat.sort_by(f64::total_cmp);
    let makespan = per_job.iter().map(|r| r.completed).fold(0.0, f64::max);
    let cache_hits: u64 = runtimes.iter().map(|rt| rt.cache_hits).sum();
    let faults_injected: u64 = runtimes
        .iter()
        .map(|rt| rt.ctx.fault_counters().injected_failures)
        .sum();
    rejected.sort_unstable();
    let report = ServeReport {
        policy: cfg.policy.name().to_string(),
        slots: cfg.slots,
        tenants: trace.tenants.len(),
        total_jobs,
        completed: per_job.len(),
        rejected,
        mem_stalls,
        cache_hits,
        faults_injected,
        p50_latency: trace::percentile(&latencies, 50.0),
        p99_latency: trace::percentile(&latencies, 99.0),
        p99_interactive: trace::percentile(&interactive_lat, 99.0),
        throughput: if makespan > 0.0 {
            per_job.len() as f64 / makespan
        } else {
            0.0
        },
        makespan,
        per_job,
    };
    Ok((report, runtimes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dataset_is_released_by_the_end_of_the_trace() {
        // Tenant a reads one sql dataset three times, tenant b one kmeans
        // dataset twice; a one-job queue rejects the same-instant repeats.
        let trace = JobTrace::from_text(
            "tenant a weight 1\n\
             tenant b weight 2\n\
             job a at 0 sql scale 0.2 seed 1\n\
             job a at 0 sql scale 0.2 seed 1\n\
             job b at 0 kmeans scale 0.1 seed 2\n\
             job b at 0 wordcount scale 0.1 seed 3\n\
             job a at 50 sql scale 0.2 seed 1\n\
             job b at 50 kmeans scale 0.1 seed 2\n",
        )
        .unwrap();
        let engine = EngineOptions {
            cluster: simcluster::uniform_cluster(2, 4, 2.0),
            default_parallelism: 6,
            workers: 2,
            ..server_engine_defaults()
        };
        for (queue_cap, interleave) in [
            (1, Interleave::Serial),
            (8, Interleave::Serial),
            (8, Interleave::TenantThreads),
        ] {
            let cfg = ServerConfig {
                queue_cap,
                interleave,
                engine: engine.clone(),
                ..ServerConfig::default()
            };
            let (report, runtimes) = serve_tenants(&trace, &cfg).unwrap();
            let label = format!("queue_cap {queue_cap}, {interleave:?}");
            assert_eq!(report.rejected.is_empty(), queue_cap > 1, "{label}");
            assert!(report.cache_hits > 0, "{label}");
            // A dataset the trace reads twice or more is cached at its
            // first build, one RDD per source; one read once is streamed.
            let declared = |id: usize| {
                let job = &trace.jobs[id];
                trace
                    .jobs
                    .iter()
                    .filter(|j| {
                        (j.tenant, j.kind, j.scale.to_bits(), j.seed)
                            == (job.tenant, job.kind, job.scale.to_bits(), job.seed)
                    })
                    .count()
            };
            let built: u64 = report
                .per_job
                .iter()
                .filter(|r| !r.cache_hit && declared(r.id) >= 2)
                .map(|r| if r.kind == "sql" { 2 } else { 1 })
                .sum();
            assert!(built > 0, "{label}");
            let released: u64 = runtimes
                .iter()
                .map(|rt| rt.ctx.mem_counters().released)
                .sum();
            assert_eq!(released, built, "{label}");
        }
    }
}
