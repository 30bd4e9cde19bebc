//! Job-server equivalence suite: a fixed trace + seed must produce a
//! bit-identical [`ServeReport`] — per-job result hashes,
//! dispatch/completion times, latencies, queue and ledger counters —
//! regardless of host worker count or how tenant executions physically
//! interleave.
//!
//! This is the property that makes the contention benchmark and the CI
//! matrix meaningful: scheduling decisions key on virtual-clock state
//! only, never on host timing.

use jobserver::{generate, serve, Interleave, JobTrace, Policy, ServeReport, ServerConfig};

fn engine(workers: usize) -> engine::EngineOptions {
    engine::EngineOptions {
        cluster: simcluster::uniform_cluster(4, 4, 2.0),
        default_parallelism: 8,
        block_size: 128 * 1024,
        workers,
        ..jobserver::server_engine_defaults()
    }
}

fn run_with_slots(
    policy: Policy,
    workers: usize,
    interleave: Interleave,
    slots: usize,
) -> ServeReport {
    let trace = generate(4, 56, 11);
    let cfg = ServerConfig {
        policy,
        slots,
        engine: engine(workers),
        interleave,
        ..ServerConfig::default()
    };
    serve(&trace, &cfg).unwrap()
}

fn run(policy: Policy, workers: usize, interleave: Interleave) -> ServeReport {
    run_with_slots(policy, workers, interleave, 4)
}

/// Field-by-field bit comparison, with `Debug` as the catch-all (equal
/// `f64` bits render identically).
fn assert_identical(label: &str, got: &ServeReport, want: &ServeReport) {
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{label}: report diverged"
    );
    assert_eq!(got.per_job.len(), want.per_job.len(), "{label}");
    for (g, w) in got.per_job.iter().zip(&want.per_job) {
        assert_eq!(g.hash, w.hash, "{label}: job {} hash", g.id);
        assert_eq!(
            g.latency.to_bits(),
            w.latency.to_bits(),
            "{label}: job {} latency bits",
            g.id
        );
        assert_eq!(
            g.completed.to_bits(),
            w.completed.to_bits(),
            "{label}: job {} completion bits",
            g.id
        );
    }
    assert_eq!(
        got.p99_latency.to_bits(),
        want.p99_latency.to_bits(),
        "{label}"
    );
    assert_eq!(got.makespan.to_bits(), want.makespan.to_bits(), "{label}");
}

#[test]
fn report_is_bit_identical_across_workers_and_interleaving() {
    // Reference: fully serial host — one worker, jobs executed inline at
    // dispatch.
    let reference = run(Policy::Fair, 1, Interleave::Serial);
    assert_eq!(reference.completed, 56);
    assert!(reference.rejected.is_empty());

    let sweeps: [(&str, usize, Interleave); 4] = [
        ("w8 threads", 8, Interleave::TenantThreads),
        ("w8 serial", 8, Interleave::Serial),
        ("w2 threads", 2, Interleave::TenantThreads),
        ("w1 threads", 1, Interleave::TenantThreads),
    ];
    for (label, workers, interleave) in sweeps {
        let got = run(Policy::Fair, workers, interleave);
        assert_identical(label, &got, &reference);
    }
}

#[test]
fn fifo_and_fair_disagree_on_timing_but_not_tables() {
    // A 16-tenant trace over 4 slots keeps a standing queue, so dispatch
    // order actually exercises the policies (the 4-tenant smoke trace is
    // light enough that both drain arrivals as they come).
    let trace = generate(16, 96, 5);
    let run16 = |policy: Policy, workers: usize, interleave: Interleave| {
        let cfg = ServerConfig {
            policy,
            slots: 4,
            engine: engine(workers),
            interleave,
            ..ServerConfig::default()
        };
        serve(&trace, &cfg).unwrap()
    };
    let fair = run16(Policy::Fair, 8, Interleave::TenantThreads);
    let fifo = run16(Policy::Fifo, 8, Interleave::TenantThreads);
    // Same jobs, same bytes: the policy-independent fingerprint matches.
    assert_eq!(fair.tables_text(), fifo.tables_text());
    // But they are genuinely different schedules.
    assert_ne!(
        fair.per_job
            .iter()
            .map(|r| r.dispatched.to_bits())
            .collect::<Vec<_>>(),
        fifo.per_job
            .iter()
            .map(|r| r.dispatched.to_bits())
            .collect::<Vec<_>>(),
        "fair and fifo produced identical dispatch times — no contention?"
    );
    // And FIFO itself replays bit-identically on a different host shape.
    let fifo2 = run16(Policy::Fifo, 2, Interleave::Serial);
    assert_identical("fifo w2 serial", &fifo2, &fifo);
}

#[test]
fn serve_rejects_unsound_configurations() {
    let trace = generate(2, 8, 3);
    // Pre-execution interleaving with a queue that can reject is unsound.
    let err = serve(
        &trace,
        &ServerConfig {
            queue_cap: 4,
            interleave: Interleave::TenantThreads,
            engine: engine(2),
            ..ServerConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("queue_cap"), "{err}");
    // Zero slots is meaningless.
    let err = serve(
        &trace,
        &ServerConfig {
            slots: 0,
            engine: engine(2),
            ..ServerConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("slots"), "{err}");
    // A job that cannot fit guarantee + shared pool would stall forever.
    let err = serve(
        &trace,
        &ServerConfig {
            mem_shared: 1 << 10,
            mem_guarantee: 1 << 10,
            engine: engine(2),
            ..ServerConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("reserve at most"), "{err}");
    // A hand-built trace is checked field by field, as a parsed one is.
    let cfg = ServerConfig {
        engine: engine(2),
        interleave: Interleave::Serial,
        ..ServerConfig::default()
    };
    type Break = fn(&mut JobTrace);
    let broken: [(&str, Break); 10] = [
        ("no tenants", |t| t.tenants.clear()),
        ("tenant name", |t| t.tenants[1].name = "a b".to_string()),
        ("duplicate tenant", |t| {
            t.tenants[1].name = t.tenants[0].name.clone()
        }),
        ("weight", |t| t.tenants[0].weight = 0.0),
        ("weight", |t| t.tenants[1].weight = f64::NAN),
        ("id must", |t| t.jobs[2].id = 7),
        ("tenant index", |t| t.jobs[3].tenant = 2),
        ("arrival time", |t| t.jobs[4].at = f64::NAN),
        ("scale", |t| t.jobs[5].scale = f64::NAN),
        ("scale", |t| t.jobs[6].scale = 0.0),
    ];
    for (field, breaks) in broken {
        let mut bad = trace.clone();
        breaks(&mut bad);
        let err = serve(&bad, &cfg).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
        assert_eq!(bad.validate(), Err(err));
    }
}

#[test]
fn report_round_trips_through_json() {
    let report = run(Policy::Fair, 2, Interleave::TenantThreads);
    let parsed = ServeReport::parse(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(format!("{parsed:?}"), format!("{report:?}"));
}
