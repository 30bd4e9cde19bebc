//! Tier-1 guard for the job server: a small loadgen trace served inline
//! and on tenant threads gives the same report, and every job answers as
//! it does on a runtime that caches everything it builds. No job of this
//! trace shares a dataset with another, so the server streams them all.

use chopper_repro::engine::EngineOptions;
use chopper_repro::simcluster::uniform_cluster;
use jobserver::{generate, serve, Interleave, ServerConfig, TenantRuntime};

fn engine() -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(4, 4, 2.0),
        default_parallelism: 8,
        block_size: 128 * 1024,
        workers: 2,
        ..jobserver::server_engine_defaults()
    }
}

#[test]
fn served_jobs_answer_like_a_runtime_that_caches_everything() {
    let trace = generate(4, 56, 3);
    let served = |interleave| {
        let cfg = ServerConfig {
            slots: 4,
            engine: engine(),
            interleave,
            ..ServerConfig::default()
        };
        serve(&trace, &cfg).unwrap()
    };
    let serial = served(Interleave::Serial);
    let threads = served(Interleave::TenantThreads);
    assert_eq!(serial.tables_text(), threads.tables_text());
    assert_eq!(serial.to_json(), threads.to_json());
    assert_eq!(serial.completed, trace.jobs.len());
    assert_eq!(serial.cache_hits, 0);

    let order = trace.arrival_order();
    for tenant in 0..trace.tenants.len() {
        // Told nothing of its future, this runtime caches every dataset.
        let mut keeper = TenantRuntime::new(engine());
        for job in order.iter().map(|&id| &trace.jobs[id]) {
            if job.tenant != tenant {
                continue;
            }
            let got = keeper.run(job);
            let row = serial
                .per_job
                .iter()
                .find(|r| r.id == job.id)
                .expect("every job completed");
            assert_eq!((got.rows, got.hash), (row.rows, row.hash), "job {}", job.id);
        }
    }
}
