//! Criterion bench for the serving layer: the full Figure 8 workload
//! set pushed through the concurrent publishing service at 1, 4 and 8
//! workers, cold (ad-hoc SQL against a fresh server with an empty plan
//! cache each iteration) vs warm (prepared statements over a long-lived
//! warmed cache). One iteration = every workload once
//! from every client, closed-loop, so the measured quantity tracks
//! service throughput rather than single-query latency.

use criterion::{criterion_group, criterion_main, Criterion};
use xmlpub::Database;
use xmlpub_server::{run_fig8_load, LoadOptions, Server, ServerConfig};

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for workers in [1usize, 4, 8] {
        // Cold path: a fresh server (empty plan cache) every iteration;
        // each request plans from scratch through the cache.
        group.bench_function(format!("w{workers}_cold"), |b| {
            b.iter(|| {
                let server = Server::new(
                    Database::tpch(0.001).expect("tpch"),
                    ServerConfig { workers, ..ServerConfig::default() },
                );
                run_fig8_load(
                    &server,
                    LoadOptions { warm: false, ..LoadOptions::passes(workers, 1) },
                )
                .expect("load run")
            })
        });
        // Warm path: one long-lived server; plans are cached after the
        // first pass and every later iteration is execute-only.
        let server = Server::new(
            Database::tpch(0.001).expect("tpch"),
            ServerConfig { workers, ..ServerConfig::default() },
        );
        run_fig8_load(&server, LoadOptions::passes(workers, 1)).expect("warmup");
        group.bench_function(format!("w{workers}_warm"), |b| {
            b.iter(|| run_fig8_load(&server, LoadOptions::passes(workers, 1)).expect("load run"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
