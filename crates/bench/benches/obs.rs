//! Observability overhead A/B on the Figure 8 serving workload: the
//! identical warm closed-loop load run against (a) a server with the
//! metrics registry disabled, (b) the default always-on registry, and
//! (c) the registry plus a full lifecycle tracer writing JSONL spans to
//! a null sink. (a) vs (b) is the acceptance gate — metrics must cost
//! ≤ 5% throughput; (c) measures what opting into tracing adds.

use criterion::{criterion_group, criterion_main, Criterion};
use xmlpub::{Database, MetricsHandle, Observability, TraceHandle};
use xmlpub_server::{run_fig8_load, LoadOptions, Server, ServerConfig};

const WORKERS: usize = 4;
const SCALE: f64 = 0.001;

fn warm_server(metrics: bool, traced: bool) -> Server {
    let mut db = Database::tpch(SCALE).expect("tpch");
    if traced {
        db.set_observability(Observability {
            metrics: MetricsHandle::new_registry(),
            tracer: TraceHandle::new(Box::new(std::io::sink())),
        });
    }
    let server = Server::new(
        db,
        ServerConfig { workers: WORKERS, metrics_enabled: metrics, ..ServerConfig::default() },
    );
    run_fig8_load(&server, LoadOptions::passes(WORKERS, 1)).expect("warmup");
    server
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    for (name, metrics, traced) in
        [("metrics_off", false, false), ("metrics_on", true, false), ("traced", true, true)]
    {
        let server = warm_server(metrics, traced);
        group.bench_function(name, |b| {
            b.iter(|| run_fig8_load(&server, LoadOptions::passes(WORKERS, 1)).expect("load run"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
