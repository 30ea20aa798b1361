//! Criterion A/B bench for the parallel engine: each Figure 8 workload
//! (gapply formulation, optimized plan) plus the TPC-H publishing
//! pipeline, run serial (`dop = 1`) vs dop 2 / 4 / 8. Speedups land in
//! `docs/experiment_log.txt`; on a single-core
//! box the interesting number is the *overhead* of dop > 1, which the
//! deterministic merge keeps small.

use criterion::{criterion_group, criterion_main, Criterion};
use xmlpub::xml::supplier_parts_view;
use xmlpub::xml::workloads::figure8_workloads;
use xmlpub::{Database, EngineConfig};

fn bench_parallel_queries(c: &mut Criterion) {
    let db = Database::tpch(0.002).expect("tpch");
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    for w in figure8_workloads() {
        let (plan, _) = db.optimized_plan(&w.gapply_sql).expect("gapply plan");
        for dop in [1usize, 2, 4, 8] {
            let config = EngineConfig { dop, ..Default::default() };
            group.bench_function(format!("{}_dop{dop}", w.name), |b| {
                b.iter(|| {
                    xmlpub::engine::execute_with_config(&plan, db.catalog(), &config).expect("run")
                })
            });
        }
    }
    group.finish();
}

fn bench_parallel_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_publish");
    group.sample_size(10);
    for dop in [1usize, 2, 4, 8] {
        let mut db = Database::tpch(0.002).expect("tpch");
        db.config_mut().engine.dop = dop;
        let view = supplier_parts_view(db.catalog()).expect("view");
        group.bench_function(format!("supplier_parts_dop{dop}"), |b| {
            b.iter(|| db.publish(&view, false).expect("publish"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_queries, bench_parallel_publish);
criterion_main!(benches);
