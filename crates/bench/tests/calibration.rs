//! The §5.1 client-side simulation against the native GApply on every
//! Figure 8 workload, under both partition strategies.

use xmlpub::xml::workloads;
use xmlpub::{Database, PartitionStrategy};
use xmlpub_bench::calibration::find_gapply;
use xmlpub_bench::client_sim::simulate_gapply;

#[test]
fn client_simulation_equals_native_for_all_workloads() {
    let database = Database::tpch(0.001).expect("tpch catalog");
    for w in workloads::figure8_workloads() {
        let plan = database.plan(&w.gapply_sql).unwrap();
        let (outer, cols, pgq) = find_gapply(&plan).expect("gapply");
        let native =
            database.execute_plan(&outer.clone().gapply(cols.to_vec(), pgq.clone())).unwrap().0;
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let sim = simulate_gapply(database.catalog(), outer, cols, pgq, strategy).unwrap();
            assert!(
                sim.result.bag_eq(&native),
                "{} ({strategy:?}): {}",
                w.name,
                sim.result.bag_diff(&native)
            );
        }
    }
}
