//! End-to-end tests for the parallel executor: thread-count invariance
//! (bit-identical output across worker counts) over the paper's §7 TPC-H
//! views, and panic isolation in partition workers.

use gpivot::prelude::*;
use gpivot::tpch::{generate, view1, view2, view3, workload, TpchConfig};
use proptest::prelude::{proptest, ProptestConfig};

/// Big enough that every view takes the pool: `lineitem` spans several
/// Select/Project morsels (4 096 rows each) and every join, group-by and
/// pivot input is over the 1 024-row partitioning threshold.
fn tpch() -> Catalog {
    let c = generate(&TpchConfig {
        seed: 7,
        ..TpchConfig::scale(0.1)
    });
    assert!(c.table("lineitem").unwrap().len() > 4096);
    c
}

fn exec_at(threads: usize) -> Executor {
    Executor::new().with_threads(threads)
}

#[test]
fn tpch_views_are_thread_invariant() {
    let c = tpch();
    for (name, plan) in [
        ("view1", view1()),
        ("view2", view2(30_000.0)),
        ("view3", view3()),
    ] {
        let baseline = exec_at(1).run(&plan, &c).unwrap();
        for threads in [2, 8] {
            let got = exec_at(threads).run(&plan, &c).unwrap();
            assert_eq!(
                baseline.rows(),
                got.rows(),
                "{name} rows differ between 1 and {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Full register + refresh cycles across thread counts: the
    /// recompute-maintained view (every refresh runs the whole plan on the
    /// executor) must be row-for-row identical, and the incrementally
    /// maintained view must be the same bag and verify against
    /// recomputation. (Incremental apply iterates a hash-keyed delta, so
    /// its *order* is not pinned — only executor output is.)
    #[test]
    fn refresh_is_thread_invariant(seed in 0u64..1_000, fraction_ppm in 5_000u64..50_000) {
        let fraction = fraction_ppm as f64 / 1_000_000.0;
        let catalog = tpch();
        let batch = workload::mixed_batch(&catalog, fraction, seed);

        let mut managers: Vec<ViewManager> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let mut vm = ViewManager::new(catalog.clone()).with_exec(exec_at(threads));
                vm.register_view_with("recomputed", view1(), Strategy::Recompute)
                    .unwrap();
                vm.register_view_with("v3", view3(), ViewOptions::new().expected_delta_rows(64.0))
                    .unwrap();
                vm
            })
            .collect();
        for vm in &mut managers {
            vm.refresh(&batch).unwrap();
        }
        let baseline = &managers[0];
        let expected = baseline.query_view("recomputed").unwrap();
        let expected_v3 = baseline.query_view("v3").unwrap();
        for vm in &managers[1..] {
            let got = vm.query_view("recomputed").unwrap();
            assert_eq!(
                expected.rows(),
                got.rows(),
                "recompute-maintained view diverged across thread counts"
            );
            assert!(vm.verify_view("v3").unwrap());
            assert!(expected_v3.bag_eq(&vm.query_view("v3").unwrap()));
        }
    }
}

/// A panic inside a partition worker comes back as a classified, transient
/// error — the pool joins every worker (no hang) and the service layer's
/// retry machinery treats it like any caught refresh panic.
#[test]
fn partition_worker_panic_is_transient_not_a_hang() {
    let pool = WorkerPool::new(4);
    let err = pool
        .run("GPivot", vec![0usize, 1, 2, 3], |i| {
            if i == 2 {
                panic!("injected partition failure");
            }
            Ok(i)
        })
        .unwrap_err();
    let core_err = CoreError::from(err);
    assert_eq!(core_err.classify(), ErrorClass::Transient);
    assert!(core_err.to_string().contains("GPivot"));
    assert!(core_err.to_string().contains("injected partition failure"));
}
