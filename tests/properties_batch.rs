//! Differential tests for the shapes at the edges of a leaf pipeline:
//! set operations over shared leaves, the θ fallback, lone projects,
//! empty results, and pipelines fed by index-routed probes.
//!
//! The guarantee under test: the physical pipeline engine is invisible.
//! Its answers — data, origin tags, intermediate tags and tuple order —
//! match the eager reference interpreter and stay byte-identical across
//! thread counts, and index routing never changes a byte of them.

mod common;

use common::fixtures::{assert_parallel_matches, small_config};
use polygen::catalog::prelude::scenario;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::index::{IndexCatalog, IndexSpec};
use polygen::pqp::prelude::*;
use polygen::workload;
use polygen::workload::queries::{point_lookup, range_scan};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Shapes around a leaf pipeline's edges: shared leaves, set
/// operations, θ fallback, lone projects, and empty results — eager,
/// sequential and parallel engines agree on each.
#[test]
fn edge_shapes_agree_under_batch_execution() {
    let s = scenario::build();
    for expr in [
        "(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])",
        "PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])",
        "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
        "PCAREER [AID# < AID#] PCAREER",
        "PCAREER [AID# = ONAME] [AID#, POSITION]",
        "PALUMNUS [DEGREE = \"NOPE\"] [ANAME]",
        "PALUMNUS [ANAME]",
    ] {
        for threads in THREAD_COUNTS {
            assert_parallel_matches(&s, expr, ConflictPolicy::Strict, threads);
        }
    }
}

/// Index-routed plans: the probe hands the pipeline the matching base
/// rows, and the answer stays byte-identical to the unrouted scan over
/// the same federation, sequentially and partition-parallel.
#[test]
fn indexed_probes_feed_batches_byte_identically() {
    let config = small_config(0xbead, 3, 120);
    let scenario = workload::generate(&config);
    let specs = [
        IndexSpec::hash("S0", "DETAIL", "DNAME"),
        IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
    ];
    for threads in THREAD_COUNTS {
        let mk = |indexed: bool| {
            let pqp = Pqp::for_scenario(&scenario)
                .with_options(PqpOptions::default().with_threads(threads));
            if !indexed {
                return pqp;
            }
            let catalog =
                Arc::new(IndexCatalog::build(&specs, pqp.registry(), pqp.dictionary()).unwrap());
            pqp.with_indexes(catalog)
        };
        let (plain, routed) = (mk(false), mk(true));
        for expr in [
            point_lookup(17),
            point_lookup(9_999_999),
            range_scan(20, 60),
            range_scan(60, 20),
            "PDETAIL [SCORE >= 30] [ENAME, SCORE]".to_string(),
        ] {
            let a = plain.query_algebra(&expr).unwrap();
            let b = routed.query_algebra(&expr).unwrap();
            assert_eq!(a.compiled.physical.index_scans(), 0);
            assert!(
                b.compiled.physical.index_scans() > 0 || expr.contains(">= 30"),
                "probe shapes must route: `{expr}`"
            );
            assert_eq!(
                a.answer.tuples(),
                b.answer.tuples(),
                "routed plan diverged on `{expr}` (threads = {threads})"
            );
        }
    }
}
