//! The seeded federation, the three traffic mixes, and the source
//! refresh content. Everything here is a pure function of the seed.

use polygen_flat::relation::Relation;
use polygen_flat::value::Value;
use polygen_index::IndexSpec;
use polygen_workload::clients::{ClientMix, ClientQuery, MixWeights, QueryLang};
use polygen_workload::queries::{join_query, paper_shaped_sql, point_lookup, range_scan};
use polygen_workload::{derive_rng, RngStream, WorkloadConfig};
use rand::RngExt;
use std::collections::HashSet;

/// Sources in the federation.
pub const SOURCES: usize = 3;
/// Size of the shared entity pool.
pub const ENTITIES: usize = 5_000;
/// Rows of the detail relation (held by `S0`).
pub const DETAIL_ROWS: usize = 10_000;
/// Closed-loop TCP clients (the core count of the reference host).
pub const CLIENTS: usize = 2;
/// Queries in each `cached_reads` client script; the union of both
/// scripts is the workload's text population (about 650 texts, under
/// the 1 024-entry result cache).
pub const CACHED_SCRIPT_LEN: usize = 1_500;
/// Queries in each `adhoc_queries` client script; long enough that the
/// two scripts together hold more than ten result caches of texts.
pub const ADHOC_SCRIPT_LEN: usize = 30_000;
/// `source_refresh`: client 0 refreshes one source every this many of
/// its own reads.
pub const REFRESH_EVERY: usize = 50;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-keyed mixed reads over a population that fits the result
    /// cache.
    CachedReads,
    /// Analytic shapes with far more distinct texts than either cache.
    AdhocQueries,
    /// `CachedReads` traffic plus periodic source refreshes.
    SourceRefresh,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cached_reads" => Some(Workload::CachedReads),
            "adhoc_queries" => Some(Workload::AdhocQueries),
            "source_refresh" => Some(Workload::SourceRefresh),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedReads => "cached_reads",
            Workload::AdhocQueries => "adhoc_queries",
            Workload::SourceRefresh => "source_refresh",
        }
    }
}

/// Query classes, as `pqp.exec_us.<class>` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Select,
    Join,
    Paper,
    Point,
    Range,
    Sys,
}

impl Class {
    /// Every class that executes a user plan (everything but `sys`).
    pub const USER: [Class; 5] = [
        Class::Select,
        Class::Join,
        Class::Paper,
        Class::Point,
        Class::Range,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Select => "select",
            Class::Join => "join",
            Class::Paper => "paper",
            Class::Point => "point",
            Class::Range => "range",
            Class::Sys => "sys",
        }
    }

    /// Recognize the class of a text made by the `workload::queries`
    /// generators (directly or through [`adhoc_script`]).
    pub fn of(text: &str) -> Class {
        if text.contains("FROM sys.") {
            Class::Sys
        } else if text.starts_with("SELECT") {
            Class::Paper
        } else if text.starts_with("PENTITY") {
            Class::Select
        } else if text.contains("PENTITY") {
            Class::Join
        } else if text.starts_with("PDETAIL [ENAME") {
            Class::Point
        } else {
            Class::Range
        }
    }
}

/// Spread a benchmark seed over all 64 bits (the SplitMix64 finalizer).
/// The generators derive their per-concern and per-client streams by
/// XOR-ing small constants into one seed; for small seeds such as 1, 2,
/// 3 that can make two streams the same sequence shifted by one draw, so
/// both clients would ask nearly the same queries. A mixed seed keeps
/// the streams independent.
pub fn mixed(seed: u64) -> u64 {
    let mut z = seed ^ 0x5eed_5eed_5eed_5eed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The federation's generator configuration.
pub fn federation_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        detail_rows: DETAIL_ROWS,
        ..WorkloadConfig::default()
            .with_seed(mixed(seed))
            .with_sources(SOURCES)
            .with_entities(ENTITIES)
    }
}

/// The declared secondary indexes.
pub fn index_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::hash("S0", "DETAIL", "DNAME"),
        IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
    ]
}

/// The `cached_reads` (and `source_refresh`) mix: select 6 / join 3 /
/// paper 1 / point 4 / range 2 / sys 1, Zipf-skewed point keys.
pub fn cached_mix(seed: u64) -> ClientMix {
    ClientMix::default()
        .with_clients(CLIENTS)
        .with_queries_per_client(CACHED_SCRIPT_LEN)
        .with_seed(mixed(seed))
        .with_entities(ENTITIES)
        .with_weights(MixWeights {
            select: 6,
            join: 3,
            paper: 1,
            point: 4,
            range: 2,
            sys: 1,
        })
}

/// Client `client`'s script for `workload`.
pub fn script(workload: Workload, seed: u64, client: usize) -> Vec<ClientQuery> {
    match workload {
        Workload::CachedReads | Workload::SourceRefresh => cached_mix(seed).script(client),
        Workload::AdhocQueries => adhoc_script(seed, client as u64, ADHOC_SCRIPT_LEN),
    }
}

/// Ad-hoc analytic traffic from the `workload::queries` generators, with
/// parameters drawn uniformly so distinct texts far outnumber the caches:
/// join + category filter (1 600 texts), the paper-shaped IN-subquery
/// with a drawn score threshold (1 600), range scans of width 1–40
/// (4 000) and uniform point lookups (5 000). Shapes are weighted
/// join 1 / paper 1 / range 3 / point 1: the joins and IN-subqueries take
/// most of the execution time, while the median request falls inside the
/// range scans' smooth latency spread rather than in the gap between the
/// sub-millisecond lookups and the multi-millisecond joins. `stream`
/// picks an independent draw sequence (client ids; the warm-up uses its
/// own).
pub fn adhoc_script(seed: u64, stream: u64, len: usize) -> Vec<ClientQuery> {
    let mut rng = derive_rng(mixed(mixed(seed) ^ stream), RngStream::Client(0));
    (0..len)
        .map(|_| match rng.random_range(0..6u32) {
            0 => {
                let score = rng.random_range(0..100);
                let category = rng.random_range(0..16);
                ClientQuery {
                    text: format!("({}) [CATEGORY = \"C{category}\"]", join_query(score)),
                    lang: QueryLang::Algebra,
                }
            }
            1 => {
                let score = rng.random_range(0..100);
                let category = rng.random_range(0..16);
                ClientQuery {
                    text: paper_shaped_sql(category)
                        .replace("SCORE >= 50", &format!("SCORE >= {score}")),
                    lang: QueryLang::Sql,
                }
            }
            2..=4 => {
                let lo = rng.random_range(0..100);
                let width = rng.random_range(0..40);
                ClientQuery {
                    text: range_scan(lo, lo + width),
                    lang: QueryLang::Algebra,
                }
            }
            _ => ClientQuery {
                text: point_lookup(rng.random_range(0..ENTITIES)),
                lang: QueryLang::Algebra,
            },
        })
        .collect()
}

/// The distinct texts of a set of scripts, in first-seen order.
pub fn distinct(scripts: &[Vec<ClientQuery>]) -> Vec<ClientQuery> {
    let mut seen = HashSet::new();
    scripts
        .iter()
        .flatten()
        .filter(|q| seen.insert(q.text.clone()))
        .cloned()
        .collect()
}

/// The source a refresh numbered `k` (1-based) replaces: S0, S1, S2, S0, …
pub fn refresh_source(k: u64) -> usize {
    ((k - 1) % SOURCES as u64) as usize
}

/// The relations refresh `k` installs for its source, derived from the
/// generated originals: every entity's private value moves by an amount
/// fixed by `(seed, k)`, and on `S0` every detail score rotates by `k`
/// (so joins, range scans and the score index all see new data).
pub fn refresh_relations(base: &[Relation], seed: u64, k: u64) -> Vec<Relation> {
    let shift = i64::try_from(k * 1_000 + seed % 997).expect("refresh shift fits i64");
    base.iter()
        .map(|rel| {
            let attrs = rel.schema().attrs().to_vec();
            let rows = rel
                .rows()
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&attrs)
                        .map(|(value, attr)| match value {
                            Value::Int(v) if attr.starts_with("VAL_") => Value::Int(v + shift),
                            Value::Int(v) if attr.as_ref() == "DSCORE" => {
                                Value::Int((v + k as i64) % 100)
                            }
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect();
            Relation::from_rows(rel.schema().clone(), rows).expect("refreshed relation is valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_in_the_seed() {
        for workload in [
            Workload::CachedReads,
            Workload::AdhocQueries,
            Workload::SourceRefresh,
        ] {
            for client in 0..CLIENTS {
                assert_eq!(script(workload, 7, client), script(workload, 7, client));
            }
            assert_ne!(script(workload, 7, 0), script(workload, 8, 0));
            assert_ne!(script(workload, 7, 0), script(workload, 7, 1));
        }
    }

    #[test]
    fn classes_round_trip_through_the_generators() {
        let adhoc = adhoc_script(1, 0, 400);
        for class in [Class::Join, Class::Paper, Class::Point, Class::Range] {
            assert!(
                adhoc.iter().any(|q| Class::of(&q.text) == class),
                "{class:?} missing"
            );
        }
        let cached = script(Workload::CachedReads, 1, 0);
        for class in Class::USER.into_iter().chain([Class::Sys]) {
            assert!(
                cached.iter().any(|q| Class::of(&q.text) == class),
                "{class:?} missing"
            );
        }
    }

    #[test]
    fn refresh_content_is_deterministic_and_rotates() {
        let scenario = polygen_workload::generate(&federation_config(3));
        let base = &scenario.databases[0].relations;
        let a = refresh_relations(base, 3, 4);
        let b = refresh_relations(base, 3, 4);
        assert!(a.iter().zip(&b).all(|(x, y)| x.rows() == y.rows()));
        let c = refresh_relations(base, 3, 5);
        assert!(a.iter().zip(&c).any(|(x, y)| x.rows() != y.rows()));
        assert_eq!(
            (1..=4).map(refresh_source).collect::<Vec<_>>(),
            [0, 1, 2, 0]
        );
    }
}
