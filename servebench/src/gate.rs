//! The correctness gate: wire answers against a cache-off, in-process
//! oracle on the same snapshot, compared as the protocol's
//! deterministic bytes (schema, data, origin and intermediate tags, row
//! order; the timing-dependent summary frame excluded).

use crate::drive::PostRefreshRead;
use crate::workload::{index_specs, refresh_relations, refresh_source, Class, CLIENTS};
use polygen_catalog::scenario::Scenario;
use polygen_net::protocol::{deterministic_bytes, response_frames};
use polygen_net::{request_for, Frame, NetClient};
use polygen_serve::prelude::*;
use polygen_workload::clients::ClientQuery;
use polygen_workload::generator::source_name;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;

/// A cache-off service over a copy of `service`'s current snapshot.
pub fn oracle_for(service: &QueryService) -> QueryService {
    let snapshot = service.federation().snapshot().as_ref().clone();
    QueryService::new(
        Federation::new(snapshot),
        ServeOptions::default().without_caches(),
    )
}

/// What the oracle's answer looks like on the wire, deterministic part
/// only.
pub fn oracle_bytes(oracle: &QueryService, query: &ClientQuery) -> Vec<u8> {
    deterministic_bytes(&response_frames(&oracle.execute(request_for(query))))
}

/// Does a wire answer equal the oracle's, byte for byte?
pub fn agrees(wire: &[Frame], oracle: &[u8]) -> bool {
    deterministic_bytes(wire) == oracle
}

/// A fingerprint of a wire answer's deterministic bytes, for answers
/// that are recorded during the timed window and checked after it.
pub fn fingerprint(wire: &[Frame]) -> u64 {
    bytes_fingerprint(&deterministic_bytes(wire))
}

pub fn bytes_fingerprint(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// Replay the refresh sequence on a fresh cache-off service over the
/// same generated federation, and compare each recorded first read after
/// a refresh with the oracle's answer at that refresh. Returns the reads
/// that differ (stale or wrong answers).
pub fn stale_reads(
    scenario: &Scenario,
    seed: u64,
    reads: &[&PostRefreshRead],
) -> Result<Vec<String>, String> {
    let mut ordered = reads.to_vec();
    ordered.sort_by_key(|r| r.refresh);
    let oracle = QueryService::for_scenario(scenario, ServeOptions::default().without_caches())
        .with_index_specs(&index_specs())
        .map_err(|e| format!("oracle indexes: {e}"))?;
    let mut applied = 0;
    let mut differing = Vec::new();
    for read in ordered {
        while applied < read.refresh {
            applied += 1;
            let source = refresh_source(applied);
            oracle.update_source_relations(
                &source_name(source),
                refresh_relations(&scenario.databases[source].relations, seed, applied),
            );
        }
        if bytes_fingerprint(&oracle_bytes(&oracle, &read.query)) != read.fingerprint {
            differing.push(format!(
                "after refresh {}: {}",
                read.refresh, read.query.text
            ));
        }
    }
    Ok(differing)
}

/// The gate's findings over a sample.
#[derive(Debug, Default)]
pub struct SampleCheck {
    /// Requests sent and answered.
    pub sent: u64,
    pub answered: u64,
    /// Answers compared with the oracle, and the texts that differed.
    pub compared: usize,
    pub mismatched: Vec<String>,
    /// Wire bytes and oracle rows of each compared answer.
    pub bytes: Vec<f64>,
    pub rows: Vec<f64>,
}

/// Send every sampled query over the wire and compare each answer with
/// a cache-off oracle on the service's current snapshot. The sample is
/// split over `CLIENTS` connections. `sys` reads only have to answer:
/// live telemetry has no oracle.
pub fn check_sample(
    addr: SocketAddr,
    service: &QueryService,
    sample: &[ClientQuery],
) -> SampleCheck {
    let oracle = oracle_for(service);
    let chunk = sample.len().div_ceil(CLIENTS).max(1);
    let parts: Vec<SampleCheck> = std::thread::scope(|scope| {
        let handles: Vec<_> = sample
            .chunks(chunk)
            .map(|part| {
                let oracle = &oracle;
                scope.spawn(move || check_part(addr, oracle, part))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    let mut all = SampleCheck::default();
    for p in parts {
        all.sent += p.sent;
        all.answered += p.answered;
        all.compared += p.compared;
        all.mismatched.extend(p.mismatched);
        all.bytes.extend(p.bytes);
        all.rows.extend(p.rows);
    }
    all
}

fn check_part(addr: SocketAddr, oracle: &QueryService, part: &[ClientQuery]) -> SampleCheck {
    let mut out = SampleCheck::default();
    let mut client = NetClient::connect(addr).ok();
    for query in part {
        out.sent += 1;
        let Some(frames) = client
            .as_mut()
            .and_then(|c| c.execute_frames(&request_for(query)).ok())
            .filter(|f| matches!(f.last(), Some(Frame::Summary { .. })))
        else {
            client = NetClient::connect(addr).ok();
            continue;
        };
        out.answered += 1;
        if Class::of(&query.text) == Class::Sys {
            continue;
        }
        let response = oracle.execute(request_for(query));
        out.compared += 1;
        if !agrees(&frames, &deterministic_bytes(&response_frames(&response))) {
            out.mismatched.push(query.text.clone());
        }
        out.bytes
            .push(frames.iter().map(|f| f.encode().len()).sum::<usize>() as f64);
        out.rows.push(response.rows().map_or(0, |r| r.len()) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_core::source::{SourceId, SourceSet};

    #[test]
    fn the_gate_catches_one_flipped_tag_byte() {
        let config = polygen_workload::WorkloadConfig::default()
            .with_seed(11)
            .with_entities(64);
        let scenario = polygen_workload::generate(&config);
        let service = QueryService::for_scenario(&scenario, ServeOptions::default());
        let query = ClientQuery {
            text: polygen_workload::queries::range_scan(0, 99),
            lang: polygen_workload::clients::QueryLang::Algebra,
        };
        let oracle = oracle_for(&service);
        let expected = oracle_bytes(&oracle, &query);
        let frames = response_frames(&service.execute(request_for(&query)));
        assert!(agrees(&frames, &expected), "honest answer must pass");

        // Flip the lowest bit of one origin tag (detail cells come from
        // S0 alone): one byte of the wire answer changes, and the gate
        // must notice.
        let mut tampered = frames.clone();
        let cell = tampered
            .iter_mut()
            .find_map(|f| match f {
                Frame::Rows { tuples } => tuples.first_mut().and_then(|t| t.first_mut()),
                _ => None,
            })
            .expect("the range scan returns rows");
        let id = cell
            .origin
            .iter()
            .next()
            .expect("retrieved cells carry an origin");
        cell.origin = SourceSet::singleton(SourceId(id.0 ^ 1));
        let (a, b) = (deterministic_bytes(&frames), deterministic_bytes(&tampered));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.iter().zip(&b).filter(|(x, y)| x != y).count(), 1);
        assert!(
            !agrees(&tampered, &expected),
            "a flipped tag byte must fail"
        );
        assert_ne!(fingerprint(&tampered), bytes_fingerprint(&expected));

        // Timing in the summary frame is not part of the comparison.
        let mut retimed = frames.clone();
        for f in &mut retimed {
            if let Frame::Summary { info } = f {
                info.latency_micros += 1_000;
            }
        }
        assert!(agrees(&retimed, &expected));
    }
}
