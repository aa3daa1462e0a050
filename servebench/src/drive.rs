//! The closed-loop clients and the calls the traced run times.
//!
//! Each client owns one TCP session and walks its script in a loop,
//! sending the next query only when the previous answer has arrived.
//! In the traced run a client alternates two kinds of request: even
//! requests go over the wire and are split into round trip, server-side
//! service time (from the answer's summary), decode and encode; odd
//! requests are served in-process through `QueryService::execute` and
//! followed by replays of canonicalization, translation, compilation
//! and execution, so each query is executed once by the service either
//! way and the caches see the same stream as in the untraced run.

use crate::gate;
use crate::spans::{SpanId, SpanLog};
use crate::workload::{
    index_specs, refresh_relations, refresh_source, Class, Workload, CLIENTS, REFRESH_EVERY,
};
use polygen_catalog::scenario::Scenario;
use polygen_net::protocol::{response_frames, response_from_frames};
use polygen_net::{request_for, Frame, NetClient};
use polygen_pqp::pqp::{Pqp, PqpOptions};
use polygen_serve::prelude::*;
use polygen_sql::algebra_expr::parse_algebra;
use polygen_sql::normalize::{canonicalize_algebra, canonicalize_sql};
use polygen_workload::clients::{ClientQuery, QueryLang};
use polygen_workload::generator::source_name;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Scrape the service every this many traced requests of client 0.
const SCRAPE_EVERY: u64 = 64;

/// What every client shares.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub addr: SocketAddr,
    pub service: Arc<QueryService>,
    pub scenario: Scenario,
    /// Number of the last refresh issued (refreshes count from 1).
    pub refreshes: AtomicU64,
    /// Epoch of every span of the run.
    pub epoch: Instant,
}

/// Requests sent, answered and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// A client's place in its script, kept across windows.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cursor {
    next: usize,
    reads: usize,
}

/// The writer's first read after a refresh, checked after the run.
#[derive(Debug, Clone)]
pub struct PostRefreshRead {
    pub refresh: u64,
    pub query: ClientQuery,
    pub fingerprint: u64,
}

/// One client's record of one window.
#[derive(Debug)]
pub struct ClientRun {
    pub tally: Tally,
    /// Wire round trips of answered requests, microseconds, with the
    /// class of each.
    pub latencies_us: Vec<f64>,
    pub classes: Vec<Class>,
    /// When each of those answers arrived, seconds since the window began.
    pub done_s: Vec<f64>,
    /// Refresh latencies as the writer saw them: source, microseconds.
    pub refresh_us: Vec<(usize, f64)>,
    pub post_refresh: Vec<PostRefreshRead>,
    /// Answers that reported an index-routed plan, and all answers.
    pub routed: u64,
    pub answers: u64,
    /// Distinct-text accounting: indices into the script that were sent.
    pub first: usize,
    pub last: usize,
    pub log: Option<SpanLog>,
}

/// A window's result.
pub struct Window {
    pub clients: Vec<ClientRun>,
}

/// Run every client for `length`, traced or not. Clients connect first,
/// then start together.
pub fn window(
    ctx: &Ctx,
    scripts: &[Vec<ClientQuery>],
    cursors: &mut [Cursor],
    length: Duration,
    traced: bool,
) -> Window {
    let barrier = Barrier::new(scripts.len() + 1);
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(i, (script, cursor))| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(ctx, i, script, cursor, length, traced, barrier))
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Window { clients }
}

fn client_loop(
    ctx: &Ctx,
    id: usize,
    script: &[ClientQuery],
    cursor: &mut Cursor,
    length: Duration,
    traced: bool,
    barrier: &Barrier,
) -> ClientRun {
    let mut client = NetClient::connect(ctx.addr).ok();
    let mut run = ClientRun {
        tally: Tally::default(),
        latencies_us: Vec::new(),
        classes: Vec::new(),
        done_s: Vec::new(),
        refresh_us: Vec::new(),
        post_refresh: Vec::new(),
        routed: 0,
        answers: 0,
        first: cursor.next,
        last: cursor.next,
        log: traced.then(|| SpanLog::new(ctx.epoch)),
    };
    let writer = ctx.workload == Workload::SourceRefresh && id == 0;
    let mut check_next: Option<u64> = None;
    let mut sent_here = 0u64;
    barrier.wait();
    let started = Instant::now();
    let deadline = started + length;
    while Instant::now() < deadline {
        let query = &script[cursor.next % script.len()];
        let class = Class::of(&query.text);
        cursor.next += 1;
        let rid = ((id as u64) << 40) | cursor.next as u64;
        let in_process = traced && sent_here % 2 == 1;
        sent_here += 1;
        let outcome = if in_process {
            let log = run.log.as_mut().expect("traced clients keep a log");
            served_in_process(&ctx.service, query, log, rid)
        } else {
            let Some(c) = client.as_mut() else {
                run.tally.add(false);
                client = NetClient::connect(ctx.addr).ok();
                continue;
            };
            let answer = match run.log.as_mut() {
                Some(log) => traced_round_trip(c, query, log, rid),
                None => {
                    let sent = Instant::now();
                    let frames = c.execute_frames(&request_for(query)).ok();
                    frames.map(|f| (f, sent.elapsed()))
                }
            };
            match answer {
                Some((frames, rt)) => {
                    let info = summary(&frames);
                    if info.is_some() {
                        run.latencies_us.push(rt.as_secs_f64() * 1e6);
                        run.classes.push(class);
                        run.done_s.push(started.elapsed().as_secs_f64());
                        if let Some(k) = check_next.filter(|_| class != Class::Sys) {
                            run.post_refresh.push(PostRefreshRead {
                                refresh: k,
                                query: query.clone(),
                                fingerprint: gate::fingerprint(&frames),
                            });
                            check_next = None;
                        }
                    }
                    info.map(|i| i.index_routed)
                }
                None => {
                    client = NetClient::connect(ctx.addr).ok();
                    None
                }
            }
        };
        run.tally.add(outcome.is_some());
        if let Some(routed) = outcome {
            run.answers += 1;
            run.routed += u64::from(routed);
        }
        if writer {
            cursor.reads += 1;
            if cursor.reads.is_multiple_of(REFRESH_EVERY) {
                let (k, source, took) = refresh(ctx, run.log.as_mut(), None);
                run.refresh_us.push((source, took.as_secs_f64() * 1e6));
                check_next = Some(k);
            }
        }
        if id == 0 && traced && sent_here.is_multiple_of(SCRAPE_EVERY) {
            let log = run.log.as_mut().expect("traced clients keep a log");
            log.time("obs.scrape", None, rid, || ctx.service.scrape().len());
        }
    }
    run.last = cursor.next;
    run
}

fn summary(frames: &[Frame]) -> Option<&ResponseInfo> {
    match frames.last() {
        Some(Frame::Summary { info }) => Some(info),
        _ => None,
    }
}

/// A wire request split into round trip (with the server's own service
/// time inside it), decode and encode. Returns the answer and the round
/// trip alone.
fn traced_round_trip(
    client: &mut NetClient,
    query: &ClientQuery,
    log: &mut SpanLog,
    rid: u64,
) -> Option<(Vec<Frame>, Duration)> {
    let req = request_for(query);
    let root = log.begin("request", None, rid);
    let rt = log.begin("net.roundtrip", Some(root), rid);
    let frames = client.execute_frames(&req).ok();
    log.end(rt);
    if let Some(frames) = &frames {
        if let Some(info) = summary(frames) {
            log.record_inside(
                "serve.remote",
                rt,
                Duration::from_micros(info.latency_micros),
            );
        }
        // The payloads as the reader hands them to `Frame::decode`.
        let payloads: Vec<Vec<u8>> = frames.iter().map(|f| f.encode()[4..].to_vec()).collect();
        let response = log.time("net.decode", Some(root), rid, || {
            let decoded: Result<Vec<Frame>, _> =
                payloads.iter().map(|p| Frame::decode(p)).collect();
            decoded.ok().and_then(|d| response_from_frames(&d).ok())
        });
        if let Some(response) = response {
            log.time("net.encode", Some(root), rid, || {
                let bytes: usize = response_frames(&response)
                    .iter()
                    .map(|f| f.encode().len())
                    .sum();
                std::hint::black_box(bytes)
            });
        }
    }
    log.end(root);
    frames.map(|f| (f, log.duration(rt)))
}

/// Serve a request in-process under a span named by its cache outcome,
/// then replay the layers below the service on the current snapshot.
/// Returns whether the answer's plan was index-routed, `None` on failure.
pub fn served_in_process(
    service: &QueryService,
    query: &ClientQuery,
    log: &mut SpanLog,
    rid: u64,
) -> Option<bool> {
    let root = log.begin("request", None, rid);
    let span = log.begin("serve.execute", Some(root), rid);
    let response = service.execute(request_for(query));
    log.end(span);
    let Response::Rows { info, .. } = &response else {
        log.end(root);
        return None;
    };
    let class = Class::of(&query.text);
    log.rename(span, serve_span(class, info.result_hit));
    let replayed = replay_layers(service, query, class, log, root, rid);
    log.end(root);
    replayed.then_some(info.index_routed)
}

fn serve_span(class: Class, result_hit: bool) -> &'static str {
    match (class, result_hit) {
        (Class::Sys, _) => "serve.sys",
        (_, true) => "serve.hit",
        (_, false) => "serve.miss",
    }
}

/// Canonicalize, translate (SQL), compile and execute `query` outside
/// the service, each under its own span. `sys` reads stop after
/// canonicalization: their rows exist only inside the service.
fn replay_layers(
    service: &QueryService,
    query: &ClientQuery,
    class: Class,
    log: &mut SpanLog,
    root: SpanId,
    rid: u64,
) -> bool {
    let snapshot = service.federation().snapshot();
    let options = ServeOptions::default().pqp;
    let canonical = log.time("sql.canonicalize", Some(root), rid, || match query.lang {
        QueryLang::Algebra => canonicalize_algebra(&query.text),
        QueryLang::Sql => {
            let schema = snapshot.dictionary().schema();
            let resolver = |rel: &str| -> Option<Vec<String>> {
                schema
                    .scheme(rel)
                    .map(|s| s.attr_names().map(str::to_string).collect())
            };
            canonicalize_sql(&query.text, &resolver, options.lowering)
        }
    });
    if canonical.is_err() {
        return false;
    }
    if class == Class::Sys {
        return true;
    }
    let pqp = Pqp::new(
        Arc::clone(snapshot.dictionary()),
        Arc::clone(snapshot.registry()),
    )
    .with_options(PqpOptions {
        threads: 1,
        partitions: 1,
        retain_intermediates: false,
        ..options
    })
    .with_indexes(Arc::clone(snapshot.indexes()));
    let expr = match query.lang {
        QueryLang::Sql => log.time("pqp.translate", Some(root), rid, || {
            pqp.translate_sql(&query.text).ok()
        }),
        QueryLang::Algebra => parse_algebra(&query.text).ok(),
    };
    let Some(expr) = expr else { return false };
    let Ok(compiled) = log.time("pqp.compile", Some(root), rid, || pqp.compile(expr)) else {
        return false;
    };
    log.time(class_span(class), Some(root), rid, || {
        pqp.run_compiled(&compiled).is_ok()
    })
}

/// The span a class's own layer work lands in: plan execution for user
/// classes, the in-process service call for `sys` reads.
pub fn class_span(class: Class) -> &'static str {
    match class {
        Class::Select => "pqp.exec.select",
        Class::Join => "pqp.exec.join",
        Class::Paper => "pqp.exec.paper",
        Class::Point => "pqp.exec.point",
        Class::Range => "pqp.exec.range",
        Class::Sys => "serve.sys",
    }
}

/// Issue the next refresh: replace a source's relations through
/// `QueryService::update_source_relations` — the rotating source, or
/// `source` when given. Returns the refresh number, the source and the
/// latency of the update call. Traced, the index rebuild for the
/// refreshed source is replayed beside it.
pub fn refresh(
    ctx: &Ctx,
    log: Option<&mut SpanLog>,
    source: Option<usize>,
) -> (u64, usize, Duration) {
    let k = ctx.refreshes.fetch_add(1, Ordering::SeqCst) + 1;
    let source = source.unwrap_or_else(|| refresh_source(k));
    let relations = refresh_relations(&ctx.scenario.databases[source].relations, ctx.seed, k);
    let name = source_name(source);
    let Some(log) = log else {
        let started = Instant::now();
        ctx.service.update_source_relations(&name, relations);
        return (k, source, started.elapsed());
    };
    let rid = (1 << 62) | k;
    let root = log.begin("refresh", None, rid);
    let update = log.begin("serve.refresh", Some(root), rid);
    ctx.service.update_source_relations(&name, relations);
    log.end(update);
    let took = log.duration(update);
    let specs: Vec<IndexSpec> = index_specs()
        .into_iter()
        .filter(|s| s.source == name)
        .collect();
    if !specs.is_empty() {
        let snapshot = ctx.service.federation().snapshot();
        log.time("index.rebuild", Some(root), rid, || {
            snapshot
                .as_ref()
                .clone()
                .with_indexes(&specs)
                .expect("declared indexes rebuild")
                .index_epoch()
        });
    }
    log.end(root);
    (k, source, took)
}

/// Send `queries` once each, split in order over `CLIENTS` connections.
pub fn send_each(addr: SocketAddr, queries: &[ClientQuery]) -> Tally {
    let chunk = queries.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = queries
            .chunks(chunk)
            .map(|part| scope.spawn(move || send_part(addr, part)))
            .collect();
        let mut tally = Tally::default();
        for part in parts {
            tally.merge(part.join().expect("warm-up thread panicked"));
        }
        tally
    })
}

fn send_part(addr: SocketAddr, queries: &[ClientQuery]) -> Tally {
    let mut tally = Tally::default();
    let mut client = NetClient::connect(addr).ok();
    for query in queries {
        let ok = client
            .as_mut()
            .and_then(|c| c.execute_frames(&request_for(query)).ok())
            .is_some_and(|frames| summary(&frames).is_some());
        if !ok {
            client = NetClient::connect(addr).ok();
        }
        tally.add(ok);
    }
    tally
}

/// Serve `queries` once each in-process under spans, numbering their
/// requests from `first_rid`.
pub fn serve_each_traced(
    service: &QueryService,
    queries: &[ClientQuery],
    log: &mut SpanLog,
    first_rid: u64,
) -> Tally {
    let mut tally = Tally::default();
    for (i, query) in queries.iter().enumerate() {
        let rid = first_rid + i as u64;
        tally.add(served_in_process(service, query, log, rid).is_some());
    }
    tally
}
