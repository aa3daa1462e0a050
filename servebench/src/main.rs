//! Serving benchmark for the polygen mediator.
//!
//! One seeded synthetic federation (3 sources, 5 000 entities, 10 000
//! detail rows, hash and sorted indexes on the detail relation) is
//! served by an in-process `NetServer`, and two closed-loop TCP clients
//! drive it with one of three workloads:
//!
//! * `cached_reads`   — Zipf-keyed mixed reads that fit the result cache;
//! * `adhoc_queries`  — analytic shapes that outgrow both caches;
//! * `source_refresh` — `cached_reads` plus a source refresh every
//!   `REFRESH_EVERY` reads of client 0.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload cached_reads --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! window untraced and half traced and prints the per-layer metrics.
//! Every run checks its answers against a cache-off oracle and the
//! workload's defining property; the last line of standard output is a
//! JSON object `{correct, attempted, failed, metrics}`, and the exit
//! code is non-zero when a check fails.

mod drive;
mod gate;
mod host;
mod spans;
mod workload;

use drive::{Ctx, Cursor, Tally, Window};
use polygen_lqp::engine::LocalOp;
use polygen_net::{NetServer, NetServerOptions};
use polygen_serve::prelude::*;
use polygen_workload::clients::ClientQuery;
use polygen_workload::generator::source_name;
use polygen_workload::queries::{
    join_query, paper_shaped_sql, point_lookup, range_scan, select_query, sys_stats_query,
};
use std::collections::{BTreeMap, HashSet};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Class, Workload, CLIENTS};

/// Set-ups per burst. A run sets up in four bursts spread over its
/// length (at the start, after warm-up, after the measured windows and at
/// the end) because a burst lasts well under a second and reads whatever
/// state the host is in at that moment. `setup_s` is the median of every
/// set-up; each set-up service but the served one then takes one idle
/// `S0` refresh, and on `cached_reads` and `adhoc_queries`
/// `refresh_p50_us` is the median of those.
const SETUP_REPS: usize = 8;
/// Ad-hoc warm-up requests (their own draw stream).
const ADHOC_WARMUP: usize = 200;
/// `adhoc_queries` and `source_refresh` check the first this many texts
/// of each client's script against the oracle (`cached_reads` checks its
/// whole population).
const GATE_PER_CLIENT: usize = 48;
/// Refreshes of `S0` (the source that carries the indexes) issued on the
/// served service after the gate, on every workload: the invalidations and
/// index rebuilds the traced run reports when the workload refreshes
/// nothing itself.
const PROBE_REFRESHES: usize = 9;
/// The timed window is cut into up to this many equal slices of time,
/// and `qps`, `p50_us` and `p99_us` are the medians of their per-slice
/// values, so a host hiccup confined to a minority of the window does
/// not move them.
const SLICES: usize = 10;
/// Fewer slices when the window holds less than this many answers per
/// slice (ten beyond each slice's p99).
const MIN_SLICE_SAMPLES: usize = 1_000;
/// Untimed closed-loop traffic between warm-up and the timed window. The
/// first seconds of sustained traffic run measurably slower than the
/// rest (allocator and host warm-up); settling first keeps them out of
/// the timed figures, and the slice medians absorb what is left.
const SETTLE: Duration = Duration::from_secs(5);
/// Sweeps of `LqpRegistry::execute_tagged` over every source relation.
const RETRIEVE_SWEEPS: usize = 10;
/// EXPLAIN ANALYZE repetitions of each class's probe query.
const ANALYZE_REPS: usize = 3;
/// `cached_reads` must serve at least this share of result probes from
/// the cache.
const CACHED_MIN_HIT: f64 = 0.99;
/// `adhoc_queries` must stay at or under this result-hit share, and
/// `source_refresh` strictly between it and `CACHED_MIN_HIT` (measured on
/// a 2-vCPU host: adhoc about 0.08, source_refresh about 0.35).
const ADHOC_MAX_HIT: f64 = 0.20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        values.insert(key, value.as_str());
    }
    let get = |k: &str| values.get(k).copied().ok_or(format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or("--workload must be cached_reads, adhoc_queries or source_refresh")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

fn sampled(
    name: &str,
    values: &[f64],
    stat: fn(&[f64]) -> Option<f64>,
    unit: &'static str,
) -> Metric {
    Metric {
        name: name.to_string(),
        value: stat(values).unwrap_or(0.0),
        unit,
        samples: Some(values.len()),
    }
}

/// Everything the checks found wrong.
#[derive(Default)]
struct Verdict {
    problems: Vec<String>,
}

impl Verdict {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

struct Served {
    scenario: polygen_catalog::scenario::Scenario,
    service: Arc<QueryService>,
    server: NetServer,
}

fn set_up(seed: u64) -> Result<Served, String> {
    let scenario = polygen_workload::generate(&workload::federation_config(seed));
    let service = QueryService::for_scenario(&scenario, ServeOptions::default())
        .with_index_specs(&workload::index_specs())
        .map_err(|e| format!("declaring indexes: {e}"))?;
    let service = Arc::new(service);
    let server = NetServer::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerOptions::default(),
    )
    .map_err(|e| format!("binding the server: {e}"))?;
    Ok(Served {
        scenario,
        service,
        server,
    })
}

/// Set-up seconds and idle `S0` refresh microseconds, gathered in bursts.
#[derive(Default)]
struct SetUps {
    setup_s: Vec<f64>,
    refresh_us: Vec<(usize, f64)>,
    burst_p50_s: Vec<f64>,
}

impl SetUps {
    /// Set up and time one service.
    fn one(&mut self, seed: u64) -> Result<Served, String> {
        let started = Instant::now();
        let served = set_up(seed)?;
        self.setup_s.push(started.elapsed().as_secs_f64());
        Ok(served)
    }

    /// `SETUP_REPS` set-ups, each followed by an idle refresh of `S0` on
    /// the new service before it is shut down.
    fn burst(&mut self, seed: u64) -> Result<(), String> {
        let first = self.setup_s.len();
        for _ in 0..SETUP_REPS {
            let Served {
                scenario,
                service,
                server,
            } = self.one(seed)?;
            let relations = workload::refresh_relations(&scenario.databases[0].relations, seed, 1);
            let started = Instant::now();
            service.update_source_relations(&source_name(0), relations);
            self.refresh_us
                .push((0, started.elapsed().as_secs_f64() * 1e6));
            server.shutdown();
        }
        self.burst_p50_s
            .extend(host::median(&self.setup_s[first..]));
        Ok(())
    }
}

fn print_phase(name: &str, t: Tally) {
    println!(
        "phase {name:<8} sent={} succeeded={} failed={}",
        t.sent, t.ok, t.failed
    );
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn result_ratio(before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    hit_ratio(
        after.result_hits - before.result_hits,
        after.result_misses - before.result_misses,
    )
}

fn invalidated(m: &MetricsSnapshot) -> u64 {
    m.invalidated_plans + m.invalidated_results
}

fn window_tally(w: &Window) -> Tally {
    let mut t = Tally::default();
    for c in &w.clients {
        t.merge(c.tally);
    }
    t
}

fn latencies(w: &Window) -> Vec<f64> {
    w.clients
        .iter()
        .flat_map(|c| c.latencies_us.iter().copied())
        .collect()
}

/// One query per class, parameters fixed by the seed.
fn probe_queries(seed: u64) -> Vec<ClientQuery> {
    use polygen_workload::clients::QueryLang::{Algebra, Sql};
    let c = (seed % 16) as usize;
    let s = (seed % 90) as i64;
    [
        (select_query(c), Algebra),
        (join_query(s), Algebra),
        (paper_shaped_sql(c), Sql),
        (
            point_lookup((seed % workload::ENTITIES as u64) as usize),
            Algebra,
        ),
        (range_scan(s, s + 9), Algebra),
        (sys_stats_query(), Sql),
    ]
    .into_iter()
    .map(|(text, lang)| ClientQuery { text, lang })
    .collect()
}

/// The median refresh latency of each refreshed source, averaged over
/// the sources. The rotation mixes two populations (an `S0` refresh also
/// rebuilds the indexes and evicts every cached answer, so it costs about
/// three times an `S1`/`S2` one), and a plain median over the mixture
/// lands in the tail of the cheaper group; per-source medians are each
/// taken inside one population and every source's cost counts. Prints
/// each source's figures.
fn per_source_median(samples: &[(usize, f64)]) -> f64 {
    let mut by_source: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(source, us) in samples {
        by_source.entry(source).or_default().push(us);
    }
    let medians: Vec<f64> = by_source
        .iter()
        .filter_map(|(source, us)| {
            let p50 = host::median(us)?;
            println!(
                "refresh source=S{source} n={:<4} p10_us={:.0} p50_us={p50:.0} p90_us={:.0}",
                us.len(),
                host::percentile(us, 10.0).unwrap_or(0.0),
                host::percentile(us, 90.0).unwrap_or(0.0)
            );
            Some(p50)
        })
        .collect();
    host::mean(&medians).unwrap_or(0.0)
}

/// Root estimate over root actual (time) from an EXPLAIN ANALYZE text.
fn est_over_actual(plan: &str) -> Option<f64> {
    let line = plan.lines().find(|l| l.contains("est=("))?;
    let number_after = |tag: &str| -> Option<f64> {
        let rest = &line[line.find(tag)? + tag.len()..];
        rest.split_whitespace().next()?.parse().ok()
    };
    let est = number_after("est=(")?;
    let act = number_after("act=(")?;
    Some(est / act.max(1.0))
}

/// Traced calls into layers off the request path: retrieval of every
/// source relation, scrapes, and EXPLAIN ANALYZE of the probe queries
/// (returning each root estimate over actual).
fn layer_calls(ctx: &Ctx, log: &mut spans::SpanLog) -> Vec<f64> {
    let snapshot = ctx.service.federation().snapshot();
    for i in 0..RETRIEVE_SWEEPS {
        log.time("lqp.retrieve", None, (1 << 60) | i as u64, || {
            for db in &ctx.scenario.databases {
                for rel in &db.relations {
                    snapshot
                        .registry()
                        .execute_tagged(
                            &db.name,
                            &LocalOp::retrieve(rel.name()),
                            snapshot.dictionary(),
                        )
                        .expect("source relation retrieves");
                }
            }
        });
        log.time("obs.scrape", None, (1 << 59) | i as u64, || {
            ctx.service.scrape().len()
        });
    }
    let mut ratios = Vec::new();
    for _ in 0..ANALYZE_REPS {
        for q in probe_queries(ctx.seed)
            .iter()
            .filter(|q| Class::of(&q.text) != Class::Sys)
        {
            let req = polygen_net::request_for(q).with_explain_mode(ExplainOptions::Analyze);
            if let Response::Explain { plan, .. } = ctx.service.execute(req) {
                ratios.extend(est_over_actual(&plan));
            }
        }
    }
    ratios
}

/// The per-layer metrics that come from spans: medians of self times
/// (of the whole duration for the round trip), and the transport share
/// of each wire request — its round-trip self time (the server's service
/// time removed) minus its decode and encode.
fn span_metrics(spans: &[spans::Span]) -> Vec<Metric> {
    let selves = spans::self_times(spans);
    let by_name = spans::self_times_by_name(spans);
    let of = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let round_trips: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "net.roundtrip")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    let mut per_request: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selves) {
        let slot = match s.name {
            "net.roundtrip" => 0,
            "net.decode" => 1,
            "net.encode" => 2,
            _ => continue,
        };
        per_request.entry(s.request).or_default()[slot] = *t as f64 / 1e3;
    }
    let transport: Vec<f64> = per_request.values().map(|[rt, d, e]| rt - d - e).collect();
    let mut out = vec![
        sampled("net.roundtrip_us", &round_trips, host::median, "us"),
        sampled("net.transport_us", &transport, host::median, "us"),
    ];
    let by_span = [
        ("net.encode_us", "net.encode"),
        ("net.decode_us", "net.decode"),
        ("serve.hit_us", "serve.hit"),
        ("serve.miss_us", "serve.miss"),
        ("serve.sys_us", "serve.sys"),
        ("sql.canonicalize_us", "sql.canonicalize"),
        ("pqp.translate_us", "pqp.translate"),
        ("pqp.compile_us", "pqp.compile"),
        ("index.rebuild_us", "index.rebuild"),
        ("lqp.retrieve_us", "lqp.retrieve"),
        ("obs.scrape_us", "obs.scrape"),
    ];
    out.extend(
        by_span
            .iter()
            .map(|(metric, span)| sampled(metric, &of(span), host::median, "us")),
    );
    out.extend(Class::USER.into_iter().map(|class| {
        sampled(
            &format!("pqp.exec_us.{}", class.name()),
            &of(drive::class_span(class)),
            host::median,
            "us",
        )
    }));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <cached_reads|adhoc_queries|source_refresh> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let seed = args.seed;
    let wl = args.workload;
    println!(
        "servebench workload={} seed={seed} seconds={} trace={}",
        wl.name(),
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host::fingerprint());
    println!(
        "federation sources={} entities={} detail_rows={} indexes=S0.DETAIL.DNAME(hash),S0.DETAIL.DSCORE(sorted) clients={CLIENTS} (closed loop)",
        workload::SOURCES,
        workload::ENTITIES,
        workload::DETAIL_ROWS
    );

    // Set-up: generation, service, indexes, server.
    let mut setups = SetUps::default();
    setups.burst(seed)?;
    let Served {
        scenario,
        service,
        server,
    } = setups.one(seed)?;
    let ctx = Ctx {
        workload: wl,
        seed,
        addr: server.addr(),
        service: Arc::clone(&service),
        scenario,
        refreshes: AtomicU64::new(0),
        epoch: Instant::now(),
    };
    let mut verdict = Verdict::default();

    let scripts: Vec<Vec<ClientQuery>> = (0..CLIENTS)
        .map(|c| workload::script(wl, seed, c))
        .collect();
    let population = workload::distinct(&scripts);
    let capacity = ServeOptions::default().result_cache;
    println!(
        "population distinct_texts={} result_cache={capacity} plan_cache={}",
        population.len(),
        ServeOptions::default().plan_cache
    );

    // Warm-up: every distinct text once (adhoc: its own short stream).
    let warm_texts = match wl {
        Workload::AdhocQueries => workload::adhoc_script(seed, 999, ADHOC_WARMUP),
        _ => population.clone(),
    };
    let mut logs = Vec::new();
    let warm = if args.trace {
        let mut log = spans::SpanLog::new(ctx.epoch);
        let t = drive::serve_each_traced(&service, &warm_texts, &mut log, 1 << 61);
        logs.push(log);
        t
    } else {
        drive::send_each(ctx.addr, &warm_texts)
    };
    print_phase("warmup", warm);
    verdict.require(warm.failed == 0, || {
        format!("{} warm-up requests failed", warm.failed)
    });
    setups.burst(seed)?;

    // Settle, then the measured windows.
    let mut cursors = vec![Cursor::default(); CLIENTS];
    let settle = drive::window(&ctx, &scripts, &mut cursors, SETTLE, false);
    let settle_tally = window_tally(&settle);
    print_phase("settle", settle_tally);
    verdict.require(settle_tally.failed == 0, || {
        format!("{} settle requests failed", settle_tally.failed)
    });
    let total = Duration::from_secs(args.seconds);
    let m0 = service.metrics();
    let timed_len = if args.trace { total / 2 } else { total };
    let timed = drive::window(&ctx, &scripts, &mut cursors, timed_len, false);
    let m1 = service.metrics();
    let timed_tally = window_tally(&timed);
    print_phase("timed", timed_tally);
    let traced = args.trace.then(|| {
        let w = drive::window(&ctx, &scripts, &mut cursors, total - timed_len, true);
        print_phase("traced", window_tally(&w));
        w
    });
    let m2 = service.metrics();
    setups.burst(seed)?;
    let mut attempted = timed_tally;
    if let Some(w) = &traced {
        attempted.merge(window_tally(w));
    }

    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for c in &timed.clients {
        for (class, us) in c.classes.iter().zip(&c.latencies_us) {
            by_class.entry(*class).or_default().push(*us);
        }
    }
    for (class, us) in &by_class {
        println!(
            "latency class={:<6} n={:<6} p50_us={:.0} p90_us={:.0}",
            class.name(),
            us.len(),
            host::median(us).unwrap_or(0.0),
            host::percentile(us, 90.0).unwrap_or(0.0)
        );
    }

    // Property: each workload measures what it claims.
    let sent_texts: HashSet<&str> = timed
        .clients
        .iter()
        .zip(&scripts)
        .flat_map(|(c, s)| (c.first..c.last).map(move |i| s[i % s.len()].text.as_str()))
        .collect();
    let timed_hits = result_ratio(&m0, &m1);
    println!(
        "property result_hits={} result_misses={} result_hit_ratio={timed_hits:.4} distinct_sent={} population={}",
        m1.result_hits - m0.result_hits,
        m1.result_misses - m0.result_misses,
        sent_texts.len(),
        population.len()
    );
    match wl {
        Workload::CachedReads => {
            verdict.require(population.len() <= capacity, || {
                format!(
                    "{} texts overflow the {capacity}-entry result cache",
                    population.len()
                )
            });
            verdict.require(timed_hits >= CACHED_MIN_HIT, || {
                format!("cached_reads result-hit ratio {timed_hits:.4} < {CACHED_MIN_HIT}")
            });
        }
        Workload::AdhocQueries => {
            verdict.require(population.len() >= 10 * capacity, || {
                format!("adhoc population {} < 10 x {capacity}", population.len())
            });
            verdict.require(timed_hits <= ADHOC_MAX_HIT, || {
                format!("adhoc result-hit ratio {timed_hits:.4} > {ADHOC_MAX_HIT}")
            });
        }
        Workload::SourceRefresh => {
            verdict.require(timed_hits > ADHOC_MAX_HIT && timed_hits < CACHED_MIN_HIT, || {
                format!(
                    "source_refresh result-hit ratio {timed_hits:.4} outside ({ADHOC_MAX_HIT}, {CACHED_MIN_HIT})"
                )
            });
        }
    }

    // Correctness gate, outside the timed windows.
    let gate_started = Instant::now();
    let sample: Vec<ClientQuery> = match wl {
        Workload::CachedReads => population.clone(),
        Workload::AdhocQueries | Workload::SourceRefresh => scripts
            .iter()
            .flat_map(|s| s.iter().take(GATE_PER_CLIENT).cloned())
            .collect(),
    };
    let check = gate::check_sample(ctx.addr, &service, &sample);
    let gate_tally = Tally {
        sent: check.sent,
        ok: check.answered,
        failed: check.sent - check.answered,
    };
    let (compared, mut mismatched, bytes, rows) =
        (check.compared, check.mismatched, check.bytes, check.rows);
    print_phase("gate", gate_tally);
    verdict.require(gate_tally.failed == 0, || {
        format!("{} gate requests failed", gate_tally.failed)
    });

    // Stale reads: replay the refresh sequence on a cache-off oracle and
    // compare the writer's first read after each refresh.
    let post: Vec<&drive::PostRefreshRead> = settle
        .clients
        .iter()
        .chain(&timed.clients)
        .chain(traced.iter().flat_map(|w| &w.clients))
        .flat_map(|c| &c.post_refresh)
        .collect();
    let stale = gate::stale_reads(&ctx.scenario, seed, &post)?;
    let stale_count = stale.len();
    mismatched.extend(stale);
    println!(
        "gate compared={compared} mismatched={} post_refresh_reads={} stale_reads={stale_count} took_s={:.2}",
        mismatched.len(),
        post.len(),
        gate_started.elapsed().as_secs_f64()
    );
    for m in mismatched.iter().take(5) {
        println!("gate mismatch: {m}");
    }
    verdict.require(mismatched.is_empty(), || {
        format!("{} answers differ from the oracle", mismatched.len())
    });

    // Refresh probe on every workload, after the gate.
    let mut probe_log = args.trace.then(|| spans::SpanLog::new(ctx.epoch));
    let before_probe = service.metrics();
    for _ in 0..PROBE_REFRESHES {
        drive::refresh(&ctx, probe_log.as_mut(), Some(0));
    }
    let after_probe = service.metrics();
    let probe_invalidated =
        (invalidated(&after_probe) - invalidated(&before_probe)) as f64 / PROBE_REFRESHES as f64;

    setups.burst(seed)?;
    println!(
        "setup n={} p50_s_by_burst={:.4?}",
        setups.setup_s.len(),
        setups.burst_p50_s
    );

    let window_refresh_us: Vec<(usize, f64)> = timed
        .clients
        .iter()
        .flat_map(|c| c.refresh_us.iter().copied())
        .collect();
    // `refresh_p50_us` is the writer's in-window refreshes on
    // source_refresh, the idle refreshes of the set-up bursts elsewhere.
    let refreshes = if wl == Workload::SourceRefresh {
        &window_refresh_us
    } else {
        &setups.refresh_us
    };
    let refresh_p50_us = per_source_median(refreshes);

    let mut metrics: Vec<Metric> = Vec::new();
    if let Some(mut traced) = traced {
        let mut log = probe_log.take().expect("traced probe log");
        let ratios = layer_calls(&ctx, &mut log);
        let mut all_logs = logs;
        all_logs.extend(traced.clients.iter_mut().filter_map(|c| c.log.take()));
        // Classes the workload never sends are served once from the
        // probe set so every class reports.
        let seen: HashSet<&str> = all_logs
            .iter()
            .flat_map(|l| l.spans().iter().map(|s| s.name))
            .collect();
        let missing: Vec<ClientQuery> = probe_queries(seed)
            .into_iter()
            .filter(|q| !seen.contains(drive::class_span(Class::of(&q.text))))
            .collect();
        drive::serve_each_traced(&service, &missing, &mut log, 1 << 58);
        all_logs.push(log);
        let spans = spans::merge(all_logs);
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("spans-{}.tsv", wl.name()));
        spans::write_tsv(&out, &spans).map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("spans written={} file={}", spans.len(), out.display());

        let untraced_p50 = host::median(&latencies(&timed)).unwrap_or(0.0);
        let traced_rt = latencies(&traced);
        let traced_p50 = host::median(&traced_rt).unwrap_or(0.0);
        let routed: u64 = traced.clients.iter().map(|c| c.routed).sum();
        let answers: u64 = traced.clients.iter().map(|c| c.answers).sum();
        let traced_refreshes: usize = traced.clients.iter().map(|c| c.refresh_us.len()).sum();
        let invalidated_per_refresh = if traced_refreshes > 0 {
            (invalidated(&m2) - invalidated(&m1)) as f64 / traced_refreshes as f64
        } else {
            probe_invalidated
        };
        metrics.extend(span_metrics(&spans));
        metrics.extend([
            sampled("net.bytes_per_response", &bytes, host::mean, "bytes"),
            metric("serve.result_hit_ratio", result_ratio(&m1, &m2), "ratio"),
            metric(
                "serve.plan_hit_ratio",
                hit_ratio(m2.plan_hits - m1.plan_hits, m2.plan_misses - m1.plan_misses),
                "ratio",
            ),
            metric(
                "serve.invalidated_per_refresh",
                invalidated_per_refresh,
                "count",
            ),
            sampled("pqp.rows_out", &rows, host::mean, "count"),
            sampled("pqp.est_over_actual", &ratios, host::median, "ratio"),
            metric(
                "index.routed_share",
                hit_ratio(routed, answers - routed),
                "ratio",
            ),
            Metric {
                name: "obs.trace_overhead_pct".into(),
                value: if untraced_p50 > 0.0 {
                    (traced_p50 / untraced_p50 - 1.0) * 100.0
                } else {
                    0.0
                },
                unit: "%",
                samples: Some(traced_rt.len()),
            },
        ]);
    } else {
        let timed_samples: Vec<(f64, f64)> = timed
            .clients
            .iter()
            .flat_map(|c| c.done_s.iter().copied().zip(c.latencies_us.iter().copied()))
            .collect();
        let window_s = timed_len.as_secs_f64();
        let count = (timed_samples.len() / MIN_SLICE_SAMPLES).clamp(1, SLICES);
        let slice_s = window_s / count as f64;
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for (i, v) in host::slices(&timed_samples, window_s, count)
            .iter()
            .enumerate()
        {
            let (p50, p99) = (host::median(v), host::percentile(v, 99.0));
            rates.push(v.len() as f64 / slice_s);
            println!(
                "slice {i} n={:<6} qps={:.1} p50_us={:.0} p99_us={:.0}",
                v.len(),
                rates[i],
                p50.unwrap_or(0.0),
                p99.unwrap_or(0.0)
            );
            p50s.extend(p50);
            p99s.extend(p99);
        }
        let answered = timed_tally.ok;
        metrics.extend([
            Metric {
                name: "qps".into(),
                value: host::median(&rates).unwrap_or(0.0),
                unit: "1/s",
                samples: Some(answered as usize),
            },
            Metric {
                name: "p50_us".into(),
                value: host::median(&p50s).unwrap_or(0.0),
                unit: "us",
                samples: Some(timed_samples.len()),
            },
            Metric {
                name: "p99_us".into(),
                value: host::median(&p99s).unwrap_or(0.0),
                unit: "us",
                samples: Some(timed_samples.len()),
            },
            Metric {
                name: "success_rate".into(),
                value: if timed_tally.sent == 0 {
                    0.0
                } else {
                    timed_tally.ok as f64 / timed_tally.sent as f64
                },
                unit: "ratio",
                samples: Some(timed_tally.sent as usize),
            },
            sampled("setup_s", &setups.setup_s, host::median, "s"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
            Metric {
                name: "refresh_p50_us".into(),
                value: refresh_p50_us,
                unit: "us",
                samples: Some(refreshes.len()),
            },
        ]);
    }
    server.shutdown();

    for m in &metrics {
        let n = m.samples.map_or_else(String::new, |n| format!(" (n={n})"));
        println!("metric {:<26} {:>14.3} {}{n}", m.name, m.value, m.unit);
        verdict.require(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    verdict.require(attempted.failed == 0, || {
        format!("{} measured requests failed", attempted.failed)
    });
    for p in &verdict.problems {
        println!("check failed: {p}");
    }
    let correct = verdict.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.sent.max(1),
        attempted.failed,
        body.join(", ")
    );
    Ok(correct)
}
