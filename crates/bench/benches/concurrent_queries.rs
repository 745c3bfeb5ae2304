//! `concurrent_queries` Criterion group: throughput of many in-flight
//! SC-shape queries on one shared persistent worker pool, on both storage
//! engines, plus the serving-tier scenarios in front of it.
//!
//! The concurrent scenario: `IN_FLIGHT` OS threads each fire SC-shape
//! queries back to back against one engine. Every parallel phase draws an
//! admission-controlled grant from `THREADS - 1` parked workers, so the
//! whole storm shares one thread budget.
//!
//! The pool is parity-checked first (its results must equal the
//! sequential single-query run byte-for-byte). Measured numbers land in
//! `BENCH_concurrent_queries.json`, the serving-tier scenario (bounded
//! queue, mixed deadlines, overload shedding) in
//! `BENCH_serving_storm.json`, and the closed-loop Zipf template storm
//! comparing the serving tier with the result cache + coalescing on vs.
//! off in `BENCH_query_cache.json` — at the workspace root on a full run,
//! under `target/` in smoke mode. Acceptance bars held here:
//!
//! * single-query latency stays within a catastrophic-only band of the
//!   flat join/group times recorded in `BENCH_join_group.json`;
//! * at Zipf skew s=1.0 over the template pool, cache-on throughput is at
//!   least 2x cache-off, while a cold miss (first sighting of a template)
//!   costs within 5% of the no-cache serving path.
//!
//! `--test` runs the CI smoke mode: same parity checks and JSON emission
//! with minimal timing, and the perf bars widened to reject only outright
//! regressions (shared CI runners make tight timing bars flaky).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::Criterion;
use rand::SeedableRng;

use blend_bench::{synthetic_rows, write_bench_json};
use blend_common::zipf::Zipf;
use blend_common::BlendError;
use blend_parallel::{Deadline, ParallelCtx};
use blend_serve::{ServeConfig, ServeQueue};
use blend_sql::{ExecPath, ResultSet, SqlEngine};
use blend_storage::{build_engine, EngineKind};

/// Worker budget per context (the serving pool width).
const THREADS: usize = 4;
/// Concurrently serving OS threads (in-flight queries).
const IN_FLIGHT: usize = 8;
/// Queries each serving thread fires per storm.
const QUERIES_PER_THREAD: usize = 4;
/// Parallel thresholds: small enough that every SC phase rides the pool
/// at this data size.
const MIN_PARALLEL: usize = 512;
const MORSEL_LEN: usize = 2048;

/// The SC seeker shape: broad IN-list scan + GROUP BY (TableId, ColumnId)
/// with a distinct count, ordered and limited (paper Listing 1).
fn sc_shape_sql() -> String {
    let vals: Vec<String> = (0..96u32)
        .map(|i| format!("'v{}'", (i * 5) % 997))
        .collect();
    format!(
        "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables \
         WHERE CellValue IN ({}) \
         GROUP BY TableId, ColumnId \
         ORDER BY COUNT(DISTINCT CellValue) DESC, TableId, ColumnId LIMIT 10",
        vals.join(",")
    )
}

/// Persistent-pool serving context: parked workers + admission budget.
fn shared_ctx() -> Arc<ParallelCtx> {
    Arc::new(ParallelCtx::with_admission(
        THREADS,
        MIN_PARALLEL,
        MORSEL_LEN,
        THREADS - 1,
    ))
}

/// One storm: `IN_FLIGHT` threads x `QUERIES_PER_THREAD` queries against
/// `engine`. Returns queries per second.
fn storm_qps(engine: &SqlEngine, sql: &str) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..IN_FLIGHT {
            scope.spawn(|| {
                for _ in 0..QUERIES_PER_THREAD {
                    std::hint::black_box(
                        engine
                            .execute_with_report_path(sql, ExecPath::Auto)
                            .expect("SC query runs"),
                    );
                }
            });
        }
    });
    (IN_FLIGHT * QUERIES_PER_THREAD) as f64 / t0.elapsed().as_secs_f64()
}

/// Median of `iters` samples of `f`.
fn median_f64(iters: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(1)).map(|_| f()).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median single-query wall time, in nanoseconds.
fn single_query_ns(iters: usize, engine: &SqlEngine, sql: &str) -> u64 {
    median_f64(iters, || {
        let t0 = Instant::now();
        std::hint::black_box(
            engine
                .execute_with_report_path(sql, ExecPath::Auto)
                .expect("SC query runs"),
        );
        t0.elapsed().as_nanos() as f64
    }) as u64
}

/// Pull `flat_ns` for (engine, shape) out of `BENCH_join_group.json`
/// without a JSON dependency (the file is emitted by our own bench, so
/// the line shape is known).
fn join_group_flat_ns(engine: &str, shape: &str) -> Option<u64> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_join_group.json");
    let text = std::fs::read_to_string(path).ok()?;
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"engine\": \"{engine}\"")) && l.contains(shape))?;
    let tail = line.split("\"flat_ns\": ").nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Serving-tier scenario: a bounded [`ServeQueue`] in front of the shared
/// engine, offered 2x queue-depth waves with a third of the load on tiny
/// deadlines. Records throughput of completed requests plus typed-outcome
/// counts (ok / timeout / cancelled / shed) for the perf trajectory.
struct ServingStormResult {
    engine: &'static str,
    offered: usize,
    ok: usize,
    timeouts: usize,
    shed: usize,
    other_errors: usize,
    ok_qps: f64,
    median_ok_wait_ns: u64,
}

fn serving_storm(
    engine: Arc<SqlEngine>,
    label: &'static str,
    sql: &str,
    waves: usize,
) -> ServingStormResult {
    const DEPTH: usize = 4;
    let queue = ServeQueue::new(
        engine,
        ServeConfig {
            depth: DEPTH,
            workers: 2,
            // This scenario measures the bounded queue under overload on
            // the *execution* path; memoization is the cache storm's job
            // and would let repeats of the one template skip execution.
            result_cache_bytes: 0,
            coalesce: false,
            ..ServeConfig::default()
        },
    );
    let mut ok = 0usize;
    let mut timeouts = 0usize;
    let mut shed = 0usize;
    let mut other_errors = 0usize;
    let mut ok_waits_ns: Vec<u64> = Vec::new();
    let t0 = Instant::now();
    for wave in 0..waves {
        // 2x queue depth offered at once; every third request gets a
        // deliberately hopeless 1 ms budget so deadline handling is on the
        // measured path, the rest a generous one.
        let tickets: Vec<_> = (0..2 * DEPTH)
            .map(|i| {
                let deadline = if (i + wave) % 3 == 0 {
                    Deadline::after(std::time::Duration::from_millis(1))
                } else {
                    Deadline::after(std::time::Duration::from_secs(30))
                };
                queue.submit(sql, deadline)
            })
            .collect();
        for ticket in tickets {
            match ticket.and_then(|t| t.wait()) {
                Ok((rs, report)) => {
                    std::hint::black_box(rs);
                    ok += 1;
                    if let Some(serving) = report.serving {
                        ok_waits_ns.push(serving.queue_wait_nanos);
                    }
                }
                Err(BlendError::Timeout(_)) => timeouts += 1,
                Err(BlendError::Overloaded(_)) => shed += 1,
                Err(_) => other_errors += 1,
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let offered = waves * 2 * DEPTH;
    assert_eq!(
        ok + timeouts + shed + other_errors,
        offered,
        "{label}: serving storm lost a request"
    );
    assert!(ok > 0, "{label}: serving storm completed nothing");
    ok_waits_ns.sort_unstable();
    ServingStormResult {
        engine: label,
        offered,
        ok,
        timeouts,
        shed,
        other_errors,
        ok_qps: ok as f64 / elapsed,
        median_ok_wait_ns: ok_waits_ns.get(ok_waits_ns.len() / 2).copied().unwrap_or(0),
    }
}

/// Closed-loop clients in the query-cache storm.
const CACHE_CLIENTS: usize = 8;
/// Distinct query templates the Zipf sampler draws from.
const CACHE_TEMPLATES: usize = 32;
/// Zipf exponent over template popularity (s=1.0 per the acceptance bar:
/// natural-language-like skew, the head template gets ~25% of the load).
const CACHE_ZIPF_S: f64 = 1.0;

/// Template `i` of the cache storm: the SC seeker shape with a
/// template-specific IN list, so distinct templates fingerprint (and
/// cache) separately while repeats of one template are fingerprint-equal.
fn cache_template_sql(i: usize) -> String {
    let vals: Vec<String> = (0..8)
        .map(|j| format!("'v{}'", (i * 7 + j * 13) % 997))
        .collect();
    format!(
        "SELECT TableId, COUNT(DISTINCT CellValue) AS n FROM AllTables \
         WHERE CellValue IN ({}) GROUP BY TableId, ColumnId \
         ORDER BY COUNT(DISTINCT CellValue) DESC, TableId, ColumnId LIMIT 10",
        vals.join(",")
    )
}

/// One side of the cache comparison: QPS and latency percentiles of a
/// closed-loop Zipf storm through a [`ServeQueue`], plus the typed-outcome
/// split so the JSON records *why* the cached side is faster.
struct CacheStormSide {
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
    ok: u64,
    cache_hits: u64,
    coalesced_hits: u64,
}

/// Drive `CACHE_CLIENTS` closed-loop clients, each firing
/// `ops_per_client` Zipf-drawn template queries back to back. Every
/// result is parity-checked against the sequential reference; any shed,
/// timeout, or failure panics (the closed loop never outruns the queue).
fn cache_storm(
    engine: Arc<SqlEngine>,
    cached: bool,
    ops_per_client: usize,
    templates: &[String],
    expected: &[ResultSet],
) -> CacheStormSide {
    let queue = ServeQueue::new(
        engine,
        ServeConfig {
            depth: 64,
            workers: 2,
            result_cache_bytes: if cached { 32 << 20 } else { 0 },
            coalesce: cached,
            ..ServeConfig::default()
        },
    );
    let zipf = Zipf::new(CACHE_TEMPLATES, CACHE_ZIPF_S);
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CACHE_CLIENTS)
            .map(|client| {
                let queue = &queue;
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB1E2D + client as u64);
                    let mut lat = Vec::with_capacity(ops_per_client);
                    for _ in 0..ops_per_client {
                        let t = zipf.sample(&mut rng);
                        let q0 = Instant::now();
                        let (rs, _report) = queue
                            .submit(&templates[t], Deadline::after(Duration::from_secs(30)))
                            .expect("closed-loop storm never sheds")
                            .wait()
                            .expect("cache storm query succeeds");
                        lat.push(q0.elapsed().as_nanos() as u64);
                        assert_eq!(
                            rs, expected[t],
                            "cache storm result diverged from the sequential reference \
                             (template {t}, cached={cached})"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("cache storm client panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = queue.stats();
    assert_eq!(
        stats.ok + stats.cache_hits + stats.coalesced_hits,
        (CACHE_CLIENTS * ops_per_client) as u64,
        "cache storm (cached={cached}) lost or failed a request"
    );
    if !cached {
        assert_eq!(
            stats.cache_hits + stats.coalesced_hits,
            0,
            "disabled cache must never serve memoized results"
        );
    }
    latencies.sort_unstable();
    CacheStormSide {
        qps: latencies.len() as f64 / elapsed,
        p50_ns: latencies[latencies.len() / 2],
        p99_ns: latencies[(latencies.len() * 99) / 100],
        ok: stats.ok,
        cache_hits: stats.cache_hits,
        coalesced_hits: stats.coalesced_hits,
    }
}

/// A cold-miss probe: the 96-literal join-seeker shape (the serving
/// tier's heavyweight query class — joinability scoring à la MATE) with a
/// probe-specific literal set, so every sighting is a first sighting on
/// both queues. Cold-path overhead is fingerprint + probe + insert, which
/// is independent of execution cost; holding the 5% bar against the query
/// class where a miss actually hurts is the honest comparison.
fn cold_probe_sql(i: usize) -> String {
    let vals: Vec<String> = (0..96u32)
        .map(|j| format!("'v{}'", (i as u32 * 11 + j * 5) % 997))
        .collect();
    format!(
        "SELECT a.TableId, COUNT(*) AS n FROM AllTables a \
         INNER JOIN AllTables b ON a.CellValue = b.CellValue \
         WHERE b.ColumnId = 0 AND b.CellValue IN ({}) \
         GROUP BY a.TableId ORDER BY n DESC, a.TableId LIMIT 10",
        vals.join(",")
    )
}

/// Median first-sighting latency, cache-on vs. cache-off. Each probe is
/// submitted once to *both* queues (separate caches, so both sightings
/// are cold), in alternating order so scheduler drift cancels instead of
/// biasing one side. With the cache on a probe pays fingerprint + probe +
/// insert on the serving path; with it off it is a plain execution — the
/// medians' ratio is the cache's cold-path overhead.
fn cold_miss_ns(engine: Arc<SqlEngine>, sqls: &[String]) -> (u64, u64) {
    let mk = |cached: bool| {
        ServeQueue::new(
            engine.clone(),
            ServeConfig {
                depth: 64,
                workers: 2,
                result_cache_bytes: if cached { 32 << 20 } else { 0 },
                coalesce: cached,
                ..ServeConfig::default()
            },
        )
    };
    let on = mk(true);
    let off = mk(false);
    let probe = |queue: &ServeQueue, sql: &str| {
        let t0 = Instant::now();
        std::hint::black_box(
            queue
                .submit(sql, Deadline::after(Duration::from_secs(30)))
                .expect("cold-miss probe never sheds")
                .wait()
                .expect("cold-miss probe succeeds"),
        );
        t0.elapsed().as_nanos() as u64
    };
    // Uncounted warm-up: serving threads parked-and-woken once, engine
    // paths hot, before any measured probe.
    let warm = cache_template_sql(4000);
    probe(&on, &warm);
    probe(&off, &warm);
    let mut on_ns = Vec::with_capacity(sqls.len());
    let mut off_ns = Vec::with_capacity(sqls.len());
    for (i, sql) in sqls.iter().enumerate() {
        if i % 2 == 0 {
            on_ns.push(probe(&on, sql));
            off_ns.push(probe(&off, sql));
        } else {
            off_ns.push(probe(&off, sql));
            on_ns.push(probe(&on, sql));
        }
    }
    on_ns.sort_unstable();
    off_ns.sort_unstable();
    (on_ns[on_ns.len() / 2], off_ns[off_ns.len() / 2])
}

struct CaseResult {
    engine: &'static str,
    shared_qps: f64,
    shared_single_ns: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = if smoke { 3 } else { 9 };
    let rows = synthetic_rows(60, 120, 5); // 36_000 fact rows
    let n_rows = rows.len();
    let sql = sc_shape_sql();
    println!(
        "== bench `concurrent_queries` ({IN_FLIGHT} in-flight SC queries, {THREADS}-thread \
         budget, {n_rows} rows{})",
        if smoke { ", --test smoke mode" } else { "" }
    );

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("concurrent_queries");
    group.sample_size(if smoke { 2 } else { 10 });

    let mut results: Vec<CaseResult> = Vec::new();
    let mut serving_results: Vec<ServingStormResult> = Vec::new();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let fact = build_engine(kind, rows.clone());
        let label = kind.label().to_lowercase();

        let sequential = SqlEngine::with_alltables(fact.clone())
            .with_parallel(Arc::new(ParallelCtx::sequential()));
        let shared = SqlEngine::with_alltables(fact.clone()).with_parallel(shared_ctx());

        // Parity before timing: the shared pool must reproduce the
        // sequential single-query result byte-for-byte.
        let (want, want_rep) = sequential
            .execute_with_report_path(&sql, ExecPath::Auto)
            .expect("SC query runs");
        assert_eq!(want_rep.path, "positional");
        let (got, rep) = shared
            .execute_with_report_path(&sql, ExecPath::Auto)
            .expect("SC query runs");
        assert_eq!(got, want, "{label}: pooled result diverged from sequential");
        assert!(
            !rep.parallel.is_empty(),
            "{label}: phases must actually ride the pool at this size"
        );
        // EXPLAIN ANALYZE: the span-tree profile of the SC shape, printed
        // once per engine as the human-readable per-phase timing breakdown.
        let profile = rep.profile.as_ref().expect("profile collected");
        println!("  {label} SC query profile:");
        for line in profile.render().lines() {
            println!("    {line}");
        }

        // Warm, then measure storms (median over iters).
        let _ = storm_qps(&shared, &sql);
        let shared_qps = median_f64(iters, || storm_qps(&shared, &sql));

        if !smoke {
            group.bench_function(format!("{label}_storm_shared_pool"), |b| {
                b.iter(|| storm_qps(&shared, &sql))
            });
        }

        // Single-query latency on an otherwise idle machine.
        let single_iters = if smoke { 9 } else { 31 };
        let shared_single_ns = single_query_ns(single_iters, &shared, &sql);

        let r = CaseResult {
            engine: kind.label(),
            shared_qps,
            shared_single_ns,
        };
        println!(
            "  -> {label}: storm {:.0} q/s; single query {:.3}ms",
            r.shared_qps,
            r.shared_single_ns as f64 / 1e6,
        );
        results.push(r);

        // Serving-tier storm on the shared persistent pool.
        let serve_engine =
            Arc::new(SqlEngine::with_alltables(fact.clone()).with_parallel(shared_ctx()));
        let sr = serving_storm(serve_engine, kind.label(), &sql, if smoke { 2 } else { 6 });
        println!(
            "  -> {label} serving storm: {} offered, {} ok ({:.0} q/s), {} timeout, \
             {} shed, {} failed; median ok queue wait {:.3}ms",
            sr.offered,
            sr.ok,
            sr.ok_qps,
            sr.timeouts,
            sr.shed,
            sr.other_errors,
            sr.median_ok_wait_ns as f64 / 1e6,
        );
        serving_results.push(sr);
    }
    group.finish();

    // Query-cache storm: closed-loop Zipf(s=1.0) template workload through
    // the serving tier, result cache + coalescing on vs. off, on the
    // column store. Parity first: every storm result is checked against
    // the sequential reference inside the loop.
    let fact = build_engine(EngineKind::Column, rows.clone());
    let cache_engine =
        Arc::new(SqlEngine::with_alltables(fact.clone()).with_parallel(shared_ctx()));
    let reference =
        SqlEngine::with_alltables(fact).with_parallel(Arc::new(ParallelCtx::sequential()));
    let templates: Vec<String> = (0..CACHE_TEMPLATES).map(cache_template_sql).collect();
    let expected: Vec<ResultSet> = templates
        .iter()
        .map(|sql| reference.execute(sql).expect("reference template runs"))
        .collect();

    let ops_per_client = if smoke { 12 } else { 60 };
    let cache_off = cache_storm(
        cache_engine.clone(),
        false,
        ops_per_client,
        &templates,
        &expected,
    );
    let cache_on = cache_storm(
        cache_engine.clone(),
        true,
        ops_per_client,
        &templates,
        &expected,
    );
    let cache_speedup = cache_on.qps / cache_off.qps.max(f64::MIN_POSITIVE);
    assert!(
        cache_on.cache_hits > 0,
        "Zipf storm repeated templates but the cache never hit"
    );

    // Cold-miss overhead: heavy SC-shape probes neither queue ever saw,
    // one sighting per queue, medians over the probe set.
    let cold_templates: Vec<String> = (0..if smoke { 17 } else { 65 })
        .map(cold_probe_sql)
        .collect();
    let (cold_on_ns, cold_off_ns) = cold_miss_ns(cache_engine.clone(), &cold_templates);
    let cold_ratio = cold_on_ns as f64 / (cold_off_ns as f64).max(f64::MIN_POSITIVE);

    println!(
        "  -> query-cache storm (Zipf s={CACHE_ZIPF_S}, {CACHE_TEMPLATES} templates, \
         {CACHE_CLIENTS} clients x {ops_per_client} ops): \
         {:.0} q/s off, {:.0} q/s on ({:.2}x); p50 {:.3}ms off vs {:.3}ms on; \
         on-side outcomes {} fresh / {} cache_hit / {} coalesced_hit; \
         cold miss {:.3}ms on vs {:.3}ms off ({:.3}x)",
        cache_off.qps,
        cache_on.qps,
        cache_speedup,
        cache_off.p50_ns as f64 / 1e6,
        cache_on.p50_ns as f64 / 1e6,
        cache_on.ok,
        cache_on.cache_hits,
        cache_on.coalesced_hits,
        cold_on_ns as f64 / 1e6,
        cold_off_ns as f64 / 1e6,
        cold_ratio,
    );

    // Cache bar: memoization pays at Zipf skew — >= 2x completed-request
    // throughput with the cache on at s=1.0. Smoke mode only rejects an
    // outright loss (shared CI runners), full runs hold the real bar.
    let cache_bar = if smoke { 1.2 } else { 2.0 };
    assert!(
        cache_speedup >= cache_bar,
        "query-cache speedup {cache_speedup:.2}x < {cache_bar}x at Zipf s={CACHE_ZIPF_S} \
         ({:.0} q/s off, {:.0} q/s on)",
        cache_off.qps,
        cache_on.qps
    );
    // Cold-miss bar: the cold path must stay cheap — fingerprint + probe +
    // insert within 5% of the no-cache serving path (median over the probe
    // set; widened in smoke mode where one scheduler hiccup on a ~ms query
    // swamps a single-digit-percent bar).
    let cold_bar = if smoke { 1.5 } else { 1.05 };
    assert!(
        cold_ratio <= cold_bar,
        "cold-miss latency {:.3}ms is more than {cold_bar}x the no-cache path {:.3}ms",
        cold_on_ns as f64 / 1e6,
        cold_off_ns as f64 / 1e6
    );

    // Machine-readable cache trajectory.
    let mut json = String::from("{\n  \"bench\": \"query_cache\",\n");
    let _ = writeln!(json, "  \"rows\": {n_rows},");
    let _ = writeln!(json, "  \"clients\": {CACHE_CLIENTS},");
    let _ = writeln!(json, "  \"templates\": {CACHE_TEMPLATES},");
    let _ = writeln!(json, "  \"ops_per_client\": {ops_per_client},");
    let _ = writeln!(json, "  \"zipf_s\": {CACHE_ZIPF_S},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    for (label, side) in [("cache_off", &cache_off), ("cache_on", &cache_on)] {
        let _ = writeln!(
            json,
            "  \"{label}\": {{\"qps\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"ok\": {}, \"cache_hits\": {}, \"coalesced_hits\": {}}},",
            side.qps, side.p50_ns, side.p99_ns, side.ok, side.cache_hits, side.coalesced_hits
        );
    }
    let _ = writeln!(json, "  \"speedup\": {cache_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"cold_miss\": {{\"cache_on_ns\": {cold_on_ns}, \"cache_off_ns\": {cold_off_ns}, \
         \"ratio\": {cold_ratio:.4}}}"
    );
    json.push_str("}\n");
    let out = write_bench_json("query_cache", smoke, &json);
    println!("  wrote {}", out.display());

    // Latency band: a catastrophic-only guard against the recorded
    // `BENCH_join_group.json` trajectory — the whole SC query (scan +
    // group + sort) at `n_rows` must stay within a generous band of the
    // recorded 150k-row flat group-phase time, scaled by rows.
    for r in &results {
        if let Some(flat_ns) = join_group_flat_ns(r.engine, "sc_join_group") {
            let scaled = flat_ns as f64 * (n_rows as f64 / 150_000.0);
            let limit = (25.0 * scaled).max(20e6);
            assert!(
                (r.shared_single_ns as f64) <= limit,
                "{}: single-query latency {:.3}ms blows the BENCH_join_group.json band \
                 ({:.3}ms limit)",
                r.engine,
                r.shared_single_ns as f64 / 1e6,
                limit / 1e6
            );
        }
    }

    // Machine-readable perf trajectory.
    let mut json = String::from("{\n  \"bench\": \"concurrent_queries\",\n");
    let _ = writeln!(json, "  \"rows\": {n_rows},");
    let _ = writeln!(json, "  \"in_flight\": {IN_FLIGHT},");
    let _ = writeln!(json, "  \"threads\": {THREADS},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"shared_qps\": {:.1}, \"shared_single_ns\": {}}}{}",
            r.engine,
            r.shared_qps,
            r.shared_single_ns,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let out = write_bench_json("concurrent_queries", smoke, &json);
    println!("  wrote {}", out.display());

    // Post-storm metrics snapshot: queue-wait and exec-time percentiles
    // from the process-global registry, accumulated over every storm this
    // run drove through the serving tier.
    let snap = blend_obs::registry().snapshot();
    let percentiles = |name: &str| -> (u64, u64, u64, u64) {
        let h = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram family `{name}`"));
        assert!(h.count > 0, "`{name}` recorded nothing during the storms");
        (h.count, h.quantile(0.5), h.quantile(0.9), h.quantile(0.99))
    };
    let queue_wait = percentiles("blend_serve_queue_wait_nanos");
    let exec_time = percentiles("blend_serve_exec_nanos");
    let submitted = snap.counter("blend_serve_submitted_total");
    let outcome_sum: u64 = [
        "shed",
        "ok",
        "cache_hit",
        "coalesced_hit",
        "timeout",
        "cancelled",
        "failed",
    ]
    .iter()
    .map(|o| snap.counter(&format!("blend_serve_outcomes_total{{outcome=\"{o}\"}}")))
    .sum();
    assert_eq!(
        outcome_sum, submitted,
        "post-storm snapshot: outcome counters must sum to submissions"
    );
    println!(
        "  -> post-storm metrics: {} submitted; queue wait p50 {:.3}ms p90 {:.3}ms \
         p99 {:.3}ms; exec p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms",
        submitted,
        queue_wait.1 as f64 / 1e6,
        queue_wait.2 as f64 / 1e6,
        queue_wait.3 as f64 / 1e6,
        exec_time.1 as f64 / 1e6,
        exec_time.2 as f64 / 1e6,
        exec_time.3 as f64 / 1e6,
    );

    // Serving-tier trajectory: typed-outcome mix and completed-request
    // throughput through the bounded queue.
    let mut json = String::from("{\n  \"bench\": \"serving_storm\",\n");
    let _ = writeln!(json, "  \"rows\": {n_rows},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"metrics\": {{");
    let _ = writeln!(json, "    \"submitted\": {submitted},");
    let _ = writeln!(
        json,
        "    \"queue_wait_nanos\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}},",
        queue_wait.0, queue_wait.1, queue_wait.2, queue_wait.3
    );
    let _ = writeln!(
        json,
        "    \"exec_nanos\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
        exec_time.0, exec_time.1, exec_time.2, exec_time.3
    );
    let _ = writeln!(json, "  }},");
    json.push_str("  \"results\": [\n");
    for (i, r) in serving_results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"offered\": {}, \"ok\": {}, \"timeouts\": {}, \
             \"shed\": {}, \"other_errors\": {}, \"ok_qps\": {:.1}, \
             \"median_ok_wait_ns\": {}}}{}",
            r.engine,
            r.offered,
            r.ok,
            r.timeouts,
            r.shed,
            r.other_errors,
            r.ok_qps,
            r.median_ok_wait_ns,
            if i + 1 < serving_results.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ]\n}\n");
    let out = write_bench_json("serving_storm", smoke, &json);
    println!("  wrote {}", out.display());
    blend_obs::dump_if_enabled();
}
