//! The serving layer's per-layer figures: seeker SQL through
//! `ServeQueue::submit`, run as part of `seeker_point`'s traced run.
//!
//! Requests draw Zipf(s = 1.0) from a few thousand distinct SC/KW seeker
//! queries whose results total about four times the result-cache budget,
//! so hits, misses, inserts and CLOCK evictions all occur. This is the only
//! pass through fingerprinting, the cache, coalescing, admission and
//! queueing; the gated workloads bypass them, so for a serving change they
//! predict no move. Every result is compared with a cache-off sequential
//! engine's.
//!
//! Its figures are reported per layer only, not gated: on a small shared
//! virtual machine they followed host contention more than the program (the
//! same seed read p99 1.3 ms and then 4.8 ms, 9.6k and then 5.4k requests/s,
//! half an hour apart). A closed loop of [`CLIENTS`] clients, traced, gives
//! the serving-tier timings and cache figures; then an open loop (fixed
//! rates from one generator thread, one collector thread, latency from the
//! due time) measures the nominal rate and bisects the rate ladder.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;

use blend::seekers::seeker_sql;
use blend::{ParallelCtx, Seeker};
use blend_common::zipf::Zipf;
use blend_common::{BlendError, FxHashSet};
use blend_index::IndexBuilder;
use blend_serve::{Deadline, FaultPlan, ServeConfig, ServeQueue, Ticket};
use blend_sql::{QueryReport, ResultSet, SqlEngine};
use blend_storage::EngineKind;

use crate::lakes::{self, Rng64};
use crate::openloop::{self, Rung, Timing};
use crate::{stats, Outcome};

const K: usize = 10;
/// Distinct seeker queries the requests draw from.
const DISTINCT: usize = 4096;
/// Result-cache budget as a share of all distinct results' bytes.
const CACHE_SHARE: f64 = 0.25;
/// Concurrent clients of the closed loop.
const CLIENTS: usize = 2;
/// The open loop's nominal rate (requests/s).
const NOMINAL_RATE: f64 = 2000.0;
/// Ladder: rungs 5% apart, 20 below the nominal rate and 42 above.
const STEP: f64 = 0.05;
const BELOW: usize = 20;
const ABOVE: usize = 42;
/// Latency limit of a passing rung's p99.
const LIMIT_MS: f64 = 2.0;
/// A request not answered this long after it was due times out.
const DEADLINE: Duration = Duration::from_millis(50);
const QUEUE_DEPTH: usize = 64;
const WORKERS: usize = 2;
/// The generator spins, rather than sleeps, this close to a due time.
const SPIN: Duration = Duration::from_micros(300);

/// The distinct request pool: SC and KW seeker SQL over random value sets.
fn request_pool(lake: &blend_lake::DataLake, seed: u64) -> Vec<String> {
    let mut rng = lakes::rng(seed, 20);
    let mut seen = FxHashSet::default();
    let mut sqls = Vec::with_capacity(DISTINCT);
    let mut guard = 0;
    while sqls.len() < DISTINCT && guard < DISTINCT * 20 {
        guard += 1;
        let values = lakes::value_query(lake, 10, &mut rng);
        let seeker = if sqls.len() % 2 == 0 {
            Seeker::sc(values)
        } else {
            Seeker::kw(values)
        };
        let sql = seeker_sql(&seeker, K, 256).replace(blend::seekers::TID_PLACEHOLDER, "");
        if seen.insert(sql.clone()) {
            sqls.push(sql);
        }
    }
    assert_eq!(sqls.len(), DISTINCT, "lake yields too few distinct queries");
    sqls
}

/// Request stream: Zipf ranks mapped through a permutation of the pool, so
/// the popular queries are random members of it. Every stream of a seed
/// shares the permutation (the same queries are popular for every client)
/// and draws its ranks from its own `stream`.
struct Picks {
    zipf: Zipf,
    perm: Vec<usize>,
    rng: Rng64,
}

impl Picks {
    fn new(n: usize, seed: u64, stream: u64) -> Self {
        let mut shuffle = lakes::rng(seed, 21);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, shuffle.random_range(0..=i));
        }
        Picks {
            zipf: Zipf::new(n, 1.0),
            perm,
            rng: lakes::rng(seed, stream),
        }
    }

    fn next(&mut self) -> usize {
        self.perm[self.zipf.sample(&mut self.rng)]
    }
}

/// How one request ended.
enum End {
    Ok,
    Wrong,
    Shed,
    Timeout,
    Error,
}

struct Record {
    timing: Timing,
    end: End,
}

/// One fixed-rate phase: the generator (this thread) submits on schedule,
/// the collector thread waits each ticket in order, timestamps it and
/// compares the result with the reference. The collector's timestamp is
/// when it observed completion, an upper bound on the completion time.
fn phase(
    queue: &ServeQueue,
    sqls: &[String],
    reference: &[ResultSet],
    picks: &mut Picks,
    rate: f64,
    seconds: f64,
) -> Vec<Record> {
    let n = (rate * seconds).ceil() as usize;
    let (tx, rx) = mpsc::channel::<(usize, f64, f64, blend_common::Result<Ticket>)>();
    let start = Instant::now() + Duration::from_millis(2);
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(n);
            for (q, due, sent, ticket) in rx {
                let (done, end) = match ticket {
                    Ok(ticket) => {
                        let res = ticket.wait();
                        let done = secs(Instant::now());
                        let end = match res {
                            Ok((rs, _)) if rs == reference[q] => End::Ok,
                            Ok(_) => End::Wrong,
                            Err(BlendError::Timeout(_)) => End::Timeout,
                            Err(_) => End::Error,
                        };
                        (done, end)
                    }
                    Err(BlendError::Overloaded(_)) => (sent, End::Shed),
                    Err(_) => (sent, End::Error),
                };
                out.push(Record {
                    timing: Timing { due, sent, done },
                    end,
                });
            }
            out
        });
        for i in 0..n {
            let due_at = start + openloop::due_offset(i, rate);
            // Sleep through most of the gap, then spin to the due time: a
            // sleeping generator alone wakes late on an idle virtual CPU.
            let now = Instant::now();
            if due_at > now + SPIN {
                std::thread::sleep(due_at - now - SPIN);
            }
            while Instant::now() < due_at {
                std::thread::yield_now();
            }
            let q = picks.next();
            let sent = Instant::now();
            let ticket = queue.submit(&sqls[q], Deadline::at(due_at + DEADLINE));
            tx.send((q, secs(due_at), secs(sent), ticket))
                .expect("collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })
}

/// Summarize a phase as a ladder rung (latencies of answered requests, in
/// due order; wrong answers count as errors).
fn rung(records: &[Record]) -> Rung {
    let mut r = Rung::default();
    for rec in records {
        match rec.end {
            End::Ok => r.latencies_ms.push(rec.timing.latency_ms()),
            End::Wrong | End::Error => r.errors += 1,
            End::Shed => r.shed += 1,
            End::Timeout => r.timeouts += 1,
        }
    }
    r
}

fn failures(records: &[Record]) -> u64 {
    records.iter().filter(|r| !matches!(r.end, End::Ok)).count() as u64
}

fn wrong(records: &[Record]) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r.end, End::Wrong))
        .count() as u64
}

/// What the closed loop observed.
#[derive(Default)]
struct Closed {
    attempted: u64,
    failed: u64,
    /// Reports of answered requests with the time the client spent in
    /// `submit` (ns).
    reports: Vec<(QueryReport, f64)>,
}

/// [`CLIENTS`] clients in a closed loop for at least `seconds` and enough
/// requests to support a p99. Each client draws from its own Zipf stream
/// (`stream` + client index) and checks every result against the reference.
fn closed_loop(
    queue: &ServeQueue,
    sqls: &[String],
    reference: &[ResultSet],
    seed: u64,
    stream: u64,
    seconds: f64,
) -> Closed {
    let min_each = stats::min_samples_for(0.99).div_ceil(CLIENTS) as u64;
    let start = Instant::now();
    let per_client: Vec<Closed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut picks = Picks::new(sqls.len(), seed, stream + c);
                    let mut out = Closed::default();
                    while start.elapsed().as_secs_f64() < seconds || out.attempted < min_each {
                        let q = picks.next();
                        let t0 = Instant::now();
                        let ticket = queue.submit(&sqls[q], Deadline::after(DEADLINE));
                        let submit_ns = t0.elapsed().as_nanos() as f64;
                        out.attempted += 1;
                        match ticket.and_then(Ticket::wait) {
                            Ok((rs, report)) if rs == reference[q] => {
                                out.reports.push((report, submit_ns))
                            }
                            _ => out.failed += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Closed::default();
    for c in per_client {
        all.attempted += c.attempted;
        all.failed += c.failed;
        all.reports.extend(c.reports);
    }
    all
}

/// One serving pass of about `seconds` on a WDC-like lake of `seed`: adds
/// its requests to `out`'s attempted and failed counts and sets the
/// `serve.*`, `openloop.*`, `gen.late_ms` and `sql.fingerprint_us` metrics.
pub fn layers(seed: u64, seconds: f64, out: &mut Outcome) {
    blend_obs::set_enabled(false);
    let lake = lakes::wdc(seed);
    let sqls = request_pool(&lake, seed);

    // Oracle: a cache-off sequential engine over its own index.
    let reference_engine =
        SqlEngine::with_alltables(IndexBuilder::new().build(&lake.tables, EngineKind::Column))
            .with_parallel(Arc::new(ParallelCtx::sequential()));
    // The cache stores (and charges) a clone of each result, which holds no
    // spare capacity; size the budget and keep the references the same way.
    let reference: Vec<ResultSet> = sqls
        .iter()
        .map(|q| {
            reference_engine
                .execute(q)
                .expect("reference query runs")
                .clone()
        })
        .collect();
    let result_bytes: usize = reference.iter().map(ResultSet::approx_bytes).sum();
    let cache_bytes = (result_bytes as f64 * CACHE_SHARE) as usize;
    let engine = Arc::new(SqlEngine::with_alltables(
        IndexBuilder::new().build(&lake.tables, EngineKind::Column),
    ));
    let queue = ServeQueue::new(
        engine,
        ServeConfig {
            depth: QUEUE_DEPTH,
            workers: WORKERS,
            result_cache_bytes: cache_bytes,
            coalesce: true,
            faults: FaultPlan::none(),
        },
    );
    eprintln!(
        "serve pass: {} tables, {} cells, {} distinct queries, results {result_bytes} B, \
         cache budget {cache_bytes} B",
        lake.len(),
        lake.stats().cells,
        sqls.len()
    );

    // Fill the cache untraced, then measure a traced block (the cache
    // counters record only while tracing is on).
    let warm = closed_loop(&queue, &sqls, &reference, seed, 100, 0.25 * seconds);
    let stats_before = queue.stats();
    let evictions = || {
        blend_obs::registry()
            .snapshot()
            .counter("blend_cache_evictions_total")
    };
    let evictions_before = evictions();
    blend_obs::set_enabled(true);
    let run = closed_loop(&queue, &sqls, &reference, seed, 200, 0.25 * seconds);
    blend_obs::set_enabled(false);
    let st = queue.stats();
    out.attempted += warm.attempted + run.attempted;
    out.failed += warm.failed + run.failed;

    let (mut waits, mut execs, mut submit_ns) = (Vec::new(), Vec::new(), 0.0);
    for (report, ns) in &run.reports {
        submit_ns += ns;
        if let Some(sv) = &report.serving {
            waits.push(sv.queue_wait_nanos as f64 / 1e3);
            execs.push(sv.exec_nanos as f64 / 1e3);
        }
    }
    let q = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::quantile(v, p)
        }
    };
    let n = run.attempted.max(1) as f64;
    let submitted = (st.submitted - stats_before.submitted).max(1) as f64;
    // Fingerprinting, re-timed on the pool's SQL net of the parse it needs.
    let fp_us = crate::median_call_us(&sqls, 0.3, |q| {
        let ast = blend_sql::parser::parse(q).expect("pool SQL parses");
        std::hint::black_box(blend_sql::fingerprint_query(&ast));
    });
    let parse_us = crate::median_call_us(&sqls, 0.3, |q| {
        std::hint::black_box(blend_sql::parser::parse(q).expect("pool SQL parses"));
    });
    out.set("sql.fingerprint_us", fp_us - parse_us);
    out.set("serve.submit_us", submit_ns / n / 1e3);
    out.set("serve.queue_wait_us.p50", q(&waits, 0.5));
    out.set("serve.queue_wait_us.p99", q(&waits, 0.99));
    out.set("serve.exec_us.p50", q(&execs, 0.5));
    out.set("serve.exec_us.p99", q(&execs, 0.99));
    out.set(
        "serve.cache_hit_ratio",
        (st.cache_hits - stats_before.cache_hits) as f64 / submitted,
    );
    out.set(
        "serve.coalesced_ratio",
        (st.coalesced_hits - stats_before.coalesced_hits) as f64 / submitted,
    );
    out.set(
        "serve.evictions",
        (evictions() - evictions_before) as f64 / n,
    );
    out.set("serve.cache_entries", queue.cached_results() as f64);
    open_loop(&queue, &sqls, &reference, seed, seconds, out);
}

/// The open loop, untraced: latency at the nominal rate (medians over
/// windows), the generator's lateness, and the highest ladder rung whose
/// windows mostly pass the p99 limit with nothing shed or timed out.
fn open_loop(
    queue: &ServeQueue,
    sqls: &[String],
    reference: &[ResultSet],
    seed: u64,
    s: f64,
    out: &mut Outcome,
) {
    let mut picks = Picks::new(sqls.len(), seed, 22);
    let nominal = phase(queue, sqls, reference, &mut picks, NOMINAL_RATE, 0.2 * s);
    out.attempted += nominal.len() as u64;
    out.failed += failures(&nominal);
    let nominal_rung = rung(&nominal);
    let late: Vec<f64> = nominal.iter().map(|r| r.timing.lateness_ms()).collect();
    out.set("gen.late_ms", stats::quantile(&late, 0.99));
    let median_of = |stat: fn(&[f64]) -> Option<f64>| {
        openloop::window_median(&nominal_rung, stat).unwrap_or(0.0)
    };
    out.set("openloop.p50_ms", median_of(|v| Some(stats::median(v))));
    out.set("openloop.p99_ms", median_of(|v| stats::tail(v, 0.99)));
    let rungs = openloop::ladder(NOMINAL_RATE, STEP, BELOW, ABOVE);
    let mut wrong_answers = 0;
    let slo = openloop::highest_passing(
        &rungs,
        BELOW,
        openloop::majority_passes(&nominal_rung, LIMIT_MS),
        |rate| {
            // Three windows per probed rung; a majority decides.
            let secs = 3.0 * stats::TAIL_WINDOW as f64 / rate;
            let recs = phase(queue, sqls, reference, &mut picks, rate, secs);
            wrong_answers += wrong(&recs);
            let r = rung(&recs);
            let pass = openloop::majority_passes(&r, LIMIT_MS);
            eprintln!(
                "rung {rate:>6} req/s: window p99s {:?} ms, shed {}, timeouts {}, errors {} -> {}",
                openloop::windows(&r)
                    .iter()
                    .map(|w| stats::tail(&w.latencies_ms, 0.99).map(|x| (x * 1e3).round() / 1e3))
                    .collect::<Vec<_>>(),
                r.shed,
                r.timeouts,
                r.errors,
                if pass { "pass" } else { "fail" }
            );
            pass
        },
    );
    out.failed += wrong_answers;
    out.set("openloop.slo_qps", slo);
}
