//! `seeker_point`: single-seeker plans on small WDC-like lakes (four per
//! seed, taken in turn), closed loop, one client.
//!
//! Each lake's index (~1 MB) fits in L2 and each seeker touches a few
//! hundred groups, so the fixed per-query cost dominates: render, parse,
//! `plan_query`, grouping, sort/limit/project and post-processing. No
//! combiners, rewriting or serving are involved in the timed loop; the
//! traced run adds a pass through the serving tier for its layer.
//!
//! SC, the paper's main seeker (Fig. 5) and the subject of the ROADMAP's
//! small-query bar, comes twice in each SC, KW, SC, MC, C cycle. With the
//! four seekers weighted equally the plan median fell in the gap between
//! their latency clusters and swung by a quarter from seed to seed.

use blend::{Blend, Plan, Seeker};
use blend_common::{FxHashMap, TableId};
use blend_josie::JosieIndex;
use blend_lake::{ground_truth, workloads, DataLake};
use blend_mate::MateIndex;

use crate::closed::{self, key, Op};
use crate::lakes::{self, mc_queries, reference, Lakes};
use crate::trace::SpanLog;
use crate::{serve_zipf, Args, Outcome};

const K: usize = 10;
/// Lakes per run, each with its own system and query pool.
const LAKES: u64 = 4;
/// Distinct queries per seeker type and lake.
const PER_TYPE: usize = 64;
/// Latency limit for `slo_qps` (plans finished within it, per second): the
/// 2 ms p99 limit of the serving tier, which lies between this workload's
/// p50 (~0.5 ms) and p99 (~3 ms).
const LIMIT_MS: f64 = 2.0;

/// Exact top-k of a table → count map: count descending, ties by table id.
fn topk_counts(counts: &FxHashMap<TableId, usize>, k: usize) -> Vec<(u32, f64)> {
    let mut v: Vec<(u32, f64)> = counts.iter().map(|(t, c)| (t.0, *c as f64)).collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

fn single(seeker: Seeker) -> Plan {
    let mut plan = Plan::new();
    plan.add_seeker("s", seeker, K).expect("valid seeker");
    plan
}

/// The op pool of one lake (system `sys`), cycling SC, KW, SC, MC and C,
/// each with its expected hits.
pub fn ops(lake: &DataLake, blend: &Blend, seed: u64, sys: usize) -> Vec<Op> {
    let sc = workloads::sc_queries(lake, &[10], 2 * PER_TYPE, lakes::subseed(seed, 2))
        .pop()
        .expect("one size")
        .1;
    let kw = workloads::kw_queries(lake, PER_TYPE, 10, lakes::subseed(seed, 3));
    let mc = mc_queries(lake, seed, PER_TYPE);
    let c = lakes::corr_inputs(lake, PER_TYPE, 25, &mut lakes::rng(seed, 5));
    let refe = reference(blend);
    let sc_op = |q: &Vec<String>| Op {
        sys,
        label: "SC",
        plan: single(Seeker::sc(q.clone())),
        expect: ground_truth::exact_sc_topk(lake, q, K)
            .into_iter()
            .map(|(t, s)| (t.0, s as f64))
            .collect(),
    };
    let mut pool = Vec::with_capacity(5 * PER_TYPE);
    for i in 0..PER_TYPE {
        pool.push(sc_op(&sc[2 * i]));
        let q = &kw[i];
        pool.push(Op {
            sys,
            label: "KW",
            plan: single(Seeker::kw(q.clone())),
            expect: ground_truth::exact_kw_topk(lake, q, K)
                .into_iter()
                .map(|(t, s)| (t.0, s as f64))
                .collect(),
        });
        pool.push(sc_op(&sc[2 * i + 1]));
        let rows = &mc[i];
        pool.push(Op {
            sys,
            label: "MC",
            plan: single(Seeker::mc(rows.clone())),
            expect: topk_counts(&ground_truth::exact_mc_join_counts(lake, rows), K),
        });
        let (keys, target) = &c[i];
        let plan = single(Seeker::c(keys.clone(), target.clone()));
        let expect = key(&refe.execute(&plan).expect("reference C plan runs"));
        pool.push(Op {
            sys,
            label: "C",
            plan,
            expect,
        });
    }
    pool
}

pub fn run(args: &Args) -> Outcome {
    blend_obs::set_enabled(false);
    let l = Lakes::new(args.seed, LAKES, lakes::wdc);
    let pool: Vec<Op> = (0..l.lakes.len())
        .flat_map(|i| ops(&l.lakes[i], &l.systems[i], l.seeds[i], i))
        .collect();
    eprintln!(
        "seeker_point: {} lakes, {} tables, {} cells, index {} B, {} ops in the pool",
        l.lakes.len(),
        l.lakes.iter().map(DataLake::len).sum::<usize>(),
        l.cells,
        l.index_bytes(),
        pool.len()
    );

    let mut out = Outcome::default();
    let mut warm = closed::Loop::default();
    closed::warmup(&l.systems, &pool, &mut warm);
    if !args.trace {
        let run = closed::run(&l.systems, &pool, args.seconds);
        out.attempted = warm.attempted + run.attempted;
        out.failed = warm.failed + run.failed;
        out.set("setup_s", l.setup_s);
        crate::fill_closed(&mut out, &run.lat_ms, pool.len(), LIMIT_MS);
        crate::fill_storage(&mut out, &l.facts(), l.cells);
        out.set("mc_precision", l.mc_precision());
    } else {
        let mut log = SpanLog::new();
        let t = closed::run_traced(&l.systems, &pool, args.seconds, &mut log);
        t.print_residuals();
        out.attempted = warm.attempted + t.plain.attempted + t.traced.attempted;
        out.failed = warm.failed + t.plain.failed + t.traced.failed;
        t.fill(&mut out);
        out.set("index.build_ms", l.index_ms);
        crate::fill_storage(&mut out, &l.facts(), l.cells);
        out.set("blend.sc_us", t.plain.label_median_us("SC"));
        out.set("blend.mc_us", t.plain.label_median_us("MC"));
        let first: Vec<&Op> = pool.iter().filter(|op| op.sys == 0).collect();
        baselines(&l.lakes[0], &first, &mut out);
        crate::write_spans(&args.workload, args.seed, &log);
        // The serving layer's figures, from a pass on the same seed whose
        // requests count toward this run's attempted and failed.
        serve_zipf::layers(args.seed, args.seconds / 2.0, &mut out);
    }
    out.correct = out.failed == 0;
    out
}

/// JOSIE on the SC queries and MATE on the MC queries of one lake's pool,
/// for the ROADMAP bars (SC at most 2× JOSIE). Reference only, not gated.
fn baselines(lake: &DataLake, pool: &[&Op], out: &mut Outcome) {
    let josie = JosieIndex::build(lake);
    let mate = MateIndex::build(lake);
    let sc: Vec<&Vec<String>> = pool
        .iter()
        .filter_map(|op| match op.plan.node("s") {
            Some(blend::plan::Node::Seeker {
                seeker: Seeker::Sc { values },
                ..
            }) => Some(values),
            _ => None,
        })
        .collect();
    let mc: Vec<&Vec<Vec<String>>> = pool
        .iter()
        .filter_map(|op| match op.plan.node("s") {
            Some(blend::plan::Node::Seeker {
                seeker: Seeker::Mc { rows },
                ..
            }) => Some(rows),
            _ => None,
        })
        .collect();
    out.set(
        "josie.query_us",
        crate::median_call_us(&sc, 0.5, |q| {
            std::hint::black_box(josie.query(q, K));
        }),
    );
    out.set(
        "mate.query_us",
        crate::median_call_us(&mc, 0.5, |rows| {
            std::hint::black_box(mate.query(lake, rows, K));
        }),
    );
}
