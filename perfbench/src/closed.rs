//! Closed loop, one client: the next plan starts when the previous one has
//! returned. Used by `seeker_point` and `task_pipeline`.
//!
//! A run spreads its pool over several independently generated lakes (one
//! system each, the pool ordered lake by lake), so one lake's quirks do not
//! set the figures of a seed.
//!
//! Every returned hit list is compared with the op's expected hits (table
//! and score) outside the timed call; a mismatch or an error counts as a
//! failed op.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use blend::plan::Node;
use blend::{optimizer, seekers, Blend, Combiner, ExecutionReport, Plan, TableHit};
use blend_obs::{HistogramSnapshot, Snapshot};

use crate::stats;
use crate::trace::{Layers, SpanLog};
use crate::Outcome;

/// No run goes on longer than this, whatever the sample count.
const MAX_RUN: Duration = Duration::from_secs(120);

/// One plan of a workload's pool and the hits it must return.
pub struct Op {
    /// Index of the system (one per lake) the plan runs on.
    pub sys: usize,
    pub label: &'static str,
    pub plan: Plan,
    pub expect: Vec<(u32, f64)>,
}

/// A hit list in comparable form: (table id, score) in rank order.
pub fn key(hits: &[TableHit]) -> Vec<(u32, f64)> {
    hits.iter().map(|h| (h.table.0, h.score)).collect()
}

/// Latencies and failures of a set of executed ops.
#[derive(Default)]
pub struct Loop {
    pub lat_ms: Vec<f64>,
    pub by_label: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Loop {
    fn record(&mut self, op: &Op, lat_ms: f64, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.lat_ms.push(lat_ms);
        self.by_label.entry(op.label).or_default().push(lat_ms);
    }

    pub fn label_median_us(&self, label: &str) -> f64 {
        self.by_label
            .get(label)
            .map_or(0.0, |v| stats::median(v) * 1e3)
    }
}

/// Execute one op; returns (start, end, result, matches expectation).
fn exec(
    systems: &[Blend],
    op: &Op,
) -> (
    Instant,
    Instant,
    Option<(Vec<TableHit>, ExecutionReport)>,
    bool,
) {
    let t0 = Instant::now();
    let res = systems[op.sys].execute_with_report(black_box(&op.plan));
    let t1 = Instant::now();
    match res {
        Ok((hits, report)) => {
            let ok = key(&hits) == op.expect;
            if !ok {
                eprintln!(
                    "mismatch on {}: got {:?}, want {:?}",
                    op.label,
                    key(&hits),
                    op.expect
                );
            }
            (t0, t1, Some((hits, report)), ok)
        }
        Err(e) => {
            eprintln!("error on {}: {e}", op.label);
            (t0, t1, None, false)
        }
    }
}

fn ms(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e3
}

/// One pass over the pool with tracing off: warms caches, and its failures
/// count like any other op's.
pub fn warmup(systems: &[Blend], ops: &[Op], out: &mut Loop) {
    blend_obs::set_enabled(false);
    for op in ops {
        let (_, _, _, ok) = exec(systems, op);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
}

/// Cycle through the pool with tracing off for at least `seconds` and at
/// least enough whole passes to support a p99.
pub fn run(systems: &[Blend], ops: &[Op], seconds: f64) -> Loop {
    blend_obs::set_enabled(false);
    let min_ops = ops.len() * stats::TAIL_WINDOW.div_ceil(ops.len());
    let start = Instant::now();
    let mut out = Loop::default();
    let mut i = 0;
    while (start.elapsed().as_secs_f64() < seconds || out.lat_ms.len() < min_ops)
        && start.elapsed() < MAX_RUN
    {
        let op = &ops[i % ops.len()];
        let (t0, t1, _, ok) = exec(systems, op);
        out.record(op, ms(t0, t1), ok);
        i += 1;
    }
    out
}

/// The traced run's accounting, summed over the traced ops.
#[derive(Default)]
pub struct Traced {
    /// Ops run with tracing off, interleaved with the traced ones.
    pub plain: Loop,
    pub traced: Loop,
    pub layers: Layers,
    pub render_ns: f64,
    pub parse_ns: f64,
    pub plan_ns: f64,
    pub rank_ns: f64,
    pub seekers: u64,
    pub injected: u64,
    pub results: u64,
    /// Per label: (latency ns, attributed ns, ops).
    pub residual: BTreeMap<&'static str, (f64, f64, u64)>,
    pub registry: RegistryDelta,
}

/// Execution groups the optimizer ranks: the single-consumer seeker inputs
/// of each Intersect combiner.
fn execution_groups(plan: &Plan) -> Vec<Vec<&blend::Seeker>> {
    let consumers = plan.consumers();
    let mut groups = Vec::new();
    for id in plan.node_ids() {
        if let Some(Node::Combiner {
            combiner: Combiner::Intersect,
            inputs,
            ..
        }) = plan.node(id)
        {
            let group: Vec<&blend::Seeker> = inputs
                .iter()
                .filter(|i| consumers.get(i.as_str()).copied().unwrap_or(0) <= 1)
                .filter_map(|i| match plan.node(i) {
                    Some(Node::Seeker { seeker, .. }) => Some(seeker),
                    _ => None,
                })
                .collect();
            if !group.is_empty() {
                groups.push(group);
            }
        }
    }
    groups
}

/// Cycle through the pool for at least `seconds` in an even number of
/// passes, tracing every other op (the other half of the pool on the next
/// pass), so traced and untraced ops share both the mix and the moment and
/// their medians give the tracing overhead. After each pass the traced ops
/// are logged and rolled up into layers, and the benchmark re-times the
/// calls the program makes without spans of their own (render, parse,
/// plan, rank); doing that between ops would warm the caches of whichever
/// op ran next.
pub fn run_traced(systems: &[Blend], ops: &[Op], seconds: f64, log: &mut SpanLog) -> Traced {
    let mut t = Traced::default();
    let before = blend_obs::registry().snapshot();
    let start = Instant::now();
    let mut op_id = 0u64;
    let mut pass = 0usize;
    while (start.elapsed().as_secs_f64() < seconds || pass < 2 || pass % 2 == 1)
        && start.elapsed() < MAX_RUN
    {
        let mut pending = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let traced = (i + pass) % 2 == 1;
            blend_obs::set_enabled(traced);
            let (t0, t1, res, ok) = exec(systems, op);
            blend_obs::set_enabled(false);
            if traced {
                t.traced.record(op, ms(t0, t1), ok);
                pending.push((op, t0, t1, res));
            } else {
                t.plain.record(op, ms(t0, t1), ok);
            }
        }
        for (op, t0, t1, res) in pending {
            op_id += 1;
            let root = log.timed(&format!("op:{}", op.label), t0, t1, None, op_id);
            if let Some((hits, report)) = res {
                let blend = &systems[op.sys];
                account(blend, op, &hits, &report, t1 - t0, root, op_id, log, &mut t);
            }
        }
        pass += 1;
    }
    t.registry = RegistryDelta::between(&before, &blend_obs::registry().snapshot());
    t
}

#[allow(clippy::too_many_arguments)]
fn account(
    blend: &Blend,
    op: &Op,
    hits: &[TableHit],
    report: &ExecutionReport,
    latency: Duration,
    root: usize,
    op_id: u64,
    log: &mut SpanLog,
    t: &mut Traced,
) {
    let attributed_before = t.layers.attributed();
    if let Some(profile) = &report.profile {
        log.profile(&profile.root, Some(root), op_id);
        t.layers.add(&profile.root);
    }
    let attributed = t.layers.attributed() - attributed_before;
    let r = t.residual.entry(op.label).or_default();
    r.0 += latency.as_nanos() as f64;
    r.1 += attributed;
    r.2 += 1;
    t.results += hits.len() as u64;

    for o in &report.ops {
        let Some(sql) = o.sql.as_deref().filter(|s| !s.is_empty()) else {
            continue;
        };
        let Some(Node::Seeker { seeker, k }) = op.plan.node(&o.id) else {
            continue;
        };
        t.seekers += 1;
        t.injected += u64::from(o.injected);
        let a = Instant::now();
        black_box(seekers::seeker_sql(seeker, *k, blend.options().h));
        let b = Instant::now();
        let ast = blend_sql::parser::parse(black_box(sql)).expect("executed SQL parses");
        let c = Instant::now();
        black_box(blend_sql::plan::plan_query(&ast, blend.engine().database()).expect("plans"));
        let d = Instant::now();
        log.timed("bench.render", a, b, Some(root), op_id);
        log.timed("bench.parse", b, c, Some(root), op_id);
        log.timed("bench.plan_query", c, d, Some(root), op_id);
        t.render_ns += (b - a).as_nanos() as f64;
        t.parse_ns += (c - b).as_nanos() as f64;
        t.plan_ns += (d - c).as_nanos() as f64;
    }
    if blend.options().optimize {
        for group in execution_groups(&op.plan) {
            let a = Instant::now();
            black_box(optimizer::rank_execution_group(blend, &group));
            let b = Instant::now();
            log.timed("bench.rank", a, b, Some(root), op_id);
            t.rank_ns += (b - a).as_nanos() as f64;
        }
    }
}

/// Changes in the parallel layer's registry families over a traced phase.
#[derive(Default)]
pub struct RegistryDelta {
    pub pool_busy_ns: u64,
    pub pool_tasks: u64,
    pub grants: u64,
    pub residency: Option<HistogramSnapshot>,
    pub admission_wait: Option<HistogramSnapshot>,
}

fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> Option<HistogramSnapshot> {
    let a = after.histograms.get(name)?;
    let mut d = a.clone();
    if let Some(b) = before.histograms.get(name) {
        for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
            *x -= y;
        }
        d.sum = d.sum.wrapping_sub(b.sum);
        d.count -= b.count;
    }
    Some(d)
}

impl RegistryDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let c = |n: &str| after.counter(n) - before.counter(n);
        RegistryDelta {
            pool_busy_ns: c("blend_pool_busy_nanos_total"),
            pool_tasks: c("blend_pool_tasks_total"),
            grants: c("blend_admission_grants_total"),
            residency: hist_delta(before, after, "blend_pool_queue_residency_nanos"),
            admission_wait: hist_delta(before, after, "blend_admission_acquire_wait_nanos"),
        }
    }

    /// The parallel layer's per-op metrics over `ops` traced ops.
    pub fn fill(&self, ops: f64, out: &mut Outcome) {
        let q_us = |h: &Option<HistogramSnapshot>, q: f64| {
            h.as_ref().map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
        };
        out.set("pool.busy_ms", self.pool_busy_ns as f64 / 1e6 / ops);
        out.set("pool.tasks", self.pool_tasks as f64 / ops);
        out.set("pool.queue_residency_us.p50", q_us(&self.residency, 0.5));
        out.set("pool.queue_residency_us.p99", q_us(&self.residency, 0.99));
        out.set("admission.wait_us.p50", q_us(&self.admission_wait, 0.5));
        out.set("admission.wait_us.p99", q_us(&self.admission_wait, 0.99));
        out.set("admission.grants", self.grants as f64 / ops);
    }
}

impl Traced {
    /// Every per-layer metric the closed loop measures, as per-op means.
    pub fn fill(&self, out: &mut Outcome) {
        let n = self.traced.lat_ms.len().max(1) as f64;
        let l = &self.layers;
        let us = |ns: f64| ns / n / 1e3;
        let lat_ns: f64 = self.traced.lat_ms.iter().sum::<f64>() * 1e6;
        out.set("seekers.render_us", us(self.render_ns));
        out.set(
            "seekers.post_us",
            us(l.seeker_self - self.render_ns - self.parse_ns),
        );
        out.set("sql.parse_us", us(self.parse_ns));
        out.set("sql.plan_us", us(self.plan_ns));
        out.set("sql.scan_us", us(l.scan));
        out.set("sql.scan_rows", l.scan_out_rows as f64 / n);
        out.set("sql.join_build_us", us(l.join_build));
        out.set("sql.join_probe_us", us(l.join_probe));
        out.set("sql.join_probe_rows", l.probe_rows as f64 / n);
        out.set("sql.group_us", us(l.group));
        out.set("sql.group_rows", l.group_rows as f64 / n);
        out.set("sql.groups", l.groups as f64 / n);
        out.set("sql.finish_us", us(l.query_self - self.plan_ns));
        out.set(
            "sql.rows_examined_per_result",
            l.scanned_rows as f64 / self.results.max(1) as f64,
        );
        out.set("optimizer.rank_us", us(self.rank_ns));
        out.set(
            "optimizer.injected_share",
            self.injected as f64 / self.seekers.max(1) as f64,
        );
        out.set("combiners.apply_us", us(l.combine));
        out.set("plan.self_us", us(l.plan_self));
        out.set("unattributed_us", us(lat_ns - l.attributed()));
        out.set("op.traced_mean_us", us(lat_ns));
        out.set("mem.peak_bytes", l.mem_peak_bytes as f64);
        self.registry.fill(n, out);
        let plain = stats::median(&self.plain.lat_ms);
        let traced = stats::median(&self.traced.lat_ms);
        out.set("obs.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    }

    /// Per-label residual table on stderr: how much of each op's latency
    /// the named layers account for.
    pub fn print_residuals(&self) {
        eprintln!("label                 ops   traced_us  attributed_us  unattributed_us  share");
        for (label, (lat, attr, n)) in &self.residual {
            let n = *n as f64;
            eprintln!(
                "{label:<20} {:>5} {:>11.1} {:>14.1} {:>16.1} {:>6.1}%",
                n,
                lat / n / 1e3,
                attr / n / 1e3,
                (lat - attr) / n / 1e3,
                (lat - attr) / lat * 100.0
            );
        }
    }
}
