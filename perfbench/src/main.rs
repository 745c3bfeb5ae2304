//! The repository benchmark: two seeded closed-loop workloads driven
//! through `Blend::execute_with_report`, every output checked, end-to-end
//! metrics with tracing off and a per-layer breakdown from a separate traced
//! run. The traced `seeker_point` run adds a pass through
//! `ServeQueue::submit` for the serving layer's figures.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload seeker_point --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` it holds every end-to-end metric, with `--trace 1` every
//! per-layer metric. Progress and the per-op breakdown go to standard
//! error; the traced run writes its span log under the cargo target
//! directory (`perfbench/spans-<workload>-seed<n>.jsonl`).

mod closed;
mod lakes;
mod openloop;
mod seeker_point;
mod serve_zipf;
mod stats;
mod task_pipeline;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use blend_storage::FactTable;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("slo_qps", "1/s"),
    ("success_rate", "fraction"),
    ("index_bytes_per_cell", "B"),
    ("peak_rss_mb", "MiB"),
    ("mc_precision", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// a workload does not reach reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.build_ms", "ms"),
    ("storage.bytes.dict-strings", "B"),
    ("storage.bytes.dict-index", "B"),
    ("storage.bytes.columns", "B"),
    ("storage.bytes.postings", "B"),
    ("storage.bytes.table-ranges", "B"),
    ("storage.bytes.scan-scratch", "B"),
    ("seekers.render_us", "us"),
    ("seekers.post_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.scan_us", "us"),
    ("sql.scan_rows", "rows"),
    ("sql.join_build_us", "us"),
    ("sql.join_probe_us", "us"),
    ("sql.join_probe_rows", "rows"),
    ("sql.group_us", "us"),
    ("sql.group_rows", "rows"),
    ("sql.groups", "count"),
    ("sql.finish_us", "us"),
    ("sql.rows_examined_per_result", "rows"),
    ("optimizer.rank_us", "us"),
    ("optimizer.injected_share", "fraction"),
    ("combiners.apply_us", "us"),
    ("plan.self_us", "us"),
    ("unattributed_us", "us"),
    ("op.traced_mean_us", "us"),
    ("sql.fingerprint_us", "us"),
    ("pool.busy_ms", "ms/op"),
    ("pool.tasks", "count/op"),
    ("pool.queue_residency_us.p50", "us"),
    ("pool.queue_residency_us.p99", "us"),
    ("admission.wait_us.p50", "us"),
    ("admission.wait_us.p99", "us"),
    ("admission.grants", "count/op"),
    ("mem.peak_bytes", "B"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.exec_us.p50", "us"),
    ("serve.exec_us.p99", "us"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.coalesced_ratio", "fraction"),
    ("serve.evictions", "count/op"),
    ("serve.cache_entries", "count"),
    ("gen.late_ms", "ms"),
    ("openloop.p50_ms", "ms"),
    ("openloop.p99_ms", "ms"),
    ("openloop.slo_qps", "1/s"),
    ("obs.trace_overhead_pct", "%"),
    ("josie.query_us", "us"),
    ("blend.sc_us", "us"),
    ("mate.query_us", "us"),
    ("blend.mc_us", "us"),
    ("federated.imputation_us", "us"),
    ("blend.imputation_us", "us"),
    ("federated.negative_examples_us", "us"),
    ("blend.negative_examples_us", "us"),
    ("federated.feature_discovery_us", "us"),
    ("blend.feature_discovery_us", "us"),
    ("federated.multi_objective_us", "us"),
    ("blend.multi_objective_us", "us"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly the metrics of `list`, in its order.
    fn render(&self, list: &[(&'static str, &'static str)]) -> String {
        let mut body = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            body.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `build` `reps` times, returning the last build, the median wall time
/// of all builds in seconds, and the median of the times `build` reports
/// for its index step (ms).
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let mut walls = Vec::with_capacity(reps);
    let mut index_ms = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous build first, so one is alive at a time and the
        // peak resident set is not inflated by the repetitions.
        drop(last.take());
        let t0 = Instant::now();
        let (value, idx_ms) = build();
        walls.push(t0.elapsed().as_secs_f64());
        index_ms.push(idx_ms);
        last = Some(value);
    }
    (
        last.expect("at least one setup repetition"),
        stats::median(&walls),
        stats::median(&index_ms),
    )
}

/// Writes the traced run's span log next to the build outputs.
pub fn write_spans(workload: &str, seed: u64, log: &trace::SpanLog) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, log.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", log.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <seeker_point|task_pipeline> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "seeker_point" => seeker_point::run(&args),
        "task_pipeline" => task_pipeline::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        return ExitCode::from(1);
    }
    if !args.trace {
        outcome.set("peak_rss_mb", peak_rss_mb());
        outcome.set(
            "success_rate",
            1.0 - outcome.failed as f64 / outcome.attempted as f64,
        );
    }
    println!(
        "{}",
        outcome.render(if args.trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}

/// Closed-loop end-to-end metrics from the untraced run, in execution
/// order: p50, p99, plans per second of the time spent in plans, and of
/// those the plans within `limit_ms`. Each is the median over windows of
/// whole passes over the pool (one pass; enough passes for a p99), so
/// every window holds the same mix of plans; the p99 falls back to the
/// whole run when fewer than three such windows fit.
pub fn fill_closed(out: &mut Outcome, lat_ms: &[f64], pool: usize, limit_ms: f64) {
    let rate = |w: &[f64], n: usize| n as f64 / (w.iter().sum::<f64>() / 1e3);
    let tail_per = pool * stats::TAIL_WINDOW.div_ceil(pool);
    out.set("p50_ms", stats::windowed(lat_ms, pool, stats::median));
    out.set(
        "p99_ms",
        stats::windowed_tail(lat_ms, tail_per, 0.99).expect("closed loop ran at least 1000 ops"),
    );
    out.set(
        "ops_per_s",
        stats::windowed(lat_ms, pool, |w| rate(w, w.len())),
    );
    out.set(
        "slo_qps",
        stats::windowed(lat_ms, pool, |w| {
            rate(w, w.iter().filter(|&&l| l <= limit_ms).count())
        }),
    );
}

/// Index footprint over a run's systems: bytes per lake cell (end to
/// end) and bytes per component (storage layer).
pub fn fill_storage(out: &mut Outcome, facts: &[Arc<dyn FactTable>], cells: usize) {
    let mut total = 0;
    for fact in facts {
        let mem = fact.memory_breakdown();
        total += mem.total();
        for (name, bytes) in &mem.components {
            let Some((metric, _)) = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_prefix("storage.bytes.") == Some(name))
            else {
                eprintln!("storage component {name} has no per-layer metric");
                continue;
            };
            let sum = out.metrics.get(metric).copied().unwrap_or(0.0) + *bytes as f64;
            out.set(metric, sum);
        }
    }
    out.set("index_bytes_per_cell", total as f64 / cells as f64);
}

/// Median wall time of `f` in microseconds over repeated passes of at
/// least `seconds` in total.
pub fn median_call_us<T>(inputs: &[T], seconds: f64, mut f: impl FnMut(&T)) -> f64 {
    let mut us = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || us.len() < inputs.len() {
        for x in inputs {
            let t = Instant::now();
            f(x);
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    stats::median(&us)
}
