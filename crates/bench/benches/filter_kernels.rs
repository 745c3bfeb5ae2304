//! `filter_kernels` Criterion group: batched selection-vector filter
//! kernels vs. the scalar per-position `fast_filters_pass` oracle, on the
//! SC scan shape at 150k fact rows, both storage engines, with a selective
//! and a non-selective filter each.
//!
//! Every configuration is parity-checked (batched output must equal the
//! scalar oracle byte-for-byte) before it is timed, the engines' memory
//! breakdowns are printed, and the measured speedups land in
//! `BENCH_filter_kernels.json` at the workspace root so the perf
//! trajectory is machine-readable across PRs.
//!
//! `--test` runs the CI smoke mode: same parity checks and JSON emission
//! (under `target/`, never over the committed file), minimal timing (so
//! kernel code cannot bit-rot without CI noticing).

use std::fmt::Write as _;
use std::time::Instant;

use criterion::Criterion;

use blend_bench::{synthetic_rows, write_bench_json};
use blend_sql::plan::{fast_filters_pass, FastFilters};
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactTable};

/// The two filter mixes: a selective SC-style IN-list (~0.5% of rows) and a
/// non-selective quadrant + table + rowid mix (~40% of rows).
fn filter_cases(table: &dyn FactTable) -> Vec<(&'static str, FastFilters)> {
    let selective_vals: Vec<String> = (0..5).map(|i| format!("v{}", i * 13)).collect();
    let refs: Vec<&str> = selective_vals.iter().map(String::as_str).collect();
    vec![
        (
            "selective",
            FastFilters {
                value_probe: Some(table.make_probe(&refs)),
                table_set: None,
                table_not_set: None,
                rowid_lt: None,
                quadrant_null: None,
            },
        ),
        (
            "non_selective",
            FastFilters {
                value_probe: None,
                table_set: None,
                table_not_set: Some([3u32, 57, 111].into_iter().collect()),
                rowid_lt: Some(200),
                quadrant_null: Some(true),
            },
        ),
    ]
}

/// Median-of-`iters` wall time of one full-table filter pass.
fn time_ns(iters: usize, mut f: impl FnMut() -> usize) -> u64 {
    let mut samples: Vec<u64> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct CaseResult {
    engine: &'static str,
    filter: &'static str,
    survivors: usize,
    scalar_ns: u64,
    batch_ns: u64,
    simd_on_ns: u64,
    simd_off_ns: u64,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.batch_ns.max(1) as f64
    }

    /// SIMD-on vs SIMD-off speedup of the batched kernel itself.
    fn simd_speedup(&self) -> f64 {
        self.simd_off_ns as f64 / self.simd_on_ns.max(1) as f64
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = if smoke { 5 } else { 31 };
    let rows = synthetic_rows(120, 250, 5); // 150_000 fact rows
    let n_rows = rows.len();
    println!(
        "== bench `filter_kernels` (150k rows{})",
        if smoke { ", --test smoke mode" } else { "" }
    );

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("filter_kernels");
    group.sample_size(if smoke { 2 } else { 20 });

    let mut results: Vec<CaseResult> = Vec::new();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let table = build_engine(kind, rows.clone());
        // The memory_breakdown debug report (satellite of the kernel work:
        // dict payload + scan scratch are now accounted).
        println!("{}", table.memory_breakdown().report());

        for (filter, fast) in filter_cases(table.as_ref()) {
            let kernel = fast.compile_kernel();

            // Parity before timing: batched output == scalar oracle.
            let scalar = || -> Vec<u32> {
                (0..n_rows)
                    .filter(|&p| fast_filters_pass(table.as_ref(), p, &fast))
                    .map(|p| p as u32)
                    .collect()
            };
            let want = scalar();
            let mut sel: Vec<u32> = Vec::with_capacity(n_rows);
            table.filter_range(&kernel, 0, n_rows, &mut sel);
            assert_eq!(
                sel,
                want,
                "{}/{filter}: kernel diverged from oracle",
                kind.label()
            );
            // Parity under both forced dispatch paths: the SIMD block
            // kernels and their scalar twins must agree byte-for-byte.
            for vector in [false, true] {
                blend_simd::force(Some(vector));
                sel.clear();
                table.filter_range(&kernel, 0, n_rows, &mut sel);
                assert_eq!(
                    sel,
                    want,
                    "{}/{filter}: vector={vector} kernel diverged from oracle",
                    kind.label()
                );
            }
            blend_simd::force(None);

            let label = kind.label().to_lowercase();
            let scalar_ns = time_ns(iters, || scalar().len());
            let batch_ns = time_ns(iters, || {
                sel.clear();
                table.filter_range(&kernel, 0, n_rows, &mut sel);
                sel.len()
            });
            // SIMD A/B on the batched kernel: interleaved forced-on /
            // forced-off medians of the same pass.
            let (simd_on_ns, simd_off_ns) = blend_bench::simd_ab_ns(iters, || {
                sel.clear();
                table.filter_range(&kernel, 0, n_rows, &mut sel);
                std::hint::black_box(sel.len());
            });
            if !smoke {
                group.bench_function(format!("{label}_{filter}_scalar"), |b| {
                    b.iter(|| scalar().len())
                });
                group.bench_function(format!("{label}_{filter}_batch"), |b| {
                    b.iter(|| {
                        sel.clear();
                        table.filter_range(&kernel, 0, n_rows, &mut sel);
                        sel.len()
                    })
                });
            }
            let r = CaseResult {
                engine: kind.label(),
                filter,
                survivors: want.len(),
                scalar_ns,
                batch_ns,
                simd_on_ns,
                simd_off_ns,
            };
            println!(
                "  -> {label}/{filter}: {} survivors, compiled kernel {} B, \
                 scalar {:.3}ms, batch {:.3}ms, speedup {:.2}x, \
                 simd on {:.3}ms / off {:.3}ms ({:.2}x)",
                r.survivors,
                kernel.memory_bytes(),
                r.scalar_ns as f64 / 1e6,
                r.batch_ns as f64 / 1e6,
                r.speedup(),
                r.simd_on_ns as f64 / 1e6,
                r.simd_off_ns as f64 / 1e6,
                r.simd_speedup()
            );
            results.push(r);
        }
    }
    group.finish();

    // The acceptance bar this bench exists to hold: the batched kernel is
    // at least 2x the scalar path on the selective column-store scan.
    let selective_col = results
        .iter()
        .find(|r| r.engine == "Column" && r.filter == "selective")
        .expect("selective column case ran");
    assert!(
        selective_col.speedup() >= 2.0,
        "selective column-store kernel speedup {:.2}x < 2x",
        selective_col.speedup()
    );

    // SIMD acceptance bar: the vector kernels beat their scalar twins by
    // at least 1.3x on at least one shape. Smoke mode on shared CI
    // runners only rejects outright regressions (parity already held
    // above); full runs hold the real bar.
    let best_simd = results
        .iter()
        .max_by(|a, b| a.simd_speedup().total_cmp(&b.simd_speedup()))
        .expect("cases ran");
    let simd_bar = if smoke { 0.5 } else { 1.3 };
    println!(
        "  -> best simd speedup: {}/{} at {:.2}x",
        best_simd.engine,
        best_simd.filter,
        best_simd.simd_speedup()
    );
    assert!(
        best_simd.simd_speedup() >= simd_bar,
        "best SIMD-on/off speedup {:.2}x < {simd_bar}x ({}/{})",
        best_simd.simd_speedup(),
        best_simd.engine,
        best_simd.filter
    );

    // Observability overhead bar: the instrumented engine path (root
    // trace + scan span + metric cells) must not tax the hot selective
    // scan shape. Full runs hold the 5% contract; smoke mode on shared
    // CI runners only rejects outright regressions, matching the other
    // timing bars above.
    let obs_engine = SqlEngine::with_alltables(build_engine(EngineKind::Column, rows.clone()));
    let obs_sql = "SELECT TableId, RowId, CellValue FROM AllTables \
                   WHERE CellValue IN ('v0','v13','v26','v39','v52') \
                   ORDER BY TableId, RowId, CellValue LIMIT 50";
    let (obs_on_ns, obs_off_ns) = blend_bench::obs_overhead_ns(iters, || {
        std::hint::black_box(obs_engine.execute(obs_sql).expect("obs A/B query runs"));
    });
    let obs_slack = if smoke { 1.5 } else { 1.05 };
    println!(
        "  -> obs overhead: enabled {:.3}ms, disabled {:.3}ms ({:+.2}%)",
        obs_on_ns as f64 / 1e6,
        obs_off_ns as f64 / 1e6,
        100.0 * (obs_on_ns as f64 / obs_off_ns.max(1) as f64 - 1.0),
    );
    assert!(
        (obs_on_ns as f64) <= obs_slack * obs_off_ns as f64,
        "observability overhead blew the {obs_slack}x bar: \
         enabled {obs_on_ns}ns vs disabled {obs_off_ns}ns"
    );

    // Machine-readable perf trajectory at the workspace root.
    let mut json = String::from("{\n  \"bench\": \"filter_kernels\",\n");
    let _ = writeln!(json, "  \"rows\": {n_rows},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"obs_on_ns\": {obs_on_ns},");
    let _ = writeln!(json, "  \"obs_off_ns\": {obs_off_ns},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"filter\": \"{}\", \"survivors\": {}, \
             \"scalar_ns\": {}, \"batch_ns\": {}, \"speedup\": {:.3}, \
             \"simd_on_ns\": {}, \"simd_off_ns\": {}, \"simd_speedup\": {:.3}}}{}",
            r.engine,
            r.filter,
            r.survivors,
            r.scalar_ns,
            r.batch_ns,
            r.speedup(),
            r.simd_on_ns,
            r.simd_off_ns,
            r.simd_speedup(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let out = write_bench_json("filter_kernels", smoke, &json);
    println!("  wrote {}", out.display());
    blend_obs::dump_if_enabled();
}
