//! `join_group` Criterion group: the flat join/group operators
//! (`blend_sql::hashtable`) vs. the retained map-based oracles, on the
//! seeker join/aggregation shapes at 150k fact rows, both storage engines.
//!
//! Two shapes, mirroring the two phases the flat operators replaced:
//!
//! * **SC join+group** — GROUP BY (TableId, ColumnId) with `COUNT(*)` +
//!   `COUNT(DISTINCT CellValue)` over the whole 150k-row position space
//!   (the SC seeker's aggregation after a broad scan). Map baseline: an
//!   `FxHashMap` group index plus one `FxHashSet` per group. Flat: a
//!   `GroupIndex` of dense ids, a counting pass, and per-group sort-unique
//!   over the gathered code column.
//! * **MC join** — the seeker self-join on packed `(TableId, RowId)` keys
//!   over two scanned position lists. Map baseline:
//!   `FxHashMap<u64, Vec<u32>>` entry/push build + per-row probe. Flat:
//!   the CSR `JoinTable` (two counting passes) + bucket-run probes.
//!
//! A third, engine-independent **XL probe** shape runs the blocked probe
//! kernel at cache-busting scale (4M synthetic keys over a 2^23 domain,
//! so heads + entries + build keys spill the private caches): that is the
//! regime the three-stage prefetch pipeline exists for, and the shape
//! that holds the SIMD probe acceptance bar. The 150k-row MC shape stays
//! cache-resident by design — its A/B documents that the blocked probe's
//! size gate keeps resident tables on the cheap hash-ahead form instead
//! of paying pipeline overhead prefetch cannot repay.
//!
//! Every configuration is parity-checked (flat output must equal the map
//! oracle byte-for-byte) before it is timed; an end-to-end SC query is run
//! through the SQL engine to print the new `QueryReport::hash_tables`
//! telemetry alongside each engine's `memory_breakdown`; and the measured
//! speedups land in `BENCH_join_group.json` at the workspace root. The
//! acceptance bar held here: flat is ≥1.5× the map baseline on the SC
//! join+group shape, column store.
//!
//! `--test` runs the CI smoke mode: same parity checks and JSON emission
//! (under `target/`, never over the committed file), minimal timing.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::Criterion;

use blend_bench::{synthetic_rows, write_bench_json};
use blend_common::{FxHashMap, FxHashSet};
use blend_parallel::radix_partition;
use blend_sql::hashtable::{GroupIndex, JoinTable};
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactTable};

/// Median-of-`iters` wall time.
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

// ---- SC join+group shape ---------------------------------------------------

/// Group output: (first row, COUNT(*), COUNT(DISTINCT code)) per group in
/// first-seen order.
type GroupOut = Vec<(u32, i64, i64)>;

/// The pre-flat positional executor's grouping: one `FxHashMap` entry per
/// row for the group index, one `FxHashSet` insert per row for DISTINCT.
fn map_group(keys: &[u64], codes: &[u32]) -> GroupOut {
    let mut index: FxHashMap<u64, u32> = FxHashMap::default();
    let mut groups: Vec<(u32, i64, FxHashSet<u32>)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        let gid = *index.entry(k).or_insert_with(|| {
            groups.push((i as u32, 0, FxHashSet::default()));
            (groups.len() - 1) as u32
        }) as usize;
        groups[gid].1 += 1;
        groups[gid].2.insert(codes[i]);
    }
    groups
        .into_iter()
        .map(|(first, n, set)| (first, n, set.len() as i64))
        .collect()
}

/// The flat grouping pipeline: dense ids through `GroupIndex`, a counting
/// pass, and per-group sort-unique over the radix-grouped code column.
fn flat_group(keys: &[u64], codes: &[u32]) -> GroupOut {
    let mut index: GroupIndex<u64> = GroupIndex::with_capacity(keys.len() / 16).unwrap();
    let mut first_rows: Vec<u32> = Vec::new();
    let mut row_gids: Vec<u32> = Vec::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        let before = index.len();
        let gid = index.insert_or_get(k).unwrap();
        if index.len() != before {
            first_rows.push(i as u32);
        }
        row_gids.push(gid);
    }
    let n_groups = index.len();
    let csr = radix_partition(&row_gids, n_groups).unwrap();
    let mut grouped: Vec<u32> = csr.items().iter().map(|&it| codes[it as usize]).collect();
    let offsets = csr.offsets();
    (0..n_groups)
        .map(|g| {
            let run = &mut grouped[offsets[g] as usize..offsets[g + 1] as usize];
            // COUNT(*) falls out of the CSR occupancy; no separate pass.
            let count = run.len() as i64;
            run.sort_unstable();
            let mut distinct = 0i64;
            let mut prev = None;
            for &c in run.iter() {
                if prev != Some(c) {
                    distinct += 1;
                    prev = Some(c);
                }
            }
            (first_rows[g], count, distinct)
        })
        .collect()
}

// ---- MC join shape ---------------------------------------------------------

/// Join output checksum: number of pairs and a position-sensitive hash so
/// ordering bugs cannot cancel out.
fn pair_digest(pairs: impl Iterator<Item = (u32, u32)>) -> (usize, u64) {
    let mut n = 0usize;
    let mut digest = 0u64;
    for (p, b) in pairs {
        n += 1;
        digest = digest
            .rotate_left(5)
            .wrapping_add(((p as u64) << 32) | b as u64);
    }
    (n, digest)
}

/// The pre-flat join: `FxHashMap<u64, Vec<u32>>` entry/push build, map
/// probe per row.
fn map_join(build: &[u64], probe: &[u64]) -> (usize, u64) {
    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (i, &k) in build.iter().enumerate() {
        table.entry(k).or_default().push(i as u32);
    }
    pair_digest(probe.iter().enumerate().flat_map(|(i, k)| {
        table
            .get(k)
            .into_iter()
            .flatten()
            .map(move |&b| (i as u32, b))
    }))
}

/// The flat join: CSR `JoinTable` build (two counting passes), bucket-run
/// probe per row.
fn flat_join(build: &[u64], probe: &[u64]) -> (usize, u64) {
    let table = JoinTable::build(build, None).unwrap();
    pair_digest(
        probe
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| table.matches(build, k).map(move |b| (i as u32, b))),
    )
}

// ---- harness ---------------------------------------------------------------

struct CaseResult {
    engine: &'static str,
    shape: &'static str,
    rows: usize,
    map_ns: u64,
    flat_ns: u64,
    simd_on_ns: u64,
    simd_off_ns: u64,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        self.map_ns as f64 / self.flat_ns.max(1) as f64
    }

    /// SIMD-on vs SIMD-off speedup of the flat operator.
    fn simd_speedup(&self) -> f64 {
        self.simd_off_ns as f64 / self.simd_on_ns.max(1) as f64
    }
}

/// Pack the SC group keys (TableId, ColumnId) and gather distinct codes —
/// dictionary codes on the column store, dense string ids on the row store
/// (both bijective with distinct cell values, so distinct counts agree).
fn sc_inputs(table: &dyn FactTable) -> (Vec<u64>, Vec<u32>) {
    let positions: Vec<u32> = (0..table.len() as u32).collect();
    let mut tables_col = Vec::with_capacity(positions.len());
    let mut cols_col = Vec::with_capacity(positions.len());
    table.gather_tables(&positions, &mut tables_col);
    table.gather_columns(&positions, &mut cols_col);
    let keys: Vec<u64> = tables_col
        .iter()
        .zip(&cols_col)
        .map(|(&t, &c)| ((t as u64) << 32) | c as u64)
        .collect();
    let mut codes = Vec::with_capacity(positions.len());
    if !table.gather_value_codes(&positions, &mut codes) {
        let mut ids: FxHashMap<&str, u32> = FxHashMap::default();
        codes = positions
            .iter()
            .map(|&p| {
                let s = table.value_at(p as usize);
                let next = ids.len() as u32;
                *ids.entry(s).or_insert(next)
            })
            .collect();
    }
    (keys, codes)
}

/// Pack (TableId << 32 | RowId) join keys for the positions matching an
/// IN-list of `n_vals` vocabulary values offset by `stride`.
fn mc_side(table: &dyn FactTable, n_vals: u32, stride: u32, offset: u32) -> Vec<u64> {
    let mut positions: Vec<u32> = Vec::new();
    for i in 0..n_vals {
        let v = format!("v{}", (offset + i * stride) % 997);
        positions.extend_from_slice(table.postings(&v));
    }
    let mut tables_col = Vec::with_capacity(positions.len());
    let mut rows_col = Vec::with_capacity(positions.len());
    table.gather_tables(&positions, &mut tables_col);
    table.gather_rows(&positions, &mut rows_col);
    tables_col
        .iter()
        .zip(&rows_col)
        .map(|(&t, &r)| ((t as u64) << 32) | r as u64)
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = if smoke { 5 } else { 31 };
    let rows = synthetic_rows(120, 250, 5); // 150_000 fact rows
    let n_rows = rows.len();
    println!(
        "== bench `join_group` (150k rows{})",
        if smoke { ", --test smoke mode" } else { "" }
    );

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("join_group");
    group.sample_size(if smoke { 2 } else { 20 });

    let mut results: Vec<CaseResult> = Vec::new();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let table = build_engine(kind, rows.clone());
        println!("{}", table.memory_breakdown().report());

        // End-to-end SC query through the SQL engine: prints the flat
        // hash-table telemetry the executor now records.
        let eng = SqlEngine::with_alltables(build_engine(kind, rows.clone()));
        let (_, report) = eng
            .execute_with_report(
                "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
                 GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 10",
            )
            .expect("SC query runs");
        for h in &report.hash_tables {
            // Join nanos cover the table build only; group nanos cover the
            // whole fused index+aggregate phase (see HashTableStats docs).
            println!(
                "  {} hash-table: {} {:.3}ms, {} buckets, max chain {}, {} partition(s)",
                h.phase,
                if h.phase == "group" {
                    "index+aggregate"
                } else {
                    "build"
                },
                h.build_nanos as f64 / 1e6,
                h.buckets,
                h.max_chain,
                h.partitions
            );
        }

        let label = kind.label().to_lowercase();

        // SC join+group shape: GROUP BY (TableId, ColumnId) + distinct
        // over the full 150k-row position space.
        let (sc_keys, sc_codes) = sc_inputs(table.as_ref());
        let want = map_group(&sc_keys, &sc_codes);
        assert_eq!(
            flat_group(&sc_keys, &sc_codes),
            want,
            "{}/sc: flat grouping diverged from the map oracle",
            kind.label()
        );
        let map_ns = time_ns(iters, || map_group(&sc_keys, &sc_codes).len());
        let flat_ns = time_ns(iters, || flat_group(&sc_keys, &sc_codes).len());
        // SIMD A/B over the flat pipeline (striped radix counting is the
        // dispatched kernel inside it), with parity on both forced paths.
        for vector in [false, true] {
            blend_simd::force(Some(vector));
            assert_eq!(
                flat_group(&sc_keys, &sc_codes),
                want,
                "{}/sc: vector={vector} diverged from the map oracle",
                kind.label()
            );
        }
        blend_simd::force(None);
        let (sc_simd_on_ns, sc_simd_off_ns) = blend_bench::simd_ab_ns(iters, || {
            std::hint::black_box(flat_group(&sc_keys, &sc_codes).len());
        });
        if !smoke {
            group.bench_function(format!("{label}_sc_group_map"), |b| {
                b.iter(|| map_group(&sc_keys, &sc_codes).len())
            });
            group.bench_function(format!("{label}_sc_group_flat"), |b| {
                b.iter(|| flat_group(&sc_keys, &sc_codes).len())
            });
        }
        let r = CaseResult {
            engine: kind.label(),
            shape: "sc_join_group",
            rows: sc_keys.len(),
            map_ns,
            flat_ns,
            simd_on_ns: sc_simd_on_ns,
            simd_off_ns: sc_simd_off_ns,
        };
        println!(
            "  -> {label}/sc_join_group: {} rows, {} groups, map {:.3}ms, flat {:.3}ms, \
             speedup {:.2}x, simd on {:.3}ms / off {:.3}ms ({:.2}x)",
            r.rows,
            want.len(),
            r.map_ns as f64 / 1e6,
            r.flat_ns as f64 / 1e6,
            r.speedup(),
            r.simd_on_ns as f64 / 1e6,
            r.simd_off_ns as f64 / 1e6,
            r.simd_speedup()
        );
        results.push(r);

        // MC join shape: two broad IN-list scans self-joined on
        // (TableId, RowId).
        let build = mc_side(table.as_ref(), 120, 3, 0);
        let probe = mc_side(table.as_ref(), 120, 5, 1);
        let want = map_join(&build, &probe);
        assert_eq!(
            flat_join(&build, &probe),
            want,
            "{}/mc: flat join diverged from the map oracle",
            kind.label()
        );
        // The probe path in isolation: one table build, then the blocked
        // `probe_all` under both forced dispatch paths — parity first,
        // then the interleaved A/B the SIMD acceptance bar reads.
        let jt = JoinTable::build(&build, None).unwrap();
        for vector in [false, true] {
            blend_simd::force(Some(vector));
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            jt.probe_all(&build, &probe, |p, b| pairs.push((p, b)));
            assert_eq!(
                pair_digest(pairs.into_iter()),
                want,
                "{}/mc: vector={vector} blocked probe diverged",
                kind.label()
            );
        }
        blend_simd::force(None);
        let (mc_simd_on_ns, mc_simd_off_ns) = blend_bench::simd_ab_ns(iters, || {
            let mut n = 0usize;
            jt.probe_all(&build, &probe, |_, _| n += 1);
            std::hint::black_box(n);
        });

        let map_ns = time_ns(iters, || map_join(&build, &probe).0);
        let flat_ns = time_ns(iters, || flat_join(&build, &probe).0);
        if !smoke {
            group.bench_function(format!("{label}_mc_join_map"), |b| {
                b.iter(|| map_join(&build, &probe).0)
            });
            group.bench_function(format!("{label}_mc_join_flat"), |b| {
                b.iter(|| flat_join(&build, &probe).0)
            });
        }
        let r = CaseResult {
            engine: kind.label(),
            shape: "mc_join",
            rows: build.len() + probe.len(),
            map_ns,
            flat_ns,
            simd_on_ns: mc_simd_on_ns,
            simd_off_ns: mc_simd_off_ns,
        };
        println!(
            "  -> {label}/mc_join: {}+{} rows, {} matches, map {:.3}ms, flat {:.3}ms, \
             speedup {:.2}x, probe simd on {:.3}ms / off {:.3}ms ({:.2}x)",
            build.len(),
            probe.len(),
            want.0,
            r.map_ns as f64 / 1e6,
            r.flat_ns as f64 / 1e6,
            r.speedup(),
            r.simd_on_ns as f64 / 1e6,
            r.simd_off_ns as f64 / 1e6,
            r.simd_speedup()
        );
        results.push(r);
    }
    // XL probe shape: the blocked probe kernel where its prefetch pipeline
    // matters — a join table far too big for the private caches (~80 MB of
    // CSR arrays + build keys at full size). Deterministic xorshift64*
    // keys over a 2^23 domain; engine-independent (the probe kernel never
    // sees the storage layer).
    {
        let n_xl = if smoke { 60_000 } else { 4_000_000 };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let build: Vec<u64> = (0..n_xl).map(|_| next() & ((1 << 23) - 1)).collect();
        let probe: Vec<u64> = (0..n_xl).map(|_| next() & ((1 << 23) - 1)).collect();
        let want = map_join(&build, &probe);
        assert_eq!(
            flat_join(&build, &probe),
            want,
            "xl: flat join diverged from the map oracle"
        );
        let jt = JoinTable::build(&build, None).unwrap();
        for vector in [false, true] {
            blend_simd::force(Some(vector));
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            jt.probe_all(&build, &probe, |p, b| pairs.push((p, b)));
            assert_eq!(
                pair_digest(pairs.into_iter()),
                want,
                "xl: vector={vector} blocked probe diverged"
            );
        }
        blend_simd::force(None);
        let (xl_simd_on_ns, xl_simd_off_ns) = blend_bench::simd_ab_ns(iters, || {
            let mut n = 0usize;
            jt.probe_all(&build, &probe, |_, _| n += 1);
            std::hint::black_box(n);
        });
        // The map/flat oracles rebuild their HashMaps every iteration —
        // a handful of timed runs is plenty at this size.
        let map_ns = time_ns(iters.min(7), || map_join(&build, &probe).0);
        let flat_ns = time_ns(iters.min(7), || flat_join(&build, &probe).0);
        let r = CaseResult {
            engine: "Synthetic",
            shape: "xl_probe",
            rows: build.len() + probe.len(),
            map_ns,
            flat_ns,
            simd_on_ns: xl_simd_on_ns,
            simd_off_ns: xl_simd_off_ns,
        };
        println!(
            "  -> synthetic/xl_probe: {}+{} rows, {} matches, map {:.3}ms, flat {:.3}ms, \
             speedup {:.2}x, probe simd on {:.3}ms / off {:.3}ms ({:.2}x)",
            build.len(),
            probe.len(),
            want.0,
            r.map_ns as f64 / 1e6,
            r.flat_ns as f64 / 1e6,
            r.speedup(),
            r.simd_on_ns as f64 / 1e6,
            r.simd_off_ns as f64 / 1e6,
            r.simd_speedup()
        );
        results.push(r);
    }
    group.finish();

    // The acceptance bar this bench exists to hold: flat join+group is at
    // least 1.5x the map-based baseline on the SC shape, column store.
    let sc_col = results
        .iter()
        .find(|r| r.engine == "Column" && r.shape == "sc_join_group")
        .expect("column SC case ran");
    assert!(
        sc_col.speedup() >= 1.5,
        "column-store SC join+group speedup {:.2}x < 1.5x",
        sc_col.speedup()
    );

    // SIMD acceptance bar: the batched-hash + prefetch probe beats the
    // scalar probe by at least 1.3x on at least one join shape — in
    // practice the XL shape, where the table spills the private caches
    // and the prefetch pipeline has latency to hide. Smoke mode on shared
    // CI runners only rejects outright regressions (parity already held
    // above); full runs hold the real bar.
    let best_probe = results
        .iter()
        .filter(|r| r.shape == "mc_join" || r.shape == "xl_probe")
        .max_by(|a, b| a.simd_speedup().total_cmp(&b.simd_speedup()))
        .expect("probe cases ran");
    let simd_bar = if smoke { 0.5 } else { 1.3 };
    println!(
        "  -> best probe simd speedup: {} at {:.2}x",
        best_probe.engine,
        best_probe.simd_speedup()
    );
    assert!(
        best_probe.simd_speedup() >= simd_bar,
        "best SIMD-on/off probe speedup {:.2}x < {simd_bar}x ({})",
        best_probe.simd_speedup(),
        best_probe.engine
    );

    // Observability overhead bar: the instrumented SC join+group query
    // (root trace + scan/join/group spans + metric cells) must not tax
    // the end-to-end path. Full runs hold the 5% contract; smoke mode on
    // shared CI runners only rejects outright regressions, matching the
    // other timing bars above.
    let obs_engine = SqlEngine::with_alltables(build_engine(EngineKind::Column, rows.clone()));
    let obs_sql = "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
                   GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 10";
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
    let mut json = String::from("{\n  \"bench\": \"join_group\",\n");
    let _ = writeln!(json, "  \"rows\": {n_rows},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"obs_on_ns\": {obs_on_ns},");
    let _ = writeln!(json, "  \"obs_off_ns\": {obs_off_ns},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"shape\": \"{}\", \"rows\": {}, \
             \"map_ns\": {}, \"flat_ns\": {}, \"speedup\": {:.3}, \
             \"simd_on_ns\": {}, \"simd_off_ns\": {}, \"simd_speedup\": {:.3}}}{}",
            r.engine,
            r.shape,
            r.rows,
            r.map_ns,
            r.flat_ns,
            r.speedup(),
            r.simd_on_ns,
            r.simd_off_ns,
            r.simd_speedup(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let out = write_bench_json("join_group", smoke, &json);
    println!("  wrote {}", out.display());
    blend_obs::dump_if_enabled();
}
