//! Seeded lakes, the systems indexed over them, and query samplers. Every
//! input of a run derives from the workload seed; the program under test
//! only ever sees the generated tables and queries.

use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};

use blend::{Blend, ParallelCtx, Plan, Seeker};
use blend_common::{Column, ColumnType, FxHashSet, Table};
use blend_index::IndexBuilder;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::{workloads, DataLake};
use blend_storage::{EngineKind, FactTable};

pub type Rng64 = rand::rngs::StdRng;

/// Independent sub-seed `stream` of the workload seed (SplitMix64 finalizer).
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::seed_from_u64(subseed(seed, stream))
}

/// WDC-like lake at scale 0.1: ~250 short web tables, ~15k cells.
pub fn wdc(seed: u64) -> DataLake {
    let mut cfg = WebLakeConfig::wdc_like(0.1);
    cfg.seed = subseed(seed, 1);
    generate(&cfg)
}

/// OpenData-like lake at scale 0.2: ~80 long tables, ~130k cells.
pub fn opendata(seed: u64) -> DataLake {
    let mut cfg = WebLakeConfig::opendata_like(0.2);
    cfg.seed = subseed(seed, 1);
    generate(&cfg)
}

/// Distinct normalized values of one column, in row order.
pub fn column_values(t: &Table, c: usize) -> Vec<String> {
    let mut seen = FxHashSet::default();
    t.columns[c]
        .values
        .iter()
        .filter_map(|v| v.normalized().map(|n| n.into_owned()))
        .filter(|v| seen.insert(v.clone()))
        .collect()
}

fn cols_of(t: &Table, kind: ColumnType) -> Vec<usize> {
    (0..t.n_cols())
        .filter(|&c| t.columns[c].column_type() == kind)
        .collect()
}

/// Correlation-seeker input sampled from one table: the keys of a
/// categorical column and the aligned values of a numeric column (first
/// occurrence of each key, at most `max_keys`). `None` when the table has
/// no such pair with at least five keys and two distinct targets.
pub fn corr_input(t: &Table, rng: &mut Rng64, max_keys: usize) -> Option<(Vec<String>, Vec<f64>)> {
    let cats = cols_of(t, ColumnType::Categorical);
    let nums = cols_of(t, ColumnType::Numeric);
    if cats.is_empty() || nums.is_empty() {
        return None;
    }
    let kc = cats[rng.random_range(0..cats.len())];
    let nc = nums[rng.random_range(0..nums.len())];
    let mut seen = FxHashSet::default();
    let (mut keys, mut target) = (Vec::new(), Vec::new());
    for r in 0..t.n_rows() {
        let (Some(k), Some(v)) = (t.cell(r, kc).normalized(), t.cell(r, nc).as_f64()) else {
            continue;
        };
        if seen.insert(k.to_string()) {
            keys.push(k.into_owned());
            target.push(v);
            if keys.len() >= max_keys {
                break;
            }
        }
    }
    let distinct_targets = target.iter().any(|&v| v != target[0]);
    (keys.len() >= 5 && distinct_targets).then_some((keys, target))
}

/// `n` correlation inputs from random tables of the lake.
pub fn corr_inputs(
    lake: &DataLake,
    n: usize,
    max_keys: usize,
    rng: &mut Rng64,
) -> Vec<(Vec<String>, Vec<f64>)> {
    let mut out = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < n * 500 {
        guard += 1;
        let t = &lake.tables[rng.random_range(0..lake.len())];
        if let Some(input) = corr_input(t, rng, max_keys) {
            out.push(input);
        }
    }
    assert_eq!(out.len(), n, "lake has too few categorical/numeric pairs");
    out
}

/// `size` distinct values drawn from random columns of the lake: values of
/// one random column, topped up from further columns, then a random subset.
pub fn value_query(lake: &DataLake, size: usize, rng: &mut Rng64) -> Vec<String> {
    let mut pool: Vec<String> = Vec::new();
    let mut seen = FxHashSet::default();
    let mut guard = 0;
    while pool.len() < size && guard < 1000 {
        guard += 1;
        let t = &lake.tables[rng.random_range(0..lake.len())];
        if t.n_cols() == 0 {
            continue;
        }
        for v in column_values(t, rng.random_range(0..t.n_cols())) {
            if seen.insert(v.clone()) {
                pool.push(v);
            }
        }
    }
    // Partial Fisher-Yates: a uniform `size`-subset of the pool.
    for i in 0..size.min(pool.len()) {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(size);
    pool.sort_unstable();
    pool
}

/// The first `rows` rows of a lake table: a query table of bounded size.
pub fn head(t: &Table, rows: usize) -> Table {
    let columns = t
        .columns
        .iter()
        .map(|c| {
            Column::new(
                c.name.clone(),
                c.values.iter().take(rows).cloned().collect(),
            )
        })
        .collect();
    Table::new(t.id, t.name.clone(), columns).expect("equal-length prefixes")
}

/// A sequential engine over the same index: the reference for seekers
/// without a brute-force oracle.
pub fn reference(blend: &Blend) -> Blend {
    let mut r = Blend::new(blend.fact_table());
    r.set_parallel(Arc::new(ParallelCtx::sequential()));
    r
}

/// `n` MC queries: 2 columns × 5 rows sampled from lake tables. A longer
/// list extends a shorter one drawn with the same seed.
pub fn mc_queries(lake: &DataLake, seed: u64, n: usize) -> Vec<Vec<Vec<String>>> {
    let mc = workloads::mc_queries(lake, n, 2, 5, subseed(seed, 4));
    assert_eq!(mc.len(), n, "lake yields too few MC queries");
    mc.into_iter().map(|q| q.rows).collect()
}

/// MC queries per lake behind `mc_precision`, on every workload.
const MC_PROBES: usize = 256;

/// MC filter counts on a lake over [`MC_PROBES`] sampled MC queries, run
/// once outside the timed loop: (candidates, validated). `mc_precision`
/// (Table V) is validated ÷ candidates summed over a run's lakes; a count,
/// it repeats exactly for a seed.
pub fn mc_counts(blend: &Blend, lake: &DataLake, seed: u64) -> (usize, usize) {
    let (mut candidates, mut validated) = (0usize, 0usize);
    for rows in &mc_queries(lake, seed, MC_PROBES) {
        let mut plan = Plan::new();
        plan.add_seeker("mc", Seeker::mc(rows.clone()), 10)
            .expect("valid MC seeker");
        let (_, report) = blend.execute_with_report(&plan).expect("MC plan runs");
        let t = report.mc_totals();
        candidates += t.candidates;
        validated += t.validated;
    }
    (candidates, validated)
}

/// Validated ÷ candidates over several lakes' [`mc_counts`].
pub fn precision(counts: impl IntoIterator<Item = (usize, usize)>) -> f64 {
    let (c, v) = counts
        .into_iter()
        .fold((0, 0), |(c, v), (dc, dv)| (c + dc, v + dv));
    v as f64 / c.max(1) as f64
}

/// The lake-level parts of a run: generated lakes, their systems, and the
/// summed setup and index-build times.
pub struct Lakes {
    pub lakes: Vec<DataLake>,
    pub systems: Vec<Blend>,
    pub seeds: Vec<u64>,
    pub setup_s: f64,
    pub index_ms: f64,
    pub cells: usize,
}

impl Lakes {
    /// `n` lakes from `generate`, each indexed and attached by [`setup`].
    pub fn new(seed: u64, n: u64, generate: fn(u64) -> DataLake) -> Self {
        let seeds: Vec<u64> = (0..n).map(|l| subseed(seed, 100 + l)).collect();
        let lakes: Vec<DataLake> = seeds.iter().map(|&s| generate(s)).collect();
        let mut out = Lakes {
            cells: lakes.iter().map(|l| l.stats().cells).sum(),
            lakes: Vec::new(),
            systems: Vec::new(),
            seeds,
            setup_s: 0.0,
            index_ms: 0.0,
        };
        for lake in &lakes {
            let (blend, setup_s, index_ms) = setup(lake);
            out.systems.push(blend);
            out.setup_s += setup_s;
            out.index_ms += index_ms;
        }
        out.lakes = lakes;
        out
    }

    pub fn facts(&self) -> Vec<Arc<dyn FactTable>> {
        self.systems.iter().map(Blend::fact_table).collect()
    }

    pub fn index_bytes(&self) -> usize {
        self.facts()
            .iter()
            .map(|f| f.memory_breakdown().total())
            .sum()
    }

    /// `mc_precision` over every lake of the run.
    pub fn mc_precision(&self) -> f64 {
        precision(
            (0..self.lakes.len())
                .map(|i| mc_counts(&self.systems[i], &self.lakes[i], self.seeds[i])),
        )
    }
}

/// Index builds per setup measurement; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Index the lake `SETUP_REPS` times and attach BLEND; returns the last
/// system, the median setup seconds and the median index build ms.
pub fn setup(lake: &DataLake) -> (Blend, f64, f64) {
    crate::repeated_setup(SETUP_REPS, || {
        let t = Instant::now();
        let fact = IndexBuilder::new().build(&lake.tables, EngineKind::Column);
        let index_ms = t.elapsed().as_secs_f64() * 1e3;
        (Blend::new(fact), index_ms)
    })
}
