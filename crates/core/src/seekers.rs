//! Seeker implementations (paper Section VI): SQL generation over
//! `AllTables` plus the application-level phases of MC and C.

use std::borrow::Cow;

use blend_common::{stats::mean, text, FxHashMap, FxHashSet, Result, TableId};
use blend_index::xash_value;
use blend_parallel::Interrupt;
use blend_sql::{ExecPath, ResultSet, SqlValue};

use crate::combiners::TableHit;
use crate::plan::Seeker;
use crate::Blend;

/// Placeholder the rewriter replaces with an injected TableId predicate
/// (paper §VII-B "query rewriting"). Present in every seeker template.
pub const TID_PLACEHOLDER: &str = "/*$TID$*/";

/// A predicate injected by the optimizer from intermediate results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injected {
    /// `AND TableId IN (...)` — intersection rewriting.
    In(Vec<u32>),
    /// `AND TableId NOT IN (...)` — difference rewriting.
    NotIn(Vec<u32>),
}

impl Injected {
    /// Render the SQL fragment replacing [`TID_PLACEHOLDER`].
    pub fn fragment(&self) -> String {
        match self {
            // An empty intersection can never match; `run()` short-circuits
            // before rendering, but the fragment must still be valid SQL
            // (`IN ()` is not), so render a never-true predicate.
            Injected::In(ids) if ids.is_empty() => "AND 1 = 0".to_string(),
            Injected::In(ids) => format!("AND TableId IN ({})", join_ids(ids)),
            Injected::NotIn(ids) if ids.is_empty() => String::new(),
            Injected::NotIn(ids) => format!("AND TableId NOT IN ({})", join_ids(ids)),
        }
    }
}

fn join_ids(ids: &[u32]) -> String {
    let mut s = String::with_capacity(ids.len() * 4);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&id.to_string());
    }
    s
}

/// Append an already-normalized value as a SQL string literal with `'`
/// escaping (normalization matches the indexer's cell normalization).
fn push_quoted(out: &mut String, norm: &str) {
    out.reserve(norm.len() + 2);
    out.push('\'');
    for c in norm.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
}

fn join_values(values: &[String]) -> String {
    // Deduplicate on the normalized value and render the quoted literal
    // straight into the output — one allocation per distinct value instead
    // of a rendered literal plus a seen-set clone per input.
    let mut s = String::new();
    let mut seen: FxHashSet<String> = FxHashSet::default();
    for v in values {
        let norm = text::normalize(v);
        if seen.contains(&norm) {
            continue;
        }
        if !s.is_empty() {
            s.push(',');
        }
        push_quoted(&mut s, &norm);
        seen.insert(norm);
    }
    s
}

/// One executed seeker: its SQL, hits, and MC bookkeeping.
#[derive(Debug, Clone)]
pub struct SeekerRun {
    /// The SQL sent to the engine (post-rewriting).
    pub sql: String,
    /// Ranked results.
    pub hits: Vec<TableHit>,
    /// MC filter-phase statistics (None for other seekers): candidate rows
    /// after the super-key filter and rows surviving exact validation —
    /// the TP/FP numbers of paper Table V.
    pub mc_stats: Option<McStats>,
}

/// MC candidate bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McStats {
    /// Candidate rows emitted by the SQL phase + super-key filter.
    pub candidates: usize,
    /// Candidates passing exact alignment validation (true positives).
    pub validated: usize,
}

impl McStats {
    /// Filter precision (Table V definition).
    pub fn precision(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.validated as f64 / self.candidates as f64
        }
    }
}

/// Render the SQL template(s) of a seeker (pre-injection). Exposed for the
/// documentation tests and the LOC experiment.
pub fn seeker_sql(seeker: &Seeker, k: usize, h: usize) -> String {
    match seeker {
        Seeker::Sc { values } => sc_sql(values, k, false),
        Seeker::Kw { keywords } => sc_sql(keywords, k, true),
        Seeker::Mc { rows } => mc_sql(rows),
        Seeker::C { keys, target } => c_sql(keys, target, h),
    }
}

/// Listing 1 (extended with an explicit score column and table-granularity
/// over-fetch; see module docs). `table_wide` drops ColumnId from GROUP BY,
/// turning SC into KW.
fn sc_sql(values: &[String], k: usize, table_wide: bool) -> String {
    let group = if table_wide {
        "TableId"
    } else {
        "TableId, ColumnId"
    };
    // Over-fetch: several (table, column) groups may share a table.
    let fetch = k.saturating_mul(4).saturating_add(8);
    format!(
        "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
         WHERE CellValue IN ({vals}) {TID_PLACEHOLDER} \
         GROUP BY {group} \
         ORDER BY score DESC \
         LIMIT {fetch}",
        vals = join_values(values),
    )
}

/// Listing 2, generalized to any arity, with explicit projection so the
/// application phase can read values/columns/super keys by label.
fn mc_sql(rows: &[Vec<String>]) -> String {
    let arity = rows.first().map_or(0, Vec::len);
    // Per-column value lists.
    let mut col_values: Vec<Vec<String>> = vec![Vec::new(); arity];
    for row in rows {
        for (c, v) in row.iter().enumerate() {
            col_values[c].push(v.clone());
        }
    }
    let mut proj = vec![
        "q0.TableId AS tid".to_string(),
        "q0.RowId AS rid".to_string(),
        "q0.SuperKey AS sk".to_string(),
    ];
    for c in 0..arity {
        proj.push(format!("q{c}.CellValue AS v{c}"));
        proj.push(format!("q{c}.ColumnId AS c{c}"));
    }
    let mut sql = format!(
        "SELECT {} FROM (SELECT * FROM AllTables WHERE CellValue IN ({}) {TID_PLACEHOLDER}) AS q0",
        proj.join(", "),
        join_values(&col_values[0]),
    );
    for (c, vals) in col_values.iter().enumerate().skip(1) {
        sql.push_str(&format!(
            " INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ({})) AS q{c} \
             ON q0.TableId = q{c}.TableId AND q0.RowId = q{c}.RowId",
            join_values(vals),
        ));
    }
    sql
}

/// Listing 3: the correlation seeker with the in-SQL QCR score
/// `ABS((2*SUM(concordant)-COUNT(*))/COUNT(*))`. The `k0`/`k1` key split
/// happens here, before query generation, exactly as the paper describes.
fn c_sql(keys: &[String], target: &[f64], h: usize) -> String {
    let m = mean(target).unwrap_or(0.0);
    let mut k0 = Vec::new();
    let mut k1 = Vec::new();
    for (k, t) in keys.iter().zip(target) {
        if *t < m {
            k0.push(k.clone());
        } else {
            k1.push(k.clone());
        }
    }
    format!(
        "SELECT keys.TableId AS t, keys.ColumnId AS kc, nums.ColumnId AS nc, \
         ABS((2 * SUM(((keys.CellValue IN ({k0}) AND nums.Quadrant = 0) OR \
         (keys.CellValue IN ({k1}) AND nums.Quadrant = 1))::int) - COUNT(*)) / COUNT(*)) AS score, \
         COUNT(*) AS n \
         FROM (SELECT * FROM AllTables WHERE RowId < {h} AND CellValue IN ({all}) {TID_PLACEHOLDER}) keys \
         INNER JOIN (SELECT * FROM AllTables WHERE RowId < {h} AND Quadrant IS NOT NULL) nums \
         ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
         AND keys.ColumnId <> nums.ColumnId \
         GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId \
         ORDER BY score DESC",
        k0 = join_values(&k0),
        k1 = join_values(&k1),
        all = join_values(keys),
    )
}

/// Execute a seeker against the BLEND engine.
pub fn run(
    blend: &Blend,
    seeker: &Seeker,
    k: usize,
    injected: Option<&Injected>,
    interrupt: &Interrupt,
) -> Result<SeekerRun> {
    // Short-circuit: an empty intersection filter can never match.
    if let Some(Injected::In(ids)) = injected {
        if ids.is_empty() {
            return Ok(SeekerRun {
                sql: String::new(),
                hits: Vec::new(),
                mc_stats: matches!(seeker, Seeker::Mc { .. }).then(McStats::default),
            });
        }
    }
    let template = seeker_sql(seeker, k, blend.options().h);
    let fragment = injected.map(Injected::fragment).unwrap_or_default();
    let sql = template.replace(TID_PLACEHOLDER, &fragment);

    let rs = blend
        .engine()
        .execute_interruptible(&sql, ExecPath::Auto, interrupt.clone())
        .map(|(rs, _)| rs)?;
    let (hits, mc_stats) = match seeker {
        Seeker::Sc { .. } | Seeker::Kw { .. } => (dedup_table_scores(&rs, k), None),
        Seeker::Mc { rows } => {
            let (hits, stats) = mc_postprocess(&rs, rows, k);
            (hits, Some(stats))
        }
        Seeker::C { .. } => (
            c_postprocess(&rs, k, blend.options().corr_min_matches),
            None,
        ),
    };
    Ok(SeekerRun {
        sql,
        hits,
        mc_stats,
    })
}

/// Keep the best score per table, preserving descending order; cut to `k`.
fn dedup_table_scores(rs: &ResultSet, k: usize) -> Vec<TableHit> {
    let (Some(t), Some(s)) = (rs.col("t"), rs.col("score")) else {
        return Vec::new();
    };
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut out = Vec::new();
    for row in &rs.rows {
        if out.len() >= k {
            break;
        }
        let (Some(table), Some(score)) = (row[t].as_i64(), row[s].as_f64()) else {
            continue;
        };
        if seen.insert(table as u32) {
            out.push(TableHit {
                table: TableId(table as u32),
                score,
            });
        }
    }
    out
}

/// MC application phase, per the paper's two steps: (1) the super key of
/// each candidate row prunes rows that cannot hold any full query row
/// (bloom subset test, no value comparisons); (2) exact match validation
/// checks that a matched value combination is an actual query row
/// (alignment). TP/FP are counted per candidate row (Table V).
fn mc_postprocess(rs: &ResultSet, rows: &[Vec<String>], k: usize) -> (Vec<TableHit>, McStats) {
    let arity = rows.first().map_or(0, Vec::len);
    // Normalized query rows for exact validation, and one XASH mask per
    // row for the super-key filter: `mask & !sk == 0` (every bit of the
    // row's values set in the super key) holds exactly when
    // `Xash::may_contain_all(sk, row)` does.
    let query_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|v| text::normalize(v)).collect())
        .collect();
    let masks: Vec<u128> = query_rows
        .iter()
        .map(|qr| qr.iter().fold(0, |m, v| m | xash_value(v)))
        .collect();
    let query_row_set: FxHashSet<Vec<Cow<str>>> = query_rows
        .iter()
        .map(|qr| qr.iter().map(|v| Cow::Borrowed(v.as_str())).collect())
        .collect();

    let tid = rs.col("tid");
    let rid = rs.col("rid");
    let sk = rs.col("sk");
    let (Some(tid), Some(rid), Some(sk)) = (tid, rid, sk) else {
        return (Vec::new(), McStats::default());
    };
    // A malformed result set (missing value/column projections) yields an
    // empty hit list rather than crashing the engine.
    let vcols: Option<Vec<usize>> = (0..arity).map(|c| rs.col(&format!("v{c}"))).collect();
    let ccols: Option<Vec<usize>> = (0..arity).map(|c| rs.col(&format!("c{c}"))).collect();
    let (Some(vcols), Some(ccols)) = (vcols, ccols) else {
        return (Vec::new(), McStats::default());
    };

    // Per candidate row: whether the super key of its first tuple passes
    // the filter, and whether some tuple of it validated.
    struct Candidate {
        passes: bool,
        validated: bool,
    }
    let mut candidates: FxHashMap<(u32, u32), Candidate> = FxHashMap::default();
    let mut joinable: FxHashMap<u32, usize> = FxHashMap::default();
    let mut cids: Vec<i64> = Vec::with_capacity(arity);
    let mut combo: Vec<Cow<str>> = Vec::with_capacity(arity);
    'tuples: for row in &rs.rows {
        let (Some(t), Some(r)) = (row[tid].as_i64(), row[rid].as_i64()) else {
            continue;
        };
        // Alignment needs the values to come from distinct columns.
        cids.clear();
        for &c in &ccols {
            let Some(cid) = row[c].as_i64() else {
                continue 'tuples;
            };
            if cids.contains(&cid) {
                continue 'tuples;
            }
            cids.push(cid);
        }
        let SqlValue::U128(superkey) = row[sk] else {
            continue;
        };
        let (t, r) = (t as u32, r as u32);
        let cand = candidates.entry((t, r)).or_insert_with(|| Candidate {
            passes: masks.iter().any(|&m| m & !superkey == 0),
            validated: false,
        });
        if !cand.passes || cand.validated {
            continue;
        }
        // Exact match validation on the aligned combination.
        combo.clear();
        combo.extend(vcols.iter().map(|&c| cell_text(&row[c])));
        if query_row_set.contains(combo.as_slice()) {
            cand.validated = true;
            *joinable.entry(t).or_default() += 1;
        }
    }

    let stats = McStats {
        candidates: candidates.values().filter(|c| c.passes).count(),
        validated: candidates.values().filter(|c| c.validated).count(),
    };
    let mut topk = blend_common::topk::TopK::new(k);
    for (t, n) in joinable {
        topk.push(
            n as f64,
            t as u64,
            TableHit {
                table: TableId(t),
                score: n as f64,
            },
        );
    }
    (
        topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
        stats,
    )
}

/// A matched MC value as validation text: text borrows from the result
/// set, any other value (e.g. NULL) takes its display form.
fn cell_text(v: &SqlValue) -> Cow<'_, str> {
    match v {
        SqlValue::Text(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()),
    }
}

/// C application phase: drop under-supported triplets, keep the best
/// |QCR| per table, cut to `k`.
fn c_postprocess(rs: &ResultSet, k: usize, min_matches: usize) -> Vec<TableHit> {
    let (Some(t), Some(s), Some(n)) = (rs.col("t"), rs.col("score"), rs.col("n")) else {
        return Vec::new();
    };
    let mut best: FxHashMap<u32, f64> = FxHashMap::default();
    for row in &rs.rows {
        let (Some(table), Some(score), Some(support)) =
            (row[t].as_i64(), row[s].as_f64(), row[n].as_i64())
        else {
            continue;
        };
        if (support as usize) < min_matches {
            continue;
        }
        let e = best.entry(table as u32).or_insert(f64::MIN);
        if score > *e {
            *e = score;
        }
    }
    let mut topk = blend_common::topk::TopK::new(k);
    for (table, score) in best {
        topk.push(
            score,
            table as u64,
            TableHit {
                table: TableId(table),
                score,
            },
        );
    }
    topk.into_sorted().into_iter().map(|(_, h)| h).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_index::Xash;
    use blend_lake::web::{generate, WebLakeConfig};
    use blend_lake::workloads;
    use blend_storage::EngineKind;
    use proptest::collection;
    use proptest::prelude::*;

    use crate::Plan;

    fn wdc_lake() -> blend_lake::DataLake {
        let mut cfg = WebLakeConfig::wdc_like(0.05);
        cfg.seed = 61;
        generate(&cfg)
    }

    /// Oracle for [`mc_postprocess`]: gather every candidate row's matched
    /// combinations as owned strings, then filter with the per-value
    /// subset test and validate per candidate.
    fn reference_mc_postprocess(
        rs: &ResultSet,
        rows: &[Vec<String>],
        k: usize,
    ) -> (Vec<TableHit>, McStats) {
        let arity = rows.first().map_or(0, Vec::len);
        let query_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|v| text::normalize(v)).collect())
            .collect();
        let query_row_set: FxHashSet<&[String]> = query_rows.iter().map(Vec::as_slice).collect();
        let col = |name: &str| rs.col(name).unwrap();
        let (tid, rid, sk) = (col("tid"), col("rid"), col("sk"));
        let vcols: Vec<usize> = (0..arity).map(|c| col(&format!("v{c}"))).collect();
        let ccols: Vec<usize> = (0..arity).map(|c| col(&format!("c{c}"))).collect();
        type Combos = Vec<Vec<String>>;
        let mut candidates: FxHashMap<(u32, u32), (u128, Combos)> = FxHashMap::default();
        'tuples: for row in &rs.rows {
            let (Some(t), Some(r)) = (row[tid].as_i64(), row[rid].as_i64()) else {
                continue;
            };
            let mut cset = FxHashSet::default();
            for &c in &ccols {
                match row[c].as_i64() {
                    Some(cid) if cset.insert(cid) => {}
                    _ => continue 'tuples,
                }
            }
            let values: Vec<String> = vcols.iter().map(|&c| row[c].to_string()).collect();
            let SqlValue::U128(superkey) = row[sk] else {
                continue;
            };
            candidates
                .entry((t as u32, r as u32))
                .or_insert_with(|| (superkey, Vec::new()))
                .1
                .push(values);
        }
        let mut stats = McStats::default();
        let mut joinable: FxHashMap<u32, FxHashSet<u32>> = FxHashMap::default();
        for ((t, r), (superkey, combos)) in candidates {
            if !query_rows
                .iter()
                .any(|qr| Xash::may_contain_all(superkey, qr.iter().map(String::as_str)))
            {
                continue;
            }
            stats.candidates += 1;
            if combos.iter().any(|c| query_row_set.contains(c.as_slice())) {
                stats.validated += 1;
                joinable.entry(t).or_default().insert(r);
            }
        }
        let mut topk = blend_common::topk::TopK::new(k);
        for (t, rows) in joinable {
            let score = rows.len() as f64;
            topk.push(
                score,
                t as u64,
                TableHit {
                    table: TableId(t),
                    score,
                },
            );
        }
        (
            topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
            stats,
        )
    }

    #[test]
    fn mc_postprocess_matches_reference_on_generated_lake() {
        let lake = wdc_lake();
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let queries = workloads::mc_queries(&lake, 48, 2, 5, 7);
        assert!(queries.len() >= 32, "lake yields MC queries");
        let mut total = McStats::default();
        for q in &queries {
            let rs = blend.engine().execute(&mc_sql(&q.rows)).unwrap();
            let got = mc_postprocess(&rs, &q.rows, 10);
            assert_eq!(got, reference_mc_postprocess(&rs, &q.rows, 10), "{q:?}");
            total.candidates += got.1.candidates;
            total.validated += got.1.validated;
        }
        // The lake exercises both the filter and the validation.
        assert!(
            total.validated > 0 && total.candidates > total.validated,
            "{total:?}"
        );
    }

    #[test]
    fn mc_non_text_values_validate_as_their_display_form() {
        // One candidate row per value kind, all passing the super-key
        // filter: an Int matches the query value "42"; NULL is compared as
        // "NULL", which no normalized (lowercase) query value equals.
        let rows = vec![
            vec!["42".to_string(), "b".to_string()],
            vec!["NULL".to_string(), "b".to_string()],
        ];
        let columns = ["tid", "rid", "sk", "v0", "c0", "v1", "c1"];
        let tuple = |rid: i64, v0: SqlValue| {
            vec![
                SqlValue::Int(1),
                SqlValue::Int(rid),
                SqlValue::U128(u128::MAX),
                v0,
                SqlValue::Int(0),
                SqlValue::from("b"),
                SqlValue::Int(1),
            ]
        };
        let rs = ResultSet {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: vec![tuple(0, SqlValue::Int(42)), tuple(1, SqlValue::Null)],
        };
        let (hits, stats) = mc_postprocess(&rs, &rows, 10);
        assert_eq!(
            stats,
            McStats {
                candidates: 2,
                validated: 1
            }
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].score, 1.0);
        assert_eq!((hits, stats), reference_mc_postprocess(&rs, &rows, 10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn xash_row_mask_equals_per_value_subset_test(
            superkey in (any::<u64>(), any::<u64>()),
            density in 0u8..4,
            row in collection::vec(
                proptest::string::string_regex("[a-e ]{0,6}").unwrap(),
                0..4,
            ),
        ) {
            // Dense super keys make passing rows common, sparse ones rare.
            let (hi, lo) = superkey;
            let mut sk = (hi as u128) << 64 | lo as u128;
            for _ in 0..density {
                sk |= sk << 1 | sk >> 3;
            }
            let mask = row.iter().fold(0, |m, v| m | xash_value(v));
            prop_assert_eq!(
                mask & !sk == 0,
                Xash::may_contain_all(sk, row.iter().map(String::as_str))
            );
        }
    }

    #[test]
    fn every_seeker_returns_nothing_at_k_zero() {
        let lake = wdc_lake();
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let sc = workloads::sc_queries(&lake, &[10], 1, 3).pop().unwrap().1;
        let kw = workloads::kw_queries(&lake, 1, 10, 3);
        let mc = workloads::mc_queries(&lake, 1, 2, 5, 3);
        let t = lake
            .tables
            .iter()
            .find(|t| t.n_rows() >= 8 && t.n_cols() >= 2)
            .unwrap();
        let keys: Vec<String> = (0..t.n_rows()).map(|r| t.cell(r, 0).to_string()).collect();
        let target: Vec<f64> = (0..t.n_rows()).map(|r| r as f64).collect();
        let seekers = [
            Seeker::sc(sc[0].clone()),
            Seeker::kw(kw[0].clone()),
            Seeker::mc(mc[0].rows.clone()),
            Seeker::c(keys, target),
        ];
        for seeker in seekers {
            let hits_at = |k: usize| {
                let mut plan = Plan::new();
                plan.add_seeker("s", seeker.clone(), k).unwrap();
                blend.execute(&plan).unwrap()
            };
            assert!(!hits_at(10).is_empty(), "{seeker:?} finds tables at k=10");
            assert_eq!(hits_at(0), Vec::new(), "{seeker:?} at k=0");
        }
    }

    #[test]
    fn sql_templates_contain_placeholder() {
        let seekers = [
            Seeker::sc(vec!["a".into()]),
            Seeker::kw(vec!["a".into()]),
            Seeker::mc(vec![vec!["a".into(), "b".into()]]),
            Seeker::c(vec!["k1".into(), "k2".into()], vec![1.0, 2.0]),
        ];
        for s in seekers {
            let sql = seeker_sql(&s, 10, 64);
            assert!(sql.contains(TID_PLACEHOLDER), "{sql}");
        }
    }

    #[test]
    fn injected_fragments() {
        assert_eq!(
            Injected::In(vec![1, 2, 3]).fragment(),
            "AND TableId IN (1,2,3)"
        );
        assert_eq!(
            Injected::NotIn(vec![7]).fragment(),
            "AND TableId NOT IN (7)"
        );
        // Empty NOT IN is a no-op (filters nothing out).
        assert_eq!(Injected::NotIn(vec![]).fragment(), "");
        // Empty IN is usually short-circuited in `run()`, but the fragment
        // must still be valid SQL on its own: a never-true predicate.
        assert_eq!(Injected::In(vec![]).fragment(), "AND 1 = 0");
    }

    #[test]
    fn mc_postprocess_tolerates_malformed_result_sets() {
        use blend_sql::ResultSet;
        let rows = vec![vec!["a".to_string(), "b".to_string()]];
        // Missing the v0/c0 projections entirely.
        let rs = ResultSet {
            columns: vec!["tid".into(), "rid".into(), "sk".into()],
            rows: vec![vec![
                SqlValue::Int(1),
                SqlValue::Int(0),
                SqlValue::U128(0xFF),
            ]],
        };
        let (hits, stats) = mc_postprocess(&rs, &rows, 10);
        assert!(hits.is_empty());
        assert_eq!(stats, McStats::default());

        // Missing the id columns.
        let rs = ResultSet {
            columns: vec!["v0".into()],
            rows: vec![vec![SqlValue::from("a")]],
        };
        let (hits, stats) = mc_postprocess(&rs, &rows, 10);
        assert!(hits.is_empty());
        assert_eq!(stats, McStats::default());
    }

    #[test]
    fn values_are_normalized_escaped_and_deduped() {
        let sql = sc_sql(
            &["O'Brien".into(), "  O'BRIEN ".into(), "x".into()],
            5,
            false,
        );
        assert!(sql.contains("'o''brien'"), "{sql}");
        // Deduplicated after normalization.
        assert_eq!(sql.matches("o''brien").count(), 1);
    }

    #[test]
    fn kw_groups_table_wide() {
        let sc = sc_sql(&["a".into()], 5, false);
        let kw = sc_sql(&["a".into()], 5, true);
        assert!(sc.contains("GROUP BY TableId, ColumnId"));
        assert!(kw.contains("GROUP BY TableId "));
        assert!(!kw.contains("ColumnId"));
    }

    #[test]
    fn mc_sql_joins_per_column() {
        let sql = mc_sql(&[
            vec!["hr".into(), "firenze".into()],
            vec!["it".into(), "riddle".into()],
        ]);
        assert!(sql.contains("AS q0"));
        assert!(sql.contains("AS q1"));
        assert!(sql.contains("q0.RowId = q1.RowId"));
        assert!(sql.contains("'hr'") && sql.contains("'it'"));
        // First column list holds first components, second the second.
        let q0_part = &sql[..sql.find("INNER JOIN").unwrap()];
        assert!(q0_part.contains("'hr'") && q0_part.contains("'it'"));
        assert!(!q0_part.contains("'firenze'"));
    }

    #[test]
    fn c_sql_splits_keys_by_target_mean() {
        // mean = 2.0: k below -> k0, k at/above -> k1.
        let sql = c_sql(&["low".into(), "high".into()], &[1.0, 3.0], 128);
        let k0_pos = sql.find("'low'").unwrap();
        let k1_pos = sql.find("'high'").unwrap();
        let q0 = sql.find("Quadrant = 0").unwrap();
        let q1 = sql.find("Quadrant = 1").unwrap();
        assert!(k0_pos < q0 && q0 < k1_pos && k1_pos < q1, "{sql}");
        assert!(sql.contains("RowId < 128"));
        assert!(sql.contains("keys.ColumnId <> nums.ColumnId"));
    }
}
