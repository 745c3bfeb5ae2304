//! The traced run's span log and its roll-up into per-layer self times.
//!
//! Two kinds of span land in the log. The benchmark's own spans wrap its
//! calls into the program (the whole op, and re-timed calls to
//! `seeker_sql`, `parser::parse`, `plan_query`, `rank_execution_group`,
//! `fingerprint_query`, `ServeQueue::submit`) and carry start and end
//! times. The program's spans come from the profile tree it already
//! records (`ExecutionReport::profile`, `QueryReport::profile`); that tree
//! keeps durations but not start times, so those spans are logged with a
//! duration, a parent and the op id only.
//!
//! A span's self time is its duration minus its children's durations; the
//! program records children on the parent's thread, nested in time.

use std::fmt::Write as _;
use std::time::Instant;

use blend_obs::{AttrValue, ProfileNode};

/// One logged span. Times are microseconds since the log was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: Option<f64>,
    pub end_us: Option<f64>,
    pub dur_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Log a span the benchmark timed itself; returns its index.
    pub fn timed(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: Some(us(start)),
            end_us: Some(us(end)),
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Log a program profile tree under `parent`.
    pub fn profile(&mut self, node: &ProfileNode, parent: Option<usize>, op: u64) {
        self.spans.push(Span {
            name: node.name.clone(),
            start_us: None,
            end_us: None,
            dur_us: node.nanos as f64 / 1e3,
            parent,
            op,
        });
        let me = self.spans.len() - 1;
        for c in &node.children {
            self.profile(c, Some(me), op);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: name, start, end, duration, parent, op.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.3}"));
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":{:?},\"start_us\":{},\"end_us\":{},\"dur_us\":{:.3},\"parent\":{},\"op\":{}}}",
                s.name,
                opt(s.start_us),
                opt(s.end_us),
                s.dur_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
            );
        }
        out
    }
}

/// Self times (ns) and work counts summed over the profile trees of the
/// traced ops, by layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `plan` root: DAG walk and bookkeeping outside seekers and combiners.
    pub plan_self: f64,
    /// `seeker:*`: rendering, parsing and post-processing around the query.
    pub seeker_self: f64,
    /// `query`: planning plus sort/limit/project (`finish`).
    pub query_self: f64,
    pub scan: f64,
    pub join_build: f64,
    pub join_probe: f64,
    pub group: f64,
    pub combine: f64,
    pub scanned_rows: u64,
    pub scan_out_rows: u64,
    pub probe_rows: u64,
    pub group_rows: u64,
    pub groups: u64,
    pub mem_peak_bytes: u64,
}

fn attr_u64(node: &ProfileNode, key: &str) -> u64 {
    match node.attr(key) {
        Some(AttrValue::U64(v)) => *v,
        _ => 0,
    }
}

impl Layers {
    /// Add one profile tree's self times and counts.
    pub fn add(&mut self, node: &ProfileNode) {
        let children: u64 = node.children.iter().map(|c| c.nanos).sum();
        let self_ns = node.nanos as f64 - children as f64;
        let name = node.name.as_str();
        match name {
            "plan" => self.plan_self += self_ns,
            "query" => {
                self.query_self += self_ns;
                self.mem_peak_bytes = self.mem_peak_bytes.max(attr_u64(node, "mem_peak_bytes"));
            }
            "join.build" => self.join_build += self_ns,
            "join.probe" => {
                self.join_probe += self_ns;
                self.probe_rows += attr_u64(node, "rows");
            }
            "group" | "group.global" => {
                self.group += self_ns;
                self.group_rows += attr_u64(node, "rows");
                self.groups += attr_u64(node, "groups");
            }
            _ if name.starts_with("seeker:") => self.seeker_self += self_ns,
            _ if name.starts_with("scan:") => {
                self.scan += self_ns;
                self.scanned_rows += attr_u64(node, "scanned");
                self.scan_out_rows += attr_u64(node, "rows");
            }
            _ if name.starts_with("combine:") => self.combine += self_ns,
            // Spans of any other name (none today) stay unattributed.
            _ => {}
        }
        for c in &node.children {
            self.add(c);
        }
    }

    /// Sum of every named layer's self time (ns).
    pub fn attributed(&self) -> f64 {
        self.plan_self
            + self.seeker_self
            + self.query_self
            + self.scan
            + self.join_build
            + self.join_probe
            + self.group
            + self.combine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, nanos: u64, children: Vec<ProfileNode>) -> ProfileNode {
        ProfileNode {
            name: name.into(),
            nanos,
            children,
            ..ProfileNode::default()
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let tree = node(
            "plan",
            1000,
            vec![
                node(
                    "seeker:SC",
                    700,
                    vec![node(
                        "query",
                        500,
                        vec![
                            node("scan:alltables", 100, vec![]),
                            node("group", 250, vec![]),
                        ],
                    )],
                ),
                node("combine:Intersect", 50, vec![]),
            ],
        );
        let mut l = Layers::default();
        l.add(&tree);
        assert_eq!(l.plan_self, 250.0);
        assert_eq!(l.seeker_self, 200.0);
        assert_eq!(l.query_self, 150.0);
        assert_eq!(l.scan, 100.0);
        assert_eq!(l.group, 250.0);
        assert_eq!(l.combine, 50.0);
        assert_eq!(l.attributed(), 1000.0);
    }

    #[test]
    fn log_keeps_parents_and_ops() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        let root = log.timed("op", t, t, None, 7);
        log.profile(
            &node("plan", 10, vec![node("query", 5, vec![])]),
            Some(root),
            7,
        );
        assert_eq!(log.len(), 3);
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":1"));
        assert!(text.lines().nth(1).unwrap().contains("\"start_us\":null"));
        assert!(text.lines().all(|l| l.contains("\"op\":7")));
    }
}
