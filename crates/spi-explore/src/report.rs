//! Batched, incrementally-merged exploration results.
//!
//! Workers do not stream one result per variant — at service scale that would
//! turn the registry lock into a contention point. Instead each worker accumulates a [`ShardReport`] *delta* and
//! flushes it every batch: deltas merge into the shard's staged report, staged
//! reports merge into the job's committed aggregate when the shard completes,
//! and every merge is the same associative, commutative [`ShardReport::merge`]
//! — so the final aggregate is independent of worker count, scheduling and
//! completion order.

use spi_model::json::{self, FromJson, JsonError, JsonResult, JsonValue, ToJson};
use spi_variants::VariantChoice;

/// One ranked variant: the unit of the top-K result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestVariant {
    /// Global index of the variant in the space's mixed-radix order.
    pub index: usize,
    /// Evaluated cost.
    pub cost: u64,
    /// The selection behind the index.
    pub choice: VariantChoice,
    /// Evaluator-defined summary of the winning implementation.
    pub detail: String,
}

impl BestVariant {
    /// The exact ordering key of the exploration: cheapest first, earliest
    /// index breaking ties — the same key a serial sweep in index order with
    /// strict improvement (`<`) produces.
    pub fn key(&self) -> (u64, usize) {
        (self.cost, self.index)
    }
}

impl ToJson for BestVariant {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("index", self.index.to_json()),
            ("cost", self.cost.to_json()),
            ("choice", self.choice.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl FromJson for BestVariant {
    fn from_json(value: &JsonValue) -> JsonResult<BestVariant> {
        Ok(BestVariant {
            index: usize::from_json(value.require("index")?)?,
            cost: u64::from_json(value.require("cost")?)?,
            choice: VariantChoice::from_json(value.require("choice")?)?,
            detail: String::from_json(value.require("detail")?)?,
        })
    }
}

/// Aggregated results over a set of evaluated variants — a per-batch delta, a
/// shard's staged state and the job-wide committed aggregate are all this one
/// type at different merge depths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Variants whose evaluator actually ran (feasible or not).
    pub evaluated: u64,
    /// Of the evaluated variants, how many were feasible.
    pub feasible: u64,
    /// Variants skipped because their lower bound exceeded the incumbent.
    pub pruned: u64,
    /// Variants whose evaluation returned an error.
    pub errors: u64,
    /// Wall-clock nanoseconds spent flattening + evaluating.
    pub eval_ns: u128,
    /// The cheapest variants seen, sorted by [`BestVariant::key`] and capped
    /// at the job's top-K.
    pub top: Vec<BestVariant>,
}

impl ShardReport {
    /// Variants this report accounts for (evaluated, pruned or errored).
    /// Summed over a completed job this equals the space size exactly once.
    pub fn accounted(&self) -> u64 {
        self.evaluated + self.pruned + self.errors
    }

    /// The cheapest variant seen, if any was feasible.
    pub fn best(&self) -> Option<&BestVariant> {
        self.top.first()
    }

    /// Where a variant with `key` would land in `top`.
    fn slot(&self, key: (u64, usize)) -> usize {
        self.top
            .binary_search_by_key(&key, BestVariant::key)
            .unwrap_or_else(|insert_at| insert_at)
    }

    /// Whether [`record`](Self::record) would keep a feasible variant with
    /// this [`BestVariant::key`] — what the drain asks before it has the
    /// variant's `detail` built.
    pub(crate) fn admits(&self, key: (u64, usize), top_k: usize) -> bool {
        self.slot(key) < top_k.max(1)
    }

    /// Records one feasible evaluation, keeping `top` sorted and capped
    /// (a `top_k` of zero is treated as one — the best is always kept).
    pub fn record(&mut self, variant: BestVariant, top_k: usize) {
        let cap = top_k.max(1);
        let position = self.slot(variant.key());
        if position >= cap {
            return;
        }
        self.top.insert(position, variant);
        self.top.truncate(cap);
    }

    /// Merges `delta` into `self`. Associative and commutative (given one
    /// consistent `top_k`), so staged/committed aggregates are independent of
    /// merge order.
    pub fn merge(&mut self, delta: &ShardReport, top_k: usize) {
        self.evaluated += delta.evaluated;
        self.feasible += delta.feasible;
        self.pruned += delta.pruned;
        self.errors += delta.errors;
        self.eval_ns += delta.eval_ns;
        if delta.top.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity((self.top.len() + delta.top.len()).min(top_k.max(1)));
        let (mut left, mut right) = (self.top.iter().peekable(), delta.top.iter().peekable());
        while merged.len() < top_k.max(1) {
            match (left.peek(), right.peek()) {
                (Some(a), Some(b)) => {
                    if a.key() <= b.key() {
                        merged.push((*a).clone());
                        left.next();
                    } else {
                        merged.push((*b).clone());
                        right.next();
                    }
                }
                (Some(a), None) => {
                    merged.push((*a).clone());
                    left.next();
                }
                (None, Some(b)) => {
                    merged.push((*b).clone());
                    right.next();
                }
                (None, None) => break,
            }
        }
        self.top = merged;
    }
}

/// A report's canonical line (`to_json().to_line()`) is how a finished job
/// and the result cache hold a result. `top` is the last member it renders,
/// and the only one that needs a tree to read.
impl ShardReport {
    /// This report's counters, with an empty `top`.
    pub(crate) fn counts(&self) -> ShardReport {
        ShardReport {
            evaluated: self.evaluated,
            feasible: self.feasible,
            pruned: self.pruned,
            errors: self.errors,
            eval_ns: self.eval_ns,
            top: Vec::new(),
        }
    }

    /// The counters of the report `line`, its `top` checked as JSON but not
    /// read (left empty).
    ///
    /// # Errors
    ///
    /// As [`FromJson::from_json`] for a line that is no report.
    pub(crate) fn counts_of(line: &str) -> JsonResult<ShardReport> {
        let mut members = Vec::new();
        let mut top = None;
        for member in json::members(line) {
            let (key, value) = member?;
            if key == "top" {
                top = Some(JsonValue::Array(Vec::new()));
            } else {
                members.push((key.into_owned(), JsonValue::parse(value)?));
            }
        }
        members.push(("top".to_string(), top.unwrap_or(JsonValue::Null)));
        ShardReport::from_json(&JsonValue::Object(members))
    }

    /// The text of the `top` member of the report `line`.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when `line` is not an object with a `top` member.
    pub(crate) fn top_of(line: &str) -> JsonResult<&str> {
        let mut top = None;
        for member in json::members(line) {
            let (key, value) = member?;
            if key == "top" {
                top = Some(value);
            }
        }
        top.ok_or_else(|| JsonError::new("missing key `top`"))
    }

    /// The line of this report's counters with `top`, a `top` member's
    /// text, as its `top`: the line `to_json` renders when its `top` is the
    /// one `top` holds.
    pub(crate) fn line_with_top(&self, top: &str) -> String {
        let counts = self.counts().to_json().to_line();
        let head = counts
            .strip_suffix("[]}")
            .expect("`top` is the last member a report renders");
        format!("{head}{top}}}")
    }
}

impl ToJson for ShardReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("evaluated", self.evaluated.to_json()),
            ("feasible", self.feasible.to_json()),
            ("pruned", self.pruned.to_json()),
            ("errors", self.errors.to_json()),
            ("eval_ns", JsonValue::Int(self.eval_ns as i128)),
            ("top", self.top.to_json()),
        ])
    }
}

impl FromJson for ShardReport {
    fn from_json(value: &JsonValue) -> JsonResult<ShardReport> {
        let eval_ns = match value.require("eval_ns")? {
            JsonValue::Int(ns) if *ns >= 0 => *ns as u128,
            _ => return Err(JsonError::new("expected non-negative eval_ns")),
        };
        Ok(ShardReport {
            evaluated: u64::from_json(value.require("evaluated")?)?,
            feasible: u64::from_json(value.require("feasible")?)?,
            pruned: u64::from_json(value.require("pruned")?)?,
            errors: u64::from_json(value.require("errors")?)?,
            eval_ns,
            top: Vec::<BestVariant>::from_json(value.require("top")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variant(index: usize, cost: u64) -> BestVariant {
        BestVariant {
            index,
            cost,
            choice: VariantChoice::new().with("if", format!("v{index}")),
            detail: format!("variant {index}"),
        }
    }

    #[test]
    fn record_keeps_top_sorted_and_capped() {
        let mut report = ShardReport::default();
        for (index, cost) in [(5, 30), (1, 10), (3, 10), (2, 50), (4, 5)] {
            report.record(variant(index, cost), 3);
        }
        let keys: Vec<_> = report.top.iter().map(BestVariant::key).collect();
        assert_eq!(keys, vec![(5, 4), (10, 1), (10, 3)]);
        assert_eq!(report.best().unwrap().index, 4);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut reports = Vec::new();
        for chunk in 0..4usize {
            let mut report = ShardReport {
                evaluated: 10,
                feasible: 8,
                pruned: 1,
                errors: 1,
                eval_ns: 100,
                top: Vec::new(),
            };
            for offset in 0..5usize {
                let index = chunk * 5 + offset;
                report.record(variant(index, ((index * 7) % 13) as u64), 4);
            }
            reports.push(report);
        }
        let mut forward = ShardReport::default();
        for report in &reports {
            forward.merge(report, 4);
        }
        let mut backward = ShardReport::default();
        for report in reports.iter().rev() {
            backward.merge(report, 4);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.evaluated, 40);
        assert_eq!(forward.accounted(), 48);
        assert_eq!(forward.top.len(), 4);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let mut report = ShardReport {
            evaluated: 3,
            feasible: 2,
            pruned: 1,
            errors: 0,
            eval_ns: 1234,
            top: Vec::new(),
        };
        report.record(variant(2, 20), 8);
        report.record(variant(0, 10), 8);
        let line = report.to_json().to_line();
        let back = ShardReport::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        assert!(ShardReport::from_json(&JsonValue::Int(1)).is_err());
    }

    /// A report line's counters and `top` read apart reassemble the line,
    /// and a line that is no report is refused, never read as one.
    #[test]
    fn report_lines_read_apart_and_reassemble() {
        let mut report = ShardReport {
            evaluated: 7,
            feasible: 3,
            pruned: 2,
            errors: 1,
            eval_ns: u128::from(u64::MAX) + 5,
            top: Vec::new(),
        };
        report.record(variant(4, 9), 3);
        report.record(variant(1, 12), 3);
        let line = report.to_json().to_line();
        assert_eq!(ShardReport::counts_of(&line), Ok(report.counts()));
        let top = ShardReport::top_of(&line).unwrap();
        assert_eq!(top, report.top.to_json().to_line());
        assert_eq!(report.counts().line_with_top(top), line);
        let zeroed = ShardReport::default().line_with_top(top);
        let back = ShardReport::from_json(&JsonValue::parse(&zeroed).unwrap()).unwrap();
        assert_eq!(back.top, report.top);
        assert_eq!((back.evaluated, back.eval_ns), (0, 0));
        for bad in ["42", "{}", r#"{"top":[]}"#, r#"{"evaluated":1,"top":[]"#] {
            assert!(ShardReport::counts_of(bad).is_err(), "{bad}");
        }
        assert!(ShardReport::top_of("[1]").is_err());
        assert!(ShardReport::top_of(r#"{"evaluated":0}"#).is_err());
    }
}
