//! Execution-profile collection for `EXPLAIN ANALYZE`.
//!
//! A [`QueryProfile`] is an optional, shared sink attached to
//! [`EvalOptions`](super::EvalOptions): when present, the evaluator
//! records what it actually did — the strategy taken, tick and tuple
//! totals, the binding-set high-water mark, and solution/row counts per
//! pipeline stage. Every recording site is gated on the `Option`, so
//! evaluation without a profile attached pays nothing beyond a null
//! check at stage boundaries (never in per-tick loops).
//!
//! The profile renders as a tree via [`relalg::render_tree`]. It holds
//! no wall-clock timings: tick, row, and candidate counts are
//! deterministic functions of the database and options, so the
//! rendering is byte-stable for golden tests.

use relalg::TreeNode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A profile sink for one top-level SELECT evaluation, shared via `Arc`
/// through [`EvalOptions`](super::EvalOptions).
#[derive(Debug, Default)]
pub struct QueryProfile {
    strategy: Mutex<Option<String>>,
    solutions: AtomicU64,
    binding_set_hwm: AtomicUsize,
    ticks: AtomicU64,
    tuples: AtomicUsize,
    rows_out: AtomicUsize,
    plan: Mutex<Vec<String>>,
}

impl QueryProfile {
    /// Records the strategy label (top-level evaluation entry).
    pub(crate) fn record_strategy(&self, label: &str) {
        *self.strategy.lock().unwrap() = Some(label.to_string());
    }

    /// Records the cost-based planner's step lines (join order, access
    /// paths, estimated vs. actual rows).
    pub(crate) fn record_plan(&self, lines: Vec<String>) {
        *self.plan.lock().unwrap() = lines;
    }

    /// Counts one satisfying binding of the top-level FROM+WHERE.
    pub(crate) fn count_solution(&self) {
        self.solutions.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the binding-set high-water mark to `n` if larger. Called
    /// once per enumerated binding set — millions of times on a large
    /// join — so the common already-covered case must stay a plain
    /// load, not an RMW (`fetch_max` is a compare-exchange loop even
    /// uncontended).
    pub(crate) fn note_binding_set(&self, n: usize) {
        if self.binding_set_hwm.load(Ordering::Relaxed) < n {
            self.binding_set_hwm.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Records the statement's final tick/tuple totals and the result
    /// cardinality after duplicate elimination.
    pub(crate) fn record_totals(&self, ticks: u64, tuples: usize, rows_out: usize) {
        self.ticks.store(ticks, Ordering::Relaxed);
        self.tuples.store(tuples, Ordering::Relaxed);
        self.rows_out.store(rows_out, Ordering::Relaxed);
    }

    /// Result rows after duplicate elimination.
    pub fn rows_out(&self) -> usize {
        self.rows_out.load(Ordering::Relaxed)
    }

    /// Total evaluation ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Satisfying bindings of the top-level FROM+WHERE.
    pub fn solutions(&self) -> u64 {
        self.solutions.load(Ordering::Relaxed)
    }

    /// Lays the profile out as a tree.
    pub fn to_tree(&self) -> TreeNode {
        let strategy = self
            .strategy
            .lock()
            .unwrap()
            .clone()
            .unwrap_or_else(|| "unknown".to_string());
        let mut children = vec![TreeNode::leaf(format!("strategy: {strategy}"))];

        let plan_lines = self.plan.lock().unwrap().clone();
        if !plan_lines.is_empty() {
            children.push(TreeNode::branch(
                "cost-based plan".to_string(),
                plan_lines.into_iter().map(TreeNode::leaf).collect(),
            ));
        }

        children.push(TreeNode::branch(
            "pipeline".to_string(),
            vec![
                TreeNode::leaf(format!(
                    "solutions: {} satisfying bindings",
                    self.solutions()
                )),
                TreeNode::leaf(format!(
                    "rows out: {} (after duplicate elimination)",
                    self.rows_out()
                )),
                TreeNode::leaf(format!(
                    "binding-set high-water mark: {}",
                    self.binding_set_hwm.load(Ordering::Relaxed)
                )),
            ],
        ));
        children.push(TreeNode::leaf(format!(
            "cost: {} ticks, {} tuples materialized",
            self.ticks(),
            self.tuples.load(Ordering::Relaxed)
        )));
        TreeNode::branch("profile".to_string(), children)
    }

    /// Renders the profile tree (see [`QueryProfile::to_tree`]).
    pub fn render(&self) -> String {
        relalg::render_tree(&self.to_tree())
    }
}

/// Renders the **static** plan for plain `EXPLAIN` — what evaluation
/// *would* do under the session's options, without running the query:
/// the strategy label, and the planner's join order when the planner
/// would take the query.
pub(crate) fn static_plan(ctx: &super::Ctx<'_>, q: &crate::ast::SelectQuery) -> String {
    // The planner runs first in the pipelined dispatch; when it would
    // take the query, the static plan is its join order.
    let planner_lines = match ctx.opts.strategy {
        super::Strategy::Pipelined => crate::plan::static_plan_lines(ctx, q),
        super::Strategy::Naive => None,
    };
    let strategy = match (ctx.opts.strategy, ctx.ranges.is_some(), &planner_lines) {
        (super::Strategy::Naive, _, _) => "naive",
        (super::Strategy::Pipelined, _, Some(_)) => "planner",
        (super::Strategy::Pipelined, true, None) => "pipelined+theorem-6.1-ranges",
        (super::Strategy::Pipelined, false, None) => "pipelined",
    };
    let mut children = vec![TreeNode::leaf(format!("strategy: {strategy}"))];
    if let Some(lines) = planner_lines {
        children.push(TreeNode::branch(
            "cost-based plan".to_string(),
            lines.into_iter().map(TreeNode::leaf).collect(),
        ));
    }
    relalg::render_tree(&TreeNode::branch("plan".to_string(), children))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_renders_counts() {
        let p = QueryProfile::default();
        p.record_strategy("naive");
        p.count_solution();
        p.note_binding_set(10);
        p.note_binding_set(4); // lower: must not regress the mark
        p.record_totals(64, 5, 5);
        let s = p.render();
        assert!(s.contains("strategy: naive"), "{s}");
        assert!(s.contains("solutions: 1 satisfying bindings"), "{s}");
        assert!(s.contains("binding-set high-water mark: 10"), "{s}");
        assert!(s.contains("cost: 64 ticks, 5 tuples materialized"), "{s}");
    }
}
