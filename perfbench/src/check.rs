//! Answer checks and the accuracy figures of the paper's §5.1.2.
//!
//! Every timed answer is compared bit for bit with a direct
//! `Synopsis::estimate` of the same engine, and every answer checked
//! against exact truth must sit inside its hard bounds. A failed check
//! fails the run. CI coverage is reported, not gated: a 99% interval
//! misses about one query in a hundred by design.

use pass::common::{AggKind, Estimate, Query, Result};

use crate::stats::median;

/// Relative slack on the hard-bound check. The engine folds partition
/// sums in its own order (and streaming updates add and subtract values),
/// so the exact truth may differ from a bound in the last few bits.
const BOUND_SLACK: f64 = 1e-9;

/// Whether an answer must carry hard bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bounds {
    Required,
    WhenGiven,
}

/// Counts and accuracy samples for one run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted (queries, requests or writes).
    pub attempted: u64,
    /// Engine errors, rejections, expirations and failed checks.
    pub failed: u64,
    rel_errors: Vec<f64>,
    ci_ratios: Vec<f64>,
    /// Relative errors split by aggregate (COUNT, SUM, AVG), for the report.
    by_agg: [Vec<f64>; 3],
    covered: u64,
    /// Checked answers that carried no hard bounds where the engine may
    /// omit them.
    pub unbounded: u64,
    first_failures: Vec<String>,
}

impl Checker {
    /// Record one failed operation with a reason (the first few reasons
    /// are kept for the report).
    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(reason());
        }
    }

    /// Check that an answer is bit-identical to the direct answer of the
    /// same query. Returns whether it was.
    pub fn same_answer(
        &mut self,
        what: &str,
        query: &Query,
        got: &Result<Estimate>,
        direct: &Result<Estimate>,
    ) -> bool {
        let same = got == direct;
        if !same {
            self.fail(|| format!("{what}: {query:?} gave {got:?}, direct {direct:?}"));
        }
        same
    }

    /// Check an answer against exact truth: it must be `Ok` and its hard
    /// bounds must contain the truth. `bounds` says whether the engine
    /// promises bounds for this query (PASS always does; a sharded AVG
    /// merge omits them when a shard cannot bound its count away from
    /// zero), so a missing bound is a failure only where promised.
    /// Accuracy samples are recorded only when `record` is set, so a
    /// query answered many times can count once.
    pub fn against_truth(
        &mut self,
        query: &Query,
        got: &Result<Estimate>,
        truth: Option<f64>,
        bounds: Bounds,
        record: bool,
    ) {
        let (est, truth) = match (got, truth) {
            (Ok(est), Some(truth)) => (est, truth),
            (Err(e), _) => return self.fail(|| format!("{query:?}: engine error {e}")),
            (Ok(_), None) => {
                return self.fail(|| format!("{query:?}: answered an empty selection"))
            }
        };
        let slack = BOUND_SLACK * truth.abs().max(1.0);
        match (est.hard_bounds, bounds) {
            (Some((lb, ub)), _) if lb - slack <= truth && truth <= ub + slack => {}
            (None, Bounds::WhenGiven) => self.unbounded += 1,
            (given, _) => {
                return self.fail(|| format!("{query:?}: truth {truth} outside bounds {given:?}"))
            }
        }
        if record {
            self.rel_errors.push(est.relative_error(truth));
            if let Some(slot) = [AggKind::Count, AggKind::Sum, AggKind::Avg]
                .iter()
                .position(|&a| a == query.agg)
            {
                self.by_agg[slot].push(est.relative_error(truth));
            }
            self.ci_ratios.push(est.ci_ratio(truth));
            let (lo, hi) = est.ci();
            if lo - slack <= truth && truth <= hi + slack {
                self.covered += 1;
            }
        }
    }

    /// Queries whose accuracy was recorded.
    pub fn checked(&self) -> usize {
        self.rel_errors.len()
    }

    pub fn median_rel_error(&self) -> f64 {
        median(&self.rel_errors).unwrap_or(f64::NAN)
    }

    /// Median relative error of COUNT, SUM and AVG answers separately.
    pub fn median_rel_error_by_agg(&self) -> [f64; 3] {
        self.by_agg
            .each_ref()
            .map(|errors| median(errors).unwrap_or(f64::NAN))
    }

    pub fn median_ci_ratio(&self) -> f64 {
        median(&self.ci_ratios).unwrap_or(f64::NAN)
    }

    /// Share of recorded answers whose CI contains the truth.
    pub fn ci_coverage(&self) -> f64 {
        if self.rel_errors.is_empty() {
            f64::NAN
        } else {
            self.covered as f64 / self.rel_errors.len() as f64
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.first_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass::common::PassError;

    fn q() -> Query {
        Query::interval(AggKind::Sum, 0.0, 1.0)
    }

    #[test]
    fn bounds_and_identity_failures_count() {
        let mut c = Checker::default();
        let inside = Ok(Estimate::approximate(10.0, 1.0).with_hard_bounds(5.0, 15.0));
        c.against_truth(&q(), &inside, Some(10.5), Bounds::Required, true);
        assert_eq!(c.failed, 0);
        assert_eq!(c.ci_coverage(), 1.0);
        c.against_truth(&q(), &inside, Some(20.0), Bounds::WhenGiven, true);
        assert_eq!(c.failed, 1);
        let unbounded = Ok(Estimate::approximate(10.0, 1.0));
        c.against_truth(&q(), &unbounded, Some(10.0), Bounds::Required, true);
        assert_eq!(c.failed, 2);
        c.against_truth(&q(), &unbounded, Some(10.0), Bounds::WhenGiven, true);
        assert_eq!((c.failed, c.unbounded), (2, 1));
        let err: Result<Estimate> = Err(PassError::EmptyInput("x"));
        c.against_truth(&q(), &err, Some(1.0), Bounds::WhenGiven, true);
        assert_eq!(c.failed, 3);
        let empty = Ok(Estimate::exact(0.0).with_hard_bounds(0.0, 0.0));
        c.against_truth(&q(), &empty, None, Bounds::Required, false);
        assert_eq!(c.failed, 4);
        assert!(c.same_answer("x", &q(), &inside, &inside.clone()));
        let other = Ok(Estimate::approximate(10.0, 1.0 + 1e-15).with_hard_bounds(5.0, 15.0));
        assert!(!c.same_answer("x", &q(), &inside, &other));
        assert_eq!(c.failed, 5);
        assert_eq!(c.failures().len(), 5);
    }

    #[test]
    fn accuracy_is_recorded_once_per_query() {
        let mut c = Checker::default();
        let est = Ok(Estimate::approximate(11.0, 0.5).with_hard_bounds(0.0, 20.0));
        c.against_truth(&q(), &est, Some(10.0), Bounds::Required, true);
        c.against_truth(&q(), &est, Some(10.0), Bounds::Required, false);
        assert_eq!(c.checked(), 1);
        assert!((c.median_rel_error() - 0.1).abs() < 1e-12);
        assert!((c.median_ci_ratio() - 0.05).abs() < 1e-12);
        assert_eq!(c.ci_coverage(), 0.0);
    }
}
