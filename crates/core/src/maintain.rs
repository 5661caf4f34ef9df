//! Split/Merge re-optimization under updates — the paper's "interesting
//! future problem" (Section 4.5: "if there are enough updates to the
//! structure, re-optimization of the partitioning may be needed. In that
//! case Split and Merge technique might help").
//!
//! Two local restructuring operations keep the tree healthy without a
//! full rebuild, in the spirit of dynamic histogram maintenance
//! [Donjerkovic et al., Gibbons et al.]:
//!
//! * [`Pass::merge_cold_siblings`] — merging two sibling leaves is *exact*
//!   (aggregates are mergeable, samples concatenate into a valid uniform
//!   sample of the union when re-subsampled proportionally), so it is
//!   always safe; we merge sibling pairs whose combined population has
//!   shrunk well below the average leaf;
//! * [`Pass::split_hot_leaf`] — splitting needs the base data for the new
//!   halves' exact aggregates, so it takes the table; we split the leaf
//!   whose population has grown past a threshold, at its median key.
//!
//! [`Pass::maintain`] applies both given a drift factor, and reports what
//! it did.

use rand::seq::index::sample as index_sample;
use rand::Rng;

use pass_common::rng::rng_from_seed;
use pass_common::{Aggregates, PassError, Rect, Result};
use pass_sampling::Sample;
use pass_table::Table;

use crate::synopsis::Pass;
use crate::tree::NodeId;

/// What one maintenance pass changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    pub merges: usize,
    pub splits: usize,
}

impl Pass {
    /// Average leaf population.
    fn avg_leaf_rows(&self) -> f64 {
        self.tree.total_rows() as f64 / self.tree.n_leaves().max(1) as f64
    }

    /// Merge sibling leaf pairs whose combined population is below
    /// `threshold` rows. Returns how many merges happened. Exact: parent
    /// aggregates already equal the merged children's.
    pub fn merge_cold_siblings(&mut self, threshold: u64) -> usize {
        let mut merges = 0;
        loop {
            // Find an internal node whose children are all leaves and
            // whose population is under threshold.
            let candidate = (0..self.tree.n_nodes()).find(|&id| {
                !self.tree.is_leaf(id)
                    && self.tree.agg(id).count <= threshold
                    && self.tree.children(id).iter().all(|&c| self.tree.is_leaf(c))
            });
            let Some(parent) = candidate else { break };
            self.collapse_into_leaf(parent);
            self.rebuild_and_bump();
            merges += 1;
        }
        merges
    }

    /// Turn an internal node whose children are leaves into a leaf:
    /// concatenate the children's samples (then thin back to the combined
    /// capacity so the sampling rate stays uniform) and drop the children.
    fn collapse_into_leaf(&mut self, parent: NodeId) {
        let children = self.tree.children(parent).to_vec();
        // Gather child samples.
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut capacity = 0usize;
        let mut population = 0u64;
        for &c in &children {
            let li = self.tree.leaf_index(c).expect("children are leaves");
            let s = &self.samples[li];
            capacity += s.k();
            population += s.population();
            for i in 0..s.k() {
                let preds: Vec<f64> = (0..s.rows().dims())
                    .map(|d| s.rows().predicate(d, i))
                    .collect();
                rows.push((preds, s.rows().value(i)));
            }
        }
        // Children drew proportionally, so the concatenation is (to
        // rounding) a uniform sample of the union already; thin to the
        // combined capacity deterministically if rounding overshot.
        let mut rng = rng_from_seed(0x3E47 ^ parent as u64);
        while rows.len() > capacity.max(1) {
            let j = rng.gen_range(0..rows.len());
            rows.swap_remove(j);
        }
        // Rebuild the sample as a mini-table.
        let dims = self
            .samples
            .first()
            .map(|s| s.rows().dims())
            .unwrap_or(self.query_dims);
        let values: Vec<f64> = rows.iter().map(|(_, v)| *v).collect();
        let predicates: Vec<Vec<f64>> = (0..dims)
            .map(|d| rows.iter().map(|(p, _)| p[d]).collect())
            .collect();
        let names = self.samples[0].rows().names().to_vec();
        let table = Table::new(values, predicates, names).expect("consistent columns");
        let merged = Sample::from_rows(table, population).expect("k <= population");

        // Rewire: parent becomes a leaf reusing the first child's sample
        // slot; other children are detached (left in the arena as orphans,
        // excluded by leaf_index = None and empty parents' child lists).
        let first_li = self.tree.leaf_index(children[0]).unwrap();
        for &c in &children {
            self.tree.set_leaf_index(c, None);
            self.tree.set_parent(c, None);
        }
        self.samples[first_li] = merged;
        self.tree.clear_children(parent);
        self.tree.set_leaf_index(parent, Some(first_li));
        self.tree.recount_leaves();
    }

    /// Split the leaf containing more than `threshold` rows at its median
    /// first-dimension key, recomputing exact aggregates and fresh
    /// samples from `table` (which must be the synopsis' current logical
    /// contents). Returns `true` if a split happened.
    pub fn split_hot_leaf(&mut self, table: &Table, threshold: u64) -> Result<bool> {
        let Some(leaf) = self
            .tree
            .leaves()
            .into_iter()
            .find(|&id| self.tree.agg(id).count > threshold)
        else {
            return Ok(false);
        };
        let rect = self.tree.rect(leaf);
        // Rows of the table inside this leaf's rectangle.
        let rows: Vec<usize> = (0..table.n_rows())
            .filter(|&i| table.matches(&rect, i))
            .collect();
        if rows.len() < 2 {
            return Ok(false);
        }
        // Median split on dim 0, snapped to a key boundary.
        let mut keys: Vec<f64> = rows.iter().map(|&i| table.predicate(0, i)).collect();
        keys.sort_by(|a, b| a.partial_cmp(b).expect("NaN key"));
        let median = keys[keys.len() / 2];
        let (mut left, mut right): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for &i in &rows {
            if table.predicate(0, i) < median {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        if left.is_empty() || right.is_empty() {
            // Single-key leaf: unsplittable.
            return Ok(false);
        }

        let old_li = self.tree.leaf_index(leaf).expect("leaf has index");
        let rate = self.samples[old_li].k() as f64 / rows.len().max(1) as f64;
        let mut rng = rng_from_seed(0x5711 ^ leaf as u64);
        let make_child =
            |idx: &Vec<usize>, rng: &mut dyn rand::RngCore| -> Result<(Aggregates, Rect, Sample)> {
                let values: Vec<f64> = idx.iter().map(|&i| table.value(i)).collect();
                let agg = Aggregates::from_values(&values);
                let bounds: Vec<(f64, f64)> = (0..table.dims())
                    .map(|d| {
                        let lo = idx
                            .iter()
                            .map(|&i| table.predicate(d, i))
                            .fold(f64::INFINITY, f64::min);
                        let hi = idx
                            .iter()
                            .map(|&i| table.predicate(d, i))
                            .fold(f64::NEG_INFINITY, f64::max);
                        (lo, hi)
                    })
                    .collect();
                let k = ((idx.len() as f64) * rate).round().max(1.0) as usize;
                let chosen: Vec<usize> = if k >= idx.len() {
                    idx.clone()
                } else {
                    index_sample(rng, idx.len(), k)
                        .into_iter()
                        .map(|j| idx[j])
                        .collect()
                };
                let sample = Sample::from_indices(table, &chosen, idx.len() as u64)?;
                Ok((agg, Rect::new(&bounds), sample))
            };
        let (l_agg, l_rect, l_sample) = make_child(&left, &mut rng)?;
        let (r_agg, r_rect, r_sample) = make_child(&right, &mut rng)?;

        // The old leaf becomes internal; two new leaves are appended. The
        // left child reuses the old sample slot, the right gets a new one.
        let right_li = self.samples.len();
        self.samples[old_li] = l_sample;
        self.samples.push(r_sample);
        let (l_id, r_id) = self.tree.add_children(
            leaf,
            (l_rect, l_agg, Some(old_li)),
            (r_rect, r_agg, Some(right_li)),
        );
        debug_assert!(l_id != r_id);
        self.rebuild_and_bump();
        Ok(true)
    }

    /// One maintenance pass: merge sibling groups that fell below
    /// `1/drift` of the average leaf, split leaves above `drift ×` the
    /// average. Needs the current logical table for splits.
    pub fn maintain(&mut self, table: &Table, drift: f64) -> Result<MaintenanceReport> {
        if drift <= 1.0 {
            return Err(PassError::InvalidParameter(
                "drift",
                "drift factor must exceed 1".into(),
            ));
        }
        let avg = self.avg_leaf_rows();
        let mut report = MaintenanceReport {
            merges: self.merge_cold_siblings((avg / drift) as u64),
            splits: 0,
        };
        while self.split_hot_leaf(table, (avg * drift) as u64)? {
            report.splits += 1;
            if report.splits > self.tree.n_leaves() {
                break; // safety valve
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synopsis::PassBuilder;
    use pass_common::{AggKind, Query, Synopsis};
    use pass_table::datasets::uniform;

    fn build(n: usize) -> (Table, Pass) {
        let t = uniform(n, 5);
        let pass = PassBuilder::new()
            .partitions(16)
            .sample_rate(0.05)
            .seed(5)
            .build(&t)
            .unwrap();
        (t, pass)
    }

    #[test]
    fn split_grows_leaves_and_preserves_answers() {
        let (mut table, mut pass) = build(8_000);
        // Blow up one region with inserts.
        for i in 0..4_000 {
            let key = 0.5 + (i % 100) as f64 * 1e-4;
            let value = 42.0;
            pass.insert(&[key], value).unwrap();
            table.push_row(value, &[key]);
        }
        let before_leaves = pass.tree().n_leaves();
        let report = pass.maintain(&table, 2.0).unwrap();
        assert!(report.splits > 0, "hot leaf should split");
        assert!(pass.tree().n_leaves() > before_leaves);
        // Whole-space queries stay exact.
        let q = Query::interval(AggKind::Sum, -1.0, 2.0);
        let est = pass.estimate(&q).unwrap();
        let truth = table.ground_truth(&q).unwrap();
        assert!((est.value - truth).abs() < 1e-6 * truth);
        // Hot-region queries still work and bounds hold.
        let q = Query::interval(AggKind::Sum, 0.5, 0.51);
        let est = pass.estimate(&q).unwrap();
        let truth = table.ground_truth(&q).unwrap();
        let (lb, ub) = est.hard_bounds.unwrap();
        assert!(lb - 1e-6 <= truth && truth <= ub + 1e-6);
    }

    #[test]
    fn merge_shrinks_leaves_and_preserves_answers() {
        let (mut table, mut pass) = build(8_000);
        // Delete most rows from the low-key half.
        let mut deleted = Vec::new();
        for i in 0..table.n_rows() {
            if table.predicate(0, i) < 0.4 && deleted.len() < 2_500 {
                deleted.push((table.predicate(0, i), table.value(i)));
            }
        }
        for &(k, v) in &deleted {
            pass.delete(&[k], v).unwrap();
        }
        // Rebuild the mirror table without the deleted rows.
        let mut kept_keys = Vec::new();
        let mut kept_vals = Vec::new();
        let mut to_delete = deleted.clone();
        for i in 0..table.n_rows() {
            let kv = (table.predicate(0, i), table.value(i));
            if let Some(pos) = to_delete.iter().position(|&d| d == kv) {
                to_delete.swap_remove(pos);
            } else {
                kept_keys.push(kv.0);
                kept_vals.push(kv.1);
            }
        }
        table = Table::one_dim(kept_keys, kept_vals).unwrap();

        let before_leaves = pass.tree().n_leaves();
        let report = pass.maintain(&table, 2.0).unwrap();
        assert!(report.merges > 0, "cold siblings should merge");
        assert!(pass.tree().n_leaves() < before_leaves);
        // Whole-space COUNT stays exact after restructuring.
        let q = Query::interval(AggKind::Count, -1.0, 2.0);
        let est = pass.estimate(&q).unwrap();
        assert!((est.value - table.n_rows() as f64).abs() < 1e-9);
    }

    #[test]
    fn maintenance_is_idempotent_when_balanced() {
        let (table, mut pass) = build(8_000);
        let report = pass.maintain(&table, 3.0).unwrap();
        assert_eq!(report, MaintenanceReport::default());
    }

    #[test]
    fn invalid_drift_rejected() {
        let (table, mut pass) = build(1_000);
        assert!(pass.maintain(&table, 1.0).is_err());
    }
}
