//! Dynamic updates (Section 4.5).
//!
//! Inserts and deletes keep the tree statistically consistent for COUNT,
//! SUM, and AVG: per-leaf samples are maintained with reservoir sampling,
//! and every aggregate on the leaf-to-root path updates in O(1).
//!
//! One write costs O(depth) to find its leaf when the point lies inside
//! one leaf's rectangle (a branch-and-bound descent; points in the gaps
//! between rectangles, or on shared boundaries, visit more nodes, all of
//! them at worst), O(depth) to update the aggregates and rectangles on
//! the leaf-to-root path, and O(K_i · (d + 1)) to patch the one stratum
//! it changes, in the sample and in the flat [`SampleArena`] alike. A
//! delete also scans that stratum's `K_i` rows for the tuple. The write
//! path does not allocate: samples only ever refill rows they once held,
//! and every arena segment has room for at least one row, so a write
//! never needs the arena rebuild that an append to a full segment would.
//!
//! Keys and values must be finite, and a delete must target a stratum
//! that still holds a tuple; anything else is rejected before any state
//! changes.
//!
//! MIN/MAX remain *conservative* after deletions (a deleted extremum cannot
//! be tightened without a partition rescan), which keeps hard bounds sound
//! but possibly loose — exactly the trade-off the paper accepts by scoping
//! statistical consistency to COUNT/SUM/AVG.

use rand::Rng;

use pass_common::{PassError, Result};
use pass_sampling::SampleArena;

use crate::synopsis::Pass;
use crate::tree::NodeId;

/// The best leaf found so far by [`Pass::locate_leaf`]'s descent.
struct Nearest {
    dist: f64,
    slot: usize,
    leaf: Option<NodeId>,
}

impl Pass {
    /// Reject a write whose point has the wrong arity or whose key or value
    /// is not finite, before anything changes.
    fn check_write(&self, point: &[f64], value: f64) -> Result<()> {
        if point.len() != self.tree.dims() {
            return Err(PassError::DimensionMismatch {
                expected: self.tree.dims(),
                got: point.len(),
            });
        }
        if !value.is_finite() || !point.iter().all(|p| p.is_finite()) {
            return Err(PassError::InvalidParameter(
                "tuple",
                format!("keys and value must be finite, got {point:?} and {value}"),
            ));
        }
        Ok(())
    }

    /// Locate the leaf a point belongs to: the lowest-indexed leaf whose
    /// rectangle contains it, or — for points in the gaps between tight
    /// bounding boxes — the leaf nearest by L1 distance, ties going to the
    /// lowest leaf index. That is the least `(distance, leaf index)` over
    /// all leaves. A parent's rectangle contains its children's, so a
    /// node's distance bounds every leaf's below it, and the descent skips
    /// any subtree already farther than the best leaf found.
    fn locate_leaf(&self, point: &[f64]) -> Result<NodeId> {
        let root = self.tree.root();
        let mut best = Nearest {
            dist: f64::INFINITY,
            slot: usize::MAX,
            leaf: None,
        };
        self.descend(root, self.tree.l1_distance(root, point), point, &mut best);
        best.leaf.ok_or(PassError::EmptyInput("tree has no leaves"))
    }

    /// Visit node `id` at distance `dist`: take it if it is a better leaf,
    /// else its children nearest first, skipping those farther than `best`.
    fn descend(&self, id: NodeId, dist: f64, point: &[f64], best: &mut Nearest) {
        if let Some(slot) = self.tree.leaf_index(id) {
            if (dist, slot) < (best.dist, best.slot) {
                *best = Nearest {
                    dist,
                    slot,
                    leaf: Some(id),
                };
            }
            return;
        }
        let children = self.tree.children(id);
        let Some(&first) = children.iter().min_by(|&&a, &&b| {
            let (da, db) = (
                self.tree.l1_distance(a, point),
                self.tree.l1_distance(b, point),
            );
            da.total_cmp(&db)
        }) else {
            return;
        };
        for &child in std::iter::once(&first).chain(children.iter().filter(|&&c| c != first)) {
            let d = self.tree.l1_distance(child, point);
            if d <= best.dist {
                self.descend(child, d, point, best);
            }
        }
    }

    /// Insert a tuple. Updates the leaf-to-root aggregates exactly and
    /// offers the tuple to the leaf's reservoir.
    pub fn insert(&mut self, point: &[f64], value: f64) -> Result<()> {
        self.check_write(point, value)?;
        let leaf = self.locate_leaf(point)?;
        // Widen rectangles so future MCF classifications still see the
        // point, then update aggregates on the path to the root.
        let mut cursor = Some(leaf);
        while let Some(id) = cursor {
            self.tree.widen_to(id, point);
            self.tree.update_agg(id, |agg| agg.insert(value));
            cursor = self.tree.parent(id);
        }

        // Reservoir maintenance (Algorithm R) on the leaf's sample, with
        // every change mirrored into the arena.
        let li = self.tree.leaf_index(leaf).expect("leaf has index");
        let mut rng = self.update_rng(self.tree.agg(leaf).count);
        let sample = &mut self.samples[li];
        sample.grow_population();
        self.arena.set_population(li, sample.population());
        if sample.k() == 0 {
            sample.push_row(value, point);
            if !self.arena.push_row(li, value, point) {
                self.arena = SampleArena::from_samples(&self.samples);
            }
        } else {
            let j = rng.gen_range(0..sample.population());
            if (j as usize) < sample.k() {
                sample.replace_row(j as usize, value, point);
                self.arena.replace_row(li, j as usize, value, point);
            }
        }
        self.bump_mutation_epoch();
        Ok(())
    }

    /// Delete a tuple previously inserted. Returns `true` when the tuple
    /// was also evicted from the leaf's sample. A tuple whose leaf holds
    /// no rows cannot exist, so deleting it is an error that changes
    /// nothing; a missing tuple in a non-empty leaf cannot be told apart
    /// from a present one, so the caller must guarantee existence.
    pub fn delete(&mut self, point: &[f64], value: f64) -> Result<bool> {
        self.check_write(point, value)?;
        let leaf = self.locate_leaf(point)?;
        if self.tree.agg(leaf).is_empty() {
            return Err(PassError::InvalidParameter(
                "tuple",
                format!("no live tuple at {point:?}: its leaf is empty"),
            ));
        }
        let mut cursor = Some(leaf);
        while let Some(id) = cursor {
            self.tree.update_agg(id, |agg| {
                agg.remove(value);
            });
            cursor = self.tree.parent(id);
        }
        let li = self.tree.leaf_index(leaf).expect("leaf has index");
        let sample = &mut self.samples[li];
        sample.shrink_population();
        self.arena.set_population(li, sample.population());
        let evicted = if let Some(pos) = sample.find_row(value, point) {
            sample.swap_remove_row(pos);
            self.arena.swap_remove_row(li, pos);
            true
        } else {
            false
        };
        self.bump_mutation_epoch();
        Ok(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synopsis::PassBuilder;
    use pass_common::PassSpec;
    use pass_common::{AggKind, Query, Synopsis};
    use pass_table::datasets::{taxi, uniform};
    use pass_table::Table;
    use proptest::prelude::*;

    fn build(n: usize, seed: u64) -> (Table, Pass) {
        let t = uniform(n, seed);
        let pass = PassBuilder::new()
            .partitions(8)
            .sample_rate(0.05)
            .seed(seed)
            .build(&t)
            .unwrap();
        (t, pass)
    }

    /// The linear scan `locate_leaf` replaced, kept as its oracle: the
    /// first leaf in leaf-index order whose rectangle contains the point,
    /// else the first nearest by L1 distance.
    #[allow(clippy::needless_range_loop)]
    fn scan_oracle(pass: &Pass, point: &[f64]) -> NodeId {
        let mut best: Option<(NodeId, f64)> = None;
        for id in pass.tree.leaves() {
            if pass.tree.contains_point(id, point) {
                return id;
            }
            let mut dist = 0.0;
            for d in 0..point.len() {
                let lo = pass.tree.rect_lo(id, d);
                let hi = pass.tree.rect_hi(id, d);
                let p = point[d];
                if p < lo {
                    dist += lo - p;
                } else if p > hi {
                    dist += p - hi;
                }
            }
            if best.is_none_or(|(_, b)| dist < b) {
                best = Some((id, dist));
            }
        }
        best.unwrap().0
    }

    /// A synopsis over `n` rows in `dims` dimensions (KD when `dims > 1`)
    /// whose keys sit on a grid of `1 / grid` steps, so leaves share
    /// boundary keys and leave gaps between their rectangles.
    fn grid_pass(n: usize, dims: usize, grid: f64, partitions: usize, seed: u64) -> Pass {
        let base = taxi(n, seed).project(&[1, 2][..dims]).unwrap();
        let snap = |col: &[f64]| -> Vec<f64> {
            let (lo, hi) = col
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            col.iter()
                .map(|&x| ((x - lo) / (hi - lo) * grid).round() / grid)
                .collect()
        };
        let preds = (0..dims).map(|d| snap(base.predicate_column(d))).collect();
        let names = base.names().to_vec();
        let table = Table::new(base.values().to_vec(), preds, names).unwrap();
        let spec = PassSpec {
            partitions,
            sample_rate: 0.05,
            seed,
            ..PassSpec::default()
        };
        Pass::from_spec(&table, &spec).unwrap()
    }

    /// Points that probe every case of the lookup: leaf rectangle corners
    /// (shared boundary keys), gaps between rectangles, outside the
    /// domain, and anywhere.
    fn probe(pass: &Pass, pick: usize, mode: usize, t: f64) -> Vec<f64> {
        let leaves = pass.tree.leaves();
        let (a, b) = (
            leaves[pick % leaves.len()],
            leaves[(pick / 7) % leaves.len()],
        );
        (0..pass.tree.dims())
            .map(|d| match mode {
                0 => pass.tree.rect_lo(a, d),
                1 => pass.tree.rect_hi(a, d),
                2 => (pass.tree.rect_hi(a, d) + pass.tree.rect_lo(b, d)) / 2.0,
                3 => pass.tree.rect_lo(a, d) - t,
                4 => pass.tree.rect_hi(a, d) + t,
                _ => 1.5 * t - 0.25,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn locate_leaf_matches_the_linear_scan(
            seed in 0u64..1_000,
            dims in 1usize..3,
            grid in 4usize..40,
            partitions in 1usize..24,
            probes in prop::collection::vec(((0usize..1_000), (0usize..6), (0.0f64..1.0)), 40..41),
        ) {
            let mut pass = grid_pass(600, dims, grid as f64, partitions, seed);
            for (round, chunk) in probes.chunks(10).enumerate() {
                for &(pick, mode, t) in chunk {
                    let point = probe(&pass, pick, mode, t);
                    let got = pass.locate_leaf(&point).unwrap();
                    prop_assert_eq!(got, scan_oracle(&pass, &point), "point {:?}", point);
                }
                // Widen some rectangles by inserting the probes, then
                // probe the changed tree again.
                for &(pick, mode, t) in chunk.iter().take(round + 1) {
                    pass.insert(&probe(&pass, pick, mode, t), t).unwrap();
                }
            }
        }
    }

    #[test]
    fn locate_leaf_matches_the_scan_after_maintenance() {
        let t = uniform(4_000, 21);
        let mut pass = PassBuilder::new()
            .partitions(16)
            .sample_rate(0.05)
            .seed(21)
            .build(&t)
            .unwrap();
        let mut table = t.clone();
        for i in 0..3_000 {
            let key = 0.3 + (i % 50) as f64 * 1e-3;
            pass.insert(&[key], 1.0).unwrap();
            table.push_row(1.0, &[key]);
        }
        assert!(pass.maintain(&table, 2.0).unwrap().splits > 0);
        for i in 0..=400 {
            let point = [i as f64 / 200.0 - 0.5];
            assert_eq!(
                pass.locate_leaf(&point).unwrap(),
                scan_oracle(&pass, &point)
            );
        }
    }

    #[test]
    fn non_finite_writes_are_rejected_without_a_trace() {
        let (_, mut pass) = build(2_000, 10);
        let before = pass.clone();
        for (key, value) in [
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 1.0),
            (0.5, f64::NAN),
            (0.5, f64::INFINITY),
            (0.5, f64::NEG_INFINITY),
        ] {
            assert!(matches!(
                pass.insert(&[key], value),
                Err(PassError::InvalidParameter(..))
            ));
            assert!(matches!(
                pass.delete(&[key], value),
                Err(PassError::InvalidParameter(..))
            ));
        }
        assert_eq!(pass.update_epoch(), 0);
        let root = pass.tree().root();
        assert_eq!(pass.tree().agg(root), before.tree().agg(root));
        let q = Query::interval(AggKind::Sum, -1.0, 2.0);
        assert_eq!(pass.estimate(&q), before.estimate(&q));
        assert!(pass.estimate(&q).unwrap().value.is_finite());
    }

    #[test]
    fn phantom_delete_from_an_empty_leaf_is_an_error() {
        // Runs in release builds too: the guard is not a debug assertion.
        let (t, mut pass) = build(2_000, 11);
        let whole = Query::interval(AggKind::Count, f64::MIN, f64::MAX);
        // Key 99.0 lands in the last leaf; empty it with real deletes.
        let last = pass.locate_leaf(&[99.0]).unwrap();
        let (lo, hi) = (pass.tree().rect_lo(last, 0), pass.tree().rect_hi(last, 0));
        for i in 0..t.n_rows() {
            let key = t.predicate(0, i);
            if lo <= key && key <= hi {
                pass.delete(&[key], t.value(i)).unwrap();
            }
        }
        assert!(pass.tree().agg(last).is_empty());
        let left = pass.estimate(&whole).unwrap();
        let epoch = pass.update_epoch();
        for _ in 0..3_000 {
            assert!(matches!(
                pass.delete(&[99.0], 1.0),
                Err(PassError::InvalidParameter(..))
            ));
        }
        assert_eq!(pass.update_epoch(), epoch);
        let after = pass.estimate(&whole).unwrap();
        assert!(after.exact);
        assert_eq!(after.value, left.value);
        assert!(after.value < t.n_rows() as f64);
    }

    #[test]
    fn insert_updates_root_aggregates_exactly() {
        let (_, mut pass) = build(2_000, 1);
        let before = *pass.tree().agg(pass.tree().root());
        pass.insert(&[0.5], 42.0).unwrap();
        let after = *pass.tree().agg(pass.tree().root());
        assert_eq!(after.count, before.count + 1);
        assert!((after.sum - before.sum - 42.0).abs() < 1e-9);
    }

    #[test]
    fn insert_then_exact_query_sees_new_tuple() {
        let (t, mut pass) = build(2_000, 2);
        // Insert far outside the key range, then query the whole space:
        // the root is covered, so the answer is exact.
        pass.insert(&[5.0], 1_000.0).unwrap();
        let q = Query::interval(AggKind::Sum, -1.0, 10.0);
        let est = pass.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap() + 1_000.0;
        assert!(est.exact);
        assert!((est.value - truth).abs() < 1e-6);
    }

    #[test]
    fn many_inserts_keep_counts_consistent() {
        let (_, mut pass) = build(1_000, 3);
        for i in 0..500 {
            pass.insert(&[(i % 100) as f64 / 100.0], i as f64).unwrap();
        }
        let root = *pass.tree().agg(pass.tree().root());
        assert_eq!(root.count, 1_500);
        // Leaf counts sum to the root count.
        let leaf_total: u64 = pass
            .tree()
            .leaves()
            .into_iter()
            .map(|id| pass.tree().agg(id).count)
            .sum();
        assert_eq!(leaf_total, 1_500);
        // Sample populations track leaf counts.
        for (li, id) in pass.tree().leaves().into_iter().enumerate() {
            assert_eq!(
                pass.leaf_samples()[li].population(),
                pass.tree().agg(id).count
            );
        }
    }

    #[test]
    fn delete_reverses_insert_for_sum_count() {
        let (_, mut pass) = build(2_000, 4);
        let before = *pass.tree().agg(pass.tree().root());
        pass.insert(&[0.25], 77.0).unwrap();
        pass.delete(&[0.25], 77.0).unwrap();
        let after = *pass.tree().agg(pass.tree().root());
        assert_eq!(after.count, before.count);
        assert!((after.sum - before.sum).abs() < 1e-9);
    }

    #[test]
    fn deleting_sampled_tuple_removes_it_from_sample() {
        let (_, mut pass) = build(500, 5);
        // Insert enough copies of a distinctive tuple that at least one
        // lands in a reservoir.
        let mut inserted = 0;
        for _ in 0..200 {
            pass.insert(&[0.111], 9_999.0).unwrap();
            inserted += 1;
        }
        let mut evicted = 0;
        for _ in 0..inserted {
            if pass.delete(&[0.111], 9_999.0).unwrap() {
                evicted += 1;
            }
        }
        assert!(evicted > 0, "some sampled copies should be evicted");
        // No sampled row with the sentinel value survives.
        for s in pass.leaf_samples() {
            for i in 0..s.k() {
                assert_ne!(s.rows().value(i), 9_999.0);
            }
        }
    }

    #[test]
    fn estimates_stay_reasonable_after_update_burst() {
        let (t, mut pass) = build(5_000, 6);
        for i in 0..1_000 {
            pass.insert(&[(i as f64) / 1_000.0], 50.0).unwrap();
        }
        let q = Query::interval(AggKind::Sum, 0.0, 1.0);
        let est = pass.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap() + 1_000.0 * 50.0;
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.05, "rel {rel}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (_, mut pass) = build(100, 7);
        assert!(pass.insert(&[0.5, 0.5], 1.0).is_err());
        // A rejected update must not bump the epoch: nothing changed.
        assert_eq!(pass.update_epoch(), 0);
    }

    #[test]
    fn updates_advance_the_epoch() {
        let (_, mut pass) = build(500, 8);
        assert_eq!(pass.update_epoch(), 0);
        pass.insert(&[0.5], 1.0).unwrap();
        assert_eq!(pass.update_epoch(), 1);
        pass.delete(&[0.5], 1.0).unwrap();
        assert_eq!(pass.update_epoch(), 2);
        assert_eq!(pass.mutation_epoch(), 2);
    }

    #[test]
    fn cached_answers_stay_coherent_across_streaming_updates() {
        use pass_common::CachedSynopsis;
        let (t, pass) = build(2_000, 9);
        let mut cached = CachedSynopsis::new(pass, 64);
        let q = Query::interval(AggKind::Sum, -1.0, 10.0);
        let before = cached.estimate(&q).unwrap();
        assert!((before.value - t.ground_truth(&q).unwrap()).abs() < 1e-6);
        cached.estimate(&q).unwrap();
        assert_eq!(cached.cache().stats().hits, 1, "repeat served from cache");
        // Stream an insert through the decorator: the next answer must
        // reflect it with NO manual clear_cache.
        cached.inner_mut().insert(&[0.5], 500.0).unwrap();
        let after = cached.estimate(&q).unwrap();
        assert!((after.value - before.value - 500.0).abs() < 1e-6);
        // ...and the fresh answer is cacheable under the new epoch.
        cached.estimate(&q).unwrap();
        assert_eq!(cached.cache().stats().hits, 2);
        assert_eq!(cached.cache().epoch(), 1);
    }
}
