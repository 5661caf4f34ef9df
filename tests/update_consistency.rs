//! Property tests for dynamic updates (Section 4.5): arbitrary interleaved
//! insert/delete sequences keep the synopsis statistically consistent —
//! node aggregates stay exact for SUM/COUNT/AVG, MIN/MAX bounds stay
//! conservative, and whole-space queries stay exact — and the sample
//! arena a write patches in place never drifts from one built fresh.

use proptest::prelude::*;

use pass::common::rng::derive_seed;
use pass::common::{AggKind, PassSpec, Query, Rect, Synopsis};
use pass::core::Pass;
use pass::table::Table;
use pass::Engine;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: f64, value: f64 },
    DeleteEarlierInsert(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => ((0.0f64..1.0), (0.0f64..100.0))
                .prop_map(|(key, value)| Op::Insert { key, value }),
            1 => (0usize..64).prop_map(Op::DeleteEarlierInsert),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn update_sequences_keep_synopsis_consistent(ops in ops(), seed in 0u64..1000) {
        // Base data.
        let n = 500;
        let keys: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64).collect();
        let table = Table::one_dim(keys.clone(), values.clone()).unwrap();
        let mut pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 8,
                sample_rate: 0.1,
                seed,
                ..PassSpec::default()
            },
        )
        .unwrap();

        // Mirror of live tuples for ground truth.
        let mut mirror: Vec<(f64, f64)> = keys.into_iter().zip(values).collect();
        let mut inserted: Vec<(f64, f64)> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert { key, value } => {
                    pass.insert(&[*key], *value).unwrap();
                    mirror.push((*key, *value));
                    inserted.push((*key, *value));
                }
                Op::DeleteEarlierInsert(idx) => {
                    if inserted.is_empty() {
                        continue;
                    }
                    let (key, value) = inserted.swap_remove(idx % inserted.len());
                    pass.delete(&[key], value).unwrap();
                    let pos = mirror
                        .iter()
                        .position(|&(k, v)| k == key && v == value)
                        .expect("mirror has the tuple");
                    mirror.swap_remove(pos);
                }
            }
        }

        // Whole-space queries are answered exactly from the root.
        let truth_count = mirror.len() as f64;
        let truth_sum: f64 = mirror.iter().map(|&(_, v)| v).sum();
        let whole = |agg| Query::interval(agg, -1.0, 2.0);
        let count = pass.estimate(&whole(AggKind::Count)).unwrap();
        prop_assert!(count.exact);
        prop_assert!((count.value - truth_count).abs() < 1e-9);
        let sum = pass.estimate(&whole(AggKind::Sum)).unwrap();
        prop_assert!((sum.value - truth_sum).abs() < 1e-6 * truth_sum.abs().max(1.0));

        // Root MIN/MAX stay conservative: they bracket the live extrema.
        let root = *pass.tree().agg(pass.tree().root());
        if !mirror.is_empty() {
            let live_min = mirror.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let live_max = mirror.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(root.min <= live_min + 1e-12);
            prop_assert!(root.max >= live_max - 1e-12);
        }

        // Leaf counts still sum to the root count, and sample populations
        // track leaf counts.
        let leaf_total: u64 = pass
            .tree()
            .leaves()
            .into_iter()
            .map(|id| pass.tree().agg(id).count)
            .sum();
        prop_assert_eq!(leaf_total, root.count);
        for (li, id) in pass.tree().leaves().into_iter().enumerate() {
            prop_assert_eq!(
                pass.leaf_samples()[li].population(),
                pass.tree().agg(id).count
            );
        }
    }
}

/// One write of the drift check.
#[derive(Debug, Clone)]
enum Write {
    Insert {
        at: [f64; 2],
        value: f64,
    },
    /// Delete the `i`-th live insert.
    DeleteInsert(usize),
    /// Delete every sampled row of one stratum, then insert a tuple at
    /// the middle of its leaf: the stratum's sample goes to 0 rows and
    /// the refill appends its first row again.
    EmptyAndRefill {
        stratum: usize,
        value: f64,
    },
}

fn writes() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec(
        prop_oneof![
            4 => ((0.0f64..1.0), (0.0f64..1.0), (0.0f64..100.0))
                .prop_map(|(x, y, value)| Write::Insert { at: [x, y], value }),
            2 => (0usize..64).prop_map(Write::DeleteInsert),
            1 => ((0usize..64), (0.0f64..100.0))
                .prop_map(|(stratum, value)| Write::EmptyAndRefill { stratum, value }),
        ],
        1..40,
    )
}

/// A `dims`-D table of 400 uniform rows; 2-D builds a KD tree. Strata
/// hold about 4 sampled rows, so removals move rows within a stratum.
fn drift_pass(dims: usize, seed: u64) -> Pass {
    let n = 400u64;
    let unit = |label: u64| derive_seed(seed, label) as f64 / u64::MAX as f64;
    let preds = (0..dims as u64)
        .map(|d| (0..n).map(|i| unit(d * n + i)).collect())
        .collect();
    let values = (0..n).map(|i| 50.0 * unit(dims as u64 * n + i)).collect();
    let names = std::iter::once("value".to_owned())
        .chain((0..dims).map(|d| format!("x{d}")))
        .collect();
    let table = Table::new(values, preds, names).unwrap();
    let spec = PassSpec {
        partitions: 8,
        sample_rate: 0.08,
        seed,
        ..PassSpec::default()
    };
    Pass::from_spec(&table, &spec).unwrap()
}

/// COUNT, SUM and AVG over boxes that cut through several leaves.
fn partial_queries(dims: usize) -> Vec<Query> {
    let boxes = [(0.1, 0.35), (0.3, 0.72), (0.55, 0.9), (-1.0, 0.5)];
    let mut qs = Vec::new();
    for agg in AggKind::SAMPLED {
        for (i, &(lo, hi)) in boxes.iter().enumerate() {
            let other = boxes[(i + 1) % boxes.len()];
            let bounds = [(lo, hi), other];
            qs.push(Query::new(agg, Rect::new(&bounds[..dims])));
        }
    }
    qs
}

/// After every write, the synopsis answers bit for bit as a copy whose
/// arena was built fresh from its samples by a snapshot reload.
fn assert_no_drift(dims: usize, seed: u64, writes: &[Write]) {
    let mut pass = drift_pass(dims, seed);
    let qs = partial_queries(dims);
    let mut live: Vec<(Vec<f64>, f64)> = Vec::new();
    for (step, write) in writes.iter().enumerate() {
        match write {
            Write::Insert { at, value } => {
                pass.insert(&at[..dims], *value).unwrap();
                live.push((at[..dims].to_vec(), *value));
            }
            Write::DeleteInsert(i) => {
                if live.is_empty() {
                    continue;
                }
                let (point, value) = live.swap_remove(i % live.len());
                pass.delete(&point, value).unwrap();
            }
            Write::EmptyAndRefill { stratum, value } => {
                let li = stratum % pass.leaf_samples().len();
                let rows = pass.leaf_samples()[li].rows().clone();
                for r in 0..rows.n_rows() {
                    let point: Vec<f64> = (0..dims).map(|d| rows.predicate(d, r)).collect();
                    prop_assert!(pass.delete(&point, rows.value(r)).unwrap());
                    if let Some(pos) = live
                        .iter()
                        .position(|(p, v)| *p == point && *v == rows.value(r))
                    {
                        live.swap_remove(pos);
                    }
                }
                prop_assert_eq!(pass.leaf_samples()[li].k(), 0);
                let leaf = pass.tree().leaves()[li];
                let mid: Vec<f64> = (0..dims)
                    .map(|d| (pass.tree().rect_lo(leaf, d) + pass.tree().rect_hi(leaf, d)) / 2.0)
                    .collect();
                pass.insert(&mid, *value).unwrap();
                live.push((mid, *value));
                prop_assert_eq!(pass.leaf_samples()[li].k(), 1, "stratum {} refilled", li);
            }
        }
        let mut bytes = Vec::new();
        pass.save(&mut bytes).unwrap();
        let fresh = Engine::load(&bytes).unwrap();
        for q in &qs {
            prop_assert_eq!(pass.estimate(q), fresh.estimate(q), "step {} {:?}", step, q);
        }
        prop_assert_eq!(pass.estimate_many(&qs), fresh.estimate_many(&qs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn patched_arena_never_drifts_in_1d(writes in writes(), seed in 0u64..1000) {
        assert_no_drift(1, seed, &writes);
    }

    #[test]
    fn patched_arena_never_drifts_in_a_kd_tree(writes in writes(), seed in 0u64..1000) {
        assert_no_drift(2, seed, &writes);
    }
}
