//! A flat multi-sample arena: every stratum's rows in one allocation.
//!
//! [`Sample`] keeps its rows in a private mini-[`Table`](pass_table::Table)
//! — convenient for construction and mutation, but a `Vec<Sample>` scatters
//! hundreds of tiny allocations across the heap, and the query hot path
//! pays a dependent cache miss per pointer hop (`samples[li]` → `Table` →
//! column `Vec` → data) every time it scans a partial leaf. For the
//! serving-sized strata PASS produces (a handful of rows per leaf), those
//! misses dominate the scan itself.
//!
//! [`SampleArena`] flattens the whole sample set into one contiguous `f64`
//! buffer — per stratum: predicate columns (column-major), then values —
//! plus a row-offset table and per-stratum metadata. The entire arena for a
//! typical synopsis is tens of kilobytes, so after the first few queries it
//! is cache-resident and a partial-leaf scan costs arithmetic, not memory
//! latency. [`view`](SampleArena::view) hands the kernels a borrowed
//! [`SampleView`] whose slices hold exactly the bytes the originating
//! [`Sample`] holds, in the same row order — estimates computed through the
//! arena are bit-identical to the `Sample`-based path.
//!
//! The arena is a *derived* structure that owners keep in step with their
//! samples. A single-row write patches one stratum in place through the
//! mutators below, which mirror [`Sample`]'s one for one; construction,
//! snapshot load and structural maintenance rebuild it with
//! [`from_samples`](SampleArena::from_samples). Each stratum owns a
//! segment of `cap ≥ K_i` rows, laid out column-major with stride `K_i`:
//! a row removal or append repacks only that stratum's columns, and only
//! an append to a full segment needs a rebuild.

use crate::kernel::SampleView;
use crate::sample::Sample;

/// Everything [`SampleArena::view`] needs to slice out one stratum, packed
/// so a view costs a single metadata load (parallel offset/population/
/// sorted arrays would each bring in their own cache line).
#[derive(Debug, Clone, Copy)]
struct StratumMeta {
    /// First row of the stratum's segment (row index, not `f64` index).
    off: u32,
    /// Sample size `K_i`.
    k: u32,
    /// Rows the segment can hold (`K_i ≤ cap`); fits in what was padding.
    cap: u32,
    /// Population size `N_i`.
    population: u64,
    /// Sorted-column fast-path eligibility.
    sorted: bool,
}

/// All strata of a synopsis flattened into one contiguous allocation,
/// indexed by stratum (leaf) position.
#[derive(Debug, Clone, Default)]
pub struct SampleArena {
    /// Shared predicate dimensionality.
    dims: usize,
    /// Stratum `i` owns `data[meta[i].off * (dims + 1)..][..meta[i].cap *
    /// (dims + 1)]`; its first `K_i * (dims + 1)` entries are its `dims`
    /// predicate columns (column-major, stride `K_i`) followed by its
    /// values.
    data: Vec<f64>,
    /// Per-stratum segment location and scan parameters.
    meta: Vec<StratumMeta>,
}

impl SampleArena {
    /// Flatten `samples` (all of the same arity) into a fresh arena. Every
    /// stratum's segment holds its rows and at least one row, so refilling
    /// a stratum that deletes emptied never needs a rebuild.
    pub fn from_samples(samples: &[Sample]) -> Self {
        let dims = samples.first().map(|s| s.rows().dims()).unwrap_or(0);
        let total: usize = samples.iter().map(|s| s.k().max(1)).sum();
        let mut data = Vec::with_capacity(total * (dims + 1));
        let mut meta = Vec::with_capacity(samples.len());
        let mut off = 0u32;
        for s in samples {
            debug_assert_eq!(s.rows().dims(), dims);
            for d in 0..dims {
                data.extend_from_slice(s.rows().predicate_column(d));
            }
            data.extend_from_slice(s.rows().values());
            let cap = s.k().max(1);
            data.resize(data.len() + (cap - s.k()) * (dims + 1), 0.0);
            meta.push(StratumMeta {
                off,
                k: s.k() as u32,
                cap: cap as u32,
                population: s.population(),
                sorted: s.sorted_1d(),
            });
            off += cap as u32;
        }
        Self { dims, data, meta }
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no strata.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Predicate dimensionality shared by every stratum.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sample size `K_i` of stratum `i`.
    #[inline]
    pub fn k(&self, i: usize) -> usize {
        self.meta[i].k as usize
    }

    /// Population size `N_i` of stratum `i`.
    #[inline]
    pub fn population(&self, i: usize) -> u64 {
        self.meta[i].population
    }

    /// Borrow stratum `i`'s rows as a kernel [`SampleView`].
    #[inline]
    pub fn view(&self, i: usize) -> SampleView<'_> {
        let m = self.meta[i];
        let k = m.k as usize;
        let start = m.off as usize * (self.dims + 1);
        let seg = &self.data[start..start + k * (self.dims + 1)];
        let (preds, values) = seg.split_at(k * self.dims);
        SampleView {
            values,
            preds,
            dims: self.dims,
            population: m.population,
            sorted_1d: m.sorted,
        }
    }

    // --- in-place mutators, one per `Sample` mutator ---

    /// Set stratum `i`'s population `N_i` (mirrors
    /// [`Sample::grow_population`] / [`Sample::shrink_population`]).
    pub fn set_population(&mut self, i: usize, population: u64) {
        self.meta[i].population = population;
    }

    /// Overwrite row `row` of stratum `i` (mirrors [`Sample::replace_row`]).
    pub fn replace_row(&mut self, i: usize, row: usize, value: f64, preds: &[f64]) {
        let (start, k) = self.open(i, preds);
        debug_assert!(row < k, "row {row} of a {k}-row stratum");
        for (d, &p) in preds.iter().enumerate() {
            self.data[start + d * k + row] = p;
        }
        self.data[start + self.dims * k + row] = value;
    }

    /// Remove row `row` of stratum `i` by moving its last row into the
    /// hole, then repack the stratum's columns to the shorter stride
    /// (mirrors [`Sample::swap_remove_row`]).
    pub fn swap_remove_row(&mut self, i: usize, row: usize) {
        let (start, k) = self.open(i, &[]);
        debug_assert!(row < k, "row {row} of a {k}-row stratum");
        for c in 0..=self.dims {
            self.data[start + c * k + row] = self.data[start + c * k + k - 1];
        }
        // Columns only move toward the segment start, so lowest first
        // never overwrites a column that has yet to move.
        for c in 1..=self.dims {
            let from = start + c * k;
            self.data
                .copy_within(from..from + k - 1, start + c * (k - 1));
        }
        self.meta[i].k -= 1;
    }

    /// Append a row to stratum `i` (mirrors [`Sample::push_row`]),
    /// repacking its columns to the longer stride. Returns `false`, with
    /// the arena untouched, when the stratum's segment is full: the owner
    /// must then rebuild with [`from_samples`](Self::from_samples).
    #[must_use]
    pub fn push_row(&mut self, i: usize, value: f64, preds: &[f64]) -> bool {
        let m = self.meta[i];
        if m.k == m.cap {
            return false;
        }
        let (start, k) = self.open(i, preds);
        // Columns only move away from the segment start, so highest first
        // never overwrites a column that has yet to move.
        for c in (1..=self.dims).rev() {
            let from = start + c * k;
            self.data.copy_within(from..from + k, start + c * (k + 1));
        }
        for (d, &p) in preds.iter().enumerate() {
            self.data[start + d * (k + 1) + k] = p;
        }
        self.data[start + self.dims * (k + 1) + k] = value;
        self.meta[i].k += 1;
        true
    }

    /// Start a row mutation of stratum `i`: a mutated stratum loses the
    /// sorted fast path, as a mutated [`Sample`] does. Returns the
    /// segment's first `f64` index and the stratum's current `K_i`.
    fn open(&mut self, i: usize, preds: &[f64]) -> (usize, usize) {
        debug_assert!(preds.is_empty() || preds.len() == self.dims);
        let m = &mut self.meta[i];
        m.sorted = false;
        (m.off as usize * (self.dims + 1), m.k as usize)
    }
}

impl PartialEq for SampleArena {
    /// Equal when every stratum is: the same `K_i`, `N_i` and sorted flag,
    /// and the same predicate and value bits. How much spare room each
    /// segment has, and where it sits, does not count.
    fn eq(&self, other: &Self) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        self.dims == other.dims
            && self.len() == other.len()
            && (0..self.len()).all(|i| {
                let (a, b) = (self.view(i), other.view(i));
                a.population == b.population
                    && a.sorted_1d == b.sorted_1d
                    && bits(a.values, b.values)
                    && bits(a.preds, b.preds)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScanScratch;
    use pass_common::rng::rng_from_seed;
    use pass_common::{AggKind, Rect};
    use pass_table::datasets::uniform;
    use pass_table::Table;

    fn strata(n_strata: usize, per: usize, seed: u64) -> Vec<Sample> {
        let t = uniform(n_strata * per * 4, seed);
        let mut rng = rng_from_seed(seed);
        (0..n_strata)
            .map(|i| {
                Sample::uniform_from_range(&t, i * per * 4..(i + 1) * per * 4, per, &mut rng)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn views_mirror_their_samples() {
        let samples = strata(8, 5, 3);
        let arena = SampleArena::from_samples(&samples);
        assert_eq!(arena.len(), 8);
        assert_eq!(arena.dims(), 1);
        for (i, s) in samples.iter().enumerate() {
            let v = arena.view(i);
            assert_eq!(v.k(), s.k());
            assert_eq!(v.population, s.population());
            assert_eq!(v.sorted_1d, s.sorted_1d());
            assert_eq!(v.values, s.rows().values());
            assert_eq!(v.pred_col(0), s.rows().predicate_column(0));
        }
    }

    #[test]
    fn multidim_views_keep_column_layout() {
        let t = pass_table::datasets::taxi(400, 7).project(&[1, 2]).unwrap();
        let mut rng = rng_from_seed(7);
        let samples: Vec<Sample> = (0..4)
            .map(|_| Sample::uniform(&t, 20, &mut rng).unwrap())
            .collect();
        let arena = SampleArena::from_samples(&samples);
        assert_eq!(arena.dims(), 2);
        for (i, s) in samples.iter().enumerate() {
            let v = arena.view(i);
            for d in 0..2 {
                assert_eq!(v.pred_col(d), s.rows().predicate_column(d), "stratum {i}");
            }
        }
    }

    #[test]
    fn arena_estimates_are_bit_identical_to_sample_estimates() {
        let samples = strata(16, 7, 11);
        let arena = SampleArena::from_samples(&samples);
        let mut scratch = ScanScratch::new();
        for (lo, hi) in [(0.0, 1.0), (0.2, 0.6), (0.99, 1.5)] {
            let rect = Rect::interval(lo, hi);
            for agg in AggKind::ALL {
                for (i, s) in samples.iter().enumerate() {
                    let a = scratch.estimate_view(agg, &arena.view(i), &rect);
                    let b = scratch.estimate(agg, s, &rect);
                    assert_eq!(
                        a.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred)),
                        b.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred)),
                        "{agg} [{lo},{hi}] stratum {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_strata_and_empty_arena() {
        let arena = SampleArena::from_samples(&[]);
        assert!(arena.is_empty());
        let t = uniform(10, 5);
        let empty = Sample::from_indices(&t, &[], 10).unwrap();
        let full = Sample::from_indices(&t, &[0, 3, 7], 10).unwrap();
        let arena = SampleArena::from_samples(&[empty, full]);
        assert_eq!(arena.k(0), 0);
        assert_eq!(arena.k(1), 3);
        assert_eq!(arena.view(0).k(), 0);
        assert_eq!(arena.view(1).values.len(), 3);
    }

    #[test]
    fn mutated_unsorted_samples_round_trip() {
        let t = Table::one_dim(vec![0.5, 0.1, 0.9], vec![1.0, 2.0, 3.0]).unwrap();
        let s = Sample::from_rows(t, 30).unwrap();
        assert!(!s.sorted_1d());
        let arena = SampleArena::from_samples(std::slice::from_ref(&s));
        assert!(!arena.view(0).sorted_1d);
        let mut scratch = ScanScratch::new();
        let rect = Rect::interval(0.0, 0.6);
        let a = scratch.estimate_view(AggKind::Sum, &arena.view(0), &rect);
        let b = scratch.estimate(AggKind::Sum, &s, &rect);
        assert_eq!(a.map(|p| p.value.to_bits()), b.map(|p| p.value.to_bits()));
    }
    #[test]
    fn stratum_meta_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<StratumMeta>(), 24);
    }

    /// Apply one random write to `samples[i]` and the arena alike.
    /// Returns `false` when the arena reports a full segment.
    fn random_write(
        samples: &mut [Sample],
        arena: &mut SampleArena,
        rng: &mut impl rand::Rng,
    ) -> bool {
        let i = rng.gen_range(0..samples.len());
        let dims = arena.dims();
        let preds: [f64; 2] = [rng.gen(), rng.gen()];
        let (preds, value) = (&preds[..dims], rng.gen::<f64>() * 100.0);
        let s = &mut samples[i];
        match rng.gen_range(0..4) {
            0 if s.k() > 0 => {
                let row = rng.gen_range(0..s.k());
                s.swap_remove_row(row);
                arena.swap_remove_row(i, row);
            }
            1 if s.k() > 0 => {
                let row = rng.gen_range(0..s.k());
                s.replace_row(row, value, preds);
                arena.replace_row(i, row, value, preds);
            }
            2 => {
                s.grow_population();
                arena.set_population(i, s.population());
            }
            _ => {
                if !arena.push_row(i, value, preds) {
                    return false;
                }
                s.grow_population();
                s.push_row(value, preds);
                arena.set_population(i, s.population());
            }
        }
        true
    }

    #[test]
    fn patched_arena_equals_a_fresh_one_after_every_write() {
        let taxi = pass_table::datasets::taxi(400, 9).project(&[1, 2]).unwrap();
        let mut rng = rng_from_seed(9);
        let two_dim: Vec<Sample> = (0..6)
            .map(|_| Sample::uniform(&taxi, 3, &mut rng).unwrap())
            .collect();
        for mut samples in [strata(6, 3, 8), two_dim] {
            let mut arena = SampleArena::from_samples(&samples);
            let (mut writes, mut rebuilds, mut emptied) = (0, 0, false);
            while writes < 2_000 {
                if !random_write(&mut samples, &mut arena, &mut rng) {
                    // A full segment: the one write that rebuilds.
                    rebuilds += 1;
                    arena = SampleArena::from_samples(&samples);
                    continue;
                }
                writes += 1;
                emptied |= samples.iter().any(|s| s.k() == 0);
                assert!(
                    arena == SampleArena::from_samples(&samples),
                    "write {writes}"
                );
            }
            assert!(rebuilds > 0, "appends must outgrow some segment");
            assert!(emptied, "some stratum must empty");
        }
    }

    #[test]
    fn emptied_stratum_refills_in_place() {
        let t = uniform(10, 5);
        let s = Sample::from_indices(&t, &[2, 4], 10).unwrap();
        let mut arena = SampleArena::from_samples(&[s.clone(), s]);
        arena.swap_remove_row(0, 1);
        arena.swap_remove_row(0, 0);
        assert_eq!(arena.k(0), 0);
        assert!(arena.push_row(0, 7.0, &[0.5]));
        assert!(arena.push_row(0, 8.0, &[0.25]));
        assert!(!arena.push_row(0, 9.0, &[0.75]), "segment holds two rows");
        assert_eq!(arena.view(0).values, &[7.0, 8.0]);
        assert_eq!(arena.view(0).pred_col(0), &[0.5, 0.25]);
        assert!(!arena.view(0).sorted_1d);
        // The neighbouring stratum is untouched.
        assert_eq!(arena.view(1).values, &[t.value(2), t.value(4)]);
        // A stratum built empty still has room for one row.
        let empty = Sample::from_indices(&t, &[], 10).unwrap();
        let mut arena = SampleArena::from_samples(&[empty]);
        assert!(arena.push_row(0, 1.0, &[0.5]));
        assert!(!arena.push_row(0, 2.0, &[0.6]));
    }

    #[test]
    fn equality_compares_bits_not_layout() {
        let samples = strata(3, 4, 12);
        let fresh = SampleArena::from_samples(&samples);
        let mut patched = fresh.clone();
        let (value, pred) = (patched.view(1).values[0], patched.view(1).pred_col(0)[0]);
        patched.replace_row(1, 0, value, &[pred]);
        assert!(patched != fresh, "a write clears the sorted flag");
        let mut other = samples.clone();
        other[1].replace_row(0, value, &[pred]);
        assert!(patched == SampleArena::from_samples(&other));
        patched.replace_row(1, 0, -0.0, &[pred]);
        other[1].replace_row(0, 0.0, &[pred]);
        assert!(
            patched != SampleArena::from_samples(&other),
            "-0.0 is not 0.0"
        );
    }
}
