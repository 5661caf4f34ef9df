//! Uniform without-replacement samples of table regions.

use rand::seq::index::sample as index_sample;
use rand::Rng;

use pass_common::{PassError, Rect, Result};
use pass_table::Table;

/// A uniform sample of some population of rows, stored as a mini-table (same
/// predicate dimensions as the parent) plus the population size `N` it was
/// drawn from. All φ-estimators scale by this `N`.
#[derive(Debug, Clone)]
pub struct Sample {
    rows: Table,
    population: u64,
    /// Whether the single predicate column is non-decreasing — unlocks the
    /// binary-search fast path in [`crate::kernel`]. Computed once at
    /// construction; conservatively cleared by the row mutators.
    sorted_1d: bool,
}

impl Sample {
    /// Wrap pre-selected rows as a sample of a population of size
    /// `population`.
    pub fn from_rows(rows: Table, population: u64) -> Result<Self> {
        if (rows.n_rows() as u64) > population {
            return Err(PassError::InvalidParameter(
                "population",
                format!(
                    "sample of {} rows cannot come from population of {population}",
                    rows.n_rows()
                ),
            ));
        }
        // A NaN predicate fails `w[0] <= w[1]`, so NaN-carrying columns never
        // claim sortedness.
        let sorted_1d =
            rows.dims() == 1 && rows.predicate_column(0).windows(2).all(|w| w[0] <= w[1]);
        Ok(Self {
            rows,
            population,
            sorted_1d,
        })
    }

    /// Draw `k` rows uniformly without replacement from the whole table.
    pub fn uniform<R: Rng>(table: &Table, k: usize, rng: &mut R) -> Result<Self> {
        let n = table.n_rows();
        let k = k.min(n);
        let chosen = index_sample(rng, n, k);
        let mut idx: Vec<usize> = chosen.into_iter().collect();
        idx.sort_unstable(); // stable layout; helps locality and testability
        Self::from_indices(table, &idx, n as u64)
    }

    /// Draw `k` rows uniformly without replacement from the subset of rows
    /// whose sorted positions fall in `row_range` (used to stratify over
    /// contiguous 1-D partitions without materializing them).
    pub fn uniform_from_range<R: Rng>(
        table: &Table,
        row_range: std::ops::Range<usize>,
        k: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let n = row_range.len();
        let k = k.min(n);
        let chosen = index_sample(rng, n, k);
        let mut idx: Vec<usize> = chosen.into_iter().map(|i| row_range.start + i).collect();
        idx.sort_unstable();
        Self::from_indices(table, &idx, n as u64)
    }

    /// Reassemble a sample from snapshot state, trusting the stored
    /// `sorted_1d` flag instead of recomputing it: the mutators clear the
    /// flag conservatively (even order-preserving mutations), so a
    /// mutated-then-saved sample must reload onto the exact same kernel
    /// path it was on when saved, not the one a fresh scan would pick.
    pub(crate) fn from_parts(rows: Table, population: u64, sorted_1d: bool) -> Result<Self> {
        let mut sample = Self::from_rows(rows, population)?;
        sample.sorted_1d = sorted_1d && sample.sorted_1d;
        Ok(sample)
    }

    /// Materialize specific row indices as a sample of a population of size
    /// `population`. Gathers every column in one pass over `indices`
    /// ([`Table::gather`]); the result inherits the parent's already-valid
    /// schema, so no shape re-validation happens.
    pub fn from_indices(table: &Table, indices: &[usize], population: u64) -> Result<Self> {
        Self::from_rows(table.gather(indices), population)
    }

    /// The sampled rows.
    #[inline]
    pub fn rows(&self) -> &Table {
        &self.rows
    }

    /// Sample size `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.rows.n_rows()
    }

    /// Population size `N` the sample represents.
    #[inline]
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Whether this is a 1-D sample whose predicate column is known to be
    /// non-decreasing (kernel fast-path eligibility). `false` after any row
    /// mutation, even one that happens to preserve order.
    #[inline]
    pub fn sorted_1d(&self) -> bool {
        self.sorted_1d
    }

    /// Number of sampled rows matching a rectangular predicate (`K_pred`).
    pub fn k_pred(&self, rect: &Rect) -> usize {
        (0..self.k())
            .filter(|&i| self.rows.matches(rect, i))
            .count()
    }

    /// Logical storage footprint: one f64 per value plus one per predicate
    /// coordinate (Table 2's storage accounting).
    pub fn storage_bytes(&self) -> usize {
        self.k() * (1 + self.rows.dims()) * std::mem::size_of::<f64>()
    }

    // --- dynamic-update mutators (Section 4.5 reservoir maintenance) ---

    /// Record population growth (a tuple was inserted into the stratum).
    pub fn grow_population(&mut self) {
        self.population += 1;
    }

    /// Record population shrinkage (a tuple left the stratum).
    pub fn shrink_population(&mut self) {
        self.population = self.population.saturating_sub(1);
    }

    /// Append a sampled row.
    pub fn push_row(&mut self, value: f64, preds: &[f64]) {
        self.sorted_1d = false;
        self.rows.push_row(value, preds);
    }

    /// Overwrite sampled row `i` (reservoir replacement).
    pub fn replace_row(&mut self, i: usize, value: f64, preds: &[f64]) {
        self.sorted_1d = false;
        self.rows.replace_row(i, value, preds);
    }

    /// Remove sampled row `i` (its underlying tuple was deleted).
    pub fn swap_remove_row(&mut self, i: usize) {
        self.sorted_1d = false;
        self.rows.swap_remove_row(i);
    }

    /// Position of a sampled row equal to `(value, preds)`, if any.
    pub fn find_row(&self, value: f64, preds: &[f64]) -> Option<usize> {
        (0..self.k()).find(|&i| {
            self.rows.value(i) == value
                && (0..self.rows.dims()).all(|d| self.rows.predicate(d, i) == preds[d])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use pass_table::datasets::uniform;

    #[test]
    fn uniform_sample_size_and_population() {
        let t = uniform(1_000, 1);
        let mut rng = rng_from_seed(2);
        let s = Sample::uniform(&t, 100, &mut rng).unwrap();
        assert_eq!(s.k(), 100);
        assert_eq!(s.population(), 1_000);
        assert_eq!(s.rows().dims(), 1);
    }

    #[test]
    fn oversized_request_clamps_to_population() {
        let t = uniform(50, 1);
        let mut rng = rng_from_seed(3);
        let s = Sample::uniform(&t, 500, &mut rng).unwrap();
        assert_eq!(s.k(), 50);
    }

    #[test]
    fn sample_rows_exist_in_parent() {
        let t = uniform(200, 4);
        let mut rng = rng_from_seed(5);
        let s = Sample::uniform(&t, 40, &mut rng).unwrap();
        for i in 0..s.k() {
            let key = s.rows().predicate(0, i);
            let val = s.rows().value(i);
            let found = (0..t.n_rows()).any(|j| t.predicate(0, j) == key && t.value(j) == val);
            assert!(found, "sampled row not in parent table");
        }
    }

    #[test]
    fn no_replacement() {
        let t = uniform(100, 6);
        let mut rng = rng_from_seed(7);
        let s = Sample::uniform(&t, 100, &mut rng).unwrap();
        // Sampling all rows must produce each exactly once.
        let mut keys: Vec<f64> = (0..s.k()).map(|i| s.rows().predicate(0, i)).collect();
        keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut parent: Vec<f64> = t.predicate_column(0).to_vec();
        parent.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(keys, parent);
    }

    #[test]
    fn range_sampling_respects_bounds() {
        let t = uniform(100, 8);
        let mut rng = rng_from_seed(9);
        let s = Sample::uniform_from_range(&t, 20..40, 10, &mut rng).unwrap();
        assert_eq!(s.population(), 20);
        let lo = t.predicate(0, 20);
        let hi = t.predicate(0, 39);
        for i in 0..s.k() {
            let k = s.rows().predicate(0, i);
            assert!(k >= lo && k <= hi);
        }
    }

    #[test]
    fn k_pred_counts_matches() {
        let t = uniform(500, 10);
        let mut rng = rng_from_seed(11);
        let s = Sample::uniform(&t, 500, &mut rng).unwrap(); // full sample
        let rect = Rect::interval(0.0, 0.5);
        let truth = (0..t.n_rows()).filter(|&i| t.matches(&rect, i)).count();
        assert_eq!(s.k_pred(&rect), truth);
    }

    #[test]
    fn population_smaller_than_sample_rejected() {
        let t = uniform(10, 12);
        let rows = t.clone();
        assert!(Sample::from_rows(rows, 5).is_err());
    }

    #[test]
    fn storage_accounting() {
        let t = uniform(100, 13);
        let mut rng = rng_from_seed(14);
        let s = Sample::uniform(&t, 25, &mut rng).unwrap();
        // 25 rows × (1 value + 1 predicate) × 8 bytes
        assert_eq!(s.storage_bytes(), 25 * 2 * 8);
    }
}
