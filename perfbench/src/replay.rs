//! Layer-by-layer replays for the traced run.
//!
//! The build replay runs `PassBuilder`'s phases one public call at a time
//! (sort → ADP or KD → tree → draw → arena, in `build_1d`/`build_kd`
//! order) under spans, then checks that it produced the synopsis
//! `Pass::from_spec` builds: the same leaves, cut points and per-leaf
//! samples. The query-path replay splits a batch into the calls the
//! engine makes per query — MCF, hard bounds and the scan kernel on each
//! partial leaf — with one span per call per chunk of queries.

use std::hint::black_box;

use pass::common::rng::{derive_seed, rng_from_seed};
use pass::common::{PartitionStrategy, PassSpec, Query};
use pass::core::bounds::hard_bounds;
use pass::core::{mcf, McfResult, McfScratch, PartitionTree, Pass};
use pass::partition::{build_kd, Adp, KdExpansion, Partitioner1D};
use pass::sampling::{Sample, SampleArena, ScanScratch};
use pass::table::{SortedTable, Table};
use rand::seq::index::sample as index_sample;

use crate::trace::Tracer;

/// Per-leaf sample sizes for a rate-based spec (`PassBuilder`'s
/// allocation: proportional, at least one row per non-empty leaf).
fn allocate(spec: &PassSpec, leaf_sizes: &[usize]) -> Vec<usize> {
    leaf_sizes
        .iter()
        .map(|&n| ((n as f64 * spec.sample_rate).round() as usize).clamp(1, n.max(1)))
        .collect()
}

fn adp_kind(spec: &PassSpec) -> Result<pass::common::AggKind, String> {
    match (
        spec.strategy,
        spec.total_samples,
        spec.delta_encode,
        &spec.tree_dims,
    ) {
        (PartitionStrategy::Adp(kind), None, false, None) => Ok(kind),
        _ => Err(format!(
            "build replay covers rate-based ADP specs only, got {spec:?}"
        )),
    }
}

/// Replay the 1-D build of `spec` over `table` under spans and compare it
/// with `built` (the same spec through `Pass::from_spec`).
pub fn build_1d(
    tr: &mut Tracer,
    table: &Table,
    spec: &PassSpec,
    built: &Pass,
) -> Result<(), String> {
    let kind = adp_kind(spec)?;
    let sorted = tr.span("table.sort", 0, 1, |_| SortedTable::from_table(table, 0));
    let partitioning = tr
        .span("partition.adp", 0, 1, |_| {
            Adp::new(kind)
                .with_samples(spec.opt_samples)
                .with_delta(spec.adp_delta)
                .with_seed(derive_seed(spec.seed, 1))
                .partition(&sorted, spec.partitions)
        })
        .map_err(|e| format!("ADP replay: {e}"))?;
    let tree = tr
        .span("core.tree", 0, 1, |_| {
            PartitionTree::from_partitioning(&sorted, &partitioning)
        })
        .map_err(|e| format!("tree replay: {e}"))?;
    let samples = tr
        .span("sampling.draw", 0, 1, |_| {
            let sorted_table = Table::one_dim(sorted.keys().to_vec(), sorted.values().to_vec())?;
            let mut rng = rng_from_seed(derive_seed(spec.seed, 2));
            let ranges = partitioning.ranges();
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            ranges
                .into_iter()
                .zip(allocate(spec, &sizes))
                .map(|(range, k)| Sample::uniform_from_range(&sorted_table, range, k, &mut rng))
                .collect::<pass::common::Result<Vec<Sample>>>()
        })
        .map_err(|e| format!("sample replay: {e}"))?;
    let arena = tr.span("sampling.arena", 0, 1, |_| {
        SampleArena::from_samples(&samples)
    });

    // Cut points: leaf i of the built tree holds exactly the rows between
    // cuts i and i + 1 of the replayed partitioning.
    let leaves = built.tree().leaves();
    if leaves.len() != partitioning.len() {
        return Err(format!(
            "replay has {} leaves, built synopsis {}",
            partitioning.len(),
            leaves.len()
        ));
    }
    for (i, (leaf, range)) in leaves.iter().zip(partitioning.ranges()).enumerate() {
        let count = built.tree().agg(*leaf).count as usize;
        if count != range.len() {
            return Err(format!(
                "leaf {i}: built holds {count} rows, replay cut {range:?}"
            ));
        }
    }
    same_tree_and_samples(&tree, &samples, &arena, built)
}

/// Replay the k-d build of `spec` over `table` under spans and compare it
/// with `built`.
pub fn build_kd_phases(
    tr: &mut Tracer,
    table: &Table,
    spec: &PassSpec,
    built: &Pass,
) -> Result<(), String> {
    let kind = adp_kind(spec)?;
    let kd = tr
        .span("partition.kd", 0, 1, |_| {
            build_kd(
                table,
                spec.partitions,
                KdExpansion::MaxVariance {
                    kind,
                    balance: spec.kd_balance,
                },
                derive_seed(spec.seed, 3),
            )
        })
        .map_err(|e| format!("KD replay: {e}"))?;
    let tree = tr
        .span("core.tree", 0, 1, |_| PartitionTree::from_kd(table, &kd))
        .map_err(|e| format!("tree replay: {e}"))?;
    let samples = tr
        .span("sampling.draw", 0, 1, |_| {
            let leaves = kd.leaf_ids();
            let sizes: Vec<usize> = leaves.iter().map(|&l| kd.nodes[l].len()).collect();
            let mut rng = rng_from_seed(derive_seed(spec.seed, 4));
            leaves
                .iter()
                .zip(allocate(spec, &sizes))
                .map(|(&leaf, k)| {
                    let rows = kd.rows_of(leaf);
                    let chosen: Vec<usize> = if k >= rows.len() {
                        rows.iter().map(|&r| r as usize).collect()
                    } else {
                        index_sample(&mut rng, rows.len(), k)
                            .into_iter()
                            .map(|i| rows[i] as usize)
                            .collect()
                    };
                    Sample::from_indices(table, &chosen, rows.len() as u64)
                })
                .collect::<pass::common::Result<Vec<Sample>>>()
        })
        .map_err(|e| format!("sample replay: {e}"))?;
    let arena = tr.span("sampling.arena", 0, 1, |_| {
        SampleArena::from_samples(&samples)
    });
    if kd.n_leaves() != built.tree().n_leaves() {
        return Err(format!(
            "replay has {} leaves, built synopsis {}",
            kd.n_leaves(),
            built.tree().n_leaves()
        ));
    }
    same_tree_and_samples(&tree, &samples, &arena, built)
}

/// The replayed tree and samples must match the built synopsis node for
/// node (bounds and counts) and row for row (sample values, predicates
/// and populations).
fn same_tree_and_samples(
    tree: &PartitionTree,
    samples: &[Sample],
    arena: &SampleArena,
    built: &Pass,
) -> Result<(), String> {
    let bt = built.tree();
    if tree.n_nodes() != bt.n_nodes() || tree.dims() != bt.dims() {
        return Err(format!(
            "replay tree has {} nodes in {} dims, built {} in {}",
            tree.n_nodes(),
            tree.dims(),
            bt.n_nodes(),
            bt.dims()
        ));
    }
    for id in 0..tree.n_nodes() {
        let same_bounds = (0..tree.dims()).all(|d| {
            tree.rect_lo(id, d).to_bits() == bt.rect_lo(id, d).to_bits()
                && tree.rect_hi(id, d).to_bits() == bt.rect_hi(id, d).to_bits()
        });
        if !same_bounds || tree.agg(id).count != bt.agg(id).count {
            return Err(format!("node {id} differs between replay and built tree"));
        }
    }
    let built_samples = built.leaf_samples();
    if samples.len() != built_samples.len() || arena.len() != samples.len() {
        return Err(format!(
            "replay drew {} samples (arena {}), built synopsis holds {}",
            samples.len(),
            arena.len(),
            built_samples.len()
        ));
    }
    for (i, (a, b)) in samples.iter().zip(built_samples).enumerate() {
        let (ra, rb) = (a.rows(), b.rows());
        let same = a.k() == b.k()
            && a.population() == b.population()
            && bits(ra.values()) == bits(rb.values())
            && (0..ra.dims()).all(|d| bits(ra.predicate_column(d)) == bits(rb.predicate_column(d)));
        if !same {
            return Err(format!(
                "leaf {i}: replay sample k={} differs from built k={}",
                a.k(),
                b.k()
            ));
        }
    }
    Ok(())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// What the query-path replay counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathCounts {
    pub queries: u64,
    /// MCF nodes visited.
    pub visited: u64,
    /// Partial leaves (scanned through their samples).
    pub partial: u64,
    /// Rows in covered partitions (answered exactly from aggregates).
    pub covered_rows: u64,
    /// Rows in partial leaves.
    pub partial_rows: u64,
    /// Sample rows in the partial leaves' scans.
    pub rows_scanned: u64,
}

impl PathCounts {
    /// Fold in another replay's counts.
    pub fn add(&mut self, other: &PathCounts) {
        self.queries += other.queries;
        self.visited += other.visited;
        self.partial += other.partial;
        self.covered_rows += other.covered_rows;
        self.partial_rows += other.partial_rows;
        self.rows_scanned += other.rows_scanned;
    }
}

/// The engine's per-query calls over one synopsis, spanned per chunk.
pub struct QueryPath<'a> {
    tree: &'a PartitionTree,
    arena: SampleArena,
    zero_variance_rule: bool,
    mcf: McfScratch,
    scan: ScanScratch,
    frontiers: Vec<McfResult>,
    pub counts: PathCounts,
}

impl<'a> QueryPath<'a> {
    pub fn new(pass: &'a Pass, spec: &PassSpec) -> Self {
        Self {
            tree: pass.tree(),
            arena: SampleArena::from_samples(pass.leaf_samples()),
            zero_variance_rule: spec.zero_variance_rule,
            mcf: McfScratch::default(),
            scan: ScanScratch::new(),
            frontiers: Vec::new(),
            counts: PathCounts::default(),
        }
    }

    /// Run MCF, hard bounds and the scan kernel for `queries`, one span
    /// each, and return the sample rows each query's estimate scans.
    pub fn run(&mut self, tr: &mut Tracer, request: u64, queries: &[Query]) -> Vec<u64> {
        let n = queries.len() as u64;
        let (tree, zvr) = (self.tree, self.zero_variance_rule);
        let scratch = &mut self.mcf;
        tr.span("core.mcf", request, n, |_| {
            for q in queries {
                scratch.run(tree, q, zvr);
                black_box(&scratch.result);
            }
        });
        // The frontiers the next two phases read, computed outside any span.
        self.frontiers.clear();
        self.frontiers
            .extend(queries.iter().map(|q| mcf(tree, q, zvr)));
        let frontiers = &self.frontiers;
        tr.span("core.bounds", request, n, |_| {
            for (q, f) in queries.iter().zip(frontiers) {
                black_box(hard_bounds(tree, f, q.agg));
            }
        });
        let (arena, scan) = (&self.arena, &mut self.scan);
        tr.span("sampling.kernel", request, n, |_| {
            for (q, f) in queries.iter().zip(frontiers) {
                for &id in &f.partial {
                    let leaf = tree
                        .leaf_index(id)
                        .expect("partial frontier nodes are leaves");
                    black_box(scan.estimate_view(q.agg, &arena.view(leaf), &q.rect));
                }
            }
        });
        let mut scanned = Vec::with_capacity(queries.len());
        for f in frontiers {
            let rows: u64 = f
                .partial
                .iter()
                .map(|&id| self.arena.k(tree.leaf_index(id).expect("leaf")) as u64)
                .sum();
            scanned.push(rows);
            let c = &mut self.counts;
            c.queries += 1;
            c.visited += f.visited as u64;
            c.partial += f.partial.len() as u64;
            c.covered_rows += f.covered.iter().map(|&id| tree.agg(id).count).sum::<u64>();
            c.partial_rows += f.partial.iter().map(|&id| tree.agg(id).count).sum::<u64>();
            c.rows_scanned += rows;
        }
        scanned
    }
}
