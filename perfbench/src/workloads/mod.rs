//! The four workloads and what they share.

mod batch_1d;
mod ingest_1d;
mod kd_sharded_6d;
mod serve_1d;

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use pass::common::rng::derive_seed;
use pass::common::{AggKind, CachedSynopsis, Estimate, PassSpec, Query, Result, Synopsis};
use pass::core::Pass;
use pass::table::SortedTable;
use pass::workload::random_queries;
use pass::{SessionHandle, DEFAULT_CACHE_CAPACITY};

use crate::replay::{PathCounts, QueryPath};
use crate::stats::{median, SliceSummary, Slicer};
use crate::trace::{LayerTime, Tracer};
use crate::{Args, Outcome};

/// Spans one traced run may hold.
const SPAN_CAPACITY: usize = 1 << 20;

pub fn run(args: &Args, out: &mut Outcome) {
    match args.workload.as_str() {
        "batch-1d" => batch_1d::run(args, out),
        "serve-1d" => serve_1d::run(args, out),
        "kd-sharded-6d" => kd_sharded_6d::run(args, out),
        "ingest-1d" => ingest_1d::run(args, out),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// Set-ups made before the measuring starts (untraced runs); the rest
/// are spread over the measuring.
const SETUPS_FIRST: usize = 2;
/// An untraced run makes at least `SETUPS_MIN` set-ups, and more until
/// they add up to about `SETUPS_TIME` (a set-up of well under 0.1 s is
/// noisy on its own), but at most `SETUPS_MAX`.
const SETUPS_MIN: usize = 6;
const SETUPS_TIME: Duration = Duration::from_millis(1500);
const SETUPS_MAX: usize = 25;

/// The timed set-ups of a run; `setup_s` is their median. The machine's
/// speed drifts over seconds, so set-ups made back to back share one
/// speed; spread over the run, they sample many. A traced run makes one
/// set-up (it reports no set-up time).
struct Setups<P, S> {
    /// Makes each set-up's inputs outside the clock (a fresh copy of the
    /// table, say).
    prepare: P,
    setup: S,
    times: Vec<f64>,
    /// Set-ups the run makes in all.
    target: usize,
}

impl<I, T, P: FnMut() -> I, S: FnMut(I) -> T> Setups<P, S> {
    /// Make the set-ups that come before the measuring and hand back the
    /// last one's product.
    fn start(args: &Args, prepare: P, setup: S) -> (Self, T) {
        let mut s = Self {
            prepare,
            setup,
            times: Vec::new(),
            target: 1,
        };
        let mut last = s.one();
        if !args.trace {
            for _ in 1..SETUPS_FIRST {
                // Drop the previous product first so its teardown is not
                // timed.
                drop(last);
                last = s.one();
            }
            s.target = setup_target(median(&s.times).expect("at least one set-up"));
        }
        (s, last)
    }

    fn one(&mut self) -> T {
        let input = (self.prepare)();
        let start = Instant::now();
        let product = (self.setup)(input);
        self.times.push(start.elapsed().as_secs_f64());
        product
    }

    /// Make the set-ups due once `progress` (0 to 1) of the measuring is
    /// done, dropping their products outside the clock. Call it between
    /// timed operations.
    fn catch_up(&mut self, progress: f64) {
        while self.times.len() < self.target {
            let spread = self.target - SETUPS_FIRST;
            let made = self.times.len() - SETUPS_FIRST;
            if progress < (made + 1) as f64 / spread as f64 {
                break;
            }
            drop(self.one());
        }
    }

    /// The median set-up time, after the set-ups still due.
    fn finish(mut self) -> f64 {
        self.catch_up(1.0);
        median(&self.times).expect("at least one set-up")
    }
}

/// Set-ups an untraced run makes when each takes `each_s` seconds.
fn setup_target(each_s: f64) -> usize {
    ((SETUPS_TIME.as_secs_f64() / each_s).ceil() as usize).clamp(SETUPS_MIN, SETUPS_MAX)
}

/// The share of `measure` that `busy` is, for [`Setups::catch_up`].
fn progress(busy: Duration, measure: Duration) -> f64 {
    busy.as_secs_f64() / measure.as_secs_f64()
}

/// The 1-D PASS configuration of the batch and serve workloads: 256
/// leaves and a 0.5% sample.
fn pass_1d_spec(seed: u64) -> PassSpec {
    PassSpec {
        partitions: 256,
        sample_rate: 0.005,
        seed: derive_seed(seed, 0xE5),
        ..PassSpec::default()
    }
}

/// `n` distinct COUNT/SUM/AVG intervals (round-robin over the three
/// aggregates), each matching at least `min_rows` rows.
fn interval_pool(sorted: &SortedTable, n: usize, min_rows: usize, seed: u64) -> Vec<Query> {
    let aggs = [AggKind::Count, AggKind::Sum, AggKind::Avg];
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    let mut round = 0u64;
    while pool.len() < n {
        let per_agg = n.div_ceil(3);
        let drawn: Vec<Vec<Query>> = aggs
            .iter()
            .enumerate()
            .map(|(a, &agg)| {
                random_queries(
                    sorted,
                    per_agg,
                    agg,
                    min_rows,
                    derive_seed(seed, round * 3 + a as u64),
                )
            })
            .collect();
        for i in 0..per_agg {
            for queries in &drawn {
                let q = &queries[i];
                let key = (q.agg as u8, q.rect.lo(0).to_bits(), q.rect.hi(0).to_bits());
                if pool.len() < n && seen.insert(key) {
                    pool.push(q.clone());
                }
            }
        }
        round += 1;
    }
    pool
}

/// Microseconds from a duration.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Slices per timed loop (see `Slicer` for the figures read from them):
/// few enough that each slice holds a hundred or more timed calls, so
/// its p90 has ten or more beyond it (kd-sharded-6d makes about 160 per
/// slice).
pub(super) const SLICES: u32 = 50;

fn slicer(args: &Args) -> Slicer {
    Slicer::new(args.measure() / SLICES)
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
fn end_to_end(out: &mut Outcome, setup_s: f64, timing: SliceSummary, storage_bytes: f64) {
    let m = &mut out.end_to_end;
    m.add("setup_s", setup_s, "s");
    m.add("throughput_per_s", timing.rate_per_s, "1/s");
    m.add("latency_p50_us", timing.p50_us, "us");
    m.add("latency_p90_us", timing.p90_us, "us");
    m.add("median_rel_error", out.check.median_rel_error(), "ratio");
    m.add("median_ci_ratio", out.check.median_ci_ratio(), "ratio");
    m.add("ci_coverage", out.check.ci_coverage(), "frac");
    m.add("storage_bytes", storage_bytes, "bytes");
    let [count, sum, avg] = out.check.median_rel_error_by_agg();
    out.notes.push(format!(
        "median of {} slices; {} latency samples; accuracy checked on {} queries \
         (median relative error: COUNT {count:.5}, SUM {sum:.5}, AVG {avg:.5})",
        timing.slices,
        timing.samples,
        out.check.checked()
    ));
}

/// Per-item self time of a span name (0 when it never ran).
fn per_item(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, LayerTime::self_ns_per_item)
}

/// Fill the build-phase, query-path and bookkeeping metrics every traced
/// run shares, and write the spans out.
fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    tr: &Tracer,
    path: &crate::replay::PathCounts,
    overhead_frac: f64,
) {
    let layers = tr.layers();
    for (metric, span) in [
        ("table.sort_s", "table.sort"),
        ("partition.adp_s", "partition.adp"),
        ("partition.kd_s", "partition.kd"),
        ("core.tree_s", "core.tree"),
        ("sampling.draw_s", "sampling.draw"),
        ("sampling.arena_s", "sampling.arena"),
        ("sharded.build_s", "sharded.build"),
    ] {
        if let Some(l) = layers.get(span) {
            out.layer(metric, l.self_s());
        }
    }
    for (metric, span) in [
        ("core.mcf_ns", "core.mcf"),
        ("core.bounds_ns", "core.bounds"),
        ("sampling.kernel_ns", "sampling.kernel"),
    ] {
        if let Some(l) = layers.get(span) {
            out.layer(metric, l.self_ns_per_item());
        }
    }
    let q = path.queries.max(1) as f64;
    out.layer("core.mcf_visited", path.visited as f64 / q);
    out.layer("core.mcf_partial", path.partial as f64 / q);
    out.layer("sampling.rows_scanned", path.rows_scanned as f64 / q);
    let relevant = (path.covered_rows + path.partial_rows).max(1) as f64;
    out.layer("core.exact_frac", path.covered_rows as f64 / relevant);
    out.layer("trace.overhead_frac", overhead_frac);
    out.layer("trace.spans", tr.spans().len() as f64);
    out.layer("trace.dropped", tr.dropped() as f64);

    let dir = std::path::Path::new("perfbench/out");
    let file = dir.join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&file))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tr.write_csv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => out.note(format!("spans written to {}", file.display())),
        Err(e) => out.note(format!("spans not written ({}): {e}", file.display())),
    }
    let mut table = String::from("layer self time (traced run):");
    for (name, l) in &layers {
        table.push_str(&format!(
            "\n  {name:<24} calls {:>8}  items {:>10}  self {:>12.6} s  {:>10.1} ns/item",
            l.calls,
            l.count,
            l.self_s(),
            l.self_ns_per_item()
        ));
    }
    out.note(table);
}

/// The engine's layers under a session call, over `pool` in batches of
/// `batch` (cycling until `min_time` has passed and every batch ran
/// once): the bare engine's `estimate_many`, the session handle, and a
/// `CachedSynopsis` over the bare engine, first missing then hitting,
/// both caches starting empty, then the replayed query path. Every answer
/// is checked bit-identical to `direct`. Fills `core.estimate_ns`,
/// `cache.hit_ns`, `cache.miss_overhead_ns` and `session.handle_ns`.
#[allow(clippy::too_many_arguments)]
fn engine_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    handle: &SessionHandle,
    built: &Pass,
    spec: &PassSpec,
    pool: &[Query],
    direct: &[Result<Estimate>],
    batch: usize,
    min_time: Duration,
) -> PathCounts {
    handle.clear_cache();
    let bare = handle.synopsis();
    let own = CachedSynopsis::new(bare, DEFAULT_CACHE_CAPACITY);
    let mut path = QueryPath::new(built, spec);
    let batches = pool.len().div_ceil(batch);
    let wall = Instant::now();
    let mut b = 0;
    while b < batches || wall.elapsed() < min_time {
        let first = b % batches * batch;
        let chunk = &pool[first..(first + batch).min(pool.len())];
        let (request, n) = (b as u64, chunk.len() as u64);
        let engine = tr.span("core.estimate_many", request, n, |_| {
            bare.estimate_many(chunk)
        });
        let session = tr.span("session.estimate_many", request, n, |_| {
            handle.estimate_many(chunk)
        });
        let missed = tr.span("cache.miss", request, n, |_| own.estimate_many(chunk));
        let hit = tr.span("cache.hit", request, n, |_| own.estimate_many(chunk));
        let scanned = path.run(tr, request, chunk);
        for (k, q) in chunk.iter().enumerate() {
            let want = &direct[first + k];
            out.check.attempted += 1;
            let all_same = out
                .check
                .same_answer("bare batch vs direct", q, &engine[k], want)
                && out
                    .check
                    .same_answer("session vs direct", q, &session[k], want)
                && out
                    .check
                    .same_answer("cached miss vs direct", q, &missed[k], want)
                && out
                    .check
                    .same_answer("cached hit vs direct", q, &hit[k], want);
            if all_same {
                check_scanned(out, want, scanned[k]);
            }
        }
        b += 1;
    }

    let layers = tr.layers();
    let estimate_ns = per_item(&layers, "core.estimate_many");
    let miss_ns = per_item(&layers, "cache.miss");
    out.layer("core.estimate_ns", estimate_ns);
    out.layer("cache.hit_ns", per_item(&layers, "cache.hit"));
    out.layer("cache.miss_overhead_ns", miss_ns - estimate_ns);
    out.layer(
        "session.handle_ns",
        per_item(&layers, "session.estimate_many") - miss_ns,
    );
    path.counts
}

/// The replayed kernel must scan exactly the sample rows the engine
/// reports having processed.
fn check_scanned(out: &mut Outcome, direct: &Result<Estimate>, scanned: u64) {
    if let Ok(est) = direct {
        if est.tuples_processed != scanned {
            out.check.fail(|| {
                format!(
                    "query-path replay scanned {scanned} rows, engine processed {}",
                    est.tuples_processed
                )
            });
        }
    }
}

/// Relative change of `traced` over `untraced` medians (the tracing
/// overhead of one call).
fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    match (median(untraced), median(traced)) {
        (Some(u), Some(t)) if u > 0.0 => t / u - 1.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass::table::datasets::DatasetId;

    #[test]
    fn interval_pool_is_distinct_and_wide_enough() {
        let table = DatasetId::NycTaxi.generate(20_000, 3);
        let sorted = SortedTable::from_table(&table, 0);
        let pool = interval_pool(&sorted, 600, 200, 5);
        assert_eq!(pool.len(), 600);
        let keys: HashSet<_> = pool
            .iter()
            .map(|q| (q.agg as u8, q.rect.lo(0).to_bits(), q.rect.hi(0).to_bits()))
            .collect();
        assert_eq!(keys.len(), 600);
        for q in &pool {
            let (s, e) = sorted.index_range(q.rect.lo(0), q.rect.hi(0));
            assert!(e - s >= 200);
        }
        assert_eq!(pool[0].agg, AggKind::Count);
        assert_eq!(pool[1].agg, AggKind::Sum);
        assert_eq!(pool[2].agg, AggKind::Avg);
        // Same seed, same pool.
        let again = interval_pool(&sorted, 600, 200, 5);
        assert!(pool.iter().zip(&again).all(|(a, b)| a == b));
    }

    #[test]
    fn setups_are_spread_over_the_run() {
        let untraced = Args {
            workload: "batch-1d".into(),
            seed: 1,
            seconds: 1,
            trace: false,
        };
        // Set-ups of 2 ms: the time target asks for 750, the cap allows 25.
        let mut delays = std::iter::repeat(2u64);
        let mut made = 0;
        let (mut s, first) = Setups::start(
            &untraced,
            || delays.next().unwrap(),
            |ms| {
                made += 1;
                std::thread::sleep(Duration::from_millis(ms));
                made
            },
        );
        assert_eq!((first, s.times.len(), s.target), (2, 2, SETUPS_MAX));
        // 23 more, spread evenly: due at progress 1/23, 2/23, ... 1.
        s.catch_up(0.0);
        assert_eq!(s.times.len(), 2);
        s.catch_up(0.5);
        assert_eq!(s.times.len(), 2 + 11);
        let setup_s = s.finish();
        assert!((0.002..0.02).contains(&setup_s), "{setup_s}");

        assert_eq!(setup_target(0.3), SETUPS_MIN);
        assert_eq!(setup_target(0.1), 15);

        // Traced: one set-up, nothing more.
        let traced = Args {
            trace: true,
            ..untraced
        };
        let mut made = 0;
        let (mut s, ()) = Setups::start(&traced, || (), |()| made += 1);
        s.catch_up(1.0);
        s.finish();
        assert_eq!(made, 1);
    }
}
