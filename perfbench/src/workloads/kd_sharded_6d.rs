//! `kd-sharded-6d`: one closed-loop caller sends batches of 64 template
//! queries through `SessionHandle::estimate_many` against KD-PASS split
//! into two row-range shards of a 500k-row 6-D taxi table. Each query
//! touches dozens of partial leaves, so the mask-scan kernel dominates;
//! shard merge is on the path and the sorted 1-D fast path is off. The
//! traced run times `estimate_many_parallel` on a 2-thread pool against
//! it.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use pass::baselines::ShardedSynopsis;
use pass::common::rng::derive_seed;
use pass::common::{
    AggKind, CachedSynopsis, EngineSpec, Estimate, PartialEstimate, PassSpec, Query, Result,
    ShardPlan, Synopsis, ThreadPool,
};
use pass::core::Pass;
use pass::table::datasets::taxi;
use pass::table::Table;
use pass::workload::template_queries;
use pass::{Session, DEFAULT_CACHE_CAPACITY};

use super::{
    check_scanned, end_to_end, finish_trace, overhead, per_item, progress, slicer, us, Setups,
};
use crate::check::Bounds;
use crate::replay::{self, PathCounts, QueryPath};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const ROWS: usize = 500_000;
const SHARDS: usize = 2;
const BATCH: usize = 64;
/// Distinct queries: more than the cache holds, so every lookup misses.
const POOL: usize = 3 * 2048;
/// Pool queries checked against exact truth (a 6-D scan per query, made
/// before the timed loop on both cores).
const TRUTH: usize = 3072;

fn spec(seed: u64) -> PassSpec {
    PassSpec {
        partitions: 512,
        sample_rate: 0.01,
        seed: derive_seed(seed, 0xD6),
        ..PassSpec::default()
    }
}

/// Rows of the 1-in-`SUBSAMPLE_STEP` subsample a pool query must match.
const MIN_SUBSAMPLE_MATCHES: usize = 20;
const SUBSAMPLE_STEP: usize = 50;

/// COUNT/SUM/AVG template queries, interleaved and distinct, each
/// matching at least `MIN_SUBSAMPLE_MATCHES` rows of a fixed 1-in-50 row
/// subsample (about 0.2% of the table). Six independent per-dimension
/// spans can select nothing at all, which leaves relative error
/// undefined; a query that matches rows of the subsample never does.
fn template_pool(table: &Table, seed: u64) -> Vec<Query> {
    let subsample: Vec<Vec<f64>> = (0..table.n_rows())
        .step_by(SUBSAMPLE_STEP)
        .map(|i| table.point(i))
        .collect();
    let selective_enough = |q: &Query| {
        let matches = subsample
            .iter()
            .filter(|p| {
                p.iter()
                    .enumerate()
                    .all(|(d, &x)| q.rect.lo(d) <= x && x <= q.rect.hi(d))
            })
            .count();
        matches >= MIN_SUBSAMPLE_MATCHES
    };
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL);
    let mut round = 0u64;
    while pool.len() < POOL {
        let per_agg: Vec<Vec<Query>> = [AggKind::Count, AggKind::Sum, AggKind::Avg]
            .iter()
            .enumerate()
            .map(|(a, &agg)| {
                template_queries(
                    table,
                    POOL / 3,
                    agg,
                    derive_seed(seed, round * 3 + a as u64),
                )
            })
            .collect();
        for i in 0..POOL / 3 {
            for q in per_agg.iter().map(|queries| &queries[i]) {
                let key: Vec<u64> = (0..q.dims())
                    .flat_map(|d| [q.rect.lo(d).to_bits(), q.rect.hi(d).to_bits()])
                    .chain([q.agg as u64])
                    .collect();
                if pool.len() < POOL && selective_enough(q) && seen.insert(key) {
                    pool.push(q.clone());
                }
            }
        }
        round += 1;
    }
    pool
}

pub fn run(args: &Args, out: &mut Outcome) {
    let table = taxi(ROWS, derive_seed(args.seed, 1));
    let pool = template_pool(&table, derive_seed(args.seed, 2));
    let spec = spec(args.seed);
    let plan = ShardPlan::row_range(SHARDS);
    let inner = EngineSpec::Pass(spec.clone());
    let (mut setups, session) = Setups::start(
        args,
        || table.clone(),
        |t| {
            let mut session = Session::new(t);
            session
                .add_sharded_engine("kd", &inner, &plan)
                .expect("sharded KD-PASS builds over the taxi table");
            session
        },
    );
    let handle = session.handle("kd").expect("engine registered");
    let bare = handle.synopsis();
    let direct: Vec<Result<Estimate>> = pool.iter().map(|q| bare.estimate(q)).collect();
    let truth = exact_answers(&table, &pool[..TRUTH]);
    // The fast scan must agree with the table's own oracle.
    for (q, t) in pool.iter().zip(&truth).take(8) {
        out.check.attempted += 1;
        if table.ground_truth(q).map(f64::to_bits) != t.map(f64::to_bits) {
            out.check.fail(|| {
                format!(
                    "{q:?}: truth scan {t:?} vs Table::ground_truth {:?}",
                    table.ground_truth(q)
                )
            });
        }
    }
    let threads = ThreadPool::new(2);
    let batches = pool.len() / BATCH;

    if args.trace {
        let ctx = Ctx {
            args,
            table: &table,
            spec: &spec,
            plan: &plan,
            pool: &pool,
            direct: &direct,
        };
        return traced(ctx, out, &session, &threads);
    }

    // The timed loop is sequential: on a 2-vCPU guest the second vCPU is
    // at times taken by other tenants for tens of seconds, and a 2-thread
    // pool then runs at the one-thread rate, which would make the figures
    // measure the neighbours. The pool is timed in the traced run
    // (`pool.speedup`), and its answers are checked here.
    for b in batches - 4..batches {
        handle.estimate_many(&pool[b * BATCH..(b + 1) * BATCH]);
    }
    let mut slices = slicer(args);
    let mut busy = Duration::ZERO;
    let wall = Instant::now();
    let mut b = 0;
    while busy < args.measure() && wall.elapsed() < 3 * args.measure() {
        setups.catch_up(progress(busy, args.measure()));
        let first = b % batches * BATCH;
        let batch = &pool[first..first + BATCH];
        let start = Instant::now();
        let answers = handle.estimate_many(batch);
        let took = start.elapsed();
        busy += took;
        slices.record(took, BATCH as u64, Some(us(took)));
        // Over the first pass through the pool, the pool's answers too.
        let parallel = (b < batches).then(|| handle.estimate_many_parallel(batch, &threads));
        for (k, got) in answers.iter().enumerate() {
            let i = first + k;
            out.check.attempted += 1;
            let same =
                out.check
                    .same_answer("sequential sharded vs direct", &pool[i], got, &direct[i])
                    && parallel.as_ref().is_none_or(|p| {
                        out.check.same_answer(
                            "parallel sharded vs direct",
                            &pool[i],
                            &p[k],
                            &direct[i],
                        )
                    });
            if same && i < TRUTH {
                // The sharded AVG merge bounds a ratio only when every
                // shard bounds its count away from zero.
                let bounds = if pool[i].agg == AggKind::Avg {
                    Bounds::WhenGiven
                } else {
                    Bounds::Required
                };
                out.check
                    .against_truth(&pool[i], got, truth[i], bounds, b < batches);
            }
        }
        b += 1;
    }
    out.note(format!(
        "kd-sharded-6d: {b} batches of {BATCH}, the first {batches} also on {} pool threads; {} checked AVG answers carried no hard bounds",
        threads.threads(),
        out.check.unbounded
    ));
    end_to_end(
        out,
        setups.finish(),
        slices.finish(),
        bare.storage_bytes() as f64,
    );
}

/// Exact COUNT/SUM/AVG of each query by scanning the table, split over
/// two threads. The scan visits matching rows in row order and folds them
/// as `Table::ground_truth` does, so the answers are the same bits; when
/// the first predicate column is sorted (the taxi table is ordered by
/// pickup time) only the rows inside the query's first interval are
/// visited.
fn exact_answers(table: &Table, queries: &[Query]) -> Vec<Option<f64>> {
    let cols: Vec<&[f64]> = (0..table.dims())
        .map(|d| table.predicate_column(d))
        .collect();
    let values = table.values();
    let sorted = cols[0].is_sorted();
    let answer = |q: &Query| {
        let (lo, hi) = (q.rect.lo(0), q.rect.hi(0));
        let range = if sorted {
            cols[0].partition_point(|&x| x < lo)..cols[0].partition_point(|&x| x <= hi)
        } else {
            0..values.len()
        };
        let (mut count, mut sum) = (0u64, 0.0f64);
        for i in range {
            if cols
                .iter()
                .enumerate()
                .all(|(d, c)| q.rect.lo(d) <= c[i] && c[i] <= q.rect.hi(d))
            {
                count += 1;
                sum += values[i];
            }
        }
        match q.agg {
            AggKind::Count => Some(count as f64),
            AggKind::Sum => Some(sum),
            AggKind::Avg => (count > 0).then(|| sum / count as f64),
            AggKind::Min | AggKind::Max => table.ground_truth(q),
        }
    };
    let (front, back) = queries.split_at(queries.len() / 2);
    let scan = |qs: &[Query]| qs.iter().map(answer).collect::<Vec<_>>();
    std::thread::scope(|s| {
        let other = s.spawn(|| scan(back));
        let mut answers = scan(front);
        answers.extend(other.join().expect("truth scan thread"));
        answers
    })
}

struct Ctx<'a> {
    args: &'a Args,
    table: &'a Table,
    spec: &'a PassSpec,
    plan: &'a ShardPlan,
    pool: &'a [Query],
    direct: &'a [Result<Estimate>],
}

fn traced(ctx: Ctx<'_>, out: &mut Outcome, session: &Session, threads: &ThreadPool) {
    let Ctx {
        args,
        table,
        spec,
        plan,
        pool,
        direct,
    } = ctx;
    let mut tr = Tracer::new(super::SPAN_CAPACITY);
    let handle = session.handle("kd").expect("engine registered");
    let inner = EngineSpec::Pass(spec.clone());

    // Shard build through the public sharding layer; it must answer like
    // the session's engine.
    let sharded = tr
        .span("sharded.build", 0, SHARDS as u64, |_| {
            ShardedSynopsis::build(table, &inner, plan)
        })
        .expect("sharded build");
    for (i, q) in pool.iter().enumerate().step_by(97) {
        out.check.attempted += 1;
        out.check.same_answer(
            "rebuilt sharded vs session",
            q,
            &sharded.estimate(q),
            &direct[i],
        );
    }

    // Each shard's build, phase by phase, against `Pass::from_spec` of the
    // same shard table and shard spec.
    let shard_tables = table.split(plan).expect("row-range split");
    let mut shard_passes = Vec::new();
    for (i, shard_table) in shard_tables.iter().enumerate() {
        let EngineSpec::Pass(shard_spec) = ShardedSynopsis::shard_spec(&inner, i) else {
            unreachable!("a PASS spec reseeds to a PASS spec")
        };
        let built = Pass::from_spec(shard_table, &shard_spec).expect("shard builds");
        if let Err(e) = replay::build_kd_phases(&mut tr, shard_table, &shard_spec, &built) {
            out.check.fail(|| format!("shard {i} build replay: {e}"));
        }
        shard_passes.push((built, shard_spec));
    }

    // Tracing overhead on the session call.
    let batches = pool.len() / BATCH;
    let stats_before = handle.cache_stats();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let wall = Instant::now();
    let mut b = 0;
    while wall.elapsed() < args.measure() / 3 {
        let first = b % batches * BATCH;
        let batch = &pool[first..first + BATCH];
        let start = Instant::now();
        let answers = if b % 2 == 0 {
            handle.estimate_many_parallel(batch, threads)
        } else {
            tr.span("trace.overhead_probe", b as u64, BATCH as u64, |_| {
                handle.estimate_many_parallel(batch, threads)
            })
        };
        let took = us(start.elapsed());
        if b % 2 == 0 { &mut plain } else { &mut spanned }.push(took);
        for (k, got) in answers.iter().enumerate() {
            out.check.attempted += 1;
            out.check.same_answer(
                "parallel sharded vs direct",
                &pool[first + k],
                got,
                &direct[first + k],
            );
        }
        b += 1;
    }

    let hit_rate = handle.cache_stats().since(&stats_before).hit_rate();

    // Layers: pool, session, cache, shard merge, and each shard's query
    // path. The session's cache starts empty like the benchmark's own, so
    // both miss alike.
    handle.clear_cache();
    let own = CachedSynopsis::new(&sharded, DEFAULT_CACHE_CAPACITY);
    let mut paths: Vec<QueryPath<'_>> = shard_passes
        .iter()
        .map(|(p, s)| QueryPath::new(p, s))
        .collect();
    let wall = Instant::now();
    let mut b = 0;
    while wall.elapsed() < args.measure() / 2 || b < 16 {
        let first = b % batches * BATCH;
        let batch = &pool[first..first + BATCH];
        let (request, n) = (b as u64, BATCH as u64);
        let sequential = tr.span("pool.sequential", request, n, |_| {
            sharded.estimate_many(batch)
        });
        let parallel = tr.span("pool.parallel", request, n, |_| {
            sharded.estimate_many_parallel(batch, threads)
        });
        let session = tr.span("session.estimate_many", request, n, |_| {
            handle.estimate_many_parallel(batch, threads)
        });
        let missed = tr.span("cache.miss", request, n, |_| {
            own.estimate_many_parallel(batch, threads)
        });
        let hit = tr.span("cache.hit", request, n, |_| {
            own.estimate_many_parallel(batch, threads)
        });
        out.check.attempted += BATCH as u64;
        for (what, answers) in [
            ("sequential sharded vs direct", &sequential),
            ("parallel sharded vs direct", &parallel),
            ("session vs direct", &session),
            ("cached miss vs direct", &missed),
            ("cached hit vs direct", &hit),
        ] {
            for (k, got) in answers.iter().enumerate() {
                out.check
                    .same_answer(what, &pool[first + k], got, &direct[first + k]);
            }
        }
        // The engine's own single-query merge: each shard answers the
        // query's merge decomposition, the parts merge under the
        // availability rule.
        for (k, q) in batch.iter().enumerate() {
            let merged = tr.span("sharded.merge", request, 1, |tr| {
                let parts: Vec<Result<PartialEstimate>> = sharded
                    .shard_engines()
                    .iter()
                    .map(|s| {
                        tr.span("sharded.shard_partial", request, 1, |_| {
                            let sub = PartialEstimate::merge_queries(q);
                            PartialEstimate::assemble_merge(q, sub.iter().map(|m| s.estimate(m)))
                        })
                    })
                    .collect();
                PartialEstimate::merge_available(q.agg, &parts)
            });
            out.check.attempted += 1;
            out.check.same_answer(
                "shard partials merged vs direct",
                q,
                &merged,
                &direct[first + k],
            );
        }
        for (path, (pass, _)) in paths.iter_mut().zip(&shard_passes) {
            let engine = tr.span("core.estimate_many", request, n, |_| {
                pass.estimate_many(batch)
            });
            let scanned = path.run(&mut tr, request, batch);
            for (k, rows) in scanned.into_iter().enumerate() {
                check_scanned(out, &engine[k], rows);
            }
        }
        b += 1;
    }

    let layers = tr.layers();
    let parallel_ns = per_item(&layers, "pool.parallel");
    let miss_ns = per_item(&layers, "cache.miss");
    // Per query, over both shards: the shard engines each see every query.
    out.layer(
        "core.estimate_ns",
        per_item(&layers, "core.estimate_many") * SHARDS as f64,
    );
    out.layer(
        "pool.speedup",
        per_item(&layers, "pool.sequential") / parallel_ns,
    );
    out.layer("sharded.merge_ns", per_item(&layers, "sharded.merge"));
    out.layer("cache.hit_ns", per_item(&layers, "cache.hit"));
    out.layer("cache.miss_overhead_ns", miss_ns - parallel_ns);
    out.layer(
        "session.handle_ns",
        per_item(&layers, "session.estimate_many") - miss_ns,
    );
    out.layer("cache.hit_rate", hit_rate);
    // Each shard's path ran every query: count per query over both shards.
    let mut counts = PathCounts::default();
    for p in &paths {
        counts.add(&p.counts);
    }
    counts.queries = paths[0].counts.queries;
    drop(paths);
    finish_trace(args, out, &tr, &counts, overhead(&plain, &spanned));
    for metric in ["core.mcf_ns", "core.bounds_ns", "sampling.kernel_ns"] {
        if let Some(v) = out.layers.get_mut(metric) {
            *v *= SHARDS as f64;
        }
    }
}
