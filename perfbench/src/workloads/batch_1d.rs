//! `batch-1d`: one closed-loop client sends batches of 256 distinct
//! intervals through `SessionHandle::estimate_many` over a 1M-row 1-D
//! taxi table. The pool of distinct queries is 16× the cache, so every
//! lookup misses: MCF dominates the query path and the cache only costs.

use std::time::{Duration, Instant};

use pass::common::rng::derive_seed;
use pass::common::{EngineSpec, Estimate, Result, Synopsis};
use pass::core::Pass;
use pass::table::datasets::DatasetId;
use pass::table::SortedTable;
use pass::{Session, DEFAULT_CACHE_CAPACITY};

use super::{
    end_to_end, engine_layers, finish_trace, interval_pool, overhead, pass_1d_spec, progress,
    slicer, us, Setups,
};
use crate::check::Bounds;
use crate::replay;
use crate::trace::Tracer;
use crate::{Args, Outcome};

const ROWS: usize = 1_000_000;
const BATCH: usize = 256;
const POOL: usize = 16 * DEFAULT_CACHE_CAPACITY;

pub fn run(args: &Args, out: &mut Outcome) {
    let table = DatasetId::NycTaxi.generate(ROWS, derive_seed(args.seed, 1));
    let sorted = SortedTable::from_table(&table, 0);
    let pool = interval_pool(&sorted, POOL, ROWS / 100, derive_seed(args.seed, 2));
    let spec = pass_1d_spec(args.seed);
    let (mut setups, session) = Setups::start(
        args,
        || table.clone(),
        |t| {
            let mut session = Session::new(t);
            session
                .add_engine("pass", &EngineSpec::Pass(spec.clone()))
                .expect("PASS builds over the taxi table");
            session
        },
    );
    let handle = session.handle("pass").expect("engine registered");
    let bare = handle.synopsis();
    let truth: Vec<Option<f64>> = pool.iter().map(|q| sorted.ground_truth(q)).collect();
    let direct: Vec<Result<Estimate>> = pool.iter().map(|q| bare.estimate(q)).collect();
    let batches = POOL / BATCH;

    if args.trace {
        return traced(args, out, &table, &spec, &session, &pool, &direct);
    }

    // Warm up on the tail of the pool; the timed loop starts at its head,
    // so the warm-up leaves nothing in the cache the loop could hit.
    for b in batches - 8..batches {
        handle.estimate_many(&pool[b * BATCH..(b + 1) * BATCH]);
    }
    let stats_before = handle.cache_stats();
    let mut slices = slicer(args);
    let mut busy = Duration::ZERO;
    let wall = Instant::now();
    let mut b = 0;
    while busy < args.measure() && wall.elapsed() < 3 * args.measure() {
        setups.catch_up(progress(busy, args.measure()));
        let first = b * BATCH % POOL;
        let batch = &pool[first..first + BATCH];
        let start = Instant::now();
        let answers = handle.estimate_many(batch);
        let took = start.elapsed();
        busy += took;
        slices.record(took, BATCH as u64, Some(us(took)));
        for (k, got) in answers.iter().enumerate() {
            let i = first + k;
            out.check.attempted += 1;
            if out
                .check
                .same_answer("session batch vs direct", &pool[i], got, &direct[i])
            {
                out.check
                    .against_truth(&pool[i], got, truth[i], Bounds::Required, b < batches);
            }
        }
        b += 1;
    }
    let cache = handle.cache_stats().since(&stats_before);
    out.note(format!(
        "batch-1d: {b} batches of {BATCH}, cache hits {} misses {}",
        cache.hits, cache.misses
    ));
    end_to_end(
        out,
        setups.finish(),
        slices.finish(),
        bare.storage_bytes() as f64,
    );
}

fn traced(
    args: &Args,
    out: &mut Outcome,
    table: &pass::table::Table,
    spec: &pass::common::PassSpec,
    session: &Session,
    pool: &[pass::common::Query],
    direct: &[Result<Estimate>],
) {
    let mut tr = Tracer::new(super::SPAN_CAPACITY);
    let handle = session.handle("pass").expect("engine registered");

    // The build, phase by phase, against the synopsis the session serves.
    let built = Pass::from_spec(table, spec).expect("PASS builds");
    if let Err(e) = replay::build_1d(&mut tr, table, spec, &built) {
        out.check.fail(|| format!("build replay: {e}"));
    }
    for (i, q) in pool.iter().enumerate().step_by(61) {
        out.check.attempted += 1;
        out.check.same_answer(
            "from_spec vs session engine",
            q,
            &built.estimate(q),
            &direct[i],
        );
    }

    // Tracing overhead: alternate batches with and without a span around
    // the session call.
    let stats_before = handle.cache_stats();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let wall = Instant::now();
    let mut b = 0;
    while wall.elapsed() < args.measure() / 2 {
        let first = b * BATCH % POOL;
        let batch = &pool[first..first + BATCH];
        let start = Instant::now();
        let answers = if b % 2 == 0 {
            handle.estimate_many(batch)
        } else {
            tr.span("trace.overhead_probe", b as u64, BATCH as u64, |_| {
                handle.estimate_many(batch)
            })
        };
        let took = us(start.elapsed());
        if b % 2 == 0 { &mut plain } else { &mut spanned }.push(took);
        for (k, got) in answers.iter().enumerate() {
            out.check.attempted += 1;
            out.check.same_answer(
                "session batch vs direct",
                &pool[first + k],
                got,
                &direct[first + k],
            );
        }
        b += 1;
    }
    let hit_rate = handle.cache_stats().since(&stats_before).hit_rate();

    // The layers under the session call, batch by batch.
    let counts = engine_layers(
        &mut tr,
        out,
        &handle,
        &built,
        spec,
        pool,
        direct,
        BATCH,
        args.measure() / 2,
    );
    out.layer("cache.hit_rate", hit_rate);
    finish_trace(args, out, &tr, &counts, overhead(&plain, &spanned));
}
