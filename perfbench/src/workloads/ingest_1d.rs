//! `ingest-1d`: one closed-loop client streams `Pass::insert` into a
//! drifting hot key range, deletes its oldest live insert once a window
//! is full, and makes one cached read every 8 writes. Every write bumps
//! the update epoch, which rebuilds the sample arena and empties the
//! cache, so every read misses. Truth comes from a mirror of base +
//! inserts − deletes. A run is whole passes over the same stream, each
//! from a fresh copy of the built engine, and reports the median pass.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pass::common::rng::{derive_seed, rng_from_seed};
use pass::common::{AggKind, CachedSynopsis, Estimate, PassSpec, Query, Result, Synopsis};
use pass::core::Pass;
use pass::sampling::SampleArena;
use pass::table::datasets::DatasetId;
use pass::table::dist::LogNormal;
use pass::table::SortedTable;
use rand::Rng;

use super::{
    check_scanned, end_to_end, finish_trace, interval_pool, overhead, per_item, progress, us,
    Setups,
};
use crate::check::Bounds;
use crate::replay::{self, PathCounts, QueryPath};
use crate::stats::{median, Slicer};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const BASE_ROWS: usize = 200_000;
/// Live inserts kept before each insert also deletes the oldest one.
const WINDOW: usize = 4_096;
/// Writes per cached read.
const WRITES_PER_READ: u64 = 8;
/// In the traced run, one write and one read in this many carry spans.
const SPAN_EVERY: usize = 8;
/// Hot range width, as a share of the key domain.
const HOT_WIDTH: f64 = 0.01;
/// Writes for the hot range to drift across the whole key domain.
const DRIFT_WRITES: f64 = 400_000.0;
/// Writes in one pass over the stream (one drift across the domain). A
/// run makes whole passes from a fresh engine, so it times and checks the
/// same engine states however fast the machine runs: deletes shrink the
/// reservoirs, and CI coverage falls as they do.
const PASS_WRITES: u64 = 400_000;

fn spec(seed: u64) -> PassSpec {
    PassSpec {
        partitions: 64,
        sample_rate: 0.01,
        seed: derive_seed(seed, 0x1A),
        ..PassSpec::default()
    }
}

/// Exact answers over base + live inserts.
struct Mirror {
    base: SortedTable,
    live: VecDeque<(f64, f64)>,
}

impl Mirror {
    fn truth(&self, q: &Query) -> Option<f64> {
        let (lo, hi) = (q.rect.lo(0), q.rect.hi(0));
        let (s, e) = self.base.index_range(lo, hi);
        let (mut count, mut sum) = ((e - s) as u64, self.base.prefix().range_sum(s, e));
        for &(key, value) in &self.live {
            if lo <= key && key <= hi {
                count += 1;
                sum += value;
            }
        }
        match q.agg {
            AggKind::Count => Some(count as f64),
            AggKind::Sum => Some(sum),
            AggKind::Avg => (count > 0).then(|| sum / count as f64),
            AggKind::Min | AggKind::Max => None,
        }
    }
}

/// The write and read stream: keys drift across the domain, values are
/// lognormal trip distances.
struct Stream<'a> {
    rng: rand::rngs::StdRng,
    values: LogNormal,
    lo: f64,
    span: f64,
    writes: u64,
    reads: u64,
    wide: &'a [Query],
}

impl Stream<'_> {
    fn hot_center(&self) -> f64 {
        let phase = (self.writes as f64 / DRIFT_WRITES).fract();
        self.lo + self.span * (HOT_WIDTH + phase * (1.0 - 2.0 * HOT_WIDTH))
    }

    fn next_row(&mut self) -> (f64, f64) {
        let key = self.hot_center() + self.span * HOT_WIDTH * (self.rng.gen::<f64>() - 0.5);
        (key, self.values.sample(&mut self.rng))
    }

    /// Alternately a query around the hot range and a wide one from the
    /// base pool; COUNT, SUM and AVG in turn.
    fn next_read(&mut self) -> Query {
        self.reads += 1;
        let agg = [AggKind::Count, AggKind::Sum, AggKind::Avg][(self.reads % 3) as usize];
        if self.reads.is_multiple_of(2) {
            let half = self.span * HOT_WIDTH * self.rng.gen_range(1.0..3.0);
            let c = self.hot_center();
            Query::interval(agg, c - half, c + half)
        } else {
            let q = &self.wide[self.rng.gen_range(0..self.wide.len())];
            Query::interval(agg, q.rect.lo(0), q.rect.hi(0))
        }
    }
}

/// What the write loop counts and times.
#[derive(Default)]
struct Counts {
    inserts: u64,
    deletes: u64,
    reads: u64,
}

/// Everything one pass over the stream shares with the next.
struct Ingest<'a> {
    sorted: &'a SortedTable,
    built: &'a Pass,
    wide: &'a [Query],
    seed: u64,
    counts: Counts,
    /// Writes per busy second and read latency, one slice per pass.
    slices: Slicer,
    /// Synopsis size every `PASS_WRITES / STORAGE_SAMPLES` writes of the
    /// first pass.
    storage: Vec<f64>,
    /// With tracing on: the spans, the query-path counts, and insert
    /// latencies without and with a span.
    tr: Option<Tracer>,
    path_counts: PathCounts,
    plain: Vec<f64>,
    spanned: Vec<f64>,
}

/// Times the first pass samples the synopsis size.
const STORAGE_SAMPLES: u64 = 100;

pub fn run(args: &Args, out: &mut Outcome) {
    let base = DatasetId::NycTaxi.generate(BASE_ROWS, derive_seed(args.seed, 1));
    let sorted = SortedTable::from_table(&base, 0);
    let spec = spec(args.seed);
    let (mut setups, engine) = Setups::start(
        args,
        || (),
        |()| {
            let pass = Pass::from_spec(&base, &spec).expect("PASS builds");
            CachedSynopsis::new(pass, pass::DEFAULT_CACHE_CAPACITY)
        },
    );
    let built = engine.inner().clone();
    let built_storage = built.storage_bytes();
    let wide = interval_pool(&sorted, 1024, BASE_ROWS / 100, derive_seed(args.seed, 6));
    let mut ing = Ingest {
        sorted: &sorted,
        built: &built,
        wide: &wide,
        seed: args.seed,
        counts: Counts::default(),
        slices: Slicer::per_pass(),
        storage: Vec::new(),
        tr: args.trace.then(|| Tracer::new(super::SPAN_CAPACITY)),
        path_counts: PathCounts::default(),
        plain: Vec::new(),
        spanned: Vec::new(),
    };
    if let Some(tr) = ing.tr.as_mut() {
        if let Err(e) = replay::build_1d(tr, &base, &spec, &built) {
            out.check.fail(|| format!("build replay: {e}"));
        }
    }

    // Passes over the same stream from a fresh copy of the built engine,
    // so every run times the same engine states; as many as fit in the
    // measuring time (the traced run makes one).
    let mut passes = 0;
    let mut busy = Duration::ZERO;
    let mut after = None;
    let wall = Instant::now();
    while passes == 0
        || (!args.trace && busy < args.measure() && wall.elapsed() < 2 * args.measure())
    {
        setups.catch_up(progress(busy, args.measure()));
        let (took, engine) = ing.pass(&spec, passes == 0, out);
        busy += took;
        passes += 1;
        after.get_or_insert(engine);
    }
    let engine = after.expect("at least one pass");
    let c = &ing.counts;
    let storage = ing.storage.iter().sum::<f64>() / ing.storage.len() as f64;
    out.note(format!(
        "ingest-1d: {passes} passes of {PASS_WRITES} writes: {} inserts, {} deletes, {} reads; \
         storage {built_storage} bytes built, {storage:.0} bytes on average over a pass, {} after it",
        c.inserts,
        c.deletes,
        c.reads,
        engine.storage_bytes()
    ));

    match ing.tr.take() {
        None => end_to_end(out, setups.finish(), ing.slices.finish(), storage),
        Some(tr) => {
            let layers = tr.layers();
            for (metric, span) in [
                ("update.insert_ns", "update.insert"),
                ("update.delete_ns", "update.delete"),
                ("update.arena_rebuild_ns", "sampling.arena_rebuild"),
                ("core.estimate_ns", "core.estimate"),
            ] {
                out.layer(metric, per_item(&layers, span));
            }
            out.layer(
                "cache.miss_overhead_ns",
                per_item(&layers, "cache.read") - per_item(&layers, "core.estimate"),
            );
            let stats = engine.cache().stats();
            out.layer("cache.hit_rate", stats.hit_rate());
            out.layer(
                "cache.invalidations",
                (engine.cache().epoch() - built.update_epoch()) as f64,
            );
            out.note(format!(
                "ingest-1d traced: insert median {:.2} us plain vs {:.2} us with spans",
                median(&ing.plain).unwrap_or(f64::NAN),
                median(&ing.spanned).unwrap_or(f64::NAN)
            ));
            let overhead = overhead(&ing.plain, &ing.spanned);
            finish_trace(args, out, &tr, &ing.path_counts, overhead);
        }
    }
}

impl Ingest<'_> {
    /// One pass of `PASS_WRITES` writes from a fresh copy of the built
    /// engine. Every answer is checked; accuracy is recorded on the first
    /// pass only (every pass sees the same stream). Returns the busy time
    /// and the engine as the pass left it.
    fn pass(
        &mut self,
        spec: &PassSpec,
        record: bool,
        out: &mut Outcome,
    ) -> (Duration, CachedSynopsis<Pass>) {
        let mut engine = CachedSynopsis::new(self.built.clone(), pass::DEFAULT_CACHE_CAPACITY);
        let keys = self.sorted.keys();
        let (lo, hi) = (keys[0], keys[keys.len() - 1]);
        let mut stream = Stream {
            rng: rng_from_seed(derive_seed(self.seed, 5)),
            values: LogNormal::new(0.8, 0.7),
            lo,
            span: hi - lo,
            writes: 0,
            reads: 0,
            wide: self.wide,
        };
        let mut mirror = Mirror {
            base: self.sorted.clone(),
            live: VecDeque::with_capacity(WINDOW + 1),
        };
        let mut recent: Vec<Query> = Vec::with_capacity(64);
        let mut busy = Duration::ZERO;
        let mut next_read = WRITES_PER_READ;
        let mut next_storage = PASS_WRITES / STORAGE_SAMPLES;
        let c = &mut self.counts;
        // With tracing on, one insert (and its delete) in `SPAN_EVERY`
        // carries spans, and the insert before it runs bare, for the
        // tracing overhead; so does one read in `SPAN_EVERY`.
        while stream.writes < PASS_WRITES {
            // One write: an insert, plus a delete of the oldest live insert
            // once the window is full.
            let (key, value) = stream.next_row();
            stream.writes += 1;
            let phase = c.inserts as usize % SPAN_EVERY;
            let spans_this = self.tr.is_some() && phase == 1;
            let start = Instant::now();
            let inserted = match self.tr.as_mut().filter(|_| spans_this) {
                Some(tr) => tr.span("update.insert", stream.writes, 1, |_| {
                    engine.inner_mut().insert(&[key], value)
                }),
                None => engine.inner_mut().insert(&[key], value),
            };
            let took = start.elapsed();
            busy += took;
            c.inserts += 1;
            self.slices.record(took, 1, None);
            match (self.tr.is_some(), phase) {
                (true, 0) => self.plain.push(us(took)),
                (true, 1) => self.spanned.push(us(took)),
                _ => {}
            }
            out.check.attempted += 1;
            match inserted {
                Ok(()) => mirror.live.push_back((key, value)),
                Err(e) => out.check.fail(|| format!("insert ({key}, {value}): {e}")),
            }
            if mirror.live.len() > WINDOW && stream.writes < PASS_WRITES {
                let (key, value) = mirror.live.pop_front().expect("window is full");
                stream.writes += 1;
                let start = Instant::now();
                let deleted = match self.tr.as_mut().filter(|_| spans_this) {
                    Some(tr) => tr.span("update.delete", stream.writes, 1, |_| {
                        engine.inner_mut().delete(&[key], value)
                    }),
                    None => engine.inner_mut().delete(&[key], value),
                };
                let took = start.elapsed();
                busy += took;
                c.deletes += 1;
                self.slices.record(took, 1, None);
                out.check.attempted += 1;
                if let Err(e) = deleted {
                    out.check.fail(|| format!("delete ({key}, {value}): {e}"));
                }
            }
            if record && stream.writes >= next_storage {
                next_storage += PASS_WRITES / STORAGE_SAMPLES;
                self.storage.push(engine.storage_bytes() as f64);
            }
            if stream.writes < next_read {
                continue;
            }
            next_read += WRITES_PER_READ;
            // One cached read, checked against the bare engine and the
            // mirror.
            let q = stream.next_read();
            let read_spans = stream.reads % SPAN_EVERY as u64 == 1;
            let start = Instant::now();
            let got = match self.tr.as_mut().filter(|_| read_spans) {
                Some(tr) => tr.span("cache.read", stream.reads, 1, |_| engine.estimate(&q)),
                None => engine.estimate(&q),
            };
            let took = start.elapsed();
            busy += took;
            c.reads += 1;
            self.slices.record(took, 0, Some(us(took)));
            out.check.attempted += 1;
            let direct = match self.tr.as_mut().filter(|_| read_spans) {
                Some(tr) => tr.span("core.estimate", stream.reads, 1, |_| {
                    engine.inner().estimate(&q)
                }),
                None => engine.inner().estimate(&q),
            };
            if out
                .check
                .same_answer("cached read vs direct", &q, &got, &direct)
            {
                out.check
                    .against_truth(&q, &got, mirror.truth(&q), Bounds::Required, record);
            }
            if let Some(tr) = self.tr.as_mut() {
                recent.push(q);
                if recent.len() == 64 {
                    trace_reads(
                        tr,
                        engine.inner(),
                        spec,
                        &recent,
                        stream.reads,
                        &mut self.path_counts,
                        out,
                    );
                    recent.clear();
                }
            }
        }
        self.slices.close();
        final_check(out, &engine, &mirror);
        (busy, engine)
    }
}

/// The query path of the last 64 reads against the engine's current
/// state, plus the arena rebuild every write triggers.
fn trace_reads(
    tr: &mut Tracer,
    pass: &Pass,
    spec: &PassSpec,
    reads: &[Query],
    request: u64,
    counts: &mut PathCounts,
    out: &mut Outcome,
) {
    let arena = tr.span("sampling.arena_rebuild", request, 1, |_| {
        SampleArena::from_samples(pass.leaf_samples())
    });
    std::hint::black_box(arena);
    let mut path = QueryPath::new(pass, spec);
    let scanned = path.run(tr, request, reads);
    for (q, rows) in reads.iter().zip(scanned) {
        check_scanned(out, &pass.estimate(q), rows);
    }
    counts.add(&path.counts);
}

/// After the stream, a whole-domain COUNT and SUM are exact and must equal
/// the mirror's.
fn final_check(out: &mut Outcome, engine: &CachedSynopsis<Pass>, mirror: &Mirror) {
    for agg in [AggKind::Count, AggKind::Sum] {
        let q = Query::interval(agg, f64::MIN, f64::MAX);
        let got: Result<Estimate> = engine.estimate(&q);
        out.check.attempted += 1;
        match (&got, mirror.truth(&q)) {
            (Ok(est), Some(truth))
                if est.exact && (est.value - truth).abs() <= 1e-9 * truth.abs().max(1.0) => {}
            _ => out.check.fail(|| {
                format!(
                    "whole-domain {agg}: {got:?} vs mirror {:?}",
                    mirror.truth(&q)
                )
            }),
        }
    }
}
