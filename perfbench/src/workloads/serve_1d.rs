//! `serve-1d`: open-loop single queries from one generator thread into
//! `Serve` with one worker, in front of the `batch-1d` synopsis saved as
//! a snapshot and loaded as a restarted server would load it. Queries are
//! drawn Zipf-like from 16k distinct intervals, so the cache hits on
//! about half of them. The serve handoff dominates single-query latency.

use std::time::{Duration, Instant};

use pass::baselines::Engine;
use pass::common::rng::{derive_seed, rng_from_seed};
use pass::common::{EngineSpec, Estimate, Query, Result, ServeOutcome, Synopsis};
use pass::core::Pass;
use pass::table::datasets::DatasetId;
use pass::table::dist::Zipf;
use pass::table::{SortedTable, Table};
use pass::{Serve, ServeConfig, Session};

use super::{
    end_to_end, engine_layers, finish_trace, interval_pool, overhead, pass_1d_spec, per_item,
    Setups,
};
use crate::check::Bounds;
use crate::replay;
use crate::schedule::{run_open_loop, Schedule, Trial};
use crate::stats::{quantile, windowed_quantile, SliceSummary, Slicer};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const ROWS: usize = 1_000_000;
/// Distinct queries the stream draws from.
const DISTINCT: usize = 16_384;
/// Zipf exponent of the query stream.
const ZIPF_S: f64 = 0.65;
/// Offered rates, ascending (requests per second).
const LADDER: [f64; 5] = [5_000.0, 20_000.0, 50_000.0, 100_000.0, 200_000.0];
/// The offered rate whose latencies are reported.
const REFERENCE: f64 = 20_000.0;
/// A rung is sustained when its p90 latency stays within this limit, the
/// generator never had to stop for a runaway backlog, and no request was
/// refused, rejected or expired.
const LATENCY_LIMIT_US: f64 = 500.0;
/// Stop sending when the oldest outstanding request is this old.
const ABORT_AFTER: Duration = Duration::from_millis(50);
/// Share of the measuring time spent at the reference rate, in this many
/// trials; the rest measures capacity with `IN_FLIGHT` requests
/// outstanding.
const REFERENCE_SHARE: f64 = 0.6;
const REFERENCE_TRIALS: u32 = 3;
const IN_FLIGHT: usize = 256;
/// Queue deep enough that overload shows as latency, not rejection.
const QUEUE_DEPTH: usize = 1 << 16;

fn config() -> ServeConfig {
    ServeConfig::new()
        .with_workers(1)
        .with_queue_depth(QUEUE_DEPTH)
}

/// Everything the checks compare served answers with.
struct Expect<'a> {
    pool: &'a [Query],
    direct: &'a [Result<Estimate>],
    truth: &'a [Option<f64>],
    seen: Vec<bool>,
}

/// Totals over every trial of a server, for the `ServeStats` cross-check.
#[derive(Debug, Default)]
struct Sent {
    sent: u64,
    done: u64,
    rejected: u64,
    expired: u64,
}

/// The stream of pool indices for one trial.
fn stream(len: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(DISTINCT as u64, ZIPF_S);
    let mut rng = rng_from_seed(seed);
    // Rank 1 is the most popular query; ranks map onto the pool in order.
    (0..len)
        .map(|_| zipf.sample(&mut rng) as usize - 1)
        .collect()
}

/// One open-loop trial at `rate`: send, then check every answer.
#[allow(clippy::too_many_arguments)]
fn trial(
    serve: &Serve,
    rate: f64,
    length: Duration,
    seed: u64,
    expect: &mut Expect<'_>,
    out: &mut Outcome,
    sent: &mut Sent,
    mut tr: Option<&mut Tracer>,
) -> Trial<pass::Ticket> {
    let schedule = Schedule::new(rate, length);
    let picks = stream(schedule.len(), seed);
    let t = run_open_loop(
        &schedule,
        ABORT_AFTER,
        |i| {
            let q = &expect.pool[picks[i]];
            Some(match tr.as_deref_mut() {
                Some(tr) => tr.span("serve.submit", i as u64, 1, |_| serve.submit(q)),
                None => serve.submit(q),
            })
        },
        |ticket| ticket.is_resolved(),
    );
    sent.sent += t.sent as u64;
    for (i, ticket) in &t.completed {
        let p = picks[*i];
        let q = &expect.pool[p];
        out.check.attempted += 1;
        match ticket.wait() {
            ServeOutcome::Done(results) if results.len() == 1 => {
                sent.done += 1;
                if out
                    .check
                    .same_answer("served vs direct", q, &results[0], &expect.direct[p])
                {
                    let first = !std::mem::replace(&mut expect.seen[p], true);
                    out.check.against_truth(
                        q,
                        &results[0],
                        expect.truth[p],
                        Bounds::Required,
                        first,
                    );
                }
            }
            ServeOutcome::Rejected => {
                sent.rejected += 1;
                out.check.fail(|| format!("request rejected at {rate}/s"));
            }
            ServeOutcome::Expired => {
                sent.expired += 1;
                out.check.fail(|| format!("request expired at {rate}/s"));
            }
            other => out
                .check
                .fail(|| format!("request at {rate}/s ended {other:?}")),
        }
    }
    t
}

/// The server's own counters must agree with what the generator saw.
fn cross_check(out: &mut Outcome, stats: &pass::ServeStats, sent: &Sent) {
    let consistent = stats.completed == sent.done
        && stats.rejected == sent.rejected
        && stats.expired == sent.expired
        && stats.completed == sent.sent - sent.rejected - sent.expired;
    if !consistent {
        out.check
            .fail(|| format!("ServeStats {stats:?} disagree with the generator's {sent:?}"));
    }
}

fn late_us(t: &Trial<pass::Ticket>) -> impl Iterator<Item = f64> + '_ {
    t.late_ns.iter().map(|&ns| ns as f64 / 1e3)
}

fn latency_us(t: &Trial<pass::Ticket>) -> impl Iterator<Item = f64> + '_ {
    t.latency_ns.iter().map(|&(_, ns)| ns as f64 / 1e3)
}

/// Build, save, load and start: the set-up a restarted server pays.
fn start(table: Table, spec: &pass::common::PassSpec) -> (Session, Serve, usize) {
    let engine = Engine::build(&table, &EngineSpec::Pass(spec.clone())).expect("PASS builds");
    let mut bytes = Vec::new();
    engine.save(&mut bytes).expect("PASS saves");
    let mut session = Session::new(table);
    session.load_engine("pass", &bytes).expect("snapshot loads");
    let serve = session.serve("pass", config()).expect("engine registered");
    (session, serve, bytes.len())
}

/// What one pass over the ladder saw.
struct Ladder {
    /// Per rung run: every latency (µs, in arrival order) and whether the
    /// rung was sustained.
    rungs: Vec<(Vec<f64>, bool)>,
}

impl Ladder {
    /// The highest rate sustained, with every lower rate sustained too.
    fn max_rate(&self) -> f64 {
        LADDER
            .iter()
            .zip(&self.rungs)
            .take_while(|(_, (_, ok))| *ok)
            .last()
            .map_or(0.0, |(&rate, _)| rate)
    }

    fn report(&self, out: &mut Outcome) {
        for (rate, (lat, ok)) in LADDER.iter().zip(&self.rungs) {
            out.note(format!(
                "  {rate:>8}/s: {:>7} requests  p50 {:>9.1} us  p90 {:>9.1} us  p99 {:>9.1} us  {}",
                lat.len(),
                quantile(lat, 0.5).unwrap_or(f64::NAN),
                quantile(lat, 0.9).unwrap_or(f64::NAN),
                quantile(lat, 0.99).unwrap_or(f64::NAN),
                if *ok { "sustained" } else { "not sustained" }
            ));
        }
        out.note(format!(
            "serve-1d: highest sustained rate {}/s",
            self.max_rate()
        ));
    }
}

/// One ascending pass over the ladder, `length` per rung; the first rung
/// not sustained ends it. Every request is checked like any other.
fn ladder(
    serve: &Serve,
    length: Duration,
    seed: u64,
    expect: &mut Expect<'_>,
    out: &mut Outcome,
    sent: &mut Sent,
) -> Ladder {
    let mut l = Ladder {
        rungs: vec![(Vec::new(), true); LADDER.len()],
    };
    for (r, &rate) in LADDER.iter().enumerate() {
        let t = trial(
            serve,
            rate,
            length,
            derive_seed(seed, r as u64),
            expect,
            out,
            sent,
            None,
        );
        let (lat, ok) = &mut l.rungs[r];
        lat.extend(latency_us(&t));
        *ok = !t.aborted
            && t.refused == 0
            && t.completed.len() == t.sent
            && quantile(lat, 0.9).is_some_and(|p90| p90 <= LATENCY_LIMIT_US);
        if !*ok {
            l.rungs.truncate(r + 1);
            break;
        }
    }
    l
}

/// Completions per second with `IN_FLIGHT` requests kept outstanding —
/// the serving tier's capacity for one client thread — as the median of
/// `SLICES` equal slices of the run.
fn saturate(
    serve: &Serve,
    length: Duration,
    seed: u64,
    expect: &mut Expect<'_>,
    out: &mut Outcome,
    sent: &mut Sent,
) -> SliceSummary {
    let mut slices = Slicer::new(length / super::SLICES);
    let picks = stream(1 << 20, seed);
    let mut outstanding = std::collections::VecDeque::with_capacity(IN_FLIGHT);
    let mut next = 0;
    let start = Instant::now();
    let mut last = start;
    while start.elapsed() < length || !outstanding.is_empty() {
        while outstanding.len() < IN_FLIGHT && start.elapsed() < length {
            let p = picks[next % picks.len()];
            outstanding.push_back((p, serve.submit(&expect.pool[p])));
            next += 1;
            sent.sent += 1;
        }
        let Some((p, ticket)) = outstanding.pop_front() else {
            break;
        };
        let q = &expect.pool[p];
        out.check.attempted += 1;
        // Spin rather than park: the worker then never pays a wake-up to
        // hand back an answer.
        while !ticket.is_resolved() {
            std::hint::spin_loop();
        }
        match ticket.wait() {
            ServeOutcome::Done(r) if r.len() == 1 => {
                sent.done += 1;
                let now = Instant::now();
                slices.record(now - last, 1, None);
                last = now;
                out.check
                    .same_answer("served vs direct", q, &r[0], &expect.direct[p]);
            }
            other => out
                .check
                .fail(|| format!("request under saturation ended {other:?}")),
        }
    }
    slices.finish()
}

pub fn run(args: &Args, out: &mut Outcome) {
    let table = DatasetId::NycTaxi.generate(ROWS, derive_seed(args.seed, 1));
    let sorted = SortedTable::from_table(&table, 0);
    let pool = interval_pool(&sorted, DISTINCT, ROWS / 100, derive_seed(args.seed, 3));
    let spec = pass_1d_spec(args.seed);
    let (mut setups, (session, serve, snapshot_bytes)) =
        Setups::start(args, || table.clone(), |t| start(t, &spec));
    let handle = session.handle("pass").expect("engine registered");
    let direct: Vec<Result<Estimate>> =
        pool.iter().map(|q| handle.synopsis().estimate(q)).collect();
    let truth: Vec<Option<f64>> = pool.iter().map(|q| sorted.ground_truth(q)).collect();
    let mut expect = Expect {
        pool: &pool,
        direct: &direct,
        truth: &truth,
        seen: vec![false; DISTINCT],
    };
    out.note(format!("serve-1d: snapshot {snapshot_bytes} bytes"));

    if args.trace {
        return traced(args, out, &table, &spec, &session, serve, &mut expect);
    }

    // Warm-up: a short trial at the lowest rung, not reported.
    let mut sent = Sent::default();
    let warm = derive_seed(args.seed, 100);
    trial(
        &serve,
        LADDER[0],
        Duration::from_millis(200),
        warm,
        &mut expect,
        out,
        &mut sent,
        None,
    );

    // The reference rate in a few trials, then capacity.
    let stats_before = handle.cache_stats();
    let mut reference = Vec::new();
    let mut late = Vec::new();
    let length = args.measure().mul_f64(REFERENCE_SHARE) / REFERENCE_TRIALS;
    for k in 0..REFERENCE_TRIALS {
        setups.catch_up(REFERENCE_SHARE * f64::from(k) / f64::from(REFERENCE_TRIALS));
        let seed = derive_seed(args.seed, 200 + u64::from(k));
        let t = trial(
            &serve,
            REFERENCE,
            length,
            seed,
            &mut expect,
            out,
            &mut sent,
            None,
        );
        if t.aborted {
            // A stall of the machine, not a failed request: everything sent
            // still completes and is checked, and its latency counts.
            out.note(format!(
                "serve-1d: trial {k} at {REFERENCE}/s stopped sending once its backlog passed {ABORT_AFTER:?}"
            ));
        }
        reference.extend(latency_us(&t));
        late.extend(late_us(&t));
    }
    let hit_rate = handle.cache_stats().since(&stats_before).hit_rate();
    setups.catch_up(REFERENCE_SHARE);
    let capacity = saturate(
        &serve,
        args.measure().mul_f64(1.0 - REFERENCE_SHARE),
        derive_seed(args.seed, 400),
        &mut expect,
        out,
        &mut sent,
    );
    let stats = serve.shutdown();
    cross_check(out, &stats, &sent);
    out.note(format!(
        "serve-1d at {REFERENCE}/s: {} requests, pooled p50 {:.1} us, p90 {:.1} us, p99 {:.1} us; generator p99 late {:.1} us",
        reference.len(),
        quantile(&reference, 0.5).unwrap_or(f64::NAN),
        quantile(&reference, 0.9).unwrap_or(f64::NAN),
        quantile(&reference, 0.99).unwrap_or(f64::NAN),
        quantile(&late, 0.99).unwrap_or(f64::NAN),
    ));
    out.note(format!(
        "serve-1d: cache hit rate {hit_rate:.3}; {:.0} requests/s with {IN_FLIGHT} in flight; {} batches for {} requests",
        capacity.rate_per_s, stats.batches, stats.completed
    ));
    // The median over windows of 20 ms of arrivals.
    let window = (REFERENCE / 50.0) as usize;
    let timing = SliceSummary {
        p50_us: windowed_quantile(&reference, window, 0.5).unwrap_or(f64::NAN),
        p90_us: windowed_quantile(&reference, window, 0.9).unwrap_or(f64::NAN),
        samples: reference.len(),
        ..capacity
    };
    end_to_end(
        out,
        setups.finish(),
        timing,
        handle.synopsis().storage_bytes() as f64,
    );
}

fn traced(
    args: &Args,
    out: &mut Outcome,
    table: &Table,
    spec: &pass::common::PassSpec,
    session: &Session,
    serve: Serve,
    expect: &mut Expect<'_>,
) {
    let mut tr = Tracer::new(super::SPAN_CAPACITY);
    let handle = session.handle("pass").expect("engine registered");

    let built = Pass::from_spec(table, spec).expect("PASS builds");
    if let Err(e) = replay::build_1d(&mut tr, table, spec, &built) {
        out.check.fail(|| format!("build replay: {e}"));
    }
    // Snapshot save and load, a few times each.
    let mut bytes = Vec::new();
    for round in 0..5u64 {
        bytes.clear();
        tr.span("snapshot.save", round, 1, |_| built.save(&mut bytes))
            .expect("PASS saves");
        let loaded = tr
            .span("snapshot.load", round, 1, |_| Engine::load(&bytes))
            .expect("loads");
        for (i, q) in expect.pool.iter().enumerate().step_by(257) {
            out.check.attempted += 1;
            out.check.same_answer(
                "reloaded vs served engine",
                q,
                &loaded.estimate(q),
                &expect.direct[i],
            );
        }
    }
    for (metric, span) in [
        ("snapshot.save_s", "snapshot.save"),
        ("snapshot.load_s", "snapshot.load"),
    ] {
        let l = tr.layers().get(span).copied().unwrap_or_default();
        out.layer(metric, l.self_s() / l.calls.max(1) as f64);
    }

    // One pass over the ladder, then the reference rate without and with a
    // span around every submission.
    let mut sent = Sent::default();
    let stats_before = handle.cache_stats();
    let rung = args.measure() / (4 * LADDER.len()) as u32;
    let l = ladder(
        &serve,
        rung,
        derive_seed(args.seed, 300),
        expect,
        out,
        &mut sent,
    );
    let hit_rate = handle.cache_stats().since(&stats_before).hit_rate();
    let stats_ladder = serve.stats();
    let plain = trial(
        &serve,
        REFERENCE,
        rung,
        derive_seed(args.seed, 301),
        expect,
        out,
        &mut sent,
        None,
    );
    let spanned = trial(
        &serve,
        REFERENCE,
        rung,
        derive_seed(args.seed, 302),
        expect,
        out,
        &mut sent,
        Some(&mut tr),
    );
    let plain_lat: Vec<f64> = latency_us(&plain).collect();
    let spanned_lat: Vec<f64> = latency_us(&spanned).collect();
    l.report(out);

    // One request in flight: submit, then wait.
    let wall = Instant::now();
    let picks = stream(1 << 16, derive_seed(args.seed, 303));
    let mut n = 0;
    while wall.elapsed() < args.measure() / 4 && n < picks.len() {
        let p = picks[n];
        let q = &expect.pool[p];
        let outcome = tr.span("serve.rtt", n as u64, 1, |_| serve.submit(q).wait());
        sent.sent += 1;
        out.check.attempted += 1;
        match outcome {
            ServeOutcome::Done(r) if r.len() == 1 => {
                sent.done += 1;
                out.check
                    .same_answer("served vs direct", q, &r[0], &expect.direct[p]);
            }
            other => out
                .check
                .fail(|| format!("closed-loop request ended {other:?}")),
        }
        n += 1;
    }
    let stats = serve.shutdown();
    cross_check(out, &stats, &sent);

    // The engine's layers over the distinct queries, 256 at a time.
    let counts = engine_layers(
        &mut tr,
        out,
        &handle,
        &built,
        spec,
        expect.pool,
        expect.direct,
        256,
        Duration::ZERO,
    );
    out.layer("cache.hit_rate", hit_rate);
    let layers = tr.layers();
    out.layer("serve.rtt_us", per_item(&layers, "serve.rtt") / 1e3);
    out.layer("serve.max_rate_qps", l.max_rate());
    out.layer(
        "serve.batch_size",
        stats_ladder.completed as f64 / stats_ladder.batches.max(1) as f64,
    );
    out.layer(
        "serve.queue_high_water",
        stats_ladder.queue_high_water as f64,
    );
    out.layer("serve.rejected", stats.rejected as f64);
    out.layer("serve.expired", stats.expired as f64);
    out.layer(
        "serve.generator_late_us",
        quantile(&late_us(&plain).collect::<Vec<_>>(), 0.99).unwrap_or(f64::NAN),
    );
    out.note(format!(
        "serve-1d traced: {} requests at {REFERENCE}/s, p50 {:.1} us plain vs {:.1} us with spans; {n} closed-loop round trips",
        plain_lat.len(),
        quantile(&plain_lat, 0.5).unwrap_or(f64::NAN),
        quantile(&spanned_lat, 0.5).unwrap_or(f64::NAN),
    ));
    finish_trace(args, out, &tr, &counts, overhead(&plain_lat, &spanned_lat));
}
