//! The PASS benchmark: one command that runs a workload, checks every
//! answer, and prints its metrics.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-1d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload's layer replays under spans and prints the per-layer metrics.
//! The last line of standard output is the result object; the report
//! goes to standard error. See `perfbench/README.md`.

mod check;
mod replay;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use check::Checker;
use report::{result_json, stamp, Metrics};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["batch-1d", "serve-1d", "kd-sharded-6d", "ingest-1d"];

/// Per-layer metrics of the traced run, with units. Every traced run
/// prints all of them, as the benchmark's result format asks; one the
/// workload does not measure (its layer is not on the workload's path)
/// reads 0, and the report names those. `perfbench/README.md` lists
/// which workload measures which.
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("table.sort_s", "s"),
    ("partition.adp_s", "s"),
    ("partition.kd_s", "s"),
    ("core.tree_s", "s"),
    ("sampling.draw_s", "s"),
    ("sampling.arena_s", "s"),
    ("sharded.build_s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("core.mcf_ns", "ns"),
    ("core.mcf_visited", "count"),
    ("core.mcf_partial", "count"),
    ("core.exact_frac", "frac"),
    ("core.bounds_ns", "ns"),
    ("sampling.kernel_ns", "ns"),
    ("sampling.rows_scanned", "count"),
    ("core.estimate_ns", "ns"),
    ("cache.hit_rate", "frac"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_overhead_ns", "ns"),
    ("cache.invalidations", "count"),
    ("session.handle_ns", "ns"),
    ("pool.speedup", "ratio"),
    ("sharded.merge_ns", "ns"),
    ("serve.rtt_us", "us"),
    ("serve.max_rate_qps", "1/s"),
    ("serve.batch_size", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.generator_late_us", "us"),
    ("update.insert_ns", "ns"),
    ("update.delete_ns", "ns"),
    ("update.arena_rebuild_ns", "ns"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.dropped", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The default workload seed (9001 is the held-out one; see the
    /// README).
    pub const DEFAULT_SEED: u64 = 1;

    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: Self::DEFAULT_SEED,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?.max(1),
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got `{}`",
                args.workload
            ));
        }
        Ok(args)
    }

    pub fn measure(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What a workload hands back: its checks, and either its end-to-end
/// metrics (untraced) or its per-layer values (traced).
#[derive(Debug, Default)]
pub struct Outcome {
    pub check: Checker,
    pub end_to_end: Metrics,
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        stamp(&args.workload, args.seed, args.seconds, args.trace)
    );
    let mut out = Outcome::default();
    workloads::run(&args, &mut out);

    let metrics = if args.trace {
        let mut m = Metrics::default();
        let mut unmeasured = Vec::new();
        for (name, unit) in LAYER_METRICS {
            let value = out.layers.get(name).copied().unwrap_or_else(|| {
                unmeasured.push(name);
                0.0
            });
            m.add(name, value, unit);
        }
        out.note(format!(
            "not measured by {} (printed as 0): {}",
            args.workload,
            unmeasured.join(", ")
        ));
        m
    } else {
        std::mem::take(&mut out.end_to_end)
    };
    for name in metrics.non_finite() {
        out.check
            .fail(|| format!("metric {name} is not a finite number"));
    }
    for line in &out.notes {
        eprintln!("{line}");
    }
    for m in &metrics.0 {
        eprintln!("  {:<26} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for reason in out.check.failures() {
        eprintln!("FAILED CHECK: {reason}");
    }
    let correct = out.check.failed == 0;
    eprintln!(
        "{}: attempted {}, failed {}",
        args.workload, out.check.attempted, out.check.failed
    );
    println!(
        "{}",
        result_json(
            correct,
            out.check.attempted.max(1),
            out.check.failed,
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "serve-1d",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-1d", 7, 3, true)
        );
        let d = parse(&["--workload", "batch-1d"]).unwrap();
        assert_eq!((d.seed, d.trace), (Args::DEFAULT_SEED, false));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "batch-1d", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "batch-1d", "--seed"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn layer_metric_names_are_unique() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
    }
}
