//! The run's output: a readable report on standard error, a stamp line,
//! and the result object as the last line of standard output.

use std::process::Command;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "metric {name} twice");
        self.0.push(Metric { name, value, unit });
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect()
    }
}

/// The result object a benchmark runner reads: correctness, attempted and failed
/// operations, and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float printed with every digit it has (`{:?}` round-trips);
/// non-finite values become `null`, which the run then reports as failed.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Where and what the run measured: core count, CPU model, compiler,
/// source revision, workload and seed.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line("rustc", &["--version"]);
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}}}}}",
        json_string(workload),
        json_string(&cpu),
        json_string(&rustc),
        json_string(&rev)
    )
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run (no git checkout, say). Waits for the command to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_owned())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.8127, "s");
        m.add("latency_p50_us", 1.25e-3, "us");
        let line = result_json(true, 1000, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_p50_us\": {\"value\": 0.00125, \"unit\": \"us\"}}}"
        );
        m.add("bad", f64::NAN, "s");
        assert_eq!(m.non_finite(), vec!["bad"]);
        assert!(result_json(false, 1, 1, &m).contains("\"bad\": {\"value\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
