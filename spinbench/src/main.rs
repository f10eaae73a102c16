//! spinbench: end-to-end and per-layer benchmark of the spinamm stack.
//!
//! ```text
//! spinbench --workload <face-serve|parasitic-batch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each phase's request accounting and every figure by name with
//! its unit, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced (`--trace 0`) or the per-layer metrics traced
//! (`--trace 1`). Exits 1 when a correctness check fails and 2 when the
//! run cannot complete. See `README.md` beside this crate for the
//! workloads and the layer → metric map.

mod client;
mod inputs;
mod layers;
mod loadgen;
mod serve;
mod spans;
mod stats;
mod workloads;

use loadgen::Phase;
use spans::SpanLog;
use spinamm_telemetry::json::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's error type.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The typed refusal kinds the server counts as `server.rejected.<kind>`.
pub const REJECT_KINDS: [&str; 6] = [
    "unknown_tenant",
    "bad_request",
    "over_quota",
    "saturated",
    "queue_full",
    "gone",
];

/// The end-to-end metrics of an untraced run, as `BENCHMARK.json` lists
/// them.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "p50_us",
    "p90_us",
    "saturation_qps",
    "accuracy",
    "sim_energy_pj",
    "peak_rss_mb",
];

/// The per-layer metrics of a traced run, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 37] = [
    "server.wire_encode_ns",
    "server.wire_decode_ns",
    "server.json_codec_ns",
    "server.handle_us",
    "server.transport_binary_us",
    "server.transport_json_us",
    "server.metrics_scrape_ms",
    "server.register_ms",
    "server.rejected.unknown_tenant",
    "server.rejected.bad_request",
    "server.rejected.over_quota",
    "server.rejected.saturated",
    "server.rejected.queue_full",
    "server.rejected.gone",
    "engine.submit_wait_us",
    "engine.self_us",
    "engine.plan_fallbacks",
    "core.plan_execute_us",
    "core.evaluate_us",
    "core.select_us",
    "core.tile_recall_ms",
    "core.top_k_merge_us",
    "core.build_ms",
    "core.tiled_build_s",
    "core.compile_ms",
    "crossbar.parasitic_evaluate_us",
    "crossbar.driven_currents_us",
    "crossbar.warm_iterations_saved",
    "crossbar.factorization_reuses",
    "telemetry.recorded_execute_us",
    "telemetry.recorder_overhead_ratio",
    "telemetry.self_us",
    "telemetry.counter_ns",
    "data.generate_ms",
    "attribution.closure",
    "trace.overhead_ratio",
    "loadgen.lag_p99_us",
];

/// Named figures with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one figure.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// Looks a figure up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Appends every figure of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Keeps exactly the figures named in `wanted`, in that order, and
    /// moves the rest into `rest`. Returns the names that are missing.
    fn select(&mut self, wanted: &[&str], rest: &mut Metrics) -> Vec<String> {
        let mut kept = Vec::new();
        let mut missing = Vec::new();
        for name in wanted {
            match self.0.iter().position(|(n, _, _)| n == name) {
                Some(i) => kept.push(self.0.remove(i)),
                None => missing.push((*name).to_owned()),
            }
        }
        rest.0.append(&mut self.0);
        self.0 = kept;
        missing
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Request accounting per phase, in run order.
    pub phases: Vec<(&'static str, Phase)>,
    /// The figures of the final JSON line.
    pub metrics: Metrics,
    /// Figures printed for the reader only.
    pub extra: Metrics,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Option<SpanLog>,
}

impl Default for Report {
    /// An empty, so far correct, report.
    fn default() -> Self {
        Self {
            correct: true,
            phases: Vec::new(),
            metrics: Metrics::default(),
            extra: Metrics::default(),
            notes: Vec::new(),
            spans: None,
        }
    }
}

impl Report {
    /// Records one phase's accounting.
    pub fn phase(&mut self, name: &'static str, phase: Phase) {
        self.phases.push((name, phase));
    }

    /// Records a timed phase in which every request must be served: one
    /// failed or refused request makes the run incorrect, so a server
    /// that drops load cannot read as a fast one.
    pub fn gated_phase(&mut self, name: &'static str, phase: Phase) {
        let lost = phase.failed + phase.refused_total();
        if lost > 0 {
            self.correct = false;
            self.note(format!(
                "phase {name}: {lost} of {} requests failed or were refused",
                phase.attempted
            ));
        }
        self.phase(name, phase);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value,
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run)
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn render(report: &Report, attempted: u64, failed: u64) -> String {
    let metrics = report
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                JsonValue::object([
                    ("value", JsonValue::Num(*value)),
                    ("unit", JsonValue::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    JsonValue::object([
        ("correct", JsonValue::Bool(report.correct)),
        ("attempted", JsonValue::Uint(attempted)),
        ("failed", JsonValue::Uint(failed)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("spinbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run.workload.as_str() {
        "face-serve" => workloads::face_serve(&run),
        "parasitic-batch" => workloads::parasitic_batch(&run),
        other => Err(format!("unknown workload {other:?}").into()),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("spinbench: {}: {e}", run.workload);
            return ExitCode::from(2);
        }
    };
    if !run.trace {
        match peak_rss_mb() {
            Some(mb) => report.metrics.add("peak_rss_mb", mb, "MB"),
            None => {
                eprintln!("spinbench: cannot read VmHWM");
                return ExitCode::from(2);
            }
        }
    }
    let wanted: &[&str] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let missing = report.metrics.select(wanted, &mut report.extra);
    if !missing.is_empty() {
        eprintln!("spinbench: metrics not measured: {}", missing.join(", "));
        return ExitCode::from(2);
    }
    if let Some(spans) = &report.spans {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.json", run.workload, run.seed));
        match spans.write_json(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("spinbench: writing {}: {e}", path.display()),
        }
    }
    let (mut attempted, mut failed, mut refused) = (0, 0, 0);
    println!(
        "workload {} seed {} seconds {} trace {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    for (name, phase) in &report.phases {
        println!(
            "phase {name}: attempted {} succeeded {} failed {} refused {}{}",
            phase.attempted,
            phase.succeeded,
            phase.failed,
            phase.refused_total(),
            phase
                .first_failure
                .as_ref()
                .map_or(String::new(), |f| format!(" (first failure: {f})"))
        );
        attempted += phase.attempted;
        failed += phase.failed;
        refused += phase.refused_total();
    }
    report.extra.add(
        "failed_ratio",
        (failed + refused) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in report.metrics.0.iter().chain(&report.extra.0) {
        println!("metric {name} = {value} {unit}");
    }
    println!("correct: {}", report.correct);
    println!("{}", render(&report, attempted.max(1), failed + refused));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` (at the repository
    /// root, beside this crate's directory) must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = spinamm_telemetry::json::parse(&doc).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
