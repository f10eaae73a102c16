//! The two workloads. Each stands its deployment up several times
//! (set-up time is the median), runs a sequential correctness gate on the
//! last one, then its load phases. A traced run stands up once, runs the
//! main latency phase untraced and traced in alternating slices, and
//! probes every layer.

use crate::client::{BinaryClient, HttpClient};
use crate::inputs::{self, derive, Bank};
use crate::layers::{self, ProbeInputs};
use crate::loadgen::{self, Mode, Outcome, Phase};
use crate::serve::{self, request, BinarySender, EngineSender, Gate, JsonSender, Served};
use crate::spans::SpanLog;
use crate::stats::{median_of, Samples};
use crate::{Report, Res, Run};
use spinamm_core::amm::Fidelity;
use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
use spinamm_server::api::ApiRecallResponse;
use spinamm_telemetry::MemoryRecorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry name of each workload's tenant.
const TENANT: &str = "bench";
/// Engine sizing of every tenant: two workers over compiled plans.
pub const ENGINE_OPTS: &str = "\"workers\":2,\"use_plans\":true";

/// `face-serve`: open-loop binary rate, requests/s.
pub const FACE_OPEN_RATE: f64 = 2_000.0;
/// `face-serve`: saturation/open-loop rounds.
const ROUNDS: usize = 5;
/// `face-serve`: ladder rungs, requests/s.
pub const FACE_LADDER: [f64; 4] = [2_500.0, 5_000.0, 7_500.0, 10_000.0];
/// `face-serve`: the ladder's p99 limit, µs.
pub const FACE_P99_LIMIT_US: f64 = 5_000.0;
/// `face-serve`: paced JSON keep-alive rate over two connections,
/// requests/s.
pub const FACE_JSON_RATE: f64 = 40.0;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.05))
}

/// The `q` percentile of `samples`, or an error when the samples cannot
/// report it.
fn p(samples: &mut Samples, q: f64) -> Res<f64> {
    samples
        .percentile(q)
        .ok_or_else(|| format!("{} samples cannot report the {q} percentile", samples.len()).into())
}

/// Adds a reader-only percentile, or a note when the samples cannot
/// report it.
fn extra_percentile(report: &mut Report, name: &str, samples: &mut Samples, q: f64) {
    match p(samples, q) {
        Ok(v) => report.extra.add(name, v, "us"),
        Err(e) => report.note(format!("{name}: {e}")),
    }
}

/// The latency figure of a set of slices: the median, over every window
/// of every slice, of the window's `q` percentile. A host stall that
/// spoils fewer than half of the windows does not move it.
///
/// # Errors
///
/// When no window can report `q`.
fn latency_figure(slices: &[Phase], q: f64) -> Res<f64> {
    let values: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.window_percentiles(q))
        .collect();
    if values.is_empty() {
        return Err(format!("no time window can report the {q} latency percentile").into());
    }
    Ok(median_of(&values))
}

/// The throughput figure of a set of closed-loop slices: the median over
/// ten windows per slice of completed recalls per second.
///
/// # Errors
///
/// When no request succeeded.
fn rate_figure(slices: &[Phase]) -> Res<f64> {
    if slices.iter().all(|s| s.succeeded == 0) {
        return Err("no request of the closed loop succeeded".into());
    }
    let values: Vec<f64> = slices.iter().flat_map(|s| s.window_rates(10)).collect();
    Ok(median_of(&values))
}

/// Adds the gated latency and throughput figures of the main phases, and
/// the whole-phase percentiles beside them for the reader.
fn load_figures(report: &mut Report, open: &[Phase], closed: &[Phase]) -> Res<()> {
    report
        .metrics
        .add("p50_us", latency_figure(open, 0.5)?, "us");
    report
        .metrics
        .add("p90_us", latency_figure(open, 0.9)?, "us");
    match latency_figure(open, 0.99) {
        Ok(v) => report.extra.add("p99_us", v, "us"),
        Err(e) => report.note(format!("p99_us: {e}")),
    }
    report
        .metrics
        .add("saturation_qps", rate_figure(closed)?, "1/s");
    let mut whole = Samples::default();
    for slice in open {
        whole.extend(&slice.latencies());
    }
    extra_percentile(report, "p50_us_whole_phase", &mut whole, 0.5);
    extra_percentile(report, "p90_us_whole_phase", &mut whole, 0.9);
    extra_percentile(report, "p99_us_whole_phase", &mut whole, 0.99);
    Ok(())
}

/// Folds slices into one phase for the accounting report.
fn merged(slices: Vec<Phase>) -> Phase {
    slices.into_iter().fold(Phase::default(), |mut all, s| {
        all.absorb(s);
        all
    })
}

/// Times `setups` stand-ups and keeps the last.
fn stand_up_times<T>(
    setups: usize,
    mut stand_up: impl FnMut() -> Res<T>,
    mut tear_down: impl FnMut(T),
) -> Res<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        last = Some(stand_up()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    println!("setup times (s): {}", shown.join(" "));
    Ok((last.ok_or("no set-up ran")?, median_of(&times)))
}

/// What every workload reports from its sequential gate.
fn gate_metrics(report: &mut Report, gate: Gate) {
    report.metrics.add("accuracy", gate.accuracy(), "ratio");
    report.metrics.add("sim_energy_pj", gate.energy_pj(), "pJ");
    report.correct &= gate.passed();
    report.phase("gate", gate.phase);
}

/// Serves the gate over one binary connection.
fn served_gate(
    served: &Served,
    reference: &mut Deployment,
    queries: &[(usize, Vec<u32>)],
) -> Res<Gate> {
    let mut client = BinaryClient::connect(served.addr)?;
    serve::gate(
        |q| client.recall(&request(&served.tenant, q)),
        &served.tenant,
        reference,
        queries,
    )
}

/// A stood-up server tenant with its bank and data-generation time.
struct Stood {
    bank: Bank,
    served: Served,
    generate_ms: f64,
}

/// Generates the bank, then registers it as a flat tenant on a new server.
fn stand_up_tenant(make: impl Fn() -> Res<Bank>) -> Res<Stood> {
    let started = Instant::now();
    let bank = make()?;
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let doc = inputs::registration(TENANT, "flat", &bank, ENGINE_OPTS);
    let served = Served::stand_up(&doc, TENANT, &bank.queries[0].1)?;
    Ok(Stood {
        bank,
        served,
        generate_ms,
    })
}

/// The reference deployment with the stand-up query already replayed, so
/// its state matches the tenant's before the gate.
fn mirrored_reference(
    spec: &spinamm_server::registry::DeploymentSpec,
    first: &[u32],
) -> Res<Deployment> {
    let mut reference = serve::reference(spec)?;
    reference.recall(first)?;
    Ok(reference)
}

/// Untraced and traced slices of the main latency phase, alternating.
/// Returns (untraced, traced) phases and the traced spans.
fn alternate(
    slices: usize,
    mut run_slice: impl FnMut(Option<SpanLog>) -> Res<(Phase, Option<SpanLog>)>,
    origin: Instant,
) -> Res<(Phase, Phase, SpanLog)> {
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let mut log = SpanLog::new(origin);
    for i in 0..slices {
        if i % 2 == 0 {
            plain.absorb(run_slice(None)?.0);
        } else {
            let (phase, spans) = run_slice(Some(SpanLog::new(origin)))?;
            traced.absorb(phase);
            if let Some(spans) = spans {
                log.absorb(spans);
            }
        }
    }
    Ok((plain, traced, log))
}

/// Adds the harness figures of a traced run.
fn harness_metrics(
    report: &mut Report,
    plain: &Phase,
    traced: &Phase,
    layers_sum_us: f64,
) -> Res<()> {
    let base_p50 = p(&mut plain.latencies(), 0.5)?;
    let traced_p50 = p(&mut traced.latencies(), 0.5)?;
    let mut lags = plain.lags();
    lags.extend(&traced.lags());
    report
        .metrics
        .add("attribution.closure", layers_sum_us / base_p50, "ratio");
    report
        .metrics
        .add("trace.overhead_ratio", traced_p50 / base_p50, "ratio");
    report
        .metrics
        .add("loadgen.lag_p99_us", p(&mut lags, 0.99)?, "us");
    report.extra.add("e2e_untraced_p50_us", base_p50, "us");
    Ok(())
}

/// The capacity pool the traced run probes: 10⁴ synthetic templates of
/// 128 five-bit elements.
fn pool_bank(seed: u64) -> Res<Bank> {
    Ok(inputs::patterns(derive(seed, 4), 10_000, 40)?)
}

fn probe_into(report: &mut Report, log: &mut SpanLog, inputs: &ProbeInputs<'_>) -> Res<f64> {
    let (metrics, sum_us) = layers::probe(log, inputs)?;
    report.metrics.extend(metrics);
    Ok(sum_us)
}

// ------------------------------------------------------------ face-serve

/// `face-serve`: the paper's 128×40 face AMM served over loopback.
///
/// # Errors
///
/// Set-up, transport or probe failures.
pub fn face_serve(run: &Run) -> Res<Report> {
    let mut report = Report::default();
    let make = || Ok(inputs::faces(run.seed, Fidelity::Driven)?);
    let setups = if run.trace { 1 } else { 5 };
    let (stood, setup_s) = stand_up_times(setups, || stand_up_tenant(make), |s| s.served.stop())?;
    let Stood {
        bank,
        served,
        generate_ms,
    } = stood;
    let mut reference = mirrored_reference(&bank.flat_spec(), &bank.queries[0].1)?;
    gate_metrics(
        &mut report,
        served_gate(&served, &mut reference, &bank.queries)?,
    );
    let queries = &bank.queries[..];
    let binary = |spans| BinarySender::connect(served.addr, TENANT, queries, spans);
    let s = run.seconds;

    // Warm-up: counted as attempted, not timed.
    report.gated_phase(
        "warmup",
        loadgen::run(
            &mut [binary(None)?, binary(None)?],
            Mode::Closed,
            secs(0.03 * s),
        ),
    );

    if run.trace {
        let origin = Instant::now();
        let (plain, traced, mut log) = alternate(
            4,
            |spans| {
                let mut senders = [binary(spans)?];
                let phase = loadgen::run(
                    &mut senders,
                    Mode::Open {
                        rate: FACE_OPEN_RATE,
                    },
                    secs(0.15 * s),
                );
                let [sender] = senders;
                Ok((phase, sender.spans))
            },
            origin,
        )?;
        let pool = pool_bank(run.seed)?;
        let sum = probe_into(
            &mut report,
            &mut log,
            &ProbeInputs {
                bank: &bank,
                pool: &pool,
                served: &served,
                faces: &bank,
                generate_ms,
            },
        )?;
        harness_metrics(&mut report, &plain, &traced, sum)?;
        report.gated_phase("open_untraced", plain);
        report.gated_phase("open_traced", traced);
        report.spans = Some(log);
        served.stop();
        return Ok(report);
    }

    // Saturation and the open loop alternate in rounds, so a stretch of
    // host contention lands on a few windows of each, not on one phase.
    let mut closed_slices = Vec::new();
    let mut open_slices = Vec::new();
    for _ in 0..ROUNDS {
        closed_slices.push(loadgen::run(
            &mut [binary(None)?, binary(None)?],
            Mode::Closed,
            secs(0.2 * s / ROUNDS as f64),
        ));
        open_slices.push(loadgen::run(
            &mut [binary(None)?],
            Mode::Open {
                rate: FACE_OPEN_RATE,
            },
            secs(0.3 * s / ROUNDS as f64),
        ));
    }
    let rung_s = 0.1 * s / FACE_LADDER.len() as f64;
    let mut ladder_phase = Phase::default();
    let (max_rate, rungs) = loadgen::ladder(&FACE_LADDER, FACE_P99_LIMIT_US, |rate| {
        let phase = match binary(None) {
            Ok(sender) => loadgen::run(&mut [sender], Mode::Open { rate }, secs(rung_s)),
            Err(e) => {
                let mut failed = Phase::default();
                failed.record(Outcome::Failed(e.to_string()));
                failed
            }
        };
        ladder_phase.absorb(phase.clone());
        phase
    });
    // JSON keep-alive: back-to-back on two connections (a client that
    // sends its next call as soon as the reply lands), then paced open
    // loop at a low fixed rate.
    let json_senders = || -> Res<[JsonSender<'_>; 2]> {
        Ok([
            JsonSender::connect(served.addr, TENANT, queries)?,
            JsonSender::connect(served.addr, TENANT, queries)?,
        ])
    };
    let json_phase = loadgen::run(&mut json_senders()?, Mode::Closed, secs(0.27 * s));
    let paced_phase = loadgen::run(
        &mut json_senders()?,
        Mode::Open {
            rate: FACE_JSON_RATE,
        },
        secs(0.1 * s),
    );

    report.metrics.add("setup_s", setup_s, "s");
    load_figures(&mut report, &open_slices, &closed_slices)?;
    let saturation = merged(closed_slices);
    let open_phase = merged(open_slices);
    let mut json_lat = json_phase.latencies();
    extra_percentile(&mut report, "json_p50_us", &mut json_lat, 0.5);
    extra_percentile(&mut report, "json_p95_us", &mut json_lat, 0.95);
    report
        .extra
        .add("json_samples", json_lat.len() as f64, "count");
    extra_percentile(
        &mut report,
        "json_paced_p50_us",
        &mut paced_phase.latencies(),
        0.5,
    );
    report
        .extra
        .add("open_samples", open_phase.latencies().len() as f64, "count");
    report
        .extra
        .add("max_rate_qps", max_rate.unwrap_or(0.0), "1/s");
    for rung in &rungs {
        report.note(format!(
            "ladder rate={} p99_us={:?} tail_lag_us={:.1} lost={} passed={}",
            rung.rate, rung.p99_us, rung.tail_lag_us, rung.lost, rung.passed
        ));
    }
    extra_percentile(&mut report, "lag_p99_us", &mut open_phase.lags(), 0.99);
    report.gated_phase("saturation", saturation);
    report.gated_phase("open_binary", open_phase);
    // The ladder is judged by its stop rule: a rung that loses requests
    // ends the climb without failing the run.
    report.phase("ladder", ladder_phase);
    report.gated_phase("json_keepalive", json_phase);
    report.gated_phase("json_paced", paced_phase);
    scrape_rejections(&mut report, &served)?;
    served.stop();
    Ok(report)
}

fn scrape_rejections(report: &mut Report, served: &Served) -> Res<()> {
    let doc = HttpClient::connect(served.addr)?.json("GET", "/metrics", "")?;
    for (kind, n) in serve::rejected_counters(&doc) {
        report
            .extra
            .add(&format!("server.rejected.{kind}"), n as f64, "count");
    }
    Ok(())
}

// ------------------------------------------------------- parasitic-batch

/// `parasitic-batch`: the face AMM at parasitic fidelity through an
/// in-process engine, closed loop.
///
/// # Errors
///
/// Set-up, recall or probe failures.
pub fn parasitic_batch(run: &Run) -> Res<Report> {
    let mut report = Report::default();
    let config = EngineConfig::builder().workers(2).use_plans(true).build();
    let setups = if run.trace { 1 } else { 5 };
    let stand_up = || -> Res<(Bank, RecallEngine, f64)> {
        let started = Instant::now();
        let bank = inputs::faces(run.seed, Fidelity::Parasitic)?;
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        let deployment = serve::reference(&bank.flat_spec())?;
        let engine =
            RecallEngine::with_recorder(deployment, &config, Arc::new(MemoryRecorder::default()));
        engine.submit(&bank.queries[0].1)?.wait()?;
        Ok((bank, engine, generate_ms))
    };
    let ((bank, engine, generate_ms), setup_s) =
        stand_up_times(setups, stand_up, |(_, engine, _)| engine.shutdown())?;
    let mut reference = mirrored_reference(&bank.flat_spec(), &bank.queries[0].1)?;
    let gate = serve::gate(
        |q| {
            engine
                .submit(q)
                .and_then(spinamm_engine::Ticket::wait)
                .map(|r| ApiRecallResponse::from_engine(TENANT, &r))
                .map_err(|e| crate::client::Failure::Broken(e.to_string()))
        },
        TENANT,
        &mut reference,
        &bank.queries,
    )?;
    gate_metrics(&mut report, gate);
    drop(reference);
    let queries = &bank.queries[..];
    let s = run.seconds;

    if run.trace {
        let origin = Instant::now();
        let (plain, traced, mut log) = alternate(
            4,
            |spans| {
                let mut senders = [
                    EngineSender::new(&engine, queries, spans),
                    EngineSender::new(&engine, queries, None),
                ];
                let phase = loadgen::run(&mut senders, Mode::Closed, secs(0.2 * s));
                let [first, _] = senders;
                Ok((phase, first.spans))
            },
            origin,
        )?;
        engine.shutdown();
        // The server is not on this workload's path; its probes run on a
        // tenant built from the same spec.
        let doc = inputs::registration(TENANT, "flat", &bank, ENGINE_OPTS);
        let served = Served::stand_up(&doc, TENANT, &bank.queries[0].1)?;
        let pool = pool_bank(run.seed)?;
        probe_into(
            &mut report,
            &mut log,
            &ProbeInputs {
                bank: &bank,
                pool: &pool,
                served: &served,
                faces: &bank,
                generate_ms,
            },
        )?;
        // The engine is the outermost layer here: closure is the engine's
        // submit/wait over the end-to-end completion latency.
        let wait_us = report
            .metrics
            .get("engine.submit_wait_us")
            .ok_or("engine probe missing")?;
        harness_metrics(&mut report, &plain, &traced, wait_us)?;
        report.gated_phase("closed_untraced", plain);
        report.gated_phase("closed_traced", traced);
        report.spans = Some(log);
        served.stop();
        return Ok(report);
    }

    let mut senders = [
        EngineSender::new(&engine, queries, None),
        EngineSender::new(&engine, queries, None),
    ];
    let closed = loadgen::run(&mut senders, Mode::Closed, secs(0.97 * s));
    engine.shutdown();
    report.metrics.add("setup_s", setup_s, "s");
    let closed = [closed];
    load_figures(&mut report, &closed, &closed)?;
    let [closed] = closed;
    report.gated_phase("closed", closed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_of(outcomes: impl IntoIterator<Item = Outcome>) -> Phase {
        let mut phase = Phase::default();
        for outcome in outcomes {
            phase.record(outcome);
        }
        phase
    }

    #[test]
    fn a_phase_of_failed_requests_reports_no_figure_and_fails_the_run() {
        let failed = phase_of((0..500).map(|i| Outcome::Failed(format!("dropped {i}"))));
        let slices = [failed.clone()];
        assert!(latency_figure(&slices, 0.5).is_err());
        assert!(latency_figure(&slices, 0.9).is_err());
        assert!(rate_figure(&slices).is_err());
        let mut report = Report::default();
        assert!(load_figures(&mut report, &slices, &slices).is_err());
        report.gated_phase("open_binary", failed);
        assert!(!report.correct);
    }

    #[test]
    fn one_refusal_in_a_gated_phase_fails_the_run() {
        let mut outcomes: Vec<Outcome> = (0..999).map(|_| Outcome::Ok).collect();
        outcomes.push(Outcome::Refused("queue_full".to_owned()));
        let mut report = Report::default();
        report.gated_phase("saturation", phase_of(outcomes.clone()));
        assert!(!report.correct);
        // The ladder's losses are judged by its stop rule instead.
        let mut report = Report::default();
        report.phase("ladder", phase_of(outcomes));
        report.gated_phase("open_binary", phase_of([Outcome::Ok]));
        assert!(report.correct);
    }
}
