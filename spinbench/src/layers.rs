//! Per-layer probes for the traced run.
//!
//! Each probe calls one layer's public entry point from here, one span
//! per call (or per batch of nanosecond-scale calls), and reports the
//! median per-call time. The layers nest inside the program
//! (`RecallService::handle` ⊃ engine `submit`/`wait` ⊃ the plan run
//! through the recording request, as the engine's workers run it ⊃ the
//! same plan with the no-op recorder), so a layer's self time is its
//! entry point's time minus the next inner entry point's, per request.

use crate::client::{BinaryClient, HttpClient};
use crate::inputs::{registration, Bank};
use crate::serve::{rejected_counters, request, Served};
use crate::spans::{Span, SpanLog};
use crate::stats::median_of;
use crate::workloads::ENGINE_OPTS;
use crate::{Metrics, Res};
use spinamm_cmos::DtcsDac;
use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::capacity::{top_k_merge, TiledAmm};
use spinamm_core::params::DesignParams;
use spinamm_core::plan::PlanOptions;
use spinamm_core::request::RecallRequest;
use spinamm_crossbar::{CachedParasiticCrossbar, RowDrive};
use spinamm_server::api::{ApiRecallRequest, ApiRecallResponse};
use spinamm_telemetry::{MemoryRecorder, Recorder};
use std::hint::black_box;

/// Calls per span for nanosecond-scale probes.
const BATCH: u32 = 256;

/// Templates per tile and ranking depth of the probed capacity pool.
pub const POOL_TILING: (usize, usize) = (128, 5);

/// What the probes run against.
pub struct ProbeInputs<'a> {
    /// The workload's bank (templates and queries).
    pub bank: &'a Bank,
    /// The capacity pool's bank: 10⁴ synthetic templates, which tile into
    /// 79 tiles of [`POOL_TILING`].
    pub pool: &'a Bank,
    /// The running server holding the workload's tenant.
    pub served: &'a Served,
    /// The 128×40 face bank for the crossbar probes.
    pub faces: &'a Bank,
    /// Time to generate the workload's data, ms.
    pub generate_ms: f64,
}

fn median_span(log: &SpanLog, name: &str) -> f64 {
    median_of(&log.per_call_us(name))
}

/// Times `f` on each of `queries`, one span per call.
fn per_query<T, E: Into<Box<dyn std::error::Error + Send + Sync>>>(
    log: &mut SpanLog,
    name: &'static str,
    queries: &[(usize, Vec<u32>)],
    mut f: impl FnMut(&[u32]) -> Result<T, E>,
) -> Res<f64> {
    for (i, (_, q)) in queries.iter().enumerate() {
        black_box(
            log.time(name, None, i as u64, 1, || f(q))
                .map_err(Into::into)?,
        );
    }
    Ok(median_span(log, name))
}

/// Times `rounds` batches of [`BATCH`] calls of `f`, one span per batch.
fn batched(log: &mut SpanLog, name: &'static str, rounds: u64, mut f: impl FnMut()) -> f64 {
    for r in 0..rounds {
        log.time(name, None, r, BATCH, || {
            for _ in 0..BATCH {
                f();
            }
        });
    }
    median_span(log, name)
}

/// Runs every probe and returns the per-layer metrics (without the
/// harness figures, which the workload adds) and the sum of the serving
/// layers' self times (transport + server + engine + telemetry + core),
/// µs.
///
/// # Errors
///
/// Build, recall or transport failures.
pub fn probe(log: &mut SpanLog, inputs: &ProbeInputs<'_>) -> Res<(Metrics, f64)> {
    let mut m = Metrics::default();
    let bank = inputs.bank;
    let few = &bank.queries[..bank.queries.len().min(40)];
    let many = &bank.queries[..bank.queries.len().min(400)];

    m.add("data.generate_ms", inputs.generate_ms, "ms");

    // core: build, compile, execute, evaluate/select.
    let patterns = &bank.patterns;
    let config = bank.config;
    for r in 0..3 {
        log.time("core.build", None, r, 1, || {
            AssociativeMemoryModule::build(patterns, &config)
        })?;
    }
    m.add("core.build_ms", median_span(log, "core.build") / 1e3, "ms");
    let mut module = AssociativeMemoryModule::build(patterns, &config)?;
    for r in 0..3 {
        log.time("core.compile", None, r, 1, || {
            module.compile_plan(PlanOptions::default())
        })?;
    }
    m.add(
        "core.compile_ms",
        median_span(log, "core.compile") / 1e3,
        "ms",
    );
    let mut plan = module.compile_plan(PlanOptions::default())?;
    let slow = config.fidelity == Fidelity::Parasitic;
    let exec_queries = if slow { few } else { many };
    // No-op and recorded executions alternate in blocks so both see the
    // same machine state.
    let recorder = MemoryRecorder::default();
    let recorded = RecallRequest::recorded(&recorder);
    for block in exec_queries.chunks(20) {
        per_query(log, "core.plan_execute", block, |q| plan.execute(q))?;
        per_query(log, "telemetry.recorded_execute", block, |q| {
            plan.execute_request(q, &recorded)
        })?;
    }
    let execute_us = median_span(log, "core.plan_execute");
    let recorded_us = median_span(log, "telemetry.recorded_execute");
    m.add("core.plan_execute_us", execute_us, "us");
    m.add("telemetry.recorded_execute_us", recorded_us, "us");
    m.add(
        "telemetry.recorder_overhead_ratio",
        recorded_us / execute_us,
        "ratio",
    );
    for (i, (_, q)) in exec_queries.iter().enumerate() {
        let eval = log.time("core.evaluate", None, i as u64, 1, || {
            module.evaluate_query_request(q, &RecallRequest::DEFAULT)
        })?;
        log.time("core.select", None, i as u64, 1, || {
            module.select_winner_request(eval, &RecallRequest::DEFAULT)
        })?;
    }
    m.add("core.evaluate_us", median_span(log, "core.evaluate"), "us");
    m.add("core.select_us", median_span(log, "core.select"), "us");

    // core: the capacity pool (Driven, 79 tiles).
    let (capacity, top_k) = POOL_TILING;
    let mut pool = log.time("core.tiled_build", None, 0, 1, || {
        TiledAmm::build(&inputs.pool.patterns, capacity, &inputs.pool.config)
            .and_then(|t| t.with_top_k(top_k))
    })?;
    m.add(
        "core.tiled_build_s",
        median_span(log, "core.tiled_build") / 1e6,
        "s",
    );
    let tile_queries = &inputs.pool.queries[..30];
    let mut last = None;
    let tile_us = per_query(log, "core.tile_recall", tile_queries, |q| {
        pool.recall(q).map(|r| last = Some(r))
    })?;
    m.add("core.tile_recall_ms", tile_us / 1e3, "ms");
    let scores = last.ok_or("no tiled recall")?.scores;
    let chunks: Vec<&[u32]> = scores.chunks(pool.tile_columns()).collect();
    let merge_us = batched(log, "core.top_k_merge", 20, || {
        black_box(top_k_merge(black_box(&chunks), top_k));
    });
    m.add("core.top_k_merge_us", merge_us, "us");
    drop(pool);

    // crossbar: the face crossbar under the paper's nominal input DAC.
    probe_crossbar(log, inputs.faces, &mut m)?;

    // telemetry: one counter update.
    let counter_recorder = MemoryRecorder::default();
    let counter_ns = batched(log, "telemetry.counter", 40, || {
        counter_recorder.counter(black_box("bench.counter"), 1);
    }) * 1e3;
    m.add("telemetry.counter_ns", counter_ns, "ns");

    // server: the codecs on one real request and reply.
    let served = inputs.served;
    let call = request(&served.tenant, &bank.queries[0].1);
    let reply = served.service.handle(&call)?;
    probe_codecs(log, &call, &reply, &mut m)?;

    // server ⊃ engine ⊃ core on the same query: one `probe.request` span
    // per query whose children are the nested entry points, so each
    // layer's self time is a per-request difference.
    let tenant = served
        .service
        .registry()
        .get(&served.tenant)
        .ok_or("tenant vanished")?;
    let engine = tenant.engine();
    let mut binary = BinaryClient::connect(served.addr)?;
    let mut rows = Vec::new();
    for (i, (_, q)) in exec_queries.iter().enumerate() {
        let id = i as u64;
        let call = request(&served.tenant, q);
        let root = log.open("probe.request", None, id);
        log.time("server.loopback_binary", Some(root), id, 1, || {
            binary.recall(&call)
        })?;
        log.time("server.handle", Some(root), id, 1, || {
            served.service.handle(&call)
        })?;
        log.time("engine.submit_wait", Some(root), id, 1, || {
            engine.submit(q).and_then(spinamm_engine::Ticket::wait)
        })?;
        // What the engine's workers run: the plan through the recording
        // request. The no-op execution under it separates the recorder.
        log.time("telemetry.recall", Some(root), id, 1, || {
            plan.execute_request(q, &recorded)
        })?;
        log.time("core.recall", Some(root), id, 1, || plan.execute(q))?;
        log.close(root);
        let n = log.spans().len();
        let us: Vec<f64> = log.spans()[n - 5..].iter().map(Span::per_call_us).collect();
        rows.push([
            us[0] - us[1],
            us[1] - us[2],
            us[2] - us[3],
            us[3] - us[4],
            us[4],
        ]);
    }
    // Self times per request: transport, server, engine, telemetry, core.
    let column = |k: usize| median_of(&rows.iter().map(|r| r[k]).collect::<Vec<_>>());
    let self_times: Vec<f64> = (0..5).map(column).collect();
    m.add("server.handle_us", median_span(log, "server.handle"), "us");
    m.add("server.transport_binary_us", self_times[0], "us");
    m.add(
        "engine.submit_wait_us",
        median_span(log, "engine.submit_wait"),
        "us",
    );
    m.add("engine.self_us", self_times[2], "us");
    m.add("telemetry.self_us", self_times[3], "us");
    m.add(
        "engine.plan_fallbacks",
        tenant
            .recorder()
            .snapshot()
            .counter("engine.plan_fallbacks") as f64,
        "count",
    );
    let mut http = HttpClient::connect(served.addr)?;
    for (i, (_, q)) in few[..20].iter().enumerate() {
        let id = i as u64;
        let call = request(&served.tenant, q);
        let root = log.open("probe.json_request", None, id);
        log.time("server.loopback_json", Some(root), id, 1, || {
            http.recall(&call)
        })?;
        log.time("server.handle", Some(root), id, 1, || {
            served.service.handle(&call)
        })?;
        log.close(root);
    }
    let json_rows: Vec<f64> = log
        .spans()
        .windows(3)
        .filter(|w| w[0].name == "probe.json_request")
        .map(|w| w[1].per_call_us() - w[2].per_call_us())
        .collect();
    m.add("server.transport_json_us", median_of(&json_rows), "us");
    let mut doc = None;
    for r in 0..5 {
        doc = Some(log.time("server.metrics_scrape", None, r, 1, || {
            http.json("GET", "/metrics", "")
        })?);
    }
    m.add(
        "server.metrics_scrape_ms",
        median_span(log, "server.metrics_scrape") / 1e3,
        "ms",
    );
    for (kind, n) in rejected_counters(&doc.ok_or("no scrape")?) {
        m.add(&format!("server.rejected.{kind}"), n as f64, "count");
    }
    // server: registering (and evicting) a 40-template flat tenant, the
    // write path an operator drives.
    let small = Bank {
        patterns: inputs.pool.patterns[..40].to_vec(),
        ..inputs.pool.clone()
    };
    for r in 0..5 {
        let name = format!("probe-{r}");
        let doc = registration(&name, "flat", &small, ENGINE_OPTS);
        log.time("server.register", None, r, 1, || {
            http.json("POST", "/v1/tenants", &doc)
        })?;
        http.json("DELETE", &format!("/v1/tenants/{name}"), "")?;
    }
    m.add(
        "server.register_ms",
        median_span(log, "server.register") / 1e3,
        "ms",
    );
    // transport + server + engine + telemetry + core self times.
    Ok((m, self_times.iter().sum()))
}

fn probe_codecs(
    log: &mut SpanLog,
    call: &ApiRecallRequest,
    reply: &ApiRecallResponse,
    m: &mut Metrics,
) -> Res<()> {
    let frame = call.encode_binary();
    let body = reply.encode_binary();
    let encode = batched(log, "server.wire_encode", 40, || {
        black_box(black_box(call).encode_binary());
        black_box(black_box(reply).encode_binary());
    });
    let decode = batched(log, "server.wire_decode", 40, || {
        black_box(ApiRecallRequest::decode_binary(black_box(&frame)).is_ok());
        black_box(ApiRecallResponse::decode_binary(black_box(&body)).is_ok());
    });
    let (call_json, reply_json) = (call.to_json(), reply.to_json());
    let json = batched(log, "server.json_codec", 20, || {
        black_box(black_box(call).to_json());
        black_box(ApiRecallRequest::from_json(black_box(&call_json)).is_ok());
        black_box(black_box(reply).to_json());
        black_box(ApiRecallResponse::from_json(black_box(&reply_json)).is_ok());
    });
    if ApiRecallResponse::decode_binary(&body)? != *reply
        || ApiRecallRequest::from_json(&call_json)? != *call
    {
        return Err("codec round trip changed a message".into());
    }
    m.add("server.wire_encode_ns", encode * 1e3, "ns");
    m.add("server.wire_decode_ns", decode * 1e3, "ns");
    m.add("server.json_codec_ns", json * 1e3, "ns");
    Ok(())
}

fn probe_crossbar(log: &mut SpanLog, faces: &Bank, m: &mut Metrics) -> Res<()> {
    let config = AmmConfig {
        fidelity: Fidelity::Parasitic,
        ..faces.config
    };
    let module = AssociativeMemoryModule::build(&faces.patterns, &config)?;
    let params = DesignParams::PAPER;
    let dac = DtcsDac::paper_input().nominal();
    let queries = &faces.queries[..40];
    let drives: Vec<Vec<RowDrive>> = queries
        .iter()
        .map(|(_, q)| {
            q.iter()
                .map(|&level| {
                    Ok(RowDrive::SourceConductance {
                        g: dac.conductance(level)?,
                        supply: params.delta_v,
                    })
                })
                .collect::<Result<Vec<_>, spinamm_cmos::CmosError>>()
        })
        .collect::<Result<_, _>>()?;
    let array = module.array();
    let mut cached = CachedParasiticCrossbar::new(params.crossbar_geometry());
    // The first evaluation builds the netlist and factorization.
    cached.evaluate(array, &drives[0])?;
    for (i, d) in drives.iter().enumerate() {
        log.time("crossbar.parasitic_evaluate", None, i as u64, 1, || {
            cached.evaluate(array, d)
        })?;
    }
    let n = (drives.len() + 1) as f64;
    m.add(
        "crossbar.parasitic_evaluate_us",
        median_span(log, "crossbar.parasitic_evaluate"),
        "us",
    );
    m.add(
        "crossbar.warm_iterations_saved",
        cached.warm_start_iterations_saved() as f64 / n,
        "count/query",
    );
    m.add(
        "crossbar.factorization_reuses",
        cached.factorization_reuses() as f64 / n,
        "count/query",
    );
    let mut k = 0usize;
    let driven = batched(log, "crossbar.driven_currents", 8, || {
        black_box(
            array
                .driven_column_currents(black_box(&drives[k % drives.len()]))
                .is_ok(),
        );
        k += 1;
    });
    m.add("crossbar.driven_currents_us", driven, "us");
    Ok(())
}
