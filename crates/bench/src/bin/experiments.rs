//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [--quick] [--json <path>] [--trace-out <path>]
//!             [fig3a|fig3b|fig5b|fig5c|fig7a|fig8b|fig9a|fig9b|
//!              fig13a|fig13b|table1|table2|hierarchy|ablations|settling|
//!              drift|write-precision|disturb|noise|yield|engine-scale|
//!              conformance|profile|plan|capacity|serve|lifetime|all]
//! ```
//!
//! Without arguments, runs `all` at full (paper) scale. `--quick` runs the
//! miniature configuration used by the test suite. `--json <path>` also
//! writes every selected study's rows — plus a telemetry snapshot from an
//! instrumented parasitic-fidelity recognition run — as one machine-readable
//! JSON report (see README.md, "Observability"). `--trace-out <path>`
//! additionally persists the `profile` study's Chrome trace-event document
//! (loadable in Perfetto / `chrome://tracing`) to `<path>` and its
//! slow-request exemplars to `<path>.exemplars.json`.

use spinamm_bench::report::{eng, Table};
use spinamm_bench::{experiments, Scale};
use spinamm_telemetry::json::{self, JsonValue};
use std::process::ExitCode;

/// One rendered study: the printable text and its structured twin.
struct Section {
    text: String,
    json: JsonValue,
}

impl Section {
    fn table(t: &Table) -> Self {
        Self {
            text: t.render(),
            json: t.to_json(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|k| args.get(k + 1))
        .cloned();
    if args.iter().any(|a| a == "--json") && json_path.is_none() {
        eprintln!("--json requires a path argument");
        return ExitCode::FAILURE;
    }
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|k| args.get(k + 1))
        .cloned();
    if args.iter().any(|a| a == "--trace-out") && trace_out.is_none() {
        eprintln!("--trace-out requires a path argument");
        return ExitCode::FAILURE;
    }
    let mut skip_next = false;
    let mut wanted: Vec<&str> = Vec::new();
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--json" || a == "--trace-out" {
            skip_next = true;
        } else if !a.starts_with("--") {
            wanted.push(a.as_str());
        }
    }
    let wanted: Vec<&str> = if wanted.is_empty() {
        vec!["all"]
    } else {
        wanted
    };

    let all = wanted.contains(&"all");
    let run = |name: &str| all || wanted.contains(&name);
    let mut failures = 0;
    let mut studies: Vec<TimedStudy> = Vec::new();

    macro_rules! section {
        ($name:literal, $body:expr) => {
            if run($name) {
                let started = std::time::Instant::now();
                match $body {
                    Ok(section) => {
                        let wall_clock_seconds = started.elapsed().as_secs_f64();
                        println!("{}", section.text);
                        studies.push(TimedStudy {
                            name: $name.to_string(),
                            report: section.json,
                            wall_clock_seconds,
                        });
                    }
                    Err(e) => {
                        eprintln!("{}: FAILED: {e}", $name);
                        failures += 1;
                    }
                }
            }
        };
    }

    section!("table2", render_table2());
    section!("fig3a", render_fig3a(&scale));
    section!("fig3b", render_fig3b(&scale));
    section!("fig5b", render_fig5b());
    section!("fig5c", render_fig5c());
    section!("fig7a", render_fig7a());
    section!("fig8b", render_fig8b());
    section!("fig9a", render_fig9a(&scale));
    section!("fig9b", render_fig9b(&scale));
    section!("fig13a", render_fig13a(&scale));
    section!("fig13b", render_fig13b(&scale));
    section!("table1", render_table1(&scale));
    section!("hierarchy", render_hierarchy(&scale));
    section!("ablations", render_ablations(&scale));
    section!("settling", render_settling());
    section!("drift", render_drift(&scale));
    section!("write-precision", render_write_precision(&scale));
    section!("disturb", render_disturb());
    section!("noise", render_noise(&scale));
    section!("yield", render_yield(&scale));
    section!("engine-scale", render_engine_scale(&scale));
    section!("conformance", render_conformance(&scale));
    section!("profile", render_profile(&scale, trace_out.as_deref()));
    section!("plan", render_plan(&scale));
    section!("capacity", render_capacity(&scale));
    section!("serve", render_serve(&scale));
    section!("lifetime", render_lifetime(&scale));

    if let Some(path) = json_path {
        match write_json_report(&path, &scale, quick, studies) {
            Ok(()) => println!("wrote JSON report to {path}"),
            Err(e) => {
                eprintln!("--json {path}: FAILED: {e}");
                failures += 1;
            }
        }
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One selected study with its structured report and measured runtime.
struct TimedStudy {
    name: String,
    report: JsonValue,
    wall_clock_seconds: f64,
}

/// Assembles and writes the machine-readable report: every rendered study
/// (with its wall-clock runtime) plus a telemetry snapshot from an
/// instrumented recognition workload.
///
/// Schema history: v1 had `studies[].{name, report}`; v2 adds
/// `studies[].wall_clock_seconds` and the top-level
/// `total_wall_clock_seconds`; v3 adds the `yield` study, whose report
/// carries numeric `rows[]` (fault rates, unmitigated/mitigated accuracy
/// and margin, fault counters) instead of rendered table cells; v4 adds
/// the `engine-scale` study (E14) with numeric `rows[]` over the
/// shards × workers × batch sweep plus its `host_cpus` measurement
/// context; v5 adds the `conformance` study (E15), a flat numeric object
/// (cases, checks, `unwaived_divergences`, `injected_caught`, observed
/// divergence maxima, cross-decomposition agreement rates) from the
/// cross-fidelity differential sweep plus committed-corpus replay; v6 adds
/// the `profile` study (E16) with per-worker latency percentile `rows[]`,
/// a span-aggregate `phases[]` table (self/total wall time per pipeline
/// phase) and the `noop_overhead_ratio` / `traced_overhead_ratio` pair
/// that CI gates tracing cost on; v7 adds the `plan` study (E17) with
/// per-fidelity interpreted-vs-compiled-plan speedup `rows[]` (each
/// carrying the f64 `bit_identical` verdict) plus the flat f32-tier audit
/// fields (`f32_unwaived_divergences`, observed maxima, `f32_speedup`)
/// that CI pins alongside the ≥5× driven-plan speedup floor; v8 adds the
/// `capacity` study (E18) with numeric `rows[]` over the
/// templates × k sweep (throughput, energy per query, the
/// `topk_matches_oracle` / `top1_matches_wta` verdicts and the
/// engine-identity pair CI gates on) and extends the `conformance` report
/// with `flat_tiled_agreement`; v9 adds the `serve` study (E19) with one
/// numeric row per tenant of the serving mix (closed-loop saturation qps,
/// open-loop p50/p99/p999/mean latency measured from scheduled arrivals,
/// per-tenant queue-wait p99, the served/429/503 admission split and the
/// `served_identical` bit-identity verdict CI gates on) plus run context
/// (`host_cpus`, `loader_threads`, `total_queries`, `wall_seconds`); v10
/// adds the `lifetime` study (E20) with one object per
/// drift-corner × maintenance arm (fresh/final threshold-respecting
/// accuracy, refresh counts split by trigger, wear-leveled migrations,
/// refresh-energy overhead relative to recall energy — the quantities
/// `check_lifetime` gates on) and log-spaced `points[]` over the virtual
/// traffic horizon (10⁶ queries quick, 10⁹-equivalent full); v11 drops
/// the `capacity` rows' compiled-tile count (every tile now runs a
/// compiled plan, so it always equalled `tiles`).
fn write_json_report(
    path: &str,
    scale: &Scale,
    quick: bool,
    studies: Vec<TimedStudy>,
) -> Result<(), Box<dyn std::error::Error>> {
    let snapshot = experiments::telemetry_capture(scale)?;
    let total_wall: f64 = studies.iter().map(|s| s.wall_clock_seconds).sum();
    let document = JsonValue::object([
        ("schema_version", JsonValue::Uint(11)),
        (
            "scale",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("total_wall_clock_seconds", JsonValue::Num(total_wall)),
        (
            "studies",
            JsonValue::Array(
                studies
                    .into_iter()
                    .map(|s| {
                        JsonValue::object([
                            ("name", JsonValue::Str(s.name)),
                            ("wall_clock_seconds", JsonValue::Num(s.wall_clock_seconds)),
                            ("report", s.report),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("telemetry", snapshot.to_json_value()),
    ]);
    let rendered = document.render();
    json::validate(&rendered)?;
    std::fs::write(path, rendered)?;
    Ok(())
}

type Rendered = Result<Section, spinamm_core::CoreError>;

fn render_table2() -> Rendered {
    let text = format!(
        "== Table 2: design parameters ==\n{}",
        experiments::table2()
    );
    let json = JsonValue::object([
        (
            "title",
            JsonValue::Str("Table 2: design parameters".to_string()),
        ),
        ("text", JsonValue::Str(experiments::table2())),
    ]);
    Ok(Section { text, json })
}

fn render_fig3a(scale: &Scale) -> Rendered {
    let rows = experiments::fig3a(scale)?;
    let mut t = Table::new(
        "Fig 3a: accuracy vs image down-sizing (5-bit pixels)",
        &["size", "pixels", "ideal", "hardware"],
    );
    for r in rows {
        t.row(&[
            r.label,
            format!("{}", r.parameter as usize),
            format!("{:.3}", r.ideal),
            format!("{:.3}", r.hardware),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig3b(scale: &Scale) -> Rendered {
    let rows = experiments::fig3b(scale)?;
    let mut t = Table::new(
        "Fig 3b: accuracy vs WTA resolution (16x8 templates)",
        &["resolution", "ideal", "hardware"],
    );
    for r in rows {
        t.row(&[
            r.label,
            format!("{:.3}", r.ideal),
            format!("{:.3}", r.hardware),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig5b() -> Rendered {
    let rows = experiments::fig5b(&[0.5, 0.75, 1.0, 1.5, 2.0])?;
    let mut t = Table::new(
        "Fig 5b: DWM critical current vs device scaling",
        &["scale", "analytic Ic", "simulated Ic"],
    );
    for r in rows {
        t.row(&[
            format!("{:.2}x", r.factor),
            eng(r.analytic, "A"),
            eng(r.simulated, "A"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig5c() -> Rendered {
    let rows = experiments::fig5c(&[1.0, 0.75, 0.5], &[1.5, 2.0, 3.0, 4.0, 6.0, 8.0])?;
    let mut t = Table::new(
        "Fig 5c: switching time vs write current",
        &["scale", "current", "t_switch"],
    );
    for r in rows {
        t.row(&[
            format!("{:.2}x", r.factor),
            eng(r.current, "A"),
            r.time
                .map_or_else(|| "no switch".to_string(), |t| eng(t, "s")),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig7a() -> Rendered {
    let study = experiments::fig7a(61);
    let mut t = Table::new(
        "Fig 7a: DWN transfer characteristic (hysteresis, Eb = 20 kT)",
        &["leg", "current", "output", "P(switch, thermal)"],
    );
    // Print a decimated view: every 6th point of each leg.
    let half = study.hysteresis.len() / 2;
    for (k, p) in study.hysteresis.iter().enumerate().step_by(6) {
        let leg = if k < half { "up" } else { "down" };
        let thermal = study
            .thermal
            .iter()
            .min_by(|a, b| {
                (a.0 - p.current.0.abs())
                    .abs()
                    .total_cmp(&(b.0 - p.current.0.abs()).abs())
            })
            .map_or(0.0, |x| x.1);
        t.row(&[
            leg.to_string(),
            eng(p.current.0, "A"),
            format!("{:+.0}", p.output),
            format!("{thermal:.3}"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig8b() -> Rendered {
    let curves = experiments::fig8b(&[100.0, 10.0, 2.0, 0.5])?;
    let mut t = Table::new(
        "Fig 8b: DTCS-DAC non-linearity vs row load G_TS",
        &[
            "G_TS / G_T(max)",
            "INL (frac of FS)",
            "I(code 8)",
            "I(code 16)",
            "I(code 31)",
        ],
    );
    for c in curves {
        let at = |code: u32| {
            c.transfer
                .iter()
                .find(|(k, _)| *k == code)
                .map_or(0.0, |(_, i)| *i)
        };
        t.row(&[
            format!("{:.1}", c.load_ratio),
            format!("{:.4}", c.inl),
            eng(at(8), "A"),
            eng(at(16), "A"),
            eng(at(31), "A"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig9a(scale: &Scale) -> Rendered {
    let points = experiments::fig9a(scale, &[0.05, 0.2, 1.0, 5.0, 20.0])?;
    let mut t = Table::new(
        "Fig 9a: detection margin vs memristor conductance window",
        &["window scale (xR)", "R range", "margin (LSB)"],
    );
    for p in points {
        t.row(&[
            format!("{:.2}", p.parameter),
            format!(
                "{} - {}",
                eng(1e3 * p.parameter, "Ω"),
                eng(32e3 * p.parameter, "Ω")
            ),
            format!("{:.2}", p.margin),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig9b(scale: &Scale) -> Rendered {
    let points = experiments::fig9b(scale, &[60.0, 30.0, 15.0, 8.0, 4.0])?;
    let mut t = Table::new(
        "Fig 9b: detection margin vs crossbar bias ΔV",
        &["ΔV", "margin (LSB)"],
    );
    for p in points {
        t.row(&[eng(p.parameter, "V"), format!("{:.2}", p.margin)]);
    }
    Ok(Section::table(&t))
}

fn render_fig13a(scale: &Scale) -> Rendered {
    let rows = experiments::fig13a(scale, &[0.25, 0.5, 1.0, 1.5, 2.0])?;
    let mut t = Table::new(
        "Fig 13a: proposed-design power vs DWN threshold",
        &["I_th", "static", "dynamic", "total"],
    );
    for r in rows {
        t.row(&[
            eng(r.threshold, "A"),
            eng(r.static_power, "W"),
            eng(r.dynamic_power, "W"),
            eng(r.total(), "W"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig13b(scale: &Scale) -> Rendered {
    let rows = experiments::fig13b(scale, &[5.0, 10.0, 15.0, 20.0, 25.0])?;
    let mut t = Table::new(
        "Fig 13b: PD-product ratio (MS-CMOS / proposed) vs σVT",
        &["σVT", "ratio [17]", "ratio [18]"],
    );
    for r in rows {
        t.row(&[
            eng(r.sigma_vt, "V"),
            format!("{:.0}", r.ratio_andreou),
            format!("{:.0}", r.ratio_dlugosz),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_table1(scale: &Scale) -> Rendered {
    let rows = experiments::table1(scale, &[5, 4, 3])?;
    let mut t = Table::new(
        "Table 1: power / frequency / energy comparison",
        &[
            "bits",
            "spin-CMOS",
            "[18]",
            "[17]",
            "digital",
            "E ratio [18]",
            "E ratio [17]",
            "E ratio digital",
        ],
    );
    for r in rows {
        t.row(&[
            format!("{}-bit", r.bits),
            eng(r.spin_power, "W"),
            eng(r.dlugosz_power, "W"),
            eng(r.andreou_power, "W"),
            eng(r.digital_power, "W"),
            format!("{:.0}", r.energy_ratios[0]),
            format!("{:.0}", r.energy_ratios[1]),
            format!("{:.0}", r.energy_ratios[2]),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "frequencies: spin-CMOS {} | MS-CMOS {} | digital {}\n",
        eng(experiments::SPIN_FREQUENCY, "Hz"),
        eng(experiments::ANALOG_FREQUENCY, "Hz"),
        eng(experiments::DIGITAL_FREQUENCY, "Hz"),
    ));
    if let JsonValue::Object(pairs) = &mut section.json {
        pairs.push((
            "frequencies_hz".to_string(),
            JsonValue::object([
                ("spin_cmos", JsonValue::Num(experiments::SPIN_FREQUENCY)),
                ("ms_cmos", JsonValue::Num(experiments::ANALOG_FREQUENCY)),
                ("digital", JsonValue::Num(experiments::DIGITAL_FREQUENCY)),
            ]),
        ));
    }
    Ok(section)
}

fn render_ablations(scale: &Scale) -> Rendered {
    let rows = experiments::ablation_study(scale)?;
    let mut t = Table::new(
        "Ablations: G_TS equalization and gain calibration",
        &["variant", "accuracy", "margin (LSB)", "tracker agreement"],
    );
    for r in rows {
        t.row(&[
            r.variant,
            format!("{:.3}", r.accuracy),
            format!("{:.2}", r.margin),
            format!("{:.2}", r.tracker_agreement),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_settling() -> Rendered {
    let rows = experiments::settling_study()?;
    let mut t = Table::new(
        "Crossbar RC settling vs the 10 ns SAR cycle",
        &["analysis", "time", "within cycle"],
    );
    for r in rows {
        t.row(&[
            r.label,
            eng(r.time, "s"),
            if r.within_cycle { "yes" } else { "NO" }.to_string(),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_drift(scale: &Scale) -> Rendered {
    let rows = experiments::drift_study(scale, &[1.0, 1e4, 1e6, 1e8])?;
    let mut t = Table::new(
        "Retention: accuracy vs template age (aggressive Ag-Si corner)",
        &["age", "accuracy", "after refresh"],
    );
    for r in rows {
        t.row(&[
            eng(r.age, "s"),
            format!("{:.3}", r.accuracy),
            format!("{:.3}", r.refreshed_accuracy),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_write_precision(scale: &Scale) -> Rendered {
    let rows = experiments::write_precision_study(scale, &[0.003, 0.01, 0.03, 0.1, 0.3])?;
    let mut t = Table::new(
        "Write-precision trade-off (paper §2: why 3 %)",
        &["tolerance", "accuracy", "mean pulses/cell"],
    );
    for r in rows {
        t.row(&[
            format!("{:.1} %", r.tolerance * 100.0),
            format!("{:.3}", r.accuracy),
            format!("{:.1}", r.mean_pulses),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_noise(scale: &Scale) -> Rendered {
    let rows = experiments::noise_robustness_study(scale, &[1, 4, 8, 12, 16])?;
    let mut t = Table::new(
        "Input-noise robustness (norm-equalized random workload)",
        &["jitter magnitude (levels)", "ideal", "hardware"],
    );
    for r in rows {
        t.row(&[
            format!("±{}", r.magnitude),
            format!("{:.3}", r.ideal),
            format!("{:.3}", r.hardware),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_disturb() -> Rendered {
    let rows = experiments::disturb_study(16, 10)?;
    let mut t = Table::new(
        "Programming disturb under V/2 biasing (16x10 array)",
        &[
            "scheme",
            "half-select pulses/cell",
            "max error",
            "corrupted cells",
        ],
    );
    for r in rows {
        t.row(&[
            r.label,
            format!("{:.0}", r.exposure),
            format!("{:.4}", r.max_error),
            format!("{}", r.corrupted_cells),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_yield(scale: &Scale) -> Rendered {
    let rows = experiments::yield_study(scale)?;
    let mut t = Table::new(
        "Yield: accuracy vs stuck-cell rate (unmitigated vs spares+masking)",
        &[
            "stuck rate",
            "accuracy (raw)",
            "accuracy (mitigated)",
            "margin raw (LSB)",
            "margin mit. (LSB)",
            "remapped",
            "masked",
            "unrecoverable",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.0} %", r.fault_rate * 100.0),
            format!("{:.3}", r.unmitigated_accuracy),
            format!("{:.3}", r.mitigated_accuracy),
            format!("{:.2}", r.unmitigated_margin),
            format!("{:.2}", r.mitigated_margin),
            format!("{}", r.remapped),
            format!("{}", r.masked),
            format!("{}", r.unrecoverable),
        ]);
    }
    // The JSON twin keeps numbers numeric so the CI smoke test (and any
    // downstream tooling) can assert on them without parsing table cells.
    let json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "Yield: accuracy vs stuck-cell rate (unmitigated vs spares+masking)".to_string(),
            ),
        ),
        (
            "rows",
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        JsonValue::object([
                            ("fault_rate", JsonValue::Num(r.fault_rate)),
                            (
                                "unmitigated_accuracy",
                                JsonValue::Num(r.unmitigated_accuracy),
                            ),
                            ("mitigated_accuracy", JsonValue::Num(r.mitigated_accuracy)),
                            ("unmitigated_margin", JsonValue::Num(r.unmitigated_margin)),
                            ("mitigated_margin", JsonValue::Num(r.mitigated_margin)),
                            ("spare_columns", JsonValue::Uint(r.spare_columns as u64)),
                            ("remapped", JsonValue::Uint(r.remapped)),
                            ("masked", JsonValue::Uint(r.masked)),
                            ("unrecoverable", JsonValue::Uint(r.unrecoverable)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Section {
        text: t.render(),
        json,
    })
}

fn render_engine_scale(scale: &Scale) -> Rendered {
    let study = experiments::engine_scale_study(scale)?;
    let mut t = Table::new(
        "E14: engine scaling (shards x workers x batch, parasitic fidelity)",
        &[
            "shards",
            "workers",
            "batch",
            "queries",
            "wall",
            "throughput",
            "speedup vs 1w",
            "bit-identical",
        ],
    );
    for r in &study.rows {
        t.row(&[
            format!("{}", r.shards),
            format!("{}", r.workers),
            format!("{}", r.batch),
            format!("{}", r.queries),
            eng(r.wall_seconds, "s"),
            format!("{:.1} q/s", r.throughput_qps),
            format!("{:.2}x", r.speedup_vs_1worker),
            if r.bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut section = Section::table(&t);
    section
        .text
        .push_str(&format!("host cpus: {}\n", study.host_cpus));
    // The JSON twin keeps numbers numeric (and carries host_cpus) so the
    // CI gate can assert bit-identity without parsing table cells, and so
    // timing columns are interpretable on any measuring host.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "E14: engine scaling (shards x workers x batch, parasitic fidelity)".to_string(),
            ),
        ),
        ("host_cpus", JsonValue::Uint(study.host_cpus as u64)),
        (
            "rows",
            JsonValue::Array(
                study
                    .rows
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("shards", JsonValue::Uint(r.shards as u64)),
                            ("workers", JsonValue::Uint(r.workers as u64)),
                            ("batch", JsonValue::Uint(r.batch as u64)),
                            ("queries", JsonValue::Uint(r.queries as u64)),
                            ("wall_seconds", JsonValue::Num(r.wall_seconds)),
                            ("throughput_qps", JsonValue::Num(r.throughput_qps)),
                            ("speedup_vs_1worker", JsonValue::Num(r.speedup_vs_1worker)),
                            ("bit_identical", JsonValue::Bool(r.bit_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

/// Directory fresh divergence repros are persisted to (uploaded by CI as
/// a failure artifact).
const FRESH_REPRO_DIR: &str = "conformance-repros";

fn render_conformance(scale: &Scale) -> Rendered {
    let study = experiments::conformance_study(scale)?;

    // Persist any fresh shrunk repros so a failing CI run leaves behind
    // committable, replayable evidence.
    if !study.fresh_repros.is_empty() {
        if std::fs::create_dir_all(FRESH_REPRO_DIR).is_ok() {
            for (k, (check, json_text)) in study.fresh_repros.iter().enumerate() {
                let _ = std::fs::write(format!("{FRESH_REPRO_DIR}/{k:02}-{check}.json"), json_text);
            }
        }
        eprintln!(
            "conformance: {} fresh divergence repro(s) written to {FRESH_REPRO_DIR}/",
            study.fresh_repros.len()
        );
    }

    let mut t = Table::new(
        "E15: cross-fidelity conformance (differential oracle + corpus replay)",
        &["metric", "value"],
    );
    t.row(&["fresh cases".to_string(), format!("{}", study.cases)]);
    t.row(&["ledger checks".to_string(), format!("{}", study.checks)]);
    t.row(&[
        "unwaived divergences".to_string(),
        format!("{}", study.unwaived_divergences),
    ]);
    t.row(&[
        "injected divergence caught".to_string(),
        if study.injected_caught { "yes" } else { "NO" }.to_string(),
    ]);
    t.row(&[
        "corpus repros replayed".to_string(),
        format!("{}", study.corpus_repros_replayed),
    ]);
    t.row(&[
        "observed ideal<->driven |dDOM| (LSB)".to_string(),
        format!("{}", study.observed_ideal_driven_dom_lsb),
    ]);
    t.row(&[
        "observed driven<->parasitic |dDOM| (LSB)".to_string(),
        format!("{}", study.observed_driven_parasitic_dom_lsb),
    ]);
    t.row(&[
        "observed permutation |dDOM| (LSB)".to_string(),
        format!("{}", study.observed_permutation_dom_lsb),
    ]);
    t.row(&[
        "flat<->partitioned agreement".to_string(),
        format!("{:.3}", study.flat_partitioned_agreement),
    ]);
    t.row(&[
        "flat<->hierarchical agreement".to_string(),
        format!("{:.3}", study.flat_hierarchical_agreement),
    ]);
    t.row(&[
        "flat<->tiled agreement".to_string(),
        format!("{:.3}", study.flat_tiled_agreement),
    ]);
    let mut section = Section::table(&t);
    // The JSON twin is a flat numeric object (no `rows`): the CI gate
    // asserts on these fields directly, and the agreement rates stay out
    // of the accuracy-cell comparison by construction.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "E15: cross-fidelity conformance (differential oracle + corpus replay)".to_string(),
            ),
        ),
        ("cases", JsonValue::Uint(study.cases)),
        ("checks", JsonValue::Uint(study.checks)),
        (
            "unwaived_divergences",
            JsonValue::Uint(study.unwaived_divergences),
        ),
        ("injected_caught", JsonValue::Bool(study.injected_caught)),
        (
            "corpus_repros_replayed",
            JsonValue::Uint(study.corpus_repros_replayed),
        ),
        (
            "observed_ideal_driven_dom_lsb",
            JsonValue::Uint(u64::from(study.observed_ideal_driven_dom_lsb)),
        ),
        (
            "observed_driven_parasitic_dom_lsb",
            JsonValue::Uint(u64::from(study.observed_driven_parasitic_dom_lsb)),
        ),
        (
            "observed_permutation_dom_lsb",
            JsonValue::Uint(u64::from(study.observed_permutation_dom_lsb)),
        ),
        (
            "flat_partitioned_agreement",
            JsonValue::Num(study.flat_partitioned_agreement),
        ),
        (
            "flat_hierarchical_agreement",
            JsonValue::Num(study.flat_hierarchical_agreement),
        ),
        (
            "flat_tiled_agreement",
            JsonValue::Num(study.flat_tiled_agreement),
        ),
    ]);
    Ok(section)
}

fn render_profile(scale: &Scale, trace_out: Option<&str>) -> Rendered {
    let study = experiments::profile_study(scale)?;

    if let Some(path) = trace_out {
        let persist = std::fs::write(path, &study.chrome_trace_json)
            .and_then(|()| std::fs::write(format!("{path}.exemplars.json"), &study.exemplars_json));
        match persist {
            Ok(()) => println!("wrote Chrome trace to {path} (+ {path}.exemplars.json)"),
            Err(e) => eprintln!("--trace-out {path}: {e}"),
        }
    }

    let mut t = Table::new(
        "E16: recall-pipeline profile (engine, parasitic fidelity, sample rate 1.0)",
        &[
            "workers",
            "queries",
            "throughput",
            "p50",
            "p90",
            "p99",
            "p99.9",
            "max",
            "queue-wait p99",
            "bit-identical",
        ],
    );
    for r in &study.rows {
        t.row(&[
            format!("{}", r.workers),
            format!("{}", r.queries),
            format!("{:.1} q/s", r.throughput_qps),
            eng(r.p50_us * 1e-6, "s"),
            eng(r.p90_us * 1e-6, "s"),
            eng(r.p99_us * 1e-6, "s"),
            eng(r.p999_us * 1e-6, "s"),
            eng(r.max_us * 1e-6, "s"),
            eng(r.queue_wait_p99_us * 1e-6, "s"),
            if r.bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut section = Section::table(&t);

    let mut phases = Table::new(
        "E16 phases: wall time per pipeline phase (widest run, self vs total)",
        &["phase", "count", "total", "self"],
    );
    for p in &study.phases {
        phases.row(&[
            p.name.clone(),
            format!("{}", p.count),
            eng(p.total_us * 1e-6, "s"),
            eng(p.self_us * 1e-6, "s"),
        ]);
    }
    section.text.push('\n');
    section.text.push_str(&phases.render());
    section.text.push_str(&format!(
        "tracing overhead (sequential, min-of-N): disabled {:.3}x | sampling {:.3}x | host cpus {}\n",
        study.noop_overhead_ratio, study.traced_overhead_ratio, study.host_cpus,
    ));

    // The JSON twin keeps numbers numeric so the CI gate can assert on
    // p99 latency and the overhead ratios without parsing table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "E16: recall-pipeline profile (engine, parasitic fidelity, sample rate 1.0)"
                    .to_string(),
            ),
        ),
        ("host_cpus", JsonValue::Uint(study.host_cpus as u64)),
        (
            "noop_overhead_ratio",
            JsonValue::Num(study.noop_overhead_ratio),
        ),
        (
            "traced_overhead_ratio",
            JsonValue::Num(study.traced_overhead_ratio),
        ),
        (
            "rows",
            JsonValue::Array(
                study
                    .rows
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("workers", JsonValue::Uint(r.workers as u64)),
                            ("queries", JsonValue::Uint(r.queries as u64)),
                            ("wall_seconds", JsonValue::Num(r.wall_seconds)),
                            ("throughput_qps", JsonValue::Num(r.throughput_qps)),
                            ("p50_us", JsonValue::Num(r.p50_us)),
                            ("p90_us", JsonValue::Num(r.p90_us)),
                            ("p99_us", JsonValue::Num(r.p99_us)),
                            ("p999_us", JsonValue::Num(r.p999_us)),
                            ("max_us", JsonValue::Num(r.max_us)),
                            ("queue_wait_p99_us", JsonValue::Num(r.queue_wait_p99_us)),
                            ("sampled", JsonValue::Uint(r.sampled)),
                            ("bit_identical", JsonValue::Bool(r.bit_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "phases",
            JsonValue::Array(
                study
                    .phases
                    .iter()
                    .map(|p| {
                        JsonValue::object([
                            ("name", JsonValue::Str(p.name.clone())),
                            ("count", JsonValue::Uint(p.count)),
                            ("total_us", JsonValue::Num(p.total_us)),
                            ("self_us", JsonValue::Num(p.self_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_plan(scale: &Scale) -> Rendered {
    let study = experiments::plan_study(scale)?;
    let mut t = Table::new(
        "E17: compiled recall plans (128x40, interpreted vs plan, interleaved min-of-N)",
        &[
            "fidelity",
            "queries",
            "interpreted",
            "plan",
            "speedup",
            "bit-identical",
        ],
    );
    for r in &study.rows {
        t.row(&[
            r.fidelity.to_string(),
            format!("{}", r.queries),
            eng(r.interpreted_seconds, "s"),
            eng(r.plan_seconds, "s"),
            format!("{:.1}x", r.speedup),
            if r.bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "f32 tier (driven): {} queries, {} unwaived divergences, max |dDOM| {} LSB, \
         max current drift {:.2e}, {:.2}x over f64 plan | host cpus {}\n",
        study.f32_queries,
        study.f32_unwaived_divergences,
        study.f32_max_dom_lsb,
        study.f32_max_current_rel,
        study.f32_speedup,
        study.host_cpus,
    ));

    // The JSON twin keeps numbers numeric so the CI gate can pin the
    // driven-plan speedup floor, the f64 bit-identity verdicts, and the
    // f32 divergence count without parsing table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "E17: compiled recall plans (128x40, interpreted vs plan, interleaved min-of-N)"
                    .to_string(),
            ),
        ),
        ("host_cpus", JsonValue::Uint(study.host_cpus as u64)),
        ("f32_queries", JsonValue::Uint(study.f32_queries)),
        (
            "f32_unwaived_divergences",
            JsonValue::Uint(study.f32_unwaived_divergences),
        ),
        (
            "f32_max_dom_lsb",
            JsonValue::Uint(u64::from(study.f32_max_dom_lsb)),
        ),
        (
            "f32_max_current_rel",
            JsonValue::Num(study.f32_max_current_rel),
        ),
        ("f32_speedup", JsonValue::Num(study.f32_speedup)),
        (
            "rows",
            JsonValue::Array(
                study
                    .rows
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("fidelity", JsonValue::Str(r.fidelity.to_string())),
                            ("queries", JsonValue::Uint(r.queries as u64)),
                            ("interpreted_seconds", JsonValue::Num(r.interpreted_seconds)),
                            ("plan_seconds", JsonValue::Num(r.plan_seconds)),
                            ("speedup", JsonValue::Num(r.speedup)),
                            ("bit_identical", JsonValue::Bool(r.bit_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_capacity(scale: &Scale) -> Rendered {
    let study = experiments::capacity_study(scale)?;
    let mut t = Table::new(
        "E18: tiled capacity (templates x k, top-k ranked recall)",
        &[
            "templates",
            "k",
            "tiles",
            "queries",
            "throughput",
            "energy/query",
            "topk==oracle",
            "top1==wta",
            "engine",
        ],
    );
    for r in &study.rows {
        t.row(&[
            format!("{}", r.templates),
            format!("{}", r.k),
            format!("{}", r.tiles),
            format!("{}", r.queries),
            format!("{:.1} q/s", r.throughput_qps),
            eng(r.energy_per_query_j, "J"),
            if r.topk_matches_oracle { "yes" } else { "NO" }.to_string(),
            if r.top1_matches_wta { "yes" } else { "NO" }.to_string(),
            if !r.engine_checked {
                "skipped"
            } else if r.engine_identical {
                "identical"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "tile capacity: {} | host cpus: {}\n",
        study.tile_capacity, study.host_cpus
    ));
    // The JSON twin keeps numbers numeric so the CI capacity gate can
    // assert the oracle/WTA/engine verdicts and positive throughput at
    // every template count without parsing table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str("E18: tiled capacity (templates x k, top-k ranked recall)".to_string()),
        ),
        ("host_cpus", JsonValue::Uint(study.host_cpus as u64)),
        ("tile_capacity", JsonValue::Uint(study.tile_capacity as u64)),
        (
            "rows",
            JsonValue::Array(
                study
                    .rows
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("templates", JsonValue::Uint(r.templates as u64)),
                            ("k", JsonValue::Uint(r.k as u64)),
                            ("tiles", JsonValue::Uint(r.tiles as u64)),
                            ("queries", JsonValue::Uint(r.queries as u64)),
                            ("wall_seconds", JsonValue::Num(r.wall_seconds)),
                            ("throughput_qps", JsonValue::Num(r.throughput_qps)),
                            ("energy_per_query_j", JsonValue::Num(r.energy_per_query_j)),
                            (
                                "topk_matches_oracle",
                                JsonValue::Bool(r.topk_matches_oracle),
                            ),
                            ("top1_matches_wta", JsonValue::Bool(r.top1_matches_wta)),
                            ("engine_checked", JsonValue::Bool(r.engine_checked)),
                            ("engine_identical", JsonValue::Bool(r.engine_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_serve(scale: &Scale) -> Rendered {
    let study = experiments::serve_study(scale)?;
    let mut t = Table::new(
        "E19: multi-tenant serving (open-loop load replay)",
        &[
            "tenant",
            "kind",
            "quota",
            "saturation",
            "offered",
            "served",
            "429",
            "503",
            "p50",
            "p99",
            "p999",
            "qwait p99",
            "identical",
        ],
    );
    for r in &study.rows {
        t.row(&[
            r.tenant.clone(),
            r.kind.clone(),
            if r.quota_qps == 0.0 {
                "unlimited".to_string()
            } else {
                format!("{:.0} q/s", r.quota_qps)
            },
            format!("{:.0} q/s", r.saturation_qps),
            format!("{} @ {:.0} q/s", r.offered, r.offered_qps),
            format!("{}", r.served),
            format!("{}", r.rejected_over_quota),
            format!("{}", r.rejected_saturated),
            format!("{:.1} us", r.p50_us),
            format!("{:.1} us", r.p99_us),
            format!("{:.1} us", r.p999_us),
            format!("{:.1} us", r.queue_wait_p99_us),
            if r.served_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "loader threads: {} | total queries: {} | wall: {:.1}s | host cpus: {}\n",
        study.loader_threads, study.total_queries, study.wall_seconds, study.host_cpus
    ));
    // Numeric JSON twin so check_serve can gate on the admission split,
    // percentile ordering and the bit-identity verdicts without parsing
    // table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str("E19: multi-tenant serving (open-loop load replay)".to_string()),
        ),
        ("host_cpus", JsonValue::Uint(study.host_cpus as u64)),
        (
            "loader_threads",
            JsonValue::Uint(study.loader_threads as u64),
        ),
        ("total_queries", JsonValue::Uint(study.total_queries)),
        ("wall_seconds", JsonValue::Num(study.wall_seconds)),
        (
            "rows",
            JsonValue::Array(
                study
                    .rows
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("tenant", JsonValue::Str(r.tenant.clone())),
                            ("kind", JsonValue::Str(r.kind.clone())),
                            ("quota_qps", JsonValue::Num(r.quota_qps)),
                            ("saturation_qps", JsonValue::Num(r.saturation_qps)),
                            ("offered_qps", JsonValue::Num(r.offered_qps)),
                            ("offered", JsonValue::Uint(r.offered)),
                            ("served", JsonValue::Uint(r.served)),
                            (
                                "rejected_over_quota",
                                JsonValue::Uint(r.rejected_over_quota),
                            ),
                            ("rejected_saturated", JsonValue::Uint(r.rejected_saturated)),
                            ("p50_us", JsonValue::Num(r.p50_us)),
                            ("p99_us", JsonValue::Num(r.p99_us)),
                            ("p999_us", JsonValue::Num(r.p999_us)),
                            ("mean_us", JsonValue::Num(r.mean_us)),
                            ("queue_wait_p99_us", JsonValue::Num(r.queue_wait_p99_us)),
                            ("mean_energy_j", JsonValue::Num(r.mean_energy_j)),
                            ("served_identical", JsonValue::Bool(r.served_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_lifetime(scale: &Scale) -> Rendered {
    let study = experiments::lifetime_study(scale)?;
    let mut t = Table::new(
        "E20: lifetime maintenance (virtual-time traffic horizon)",
        &[
            "corner",
            "maintained",
            "fresh",
            "final",
            "refreshes",
            "margin",
            "scheduled",
            "migrations",
            "pulses",
            "refresh energy",
            "overhead",
        ],
    );
    for a in &study.arms {
        let last = a.points.last().expect("non-empty");
        t.row(&[
            a.corner.clone(),
            if a.maintained { "yes" } else { "no" }.to_string(),
            format!("{:.3}", a.fresh_accuracy),
            format!("{:.3}", a.final_accuracy),
            format!("{}", a.refreshes),
            format!("{}", a.margin_refreshes),
            format!("{}", a.scheduled_refreshes),
            format!("{}", a.migrations),
            format!("{}", last.refresh_pulses),
            eng(last.refresh_energy_j, "J"),
            format!("{:.1} %", a.refresh_overhead * 100.0),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "horizon: {} queries at {} per query | dom threshold: {} | stuck rate: {:.0} %\n",
        eng(study.horizon_queries, "").trim(),
        eng(study.query_period_s, "s"),
        study.dom_threshold,
        study.fault_rate * 100.0
    ));
    // Numeric JSON twin so check_lifetime can gate on the accuracy-hold /
    // degradation / overhead invariants without parsing table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str("E20: lifetime maintenance (virtual-time traffic horizon)".to_string()),
        ),
        ("query_period_s", JsonValue::Num(study.query_period_s)),
        ("horizon_queries", JsonValue::Num(study.horizon_queries)),
        (
            "dom_threshold",
            JsonValue::Uint(u64::from(study.dom_threshold)),
        ),
        ("fault_rate", JsonValue::Num(study.fault_rate)),
        (
            "arms",
            JsonValue::Array(
                study
                    .arms
                    .iter()
                    .map(|a| {
                        JsonValue::object([
                            ("corner", JsonValue::Str(a.corner.clone())),
                            ("maintained", JsonValue::Bool(a.maintained)),
                            ("fresh_accuracy", JsonValue::Num(a.fresh_accuracy)),
                            ("final_accuracy", JsonValue::Num(a.final_accuracy)),
                            (
                                "recall_energy_per_query_j",
                                JsonValue::Num(a.recall_energy_per_query_j),
                            ),
                            ("refresh_overhead", JsonValue::Num(a.refresh_overhead)),
                            ("checks", JsonValue::Uint(a.checks)),
                            ("refreshes", JsonValue::Uint(a.refreshes)),
                            ("margin_refreshes", JsonValue::Uint(a.margin_refreshes)),
                            (
                                "scheduled_refreshes",
                                JsonValue::Uint(a.scheduled_refreshes),
                            ),
                            ("migrations", JsonValue::Uint(a.migrations)),
                            (
                                "points",
                                JsonValue::Array(
                                    a.points
                                        .iter()
                                        .map(|p| {
                                            JsonValue::object([
                                                ("queries", JsonValue::Num(p.queries)),
                                                (
                                                    "virtual_seconds",
                                                    JsonValue::Num(p.virtual_seconds),
                                                ),
                                                ("accuracy", JsonValue::Num(p.accuracy)),
                                                ("refreshes", JsonValue::Uint(p.refreshes)),
                                                (
                                                    "refresh_pulses",
                                                    JsonValue::Uint(p.refresh_pulses),
                                                ),
                                                (
                                                    "refresh_energy_j",
                                                    JsonValue::Num(p.refresh_energy_j),
                                                ),
                                                ("worn_cells", JsonValue::Uint(p.worn_cells)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_hierarchy(scale: &Scale) -> Rendered {
    let rows = experiments::hierarchy_study(scale, &[1, 2, 4, 8])?;
    let mut t = Table::new(
        "Extension (paper §5): hierarchical / clustered AMM",
        &["clusters", "energy per recognition", "accuracy"],
    );
    for r in rows {
        t.row(&[
            format!("{}", r.clusters),
            eng(r.energy, "J"),
            format!("{:.3}", r.accuracy),
        ]);
    }
    Ok(Section::table(&t))
}
