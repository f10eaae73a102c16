//! Compiled recall plans: a flat, allocation-free execution kernel for one
//! deployed module.
//!
//! Interpreted recall ([`AssociativeMemoryModule::recall`]) re-derives the
//! same per-query machinery every time: it allocates a drive vector, walks
//! the crossbar cell-by-cell through fault-gain indirection, rebuilds SAR
//! trial currents through the DAC model and collects per-column trajectory
//! vectors. None of that depends on the query — only on the *deployment*
//! (fidelity × fault map × drive kind × device samples). A
//! [`RecallPlan`] hoists all of it into one-time compilation:
//!
//! * **Drive LUTs** — every `(row, level)` pair is lowered through the same
//!   `AssociativeMemoryModule::drive_for_row` path interpreted recall
//!   uses, then evaluated against the row's total load once. At execute
//!   time a drive is a table read, not a DAC model call.
//! * **Flat conductances** — effective cell conductances with fault gains
//!   and column disconnections pre-applied, in one row-major buffer.
//! * **SAR DAC LUTs** — per-column trial currents and per-cycle DAC rail
//!   energies for every code, replacing the DAC model in the conversion
//!   loop. The spin devices themselves (domain-wall neuron, latch) stay
//!   live models: they carry the stochastic physics and the RNG stream.
//! * **Condition/select maps** — column gating, latch offsets, template
//!   ownership and the DOM threshold as dense per-column tables.
//! * **A fixed op sequence** — stage → correlate/solve → condition →
//!   convert → select, executed by a tight interpreter writing into a
//!   pre-sized [`PlanWorkspace`]. After the first execution the kernel
//!   performs no per-query heap allocation; [`RecallPlan::execute_into`]
//!   even reuses the caller's result buffers.
//!
//! # Bit-identity contract
//!
//! An f64 plan ([`PlanPrecision::F64`], the default) is **bit-identical**
//! to interpreted recall: compiled at module state *S*, executing queries
//! `q1..qn` produces exactly the results, RNG stream advance and device
//! counter totals that `recall(q1) .. recall(qn)` on the module at state
//! *S* would produce. This holds because every number the kernel consumes
//! was produced by the same code path interpreted recall runs (drive
//! lowering, DAC currents, conductance reads), the floating-point
//! accumulation order is identical, and the RNG-consuming devices are the
//! same live models called in the same order. `plan::tests` and the
//! conformance proptests pin this across fidelities and fault maps.
//!
//! The f32 tier ([`PlanPrecision::F32`]) trades that contract for speed:
//! the analog correlate runs in f32 (conductances, drive LUTs and the
//! accumulator), then widens before fault conditioning and conversion. Its
//! divergence from the f64 tier is budgeted in the conformance crate's
//! tolerance ledger (`plan_f32_dom_lsb`, `plan_f32_current_rel`). The f32
//! tier is only available for the analytic fidelities — the parasitic
//! netlist solve is f64 end-to-end and a half-precision wrapper around it
//! would misstate where the error comes from.
//!
//! # Snapshot semantics
//!
//! A plan is a snapshot. Mutating the source module after compilation —
//! [`AssociativeMemoryModule::inject_faults`],
//! [`AssociativeMemoryModule::age_array`], reprogramming — does **not**
//! invalidate the plan object but does end the bit-identity relationship
//! with the mutated module; recompile to re-establish it.
//!
//! # Example
//!
//! ```
//! use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
//! use spinamm_core::plan::{PlanOptions, RecallPlan};
//!
//! # fn main() -> Result<(), spinamm_core::CoreError> {
//! let patterns = vec![vec![7, 0, 7, 0], vec![0, 7, 0, 7]];
//! let module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default())?;
//! let mut plan = RecallPlan::compile(&module, PlanOptions::default())?;
//! let result = plan.execute(&[7, 0, 7, 0])?;
//! assert_eq!(result.winner, Some(0));
//! # Ok(())
//! # }
//! ```

use crate::adc::SpinSarAdc;
use crate::amm::{AssociativeMemoryModule, Fidelity, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::hierarchy::HierarchicalAmm;
use crate::partition::PartitionedAmm;
use crate::request::RecallRequest;
use crate::sar::SarRegister;
use crate::wta::{argmax_lowest_index, SpinWta};
use crate::CoreError;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Joules, Seconds, Watts};
use spinamm_crossbar::{CachedParasiticCrossbar, CrossbarArray, RowDrive};
use spinamm_spin::{DomainWallNeuron, Polarity};
use spinamm_telemetry::Recorder;
use spinamm_trace::TraceCtx;
use std::time::Instant;

/// Numeric tier the analog correlate runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanPrecision {
    /// Full double precision — bit-identical to interpreted recall.
    #[default]
    F64,
    /// Single-precision correlate, widened before conversion. Faster on
    /// memory-bound geometries; divergence budgeted in the tolerance
    /// ledger. Analytic fidelities only.
    F32,
}

/// Compile-time options for [`RecallPlan::compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOptions {
    /// Numeric tier of the correlate stage.
    pub precision: PlanPrecision,
}

/// One step of the compiled execution sequence. The sequence is fixed at
/// compile time from `(fidelity, precision)`; the interpreter dispatches
/// over it without any per-query decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanOp {
    /// Copy the query's LUT'd drives into the workspace (parasitic only).
    Stage,
    /// Flat row-major f64 multiply-accumulate over the conductance buffer.
    CorrelateF64,
    /// f32 fast-tier correlate, widened into the f64 current buffer.
    CorrelateF32,
    /// Cached-netlist restamp + factor-reuse solve (parasitic).
    Solve,
    /// Fault conditioning: gate masked/spare columns, apply latch offsets.
    Condition,
    /// Per-column SAR conversion (live spin devices, LUT'd DAC).
    Convert,
    /// Winner tracking, argmax, energy and result assembly.
    Select,
}

/// The shape a plan was compiled for. Two plans with equal geometries have
/// identically sized scratch buffers, so a [`PlanWorkspace`] recycled from
/// one (via [`RecallPlan::into_workspace`]) re-fits the other without any
/// reallocation — the per-tile reuse contract the capacity layer's pools of
/// identical tiles rely on when recompiling after a bank mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanGeometry {
    /// Input vector length.
    pub rows: usize,
    /// Physical column count (templates + spares).
    pub cols: usize,
    /// ADC resolution.
    pub bits: u32,
    /// Exclusive input level cap, `1 << template_bits`.
    pub level_cap: u32,
    /// Whether the plan solves a parasitic netlist (stages full drives).
    pub parasitic: bool,
    /// Numeric tier of the correlate stage.
    pub precision: PlanPrecision,
}

/// Pre-sized scratch buffers reused across executions. Sized once at
/// compile; no execution path grows them.
#[derive(Debug, Clone)]
pub struct PlanWorkspace {
    /// Column currents after correlate/solve, conditioned in place.
    currents: Vec<f64>,
    /// f32 accumulator for the fast tier.
    currents32: Vec<f32>,
    /// RCM static power of the staged query.
    rcm_power: f64,
    /// Flat SAR trajectories, `[col × bits]`.
    traj: Vec<u32>,
    /// Winner-tracker state per column.
    tr: Vec<bool>,
    /// Final codes per column.
    codes: Vec<u32>,
    /// Staged drives (parasitic restamp input).
    drives: Vec<RowDrive>,
}

impl PlanWorkspace {
    /// An empty workspace, grown to shape by [`PlanWorkspace::fit`].
    fn empty() -> Self {
        Self {
            currents: Vec::new(),
            currents32: Vec::new(),
            rcm_power: 0.0,
            traj: Vec::new(),
            tr: Vec::new(),
            codes: Vec::new(),
            drives: Vec::new(),
        }
    }

    /// Re-shapes the buffers (recycled or fresh) for a geometry. When the
    /// buffers already have the right capacity — recycling between plans of
    /// equal [`PlanGeometry`] — this is a clear-and-refill with zero
    /// reallocation.
    fn fit(mut self, geometry: &PlanGeometry) -> Self {
        let PlanGeometry {
            rows,
            cols,
            bits,
            parasitic,
            precision,
            ..
        } = *geometry;
        self.currents.clear();
        self.currents.resize(cols, 0.0);
        self.currents32.clear();
        self.currents32.resize(
            if precision == PlanPrecision::F32 {
                cols
            } else {
                0
            },
            0.0,
        );
        self.rcm_power = 0.0;
        self.traj.clear();
        self.traj.resize(cols * bits as usize, 0);
        self.tr.clear();
        self.tr.resize(cols, false);
        self.codes.clear();
        self.codes.resize(cols, 0);
        self.drives.clear();
        self.drives.resize(
            if parasitic { rows } else { 0 },
            RowDrive::Current(Amps(0.0)),
        );
        self
    }
}

/// A compiled recall plan. See the [module docs](crate::plan) for the
/// compilation model and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct RecallPlan {
    fidelity: Fidelity,
    precision: PlanPrecision,
    rows: usize,
    cols: usize,
    /// Exclusive input level cap, `1 << template_bits`.
    level_cap: u32,
    delta_v: f64,
    ops: Vec<PlanOp>,

    // --- drive stage ----------------------------------------------------
    /// Row input voltages, `[row × level_cap]`.
    v_lut: Vec<f64>,
    /// Row input currents (for RCM power), `[row × level_cap]`.
    iin_lut: Vec<f64>,
    v_lut32: Vec<f32>,
    iin_lut32: Vec<f32>,
    /// Full drives for the parasitic restamp, `[row × level_cap]`.
    drive_lut: Vec<RowDrive>,

    // --- correlate stage ------------------------------------------------
    /// Effective conductances (fault gains applied), row-major `[row × col]`.
    g: Vec<f64>,
    g32: Vec<f32>,
    /// Columns severed by line defects (currents forced to zero).
    disconnected: Vec<bool>,

    // --- condition stage ------------------------------------------------
    /// Columns gated out of the WTA (spares, masked).
    gated: Vec<bool>,
    /// Input-referred latch offsets per column.
    latch_offset: Vec<f64>,
    /// Whether a fault map was present at compile (offsets apply).
    apply_offsets: bool,

    // --- convert stage --------------------------------------------------
    bits: u32,
    /// Codes per column, `1 << bits`.
    codes_per_col: usize,
    /// SAR DAC trial currents, `[col × codes_per_col]`.
    i_dac_lut: Vec<f64>,
    /// Per-cycle DAC rail energy, `[col × codes_per_col]`.
    dac_e_lut: Vec<f64>,
    /// Input saturation ceiling per column.
    ceiling: Vec<f64>,
    /// Cloned converter bank: carries the live spin-device models (and the
    /// thermal / latch-noise flags) for the stochastic conversion loop.
    wta: SpinWta,

    // --- select stage ---------------------------------------------------
    column_owner: Vec<Option<usize>>,
    dom_threshold: u32,
    latency: Seconds,
    digital_energy: Joules,

    // --- execution state ------------------------------------------------
    /// RNG stream cloned from the module at compile; advances exactly as
    /// the module's would under interpreted recall.
    rng: ChaCha8Rng,
    /// Warm-started cached netlist session (parasitic only).
    session: Option<CachedParasiticCrossbar>,
    /// Array snapshot the parasitic session restamps against.
    array: Option<CrossbarArray>,
    ws: PlanWorkspace,
    executions: u64,
}

impl RecallPlan {
    /// Compiles a deployment snapshot into a plan.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors raised while building the lookup
    /// tables, and rejects [`PlanPrecision::F32`] for
    /// [`Fidelity::Parasitic`].
    pub fn compile(
        module: &AssociativeMemoryModule,
        options: PlanOptions,
    ) -> Result<Self, CoreError> {
        Self::compile_request(module, options, &RecallRequest::DEFAULT)
    }

    /// [`RecallPlan::compile`] with observability: the compile is timed
    /// under a `plan.compile` span and counted as `plan.compiles`.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::compile`].
    pub fn compile_request<R: Recorder>(
        module: &AssociativeMemoryModule,
        options: PlanOptions,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        Self::compile_inner(module, options, None, req)
    }

    /// [`RecallPlan::compile`] reusing the scratch buffers of a retired
    /// plan (see [`RecallPlan::into_workspace`]). When the donor's
    /// [`PlanGeometry`] equals the new plan's — tiles of a capacity pool,
    /// or a recompile of the same module after a bank mutation — the
    /// workspace re-fits without reallocating. A mismatched donor is not an
    /// error; its buffers are simply resized.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::compile`].
    pub fn compile_with_workspace(
        module: &AssociativeMemoryModule,
        options: PlanOptions,
        recycled: PlanWorkspace,
    ) -> Result<Self, CoreError> {
        Self::compile_inner(module, options, Some(recycled), &RecallRequest::DEFAULT)
    }

    /// [`RecallPlan::compile_with_workspace`] with observability (adds a
    /// `plan.workspace_recycled` counter next to `plan.compiles`).
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::compile`].
    pub fn compile_with_workspace_request<R: Recorder>(
        module: &AssociativeMemoryModule,
        options: PlanOptions,
        recycled: PlanWorkspace,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        Self::compile_inner(module, options, Some(recycled), req)
    }

    fn compile_inner<R: Recorder>(
        module: &AssociativeMemoryModule,
        options: PlanOptions,
        recycled: Option<PlanWorkspace>,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        let recorder = req.recorder();
        let _span = recorder.span("plan.compile");
        recorder.counter("plan.compiles", 1);
        if recycled.is_some() {
            recorder.counter("plan.workspace_recycled", 1);
        }

        let fidelity = module.config.fidelity;
        let precision = options.precision;
        if precision == PlanPrecision::F32 && fidelity == Fidelity::Parasitic {
            return Err(CoreError::InvalidParameter {
                what: "f32 plans require an analytic (ideal or driven) fidelity",
            });
        }
        let rows = module.array.rows();
        let cols = module.array.cols();
        let level_cap = 1u32 << module.config.params.template_bits;
        let levels = level_cap as usize;
        let parasitic = fidelity == Fidelity::Parasitic;

        // Drive LUTs: lower every (row, level) pair through the module's
        // own drive construction, then evaluate it against the row load —
        // the exact f64s interpreted recall derives per query.
        let mut drive_lut = Vec::with_capacity(rows * levels);
        for i in 0..rows {
            for level in 0..level_cap {
                drive_lut.push(module.drive_for_row(i, level)?);
            }
        }
        let mut v_lut = Vec::with_capacity(rows * levels);
        let mut iin_lut = Vec::with_capacity(rows * levels);
        for i in 0..rows {
            let load = module.array.row_total_conductance(i)?;
            for level in 0..levels {
                let d = &drive_lut[i * levels + level];
                v_lut.push(d.input_voltage(load).0);
                iin_lut.push(d.current_into(load).0);
            }
        }

        // Effective conductances with fault gains applied.
        let mut g = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                g.push(module.array.conductance(i, j)?.0);
            }
        }
        let disconnected: Vec<bool> = (0..cols)
            .map(|j| module.array.column_disconnected(j))
            .collect();

        // f32 shadows only when the fast tier is compiled in.
        let (g32, v_lut32, iin_lut32) = if precision == PlanPrecision::F32 {
            (
                g.iter().map(|&x| x as f32).collect(),
                v_lut.iter().map(|&x| x as f32).collect(),
                iin_lut.iter().map(|&x| x as f32).collect(),
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        // Condition maps.
        let gated: Vec<bool> = (0..cols)
            .map(|j| module.column_owner[j].is_none() || module.masked[j])
            .collect();
        let fault_map = module.array.fault_map();
        let latch_offset: Vec<f64> = (0..cols)
            .map(|j| fault_map.map_or(0.0, |m| m.latch_offset(j)))
            .collect();
        let apply_offsets = fault_map.is_some();

        // SAR DAC LUTs per column.
        let bits = module.wta.bits();
        let codes_per_col = 1usize << bits;
        let mut i_dac_lut = Vec::with_capacity(cols * codes_per_col);
        let mut dac_e_lut = Vec::with_capacity(cols * codes_per_col);
        let mut ceiling = Vec::with_capacity(cols);
        for adc in module.wta.adcs() {
            ceiling.push(adc.saturation_ceiling()?.0);
            for code in 0..codes_per_col as u32 {
                let i_dac = adc.dac.clamped_current(code)?.0;
                i_dac_lut.push(i_dac);
                dac_e_lut.push(i_dac * 2.0 * adc.dac.supply().0 * adc.clock_period.0);
            }
        }

        let ops = match (parasitic, precision) {
            (true, _) => vec![
                PlanOp::Stage,
                PlanOp::Solve,
                PlanOp::Condition,
                PlanOp::Convert,
                PlanOp::Select,
            ],
            (false, PlanPrecision::F64) => vec![
                PlanOp::CorrelateF64,
                PlanOp::Condition,
                PlanOp::Convert,
                PlanOp::Select,
            ],
            (false, PlanPrecision::F32) => vec![
                PlanOp::CorrelateF32,
                PlanOp::Condition,
                PlanOp::Convert,
                PlanOp::Select,
            ],
        };

        let geometry = PlanGeometry {
            rows,
            cols,
            bits,
            level_cap,
            parasitic,
            precision,
        };
        let ws = recycled.unwrap_or_else(PlanWorkspace::empty).fit(&geometry);

        Ok(Self {
            fidelity,
            precision,
            rows,
            cols,
            level_cap,
            delta_v: module.config.params.delta_v.0,
            ops,
            v_lut,
            iin_lut,
            v_lut32,
            iin_lut32,
            drive_lut: if parasitic { drive_lut } else { Vec::new() },
            g,
            g32,
            disconnected,
            gated,
            latch_offset,
            apply_offsets,
            bits,
            codes_per_col,
            i_dac_lut,
            dac_e_lut,
            ceiling,
            wta: module.wta.clone(),
            column_owner: module.column_owner.clone(),
            dom_threshold: module.config.dom_threshold,
            latency: module.latency(),
            digital_energy: module.wta.digital_energy(),
            rng: module.rng.clone(),
            session: parasitic.then(|| module.parasitic.clone()),
            array: parasitic.then(|| module.array.clone()),
            ws,
            executions: 0,
        })
    }

    /// The fidelity this plan was compiled for.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The numeric tier the correlate runs in.
    #[must_use]
    pub fn precision(&self) -> PlanPrecision {
        self.precision
    }

    /// Input vector length.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Physical column count.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.cols
    }

    /// Queries executed through this plan so far.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// The shape this plan was compiled for. Plans with equal geometries
    /// can exchange workspaces allocation-free (see
    /// [`RecallPlan::compile_with_workspace`]).
    #[must_use]
    pub fn geometry(&self) -> PlanGeometry {
        PlanGeometry {
            rows: self.rows,
            cols: self.cols,
            bits: self.bits,
            level_cap: self.level_cap,
            parasitic: self.fidelity == Fidelity::Parasitic,
            precision: self.precision,
        }
    }

    /// Retires the plan, salvaging its scratch buffers for the next
    /// compile. The intended lifecycle for a mutable tile: recall through
    /// the plan until the module mutates (install/evict/faults), then
    /// `RecallPlan::compile_with_workspace(&module, opts, old.into_workspace())`
    /// — a snapshot refresh that reuses every scratch allocation.
    #[must_use]
    pub fn into_workspace(self) -> PlanWorkspace {
        self.ws
    }

    /// Recompiles this plan in place against `module` (after a bank
    /// mutation), at the same precision, recycling its own workspace.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::compile`]; the plan keeps its previous lowering
    /// (with a fresh workspace) on error.
    pub(crate) fn recompile_request<R: Recorder>(
        &mut self,
        module: &AssociativeMemoryModule,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), CoreError> {
        let options = PlanOptions {
            precision: self.precision,
        };
        let recycled = std::mem::replace(&mut self.ws, PlanWorkspace::empty());
        match Self::compile_inner(module, options, Some(recycled), req) {
            Ok(plan) => {
                *self = plan;
                Ok(())
            }
            Err(e) => {
                self.ws = PlanWorkspace::empty().fit(&self.geometry());
                Err(e)
            }
        }
    }

    /// Executes one query.
    ///
    /// # Errors
    ///
    /// Same validation as [`AssociativeMemoryModule::recall`]
    /// ([`CoreError::InputLengthMismatch`], out-of-range levels), plus any
    /// solver error in parasitic fidelity.
    pub fn execute(&mut self, levels: &[u32]) -> Result<RecallResult, CoreError> {
        self.execute_request(levels, &RecallRequest::DEFAULT)
    }

    /// [`RecallPlan::execute`] with observability: timed under a
    /// `plan.execute` span, traced with the same `settle` / `convert` /
    /// `select` phases as interpreted recall, counted as
    /// `plan.executions` (and `plan.workspace_reuses` after the first).
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::execute`].
    pub fn execute_request<R: Recorder>(
        &mut self,
        levels: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<RecallResult, CoreError> {
        let recorder = req.recorder();
        let _total_span = recorder.span("plan.execute");
        let scope = req.trace_binding().begin("plan.execute");
        self.execute_inner(levels, recorder, scope.ctx())
    }

    /// Executes one query, reusing the caller's result buffers: `codes`
    /// and `column_currents` are cleared and refilled in place, making the
    /// full query path allocation-free once buffers have warmed up.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::execute`].
    pub fn execute_into(
        &mut self,
        levels: &[u32],
        out: &mut RecallResult,
    ) -> Result<(), CoreError> {
        let recorder = RecallRequest::DEFAULT.recorder();
        self.validate(levels)?;
        self.note_execution(recorder);
        self.run_eval_ops(levels, recorder, TraceCtx::NONE)?;
        let energy = self.run_condition_convert(recorder, TraceCtx::NONE)?;
        self.finish_select_into(energy, recorder, TraceCtx::NONE, out);
        Ok(())
    }

    /// Executes a whole batch sequentially through the plan kernel.
    ///
    /// Error semantics match
    /// [`AssociativeMemoryModule::recall_batch`]: every input is validated
    /// up front, so an invalid input fails the batch before any query runs
    /// or consumes randomness.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::execute`].
    pub fn execute_batch<S: AsRef<[u32]>>(
        &mut self,
        inputs: &[S],
    ) -> Result<Vec<RecallResult>, CoreError> {
        self.execute_batch_request(inputs, &RecallRequest::DEFAULT)
    }

    /// [`RecallPlan::execute_batch`] with observability (one `plan.batch`
    /// span over the whole batch).
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::execute_batch`].
    pub fn execute_batch_request<S: AsRef<[u32]>, R: Recorder>(
        &mut self,
        inputs: &[S],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<RecallResult>, CoreError> {
        let recorder = req.recorder();
        let _span = recorder.span("plan.batch");
        for input in inputs {
            self.validate(input.as_ref())?;
        }
        inputs
            .iter()
            .map(|input| self.execute_inner(input.as_ref(), recorder, TraceCtx::NONE))
            .collect()
    }

    /// Runs the RNG-free first phase of one recognition through the plan
    /// kernel, yielding the same [`QueryEvaluation`] the module's
    /// [`AssociativeMemoryModule::evaluate_query_request`] would produce
    /// (bit-identical in f64). This is the engine-worker entry point: a
    /// worker executes plan phase 1, the sequencer's master module
    /// finishes with its own RNG.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::execute`].
    pub fn evaluate_query_request<R: Recorder>(
        &mut self,
        levels: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        let recorder = req.recorder();
        let trace = req.trace_binding().join_ctx();
        self.validate(levels)?;
        self.note_execution(recorder);
        self.run_eval_ops(levels, recorder, trace)?;
        Ok(QueryEvaluation {
            currents: self.ws.currents.iter().copied().map(Amps).collect(),
            rcm_power: Watts(self.ws.rcm_power),
        })
    }

    fn validate(&self, levels: &[u32]) -> Result<(), CoreError> {
        if levels.len() != self.rows {
            return Err(CoreError::InputLengthMismatch {
                expected: self.rows,
                found: levels.len(),
            });
        }
        if levels.iter().any(|&l| l >= self.level_cap) {
            return Err(CoreError::InvalidParameter {
                what: "input level exceeds template bit width",
            });
        }
        Ok(())
    }

    fn note_execution<T: Recorder>(&mut self, recorder: &T) {
        recorder.counter("plan.executions", 1);
        if self.executions > 0 {
            recorder.counter("plan.workspace_reuses", 1);
        }
        self.executions += 1;
    }

    fn execute_inner<T: Recorder>(
        &mut self,
        levels: &[u32],
        recorder: &T,
        trace: TraceCtx<'_>,
    ) -> Result<RecallResult, CoreError> {
        self.validate(levels)?;
        self.note_execution(recorder);
        self.run_eval_ops(levels, recorder, trace)?;
        let energy = self.run_condition_convert(recorder, trace)?;
        Ok(self.finish_select(energy, recorder, trace))
    }

    /// Runs the query-evaluation half of the op sequence (everything
    /// before `Condition`): staging, correlate or solve.
    fn run_eval_ops<T: Recorder>(
        &mut self,
        levels: &[u32],
        recorder: &T,
        trace: TraceCtx<'_>,
    ) -> Result<(), CoreError> {
        for k in 0..self.ops.len() {
            match self.ops[k] {
                PlanOp::Stage => self.op_stage(levels),
                PlanOp::CorrelateF64 => self.op_correlate_f64(levels, recorder, trace),
                PlanOp::CorrelateF32 => self.op_correlate_f32(levels, recorder, trace),
                PlanOp::Solve => self.op_solve(recorder, trace)?,
                PlanOp::Condition | PlanOp::Convert | PlanOp::Select => break,
            }
        }
        Ok(())
    }

    /// Runs `Condition` + `Convert`, mirroring
    /// `select_winner_inner` / `evaluate_traced` exactly: same counter
    /// names, same RNG consumption order, same energy accumulation.
    fn run_condition_convert<T: Recorder>(
        &mut self,
        recorder: &T,
        trace: TraceCtx<'_>,
    ) -> Result<EnergyBreakdown, CoreError> {
        recorder.counter("recall.count", 1);
        self.op_condition();
        self.op_convert(recorder, trace)
    }

    /// Stages the query's LUT'd drives for the parasitic restamp.
    fn op_stage(&mut self, levels: &[u32]) {
        if self.drive_lut.is_empty() {
            return;
        }
        let lc = self.level_cap as usize;
        for (i, &level) in levels.iter().enumerate() {
            self.ws.drives[i] = self.drive_lut[i * lc + level as usize];
        }
    }

    /// Flat f64 correlate: the same row-outer / column-inner
    /// multiply-accumulate order as
    /// `CrossbarArray::ideal_column_currents`, so every partial sum is
    /// the identical f64.
    fn op_correlate_f64<T: Recorder>(&mut self, levels: &[u32], recorder: &T, trace: TraceCtx<'_>) {
        let _span = recorder.span("plan.settle");
        let _phase = trace.phase("settle");
        let Self {
            ws,
            g,
            v_lut,
            iin_lut,
            disconnected,
            level_cap,
            cols,
            delta_v,
            ..
        } = self;
        let lc = *level_cap as usize;
        let cols = *cols;
        for c in ws.currents.iter_mut() {
            *c = 0.0;
        }
        for (i, &level) in levels.iter().enumerate() {
            let v = v_lut[i * lc + level as usize];
            let row = &g[i * cols..(i + 1) * cols];
            for (o, &gij) in ws.currents.iter_mut().zip(row) {
                *o += v * gij;
            }
        }
        for (o, &cut) in ws.currents.iter_mut().zip(disconnected.iter()) {
            if cut {
                *o = 0.0;
            }
        }
        let mut total_in = 0.0;
        for (i, &level) in levels.iter().enumerate() {
            total_in += iin_lut[i * lc + level as usize];
        }
        ws.rcm_power = total_in * *delta_v;
    }

    /// f32 fast-tier correlate: identical loop structure, single-precision
    /// buffers and accumulators, widened into the f64 current buffer
    /// before conditioning.
    fn op_correlate_f32<T: Recorder>(&mut self, levels: &[u32], recorder: &T, trace: TraceCtx<'_>) {
        let _span = recorder.span("plan.settle");
        let _phase = trace.phase("settle");
        let Self {
            ws,
            g32,
            v_lut32,
            iin_lut32,
            disconnected,
            level_cap,
            cols,
            delta_v,
            ..
        } = self;
        let lc = *level_cap as usize;
        let cols = *cols;
        for c in ws.currents32.iter_mut() {
            *c = 0.0;
        }
        for (i, &level) in levels.iter().enumerate() {
            let v = v_lut32[i * lc + level as usize];
            let row = &g32[i * cols..(i + 1) * cols];
            for (o, &gij) in ws.currents32.iter_mut().zip(row) {
                *o += v * gij;
            }
        }
        let mut total_in = 0.0f32;
        for (i, &level) in levels.iter().enumerate() {
            total_in += iin_lut32[i * lc + level as usize];
        }
        for (j, c) in ws.currents.iter_mut().enumerate() {
            *c = if disconnected[j] {
                0.0
            } else {
                f64::from(ws.currents32[j])
            };
        }
        ws.rcm_power = f64::from(total_in) * *delta_v;
    }

    /// Parasitic solve through the plan's warm cached-netlist session.
    /// Bit-identity with the module's own session rests on the crossbar
    /// crate's clone/order-independence guarantees (sessions are pure
    /// functions of `(array, drives)` once built).
    fn op_solve<T: Recorder>(
        &mut self,
        recorder: &T,
        trace: TraceCtx<'_>,
    ) -> Result<(), CoreError> {
        let _span = recorder.span("plan.settle");
        let phase = trace.phase("settle");
        let session = self.session.as_mut().expect("parasitic plan has a session");
        let array = self.array.as_ref().expect("parasitic plan has an array");
        let readout = session.evaluate_traced(array, &self.ws.drives, recorder, trace)?;
        drop(phase);
        for (c, i) in self.ws.currents.iter_mut().zip(&readout.column_currents) {
            *c = i.0;
        }
        self.ws.rcm_power = readout.dissipated_power.0;
        Ok(())
    }

    /// Fault conditioning — same arithmetic as
    /// `AssociativeMemoryModule::condition_currents`.
    fn op_condition(&mut self) {
        for j in 0..self.cols {
            if self.gated[j] {
                self.ws.currents[j] = 0.0;
            } else if self.apply_offsets {
                let offset = self.latch_offset[j];
                if offset != 0.0 {
                    self.ws.currents[j] = (self.ws.currents[j] + offset).max(0.0);
                }
            }
        }
    }

    /// The fused conversion loop: per column, the same clamp → SAR cycle →
    /// neuron write → latch sense → DAC energy sequence as
    /// `SpinSarAdc::convert_with`, with the DAC model replaced by LUT
    /// reads. Trajectories land in the flat workspace buffer instead of
    /// per-column vectors; energy subtotals accumulate exactly as the
    /// interpreted two-pass does (per-conversion from zero, outer sums in
    /// column order).
    fn op_convert<T: Recorder>(
        &mut self,
        recorder: &T,
        trace: TraceCtx<'_>,
    ) -> Result<EnergyBreakdown, CoreError> {
        let convert_span = recorder.span("plan.convert");
        let convert_phase = trace.phase("convert");
        let Self {
            wta,
            rng,
            ws,
            i_dac_lut,
            dac_e_lut,
            ceiling,
            codes_per_col,
            bits,
            ..
        } = self;
        let bits = *bits;
        let bits_us = bits as usize;
        let cpc = *codes_per_col;
        let mut energy = EnergyBreakdown::default();
        for (j, adc) in wta.adcs().iter().enumerate() {
            let raw = ws.currents[j];
            if !raw.is_finite() {
                return Err(CoreError::InvalidParameter {
                    what: "ADC input current must be finite",
                });
            }
            let input = raw.clamp(0.0, ceiling[j]);
            let pulse = Seconds(adc.clock_period.0 * SpinSarAdc::PULSE_FRACTION);
            let mut sar = SarRegister::new(bits);
            let mut dwn_energy = Joules::ZERO;
            let mut latch_energy = Joules::ZERO;
            let mut dac_energy = Joules::ZERO;
            let mut neuron = DomainWallNeuron::new(adc.neuron);
            let mut cycle = 0usize;
            while !sar.is_done() {
                recorder.counter("adc.sar_cycles", 1);
                let trial = sar.code();
                let i_dac = i_dac_lut[j * cpc + trial as usize];
                let net = Amps(input - i_dac);

                neuron.set_state(Polarity::Down);
                let state = if adc.thermal {
                    neuron.apply_thermal_with(net, pulse, rng, recorder)
                } else {
                    neuron.apply_with(net, pulse, recorder)
                };
                dwn_energy += adc.neuron.write_energy(net, pulse);

                let sensed = if adc.latch_noise {
                    adc.latch.sense_with(&adc.mtj, state, rng, recorder)
                } else {
                    recorder.counter("spin.latch_fires", 1);
                    state
                };
                latch_energy += adc.latch.sense_energy();

                dac_energy += Joules(dac_e_lut[j * cpc + trial as usize]);

                sar.step(sensed == Polarity::Up);
                ws.traj[j * bits_us + cycle] = sar.code();
                cycle += 1;
            }
            ws.codes[j] = sar.code();
            energy.dwn_write += dwn_energy;
            energy.latch_sense += latch_energy;
            energy.dac_static += dac_energy;
        }
        convert_phase.attr("columns", wta.adcs().len() as f64);
        drop(convert_phase);
        drop(convert_span);
        Ok(energy)
    }

    /// Winner tracking + argmax + result assembly, allocation-free over
    /// the flat trajectory buffer — same narrowing schedule, tie-breaks
    /// and energy folding as `SpinWta::evaluate_traced` +
    /// `assemble_result`.
    fn finish_select(
        &mut self,
        energy: EnergyBreakdown,
        recorder: &impl Recorder,
        trace: TraceCtx<'_>,
    ) -> RecallResult {
        let mut out = RecallResult {
            winner: None,
            raw_winner: 0,
            tracked_winner: None,
            dom: 0,
            codes: Vec::new(),
            column_currents: Vec::new(),
            energy: EnergyBreakdown::default(),
        };
        self.finish_select_into(energy, recorder, trace, &mut out);
        out
    }

    fn finish_select_into(
        &mut self,
        mut energy: EnergyBreakdown,
        recorder: &impl Recorder,
        trace: TraceCtx<'_>,
        out: &mut RecallResult,
    ) {
        let _select_span = recorder.span("plan.select");
        let _select_phase = trace.phase("select");
        let Self {
            ws,
            bits,
            cols,
            column_owner,
            dom_threshold,
            latency,
            digital_energy,
            ..
        } = self;
        let bits = *bits;
        let bits_us = bits as usize;
        let n = *cols;

        // Cycle 1: TR ← resolved MSB; cycles 2..bits: conditional narrowing.
        let msb_mask = 1u32 << (bits - 1);
        for j in 0..n {
            ws.tr[j] = ws.traj[j * bits_us] & msb_mask != 0;
        }
        for cycle in 1..bits_us {
            let bit_mask = 1u32 << (bits - 1 - cycle as u32);
            let discharge =
                (0..n).any(|j| ws.tr[j] && ws.traj[j * bits_us + cycle] & bit_mask != 0);
            if discharge {
                recorder.counter("wta.dl_transitions", 1);
                for j in 0..n {
                    ws.tr[j] = ws.tr[j] && ws.traj[j * bits_us + cycle] & bit_mask != 0;
                }
            }
        }
        let mut tracked_count = 0usize;
        let mut tracked_phys = 0usize;
        for j in 0..n {
            if ws.tr[j] {
                tracked_count += 1;
                tracked_phys = j;
            }
        }
        let winner = argmax_lowest_index(&ws.codes).expect("non-empty by construction");
        let dom = ws.codes[winner];

        energy.digital = *digital_energy;
        energy.rcm_static = Joules(ws.rcm_power * latency.0);

        let raw_winner = column_owner[winner].unwrap_or(0);
        let accepted = dom >= *dom_threshold;
        out.winner = accepted.then_some(raw_winner);
        out.raw_winner = raw_winner;
        out.tracked_winner = (tracked_count == 1)
            .then_some(tracked_phys)
            .and_then(|p| column_owner[p]);
        out.dom = dom;
        out.codes.clear();
        out.codes.extend_from_slice(&ws.codes);
        out.column_currents.clear();
        out.column_currents
            .extend(ws.currents.iter().copied().map(Amps));
        out.energy = energy;
    }
}

/// A compiled partitioned deployment: one [`RecallPlan`] per row segment
/// for the engine's RNG-free evaluation phase. f64 plan evaluation is
/// bit-identical to [`PartitionedAmm::evaluate_query_request`].
#[derive(Debug, Clone)]
pub struct PartitionedPlan {
    segments: Vec<SegmentPlan>,
    vector_len: usize,
}

#[derive(Debug, Clone)]
struct SegmentPlan {
    start: usize,
    end: usize,
    plan: RecallPlan,
}

impl PartitionedPlan {
    /// Compiles every segment module of a partitioned deployment.
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::compile`].
    pub fn compile(partitioned: &PartitionedAmm, options: PlanOptions) -> Result<Self, CoreError> {
        Self::compile_request(partitioned, options, &RecallRequest::DEFAULT)
    }

    /// [`PartitionedPlan::compile`] with observability: each segment's
    /// compile is recorded like [`RecallPlan::compile_request`].
    ///
    /// # Errors
    ///
    /// See [`PartitionedPlan::compile`].
    pub fn compile_request<R: Recorder>(
        partitioned: &PartitionedAmm,
        options: PlanOptions,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        let segments = partitioned
            .segments
            .iter()
            .map(|seg| {
                Ok(SegmentPlan {
                    start: seg.start,
                    end: seg.end,
                    plan: RecallPlan::compile_request(&seg.module, options, req)?,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(Self {
            segments,
            vector_len: partitioned.vector_len,
        })
    }

    /// Runs the RNG-free first phase on every segment, yielding one
    /// [`QueryEvaluation`] per segment for the engine's sequencer —
    /// bit-identical (f64) to
    /// [`PartitionedAmm::evaluate_query_request`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InputLengthMismatch`] for a wrong-length vector;
    /// otherwise see [`RecallPlan::evaluate_query_request`].
    pub fn evaluate_query_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<QueryEvaluation>, CoreError> {
        if input.len() != self.vector_len {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len,
                found: input.len(),
            });
        }
        // Same trace shape as the interpreted path: segments run untraced
        // and each contributes one "shard.settle" span.
        let ctx = req.trace_binding().join_ctx();
        let inner = req.untraced();
        self.segments
            .iter_mut()
            .enumerate()
            .map(|(k, seg)| {
                let t0 = ctx.active().then(Instant::now);
                let eval = seg
                    .plan
                    .evaluate_query_request(&input[seg.start..seg.end], &inner);
                if let Some(t0) = t0 {
                    ctx.span_at(
                        "shard.settle",
                        t0,
                        t0.elapsed(),
                        &[("shard", k as f64), ("rows", (seg.end - seg.start) as f64)],
                    );
                }
                eval
            })
            .collect()
    }
}

/// A compiled hierarchical deployment: the stage-A (centroid) module and
/// every cluster member module lowered into [`RecallPlan`]s for the
/// engine's RNG-free evaluation phase. f64 plan evaluation is
/// bit-identical to the interpreted modules.
#[derive(Debug, Clone)]
pub struct HierarchicalPlan {
    top: RecallPlan,
    members: Vec<RecallPlan>,
}

impl HierarchicalPlan {
    /// Compiles a hierarchical deployment's stage-A module and every
    /// cluster member module.
    ///
    /// # Errors
    ///
    /// Returns the first module's compile error.
    pub fn compile(
        hierarchical: &HierarchicalAmm,
        options: PlanOptions,
    ) -> Result<Self, CoreError> {
        Self::compile_request(hierarchical, options, &RecallRequest::DEFAULT)
    }

    /// [`HierarchicalPlan::compile`] with observability.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalPlan::compile`].
    pub fn compile_request<R: Recorder>(
        hierarchical: &HierarchicalAmm,
        options: PlanOptions,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        let top = RecallPlan::compile_request(&hierarchical.top, options, req)?;
        let members = hierarchical
            .clusters
            .iter()
            .map(|c| RecallPlan::compile_request(&c.module, options, req))
            .collect::<Result<_, _>>()?;
        Ok(Self { top, members })
    }

    /// Stage-A RNG-free phase through the compiled top plan —
    /// bit-identical (f64) to
    /// [`HierarchicalAmm::evaluate_top_request`].
    ///
    /// # Errors
    ///
    /// See [`RecallPlan::evaluate_query_request`].
    pub fn evaluate_top_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        self.top.evaluate_query_request(input, req)
    }

    /// Stage-B RNG-free phase through `cluster`'s compiled plan —
    /// bit-identical (f64) to
    /// [`HierarchicalAmm::evaluate_member_request`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range
    /// cluster; see [`RecallPlan::evaluate_query_request`].
    pub fn evaluate_member_request<R: Recorder>(
        &mut self,
        cluster: usize,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        self.members
            .get_mut(cluster)
            .ok_or(CoreError::InvalidParameter {
                what: "cluster index out of range",
            })?
            .evaluate_query_request(input, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amm::AmmConfig;
    use spinamm_telemetry::MemoryRecorder;

    fn patterns() -> Vec<Vec<u32>> {
        (0..4)
            .map(|p| {
                (0..16)
                    .map(|i| {
                        if i % 4 == p {
                            25
                        } else {
                            (i as u32 * 3 + p as u32) % 8
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn queries() -> Vec<Vec<u32>> {
        (0..6)
            .map(|q: u32| (0..16).map(|i| (i as u32 * 7 + q * 5) % 32).collect())
            .collect()
    }

    fn config(fidelity: Fidelity) -> AmmConfig {
        AmmConfig {
            fidelity,
            ..AmmConfig::default()
        }
    }

    fn assert_results_identical(got: &RecallResult, want: &RecallResult) {
        assert_eq!(got.winner, want.winner);
        assert_eq!(got.raw_winner, want.raw_winner);
        assert_eq!(got.tracked_winner, want.tracked_winner);
        assert_eq!(got.dom, want.dom);
        assert_eq!(got.codes, want.codes);
        assert_eq!(got.column_currents.len(), want.column_currents.len());
        for (a, b) in got.column_currents.iter().zip(&want.column_currents) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
        }
        assert_eq!(
            got.energy.total().0.to_bits(),
            want.energy.total().0.to_bits()
        );
    }

    #[test]
    fn f64_plan_is_bit_identical_across_fidelities() {
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = config(fidelity);
            let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let mut plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
            for q in queries() {
                let want = module.recall(&q).unwrap();
                let got = plan.execute(&q).unwrap();
                assert_results_identical(&got, &want);
            }
        }
    }

    #[test]
    fn f64_plan_advances_rng_identically() {
        // Thermal + latch noise make every conversion consume randomness;
        // if the plan's stream diverged anywhere, later queries would too.
        let cfg = AmmConfig {
            thermal: true,
            latch_noise: true,
            ..config(Fidelity::Driven)
        };
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
        for q in queries() {
            let want = module.recall(&q).unwrap();
            let got = plan.execute(&q).unwrap();
            assert_results_identical(&got, &want);
        }
    }

    #[test]
    fn plan_batch_matches_interpreted_batch() {
        let cfg = config(Fidelity::Driven);
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
        let qs = queries();
        let want = module.recall_batch(&qs).unwrap();
        let got = plan.execute_batch(&qs).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_results_identical(g, w);
        }
    }

    #[test]
    fn plan_counter_totals_match_interpreted() {
        let cfg = config(Fidelity::Driven);
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();

        let interp = MemoryRecorder::default();
        let compiled = MemoryRecorder::default();
        for q in queries() {
            module
                .recall_request(&q, &RecallRequest::recorded(&interp))
                .unwrap();
            plan.execute_request(&q, &RecallRequest::recorded(&compiled))
                .unwrap();
        }
        let want = interp.snapshot();
        let got = compiled.snapshot();
        for name in [
            "recall.count",
            "adc.sar_cycles",
            "spin.dwn_switch_events",
            "spin.latch_fires",
            "wta.dl_transitions",
        ] {
            assert_eq!(got.counter(name), want.counter(name), "counter {name}");
        }
        assert_eq!(got.counter("plan.executions"), queries().len() as u64);
        assert_eq!(
            got.counter("plan.workspace_reuses"),
            queries().len() as u64 - 1
        );
    }

    #[test]
    fn execute_into_matches_execute_and_reuses_buffers() {
        let cfg = config(Fidelity::Driven);
        let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut a = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
        let mut b = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
        let mut out = RecallResult {
            winner: None,
            raw_winner: 0,
            tracked_winner: None,
            dom: 0,
            codes: Vec::new(),
            column_currents: Vec::new(),
            energy: EnergyBreakdown::default(),
        };
        for q in queries() {
            let want = a.execute(&q).unwrap();
            b.execute_into(&q, &mut out).unwrap();
            assert_results_identical(&out, &want);
        }
    }

    #[test]
    fn plan_evaluate_matches_module_evaluate() {
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = config(fidelity);
            let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let mut plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
            for q in queries() {
                let want = module
                    .evaluate_query_request(&q, &RecallRequest::DEFAULT)
                    .unwrap();
                let got = plan
                    .evaluate_query_request(&q, &RecallRequest::DEFAULT)
                    .unwrap();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn plan_validates_before_consuming_state() {
        let cfg = config(Fidelity::Driven);
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();

        assert!(matches!(
            plan.execute(&[0; 3]),
            Err(CoreError::InputLengthMismatch { .. })
        ));
        assert!(matches!(
            plan.execute(&[99; 16]),
            Err(CoreError::InvalidParameter { .. })
        ));
        // A batch with a late invalid input must fail before any query
        // consumes randomness — the plan then still tracks the module.
        let bad: Vec<Vec<u32>> = vec![queries()[0].clone(), vec![99; 16]];
        assert!(plan.execute_batch(&bad).is_err());
        let q = &queries()[1];
        let want = module.recall(q).unwrap();
        let got = plan.execute(q).unwrap();
        assert_results_identical(&got, &want);
    }

    #[test]
    fn f32_plan_stays_close_to_f64() {
        let cfg = config(Fidelity::Driven);
        let reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut f64_plan = RecallPlan::compile(&reference, PlanOptions::default()).unwrap();
        let mut f32_plan = RecallPlan::compile(
            &reference,
            PlanOptions {
                precision: PlanPrecision::F32,
            },
        )
        .unwrap();
        for q in queries() {
            let want = f64_plan.execute(&q).unwrap();
            let got = f32_plan.execute(&q).unwrap();
            assert_eq!(got.winner, want.winner, "f32 tier flipped the winner");
            let diff = got.dom.abs_diff(want.dom);
            assert!(diff <= 1, "f32 DOM diverged by {diff} LSB");
            for (a, b) in got.column_currents.iter().zip(&want.column_currents) {
                let denom = b.0.abs().max(1e-12);
                assert!((a.0 - b.0).abs() / denom < 1e-5);
            }
        }
    }

    #[test]
    fn f32_plan_rejected_for_parasitic() {
        let reference =
            AssociativeMemoryModule::build(&patterns(), &config(Fidelity::Parasitic)).unwrap();
        assert!(matches!(
            RecallPlan::compile(
                &reference,
                PlanOptions {
                    precision: PlanPrecision::F32
                }
            ),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn partitioned_plan_matches_partitioned_recall() {
        // Engine-style split: the compiled plan (a worker's clone) runs
        // the RNG-free phase, the interpreted master runs the select —
        // bit-identical to plain sequential partitioned recall.
        let cfg = config(Fidelity::Driven);
        let mut reference = PartitionedAmm::build(&patterns(), 3, &cfg).unwrap();
        let mut master = reference.clone();
        let mut plan = PartitionedPlan::compile(&reference, PlanOptions::default()).unwrap();
        let req = RecallRequest::DEFAULT;
        for q in queries() {
            let want = reference.recall(&q).unwrap();
            let evals = plan.evaluate_query_request(&q, &req).unwrap();
            assert_eq!(evals.len(), 3);
            let got = master.select_winner_request(evals, &req).unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn hierarchical_plan_matches_interpreted_two_phase() {
        // Engine-style split: the compiled plan (a worker's clone) runs
        // both RNG-free phases, the interpreted master runs both selects —
        // bit-identical to plain sequential hierarchical recall.
        let cfg = config(Fidelity::Driven);
        let pats: Vec<Vec<u32>> = (0..6)
            .map(|p| {
                (0..16)
                    .map(|i| {
                        if i % 3 == p % 3 {
                            28
                        } else {
                            (i + p) as u32 % 6
                        }
                    })
                    .collect()
            })
            .collect();
        let mut reference = HierarchicalAmm::build(&pats, 2, &cfg).unwrap();
        let mut master = reference.clone();
        let mut plan = HierarchicalPlan::compile(&reference, PlanOptions::default()).unwrap();
        let req = RecallRequest::DEFAULT;
        for q in queries() {
            let want = reference.recall(&q).unwrap();
            let top_eval = plan.evaluate_top_request(&q, &req).unwrap();
            let top = master.select_top_request(top_eval, &req).unwrap();
            let cluster = top.raw_winner;
            let member_eval = plan.evaluate_member_request(cluster, &q, &req).unwrap();
            let got = master
                .select_member_request(cluster, member_eval, &top, &req)
                .unwrap();
            assert_eq!(got, want);
        }
        // One member plan per cluster.
        let last = master.cluster_count() - 1;
        assert!(plan
            .evaluate_member_request(last, &queries()[0], &req)
            .is_ok());
        assert!(plan
            .evaluate_member_request(master.cluster_count(), &queries()[0], &req)
            .is_err());
    }

    #[test]
    fn compile_records_telemetry() {
        let reference =
            AssociativeMemoryModule::build(&patterns(), &config(Fidelity::Driven)).unwrap();
        let rec = MemoryRecorder::default();
        let _plan = RecallPlan::compile_request(
            &reference,
            PlanOptions::default(),
            &RecallRequest::recorded(&rec),
        )
        .unwrap();
        assert_eq!(rec.snapshot().counter("plan.compiles"), 1);
    }
}
