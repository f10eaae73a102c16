//! The tiled capacity layer: associative search far beyond one crossbar.
//!
//! The paper's operating point is 40 templates in a single 128×40 RCM
//! block. Production associative search wants 10⁵–10⁶ templates and
//! *ranked* results, so this module generalizes the modular-RCM idea of
//! [`crate::partition`] along the other axis: instead of splitting each
//! pattern's **rows** across segments, a [`TiledAmm`] shards the
//! **template set** across a pool of identical full-height crossbar tiles.
//! Each tile is a complete [`AssociativeMemoryModule`] — its own input
//! DACs, spin SAR column converters and calibration — holding a contiguous
//! chunk of the template bank plus spare columns; a digital merge network
//! combines the per-tile column codes into a global top-k ranking.
//!
//! # Determinism and the k=1 identity
//!
//! A pool recall runs the same two phases as every other deployment:
//!
//! 1. **Evaluate** (RNG-free): each tile produces its analog column
//!    currents through its compiled [`RecallPlan`] (the f64 tier is
//!    bit-identical to interpreted evaluation by the [`crate::plan`]
//!    contract). Tiles are
//!    independent, so this phase parallelizes freely — across engine
//!    workers or across the in-process batch threads — without affecting
//!    any bit of the result.
//! 2. **Select** (RNG-consuming): each tile's converters digitize in
//!    **fixed tile order**, advancing each tile module's own RNG exactly
//!    as a sequential loop would. Responses are therefore bit-identical
//!    whatever executed phase 1.
//!
//! The merge is the pure function [`top_k_merge`] over the concatenated
//! per-tile code vectors: candidates are ordered by `(code descending,
//! global column ascending)`, a strict total order. At k=1 this reduces
//! *exactly* to [`crate::wta::argmax_lowest_index`] over the
//! concatenation — the single tie-break rule every WTA path in this crate
//! shares — so a single-tile pool reproduces flat-module recall bit for
//! bit and every existing identity proof carries over.
//!
//! Per-tile DOM codes are each in their tile's own calibrated LSB scale
//! (tiles calibrate independently, like partition segments); the ranking
//! compares them directly, and the flat↔tiled winner-agreement floor in
//! the conformance ledger bounds what that approximation costs.
//!
//! # Runtime template banks
//!
//! Templates are insertable and evictable at runtime, built on the
//! spare-column machinery from the fault subsystem:
//! [`TiledAmm::insert_template`] programs the pattern into the first free
//! column of the first tile with space (program-and-verify retry path,
//! re-equalized rows, recompiled tile plan — recycling the retired plan's
//! workspace via [`RecallPlan::compile_with_workspace`]), growing the pool
//! by a fresh tile when every tile is full.
//! [`TiledAmm::evict_template`] releases the column back to the free pool;
//! it is pure ownership bookkeeping (conductances, row loads and the RNG
//! schedule are untouched), so the tile's compiled plan — used only for
//! the RNG-free evaluate phase — remains valid without recompilation.

use crate::amm::{AmmConfig, AssociativeMemoryModule, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::plan::{PlanOptions, RecallPlan};
use crate::request::RecallRequest;
use crate::CoreError;
use spinamm_circuit::units::Seconds;
use spinamm_telemetry::Recorder;

/// Identifies one crossbar tile within a [`TiledAmm`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub usize);

/// A stable reference to one stored template: which tile holds it, which
/// physical column it occupies, and its (append-only) template slot on
/// that tile's module. Returned by [`TiledAmm::insert_template`] and
/// consumed by [`TiledAmm::evict_template`]; slots never renumber, so a
/// handle stays valid until its template is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateHandle {
    /// The tile holding the template.
    pub tile: TileId,
    /// The physical column within the tile.
    pub column: usize,
    /// The template slot on the tile's module.
    pub slot: usize,
}

/// One entry of a ranked recall: a column and its DOM code, in merge
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedMatch {
    /// Global column index `tile.0 × tile_columns + column` — the merge's
    /// tie-break key (lower wins on equal scores).
    pub global_column: usize,
    /// The column's DOM code, in its tile's own LSB scale.
    pub score: u32,
    /// The owning template, when the column holds a live one (`None` for
    /// a spare or evicted column that surfaced in a low-score tail).
    pub handle: Option<TemplateHandle>,
}

/// Result of one ranked pool recall.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledRecall {
    /// The top-k matches, best first: `(code descending, global column
    /// ascending)`. `matches[0]` is exactly the legacy single-winner
    /// choice ([`crate::wta::argmax_lowest_index`] over `scores`).
    pub matches: Vec<RankedMatch>,
    /// Degree of match of the best column (`matches[0].score`), matching
    /// the flat [`RecallResult::dom`] semantics.
    pub dom: u32,
    /// Concatenated per-tile column codes in global column order — the
    /// exact input the merge ranked, kept so any consumer (or oracle) can
    /// re-derive the ranking.
    pub scores: Vec<u32>,
    /// Combined energy of all tile evaluations.
    pub energy: EnergyBreakdown,
}

/// Ranks candidates best-first: higher code wins, ties break to the
/// lowest global column index. A strict total order (global indices are
/// unique), which is what makes the merge deterministic and
/// truncation-safe.
fn rank_order(a: &(usize, u32), b: &(usize, u32)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Merges two rank-ordered candidate lists, keeping the best `k`.
fn merge_pair(a: &[(usize, u32)], b: &[(usize, u32)], k: usize) -> Vec<(usize, u32)> {
    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    while out.len() < k && (i < a.len() || j < b.len()) {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => rank_order(x, y).is_le(),
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

/// The deterministic top-k merge tree over per-tile code vectors.
///
/// Each tile contributes its columns as `(global_column, code)` candidates
/// (global index = running offset + local column); leaves keep their local
/// top-k, then a pairwise tournament merges lists until one remains.
/// Because `rank_order` is a strict total order, the result equals the
/// first `k` entries of a full argsort of the concatenation — the oracle
/// the conformance harness and the E18 gate check against — and at `k = 1`
/// it is exactly [`crate::wta::argmax_lowest_index`].
#[must_use]
pub fn top_k_merge(per_tile: &[&[u32]], k: usize) -> Vec<(usize, u32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut offset = 0usize;
    let mut lists: Vec<Vec<(usize, u32)>> = Vec::with_capacity(per_tile.len());
    for codes in per_tile {
        let mut leaf: Vec<(usize, u32)> = codes
            .iter()
            .enumerate()
            .map(|(j, &c)| (offset + j, c))
            .collect();
        offset += codes.len();
        // Any global top-k candidate is within its own tile's top-k, so
        // truncating at the leaves loses nothing.
        if leaf.len() > k {
            leaf.select_nth_unstable_by(k - 1, rank_order);
            leaf.truncate(k);
        }
        leaf.sort_unstable_by(rank_order);
        lists.push(leaf);
    }
    while lists.len() > 1 {
        let mut next = Vec::with_capacity(lists.len().div_ceil(2));
        let mut it = lists.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_pair(&a, &b, k)),
                None => next.push(a),
            }
        }
        lists = next;
    }
    lists.pop().unwrap_or_default()
}

/// One crossbar tile: a full module plus its compiled f64 evaluate-phase
/// kernel.
#[derive(Debug, Clone)]
struct Tile {
    module: AssociativeMemoryModule,
    plan: RecallPlan,
}

impl Tile {
    fn new<R: Recorder>(
        module: AssociativeMemoryModule,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        let plan = RecallPlan::compile_request(&module, PlanOptions::default(), req)?;
        Ok(Self { module, plan })
    }

    /// RNG-free phase 1, through the compiled plan.
    fn evaluate<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        self.plan.evaluate_query_request(input, req)
    }

    /// Recompiles the plan after a module mutation, recycling the retired
    /// plan's workspace (identical geometry → zero reallocation).
    fn refresh_plan<R: Recorder>(&mut self, req: &RecallRequest<'_, R>) -> Result<(), CoreError> {
        self.plan.recompile_request(&self.module, req)
    }
}

/// Derives tile `index`'s RNG seed from the pool seed. Tile 0 keeps the
/// pool seed unchanged, so a single-tile pool is device-for-device the
/// flat module (the k=1 identity proof); later tiles decorrelate their
/// programming noise, mismatch and thermal streams.
fn tile_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An associative memory whose template set is sharded across a pool of
/// identical crossbar tiles, serving ranked top-k recall.
///
/// # Example
///
/// ```
/// use spinamm_core::amm::AmmConfig;
/// use spinamm_core::capacity::TiledAmm;
///
/// # fn main() -> Result<(), spinamm_core::CoreError> {
/// let patterns: Vec<Vec<u32>> = (0..6)
///     .map(|p| (0..16).map(|i| u32::from(i % 3 == p % 3) * 31).collect())
///     .collect();
/// let mut pool = TiledAmm::build(&patterns, 2, &AmmConfig::default())?.with_top_k(3)?;
/// assert_eq!(pool.tile_count(), 3);
/// let r = pool.recall(&patterns[4])?;
/// assert_eq!(r.matches.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TiledAmm {
    tiles: Vec<Tile>,
    /// Template slots per tile at build time.
    tile_capacity: usize,
    /// Physical columns per tile (`tile_capacity + spare_columns`),
    /// uniform across the pool so every tile shares one [`PlanGeometry`].
    ///
    /// [`PlanGeometry`]: crate::plan::PlanGeometry
    tile_columns: usize,
    vector_len: usize,
    top_k: usize,
    /// Build-time config, kept for pool-growing inserts.
    base_config: AmmConfig,
}

impl TiledAmm {
    /// [`TiledAmm::build_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::build_request`].
    pub fn build(
        patterns: &[Vec<u32>],
        tile_capacity: usize,
        config: &AmmConfig,
    ) -> Result<Self, CoreError> {
        Self::build_request(patterns, tile_capacity, config, &RecallRequest::DEFAULT)
    }

    /// Builds a pool storing `patterns` in contiguous chunks of
    /// `tile_capacity` templates per tile. Every tile gets
    /// `config.spare_columns` extra spare columns; a final partial chunk
    /// is padded with additional spares so all tiles share one geometry
    /// (what lets recompiles recycle workspaces across the pool). The
    /// default ranking depth is `k = 1`; see [`TiledAmm::with_top_k`].
    ///
    /// Emits `capacity.tiles` (tiles built) on the request's recorder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty pattern set or
    /// a zero tile capacity; propagates module build errors (ragged
    /// patterns, out-of-range levels, device failures) and tile plan
    /// compile errors.
    pub fn build_request<R: Recorder>(
        patterns: &[Vec<u32>],
        tile_capacity: usize,
        config: &AmmConfig,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        if patterns.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "at least one pattern must be stored",
            });
        }
        if tile_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                what: "tile capacity must be at least one template",
            });
        }
        let vector_len = patterns[0].len();
        let tile_columns = tile_capacity + config.spare_columns;
        let mut tiles = Vec::with_capacity(patterns.len().div_ceil(tile_capacity));
        for (index, chunk) in patterns.chunks(tile_capacity).enumerate() {
            let mut cfg = *config;
            cfg.seed = tile_seed(config.seed, index);
            cfg.spare_columns = tile_columns - chunk.len();
            let module = AssociativeMemoryModule::build_request(chunk, &cfg, req)?;
            tiles.push(Tile::new(module, req)?);
        }
        req.recorder().counter("capacity.tiles", tiles.len() as u64);
        Ok(Self {
            tiles,
            tile_capacity,
            tile_columns,
            vector_len,
            top_k: 1,
            base_config: *config,
        })
    }

    /// Sets the ranking depth returned by recalls (builder form).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `k = 0`.
    pub fn with_top_k(mut self, k: usize) -> Result<Self, CoreError> {
        self.set_top_k(k)?;
        Ok(self)
    }

    /// Sets the ranking depth returned by recalls. Observational for the
    /// ranking itself: every depth ranks by the same total order, so the
    /// first entry never depends on `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `k = 0`.
    pub fn set_top_k(&mut self, k: usize) -> Result<(), CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                what: "ranking depth k must be at least 1",
            });
        }
        self.top_k = k;
        Ok(())
    }

    /// Tiles in the pool.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Template slots per tile at build time.
    #[must_use]
    pub fn tile_capacity(&self) -> usize {
        self.tile_capacity
    }

    /// Physical columns per tile (templates + spares), uniform.
    #[must_use]
    pub fn tile_columns(&self) -> usize {
        self.tile_columns
    }

    /// Total physical columns across the pool — the length of
    /// [`TiledRecall::scores`] and the global column index space.
    #[must_use]
    pub fn total_columns(&self) -> usize {
        self.tiles.len() * self.tile_columns
    }

    /// Full input vector length.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.vector_len
    }

    /// The configured ranking depth.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Live (non-evicted) templates across the pool.
    #[must_use]
    pub fn live_template_count(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.module.live_templates().len())
            .sum()
    }

    /// Handles of every live template, in global (tile, slot) order.
    #[must_use]
    pub fn handles(&self) -> Vec<TemplateHandle> {
        let mut out = Vec::new();
        for (i, tile) in self.tiles.iter().enumerate() {
            let columns = tile.module.template_columns();
            for slot in tile.module.live_templates() {
                out.push(TemplateHandle {
                    tile: TileId(i),
                    column: columns[slot],
                    slot,
                });
            }
        }
        out
    }

    /// The index a handle's template had in the build-time pattern set.
    /// Meaningful only for a pool that has not been mutated since build
    /// (inserted templates get fresh slots past the build set).
    #[must_use]
    pub fn build_ordinal(&self, handle: &TemplateHandle) -> usize {
        handle.tile.0 * self.tile_capacity + handle.slot
    }

    /// Recognition latency: tiles convert concurrently in hardware, so one
    /// tile's conversion dominates (the digital merge network pipelines
    /// under it).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.tiles[0].module.latency()
    }

    /// Runs one ranked recall.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::recall_request`].
    pub fn recall(&mut self, input: &[u32]) -> Result<TiledRecall, CoreError> {
        self.recall_request(input, &RecallRequest::DEFAULT)
    }

    /// [`TiledAmm::recall`] with options: phase 1 on every tile's compiled
    /// plan, then the in-order select phase and the top-k merge.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] /
    /// [`CoreError::InvalidParameter`] for bad inputs; propagates device
    /// and solver errors.
    pub fn recall_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<TiledRecall, CoreError> {
        let evals = self.evaluate_query_request(input, req)?;
        self.select_winner_request(evals, req)
    }

    /// Runs a batch of ranked recalls. The RNG-free evaluate phase fans
    /// tiles across worker threads ([`RecallRequest::with_workers`], the
    /// `SPINAMM_BATCH_WORKERS` variable, or available parallelism); the
    /// select phase then runs queries in submission order and tiles in
    /// tile order, so results are bit-identical to a sequential loop of
    /// [`TiledAmm::recall`] at any worker count.
    ///
    /// # Errors
    ///
    /// Every input is validated during the evaluate phase before any
    /// select consumes randomness, so an invalid input fails the batch
    /// without perturbing the RNG schedule.
    pub fn recall_batch_request<S: AsRef<[u32]> + Sync, R: Recorder + Sync>(
        &mut self,
        inputs: &[S],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<TiledRecall>, CoreError> {
        let _span = req.recorder().span("capacity.batch");
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        // evals[tile][query], filled by disjoint tile chunks in parallel.
        let tile_count = self.tiles.len();
        let mut evals: Vec<Vec<Option<Result<QueryEvaluation, CoreError>>>> = (0..tile_count)
            .map(|_| (0..inputs.len()).map(|_| None).collect())
            .collect();
        let workers = req
            .workers()
            .map_or_else(batch_workers, |w| w.max(1))
            .min(tile_count);
        let inner = req.untraced();
        if workers <= 1 {
            for (tile, slots) in self.tiles.iter_mut().zip(&mut evals) {
                for (input, slot) in inputs.iter().zip(slots.iter_mut()) {
                    *slot = Some(tile.evaluate(input.as_ref(), &inner));
                }
            }
        } else {
            let chunk = tile_count.div_ceil(workers);
            std::thread::scope(|s| {
                for (tiles, slots) in self.tiles.chunks_mut(chunk).zip(evals.chunks_mut(chunk)) {
                    let inner = &inner;
                    s.spawn(move || {
                        for (tile, tile_slots) in tiles.iter_mut().zip(slots.iter_mut()) {
                            for (input, slot) in inputs.iter().zip(tile_slots.iter_mut()) {
                                *slot = Some(tile.evaluate(input.as_ref(), inner));
                            }
                        }
                    });
                }
            });
        }
        // Surface any evaluate-phase error before selection starts.
        let mut per_tile: Vec<Vec<QueryEvaluation>> = Vec::with_capacity(tile_count);
        for slots in evals {
            per_tile.push(
                slots
                    .into_iter()
                    .map(|s| s.expect("every batch slot is filled"))
                    .collect::<Result<_, _>>()?,
            );
        }
        // In-order stochastic selection: queries in submission order,
        // tiles in tile order within each query.
        let mut out = Vec::with_capacity(inputs.len());
        for q in (0..inputs.len()).rev() {
            let evals_q: Vec<QueryEvaluation> =
                per_tile.iter_mut().map(|t| t.swap_remove(q)).collect();
            out.push(evals_q);
        }
        out.reverse();
        out.into_iter()
            .map(|evals_q| self.select_winner_request(evals_q, &inner))
            .collect()
    }

    /// Runs the RNG-free first phase on every tile's compiled plan. Safe
    /// on a clone of the pool (mutates only plan workspaces and cached
    /// solver state) — the engine-worker entry
    /// point. Pair with [`TiledAmm::select_winner_request`] in submission
    /// order to reproduce [`TiledAmm::recall`] bit for bit.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::recall_request`]; all input validation happens in
    /// this phase.
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
        self.tiles
            .iter_mut()
            .map(|tile| tile.evaluate(input, req))
            .collect()
    }

    /// Runs the RNG-consuming second phase: every tile digitizes in fixed
    /// tile order (advancing its module RNG exactly as sequential recall
    /// would), then the top-k merge ranks the concatenated codes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an evaluation-count
    /// mismatch; propagates spin/WTA errors.
    pub fn select_winner_request<R: Recorder>(
        &mut self,
        evals: Vec<QueryEvaluation>,
        req: &RecallRequest<'_, R>,
    ) -> Result<TiledRecall, CoreError> {
        if evals.len() != self.tiles.len() {
            return Err(CoreError::InvalidParameter {
                what: "one evaluation per tile is required",
            });
        }
        let mut results: Vec<RecallResult> = Vec::with_capacity(self.tiles.len());
        for (tile, eval) in self.tiles.iter_mut().zip(evals) {
            results.push(tile.module.select_winner_request(eval, req)?);
        }
        Ok(self.combine(&results))
    }

    /// The digital merge network: concatenates per-tile codes, ranks the
    /// top-k, and sums energies.
    fn combine(&self, per_tile: &[RecallResult]) -> TiledRecall {
        let mut scores = Vec::with_capacity(self.total_columns());
        let mut energy = EnergyBreakdown::default();
        for r in per_tile {
            scores.extend_from_slice(&r.codes);
            energy = energy + r.energy;
        }
        let code_slices: Vec<&[u32]> = per_tile.iter().map(|r| r.codes.as_slice()).collect();
        let matches: Vec<RankedMatch> = top_k_merge(&code_slices, self.top_k)
            .into_iter()
            .map(|(global_column, score)| RankedMatch {
                global_column,
                score,
                handle: self.handle_at(global_column),
            })
            .collect();
        let dom = matches.first().map_or(0, |m| m.score);
        TiledRecall {
            matches,
            dom,
            scores,
            energy,
        }
    }

    /// Resolves a global column to its owning template, if live.
    fn handle_at(&self, global_column: usize) -> Option<TemplateHandle> {
        let tile = global_column / self.tile_columns;
        let column = global_column % self.tile_columns;
        self.tiles[tile].module.column_owner[column].map(|slot| TemplateHandle {
            tile: TileId(tile),
            column,
            slot,
        })
    }

    /// [`TiledAmm::insert_template_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::insert_template_request`].
    pub fn insert_template(&mut self, pattern: &[u32]) -> Result<TemplateHandle, CoreError> {
        self.insert_template_request(pattern, &RecallRequest::DEFAULT)
    }

    /// Installs a new template at runtime: the pattern is programmed into
    /// the first free column of the first tile with space (build-time
    /// spares and evicted columns both qualify), and that tile's plan is
    /// recompiled recycling the retired plan's workspace. When every tile
    /// is full the pool grows by one fresh tile (same geometry, derived
    /// seed) holding the new template alone.
    ///
    /// Emits `bank.installs` (and `capacity.tiles_grown` when the pool
    /// grows).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] /
    /// [`CoreError::InvalidParameter`] for a bad pattern; propagates
    /// programming and build errors.
    pub fn insert_template_request<R: Recorder>(
        &mut self,
        pattern: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<TemplateHandle, CoreError> {
        if pattern.len() != self.vector_len {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len,
                found: pattern.len(),
            });
        }
        for (index, tile) in self.tiles.iter_mut().enumerate() {
            if tile.module.free_columns().is_empty() {
                continue;
            }
            let (slot, column) = tile.module.install_template_request(pattern, req)?;
            tile.refresh_plan(req)?;
            return Ok(TemplateHandle {
                tile: TileId(index),
                column,
                slot,
            });
        }
        // Pool full: grow by a fresh tile storing just this pattern.
        let index = self.tiles.len();
        let mut cfg = self.base_config;
        cfg.seed = tile_seed(self.base_config.seed, index);
        cfg.spare_columns = self.tile_columns - 1;
        let module = AssociativeMemoryModule::build_request(&[pattern.to_vec()], &cfg, req)?;
        let column = module.template_columns()[0];
        self.tiles.push(Tile::new(module, req)?);
        req.recorder().counter("capacity.tiles_grown", 1);
        Ok(TemplateHandle {
            tile: TileId(index),
            column,
            slot: 0,
        })
    }

    /// [`TiledAmm::evict_template_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::evict_template_request`].
    pub fn evict_template(&mut self, handle: TemplateHandle) -> Result<(), CoreError> {
        self.evict_template_request(handle, &RecallRequest::DEFAULT)
    }

    /// Evicts a template, releasing its column back to the tile's free
    /// pool for later inserts. Ownership bookkeeping only: conductances,
    /// row loads and every RNG schedule are untouched, so the tile's
    /// compiled plan — which the pool uses solely for the RNG-free
    /// evaluate phase — stays valid without recompilation, and the column
    /// is gated out of ranking from the next recall on.
    ///
    /// Evicting the **sole** live template of the **trailing** tile
    /// releases the whole tile instead (undoing pool growth): the tile —
    /// with its crossbar, converters and compiled-plan workspace — is
    /// dropped, `total_columns` shrinks by one tile's width, and the
    /// remaining tiles' independent RNG schedules are untouched, so every
    /// surviving handle and recall stays bit-identical. The pool always
    /// keeps at least one tile.
    ///
    /// Emits `bank.retires` (and `capacity.tiles_released` when a tile is
    /// dropped).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown tile, a
    /// stale handle (already evicted, or remapped by a fault pass since it
    /// was issued), or a non-releasable tile that would be left empty (a
    /// non-trailing tile, or the pool's last tile, keeps at least one
    /// template).
    pub fn evict_template_request<R: Recorder>(
        &mut self,
        handle: TemplateHandle,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), CoreError> {
        let tile = self
            .tiles
            .get_mut(handle.tile.0)
            .ok_or(CoreError::InvalidParameter {
                what: "unknown tile in template handle",
            })?;
        if tile.module.template_columns().get(handle.slot) != Some(&handle.column) {
            return Err(CoreError::InvalidParameter {
                what: "stale template handle (column no longer matches slot)",
            });
        }
        let sole_trailing = handle.tile.0 == self.tiles.len() - 1
            && self.tiles.len() > 1
            && self.tiles[handle.tile.0].module.live_templates().len() == 1;
        if sole_trailing {
            // Dropping the trailing tile frees its plan workspace and
            // removes only that tile's independent RNG stream.
            self.tiles.pop();
            req.recorder().counter("bank.retires", 1);
            req.recorder().counter("capacity.tiles_released", 1);
            return Ok(());
        }
        self.tiles[handle.tile.0]
            .module
            .retire_template_request(handle.slot, req)?;
        Ok(())
    }
}

/// Worker count for the batch evaluate phase when the request does not
/// override it: `SPINAMM_BATCH_WORKERS`, then available parallelism.
fn batch_workers() -> usize {
    if let Ok(v) = std::env::var("SPINAMM_BATCH_WORKERS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wta::argmax_lowest_index;
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
    use spinamm_telemetry::MemoryRecorder;

    fn workload(pattern_count: usize, queries: usize) -> PatternWorkload {
        PatternWorkload::generate(&WorkloadConfig {
            pattern_count,
            vector_len: 16,
            bits: 5,
            query_count: queries,
            query_noise: 0.4,
            noise_magnitude: 2,
            similarity: 0.0,
            seed: 0x711e,
        })
        .unwrap()
    }

    #[test]
    fn build_validation() {
        let w = workload(6, 1);
        let cfg = AmmConfig::default();
        assert!(TiledAmm::build(&[], 2, &cfg).is_err());
        assert!(TiledAmm::build(&w.patterns, 0, &cfg).is_err());
        let pool = TiledAmm::build(&w.patterns, 4, &cfg).unwrap();
        assert_eq!(pool.tile_count(), 2);
        assert_eq!(pool.tile_columns(), 4);
        assert_eq!(pool.total_columns(), 8);
        assert_eq!(pool.live_template_count(), 6);
        assert!(pool.clone().with_top_k(0).is_err());
    }

    #[test]
    fn single_tile_pool_is_the_flat_module_bit_for_bit() {
        // Tile 0 keeps the pool seed, so a pool of one tile with no spares
        // is device-for-device the flat module; k=1 ranking must reproduce
        // its winner, dom and codes across an RNG-advancing sequence.
        let w = workload(5, 6);
        let cfg = AmmConfig::default();
        let mut flat = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
        let mut pool = TiledAmm::build(&w.patterns, 5, &cfg).unwrap();
        assert_eq!(pool.tile_count(), 1);
        for (_, q) in &w.queries {
            let want = flat.recall(q).unwrap();
            let got = pool.recall(q).unwrap();
            assert_eq!(got.scores, want.codes);
            assert_eq!(got.matches[0].global_column, want.raw_winner);
            assert_eq!(got.dom, want.dom);
            assert_eq!(
                got.energy.total().0.to_bits(),
                want.energy.total().0.to_bits()
            );
        }
    }

    #[test]
    fn k1_is_argmax_lowest_index_over_the_concatenation() {
        let w = workload(10, 8);
        let mut pool = TiledAmm::build(&w.patterns, 3, &AmmConfig::default()).unwrap();
        assert_eq!(pool.tile_count(), 4);
        for (_, q) in &w.queries {
            let r = pool.recall(q).unwrap();
            assert_eq!(
                r.matches[0].global_column,
                argmax_lowest_index(&r.scores).unwrap()
            );
            assert_eq!(r.dom, r.scores[r.matches[0].global_column]);
        }
    }

    /// The full argsort oracle the merge must equal.
    fn argsort_oracle(scores: &[u32], k: usize) -> Vec<(usize, u32)> {
        let mut all: Vec<(usize, u32)> = scores.iter().copied().enumerate().collect();
        all.sort_by(rank_order);
        all.truncate(k);
        all
    }

    #[test]
    fn topk_matches_argsort_oracle_on_recalls() {
        let w = workload(10, 6);
        let mut pool = TiledAmm::build(&w.patterns, 3, &AmmConfig::default())
            .unwrap()
            .with_top_k(5)
            .unwrap();
        for (_, q) in &w.queries {
            let r = pool.recall(q).unwrap();
            let ranked: Vec<(usize, u32)> = r
                .matches
                .iter()
                .map(|m| (m.global_column, m.score))
                .collect();
            assert_eq!(ranked, argsort_oracle(&r.scores, 5));
        }
    }

    /// The interpreted oracle for a pool recall: every tile's module
    /// evaluates interpreted, then the pool's in-order select runs.
    fn interpreted_recall(pool: &mut TiledAmm, input: &[u32]) -> TiledRecall {
        let req = RecallRequest::DEFAULT;
        let evals = pool
            .tiles
            .iter_mut()
            .map(|t| t.module.evaluate_query_request(input, &req).unwrap())
            .collect();
        pool.select_winner_request(evals, &req).unwrap()
    }

    #[test]
    fn interpreted_and_compiled_pools_are_bit_identical() {
        let w = workload(8, 6);
        let cfg = AmmConfig::default();
        let mut compiled = TiledAmm::build(&w.patterns, 3, &cfg)
            .unwrap()
            .with_top_k(4)
            .unwrap();
        let mut interpreted = compiled.clone();
        for (_, q) in &w.queries {
            assert_eq!(
                compiled.recall(q).unwrap(),
                interpreted_recall(&mut interpreted, q)
            );
        }
    }

    #[test]
    fn batch_matches_sequential_at_any_worker_count() {
        let w = workload(9, 5);
        let cfg = AmmConfig::default();
        let inputs: Vec<Vec<u32>> = w.queries.iter().map(|(_, q)| q.clone()).collect();
        let mut reference = TiledAmm::build(&w.patterns, 2, &cfg)
            .unwrap()
            .with_top_k(3)
            .unwrap();
        let sequential: Vec<TiledRecall> = inputs
            .iter()
            .map(|q| reference.recall(q).unwrap())
            .collect();
        for workers in [1, 3] {
            let mut pool = TiledAmm::build(&w.patterns, 2, &cfg)
                .unwrap()
                .with_top_k(3)
                .unwrap();
            let req = RecallRequest::DEFAULT.with_workers(workers);
            let batched = pool.recall_batch_request(&inputs, &req).unwrap();
            assert_eq!(batched, sequential, "workers={workers}");
        }
    }

    #[test]
    fn duplicated_template_loses_ties_to_the_lower_global_column() {
        // An exact copy of template 0 stored on a *later* tile must never
        // outrank the original unless it strictly out-scores it.
        let w = workload(6, 1);
        let mut patterns = w.patterns.clone();
        patterns.push(w.patterns[0].clone());
        let mut pool = TiledAmm::build(&patterns, 3, &AmmConfig::default())
            .unwrap()
            .with_top_k(7)
            .unwrap();
        let dup_global = pool
            .handles()
            .last()
            .map(|h| h.tile.0 * pool.tile_columns() + h.column)
            .unwrap();
        let r = pool.recall(&w.patterns[0]).unwrap();
        let original = r.matches.iter().position(|m| m.global_column == 0);
        let copy = r.matches.iter().position(|m| m.global_column == dup_global);
        if r.scores[0] >= r.scores[dup_global] {
            assert!(
                original < copy,
                "tie or better must rank the lower global column first"
            );
        }
        assert_eq!(
            r.matches[0].global_column,
            argmax_lowest_index(&r.scores).unwrap()
        );
    }

    #[test]
    fn insert_evict_lifecycle() {
        let w = workload(4, 1);
        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder);
        let mut pool = TiledAmm::build_request(&w.patterns, 2, &cfg, &req).unwrap();
        assert_eq!(pool.tile_count(), 2);
        assert_eq!(pool.tile_columns(), 3);

        // Insert a distinctive new pattern into the first tile's spare.
        let novel: Vec<u32> = (0..16).map(|i| u32::from(i % 2 == 0) * 31).collect();
        let handle = pool.insert_template_request(&novel, &req).unwrap();
        assert_eq!(handle.tile, TileId(0));
        assert_eq!(pool.live_template_count(), 5);
        let r = pool.recall(&novel).unwrap();
        assert_eq!(r.matches[0].handle, Some(handle));

        // Evict it: the handle's column gates out and the win disappears.
        pool.evict_template_request(handle, &req).unwrap();
        assert_eq!(pool.live_template_count(), 4);
        let r = pool.recall(&novel).unwrap();
        assert_eq!(
            r.scores[handle.tile.0 * pool.tile_columns() + handle.column],
            0
        );
        assert_ne!(r.matches[0].handle, Some(handle));
        // Stale handle: double-evict is rejected.
        assert!(pool.evict_template(handle).is_err());

        // Re-insert: the freed column is reused (lowest-index free column
        // of the lowest tile), under a fresh slot.
        let again = pool.insert_template_request(&novel, &req).unwrap();
        assert_eq!(again.tile, handle.tile);
        assert_eq!(again.column, handle.column);
        assert!(again.slot > handle.slot);
        let r = pool.recall(&novel).unwrap();
        assert_eq!(r.matches[0].handle, Some(again));

        // Fill every remaining free column, then grow the pool.
        let tiles_before = pool.tile_count();
        loop {
            let h = pool.insert_template_request(&novel, &req).unwrap();
            if h.tile.0 >= tiles_before {
                break;
            }
        }
        assert_eq!(pool.tile_count(), tiles_before + 1);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("capacity.tiles_grown"), Some(&1));
        assert!(counters.get("bank.installs").copied().unwrap_or(0) >= 3);
    }

    #[test]
    fn evicting_sole_trailing_template_releases_the_tile() {
        let w = workload(4, 2);
        let cfg = AmmConfig::default();
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder);
        let mut pool = TiledAmm::build_request(&w.patterns, 2, &cfg, &req).unwrap();
        let tiles_before = pool.tile_count();
        let columns_before = pool.total_columns();
        // Control: an untouched clone sharing every RNG schedule.
        let mut control = pool.clone();

        // Grow the pool by one tile holding a single novel template...
        let novel: Vec<u32> = (0..16).map(|i| u32::from(i % 3 == 0) * 31).collect();
        let handle = pool.insert_template_request(&novel, &req).unwrap();
        assert_eq!(handle.tile.0, tiles_before);
        assert_eq!(pool.tile_count(), tiles_before + 1);

        // ...then evict it: the trailing tile is released outright.
        pool.evict_template_request(handle, &req).unwrap();
        assert_eq!(pool.tile_count(), tiles_before);
        assert_eq!(pool.total_columns(), columns_before);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("capacity.tiles_released"), Some(&1));
        // The handle is now unknown, not merely stale.
        assert!(pool.evict_template(handle).is_err());

        // Grow/release round trip leaves surviving tiles bit-identical to
        // the untouched control: their RNG schedules never saw the
        // transient tile.
        for (_, q) in &w.queries {
            assert_eq!(pool.recall(q).unwrap(), control.recall(q).unwrap());
        }

        // Releasing never empties the pool: a single-tile pool keeps its
        // last template.
        let mut single = TiledAmm::build(&w.patterns[..2], 4, &cfg).unwrap();
        assert_eq!(single.tile_count(), 1);
        let handles = single.handles();
        single.evict_template(handles[0]).unwrap();
        assert!(single.evict_template(handles[1]).is_err());
    }

    #[test]
    fn mutated_pool_keeps_plan_interpreted_identity() {
        // Insert (recompile, workspace recycled) and evict (no recompile)
        // must both preserve bit-identity between the compiled pool and
        // the interpreted oracle on a clone sharing the same RNG schedule.
        let w = workload(4, 4);
        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let mut compiled = TiledAmm::build(&w.patterns, 2, &cfg)
            .unwrap()
            .with_top_k(3)
            .unwrap();
        let mut interpreted = compiled.clone();

        let novel: Vec<u32> = (0..16).map(|i| u32::from(i % 4 == 1) * 31).collect();
        let ha = compiled.insert_template(&novel).unwrap();
        let hb = interpreted.insert_template(&novel).unwrap();
        assert_eq!(ha, hb);
        for (_, q) in &w.queries {
            assert_eq!(
                compiled.recall(q).unwrap(),
                interpreted_recall(&mut interpreted, q)
            );
        }
        compiled.evict_template(ha).unwrap();
        interpreted.evict_template(hb).unwrap();
        for (_, q) in &w.queries {
            assert_eq!(
                compiled.recall(q).unwrap(),
                interpreted_recall(&mut interpreted, q)
            );
        }
    }

    #[test]
    fn uniform_geometry_across_the_pool() {
        let w = workload(7, 1);
        let cfg = AmmConfig {
            spare_columns: 2,
            ..AmmConfig::default()
        };
        let pool = TiledAmm::build(&w.patterns, 3, &cfg).unwrap();
        let geometries: Vec<_> = pool.tiles.iter().map(|t| t.plan.geometry()).collect();
        assert_eq!(geometries.len(), pool.tile_count());
        assert!(geometries.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(geometries[0].cols, 5);
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The merge tree equals the full argsort oracle for every k,
            /// under heavy duplication (scores drawn from 0..4 force exact
            /// ties within and across tiles).
            #[test]
            fn merge_equals_argsort_oracle(
                tiles in proptest::collection::vec(
                    proptest::collection::vec(0u32..4, 0..12),
                    1..8,
                ),
                k in 1usize..20,
            ) {
                let slices: Vec<&[u32]> = tiles.iter().map(Vec::as_slice).collect();
                let merged = top_k_merge(&slices, k);
                let flat: Vec<u32> = tiles.iter().flatten().copied().collect();
                prop_assert_eq!(merged, argsort_oracle(&flat, k));
            }

            /// k=1 is exactly the legacy WTA tie-break rule.
            #[test]
            fn k1_equals_argmax_lowest_index(
                tiles in proptest::collection::vec(
                    proptest::collection::vec(0u32..4, 1..10),
                    1..6,
                ),
            ) {
                let slices: Vec<&[u32]> = tiles.iter().map(Vec::as_slice).collect();
                let merged = top_k_merge(&slices, 1);
                let flat: Vec<u32> = tiles.iter().flatten().copied().collect();
                let want = argmax_lowest_index(&flat).unwrap();
                prop_assert_eq!(merged[0].0, want);
                prop_assert_eq!(merged[0].1, flat[want]);
            }
        }
    }

    #[test]
    fn k_zero_merge_is_empty_and_k_caps_at_pool_size() {
        assert!(top_k_merge(&[&[1, 2][..]], 0).is_empty());
        let out = top_k_merge(&[&[3, 1][..], &[2][..]], 10);
        assert_eq!(out, vec![(0, 3), (2, 2), (1, 1)]);
    }
}
