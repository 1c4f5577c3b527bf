//! Adaptive runtime precision: stall detection, the escalation ladder and
//! the cost-model spec autotuner.
//!
//! The nested schemes of the paper fix one (matrix, basis, vector) precision
//! stack per level at build time, and the scaled-fp16 matrix stream has a
//! documented failure mode: on matrices whose entry dynamic range exceeds
//! what per-row scaling can absorb, the fp16 inner levels stall — the outer
//! residual plateaus while a fp32 stream of the same chain sails.  Following
//! the adaptive mixed-precision PCG of Guo, de Sturler and Warburton, this
//! module turns that failure mode into a runtime decision:
//!
//! * [`StallDetector`] watches the per-iteration residual estimates the
//!   outermost FGMRES cycle already produces and classifies the trajectory
//!   as progressing, stalling, diverging or broken down
//!   ([`StallSignal`]).  The detection rule is scale-invariant (it only
//!   looks at residual *ratios* over a sliding window), so it works on
//!   relative or absolute residuals alike.
//! * [`escalation_ladder`] derives, from a spec's level list, the sequence
//!   of progressively wider level lists a solve can climb mid-flight:
//!   each rung widens the narrowest inner matrix storage by one precision
//!   step (`Scaled(Fp16) → Scaled(Fp32) → Plain(Fp64)`), dragging the
//!   affected vector and basis precisions along, and a final rung widens
//!   any remaining compressed bases.  Every rung satisfies the
//!   [`NestedSpec::check`] invariants whenever the input does.
//! * [`AdaptivePolicy`] bundles the detector configuration with the
//!   escalation/de-escalation behaviour of an [`AdaptiveSession`]: how many
//!   rungs a solve may climb, and after how many healthy cycles it may step
//!   back down.
//! * [`AdaptiveSession`] applies the policy.  It keeps one
//!   [`PreparedSolver`] per rung it has visited and runs the one solve
//!   driver one restart cycle at a time, so every switch happens at a cycle
//!   boundary, where FGMRES restarts from `x` anyway.
//! * [`auto_spec_for_matrix`] is the spec autotuner: it ranks the paper's
//!   F3R candidates (fp64, fp32, plain fp16 and row-scaled fp16) by the
//!   Section 4.1 traffic model ([`crate::cost_model`]) and keeps only the
//!   candidates admissible for the matrix's measured
//!   [`EntryRangeStats`], so `SolverBuilder::auto_spec()` picks the
//!   cheapest stack the matrix can actually support.

use std::sync::Arc;
use std::time::Instant;

use f3r_precision::{CounterSnapshot, Precision};
use f3r_sparse::EntryRangeStats;

use crate::convergence::{SolveResult, StopReason};
use crate::cost_model::{cheapest_spec, spec_traffic_per_outer_iteration};
use crate::f3r::{f3r_spec, F3rParams, F3rScheme, SolverSettings};
use crate::nested::{LevelSpec, NestedSpec};
use crate::operator::{MatrixStorage, ProblemMatrix};
use crate::session::{
    batch_columns, OuterEvent, PreparedSolver, SolveControl, SolveObserver, SolveOptions, SolveSession,
};

// ---------------------------------------------------------------------------
// Stall detection
// ---------------------------------------------------------------------------

/// Classification of a residual trajectory by the [`StallDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallSignal {
    /// The residual is shrinking at an acceptable rate (or the window is not
    /// full yet).
    Progressing,
    /// The window-averaged reduction rate is worse than
    /// [`StallConfig::min_rate`]: the solve is treading water.
    Stalling,
    /// The latest residual exceeds the window minimum by more than
    /// [`StallConfig::divergence_ratio`]: the solve is actively losing
    /// ground.
    Diverging,
    /// A non-finite residual was observed.
    Breakdown,
}

/// Tuning knobs of the [`StallDetector`].
///
/// The defaults are calibrated against measured outer-residual traces of the
/// two-level scaled-fp16 chain: healthy solves (including their early
/// plateaus, before the Krylov space is rich enough to bite) show
/// per-iteration reduction rates of ≤ ~0.989 over any 10-iteration window,
/// while a truly stalled fp16 stream sits at ≥ ~0.998.  `min_rate = 0.995`
/// separates the two regimes with margin on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallConfig {
    /// Sliding-window length (in observations) over which the geometric-mean
    /// reduction rate is measured.  A signal is only raised once the window
    /// is full, so the first `window` observations can never flag.
    pub window: usize,
    /// Largest acceptable geometric-mean reduction rate per observation.
    /// A trace decaying like `r_k = ρ^k` with `ρ ≤ min_rate` is *never*
    /// flagged as stalling (the window rate of an exact geometric decay is
    /// exactly `ρ`).
    pub min_rate: f64,
    /// Divergence threshold: flag when the latest residual exceeds the
    /// smallest residual currently in the window by this factor.
    pub divergence_ratio: f64,
}

impl Default for StallConfig {
    fn default() -> Self {
        Self {
            window: 10,
            min_rate: 0.995,
            divergence_ratio: 100.0,
        }
    }
}

/// Sliding-window residual-trajectory classifier.
///
/// Feed it one residual (estimate) per iteration via
/// [`observe`](Self::observe); it answers with a [`StallSignal`].  The
/// detector is deliberately memoryless beyond its window: [`reset`](Self::reset)
/// clears it, which [`AdaptiveSession`] does after every precision switch so
/// a freshly escalated chain gets a clean slate.
///
/// ```
/// use f3r_core::adaptive::{StallConfig, StallDetector, StallSignal};
/// let mut d = StallDetector::new(StallConfig::default());
/// // Healthy geometric decay never flags…
/// let mut r = 1.0;
/// for _ in 0..50 {
///     assert_eq!(d.observe(r), StallSignal::Progressing);
///     r *= 0.5;
/// }
/// // …while a plateau does, once the window fills.
/// d.reset();
/// let flagged = (0..20).map(|_| d.observe(0.5)).any(|s| s == StallSignal::Stalling);
/// assert!(flagged);
/// ```
#[derive(Debug, Clone)]
pub struct StallDetector {
    config: StallConfig,
    /// Last `window + 1` observed residuals, oldest first.
    history: Vec<f64>,
}

impl StallDetector {
    /// Create a detector with the given configuration.
    ///
    /// # Panics
    /// Panics if `window` is zero or the rate/ratio knobs are not positive.
    #[must_use]
    pub fn new(config: StallConfig) -> Self {
        assert!(config.window >= 1, "stall window must be at least 1");
        assert!(
            config.min_rate > 0.0 && config.min_rate.is_finite(),
            "min_rate must be positive and finite"
        );
        assert!(
            config.divergence_ratio > 1.0,
            "divergence_ratio must exceed 1"
        );
        Self {
            config,
            history: Vec::with_capacity(config.window + 1),
        }
    }

    /// The configuration this detector runs with.
    #[must_use]
    pub fn config(&self) -> &StallConfig {
        &self.config
    }

    /// Forget all history (used after a precision switch).
    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// Feed one residual observation and classify the trajectory so far.
    pub fn observe(&mut self, residual: f64) -> StallSignal {
        if !residual.is_finite() {
            return StallSignal::Breakdown;
        }
        if self.history.len() > self.config.window {
            self.history.remove(0);
        }
        self.history.push(residual);
        let oldest = self.history[0];
        if self.history.len() >= 2 {
            let window_min = self.history.iter().copied().fold(f64::INFINITY, f64::min);
            if window_min > 0.0 && residual > self.config.divergence_ratio * window_min {
                return StallSignal::Diverging;
            }
        }
        if self.history.len() == self.config.window + 1 && oldest > 0.0 && residual > 0.0 {
            let rate = (residual / oldest).powf(1.0 / self.config.window as f64);
            if rate > self.config.min_rate {
                return StallSignal::Stalling;
            }
        }
        StallSignal::Progressing
    }
}

// ---------------------------------------------------------------------------
// Adaptive policy
// ---------------------------------------------------------------------------

/// How an [`AdaptiveSession`] reacts to the detector's signals: the state
/// machine is
/// `stable → stalling → escalated → cooling` (see `docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Stall-detector configuration applied to the outer residual estimates.
    pub stall: StallConfig,
    /// Minimum factor by which the true residual must shrink over one full
    /// outer restart cycle for the cycle to count as healthy; a cycle below
    /// this reduction triggers escalation even if the per-iteration detector
    /// stayed quiet.
    pub cycle_reduction: f64,
    /// Maximum number of escalation steps a single solve may take (a
    /// safeguard against pathological flapping; the ladder length bounds it
    /// anyway).
    pub max_escalations: usize,
    /// De-escalate one rung after this many consecutive healthy cycles
    /// (`None` disables de-escalation: once widened, a session stays wide).
    /// The first de-escalation at each rung is *probational*: if the solve
    /// stalls again before the same number of healthy cycles confirms the
    /// narrow rung, the session re-escalates and pins its floor there, so an
    /// ill-conditioned matrix cannot oscillate between rungs.
    pub deescalate_after: Option<usize>,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self {
            stall: StallConfig::default(),
            cycle_reduction: 2.0,
            max_escalations: 4,
            deescalate_after: Some(3),
        }
    }
}

// ---------------------------------------------------------------------------
// Escalation ladder
// ---------------------------------------------------------------------------

/// One-step-wider precision, saturating at fp64.
fn wider(p: Precision) -> Precision {
    match p {
        Precision::Fp16 => Precision::Fp32,
        Precision::Fp32 | Precision::Fp64 => Precision::Fp64,
    }
}

/// Widen `levels` by one escalation step, or `None` at the fixpoint.
///
/// The outermost level (`levels[0]`) is never touched: it is pinned to fp64
/// by the spec invariants and drives convergence.  A step widens the matrix
/// storage of every inner level currently at the *narrowest* matrix
/// precision (preserving the plain/scaled flag except at fp64, where scaling
/// buys nothing), dragging each touched level's vector and basis precisions
/// up with it so the `matrix ≤ vector` and `basis ≤ vector` invariants keep
/// holding.  Once every matrix streams in fp64, a final step widens any
/// remaining compressed (below-vector-precision) bases; after that the
/// ladder ends.
fn escalate_once(levels: &[LevelSpec]) -> Option<Vec<LevelSpec>> {
    if levels.len() <= 1 {
        return None;
    }
    let narrowest = levels[1..]
        .iter()
        .map(LevelSpec::matrix_precision)
        .min()
        .expect("at least one inner level");
    let mut out = levels.to_vec();
    let mut changed = false;
    if narrowest < Precision::Fp64 {
        let target = wider(narrowest);
        for level in out.iter_mut().skip(1) {
            if level.matrix_precision() != narrowest {
                continue;
            }
            let scaled = level.matrix_storage().is_scaled() && target < Precision::Fp64;
            let storage = if scaled {
                MatrixStorage::Scaled(target)
            } else {
                MatrixStorage::Plain(target)
            };
            match level {
                LevelSpec::Fgmres {
                    matrix,
                    vector_prec,
                    basis_prec,
                    ..
                } => {
                    *matrix = storage;
                    *vector_prec = (*vector_prec).max(target);
                    *basis_prec = (*basis_prec).max(target).min(*vector_prec);
                }
                LevelSpec::Richardson {
                    matrix,
                    vector_prec,
                    ..
                } => {
                    *matrix = storage;
                    *vector_prec = (*vector_prec).max(target);
                }
            }
            changed = true;
        }
    } else {
        // All matrices already stream fp64; the last lever is basis storage.
        for level in out.iter_mut().skip(1) {
            if let LevelSpec::Fgmres {
                vector_prec,
                basis_prec,
                ..
            } = level
            {
                if basis_prec < vector_prec {
                    *basis_prec = wider(*basis_prec).min(*vector_prec);
                    changed = true;
                }
            }
        }
    }
    changed.then_some(out)
}

/// The full escalation ladder for a level list: rung 0 is the input, each
/// later rung is one widening step wider (all inner levels at the narrowest
/// matrix precision move up together, then compressed bases widen), and the
/// last rung is the fixpoint (all matrices fp64, all bases uncompressed).
///
/// ```
/// use f3r_core::adaptive::escalation_ladder;
/// use f3r_core::nested::LevelSpec;
/// use f3r_core::operator::MatrixStorage;
/// use f3r_precision::Precision;
/// let levels = vec![
///     LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
///     LevelSpec::fgmres_stored(10, MatrixStorage::Scaled(Precision::Fp16), Precision::Fp64),
/// ];
/// let ladder = escalation_ladder(&levels);
/// let streams: Vec<_> = ladder.iter().map(|l| l[1].matrix_storage()).collect();
/// assert_eq!(streams, vec![
///     MatrixStorage::Scaled(Precision::Fp16),
///     MatrixStorage::Scaled(Precision::Fp32),
///     MatrixStorage::Plain(Precision::Fp64),
/// ]);
/// ```
#[must_use]
pub fn escalation_ladder(levels: &[LevelSpec]) -> Vec<Vec<LevelSpec>> {
    let mut ladder = vec![levels.to_vec()];
    while let Some(next) = escalate_once(ladder.last().expect("ladder never empty")) {
        ladder.push(next);
    }
    ladder
}

// ---------------------------------------------------------------------------
// Adaptive session
// ---------------------------------------------------------------------------

/// One precision switch of an [`AdaptiveSession`] call, reported at the
/// first running column that asked for it (else at the last running one).
#[derive(Debug, Clone)]
pub struct PrecisionSwitch {
    /// Restart cycle of the call (0-based, across rungs) that ended in it.
    pub cycle: usize,
    /// The column's outermost iterations by then.
    pub outer_iterations: usize,
    /// The column's true relative residual (`NaN` when the switch rescued a
    /// broken-down cycle).
    pub true_relative_residual: f64,
    /// Ladder rung before the switch (0 = the spec as built).
    pub from_rung: usize,
    /// Ladder rung after it.
    pub to_rung: usize,
    /// `true` for an escalation, `false` for a de-escalation.
    pub escalated: bool,
    /// The level structure the solve continues with, outermost first.
    pub levels: Vec<LevelSpec>,
    /// Matrix-storage bytes the switch faulted into the lazy store.
    pub faulted_bytes: u64,
}

/// Runtime precision escalation over a [`PreparedSolver`]: the policy
/// outside, the fixed-precision driver inside.
///
/// A call runs the current rung's [`SolveSession`] one restart cycle at a
/// time on the still-running columns, each from its cycle-start `x`.  A
/// column asks for a wider rung when its [`StallDetector`] stops its cycle,
/// when a cycle shrinks its true residual by less than
/// [`AdaptivePolicy::cycle_reduction`], or when its residual goes non-finite
/// (its `x` is then rolled back).  The columns share one chain, so one
/// switch serves them all: it opens a fresh session on the rung's solver
/// (built on first use over the same matrix store and `M`), resets every
/// detector and restarts the cycle budget, up to `2 · max_escalations + 2`
/// budgets in all.  The rung persists across calls; every result of a call
/// carries the call's summed counters.
pub struct AdaptiveSession {
    policy: AdaptivePolicy,
    ladder: Vec<Vec<LevelSpec>>,
    /// One solver per rung visited so far (rungs are visited in order).
    solvers: Vec<Arc<PreparedSolver>>,
    /// A session on `solvers[rung]`.
    session: SolveSession,
    rung: usize,
    /// Lowest rung de-escalation may return to.  Starts at 0 and is pinned
    /// upward when a probational de-escalation stalls again.
    floor: usize,
    /// Escalations taken in the current call (bounded by
    /// `policy.max_escalations`).
    escalations: usize,
    /// Consecutive healthy cycles at the current rung.
    healthy_cycles: usize,
    /// Set right after a de-escalation: the narrow rung is on probation
    /// until it survives `deescalate_after` healthy cycles; stalling while
    /// on probation pins `floor` at the re-escalated rung.
    probation: bool,
    /// Per column of the call: its detector and its true relative residual
    /// after its previous cycle at this rung.
    watches: Vec<(StallDetector, Option<f64>)>,
    switches: Vec<PrecisionSwitch>,
}

/// Feeds each column's residual estimates to its detector; column `c` of a
/// cycle call is column `running[c]` of the session call.
struct Watch<'a> {
    watches: &'a mut [(StallDetector, Option<f64>)],
    running: &'a [usize],
    can_escalate: bool,
}

impl SolveObserver for Watch<'_> {
    fn on_outer_iteration(&mut self, event: &OuterEvent) -> SolveControl {
        let signal = self.watches[self.running[event.column]].0.observe(event.relative_residual_estimate);
        if self.can_escalate && signal != StallSignal::Progressing {
            SolveControl::Stop
        } else {
            SolveControl::Continue
        }
    }
}

/// One column of an [`AdaptiveSession`] call.
struct Column {
    max_cycles: usize,
    /// `x` at the start of the running cycle: its warm start and its backup.
    start: Vec<f64>,
    outer_iterations: usize,
    history: Vec<f64>,
    stop_reason: StopReason,
    done: bool,
}

impl AdaptiveSession {
    /// An adaptive session over `prepared` (rung 0) under `policy`.
    #[must_use]
    pub fn new(prepared: &Arc<PreparedSolver>, policy: AdaptivePolicy) -> Self {
        Self {
            policy,
            ladder: escalation_ladder(&prepared.spec().levels),
            solvers: vec![Arc::clone(prepared)],
            session: prepared.session(),
            rung: 0,
            floor: 0,
            escalations: 0,
            healthy_cycles: 0,
            probation: false,
            watches: Vec::new(),
            switches: Vec::new(),
        }
    }

    /// The ladder rung the session runs at (0 = the spec as built).
    #[must_use]
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// The precision switches of the last call, in order.
    #[must_use]
    pub fn switches(&self) -> &[PrecisionSwitch] {
        &self.switches
    }

    /// [`SolveSession::solve`] with escalation.
    pub fn solve(&mut self, b: &[f64], x: &mut [f64]) -> SolveResult {
        self.solve_with(b, x, &SolveOptions::default())
    }

    /// [`SolveSession::solve_with`] with escalation.
    pub fn solve_with(&mut self, b: &[f64], x: &mut [f64], opts: &SolveOptions<'_>) -> SolveResult {
        self.run(&[b], &mut [x], std::slice::from_ref(opts)).pop().expect("one result per column")
    }

    /// [`SolveSession::solve_batch`] with escalation.
    pub fn solve_batch<B: AsRef<[f64]>>(&mut self, bs: &[B], xs: &mut [Vec<f64>]) -> Vec<SolveResult> {
        self.solve_batch_with(bs, xs, &vec![SolveOptions::default(); bs.len()])
    }

    /// [`SolveSession::solve_batch_with`] with escalation.
    pub fn solve_batch_with<B: AsRef<[f64]>>(
        &mut self,
        bs: &[B],
        xs: &mut [Vec<f64>],
        opts: &[SolveOptions<'_>],
    ) -> Vec<SolveResult> {
        let (bs, mut xs) = batch_columns(bs, xs, opts, self.session.prepared().dim());
        self.run(&bs, &mut xs, opts)
    }

    /// The escalation loop behind every entry: column `c` solves
    /// `A xs[c] = bs[c]` under `opts[c]`.
    fn run(&mut self, bs: &[&[f64]], xs: &mut [&mut [f64]], opts: &[SolveOptions<'_>]) -> Vec<SolveResult> {
        let begin = Instant::now();
        let base = Arc::clone(&self.solvers[0]);
        let spec = base.spec();
        let mut cols: Vec<Column> = opts
            .iter()
            .map(|o| Column {
                max_cycles: o.max_outer_cycles.unwrap_or(spec.max_outer_cycles),
                start: o.x0.map_or_else(|| vec![0.0; base.dim()], <[f64]>::to_vec),
                outer_iterations: 0,
                history: Vec::new(),
                stop_reason: StopReason::MaxIterations,
                done: false,
            })
            .collect();
        assert!(cols.iter().all(|col| col.max_cycles >= 1), "solve: need at least one outer cycle");
        let cap_factor = self.policy.max_escalations.saturating_mul(2).saturating_add(2);
        (self.escalations, self.healthy_cycles, self.probation) = (0, 0, false);
        self.watches = bs.iter().map(|_| (StallDetector::new(self.policy.stall), None)).collect();
        self.switches.clear();
        let (mut cycle, mut cycles_since_switch, mut counters) = (0, 0, CounterSnapshot::default());
        loop {
            let mut running = Vec::new();
            for (c, col) in cols.iter_mut().enumerate() {
                // A column out of budget keeps its `MaxIterations` verdict.
                let hard_cap = col.max_cycles.saturating_mul(cap_factor);
                col.done |= cycles_since_switch >= col.max_cycles || cycle >= hard_cap;
                if !col.done {
                    if cycle > 0 {
                        col.start.copy_from_slice(xs[c]);
                    }
                    running.push(c);
                }
            }
            if running.is_empty() {
                break;
            }
            let can_escalate = self.rung + 1 < self.ladder.len() && self.escalations < self.policy.max_escalations;
            // One cycle per running column from its cycle-start `x`; a cold
            // column's first starts from zero, as in one call.
            let cycle_opts: Vec<SolveOptions<'_>> = running
                .iter()
                .map(|&c| SolveOptions {
                    x0: if cycle == 0 { opts[c].x0 } else { Some(&cols[c].start) },
                    tol: opts[c].tol,
                    max_outer_cycles: Some(1),
                })
                .collect();
            let cycle_bs: Vec<&[f64]> = running.iter().map(|&c| bs[c]).collect();
            let mut cycle_xs: Vec<&mut [f64]> =
                xs.iter_mut().zip(&cols).filter(|(_, col)| !col.done).map(|(x, _)| &mut **x).collect();
            let mut watch = Watch { watches: &mut self.watches, running: &running, can_escalate };
            let results = self.session.drive(&cycle_bs, &mut cycle_xs, &cycle_opts, Some(&mut watch));
            counters.accumulate(&results[0].counters);

            // Whether a still-running column asked for a wider chain, whether
            // one stalled, and where: at the first column that asked, else at
            // the last one still running.
            let (mut asked, mut stalled, mut at) = (false, false, None);
            for (r, &c) in results.into_iter().zip(&running) {
                let col = &mut cols[c];
                col.outer_iterations += r.outer_iterations;
                col.history.extend(r.residual_history);
                let true_rel = r.final_relative_residual;
                // The driver's one breakdown with a finite residual is a
                // sterile cycle.
                let mut column_asked = r.stop_reason == StopReason::Breakdown && true_rel.is_finite();
                if !true_rel.is_finite() && can_escalate {
                    // Rescue: the narrow chain poisoned x — roll it back to
                    // the cycle start and retry one rung wider (the
                    // non-finite residual is not recorded; the rolled back x
                    // is still the last valid iterate).
                    col.history.pop();
                    xs[c].copy_from_slice(&col.start);
                    column_asked = true;
                } else if r.stop_reason == StopReason::Converged
                    || (r.stop_reason == StopReason::Breakdown && !can_escalate)
                {
                    (col.stop_reason, col.done) = (r.stop_reason, true);
                } else {
                    // Cycle-boundary stall check: a full cycle that failed to
                    // shrink the true residual by the policy's reduction
                    // factor counts as stalled even if the per-iteration
                    // detector (whose stop reads `Stopped`) stayed quiet.
                    let last = &mut self.watches[c].1;
                    let boundary_stall = last.is_some_and(|prev| prev / true_rel < self.policy.cycle_reduction);
                    *last = Some(true_rel);
                    let column_stalled = r.stop_reason == StopReason::Stopped || boundary_stall;
                    stalled |= column_stalled;
                    column_asked |= column_stalled;
                }
                if !col.done {
                    if !asked {
                        at = Some((col.outer_iterations, true_rel));
                    }
                    asked |= column_asked;
                }
            }

            cycle += 1;
            cycles_since_switch += 1;
            // `at` is set exactly when a column is still running.
            if let Some((outer_iterations, true_rel)) = at {
                if let Some(to_rung) = self.next_rung(can_escalate, asked, stalled) {
                    self.switch_to(to_rung, cycle - 1, outer_iterations, true_rel);
                    cycles_since_switch = 0;
                }
            }
        }

        // Rung 0's name and fingerprint: the caller's solver answered.
        let seconds = begin.elapsed().as_secs_f64();
        cols.into_iter()
            .map(|col| base.result(col.stop_reason, col.outer_iterations, col.history, counters, seconds))
            .collect()
    }

    /// The rung to switch to at a cycle boundary, if any: one up when a
    /// running column `asked` and the session `can_escalate`, one down after
    /// `deescalate_after` consecutive cycles in which no running column
    /// `stalled` (not below the floor, and only once a rung on probation has
    /// survived as long).
    fn next_rung(&mut self, can_escalate: bool, asked: bool, stalled: bool) -> Option<usize> {
        if can_escalate && asked {
            self.escalations += 1;
            if self.probation {
                self.floor = self.rung + 1;
            }
            return Some(self.rung + 1);
        }
        if stalled {
            return None;
        }
        self.healthy_cycles += 1;
        if self.healthy_cycles < self.policy.deescalate_after? {
            return None;
        }
        if self.probation {
            // The narrow rung survived its probation: it is the session's
            // rung for good.
            self.probation = false;
            self.healthy_cycles = 0;
            return None;
        }
        (self.rung > self.floor).then(|| self.rung - 1)
    }

    /// Move to `to_rung` with a fresh session on its solver (fresh Richardson
    /// weights too, as a rebuilt chain has), log the switch and reset every
    /// column's detector.
    fn switch_to(&mut self, to_rung: usize, cycle: usize, outer_iterations: usize, true_relative_residual: f64) {
        let mut faulted_bytes = 0;
        if to_rung == self.solvers.len() {
            let (solver, bytes) = self.solvers[0].with_levels(&self.ladder[to_rung]);
            self.solvers.push(solver);
            faulted_bytes = bytes;
        }
        self.session = self.solvers[to_rung].session();
        let escalated = to_rung > self.rung;
        let levels = self.ladder[to_rung].clone();
        let from_rung = std::mem::replace(&mut self.rung, to_rung);
        self.switches.push(PrecisionSwitch {
            cycle,
            outer_iterations,
            true_relative_residual,
            from_rung,
            to_rung,
            escalated,
            levels,
            faulted_bytes,
        });
        self.healthy_cycles = 0;
        // A de-escalated rung is on probation; an escalation ends one.
        self.probation = !escalated;
        for (detector, last) in &mut self.watches {
            detector.reset();
            *last = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Spec autotuner
// ---------------------------------------------------------------------------

/// Configuration of the [`auto_spec_for_matrix`] autotuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoTuneConfig {
    /// Iteration counts of the F3R candidates.
    pub params: F3rParams,
    /// Largest entry dynamic range for which the *row-scaled* fp16 matrix
    /// stream is considered admissible.  Per-row power-of-two scaling
    /// absorbs the inter-row amplitude spread, but the fp16 mantissa still
    /// caps the within-row range a stream can resolve; measured on the DAD
    /// Laplacian family, scaled fp16 converges at ~1e10 range and stalls at
    /// ~1e16, so the default gate sits between the two regimes.
    pub scaled_fp16_max_range: f64,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        Self {
            params: F3rParams::default(),
            scaled_fp16_max_range: 1e12,
        }
    }
}

/// One autotuner candidate: a spec, its modeled traffic per outermost
/// iteration (Section 4.1 words per row), and whether the matrix's entry
/// statistics admit it.
#[derive(Debug, Clone)]
pub struct SpecCandidate {
    /// The candidate spec.
    pub spec: NestedSpec,
    /// Modeled traffic of one outermost iteration, in double-precision-
    /// equivalent words per matrix row.
    pub modeled_traffic: f64,
    /// Whether the matrix's [`EntryRangeStats`] admit this candidate.
    pub admissible: bool,
}

/// Build and rank the autotuner's candidate specs for a matrix with the given
/// entry statistics and density (mean nonzeros per row).
///
/// Candidates, in the order returned:
/// 1. fp64-F3R — always admissible (the safe fallback),
/// 2. fp32-F3R — always admissible,
/// 3. fp16-F3R with plain fp16 storage — admissible only when every entry
///    survives an unscaled fp16 copy ([`EntryRangeStats::fp16_representable`]),
/// 4. fp16-F3R with *row-scaled* fp16 storage on its fp16 levels —
///    admissible while the dynamic range stays within
///    [`AutoTuneConfig::scaled_fp16_max_range`]; its preconditioner storage
///    is widened to fp32 when the raw entries are not fp16-representable
///    (the factors inherit the entry range, and `M` has no scaled variant).
#[must_use]
pub fn candidate_specs(
    stats: &EntryRangeStats,
    nnz_per_row: f64,
    config: &AutoTuneConfig,
) -> Vec<SpecCandidate> {
    let settings = SolverSettings::default();
    let fp16_plain_ok = stats.fp16_representable();
    let fp16_scaled_ok = stats.dynamic_range <= config.scaled_fp16_max_range;

    let mut scaled16 = f3r_spec(config.params, F3rScheme::Fp16, &settings);
    for level in scaled16.levels.iter_mut().skip(1) {
        if level.matrix_precision() == Precision::Fp16 {
            let (LevelSpec::Fgmres { matrix, .. } | LevelSpec::Richardson { matrix, .. }) = level;
            *matrix = MatrixStorage::Scaled(Precision::Fp16);
        }
    }
    if !fp16_plain_ok {
        scaled16.precond_prec = Precision::Fp32;
    }
    scaled16.name = "fp16-F3R-scaled".to_string();

    let raw = [
        (f3r_spec(config.params, F3rScheme::Fp64, &settings), true),
        (f3r_spec(config.params, F3rScheme::Fp32, &settings), true),
        (
            f3r_spec(config.params, F3rScheme::Fp16, &settings),
            fp16_plain_ok,
        ),
        (scaled16, fp16_scaled_ok),
    ];
    raw.into_iter()
        .map(|(spec, admissible)| {
            let modeled_traffic = spec_traffic_per_outer_iteration(&spec, nnz_per_row, nnz_per_row);
            SpecCandidate {
                spec,
                modeled_traffic,
                admissible,
            }
        })
        .collect()
}

/// Pick the cheapest admissible candidate for the given stats and density.
///
/// The returned spec's name is prefixed with `auto:` so results stay
/// attributable.  The fp64-F3R candidate is always admissible, so this never
/// fails.
#[must_use]
pub fn auto_spec(stats: &EntryRangeStats, nnz_per_row: f64, config: &AutoTuneConfig) -> NestedSpec {
    let candidates = candidate_specs(stats, nnz_per_row, config);
    let admissible: Vec<&NestedSpec> = candidates
        .iter()
        .filter(|c| c.admissible)
        .map(|c| &c.spec)
        .collect();
    let (best, _) = cheapest_spec(admissible.iter().copied(), nnz_per_row, nnz_per_row)
        .expect("the fp64 candidate is always admissible");
    let mut spec = admissible[best].clone();
    spec.name = format!("auto:{}", spec.name);
    spec
}

/// Measure a matrix and pick the cheapest admissible spec for it (the
/// engine behind `SolverBuilder::auto_spec()`).
///
/// The measurement is one pass over the stored fp64 entries
/// ([`EntryRangeStats::compute`]) plus the mean row density — both cheap
/// relative to a preconditioner factorisation.
#[must_use]
pub fn auto_spec_for_matrix(matrix: &ProblemMatrix, config: &AutoTuneConfig) -> NestedSpec {
    let stats = EntryRangeStats::compute(matrix.csr_f64());
    let nnz_per_row = matrix.nnz() as f64 / matrix.dim().max(1) as f64;
    auto_spec(&stats, nnz_per_row, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3r_precond::PrecondKind;

    fn detector() -> StallDetector {
        StallDetector::new(StallConfig::default())
    }

    #[test]
    fn geometric_decay_never_flags_at_any_rate_at_or_below_threshold() {
        // The no-false-positive property: exact geometric convergence at
        // rate ρ ≤ min_rate is never flagged, for any ρ and any scale.
        for rho in [0.1, 0.5, 0.9, 0.98, 0.995] {
            for scale in [1.0, 1e-6, 1e8] {
                let mut d = detector();
                let mut r = scale;
                for k in 0..200 {
                    assert_eq!(
                        d.observe(r),
                        StallSignal::Progressing,
                        "rho={rho} scale={scale} k={k}"
                    );
                    r *= rho;
                }
            }
        }
    }

    #[test]
    fn plateau_flags_exactly_when_the_window_fills() {
        let mut d = detector();
        let window = d.config().window;
        for k in 0..window {
            assert_eq!(d.observe(0.5), StallSignal::Progressing, "k={k}");
        }
        assert_eq!(d.observe(0.5), StallSignal::Stalling);
        // Reset gives a clean slate.
        d.reset();
        assert_eq!(d.observe(0.5), StallSignal::Progressing);
    }

    #[test]
    fn slow_decay_above_threshold_flags() {
        let mut d = detector();
        let mut r = 1.0;
        let mut flagged = false;
        for _ in 0..100 {
            if d.observe(r) == StallSignal::Stalling {
                flagged = true;
                break;
            }
            r *= 0.999; // slower than min_rate = 0.995
        }
        assert!(flagged);
    }

    #[test]
    fn oscillating_but_decaying_trace_does_not_flag() {
        // r_k = 0.8^k · (1 ± 0.3): noisy, non-monotone, but clearly
        // converging — must never flag as stalling or diverging.
        let mut d = detector();
        for k in 0..100u32 {
            let r = 0.8f64.powi(k as i32) * if k % 2 == 0 { 1.3 } else { 0.7 };
            assert_eq!(d.observe(r), StallSignal::Progressing, "k={k}");
        }
    }

    #[test]
    fn divergence_flags_before_the_window_fills() {
        let mut d = detector();
        assert_eq!(d.observe(1.0), StallSignal::Progressing);
        assert_eq!(d.observe(0.5), StallSignal::Progressing);
        assert_eq!(d.observe(200.0), StallSignal::Diverging);
    }

    #[test]
    fn non_finite_residual_is_breakdown() {
        let mut d = detector();
        assert_eq!(d.observe(f64::NAN), StallSignal::Breakdown);
        assert_eq!(d.observe(f64::INFINITY), StallSignal::Breakdown);
        // Breakdown observations are not recorded; the trace continues.
        assert_eq!(d.observe(1.0), StallSignal::Progressing);
    }

    #[test]
    fn zero_residual_is_progress() {
        let mut d = detector();
        for _ in 0..30 {
            assert_eq!(d.observe(0.0), StallSignal::Progressing);
        }
    }

    fn check_ladder(levels: Vec<LevelSpec>) -> Vec<Vec<LevelSpec>> {
        let ladder = escalation_ladder(&levels);
        for (r, rung) in ladder.iter().enumerate() {
            let spec = NestedSpec {
                levels: rung.clone(),
                precond: PrecondKind::Jacobi,
                precond_prec: Precision::Fp64,
                tol: 1e-8,
                max_outer_cycles: 3,
                name: format!("rung{r}"),
            };
            spec.check().unwrap_or_else(|e| panic!("rung {r}: {e}"));
        }
        ladder
    }

    #[test]
    fn two_level_scaled_fp16_ladder_climbs_to_plain_fp64() {
        let ladder = check_ladder(vec![
            LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres_stored(10, MatrixStorage::Scaled(Precision::Fp16), Precision::Fp64),
        ]);
        assert_eq!(ladder.len(), 3);
        assert_eq!(
            ladder[1][1].matrix_storage(),
            MatrixStorage::Scaled(Precision::Fp32)
        );
        assert_eq!(
            ladder[2][1].matrix_storage(),
            MatrixStorage::Plain(Precision::Fp64)
        );
        // The outermost level never changes.
        for rung in &ladder {
            assert_eq!(rung[0], ladder[0][0]);
        }
    }

    #[test]
    fn fp16_f3r_ladder_ends_at_the_all_fp64_fixpoint() {
        let spec = f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default());
        let ladder = check_ladder(spec.levels);
        let last = ladder.last().unwrap();
        for level in &last[1..] {
            assert_eq!(level.matrix_precision(), Precision::Fp64);
            assert_eq!(level.vector_precision(), Precision::Fp64);
            if let Some(b) = level.basis_precision() {
                assert_eq!(b, Precision::Fp64);
            }
        }
        // The fixpoint really is a fixpoint.
        assert!(escalate_once(last).is_none());
    }

    #[test]
    fn escalation_drags_vector_and_basis_precisions_along() {
        // fp16 matrix + fp16 vectors + fp16 basis: widening the matrix to
        // fp32 must widen the vectors (matrix ≤ vector) and may widen the
        // basis, keeping basis ≤ vector.
        let ladder = check_ladder(vec![
            LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(4, Precision::Fp16, Precision::Fp16),
        ]);
        assert_eq!(ladder[1][1].matrix_precision(), Precision::Fp32);
        assert_eq!(ladder[1][1].vector_precision(), Precision::Fp32);
    }

    #[test]
    fn fp64_matrices_with_compressed_basis_get_a_basis_rung() {
        let levels = vec![
            LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64),
            LevelSpec::Fgmres {
                m: 5,
                matrix: MatrixStorage::Plain(Precision::Fp64),
                vector_prec: Precision::Fp64,
                basis_prec: Precision::Fp16,
            },
        ];
        let ladder = check_ladder(levels);
        let bases: Vec<_> = ladder
            .iter()
            .map(|rung| rung[1].basis_precision().unwrap())
            .collect();
        assert_eq!(bases, vec![Precision::Fp16, Precision::Fp32, Precision::Fp64]);
    }

    #[test]
    fn single_level_spec_has_a_one_rung_ladder() {
        let ladder =
            escalation_ladder(&[LevelSpec::fgmres(10, Precision::Fp64, Precision::Fp64)]);
        assert_eq!(ladder.len(), 1);
    }

    fn stats(range: f64, representable: bool) -> EntryRangeStats {
        EntryRangeStats {
            max_abs: 1.0,
            min_abs_nonzero: 1.0 / range,
            dynamic_range: range,
            fp16_overflow: usize::from(!representable),
            fp16_underflow: 0,
        }
    }

    #[test]
    fn autotuner_picks_plain_fp16_on_benign_entries() {
        let spec = auto_spec(&stats(1e3, true), 27.0, &AutoTuneConfig::default());
        assert_eq!(spec.name, "auto:fp16-F3R");
    }

    #[test]
    fn autotuner_picks_scaled_fp16_on_moderate_range() {
        // Entries overflow plain fp16 but the range fits the scaled gate.
        let spec = auto_spec(&stats(1e10, false), 27.0, &AutoTuneConfig::default());
        assert_eq!(spec.name, "auto:fp16-F3R-scaled");
        // The fp16-precision levels stream the row-scaled variant…
        assert!(spec
            .levels
            .iter()
            .any(|l| l.matrix_storage() == MatrixStorage::Scaled(Precision::Fp16)));
        // …and the preconditioner was widened past the unrepresentable range.
        assert_eq!(spec.precond_prec, Precision::Fp32);
    }

    #[test]
    fn autotuner_falls_back_to_fp32_on_extreme_range() {
        let spec = auto_spec(&stats(1e16, false), 27.0, &AutoTuneConfig::default());
        assert_eq!(spec.name, "auto:fp32-F3R");
    }

    #[test]
    fn candidates_are_ranked_by_the_cost_model() {
        let cands = candidate_specs(&stats(10.0, true), 27.0, &AutoTuneConfig::default());
        assert_eq!(cands.len(), 4);
        // fp64 is the most expensive model, plain fp16 the cheapest.
        let by_name = |n: &str| {
            cands
                .iter()
                .find(|c| c.spec.name.contains(n))
                .unwrap()
                .modeled_traffic
        };
        assert!(by_name("fp64-F3R") > by_name("fp32-F3R"));
        assert!(by_name("fp32-F3R") > by_name("fp16-F3R-scaled"));
        assert!(by_name("fp16-F3R-scaled") > cands[2].modeled_traffic);
        assert!(cands.iter().all(|c| c.admissible));
    }
}
