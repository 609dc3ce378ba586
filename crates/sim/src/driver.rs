//! The iteration driver shared by the simulated Krylov solvers.
//!
//! Sec. II-B: BiCGStab and GMRES "have the same kernels and challenges"
//! as PCG. They also share everything around the recurrence, which
//! [`Driver`] owns:
//!
//! * timed-kernel accounting — one fault session across every
//!   cycle-timed launch, per-class kernel cycles, steady-state
//!   extrapolation over the untimed iterations;
//! * cooperative cancellation between iterations;
//! * the iteration-0 and periodic checkpoints of `x`, and rollback;
//! * NaN, divergence and breakdown guards;
//! * the ABFT ladder: verify → re-verify with the reference kernel →
//!   roll back;
//! * drift and final true-residual audits, and the escape backstop;
//! * stagnation and cycle-budget checks;
//! * convergence samples with the untimed back-fill, trace sealing, the
//!   solve span and the solve-level invariant audit.
//!
//! A method supplies its recurrence step, a `rederive(x)` that rebuilds
//! the recurrence from a restored `x`, and the kernels it launches (see
//! [`Recurrence`]). GMRES drives its own restart loop and checkpoints at
//! each healthy restart boundary instead of periodically
//! ([`Driver::restart_boundary`]).

use crate::config::SimConfig;
use crate::faults::{DriftSample, FaultSession, IntegrityAudit, IntegrityRecord, RecoveryRecord};
use crate::machine::{run_kernel_checked, SimError};
use crate::program::Program;
use crate::solver::{Method, SimSolverConfig, SimSolverReport};
use crate::stats::{KernelClass, KernelStats};
use crate::vecops::{VecOp, VecOpModel};
use azul_mapping::Placement;
use azul_solver::abft::{ChecksumCheck, OperatorChecksum};
use azul_solver::flops::FlopBreakdown;
use azul_solver::kernels::{sptrsv_lower, sptrsv_lower_transpose};
use azul_solver::BreakdownKind::{
    self, BudgetExhausted, Diverged, IntegrityViolation, NonFinite, Stagnated,
};
use azul_solver::SolveStatus;
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;
use azul_telemetry::span::{self, SpanGuard};

/// The compiled kernels of one solver instance: the operator, its lower
/// factor and the programs that apply them on the machine.
#[derive(Debug, Clone)]
pub(crate) struct Kernels {
    pub a: Csr,
    /// The factor `L` of `M = L Lᵀ` (the identity when unpreconditioned).
    pub l: Csr,
    spmv: Program,
    /// The forward and transpose triangular-solve programs; `None` runs
    /// unpreconditioned.
    pub trisolve: Option<(Program, Program)>,
    vec_model: VecOpModel,
}

impl Kernels {
    /// Compiles SpMV with `a` and, given a factor, both triangular solves.
    pub fn compile(a: &Csr, l: Option<&Csr>, placement: &Placement) -> Self {
        Kernels {
            a: a.clone(),
            l: l.cloned().unwrap_or_else(|| Csr::identity(a.rows())),
            spmv: Program::compile_spmv(a, placement),
            trisolve: l.map(|l| {
                (
                    Program::compile_sptrsv_lower(l, a, placement),
                    Program::compile_sptrsv_upper(l, a, placement),
                )
            }),
            vec_model: VecOpModel::new(placement),
        }
    }

    /// `M⁻¹ r` with the reference kernels.
    pub fn precond_ref(&self, r: &[f64]) -> Vec<f64> {
        match self.trisolve {
            Some(_) => sptrsv_lower_transpose(&self.l, &sptrsv_lower(&self.l, r)),
            None => r.to_vec(),
        }
    }
}

/// FLOPs represented by an op tally (FMAC = 2, Add/Mul = 1, Send = 0).
pub(crate) fn flops_of_ops(ops: [u64; 4]) -> u64 {
    2 * ops[0] + ops[1] + ops[2]
}

/// The FLOPs a method counts, for the report's `flops_per_iteration`
/// and `gflops`: a fixed per-iteration breakdown, or the sum over the
/// timed iterations when their cost grows with the Krylov basis (GMRES).
pub(crate) enum Flops {
    PerIteration(FlopBreakdown),
    Timed(FlopBreakdown),
}

/// Why an iteration stopped short.
#[derive(Debug)]
pub(crate) enum Interrupt {
    /// A machine-level failure; ends the solve with an error.
    Sim(SimError),
    /// A numerical anomaly: rolls back to the checkpoint while the
    /// recovery budget lasts, else ends the solve with this breakdown.
    Fault(BreakdownKind, String),
}

impl From<SimError> for Interrupt {
    fn from(e: SimError) -> Self {
        Interrupt::Sim(e)
    }
}

/// `Ok` when `ok` holds, else a fault of `kind`.
pub(crate) fn guard(
    ok: bool,
    kind: BreakdownKind,
    reason: impl FnOnce() -> String,
) -> Result<(), Interrupt> {
    ok.then_some(())
        .ok_or_else(|| Interrupt::Fault(kind, reason()))
}

/// The end of one recurrence step.
pub(crate) struct Step {
    /// Residual norm of the new iterate.
    pub residual: f64,
    /// The iterate passed the convergence audit.
    pub converged: bool,
    /// A terminal breakdown, taken unless the step converged.
    pub stop: Option<BreakdownKind>,
}

/// A method's recurrence, stepped by [`Driver::run`].
pub(crate) trait Recurrence {
    /// One iteration: updates `x` and the recurrence, launching kernels
    /// through `d` and settling the new residual with [`Driver::settle`].
    fn step(&mut self, d: &mut Driver, x: &mut [f64]) -> Result<Step, Interrupt>;

    /// Rebuilds the recurrence from a restored `x` with the reference
    /// kernels, so corrupted recurrence vectors cannot survive a
    /// rollback. Returns the new residual norm.
    fn rederive(&mut self, x: &[f64]) -> f64;
}

/// What GMRES does after a restart boundary.
pub(crate) enum Boundary {
    /// Rolled back to the checkpoint: recompute the residual.
    Retry,
    /// Converged or broken down.
    Stop,
    /// Healthy and checkpointed: run the Arnoldi cycle.
    Proceed,
}

/// Cumulative counters, and the cost of an iteration as their
/// difference.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    cycles: u64,
    flops: u64,
    messages: u64,
    link_activations: u64,
}

impl Tally {
    fn of(s: &KernelStats) -> Self {
        Tally {
            cycles: s.cycles,
            flops: flops_of_ops(s.ops),
            messages: s.messages,
            link_activations: s.link_activations,
        }
    }

    fn since(self, pre: Tally) -> Self {
        Tally {
            cycles: self.cycles - pre.cycles,
            flops: self.flops - pre.flops,
            messages: self.messages - pre.messages,
            link_activations: self.link_activations - pre.link_activations,
        }
    }

    fn add(&mut self, c: Tally) {
        self.cycles += c.cycles;
        self.flops += c.flops;
        self.messages += c.messages;
        self.link_activations += c.link_activations;
    }

    fn sample(self, iteration: usize, residual: f64) -> IterationSample {
        IterationSample {
            iteration,
            residual,
            cycles: self.cycles,
            flops: self.flops,
            messages: self.messages,
            link_activations: self.link_activations,
        }
    }
}

/// The iteration state machine of one solve.
pub(crate) struct Driver<'a> {
    cfg: &'a SimConfig,
    k: &'a Kernels,
    b: &'a [f64],
    p: SimSolverConfig,
    span: SpanGuard,
    // One fault session spans all timed kernels of the solve, so the
    // plan's global-cycle timeline advances across kernel boundaries.
    session: Option<FaultSession>,
    stats: KernelStats,
    /// Cycles by kernel class over the timed iterations.
    kernel_cycles: [u64; 3],
    setup_cycles: u64,
    timed_done: usize,
    /// Summed cost of the timed iterations.
    timed: Tally,
    pub iterations: usize,
    pub converged: bool,
    breakdown: Option<BreakdownKind>,
    // Checkpoints store `x` only. The initial snapshot is the starting
    // `x` at iteration 0, so a fault before the first checkpoint rolls
    // back to the valid start, never to uninitialized state.
    ck_x: Vec<f64>,
    ck_iter: usize,
    recoveries: Vec<RecoveryRecord>,
    /// Best residual norm seen, the divergence guard's reference.
    best: f64,
    // Checksum vectors are host-side prepare-time artifacts: their
    // construction and each O(n) verification are not cycle-charged,
    // like the recovery machinery's functional recomputes.
    audit: IntegrityAudit,
    cs_a: Option<OperatorChecksum>,
    cs_l: Option<OperatorChecksum>,
    a_inf: f64,
    convergence: Vec<IterationSample>,
    /// Positions of the untimed samples, back-filled in `finish`.
    untimed: Vec<usize>,
    /// Residual history for the stagnation detector.
    rnorm_hist: Vec<f64>,
    // The iteration in progress: cycle-simulated (setup launches are),
    // still open, and the counters at its start.
    timing: bool,
    open: bool,
    pre: Tally,
}

impl<'a> Driver<'a> {
    /// Opens a solve of `k.a · x = b` from `x = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn new(cfg: &'a SimConfig, k: &'a Kernels, b: &'a [f64], p: SimSolverConfig) -> Self {
        assert_eq!(b.len(), k.a.rows(), "rhs length mismatch");
        let checksums = p.integrity.enabled && p.integrity.checksum_kernels;
        let checks_factor = checksums && k.trisolve.is_some();
        Driver {
            cfg,
            k,
            b,
            p,
            span: span::span(format!("solve/{}", p.method.name())),
            session: cfg
                .faults
                .as_ref()
                .filter(|plan| !plan.is_empty())
                .map(|plan| FaultSession::new(plan.clone())),
            stats: KernelStats::default(),
            kernel_cycles: [0; 3],
            setup_cycles: 0,
            timed_done: 0,
            timed: Tally::default(),
            iterations: 0,
            converged: false,
            breakdown: None,
            ck_x: vec![0.0; b.len()],
            ck_iter: 0,
            recoveries: Vec::new(),
            // GMRES guards only its restart-boundary residuals; the first
            // one sets the bar.
            best: match p.method {
                Method::Gmres { .. } => f64::INFINITY,
                _ => dense::norm2(b),
            },
            audit: IntegrityAudit::default(),
            cs_a: checksums.then(|| OperatorChecksum::new(&k.a)),
            cs_l: checks_factor.then(|| OperatorChecksum::new(&k.l)),
            a_inf: if p.integrity.enabled {
                k.a.inf_norm()
            } else {
                0.0
            },
            convergence: Vec::new(),
            untimed: Vec::new(),
            rnorm_hist: Vec::new(),
            timing: true,
            open: false,
            pre: Tally::default(),
        }
    }

    /// Ends setup: its launches become the setup cycles, sample 0 records
    /// them with the starting residual, and the per-kernel tally restarts
    /// so it reflects iterations only.
    pub fn start(&mut self, residual: f64) {
        let setup = Tally::of(&self.stats);
        self.setup_cycles = setup.cycles;
        self.convergence.push(setup.sample(0, residual));
        self.kernel_cycles = [0; 3];
        self.converged = residual <= self.p.tol;
    }

    /// Whether the iteration in progress is cycle-simulated.
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// Runs `prog` cycle-by-cycle under the solve's fault session.
    fn launch(
        &mut self,
        prog: &Program,
        v: &[f64],
        class: KernelClass,
    ) -> Result<Vec<f64>, SimError> {
        let (out, s) = run_kernel_checked(self.cfg, prog, v, self.session.as_mut())?;
        self.kernel_cycles[class as usize] += s.cycles;
        self.stats.merge(&s);
        Ok(out)
    }

    /// `A v`: simulated when timing, else the reference kernel.
    pub fn spmv(&mut self, v: &[f64]) -> Result<Vec<f64>, SimError> {
        let k = self.k;
        if self.timing {
            self.launch(&k.spmv, v, KernelClass::Spmv)
        } else {
            Ok(k.a.spmv(v))
        }
    }

    /// `L⁻¹ v`, likewise.
    pub fn lower(&mut self, v: &[f64]) -> Result<Vec<f64>, SimError> {
        let k = self.k;
        match &k.trisolve {
            Some((lower, _)) if self.timing => self.launch(lower, v, KernelClass::Sptrsv),
            _ => Ok(sptrsv_lower(&k.l, v)),
        }
    }

    /// `L⁻ᵀ y`, likewise.
    pub fn upper(&mut self, y: &[f64]) -> Result<Vec<f64>, SimError> {
        let k = self.k;
        match &k.trisolve {
            Some((_, upper)) if self.timing => self.launch(upper, y, KernelClass::Sptrsv),
            _ => Ok(sptrsv_lower_transpose(&k.l, y)),
        }
    }

    /// `M⁻¹ r` (the identity when unpreconditioned), with both solves
    /// checked when armed: the forward one against the column checksums
    /// of `L`, the transpose one against its row checksums.
    pub fn precond(&mut self, r: &[f64]) -> Result<Vec<f64>, Interrupt> {
        if self.k.trisolve.is_none() {
            return Ok(r.to_vec());
        }
        let y = self.lower(r)?;
        let z = self.upper(&y)?;
        if let Some((_, Some(cs))) = self.checksums() {
            let checks = [
                ("checksum_sptrsv", cs.verify_solve(&y, r)),
                ("checksum_sptrsv", cs.verify_solve_transpose(&z, &y)),
            ];
            let bound = checks[0].1.bound.max(checks[1].1.bound);
            let k = self.k;
            self.abft(&checks, |_| {
                dense::norm2(&dense::sub(&z, &k.precond_ref(r))) > bound
            })?;
        }
        Ok(z)
    }

    /// Charges `count` dense vector kernels when timing.
    pub fn vec_op(&mut self, op: VecOp, count: u64) {
        for _ in 0..if self.timing { count } else { 0 } {
            let s = self.k.vec_model.stats(self.cfg, op, self.b.len());
            self.kernel_cycles[KernelClass::VectorOps as usize] += s.cycles;
            self.stats.merge(&s);
        }
    }

    /// Opens an iteration: samples cancellation (untimed iterations never
    /// enter the cycle engine's own check) and marks the counters.
    pub fn begin(&mut self) -> Result<(), SimError> {
        if self
            .cfg
            .cancel
            .as_ref()
            .is_some_and(|tok| tok.is_cancelled())
        {
            let cycle = self.setup_cycles + self.timed.cycles;
            return Err(SimError::Cancelled { cycle });
        }
        self.timing = self.p.timed_iterations == 0 || self.timed_done < self.p.timed_iterations;
        self.open = true;
        self.pre = Tally::of(&self.stats);
        Ok(())
    }

    /// The number of the iteration being worked on or just closed.
    fn current(&self) -> usize {
        self.iterations + usize::from(self.open)
    }

    /// Closes the iteration in progress: counts it and records its
    /// convergence sample, with the measured cost when timed.
    pub fn close(&mut self, residual: f64) {
        let mut cost = Tally::default();
        if self.timing {
            cost = Tally::of(&self.stats).since(self.pre);
            self.timed_done += 1;
            self.timed.add(cost);
        } else {
            self.untimed.push(self.convergence.len());
        }
        self.open = false;
        self.iterations += 1;
        self.convergence
            .push(cost.sample(self.iterations, residual));
    }

    fn cycles_per_iteration(&self) -> f64 {
        if self.timed_done > 0 {
            self.timed.cycles as f64 / self.timed_done as f64
        } else {
            0.0
        }
    }

    /// Setup plus the steady-state extrapolation over every iteration.
    fn total_cycles(&self) -> u64 {
        self.setup_cycles + (self.cycles_per_iteration() * self.iterations as f64) as u64
    }

    /// Stagnation and cycle-budget checks after a non-converged
    /// iteration. Returns `true` (with the breakdown recorded) to stop.
    pub fn exhausted(&mut self, residual: f64) -> bool {
        if let Some(stag) = self.p.stagnation {
            self.rnorm_hist.push(residual);
            if stag.stagnated(&self.rnorm_hist) {
                self.breakdown = Some(Stagnated);
                return true;
            }
        }
        if self.p.cycle_budget != u64::MAX && self.total_cycles() >= self.p.cycle_budget {
            self.breakdown = Some(BudgetExhausted);
            return true;
        }
        false
    }

    /// Steps `rec` until it converges, breaks down or hits the iteration
    /// cap, checkpointing `x` once each interval's iterations all passed
    /// the guards.
    pub fn run(&mut self, rec: &mut impl Recurrence, x: &mut [f64]) -> Result<(), SimError> {
        while !self.converged && self.iterations < self.p.max_iters {
            self.begin()?;
            if self.iterations - self.ck_iter >= self.p.recovery.checkpoint_interval.max(1) {
                self.checkpoint(x);
            }
            let step = match rec.step(self, x) {
                Ok(step) => step,
                Err(e) => {
                    if self.roll_back(x, e)? {
                        self.best = rec.rederive(x);
                        continue;
                    }
                    break;
                }
            };
            self.close(step.residual);
            self.converged = step.converged;
            if self.converged {
                break;
            }
            if let Some(kind) = step.stop {
                self.breakdown = Some(kind);
                break;
            }
            if self.exhausted(step.residual) {
                break;
            }
        }
        Ok(())
    }

    fn checkpoint(&mut self, x: &[f64]) {
        if self.p.recovery.enabled {
            self.ck_x.copy_from_slice(x);
            self.ck_iter = self.iterations;
        }
    }

    /// Handles an interrupt: a machine error propagates; a fault restores
    /// the checkpointed `x` while the recovery budget lasts (`true`: the
    /// caller rebuilds its recurrence and retries, consuming no iteration
    /// or sample), else records the breakdown (`false`).
    pub fn roll_back(&mut self, x: &mut [f64], e: Interrupt) -> Result<bool, SimError> {
        match e {
            Interrupt::Sim(e) => Err(e),
            Interrupt::Fault(kind, reason) => Ok(self.recover(x, kind, reason)),
        }
    }

    fn recover(&mut self, x: &mut [f64], kind: BreakdownKind, reason: String) -> bool {
        let policy = self.p.recovery;
        if !(policy.enabled && self.recoveries.len() < policy.max_rollbacks) {
            self.breakdown = Some(kind);
            return false;
        }
        if self.open && self.timing {
            // Keep the cycle books balanced: the aborted attempt's
            // kernels were simulated and merged into the tallies.
            self.timed_done += 1;
            self.timed.cycles += self.stats.cycles - self.pre.cycles;
        }
        self.open = false;
        x.copy_from_slice(&self.ck_x);
        self.recoveries.push(RecoveryRecord {
            iteration: self.iterations,
            restored_iteration: self.ck_iter,
            reason,
        });
        true
    }

    /// GMRES's restart boundary, given the true residual norm `beta` of
    /// `x`: a non-finite or diverged residual rolls back, a converged one
    /// stops, and a healthy one is checkpointed.
    pub fn restart_boundary(&mut self, x: &mut [f64], beta: f64) -> Boundary {
        // A boundary is never inside an iteration (a lucky Arnoldi
        // breakdown leaves its step uncounted).
        self.open = false;
        if !beta.is_finite() || beta > self.p.recovery.divergence_factor * self.best.max(self.p.tol)
        {
            let kind = if beta.is_finite() {
                Diverged
            } else {
                NonFinite
            };
            let reason = format!("restart residual {beta:e} (best {:e})", self.best);
            return if self.recover(x, kind, reason) {
                Boundary::Retry
            } else {
                Boundary::Stop
            };
        }
        if beta <= self.p.tol {
            self.converged = true;
            return Boundary::Stop;
        }
        self.best = self.best.min(beta);
        self.checkpoint(x);
        Boundary::Proceed
    }

    /// The residual guards of a finished step: non-finite and diverged
    /// residuals fault, then the drift and final audits run. Returns
    /// whether the iterate converged.
    pub fn settle(&mut self, x: &[f64], rnorm: f64) -> Result<bool, Interrupt> {
        guard(rnorm.is_finite(), NonFinite, || {
            "non-finite residual norm".into()
        })?;
        let best = self.best;
        if rnorm > self.p.recovery.divergence_factor * best.max(self.p.tol) {
            let reason = format!("residual {rnorm:.3e} diverged from best {best:.3e}");
            return Err(Interrupt::Fault(Diverged, reason));
        }
        self.best = best.min(rnorm);
        self.drift_check(x, rnorm)?;
        self.converges(x, rnorm)
    }

    fn true_residual(&self, x: &[f64]) -> f64 {
        dense::norm2(&dense::sub(self.b, &self.k.a.spmv(x)))
    }

    /// Whether true residual `true_r` of `x` lies outside the drift
    /// envelope of the carried residual `r`: `drift_factor · r` plus a
    /// rounding floor of 64·ε·(||b|| + ||A||∞·||x||).
    fn drifted(&self, x: &[f64], r: f64, true_r: f64) -> bool {
        let floor = 64.0 * f64::EPSILON * (dense::norm2(self.b) + self.a_inf * dense::norm2(x));
        true_r > self.p.integrity.drift_factor * r + floor
    }

    fn violation(&mut self, iteration: usize, check: &'static str, detail: String) {
        self.audit.violations.push(IntegrityRecord {
            iteration,
            check,
            detail,
        });
    }

    /// Whether the periodic drift audit is due at the current iteration.
    pub fn drift_due(&self) -> bool {
        self.p.integrity.drift_due(self.current())
    }

    /// Periodic drift audit: the residual the recurrence carries vs. a
    /// freshly recomputed true residual of `x`. A fault below the
    /// divergence guard's radar shows up as the two histories parting.
    pub fn drift_check(&mut self, x: &[f64], r: f64) -> Result<(), Interrupt> {
        if !self.drift_due() {
            return Ok(());
        }
        let iteration = self.current();
        self.audit.checks += 1;
        let true_r = self.true_residual(x);
        self.audit.drift.push(DriftSample {
            iteration,
            recursive: r,
            true_residual: true_r,
        });
        if !self.drifted(x, r, true_r) {
            return Ok(());
        }
        let detail = format!("true {true_r:.3e} vs recursive {r:.3e}");
        let reason = format!("residual drift: {detail}");
        self.violation(iteration, "residual_drift", detail);
        Err(Interrupt::Fault(IntegrityViolation, reason))
    }

    /// Whether residual `r` meets the tolerance. With the final audit
    /// armed, never on the carried residual alone: a true residual
    /// outside the drift envelope is corruption (a fault); inside it an
    /// honest rounding gap, so the solve keeps iterating.
    pub fn converges(&mut self, x: &[f64], r: f64) -> Result<bool, Interrupt> {
        let met = r <= self.p.tol;
        if !(met && self.p.integrity.enabled && self.p.integrity.final_audit) {
            return Ok(met);
        }
        self.audit.checks += 1;
        let true_r = self.true_residual(x);
        if true_r <= self.p.tol || !self.drifted(x, r, true_r) {
            return Ok(true_r <= self.p.tol);
        }
        let reason = format!("final audit: true {true_r:.3e} vs recursive {r:.3e}");
        let detail = format!("true {true_r:.3e} > tol, recursive {r:.3e}");
        self.violation(self.current(), "final_audit", detail);
        Err(Interrupt::Fault(IntegrityViolation, reason))
    }

    /// The checksums of `A` and of the factor, when armed and the launches
    /// belong to a timed iteration (setup launches are not verified).
    pub fn checksums(&self) -> Option<(&OperatorChecksum, Option<&OperatorChecksum>)> {
        let cs_a = self.cs_a.as_ref().filter(|_| self.timing && self.open)?;
        Some((cs_a, self.cs_l.as_ref()))
    }

    /// The ABFT ladder over one group of launch checks: a failed checksum
    /// is journaled, then re-verified with the reference kernels
    /// (`confirmed`, given the first failed check); only a confirmed
    /// deviation faults and charges the rollback budget.
    pub fn abft(
        &mut self,
        checks: &[(&'static str, ChecksumCheck)],
        confirmed: impl FnOnce(&ChecksumCheck) -> bool,
    ) -> Result<(), Interrupt> {
        self.audit.checks += checks.len() as u64;
        let Some(&(check, bad)) = checks.iter().find(|(_, c)| !c.ok()) else {
            return Ok(());
        };
        let detail = format!("gap {:.3e} > bound {:.3e}", bad.gap, bad.bound);
        let reason = format!(
            "{} checksum {detail}",
            check.trim_start_matches("checksum_")
        );
        self.violation(self.iterations, check, detail);
        guard(!confirmed(&bad), IntegrityViolation, || reason)
    }

    /// The ABFT ladder for one SpMV launch `output = A · input`.
    pub fn abft_spmv(&mut self, input: &[f64], output: &[f64]) -> Result<(), Interrupt> {
        let Some((cs, _)) = self.checksums() else {
            return Ok(());
        };
        let check = cs.verify_spmv(input, output);
        let a = &self.k.a;
        self.abft(&[("checksum_spmv", check)], |bad| {
            dense::norm2(&dense::sub(output, &a.spmv(input))) > bad.bound
        })
    }

    /// Closes the solve: runs the escape backstop, back-fills and bounds
    /// the convergence history, seals the event trace, records the span,
    /// audits the merged stats and builds the report for iterate `x`.
    pub fn finish(mut self, x: Vec<f64>, flops: Flops) -> Result<SimSolverReport, SimError> {
        let (td, cpi) = (self.timed_done, self.cycles_per_iteration());
        let total_cycles = self.total_cycles();
        let final_residual = self.true_residual(&x);

        // Escape backstop: a converged flag with a true residual above
        // tolerance is the silent wrong answer the integrity layer exists
        // to eliminate. Structurally impossible while the final audit is
        // armed; journaled (never masked) when it is not.
        if self.p.integrity.enabled && self.converged && final_residual > self.p.tol {
            self.audit.escapes += 1;
            let tol = self.p.tol;
            let detail = format!(
                "escape: converged with true residual {final_residual:.3e} > tol {tol:.3e}"
            );
            self.violation(self.iterations, "final_audit", detail);
        }

        // Back-fill untimed iterations with the steady-state averages, the
        // same extrapolation `total_cycles` uses.
        if td > 0 {
            let avg = |sum: u64| (sum as f64 / td as f64).round() as u64;
            let mean = Tally {
                cycles: cpi.round() as u64,
                flops: avg(self.timed.flops),
                messages: avg(self.timed.messages),
                link_activations: avg(self.timed.link_activations),
            };
            for &i in &self.untimed {
                let s = &mut self.convergence[i];
                *s = mean.sample(s.iteration, s.residual);
            }
        }
        // Bound the exported history (the back-fill above indexes raw
        // positions, so thinning comes after it) and close the solve-level
        // event trace: kernel merges concatenated per-kernel segments with
        // cumulative cycle offsets, so one final seal re-sorts and
        // compacts the whole timeline.
        crate::telemetry::limit_history(&mut self.convergence, self.cfg.history_limit);
        if self.stats.trace_ev.mask() != 0 {
            self.stats.trace_ev.seal();
        }

        self.span.record_cycles(total_cycles);
        self.span.annotate("iterations", self.iterations);
        self.span.annotate("converged", self.converged);
        if !self.recoveries.is_empty() {
            self.span.annotate("rollbacks", self.recoveries.len());
        }
        // Solve-level invariant audit over the merged stats.
        if self.cfg.check_invariants {
            crate::invariants::check_solve_stats(&mut self.stats)?;
        }

        let rate = |flops: u64, cycles: f64| {
            if cycles > 0.0 {
                flops as f64 / cycles * self.cfg.clock_ghz
            } else {
                0.0
            }
        };
        let (flops_per_iteration, gflops) = match flops {
            Flops::PerIteration(f) => (f, rate(f.total(), cpi)),
            Flops::Timed(f) => {
                let mean = |sum: u64| sum / td.max(1) as u64;
                let per_iteration = FlopBreakdown {
                    spmv: mean(f.spmv),
                    sptrsv: mean(f.sptrsv),
                    vector: mean(f.vector),
                };
                (per_iteration, rate(f.total(), self.timed.cycles as f64))
            }
        };
        let per_iter = |c: u64| if td > 0 { c as f64 / td as f64 } else { 0.0 };
        Ok(SimSolverReport {
            x,
            converged: self.converged,
            iterations: self.iterations,
            final_residual,
            timed_iterations: td,
            cycles_per_iteration: cpi,
            total_cycles,
            kernel_cycles: self.kernel_cycles.map(per_iter),
            stats: self.stats,
            flops_per_iteration,
            gflops,
            elapsed_seconds: self.cfg.cycles_to_seconds(total_cycles),
            status: match (self.converged, self.breakdown) {
                (true, _) => SolveStatus::Converged,
                (false, Some(kind)) => SolveStatus::Breakdown(kind),
                (false, None) => SolveStatus::MaxIters,
            },
            fault_events: self
                .session
                .map(|s| s.records().to_vec())
                .unwrap_or_default(),
            recoveries: self.recoveries,
            integrity: self.audit,
            convergence: self.convergence,
        })
    }
}
