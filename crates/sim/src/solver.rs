//! The simulated Krylov solver (Listing 1 on the accelerator, Sec. VI).
//!
//! [`SimSolver`] compiles the three heavy kernels (SpMV with `A`, the
//! solves with `L` and `Lᵀ`) once per (matrix, placement) pair, then runs
//! the [`Method`] its [`SimSolverConfig`] names. Sec. II-B: BiCGStab and
//! GMRES "have the same kernels and challenges" as PCG, so all three
//! launch the same compiled programs through one iteration driver. The
//! first `timed_iterations` iterations are simulated cycle-by-cycle (the
//! per-iteration cost is steady-state: the same kernels touch the same
//! data every iteration); later iterations use the reference kernels for
//! functional progress and reuse the measured per-iteration cycle cost.
//! The reported GFLOP/s follow the paper's accounting (an FMAC = 2
//! FLOPs).

use crate::config::{SimConfig, StagnationPolicy};
use crate::driver::{Driver, Kernels};
use crate::faults::{FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryPolicy, RecoveryRecord};
use crate::machine::SimError;
use crate::stats::KernelStats;
use crate::{bicgstab, gmres, pcg};
use azul_mapping::Placement;
use azul_solver::flops::FlopBreakdown;
use azul_solver::ic0::ic0;
use azul_solver::{SolveStatus, SolverError};
use azul_sparse::Csr;
use azul_telemetry::report::IterationSample;

/// The Krylov method a [`SimSolver`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Preconditioned conjugate gradients (the paper's default; needs an
    /// SPD operator).
    #[default]
    Pcg,
    /// Right-preconditioned BiCGStab: tolerates indefinite and
    /// non-symmetric operators at roughly twice the per-iteration cost.
    BiCgStab,
    /// Right-preconditioned restarted GMRES — the most robust method
    /// (monotone residual within a restart cycle). Its vector-op share
    /// grows with the restart length.
    Gmres {
        /// Krylov subspace dimension per restart cycle.
        restart: usize,
    },
}

impl Method {
    /// The method's family name (`"pcg"`, `"bicgstab"`, `"gmres"`).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Pcg => "pcg",
            Method::BiCgStab => "bicgstab",
            Method::Gmres { .. } => "gmres",
        }
    }

    /// Display label including parameters, e.g. `"gmres(50)"`.
    pub fn label(&self) -> String {
        match self {
            Method::Gmres { restart } => format!("gmres({restart})"),
            other => other.name().to_string(),
        }
    }
}

/// Run-time configuration of a simulated solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSolverConfig {
    /// The Krylov method.
    pub method: Method,
    /// Convergence tolerance on `||r||_2`.
    pub tol: f64,
    /// Iteration cap (GMRES: total inner iterations).
    pub max_iters: usize,
    /// Iterations to simulate cycle-by-cycle; later iterations reuse the
    /// measured steady-state cost. 0 means "time every iteration".
    pub timed_iterations: usize,
    /// Fault detection + checkpoint/rollback policy (see
    /// [`RecoveryPolicy`]). Guards always run; rollback requires
    /// `recovery.enabled`. A rollback restores the checkpointed `x` and
    /// rebuilds the recurrence from it (GMRES discards its Krylov basis
    /// and checkpoints at each healthy restart boundary instead).
    pub recovery: RecoveryPolicy,
    /// Optional stagnation detector: ends the solve with
    /// `Breakdown(Stagnated)` when the residual stops improving (see
    /// [`StagnationPolicy`]). `None` (the default) changes nothing.
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget: the solve ends with
    /// `Breakdown(BudgetExhausted)` once the extrapolated cycle count
    /// (the same accounting as the report's `total_cycles`) reaches this
    /// many cycles. `u64::MAX` (the default) disables the check.
    pub cycle_budget: u64,
    /// Silent-corruption detection: ABFT checksums on every timed SpMV
    /// and triangular-solve launch, periodic recursive-vs-true residual
    /// drift audits and a mandatory final audit (see
    /// [`IntegrityPolicy`]). Disabled by default — the zero-check path
    /// is byte-identical to the pre-integrity solver.
    pub integrity: IntegrityPolicy,
}

impl Default for SimSolverConfig {
    fn default() -> Self {
        SimSolverConfig {
            method: Method::Pcg,
            tol: 1e-10,
            max_iters: 2000,
            timed_iterations: 2,
            recovery: RecoveryPolicy::default(),
            stagnation: None,
            cycle_budget: u64::MAX,
            integrity: IntegrityPolicy::default(),
        }
    }
}

/// A solver instance compiled for the accelerator.
#[derive(Debug, Clone)]
pub struct SimSolver {
    cfg: SimConfig,
    /// Without triangular-solve programs this runs unpreconditioned.
    k: Kernels,
}

/// Results of a simulated solve.
#[derive(Debug, Clone)]
pub struct SimSolverReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether the solve converged within the iteration cap.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// True final residual `||b - A x||`.
    pub final_residual: f64,
    /// Iterations that were cycle-simulated.
    pub timed_iterations: usize,
    /// Measured steady-state cycles per iteration (GMRES iterations get
    /// costlier as the basis grows; this averages the timed ones).
    pub cycles_per_iteration: f64,
    /// Extrapolated total cycles (setup + iterations).
    pub total_cycles: u64,
    /// Per-iteration cycles by kernel class `[Spmv, Sptrsv, VectorOps]`
    /// (Fig. 22's breakdown).
    pub kernel_cycles: [f64; 3],
    /// Merged statistics over the timed portion.
    pub stats: KernelStats,
    /// FLOPs of one iteration, by kernel (GMRES: the mean over the timed
    /// iterations).
    pub flops_per_iteration: FlopBreakdown,
    /// Sustained double-precision throughput in GFLOP/s (steady state).
    pub gflops: f64,
    /// Extrapolated solve time in seconds at the configured clock.
    pub elapsed_seconds: f64,
    /// How the solve terminated (converged / iteration cap / breakdown —
    /// including fault-induced breakdowns recovery could not mask).
    pub status: SolveStatus,
    /// Journal of fired fault events, when a [`FaultPlan`](crate::FaultPlan)
    /// was configured.
    pub fault_events: Vec<FaultRecord>,
    /// Executed checkpoint rollbacks (empty in a clean run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Integrity journal (checks run, violations, drift samples, escape
    /// count). Empty unless [`SimSolverConfig::integrity`] is enabled.
    pub integrity: IntegrityAudit,
    /// Convergence telemetry: one sample per iteration (sample 0 covers
    /// setup), with residual norms (GMRES: the Givens estimates) and
    /// per-iteration cycle/FLOP/traffic deltas. Cycle-simulated
    /// iterations carry measured deltas; later iterations reuse the
    /// steady-state averages, mirroring the extrapolation of
    /// `total_cycles`.
    pub convergence: Vec<IterationSample>,
}

impl SimSolverReport {
    /// Fraction of peak compute throughput achieved.
    pub fn fraction_of_peak(&self, cfg: &SimConfig) -> f64 {
        self.gflops / cfg.peak_gflops()
    }
}

impl SimSolver {
    /// Builds the pipeline: factors `a` with IC(0) and compiles the three
    /// kernels under `placement`.
    ///
    /// # Errors
    ///
    /// Propagates IC(0) breakdowns.
    pub fn build(a: &Csr, placement: &Placement, cfg: &SimConfig) -> Result<Self, SolverError> {
        let l = ic0(a)?;
        Ok(Self::build_with_factor(a, &l, placement, cfg))
    }

    /// Builds with a caller-supplied lower-triangular factor sharing
    /// `tril(a)`'s pattern (any rung of the preconditioner ladder: SGS,
    /// SSOR, Jacobi or identity factors as well as IC(0)).
    ///
    /// # Panics
    ///
    /// Panics if the factor pattern does not match `tril(a)` or the
    /// placement does not match `a`.
    pub fn build_with_factor(a: &Csr, l: &Csr, placement: &Placement, cfg: &SimConfig) -> Self {
        SimSolver {
            cfg: cfg.clone(),
            k: Kernels::compile(a, Some(l), placement),
        }
    }

    /// Builds an *unpreconditioned* pipeline (Table II's "Conjugate
    /// Gradients / None" row): only the SpMV kernel runs; the
    /// preconditioner step is the identity.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not match `a`.
    pub fn build_unpreconditioned(a: &Csr, placement: &Placement, cfg: &SimConfig) -> Self {
        SimSolver {
            cfg: cfg.clone(),
            k: Kernels::compile(a, None, placement),
        }
    }

    /// The simulator configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The matrix currently loaded.
    pub fn matrix(&self) -> &Csr {
        &self.k.a
    }

    /// Replaces the matrix *values* while keeping the sparsity pattern,
    /// placement and communication trees — the Sec. II-C time-stepping
    /// case where `A`'s stiffness values change but its structure (the
    /// mesh) does not. Re-factors IC(0) and recompiles the kernel
    /// programs; the expensive mapping is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Dimension`] if `a_new`'s sparsity pattern
    /// differs from the current matrix, or propagates IC(0) breakdowns.
    pub fn update_values(&mut self, a_new: &Csr, placement: &Placement) -> Result<(), SolverError> {
        self.same_pattern(a_new)?;
        let l = ic0(a_new)?;
        self.update_values_with_factor(a_new, &l, placement)
    }

    /// As [`SimSolver::update_values`], but with a caller-supplied factor
    /// (e.g. a refreshed Gauss-Seidel/SSOR factor).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Dimension`] on a pattern mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the factor's pattern differs from `tril(a_new)`.
    pub fn update_values_with_factor(
        &mut self,
        a_new: &Csr,
        l_new: &Csr,
        placement: &Placement,
    ) -> Result<(), SolverError> {
        self.same_pattern(a_new)?;
        self.k = Kernels::compile(a_new, Some(l_new), placement);
        Ok(())
    }

    fn same_pattern(&self, a_new: &Csr) -> Result<(), SolverError> {
        if a_new.row_ptr() != self.k.a.row_ptr() || a_new.col_idx() != self.k.a.col_idx() {
            return Err(SolverError::Dimension(
                "update_values requires an identical sparsity pattern".into(),
            ));
        }
        Ok(())
    }

    /// Runs `run_cfg.method` with right-hand side `b` from `x = 0`,
    /// surfacing machine-level failures (e.g. a fault-induced
    /// [`SimError::Deadlock`]) as errors. Numerical anomalies (NaN/Inf,
    /// vanishing recurrence scalars, residual divergence, integrity
    /// violations) never error: with recovery enabled they roll back to
    /// the last checkpoint, otherwise they terminate the solve with
    /// [`SolveStatus::Breakdown`] in the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when a simulated kernel stops making
    /// progress (watchdog) or exceeds the cycle cap.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension, or on
    /// `Method::Gmres { restart: 0 }`.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_run(
        &self,
        b: &[f64],
        run_cfg: &SimSolverConfig,
    ) -> Result<SimSolverReport, SimError> {
        let k = &self.k;
        let mut d = Driver::new(&self.cfg, k, b, *run_cfg);
        let mut x = vec![0.0f64; k.a.rows()];
        let flops = match run_cfg.method {
            Method::Pcg => pcg::run(&mut d, k, b, &mut x)?,
            Method::BiCgStab => bicgstab::run(&mut d, k, b, &mut x)?,
            Method::Gmres { restart } => gmres::run(&mut d, k, b, &mut x, restart, run_cfg)?,
        };
        d.finish(x, flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::flops_of_ops;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    #[test]
    fn convergence_deltas_tile_aggregate_stats() {
        // Cycle-accounting cross-check for every method: with every
        // iteration timed and no faults, the per-iteration convergence
        // deltas (sample 0 holds the setup launches) must tile the
        // aggregate `KernelStats` exactly — work done around a GMRES
        // restart boundary (the setup solves of the next Arnoldi cycle)
        // must be attributed to exactly one iteration, never dropped or
        // counted twice — and `total_cycles` must agree with them.
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b: Vec<f64> = (0..a.rows())
            .map(|i| 1.0 + ((i * 7) % 5) as f64 / 5.0)
            .collect();
        // GMRES(4) forces several restart boundaries.
        for method in [Method::Pcg, Method::BiCgStab, Method::Gmres { restart: 4 }] {
            let run_cfg = SimSolverConfig {
                method,
                timed_iterations: 0, // cycle-simulate everything
                ..Default::default()
            };
            let report = sim.try_run(&b, &run_cfg).unwrap();
            let m = method.label();
            assert!(report.converged, "{m}");
            if let Method::Gmres { restart } = method {
                assert!(
                    report.iterations > 2 * restart,
                    "need multiple restart cycles"
                );
            }
            let sum =
                |f: fn(&IterationSample) -> u64| report.convergence.iter().map(f).sum::<u64>();
            assert_eq!(sum(|s| s.cycles), report.stats.cycles, "{m}: cycles leak");
            assert_eq!(
                sum(|s| s.messages),
                report.stats.messages,
                "{m}: messages leak"
            );
            assert_eq!(
                sum(|s| s.link_activations),
                report.stats.link_activations,
                "{m}: link activations leak"
            );
            assert_eq!(
                sum(|s| s.flops),
                flops_of_ops(report.stats.ops),
                "{m}: FLOPs leak"
            );
            // Truncating the steady-state extrapolation loses < 1 cycle.
            let total = report.total_cycles;
            assert!(
                total.abs_diff(report.stats.cycles) <= 1,
                "{m}: total {total}"
            );
        }
    }
}
