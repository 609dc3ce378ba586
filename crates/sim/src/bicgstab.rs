//! BiCGStab on the simulated accelerator.
//!
//! Sec. II-B: "other iterative solvers like GMRES and BiCGStab have the
//! same kernels and challenges" — every step of BiCGStab is an SpMV, a
//! preconditioner application (two SpTRSVs with a factored `M = F F^T`),
//! or a dense vector operation. This module runs right-preconditioned
//! BiCGStab through exactly the same compiled kernel programs and timing
//! machinery as [`crate::pcg::PcgSim`], demonstrating the generality the
//! paper claims for the hardware.

use crate::config::{SimConfig, StagnationPolicy};
use crate::driver::{guard, Driver, Interrupt, Kernels, Method, Recurrence, Step};
use crate::faults::{FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryPolicy, RecoveryRecord};
use crate::machine::SimError;
use crate::stats::KernelStats;
use crate::vecops::VecOp;
use azul_mapping::Placement;
use azul_solver::flops::{self, FlopBreakdown};
use azul_solver::ic0::ic0;
use azul_solver::BreakdownKind::{NonFinite, OmegaZero, RhatVZero, RhoZero, TtZero};
use azul_solver::{SolveStatus, SolverError};
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;

/// Run-time configuration for a BiCGStab simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiCgStabSimConfig {
    /// Convergence tolerance on `||r||_2`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Iterations to cycle-simulate (later ones reuse the measured cost).
    pub timed_iterations: usize,
    /// Fault detection + checkpoint/rollback policy. BiCGStab recovers by
    /// restarting the recurrence from the checkpointed `x` (r̂, ρ, α, ω
    /// are reset, exactly like a fresh solve with a warm initial guess).
    pub recovery: RecoveryPolicy,
    /// Optional stagnation detector (see [`StagnationPolicy`]); `None`
    /// (the default) changes nothing.
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget on the extrapolated cycle count;
    /// `u64::MAX` (the default) disables the check.
    pub cycle_budget: u64,
    /// Silent-corruption detection (see [`IntegrityPolicy`]). Checksum
    /// verification covers BiCGStab's SpMV launches; the drift and final
    /// audits run exactly as in PCG.
    pub integrity: IntegrityPolicy,
}

impl Default for BiCgStabSimConfig {
    fn default() -> Self {
        BiCgStabSimConfig {
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

/// A BiCGStab instance compiled for the accelerator.
#[derive(Debug, Clone)]
pub struct BiCgStabSim {
    cfg: SimConfig,
    k: Kernels,
}

/// Results of a simulated BiCGStab solve.
#[derive(Debug, Clone)]
pub struct BiCgStabSimReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether the solve converged.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// True final residual.
    pub final_residual: f64,
    /// Measured steady-state cycles per iteration.
    pub cycles_per_iteration: f64,
    /// Per-iteration cycles by kernel class `[Spmv, Sptrsv, VectorOps]`.
    pub kernel_cycles: [f64; 3],
    /// Merged statistics over the timed portion.
    pub stats: KernelStats,
    /// FLOPs of one iteration.
    pub flops_per_iteration: FlopBreakdown,
    /// Sustained throughput in GFLOP/s.
    pub gflops: f64,
    /// How the solve terminated.
    pub status: SolveStatus,
    /// Journal of fired fault events (empty without a fault plan).
    pub fault_events: Vec<FaultRecord>,
    /// Executed restart recoveries (empty in a clean run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Integrity journal (checks run, violations, drift samples, escape
    /// count). Empty unless [`BiCgStabSimConfig::integrity`] is enabled.
    pub integrity: IntegrityAudit,
    /// Convergence telemetry: one sample per iteration (sample 0 is the
    /// initial state). Cycle-simulated iterations carry measured deltas;
    /// the rest reuse the steady-state averages.
    pub convergence: Vec<IterationSample>,
}

impl BiCgStabSim {
    /// Builds the pipeline with an IC(0) preconditioner (valid because
    /// this crate's workloads are SPD; BiCGStab itself also handles
    /// non-symmetric systems with other factors).
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
        BiCgStabSim {
            cfg: cfg.clone(),
            k: Kernels::compile(a, Some(l), placement),
        }
    }

    /// Runs BiCGStab with right-hand side `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension, or if the
    /// simulated machine deadlocks (use [`BiCgStabSim::try_run`]).
    pub fn run(&self, b: &[f64], run_cfg: &BiCgStabSimConfig) -> BiCgStabSimReport {
        match self.try_run(b, run_cfg) {
            Ok(report) => report,
            Err(e) => panic!("simulated BiCGStab failed: {e}"),
        }
    }

    /// Runs BiCGStab, surfacing machine-level failures as errors.
    /// Numerical anomalies roll back (restart from the checkpointed `x`)
    /// when recovery is enabled, else end the solve with
    /// [`SolveStatus::Breakdown`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when a simulated kernel stops making
    /// progress or exceeds the cycle cap.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_run(
        &self,
        b: &[f64],
        run_cfg: &BiCgStabSimConfig,
    ) -> Result<BiCgStabSimReport, SimError> {
        let k = &self.k;
        let n = k.a.rows();
        let mut d = Driver::new(Method::BiCgStab, &self.cfg, k, b, run_cfg.into());
        // No timed setup kernels: sample 0 is the initial state, r = b.
        d.start(dense::norm2(b));
        let mut bicg = BiCgStab::new(k, b, b.to_vec());
        let mut x = vec![0.0f64; n];
        d.run(&mut bicg, &mut x)?;
        let out = d.finish(&x)?;

        // Per-iteration FLOPs: 2 SpMVs, 4 SpTRSVs, ~6 dots + ~6 axpys.
        let flops_per_iteration = FlopBreakdown {
            spmv: 2 * flops::spmv_flops(&k.a),
            sptrsv: 4 * flops::sptrsv_flops(k.l.nnz()),
            vector: 12 * flops::dot_flops(n),
        };
        let gflops = if out.cycles_per_iteration > 0.0 {
            flops_per_iteration.total() as f64 / out.cycles_per_iteration * self.cfg.clock_ghz
        } else {
            0.0
        };
        Ok(BiCgStabSimReport {
            x,
            converged: out.converged,
            iterations: out.iterations,
            final_residual: out.final_residual,
            cycles_per_iteration: out.cycles_per_iteration,
            kernel_cycles: out.kernel_cycles,
            stats: out.stats,
            flops_per_iteration,
            gflops,
            status: out.status,
            fault_events: out.fault_events,
            recoveries: out.recoveries,
            integrity: out.integrity,
            convergence: out.convergence,
        })
    }
}

/// Right-preconditioned BiCGStab. A rollback restarts the recurrence
/// from the restored `x` (r̂, ρ, α, ω reset, v = p = 0), exactly like a
/// fresh solve with a warm initial guess.
struct BiCgStab<'a> {
    k: &'a Kernels,
    b: &'a [f64],
    r: Vec<f64>,
    r_hat: Vec<f64>,
    rho_old: f64,
    alpha: f64,
    omega: f64,
    v: Vec<f64>,
    p: Vec<f64>,
}

impl<'a> BiCgStab<'a> {
    fn new(k: &'a Kernels, b: &'a [f64], r: Vec<f64>) -> Self {
        let n = r.len();
        BiCgStab {
            k,
            b,
            r_hat: r.clone(),
            r,
            rho_old: 1.0,
            alpha: 1.0,
            omega: 1.0,
            v: vec![0.0; n],
            p: vec![0.0; n],
        }
    }
}

impl Recurrence for BiCgStab<'_> {
    fn step(&mut self, d: &mut Driver, x: &mut [f64]) -> Result<Step, Interrupt> {
        let rho = dense::dot(&self.r_hat, &self.r);
        d.vec_op(VecOp::Dot, 1);
        guard(rho != 0.0, RhoZero, || "rho = r_hat.r vanished".into())?;
        guard(rho.is_finite(), NonFinite, || {
            format!("non-finite rho = {rho}")
        })?;
        let beta = (rho / self.rho_old) * (self.alpha / self.omega);
        for i in 0..self.p.len() {
            self.p[i] = self.r[i] + beta * (self.p[i] - self.omega * self.v[i]);
        }
        d.vec_op(VecOp::Xpby, 2);

        let y = d.precond(&self.p)?;
        self.v = d.spmv(&y)?;
        d.abft_spmv(&y, &self.v)?;
        let rhat_v = dense::dot(&self.r_hat, &self.v);
        d.vec_op(VecOp::Dot, 1);
        guard(rhat_v != 0.0, RhatVZero, || "r_hat.v vanished".into())?;
        self.alpha = rho / rhat_v;
        let alpha = self.alpha;
        guard(alpha.is_finite(), NonFinite, || {
            format!("non-finite alpha = {alpha}")
        })?;
        let mut s = self.r.clone();
        dense::axpy(-alpha, &self.v, &mut s);
        dense::axpy(alpha, &y, x);
        d.vec_op(VecOp::Axpy, 2);

        // Half-step exit, audited like a full step.
        let snorm = dense::norm2(&s);
        d.vec_op(VecOp::Dot, 1);
        if d.converges(x, snorm)? {
            return Ok(Step {
                residual: snorm,
                converged: true,
                stop: None,
            });
        }

        let z = d.precond(&s)?;
        let t = d.spmv(&z)?;
        d.abft_spmv(&z, &t)?;
        let tt = dense::dot(&t, &t);
        d.vec_op(VecOp::Dot, 2);
        guard(tt != 0.0, TtZero, || "t.t vanished".into())?;
        self.omega = dense::dot(&t, &s) / tt;
        let omega = self.omega;
        guard(omega.is_finite(), NonFinite, || {
            format!("non-finite omega = {omega}")
        })?;
        dense::axpy(omega, &z, x);
        self.r = s;
        dense::axpy(-omega, &t, &mut self.r);
        d.vec_op(VecOp::Axpy, 2);

        self.rho_old = rho;
        let rnorm = dense::norm2(&self.r);
        d.vec_op(VecOp::Dot, 1);
        Ok(Step {
            residual: rnorm,
            converged: d.settle(x, rnorm)?,
            stop: (omega == 0.0).then_some(OmegaZero),
        })
    }

    fn rederive(&mut self, x: &[f64]) -> f64 {
        let r = dense::sub(self.b, &self.k.a.spmv(x));
        *self = BiCgStab::new(self.k, self.b, r);
        dense::norm2(&self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 11 % 7) as f64) / 7.0 + 0.4).collect()
    }

    #[test]
    fn bicgstab_sim_solves_spd_system() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &BiCgStabSimConfig::default());
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual < 1e-8);
        assert!(report.gflops > 0.0);
        // Same kernel classes as PCG: SpMV + SpTRSV dominate.
        let total: f64 = report.kernel_cycles.iter().sum();
        assert!(report.kernel_cycles[0] + report.kernel_cycles[1] > 0.5 * total);
    }

    #[test]
    fn bicgstab_converges_in_fewer_or_similar_iterations_to_its_reference() {
        let a = generate::fem_mesh_3d(100, 5, 77);
        let grid = TileGrid::new(2, 2);
        let p = AzulMapper::fast_default().map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &BiCgStabSimConfig::default());
        assert!(report.converged);
        // The solution truly solves the system.
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
        assert!(residual < 1e-7);
    }

    #[test]
    fn convergence_telemetry_tracks_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &BiCgStabSimConfig::default());
        assert!(report.converged);
        assert_eq!(report.convergence.len(), report.iterations + 1);
        assert_eq!(report.convergence[0].residual, dense::norm2(&b));
        for (i, s) in report.convergence.iter().enumerate() {
            assert_eq!(s.iteration, i, "samples densely numbered");
            if i > 0 {
                assert!(s.cycles > 0, "iteration {i} has a cycle cost");
                assert!(s.flops > 0, "iteration {i} has a FLOP cost");
            }
        }
        let last = report.convergence.last().unwrap();
        assert!(last.residual <= 1e-10, "history ends converged");
    }

    #[test]
    fn timed_iterations_cap_respected() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = BiCgStabSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &BiCgStabSimConfig {
                timed_iterations: 1,
                ..Default::default()
            },
        );
        assert!(report.converged);
        assert!(report.cycles_per_iteration > 0.0);
    }
}
