//! Right-preconditioned BiCGStab on the simulated accelerator.
//!
//! Every step of BiCGStab is an SpMV, a preconditioner application (two
//! SpTRSVs with a factored `M = F F^T`), or a dense vector operation, so
//! it runs through exactly the same compiled kernel programs as PCG.

use crate::driver::{guard, Driver, Flops, Interrupt, Kernels, Recurrence, Step};
use crate::machine::SimError;
use crate::vecops::VecOp;
use azul_solver::flops::{self, FlopBreakdown};
use azul_solver::BreakdownKind::{NonFinite, OmegaZero, RhatVZero, RhoZero, TtZero};
use azul_sparse::dense;

/// Runs BiCGStab on `d` from `x = 0`.
pub(crate) fn run(
    d: &mut Driver,
    k: &Kernels,
    b: &[f64],
    x: &mut [f64],
) -> Result<Flops, SimError> {
    // No timed setup kernels: sample 0 is the initial state, r = b.
    d.start(dense::norm2(b));
    d.run(&mut BiCgStab::new(k, b, b.to_vec()), x)?;
    // Per-iteration FLOPs: 2 SpMVs, 4 SpTRSVs, ~6 dots + ~6 axpys.
    Ok(Flops::PerIteration(FlopBreakdown {
        spmv: 2 * flops::spmv_flops(&k.a),
        sptrsv: k
            .trisolve
            .as_ref()
            .map_or(0, |_| 4 * flops::sptrsv_flops(k.l.nnz())),
        vector: 12 * flops::dot_flops(b.len()),
    }))
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
    use crate::config::SimConfig;
    use crate::solver::{Method, SimSolver, SimSolverConfig};
    use azul_mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn config() -> SimSolverConfig {
        SimSolverConfig {
            method: Method::BiCgStab,
            ..Default::default()
        }
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 11 % 7) as f64) / 7.0 + 0.4).collect()
    }

    #[test]
    fn bicgstab_sim_solves_spd_system() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config()).unwrap();
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
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config()).unwrap();
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
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config()).unwrap();
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
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim
            .try_run(
                &b,
                &SimSolverConfig {
                    method: Method::BiCgStab,
                    timed_iterations: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(report.converged);
        assert!(report.cycles_per_iteration > 0.0);
    }

    #[test]
    fn unpreconditioned_bicgstab_counts_no_sptrsv_work() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build_unpreconditioned(&a, &p, &SimConfig::azul(grid));
        let report = sim.try_run(&rhs(a.rows()), &config()).unwrap();
        assert!(report.converged);
        assert_eq!(report.kernel_cycles[1], 0.0);
        assert_eq!(report.flops_per_iteration.sptrsv, 0);
    }
}
