//! The PCG recurrence (Listing 1) on the simulated accelerator.

use crate::driver::{guard, Driver, Flops, Interrupt, Kernels, Recurrence, Step};
use crate::machine::SimError;
use crate::vecops::VecOp;
use azul_solver::flops;
use azul_solver::BreakdownKind::{NonFinite, PApZero};
use azul_sparse::dense;

/// Runs PCG (plain CG without a factor) on `d` from `x = 0`.
pub(crate) fn run(
    d: &mut Driver,
    k: &Kernels,
    b: &[f64],
    x: &mut [f64],
) -> Result<Flops, SimError> {
    // Setup (timed): r = b; z = p = L^-T L^-1 r; rz = r.z
    let r = b.to_vec();
    let z = if k.trisolve.is_some() {
        let y = d.lower(&r)?;
        d.upper(&y)?
    } else {
        r.clone()
    };
    d.vec_op(VecOp::Dot, 1);
    d.start(dense::norm2(&r));
    let mut pcg = Pcg {
        k,
        b,
        rz: dense::dot(&r, &z),
        p: z.clone(),
        r,
        z,
    };
    d.run(&mut pcg, x)?;
    let nnz_l = k.trisolve.as_ref().map_or(0, |_| k.l.nnz());
    Ok(Flops::PerIteration(flops::pcg_iteration_breakdown(
        &k.a, nnz_l,
    )))
}

/// The PCG recurrence (Listing 1).
struct Pcg<'a> {
    k: &'a Kernels,
    b: &'a [f64],
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    rz: f64,
}

impl Recurrence for Pcg<'_> {
    fn step(&mut self, d: &mut Driver, x: &mut [f64]) -> Result<Step, Interrupt> {
        // Ap = A p
        let ap = d.spmv(&self.p)?;
        d.abft_spmv(&self.p, &ap)?;
        // alpha = rz / (p . Ap)
        d.vec_op(VecOp::Dot, 1);
        let p_ap = dense::dot(&self.p, &ap);
        guard(p_ap.is_finite(), NonFinite, || {
            format!("non-finite p.Ap = {p_ap}")
        })?;
        guard(p_ap != 0.0, PApZero, || {
            "p.Ap = 0 (stalled search direction)".into()
        })?;
        let alpha = self.rz / p_ap;
        // x += alpha p ; r -= alpha Ap ; convergence norm
        dense::axpy(alpha, &self.p, x);
        dense::axpy(-alpha, &ap, &mut self.r);
        d.vec_op(VecOp::Axpy, 2);
        d.vec_op(VecOp::Dot, 1);
        // z = L^-T L^-1 r (identity when unpreconditioned)
        self.z = d.precond(&self.r)?;
        // beta = rz_new / rz_old ; p = z + beta p
        d.vec_op(VecOp::Dot, 1);
        let rz_new = dense::dot(&self.r, &self.z);
        guard(rz_new.is_finite(), NonFinite, || {
            format!("non-finite r.z = {rz_new}")
        })?;
        let beta = rz_new / self.rz;
        dense::xpby(&self.z, beta, &mut self.p);
        d.vec_op(VecOp::Xpby, 1);
        self.rz = rz_new;

        let rnorm = dense::norm2(&self.r);
        Ok(Step {
            residual: rnorm,
            converged: d.settle(x, rnorm)?,
            stop: None,
        })
    }

    fn rederive(&mut self, x: &[f64]) -> f64 {
        self.r = dense::sub(self.b, &self.k.a.spmv(x));
        self.z = self.k.precond_ref(&self.r);
        self.p = self.z.clone();
        self.rz = dense::dot(&self.r, &self.z);
        dense::norm2(&self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, StagnationPolicy};
    use crate::solver::{SimSolver, SimSolverConfig};
    use crate::stats::KernelClass;
    use azul_mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_solver::BreakdownKind;
    use azul_solver::SolveStatus;
    use azul_sparse::generate;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 17 % 11) as f64) / 11.0 + 0.3)
            .collect()
    }

    #[test]
    fn pcg_sim_converges_and_matches_reference() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual <= 1e-8);

        // The reference PCG with the same preconditioner agrees.
        let m = azul_solver::precond::IncompleteCholesky::new(&a).unwrap();
        let reference = azul_solver::pcg(&a, &b, &m, &azul_solver::PcgConfig::default());
        assert_eq!(report.iterations, reference.iterations);
        assert!(dense::rel_l2_diff(&report.x, &reference.x) < 1e-6);
    }

    #[test]
    fn convergence_telemetry_tracks_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        // One sample per iteration plus the setup sample.
        assert_eq!(report.convergence.len(), report.iterations + 1);
        assert_eq!(report.convergence[0].iteration, 0);
        assert!((report.convergence[0].residual - dense::norm2(&b)).abs() < 1e-12);
        for (k, s) in report.convergence.iter().enumerate() {
            assert_eq!(s.iteration, k, "iteration numbering is dense");
            assert!(s.cycles > 0, "every sample carries a cycle cost");
            assert!(s.flops > 0);
        }
        // The final sample's residual meets the convergence tolerance.
        assert!(report.convergence.last().unwrap().residual <= 1e-10);
        // Per-iteration cycle deltas are consistent with the steady-state
        // extrapolation (timed iterations are exact; the back-filled rest
        // use the average, so totals agree within rounding).
        let iter_cycles: u64 = report.convergence[1..].iter().map(|s| s.cycles).sum();
        let expect = report.cycles_per_iteration * report.iterations as f64;
        assert!(
            (iter_cycles as f64 - expect).abs() <= report.iterations as f64,
            "iteration cycles {iter_cycles} vs extrapolated {expect}"
        );
    }

    #[test]
    fn timed_iterations_bound_simulation_work() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim
            .try_run(
                &b,
                &SimSolverConfig {
                    timed_iterations: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(report.timed_iterations, 1);
        assert!(report.cycles_per_iteration > 0.0);
        assert!(report.total_cycles > report.cycles_per_iteration as u64);
    }

    #[test]
    fn gflops_below_peak_and_positive() {
        let a = generate::fem_mesh_3d(120, 5, 3);
        let grid = TileGrid::new(2, 2);
        let p = AzulMapper::default().map(&a, grid);
        let cfg = SimConfig::azul(grid);
        let sim = SimSolver::build(&a, &p, &cfg).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        assert!(report.gflops > 0.0);
        assert!(report.fraction_of_peak(&cfg) < 1.0);
        assert!(report.fraction_of_peak(&cfg) > 0.001);
    }

    #[test]
    fn kernel_breakdown_covers_iteration() {
        let a = generate::grid_laplacian_2d(10, 10);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        let total: f64 = report.kernel_cycles.iter().sum();
        assert!((total - report.cycles_per_iteration).abs() < 1e-6);
        // SpTRSV involves two solves and limited parallelism: it should be
        // a visible fraction.
        assert!(report.kernel_cycles[KernelClass::Sptrsv as usize] > 0.0);
        assert!(report.kernel_cycles[KernelClass::Spmv as usize] > 0.0);
        assert!(report.kernel_cycles[KernelClass::VectorOps as usize] > 0.0);
    }

    #[test]
    fn unpreconditioned_cg_matches_reference_cg() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build_unpreconditioned(&a, &p, &SimConfig::azul(grid));
        let b = rhs(a.rows());
        let out = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        assert!(out.converged);
        let reference = azul_solver::cg(&a, &b, &azul_solver::PcgConfig::default());
        assert_eq!(out.iterations, reference.iterations);
        assert!(dense::rel_l2_diff(&out.x, &reference.x) < 1e-6);
        // No triangular-solve work at all.
        assert_eq!(out.kernel_cycles[KernelClass::Sptrsv as usize], 0.0);
        assert_eq!(out.flops_per_iteration.sptrsv, 0);
    }

    #[test]
    fn update_values_keeps_pattern_and_tracks_new_matrix() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let mut sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let before = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        assert!(before.converged);

        // Scale all values by 2: same pattern, solution halves.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        sim.update_values(&a2, &p).unwrap();
        let after = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        assert!(after.converged);
        for i in 0..a.rows() {
            assert!((after.x[i] * 2.0 - before.x[i]).abs() < 1e-7);
        }

        // A different pattern is rejected.
        let other = generate::grid_laplacian_2d(4, 9);
        assert!(sim.update_values(&other, &p).is_err());
    }

    #[test]
    fn stagnation_policy_ends_solve_with_structured_status() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        // Demand a 99.9% residual drop every iteration: even a healthy
        // solve "stagnates" by this bar, exercising the detector.
        let report = sim
            .try_run(
                &b,
                &SimSolverConfig {
                    stagnation: Some(StagnationPolicy::new(1, 0.999)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!report.converged);
        assert_eq!(
            report.status,
            SolveStatus::Breakdown(BreakdownKind::Stagnated)
        );
        // The loop stopped as soon as the window filled.
        assert!(
            report.iterations < 10,
            "ran {} iterations",
            report.iterations
        );
    }

    #[test]
    fn cycle_budget_bounds_the_attempt() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let full = sim.try_run(&b, &SimSolverConfig::default()).unwrap();
        assert!(full.converged);
        let budget = full.total_cycles / 2;
        let capped = sim
            .try_run(
                &b,
                &SimSolverConfig {
                    cycle_budget: budget,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!capped.converged);
        assert_eq!(
            capped.status,
            SolveStatus::Breakdown(BreakdownKind::BudgetExhausted)
        );
        assert!(capped.iterations < full.iterations);
    }

    #[test]
    fn azul_mapping_beats_round_robin_end_to_end() {
        let a = generate::fem_mesh_3d(200, 6, 41);
        let grid = TileGrid::new(4, 4);
        let cfg = SimConfig::azul(grid);
        let b = rhs(a.rows());
        let run_cfg = SimSolverConfig {
            timed_iterations: 1,
            ..Default::default()
        };
        let rr = SimSolver::build(&a, &RoundRobinMapper.map(&a, grid), &cfg)
            .unwrap()
            .try_run(&b, &run_cfg)
            .unwrap();
        let az = SimSolver::build(&a, &AzulMapper::default().map(&a, grid), &cfg)
            .unwrap()
            .try_run(&b, &run_cfg)
            .unwrap();
        assert!(
            az.cycles_per_iteration < rr.cycles_per_iteration,
            "azul {} vs rr {}",
            az.cycles_per_iteration,
            rr.cycles_per_iteration
        );
    }
}
