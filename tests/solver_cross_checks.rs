//! Cross-solver consistency checks: every solver in the workspace —
//! reference and simulated — must agree with the exact dense solution,
//! and preconditioner quality must order iteration counts the way
//! numerical analysis says it should.

use azul::mapping::strategies::{AzulMapper, Mapper};
use azul::mapping::TileGrid;
use azul::sim::config::SimConfig;
use azul::sim::{Method, SimSolver, SimSolverConfig};
use azul::solver::direct::dense_solve;
use azul::solver::precond::{Identity, IncompleteCholesky, Jacobi, SymmetricGaussSeidel};
use azul::solver::{bicgstab, cg, gmres, pcg, BiCgStabConfig, GmresConfig, PcgConfig};
use azul::sparse::rcm::rcm_reorder;
use azul::sparse::suite::{by_name, Scale};
use azul::sparse::{dense, generate};

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 41 % 23) as f64) / 23.0 - 0.4)
        .collect()
}

/// All reference solvers converge to the exact dense solution.
#[test]
fn every_reference_solver_matches_dense_cholesky() {
    let a = by_name("shipsec1").unwrap().build(Scale::Tiny);
    let b = rhs(a.rows());
    let exact = dense_solve(&a, &b).unwrap();
    let tol = 1e-5;

    let out = cg(&a, &b, &PcgConfig::default());
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "cg"
    );

    let m = IncompleteCholesky::new(&a).unwrap();
    let out = pcg(&a, &b, &m, &PcgConfig::default());
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "pcg"
    );

    let out = bicgstab(&a, &b, &Identity, &BiCgStabConfig::default());
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "bicgstab"
    );

    let out = gmres(&a, &b, &Jacobi::new(&a), &GmresConfig::default());
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "gmres"
    );
}

/// All *simulated* solvers converge to the exact dense solution too.
#[test]
fn every_simulated_solver_matches_dense_cholesky() {
    let a = by_name("tmt_sym").unwrap().build(Scale::Tiny);
    let b = rhs(a.rows());
    let exact = dense_solve(&a, &b).unwrap();
    let grid = TileGrid::new(4, 4);
    let placement = AzulMapper::fast_default().map(&a, grid);
    let cfg = SimConfig::azul(grid);
    let tol = 1e-5;

    let out = SimSolver::build(&a, &placement, &cfg)
        .unwrap()
        .try_run(&b, &SimSolverConfig::default())
        .unwrap();
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "simulated PCG"
    );

    let out = SimSolver::build_unpreconditioned(&a, &placement, &cfg)
        .try_run(&b, &SimSolverConfig::default())
        .unwrap();
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "CG sim"
    );

    let out = SimSolver::build(&a, &placement, &cfg)
        .unwrap()
        .try_run(
            &b,
            &SimSolverConfig {
                method: Method::BiCgStab,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "simulated BiCGStab"
    );

    let out = SimSolver::build(&a, &placement, &cfg)
        .unwrap()
        .try_run(
            &b,
            &SimSolverConfig {
                method: Method::Gmres { restart: 30 },
                ..Default::default()
            },
        )
        .unwrap();
    assert!(
        out.converged && dense::rel_l2_diff(&out.x, &exact) < tol,
        "simulated GMRES"
    );
}

/// Stronger preconditioners take (weakly) fewer PCG iterations:
/// IC(0) <= SGS <= Jacobi <= none, the classic quality ladder.
#[test]
fn preconditioner_quality_orders_iteration_counts() {
    let a = generate::grid_laplacian_2d(24, 24);
    let b = rhs(a.rows());
    let cfg = PcgConfig::default();
    let none = cg(&a, &b, &cfg).iterations;
    let jacobi = pcg(&a, &b, &Jacobi::new(&a), &cfg).iterations;
    let sgs = pcg(&a, &b, &SymmetricGaussSeidel::new(&a), &cfg).iterations;
    let ic = pcg(&a, &b, &IncompleteCholesky::new(&a).unwrap(), &cfg).iterations;
    assert!(
        ic <= sgs && sgs <= jacobi && jacobi <= none,
        "expected IC({ic}) <= SGS({sgs}) <= Jacobi({jacobi}) <= none({none})"
    );
}

/// RCM reordering composes with the accelerator pipeline: solving the
/// RCM-permuted system gives the same answer after un-permuting.
#[test]
fn rcm_reordered_system_solves_identically() {
    let a = generate::fem_mesh_3d(120, 5, 61);
    let b = rhs(a.rows());
    let exact = dense_solve(&a, &b).unwrap();
    let (ra, p) = rcm_reorder(&a);
    let azul = azul::Azul::new(azul::AzulConfig::small_test());
    let report = azul.solve(&ra, &p.apply(&b)).unwrap();
    assert!(report.converged);
    let x = p.apply_inverse(&report.x);
    assert!(dense::rel_l2_diff(&x, &exact) < 1e-5);
}

/// Simulated and reference BiCGStab follow the same trajectory: equal
/// iteration counts on the same system.
#[test]
fn simulated_bicgstab_tracks_reference_iterations() {
    let a = generate::grid_laplacian_2d(10, 10);
    let b = rhs(a.rows());
    let grid = TileGrid::new(2, 2);
    let placement = AzulMapper::fast_default().map(&a, grid);
    let sim = SimSolver::build(&a, &placement, &SimConfig::azul(grid))
        .unwrap()
        .try_run(
            &b,
            &SimSolverConfig {
                method: Method::BiCgStab,
                ..Default::default()
            },
        )
        .unwrap();
    // Reference BiCGStab preconditioned the same way (IC(0) via factor).
    let m = IncompleteCholesky::new(&a).unwrap();
    let reference = bicgstab(&a, &b, &m, &BiCgStabConfig::default());
    assert!(sim.converged && reference.converged);
    assert_eq!(sim.iterations, reference.iterations);
}
