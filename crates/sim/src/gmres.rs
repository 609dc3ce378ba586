//! Restarted GMRES on the simulated accelerator.
//!
//! Each Arnoldi step is one preconditioner application (two SpTRSVs), one
//! SpMV, and a stream of dot products and axpys over the growing Krylov
//! basis — all existing Azul kernels. Unlike PCG, the vector-op share
//! *grows* with the restart length, which the kernel breakdown exposes.

use crate::driver::{guard, Boundary, Driver, Flops, Interrupt, Kernels};
use crate::machine::SimError;
use crate::solver::SimSolverConfig;
use crate::vecops::VecOp;
use azul_solver::flops::FlopBreakdown;
use azul_solver::BreakdownKind::NonFinite;
use azul_sparse::dense;

/// Runs right-preconditioned GMRES(`restart`) on `d` from `x = 0`.
///
/// # Panics
///
/// Panics if `restart == 0`.
pub(crate) fn run(
    d: &mut Driver,
    k: &Kernels,
    b: &[f64],
    x: &mut [f64],
    restart: usize,
    run_cfg: &SimSolverConfig,
) -> Result<Flops, SimError> {
    assert!(restart > 0, "restart length must be positive");
    // Sample 0 is the initial state (x = 0, so the residual is ||b||).
    d.start(dense::norm2(b));
    let mut timed_flops = FlopBreakdown::default();
    while d.iterations < run_cfg.max_iters {
        let r = dense::sub(b, &k.a.spmv(x));
        match d.restart_boundary(x, dense::norm2(&r)) {
            Boundary::Retry => continue,
            Boundary::Stop => break,
            Boundary::Proceed => {}
        }
        let k_max = restart.min(run_cfg.max_iters - d.iterations);
        match cycle(d, k, x, r, k_max, run_cfg.tol, &mut timed_flops) {
            Ok(true) => {}
            Ok(false) => break,
            // A fault discards the (possibly poisoned) Krylov basis and
            // restarts from the checkpointed x.
            Err(e) => {
                if !d.roll_back(x, e)? {
                    break;
                }
            }
        }
    }
    // A last restart cycle can reach the tolerance without its estimate
    // saying so; the true residual decides.
    d.converged |= dense::norm2(&dense::sub(b, &k.a.spmv(x))) <= run_cfg.tol;
    Ok(Flops::Timed(timed_flops))
}

/// One restart cycle of up to `k_max` Arnoldi steps from the
/// residual `r` of `x`, folding the basis solution into `x` at the
/// end. Returns whether to restart (`false`: converged or stopped).
fn cycle(
    d: &mut Driver,
    k: &Kernels,
    x: &mut [f64],
    r: Vec<f64>,
    k_max: usize,
    tol: f64,
    timed_flops: &mut FlopBreakdown,
) -> Result<bool, Interrupt> {
    let n = x.len();
    let beta = dense::norm2(&r);
    let mut v: Vec<Vec<f64>> = Vec::with_capacity(k_max + 1);
    let mut v0 = r;
    dense::scale(1.0 / beta, &mut v0);
    v.push(v0);
    let mut h = vec![vec![0.0f64; k_max]; k_max + 1];
    let (mut cs, mut sn) = (vec![0.0f64; k_max], vec![0.0f64; k_max]);
    let mut g = vec![0.0f64; k_max + 1];
    g[0] = beta;
    let mut k_done = 0usize;

    for j in 0..k_max {
        d.begin()?;
        let timing = d.timing();
        // z = M^-1 v_j (two triangular solves), w = A z.
        let y = d.lower(&v[j])?;
        let z = d.upper(&y)?;
        let w = d.spmv(&z)?;
        if timing {
            timed_flops.spmv += 2 * k.a.nnz() as u64;
            if k.trisolve.is_some() {
                timed_flops.sptrsv += 4 * k.l.nnz() as u64;
            }
        }
        // ABFT: both triangular solves (when preconditioned) and the SpMV
        // of this Arnoldi step, re-verified together against the
        // reference kernels.
        if let Some((csa, csl)) = d.checksums() {
            let mut checks = Vec::with_capacity(3);
            if let Some(csl) = csl {
                checks.push(("checksum_sptrsv", csl.verify_solve(&y, &v[j])));
                checks.push(("checksum_sptrsv", csl.verify_solve_transpose(&z, &y)));
            }
            checks.push(("checksum_spmv", csa.verify_spmv(&z, &w)));
            d.abft(&checks, |bad| {
                let rz = k.precond_ref(&v[j]);
                let rw = k.a.spmv(&rz);
                let dev =
                    dense::norm2(&dense::sub(&z, &rz)).max(dense::norm2(&dense::sub(&w, &rw)));
                dev > bad.bound
            })?;
        }

        // Modified Gram-Schmidt: j+1 dots and j+1 axpys.
        let mut w = w;
        for (i, vi) in v.iter().enumerate().take(j + 1) {
            let hij = dense::dot(&w, vi);
            h[i][j] = hij;
            dense::axpy(-hij, vi, &mut w);
            d.vec_op(VecOp::Dot, 1);
            d.vec_op(VecOp::Axpy, 1);
            if timing {
                timed_flops.vector += 4 * n as u64;
            }
        }
        let wnorm = dense::norm2(&w);
        h[j + 1][j] = wnorm;
        d.vec_op(VecOp::Dot, 1);
        if timing {
            timed_flops.vector += 2 * n as u64;
        }

        // Givens rotations (scalar work, negligible time).
        for i in 0..j {
            let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
            h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
            h[i][j] = t;
        }
        let denom = (h[j][j] * h[j][j] + h[j + 1][j] * h[j + 1][j]).sqrt();
        if denom == 0.0 {
            k_done = j + 1;
            break;
        }
        cs[j] = h[j][j] / denom;
        sn[j] = h[j + 1][j] / denom;
        h[j][j] = denom;
        h[j + 1][j] = 0.0;
        g[j + 1] = -sn[j] * g[j];
        g[j] *= cs[j];

        // A non-finite residual estimate means the basis is poisoned
        // (e.g. an injected bit flip): discard it rather than spend
        // the rest of the restart cycle on junk.
        guard(g[j + 1].is_finite(), NonFinite, || {
            "non-finite Arnoldi residual estimate; basis discarded".to_string()
        })?;
        k_done = j + 1;
        let res = g[j + 1].abs();
        d.close(res);

        // Drift audit of the Givens estimate against the true residual
        // of the basis solution so far, materialized on a scratch copy
        // so the Arnoldi state is untouched. Right preconditioning
        // preserves the true residual, so the two track each other in
        // a clean run.
        if d.drift_due() {
            let mut probe = x.to_vec();
            update_solution(k, &mut probe, &v, &h, &g, k_done);
            d.drift_check(&probe, res)?;
        }
        if res <= tol || wnorm == 0.0 {
            update_solution(k, x, &v, &h, &g, k_done);
            // An unconfirmed estimate forces a restart, where the
            // boundary's true-residual check decides.
            d.converged = d.converges(x, res)?;
            return Ok(!d.converged);
        }
        if d.exhausted(res) {
            update_solution(k, x, &v, &h, &g, k_done);
            return Ok(false);
        }
        let mut vj1 = w;
        dense::scale(1.0 / wnorm, &mut vj1);
        v.push(vj1);
    }
    update_solution(k, x, &v, &h, &g, k_done);
    Ok(true)
}

/// Back-solves the small least-squares system and applies the
/// (right-preconditioned) update `x += M^-1 V y`.
fn update_solution(
    kernels: &Kernels,
    x: &mut [f64],
    v: &[Vec<f64>],
    h: &[Vec<f64>],
    g: &[f64],
    k: usize,
) {
    if k == 0 {
        return;
    }
    let mut y = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut s = g[i];
        for (j, &yj) in y.iter().enumerate().skip(i + 1) {
            s -= h[i][j] * yj;
        }
        y[i] = s / h[i][i];
    }
    let n = x.len();
    let mut update = vec![0.0f64; n];
    for (j, &yj) in y.iter().enumerate() {
        dense::axpy(yj, &v[j], &mut update);
    }
    dense::axpy(1.0, &kernels.precond_ref(&update), x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::faults::IntegrityPolicy;
    use crate::solver::{Method, SimSolver, SimSolverConfig};
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn config(restart: usize) -> SimSolverConfig {
        SimSolverConfig {
            method: Method::Gmres { restart },
            ..Default::default()
        }
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + ((i * 7) % 5) as f64 / 5.0).collect()
    }

    #[test]
    fn gmres_sim_solves_spd_system() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config(30)).unwrap();
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual < 1e-8);
        assert!(report.gflops > 0.0);
    }

    #[test]
    fn gmres_restart_still_converges() {
        let a = generate::fem_mesh_3d(100, 5, 3);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config(5)).unwrap();
        assert!(report.converged);
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
        assert!(residual < 1e-7);
    }

    #[test]
    fn convergence_telemetry_tracks_inner_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config(30)).unwrap();
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
        assert!(report.convergence.last().unwrap().residual <= 1e-10);
    }

    #[test]
    fn gmres_kernel_mix_includes_all_three_classes() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.try_run(&b, &config(30)).unwrap();
        assert!(report.kernel_cycles.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn unpreconditioned_gmres_checksums_its_spmv() {
        // Without a factor there are no triangular solves to verify, but
        // every timed Arnoldi SpMV still is, and none is counted as
        // SpTRSV work.
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = SimSolver::build_unpreconditioned(&a, &p, &SimConfig::azul(grid));
        let run_cfg = SimSolverConfig {
            timed_iterations: 0,
            integrity: IntegrityPolicy::audit(),
            ..config(30)
        };
        let report = sim.try_run(&rhs(a.rows()), &run_cfg).unwrap();
        assert!(report.converged);
        let checks = report.integrity.checks as usize;
        assert!(checks >= report.iterations, "{checks} checks");
        assert_eq!(report.flops_per_iteration.sptrsv, 0);
    }
}
