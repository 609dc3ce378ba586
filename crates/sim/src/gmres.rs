//! Restarted GMRES on the simulated accelerator.
//!
//! Completes the Sec. II-B claim ("other iterative solvers like GMRES and
//! BiCGStab have the same kernels and challenges"): each Arnoldi step is
//! one preconditioner application (two SpTRSVs), one SpMV, and a stream
//! of dot products and axpys over the growing Krylov basis — all existing
//! Azul kernels. Unlike PCG, the vector-op share *grows* with the restart
//! length, which this simulation exposes in its kernel breakdown.

use crate::config::{SimConfig, StagnationPolicy};
use crate::driver::{guard, Boundary, Driver, Interrupt, Kernels, Method};
use crate::faults::{FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryPolicy, RecoveryRecord};
use crate::machine::SimError;
use crate::stats::KernelStats;
use crate::vecops::VecOp;
use azul_mapping::Placement;
use azul_solver::ic0::ic0;
use azul_solver::BreakdownKind::NonFinite;
use azul_solver::{SolveStatus, SolverError};
use azul_sparse::{dense, Csr};
use azul_telemetry::report::IterationSample;

/// Run-time configuration for a GMRES simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresSimConfig {
    /// Convergence tolerance on `||r||_2`.
    pub tol: f64,
    /// Restart length.
    pub restart: usize,
    /// Cap on total inner iterations.
    pub max_iters: usize,
    /// Inner iterations to cycle-simulate.
    pub timed_iterations: usize,
    /// Fault detection + checkpoint/rollback policy. GMRES checkpoints x
    /// at each healthy restart boundary; a rollback discards the Krylov
    /// basis and restarts from the checkpointed x.
    pub recovery: RecoveryPolicy,
    /// Optional stagnation detector over the Givens residual estimates
    /// (see [`StagnationPolicy`]); `None` (the default) changes nothing.
    pub stagnation: Option<StagnationPolicy>,
    /// Per-attempt cycle budget on the extrapolated cycle count;
    /// `u64::MAX` (the default) disables the check.
    pub cycle_budget: u64,
    /// Silent-corruption detection (see [`IntegrityPolicy`]). With the
    /// final audit armed, an inner Givens-estimate convergence forces a
    /// restart unless the true residual confirms it.
    pub integrity: IntegrityPolicy,
}

impl Default for GmresSimConfig {
    fn default() -> Self {
        GmresSimConfig {
            tol: 1e-10,
            restart: 30,
            max_iters: 2000,
            timed_iterations: 2,
            recovery: RecoveryPolicy::default(),
            stagnation: None,
            cycle_budget: u64::MAX,
            integrity: IntegrityPolicy::default(),
        }
    }
}

/// A GMRES instance compiled for the accelerator.
#[derive(Debug, Clone)]
pub struct GmresSim {
    cfg: SimConfig,
    k: Kernels,
}

/// Results of a simulated GMRES solve.
#[derive(Debug, Clone)]
pub struct GmresSimReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Whether the solve converged.
    pub converged: bool,
    /// Inner iterations executed.
    pub iterations: usize,
    /// True final residual.
    pub final_residual: f64,
    /// Measured cycles per inner iteration (averaged over the timed ones;
    /// note GMRES iterations get costlier as the basis grows).
    pub cycles_per_iteration: f64,
    /// Cycles by kernel class over the timed portion.
    pub kernel_cycles: [f64; 3],
    /// Merged statistics over the timed portion.
    pub stats: KernelStats,
    /// Sustained throughput over the timed portion in GFLOP/s.
    pub gflops: f64,
    /// How the solve terminated.
    pub status: SolveStatus,
    /// Journal of fired fault events (empty without a fault plan).
    pub fault_events: Vec<FaultRecord>,
    /// Executed basis-discard recoveries (empty in a clean run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Integrity journal (checks run, violations, drift samples, escape
    /// count). Empty unless [`GmresSimConfig::integrity`] is enabled.
    pub integrity: IntegrityAudit,
    /// Convergence telemetry: one sample per inner iteration (sample 0 is
    /// the initial state; residuals are the Givens recurrence estimates).
    /// Cycle-simulated iterations carry measured deltas; the rest reuse
    /// the steady-state averages.
    pub convergence: Vec<IterationSample>,
}

impl GmresSim {
    /// Builds the pipeline with an IC(0)-factored preconditioner.
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
        GmresSim {
            cfg: cfg.clone(),
            k: Kernels::compile(a, Some(l), placement),
        }
    }

    /// Runs right-preconditioned restarted GMRES with right-hand side `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension,
    /// `restart == 0`, or the simulated machine deadlocks (use
    /// [`GmresSim::try_run`]).
    pub fn run(&self, b: &[f64], run_cfg: &GmresSimConfig) -> GmresSimReport {
        match self.try_run(b, run_cfg) {
            Ok(report) => report,
            Err(e) => panic!("simulated GMRES failed: {e}"),
        }
    }

    /// Runs restarted GMRES, surfacing machine-level failures as errors.
    /// Numerical anomalies discard the Krylov basis and restart from the
    /// checkpointed x when recovery is enabled, else end the solve with
    /// [`SolveStatus::Breakdown`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when a simulated kernel stops making
    /// progress or exceeds the cycle cap.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension or
    /// `restart == 0`.
    #[must_use = "a dropped result discards both the solve report and the structured failure"]
    pub fn try_run(&self, b: &[f64], run_cfg: &GmresSimConfig) -> Result<GmresSimReport, SimError> {
        assert!(run_cfg.restart > 0, "restart length must be positive");
        let k = &self.k;
        let mut d = Driver::new(Method::Gmres, &self.cfg, k, b, run_cfg.into());
        // Sample 0 is the initial state (x = 0, so the residual is ||b||).
        d.start(dense::norm2(b));
        let mut x = vec![0.0f64; k.a.rows()];
        // Analytic FLOPs of the timed iterations.
        let mut timed_flops = 0u64;
        while d.iterations < run_cfg.max_iters {
            let r = dense::sub(b, &k.a.spmv(&x));
            match d.restart_boundary(&mut x, dense::norm2(&r)) {
                Boundary::Retry => continue,
                Boundary::Stop => break,
                Boundary::Proceed => {}
            }
            match self.cycle(&mut d, &mut x, r, run_cfg, &mut timed_flops) {
                Ok(true) => {}
                Ok(false) => break,
                // A fault discards the (possibly poisoned) Krylov basis and
                // restarts from the checkpointed x.
                Err(e) => {
                    if !d.roll_back(&mut x, e)? {
                        break;
                    }
                }
            }
        }
        // A last restart cycle can reach the tolerance without its
        // estimate saying so; the true residual decides.
        d.converged |= dense::norm2(&dense::sub(b, &k.a.spmv(&x))) <= run_cfg.tol;
        let out = d.finish(&x)?;

        let gflops = if out.timed_cycles > 0 {
            timed_flops as f64 / out.timed_cycles as f64 * self.cfg.clock_ghz
        } else {
            0.0
        };
        Ok(GmresSimReport {
            x,
            converged: out.converged,
            iterations: out.iterations,
            final_residual: out.final_residual,
            cycles_per_iteration: out.cycles_per_iteration,
            kernel_cycles: out.kernel_cycles,
            stats: out.stats,
            gflops,
            status: out.status,
            fault_events: out.fault_events,
            recoveries: out.recoveries,
            integrity: out.integrity,
            convergence: out.convergence,
        })
    }

    /// One restart cycle of up to `restart` Arnoldi steps from the
    /// residual `r` of `x`, folding the basis solution into `x` at the
    /// end. Returns whether to restart (`false`: converged or stopped).
    fn cycle(
        &self,
        d: &mut Driver,
        x: &mut [f64],
        r: Vec<f64>,
        run_cfg: &GmresSimConfig,
        timed_flops: &mut u64,
    ) -> Result<bool, Interrupt> {
        let k = &self.k;
        let n = x.len();
        let beta = dense::norm2(&r);
        let k_max = run_cfg.restart.min(run_cfg.max_iters - d.iterations);
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
                *timed_flops += 2 * k.a.nnz() as u64 + 4 * k.l.nnz() as u64;
            }
            // ABFT: both triangular solves and the SpMV of this Arnoldi
            // step, re-verified together against the reference kernels.
            if let Some((csa, Some(csl))) = d.checksums() {
                let checks = [
                    ("checksum_sptrsv", csl.verify_solve(&y, &v[j])),
                    ("checksum_sptrsv", csl.verify_solve_transpose(&z, &y)),
                    ("checksum_spmv", csa.verify_spmv(&z, &w)),
                ];
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
                    *timed_flops += 4 * n as u64;
                }
            }
            let wnorm = dense::norm2(&w);
            h[j + 1][j] = wnorm;
            d.vec_op(VecOp::Dot, 1);
            if timing {
                *timed_flops += 2 * n as u64;
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
                self.update_solution(&mut probe, &v, &h, &g, k_done);
                d.drift_check(&probe, res)?;
            }
            if res <= run_cfg.tol || wnorm == 0.0 {
                self.update_solution(x, &v, &h, &g, k_done);
                // An unconfirmed estimate forces a restart, where the
                // boundary's true-residual check decides.
                d.converged = d.converges(x, res)?;
                return Ok(!d.converged);
            }
            if d.exhausted(res) {
                self.update_solution(x, &v, &h, &g, k_done);
                return Ok(false);
            }
            let mut vj1 = w;
            dense::scale(1.0 / wnorm, &mut vj1);
            v.push(vj1);
        }
        self.update_solution(x, &v, &h, &g, k_done);
        Ok(true)
    }

    /// Back-solves the small least-squares system and applies the
    /// (right-preconditioned) update `x += M^-1 V y`.
    fn update_solution(&self, x: &mut [f64], v: &[Vec<f64>], h: &[Vec<f64>], g: &[f64], k: usize) {
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
        dense::axpy(1.0, &self.k.precond_ref(&update), x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + ((i * 7) % 5) as f64 / 5.0).collect()
    }

    #[test]
    fn gmres_sim_solves_spd_system() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &GmresSimConfig::default());
        assert!(report.converged, "residual {}", report.final_residual);
        assert!(report.final_residual < 1e-8);
        assert!(report.gflops > 0.0);
    }

    #[test]
    fn gmres_restart_still_converges() {
        let a = generate::fem_mesh_3d(100, 5, 3);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &GmresSimConfig {
                restart: 5,
                ..Default::default()
            },
        );
        assert!(report.converged);
        let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
        assert!(residual < 1e-7);
    }

    #[test]
    fn convergence_telemetry_tracks_inner_iterations() {
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &GmresSimConfig::default());
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
    fn convergence_deltas_tile_aggregate_stats() {
        // Restart-accounting cross-check: with every inner iteration timed
        // and no faults, the per-iteration convergence deltas must tile
        // the aggregate `KernelStats` exactly — work done around a restart
        // boundary (the setup solves of the next Arnoldi cycle) must be
        // attributed to exactly one iteration, never dropped or counted
        // twice.
        let a = generate::grid_laplacian_2d(8, 8);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(
            &b,
            &GmresSimConfig {
                restart: 4,          // force several restart boundaries
                timed_iterations: 0, // cycle-simulate everything
                ..Default::default()
            },
        );
        assert!(report.converged);
        assert!(report.iterations > 8, "need multiple restart cycles");
        let sum = |f: fn(&IterationSample) -> u64| report.convergence.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.cycles), report.stats.cycles, "cycles leak");
        assert_eq!(sum(|s| s.messages), report.stats.messages, "messages leak");
        assert_eq!(
            sum(|s| s.link_activations),
            report.stats.link_activations,
            "link activations leak"
        );
        assert_eq!(
            sum(|s| s.flops),
            crate::pcg::flops_of_ops(report.stats.ops),
            "FLOPs leak"
        );
    }

    #[test]
    fn gmres_kernel_mix_includes_all_three_classes() {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        let sim = GmresSim::build(&a, &p, &SimConfig::azul(grid)).unwrap();
        let b = rhs(a.rows());
        let report = sim.run(&b, &GmresSimConfig::default());
        assert!(report.kernel_cycles.iter().all(|&c| c > 0.0));
    }
}
