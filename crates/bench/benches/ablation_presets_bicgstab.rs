//! Two extension studies beyond the paper's figures:
//!
//! 1. **Partitioner preset ablation** (Sec. VI-D's closing remark: "if
//!    mapping time is important, users could opt for a lower quality
//!    mapping by using the default or speed presets") — quality vs fast
//!    preset: mapping time against end-to-end throughput.
//! 2. **Solver generality** (Sec. II-B: "other iterative solvers like
//!    GMRES and BiCGStab have the same kernels") — BiCGStab runs on the
//!    same compiled kernels; its kernel-class mix should mirror PCG's.

use azul_bench::{header, representative, row, run_pcg, BenchCtx};
use azul_mapping::strategies::{AzulMapper, Mapper};
use azul_sim::config::SimConfig;
use azul_sim::stats::KernelClass;
use azul_sim::{Method, SimSolver, SimSolverConfig};
use std::time::Instant;

fn main() {
    let ctx = BenchCtx::from_env();
    let cfg = SimConfig::azul(ctx.grid);

    header(
        "Ablation — partitioner preset: quality vs fast (Sec. VI-D)",
        "the speed preset trades cut quality for mapping time",
    );
    row(
        "matrix",
        &[
            "qual map s".into(),
            "qual GF/s".into(),
            "fast map s".into(),
            "fast GF/s".into(),
        ],
    );
    let mut any_quality_win = false;
    for m in representative(&ctx) {
        let t0 = Instant::now();
        let quality_place = AzulMapper::default().map(&m.a, ctx.grid);
        let t_quality = t0.elapsed().as_secs_f64();
        let g_quality = run_pcg(&m, &quality_place, &cfg, &ctx).gflops;

        let t1 = Instant::now();
        let fast_place = AzulMapper::fast_default().map(&m.a, ctx.grid);
        let t_fast = t1.elapsed().as_secs_f64();
        let g_fast = run_pcg(&m, &fast_place, &cfg, &ctx).gflops;

        row(
            m.name,
            &[
                format!("{t_quality:.2}"),
                format!("{g_quality:.0}"),
                format!("{t_fast:.2}"),
                format!("{g_fast:.0}"),
            ],
        );
        assert!(
            t_fast < t_quality,
            "{}: fast preset must be faster to map",
            m.name
        );
        if g_quality > g_fast {
            any_quality_win = true;
        }
    }
    assert!(
        any_quality_win,
        "the quality preset should win throughput somewhere"
    );

    header(
        "Extension — BiCGStab on the same kernels (Sec. II-B)",
        "same SpMV/SpTRSV programs; kernel mix mirrors PCG",
    );
    row(
        "matrix",
        &[
            "PCG GF/s".into(),
            "BiCG GF/s".into(),
            "BiCG SpTRSV%".into(),
            "BiCG iters".into(),
        ],
    );
    for m in representative(&ctx) {
        let place = ctx.azul_mapper().map(&m.a, ctx.grid);
        let pcg_report = run_pcg(&m, &place, &cfg, &ctx);
        let bi = SimSolver::build(&m.a, &place, &cfg).expect("IC(0) succeeds");
        let bi_report = bi
            .try_run(
                &m.b,
                &SimSolverConfig {
                    method: Method::BiCgStab,
                    tol: 1e-8,
                    max_iters: 500,
                    timed_iterations: 1,
                    ..Default::default()
                },
            )
            .expect("simulated solve runs");
        let total: f64 = bi_report.kernel_cycles.iter().sum::<f64>().max(1e-9);
        let tri_pct = bi_report.kernel_cycles[KernelClass::Sptrsv as usize] / total * 100.0;
        row(
            m.name,
            &[
                format!("{:.0}", pcg_report.gflops),
                format!("{:.0}", bi_report.gflops),
                format!("{tri_pct:.0}%"),
                bi_report.iterations.to_string(),
            ],
        );
        assert!(bi_report.converged, "{}: BiCGStab diverged", m.name);
        assert!(bi_report.gflops > 0.0);
    }
}
