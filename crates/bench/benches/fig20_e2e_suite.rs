//! The end-to-end suite evaluation: regenerates **Fig. 20** (speedup over
//! the GPU for ALRESCHA / Dalorex / Azul), **Fig. 21** (Azul PE cycle
//! breakdown), **Fig. 22** (Azul runtime breakdown by kernel) and
//! **Fig. 24** (power breakdown) in one pass over the 20-matrix suite,
//! plus the Table III configuration header.
//!
//! Paper headline (64x64 tiles): Azul gmean 217x over GPU, 159x over
//! ALRESCHA, 90x over Dalorex; 7,640 gmean GFLOP/s. At reduced tile count
//! the ordering and the breakdown shapes hold while the absolute ratios
//! compress (see EXPERIMENTS.md).

use azul_bench::{
    full_suite, gmean, gpu_overhead_scale, header, row, run_pcg, telemetry_report,
    write_bench_artifact, BenchCtx,
};
use azul_mapping::strategies::{Mapper, RoundRobinMapper};
use azul_models::energy::EnergyModel;
use azul_models::gpu::{GpuModel, GpuWorkload};
use azul_models::AlreschaModel;
use azul_sim::config::SimConfig;
use azul_sim::stats::KernelClass;

struct Result {
    name: &'static str,
    gpu: f64,
    alrescha: f64,
    dalorex: f64,
    azul: f64,
    azul_report: azul_sim::SimSolverReport,
}

fn main() {
    let ctx = BenchCtx::from_env();
    let mut azul_cfg = SimConfig::azul(ctx.grid);
    // Collect per-PE/per-link detail for the telemetry artifact.
    azul_cfg.detailed_stats = true;
    let dalorex_cfg = SimConfig::dalorex(ctx.grid);

    header("Table III — simulated configuration", "");
    println!(
        "tiles {}x{} ({}), {} GHz, peak {:.0} GFLOP/s, SRAM latency {} cyc, hop latency {} cyc, {} contexts/PE",
        ctx.grid.width(),
        ctx.grid.height(),
        ctx.grid.num_tiles(),
        azul_cfg.clock_ghz,
        azul_cfg.peak_gflops(),
        azul_cfg.sram_latency,
        azul_cfg.hop_latency,
        azul_cfg.contexts,
    );

    let alrescha = AlreschaModel::default();
    let mut results: Vec<Result> = Vec::new();
    let mut telemetry = Vec::new();
    for m in full_suite(&ctx) {
        let gpu_model = GpuModel::with_overhead_scale(gpu_overhead_scale(&m));
        let gpu = gpu_model.pcg_gflops(&GpuWorkload::from_matrix(&m.a));
        let nnz_l = m.a.lower_triangle().nnz();
        let alr = alrescha.pcg_gflops(m.a.rows(), m.a.nnz(), nnz_l);

        let rr = RoundRobinMapper.map(&m.a, ctx.grid);
        let dal = run_pcg(&m, &rr, &dalorex_cfg, &ctx);
        let az_place = ctx.azul_mapper().map(&m.a, ctx.grid);
        let az = run_pcg(&m, &az_place, &azul_cfg, &ctx);

        eprintln!(
            "[{}] gpu {gpu:.1} alrescha {alr:.1} dalorex {:.1} azul {:.1} GF/s",
            m.name, dal.gflops, az.gflops
        );
        telemetry.push(telemetry_report(&m, &azul_cfg, &az));
        results.push(Result {
            name: m.name,
            gpu,
            alrescha: alr,
            dalorex: dal.gflops,
            azul: az.gflops,
            azul_report: az,
        });
    }

    // Persist the telemetry artifact before the paper-ordering sanity
    // checks: at reduced scales those can fail while the measurements
    // themselves are still worth keeping.
    match write_bench_artifact("fig20_e2e_suite", &telemetry) {
        Ok(path) => eprintln!("telemetry artifact: {}", path.display()),
        Err(e) => eprintln!("failed to write telemetry artifact: {e}"),
    }

    // ---- Fig. 20 ----
    header(
        "Fig. 20 — end-to-end speedup over the GPU baseline",
        "gmean: ALRESCHA 1.4x, Dalorex 2.4x, Azul 217x (64x64 tiles)",
    );
    row(
        "matrix",
        &[
            "ALRESCHA".into(),
            "Dalorex".into(),
            "Azul".into(),
            "Azul GF/s".into(),
        ],
    );
    for r in &results {
        row(
            r.name,
            &[
                format!("{:.1}x", r.alrescha / r.gpu),
                format!("{:.1}x", r.dalorex / r.gpu),
                format!("{:.1}x", r.azul / r.gpu),
                format!("{:.0}", r.azul),
            ],
        );
    }
    let g_gpu = gmean(&results.iter().map(|r| r.gpu).collect::<Vec<_>>());
    let g_alr = gmean(&results.iter().map(|r| r.alrescha).collect::<Vec<_>>());
    let g_dal = gmean(&results.iter().map(|r| r.dalorex).collect::<Vec<_>>());
    let g_az = gmean(&results.iter().map(|r| r.azul).collect::<Vec<_>>());
    println!(
        "gmean GFLOP/s: GPU {g_gpu:.1} | ALRESCHA {g_alr:.1} | Dalorex {g_dal:.1} | Azul {g_az:.1}"
    );
    println!(
        "gmean speedup over GPU: ALRESCHA {:.1}x | Dalorex {:.1}x | Azul {:.1}x",
        g_alr / g_gpu,
        g_dal / g_gpu,
        g_az / g_gpu
    );
    assert!(g_az > g_dal && g_dal > g_gpu, "paper ordering must hold");
    assert!(g_az > g_alr, "Azul must beat ALRESCHA");

    // ---- Fig. 21 ----
    header(
        "Fig. 21 — Azul PE cycle breakdown",
        ">40% of PE cycles are FMACs on almost all inputs; stalls from SpTRSV parallelism limits",
    );
    row(
        "matrix",
        &[
            "Fmac".into(),
            "Add".into(),
            "Mul".into(),
            "Send".into(),
            "Stall/idle".into(),
        ],
    );
    for r in &results {
        let b = r.azul_report.stats.cycle_breakdown(ctx.grid.num_tiles());
        row(
            r.name,
            &[
                format!("{:.1}%", b[0] * 100.0),
                format!("{:.1}%", b[1] * 100.0),
                format!("{:.1}%", b[2] * 100.0),
                format!("{:.1}%", b[3] * 100.0),
                format!("{:.1}%", b[4] * 100.0),
            ],
        );
    }

    // ---- Fig. 22 ----
    header(
        "Fig. 22 — Azul runtime breakdown by kernel",
        "SpMV and SpTRSV still dominate; SpTRSV grows on parallelism-limited matrices",
    );
    row(
        "matrix",
        &["SpTRSV".into(), "SpMV".into(), "VectorOps".into()],
    );
    for r in &results {
        let k = &r.azul_report.kernel_cycles;
        let total: f64 = k.iter().sum::<f64>().max(1e-9);
        row(
            r.name,
            &[
                format!("{:.1}%", k[KernelClass::Sptrsv as usize] / total * 100.0),
                format!("{:.1}%", k[KernelClass::Spmv as usize] / total * 100.0),
                format!("{:.1}%", k[KernelClass::VectorOps as usize] / total * 100.0),
            ],
        );
    }

    // ---- Fig. 24 ----
    header(
        "Fig. 24 — power breakdown (activity factors from simulation)",
        "210 W average, up to 288 W at 4096 tiles; SRAM dominates",
    );
    let energy = EnergyModel::default();
    row(
        "matrix",
        &[
            "SRAM W".into(),
            "compute W".into(),
            "NoC W".into(),
            "leak W".into(),
            "total W".into(),
        ],
    );
    for r in &results {
        let stats = &r.azul_report.stats;
        let elapsed = azul_cfg.cycles_to_seconds(stats.cycles.max(1));
        let p = energy.power(stats, elapsed, ctx.grid.num_tiles());
        row(
            r.name,
            &[
                format!("{:.2}", p.sram_w),
                format!("{:.2}", p.compute_w),
                format!("{:.2}", p.noc_w),
                format!("{:.2}", p.leakage_w),
                format!("{:.2}", p.total()),
            ],
        );
        assert!(
            p.sram_w >= p.noc_w,
            "{}: SRAM power should dominate the NoC",
            r.name
        );
    }
}
