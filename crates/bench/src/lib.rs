//! Shared harness for the per-figure/table benchmark targets.
//!
//! Every table and figure in the paper's evaluation has a bench target
//! under `crates/bench/benches/` (see DESIGN.md §4 for the index). Each
//! target prints the same rows/series the paper reports, annotated with
//! the paper's own numbers where it states them. `EXPERIMENTS.md` records
//! the paper-vs-measured comparison.
//!
//! # Scaling knobs
//!
//! The paper simulates 4096 tiles on multi-million-nonzero matrices; a
//! 1-core software simulation scales both down together (DESIGN.md §3).
//! Environment variables adjust the default scale:
//!
//! * `AZUL_BENCH_GRID` — torus side (default 16, i.e. 256 tiles);
//! * `AZUL_BENCH_SCALE` — `tiny` | `small` | `medium` (default `small`);
//! * `AZUL_BENCH_FAST` — set to use the fast partitioner preset.

#![forbid(unsafe_code)]

use azul_mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper, SparsePMapper};
use azul_mapping::{Placement, TileGrid};
use azul_sim::config::SimConfig;
use azul_sim::{SimSolver, SimSolverConfig, SimSolverReport};
use azul_sparse::coloring::{color_and_permute, ColoringStrategy};
use azul_sparse::suite::{MatrixSpec, Scale};
use azul_sparse::Csr;
use azul_telemetry::json::ToJson;
use azul_telemetry::TelemetryReport;

/// Benchmark context: grid, scale and run lengths.
#[derive(Debug, Clone)]
pub struct BenchCtx {
    /// The torus.
    pub grid: TileGrid,
    /// Matrix scale.
    pub scale: Scale,
    /// Cycle-timed PCG iterations per configuration.
    pub timed_iters: usize,
    /// Whether to use the fast partitioner preset.
    pub fast_mapper: bool,
}

impl BenchCtx {
    /// Reads the context from the environment (see crate docs).
    pub fn from_env() -> Self {
        let side: usize = std::env::var("AZUL_BENCH_GRID")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        let scale = match std::env::var("AZUL_BENCH_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("medium") => Scale::Medium,
            _ => Scale::Small,
        };
        BenchCtx {
            grid: TileGrid::square(side),
            scale,
            timed_iters: 2,
            fast_mapper: std::env::var("AZUL_BENCH_FAST").is_ok(),
        }
    }

    /// The default Azul mapper under this context.
    pub fn azul_mapper(&self) -> AzulMapper {
        AzulMapper {
            fast: self.fast_mapper,
            ..Default::default()
        }
    }

    /// PCG run configuration for throughput measurements: enough
    /// iterations to reach steady state, no need to converge.
    pub fn pcg_cfg(&self) -> SimSolverConfig {
        SimSolverConfig {
            tol: 1e-12,
            max_iters: self.timed_iters + 1,
            timed_iterations: self.timed_iters,
            ..Default::default()
        }
    }
}

/// A suite matrix prepared for benchmarking: colored + permuted, with a
/// deterministic right-hand side.
pub struct BenchMatrix {
    /// Paper matrix name.
    pub name: &'static str,
    /// The synthetic analog spec.
    pub spec: MatrixSpec,
    /// The colored/permuted matrix (the form all paper results use).
    pub a: Csr,
    /// Right-hand side.
    pub b: Vec<f64>,
}

/// Builds and preprocesses one suite matrix.
pub fn prepare(spec: MatrixSpec, scale: Scale) -> BenchMatrix {
    let raw = spec.build(scale);
    let (a, _, _) = color_and_permute(&raw, ColoringStrategy::LargestDegreeFirst);
    let n = a.rows();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 31 % 17) as f64) / 17.0 + 0.25)
        .collect();
    BenchMatrix {
        name: spec.name,
        spec,
        a,
        b,
    }
}

/// Builds the whole representative set (Figs. 1/3/9/10/11, Table I).
pub fn representative(ctx: &BenchCtx) -> Vec<BenchMatrix> {
    azul_sparse::suite::representative()
        .into_iter()
        .map(|s| prepare(s, ctx.scale))
        .collect()
}

/// Builds the full 20-matrix suite (Figs. 20-24).
pub fn full_suite(ctx: &BenchCtx) -> Vec<BenchMatrix> {
    azul_sparse::suite::suite_4k()
        .into_iter()
        .map(|s| prepare(s, ctx.scale))
        .collect()
}

/// The named mapping strategies of the paper's comparison (Sec. VI-C).
pub fn all_mappers(ctx: &BenchCtx) -> Vec<(&'static str, Box<dyn Mapper>)> {
    vec![
        ("round-robin", Box::new(RoundRobinMapper)),
        ("block", Box::new(BlockMapper)),
        ("sparsep", Box::new(SparsePMapper)),
        ("azul", Box::new(ctx.azul_mapper())),
    ]
}

/// Runs PCG on the simulated accelerator for a prepared matrix.
pub fn run_pcg(
    m: &BenchMatrix,
    placement: &Placement,
    sim: &SimConfig,
    ctx: &BenchCtx,
) -> SimSolverReport {
    let pcg = SimSolver::build(&m.a, placement, sim).expect("IC(0) succeeds on suite matrices");
    pcg.try_run(&m.b, &ctx.pcg_cfg())
        .expect("simulated solve runs")
}

/// Converts one bench scenario's PCG results into a telemetry report
/// (scenario identification, aggregate counters, per-PE/per-link detail
/// when `cfg.detailed_stats` was on, and the convergence history).
pub fn telemetry_report(
    m: &BenchMatrix,
    cfg: &SimConfig,
    rep: &SimSolverReport,
) -> TelemetryReport {
    let mut report = TelemetryReport::default();
    report.scenario_field("matrix", m.name);
    report.scenario_field("n", m.a.rows() as u64);
    report.scenario_field("nnz", m.a.nnz() as u64);
    azul_sim::telemetry::describe_config(&mut report, cfg);
    azul_sim::telemetry::fill_report(&mut report, cfg, &rep.stats);
    report.convergence = rep.convergence.clone();
    report
}

/// Writes per-scenario telemetry reports as one `BENCH_<figure>.json`
/// artifact (a JSON array of report documents). The destination
/// directory comes from `AZUL_BENCH_REPORT_DIR` (default: current
/// directory). Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors from the write.
pub fn write_bench_artifact(
    figure: &str,
    reports: &[TelemetryReport],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("AZUL_BENCH_REPORT_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{figure}.json"));
    std::fs::write(&path, reports.to_json().to_string_pretty())?;
    Ok(path)
}

/// Geometric mean of positive values.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The GPU-model overhead scale for a scaled-down analog: fixed costs
/// (kernel launches, syncs) shrink with the matrix so they keep the same
/// relative weight as at paper scale.
pub fn gpu_overhead_scale(m: &BenchMatrix) -> f64 {
    (m.a.nnz() as f64 / m.spec.paper_nnz).min(1.0)
}

/// Prints a standard bench header.
pub fn header(title: &str, paper_note: &str) {
    println!();
    println!("=== {title} ===");
    if !paper_note.is_empty() {
        println!("paper: {paper_note}");
    }
}

/// Formats a row of label + values.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<14}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_constants() {
        assert!((gmean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn ctx_defaults() {
        let ctx = BenchCtx::from_env();
        assert!(ctx.grid.num_tiles() > 0);
        assert!(ctx.timed_iters >= 1);
    }

    #[test]
    fn prepare_builds_permuted_spd() {
        let spec = azul_sparse::suite::by_name("thermal2").unwrap();
        let m = prepare(spec, Scale::Tiny);
        assert!(m.a.is_symmetric(1e-9));
        assert_eq!(m.b.len(), m.a.rows());
    }

    #[test]
    fn overhead_scale_below_one() {
        let spec = azul_sparse::suite::by_name("consph").unwrap();
        let m = prepare(spec, Scale::Tiny);
        let s = gpu_overhead_scale(&m);
        assert!(s > 0.0 && s < 1.0);
    }
}
