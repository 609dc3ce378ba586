//! Quickstart: solve one sparse SPD system on a simulated Azul
//! accelerator and inspect the performance report.
//!
//! Run with: `cargo run --release --example quickstart`

use azul::mapping::TileGrid;
use azul::sim::KernelClass;
use azul::sparse::generate;
use azul::{Azul, AzulConfig};

fn main() -> Result<(), azul::AzulError> {
    // A 2-D Poisson problem: the canonical grid-structured SPD system.
    let a = generate::grid_laplacian_2d(48, 48);
    let b = vec![1.0; a.rows()];
    println!(
        "matrix: {}x{} with {} nonzeros",
        a.rows(),
        a.cols(),
        a.nnz()
    );

    // An Azul with 8x8 = 64 tiles (the paper's flagship is 64x64; the
    // simulator scales the grid freely).
    let azul = Azul::new(AzulConfig::new(TileGrid::square(8)));

    // Prepare once: color+permute, hypergraph-map, factor IC(0), compile
    // the dataflow kernels.
    let prepared = azul.prepare(&a)?;
    let prep = prepared.prepare_report();
    println!(
        "prepare: {} colors, mapping {:.2}s, nnz imbalance {:.2}",
        prep.num_colors, prep.mapping_seconds, prep.nnz_imbalance
    );

    // Solve.
    let report = prepared.try_solve(&b)?;
    println!(
        "converged={} in {} iterations (residual {:.2e})",
        report.converged, report.iterations, report.final_residual
    );
    println!(
        "throughput: {:.1} GFLOP/s, {:.0} cycles/iteration, {:.2} us of accelerator time",
        report.gflops,
        report.sim.cycles_per_iteration,
        report.accelerator_seconds * 1e6
    );
    let k = &report.sim.kernel_cycles;
    let total: f64 = k.iter().sum();
    println!(
        "runtime breakdown: SpMV {:.0}% | SpTRSV {:.0}% | vector ops {:.0}%",
        100.0 * k[KernelClass::Spmv as usize] / total,
        100.0 * k[KernelClass::Sptrsv as usize] / total,
        100.0 * k[KernelClass::VectorOps as usize] / total,
    );

    // Sanity: the solution really solves the system.
    let residual = {
        let ax = a.spmv(&report.x);
        azul::sparse::dense::norm2(&azul::sparse::dense::sub(&b, &ax))
    };
    println!("verified true residual: {residual:.2e}");
    Ok(())
}
