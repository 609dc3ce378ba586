//! Topology study: how much does the paper's 2-D *torus* buy over a plain
//! mesh?
//!
//! The torus doubles bisection width (wraparound links) and halves
//! worst-case hop distance. This study runs the same PCG workload on both
//! topologies at equal tile count — an ablation of Table III's topology
//! row.
//!
//! Run with: `cargo run --release --example topology_study`

use azul::mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
use azul::mapping::traffic::{bisection_load, pcg_iteration_traffic};
use azul::mapping::TileGrid;
use azul::sim::config::SimConfig;
use azul::sim::{SimSolver, SimSolverConfig};
use azul::sparse::coloring::{color_and_permute, ColoringStrategy};
use azul::sparse::generate;

fn main() {
    let raw = generate::fem_mesh_3d(900, 9, 77);
    let (a, _, _) = color_and_permute(&raw, ColoringStrategy::LargestDegreeFirst);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 4) as f64).collect();
    println!("workload: n={} nnz={}, PCG with IC(0)\n", a.rows(), a.nnz());
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>10}",
        "topology+mapping", "bisect lks", "cross traff", "cyc/iter", "GFLOP/s"
    );

    for (tname, grid) in [
        ("torus", TileGrid::square(8)),
        ("mesh", TileGrid::mesh(8, 8)),
    ] {
        for (mname, placement) in [
            ("round-robin", RoundRobinMapper.map(&a, grid)),
            ("azul", AzulMapper::fast_default().map(&a, grid)),
        ] {
            let traffic = pcg_iteration_traffic(&a, &placement);
            let load = bisection_load(&traffic, &placement);
            let sim = SimSolver::build(&a, &placement, &SimConfig::azul(grid)).expect("IC(0)");
            let rep = sim
                .try_run(
                    &b,
                    &SimSolverConfig {
                        timed_iterations: 2,
                        max_iters: 3,
                        tol: 1e-12,
                        ..Default::default()
                    },
                )
                .expect("simulated solve runs");
            println!(
                "{:<22} {:>10} {:>12} {:>12.0} {:>10.1}",
                format!("{tname} + {mname}"),
                grid.bisection_links(),
                load.crossing_activations,
                rep.cycles_per_iteration,
                rep.gflops
            );
        }
    }
    println!();
    println!("the torus's wraparound links halve worst-case distance and double");
    println!("bisection width; the gap is largest for traffic-heavy mappings.");
}
