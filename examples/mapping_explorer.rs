//! Mapping explorer: compare the four data-mapping strategies of
//! Sec. IV/VI-C on an unstructured FEM-like mesh — the workload class
//! where position-based mappings fall apart.
//!
//! Run with: `cargo run --release --example mapping_explorer`

use azul::mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper, SparsePMapper};
use azul::mapping::traffic::pcg_iteration_traffic;
use azul::mapping::TileGrid;
use azul::sim::config::SimConfig;
use azul::sim::{SimSolver, SimSolverConfig};
use azul::sparse::coloring::{color_and_permute, ColoringStrategy};
use azul::sparse::generate;

fn main() {
    // An unstructured 3-D mesh, colored and permuted as the paper does.
    let raw = generate::fem_mesh_3d(1000, 10, 2024);
    let (a, _, _) = color_and_permute(&raw, ColoringStrategy::LargestDegreeFirst);
    let grid = TileGrid::square(8);
    let sim_cfg = SimConfig::azul(grid);
    let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64).collect();
    println!(
        "mesh: n={} nnz={} on {}x{} tiles\n",
        a.rows(),
        a.nnz(),
        grid.width(),
        grid.height()
    );
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "mapping", "map time", "messages", "link hops", "cyc/iter", "GFLOP/s"
    );

    let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
        ("round-robin", Box::new(RoundRobinMapper)),
        ("block", Box::new(BlockMapper)),
        ("sparsep", Box::new(SparsePMapper)),
        ("azul", Box::new(AzulMapper::default())),
    ];

    let mut best: Option<(String, f64)> = None;
    for (name, mapper) in mappers {
        let t0 = std::time::Instant::now();
        let placement = mapper.map(&a, grid);
        let map_time = t0.elapsed();

        let traffic = pcg_iteration_traffic(&a, &placement);
        let pcg = SimSolver::build(&a, &placement, &sim_cfg).expect("IC(0) succeeds");
        let report = pcg
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
            "{:<14} {:>9.2?} {:>12} {:>12} {:>12.0} {:>10.1}",
            name,
            map_time,
            traffic.messages,
            traffic.link_hops,
            report.sim_cycles_per_iteration(),
            report.gflops
        );
        if best.as_ref().is_none_or(|(_, g)| report.gflops > *g) {
            best = Some((name.to_string(), report.gflops));
        }
    }
    let (winner, gf) = best.unwrap();
    println!("\nbest mapping: {winner} at {gf:.1} GFLOP/s");
}

/// Small extension trait to keep the table tidy.
trait ReportExt {
    fn sim_cycles_per_iteration(&self) -> f64;
}

impl ReportExt for azul::sim::SimSolverReport {
    fn sim_cycles_per_iteration(&self) -> f64 {
        self.cycles_per_iteration
    }
}
