//! Cross-crate integration tests: the full pipeline (generate → color →
//! map → factor → compile → simulate) validated against the reference
//! solvers, across matrices, mappers and PE models.

use azul::mapping::strategies::{AzulMapper, BlockMapper, Mapper, RoundRobinMapper, SparsePMapper};
use azul::mapping::TileGrid;
use azul::sim::config::SimConfig;
use azul::sim::machine::run_kernel;
use azul::sim::program::Program;
use azul::sim::{SimSolver, SimSolverConfig};
use azul::solver::ic0::ic0;
use azul::solver::precond::IncompleteCholesky;
use azul::solver::{pcg, PcgConfig};
use azul::sparse::coloring::{color_and_permute, ColoringStrategy};
use azul::sparse::suite::{by_name, Scale};
use azul::sparse::{dense, generate, Csr};
use azul::{Azul, AzulConfig, MappingStrategy};

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 % 19) as f64) / 19.0 + 0.5)
        .collect()
}

/// The simulated accelerator's PCG must take exactly the same iteration
/// count and produce the same solution as the reference PCG with the same
/// IC(0) preconditioner, for several suite matrices.
#[test]
fn simulated_pcg_matches_reference_on_suite_matrices() {
    for name in ["consph", "thermal2", "shipsec1"] {
        let raw = by_name(name).unwrap().build(Scale::Tiny);
        let (a, _, _) = color_and_permute(&raw, ColoringStrategy::LargestDegreeFirst);
        let b = rhs(a.rows());
        let grid = TileGrid::new(4, 4);
        let placement = AzulMapper {
            fast: true,
            ..Default::default()
        }
        .map(&a, grid);
        let sim = SimSolver::build(&a, &placement, &SimConfig::azul(grid)).unwrap();
        let sim_out = sim.try_run(&b, &SimSolverConfig::default()).unwrap();

        let m = IncompleteCholesky::new(&a).unwrap();
        let ref_out = pcg(&a, &b, &m, &PcgConfig::default());

        assert!(sim_out.converged, "{name}: simulator did not converge");
        assert_eq!(
            sim_out.iterations, ref_out.iterations,
            "{name}: iteration count differs from reference"
        );
        assert!(
            dense::rel_l2_diff(&sim_out.x, &ref_out.x) < 1e-6,
            "{name}: solutions differ"
        );
    }
}

/// Every mapper and every PE model computes identical kernel results —
/// mapping and microarchitecture change timing, never values.
#[test]
fn all_mappers_and_pe_models_agree_functionally() {
    let a = generate::fem_mesh_3d(150, 6, 99);
    let grid = TileGrid::new(4, 4);
    let x = rhs(a.rows());
    let expect = a.spmv(&x);
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(RoundRobinMapper),
        Box::new(BlockMapper),
        Box::new(SparsePMapper),
        Box::new(AzulMapper::fast_default()),
    ];
    for mapper in &mappers {
        let placement = mapper.map(&a, grid);
        let prog = Program::compile_spmv(&a, &placement);
        for cfg in [
            SimConfig::azul(grid),
            SimConfig::dalorex(grid),
            SimConfig::ideal(grid),
        ] {
            let (y, _) = run_kernel(&cfg, &prog, &x);
            assert!(
                dense::max_abs_diff(&y, &expect) < 1e-9,
                "{} under {:?} diverges",
                mapper.name(),
                cfg.pe_model
            );
        }
    }
}

/// The simulated SpMV's link activations equal the static traffic model's
/// prediction exactly: each multicast/reduction tree is traversed once.
#[test]
fn simulated_traffic_matches_static_model() {
    let a = generate::fem_mesh_3d(120, 5, 55);
    let grid = TileGrid::new(4, 4);
    for mapper in [
        Box::new(RoundRobinMapper) as Box<dyn Mapper>,
        Box::new(BlockMapper),
    ] {
        let placement = mapper.map(&a, grid);
        let prog = Program::compile_spmv(&a, &placement);
        let x = rhs(a.rows());
        let (_, stats) = run_kernel(&SimConfig::ideal(grid), &prog, &x);
        let static_traffic = azul::mapping::traffic::spmv_traffic(&a, &placement);
        assert_eq!(
            stats.link_activations,
            static_traffic.link_hops,
            "{}: dynamic and static traffic disagree",
            mapper.name()
        );
    }
}

/// SpTRSV on the simulator matches the reference triangular solves for
/// both L and L^T, including through the full permuted pipeline.
#[test]
fn simulated_triangular_solves_match_reference() {
    let raw = by_name("apache2").unwrap().build(Scale::Tiny);
    let (a, _, _) = color_and_permute(&raw, ColoringStrategy::LargestDegreeFirst);
    let l = ic0(&a).unwrap();
    let grid = TileGrid::new(4, 4);
    let placement = BlockMapper.map(&a, grid);
    let b = rhs(a.rows());

    let lo = Program::compile_sptrsv_lower(&l, &a, &placement);
    let (x_lo, _) = run_kernel(&SimConfig::azul(grid), &lo, &b);
    let expect_lo = azul::solver::kernels::sptrsv_lower(&l, &b);
    assert!(dense::rel_l2_diff(&x_lo, &expect_lo) < 1e-9);

    let up = Program::compile_sptrsv_upper(&l, &a, &placement);
    let (x_up, _) = run_kernel(&SimConfig::azul(grid), &up, &b);
    let expect_up = azul::solver::kernels::sptrsv_lower_transpose(&l, &b);
    assert!(dense::rel_l2_diff(&x_up, &expect_up) < 1e-9);
}

/// The top-level API round-trips the permutation: solutions come back in
/// the caller's row order regardless of internal reordering.
#[test]
fn top_level_api_returns_unpermuted_solutions() {
    let a = generate::fem_mesh_3d(100, 5, 21);
    let b = rhs(a.rows());
    let mut cfg = AzulConfig::new(TileGrid::new(2, 2));
    cfg.mapping = MappingStrategy::Azul(AzulMapper::fast_default());
    let report = Azul::new(cfg).solve(&a, &b).unwrap();
    assert!(report.converged);
    let residual = dense::norm2(&dense::sub(&b, &a.spmv(&report.x)));
    assert!(residual < 1e-7, "residual {residual}");
}

/// Determinism: two identical end-to-end runs give bit-identical cycle
/// counts and solutions.
#[test]
fn pipeline_is_deterministic() {
    let a = generate::fem_mesh_3d(90, 4, 5);
    let b = rhs(a.rows());
    let run = || {
        let mut cfg = AzulConfig::new(TileGrid::new(2, 2));
        cfg.mapping = MappingStrategy::Azul(AzulMapper::fast_default());
        let rep = Azul::new(cfg).solve(&a, &b).unwrap();
        (rep.sim.total_cycles, rep.x)
    };
    let (c1, x1) = run();
    let (c2, x2) = run();
    assert_eq!(c1, c2, "cycle counts must be deterministic");
    assert_eq!(x1, x2, "solutions must be bit-identical");
}

/// A full matrix-market round trip through the pipeline: save, load,
/// solve.
#[test]
fn matrix_market_roundtrip_through_pipeline() {
    let a = generate::grid_laplacian_2d(8, 8);
    let mut buf = Vec::new();
    azul::sparse::io::write_matrix_market(&mut buf, &a).unwrap();
    let loaded: Csr = azul::sparse::io::read_matrix_market(buf.as_slice()).unwrap();
    assert_eq!(loaded, a);
    let b = rhs(a.rows());
    let report = Azul::new(AzulConfig::small_test())
        .solve(&loaded, &b)
        .unwrap();
    assert!(report.converged);
}
