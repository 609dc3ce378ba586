//! The traced replay: each served request re-run layer by layer through
//! the public entry point of every crate on its path, with a span
//! around each call. The calls mirror what the supervisor does on rung
//! 0 (`prepare_first_rung` + `solve_prepared`), so a replayed solve
//! must reproduce the served solve's simulated cycles and iterations
//! exactly; `main` checks that.

use azul_mapping::traffic::{pcg_iteration_traffic, TrafficReport};
use azul_mapping::workload::build_pcg_hypergraph;
use azul_mapping::{AzulMapper, Mapper, Placement, TileGrid};
use azul_sim::profile::{self, ProfileSnapshot};
use azul_sim::{PcgSim, PcgSimConfig, PcgSimReport, SimConfig};
use azul_solver::OperatorChecksum;
use azul_sparse::coloring::{color_and_permute, ColoringStrategy};
use azul_sparse::{Csr, Permutation};

use crate::trace::Tracer;

/// Rung-0 prepare products plus the static counters taken from them.
pub struct Prepared {
    pa: Csr,
    perm: Permutation,
    placement: Placement,
    factor: Csr,
    pub colors: u64,
    pub pins: u64,
    pub traffic: TrafficReport,
}

impl Prepared {
    pub fn nnz_imbalance(&self) -> f64 {
        self.placement.nnz_imbalance()
    }
}

/// Coloring, mapping and IC(0), as the supervisor's rung 0 runs them,
/// then the static traffic model of the placement (outside
/// `core.prepare`: the service never runs it).
pub fn prepare(t: &mut Tracer, request: u64, a: &Csr, grid: TileGrid) -> Prepared {
    t.enter("core.prepare", request);
    let (pa, perm, coloring) = t.time("sparse.coloring", request, || {
        color_and_permute(a, ColoringStrategy::LargestDegreeFirst)
    });
    let mapper = AzulMapper::default();
    // `AzulMapper::map` builds this hypergraph again before it
    // partitions; the partition's time is `mapping.map` minus this span.
    let pins = t.time("mapping.hypergraph_build", request, || {
        build_pcg_hypergraph(&pa, mapper.row_edge_weight, mapper.quantiles)
            .hg
            .num_pins() as u64
    });
    let placement = t.time("mapping.map", request, || mapper.map(&pa, grid));
    let factor = t.time("solver.ic0", request, || {
        azul_solver::ic0::ic0(&pa).expect("IC(0) of an SPD suite analog")
    });
    t.exit();
    let traffic = t.time("mapping.traffic_model", request, || {
        pcg_iteration_traffic(&pa, &placement)
    });
    Prepared {
        colors: coloring.num_colors() as u64,
        pins,
        traffic,
        pa,
        perm,
        placement,
        factor,
    }
}

/// Kernel compile and the simulated PCG run, plus the cache scrub's
/// checksum recomputation when the service scrubbed this request.
pub fn solve(
    t: &mut Tracer,
    request: u64,
    prep: &Prepared,
    b: &[f64],
    sim_cfg: &SimConfig,
    run_cfg: &PcgSimConfig,
    scrub: bool,
) -> PcgSimReport {
    t.enter("core.solve", request);
    if scrub {
        t.time("solver.abft_scrub", request, || {
            std::hint::black_box((
                OperatorChecksum::new(&prep.pa),
                OperatorChecksum::new(&prep.factor),
            ))
        });
    }
    let pb = prep.perm.apply(b);
    let sim = t.time("sim.compile", request, || {
        PcgSim::build_with_factor(&prep.pa, &prep.factor, &prep.placement, sim_cfg)
    });
    let report = t.time("sim.run", request, || sim.try_run(&pb, run_cfg));
    t.exit();
    report.expect("replayed solve runs")
}

/// Runs the solve once more with the simulator's own host profiler on,
/// for the tick-loop component times. Kept apart from [`solve`] so the
/// profiler's probe cost never lands in `sim.run`.
pub fn profile_tick_loop(
    t: &mut Tracer,
    request: u64,
    prep: &Prepared,
    b: &[f64],
    sim_cfg: &SimConfig,
    run_cfg: &PcgSimConfig,
) -> ProfileSnapshot {
    let pb = prep.perm.apply(b);
    let sim = PcgSim::build_with_factor(&prep.pa, &prep.factor, &prep.placement, sim_cfg);
    t.enter("sim.run_profiled", request);
    profile::reset();
    profile::enable();
    let report = sim.try_run(&pb, run_cfg);
    profile::disable();
    t.exit();
    report.expect("profiled solve runs");
    profile::snapshot()
}
