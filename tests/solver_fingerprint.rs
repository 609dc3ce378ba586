//! Solver fingerprints: the exact behaviour of the simulated solver's
//! three methods (PCG, BiCGStab, GMRES) on the determinism scenario.
//!
//! Each case hashes, with FNV-1a 64, the full audited telemetry JSON of
//! one solve (scenario config, counters and per-PE/per-link detail,
//! fault and recovery journals, invariant audit, integrity journal and
//! convergence history), followed by the bits of `x`, `final_residual`,
//! `cycles_per_iteration` and `gflops`, the iteration count and the
//! status. A refactor of the iteration machinery that is meant to keep
//! behaviour (same cycles, same journals, same result bits) must keep
//! every hash; a change here fails by name.

use azul::mapping::strategies::{AzulMapper, Mapper};
use azul::mapping::TileGrid;
use azul::sim::config::{SimConfig, StagnationPolicy};
use azul::sim::faults::{FaultEvent, FaultKind, FaultPlan, IntegrityPolicy};
use azul::sim::telemetry::{
    describe_config, fill_fault_report, fill_integrity_report, fill_invariant_report, fill_report,
};
use azul::sim::{Method, SimSolver, SimSolverConfig, SimSolverReport};
use azul::sparse::generate;
use azul::telemetry::TelemetryReport;

/// FNV-1a 64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[derive(Clone, Copy)]
enum Solver {
    Pcg,
    Cg,
    BiCgStab,
    Gmres(usize),
}

#[derive(Clone, Copy)]
enum Scenario {
    /// Fault-free, every iteration cycle-timed.
    Clean,
    /// Fault-free with the default `timed_iterations`, so later
    /// iterations take the untimed functional path and the convergence
    /// history is back-filled with steady-state averages.
    DefaultTimed,
    /// `FaultPlan::seeded(42, 16, 3, 60_000)` with recovery on.
    Seeded,
    /// `IntegrityPolicy::audit()` plus one SRAM bit flip that the ABFT
    /// checksums catch and the rollback ladder repairs.
    Abft,
    /// A stagnation breakdown (PCG, BiCGStab, GMRES(30)) or a cycle-budget
    /// breakdown (CG, GMRES(5)).
    Breakdown,
}

/// The `tests/determinism.rs` scenario: 20×20 Laplacian on 4×4 tiles.
fn setup() -> (azul::sparse::Csr, azul::mapping::Placement, TileGrid) {
    let a = generate::grid_laplacian_2d(20, 20);
    let grid = TileGrid::new(4, 4);
    let p = AzulMapper::fast_default().map(&a, grid);
    (a, p, grid)
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 31 % 17) as f64) / 17.0)
        .collect()
}

/// The single flip of the [`Scenario::Abft`] case, per solver: chosen so
/// a checksum verification fails (the SpTRSV checksums for PCG and
/// GMRES(30), the SpMV checksums for the others), the reference kernel
/// confirms the deviation and the solve rolls back and converges.
fn abft_flip(solver: Solver) -> FaultPlan {
    let (at_cycle, tile) = match solver {
        Solver::Pcg | Solver::Gmres(30) => (5_000, 3),
        _ => (4_000, 0),
    };
    FaultPlan::new(vec![FaultEvent {
        at_cycle,
        kind: FaultKind::SramBitFlip {
            tile,
            slot: 0,
            bit: 62,
        },
    }])
}

/// The deterministic outputs of one solve.
struct Outcome {
    json: String,
    x: Vec<f64>,
    final_residual: f64,
    cycles_per_iteration: f64,
    gflops: f64,
    iterations: usize,
    status: String,
    reasons: Vec<String>,
}

fn outcome(cfg: &SimConfig, r: SimSolverReport) -> Outcome {
    let mut doc = TelemetryReport::default();
    describe_config(&mut doc, cfg);
    fill_report(&mut doc, cfg, &r.stats);
    fill_fault_report(&mut doc, &r.fault_events, &r.recoveries);
    fill_invariant_report(&mut doc, &r.stats);
    fill_integrity_report(&mut doc, &r.integrity);
    doc.convergence = r.convergence.clone();
    Outcome {
        json: doc.to_json().to_string_pretty(),
        reasons: r.recoveries.iter().map(|c| c.reason.clone()).collect(),
        x: r.x,
        final_residual: r.final_residual,
        cycles_per_iteration: r.cycles_per_iteration,
        gflops: r.gflops,
        iterations: r.iterations,
        status: format!("{:?}", r.status),
    }
}

fn run(solver: Solver, scenario: Scenario) -> Outcome {
    let o = solve(solver, scenario);
    if matches!(scenario, Scenario::Abft) {
        assert!(
            o.reasons.iter().any(|r| r.contains("checksum")),
            "the flip must force a checksum rollback: {:?}",
            o.reasons
        );
    }
    o
}

fn solve(solver: Solver, scenario: Scenario) -> Outcome {
    let (a, p, grid) = setup();
    let b = rhs(a.rows());
    let mut cfg = SimConfig::azul(grid);
    cfg.detailed_stats = true;
    cfg.check_invariants = true;
    cfg.faults = match scenario {
        Scenario::Seeded => Some(FaultPlan::seeded(42, 16, 3, 60_000)),
        Scenario::Abft => Some(abft_flip(solver)),
        _ => None,
    };
    let timed_iterations = match scenario {
        Scenario::DefaultTimed => SimSolverConfig::default().timed_iterations,
        _ => 0,
    };
    let integrity = match scenario {
        Scenario::Abft => IntegrityPolicy::audit(),
        _ => IntegrityPolicy::default(),
    };
    // Demand a 99.9% residual drop every iteration: even a healthy solve
    // "stagnates" by this bar. The budget stops the others well short of
    // convergence.
    let (stagnation, cycle_budget) = match (scenario, solver) {
        (Scenario::Breakdown, Solver::Cg | Solver::Gmres(5)) => (None, 20_000),
        (Scenario::Breakdown, _) => (Some(StagnationPolicy::new(1, 0.999)), u64::MAX),
        _ => (None, u64::MAX),
    };
    let sim = match solver {
        Solver::Cg => SimSolver::build_unpreconditioned(&a, &p, &cfg),
        _ => SimSolver::build(&a, &p, &cfg).expect("IC(0) build"),
    };
    let method = match solver {
        Solver::Pcg | Solver::Cg => Method::Pcg,
        Solver::BiCgStab => Method::BiCgStab,
        Solver::Gmres(restart) => Method::Gmres { restart },
    };
    let run_cfg = SimSolverConfig {
        method,
        timed_iterations,
        integrity,
        stagnation,
        cycle_budget,
        ..SimSolverConfig::default()
    };
    outcome(&cfg, sim.try_run(&b, &run_cfg).expect("simulated solve"))
}

fn hash(o: &Outcome) -> u64 {
    let mut h = Fnv::new();
    h.bytes(o.json.as_bytes());
    for &v in &o.x {
        h.f64(v);
    }
    h.f64(o.final_residual);
    h.f64(o.cycles_per_iteration);
    h.f64(o.gflops);
    h.u64(o.iterations as u64);
    h.bytes(o.status.as_bytes());
    h.0
}

/// The indefinite shifted Laplacian of the supervisor tests (10×10
/// grid, diagonal shifted by 4.73): every factored preconditioner breaks
/// down, PCG and BiCGStab fail on the strongly indefinite operator, and
/// full-restart GMRES converges.
fn supervised_ladder() -> u64 {
    use azul::supervisor::fill_supervisor_report;
    use azul::{AzulConfig, EscalationPolicy, MappingStrategy, SolveSupervisor, SolverChoice};

    let base = generate::grid_laplacian_2d(10, 10);
    let mut t = Vec::new();
    for r in 0..base.rows() {
        for (c, v) in base.row(r) {
            t.push((r, c, if r == c { v - 4.73 } else { v }));
        }
    }
    let a = azul::sparse::Coo::from_triplets(base.rows(), base.cols(), t)
        .expect("triplets are in range")
        .to_csr();
    let b: Vec<f64> = (0..a.rows())
        .map(|i| ((i * 13 % 9) as f64) / 9.0 + 0.2)
        .collect();
    let policy = EscalationPolicy {
        mappings: vec![MappingStrategy::RoundRobin],
        solvers: vec![
            SolverChoice::Pcg,
            SolverChoice::BiCgStab,
            SolverChoice::Gmres { restart: 120 },
        ],
        ..EscalationPolicy::default()
    };
    // Invariant checking defaults to on only in debug builds; pin it so
    // the journal is the same in every profile.
    let mut config = AzulConfig::small_test();
    config.sim.check_invariants = true;
    let sup = SolveSupervisor::with_policy(config, policy)
        .solve(&a, &b)
        .expect("supervised solve succeeds");
    let path: Vec<_> = sup
        .escalations
        .iter()
        .filter(|r| r.from == "bicgstab" || r.to == "bicgstab")
        .collect();
    assert_eq!(path.len(), 2, "the solver ladder walks through BiCGStab");
    assert_eq!(sup.solver, "gmres(120)");
    let mut doc = TelemetryReport::default();
    describe_config(&mut doc, &sup.sim_config);
    fill_report(&mut doc, &sup.sim_config, &sup.stats);
    fill_supervisor_report(&mut doc, &sup);
    doc.convergence = sup.convergence.clone();
    let mut h = Fnv::new();
    h.bytes(doc.to_json().to_string_pretty().as_bytes());
    for &v in &sup.x {
        h.f64(v);
    }
    h.f64(sup.final_residual);
    h.f64(sup.gflops);
    h.u64(sup.iterations as u64);
    h.u64(sup.total_cycles);
    h.u64(sup.attempts as u64);
    h.0
}

macro_rules! pinned {
    ($($name:ident: $solver:expr, $scenario:expr => $hash:literal;)*) => {$(
        #[test]
        fn $name() {
            let got = hash(&run($solver, $scenario));
            assert_eq!(got, $hash, "{} moved to {got:#018x}", stringify!($name));
        }
    )*};
}

pinned! {
    pcg_clean_is_pinned: Solver::Pcg, Scenario::Clean => 0xaf634c0edbbe8fb4;
    pcg_default_timed_is_pinned: Solver::Pcg, Scenario::DefaultTimed => 0x7708f09314e31c0c;
    pcg_seeded_faults_is_pinned: Solver::Pcg, Scenario::Seeded => 0x8fd7cdd2fce3a710;
    pcg_abft_rollback_is_pinned: Solver::Pcg, Scenario::Abft => 0x3e5e6d72c92a68e2;
    pcg_breakdown_is_pinned: Solver::Pcg, Scenario::Breakdown => 0xb45f2c9a81ea5136;
    cg_clean_is_pinned: Solver::Cg, Scenario::Clean => 0xb16844fbc9653576;
    cg_default_timed_is_pinned: Solver::Cg, Scenario::DefaultTimed => 0x8df7656b968c04e2;
    cg_seeded_faults_is_pinned: Solver::Cg, Scenario::Seeded => 0xb16844fbc9653576;
    cg_abft_rollback_is_pinned: Solver::Cg, Scenario::Abft => 0x361d68f1df73f26d;
    cg_breakdown_is_pinned: Solver::Cg, Scenario::Breakdown => 0xe62ca6be24bd125c;
    bicgstab_clean_is_pinned: Solver::BiCgStab, Scenario::Clean => 0xb81650c2f0a0fc81;
    bicgstab_default_timed_is_pinned: Solver::BiCgStab, Scenario::DefaultTimed => 0xbfbd86a3b045dc2b;
    bicgstab_seeded_faults_is_pinned: Solver::BiCgStab, Scenario::Seeded => 0x4c059277aa775184;
    bicgstab_abft_rollback_is_pinned: Solver::BiCgStab, Scenario::Abft => 0x0517ac3f207eb98a;
    bicgstab_breakdown_is_pinned: Solver::BiCgStab, Scenario::Breakdown => 0x541eaa6d43031c38;
    gmres30_clean_is_pinned: Solver::Gmres(30), Scenario::Clean => 0xb0ded7719e7d9d66;
    gmres30_default_timed_is_pinned: Solver::Gmres(30), Scenario::DefaultTimed => 0xf276472c99301de9;
    gmres30_seeded_faults_is_pinned: Solver::Gmres(30), Scenario::Seeded => 0x1fe59e4270cb9393;
    gmres30_abft_rollback_is_pinned: Solver::Gmres(30), Scenario::Abft => 0xe1eeb48e3f6a39e4;
    gmres30_breakdown_is_pinned: Solver::Gmres(30), Scenario::Breakdown => 0x7b91fbce221f85ba;
    gmres5_clean_is_pinned: Solver::Gmres(5), Scenario::Clean => 0xd8a6079978d77a1c;
    gmres5_default_timed_is_pinned: Solver::Gmres(5), Scenario::DefaultTimed => 0x85681df5ba808d6e;
    gmres5_seeded_faults_is_pinned: Solver::Gmres(5), Scenario::Seeded => 0xf6e340dfd6a7e498;
    gmres5_abft_rollback_is_pinned: Solver::Gmres(5), Scenario::Abft => 0xc7d13ee53a6aae6a;
    gmres5_breakdown_is_pinned: Solver::Gmres(5), Scenario::Breakdown => 0x92263e68e8afa59e;
}

#[test]
fn supervised_ladder_is_pinned() {
    let got = supervised_ladder();
    assert_eq!(got, 0xfcdfd195a478e880, "moved to {got:#018x}");
}
