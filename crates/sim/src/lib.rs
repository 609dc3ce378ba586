//! Cycle-level simulator for the Azul accelerator (Sec. V, VI-A).
//!
//! The paper evaluates Azul "using a cycle-level simulator with detailed
//! timing models for the PEs and network — we model each hardware component
//! as an object and tick each object for each cycle". This crate is that
//! simulator:
//!
//! * [`config::SimConfig`] — the hardware configuration (Table III) plus
//!   the PE model selector: the specialized Azul PE, Dalorex's in-order
//!   scalar core (control-overhead model), or an idealized PE (used for
//!   the mapping studies of Figs. 10/11);
//! * [`program`] — the compiler from a (matrix, placement) pair to
//!   per-tile dataflow task programs for SpMV and SpTRSV (Sec. IV-A:
//!   SendV / ScaleAndAccumCol / ReduceY / Solve tasks, multicast and
//!   reduction trees);
//! * [`router`] — the 2-D-torus packet-switched NoC with per-cycle link
//!   arbitration, bounded queues and tree forwarding;
//! * [`pe`] — the multithreaded PE pipeline: one operation per cycle,
//!   RAW-hazard detection on accumulator slots, message-driven task
//!   dispatch, Fmac/Add/Mul/Send operation mix (Fig. 21's categories);
//! * [`machine`] — the tick engine that runs one kernel to quiescence,
//!   co-simulating function (real `f64` arithmetic, validated against
//!   `azul-solver`) and timing;
//! * [`vecops`] — timing of the purely local dense-vector kernels and the
//!   scalar all-reduce trees of the dot products;
//! * [`invariants`] — debug-gated runtime audit of the machine's
//!   conservation laws (flit conservation, buffer bounds, trace
//!   monotonicity, aggregate-vs-detail cross-checks), enabled via
//!   `SimConfig::check_invariants`;
//! * [`solver`] — the public simulated solver: one [`SimSolver`] runs PCG
//!   (Listing 1 on the accelerator), BiCGStab or restarted GMRES, chosen
//!   by a [`Method`], through the same compiled kernels, producing
//!   per-kernel cycle, operation, traffic and energy-activity breakdowns;
//! * `driver` (crate-private) — the iteration state machine the three
//!   methods share: timed-kernel accounting, cancellation, checkpoints
//!   and rollback, the NaN/divergence/breakdown guards, the ABFT ladder,
//!   the residual audits, stagnation and cycle-budget checks, and the
//!   convergence telemetry; `pcg`, `bicgstab` and `gmres` (crate-private)
//!   hold only each method's recurrence;
//! * [`telemetry`] — conversion of [`stats::KernelStats`] (including the
//!   per-PE/per-link detail collected under
//!   `SimConfig::detailed_stats`) into `azul-telemetry` reports;
//! * [`profile`] — host-side self-profiling probes attributing the
//!   simulator's *wall time* to its components (tick loop, router
//!   arbitration, PE execute, barrier/commit, fast-forward, stats),
//!   inert unless a harness enables them.
//!
//! # Example
//!
//! ```
//! use azul_sim::{Method, SimConfig, SimSolver, SimSolverConfig};
//! use azul_mapping::{strategies::{Mapper, AzulMapper}, TileGrid};
//! use azul_sparse::generate;
//!
//! let a = generate::grid_laplacian_2d(8, 8);
//! let b = vec![1.0; a.rows()];
//! let grid = TileGrid::new(2, 2);
//! let placement = AzulMapper::default().map(&a, grid);
//! let sim = SimSolver::build(&a, &placement, &SimConfig::azul(grid)).unwrap();
//! for method in [Method::Pcg, Method::BiCgStab, Method::Gmres { restart: 30 }] {
//!     let run_cfg = SimSolverConfig { method, ..Default::default() };
//!     let report = sim.try_run(&b, &run_cfg)?;
//!     assert!(report.converged);
//!     assert!(report.total_cycles > 0);
//! }
//! # Ok::<(), azul_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]

mod bicgstab;
pub mod cancel;
pub mod config;
mod driver;
pub mod faults;
mod gmres;
pub mod invariants;
pub mod machine;
mod pcg;
pub mod pe;
pub mod profile;
pub mod program;
pub mod router;
pub mod solver;
pub mod stats;
pub mod telemetry;
pub mod vecops;

pub use cancel::CancelToken;
pub use config::{PeModel, SimConfig};
pub use faults::{
    DriftSample, FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultSession, IntegrityAudit,
    IntegrityPolicy, IntegrityRecord, RecoveryPolicy, RecoveryRecord,
};
pub use machine::SimError;
pub use solver::{Method, SimSolver, SimSolverConfig, SimSolverReport};
pub use stats::{KernelClass, KernelStats, OpKind};

/// The PCG-era names of the solver types, kept for existing callers.
pub type PcgSim = SimSolver;
/// See [`PcgSim`].
pub type PcgSimConfig = SimSolverConfig;
/// See [`PcgSim`].
pub type PcgSimReport = SimSolverReport;
