//! Detection-coverage campaign for the numerical-integrity subsystem:
//! seeded single-bit SRAM flips swept across (tile × accumulator slot ×
//! bit position), each injected mid-solve into a cycle-timed run of each
//! simulated solver (PCG, BiCGStab, GMRES) with
//! [`IntegrityPolicy::audit`] armed.
//!
//! Every run is classified into exactly one bucket:
//!
//! - **harmless** — the flip never landed (dead slot, solve finished
//!   first) or landed without moving the answer past the tolerance, so
//!   no intervention was needed and none fired.
//! - **recovered** — an integrity check or divergence guard flagged the
//!   flip and the rollback ladder carried the solve back to the
//!   fault-free tolerance.
//! - **detected** — the corruption was flagged (checksum violation,
//!   rollback, or a loud non-converged status) but the solve ended
//!   without a clean answer; the wrong answer was *refused*, not
//!   shipped.
//! - **escaped** — the solver declared convergence while the true
//!   residual `||b - A·x||` missed the tolerance. This is the silent
//!   wrong answer the subsystem exists to eliminate; the campaign
//!   asserts the count is zero and exits nonzero otherwise.
//!
//! Emits `BENCH_integrity.json`: one telemetry document per sweep point
//! (scenario = solver/tile/slot/bit/at_cycle/outcome, plus the fault
//! journal and the schema-v7 `integrity` section) and a trailing
//! `summary` document carrying the four bucket counters, overall and
//! per solver (`pcg_escaped`, `gmres_recovered`, ...).
//!
//! `AZUL_INTEGRITY_FAST=1` shrinks the sweep to a 3-point subset per
//! solver for CI smoke jobs; the full sweep is 4 tiles × 2 slots × 6
//! bits = 48 runs per solver.

use azul_bench::{header, row, write_bench_artifact};
use azul_mapping::strategies::{Mapper, RoundRobinMapper};
use azul_mapping::Placement;
use azul_mapping::TileGrid;
use azul_sim::config::SimConfig;
use azul_sim::faults::{FaultEvent, FaultKind, FaultPlan, IntegrityPolicy};
use azul_sim::telemetry::{describe_config, fill_fault_report, fill_integrity_report, fill_report};
use azul_sim::{Method, SimSolver, SimSolverConfig, SimSolverReport};
use azul_sparse::{dense, generate, Csr};
use azul_telemetry::report::TelemetryReport;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Harmless,
    Recovered,
    Detected,
    Escaped,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Harmless => "harmless",
            Outcome::Recovered => "recovered",
            Outcome::Detected => "detected",
            Outcome::Escaped => "escaped",
        }
    }
}

const SOLVERS: [Method; 3] = [Method::Pcg, Method::BiCgStab, Method::Gmres { restart: 30 }];

/// Solves `a x = b` with `method` under the campaign's run settings.
fn solve(
    method: Method,
    a: &Csr,
    placement: &Placement,
    cfg: &SimConfig,
    b: &[f64],
    run_cfg: &SimSolverConfig,
) -> SimSolverReport {
    let sim = SimSolver::build(a, placement, cfg).expect("IC(0) succeeds");
    let run_cfg = SimSolverConfig { method, ..*run_cfg };
    sim.try_run(b, &run_cfg).expect("simulated solve runs")
}

/// True residual of the returned iterate, independent of every residual
/// the solver itself maintained.
fn true_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
    dense::norm2(&r)
}

/// Classifies one faulted run. `escape_tol` carries slack over the
/// solve tolerance matching the final audit's drift bound, so rounding
/// on a legitimately converged answer is never miscounted as an escape.
fn classify(report: &SimSolverReport, true_r: f64, escape_tol: f64) -> Outcome {
    let landed = report.fault_events.iter().any(|f| f.applied);
    let flagged = !report.integrity.violations.is_empty() || !report.recoveries.is_empty();
    let clean = report.converged && true_r <= escape_tol;
    if report.integrity.escapes > 0 || (report.converged && true_r > escape_tol) {
        Outcome::Escaped
    } else if !landed {
        Outcome::Harmless
    } else if flagged && clean {
        Outcome::Recovered
    } else if flagged || !report.converged {
        Outcome::Detected
    } else {
        Outcome::Harmless
    }
}

fn main() {
    let fast = std::env::var("AZUL_INTEGRITY_FAST").is_ok_and(|v| v == "1");
    // Fixed campaign geometry: the sweep axes are the experiment, so the
    // shared AZUL_BENCH_GRID/SCALE knobs are deliberately not honored.
    let a = generate::grid_laplacian_2d(16, 16);
    let grid = TileGrid::new(2, 2);
    let placement = RoundRobinMapper.map(&a, grid);
    let n = a.rows();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 31 % 17) as f64) / 17.0 + 0.25)
        .collect();

    let run_cfg = SimSolverConfig {
        timed_iterations: 0, // every iteration cycle-timed => every launch checksummed
        integrity: IntegrityPolicy::audit(),
        ..Default::default()
    };
    // The final audit admits drift_factor·tol plus a rounding floor;
    // anything converged beyond that slack is a genuine wrong answer.
    let escape_tol = run_cfg.integrity.drift_factor * run_cfg.tol;

    // Fault-free baselines fix the expected answer quality.
    let clean_cfg = SimConfig::azul(grid);
    for solver in SOLVERS {
        let clean = solve(solver, &a, &placement, &clean_cfg, &b, &run_cfg);
        assert!(
            clean.converged,
            "fault-free {} baseline must converge",
            solver.name()
        );
        assert!(
            clean.integrity.violations.is_empty() && clean.integrity.escapes == 0,
            "fault-free {} baseline must audit clean",
            solver.name()
        );
    }

    // The fast subset replays tile 0 / slot 0 from the full sweep — a
    // slot that is live mid-solve, so high bits exercise the detect +
    // rollback ladder while bit 12 stays below the noise floor.
    let tiles: &[u32] = if fast { &[0] } else { &[0, 1, 2, 3] };
    let slots: &[u32] = if fast { &[0] } else { &[0, 1] };
    let bits: &[u32] = if fast {
        &[62, 52, 12]
    } else {
        &[62, 52, 40, 30, 12, 1]
    };

    header(
        "Integrity — seeded bit-flip detection coverage (tile × slot × bit)",
        "acceptance: zero wrong-answer escapes across the sweep",
    );
    row(
        "point",
        &[
            "outcome".into(),
            "violations".into(),
            "rollbacks".into(),
            "true resid".into(),
        ],
    );

    let mut reports: Vec<TelemetryReport> = Vec::new();
    // harmless, recovered, detected, escaped — per solver
    let mut counts = [[0u64; 4]; SOLVERS.len()];
    for (si, solver) in SOLVERS.into_iter().enumerate() {
        for &tile in tiles {
            for &slot in slots {
                for &bit in bits {
                    // Scatter injection cycles deterministically across
                    // the first ~20 iterations (~2300 cycles each) so the
                    // sweep samples the whole live window, not one phase.
                    // A pure function of the sweep point (not of
                    // iteration order), so the fast subset replays
                    // exactly the runs the full sweep would.
                    let key = u64::from(tile) * 31 + u64::from(slot) * 17 + u64::from(bit);
                    let at_cycle = 2_000 + (key * 1_733) % 40_000;
                    let mut cfg = SimConfig::azul(grid);
                    cfg.faults = Some(FaultPlan::new(vec![FaultEvent {
                        at_cycle,
                        kind: FaultKind::SramBitFlip { tile, slot, bit },
                    }]));
                    let report = solve(solver, &a, &placement, &cfg, &b, &run_cfg);
                    let true_r = true_residual(&a, &b, &report.x);
                    let outcome = classify(&report, true_r, escape_tol);
                    counts[si][match outcome {
                        Outcome::Harmless => 0,
                        Outcome::Recovered => 1,
                        Outcome::Detected => 2,
                        Outcome::Escaped => 3,
                    }] += 1;

                    row(
                        &format!("{} t{tile} s{slot} b{bit}", solver.name()),
                        &[
                            outcome.name().into(),
                            format!("{}", report.integrity.violations.len()),
                            format!("{}", report.recoveries.len()),
                            format!("{true_r:.2e}"),
                        ],
                    );

                    let mut doc = TelemetryReport::default();
                    doc.scenario_field("section", "sweep");
                    doc.scenario_field("solver", solver.name());
                    doc.scenario_field("tile", u64::from(tile));
                    doc.scenario_field("slot", u64::from(slot));
                    doc.scenario_field("bit", u64::from(bit));
                    doc.scenario_field("at_cycle", at_cycle);
                    doc.scenario_field("outcome", outcome.name());
                    describe_config(&mut doc, &cfg);
                    fill_report(&mut doc, &cfg, &report.stats);
                    fill_fault_report(&mut doc, &report.fault_events, &report.recoveries);
                    fill_integrity_report(&mut doc, &report.integrity);
                    doc.counter("iterations", report.iterations as u64);
                    doc.counter("converged", u64::from(report.converged));
                    reports.push(doc);
                }
            }
        }
    }

    let buckets = ["harmless", "recovered", "detected", "escaped"];
    let mut totals = [0u64; 4];
    let mut summary = TelemetryReport::default();
    summary.scenario_field("section", "summary");
    println!();
    for (solver, c) in SOLVERS.iter().zip(&counts) {
        for (k, name) in buckets.iter().enumerate() {
            totals[k] += c[k];
            summary.counter(&format!("{}_{name}", solver.name()), c[k]);
        }
        summary.counter(&format!("{}_runs", solver.name()), c.iter().sum::<u64>());
        println!(
            "{} runs {}: harmless {}, recovered {}, detected {}, escaped {}",
            solver.name(),
            c.iter().sum::<u64>(),
            c[0],
            c[1],
            c[2],
            c[3]
        );
    }
    let total = totals.iter().sum::<u64>();
    summary.counter("runs", total);
    for (k, name) in buckets.iter().enumerate() {
        summary.counter(name, totals[k]);
    }
    reports.push(summary);
    println!(
        "runs {total}: harmless {}, recovered {}, detected {}, escaped {}",
        totals[0], totals[1], totals[2], totals[3]
    );

    match write_bench_artifact("integrity", &reports) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_integrity.json: {e}");
            std::process::exit(1);
        }
    }

    assert!(
        totals[1] + totals[2] > 0,
        "the sweep must exercise the detection ladder at least once"
    );
    if totals[3] > 0 {
        eprintln!(
            "FAIL: {} wrong-answer escape(s) — corrupted solves shipped as converged",
            totals[3]
        );
        std::process::exit(1);
    }
    println!("PASS: zero wrong-answer escapes");
}
