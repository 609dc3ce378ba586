//! Structural dynamics with state-dependent stiffness — the Sec. II-C
//! case the paper calls out ("when simulating elastic bodies, the
//! stiffness matrix A changes with the system state... its sparsity
//! structure is static").
//!
//! Each timestep: solve `A(x) v = f`, update the state from `v`, then
//! update `A`'s *values* (never its pattern) and keep solving — the
//! expensive hypergraph mapping is computed once and reused via
//! `PreparedSolver::update_values`.
//!
//! Run with: `cargo run --release --example structural_dynamics`

use azul::mapping::TileGrid;
use azul::sparse::{dense, generate, Csr};
use azul::{Azul, AzulConfig};

/// Re-assembles the stiffness values as a function of the state: soft
/// regions (large |x_i|) get weaker couplings, exactly preserving the
/// sparsity pattern and symmetry.
fn restiffen(base: &Csr, state: &[f64]) -> Csr {
    let mut a = base.clone();
    let n = a.rows();
    let row_ptr = a.row_ptr().to_vec();
    let col_idx = a.col_idx().to_vec();
    let soft: Vec<f64> = state.iter().map(|&s| 1.0 / (1.0 + 0.2 * s.abs())).collect();
    // First pass: scale off-diagonals symmetrically.
    let vals = a.values_mut();
    let mut row_abs = vec![0.0f64; n];
    for i in 0..n {
        for p in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[p];
            if j != i {
                // Symmetric scaling keeps A symmetric.
                vals[p] = base.values()[p] * soft[i].min(soft[j]);
                row_abs[i] += vals[p].abs();
            }
        }
    }
    // Second pass: keep the diagonal dominant (SPD).
    let vals = a.values_mut();
    for i in 0..n {
        for p in row_ptr[i]..row_ptr[i + 1] {
            if col_idx[p] == i {
                vals[p] = row_abs[i] * 1.05 + 0.01;
            }
        }
    }
    a
}

fn main() -> Result<(), azul::AzulError> {
    // The mesh: a 3-D elastic body; its connectivity never changes.
    let base = generate::fem_mesh_3d(600, 8, 4242);
    let n = base.rows();
    println!("elastic body: n={n} nnz={} (pattern static)", base.nnz());

    let mut cfg = AzulConfig::new(TileGrid::square(8));
    cfg.pcg.tol = 1e-8;
    let azul = Azul::new(cfg);

    // State starts at rest; a constant force drives it.
    let mut state = vec![0.0f64; n];
    let force: Vec<f64> = (0..n)
        .map(|i| ((i * 31 % 11) as f64) / 11.0 - 0.3)
        .collect();

    let t0 = std::time::Instant::now();
    let mut a = restiffen(&base, &state);
    let mut prepared = azul.prepare(&a)?;
    println!(
        "mapped once in {:.2}s (reused across all timesteps)",
        prepared.prepare_report().mapping_seconds
    );

    for step in 0..6 {
        let report = prepared.try_solve(&force)?;
        assert!(report.converged, "step {step} diverged");
        // Residual check against the *current* A.
        let residual = dense::norm2(&dense::sub(&force, &a.spmv(&report.x)));
        assert!(residual < 1e-6);
        // Integrate and re-stiffen: new values, same pattern, same mapping.
        dense::axpy(0.5, &report.x, &mut state);
        a = restiffen(&base, &state);
        prepared.update_values(&a)?;
        println!(
            "step {step}: |v|={:.4} iters={} {:.1} GFLOP/s (value update, no re-mapping)",
            dense::norm2(&report.x),
            report.iterations,
            report.gflops
        );
    }
    println!("total wall time {:.2?} for 6 coupled solves", t0.elapsed());
    Ok(())
}
