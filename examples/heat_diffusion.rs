//! Time-stepped heat diffusion — the end-to-end application pattern of
//! Sec. II-C (Fig. 8): one linear solve per timestep, with the matrix
//! static across timesteps so the expensive mapping is amortized.
//!
//! Backward-Euler discretization of `du/dt = alpha * laplacian(u)` on a
//! 2-D plate: each step solves `(I + dt*alpha*L) u_next = u_now`.
//!
//! Run with: `cargo run --release --example heat_diffusion`

use azul::mapping::TileGrid;
use azul::sparse::{dense, generate, Coo};
use azul::{Azul, AzulConfig};

fn main() -> Result<(), azul::AzulError> {
    let (nx, ny) = (32usize, 32usize);
    let n = nx * ny;
    let dt_alpha = 0.2;

    // A = I + dt*alpha*L, SPD because L is positive semidefinite.
    let lap = generate::grid_laplacian_2d(nx, ny);
    let mut coo = Coo::new(n, n);
    for (r, c, v) in lap.iter() {
        let val = dt_alpha * v + if r == c { 1.0 } else { 0.0 };
        coo.push(r, c, val).expect("in bounds");
    }
    let a = coo.to_csr();

    // Initial condition: a hot square in the middle of a cold plate.
    let mut u: Vec<f64> = vec![0.0; n];
    for y in ny / 3..2 * ny / 3 {
        for x in nx / 3..2 * nx / 3 {
            u[y * nx + x] = 100.0;
        }
    }
    let initial_heat: f64 = u.iter().sum();

    // Prepare the accelerator once (Fig. 8: the mapping cost is recouped
    // across timesteps).
    let mut cfg = AzulConfig::new(TileGrid::square(8));
    cfg.pcg.tol = 1e-9;
    let azul = Azul::new(cfg);
    let prepared = azul.prepare(&a)?;
    println!(
        "prepared {}x{} heat system: mapping {:.2}s, {} colors",
        n,
        n,
        prepared.prepare_report().mapping_seconds,
        prepared.prepare_report().num_colors
    );

    let steps = 10;
    let mut total_accel_s = 0.0;
    let mut total_iters = 0;
    for step in 0..steps {
        let report = prepared.try_solve(&u)?;
        assert!(report.converged, "step {step} diverged");
        u = report.x;
        total_accel_s += report.accelerator_seconds;
        total_iters += report.iterations;
        let peak = u.iter().cloned().fold(0.0, f64::max);
        println!(
            "step {step:>2}: peak temperature {peak:>7.2}, {} iters, {:.1} GFLOP/s",
            report.iterations, report.gflops
        );
    }

    // Physics sanity: heat diffuses (peak falls) and is conserved up to
    // boundary losses (Dirichlet boundaries absorb heat, so total falls).
    let final_heat: f64 = u.iter().sum();
    println!("heat: initial {initial_heat:.0}, final {final_heat:.0} (boundaries absorb)");
    assert!(final_heat < initial_heat);
    assert!(dense::norm_inf(&u) < 100.0);
    println!(
        "{steps} timesteps: {total_iters} PCG iterations, {:.1} us total accelerator time",
        total_accel_s * 1e6
    );
    Ok(())
}
