//! Host-side self-profile: where does the simulator's own wall time go?
//!
//! The companion of `sim_perf`: that bench measures *how fast* the tick
//! engine runs, this one measures *where the time goes* inside it —
//! router arbitration, PE execute, the barrier/commit phase,
//! fast-forward scanning, and stats sampling, attributed via the
//! [`azul_sim::profile`] probes (the only sanctioned wall-clock use in
//! the sim crate; see the `wall-clock-in-sim` lint rule).
//!
//! Runs a full PCG solve with `threads = 1` so the inner probe scopes
//! nest strictly inside the `tick_loop` scope and shares are
//! well-defined, then writes `BENCH_sim_profile.json` with one
//! `share_ppm_<component>` field per component plus the unattributed
//! remainder. The shares must cover the tick loop: their sum is
//! asserted to land within 1% of 100%.

use azul_bench::{header, prepare, row, write_bench_artifact, BenchCtx};
use azul_mapping::strategies::Mapper;
use azul_sim::config::SimConfig;
use azul_sim::profile::{self, Component, ALL};
use azul_sim::SimSolver;
use azul_sparse::suite;
use azul_telemetry::TelemetryReport;

fn main() {
    let ctx = BenchCtx::from_env();
    header(
        "sim_profile — host wall-time attribution of the tick engine",
        "",
    );
    let m = prepare(suite::by_name("thermal2").unwrap(), ctx.scale);
    let placement = ctx.azul_mapper().map(&m.a, ctx.grid);

    // One worker: with a pool, shard workers run concurrently and their
    // probe times overlap the coordinator's, so "share of the tick
    // loop" would stop being a partition of anything.
    let mut cfg = SimConfig::azul(ctx.grid);
    cfg.threads = 1;
    // Fast-forward on, so its scanning cost shows up as a component
    // instead of hiding inside "other" idle ticks.
    cfg.fast_forward = true;
    let sim = SimSolver::build(&m.a, &placement, &cfg).expect("IC(0) succeeds on suite matrices");

    profile::reset();
    profile::enable();
    let rep = sim
        .try_run(&m.b, &ctx.pcg_cfg())
        .expect("simulated solve runs");
    profile::disable();
    let snap = profile::snapshot();

    assert!(
        snap.calls(Component::TickLoop) > 0,
        "the solve must have entered the tick loop"
    );

    row(
        "component",
        &["wall ms".into(), "calls".into(), "share".into()],
    );
    for &c in ALL.iter() {
        let share = if c == Component::TickLoop {
            "100.0%".to_string()
        } else {
            format!("{:.1}%", snap.share_ppm(c) as f64 / 10_000.0)
        };
        row(
            c.name(),
            &[
                format!("{:.2}", snap.wall_ns(c) as f64 / 1e6),
                format!("{}", snap.calls(c)),
                share,
            ],
        );
    }
    row(
        "other",
        &[
            String::new(),
            String::new(),
            format!("{:.1}%", snap.other_ppm() as f64 / 10_000.0),
        ],
    );

    // The inner components plus the unattributed remainder must cover
    // the tick loop. Probe overhead can push the measured sum slightly
    // past 100%; anything outside 1% means a probe is misplaced (e.g.
    // nested double-counting or a scope outside the loop).
    let inner: u64 = ALL
        .iter()
        .filter(|&&c| c != Component::TickLoop)
        .map(|&c| snap.share_ppm(c))
        .sum();
    let total_ppm = inner + snap.other_ppm();
    assert!(
        (990_000..=1_010_000).contains(&total_ppm),
        "component shares + remainder must cover the tick loop \
         (got {total_ppm} ppm)"
    );

    let mut doc = TelemetryReport::default();
    doc.scenario_field("bench", "sim_profile");
    doc.scenario_field("matrix", m.name);
    doc.scenario_field("n", m.a.rows() as u64);
    doc.scenario_field("nnz", m.a.nnz() as u64);
    doc.scenario_field("threads", 1u64);
    doc.scenario_field("total_cycles", rep.total_cycles);
    azul_sim::telemetry::describe_config(&mut doc, &cfg);
    for &c in ALL.iter() {
        doc.counter(&format!("profile_wall_ns_{}", c.name()), snap.wall_ns(c));
        doc.counter(&format!("profile_calls_{}", c.name()), snap.calls(c));
        if c != Component::TickLoop {
            doc.counter(&format!("share_ppm_{}", c.name()), snap.share_ppm(c));
        }
    }
    doc.counter("share_ppm_other", snap.other_ppm());
    doc.counter("share_ppm_total", total_ppm);

    match write_bench_artifact("sim_profile", &[doc]) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => println!("artifact write failed: {e}"),
    }
    println!(
        "headline: {} ppm of tick-loop wall time attributed ({} components + other)",
        total_ppm,
        ALL.len() - 1
    );
}
