//! Engine throughput: wall-clock cost of the cycle-accurate simulation
//! itself across the host-side engine knobs (worker threads ×
//! idle-cycle fast-forward).
//!
//! Unlike the `fig*`/`table*` targets, this bench measures the
//! *simulator*, not the simulated accelerator: simulated cycles per
//! host second for the same scenarios under every engine
//! configuration. The knobs must be performance-only — each run's
//! telemetry is re-serialized and compared byte-for-byte against the
//! `threads=1, fast_forward=off` baseline; any divergence aborts the
//! bench.
//!
//! Two sections:
//!
//! 1. **PCG engine matrix** — a full solve across (threads ×
//!    fast_forward). Thread scaling is bounded by host cores (the pool
//!    is capped at `available_parallelism`, so on a 1-core runner the
//!    thread axis measures sharding overhead only).
//! 2. **SpTRSV-heavy kernel** — a serial tridiagonal chain across the
//!    full grid, the dependence-limited tail the fast-forward path
//!    exists for: nearly every tile is idle nearly every cycle, so the
//!    clock can leap between events. The headline is the single-worker
//!    fast-forward speedup here.

use azul_bench::{header, prepare, row, telemetry_report, write_bench_artifact, BenchCtx};
use azul_mapping::strategies::{Mapper, RoundRobinMapper};
use azul_mapping::{Placement, TileGrid};
use azul_sim::config::SimConfig;
use azul_sim::machine::run_kernel;
use azul_sim::program::Program;
use azul_sim::SimSolver;
use azul_sparse::suite::Scale;
use azul_sparse::{generate, suite};
use azul_telemetry::TelemetryReport;
use std::time::Instant;

/// Engine configurations under test: (worker threads, fast_forward).
const CONFIGS: [(usize, bool); 6] = [
    (1, false),
    (1, true),
    (2, false),
    (2, true),
    (4, false),
    (4, true),
];

fn main() {
    let ctx = BenchCtx::from_env();
    assert!(
        ctx.grid.num_tiles() >= 256,
        "sim_perf wants at least a 16x16 grid (got {} tiles)",
        ctx.grid.num_tiles()
    );
    // This bench is the zero-trace baseline of the observability layer:
    // event tracing is opt-in, so the default config must measure the
    // untraced fast path and every artifact row says so.
    assert!(
        SimConfig::azul(ctx.grid).trace.is_none(),
        "sim_perf must measure the untraced fast path"
    );
    let mut reports: Vec<TelemetryReport> = Vec::new();

    // Section 1: full PCG solves across the engine matrix.
    header(
        "sim_perf §1 — PCG engine throughput across (threads x fast_forward)",
        "",
    );
    row(
        "matrix t/ff",
        &CONFIGS
            .iter()
            .map(|&(t, ff)| format!("{}w {}", t, if ff { "ff" } else { "--" }))
            .collect::<Vec<_>>(),
    );
    for name in ["nd12k", "thermal2"] {
        let m = prepare(suite::by_name(name).unwrap(), ctx.scale);
        let placement = ctx.azul_mapper().map(&m.a, ctx.grid);
        let mut cells = Vec::new();
        let mut walls = Vec::new();
        let mut baseline_json = String::new();
        for &(threads, ff) in &CONFIGS {
            let mut cfg = SimConfig::azul(ctx.grid);
            cfg.threads = threads;
            cfg.fast_forward = ff;
            let sim = SimSolver::build(&m.a, &placement, &cfg).expect("IC(0) succeeds");
            let t0 = Instant::now();
            let rep = sim
                .try_run(&m.b, &ctx.pcg_cfg())
                .expect("simulated solve runs");
            let wall = t0.elapsed().as_secs_f64();
            // Self-check before annotating with host timings: every
            // engine configuration must produce byte-identical
            // telemetry. This is the bench-side guard behind the
            // determinism test suite.
            let mut doc = telemetry_report(&m, &cfg, &rep);
            let key = doc.to_json().to_string_pretty();
            if threads == 1 && !ff {
                baseline_json = key;
            } else {
                assert_eq!(
                    key, baseline_json,
                    "{name}: telemetry diverged at threads={threads} fast_forward={ff}"
                );
            }
            let mcps = rep.total_cycles as f64 / wall / 1.0e6;
            doc.scenario_field("section", "pcg");
            doc.scenario_field("tracing", false);
            doc.scenario_field("threads", threads as u64);
            doc.scenario_field("fast_forward", ff);
            doc.scenario_field("wall_seconds", wall);
            doc.scenario_field("sim_mcycles_per_sec", mcps);
            reports.push(doc);
            walls.push(wall);
            cells.push(format!("{mcps:.2} Mc/s"));
        }
        row(name, &cells);
        println!(
            "{name:<14} threads=4 vs threads=1: {:.2}x   ff vs base (1 worker): {:.2}x",
            walls[0] / walls[4],
            walls[0] / walls[1]
        );
    }

    // Section 2: the dependence-limited SpTRSV tail. A tridiagonal
    // chain serializes the whole solve, and round-robin placement puts
    // every consecutive row on a different tile, so each row pays a
    // full NoC transit during which exactly one flit exists
    // machine-wide. At the paper's NoC-latency sensitivity points the
    // machine is idle for most cycles and the fast-forward path does
    // all the work.
    header(
        "sim_perf §2 — SpTRSV serial chain (fast-forward territory)",
        "",
    );
    let n = 64 * ctx.grid.num_tiles();
    let a = generate::tridiagonal(n);
    let l = a.lower_triangle();
    let p = RoundRobinMapper.map(&a, ctx.grid);
    let prog = Program::compile_sptrsv_lower(&l, &a, &p);
    let b: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((i * 31 % 17) as f64) / 17.0)
        .collect();
    row("hop", &["base".into(), "ff".into(), "speedup".into()]);
    let mut headline = 0.0f64;
    for hop in [1u32, 4, 16] {
        let mut wall = [0.0f64; 2];
        let mut base = None;
        let mut cycles = 0u64;
        for (i, ff) in [false, true].into_iter().enumerate() {
            let mut cfg = SimConfig::azul(ctx.grid);
            cfg.hop_latency = hop;
            cfg.fast_forward = ff;
            let t0 = Instant::now();
            let (x, stats) = run_kernel(&cfg, &prog, &b);
            wall[i] = t0.elapsed().as_secs_f64();
            cycles = stats.cycles;
            let mut doc = TelemetryReport::default();
            doc.scenario_field("section", "sptrsv");
            doc.scenario_field("tracing", false);
            doc.scenario_field("kernel", "sptrsv_lower");
            doc.scenario_field("matrix", "tridiagonal");
            doc.scenario_field("n", n as u64);
            doc.scenario_field("hop_latency", hop as u64);
            doc.scenario_field("fast_forward", ff);
            doc.scenario_field("wall_seconds", wall[i]);
            doc.scenario_field("sim_mcycles_per_sec", stats.cycles as f64 / wall[i] / 1.0e6);
            azul_sim::telemetry::fill_report(&mut doc, &cfg, &stats);
            reports.push(doc);
            match &base {
                None => base = Some((x, stats)),
                Some((bx, bs)) => {
                    assert_eq!(&x, bx, "sptrsv output diverged under fast-forward");
                    assert_eq!(&stats, bs, "sptrsv stats diverged under fast-forward");
                }
            }
        }
        let speedup = wall[0] / wall[1];
        row(
            &format!("{hop} ({cycles} cyc)"),
            &[
                format!("{:.0} ms", wall[0] * 1e3),
                format!("{:.0} ms", wall[1] * 1e3),
                format!("{speedup:.2}x"),
            ],
        );
        headline = headline.max(speedup);
    }

    // Section 3: the event-engine headline — a mostly-idle machine.
    // The paper's machine is 64x64; a serial chain hand-placed onto 16
    // tiles spread across it leaves 4080 tiles untouched and, of the 16
    // live ones, at most one or two with anything to do on any given
    // cycle. The reference engine still ticks every reference-active
    // tile every cycle; the event engine ticks only *due* tiles
    // (O(active) per step) and jumps the clock across the long NoC
    // transits. This section is the trend guard for CI: `bench-smoke`
    // diffs `event_speedup` against the committed baseline.
    header(
        "sim_perf §3 — idle-heavy 64x64 topology (event-engine territory)",
        "",
    );
    let big = TileGrid::square(64);
    let n3 = match ctx.scale {
        Scale::Tiny => 2_048,
        Scale::Small => 4_096,
        Scale::Medium => 8_192,
    };
    let a3 = generate::tridiagonal(n3);
    let l3 = a3.lower_triangle();
    // 16 active tiles at maximal spread: one per (8 + 16i, 8 + 16j)
    // grid position, consecutive chain rows round-robined across them
    // so every dependence pays a cross-machine NoC transit.
    let spots: Vec<u32> = (0..16u32)
        .map(|k| (8 + 16 * (k / 4)) * 64 + (8 + 16 * (k % 4)))
        .collect();
    let tile_of_row = |r: usize| spots[r % spots.len()];
    let vec_tile: Vec<u32> = (0..n3).map(tile_of_row).collect();
    let nnz_tile: Vec<u32> = a3.iter().map(|(r, _, _)| tile_of_row(r)).collect();
    let p3 = Placement::new(big, nnz_tile, vec_tile);
    let prog3 = Program::compile_sptrsv_lower(&l3, &a3, &p3);
    let b3: Vec<f64> = (0..n3)
        .map(|i| 1.0 + ((i * 31 % 17) as f64) / 17.0)
        .collect();
    row("engine", &["base".into(), "event".into(), "speedup".into()]);
    let mut event_speedup = 0.0f64;
    {
        let mut wall = [0.0f64; 2];
        let mut base = None;
        let mut cycles = 0u64;
        for (i, event) in [false, true].into_iter().enumerate() {
            let mut cfg = SimConfig::azul(big);
            cfg.hop_latency = 128;
            cfg.event_engine = event;
            let t0 = Instant::now();
            let (x, stats) = run_kernel(&cfg, &prog3, &b3);
            wall[i] = t0.elapsed().as_secs_f64();
            cycles = stats.cycles;
            let mut doc = TelemetryReport::default();
            doc.scenario_field("section", "idle_heavy");
            doc.scenario_field("tracing", false);
            doc.scenario_field("kernel", "sptrsv_lower");
            doc.scenario_field("matrix", "tridiagonal");
            doc.scenario_field("n", n3 as u64);
            doc.scenario_field("grid", "64x64");
            doc.scenario_field("active_tiles", spots.len() as u64);
            doc.scenario_field("hop_latency", 128u64);
            doc.scenario_field("event_engine", event);
            doc.scenario_field("wall_seconds", wall[i]);
            doc.scenario_field("sim_mcycles_per_sec", stats.cycles as f64 / wall[i] / 1.0e6);
            if event {
                event_speedup = wall[0] / wall[1];
                doc.scenario_field("event_speedup", event_speedup);
            }
            azul_sim::telemetry::fill_report(&mut doc, &cfg, &stats);
            reports.push(doc);
            match &base {
                None => base = Some((x, stats)),
                Some((bx, bs)) => {
                    assert_eq!(&x, bx, "output diverged under the event engine");
                    assert_eq!(&stats, bs, "stats diverged under the event engine");
                }
            }
        }
        row(
            &format!("64x64/{} act ({cycles} cyc)", spots.len()),
            &[
                format!("{:.0} ms", wall[0] * 1e3),
                format!("{:.0} ms", wall[1] * 1e3),
                format!("{event_speedup:.2}x"),
            ],
        );
    }

    match write_bench_artifact("sim_perf", &reports) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => println!("artifact write failed: {e}"),
    }
    println!("headline: fast-forward speedup on SpTRSV chain {headline:.2}x");
    println!("headline: event-engine speedup on idle-heavy 64x64 {event_speedup:.2}x");
    assert!(
        headline >= 2.0,
        "fast-forward should cut wall-clock at least 2x on the \
         dependence-limited SpTRSV chain (got {headline:.2}x)"
    );
    assert!(
        event_speedup >= 10.0,
        "the event engine should cut wall-clock at least 10x on the \
         idle-heavy 64x64 topology (got {event_speedup:.2}x)"
    );
}
