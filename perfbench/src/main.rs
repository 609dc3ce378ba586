//! End-to-end benchmark of the Azul solve service.
//!
//! ```text
//! azul-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives `azul_serve::ServeService` in a closed loop
//! (submit → `wait_all` → next request). With `--trace 0` the last line
//! of standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` the served loop is followed by a replay of every request
//! through each layer's public entry point, and the JSON carries the
//! per-layer metrics instead. See `perfbench/README.md`.

mod inputs;
mod replay;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use azul_core::{AzulConfig, EscalationPolicy};
use azul_mapping::TileGrid;
use azul_serve::{RequestOutcome, ServeConfig, ServeService, SolveRequest};
use azul_sim::profile::{Component, ProfileSnapshot};
use azul_sim::{IntegrityPolicy, PcgSimConfig};
use azul_sparse::Csr;

use inputs::Rng;
use trace::Tracer;

/// One closed-loop workload. Why each exists is in `README.md`.
struct Workload {
    name: &'static str,
    /// Tiles per side of the simulated grid.
    side: usize,
    operators: &'static [&'static str],
    /// Warm: set-up fills the prepare cache and every timed request is
    /// a hit. Cold: every request carries a freshly scaled operator and
    /// misses.
    warm: bool,
    /// ABFT integrity audit on every solve and cache scrubbing on every
    /// hit.
    audit: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold_table4",
        side: 16,
        operators: &["thermal2", "apache2", "G3_circuit", "offshore", "nd12k"],
        warm: false,
        audit: false,
    },
    Workload {
        name: "warm_busy16",
        side: 16,
        operators: &["thermal2", "consph", "G3_circuit"],
        warm: true,
        audit: false,
    },
    Workload {
        name: "warm_paper4k",
        side: 64,
        operators: &["thermal2", "consph", "offshore"],
        warm: true,
        audit: true,
    },
];

/// Set-up runs up to this many times per run (the median is reported)...
const SETUP_REPEATS: usize = 9;
/// ...but is not started again once this many seconds went into it: a
/// warm set-up partitions every operator and takes far longer than a
/// cold one.
const SETUP_BUDGET_S: f64 = 5.0;

/// Where counters and spans are kept between runs, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: azul-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(w, &args) {
        Ok(result) => {
            println!("{}", result.json);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Stream ids for [`Rng::new`]: operator scalings and right-hand sides
/// never share a stream.
fn scale_stream(request: u64, op: usize) -> u64 {
    (request << 8) | op as u64
}
fn rhs_stream(request: u64) -> u64 {
    (1 << 63) | request
}

fn serve_config(w: &Workload) -> ServeConfig {
    let mut base = AzulConfig::new(TileGrid::new(w.side, w.side));
    if w.audit {
        base.pcg.integrity = IntegrityPolicy::audit();
    }
    let mut cfg = ServeConfig::new(base);
    cfg.scrub_cache = w.audit;
    cfg
}

/// One request as the client sent it.
struct Sent {
    id: u64,
    op: usize,
    /// Timed-phase request (set-up fills are not timed).
    timed: bool,
    latency_s: f64,
    matrix: Arc<Csr>,
    rhs: Vec<f64>,
}

/// A served request whose answer passed the output check.
struct Served {
    cycles: u64,
    iterations: u64,
    attempts: u64,
    escalations: u64,
    journal_bytes: u64,
}

struct RunResult {
    correct: bool,
    json: String,
}

/// Submits one request and waits for it; with a tracer, inside a
/// `serve.request` span.
fn send(
    svc: &ServeService,
    mut tracer: Option<&mut Tracer>,
    sent: &mut Sent,
) -> Result<(), String> {
    let req = SolveRequest::new(
        format!("req-{}", sent.id),
        (*sent.matrix).clone(),
        sent.rhs.clone(),
    );
    if let Some(t) = tracer.as_deref_mut() {
        t.enter("serve.request", sent.id);
    }
    let t0 = Instant::now();
    let admitted = svc.submit(req);
    if admitted.is_ok() {
        svc.wait_all();
    }
    sent.latency_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.exit();
    }
    admitted
        .map(|_| ())
        .map_err(|e| format!("request {} shed: {e}", sent.id))
}

/// Checks each outcome against its own inputs: `‖b − A·x‖` in the
/// caller's order must stay within the integrity audit's own
/// `drift_factor × tol` bound. Returns one entry per request, `None`
/// for a failure, and whether any answer was wrong.
fn check(w: &Workload, sent: &[Sent], outcomes: &[RequestOutcome]) -> (Vec<Option<Served>>, bool) {
    let bound = IntegrityPolicy::audit().drift_factor * PcgSimConfig::default().tol;
    let mut wrong = false;
    let mut checked = Vec::new();
    for (i, s) in sent.iter().enumerate() {
        let name = w.operators[s.op];
        let Some(out) = outcomes.get(i) else {
            eprintln!("failed: request {} ({name}) has no outcome", s.id);
            checked.push(None);
            continue;
        };
        checked.push(match &out.result {
            Ok(solve) => {
                let r = if solve.x.len() == s.matrix.cols() {
                    let ax = s.matrix.spmv(&solve.x);
                    let rr = s.rhs.iter().zip(&ax).map(|(b, y)| (b - y) * (b - y));
                    rr.sum::<f64>().sqrt()
                } else {
                    f64::INFINITY
                };
                // NaN never passes.
                if r <= bound {
                    Some(Served {
                        cycles: solve.total_cycles,
                        iterations: solve.iterations as u64,
                        attempts: solve.supervisor_attempts as u64,
                        escalations: solve.escalations as u64,
                        journal_bytes: out.journal.len() as u64,
                    })
                } else {
                    eprintln!(
                        "wrong answer: request {} ({name}) ||b - A x|| = {r:.3e} > {bound:.3e}",
                        s.id
                    );
                    wrong = true;
                    None
                }
            }
            Err(e) => {
                eprintln!("failed: request {} ({name}): {e}", s.id);
                None
            }
        });
    }
    (checked, wrong)
}

/// Generates the workload's operators: the suite analogs, each scaled
/// by the run's seed.
fn operators(w: &Workload, seed: u64) -> Vec<Arc<Csr>> {
    w.operators
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let base = inputs::base_operator(name);
            Arc::new(inputs::rescaled(
                &base,
                &mut Rng::new(seed, scale_stream(0, k)),
            ))
        })
        .collect()
}

/// A fresh, open service and, for warm workloads, the requests that
/// fill its prepare cache (one per operator).
fn set_up(w: &Workload, seed: u64, ops: &[Arc<Csr>]) -> Result<(ServeService, Vec<Sent>), String> {
    let svc = ServeService::start(serve_config(w));
    svc.open();
    let mut sent = Vec::new();
    if w.warm {
        for (k, a) in ops.iter().enumerate() {
            let id = sent.len() as u64;
            let mut s = Sent {
                id,
                op: k,
                timed: false,
                latency_s: 0.0,
                matrix: a.clone(),
                rhs: inputs::rhs(a.rows(), &mut Rng::new(seed, rhs_stream(id))),
            };
            let admitted = send(&svc, None, &mut s);
            sent.push(s);
            admitted?;
        }
    }
    Ok((svc, sent))
}

/// Exact, machine-independent counters keyed by request id.
type Counters = BTreeMap<(u64, &'static str), u64>;

/// What the traced replay adds to a run.
struct Replayed {
    metrics: Vec<(&'static str, f64, &'static str)>,
    mismatch: bool,
}

fn run(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let seed = args.seed;
    let mut tracer = args.trace.then(Tracer::new);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut wrong = false;

    // Set-up: inputs, service start and (warm) cache fills. Earlier
    // repetitions are shut down and their answers checked too.
    let mut setup_times: Vec<f64> = Vec::new();
    let mut current: Option<(ServeService, Vec<Sent>, Vec<Arc<Csr>>)> = None;
    while setup_times.len() < SETUP_REPEATS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S {
        if let Some((svc, sent, _)) = current.take() {
            let (checked, bad) = check(w, &sent, &svc.shutdown());
            attempted += sent.len() as u64;
            failed += checked.iter().filter(|c| c.is_none()).count() as u64;
            wrong |= bad;
        }
        let t0 = Instant::now();
        let ops = operators(w, seed);
        let (svc, sent) = set_up(w, seed, &ops)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        current = Some((svc, sent, ops));
    }
    let (svc, mut sent, ops) = current.expect("at least one set-up");
    let (hits0, misses0) = svc.cache_stats();
    let (scrubs0, _) = svc.scrub_stats();

    // Timed closed loop, in whole rounds over the operator set so every
    // run weighs the operators alike. A cold request carries a freshly
    // scaled operator (made before its clock starts), so it misses.
    let t_start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t_start.elapsed().as_secs_f64() < args.seconds {
        for (k, op) in ops.iter().enumerate() {
            let id = sent.len() as u64;
            let matrix = if w.warm {
                op.clone()
            } else {
                Arc::new(inputs::rescaled(
                    op,
                    &mut Rng::new(seed, scale_stream(id + 1, k)),
                ))
            };
            let rhs = inputs::rhs(matrix.rows(), &mut Rng::new(seed, rhs_stream(id)));
            let mut s = Sent {
                id,
                op: k,
                timed: true,
                latency_s: 0.0,
                matrix,
                rhs,
            };
            let admitted = send(&svc, tracer.as_mut(), &mut s);
            sent.push(s);
            admitted?;
        }
        rounds += 1;
    }
    let timed_wall = t_start.elapsed().as_secs_f64();
    let (hits1, misses1) = svc.cache_stats();
    let (scrubs1, _) = svc.scrub_stats();
    let (served, bad) = check(w, &sent, &svc.shutdown());
    wrong |= bad;
    attempted += sent.len() as u64;
    failed += served.iter().filter(|c| c.is_none()).count() as u64;

    let timed: Vec<usize> = (0..sent.len()).filter(|&i| sent[i].timed).collect();
    let ok: Vec<usize> = timed
        .iter()
        .copied()
        .filter(|&i| served[i].is_some())
        .collect();
    let n_ok = ok.len().max(1) as f64;
    // The operators' costs differ several-fold, so a median over the
    // mixed requests would sit on whichever operator lands in the middle;
    // each operator's median, combined geometrically, weighs them alike.
    let latency_p50 = (0..ops.len())
        .map(|k| {
            let own: Vec<f64> = timed
                .iter()
                .filter(|&&i| sent[i].op == k)
                .map(|&i| sent[i].latency_s)
                .collect();
            median(&own).ln()
        })
        .sum::<f64>()
        / ops.len() as f64;
    let latency_p50 = latency_p50.exp();
    let cfg = serve_config(w);

    let mut counters = Counters::new();
    for (s, c) in sent.iter().zip(&served) {
        if let Some(c) = c {
            counters.insert((s.id, "sim.cycles"), c.cycles);
            counters.insert((s.id, "sim.iterations"), c.iterations);
        }
    }

    let mut mismatch = false;
    let metrics = if let Some(tracer) = tracer.as_mut() {
        let replayed = replay_all(w, &cfg, &sent, &served, &ok, tracer, &mut counters);
        mismatch |= replayed.mismatch;
        let mut m = replayed.metrics;
        let hits = hits1 - hits0;
        let lookups = hits + (misses1 - misses0);
        m.push(("serve.latency_p50_s", latency_p50, "s"));
        m.push((
            "serve.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ));
        m.push((
            "serve.scrub_checks",
            (scrubs1 - scrubs0) as f64 / n_ok,
            "count",
        ));
        write_out(
            &format!("trace-{}-seed{seed}.jsonl", w.name),
            &tracer.to_json_lines(),
        )?;
        m
    } else {
        let clock_hz = cfg.base.sim.clock_ghz * 1e9;
        let flops: Vec<f64> = ops
            .iter()
            .map(|a| {
                // IC(0)'s factor shares tril(A)'s pattern.
                let nnz_l = (a.nnz() + a.rows()) / 2;
                azul_solver::flops::pcg_iteration_breakdown(a, nnz_l).total() as f64
            })
            .collect();
        let ok_served = || {
            ok.iter()
                .map(|&i| (sent[i].op, served[i].as_ref().expect("ok is served")))
        };
        let mean_cycles = ok_served().map(|(_, c)| c.cycles as f64).sum::<f64>() / n_ok;
        let mean_log_gflops = ok_served()
            .map(|(op, c)| {
                (flops[op] * c.iterations as f64 * clock_hz / c.cycles as f64 * 1e-9).ln()
            })
            .sum::<f64>()
            / n_ok;
        vec![
            ("throughput_rps", ok.len() as f64 / timed_wall, "1/s"),
            ("latency_p50_s", latency_p50, "s"),
            ("setup_s", median(&setup_times), "s"),
            ("sim_solve_us", mean_cycles / clock_hz * 1e6, "us"),
            ("sim_gflops", mean_log_gflops.exp(), "GFLOP/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    // Per-request log: host latency beside the exact counters.
    eprintln!(
        "{}: seed {seed}, {} timed requests in {rounds} rounds over {timed_wall:.2} s, setup {setup_times:.3?} s, {failed} failed",
        w.name,
        timed.len()
    );
    for s in &sent {
        let phase = if s.timed { "timed" } else { "setup" };
        let mut line = format!(
            "  req {:>3} {:<10} {phase} latency_s={:.4}",
            s.id, w.operators[s.op], s.latency_s
        );
        for ((_, name), v) in counters.range((s.id, "")..(s.id + 1, "")) {
            let _ = write!(line, " {name}={v}");
        }
        eprintln!("{line}");
    }
    if let Err(e) = check_counters(&format!("counters-{}-seed{seed}.txt", w.name), &counters) {
        eprintln!("counter mismatch against an earlier run of this seed: {e}");
        mismatch = true;
    }

    let correct = !wrong && !mismatch;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    Ok(RunResult { correct, json })
}

/// Replays every served request layer by layer, checks that the replay
/// reproduces the served cycles and iterations, and derives the
/// per-layer metrics (means per timed request) from the spans.
fn replay_all(
    w: &Workload,
    cfg: &ServeConfig,
    sent: &[Sent],
    served: &[Option<Served>],
    ok: &[usize],
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Replayed {
    let run_cfg = PcgSimConfig {
        stagnation: EscalationPolicy::default().stagnation,
        ..cfg.base.pcg
    };
    let sim_cfg = &cfg.base.sim;
    let grid = sim_cfg.grid;
    let tiles = grid.num_tiles() as u64;
    let mut prepared: Vec<Option<replay::Prepared>> = w.operators.iter().map(|_| None).collect();
    let mut profiled = vec![false; w.operators.len()];
    let mut profile_sum = ProfileSnapshot::default();
    let mut profiled_tile_cycles = 0u64;
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut mismatch = false;
    for (s, served) in sent.iter().zip(served) {
        let Some(served) = served else { continue };
        tracer.enter("replay.request", s.id);
        // A warm operator was prepared by its set-up fill; the timed
        // hits reuse that, exactly as the service's cache does.
        let prep = match prepared[s.op].take() {
            Some(p) if w.warm => p,
            _ => replay::prepare(tracer, s.id, &s.matrix, grid),
        };
        let scrub = w.audit && w.warm && s.timed;
        let report = replay::solve(tracer, s.id, &prep, &s.rhs, sim_cfg, &run_cfg, scrub);
        tracer.exit();
        if report.total_cycles != served.cycles || report.iterations as u64 != served.iterations {
            eprintln!(
                "counter mismatch: request {} served {} cycles / {} iterations, replayed {} / {}",
                s.id, served.cycles, served.iterations, report.total_cycles, report.iterations
            );
            mismatch = true;
        }
        let tile_cycles = report.stats.cycles * tiles;
        let exact = [
            ("sim.tile_cycles", tile_cycles),
            ("sim.router_traversals", report.stats.router_traversals),
            ("sim.messages", report.stats.messages),
            ("solver.abft_checks", report.integrity.checks),
            (
                "solver.abft_violations",
                report.integrity.violations.len() as u64,
            ),
            ("mapping.link_hops", prep.traffic.link_hops),
            ("mapping.max_link_load", prep.traffic.max_link_load),
            ("hypergraph.pins", prep.pins),
            ("sparse.colors", prep.colors),
        ];
        counters.extend(exact.iter().map(|&(name, v)| ((s.id, name), v)));
        if s.timed {
            let host = [
                ("sim.cycles", served.cycles as f64),
                ("sim.iterations", served.iterations as f64),
                ("core.attempts_per_request", served.attempts as f64),
                ("core.escalations", served.escalations as f64),
                ("telemetry.journal_bytes", served.journal_bytes as f64),
                ("mapping.nnz_imbalance", prep.nnz_imbalance()),
            ];
            let all = exact.iter().map(|&(n, v)| (n, v as f64)).chain(host);
            for (name, v) in all {
                *sums.entry(name).or_default() += v;
            }
            if !profiled[s.op] {
                profiled[s.op] = true;
                let snap =
                    replay::profile_tick_loop(tracer, s.id, &prep, &s.rhs, sim_cfg, &run_cfg);
                for (acc, v) in profile_sum.wall_ns.iter_mut().zip(snap.wall_ns) {
                    *acc += v;
                }
                profiled_tile_cycles += tile_cycles;
            }
        }
        prepared[s.op] = Some(prep);
    }

    // Layer self times over the timed requests, from the spans.
    let ids = |timed: bool| -> Vec<u64> {
        sent.iter()
            .enumerate()
            .filter(|&(i, s)| s.timed == timed && served[i].is_some())
            .map(|(_, s)| s.id)
            .collect()
    };
    let (timed_ids, setup_ids) = (ids(true), ids(false));
    let own = tracer.self_times(|r| timed_ids.binary_search(&r).is_ok());
    let setup_own = tracer.self_times(|r| setup_ids.binary_search(&r).is_ok());
    let span = |m: &BTreeMap<&str, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
    let build = span(&own, "mapping.hypergraph_build");
    let layers = [
        ("sparse.coloring_s", span(&own, "sparse.coloring")),
        ("mapping.hypergraph_build_s", build),
        (
            "hypergraph.partition_s",
            (span(&own, "mapping.map") - build).max(0.0),
        ),
        ("solver.ic0_s", span(&own, "solver.ic0")),
        ("solver.abft_scrub_s", span(&own, "solver.abft_scrub")),
        ("sim.compile_s", span(&own, "sim.compile")),
        ("sim.run_s", span(&own, "sim.run")),
    ];
    let served_total: f64 = ok.iter().map(|&i| sent[i].latency_s).sum();
    let overhead = served_total - layers.iter().map(|(_, v)| v).sum::<f64>();
    eprintln!(
        "{}: layer self time over {} timed requests, {served_total:.3} s served",
        w.name,
        ok.len()
    );
    eprintln!("  {:<28} {:>10} {:>7}", "layer", "self_s", "share");
    for (name, v) in layers.iter().chain(&[("serve.overhead_s", overhead)]) {
        let share = 100.0 * v / served_total.max(f64::MIN_POSITIVE);
        eprintln!("  {name:<28} {v:>10.4} {share:>6.1}%");
    }

    let n = ok.len().max(1) as f64;
    let mean = |name: &str| sums.get(name).copied().unwrap_or(0.0) / n;
    let share = |c| profile_sum.share_ppm(c) as f64 * 1e-6;
    let mut metrics: Vec<(&'static str, f64, &'static str)> =
        layers.iter().map(|&(name, v)| (name, v / n, "s")).collect();
    metrics.push(("serve.overhead_s", overhead / n, "s"));
    for name in [
        "core.attempts_per_request",
        "core.escalations",
        "sparse.colors",
        "hypergraph.pins",
        "mapping.link_hops",
        "mapping.max_link_load",
        "solver.abft_checks",
        "solver.abft_violations",
        "sim.cycles",
        "sim.iterations",
        "sim.tile_cycles",
        "sim.router_traversals",
        "sim.messages",
    ] {
        metrics.push((name, mean(name), "count"));
    }
    metrics.extend([
        (
            "mapping.nnz_imbalance",
            mean("mapping.nnz_imbalance"),
            "ratio",
        ),
        (
            "telemetry.journal_bytes",
            mean("telemetry.journal_bytes"),
            "bytes",
        ),
        (
            "sim.host_ns_per_tile_cycle",
            profile_sum.wall_ns(Component::TickLoop) as f64 / profiled_tile_cycles.max(1) as f64,
            "ns",
        ),
        (
            "sim.router_tick_share",
            share(Component::RouterTick),
            "ratio",
        ),
        ("sim.pe_tick_share", share(Component::PeTick), "ratio"),
        (
            "sim.barrier_commit_share",
            share(Component::BarrierCommit),
            "ratio",
        ),
        (
            "sim.tick_other_share",
            profile_sum.other_ppm() as f64 * 1e-6,
            "ratio",
        ),
        (
            "setup.prepare_s",
            ["sparse.coloring", "mapping.map", "solver.ic0"]
                .iter()
                .map(|name| span(&setup_own, name))
                .sum(),
            "s",
        ),
    ]);
    Replayed { metrics, mismatch }
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares this run's exact counters with those an earlier run of the
/// same workload and seed stored, then stores the union. Runs complete
/// different numbers of requests, so only requests both made compare.
fn check_counters(name: &str, counters: &Counters) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(name);
    let mut stored: BTreeMap<(u64, String), u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let [id, key, value] = line.split(' ').collect::<Vec<_>>()[..] {
                if let (Ok(id), Ok(value)) = (id.parse(), value.parse()) {
                    stored.insert((id, key.to_string()), value);
                }
            }
        }
    }
    let mut diffs = Vec::new();
    for (&(id, key), &v) in counters {
        if let Some(old) = stored.insert((id, key.to_string()), v) {
            if old != v {
                diffs.push(format!("request {id} {key}: {old} then {v}"));
            }
        }
    }
    let mut text = String::new();
    for ((id, key), v) in &stored {
        let _ = writeln!(text, "{id} {key} {v}");
    }
    write_out(name, &text)?;
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("; "))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
