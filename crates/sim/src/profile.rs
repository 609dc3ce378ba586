//! Host-side self-profiling: where does the simulator's *wall time* go?
//!
//! Simulated-time tracing ([`azul_telemetry::trace`]) answers "what did
//! the modeled hardware do"; this module answers "what does the
//! simulator itself spend host cycles on" — the tick loop, router
//! arbitration, PE execution, the barrier/commit phase, fast-forward
//! scanning, and stats sampling. The two must never mix: wall-clock
//! reads inside the deterministic engine are a determinism hazard
//! (`azul-lint`'s `wall-clock-in-sim` rule), so the probes here are the
//! *only* sanctioned wall-clock use inside `crates/sim`, and they are
//! compiled down to a single relaxed atomic load unless a harness
//! explicitly calls [`enable`].
//!
//! Probe output feeds the `sim_profile` bench, which writes
//! `BENCH_sim_profile.json` with per-component wall-time shares.
//!
//! Contract with the deterministic engine:
//!
//! * disabled (the default), [`scope`] takes no timestamps, allocates
//!   nothing, and returns an inert guard — the simulated results are
//!   byte-identical whether the probes exist or not;
//! * enabled, probes only *observe* host time; no simulated state ever
//!   depends on a probe, so traced/profiled runs still reproduce.
//!
//! ```
//! use azul_sim::profile::{self, Component};
//!
//! profile::reset();
//! profile::enable();
//! {
//!     let _tick = profile::scope(Component::TickLoop);
//!     // ... hot work ...
//! }
//! profile::disable();
//! let snap = profile::snapshot();
//! assert_eq!(snap.calls(Component::TickLoop), 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Simulator components that receive wall-time attribution. The
/// variants index the accumulator arrays, so `ALL` must list every
/// variant in discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The whole `run_kernel` tick loop (encloses the others).
    TickLoop = 0,
    /// Router arbitration and flit forwarding.
    RouterTick = 1,
    /// PE issue/execute.
    PeTick = 2,
    /// Cycle-barrier synchronization and outbox commit.
    BarrierCommit = 3,
    /// Idle-cycle fast-forward scanning.
    FastForward = 4,
    /// Stats sampling and invariant checking.
    Stats = 5,
}

/// Every component, in accumulator-index order.
pub const ALL: [Component; 6] = [
    Component::TickLoop,
    Component::RouterTick,
    Component::PeTick,
    Component::BarrierCommit,
    Component::FastForward,
    Component::Stats,
];

impl Component {
    /// Stable snake_case name used in `BENCH_sim_profile.json`.
    pub fn name(self) -> &'static str {
        match self {
            Component::TickLoop => "tick_loop",
            Component::RouterTick => "router_tick",
            Component::PeTick => "pe_tick",
            Component::BarrierCommit => "barrier_commit",
            Component::FastForward => "fast_forward",
            Component::Stats => "stats",
        }
    }
}

/// Per-component accumulators plus the cheap enabled flag. Relaxed
/// atomics: shards profile concurrently and exact interleaving does not
/// matter — only the totals do.
struct Profiler {
    enabled: AtomicBool,
    wall_ns: [AtomicU64; 6],
    calls: [AtomicU64; 6],
}

fn profiler() -> &'static Profiler {
    static PROFILER: OnceLock<Profiler> = OnceLock::new();
    PROFILER.get_or_init(|| Profiler {
        enabled: AtomicBool::new(false),
        wall_ns: [const { AtomicU64::new(0) }; 6],
        calls: [const { AtomicU64::new(0) }; 6],
    })
}

/// Turns probe collection on. Call from a harness, never from engine
/// code — the engine must not know whether it is being profiled.
pub fn enable() {
    profiler().enabled.store(true, Ordering::Release);
}

/// Turns probe collection off; already-recorded totals are kept.
pub fn disable() {
    profiler().enabled.store(false, Ordering::Release);
}

/// Whether probes are currently recording.
pub fn enabled() -> bool {
    profiler().enabled.load(Ordering::Relaxed)
}

/// Zeroes all accumulated totals (does not change the enabled flag).
pub fn reset() {
    let p = profiler();
    for i in 0..ALL.len() {
        p.wall_ns[i].store(0, Ordering::Relaxed);
        p.calls[i].store(0, Ordering::Relaxed);
    }
}

/// Opens a probe scope attributing its wall time to `component`. Inert
/// (no timestamp, no allocation) while profiling is disabled.
#[inline]
pub fn scope(component: Component) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { live: None };
    }
    ScopeGuard {
        live: Some((component, Instant::now())),
    }
}

/// RAII guard for a probe scope; accumulation happens on drop.
pub struct ScopeGuard {
    live: Option<(Component, Instant)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some((component, started)) = self.live.take() else {
            return;
        };
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let p = profiler();
        let i = component as usize;
        p.wall_ns[i].fetch_add(ns, Ordering::Relaxed);
        p.calls[i].fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the accumulated totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Wall nanoseconds per component, indexed as [`ALL`].
    pub wall_ns: [u64; 6],
    /// Scope-open counts per component, indexed as [`ALL`].
    pub calls: [u64; 6],
}

impl ProfileSnapshot {
    /// Wall nanoseconds attributed to `component`.
    pub fn wall_ns(&self, component: Component) -> u64 {
        self.wall_ns[component as usize]
    }

    /// Number of scopes opened for `component`.
    pub fn calls(&self, component: Component) -> u64 {
        self.calls[component as usize]
    }

    /// Share of [`Component::TickLoop`] wall time spent in `component`,
    /// in parts per million. The tick loop encloses the other probes,
    /// so shares of the inner components plus the unattributed
    /// remainder ([`ProfileSnapshot::other_ppm`]) sum to ~1_000_000.
    pub fn share_ppm(&self, component: Component) -> u64 {
        let total = self.wall_ns(Component::TickLoop);
        if total == 0 {
            return 0;
        }
        self.wall_ns(component).saturating_mul(1_000_000) / total
    }

    /// The tick-loop remainder not attributed to any inner probe
    /// (dispatch overhead, trigger delivery, fault machinery), in parts
    /// per million.
    pub fn other_ppm(&self) -> u64 {
        let inner: u64 = ALL
            .iter()
            .filter(|&&c| c != Component::TickLoop)
            .map(|&c| self.share_ppm(c))
            .sum();
        1_000_000u64.saturating_sub(inner)
    }
}

/// Copies the current totals.
pub fn snapshot() -> ProfileSnapshot {
    let p = profiler();
    let mut snap = ProfileSnapshot::default();
    for i in 0..ALL.len() {
        snap.wall_ns[i] = p.wall_ns[i].load(Ordering::Relaxed);
        snap.calls[i] = p.calls[i].load(Ordering::Relaxed);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_names_are_stable_and_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names[0], "tick_loop");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "names must be unique");
    }
}
