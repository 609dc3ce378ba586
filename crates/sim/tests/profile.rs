//! Tests of the global host-side profiler (`azul_sim::profile`).
//!
//! The profiler is one process-wide accumulator. Any simulator code that
//! ticks a kernel while it is enabled adds to it, so these tests live in
//! their own test binary, where nothing else runs, and take one lock so
//! their own threads do not interleave.

use azul_sim::profile::{disable, enable, reset, scope, snapshot, Component, ALL};
use std::sync::Mutex;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_probes_record_nothing() {
    let _guard = serial();
    disable();
    reset();
    {
        let _s = scope(Component::PeTick);
    }
    let snap = snapshot();
    assert_eq!(snap.calls(Component::PeTick), 0);
    assert_eq!(snap.wall_ns(Component::PeTick), 0);
}

#[test]
fn enabled_probes_accumulate_calls_and_time() {
    let _guard = serial();
    reset();
    enable();
    {
        let _outer = scope(Component::TickLoop);
        for _ in 0..3 {
            let _inner = scope(Component::RouterTick);
            std::hint::black_box(0u64);
        }
    }
    disable();
    let snap = snapshot();
    assert_eq!(snap.calls(Component::TickLoop), 1);
    assert_eq!(snap.calls(Component::RouterTick), 3);
    assert!(
        snap.wall_ns(Component::TickLoop) >= snap.wall_ns(Component::RouterTick),
        "enclosing scope cannot be shorter than what it encloses"
    );
}

#[test]
fn shares_cover_the_tick_loop() {
    let _guard = serial();
    reset();
    enable();
    {
        let _outer = scope(Component::TickLoop);
        {
            let _a = scope(Component::PeTick);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _b = scope(Component::Stats);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    disable();
    let snap = snapshot();
    let inner: u64 = ALL
        .iter()
        .filter(|&&c| c != Component::TickLoop)
        .map(|&c| snap.share_ppm(c))
        .sum();
    let total = inner + snap.other_ppm();
    assert!(
        (990_000..=1_000_000).contains(&total),
        "shares + remainder cover the loop, got {total} ppm"
    );
    assert!(
        snap.share_ppm(Component::PeTick) > snap.share_ppm(Component::Stats),
        "the longer scope gets the larger share"
    );
}
