//! Bench-only crate; see `benches/`.

use std::time::{Duration, Instant};

/// Runs `routine` once to warm up and ten more times, and prints the
/// fastest run per unit of work — the "ns per row" line of the per-layer
/// benches. `routine` returns the units of work it did and the time to
/// charge for them (so a bench can time one phase of a longer run); the
/// fastest run, because the build container's noise only ever adds time.
pub fn report_per_unit(label: &str, unit: &str, mut routine: impl FnMut() -> (usize, Duration)) {
    routine();
    let best = (0..10)
        .map(|_| routine())
        .map(|(units, spent)| spent.as_nanos() as f64 / units.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    println!("{label}: {best:>8.1} ns per {unit}");
}

/// Times one call of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}
