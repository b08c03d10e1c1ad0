//! The machine-speed probe that end-to-end timings are scaled by.
//!
//! The benchmark runs on small shared hosts whose neighbours slow
//! memory-heavy code by up to 2× for stretches of seconds to minutes —
//! far more than the changes the benchmark must resolve. The probe is a
//! fixed, memory-bound workload that shares no code with the program:
//! timing it between cycles measures how fast the host is right now,
//! and each cycle's timings are scaled to a nominal host speed. The
//! slowdown of memory-bound code tracks the probe's closely, while a
//! change to the program moves the cycle timings and not the probe.

use std::time::Instant;

/// Probe time on a quiet 2-vCPU host; a probe this fast means slowdown
/// 1.0.
const NOMINAL_MS: f64 = 60.0;

/// Table size per probe thread: larger than any last-level cache.
const WORDS: usize = 1 << 23;

/// Runs the probe on two threads (one per vCPU, as the workloads do)
/// and returns the host's slowdown against nominal.
pub fn slowdown() -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for seed in 0..2u64 {
            s.spawn(move || std::hint::black_box(random_walk(seed)));
        }
    });
    1e3 * t0.elapsed().as_secs_f64() / NOMINAL_MS
}

/// 1.5 M read-modify-writes at pseudo-random offsets of a 64 MiB table.
fn random_walk(seed: u64) -> u64 {
    let mut table = vec![0u64; WORDS];
    let mut x = seed + 1;
    for i in 0..1_500_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> 20) as usize & (WORDS - 1);
        table[j] = table[j].wrapping_add(x ^ i);
    }
    table.iter().step_by(4096).fold(0, |a, &v| a ^ v)
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_probe_is_deterministic_work() {
        assert_eq!(super::random_walk(0), super::random_walk(0));
        assert_ne!(super::random_walk(0), super::random_walk(1));
        assert!(super::slowdown() > 0.0);
    }
}
