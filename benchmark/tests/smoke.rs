//! The exact-count gate: all four workloads at smoke size, with their
//! output digests and deterministic work counters checked against
//! `goldens/<workload>.smoke.digest`.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_run_matches_the_goldens() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lobist-e2e"))
        .args(["run", "--smoke"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert_eq!(
        stderr
            .matches("digest and counters match the golden")
            .count(),
        4,
        "{stderr}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "took {:?}",
        t0.elapsed()
    );
}
