//! End-to-end smoke test of the built `lobist` binary.

use std::process::Command;

use lobist_server::json::Json;

#[test]
fn binary_runs_the_suite() {
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .arg("suite")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Paulin"), "{text}");
}

#[test]
fn binary_reports_errors_on_stderr_with_nonzero_exit() {
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args(["synth", "/nonexistent.dfg", "--modules", "1+"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn binary_help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .arg("help")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn binary_runs_a_parallel_batch() {
    let dir = std::env::temp_dir();
    let a = dir.join("lobist_bin_batch_a.dfg");
    let b = dir.join("lobist_bin_batch_b.dfg");
    std::fs::write(&a, "input a b\ny = a + b @ 1\noutput y\n").expect("write");
    std::fs::write(&b, "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n")
        .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args([
            "batch",
            a.to_str().expect("utf8"),
            b.to_str().expect("utf8"),
            "--modules",
            "1+,1*",
            "--jobs",
            "2",
            "--metrics",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lobist_bin_batch_a.dfg"), "{text}");
    assert!(text.contains("lobist_bin_batch_b.dfg"), "{text}");
    assert!(text.contains("\"cache\":"), "{text}");
}

#[test]
fn binary_batch_without_designs_reads_an_empty_stdin() {
    // `output()` gives the child a null stdin: a path list with no
    // paths.
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args(["batch", "--modules", "1+"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("at least one design file (stdin listed none)"),
        "{err}"
    );
}

#[test]
fn binary_rejects_zero_jobs() {
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args(["explore", "x.dfg", "--candidates", "1+", "--jobs", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs 0"), "{err}");
}

#[test]
fn binary_lints_a_clean_design_and_exits_zero() {
    let path = std::env::temp_dir().join("lobist_bin_lint.dfg");
    std::fs::write(
        &path,
        "input a b c d\ns1 = a + b @ 1\ns2 = c + d @ 2\ny = s1 * s2 @ 3\noutput y\n",
    )
    .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args([
            "lint",
            path.to_str().expect("utf8"),
            "--modules",
            "1+,1*",
            "--deny",
            "all",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lint: clean"), "{text}");
}

#[test]
fn binary_lint_rejects_unknown_codes_with_nonzero_exit() {
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args(["lint", "x.dfg", "--modules", "1+", "--deny", "Q123"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown lint code"), "{err}");
}

#[test]
fn binary_help_documents_jobs_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .arg("help")
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--jobs"), "{text}");
    assert!(text.contains("batch"), "{text}");
}

#[test]
fn binary_rejects_an_empty_design_without_panicking() {
    let path = std::env::temp_dir().join("lobist_bin_empty.dfg");
    std::fs::write(&path, "# a comment and nothing else\n").expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args(["synth", path.to_str().expect("utf8"), "--modules", "1+"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("design has no operations"), "{err}");
}

#[test]
fn binary_explore_rejects_a_design_without_operations() {
    // `explore` reads its design unscheduled, but rejects an empty one
    // at load like every other command: no job runs, nothing panics.
    let empty = "# a comment and nothing else\n";
    for (name, text) in [("empty", empty), ("wire", "input a\noutput a\n")] {
        let path = std::env::temp_dir().join(format!("lobist_bin_explore_{name}.dfg"));
        std::fs::write(&path, text).expect("write");
        let path = path.to_str().expect("utf8");
        let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
            .args(["explore", path, "--candidates", "1+"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("design has no operations"), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
    }
}

#[test]
fn binary_synthesizes_a_huge_step_and_rejects_the_last_one() {
    let dir = std::env::temp_dir();
    let synth = |name: &str, step: u64| {
        let path = dir.join(name);
        std::fs::write(&path, format!("input a b\ny = a + b @ {step}\noutput y\n")).expect("write");
        Command::new(env!("CARGO_BIN_EXE_lobist"))
            .args(["synth", path.to_str().expect("utf8"), "--modules", "1+"])
            .output()
            .expect("binary runs")
    };
    let out = synth("lobist_bin_step_4e9.dfg", 4_000_000_000);
    assert!(out.status.success(), "{out:?}");
    let out = synth("lobist_bin_step_max.dfg", u64::from(u32::MAX));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("largest supported"),
        "{out:?}"
    );
}

#[test]
fn binary_progress_labels_are_json_for_any_file_name() {
    // A zero-width space in the file name: Rust's `{:?}` writes it as
    // `\u{200b}`, which no JSON parser accepts.
    let dir = std::env::temp_dir().join("lobist_bin_progress");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ex1\u{200b}.dfg");
    std::fs::write(&path, "input a b\ny = a + b @ 1\noutput y\n").expect("write");
    let p = path.to_str().expect("utf8");
    // The repeat is a cache hit, so both job-event shapes are checked.
    let out = Command::new(env!("CARGO_BIN_EXE_lobist"))
        .args([
            "batch",
            p,
            p,
            "--modules",
            "1+",
            "--jobs",
            "1",
            "--progress",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    let labels: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"job\""))
        .map(|l| {
            let event = Json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}"));
            event
                .get("label")
                .and_then(Json::as_str)
                .expect("a label")
                .to_owned()
        })
        .collect();
    assert_eq!(labels, [p, p], "{text}");
    assert!(text.contains("\"cache_hit\":true"), "{text}");
}
