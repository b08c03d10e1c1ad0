//! Golden pins of the two synthesis stages behind Tables I–II: the
//! testable register allocator (Section III) and the minimal-area BIST
//! selection.
//!
//! For every design and flow (testable, traditional), through
//! `flow::synthesize`, this pins:
//!
//! - the allocator's decision trace text (testable flow only): each
//!   step's candidates, chosen register and reason;
//! - the register classes, by variable name;
//! - the BIST solution: every register's style, every module's
//!   embedding and session, the overhead in gates and its exact
//!   percentage;
//! - or the flow's error text. A design whose BIST solve fails is run
//!   again with `repair_untestable`, and that run is pinned too, with
//!   its test-point count.
//!
//! Designs: `designs/*.dfg` under the module sets the CI lint step uses,
//! the paper suite under its own module sets and lifetimes, and the
//! seed-1 corpus at sizes 8–32 (step 8) under `1+,1*,1-` and
//! `2+,2*,2-`.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test synthesis_golden
//! ```

use std::fmt::Write as _;

use lobist::alloc::flow::{synthesize, FlowError, FlowOptions};
use lobist::dfg::benchmarks;
use lobist::dfg::corpus::{generate, KINDS};
use lobist::dfg::lifetime::LifetimeOptions;
use lobist::dfg::modules::ModuleSet;
use lobist::dfg::scheduling::list_schedule;
use lobist::dfg::{Dfg, Schedule};
use lobist::engine::load_design;

const CORPUS_SETS: [&str; 2] = ["1+,1*,1-", "2+,2*,2-"];

/// The module set each shipped design is linted under in CI.
fn shipped_modules(name: &str) -> &'static str {
    if name == "diffeq.dfg" {
        "1+,2*,1-"
    } else {
        "1+,1*"
    }
}

/// One design's block under one flow.
fn render(
    out: &mut String,
    title: &str,
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    flow: &str,
    options: &FlowOptions,
) {
    let _ = writeln!(out, "== {title} {flow}");
    let design = match synthesize(dfg, schedule, modules, options) {
        Ok(d) => d,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            if matches!(e, FlowError::Bist(_)) && !options.repair_untestable {
                let repaired = FlowOptions {
                    repair_untestable: true,
                    ..options.clone()
                };
                render(out, title, dfg, schedule, modules, &format!("{flow}+repair"), &repaired);
            }
            return;
        }
    };
    for (r, class) in design.register_assignment.classes().iter().enumerate() {
        let names: Vec<&str> = class.iter().map(|&v| dfg.var(v).name.as_str()).collect();
        let _ = writeln!(out, "R{} {{{}}}", r + 1, names.join(","));
    }
    let bist = &design.bist;
    let styles: Vec<String> = bist.styles.iter().map(|s| format!("{s:?}")).collect();
    let _ = writeln!(
        out,
        "bist overhead={} pct={:?} test_points={} styles=[{}]",
        bist.overhead.get(),
        bist.overhead_percent,
        design.test_points.len(),
        styles.join(",")
    );
    for (m, (e, s)) in bist.embeddings.iter().zip(&bist.sessions).enumerate() {
        let _ = writeln!(out, "M{} {e} session={s}", m + 1);
    }
    if let Some(trace) = &design.trace {
        out.push_str(&trace.to_string());
    }
}

/// Both flows of one design.
fn render_flows(
    out: &mut String,
    title: &str,
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    lifetimes: LifetimeOptions,
) {
    for (flow, options) in [
        ("testable", FlowOptions::testable()),
        ("traditional", FlowOptions::traditional()),
    ] {
        let options = options.with_lifetimes(lifetimes);
        render(out, title, dfg, schedule, modules, flow, &options);
    }
}

fn shipped_designs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/designs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("designs/")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("a file name").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("a readable design");
            (name, text)
        })
        .collect()
}

fn golden_text() -> String {
    let mut out = String::new();
    let registered = LifetimeOptions::registered_inputs();
    for (name, text) in shipped_designs() {
        let set = shipped_modules(&name);
        let modules: ModuleSet = set.parse().expect("a module set");
        let (dfg, schedule) = load_design(&text, &modules).expect("shipped designs load");
        let title = format!("designs/{name} [{set}]");
        render_flows(&mut out, &title, &dfg, &schedule, &modules, registered);
    }
    for bench in benchmarks::paper_suite() {
        let title = format!("paper/{}", bench.name);
        render_flows(
            &mut out,
            &title,
            &bench.dfg,
            &bench.schedule,
            &bench.module_allocation,
            bench.lifetime_options,
        );
    }
    for set in CORPUS_SETS {
        let modules: ModuleSet = set.parse().expect("a module set");
        for size in (8..=32).step_by(8) {
            for kind in KINDS {
                let dfg = generate(kind, size, 1);
                let title = format!("corpus/{}_n{size}_s1 [{set}]", kind.name());
                match list_schedule(&dfg, &modules) {
                    Ok(schedule) => {
                        render_flows(&mut out, &title, &dfg, &schedule, &modules, registered);
                    }
                    Err(e) => {
                        let _ = writeln!(out, "== {title}\nschedule error: {e}");
                    }
                }
            }
        }
    }
    out
}

#[test]
fn synthesis_golden() {
    let actual = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/synthesis/synthesis.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().expect("a parent"))
            .expect("golden directory");
        std::fs::write(path, &actual).expect("golden written");
        return;
    }
    let expected =
        std::fs::read_to_string(path).expect("golden present (UPDATE_GOLDENS=1 writes it)");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden line count");
}
