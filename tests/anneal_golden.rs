//! Golden pins of the annealing register search: for each design, seed
//! and chain count, the committed trajectory's fingerprint (best
//! coloring, best and initial overhead, accepted, evaluated, skipped,
//! stalled and infeasible moves), every chain's best overhead and the
//! winning chain.
//!
//! Pinned:
//!
//! - `designs/*.dfg` and the seed-1 corpus at size 8 under `1+,1*,1-`,
//!   through [`JobSpec::anneal`] on two workers — the path the CLI and
//!   the daemon take;
//! - the paper suite under its own module sets and lifetime options,
//!   through [`anneal_multichain`], with the one-chain run checked
//!   against [`anneal_registers`].
//!
//! Each case runs seeds `0xA11EA1` and `1`, 400 iterations, with one
//! and with three chains. The work counters (oracle and flow-cache
//! hits) are not pinned here.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test anneal_golden
//! ```

use lobist::alloc::anneal::{anneal_registers, AnnealConfig, AnnealResult};
use lobist::alloc::flow::FlowOptions;
use lobist::alloc::module_assign::assign_modules;
use lobist::dfg::benchmarks;
use lobist::dfg::corpus::{generate, KINDS};
use lobist::dfg::modules::ModuleSet;
use lobist::dfg::parse::to_text_unscheduled;
use lobist::engine::{anneal_multichain, load_design, AnnealStats, JobSpec};

const MODULES: &str = "1+,1*,1-";
const SEEDS: [u64; 2] = [0xA11EA1, 1];
const CHAINS: [usize; 2] = [1, 3];
const ITERATIONS: u32 = 400;
const WORKERS: usize = 2;

/// One run's golden text: the fingerprint, then the chain overheads
/// and the winning chain.
fn render(result: &AnnealResult, stats: &AnnealStats) -> String {
    let (classes, overhead, initial, accepted, evaluated, skipped, stalled, infeasible) =
        result.fingerprint();
    let classes: Vec<String> = classes
        .iter()
        .map(|c| c.iter().map(|v| v.0.to_string()).collect::<Vec<_>>().join(" "))
        .collect();
    format!(
        "overhead={overhead} initial={initial} accepted={accepted} evaluated={evaluated} \
         skipped={skipped} stalled={stalled} infeasible={infeasible} \
         chain_overheads={:?} best_chain={} classes=[{}]",
        stats.chain_overheads,
        stats.best_chain,
        classes.join("|")
    )
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
            (format!("designs/{name}"), text)
        })
        .collect()
}

/// The job-spec path: the shipped designs and the seed-1 size-8
/// corpus, loaded as the CLI loads them.
fn spec_lines(lines: &mut Vec<String>) {
    let modules: ModuleSet = MODULES.parse().expect("a module set");
    let mut texts = shipped_designs();
    for kind in KINDS {
        let dfg = generate(kind, 8, 1);
        texts.push((format!("corpus/{}_n8_s1", kind.name()), to_text_unscheduled(&dfg)));
    }
    for (name, text) in texts {
        let (dfg, schedule) =
            load_design(&text, &modules).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for seed in SEEDS {
            for chains in CHAINS {
                let spec = JobSpec {
                    iterations: Some(ITERATIONS),
                    seed: Some(seed),
                    chains: Some(chains),
                    ..JobSpec::default()
                };
                let outcome = match spec.anneal(&dfg, &schedule, &modules, WORKERS) {
                    Ok((_, result, stats)) => render(&result, &stats),
                    Err(e) => format!("err {e}"),
                };
                lines.push(format!("{name} seed=0x{seed:X} chains={chains} {outcome}"));
            }
        }
    }
}

/// The driver path: the paper suite under its own modules and
/// lifetimes.
fn suite_lines(lines: &mut Vec<String>) {
    for bench in benchmarks::paper_suite() {
        let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
            .expect("module assignment");
        for seed in SEEDS {
            let config = AnnealConfig { iterations: ITERATIONS, seed, ..AnnealConfig::default() };
            let serial = anneal_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &flow,
                &config,
            )
            .expect("serial anneal");
            for chains in CHAINS {
                let (result, stats) = anneal_multichain(
                    &bench.dfg,
                    &bench.schedule,
                    bench.lifetime_options,
                    &ma,
                    &flow,
                    &config,
                    chains,
                    WORKERS,
                )
                .expect("multichain anneal");
                if chains == 1 {
                    assert_eq!(
                        result.fingerprint(),
                        serial.fingerprint(),
                        "{}: one chain is the serial run",
                        bench.name
                    );
                }
                lines.push(format!(
                    "paper/{} seed=0x{seed:X} chains={chains} {}",
                    bench.name,
                    render(&result, &stats)
                ));
            }
        }
    }
}

#[test]
fn anneal_golden() {
    let mut lines = Vec::new();
    spec_lines(&mut lines);
    suite_lines(&mut lines);
    let actual = lines.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/anneal/anneal.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().expect("a parent"))
            .expect("golden directory");
        std::fs::write(path, &actual).expect("golden written");
        return;
    }
    let expected = std::fs::read_to_string(path).expect("golden present (UPDATE_GOLDENS=1 writes it)");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden line count");
}
