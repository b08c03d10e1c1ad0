//! Acceptance tests for the engine: the parallel sweep must be
//! indistinguishable — byte for byte — from the serial one on the real
//! design files, repeated sweeps must be served from the cache, and a
//! panicking job must not take the batch down.

use std::path::PathBuf;

use lobist_alloc::explore::{explore, ExploreConfig};
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::parse_unscheduled_dfg;
use lobist_dfg::Dfg;
use lobist_engine::{explore_parallel, metric, render_report, run_jobs, Engine};

fn load_design(name: &str) -> Dfg {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../designs")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    // `parse_unscheduled_dfg` ignores `@ step` annotations, so it loads
    // both the unscheduled diffeq.dfg and the scheduled ex1.dfg.
    parse_unscheduled_dfg(&text).expect("valid design file")
}

fn candidates(sets: &[&str]) -> Vec<ModuleSet> {
    sets.iter().map(|s| s.parse().expect("valid")).collect()
}

fn sweeps() -> Vec<(&'static str, Dfg, Vec<ModuleSet>)> {
    vec![
        (
            "diffeq.dfg",
            load_design("diffeq.dfg"),
            candidates(&["1+,1*,1-", "1+,2*,1-", "2+,2*,2-", "1+,3ALU"]),
        ),
        (
            "ex1.dfg",
            load_design("ex1.dfg"),
            candidates(&["1+,1*", "2+,1*", "1+,2*"]),
        ),
    ]
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    for (name, dfg, sets) in sweeps() {
        let config = ExploreConfig::new(sets);
        let serial = explore(&dfg, &config);
        assert!(
            !serial.points.is_empty(),
            "{name}: sweep produced no feasible points"
        );
        for workers in [1, 4, 7] {
            let engine = Engine::new(workers);
            let (parallel, _) = explore_parallel(&dfg, &config, &engine, workers);
            assert_eq!(
                render_report(&serial),
                render_report(&parallel),
                "{name}: report differs at {workers} workers"
            );
            assert_eq!(
                serial.pareto, parallel.pareto,
                "{name}: frontier differs at {workers} workers"
            );
            assert_eq!(
                serial.failures, parallel.failures,
                "{name}: failures differ at {workers} workers"
            );
        }
    }
}

#[test]
fn repeated_sweep_hits_the_cache_with_identical_results() {
    for (name, dfg, sets) in sweeps() {
        let config = ExploreConfig::new(sets);
        let engine = Engine::new(4);
        let (first, cold) = explore_parallel(&dfg, &config, &engine, 4);
        assert_eq!(cold, "fresh", "{name}");
        assert_eq!(
            engine.metrics().get(metric!("cache.hits")),
            0,
            "{name}: cold run hit the cache"
        );
        let (second, warm) = explore_parallel(&dfg, &config, &engine, 4);
        assert_eq!(warm, "memory", "{name}");
        let metrics = engine.metrics();
        let (hits, misses) = (
            metrics.get(metric!("cache.hits")),
            metrics.get(metric!("cache.misses")),
        );
        assert!(
            hits > 0,
            "{name}: repeat run produced no cache hits"
        );
        assert_eq!(
            hits, misses,
            "{name}: repeat run should be answered entirely from cache"
        );
        assert_eq!(
            render_report(&first),
            render_report(&second),
            "{name}: cached sweep differs from cold sweep"
        );
        let json = metrics.to_json();
        assert!(json.contains("\"hit_rate\":0.5000"), "{json}");
    }
}

mod anneal_identity {
    use lobist_alloc::anneal::{anneal_registers, AnnealConfig, AnnealResult};
    use lobist_alloc::flow::FlowOptions;
    use lobist_alloc::flowcache::StageStats;
    use lobist_alloc::module_assign::assign_modules;
    use lobist_dfg::benchmarks::{self, Benchmark};
    use lobist_engine::anneal_multichain;

    fn suite() -> Vec<Benchmark> {
        vec![benchmarks::ex1(), benchmarks::paulin()]
    }

    /// A run's work counters: oracle hits and misses, then the flow
    /// cache's label-cache stats, warm starts and incremental
    /// evaluations (its timing histogram carries wall-clock buckets, so
    /// only its sample count is compared).
    fn work(r: &AnnealResult) -> (u64, u64, StageStats, u64, u64) {
        let fc = &r.flow_cache;
        (
            r.oracle_hits,
            r.oracle_misses,
            fc.interconnect,
            fc.warm_starts,
            fc.delta_micros.iter().sum(),
        )
    }

    #[test]
    fn one_chain_is_byte_identical_to_serial() {
        for bench in suite() {
            let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
            let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
                .expect("module assignment");
            let config = AnnealConfig {
                iterations: 80,
                ..Default::default()
            };
            let serial = anneal_registers(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &flow,
                &config,
            )
            .expect("serial anneal");
            for workers in [1, 2, 8] {
                let (chain, stats) = anneal_multichain(
                    &bench.dfg,
                    &bench.schedule,
                    bench.lifetime_options,
                    &ma,
                    &flow,
                    &config,
                    1,
                    workers,
                )
                .expect("one-chain anneal");
                assert_eq!(
                    serial.fingerprint(),
                    chain.fingerprint(),
                    "{}: trajectory differs at workers={workers}",
                    bench.name
                );
                assert_eq!(
                    work(&serial),
                    work(&chain),
                    "{}: counters differ at workers={workers}",
                    bench.name
                );
                assert_eq!(
                    stats.workers, 1,
                    "{}: one chain uses one thread",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn multichain_merge_is_identical_for_any_worker_count() {
        for bench in suite() {
            let flow = FlowOptions::testable().with_lifetimes(bench.lifetime_options);
            let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
                .expect("module assignment");
            let config = AnnealConfig {
                iterations: 50,
                ..Default::default()
            };
            let reference = anneal_multichain(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &flow,
                &config,
                4,
                1,
            )
            .expect("multichain anneal");
            for workers in [2, 8] {
                let (run, stats) = anneal_multichain(
                    &bench.dfg,
                    &bench.schedule,
                    bench.lifetime_options,
                    &ma,
                    &flow,
                    &config,
                    4,
                    workers,
                )
                .expect("multichain anneal");
                assert_eq!(
                    reference.0.fingerprint(),
                    run.fingerprint(),
                    "{}: best-of differs at {workers} workers",
                    bench.name
                );
                assert_eq!(
                    work(&reference.0),
                    work(&run),
                    "{}: counters differ at {workers} workers",
                    bench.name
                );
                assert_eq!(
                    reference.1.chain_overheads, stats.chain_overheads,
                    "{}",
                    bench.name
                );
                assert_eq!(reference.1.best_chain, stats.best_chain, "{}", bench.name);
            }
        }
    }
}

mod canonical_cache {
    //! Isomorphism-level caching: a renamed/reordered twin of an
    //! already-synthesized design must be answered from cache as an
    //! *iso* hit, and the remapped answer must be byte-identical to
    //! what a cold engine would synthesize for the twin directly.

    use std::sync::Arc;

    use lobist_alloc::explore::{evaluate_candidate, Candidate};
    use lobist_alloc::flow::FlowOptions;
    use lobist_dfg::benchmarks::{self, Benchmark};
    use lobist_dfg::canon::permute;
    use lobist_engine::{metric, Engine, Job, JobResult};
    use lobist_store::{codec, StoredResult};

    fn job(bench: &Benchmark, label: &str) -> Job {
        Job {
            dfg: Arc::new(bench.dfg.clone()),
            candidate: Candidate {
                modules: bench.module_allocation.clone(),
                schedule: bench.schedule.clone(),
            },
            flow: FlowOptions::testable().with_lifetimes(bench.lifetime_options),
            label: label.to_owned(),
        }
    }

    fn twin_job(bench: &Benchmark, seed: u64) -> Job {
        let (dfg, schedule) = permute(&bench.dfg, &bench.schedule, seed);
        Job {
            dfg: Arc::new(dfg),
            candidate: Candidate {
                modules: bench.module_allocation.clone(),
                schedule,
            },
            flow: FlowOptions::testable().with_lifetimes(bench.lifetime_options),
            label: format!("twin-{seed}"),
        }
    }

    /// The store codec's byte rendering of a result — the strictest
    /// equality the system offers (every embedding, register class and
    /// schedule step is encoded).
    fn bytes(result: &JobResult) -> Vec<u8> {
        codec::encode(&StoredResult {
            origin: 0,
            result: result.clone(),
        })
    }

    #[test]
    fn iso_hits_are_byte_identical_to_fresh_synthesis() {
        for bench in [benchmarks::ex1(), benchmarks::paulin()] {
            let engine = Engine::new(2);
            let first = engine.run(vec![job(&bench, "base")]);
            assert!(!first[0].cache_hit && !first[0].iso_hit, "{}", bench.name);
            assert!(first[0].result.is_ok(), "{}", bench.name);
            for seed in [3u64, 17, 40] {
                let twin = twin_job(&bench, seed);
                let served = engine.run(vec![twin.clone()]);
                assert!(
                    served[0].cache_hit,
                    "{} seed {seed}: twin missed the cache",
                    bench.name
                );
                assert!(
                    served[0].iso_hit,
                    "{} seed {seed}: hit was not flagged isomorphic",
                    bench.name
                );
                // A cold engine synthesizing the twin from scratch must
                // agree byte-for-byte with the remapped cached answer.
                let fresh = Engine::new(1).run(vec![twin]);
                assert!(!fresh[0].cache_hit, "{} seed {seed}", bench.name);
                assert_eq!(
                    bytes(&served[0].result),
                    bytes(&fresh[0].result),
                    "{} seed {seed}: remapped iso-hit differs from fresh synthesis",
                    bench.name
                );
            }
            let snap = engine.metrics();
            assert_eq!(snap.get(metric!("canon.iso_hits")), 3, "{}", bench.name);
            assert_eq!(snap.get(metric!("canon.remaps")), 4, "{}", bench.name);
        }
    }

    #[test]
    fn resubmitting_the_same_design_is_an_exact_hit_not_iso() {
        let bench = benchmarks::ex1();
        let engine = Engine::new(1);
        engine.run(vec![job(&bench, "base")]);
        let again = engine.run(vec![job(&bench, "base")]);
        assert!(again[0].cache_hit && !again[0].iso_hit);
        let snap = engine.metrics();
        assert_eq!(snap.get(metric!("canon.exact_hits")), 1);
        assert_eq!(snap.get(metric!("canon.iso_hits")), 0);
    }

    #[test]
    fn cached_answers_match_cold_evaluation() {
        // The canonical key only decides who shares an entry; every
        // answer — the original's and its twins', fresh or cached —
        // must be byte-identical to evaluating that job on its own.
        for bench in [benchmarks::ex1(), benchmarks::paulin()] {
            let jobs = vec![job(&bench, "base"), twin_job(&bench, 7), twin_job(&bench, 23)];
            let engine = Engine::new(2);
            let served = engine.run(jobs.clone());
            for (o, j) in served.iter().zip(&jobs) {
                let cold = evaluate_candidate(&j.dfg, &j.candidate, &j.flow);
                assert_eq!(
                    bytes(&o.result),
                    bytes(&cold),
                    "{} {}: engine and cold evaluation disagree",
                    bench.name,
                    j.label
                );
            }
            assert_eq!(
                engine.metrics().get(metric!("cache.misses")),
                1,
                "{}",
                bench.name
            );
        }
    }
}

mod shift_identity {
    //! Shift-normalized keys: a batch mixing designs with their
    //! one-step-shifted twins must render byte-identically to cold
    //! evaluation at every worker count, with the twins answered from
    //! cache.

    use std::path::PathBuf;
    use std::sync::Arc;

    use lobist_alloc::explore::{evaluate_candidate, Candidate};
    use lobist_alloc::flow::FlowOptions;
    use lobist_dfg::benchmarks;
    use lobist_dfg::corpus::{generate, CorpusKind};
    use lobist_dfg::modules::ModuleSet;
    use lobist_dfg::parse::parse_unscheduled_dfg;
    use lobist_dfg::scheduling::list_schedule;
    use lobist_dfg::Schedule;
    use lobist_engine::{metric, Engine, Job, JobResult};
    use lobist_store::{codec, StoredResult};

    /// The store codec's byte rendering — the strictest equality the
    /// system offers.
    fn bytes(result: &JobResult) -> Vec<u8> {
        codec::encode(&StoredResult {
            origin: 0,
            result: result.clone(),
        })
    }

    /// The same design `k` control steps later: it shares the rebased
    /// job key, so the cache must answer it.
    fn shifted_twin(job: &Job, k: u32) -> Job {
        let steps: Vec<u32> = job
            .candidate
            .schedule
            .as_slice()
            .iter()
            .map(|s| s + k)
            .collect();
        let schedule = Schedule::new(&job.dfg, steps).expect("uniform shifts stay topological");
        Job {
            dfg: Arc::clone(&job.dfg),
            candidate: Candidate {
                modules: job.candidate.modules.clone(),
                schedule,
            },
            flow: job.flow.clone(),
            label: format!("{}+{k}", job.label),
        }
    }

    /// Every design file in `designs/`, the paper suite, and a corpus
    /// sweep — each followed by its shifted twin so the batch contains
    /// cache-hit work, not just misses.
    fn workload() -> Vec<Job> {
        let mut jobs = Vec::new();
        for bench in benchmarks::paper_suite() {
            jobs.push(Job {
                dfg: Arc::new(bench.dfg.clone()),
                candidate: Candidate {
                    modules: bench.module_allocation.clone(),
                    schedule: bench.schedule.clone(),
                },
                flow: FlowOptions::testable().with_lifetimes(bench.lifetime_options),
                label: bench.name.clone(),
            });
        }
        let modules: ModuleSet = "1+,1*,1-".parse().expect("module set");
        let designs_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../designs");
        let mut names: Vec<_> = std::fs::read_dir(&designs_dir)
            .expect("designs dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .filter(|n| n.ends_with(".dfg"))
            .collect();
        names.sort();
        for name in names {
            let text = std::fs::read_to_string(designs_dir.join(&name)).expect("read design");
            let dfg = parse_unscheduled_dfg(&text).expect("valid design file");
            let schedule = list_schedule(&dfg, &modules).expect("designs schedule");
            jobs.push(Job {
                dfg: Arc::new(dfg),
                candidate: Candidate {
                    modules: modules.clone(),
                    schedule,
                },
                flow: FlowOptions::testable(),
                label: name,
            });
        }
        for (kind, size) in [
            (CorpusKind::Fir, 16),
            (CorpusKind::Iir, 12),
            (CorpusKind::Matmul, 12),
            (CorpusKind::Diffeq, 12),
        ] {
            let dfg = generate(kind, size, 5);
            let schedule = list_schedule(&dfg, &modules).expect("corpus designs schedule");
            jobs.push(Job {
                dfg: Arc::new(dfg),
                candidate: Candidate {
                    modules: modules.clone(),
                    schedule,
                },
                flow: FlowOptions::testable(),
                label: format!("{}{size}", kind.name()),
            });
        }
        let twins: Vec<Job> = jobs.iter().map(|j| shifted_twin(j, 1)).collect();
        jobs.extend(twins);
        jobs
    }

    #[test]
    fn shifted_twins_never_change_result_bytes_serial_and_parallel() {
        let jobs = workload();
        let expected: Vec<Vec<u8>> = jobs
            .iter()
            .map(|j| bytes(&evaluate_candidate(&j.dfg, &j.candidate, &j.flow)))
            .collect();
        for workers in [1usize, 4] {
            let engine = Engine::new(workers);
            let run = engine.run(jobs.clone());
            assert_eq!(run.len(), expected.len());
            for (o, want) in run.iter().zip(&expected) {
                assert_eq!(
                    &bytes(&o.result),
                    want,
                    "{}: workers={workers} diverged from cold evaluation",
                    o.label
                );
            }
            assert!(
                engine.metrics().get(metric!("cache.hits")) > 0,
                "workers={workers}: shifted twins never hit the cache"
            );
        }
    }
}

#[test]
fn a_panicking_job_does_not_poison_the_batch() {
    let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
        Box::new(|| 10),
        Box::new(|| panic!("synthetic failure")),
        Box::new(|| 30),
    ];
    let (results, stats) = run_jobs(4, tasks);
    assert_eq!(results[0], Ok(10));
    assert_eq!(results[1], Err("synthetic failure".to_owned()));
    assert_eq!(results[2], Ok(30));
    assert_eq!(stats.workers, 3);
}
