//! Seeded workload inputs. Everything here is a pure function of the
//! benchmark seed, and the program under test only ever receives the
//! rendered `.dfg` text.

use std::collections::HashSet;

use lobist_dfg::canon::{canonize, permute, permute_scheduled};
use lobist_dfg::corpus::{generate, CorpusKind};
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::{to_text, to_text_unscheduled};
use lobist_dfg::random::{random_scheduled_dfg, RandomDfgConfig};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::{Dfg, OpKind, Schedule};

/// Module set of the CLI sweeps. `faultsim` needs a set under which
/// direct `flow::synthesize` accepts every corpus design (README:
/// known divergence), and the sweep shares it.
pub const BATCH_MODULES: &str = "1+,1*,1-";
/// Module set of the daemon workloads.
pub const SERVE_MODULES: &str = "2+,2*,2-";

const RANDOM_KINDS: [OpKind; 3] = [OpKind::Add, OpKind::Sub, OpKind::Mul];

/// One design file of a CLI sweep.
#[derive(Debug, Clone)]
pub struct Design {
    /// File stem, unique within the sweep.
    pub name: String,
    /// Unscheduled `.dfg` text.
    pub text: String,
    /// Estimated cost, used only to balance chunks.
    pub cost: f64,
}

/// The splitmix64 step, used to derive every sub-seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent random stream per (seed, purpose).
fn stream(seed: u64, purpose: u64) -> u64 {
    let mut s = seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

fn below(rng: &mut u64, n: usize) -> usize {
    (splitmix64(rng) % n as u64) as usize
}

/// Admits a design only if its canonical encoding is new, so "distinct"
/// means distinct to the program's own isomorphism-level keys.
#[derive(Default)]
struct Distinct(HashSet<Vec<u8>>);

impl Distinct {
    fn admit(&mut self, dfg: &Dfg, schedule: &Schedule) -> bool {
        self.0.insert(canonize(dfg, schedule).encoding)
    }
}

fn modules(set: &str) -> ModuleSet {
    set.parse().expect("benchmark module sets parse")
}

/// A corpus sweep: fir/iir/diffeq at every size under several corpus
/// seeds (the corpus seed varies only the constants), plus one matmul
/// per dimension in `dims` (matmul has no constants, so only its
/// dimension varies it).
fn corpus_set(
    mut rng: u64,
    sizes: &[u32],
    corpus_seeds: usize,
    dims: std::ops::RangeInclusive<u32>,
    cost: fn(CorpusKind, &Dfg) -> f64,
) -> Vec<Design> {
    let set = modules(BATCH_MODULES);
    let mut distinct = Distinct::default();
    let mut out = Vec::new();
    let mut push = |name: String, kind: CorpusKind, dfg: Dfg| {
        let schedule = list_schedule(&dfg, &set).expect("corpus designs schedule under 1+,1*,1-");
        if distinct.admit(&dfg, &schedule) {
            out.push(Design {
                name,
                cost: cost(kind, &dfg),
                text: to_text_unscheduled(&dfg),
            });
        }
    };
    for k in 0..corpus_seeds {
        let cseed = splitmix64(&mut rng);
        for kind in [CorpusKind::Fir, CorpusKind::Iir, CorpusKind::Diffeq] {
            for &size in sizes {
                push(
                    format!("{}_n{size}_c{k}", kind.name()),
                    kind,
                    generate(kind, size, cseed),
                );
            }
        }
    }
    for dim in dims {
        push(
            format!("matmul_d{dim}"),
            CorpusKind::Matmul,
            generate(CorpusKind::Matmul, dim * dim, splitmix64(&mut rng)),
        );
    }
    out
}

/// Synthesis time grows about as ops^2.5 on the corpus families.
fn synthesis_cost(_: CorpusKind, dfg: &Dfg) -> f64 {
    (dfg.num_ops() as f64).powf(2.5)
}

/// Fault simulation dominates and costs about the same per module, one
/// module per operation kind.
fn session_cost(kind: CorpusKind, _: &Dfg) -> f64 {
    kind.op_kinds().len() as f64
}

/// Inputs of a CLI sweep: distinct designs, dealt into chunks of one
/// `lobist batch` process each.
pub struct Sweep {
    /// The designs.
    pub designs: Vec<Design>,
    /// Indices into `designs`, one list per process.
    pub chunks: Vec<Vec<usize>>,
}

/// `sweep-cold` inputs: distinct designs, no two sharing a cache key,
/// in ten processes. Matmul stops at dimension 6, which costs about one
/// chunk: a dimension-7 product alone would cost several, leaving one
/// process far slower than the rest.
pub fn sweep(seed: u64, smoke: bool) -> Sweep {
    let rng = stream(seed, 1);
    let designs = if smoke {
        corpus_set(rng, &[8, 16, 24], 2, 3..=4, synthesis_cost)
    } else {
        let sizes: Vec<u32> = (8..=64).step_by(4).collect();
        corpus_set(rng, &sizes, 9, 3..=6, synthesis_cost)
    };
    let chunks = chunks(&designs, if smoke { 3 } else { 10 });
    Sweep { designs, chunks }
}

/// Bit width of the `faultsim` workload's data paths and fault models.
pub const FAULTSIM_WIDTH: u32 = 12;

/// `faultsim` inputs: small corpus designs whose BIST sessions are
/// fault-simulated.
pub fn faultsim(seed: u64, smoke: bool) -> Sweep {
    let rng = stream(seed, 2);
    let designs = if smoke {
        corpus_set(rng, &[8, 16], 1, 2..=3, session_cost)
    } else {
        let sizes: Vec<u32> = (8..=32).step_by(4).collect();
        corpus_set(rng, &sizes, 2, 2..=5, session_cost)
    };
    let chunks = chunks(&designs, if smoke { 2 } else { 8 });
    Sweep { designs, chunks }
}

/// Deals designs into `n` chunks of about equal estimated cost:
/// costliest first, each to the lightest chunk so far.
fn chunks(designs: &[Design], n: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..designs.len()).collect();
    order.sort_by(|&a, &b| designs[b].cost.total_cmp(&designs[a].cost));
    let mut out = vec![(0.0f64, Vec::new()); n.clamp(1, designs.len().max(1))];
    for i in order {
        let lightest = (0..out.len())
            .min_by(|&a, &b| out[a].0.total_cmp(&out[b].0))
            .expect("at least one chunk");
        out[lightest].0 += designs[i].cost;
        out[lightest].1.push(i);
    }
    out.into_iter()
        .map(|(_, mut chunk)| {
            chunk.sort_unstable();
            chunk
        })
        .collect()
}

/// What a daemon response must equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// First sighting: nothing to compare with.
    First,
    /// Byte-identical to the result of this client's request at that
    /// index (an exact repeat or an isomorphic twin of it).
    SameAs(usize),
    /// Byte-identical to the result of the priming request at that
    /// index (served from the durable store or memory).
    Primed(usize),
}

/// One daemon `synth` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Scheduled `.dfg` text.
    pub text: String,
    /// The identity check its response must pass.
    pub expect: Expect,
    /// `true` for a design no earlier request shares a key with.
    pub fresh: bool,
}

/// Inputs of a daemon workload: optional store priming, then the two
/// clients' request sequences.
#[derive(Debug, Clone, Default)]
pub struct ServeInputs {
    /// Designs sent once, untimed, to fill the store (`serve-restart`).
    pub prime: Vec<String>,
    /// Per-client request sequences; client `c` only ever repeats or
    /// twins designs it introduced itself, so the cache counters are
    /// independent of how the two clients interleave.
    pub clients: [Vec<Request>; 2],
}

/// Fresh random scheduled designs: Add/Sub/Mul, 16–24 ops, at most two
/// ops per step, deduplicated by canonical encoding.
///
/// Synthesis time of random designs is heavy-tailed (the standard
/// deviation is 1.0–2.5× the mean at every size tried), so a seed's mean
/// cost only settles over thousands of designs. These sizes cost ~1.5 ms
/// each, which affords 2000 fresh designs per daemon cycle; 24–40 ops
/// would cost ~13 ms and let the seed swing the throughput by ±15%.
struct FreshDesigns {
    rng: u64,
    distinct: Distinct,
}

impl FreshDesigns {
    fn next(&mut self) -> (Dfg, Schedule) {
        loop {
            let s = splitmix64(&mut self.rng);
            let cfg = RandomDfgConfig {
                num_ops: 16 + (s % 9) as usize,
                num_inputs: 3 + ((s >> 8) % 3) as usize,
                max_ops_per_step: 2,
                kinds: &RANDOM_KINDS,
            };
            let (dfg, schedule) = random_scheduled_dfg(s, &cfg);
            if self.distinct.admit(&dfg, &schedule) {
                return (dfg, schedule);
            }
        }
    }
}

/// A renamed, reordered twin shifted `shift` steps later: the same
/// synthesis core, but a different job key.
fn shifted(dfg: &Dfg, schedule: &Schedule, seed: u64, shift: u32) -> String {
    let (twin, twin_schedule, _) = permute_scheduled(dfg, schedule, seed);
    let steps: Vec<u32> = twin_schedule.as_slice().iter().map(|s| s + shift).collect();
    let moved = Schedule::new(&twin, steps).expect("uniform shifts stay topological");
    to_text(&twin, &moved)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Repeat,
    Iso,
    Shift,
    TwinRepeat,
}

/// `serve-mix` inputs: per client, 25% fresh designs, 45% exact
/// repeats, 15% isomorphic twins, 10% schedule-shifted twins and 5%
/// repeats of twins.
pub fn serve_mix(seed: u64, smoke: bool) -> ServeInputs {
    let per_client = if smoke { 120 } else { 4000 };
    let mut fresh = FreshDesigns {
        rng: stream(seed, 3),
        distinct: Distinct::default(),
    };
    let mut rng = stream(seed, 4);
    let mut inputs = ServeInputs::default();
    for client in &mut inputs.clients {
        let mut kinds = Vec::with_capacity(per_client);
        for (kind, pct) in [
            (Kind::Fresh, 25),
            (Kind::Repeat, 45),
            (Kind::Iso, 15),
            (Kind::Shift, 10),
            (Kind::TwinRepeat, 5),
        ] {
            kinds.extend(std::iter::repeat_n(kind, per_client * pct / 100));
        }
        for i in (1..kinds.len()).rev() {
            let j = below(&mut rng, i + 1);
            kinds.swap(i, j);
        }
        let first_fresh = kinds
            .iter()
            .position(|&k| k == Kind::Fresh)
            .expect("25% fresh");
        kinds.swap(0, first_fresh);
        // (request index, design, schedule, shifts handed out so far)
        let mut bases: Vec<(usize, Dfg, Schedule, u32)> = Vec::new();
        let mut twins: Vec<usize> = Vec::new();
        for kind in kinds {
            let i = client.len();
            let kind = match kind {
                Kind::TwinRepeat if twins.is_empty() => Kind::Repeat,
                k => k,
            };
            let request = match kind {
                Kind::Fresh => {
                    let (dfg, schedule) = fresh.next();
                    let text = to_text(&dfg, &schedule);
                    bases.push((i, dfg, schedule, 0));
                    Request {
                        text,
                        expect: Expect::First,
                        fresh: true,
                    }
                }
                Kind::Repeat => {
                    let j = bases[below(&mut rng, bases.len())].0;
                    Request {
                        text: client[j].text.clone(),
                        expect: Expect::SameAs(j),
                        fresh: false,
                    }
                }
                Kind::Iso => {
                    let (j, dfg, schedule, _) = &bases[below(&mut rng, bases.len())];
                    let (twin, twin_schedule) = permute(dfg, schedule, splitmix64(&mut rng));
                    twins.push(i);
                    Request {
                        text: to_text(&twin, &twin_schedule),
                        expect: Expect::SameAs(*j),
                        fresh: false,
                    }
                }
                Kind::Shift => {
                    // Each shifted twin of a base uses a new shift, so it
                    // is never isomorphic to an earlier one.
                    let k = below(&mut rng, bases.len());
                    bases[k].3 += 1;
                    let (_, dfg, schedule, shift) = &bases[k];
                    twins.push(i);
                    Request {
                        text: shifted(dfg, schedule, splitmix64(&mut rng), *shift),
                        expect: Expect::First,
                        fresh: false,
                    }
                }
                Kind::TwinRepeat => {
                    let j = twins[below(&mut rng, twins.len())];
                    Request {
                        text: client[j].text.clone(),
                        expect: Expect::SameAs(j),
                        fresh: false,
                    }
                }
            };
            client.push(request);
        }
    }
    inputs
}

/// Shift variants per base design in the primed store.
const VARIANTS: u32 = 10;

/// `serve-restart` inputs: a store primed with `bases × 10` distinct
/// scheduled designs (each base plus nine renamed shifted variants, so
/// priming synthesizes only the bases), then per client: each of its
/// primed designs once, 40% of them again, and one new shifted variant
/// per base (10% of the primed count).
pub fn serve_restart(seed: u64, smoke: bool) -> ServeInputs {
    let bases = if smoke { 24 } else { 300 };
    let mut fresh = FreshDesigns {
        rng: stream(seed, 5),
        distinct: Distinct::default(),
    };
    let mut rng = stream(seed, 6);
    let mut inputs = ServeInputs::default();
    // (sort key, request): primed designs in shuffled order, a repeat
    // somewhere after its first request, twins anywhere.
    let mut keyed: [Vec<(u64, Request)>; 2] = Default::default();
    for b in 0..bases {
        let (dfg, schedule) = fresh.next();
        let client = &mut keyed[b % 2];
        for v in 0..VARIANTS {
            let text = if v == 0 {
                to_text(&dfg, &schedule)
            } else {
                shifted(&dfg, &schedule, splitmix64(&mut rng), v)
            };
            let p = inputs.prime.len();
            inputs.prime.push(text.clone());
            let at = splitmix64(&mut rng) % 1_000_000;
            if below(&mut rng, 10) < 4 {
                client.push((
                    at + 1 + splitmix64(&mut rng) % 200_000,
                    Request {
                        text: text.clone(),
                        expect: Expect::Primed(p),
                        fresh: false,
                    },
                ));
            }
            client.push((
                at,
                Request {
                    text,
                    expect: Expect::Primed(p),
                    fresh: false,
                },
            ));
        }
        client.push((
            splitmix64(&mut rng) % 1_000_000,
            Request {
                text: shifted(&dfg, &schedule, splitmix64(&mut rng), VARIANTS),
                expect: Expect::First,
                fresh: false,
            },
        ));
    }
    for (client, mut list) in inputs.clients.iter_mut().zip(keyed) {
        list.sort_by_key(|(at, _)| *at);
        client.extend(list.into_iter().map(|(_, r)| r));
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        let a = serve_mix(7, true);
        let b = serve_mix(7, true);
        let c = serve_mix(8, true);
        let texts = |s: &ServeInputs| -> Vec<String> {
            s.clients.iter().flatten().map(|r| r.text.clone()).collect()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        let designs = |s: Sweep| -> Vec<String> { s.designs.into_iter().map(|d| d.text).collect() };
        assert_eq!(designs(sweep(3, true)), designs(sweep(3, true)));
        assert_ne!(designs(sweep(3, true)), designs(sweep(4, true)));
    }

    #[test]
    fn serve_mix_references_point_backwards() {
        let inputs = serve_mix(1, true);
        for client in &inputs.clients {
            assert!(client[0].fresh);
            for (i, r) in client.iter().enumerate() {
                if let Expect::SameAs(j) = r.expect {
                    assert!(j < i);
                }
            }
            let fresh = client.iter().filter(|r| r.fresh).count();
            assert_eq!(fresh, client.len() / 4);
        }
    }

    #[test]
    fn restart_requests_cover_the_primed_store() {
        let inputs = serve_restart(1, true);
        let mut seen = HashSet::new();
        for client in &inputs.clients {
            for r in client {
                if let Expect::Primed(p) = r.expect {
                    assert_eq!(r.text, inputs.prime[p]);
                    seen.insert(p);
                }
            }
        }
        assert_eq!(seen.len(), inputs.prime.len());
        let twins = inputs
            .clients
            .iter()
            .flatten()
            .filter(|r| r.expect == Expect::First);
        assert_eq!(twins.count(), inputs.prime.len() / VARIANTS as usize);
    }

    #[test]
    fn chunks_cover_every_design_once_and_balance_cost() {
        let s = sweep(1, false);
        let mut all: Vec<usize> = s.chunks.concat();
        all.sort_unstable();
        assert_eq!(all, (0..s.designs.len()).collect::<Vec<_>>());
        let loads: Vec<f64> = s
            .chunks
            .iter()
            .map(|c| c.iter().map(|&i| s.designs[i].cost).sum())
            .collect();
        let max = loads.iter().copied().fold(0.0, f64::max);
        let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.1, "{loads:?}");
    }
}
