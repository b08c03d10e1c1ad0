//! Single-stuck-at fault enumeration and coverage measurement.
//!
//! Faults are stuck-at-0/1 on every net (inputs, internal nets and
//! outputs). Simulation is parallel-pattern *differential*: one lane
//! word of patterns per pass (64 for `u64`, 256 for the wide
//! [`crate::lanes::W256`] word), one golden evaluation per batch, and per
//! still-undetected fault an event-driven propagation limited to the
//! fault's output cone ([`crate::diffsim::DiffSim`]) — orders of
//! magnitude cheaper than the textbook full-resimulation PPSFP
//! arrangement it replaces, with byte-identical results. The report —
//! detections, exact per-pattern first-detection stamps, and patterns
//! applied — is a pure function of the pattern stream: the same at
//! every lane width and for any parallel fault partition.
//!
//! Use [`crate::collapse::collapse_faults`] to simulate one
//! representative per structural equivalence class and expand the
//! report back to the full universe.

use crate::diffsim::DiffSim;
use crate::lanes::LaneWord;
use crate::net::{Fault, GateNetwork, NetId};

/// All single stuck-at faults of a network (two per net), excluding
/// *dead* nets — nets that neither fan out to a gate nor drive an
/// output, whose faults are structurally undetectable.
pub fn enumerate_faults(net: &GateNetwork) -> Vec<Fault> {
    let mut live = vec![false; net.num_nets()];
    for g in net.gates() {
        live[g.a.index()] = true;
        live[g.b.index()] = true;
    }
    for o in net.outputs() {
        live[o.index()] = true;
    }
    let mut faults = Vec::with_capacity(2 * net.num_nets());
    for n in 0..net.num_nets() as u32 {
        if live[n as usize] {
            for stuck_at_one in [false, true] {
                faults.push(Fault {
                    net: NetId(n),
                    stuck_at_one,
                });
            }
        }
    }
    faults
}

/// The outcome of a fault-coverage measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Faults considered.
    pub total_faults: usize,
    /// Faults whose effect reached an output for at least one pattern.
    pub detected: usize,
    /// Patterns the measurement needed: when every fault was detected,
    /// the largest first-detection stamp (the exact point the run could
    /// have stopped); otherwise the full requested budget. Defined this
    /// way the figure is invariant across lane widths and parallel
    /// fault partitions — a batch-count-based figure would not be.
    pub patterns_applied: u64,
    /// Per fault: the number of patterns applied by the end of the
    /// 64-pattern block in which it was first detected (clipped to the
    /// budget), indexed like the fault list; `None` = undetected.
    /// 64-lane blocks align with the batches of the `u64` reference at
    /// every lane width, so the stamp is width-invariant while letting
    /// the detection walks keep their early exit (a lane-exact stamp
    /// would force a full cone walk per detected fault — measured 3×
    /// slower on the multiplier benches).
    pub first_detection: Vec<Option<u64>>,
}

impl CoverageReport {
    /// Detected / total, in `0.0..=1.0` (1.0 for a fault-free network).
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Measures coverage of `faults` under a caller-supplied pattern source.
/// `next_batch` must fill one lane word per input (`W::LANES` patterns
/// per call — pattern `p` of the batch in lane `p`); `patterns` is the
/// total pattern budget. A final partial batch is clipped: only its
/// first `patterns % W::LANES` lanes are applied or counted.
pub fn measure_coverage<W: LaneWord, F>(
    net: &GateNetwork,
    faults: &[Fault],
    patterns: u64,
    next_batch: F,
) -> CoverageReport
where
    F: FnMut() -> Vec<W>,
{
    let mut sim = DiffSim::new(net);
    measure_coverage_with(&mut sim, faults, patterns, next_batch)
}

/// As [`measure_coverage`], reusing a caller-owned simulator (and its
/// scratch buffers) across calls; work counters accumulate on `sim`.
pub fn measure_coverage_with<W: LaneWord, F>(
    sim: &mut DiffSim<'_, W>,
    faults: &[Fault],
    patterns: u64,
    mut next_batch: F,
) -> CoverageReport
where
    F: FnMut() -> Vec<W>,
{
    let mut undetected: Vec<usize> = (0..faults.len()).collect();
    let mut first_detection: Vec<Option<u64>> = vec![None; faults.len()];
    let mut applied = 0u64;
    while applied < patterns && !undetected.is_empty() {
        let lanes = next_batch();
        let base = applied;
        let in_budget = (patterns - applied).min(W::LANES);
        applied += in_budget;
        sim.load_batch_masked(&lanes, W::lane_mask(in_budget));
        // In-place compaction; when the two polarities of one net are
        // adjacent in the undetected list (enumerate order, and collapse
        // representatives are (net, stuck)-sorted), one paired cone walk
        // answers both — byte-identical to two single queries. The
        // block queries keep the early exit (see
        // [`crate::diffsim::DiffSim::detect_block`]) and return the
        // first detecting 64-lane *block*; blocks align with the
        // 64-pattern batches of the `u64` reference, so the stamp
        // `base + min(64·(block+1), in_budget)` — the pattern count
        // applied by the end of that block — is identical at every lane
        // width, and identical to what a 64-lane run stamps at the end
        // of its detecting batch.
        let (mut read, mut write) = (0, 0);
        while read < undetected.len() {
            let fi = undetected[read];
            let f = faults[fi];
            let paired = undetected.get(read + 1).map(|&fj| faults[fj]);
            let (d0, d1, consumed) = match paired {
                Some(g) if g.net == f.net && f.stuck_at_one != g.stuck_at_one => {
                    let both = sim.detect_block_both(f.net);
                    let (di, dj) = if f.stuck_at_one {
                        (both.1, both.0)
                    } else {
                        both
                    };
                    (di, dj, 2)
                }
                _ => (sim.detect_block(f), None, 1),
            };
            for (d, k) in [(d0, read), (d1, read + 1)].into_iter().take(consumed) {
                let fk = undetected[k];
                if let Some(block) = d {
                    let by_end_of_block = 64 * (u64::from(block) + 1);
                    first_detection[fk] = Some(base + by_end_of_block.min(in_budget));
                } else {
                    undetected[write] = fk;
                    write += 1;
                }
            }
            read += consumed;
        }
        undetected.truncate(write);
    }
    let patterns_applied = if undetected.is_empty() {
        first_detection.iter().flatten().copied().max().unwrap_or(0)
    } else {
        patterns
    };
    CoverageReport {
        total_faults: faults.len(),
        detected: faults.len() - undetected.len(),
        patterns_applied,
        first_detection,
    }
}

/// Coverage under uniform pseudo-random patterns: one decorrelated
/// xorshift stream per input bit, `patterns` clocks. Simulates at 64
/// lanes — the widest *profitable* width for this loop. The coverage
/// walk early-exits on first detection and drops detected faults, which
/// makes the number of cone visits width-invariant (measured: identical
/// `cone_evals` at 64 and 256 lanes on the multiplier benches), so a wider
/// word only adds bytes per visit here; wide words pay off in full-walk
/// session mode instead ([`crate::lanes::auto_width`]). Wider
/// simulators remain available through
/// [`random_pattern_coverage_with`], and the result is byte-identical
/// at every width.
///
/// Per-bit taps of a *single* LFSR polynomial are unusable here: the
/// shift-and-add property of m-sequences makes some joint input events
/// structurally impossible, silently hiding detectable faults. This
/// utility therefore uses independent PRNG streams; for the physically
/// faithful per-operand-word LFSR arrangement, use
/// [`crate::bist_mode::run_session`].
///
/// Measures the full universe directly: [`enumerate_faults`] keeps the
/// two polarities of each net adjacent, so the coverage loop answers
/// both with one paired cone walk
/// ([`crate::diffsim::DiffSim::detect_block_both`]) — on the paper's
/// module library that is as fast as simulating collapsed class
/// representatives without paying for the collapse itself. Structural
/// collapsing ([`crate::collapse`]) still pays off when class counts or
/// per-class reports matter, e.g. the engine's partitioned driver.
pub fn random_pattern_coverage(net: &GateNetwork, patterns: u64, seed: u64) -> CoverageReport {
    random_pattern_coverage_of(net, &enumerate_faults(net), patterns, seed)
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// As [`random_pattern_coverage`] but over a caller-chosen fault list
/// (64-lane for the same reason; see `random_pattern_coverage`).
pub fn random_pattern_coverage_of(
    net: &GateNetwork,
    faults: &[Fault],
    patterns: u64,
    seed: u64,
) -> CoverageReport {
    let mut sim = DiffSim::<u64>::new(net);
    random_pattern_coverage_with(&mut sim, faults, patterns, seed)
}

/// As [`random_pattern_coverage_of`], reusing a caller-owned simulator
/// of any lane width. The pattern stream is a pure function of `seed`
/// and the input count — each input's stream is consumed 64 patterns
/// per `u64` word, and a wide batch packs `W::WORDS` consecutive words
/// per input, so pattern `p` carries the same input values at every
/// width. Any fault sublist simulated with the same seed therefore sees
/// the same patterns — the property the parallel fault partitions (and
/// the cross-width byte-identity tests) rely on.
pub fn random_pattern_coverage_with<W: LaneWord>(
    sim: &mut DiffSim<'_, W>,
    faults: &[Fault],
    patterns: u64,
    seed: u64,
) -> CoverageReport {
    let num_inputs = sim.network().inputs().len() as u64;
    let mut states: Vec<u64> = (0..num_inputs)
        .map(|i| {
            let mut s = seed ^ i.wrapping_mul(0xA24BAED4963EE407);
            splitmix64(&mut s)
        })
        .collect();
    measure_coverage_with(sim, faults, patterns, || {
        states
            .iter_mut()
            .map(|s| W::from_words(|| splitmix64(s)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::W256;
    use crate::modules::{array_multiplier, logic_unit, ripple_adder, subtractor};
    use lobist_dfg::OpKind;

    /// The pre-diffsim textbook path: full faulty re-evaluation per
    /// fault per batch. Kept as the oracle for byte-identity tests.
    fn measure_coverage_reference<F>(
        net: &GateNetwork,
        faults: &[Fault],
        patterns: u64,
        mut next_batch: F,
    ) -> CoverageReport
    where
        F: FnMut() -> Vec<u64>,
    {
        let mut undetected: Vec<usize> = (0..faults.len()).collect();
        let mut first_detection: Vec<Option<u64>> = vec![None; faults.len()];
        let mut applied = 0u64;
        while applied < patterns && !undetected.is_empty() {
            let lanes = next_batch();
            let base = applied;
            let in_budget = (patterns - applied).min(64);
            applied += in_budget;
            let mask = if in_budget == 64 {
                u64::MAX
            } else {
                (1u64 << in_budget) - 1
            };
            let golden = net.eval_lanes(&lanes);
            undetected.retain(|&fi| {
                let faulty = net.eval_lanes_with(&lanes, Some(faults[fi]));
                let lanes_hit = faulty
                    .iter()
                    .zip(&golden)
                    .fold(0u64, |acc, (f, g)| acc | (f ^ g))
                    & mask;
                if lanes_hit != 0 {
                    // Stamp the end of the detecting 64-pattern batch —
                    // the block-granular contract of `first_detection`.
                    first_detection[fi] = Some(base + in_budget);
                }
                lanes_hit == 0
            });
        }
        let patterns_applied = if undetected.is_empty() {
            first_detection.iter().flatten().copied().max().unwrap_or(0)
        } else {
            patterns
        };
        CoverageReport {
            total_faults: faults.len(),
            detected: faults.len() - undetected.len(),
            patterns_applied,
            first_detection,
        }
    }

    fn counter_batches(num_inputs: usize) -> impl FnMut() -> Vec<u64> {
        let mut counter = 0u64;
        move || {
            let base = counter;
            counter += 64;
            (0..num_inputs)
                .map(|i| {
                    let mut w = 0u64;
                    for lane in 0..64u64 {
                        let pattern = base + lane;
                        w |= ((pattern >> i) & 1) << lane;
                    }
                    w
                })
                .collect()
        }
    }

    /// The same exhaustive counting patterns as [`counter_batches`] but
    /// packed `W::LANES` per batch — pattern `p` lands in global lane
    /// `p` at every width.
    fn counter_batches_wide<W: LaneWord>(num_inputs: usize) -> impl FnMut() -> Vec<W> {
        let mut counter = 0u64;
        move || {
            let base = counter;
            counter += W::LANES;
            (0..num_inputs)
                .map(|i| {
                    let mut word = 0usize;
                    W::from_words(|| {
                        let lo = base + 64 * word as u64;
                        word += 1;
                        let mut w = 0u64;
                        for lane in 0..64u64 {
                            w |= (((lo + lane) >> i) & 1) << lane;
                        }
                        w
                    })
                })
                .collect()
        }
    }

    #[test]
    fn exhaustive_patterns_saturate_adder_coverage() {
        // 4-bit adder has 8 inputs → 256 patterns = exhaustive; every
        // structurally detectable fault must be found.
        let net = ripple_adder(4);
        let faults = enumerate_faults(&net);
        let report = measure_coverage(&net, &faults, 256, counter_batches(net.inputs().len()));
        assert_eq!(
            report.detected, report.total_faults,
            "adder has no redundant faults: {report:?}"
        );
    }

    #[test]
    fn random_patterns_reach_high_coverage_quickly() {
        for (name, net) in [
            ("adder8", ripple_adder(8)),
            ("sub8", subtractor(8)),
            ("and8", logic_unit(OpKind::And, 8)),
            ("mul4", array_multiplier(4)),
        ] {
            let report = random_pattern_coverage(&net, 512, 0xBEEF);
            assert!(
                report.coverage() > 0.90,
                "{name}: only {:.1}% coverage",
                report.coverage() * 100.0
            );
        }
    }

    #[test]
    fn coverage_is_monotone_in_pattern_count() {
        let net = array_multiplier(4);
        let short = random_pattern_coverage(&net, 64, 7);
        let long = random_pattern_coverage(&net, 1024, 7);
        assert!(long.detected >= short.detected);
    }

    #[test]
    fn first_detection_is_recorded() {
        let net = ripple_adder(4);
        let report = random_pattern_coverage(&net, 256, 3);
        for (fi, fd) in report.first_detection.iter().enumerate() {
            if let Some(p) = fd {
                assert!(*p > 0 && *p <= report.patterns_applied, "fault {fi}");
            }
        }
        let detected_count = report.first_detection.iter().flatten().count();
        assert_eq!(detected_count, report.detected);
    }

    #[test]
    fn empty_fault_list() {
        let net = ripple_adder(2);
        let report = measure_coverage(&net, &[], 64, || vec![0u64; net.inputs().len()]);
        assert_eq!(report.total_faults, 0);
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn patterns_applied_respects_the_budget() {
        // 100 patterns = a partial trailing batch at every width (36
        // in-budget lanes after one u64 batch; 100 of 256 lanes for
        // the wide word); the pre-fix path reported 128 applied. The
        // network carries a redundant fault (SA0 on the AND of
        // `x | (x & y)` never changes the output), so the full budget is
        // always consumed rather than ending early on full detection.
        use crate::net::NetworkBuilder;
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let o = b.or(x, a);
        let net = b.finish(vec![o]);
        let faults = enumerate_faults(&net);
        let report = random_pattern_coverage_of(&net, &faults, 100, 0xACE1);
        assert!(report.detected < report.total_faults);
        assert_eq!(report.patterns_applied, 100);
        for d in report.first_detection.iter().flatten() {
            assert!(*d >= 1 && *d <= 100, "stamp {d} outside the budget");
        }
        // The exact same figures at every width — the trailing partial
        // batch counts as its in-budget lanes, not the lane width
        // (regression guard for the batch-overcount bug, generalized).
        let mut w256 = DiffSim::<W256>::new(&net);
        let wide256 = random_pattern_coverage_with(&mut w256, &faults, 100, 0xACE1);
        assert_eq!(wide256, report);
        assert_eq!(wide256.patterns_applied, 100);
    }

    #[test]
    fn patterns_applied_stops_at_the_last_detection() {
        // Exhaustive counting patterns saturate the 2-bit adder well
        // before the budget; the applied figure is the exact largest
        // stamp — identical at every width even though the widths load
        // different batch counts.
        let net = ripple_adder(2);
        let faults = enumerate_faults(&net);
        let narrow = measure_coverage(&net, &faults, 10_000, counter_batches(net.inputs().len()));
        assert_eq!(narrow.detected, narrow.total_faults);
        let max_stamp = narrow
            .first_detection
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap();
        assert_eq!(narrow.patterns_applied, max_stamp);
        assert!(max_stamp < 10_000);
        let wide = measure_coverage(
            &net,
            &faults,
            10_000,
            counter_batches_wide::<W256>(net.inputs().len()),
        );
        assert_eq!(wide, narrow);
    }

    #[test]
    fn out_of_budget_lanes_do_not_detect() {
        // With a budget of 1 pattern only lane 0 counts; the reference
        // and the differential path must agree on that.
        let net = ripple_adder(2);
        let faults = enumerate_faults(&net);
        let diff = measure_coverage(&net, &faults, 1, counter_batches(net.inputs().len()));
        let reference =
            measure_coverage_reference(&net, &faults, 1, counter_batches(net.inputs().len()));
        assert_eq!(diff, reference);
        assert_eq!(diff.patterns_applied, 1);
        // Pattern 0 is all-zero inputs: SA1 faults on the inputs are
        // excited, SA0 faults are not.
        assert!(diff.detected < diff.total_faults);
    }

    #[test]
    fn differential_path_is_byte_identical_to_reference() {
        for (name, net) in [
            ("adder4", ripple_adder(4)),
            ("sub4", subtractor(4)),
            ("xor4", logic_unit(OpKind::Xor, 4)),
            ("mul4", array_multiplier(4)),
        ] {
            let faults = enumerate_faults(&net);
            for patterns in [64u64, 100, 256] {
                let fast =
                    measure_coverage(&net, &faults, patterns, counter_batches(net.inputs().len()));
                let slow = measure_coverage_reference(
                    &net,
                    &faults,
                    patterns,
                    counter_batches(net.inputs().len()),
                );
                assert_eq!(fast, slow, "{name} at {patterns} patterns");
            }
        }
    }

    #[test]
    fn wide_lanes_are_byte_identical_to_the_u64_reference() {
        // The tentpole acceptance property in unit-test form: the full
        // report (stamps included) matches across widths for budgets
        // aligned and misaligned with every lane width.
        for (name, net) in [("adder4", ripple_adder(4)), ("mul4", array_multiplier(4))] {
            let faults = enumerate_faults(&net);
            for patterns in [64u64, 100, 256, 300, 512, 515, 1000] {
                let mut narrow = DiffSim::<u64>::new(&net);
                let mut wide256 = DiffSim::<W256>::new(&net);
                let a = random_pattern_coverage_with(&mut narrow, &faults, patterns, 0xBEEF);
                let b = random_pattern_coverage_with(&mut wide256, &faults, patterns, 0xBEEF);
                assert_eq!(a, b, "{name} at {patterns} patterns (W256)");
            }
        }
    }

    #[test]
    fn collapsed_coverage_equals_uncollapsed() {
        use crate::collapse::collapse_faults;
        for (name, net) in [
            ("adder8", ripple_adder(8)),
            ("sub8", subtractor(8)),
            ("and8", logic_unit(OpKind::And, 8)),
            ("mul4", array_multiplier(4)),
        ] {
            let collapsed = collapse_faults(&net);
            assert!(
                collapsed.collapsed_away() > 0,
                "{name}: expected some structural equivalence"
            );
            let full = random_pattern_coverage_of(&net, &enumerate_faults(&net), 512, 0xBEEF);
            let reps = random_pattern_coverage_of(&net, collapsed.representatives(), 512, 0xBEEF);
            let expanded = collapsed.expand_coverage(&reps);
            assert_eq!(expanded, full, "{name}");
            assert_eq!(random_pattern_coverage(&net, 512, 0xBEEF), full, "{name}");
        }
    }
}
