//! The content-key schema results are stored under.
//!
//! A job is keyed by what actually determines its outcome — the
//! design's shift-normalized canonical encoding
//! ([`lobist_dfg::canon::visit_rebased`]), the module set, and the flow
//! options — not by how the job was labelled or where its design file
//! lived. Designs that differ only in names, statement order, or a
//! uniform shift of their schedule share one [`canonical_job_key`].
//! Failures are the exception: their text can name absolute steps, so
//! a failure is stored under [`failure_key`], the key of the design's
//! own un-rebased encoding.
//!
//! The leading domain tag (`canon3`) keeps this key space disjoint from
//! every earlier schema's, so records an older log holds under `canon2`
//! or `text2` keys are never looked up again.

use lobist_alloc::flow::{FlowOptions, RegAllocStrategy};
use lobist_bist::SolverMode;
use lobist_dfg::canon::visit_rebased;
use lobist_dfg::modules::ModuleSet;

/// 128-bit FNV-1a over a byte stream; collision-resistant enough for a
/// store of at most ~10^5 results, and fully stable across runs and
/// platforms.
struct Fnv128(u128);

impl Fnv128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Ends a field, so ("ab", "c") and ("a", "bc") hash differently.
    fn end_field(&mut self) {
        self.write(&[0x1f]);
    }
}

/// Hashes `[key domain, design, modules, flow]`, with the design bytes
/// produced by `design`.
fn job_hash(design: impl FnOnce(&mut Fnv128), modules: &ModuleSet, flow: &FlowOptions) -> u128 {
    let mut h = Fnv128::new();
    h.write(b"canon3");
    h.end_field();
    design(&mut h);
    h.end_field();
    h.write(modules.to_string().as_bytes());
    h.end_field();
    h.write(&flow_bytes(flow));
    h.end_field();
    h.0
}

/// A stable, explicit byte encoding of every [`FlowOptions`] field.
///
/// The job key used to hash the options' `Debug` rendering; that was
/// faithful but fragile — renaming a field or reordering the struct
/// would silently re-key every stored result. This encoding is the
/// schema: fixed field order, fixed widths, a leading version byte
/// (bump it when the option set changes shape).
pub fn flow_bytes(flow: &FlowOptions) -> Vec<u8> {
    let mut b = Vec::with_capacity(160);
    b.push(1u8); // encoding version
    match &flow.strategy {
        RegAllocStrategy::Testable(t) => {
            b.push(0);
            b.push(t.sd_ordering as u8);
            b.push(t.case_overrides as u8);
            b.push(t.lemma2_check as u8);
        }
        RegAllocStrategy::Traditional(algo) => {
            b.push(1);
            b.push(*algo as u8);
            b.push(0);
            b.push(0);
        }
    }
    b.push(flow.bist_aware_interconnect as u8);
    let a = &flow.area;
    b.extend_from_slice(&a.width.to_le_bytes());
    for gates in [
        a.register_per_bit,
        a.mux_leg_per_bit,
        a.add_per_bit,
        a.sub_per_bit,
        a.mul_per_bit2,
        a.div_per_bit2,
        a.logic_per_bit,
        a.cmp_per_bit,
        a.alu_per_bit,
        a.tpg_extra_per_bit,
        a.sa_extra_per_bit,
        a.bilbo_extra_per_bit,
        a.cbilbo_extra_per_bit,
    ] {
        b.extend_from_slice(&gates.to_le_bytes());
    }
    b.push(match flow.solver.mode {
        SolverMode::Auto => 0,
        SolverMode::Exact => 1,
        SolverMode::Greedy => 2,
    });
    b.extend_from_slice(&(flow.solver.exact_module_limit as u64).to_le_bytes());
    b.push(flow.lifetime_options.inputs_in_registers as u8);
    b.push(flow.repair_untestable as u8);
    b
}

/// The stable content hash of one synthesis job, keyed by the design's
/// *shift-normalized* canonical encoding
/// ([`lobist_dfg::canon::CanonForm::encoding`] with the earliest step
/// rebased to 1), plus the uniform schedule shift that was normalized
/// away (0 when the design already starts at step 1).
///
/// Every design isomorphic to another up to a uniform schedule shift
/// shares this key, so a renamed, reordered or shifted resubmission is
/// a cache hit. Sound because equal rebased encodings mean one
/// canonical design up to the shift: results are stored in canonical
/// coordinates, and synthesis is shift-invariant in every field except
/// latency and schedule, which
/// [`lobist_alloc::explore::remap_point`] takes from the requester.
///
/// The rebased steps stream into the hash; the encoding is never
/// copied.
pub fn canonical_job_key(encoding: &[u8], modules: &ModuleSet, flow: &FlowOptions) -> (u128, u32) {
    let mut shift = 0;
    let key = job_hash(
        |h| match visit_rebased(encoding, |chunk| h.write(chunk)) {
            Some(s) => shift = s,
            // Not a canonical encoding (never produced by `canonize`):
            // key the bytes as they are.
            None => h.write(encoding),
        },
        modules,
        flow,
    );
    (key, shift)
}

/// The key a *failure* is stored under: the same hash over the design's
/// own un-rebased encoding. Failure texts can name absolute schedule
/// steps, so a failure answers only its exact shift. For a design that
/// already starts at step 1 this equals [`canonical_job_key`]'s key.
pub fn failure_key(encoding: &[u8], modules: &ModuleSet, flow: &FlowOptions) -> u128 {
    job_hash(|h| h.write(encoding), modules, flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;
    use lobist_dfg::canon::{canonize, permute, CanonForm};
    use lobist_dfg::{Dfg, Schedule};

    fn ex1() -> (Dfg, Schedule, ModuleSet) {
        let bench = benchmarks::ex1();
        (bench.dfg, bench.schedule, bench.module_allocation)
    }

    fn shifted(dfg: &Dfg, schedule: &Schedule, k: u32) -> CanonForm {
        let steps: Vec<u32> = schedule.as_slice().iter().map(|s| s + k).collect();
        canonize(dfg, &Schedule::new(dfg, steps).expect("shift is valid"))
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let (dfg, schedule, modules) = ex1();
        let enc = canonize(&dfg, &schedule).encoding;
        let flow = FlowOptions::testable();
        let (key, _) = canonical_job_key(&enc, &modules, &flow);
        assert_eq!(key, canonical_job_key(&enc, &modules, &flow).0);
        // A different flow changes the key...
        let traditional = FlowOptions::traditional();
        assert_ne!(key, canonical_job_key(&enc, &modules, &traditional).0);
        // ...as does a different module set.
        let other: ModuleSet = "2+,2*".parse().expect("valid");
        assert_ne!(key, canonical_job_key(&enc, &other, &flow).0);
    }

    #[test]
    fn flow_bytes_distinguish_every_option_family() {
        let base = FlowOptions::testable();
        let variants = [
            FlowOptions::traditional(),
            FlowOptions {
                bist_aware_interconnect: false,
                ..base.clone()
            },
            FlowOptions {
                repair_untestable: true,
                ..base.clone()
            },
            base.clone()
                .with_lifetimes(lobist_dfg::lifetime::LifetimeOptions {
                    inputs_in_registers: false,
                }),
            FlowOptions {
                solver: lobist_bist::SolverConfig {
                    mode: SolverMode::Greedy,
                    exact_module_limit: 10,
                },
                ..base.clone()
            },
            base.clone().with_area(lobist_datapath::area::AreaModel {
                width: 16,
                ..Default::default()
            }),
        ];
        let base_bytes = flow_bytes(&base);
        assert_eq!(base_bytes, flow_bytes(&base), "encoding is deterministic");
        for v in &variants {
            assert_ne!(base_bytes, flow_bytes(v), "{v:?} must re-key");
        }
    }

    #[test]
    fn canonical_key_is_shared_by_isomorphic_and_shifted_twins() {
        let (dfg, schedule, modules) = ex1();
        let flow = FlowOptions::testable();
        let c = canonize(&dfg, &schedule);
        let (key, shift) = canonical_job_key(&c.encoding, &modules, &flow);
        assert_eq!(shift, 0, "ex1 starts at step 1");
        assert_eq!(key, failure_key(&c.encoding, &modules, &flow));
        let (twin, twin_schedule) = permute(&dfg, &schedule, 99);
        let tc = canonize(&twin, &twin_schedule);
        assert_eq!((key, 0), canonical_job_key(&tc.encoding, &modules, &flow));
        for k in [1, 3] {
            let moved = shifted(&dfg, &schedule, k);
            assert_eq!(
                (key, k),
                canonical_job_key(&moved.encoding, &modules, &flow)
            );
            // Failures of a shifted twin keep their own key.
            assert_ne!(key, failure_key(&moved.encoding, &modules, &flow));
        }
    }

    #[test]
    fn field_ends_prevent_chunk_boundary_collisions() {
        let hash = |fields: &[&[u8]]| {
            let mut h = Fnv128::new();
            for f in fields {
                h.write(f);
                h.end_field();
            }
            h.0
        };
        assert_ne!(hash(&[b"ab", b"c"]), hash(&[b"a", b"bc"]));
        assert_ne!(hash(&[b"ab"]), hash(&[b"a", b"b"]));
    }
}
