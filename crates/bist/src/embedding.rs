//! BIST embeddings of operator modules.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;

use lobist_datapath::ipath::IPathAnalysis;
use lobist_datapath::{ModuleId, PortSide, RegisterId, SourceRef};
use lobist_dfg::VarId;

/// A source of pseudo-random patterns for a module input port.
///
/// In partial-intrusion BIST, patterns come either from a register
/// reconfigured as a TPG (which costs area) or from a controllable
/// primary input driven by the test wrapper (which is free — the paper's
/// Paulin comparison keeps loop inputs on ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PatternSource {
    /// A register upgraded to TPG.
    Register(RegisterId),
    /// A controllable primary input.
    Input(VarId),
}

impl PatternSource {
    /// The register, if this source is one.
    pub fn register(self) -> Option<RegisterId> {
        match self {
            PatternSource::Register(r) => Some(r),
            PatternSource::Input(_) => None,
        }
    }
}

impl fmt::Display for PatternSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternSource::Register(r) => write!(f, "{r}"),
            PatternSource::Input(v) => write!(f, "in:{v}"),
        }
    }
}

/// A BIST embedding of one module: which pattern source feeds each input
/// port and which register compacts the output.
///
/// The two pattern sources must be distinct (one register cannot produce
/// two independent streams, and one input pin carries one value). The SA
/// register *may* coincide with a TPG register — that configuration
/// still tests the module but forces the shared register to be a CBILBO
/// (it must generate and analyze in the same session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Embedding {
    /// Pattern source for the left input port.
    pub left: PatternSource,
    /// Pattern source for the right input port.
    pub right: PatternSource,
    /// SA for the output port.
    pub sa: RegisterId,
}

impl Embedding {
    /// Convenience constructor with register TPGs on both ports.
    pub fn with_registers(left: RegisterId, right: RegisterId, sa: RegisterId) -> Self {
        Self {
            left: PatternSource::Register(left),
            right: PatternSource::Register(right),
            sa,
        }
    }

    /// The register forced to be a CBILBO by this embedding (the SA when
    /// it doubles as a TPG), if any.
    pub fn cbilbo_register(&self) -> Option<RegisterId> {
        if self.left.register() == Some(self.sa) || self.right.register() == Some(self.sa) {
            Some(self.sa)
        } else {
            None
        }
    }

    /// The TPG registers of this embedding (0, 1 or 2 entries).
    pub fn tpg_registers(&self) -> impl Iterator<Item = RegisterId> + '_ {
        [self.left, self.right]
            .into_iter()
            .filter_map(PatternSource::register)
    }

    /// The distinct registers used by this embedding.
    pub fn registers(&self) -> Vec<RegisterId> {
        let mut regs: Vec<RegisterId> = self.tpg_registers().collect();
        regs.push(self.sa);
        regs.sort_unstable();
        regs.dedup();
        regs
    }
}

impl fmt::Display for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TPG(L)={}, TPG(R)={}, SA={}", self.left, self.right, self.sa)
    }
}

/// Enumerates every BIST embedding of module `m` over the I-path
/// candidate sets, in deterministic (sorted) order.
///
/// Returns an empty vector when the module cannot be embedded (some port
/// has no pattern source, or the only sources on the two ports are one
/// and the same).
pub fn enumerate(ipaths: &IPathAnalysis, m: ModuleId) -> Vec<Embedding> {
    let sources = |side: PortSide| -> Vec<PatternSource> {
        let mut v: Vec<PatternSource> = ipaths
            .tpg_candidates(m, side)
            .iter()
            .map(|&r| PatternSource::Register(r))
            .collect();
        v.extend(
            ipaths
                .input_candidates(m, side)
                .iter()
                .map(|&x| PatternSource::Input(x)),
        );
        v
    };
    cross_product(
        &sources(PortSide::Left),
        &sources(PortSide::Right),
        ipaths.sa_candidates(m),
    )
}

/// Enumerates one module's embeddings directly from its port source
/// sets and output-destination registers, bypassing the whole-data-path
/// [`IPathAnalysis`]. Produces the exact sequence [`enumerate`] would:
/// a sorted `SourceRef` set lists registers before external inputs,
/// each in id order, matching the candidate-set iteration there.
/// This is the incremental flow cache's per-module enumeration — only
/// the connectivity of the one module whose sources changed is needed.
pub fn enumerate_from_connectivity(
    left: &BTreeSet<SourceRef>,
    right: &BTreeSet<SourceRef>,
    dests: &BTreeSet<RegisterId>,
) -> Vec<Embedding> {
    let sources = |set: &BTreeSet<SourceRef>| -> Vec<PatternSource> {
        set.iter()
            .filter_map(|s| match s {
                SourceRef::Register(r) => Some(PatternSource::Register(*r)),
                SourceRef::ExternalInput(v) => Some(PatternSource::Input(*v)),
                SourceRef::Constant(_) => None,
            })
            .collect()
    };
    cross_product(&sources(left), &sources(right), dests)
}

fn cross_product(
    left: &[PatternSource],
    right: &[PatternSource],
    sas: &BTreeSet<RegisterId>,
) -> Vec<Embedding> {
    let mut out = Vec::new();
    for &l in left {
        for &r in right {
            if l == r {
                continue;
            }
            for &sa in sas {
                out.push(Embedding { left: l, right: r, sa });
            }
        }
    }
    ENUMERATED.with(|c| c.set(c.get() + out.len() as u64));
    out
}

thread_local! {
    static ENUMERATED: Cell<u64> = const { Cell::new(0) };
}

/// How many embeddings [`enumerate`] and [`enumerate_from_connectivity`]
/// have produced on the calling thread so far: a deterministic work
/// counter. Callers take the difference of two readings around the work
/// they measure.
pub fn embeddings_enumerated() -> u64 {
    ENUMERATED.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_datapath::{
        DataPath, InterconnectAssignment, ModuleAssignment, RegisterAssignment,
    };
    use lobist_dfg::benchmarks;

    fn ex1_paths(swap_mul2: bool) -> IPathAnalysis {
        let bench = benchmarks::ex1();
        let regs = RegisterAssignment::from_names(
            &bench.dfg,
            &[vec!["c", "f", "a"], vec!["d", "g", "b", "h"], vec!["e"]],
        )
        .unwrap();
        let modules = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let mut ic = InterconnectAssignment::straight(&bench.dfg);
        if swap_mul2 {
            ic.swap(bench.dfg.op_by_name("mul2").unwrap());
        }
        let dp = DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &modules,
            &regs,
            &ic)
        .unwrap();
        IPathAnalysis::of(&dp)
    }

    #[test]
    fn adder_embeddings_force_cbilbo() {
        let ip = ex1_paths(false);
        // Adder: L={R1}, R={R2}, SA={R1,R2} → both embeddings share a TPG
        // with the SA, so each forces a CBILBO.
        let embs = enumerate(&ip, ModuleId(0));
        assert_eq!(embs.len(), 2);
        assert!(embs.iter().all(|e| e.cbilbo_register().is_some()));
    }

    #[test]
    fn mult_has_cbilbo_free_embedding() {
        let ip = ex1_paths(false);
        // Mult: L={R3(e), R1(c)}, R={R2(g), R3(e)}, SA={R2}.
        let embs = enumerate(&ip, ModuleId(1));
        assert!(embs.iter().any(|e| e.cbilbo_register().is_none()));
    }

    #[test]
    fn embedding_registers_dedup() {
        let e = Embedding::with_registers(RegisterId(0), RegisterId(1), RegisterId(0));
        assert_eq!(e.registers(), vec![RegisterId(0), RegisterId(1)]);
        assert_eq!(e.cbilbo_register(), Some(RegisterId(0)));
        let f = Embedding::with_registers(RegisterId(0), RegisterId(1), RegisterId(2));
        assert_eq!(f.registers().len(), 3);
        assert_eq!(f.cbilbo_register(), None);
        assert_eq!(f.tpg_registers().count(), 2);
    }

    #[test]
    fn input_sources_are_free_tpgs() {
        let e = Embedding {
            left: PatternSource::Input(lobist_dfg::VarId(0)),
            right: PatternSource::Register(RegisterId(1)),
            sa: RegisterId(2),
        };
        assert_eq!(e.tpg_registers().count(), 1);
        assert_eq!(e.cbilbo_register(), None);
        assert_eq!(e.registers(), vec![RegisterId(1), RegisterId(2)]);
    }

    #[test]
    fn same_input_cannot_feed_both_ports() {
        // Build a tiny data path where one port-resident input feeds both
        // ports: x * x with x unregistered.
        use lobist_dfg::lifetime::LifetimeOptions;
        use lobist_dfg::{DfgBuilder, OpKind, Schedule};
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.op(OpKind::Mul, "t", x.into(), x.into());
        b.mark_output(t);
        let dfg = b.build().unwrap();
        let schedule = Schedule::new(&dfg, vec![1]).unwrap();
        let modules: lobist_dfg::modules::ModuleSet = "1*".parse().unwrap();
        let ma = ModuleAssignment::from_op_names(&dfg, &modules, &[("t_op", 0)]).unwrap();
        let ra = RegisterAssignment::from_names(&dfg, &[vec!["t"]]).unwrap();
        let ic = InterconnectAssignment::straight(&dfg);
        let dp = DataPath::build(&dfg, &schedule, LifetimeOptions::port_inputs(), &ma, &ra, &ic)
            .unwrap();
        let ip = IPathAnalysis::of(&dp);
        assert!(enumerate(&ip, ModuleId(0)).is_empty());
        assert!(!ip.has_embedding(ModuleId(0)));
    }

    #[test]
    fn connectivity_enumeration_matches_ipath_enumeration() {
        let bench = benchmarks::ex1();
        let regs = RegisterAssignment::from_names(
            &bench.dfg,
            &[vec!["c", "f", "a"], vec!["d", "g", "b", "h"], vec!["e"]],
        )
        .unwrap();
        let modules = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let ic = InterconnectAssignment::straight(&bench.dfg);
        let dp = DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &modules,
            &regs,
            &ic,
        )
        .unwrap();
        let ip = IPathAnalysis::of(&dp);
        for m in dp.module_ids() {
            let left = dp.port_sources(lobist_datapath::Port { module: m, side: PortSide::Left });
            let right =
                dp.port_sources(lobist_datapath::Port { module: m, side: PortSide::Right });
            let direct = enumerate_from_connectivity(left, right, dp.output_destinations(m));
            assert_eq!(direct, enumerate(&ip, m), "{m}");
        }
    }

    #[test]
    fn display_is_readable() {
        let e = Embedding::with_registers(RegisterId(0), RegisterId(1), RegisterId(2));
        assert_eq!(e.to_string(), "TPG(L)=R1, TPG(R)=R2, SA=R3");
        let p = PatternSource::Input(lobist_dfg::VarId(4));
        assert_eq!(p.to_string(), "in:v4");
    }
}
