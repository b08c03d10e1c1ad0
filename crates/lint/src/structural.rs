//! Structural passes: data-path connectivity (`structure`) and per-module
//! gate netlists (`gates`).
//!
//! The `structure` pass audits the connection sets of an assembled
//! [`DataPath`](lobist_datapath::DataPath): out-of-range references, undriven ports, unreachable and
//! dead registers. The `gates` pass regenerates every module's gate-level
//! netlist at the design width and checks it like an RTL netlist checker
//! would: single drivers, no floating reads, no combinational loops, and
//! the interface the data path expects. [`lint_network`] is the
//! standalone network checker both the pass and the mutation suite call.

use std::collections::BTreeSet;

use lobist_datapath::{ModuleId, Port, PortSide, SourceRef};
use lobist_dfg::modules::ModuleClass;
use lobist_dfg::OpKind;
use lobist_gatesim::modules::module_unit;
use lobist_gatesim::net::GateNetwork;
use lobist_graph::scc::DiGraph;

use crate::context::LintUnit;
use crate::diag::{Code, Diagnostic, Span};
use crate::registry::Pass;

/// The interface a gate network is expected to present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkInterface {
    /// Expected primary-input count.
    pub inputs: usize,
    /// Expected primary-output count.
    pub outputs: usize,
}

/// The interface a functional unit presents at `width` bits: two operand
/// words in, one result word out, plus one select line per distinct
/// operation kind for an ALU.
pub fn expected_unit_interface(
    class: ModuleClass,
    kinds: &[OpKind],
    width: u32,
) -> NetworkInterface {
    let controls = match class {
        ModuleClass::Op(_) => 0,
        ModuleClass::Alu => kinds.len(),
    };
    NetworkInterface {
        inputs: 2 * width as usize + controls,
        outputs: width as usize,
    }
}

/// Checks one gate network: every net read (by a gate or an output) has
/// exactly one driver, the signal graph is acyclic, and — when an
/// expected interface is given — the input/output counts match.
///
/// `module` scopes the resulting spans; pass `None` when linting a
/// standalone network.
pub fn lint_network(
    net: &GateNetwork,
    expected: Option<NetworkInterface>,
    module: Option<ModuleId>,
) -> Vec<Diagnostic> {
    lint_network_with(net, expected, module, &mut Vec::new())
}

/// [`lint_network`] with a caller-owned driver-census buffer, so a
/// driver checking many module netlists (the `gates` pass over every
/// cone) reuses one allocation throughout.
pub fn lint_network_with(
    net: &GateNetwork,
    expected: Option<NetworkInterface>,
    module: Option<ModuleId>,
    drivers: &mut Vec<u32>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = net.num_nets();
    let net_span = |id: u32| Span::Net { module, net: id };
    let whole_span = module.map(Span::Module).unwrap_or(Span::Design);

    // Driver census: primary inputs count as one driver each.
    drivers.clear();
    drivers.resize(n, 0u32);
    for i in net.inputs() {
        drivers[i.index()] += 1;
    }
    for g in net.gates() {
        drivers[g.out.index()] += 1;
    }
    for (id, &d) in drivers.iter().enumerate() {
        if d > 1 {
            out.push(Diagnostic::new(
                Code::L002MultiplyDrivenNet,
                net_span(id as u32),
                format!("net n{id} has {d} drivers"),
            ));
        }
    }

    // Floating reads: gate operands and primary outputs must be driven.
    let mut read: BTreeSet<u32> = net.outputs().iter().map(|o| o.0).collect();
    for g in net.gates() {
        read.insert(g.a.0);
        read.insert(g.b.0);
    }
    for id in read {
        if drivers[id as usize] == 0 {
            out.push(Diagnostic::new(
                Code::L001UndrivenNet,
                net_span(id),
                format!("net n{id} is read but never driven"),
            ));
        }
    }

    // Combinational loops: one diagnostic per cyclic component.
    let mut g = DiGraph::new(n);
    for gate in net.gates() {
        g.add_edge(gate.a.index(), gate.out.index());
        g.add_edge(gate.b.index(), gate.out.index());
    }
    for comp in g.cyclic_sccs() {
        out.push(Diagnostic::new(
            Code::L003CombinationalLoop,
            net_span(comp[0] as u32),
            format!("combinational loop through {} net(s)", comp.len()),
        ));
    }

    // Interface widths.
    if let Some(want) = expected {
        if net.inputs().len() != want.inputs {
            out.push(Diagnostic::new(
                Code::L004WidthMismatch,
                whole_span,
                format!("{} input nets, interface expects {}", net.inputs().len(), want.inputs),
            ));
        }
        if net.outputs().len() != want.outputs {
            out.push(Diagnostic::new(
                Code::L004WidthMismatch,
                whole_span,
                format!(
                    "{} output nets, interface expects {}",
                    net.outputs().len(),
                    want.outputs
                ),
            ));
        }
    }
    out
}

/// Data-path connectivity checks (`L005`–`L008`).
pub struct StructurePass;

impl Pass for StructurePass {
    fn name(&self) -> &'static str {
        "structure"
    }

    fn codes(&self) -> &'static [Code] {
        &[
            Code::L005DanglingPort,
            Code::L006UnreachableRegister,
            Code::L007DeadRegister,
            Code::L008SourceOutOfRange,
        ]
    }

    fn run(&self, unit: &LintUnit<'_>) -> Vec<Diagnostic> {
        let Some(dp) = unit.data_path else {
            return Vec::new();
        };
        let mut out = Vec::new();

        // L008: every reference must resolve before anything else is
        // interpreted.
        for m in dp.module_ids() {
            for side in [PortSide::Left, PortSide::Right] {
                let port = Port { module: m, side };
                for &s in dp.port_sources(port) {
                    let bad = match s {
                        SourceRef::Register(r) => r.index() >= dp.num_registers(),
                        SourceRef::ExternalInput(v) => v.index() >= unit.dfg.num_vars(),
                        SourceRef::Constant(_) => false,
                    };
                    if bad {
                        out.push(Diagnostic::new(
                            Code::L008SourceOutOfRange,
                            Span::Port(port),
                            format!("source {s} does not exist"),
                        ));
                    }
                }
            }
        }
        for r in dp.register_ids() {
            for &m in dp.register_sources(r) {
                if m.index() >= dp.num_modules() {
                    out.push(Diagnostic::new(
                        Code::L008SourceOutOfRange,
                        Span::Register(r),
                        format!("driving module {m} does not exist"),
                    ));
                }
            }
        }

        // L005: a used module's port with no source at all.
        for m in dp.module_ids() {
            if dp.module_ops(m).is_empty() {
                continue;
            }
            for side in [PortSide::Left, PortSide::Right] {
                let port = Port { module: m, side };
                if dp.port_sources(port).is_empty() {
                    out.push(Diagnostic::new(
                        Code::L005DanglingPort,
                        Span::Port(port),
                        "port has no data source".to_string(),
                    ));
                }
            }
        }

        // L006 / L007 per register.
        for r in dp.register_ids() {
            let vars = dp.register_vars(r);
            if vars.is_empty() {
                continue;
            }
            let holds_computed = vars.iter().any(|&v| unit.dfg.var(v).producer.is_some());
            let holds_input = vars.iter().any(|&v| unit.dfg.var(v).producer.is_none());
            if holds_computed && dp.register_sources(r).is_empty() {
                out.push(Diagnostic::new(
                    Code::L006UnreachableRegister,
                    Span::Register(r),
                    "register stores computed values but no module drives it".to_string(),
                ));
            }
            if holds_input && !dp.has_external_load(r) {
                out.push(Diagnostic::new(
                    Code::L006UnreachableRegister,
                    Span::Register(r),
                    "register stores a primary input but has no external load path".to_string(),
                ));
            }
            let holds_output = vars.iter().any(|&v| unit.dfg.var(v).is_output);
            if !holds_output && dp.ports_fed_by(r).is_empty() {
                out.push(Diagnostic::new(
                    Code::L007DeadRegister,
                    Span::Register(r),
                    "register feeds no port and holds no primary output".to_string(),
                ));
            }
        }
        out
    }
}

/// Gate-level checks of each module's generated netlist (`L001`–`L004`).
pub struct GatesPass;

impl Pass for GatesPass {
    fn name(&self) -> &'static str {
        "gates"
    }

    fn codes(&self) -> &'static [Code] {
        &[
            Code::L001UndrivenNet,
            Code::L002MultiplyDrivenNet,
            Code::L003CombinationalLoop,
            Code::L004WidthMismatch,
        ]
    }

    fn run(&self, unit: &LintUnit<'_>) -> Vec<Diagnostic> {
        self.run_with(unit, &mut crate::registry::LintScratch::new())
    }

    fn run_with(
        &self,
        unit: &LintUnit<'_>,
        scratch: &mut crate::registry::LintScratch,
    ) -> Vec<Diagnostic> {
        let width = unit.area.width;
        let mut out = Vec::new();
        for m in unit.modules.module_ids() {
            let ops = unit.modules.ops_of(m);
            if ops.is_empty() {
                continue;
            }
            let kinds = unit.modules.kinds_of(unit.dfg, m);
            let class = unit.modules.class(m);
            let net = module_unit(class, &kinds, width);
            let want = expected_unit_interface(class, &kinds, width);
            out.extend(lint_network_with(&net, Some(want), Some(m), &mut scratch.drivers));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_gatesim::modules::{alu, unit_for};
    use lobist_gatesim::net::{Gate, GateKind, NetId, NetworkBuilder};

    fn codes_of(diags: &[Diagnostic]) -> Vec<Code> {
        let set: BTreeSet<Code> = diags.iter().map(|d| d.code).collect();
        set.into_iter().collect()
    }

    #[test]
    fn clean_generated_units_lint_clean() {
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::And, OpKind::Lt] {
            let net = unit_for(kind, 4);
            let want = expected_unit_interface(ModuleClass::Op(kind), &[kind], 4);
            assert!(lint_network(&net, Some(want), None).is_empty(), "{kind:?}");
        }
        let net = alu(&[OpKind::Add, OpKind::Mul], 4);
        let want = expected_unit_interface(ModuleClass::Alu, &[OpKind::Add, OpKind::Mul], 4);
        assert!(lint_network(&net, Some(want), None).is_empty());
    }

    #[test]
    fn undriven_net_is_l001() {
        // A gate reads net 2 which nothing drives.
        let net = GateNetwork::from_parts(
            4,
            vec![NetId(0), NetId(1)],
            vec![NetId(3)],
            vec![Gate {
                kind: GateKind::And,
                a: NetId(0),
                b: NetId(2),
                out: NetId(3),
            }],
        );
        assert_eq!(codes_of(&lint_network(&net, None, None)), [Code::L001UndrivenNet]);
    }

    #[test]
    fn multiply_driven_net_is_l002() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let clean = b.finish(vec![and]);
        let mut gates = clean.gates().to_vec();
        // Second driver onto the AND's output net.
        gates.push(Gate {
            kind: GateKind::Or,
            a: NetId(0),
            b: NetId(1),
            out: and,
        });
        let net = GateNetwork::from_parts(
            clean.num_nets(),
            clean.inputs().to_vec(),
            clean.outputs().to_vec(),
            gates,
        );
        assert_eq!(
            codes_of(&lint_network(&net, None, None)),
            [Code::L002MultiplyDrivenNet]
        );
    }

    #[test]
    fn combinational_loop_is_l003() {
        // g1: n2 = n0 AND n3; g2: n3 = n2 OR n1 — a 2-gate cycle.
        let net = GateNetwork::from_parts(
            4,
            vec![NetId(0), NetId(1)],
            vec![NetId(3)],
            vec![
                Gate {
                    kind: GateKind::And,
                    a: NetId(0),
                    b: NetId(3),
                    out: NetId(2),
                },
                Gate {
                    kind: GateKind::Or,
                    a: NetId(2),
                    b: NetId(1),
                    out: NetId(3),
                },
            ],
        );
        assert_eq!(
            codes_of(&lint_network(&net, None, None)),
            [Code::L003CombinationalLoop]
        );
    }

    #[test]
    fn interface_mismatch_is_l004() {
        let net = unit_for(OpKind::Add, 4);
        let want = NetworkInterface {
            inputs: 8,
            outputs: 5, // adder emits 4
        };
        assert_eq!(codes_of(&lint_network(&net, Some(want), None)), [Code::L004WidthMismatch]);
    }
}
