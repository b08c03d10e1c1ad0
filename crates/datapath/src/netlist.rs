//! The data-path netlist: registers, operator modules, ports and the
//! multiplexer structure implied by fan-in.

use std::collections::BTreeSet;
use std::fmt;

use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
use lobist_dfg::modules::ModuleClass;
use lobist_dfg::{Dfg, OpId, OpKind, Operand, Schedule, VarId};

use crate::assignment::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};

/// Identifier of a register in a data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(pub u32);

impl RegisterId {
    /// Index into [`DataPath`] register storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0 + 1) // paper numbers registers from 1
    }
}

/// Identifier of an operator module in a data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u32);

impl ModuleId {
    /// Index into [`DataPath`] module storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0 + 1)
    }
}

/// The two input ports of a binary operator module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortSide {
    /// The left input port.
    Left,
    /// The right input port.
    Right,
}

impl PortSide {
    /// The opposite port.
    pub fn other(self) -> PortSide {
        match self {
            PortSide::Left => PortSide::Right,
            PortSide::Right => PortSide::Left,
        }
    }
}

impl fmt::Display for PortSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortSide::Left => write!(f, "L"),
            PortSide::Right => write!(f, "R"),
        }
    }
}

/// An input port of a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port {
    /// The module owning the port.
    pub module: ModuleId,
    /// Which side.
    pub side: PortSide,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.module, self.side)
    }
}

/// A data source feeding a port or register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceRef {
    /// A register in the data path.
    Register(RegisterId),
    /// A port-resident primary input (never registered).
    ExternalInput(VarId),
    /// A hard-wired constant.
    Constant(i64),
}

impl fmt::Display for SourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceRef::Register(r) => write!(f, "{r}"),
            SourceRef::ExternalInput(v) => write!(f, "in:{v}"),
            SourceRef::Constant(c) => write!(f, "#{c}"),
        }
    }
}

/// Errors detected while assembling a [`DataPath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataPathError {
    /// The register assignment puts two live-range-overlapping variables
    /// in the same register.
    RegisterConflict {
        /// First variable.
        u: VarId,
        /// Second variable.
        v: VarId,
        /// The shared register.
        register: RegisterId,
    },
    /// A variable needing a register was not assigned one.
    UnassignedVariable(VarId),
    /// Two operations on the same module are scheduled in the same step.
    ModuleOverlap {
        /// The module.
        module: ModuleId,
        /// The control step.
        step: u32,
    },
    /// An operation is assigned to a module that cannot execute its kind.
    IncapableModule {
        /// The operation.
        op: OpId,
        /// The module it was assigned to.
        module: ModuleId,
    },
    /// A non-commutative operation's left operand is bound to the right
    /// port.
    NonCommutativeSwap {
        /// The operation.
        op: OpId,
    },
}

impl fmt::Display for DataPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPathError::RegisterConflict { u, v, register } => {
                write!(f, "variables {u} and {v} overlap but share {register}")
            }
            DataPathError::UnassignedVariable(v) => {
                write!(f, "variable {v} needs a register but has none")
            }
            DataPathError::ModuleOverlap { module, step } => {
                write!(f, "module {module} executes two operations in step {step}")
            }
            DataPathError::IncapableModule { op, module } => {
                write!(f, "operation {op} assigned to incapable module {module}")
            }
            DataPathError::NonCommutativeSwap { op } => {
                write!(f, "non-commutative operation {op} has swapped operand ports")
            }
        }
    }
}

impl std::error::Error for DataPathError {}

/// A structural RTL data path: registers, modules and the connections
/// implied by the three assignments.
///
/// Multiplexers are not stored explicitly; any port or register with more
/// than one distinct source has a mux of that fan-in in front of it
/// (the standard multiplexer connectivity model).
#[derive(Debug, Clone)]
pub struct DataPath {
    num_registers: usize,
    module_classes: Vec<ModuleClass>,
    /// Variables held by each register.
    register_vars: Vec<Vec<VarId>>,
    /// Operations executed by each module.
    module_ops: Vec<Vec<OpId>>,
    /// Sources feeding each module port: `port_sources[m][side]`.
    port_sources: Vec<[BTreeSet<SourceRef>; 2]>,
    /// Registers receiving each module's output.
    output_dests: Vec<BTreeSet<RegisterId>>,
    /// Sources feeding each register (module outputs and external loads).
    register_sources: Vec<BTreeSet<ModuleId>>,
    /// Registers additionally loaded from outside the data path
    /// (registered primary inputs).
    external_loads: Vec<bool>,
    /// Register of each variable (dense over vars; `None` for
    /// port-resident inputs).
    reg_of_var: Vec<Option<RegisterId>>,
    /// The port driven by each operation's left operand (per op).
    lhs_sides: Vec<PortSide>,
    /// The distinct operation kinds each module executes (sorted).
    module_kinds: Vec<Vec<OpKind>>,
}

fn side_index(side: PortSide) -> usize {
    match side {
        PortSide::Left => 0,
        PortSide::Right => 1,
    }
}

impl DataPath {
    /// Assembles and validates a data path from the scheduled DFG and the
    /// three assignments. The assignments are borrowed: per-move
    /// re-synthesis in the annealer evaluates thousands of candidate
    /// colorings against one fixed module assignment, and cloning it per
    /// call dominated the build cost.
    ///
    /// # Errors
    ///
    /// Returns a [`DataPathError`] if the register assignment is improper
    /// or incomplete, a module is double-booked or incapable, or a
    /// non-commutative operation has swapped operands.
    pub fn build(
        dfg: &Dfg,
        schedule: &Schedule,
        lifetime_options: LifetimeOptions,
        modules: &ModuleAssignment,
        registers: &RegisterAssignment,
        interconnect: &InterconnectAssignment,
    ) -> Result<DataPath, DataPathError> {
        let lifetimes = Lifetimes::compute(dfg, schedule, lifetime_options);

        // -- register assignment checks ---------------------------------
        for &v in lifetimes.reg_vars() {
            if registers.register_of(v).is_none() {
                return Err(DataPathError::UnassignedVariable(v));
            }
        }
        for (r, class) in registers.classes().iter().enumerate() {
            for (i, &u) in class.iter().enumerate() {
                for &v in &class[i + 1..] {
                    if lifetimes.conflicts(u, v) {
                        return Err(DataPathError::RegisterConflict {
                            u,
                            v,
                            register: RegisterId(r as u32),
                        });
                    }
                }
            }
        }

        // -- module assignment checks ------------------------------------
        for op in dfg.op_ids() {
            let m = modules.module_of(op);
            if !modules.class(m).supports(dfg.op(op).kind) {
                return Err(DataPathError::IncapableModule { op, module: m });
            }
        }
        for m in modules.module_ids() {
            let mut steps: Vec<u32> = modules
                .ops_of(m)
                .iter()
                .map(|&op| schedule.step(op))
                .collect();
            steps.sort_unstable();
            for w in steps.windows(2) {
                if w[0] == w[1] {
                    return Err(DataPathError::ModuleOverlap { module: m, step: w[0] });
                }
            }
        }

        // -- connections --------------------------------------------------
        let nm = modules.num_modules();
        let nr = registers.num_registers();
        let mut port_sources: Vec<[BTreeSet<SourceRef>; 2]> =
            (0..nm).map(|_| [BTreeSet::new(), BTreeSet::new()]).collect();
        let mut output_dests: Vec<BTreeSet<RegisterId>> = vec![BTreeSet::new(); nm];
        let mut register_sources: Vec<BTreeSet<ModuleId>> = vec![BTreeSet::new(); nr];
        let mut external_loads = vec![false; nr];

        let source_of = |operand: Operand| -> SourceRef {
            match operand {
                Operand::Const(c) => SourceRef::Constant(c),
                Operand::Var(v) => match registers.register_of(v) {
                    Some(r) => SourceRef::Register(r),
                    None => SourceRef::ExternalInput(v),
                },
            }
        };

        for op in dfg.op_ids() {
            let info = dfg.op(op);
            let m = modules.module_of(op);
            let lhs_side = interconnect.lhs_side(op);
            if !info.kind.is_commutative() && lhs_side != PortSide::Left {
                return Err(DataPathError::NonCommutativeSwap { op });
            }
            port_sources[m.index()][side_index(lhs_side)].insert(source_of(info.lhs));
            port_sources[m.index()][side_index(lhs_side.other())].insert(source_of(info.rhs));
            let out_reg = registers
                .register_of(info.out)
                .ok_or(DataPathError::UnassignedVariable(info.out))?;
            output_dests[m.index()].insert(out_reg);
            register_sources[out_reg.index()].insert(m);
        }
        // Registered primary inputs are loaded from outside.
        for v in dfg.primary_inputs() {
            if let Some(r) = registers.register_of(v) {
                external_loads[r.index()] = true;
            }
        }

        let mut reg_of_var = vec![None; dfg.num_vars()];
        for v in dfg.var_ids() {
            reg_of_var[v.index()] = registers.register_of(v);
        }
        let lhs_sides: Vec<PortSide> = dfg.op_ids().map(|op| interconnect.lhs_side(op)).collect();
        let module_kinds: Vec<Vec<OpKind>> = modules
            .module_ids()
            .map(|m| modules.kinds_of(dfg, m))
            .collect();

        Ok(DataPath {
            num_registers: nr,
            module_classes: modules.classes_vec(),
            register_vars: registers.classes().to_vec(),
            module_ops: (0..nm).map(|m| modules.ops_of(ModuleId(m as u32)).to_vec()).collect(),
            port_sources,
            output_dests,
            register_sources,
            external_loads,
            reg_of_var,
            lhs_sides,
            module_kinds,
        })
    }

    /// The distinct operation kinds module `m` executes (sorted). For a
    /// dedicated unit this is its single kind; for an ALU, every kind
    /// bound to it — which determines its realistic area.
    pub fn module_kinds(&self, m: ModuleId) -> &[OpKind] {
        &self.module_kinds[m.index()]
    }

    /// The port driven by `op`'s left operand (its right operand drives
    /// the other port).
    pub fn lhs_side(&self, op: OpId) -> PortSide {
        self.lhs_sides[op.index()]
    }

    /// Returns a copy of the data path with an extra *test-only*
    /// connection from register `r` to the given port — a test point in
    /// the partial-intrusion sense. The connection adds a mux leg (and
    /// is counted by [`num_muxes`](Self::num_muxes) /
    /// [`total_mux_legs`](Self::total_mux_legs)) but carries no
    /// functional data; it exists to give an untestable module a pattern
    /// source.
    #[must_use]
    pub fn with_test_connection(&self, port: Port, r: RegisterId) -> DataPath {
        let mut dp = self.clone();
        dp.port_sources[port.module.index()][side_index(port.side)]
            .insert(SourceRef::Register(r));
        dp
    }

    /// Every module port with register `r` among its sources — the
    /// register's fan-out into the interconnect, in `(module, side)`
    /// order.
    pub fn ports_fed_by(&self, r: RegisterId) -> Vec<Port> {
        let needle = SourceRef::Register(r);
        let mut ports = Vec::new();
        for m in self.module_ids() {
            for side in [PortSide::Left, PortSide::Right] {
                if self.port_sources[m.index()][side_index(side)].contains(&needle) {
                    ports.push(Port { module: m, side });
                }
            }
        }
        ports
    }

    // ------------------------------------------------------------------
    // Defect injection. [`DataPath::build`] only produces structurally
    // sound netlists, so the lint mutation suite needs hooks that break
    // one in controlled ways. These deliberately bypass every invariant;
    // a mutated data path is only fit for feeding the linter.
    // ------------------------------------------------------------------

    /// Removes `source` from a port's source set, leaving the port
    /// undriven if it was the only one. Returns `true` if it was present.
    pub fn cut_port_source(&mut self, port: Port, source: SourceRef) -> bool {
        self.port_sources[port.module.index()][side_index(port.side)].remove(&source)
    }

    /// Inserts an arbitrary (even out-of-range) source on a port.
    pub fn add_port_source(&mut self, port: Port, source: SourceRef) {
        self.port_sources[port.module.index()][side_index(port.side)].insert(source);
    }

    /// Severs the drive from module `m` into register `r` (both the
    /// register's source set and the module's destination set). Returns
    /// `true` if the connection existed.
    pub fn cut_register_driver(&mut self, r: RegisterId, m: ModuleId) -> bool {
        let had = self.register_sources[r.index()].remove(&m);
        self.output_dests[m.index()].remove(&r);
        had
    }

    /// Drops the external (primary-input) load path into register `r`.
    /// Returns `true` if the register had one.
    pub fn clear_external_load(&mut self, r: RegisterId) -> bool {
        std::mem::replace(&mut self.external_loads[r.index()], false)
    }

    /// Appends a register that feeds no port and is driven by no module —
    /// the "allocated but never wired" defect. `external_load` gives it a
    /// primary-input load path.
    pub fn add_isolated_register(&mut self, vars: Vec<VarId>, external_load: bool) -> RegisterId {
        let r = RegisterId(self.num_registers as u32);
        self.num_registers += 1;
        self.register_vars.push(vars);
        self.register_sources.push(BTreeSet::new());
        self.external_loads.push(external_load);
        r
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.num_registers
    }

    /// Number of operator modules.
    pub fn num_modules(&self) -> usize {
        self.module_classes.len()
    }

    /// Register ids.
    pub fn register_ids(&self) -> impl Iterator<Item = RegisterId> {
        (0..self.num_registers as u32).map(RegisterId)
    }

    /// Module ids.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.module_classes.len() as u32).map(ModuleId)
    }

    /// The functional-unit class of a module.
    pub fn module_class(&self, m: ModuleId) -> ModuleClass {
        self.module_classes[m.index()]
    }

    /// Variables stored in register `r`.
    pub fn register_vars(&self, r: RegisterId) -> &[VarId] {
        &self.register_vars[r.index()]
    }

    /// Operations executed on module `m`.
    pub fn module_ops(&self, m: ModuleId) -> &[OpId] {
        &self.module_ops[m.index()]
    }

    /// The register holding variable `v`, if any.
    pub fn register_of(&self, v: VarId) -> Option<RegisterId> {
        self.reg_of_var[v.index()]
    }

    /// All sources feeding a module port (registers, external inputs,
    /// constants).
    pub fn port_sources(&self, port: Port) -> &BTreeSet<SourceRef> {
        &self.port_sources[port.module.index()][side_index(port.side)]
    }

    /// Registers receiving module `m`'s output.
    pub fn output_destinations(&self, m: ModuleId) -> &BTreeSet<RegisterId> {
        &self.output_dests[m.index()]
    }

    /// Modules whose outputs feed register `r`.
    pub fn register_sources(&self, r: RegisterId) -> &BTreeSet<ModuleId> {
        &self.register_sources[r.index()]
    }

    /// `true` if register `r` is also loaded from outside the data path.
    pub fn has_external_load(&self, r: RegisterId) -> bool {
        self.external_loads[r.index()]
    }

    /// Total fan-in of register `r` (module sources plus one if loaded
    /// externally).
    pub fn register_fan_in(&self, r: RegisterId) -> usize {
        self.register_sources[r.index()].len() + usize::from(self.external_loads[r.index()])
    }

    /// Number of multiplexers: one in front of every module port or
    /// register with fan-in greater than one.
    pub fn num_muxes(&self) -> usize {
        let port_muxes = self
            .module_ids()
            .flat_map(|m| {
                [PortSide::Left, PortSide::Right]
                    .into_iter()
                    .map(move |side| self.port_sources(Port { module: m, side }).len())
            })
            .filter(|&fan| fan > 1)
            .count();
        let reg_muxes = self
            .register_ids()
            .map(|r| self.register_fan_in(r))
            .filter(|&fan| fan > 1)
            .count();
        port_muxes + reg_muxes
    }

    /// Total multiplexer legs across the data path: for every fan-in
    /// point with `k > 1` sources, `k` legs. Proportional to mux area.
    pub fn total_mux_legs(&self) -> usize {
        let port_legs: usize = self
            .module_ids()
            .flat_map(|m| {
                [PortSide::Left, PortSide::Right]
                    .into_iter()
                    .map(move |side| self.port_sources(Port { module: m, side }).len())
            })
            .filter(|&fan| fan > 1)
            .sum();
        let reg_legs: usize = self
            .register_ids()
            .map(|r| self.register_fan_in(r))
            .filter(|&fan| fan > 1)
            .sum();
        port_legs + reg_legs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};
    use lobist_dfg::benchmarks;

    fn ex1_testable() -> DataPath {
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
        DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &modules,
            &regs,
            &ic)
        .unwrap()
    }

    #[test]
    fn ex1_structure() {
        let dp = ex1_testable();
        assert_eq!(dp.num_registers(), 3);
        assert_eq!(dp.num_modules(), 2);
        // Adder output goes to both R1 (f) and R2 (d).
        let adder = ModuleId(0);
        let dests: Vec<RegisterId> = dp.output_destinations(adder).iter().copied().collect();
        assert_eq!(dests, vec![RegisterId(0), RegisterId(1)]);
    }

    #[test]
    fn port_sources_track_registers_and_inputs() {
        let dp = ex1_testable();
        let adder_left = Port { module: ModuleId(0), side: PortSide::Left };
        // add1 lhs = a (R1), add2 lhs = c (R1) → left port fed by R1 only.
        let sources: Vec<SourceRef> = dp.port_sources(adder_left).iter().copied().collect();
        assert_eq!(sources, vec![SourceRef::Register(RegisterId(0))]);
        let adder_right = Port { module: ModuleId(0), side: PortSide::Right };
        // add1 rhs = b (R2), add2 rhs = d (R2) → right fed by R2 only.
        let sources: Vec<SourceRef> = dp.port_sources(adder_right).iter().copied().collect();
        assert_eq!(sources, vec![SourceRef::Register(RegisterId(1))]);
    }

    #[test]
    fn register_conflict_detected() {
        let bench = benchmarks::ex1();
        // c and d overlap; putting them together must fail.
        let regs = RegisterAssignment::from_names(
            &bench.dfg,
            &[vec!["c", "d", "f", "a"], vec!["g", "b", "h"], vec!["e"]],
        )
        .unwrap();
        let modules = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let ic = InterconnectAssignment::straight(&bench.dfg);
        let err = DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &modules,
            &regs,
            &ic)
        .unwrap_err();
        assert!(matches!(err, DataPathError::RegisterConflict { .. }));
    }

    #[test]
    fn missing_register_detected() {
        let bench = benchmarks::ex1();
        let regs = RegisterAssignment::from_names(
            &bench.dfg,
            &[vec!["c", "f", "a"], vec!["d", "g", "b"], vec!["e"]], // h missing
        )
        .unwrap();
        let modules = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let ic = InterconnectAssignment::straight(&bench.dfg);
        let err = DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &modules,
            &regs,
            &ic)
        .unwrap_err();
        assert!(matches!(err, DataPathError::UnassignedVariable(_)));
    }

    #[test]
    fn module_overlap_detected() {
        let bench = benchmarks::ex1();
        let regs = RegisterAssignment::from_names(
            &bench.dfg,
            &[vec!["c", "f", "a"], vec!["d", "g", "b", "h"], vec!["e"]],
        )
        .unwrap();
        // add2 and mul2 both run in step 3; forcing them onto one ALU of a
        // hypothetical set must be caught. Use a 2-ALU set and map both
        // step-3 ops to ALU 0.
        let alus: lobist_dfg::modules::ModuleSet = "2ALU".parse().unwrap();
        let modules = ModuleAssignment::from_op_names(
            &bench.dfg,
            &alus,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 0)],
        )
        .unwrap();
        let ic = InterconnectAssignment::straight(&bench.dfg);
        let err = DataPath::build(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            &modules,
            &regs,
            &ic)
        .unwrap_err();
        assert!(matches!(err, DataPathError::ModuleOverlap { step: 3, .. }));
    }

    #[test]
    fn mux_counting() {
        let dp = ex1_testable();
        // Multiplier left port: mul1 lhs = e (R3), mul2 lhs = c (R1) → 2 sources → mux.
        let mul_left = Port { module: ModuleId(1), side: PortSide::Left };
        assert_eq!(dp.port_sources(mul_left).len(), 2);
        assert!(dp.num_muxes() >= 1);
        assert!(dp.total_mux_legs() >= 2);
    }

    #[test]
    fn external_loads_for_registered_inputs() {
        let dp = ex1_testable();
        // R1 holds input c (and a); R3 holds input e → external loads.
        assert!(dp.has_external_load(RegisterId(0)));
        assert!(dp.has_external_load(RegisterId(2)));
    }

    #[test]
    fn display_impls() {
        assert_eq!(RegisterId(0).to_string(), "R1");
        assert_eq!(ModuleId(1).to_string(), "M2");
        assert_eq!(
            Port { module: ModuleId(0), side: PortSide::Right }.to_string(),
            "M1.R"
        );
        assert_eq!(PortSide::Left.other(), PortSide::Right);
    }
}
