//! Assignment artifacts: operations→modules, variables→registers and
//! operand→port bindings.
//!
//! These types are *carriers*: the algorithms that compute good
//! assignments live in the `lobist-alloc` crate; this module only defines
//! the data and local validity rules so a [`crate::DataPath`] can be
//! assembled from any source (the paper's allocator, a baseline, or a
//! hand-written design).

use std::collections::BTreeSet;
use std::fmt;

use lobist_dfg::modules::{ModuleClass, ModuleSet};
use lobist_dfg::{Dfg, OpId, OpKind, VarId};

use crate::netlist::{ModuleId, PortSide, RegisterId};

/// Errors constructing assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignmentError {
    /// A referenced name does not exist in the DFG.
    UnknownName(String),
    /// A variable appears in two register classes.
    DuplicateVariable(VarId),
    /// The per-op module vector has the wrong length.
    WrongLength {
        /// Entries supplied.
        got: usize,
        /// Operations expected.
        expected: usize,
    },
    /// A module index is out of range for the module set.
    ModuleOutOfRange {
        /// The out-of-range index.
        module: usize,
        /// Number of modules available.
        available: usize,
    },
    /// An operation was assigned to a module that cannot execute it.
    Incapable {
        /// The operation.
        op: OpId,
        /// The module index.
        module: usize,
    },
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            AssignmentError::DuplicateVariable(v) => {
                write!(f, "variable {v} assigned to two registers")
            }
            AssignmentError::WrongLength { got, expected } => {
                write!(f, "assignment covers {got} operations, expected {expected}")
            }
            AssignmentError::ModuleOutOfRange { module, available } => {
                write!(f, "module index {module} out of range ({available} modules)")
            }
            AssignmentError::Incapable { op, module } => {
                write!(f, "operation {op} cannot execute on module {module}")
            }
        }
    }
}

impl std::error::Error for AssignmentError {}

/// An assignment of operations to physical modules: the paper's
/// `σ : V → M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleAssignment {
    classes: Vec<ModuleClass>,
    module_of: Vec<ModuleId>,
    ops_of: Vec<Vec<OpId>>,
}

impl ModuleAssignment {
    /// Creates an assignment from a per-operation module index vector.
    ///
    /// # Errors
    ///
    /// Returns [`AssignmentError`] if the vector length mismatches, an
    /// index is out of range, or a module cannot execute its operation.
    /// (Temporal exclusivity — one op per module per step — is validated
    /// later by [`crate::DataPath::build`], which has the schedule.)
    pub fn new(
        dfg: &Dfg,
        modules: &ModuleSet,
        module_of: Vec<usize>,
    ) -> Result<Self, AssignmentError> {
        if module_of.len() != dfg.num_ops() {
            return Err(AssignmentError::WrongLength {
                got: module_of.len(),
                expected: dfg.num_ops(),
            });
        }
        for (i, &m) in module_of.iter().enumerate() {
            if m >= modules.len() {
                return Err(AssignmentError::ModuleOutOfRange {
                    module: m,
                    available: modules.len(),
                });
            }
            let op = OpId(i as u32);
            if !modules.class(m).supports(dfg.op(op).kind) {
                return Err(AssignmentError::Incapable { op, module: m });
            }
        }
        let mut ops_of = vec![Vec::new(); modules.len()];
        for (i, &m) in module_of.iter().enumerate() {
            ops_of[m].push(OpId(i as u32));
        }
        Ok(Self {
            classes: modules.classes().to_vec(),
            module_of: module_of.into_iter().map(|m| ModuleId(m as u32)).collect(),
            ops_of,
        })
    }

    /// Convenience constructor mapping operation *names* to module
    /// indices.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus [`AssignmentError::UnknownName`] for a
    /// bad operation name or a missing mapping.
    pub fn from_op_names(
        dfg: &Dfg,
        modules: &ModuleSet,
        pairs: &[(&str, usize)],
    ) -> Result<Self, AssignmentError> {
        let mut module_of = vec![usize::MAX; dfg.num_ops()];
        for &(name, m) in pairs {
            let op = dfg
                .op_by_name(name)
                .ok_or_else(|| AssignmentError::UnknownName(name.to_owned()))?;
            module_of[op.index()] = m;
        }
        if let Some(i) = module_of.iter().position(|&m| m == usize::MAX) {
            return Err(AssignmentError::UnknownName(dfg.op(OpId(i as u32)).name.clone()));
        }
        Self::new(dfg, modules, module_of)
    }

    /// The module executing operation `op`.
    pub fn module_of(&self, op: OpId) -> ModuleId {
        self.module_of[op.index()]
    }

    /// Operations executed by module `m` (the paper's `V_i`; its length is
    /// the *temporal multiplicity* `TM(M_i)`).
    pub fn ops_of(&self, m: ModuleId) -> &[OpId] {
        &self.ops_of[m.index()]
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.classes.len()
    }

    /// Module ids.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.classes.len() as u32).map(ModuleId)
    }

    /// The class of module `m`.
    pub fn class(&self, m: ModuleId) -> ModuleClass {
        self.classes[m.index()]
    }

    /// The distinct kinds of the operations module `m` executes, sorted:
    /// the functions its unit implements.
    pub fn kinds_of(&self, dfg: &Dfg, m: ModuleId) -> Vec<OpKind> {
        let mut kinds: Vec<OpKind> = self.ops_of(m).iter().map(|&op| dfg.op(op).kind).collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    /// All module classes by id (cloned).
    pub fn classes_vec(&self) -> Vec<ModuleClass> {
        self.classes.clone()
    }

    /// The paper's *input variable set* `I_{M}`: all operand variables of
    /// the module's instances.
    pub fn input_variable_set(&self, dfg: &Dfg, m: ModuleId) -> BTreeSet<VarId> {
        self.ops_of(m)
            .iter()
            .flat_map(|&op| dfg.op(op).input_vars())
            .collect()
    }

    /// The paper's *output variable set* `O_{M}`: all result variables of
    /// the module's instances.
    pub fn output_variable_set(&self, dfg: &Dfg, m: ModuleId) -> BTreeSet<VarId> {
        self.ops_of(m).iter().map(|&op| dfg.op(op).out).collect()
    }
}

/// An assignment of variables to registers: the paper's partition `Π_R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterAssignment {
    classes: Vec<Vec<VarId>>,
    reg_of: Vec<Option<RegisterId>>,
}

impl RegisterAssignment {
    /// Creates a register assignment from explicit variable classes.
    /// Variables not mentioned are port-resident (unregistered).
    ///
    /// # Errors
    ///
    /// Returns [`AssignmentError::DuplicateVariable`] if a variable
    /// appears twice. (Lifetime propriety is validated by
    /// [`crate::DataPath::build`].)
    pub fn new(dfg: &Dfg, classes: Vec<Vec<VarId>>) -> Result<Self, AssignmentError> {
        let mut reg_of: Vec<Option<RegisterId>> = vec![None; dfg.num_vars()];
        for (r, class) in classes.iter().enumerate() {
            for &v in class {
                if reg_of[v.index()].is_some() {
                    return Err(AssignmentError::DuplicateVariable(v));
                }
                reg_of[v.index()] = Some(RegisterId(r as u32));
            }
        }
        Ok(Self { classes, reg_of })
    }

    /// Convenience constructor from variable names.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus [`AssignmentError::UnknownName`].
    pub fn from_names(dfg: &Dfg, names: &[Vec<&str>]) -> Result<Self, AssignmentError> {
        let mut classes = Vec::with_capacity(names.len());
        for group in names {
            let mut class = Vec::with_capacity(group.len());
            for &n in group {
                let v = dfg
                    .var_by_name(n)
                    .ok_or_else(|| AssignmentError::UnknownName(n.to_owned()))?;
                class.push(v);
            }
            classes.push(class);
        }
        Self::new(dfg, classes)
    }

    /// The register holding `v`, if any.
    pub fn register_of(&self, v: VarId) -> Option<RegisterId> {
        self.reg_of[v.index()]
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.classes.len()
    }

    /// The variable classes, indexed by register.
    pub fn classes(&self) -> &[Vec<VarId>] {
        &self.classes
    }

    /// Consumes the assignment, returning the classes.
    pub fn into_classes(self) -> Vec<Vec<VarId>> {
        self.classes
    }
}

/// Operand→port bindings: for each operation, which input port its left
/// operand drives (the right operand drives the other port).
///
/// The paper's interconnect assignment `Π_I` partitions each module's
/// input registers into left-only, right-only and both-ports sets; this
/// type is the per-operation realization of such a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterconnectAssignment {
    lhs_side: Vec<PortSide>,
}

impl InterconnectAssignment {
    /// Creates a binding from an explicit per-operation side vector.
    ///
    /// # Errors
    ///
    /// Returns [`AssignmentError::WrongLength`] on length mismatch.
    pub fn new(dfg: &Dfg, lhs_side: Vec<PortSide>) -> Result<Self, AssignmentError> {
        if lhs_side.len() != dfg.num_ops() {
            return Err(AssignmentError::WrongLength {
                got: lhs_side.len(),
                expected: dfg.num_ops(),
            });
        }
        Ok(Self { lhs_side })
    }

    /// The trivial binding: every left operand to the left port. Always
    /// valid; rarely mux-minimal.
    pub fn straight(dfg: &Dfg) -> Self {
        Self {
            lhs_side: vec![PortSide::Left; dfg.num_ops()],
        }
    }

    /// The port driven by `op`'s left operand.
    pub fn lhs_side(&self, op: OpId) -> PortSide {
        self.lhs_side[op.index()]
    }

    /// Flips the operand binding of `op` (only meaningful for commutative
    /// operations; [`crate::DataPath::build`] rejects swapped
    /// non-commutative operations).
    pub fn swap(&mut self, op: OpId) {
        self.lhs_side[op.index()] = self.lhs_side[op.index()].other();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;
    use lobist_dfg::OpKind;

    #[test]
    fn module_assignment_variable_sets() {
        let bench = benchmarks::ex1();
        let ma = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let names = |s: &BTreeSet<VarId>| -> Vec<String> {
            s.iter().map(|&v| bench.dfg.var(v).name.clone()).collect()
        };
        let im1 = ma.input_variable_set(&bench.dfg, ModuleId(0));
        let mut im1_names = names(&im1);
        im1_names.sort();
        assert_eq!(im1_names, vec!["a", "b", "c", "d"]);
        let om1 = ma.output_variable_set(&bench.dfg, ModuleId(0));
        let mut om1_names = names(&om1);
        om1_names.sort();
        assert_eq!(om1_names, vec!["d", "f"]);
        assert_eq!(ma.ops_of(ModuleId(1)).len(), 2); // TM(M2) = 2
        assert_eq!(ma.kinds_of(&bench.dfg, ModuleId(1)), [OpKind::Mul]);
    }

    #[test]
    fn an_alus_kinds_are_sorted_and_deduplicated() {
        let text = "input a b\ns = a - b @ 1\nt = a + b @ 2\nu = s - t @ 3\noutput u\n";
        let (dfg, _) = lobist_dfg::parse::parse_dfg(text).unwrap();
        let alu: ModuleSet = "1ALU".parse().unwrap();
        let ma = ModuleAssignment::new(&dfg, &alu, vec![0; 3]).unwrap();
        assert_eq!(ma.kinds_of(&dfg, ModuleId(0)), [OpKind::Add, OpKind::Sub]);
    }

    #[test]
    fn module_assignment_rejects_incapable() {
        let bench = benchmarks::ex1();
        // Map a multiplication onto the adder.
        let err = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 0), ("mul2", 1)],
        )
        .unwrap_err();
        assert!(matches!(err, AssignmentError::Incapable { .. }));
    }

    #[test]
    fn module_assignment_rejects_out_of_range() {
        let bench = benchmarks::ex1();
        let err = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 5)],
        )
        .unwrap_err();
        assert!(matches!(err, AssignmentError::ModuleOutOfRange { module: 5, .. }));
    }

    #[test]
    fn module_assignment_rejects_missing_op() {
        let bench = benchmarks::ex1();
        let err = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1)],
        )
        .unwrap_err();
        assert!(matches!(err, AssignmentError::UnknownName(_)));
    }

    #[test]
    fn register_assignment_duplicate_rejected() {
        let bench = benchmarks::ex1();
        let err = RegisterAssignment::from_names(&bench.dfg, &[vec!["a", "b"], vec!["a"]])
            .unwrap_err();
        assert!(matches!(err, AssignmentError::DuplicateVariable(_)));
    }

    #[test]
    fn register_assignment_lookup() {
        let bench = benchmarks::ex1();
        let ra = RegisterAssignment::from_names(&bench.dfg, &[vec!["a"], vec!["b", "e"]]).unwrap();
        let a = bench.dfg.var_by_name("a").unwrap();
        let e = bench.dfg.var_by_name("e").unwrap();
        let h = bench.dfg.var_by_name("h").unwrap();
        assert_eq!(ra.register_of(a), Some(RegisterId(0)));
        assert_eq!(ra.register_of(e), Some(RegisterId(1)));
        assert_eq!(ra.register_of(h), None);
        assert_eq!(ra.num_registers(), 2);
    }

    #[test]
    fn interconnect_swap_flips_side() {
        let bench = benchmarks::ex1();
        let mut ic = InterconnectAssignment::straight(&bench.dfg);
        let op = bench.dfg.op_by_name("mul1").unwrap();
        assert_eq!(ic.lhs_side(op), PortSide::Left);
        ic.swap(op);
        assert_eq!(ic.lhs_side(op), PortSide::Right);
        assert_eq!(bench.dfg.op(op).kind, OpKind::Mul);
    }

    #[test]
    fn interconnect_length_checked() {
        let bench = benchmarks::ex1();
        let err = InterconnectAssignment::new(&bench.dfg, vec![PortSide::Left]).unwrap_err();
        assert!(matches!(err, AssignmentError::WrongLength { .. }));
    }
}
