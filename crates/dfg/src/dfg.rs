//! The data flow graph and its builder.

use std::collections::HashSet;
use std::fmt;

use crate::types::{OpId, OpKind, Operand, VarId};

/// Information about one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name (unique within a DFG).
    pub name: String,
    /// The operation producing this variable, or `None` for primary inputs.
    pub producer: Option<OpId>,
    /// Operations consuming this variable (deduplicated, in id order).
    pub consumers: Vec<OpId>,
    /// `true` if this variable is a primary output of the design.
    pub is_output: bool,
}

/// Information about one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    /// Human-readable name (unique within a DFG).
    pub name: String,
    /// The operation kind.
    pub kind: OpKind,
    /// Left operand.
    pub lhs: Operand,
    /// Right operand.
    pub rhs: Operand,
    /// The variable this operation defines.
    pub out: VarId,
}

impl OpInfo {
    /// The variable operands of this operation (0, 1 or 2 entries).
    pub fn input_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        [self.lhs, self.rhs].into_iter().filter_map(Operand::var)
    }
}

/// Errors detected while building or validating a [`Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// Two variables (or two operations) share a name.
    DuplicateName(String),
    /// An operation consumes a variable that no operation defines and that
    /// is not a primary input. (Cannot occur via [`DfgBuilder`]; kept for
    /// future deserialization paths.)
    UndefinedVariable(String),
    /// The graph contains a dependency cycle.
    Cycle {
        /// Name of an operation on the cycle.
        op: String,
    },
    /// A variable is never consumed and not marked as a primary output.
    DeadVariable(String),
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            DfgError::UndefinedVariable(n) => write!(f, "variable `{n}` is never defined"),
            DfgError::Cycle { op } => write!(f, "dependency cycle through operation `{op}`"),
            DfgError::DeadVariable(n) => {
                write!(f, "variable `{n}` is never consumed and is not a primary output")
            }
        }
    }
}

impl std::error::Error for DfgError {}

/// A validated data flow graph: binary operations over named variables.
///
/// Construct with [`DfgBuilder`]. Guaranteed acyclic, with every variable
/// defined exactly once (by an operation or as a primary input) and either
/// consumed or marked as a primary output. Operation ids are a
/// topological order: an operand names a variable that existed when its
/// operation was added, so every producer has a smaller id than its
/// consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfg {
    vars: Vec<VarInfo>,
    ops: Vec<OpInfo>,
}

impl Dfg {
    /// Number of variables (edges of the DFG).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of operations (vertices of the DFG).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Variable metadata.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Operation metadata.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn op(&self, op: OpId) -> &OpInfo {
        &self.ops[op.index()]
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Iterates over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Primary inputs: variables with no producer.
    pub fn primary_inputs(&self) -> impl Iterator<Item = VarId> + '_ {
        self.var_ids().filter(|&v| self.var(v).producer.is_none())
    }

    /// Primary outputs: variables flagged as design outputs.
    pub fn primary_outputs(&self) -> impl Iterator<Item = VarId> + '_ {
        self.var_ids().filter(|&v| self.var(v).is_output)
    }

    /// Looks up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Looks up an operation by name.
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        self.ops
            .iter()
            .position(|o| o.name == name)
            .map(|i| OpId(i as u32))
    }

    /// A topological order of the operations (producers before consumers):
    /// Kahn's algorithm with a LIFO work list, walking each result's
    /// consumer list.
    pub fn topo_order(&self) -> Vec<OpId> {
        let n = self.ops.len();
        // One count per operand read of a produced variable, so an op
        // reading one result on both sides waits for two decrements.
        let mut indeg: Vec<u32> = self
            .ops
            .iter()
            .map(|op| op.input_vars().filter(|&v| self.var(v).producer.is_some()).count() as u32)
            .collect();
        let mut queue: Vec<OpId> = self.op_ids().filter(|op| indeg[op.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(op) = queue.pop() {
            order.push(op);
            let out = Operand::Var(self.op(op).out);
            for &c in &self.var(self.op(op).out).consumers {
                let reader = self.op(c);
                let reads = u32::from(reader.lhs == out) + u32::from(reader.rhs == out);
                indeg[c.index()] -= reads;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "validated DFGs are acyclic");
        order
    }

    /// Assembles a graph from parts that are valid by construction
    /// (a relabeling of a validated graph), skipping validation.
    pub(crate) fn from_valid_parts(vars: Vec<VarInfo>, ops: Vec<OpInfo>) -> Self {
        Self { vars, ops }
    }

    /// The first name claimed twice, in declaration order: an input
    /// claims its name, an operation its own name and then its result's.
    fn first_duplicate_name(&self) -> Option<&str> {
        let mut seen: HashSet<&str> = HashSet::with_capacity(self.vars.len() + self.ops.len());
        for var in &self.vars {
            let op_name = var.producer.map(|p| self.op(p).name.as_str());
            if let Some(dup) = op_name
                .into_iter()
                .chain([var.name.as_str()])
                .find(|name| !seen.insert(name))
            {
                return Some(dup);
            }
        }
        None
    }
}

/// Incremental builder for [`Dfg`].
///
/// # Examples
///
/// ```
/// use lobist_dfg::{DfgBuilder, OpKind};
///
/// let mut b = DfgBuilder::new();
/// let a = b.input("a");
/// let t = b.op(OpKind::Mul, "sq", a.into(), a.into());
/// b.mark_output(t);
/// let dfg = b.build()?;
/// assert_eq!(dfg.var(t).name, "sq");
/// # Ok::<(), lobist_dfg::DfgError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DfgBuilder {
    vars: Vec<VarInfo>,
    ops: Vec<OpInfo>,
}

impl DfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `vars` variables and `ops`
    /// operations.
    pub(crate) fn with_capacity(vars: usize, ops: usize) -> Self {
        Self {
            vars: Vec::with_capacity(vars),
            ops: Vec::with_capacity(ops),
        }
    }

    /// Declares a primary input variable.
    pub fn input(&mut self, name: &str) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_owned(),
            producer: None,
            consumers: Vec::new(),
            is_output: false,
        });
        id
    }

    /// Adds a binary operation whose result variable is named `out_name`.
    /// The operation itself is named `<out_name>_op` implicitly; use
    /// [`op_named`](Self::op_named) for explicit operation names.
    pub fn op(&mut self, kind: OpKind, out_name: &str, lhs: Operand, rhs: Operand) -> VarId {
        let mut op_name = String::with_capacity(out_name.len() + 3);
        op_name.push_str(out_name);
        op_name.push_str("_op");
        self.push_op(kind, op_name, out_name, lhs, rhs)
    }

    /// Adds a binary operation with explicit operation and result names.
    pub fn op_named(
        &mut self,
        kind: OpKind,
        op_name: &str,
        out_name: &str,
        lhs: Operand,
        rhs: Operand,
    ) -> VarId {
        self.push_op(kind, op_name.to_owned(), out_name, lhs, rhs)
    }

    fn push_op(
        &mut self,
        kind: OpKind,
        op_name: String,
        out_name: &str,
        lhs: Operand,
        rhs: Operand,
    ) -> VarId {
        let out = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: out_name.to_owned(),
            producer: Some(OpId(self.ops.len() as u32)),
            consumers: Vec::new(),
            is_output: false,
        });
        let op_id = OpId(self.ops.len() as u32);
        self.ops.push(OpInfo {
            name: op_name,
            kind,
            lhs,
            rhs,
            out,
        });
        for v in [lhs, rhs].into_iter().filter_map(Operand::var) {
            let consumers = &mut self.vars[v.index()].consumers;
            if !consumers.contains(&op_id) {
                consumers.push(op_id);
            }
        }
        out
    }

    /// Flags a variable as a primary output of the design.
    pub fn mark_output(&mut self, v: VarId) {
        self.vars[v.index()].is_output = true;
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`DfgError`] found: the first name declared
    /// twice, then variables that are neither consumed nor outputs, then
    /// dependency cycles (only an operation reading its own result can
    /// make one through this builder).
    pub fn build(self) -> Result<Dfg, DfgError> {
        let dfg = Dfg {
            vars: self.vars,
            ops: self.ops,
        };
        if let Some(dup) = dfg.first_duplicate_name() {
            return Err(DfgError::DuplicateName(dup.to_owned()));
        }
        // Dead-variable check: every non-output must be consumed.
        for v in dfg.var_ids() {
            let info = dfg.var(v);
            if info.consumers.is_empty() && !info.is_output {
                return Err(DfgError::DeadVariable(info.name.clone()));
            }
        }
        // Cycle check: an operand can only name an existing variable, so
        // the one cycle this builder can make is an operation reading its
        // own result — which also breaks the id order being topological.
        if dfg.topo_order().len() != dfg.num_ops() {
            return Err(DfgError::Cycle {
                op: "<unknown>".to_owned(),
            });
        }
        Ok(dfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dfg {
        // d = (a+b) * (a-b)
        let mut b = DfgBuilder::new();
        let a = b.input("a");
        let bb = b.input("b");
        let s = b.op(OpKind::Add, "s", a.into(), bb.into());
        let t = b.op(OpKind::Sub, "t", a.into(), bb.into());
        let d = b.op(OpKind::Mul, "d", s.into(), t.into());
        b.mark_output(d);
        b.build().unwrap()
    }

    #[test]
    fn builder_constructs_consumers() {
        let g = diamond();
        let a = g.var_by_name("a").unwrap();
        assert_eq!(g.var(a).consumers.len(), 2);
        let s = g.var_by_name("s").unwrap();
        assert_eq!(g.var(s).consumers.len(), 1);
    }

    #[test]
    fn primary_inputs_and_outputs() {
        let g = diamond();
        let ins: Vec<_> = g.primary_inputs().map(|v| g.var(v).name.clone()).collect();
        assert_eq!(ins, vec!["a", "b"]);
        let outs: Vec<_> = g.primary_outputs().map(|v| g.var(v).name.clone()).collect();
        assert_eq!(outs, vec!["d"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = DfgBuilder::new();
        b.input("x");
        b.input("x");
        assert_eq!(b.build().unwrap_err(), DfgError::DuplicateName("x".into()));
    }

    #[test]
    fn dead_variables_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let t = b.op(OpKind::Add, "t", x.into(), y.into());
        // t not marked output and not consumed.
        let _ = t;
        assert!(matches!(b.build(), Err(DfgError::DeadVariable(n)) if n == "t"));
    }

    #[test]
    fn unused_input_rejected() {
        let mut b = DfgBuilder::new();
        b.input("never_used");
        assert!(matches!(b.build(), Err(DfgError::DeadVariable(_))));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> = g
            .op_ids()
            .map(|o| order.iter().position(|&x| x == o).unwrap())
            .collect();
        let d = g.op_by_name("d_op").unwrap();
        let s = g.op_by_name("s_op").unwrap();
        let t = g.op_by_name("t_op").unwrap();
        assert!(pos[s.index()] < pos[d.index()]);
        assert!(pos[t.index()] < pos[d.index()]);
    }

    #[test]
    fn constants_are_not_variables() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.op(OpKind::Mul, "t", x.into(), 3i64.into());
        b.mark_output(t);
        let g = b.build().unwrap();
        assert_eq!(g.num_vars(), 2); // x and t only
        let op = g.op(OpId(0));
        assert_eq!(op.input_vars().count(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let g = diamond();
        assert!(g.var_by_name("a").is_some());
        assert!(g.var_by_name("zz").is_none());
        assert!(g.op_by_name("s_op").is_some());
        assert!(g.op_by_name("zz").is_none());
    }
}
