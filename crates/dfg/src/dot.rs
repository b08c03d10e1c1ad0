//! Graphviz (DOT) export of scheduled data flow graphs.

use std::fmt::Write as _;

use crate::dfg::Dfg;
use crate::schedule::Schedule;
use crate::types::Operand;

/// Renders a scheduled DFG as a Graphviz digraph, with operations grouped
/// into one rank per control step (mirroring the paper's Fig. 2 layout).
///
/// # Examples
///
/// ```
/// use lobist_dfg::{benchmarks, dot};
///
/// let b = benchmarks::ex1();
/// let text = dot::to_dot(&b.dfg, &b.schedule);
/// assert!(text.starts_with("digraph"));
/// assert!(text.contains("mul1"));
/// ```
pub fn to_dot(dfg: &Dfg, schedule: &Schedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph dfg {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");
    // Input variables as plain nodes.
    for v in dfg.primary_inputs() {
        let name = &dfg.var(v).name;
        let _ = writeln!(out, "  \"{name}\" [shape=plaintext];");
    }
    // Operations as circles labelled with their symbol, ranked by step.
    let by_step = schedule.ops_by_step();
    for ops in by_step.chunk_by(|&a, &b| schedule.step(a) == schedule.step(b)) {
        let _ = write!(out, "  {{ rank=same;");
        for &op in ops {
            let _ = write!(out, " \"{}\";", dfg.op(op).name);
        }
        let _ = writeln!(out, " }} // step {}", schedule.step(ops[0]));
    }
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        let _ = writeln!(
            out,
            "  \"{}\" [shape=circle, label=\"{}\"];",
            info.name,
            info.kind.symbol()
        );
    }
    // Edges: operands into ops, ops to their result variables (only shown
    // for results that are consumed elsewhere or outputs).
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        for (slot, operand) in [("l", info.lhs), ("r", info.rhs)] {
            match operand {
                Operand::Var(v) => {
                    let vn = &dfg.var(v).name;
                    match dfg.var(v).producer {
                        Some(p) => {
                            let _ = writeln!(
                                out,
                                "  \"{}\" -> \"{}\" [label=\"{}\", taillabel=\"\"];",
                                dfg.op(p).name,
                                info.name,
                                vn
                            );
                        }
                        None => {
                            let _ = writeln!(out, "  \"{vn}\" -> \"{}\";", info.name);
                        }
                    }
                }
                Operand::Const(c) => {
                    let cid = format!("const_{}_{slot}", info.name);
                    let _ = writeln!(out, "  \"{cid}\" [shape=plaintext, label=\"{c}\"];");
                    let _ = writeln!(out, "  \"{cid}\" -> \"{}\";", info.name);
                }
            }
        }
    }
    // Output markers.
    for v in dfg.primary_outputs() {
        let name = &dfg.var(v).name;
        let sink = format!("out_{name}");
        let _ = writeln!(out, "  \"{sink}\" [shape=plaintext, label=\"{name}\"];");
        if let Some(p) = dfg.var(v).producer {
            let _ = writeln!(out, "  \"{}\" -> \"{sink}\";", dfg.op(p).name);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn ranks_cover_occupied_steps_only() {
        let text = "input a b\ns = a + b @ 1\ny = s * a @ 4000000000\noutput y\n";
        let (dfg, schedule) = crate::parse::parse_dfg(text).expect("parses");
        let dot = to_dot(&dfg, &schedule);
        assert_eq!(dot.matches("rank=same").count(), 2, "{dot}");
        assert!(dot.contains(" } // step 1\n"), "{dot}");
        assert!(dot.contains(" } // step 4000000000\n"), "{dot}");
    }

    #[test]
    fn dot_contains_all_ops_and_inputs() {
        let b = benchmarks::ex1();
        let text = to_dot(&b.dfg, &b.schedule);
        for op in b.dfg.op_ids() {
            assert!(text.contains(&b.dfg.op(op).name));
        }
        for v in b.dfg.primary_inputs() {
            assert!(text.contains(&b.dfg.var(v).name));
        }
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn dot_renders_constants() {
        let b = benchmarks::paulin();
        let text = to_dot(&b.dfg, &b.schedule);
        assert!(text.contains("label=\"3\""));
    }

    #[test]
    fn dot_groups_ranks_by_step() {
        let b = benchmarks::ex1();
        let text = to_dot(&b.dfg, &b.schedule);
        assert!(text.contains("// step 1"));
        assert!(text.contains("// step 3"));
    }
}
