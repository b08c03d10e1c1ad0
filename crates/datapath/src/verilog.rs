//! Synthesizable Verilog export of a data path.
//!
//! Emits a self-contained Verilog-2001 module implementing the scheduled
//! computation: a step counter sequences the control, combinational
//! `always @*` blocks realize the port multiplexers (one case arm per
//! control step), one functional-unit expression per module, and a
//! clocked block loads result registers and arriving inputs. The
//! generated RTL mirrors [`crate::simulate`] cycle for cycle, so the
//! Rust simulator (which is equivalence-checked against the DFG
//! interpreter) is the semantic reference for this backend.
//!
//! Conventions:
//!
//! * `clk`/`rst` synchronous control; assert `rst` for one cycle, then
//!   the design runs `max_step` cycles and holds its outputs.
//! * one input port per primary input (`in_<name>`), one output port per
//!   primary output (`out_<name>`);
//! * division by zero yields the all-ones word and `<` yields 0/1, the
//!   same semantics as [`lobist_dfg::interp::apply`];
//! * `done` is asserted once every control step has executed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lobist_dfg::{Dfg, OpKind, Operand, Schedule};

use crate::netlist::{DataPath, PortSide};

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'v');
    }
    s
}

fn mask(c: i64, width: u32) -> u64 {
    let v = c as u64;
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// Renders the data path as a synthesizable Verilog module.
///
/// `width` fixes the data-path bit width at generation time (constants
/// are masked to it).
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn to_verilog(
    dp: &DataPath,
    dfg: &Dfg,
    schedule: &Schedule,
    module_name: &str,
    width: u32,
) -> String {
    assert!(width > 0, "zero-width data path");
    let w = width;
    let mut out = String::new();
    let operand_expr = |o: Operand| -> String {
        match o {
            Operand::Const(c) => format!("{w}'d{}", mask(c, w)),
            Operand::Var(v) => match dp.register_of(v) {
                Some(r) => format!("R{}", r.0 + 1),
                None => format!("in_{}", sanitize(&dfg.var(v).name)),
            },
        }
    };
    // ---- header ----------------------------------------------------------
    let inputs: Vec<String> = dfg
        .primary_inputs()
        .map(|v| sanitize(&dfg.var(v).name))
        .collect();
    let outputs: Vec<String> = dfg
        .primary_outputs()
        .map(|v| sanitize(&dfg.var(v).name))
        .collect();
    let _ = writeln!(out, "// Generated by lobist: scheduled data path");
    let _ = writeln!(out, "// {} registers, {} modules, {} control steps, width {w}",
        dp.num_registers(), dp.num_modules(), schedule.max_step());
    let _ = writeln!(out, "module {module_name} (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire rst,");
    for name in &inputs {
        let _ = writeln!(out, "  input  wire [{}:0] in_{name},", w - 1);
    }
    for name in &outputs {
        let _ = writeln!(out, "  output wire [{}:0] out_{name},", w - 1);
    }
    let _ = writeln!(out, "  output wire done");
    let _ = writeln!(out, ");");

    // ---- state -----------------------------------------------------------
    let smax = schedule.max_step();
    for r in dp.register_ids() {
        let vars: Vec<&str> = dp
            .register_vars(r)
            .iter()
            .map(|&v| dfg.var(v).name.as_str())
            .collect();
        let _ = writeln!(out, "  reg [{}:0] R{}; // holds {}", w - 1, r.0 + 1, vars.join(", "));
    }
    // The step counter counts up to smax + 1, where `done` rises, so it
    // takes the bit width of smax + 1, and at least 16 bits.
    let cw = (u64::BITS - (u64::from(smax) + 1).leading_zeros()).max(16);
    let _ = writeln!(out, "  reg [{}:0] step;", cw - 1);
    let _ = writeln!(out, "  assign done = step > {cw}'d{smax};");
    let _ = writeln!(out);

    // ---- functional units --------------------------------------------------
    for m in dp.module_ids() {
        let _ = writeln!(out, "  // {} ({})", m, dp.module_class(m));
        let _ = writeln!(out, "  reg [{}:0] M{}_l, M{}_r, M{}_y;", w - 1, m.0 + 1, m.0 + 1, m.0 + 1);
    }
    let _ = writeln!(out);
    for m in dp.module_ids() {
        let mi = m.0 + 1;
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    M{mi}_l = {w}'d0;");
        let _ = writeln!(out, "    M{mi}_r = {w}'d0;");
        let _ = writeln!(out, "    M{mi}_y = {w}'d0;");
        let _ = writeln!(out, "    case (step)");
        for &op in dp.module_ops(m) {
            let info = dfg.op(op);
            let step = schedule.step(op);
            let (l, r) = match dp.lhs_side(op) {
                PortSide::Left => (operand_expr(info.lhs), operand_expr(info.rhs)),
                PortSide::Right => (operand_expr(info.rhs), operand_expr(info.lhs)),
            };
            // The module computes lhs KIND rhs regardless of which port
            // each operand reached (commutative kinds may be swapped;
            // non-commutative kinds are always Left = lhs).
            let expr = fu_expr(info.kind, &format!("M{mi}_l"), &format!("M{mi}_r"), w);
            let _ = writeln!(out, "      {cw}'d{step}: begin M{mi}_l = {l}; M{mi}_r = {r}; M{mi}_y = {expr}; end");
        }
        let _ = writeln!(out, "      default: ;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
        let _ = writeln!(out);
    }

    // ---- sequential control -------------------------------------------------
    // Input arrival steps (matching the simulator's lazy convention).
    let mut arrivals: Vec<(u32, String, u32)> = Vec::new(); // (step, in name, register)
    for v in dfg.primary_inputs() {
        if let Some(r) = dp.register_of(v) {
            let first = dfg
                .var(v)
                .consumers
                .iter()
                .map(|&op| schedule.step(op))
                .min()
                .unwrap_or(1);
            arrivals.push((first.saturating_sub(1), sanitize(&dfg.var(v).name), r.0 + 1));
        }
    }
    let _ = writeln!(out, "  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    let _ = writeln!(out, "      step <= {cw}'d1;");
    for (arrive, name, reg) in arrivals.iter().filter(|(a, _, _)| *a == 0) {
        let _ = arrive;
        let _ = writeln!(out, "      R{reg} <= in_{name};");
    }
    let _ = writeln!(out, "    end else if (step <= {cw}'d{smax}) begin");
    let _ = writeln!(out, "      step <= step + {cw}'d1;");
    let _ = writeln!(out, "      case (step)");
    // One arm per occupied step: its results in op id order, then the
    // inputs arriving for the next step.
    let mut actions: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        let m = dp
            .module_ids()
            .find(|&m| dp.module_ops(m).contains(&op))
            .expect("every op runs on a module");
        let r = dp.register_of(info.out).expect("results are registered");
        actions
            .entry(schedule.step(op))
            .or_default()
            .push(format!("R{} <= M{}_y;", r.0 + 1, m.0 + 1));
    }
    for (arrive, name, reg) in arrivals.iter().filter(|(a, _, _)| *a > 0) {
        actions
            .entry(*arrive)
            .or_default()
            .push(format!("R{reg} <= in_{name};"));
    }
    for (step, actions) in &actions {
        let _ = writeln!(out, "        {cw}'d{step}: begin {} end", actions.join(" "));
    }
    let _ = writeln!(out, "        default: ;");
    let _ = writeln!(out, "      endcase");
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out);

    // ---- outputs --------------------------------------------------------------
    for v in dfg.primary_outputs() {
        let name = sanitize(&dfg.var(v).name);
        match dp.register_of(v) {
            Some(r) => {
                let _ = writeln!(out, "  assign out_{name} = R{};", r.0 + 1);
            }
            None => {
                let _ = writeln!(out, "  assign out_{name} = in_{name}; // pass-through");
            }
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// The functional-unit expression for a kind. The emitted unit computes
/// `l KIND r` over its (possibly operand-swapped) ports; swapping only
/// ever happens for commutative kinds, which compute the same value.
fn fu_expr(kind: OpKind, l: &str, r: &str, width: u32) -> String {
    match kind {
        OpKind::Add => format!("{l} + {r}"),
        OpKind::Sub => format!("{l} - {r}"),
        OpKind::Mul => format!("{l} * {r}"),
        OpKind::Div => format!("({r} == {width}'d0) ? {{{width}{{1'b1}}}} : {l} / {r}"),
        OpKind::And => format!("{l} & {r}"),
        OpKind::Or => format!("{l} | {r}"),
        OpKind::Xor => format!("{l} ^ {r}"),
        OpKind::Lt => format!("{{{{{}{{1'b0}}}}, {l} < {r}}}", width - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};
    use lobist_dfg::benchmarks;

    fn ex1_verilog() -> String {
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
            &ic)
        .unwrap();
        to_verilog(&dp, &bench.dfg, &bench.schedule, "ex1", 8)
    }

    #[test]
    fn header_ports_and_registers() {
        let v = ex1_verilog();
        assert!(v.contains("module ex1 ("));
        for port in ["in_a", "in_c", "in_e", "in_g", "out_f", "out_h"] {
            assert!(v.contains(port), "missing {port}\n{v}");
        }
        assert!(v.contains("reg [7:0] R1;"));
        assert!(v.contains("reg [7:0] R3;"));
        assert!(v.contains("assign done = step > 16'd3;"));
        assert!(v.ends_with("endmodule\n"));
    }

    #[test]
    fn one_case_arm_per_scheduled_step() {
        let v = ex1_verilog();
        // mul1 at step 1, add1 at step 2, add2+mul2 at step 3.
        assert!(v.contains("16'd1: begin M2_l ="), "{v}");
        assert!(v.contains("16'd2: begin M1_l ="), "{v}");
        assert!(v.contains("M1_y = M1_l + M1_r"), "{v}");
        assert!(v.contains("M2_y = M2_l * M2_r"), "{v}");
    }

    #[test]
    fn sequential_block_loads_results_and_inputs() {
        let v = ex1_verilog();
        // b := e*g lands in R2 at step 1.
        assert!(v.contains("16'd1: begin R2 <= M2_y;"), "{v}");
        // f := c+d in R1 and h := c*e in R2 at step 3.
        assert!(v.contains("16'd3: begin R1 <= M1_y; R2 <= M2_y;"), "{v}");
        // Inputs e and g arrive at reset (first use step 1).
        assert!(v.contains("R3 <= in_e;"), "{v}");
        // Output wiring.
        assert!(v.contains("assign out_f = R1;"));
        assert!(v.contains("assign out_h = R2;"));
    }

    #[test]
    fn begin_end_balance() {
        let v = ex1_verilog();
        let tokens: Vec<&str> = v
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .filter(|t| !t.is_empty())
            .collect();
        let count = |word: &str| tokens.iter().filter(|&&t| t == word).count();
        assert_eq!(count("begin"), count("end"), "{v}");
        assert_eq!(count("case"), count("endcase"), "{v}");
        assert_eq!(count("module"), count("endmodule"), "{v}");
    }

    #[test]
    fn division_guard_and_constants() {
        let bench = benchmarks::paulin();
        let d = {
            use lobist_dfg::modules::ModuleSet;
            let modules: ModuleSet = bench.module_allocation.clone();
            let ma = ModuleAssignment::from_op_names(
                &bench.dfg,
                &modules,
                &[
                    ("add1", 0),
                    ("add2", 0),
                    ("mul1", 1),
                    ("mul2", 2),
                    ("mul3", 1),
                    ("mul4", 2),
                    ("mul5", 1),
                    ("sub1", 3),
                    ("sub2", 3),
                ],
            )
            .unwrap();
            let regs = RegisterAssignment::from_names(
                &bench.dfg,
                &[
                    vec!["t1", "t3", "t5"],
                    vec!["t2", "t6"],
                    vec!["t4", "ul"],
                    vec!["xl"],
                    vec!["yl"],
                ],
            )
            .unwrap();
            let ic = InterconnectAssignment::straight(&bench.dfg);
            DataPath::build(
                &bench.dfg,
                &bench.schedule,
                bench.lifetime_options,
                &ma,
                &regs,
                &ic)
            .unwrap()
        };
        let v = to_verilog(&d, &bench.dfg, &bench.schedule, "paulin", 8);
        // Constant 3 is masked and emitted as a literal.
        assert!(v.contains("8'd3"), "{v}");
        // Port-resident inputs appear directly in mux arms.
        assert!(v.contains("in_x"), "{v}");
        assert!(v.contains("assign out_xl = R4;"), "{v}");
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("a"), "a");
        assert_eq!(sanitize("s0_y"), "s0_y");
        assert_eq!(sanitize("3x"), "v3x");
        assert_eq!(sanitize("a-b"), "a_b");
    }

    #[test]
    fn fu_expressions() {
        assert_eq!(fu_expr(OpKind::Add, "a", "b", 8), "a + b");
        assert!(fu_expr(OpKind::Div, "a", "b", 8).contains("== 8'd0"));
        assert!(fu_expr(OpKind::Lt, "a", "b", 8).contains("a < b"));
    }
}

/// One testbench vector: `(input values, expected output values)`,
/// both keyed by variable id.
pub type TestVector = (
    std::collections::HashMap<lobist_dfg::VarId, u64>,
    std::collections::HashMap<lobist_dfg::VarId, u64>,
);

/// Generates a self-checking testbench for the module produced by
/// [`to_verilog`]: each vector drives the inputs, waits for `done`, and
/// compares every output against `expected` (as computed by
/// [`crate::simulate`], which is equivalence-checked against the DFG
/// interpreter). The testbench uses plain Verilog-2001 (`$display`,
/// `$fatal`) and finishes with `ALL TESTS PASSED`.
///
/// `vectors` pairs each input assignment with its expected outputs,
/// both keyed by variable id.
///
/// # Panics
///
/// Panics if a vector misses an input or output value.
pub fn to_testbench(
    dfg: &Dfg,
    schedule: &Schedule,
    module_name: &str,
    width: u32,
    vectors: &[TestVector],
) -> String {
    let w = width;
    let smax = schedule.max_step();
    let mut out = String::new();
    let _ = writeln!(out, "// Self-checking testbench for {module_name}");
    let _ = writeln!(out, "`timescale 1ns/1ps");
    let _ = writeln!(out, "module {module_name}_tb;");
    let _ = writeln!(out, "  reg clk = 0;");
    let _ = writeln!(out, "  reg rst = 1;");
    for v in dfg.primary_inputs() {
        let name = sanitize(&dfg.var(v).name);
        let _ = writeln!(out, "  reg [{}:0] in_{name};", w - 1);
    }
    for v in dfg.primary_outputs() {
        let name = sanitize(&dfg.var(v).name);
        let _ = writeln!(out, "  wire [{}:0] out_{name};", w - 1);
    }
    let _ = writeln!(out, "  wire done;");
    let _ = writeln!(out, "  {module_name} dut (");
    let _ = writeln!(out, "    .clk(clk), .rst(rst),");
    for v in dfg.primary_inputs() {
        let name = sanitize(&dfg.var(v).name);
        let _ = writeln!(out, "    .in_{name}(in_{name}),");
    }
    for v in dfg.primary_outputs() {
        let name = sanitize(&dfg.var(v).name);
        let _ = writeln!(out, "    .out_{name}(out_{name}),");
    }
    let _ = writeln!(out, "    .done(done)");
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "  always #5 clk = ~clk;");
    let _ = writeln!(out, "  initial begin");
    for (i, (inputs, expected)) in vectors.iter().enumerate() {
        let _ = writeln!(out, "    // vector {i}");
        let _ = writeln!(out, "    rst = 1;");
        for v in dfg.primary_inputs() {
            let name = sanitize(&dfg.var(v).name);
            let value = inputs
                .get(&v)
                .unwrap_or_else(|| panic!("vector {i} misses input {name}"));
            let _ = writeln!(out, "    in_{name} = {w}'d{value};");
        }
        let _ = writeln!(out, "    @(posedge clk); #1 rst = 0;");
        let _ = writeln!(out, "    repeat ({}) @(posedge clk);", smax + 1);
        let _ = writeln!(out, "    #1;");
        for v in dfg.primary_outputs() {
            let name = sanitize(&dfg.var(v).name);
            let value = expected
                .get(&v)
                .unwrap_or_else(|| panic!("vector {i} misses output {name}"));
            let _ = writeln!(
                out,
                "    if (out_{name} !== {w}'d{value}) begin $display(\"FAIL v{i} {name}: got %0d want {value}\", out_{name}); $fatal; end"
            );
        }
    }
    let _ = writeln!(out, "    $display(\"ALL TESTS PASSED\");");
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tb_tests {
    use super::*;
    use crate::assignment::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};
    use crate::simulate::simulate;
    use lobist_dfg::benchmarks;
    use std::collections::HashMap;

    #[test]
    fn testbench_embeds_simulator_vectors() {
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
            &ic)
        .unwrap();
        let v = |n: &str| bench.dfg.var_by_name(n).unwrap();
        let inputs: HashMap<_, _> =
            [(v("a"), 11u64), (v("c"), 13), (v("e"), 17), (v("g"), 19)].into_iter().collect();
        let expected = simulate(&dp, &bench.dfg, &bench.schedule, &inputs, 8).unwrap();
        let tb = to_testbench(
            &bench.dfg,
            &bench.schedule,
            "ex1",
            8,
            &[(inputs, expected.clone())],
        );
        assert!(tb.contains("module ex1_tb;"));
        assert!(tb.contains("in_a = 8'd11;"));
        // f = c + (a + e*g) masked to 8 bits.
        let f = expected[&v("f")];
        assert!(tb.contains(&format!("want {f}")), "{tb}");
        assert!(tb.contains("ALL TESTS PASSED"));
        assert!(tb.contains("$fatal"));
        assert!(tb.ends_with("endmodule\n"));
    }

    #[test]
    #[should_panic(expected = "misses input")]
    fn missing_vector_input_panics() {
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
            &ic)
        .unwrap();
        let _ = dp;
        to_testbench(
            &bench.dfg,
            &bench.schedule,
            "ex1",
            8,
            &[(HashMap::new(), HashMap::new())],
        );
    }
}

#[cfg(test)]
mod step_counter_tests {
    use super::*;
    use crate::assignment::{InterconnectAssignment, ModuleAssignment, RegisterAssignment};
    use lobist_dfg::lifetime::LifetimeOptions;
    use lobist_dfg::parse::parse_dfg;

    /// The controller of `y = a + b` scheduled at `step`.
    fn one_add_at(step: u32) -> String {
        let (dfg, schedule) =
            parse_dfg(&format!("input a b\ny = a + b @ {step}\noutput y\n")).expect("parses");
        let op = dfg.op_ids().next().expect("one op");
        let name = dfg.op(op).name.clone();
        let modules = "1+".parse().expect("a module set");
        let ma = ModuleAssignment::from_op_names(&dfg, &modules, &[(name.as_str(), 0)])
            .expect("binds");
        let regs = RegisterAssignment::from_names(&dfg, &[vec!["a"], vec!["b"], vec!["y"]])
            .expect("registers");
        let ic = InterconnectAssignment::straight(&dfg);
        let dp = DataPath::build(&dfg, &schedule, LifetimeOptions::default(), &ma, &regs, &ic)
            .expect("builds");
        to_verilog(&dp, &dfg, &schedule, "one", 8)
    }

    #[test]
    fn the_counter_is_16_bits_while_max_step_plus_one_fits() {
        let v = one_add_at(65534);
        assert!(v.contains("reg [15:0] step;"), "{v}");
        assert!(v.contains("assign done = step > 16'd65534;"), "{v}");
    }

    #[test]
    fn the_counter_widens_past_16_bits() {
        for step in [65535, 70000] {
            let v = one_add_at(step);
            assert!(v.contains("reg [16:0] step;"), "{v}");
            assert!(v.contains(&format!("assign done = step > 17'd{step};")), "{v}");
            assert!(v.contains(&format!("17'd{step}: begin R")), "{v}");
            assert!(!v.contains("16'd"), "{v}");
        }
        let v = one_add_at(4_000_000_000);
        assert!(v.contains("reg [31:0] step;"), "{v}");
    }

    #[test]
    fn a_huge_step_number_emits_at_once() {
        let start = std::time::Instant::now();
        let v = one_add_at(4_000_000_000);
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        // One arm in each case block: the adder's, then the register load.
        assert_eq!(v.matches("32'd4000000000: begin").count(), 2, "{v}");
    }
}
