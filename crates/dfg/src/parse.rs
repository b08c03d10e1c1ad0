//! A small text format for scheduled data flow graphs.
//!
//! One statement per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! input a b c d          # declare primary inputs
//! s1 = a + b @ 1         # op: result = lhs OP rhs @ control-step
//! s2 = c + d @ 2
//! y  = s1 * s2 @ 3
//! y  = y * 3 ...         # (constants allowed as operands: plain integers)
//! output y               # declare primary outputs
//! ```
//!
//! Operators: `+ - * / & | ^ <`. Operands are variable names or integer
//! constants. Every computed variable must be defined before use and
//! scheduled at a step after its operands' producers.
//!
//! # Examples
//!
//! ```
//! use lobist_dfg::parse::parse_dfg;
//!
//! let (dfg, schedule) = parse_dfg(
//!     "input a b\n\
//!      s = a + b @ 1\n\
//!      y = s * 3 @ 2\n\
//!      output y\n",
//! )?;
//! assert_eq!(dfg.num_ops(), 2);
//! assert_eq!(schedule.max_step(), 2);
//! # Ok::<(), lobist_dfg::parse::ParseDfgError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::dfg::{Dfg, DfgBuilder, DfgError};
use crate::schedule::{Schedule, ScheduleError};
use crate::types::{OpKind, Operand, VarId};

/// Errors from parsing the DFG text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDfgError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A referenced operand is neither a declared variable nor a constant.
    UnknownOperand {
        /// 1-based line number.
        line: usize,
        /// The operand text.
        name: String,
    },
    /// The assembled graph failed validation.
    Graph(DfgError),
    /// The assembled schedule failed validation.
    Schedule(ScheduleError),
}

impl fmt::Display for ParseDfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDfgError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseDfgError::UnknownOperand { line, name } => {
                write!(f, "line {line}: unknown operand `{name}`")
            }
            ParseDfgError::Graph(e) => write!(f, "invalid graph: {e}"),
            ParseDfgError::Schedule(e) => write!(f, "invalid schedule: {e}"),
        }
    }
}

impl std::error::Error for ParseDfgError {}

impl From<DfgError> for ParseDfgError {
    fn from(e: DfgError) -> Self {
        ParseDfgError::Graph(e)
    }
}
impl From<ScheduleError> for ParseDfgError {
    fn from(e: ScheduleError) -> Self {
        ParseDfgError::Schedule(e)
    }
}

/// Parses the text format into a validated DFG and schedule.
///
/// # Errors
///
/// Returns [`ParseDfgError`] for syntax errors, unknown operands, or a
/// graph/schedule that fails validation.
pub fn parse_dfg(text: &str) -> Result<(Dfg, Schedule), ParseDfgError> {
    let mut builder = DfgBuilder::new();
    let mut vars: HashMap<String, VarId> = HashMap::new();
    let mut steps: Vec<(usize, Option<u32>)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = raw.split('#').next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("input") {
            for name in rest.split_whitespace() {
                let v = builder.input(name);
                vars.insert(name.to_owned(), v);
            }
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("output") {
            outputs.extend(rest.split_whitespace().map(|name| (line, name)));
            continue;
        }
        // result = lhs OP rhs [@ step]
        let (lhs_txt, rhs_txt) = stmt.split_once('=').ok_or_else(|| ParseDfgError::Syntax {
            line,
            message: "expected `name = a OP b @ step`".to_owned(),
        })?;
        let result = lhs_txt.trim();
        if result.is_empty() || !result.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(ParseDfgError::Syntax {
                line,
                message: format!("bad result name `{result}`"),
            });
        }
        let (expr, step) = match rhs_txt.split_once('@') {
            Some((expr, step_txt)) => {
                let step: u32 = step_txt.trim().parse().map_err(|_| ParseDfgError::Syntax {
                    line,
                    message: format!("bad step `{}`", step_txt.trim()),
                })?;
                (expr, Some(step))
            }
            None => (rhs_txt, None),
        };
        let tokens: Vec<&str> = expr.split_whitespace().collect();
        let [a, op, b] = tokens.as_slice() else {
            return Err(ParseDfgError::Syntax {
                line,
                message: format!("expected `a OP b`, got `{}`", expr.trim()),
            });
        };
        let kind = op
            .chars()
            .next()
            .filter(|_| op.len() == 1)
            .and_then(OpKind::from_symbol)
            .ok_or_else(|| ParseDfgError::Syntax {
                line,
                message: format!("unknown operator `{op}`"),
            })?;
        let operand = |txt: &str| -> Result<Operand, ParseDfgError> {
            if let Ok(c) = txt.parse::<i64>() {
                return Ok(Operand::Const(c));
            }
            vars.get(txt)
                .map(|&v| Operand::Var(v))
                .ok_or_else(|| ParseDfgError::UnknownOperand {
                    line,
                    name: txt.to_owned(),
                })
        };
        let lhs = operand(a)?;
        let rhs = operand(b)?;
        let out = builder.op(kind, result, lhs, rhs);
        vars.insert(result.to_owned(), out);
        steps.push((line, step));
    }

    for (line, name) in outputs {
        let v = vars
            .get(name)
            .ok_or_else(|| ParseDfgError::UnknownOperand {
                line,
                name: name.to_owned(),
            })?;
        builder.mark_output(*v);
    }
    let dfg = builder.build()?;
    let steps: Vec<u32> = steps
        .iter()
        .enumerate()
        .map(|(i, &(line, s))| {
            s.ok_or_else(|| ParseDfgError::Syntax {
                line,
                message: format!(
                    "operation `{}` has no `@ step` (a scheduled design annotates every operation)",
                    dfg.var(dfg.op(crate::OpId(i as u32)).out).name
                ),
            })
        })
        .collect::<Result<_, _>>()?;
    let schedule = Schedule::new(&dfg, steps)?;
    Ok((dfg, schedule))
}

/// Parses the text format ignoring any `@ step` annotations and
/// returning just the graph, for designs to be scheduled by
/// [`crate::scheduling`] or [`crate::fds`].
///
/// # Errors
///
/// As [`parse_dfg`], minus schedule validation.
pub fn parse_unscheduled_dfg(text: &str) -> Result<Dfg, ParseDfgError> {
    // Strip the step annotations, then add trivial ASAP steps so the
    // main parser's machinery can be reused... simpler: re-parse with a
    // dedicated pass that tolerates missing steps.
    let stripped: String = text
        .lines()
        .map(|l| match l.split_once('@') {
            Some((head, _)) if l.trim_start().starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') => head.to_owned(),
            _ => l.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    parse_dfg_graph_only(&stripped)
}

fn parse_dfg_graph_only(text: &str) -> Result<Dfg, ParseDfgError> {
    // Reuse parse_dfg by assigning sequential steps (one op per step is
    // always dependency-valid for a builder-ordered program where
    // operands are defined before use).
    let mut rebuilt = String::new();
    let mut next_step = 1u32;
    for line in text.lines() {
        let stmt = line.split('#').next().unwrap_or("").trim();
        if stmt.contains('=') && !stmt.contains('@') {
            rebuilt.push_str(&format!("{stmt} @ {next_step}\n"));
            next_step += 1;
        } else {
            rebuilt.push_str(line);
            rebuilt.push('\n');
        }
    }
    parse_dfg(&rebuilt).map(|(dfg, _)| dfg)
}

/// Renders a DFG into the text format *without* `@ step` annotations
/// (round-trips with [`parse_unscheduled_dfg`]). Builder-ordered
/// programs define every operand before use, which is all the
/// unscheduled parser requires.
pub fn to_text_unscheduled(dfg: &Dfg) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let inputs: Vec<&str> = dfg
        .primary_inputs()
        .map(|v| dfg.var(v).name.as_str())
        .collect();
    if !inputs.is_empty() {
        let _ = writeln!(out, "input {}", inputs.join(" "));
    }
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        let fmt_operand = |o: Operand| -> String {
            match o {
                Operand::Var(v) => dfg.var(v).name.clone(),
                Operand::Const(c) => c.to_string(),
            }
        };
        let _ = writeln!(
            out,
            "{} = {} {} {}",
            dfg.var(info.out).name,
            fmt_operand(info.lhs),
            info.kind,
            fmt_operand(info.rhs),
        );
    }
    let outputs: Vec<&str> = dfg
        .primary_outputs()
        .map(|v| dfg.var(v).name.as_str())
        .collect();
    if !outputs.is_empty() {
        let _ = writeln!(out, "output {}", outputs.join(" "));
    }
    out
}

/// Renders a scheduled DFG back into the text format (round-trips with
/// [`parse_dfg`] up to whitespace).
pub fn to_text(dfg: &Dfg, schedule: &Schedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let inputs: Vec<&str> = dfg
        .primary_inputs()
        .map(|v| dfg.var(v).name.as_str())
        .collect();
    if !inputs.is_empty() {
        let _ = writeln!(out, "input {}", inputs.join(" "));
    }
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        let fmt_operand = |o: Operand| -> String {
            match o {
                Operand::Var(v) => dfg.var(v).name.clone(),
                Operand::Const(c) => c.to_string(),
            }
        };
        let _ = writeln!(
            out,
            "{} = {} {} {} @ {}",
            dfg.var(info.out).name,
            fmt_operand(info.lhs),
            info.kind,
            fmt_operand(info.rhs),
            schedule.step(op)
        );
    }
    let outputs: Vec<&str> = dfg
        .primary_outputs()
        .map(|v| dfg.var(v).name.as_str())
        .collect();
    if !outputs.is_empty() {
        let _ = writeln!(out, "output {}", outputs.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn parse_simple_program() {
        let (dfg, schedule) = parse_dfg(
            "# a comment\n\
             input a b c\n\
             s = a + b @ 1\n\
             t = s * c @ 2   # trailing comment\n\
             u = t - 1 @ 3\n\
             output u\n",
        )
        .unwrap();
        assert_eq!(dfg.num_ops(), 3);
        assert_eq!(schedule.max_step(), 3);
        assert_eq!(dfg.primary_outputs().count(), 1);
        let u = dfg.var_by_name("u").unwrap();
        assert!(dfg.var(u).is_output);
    }

    #[test]
    fn constants_parse_as_operands() {
        let (dfg, _) = parse_dfg("input x\ny = x * 3 @ 1\noutput y\n").unwrap();
        assert_eq!(dfg.num_vars(), 2);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_dfg("input a\nbogus line here\n").unwrap_err();
        assert!(matches!(err, ParseDfgError::Syntax { line: 2, .. }), "{err}");
        let err = parse_dfg("input a\ny = a ? a @ 1\noutput y\n").unwrap_err();
        assert!(err.to_string().contains("unknown operator"));
        let err = parse_dfg("input a\ny = a + b @ 1\noutput y\n").unwrap_err();
        assert!(matches!(err, ParseDfgError::UnknownOperand { .. }));
        let err = parse_dfg("input a\ny = a + a @ zero\noutput y\n").unwrap_err();
        assert!(err.to_string().contains("bad step"));
    }

    #[test]
    fn schedule_violations_reported() {
        let err = parse_dfg(
            "input a b\ns = a + b @ 2\ny = s + a @ 1\noutput y\n",
        )
        .unwrap_err();
        assert!(matches!(err, ParseDfgError::Schedule(_)));
    }

    #[test]
    fn dead_variables_reported() {
        let err = parse_dfg("input a b\ns = a + b @ 1\n").unwrap_err();
        assert!(matches!(err, ParseDfgError::Graph(_)));
    }

    #[test]
    fn unscheduled_designs_parse() {
        let dfg = parse_unscheduled_dfg(
            "input a b c\ns = a + b\nt = s * c\noutput t\n",
        )
        .unwrap();
        assert_eq!(dfg.num_ops(), 2);
        // Mixed annotations are tolerated (steps ignored).
        let dfg2 = parse_unscheduled_dfg(
            "input a b c\ns = a + b @ 9\nt = s * c\noutput t\n",
        )
        .unwrap();
        assert_eq!(dfg2.num_ops(), 2);
    }

    #[test]
    fn scheduled_parse_requires_steps() {
        let err = parse_dfg("input a b\ns = a + b\noutput s\n").unwrap_err();
        assert!(err.to_string().contains("no `@ step`"), "{err}");
        assert!(
            matches!(err, ParseDfgError::Syntax { line: 2, .. }),
            "{err}"
        );
        // A partly scheduled design names the unannotated operation's line.
        let err = parse_dfg("input a b\ns = a + b @ 1\n\nt = s * a\noutput t\n").unwrap_err();
        assert!(err.to_string().starts_with("line 4: "), "{err}");
        assert!(!err.to_string().contains("  "), "{err}");
        // An undefined output names its `output` line.
        let err = parse_dfg("input a b\ns = a + b @ 1\noutput s z\n").unwrap_err();
        assert!(
            matches!(err, ParseDfgError::UnknownOperand { line: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn round_trip_paper_benchmarks() {
        for bench in benchmarks::paper_suite() {
            let text = to_text(&bench.dfg, &bench.schedule);
            let (dfg2, schedule2) = parse_dfg(&text).unwrap_or_else(|e| {
                panic!("{}: {e}\n{text}", bench.name);
            });
            assert_eq!(dfg2.num_ops(), bench.dfg.num_ops(), "{}", bench.name);
            assert_eq!(dfg2.num_vars(), bench.dfg.num_vars(), "{}", bench.name);
            assert_eq!(schedule2.max_step(), bench.schedule.max_step());
            // Same op kinds per step.
            for step in 1..=schedule2.max_step() {
                let kinds = |dfg: &Dfg, s: &Schedule| {
                    let mut ks: Vec<OpKind> =
                        s.ops_in_step(step).iter().map(|&o| dfg.op(o).kind).collect();
                    ks.sort();
                    ks
                };
                assert_eq!(
                    kinds(&dfg2, &schedule2),
                    kinds(&bench.dfg, &bench.schedule),
                    "{} step {step}",
                    bench.name
                );
            }
        }
    }
}
