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

use std::borrow::Cow;
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
    let Parsed { dfg, steps, .. } = parse_lines(text, false)?;
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
/// The annotations are dropped line by line: a line whose first
/// non-blank character is an ASCII letter, digit or `_` loses everything
/// from its first `@` on (`input` and `output` lines included), and then
/// every statement with an `=` but no `@` is read as if it ended in
/// `@ k`, for a count `k` from 1 — which also makes an `input` or
/// `output` line with an `=` declare `@` and `k` as names. A line
/// starting with any other character (a non-ASCII letter, say) keeps its
/// `@ step`, which must then be consistent with the counted ones.
///
/// # Errors
///
/// As [`parse_dfg`]; schedule validation fails only through steps kept
/// that way.
pub fn parse_unscheduled_dfg(text: &str) -> Result<Dfg, ParseDfgError> {
    let Parsed {
        dfg,
        steps,
        kept_steps,
    } = parse_lines(text, true)?;
    if kept_steps {
        let steps = steps.iter().map(|&(_, s)| s.expect("every op is counted or annotated"));
        Schedule::new(&dfg, steps.collect())?;
    }
    Ok(dfg)
}

/// A parsed graph with each op's `(line, step)`, in op order.
struct Parsed {
    dfg: Dfg,
    steps: Vec<(usize, Option<u32>)>,
    /// Some op's step was written out rather than counted.
    kept_steps: bool,
}

/// The unscheduled parser's view of a raw line: cut at the first `@` if
/// the line starts with an ASCII letter, digit or `_`.
fn strip_step(raw: &str) -> &str {
    match raw.split_once('@') {
        Some((head, _))
            if raw
                .trim_start()
                .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') =>
        {
            head
        }
        _ => raw,
    }
}

/// The one pass behind both parsers. Names are borrowed from `text`;
/// the only owned ones are the numbers an unscheduled `input`/`output`
/// line with an `=` declares (see [`parse_unscheduled_dfg`]).
fn parse_lines(text: &str, unscheduled: bool) -> Result<Parsed, ParseDfgError> {
    // A statement per line, at most: sized once instead of regrown.
    let lines = text.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut builder = DfgBuilder::with_capacity(lines, lines);
    let mut vars: HashMap<Cow<'_, str>, VarId> = HashMap::with_capacity(lines);
    let mut steps: Vec<(usize, Option<u32>)> = Vec::with_capacity(lines);
    let mut outputs: Vec<(usize, Cow<'_, str>)> = Vec::new();
    let mut next_step = 1u32;
    let mut kept_steps = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let raw = if unscheduled { strip_step(raw) } else { raw };
        let stmt = raw.split('#').next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        // Unscheduled, a statement with an `=` and no `@` reads as
        // `{stmt} @ {next_step}`: the step, and for `input`/`output`
        // lines the two extra names `@` and the step number.
        let counted = (unscheduled && stmt.contains('=') && !stmt.contains('@')).then(|| {
            next_step += 1;
            next_step - 1
        });
        let extra_names = counted
            .into_iter()
            .flat_map(|k| [Cow::Borrowed("@"), Cow::Owned(k.to_string())]);
        if let Some(rest) = stmt.strip_prefix("input") {
            for name in rest.split_whitespace().map(Cow::Borrowed).chain(extra_names) {
                let v = builder.input(&name);
                vars.insert(name, v);
            }
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("output") {
            let names = rest.split_whitespace().map(Cow::Borrowed).chain(extra_names);
            outputs.extend(names.map(|name| (line, name)));
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
        let (expr, step) = match (counted, rhs_txt.split_once('@')) {
            (Some(k), _) => (rhs_txt, Some(k)),
            (None, Some((expr, step_txt))) => {
                let step: u32 = step_txt.trim().parse().map_err(|_| ParseDfgError::Syntax {
                    line,
                    message: format!("bad step `{}`", step_txt.trim()),
                })?;
                kept_steps = true;
                (expr, Some(step))
            }
            (None, None) => (rhs_txt, None),
        };
        let mut tokens = expr.split_whitespace();
        let (Some(a), Some(op), Some(b), None) =
            (tokens.next(), tokens.next(), tokens.next(), tokens.next())
        else {
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
        vars.insert(Cow::Borrowed(result), out);
        steps.push((line, step));
    }

    for (line, name) in outputs {
        let v = vars
            .get(&name)
            .ok_or_else(|| ParseDfgError::UnknownOperand {
                line,
                name: name.into_owned(),
            })?;
        builder.mark_output(*v);
    }
    Ok(Parsed {
        dfg: builder.build()?,
        steps,
        kept_steps,
    })
}

/// Renders a DFG into the text format *without* `@ step` annotations
/// (round-trips with [`parse_unscheduled_dfg`]). Builder-ordered
/// programs define every operand before use, which is all the
/// unscheduled parser requires.
pub fn to_text_unscheduled(dfg: &Dfg) -> String {
    let mut out = String::new();
    let _ = render(dfg, None, &mut out);
    out
}

/// Renders a scheduled DFG back into the text format (round-trips with
/// [`parse_dfg`] up to whitespace).
pub fn to_text(dfg: &Dfg, schedule: &Schedule) -> String {
    let mut out = String::new();
    let _ = write_text(dfg, schedule, &mut out);
    out
}

/// Writes the bytes of [`to_text`] to `out` piece by piece, so a caller
/// can hash the text without building it.
///
/// # Errors
///
/// Passes on the first error `out` returns.
pub fn write_text(dfg: &Dfg, schedule: &Schedule, out: &mut impl fmt::Write) -> fmt::Result {
    render(dfg, Some(schedule), out)
}

fn render(dfg: &Dfg, schedule: Option<&Schedule>, out: &mut impl fmt::Write) -> fmt::Result {
    write_names(out, "input", dfg.primary_inputs().map(|v| dfg.var(v).name.as_str()))?;
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        out.write_str(&dfg.var(info.out).name)?;
        out.write_str(" = ")?;
        write_operand(out, dfg, info.lhs)?;
        write!(out, " {} ", info.kind)?;
        write_operand(out, dfg, info.rhs)?;
        if let Some(schedule) = schedule {
            write!(out, " @ {}", schedule.step(op))?;
        }
        out.write_char('\n')?;
    }
    write_names(out, "output", dfg.primary_outputs().map(|v| dfg.var(v).name.as_str()))
}

/// `{keyword} a b c\n`, or nothing for no names.
fn write_names<'a>(
    out: &mut impl fmt::Write,
    keyword: &str,
    names: impl Iterator<Item = &'a str>,
) -> fmt::Result {
    let mut any = false;
    for name in names {
        out.write_str(if any { " " } else { keyword })?;
        if !any {
            out.write_char(' ')?;
        }
        out.write_str(name)?;
        any = true;
    }
    if any {
        out.write_char('\n')?;
    }
    Ok(())
}

fn write_operand(out: &mut impl fmt::Write, dfg: &Dfg, operand: Operand) -> fmt::Result {
    match operand {
        Operand::Var(v) => out.write_str(&dfg.var(v).name),
        Operand::Const(c) => write!(out, "{c}"),
    }
}

/// The executable reference the single pass is differentially tested
/// against: a line-by-line scheduled parser that owns every name, and
/// an unscheduled parser that strips the steps into a new text, numbers
/// every assignment into a third one, and runs the scheduled parser on
/// it.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn parse_dfg(text: &str) -> Result<(Dfg, Schedule), ParseDfgError> {
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

    pub(crate) fn parse_unscheduled_dfg(text: &str) -> Result<Dfg, ParseDfgError> {
        let stripped: String = text
            .lines()
            .map(|l| match l.split_once('@') {
                Some((head, _)) if l.trim_start().starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') => head.to_owned(),
                _ => l.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        let mut rebuilt = String::new();
        let mut next_step = 1u32;
        for line in stripped.lines() {
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

    /// A renderer that builds each line from owned pieces, the
    /// reference for [`write_text`].
    pub(crate) fn to_text(dfg: &Dfg, schedule: Option<&Schedule>) -> String {
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
            let _ = write!(
                out,
                "{} = {} {} {}",
                dfg.var(info.out).name,
                fmt_operand(info.lhs),
                info.kind,
                fmt_operand(info.rhs),
            );
            match schedule {
                Some(s) => {
                    let _ = writeln!(out, " @ {}", s.step(op));
                }
                None => out.push('\n'),
            }
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

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(rng: &mut u64, n: usize) -> usize {
        (splitmix64(rng) % n as u64) as usize
    }

    /// Texts the mutator starts from: the paper suite (scheduled), small
    /// corpus designs (unscheduled), and the unscheduled parser's odd
    /// cases.
    fn base_texts() -> Vec<String> {
        use crate::corpus::{generate, KINDS};
        let mut texts: Vec<String> = benchmarks::paper_suite()
            .iter()
            .map(|b| to_text(&b.dfg, &b.schedule))
            .collect();
        for kind in KINDS {
            texts.push(to_text_unscheduled(&generate(kind, 8, 3)));
        }
        texts.extend(
            [
                "input a b @ 4\ns = a + b\noutput s @ 9\n",
                "input a b\nλ = a + b @ 3\ny = λ * a\noutput y\n",
                "input a b\ninputx = a + b\noutput x\n",
                "input a b\ns = a + b\noutput s = 1\n",
                "input a b\r\ns = a - b # @ 7\r\n\r\noutput s\r\n",
                "input a b\n(s) = a + b @ 2\nt = s + a\noutput t\n",
            ]
            .map(str::to_owned),
        );
        texts
    }

    const FRAGMENTS: [&str; 24] = [
        "@", "@ 0", "@ 3", " @ 4294967295", "#", "=", " ", "\n", "\r\n", "\r", "input ",
        "output ", "λ", "é", "_", "+", "-", "*", "?", "9", "-3", "s_op", "@@", "+5",
    ];

    /// One to three seeded edits: a spliced fragment, a deleted
    /// character, a moved or duplicated line, or a copied token.
    fn mutate(base: &str, rng: &mut u64) -> String {
        let mut text = base.to_owned();
        for _ in 0..1 + below(rng, 3) {
            let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
            let at = cuts[below(rng, cuts.len())];
            match below(rng, 5) {
                0 => text.insert_str(at, FRAGMENTS[below(rng, FRAGMENTS.len())]),
                1 => {
                    if let Some(&end) = cuts.iter().find(|&&c| c > at) {
                        text.replace_range(at..end, "");
                    }
                }
                2 => {
                    let mut lines: Vec<&str> = text.lines().collect();
                    if !lines.is_empty() {
                        let (i, j) = (below(rng, lines.len()), below(rng, lines.len()));
                        if below(rng, 2) == 0 {
                            lines.swap(i, j);
                        } else {
                            lines.insert(j, lines[i]);
                        }
                    }
                    text = lines.join("\n");
                }
                _ => {
                    let tokens: Vec<&str> = base.split_whitespace().collect();
                    let token = tokens[below(rng, tokens.len())].to_owned();
                    text.insert_str(at, &token);
                }
            }
        }
        text
    }

    #[test]
    fn single_pass_parsers_match_the_reference_on_mutated_texts() {
        let bases = base_texts();
        let mut rng = 0x05ee_d0f9_a75e;
        let (mut ok, mut total) = ([0usize; 2], 0usize);
        let mut check = |text: &str| {
            let scheduled = parse_dfg(text);
            assert_eq!(scheduled, reference::parse_dfg(text), "parse_dfg on {text:?}");
            let unscheduled = parse_unscheduled_dfg(text);
            assert_eq!(
                unscheduled,
                reference::parse_unscheduled_dfg(text),
                "parse_unscheduled_dfg on {text:?}"
            );
            if let Err(e) = &scheduled {
                let Err(r) = reference::parse_dfg(text) else { unreachable!() };
                assert_eq!(e.to_string(), r.to_string());
            }
            ok[0] += usize::from(scheduled.is_ok());
            ok[1] += usize::from(unscheduled.is_ok());
            total += 1;
        };
        for base in &bases {
            check(base);
        }
        for _ in 0..12_000 {
            let base = &bases[below(&mut rng, bases.len())];
            check(&mutate(base, &mut rng));
        }
        // Both outcomes are exercised in both modes.
        assert!(ok.iter().all(|&k| k > 100 && k < total - 100), "{ok:?} of {total}");
    }

    #[test]
    fn unscheduled_odd_cases_are_kept() {
        // `@` is dropped on `input` and `output` lines too.
        let dfg = parse_unscheduled_dfg("input a b @ 4\ns = a + b\noutput s @ 9\n").unwrap();
        assert_eq!(dfg.num_vars(), 3);
        // A statement starting with a non-ASCII letter keeps its step,
        // which must agree with the counted ones: `y` counts as step 1.
        let err = parse_unscheduled_dfg("input a b\nλ = a + b @ 3\ny = λ * a\noutput y\n")
            .unwrap_err();
        assert!(matches!(err, ParseDfgError::Schedule(_)), "{err}");
        assert!(parse_unscheduled_dfg("input a b\ns = a + b\nλ = s * a @ 2\noutput λ\n").is_ok());
        // An `input` line with an `=` declares every word on it, `@`
        // and its step number too.
        let err = parse_unscheduled_dfg("input a b\ninputx = a + b\noutput x\n").unwrap_err();
        assert_eq!(err, ParseDfgError::Graph(DfgError::DuplicateName("a".into())));
        let err = parse_unscheduled_dfg("inputx = y\ns = x * y\noutput s\n").unwrap_err();
        assert_eq!(err, ParseDfgError::Graph(DfgError::DeadVariable("=".into())));
        let err = parse_unscheduled_dfg("input a b\ns = a + b\noutput s = 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: unknown operand `=`");
    }

    #[test]
    fn write_text_matches_the_reference_renderer() {
        use crate::corpus::{generate, KINDS};
        let mut designs: Vec<(Dfg, Schedule)> = benchmarks::paper_suite()
            .into_iter()
            .map(|b| (b.dfg, b.schedule))
            .collect();
        for kind in KINDS {
            let dfg = generate(kind, 16, 5);
            let schedule = crate::scheduling::asap(&dfg);
            designs.push((dfg, schedule));
        }
        for (dfg, schedule) in &designs {
            assert_eq!(to_text(dfg, schedule), reference::to_text(dfg, Some(schedule)));
            assert_eq!(to_text_unscheduled(dfg), reference::to_text(dfg, None));
        }
    }
}
