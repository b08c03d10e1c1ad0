//! Scheduled data-flow graphs for high-level synthesis.
//!
//! The input to the DAC'95 allocation algorithms is a behavioural
//! description in the form of a **data flow graph** `G = (V, E)` — `V` the
//! operations, `E` the variables — together with a **schedule**
//! `S : V → {1, 2, 3, ...}` assigning each operation a control step.
//!
//! This crate provides:
//!
//! * [`Dfg`] and [`DfgBuilder`] — the graph itself, with named variables,
//!   binary operations, constant operands and primary inputs/outputs.
//! * [`Schedule`] plus ASAP/ALAP/resource-constrained list scheduling in
//!   [`scheduling`].
//! * [`lifetime`] — variable lifetime intervals and the variable conflict
//!   graph under configurable conventions (port-resident vs. registered
//!   primary inputs).
//! * [`modules`] — functional-unit resource descriptions such as
//!   `"1+,2*,1-"` used by the paper's Tables.
//! * [`benchmarks`] — the paper's five evaluation designs (ex1, ex2, two
//!   Tseng configurations, Paulin) plus larger extras for scaling studies.
//! * [`random`] — seeded random scheduled DFGs for property tests and
//!   benchmarks.
//! * [`dot`] — Graphviz export.
//!
//! # Examples
//!
//! ```
//! use lobist_dfg::{DfgBuilder, OpKind};
//!
//! let mut b = DfgBuilder::new();
//! let x = b.input("x");
//! let y = b.input("y");
//! let s = b.op(OpKind::Add, "sum", x.into(), y.into());
//! b.mark_output(s);
//! let dfg = b.build()?;
//! assert_eq!(dfg.num_ops(), 1);
//! assert_eq!(dfg.num_vars(), 3);
//! # Ok::<(), lobist_dfg::DfgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod canon;
pub mod corpus;
mod dfg;
pub mod dot;
pub mod fds;
pub mod interp;
pub mod lifetime;
pub mod modules;
pub mod parse;
pub mod random;
mod schedule;
pub mod scheduling;
mod types;

pub use dfg::{Dfg, DfgBuilder, DfgError};
pub use schedule::{Schedule, ScheduleError, MAX_STEP};
pub use types::{OpId, OpKind, Operand, VarId};
