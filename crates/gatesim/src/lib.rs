//! Gate-level models of the data path's functional units, BIST test
//! structures (LFSR pattern generators, MISR signature analyzers) and
//! stuck-at fault simulation.
//!
//! The paper evaluates BIST *area*; test *quality* rests on the premise
//! that pseudo-random patterns from the chosen TPGs achieve high fault
//! coverage on the combinational modules. This crate makes that premise
//! measurable:
//!
//! * [`net`] — a small combinational gate network IR with 64-way
//!   parallel-pattern evaluation (PPSFP-style).
//! * [`modules`] — gate-level generators for every functional-unit class
//!   (ripple adder, subtractor, array multiplier, restoring divider,
//!   bitwise logic, comparator, multi-function ALU), each verified
//!   against the arithmetic reference semantics.
//! * [`lfsr`] — maximal-length LFSRs and MISRs (XAPP052 tap table).
//! * [`fanout`] — per-net consumer/output CSR index and fault-cone
//!   queries.
//! * [`lanes`] — configurable lane widths ([`lanes::LaneWord`]): 64
//!   lanes per `u64`, or 256 lanes per fixed `[u64; 4]` word that the
//!   compiler auto-vectorizes.
//! * [`diffsim`] — cone-limited event-driven differential fault
//!   simulation (the fast path behind every coverage measurement).
//! * [`collapse`] — structural fault collapsing into equivalence
//!   classes, with exact report expansion.
//! * [`coverage`] — single-stuck-at fault enumeration and coverage
//!   measurement under arbitrary or pseudo-random pattern sources.
//! * [`bist_mode`] — full BIST-session emulation: LFSR → module → MISR,
//!   including signature-aliasing measurement.
//!
//! # Examples
//!
//! ```
//! use lobist_gatesim::modules::ripple_adder;
//! use lobist_gatesim::coverage::{enumerate_faults, random_pattern_coverage};
//!
//! let adder = ripple_adder(8);
//! let faults = enumerate_faults(&adder);
//! let report = random_pattern_coverage(&adder, 512, 0xACE1);
//! assert!(report.coverage() > 0.90, "{}", report.coverage());
//! assert_eq!(report.total_faults, faults.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bist_mode;
pub mod collapse;
pub mod coverage;
pub mod diffsim;
pub mod fanout;
pub mod lanes;
pub mod lfsr;
pub mod modules;
pub mod net;
