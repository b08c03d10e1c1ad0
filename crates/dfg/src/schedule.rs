//! Control-step schedules.

use std::fmt;

use crate::dfg::Dfg;
use crate::types::OpId;

/// A schedule `S : V → {1, 2, ...}` mapping each operation to the control
/// step in which it executes. Steps start at 1, matching the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<u32>,
}

/// The largest control step a schedule may use: primary outputs stay live
/// until one step past the last, and that step must still be a `u32`.
pub const MAX_STEP: u32 = u32::MAX - 1;

/// Errors detected when validating a schedule against a DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule does not cover every operation exactly once.
    WrongLength {
        /// Entries supplied.
        got: usize,
        /// Operations in the DFG.
        expected: usize,
    },
    /// Control steps must be ≥ 1.
    ZeroStep {
        /// The offending operation.
        op: OpId,
    },
    /// Control steps must be at most [`MAX_STEP`].
    StepTooLarge {
        /// The offending operation.
        op: OpId,
    },
    /// A data dependency is violated: the consumer runs no later than the
    /// producer.
    DependencyViolation {
        /// The producing operation.
        producer: OpId,
        /// The consuming operation.
        consumer: OpId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WrongLength { got, expected } => {
                write!(f, "schedule covers {got} operations but the DFG has {expected}")
            }
            ScheduleError::ZeroStep { op } => write!(f, "operation {op} scheduled at step 0"),
            ScheduleError::StepTooLarge { op } => write!(
                f,
                "operation {op} scheduled after step {MAX_STEP}, the largest supported"
            ),
            ScheduleError::DependencyViolation { producer, consumer } => write!(
                f,
                "operation {consumer} consumes the result of {producer} in the same or an earlier step"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Wraps and validates a step vector indexed by operation id.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the vector has the wrong length, any
    /// step is 0 or above [`MAX_STEP`], or a consumer is scheduled at or
    /// before its producer.
    pub fn new(dfg: &Dfg, steps: Vec<u32>) -> Result<Self, ScheduleError> {
        if steps.len() != dfg.num_ops() {
            return Err(ScheduleError::WrongLength {
                got: steps.len(),
                expected: dfg.num_ops(),
            });
        }
        for op in dfg.op_ids() {
            match steps[op.index()] {
                0 => return Err(ScheduleError::ZeroStep { op }),
                step if step > MAX_STEP => return Err(ScheduleError::StepTooLarge { op }),
                _ => {}
            }
        }
        for op in dfg.op_ids() {
            for v in dfg.op(op).input_vars() {
                if let Some(p) = dfg.var(v).producer {
                    if steps[p.index()] >= steps[op.index()] {
                        return Err(ScheduleError::DependencyViolation {
                            producer: p,
                            consumer: op,
                        });
                    }
                }
            }
        }
        Ok(Self { steps })
    }

    /// The control step of operation `op`.
    pub fn step(&self, op: OpId) -> u32 {
        self.steps[op.index()]
    }

    /// The largest control step used (0 for an empty schedule).
    pub fn max_step(&self) -> u32 {
        self.steps.iter().copied().max().unwrap_or(0)
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no operations are scheduled.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Operations scheduled in control step `s`, in id order.
    pub fn ops_in_step(&self, s: u32) -> Vec<OpId> {
        self.steps
            .iter()
            .enumerate()
            .filter(|&(_, &st)| st == s)
            .map(|(i, _)| OpId(i as u32))
            .collect()
    }

    /// Every operation, by control step and in id order within a step:
    /// `chunk_by` on the step walks the occupied steps only, so the cost
    /// follows the op count, not the largest step number.
    pub fn ops_by_step(&self) -> Vec<OpId> {
        let mut ops: Vec<OpId> = (0..self.steps.len() as u32).map(OpId).collect();
        ops.sort_by_key(|&op| self.step(op));
        ops
    }

    /// The underlying step vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.steps
    }

    /// Rebuilds a schedule from a step vector previously obtained via
    /// [`Schedule::as_slice`], skipping validation.
    ///
    /// Intended for trusted round-trips — deserializing a schedule that
    /// was serialized from a validated one (the persistent result store
    /// does this). Feeding it a vector that never passed
    /// [`Schedule::new`] silently breaks the schedule invariants.
    pub fn from_trusted_steps(steps: Vec<u32>) -> Self {
        Self { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DfgBuilder;
    use crate::types::OpKind;

    fn chain() -> Dfg {
        let mut b = DfgBuilder::new();
        let a = b.input("a");
        let t1 = b.op(OpKind::Add, "t1", a.into(), 1i64.into());
        let t2 = b.op(OpKind::Mul, "t2", t1.into(), 2i64.into());
        b.mark_output(t2);
        b.build().unwrap()
    }

    #[test]
    fn valid_schedule_accepted() {
        let g = chain();
        let s = Schedule::new(&g, vec![1, 2]).unwrap();
        assert_eq!(s.max_step(), 2);
        assert_eq!(s.step(OpId(0)), 1);
        assert_eq!(s.ops_in_step(2), vec![OpId(1)]);
    }

    #[test]
    fn wrong_length_rejected() {
        let g = chain();
        assert!(matches!(
            Schedule::new(&g, vec![1]),
            Err(ScheduleError::WrongLength { got: 1, expected: 2 })
        ));
    }

    #[test]
    fn zero_step_rejected() {
        let g = chain();
        assert!(matches!(
            Schedule::new(&g, vec![0, 1]),
            Err(ScheduleError::ZeroStep { op: OpId(0) })
        ));
    }

    #[test]
    fn step_above_max_rejected() {
        let g = chain();
        assert!(Schedule::new(&g, vec![MAX_STEP - 1, MAX_STEP]).is_ok());
        let err = Schedule::new(&g, vec![1, u32::MAX]).unwrap_err();
        assert_eq!(err, ScheduleError::StepTooLarge { op: OpId(1) });
        assert!(err.to_string().contains("largest supported"), "{err}");
    }

    #[test]
    fn same_step_dependency_rejected() {
        let g = chain();
        let err = Schedule::new(&g, vec![1, 1]).unwrap_err();
        assert!(matches!(err, ScheduleError::DependencyViolation { .. }));
        assert!(err.to_string().contains("same or an earlier step"));
    }

    #[test]
    fn reversed_dependency_rejected() {
        let g = chain();
        assert!(Schedule::new(&g, vec![2, 1]).is_err());
    }

    #[test]
    fn empty_schedule() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        b.mark_output(x);
        let g = b.build().unwrap();
        let s = Schedule::new(&g, vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.max_step(), 0);
    }
}
