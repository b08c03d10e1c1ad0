//! Sharing degrees: the paper's Definitions 3–5.
//!
//! For a module assignment, `I_M` and `O_M` are the sets of operand and
//! result variables of the operations mapped onto module `M`. The
//! **sharing degree** of a variable `v` is
//!
//! ```text
//! SD(v) = Σⱼ (Xⱼᵛ + Yⱼᵛ)     with Xⱼᵛ = [v ∈ I_{Mⱼ}],  Yⱼᵛ = [v ∈ O_{Mⱼ}]
//! ```
//!
//! and the sharing degree of a register is the same sum over the OR of
//! its variables' memberships. `SD(R)` counts the distinct modules for
//! which `R` can head a TPG I-path plus those for which it can tail an SA
//! I-path — the quantity the testable allocator maximizes.

use lobist_datapath::ModuleAssignment;
use lobist_dfg::{Dfg, VarId};

/// Precomputed sharing-degree context for one module assignment.
///
/// Memberships are stored as per-variable bitmasks over modules, so set
/// unions and sharing-degree increments are O(words).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingContext {
    num_modules: usize,
    /// `x_mask[v]` bit `j` set iff `v ∈ I_{Mj}`.
    x_mask: Vec<u64>,
    /// `y_mask[v]` bit `j` set iff `v ∈ O_{Mj}`.
    y_mask: Vec<u64>,
}

/// The membership masks of a register (the OR of its variables).
///
/// Obtain with [`SharingContext::empty_register`] and grow with
/// [`SharingContext::add_to_register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegisterMask {
    x: u64,
    y: u64,
}

impl RegisterMask {
    /// `true` if any variable of the register belongs to module `j`'s
    /// input or output variable set — i.e. the register's intersections
    /// with `I_{Mj}` / `O_{Mj}` are non-empty.
    pub fn touches(&self, j: usize) -> bool {
        (self.x | self.y) >> j & 1 == 1
    }

    /// `true` if some variable of the register is an input variable of
    /// module `j`.
    pub fn holds_input_of(&self, j: usize) -> bool {
        self.x >> j & 1 == 1
    }

    /// `true` if some variable of the register is an output variable of
    /// module `j`.
    pub fn holds_output_of(&self, j: usize) -> bool {
        self.y >> j & 1 == 1
    }
}

impl SharingContext {
    /// Builds the context for `dfg` under `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has more than 64 modules (data paths in
    /// this domain have a handful).
    pub fn new(dfg: &Dfg, assignment: &ModuleAssignment) -> Self {
        let m = assignment.num_modules();
        assert!(m <= 64, "more than 64 modules not supported");
        let mut x_mask = vec![0u64; dfg.num_vars()];
        let mut y_mask = vec![0u64; dfg.num_vars()];
        for mid in assignment.module_ids() {
            let bit = 1u64 << mid.index();
            for v in assignment.input_variable_set(dfg, mid) {
                x_mask[v.index()] |= bit;
            }
            for v in assignment.output_variable_set(dfg, mid) {
                y_mask[v.index()] |= bit;
            }
        }
        Self {
            num_modules: m,
            x_mask,
            y_mask,
        }
    }

    /// Number of modules in the assignment.
    pub fn num_modules(&self) -> usize {
        self.num_modules
    }

    /// `true` if `v` is an input variable of module `j`.
    pub fn is_input_of(&self, v: VarId, j: usize) -> bool {
        self.x_mask[v.index()] >> j & 1 == 1
    }

    /// `true` if `v` is an output variable of module `j`.
    pub fn is_output_of(&self, v: VarId, j: usize) -> bool {
        self.y_mask[v.index()] >> j & 1 == 1
    }

    /// The sharing degree of a variable (Definition 4).
    pub fn sd_var(&self, v: VarId) -> usize {
        (self.x_mask[v.index()].count_ones() + self.y_mask[v.index()].count_ones()) as usize
    }

    /// An empty register mask.
    pub fn empty_register(&self) -> RegisterMask {
        RegisterMask::default()
    }

    /// The mask of a register holding exactly `vars`.
    pub fn register_mask<I: IntoIterator<Item = VarId>>(&self, vars: I) -> RegisterMask {
        let mut mask = RegisterMask::default();
        for v in vars {
            self.add_to_register(&mut mask, v);
        }
        mask
    }

    /// Adds variable `v` to a register mask in place.
    pub fn add_to_register(&self, mask: &mut RegisterMask, v: VarId) {
        mask.x |= self.x_mask[v.index()];
        mask.y |= self.y_mask[v.index()];
    }

    /// The sharing degree of a register (Definition 5).
    pub fn sd_register(&self, mask: RegisterMask) -> usize {
        (mask.x.count_ones() + mask.y.count_ones()) as usize
    }

    /// The sharing degree the register would have after adding `v`
    /// (the paper's `SD(R, v)`).
    pub fn sd_register_with(&self, mask: RegisterMask, v: VarId) -> usize {
        let x = mask.x | self.x_mask[v.index()];
        let y = mask.y | self.y_mask[v.index()];
        (x.count_ones() + y.count_ones()) as usize
    }

    /// The sharing-degree increment `ΔSDᵛ(R) = SD(R, v) − SD(R)`.
    pub fn delta_sd(&self, mask: RegisterMask, v: VarId) -> usize {
        self.sd_register_with(mask, v) - self.sd_register(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;

    fn ex1_ctx() -> (lobist_dfg::Dfg, SharingContext) {
        let bench = benchmarks::ex1();
        let ma = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        let ctx = SharingContext::new(&bench.dfg, &ma);
        (bench.dfg, ctx)
    }

    #[test]
    fn ex1_variable_sharing_degrees() {
        let (dfg, ctx) = ex1_ctx();
        let sd = |n: &str| ctx.sd_var(dfg.var_by_name(n).unwrap());
        // a ∈ I_M1 only; b ∈ I_M1 and O_M2; c ∈ I_M1 and I_M2;
        // d ∈ I_M1 and O_M1; e ∈ I_M2; f ∈ O_M1; g ∈ I_M2; h ∈ O_M2.
        assert_eq!(sd("a"), 1);
        assert_eq!(sd("b"), 2);
        assert_eq!(sd("c"), 2);
        assert_eq!(sd("d"), 2);
        assert_eq!(sd("e"), 1);
        assert_eq!(sd("f"), 1);
        assert_eq!(sd("g"), 1);
        assert_eq!(sd("h"), 1);
    }

    #[test]
    fn membership_queries() {
        let (dfg, ctx) = ex1_ctx();
        let v = |n: &str| dfg.var_by_name(n).unwrap();
        assert!(ctx.is_input_of(v("a"), 0));
        assert!(!ctx.is_input_of(v("a"), 1));
        assert!(ctx.is_output_of(v("d"), 0));
        assert!(ctx.is_output_of(v("h"), 1));
        assert!(!ctx.is_output_of(v("e"), 0));
        assert_eq!(ctx.num_modules(), 2);
    }

    #[test]
    fn register_sd_is_union_not_sum() {
        let (dfg, ctx) = ex1_ctx();
        let v = |n: &str| dfg.var_by_name(n).unwrap();
        // {c} has SD 2 (I_M1, I_M2); adding a (I_M1) adds nothing.
        let mut mask = ctx.register_mask([v("c")]);
        assert_eq!(ctx.sd_register(mask), 2);
        assert_eq!(ctx.delta_sd(mask, v("a")), 0);
        ctx.add_to_register(&mut mask, v("a"));
        assert_eq!(ctx.sd_register(mask), 2);
        // Adding f (O_M1) raises it to 3.
        assert_eq!(ctx.delta_sd(mask, v("f")), 1);
    }

    #[test]
    fn paper_trace_deltas() {
        // The paper's worked example: ΔSD of f over {c} exceeds its ΔSD
        // over {d}, so f joins c's register.
        let (dfg, ctx) = ex1_ctx();
        let v = |n: &str| dfg.var_by_name(n).unwrap();
        let rc = ctx.register_mask([v("c")]);
        let rd = ctx.register_mask([v("d")]);
        assert!(ctx.delta_sd(rc, v("f")) > ctx.delta_sd(rd, v("f")));
        // g then prefers {d} over {c, f}.
        let rcf = ctx.register_mask([v("c"), v("f")]);
        assert!(ctx.delta_sd(rd, v("g")) > ctx.delta_sd(rcf, v("g")));
    }

    #[test]
    fn mask_holds_exactly_its_variables_memberships() {
        // The allocator's Case 1/2 tests read the mask in place of a scan
        // of the register's variables.
        let (dfg, ctx) = ex1_ctx();
        let vars: Vec<VarId> = dfg.var_ids().collect();
        for &u in &vars {
            for &w in &vars {
                let m = ctx.register_mask([u, w]);
                for j in 0..ctx.num_modules() {
                    let held = [u, w];
                    assert_eq!(
                        m.holds_input_of(j),
                        held.iter().any(|&v| ctx.is_input_of(v, j))
                    );
                    assert_eq!(
                        m.holds_output_of(j),
                        held.iter().any(|&v| ctx.is_output_of(v, j))
                    );
                }
            }
        }
    }

    #[test]
    fn sd_register_with_matches_incremental() {
        let (dfg, ctx) = ex1_ctx();
        let vars: Vec<VarId> = dfg.var_ids().collect();
        for &u in &vars {
            for &w in &vars {
                let m = ctx.register_mask([u]);
                let mut m2 = m;
                ctx.add_to_register(&mut m2, w);
                assert_eq!(ctx.sd_register_with(m, w), ctx.sd_register(m2));
            }
        }
    }
}
