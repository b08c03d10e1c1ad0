//! Test-session scheduling.
//!
//! Minimal-area BIST does not require all modules to be tested at once
//! (the paper, Section II). Two module tests must run in *different*
//! sessions when their resource needs clash:
//!
//! * the same register analyzes (SA) for both — a MISR compacts one
//!   response stream at a time;
//! * a register generates for one test and analyzes for the other and is
//!   not a CBILBO — only CBILBOs do both concurrently.
//!
//! Sharing a TPG between two tests is fine: pseudo-random patterns can be
//! broadcast. Sessions are assigned by greedy coloring of the conflict
//! graph in module order. That is never worse than one session per module
//! but not always optimal: Tseng1 under the traditional flow (7 modules)
//! gets 5 sessions, while the chromatic number of its conflict graph is 4.

use lobist_datapath::area::BistStyle;
use lobist_datapath::DataPath;
use lobist_graph::{coloring, UGraph};

use crate::embedding::Embedding;

/// Assigns a test session (0-based) to each module.
///
/// `styles` is the per-register style assignment; CBILBO registers relax
/// generate/analyze conflicts.
pub fn schedule(dp: &DataPath, embeddings: &[Embedding], styles: &[BistStyle]) -> Vec<u32> {
    let n = dp.num_modules();
    assert_eq!(embeddings.len(), n, "one embedding per module");
    let mut g = UGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if conflicts(&embeddings[i], &embeddings[j], styles) {
                g.add_edge(i, j);
            }
        }
    }
    let order: Vec<usize> = (0..n).collect();
    let coloring = coloring::greedy_in_order(&g, &order);
    (0..n).map(|m| coloring.color(m) as u32).collect()
}

fn conflicts(a: &Embedding, b: &Embedding, styles: &[BistStyle]) -> bool {
    // Shared SA register.
    if a.sa == b.sa {
        return true;
    }
    // Generate-for-one / analyze-for-other on a non-CBILBO register.
    let cross = |gen: &Embedding, ana: &Embedding| -> bool {
        gen.tpg_registers()
            .any(|t| t == ana.sa && !styles[t.index()].can_do_both_concurrently())
    };
    cross(a, b) || cross(b, a)
}

/// Number of distinct sessions in a schedule.
pub fn session_count(sessions: &[u32]) -> usize {
    sessions.iter().copied().max().map_or(0, |m| m as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_datapath::RegisterId;

    fn emb(l: u32, r: u32, sa: u32) -> Embedding {
        Embedding::with_registers(RegisterId(l), RegisterId(r), RegisterId(sa))
    }

    #[test]
    fn shared_sa_forces_two_sessions() {
        let styles = vec![BistStyle::Tpg, BistStyle::Tpg, BistStyle::Sa];
        let a = emb(0, 1, 2);
        let b = emb(1, 0, 2);
        assert!(conflicts(&a, &b, &styles));
    }

    #[test]
    fn shared_tpg_is_fine() {
        let styles = vec![BistStyle::Tpg, BistStyle::Tpg, BistStyle::Sa, BistStyle::Sa];
        let a = emb(0, 1, 2);
        let b = emb(0, 1, 3);
        assert!(!conflicts(&a, &b, &styles));
    }

    #[test]
    fn tpg_vs_sa_conflict_unless_cbilbo() {
        // Register 1 generates for `a` and analyzes for `b`.
        let a = emb(0, 1, 2);
        let b = emb(0, 3, 1);
        let plain = vec![
            BistStyle::Tpg,
            BistStyle::Bilbo,
            BistStyle::Sa,
            BistStyle::Tpg,
        ];
        assert!(conflicts(&a, &b, &plain));
        let concurrent = vec![
            BistStyle::Tpg,
            BistStyle::Cbilbo,
            BistStyle::Sa,
            BistStyle::Tpg,
        ];
        assert!(!conflicts(&a, &b, &concurrent));
    }

    #[test]
    fn session_count_counts_colors() {
        assert_eq!(session_count(&[]), 0);
        assert_eq!(session_count(&[0, 0, 0]), 1);
        assert_eq!(session_count(&[0, 1, 0, 2]), 3);
    }
}
