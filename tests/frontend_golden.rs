//! Golden pins of the per-design front end: what the parsers accept or
//! reject (and with which message), the list schedules they feed, and
//! the canonical forms that key the result cache.
//!
//! Pinned, for the seed-1 corpus (sizes 8–64, step 8) with its
//! `--permute 7` twins, the paper suite, `designs/*.dfg`, a few random
//! DFGs and two symmetric designs (one inside the canonizer's leaf
//! budget, one that exhausts it):
//!
//! - the list schedule under three module sets, ALUs included;
//! - an FNV digest of `canonize`'s encoding, permutations, bail-out
//!   flag and canonical graph;
//! - `parse_dfg` and `parse_unscheduled_dfg` on 2 048 seeded mutations
//!   of the shipped texts: `Ok` with a digest of the graph and schedule,
//!   or the error text.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test frontend_golden
//! ```

use std::fmt::Write as _;

use lobist::dfg::benchmarks;
use lobist::dfg::canon::{canonize, permute_dfg};
use lobist::dfg::corpus::{generate, KINDS};
use lobist::dfg::modules::ModuleSet;
use lobist::dfg::parse::{parse_dfg, parse_unscheduled_dfg, to_text, to_text_unscheduled};
use lobist::dfg::random::{random_scheduled_dfg, RandomDfgConfig};
use lobist::dfg::scheduling::list_schedule;
use lobist::dfg::{Dfg, DfgBuilder, OpKind, Operand, Schedule};

const MODULE_SETS: [&str; 3] = ["1+,1*,1-", "2+,2*,2-", "1*,2ALU"];
const MUTATIONS: usize = 2048;
const BLOCK: usize = 128;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u32s(&mut self, words: &[u32]) -> &mut Self {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
        self
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

/// Every public fact of a graph, in id order: names, producers,
/// consumer lists, output flags, op kinds and operands.
fn render_dfg(dfg: &Dfg) -> String {
    let mut out = String::new();
    for v in dfg.var_ids() {
        let info = dfg.var(v);
        let _ = writeln!(
            out,
            "var {} {:?} {:?} {}",
            info.name, info.producer, info.consumers, info.is_output
        );
    }
    for op in dfg.op_ids() {
        let info = dfg.op(op);
        let _ = writeln!(
            out,
            "op {} {} {} {} {}",
            info.name, info.kind, info.lhs, info.rhs, info.out
        );
    }
    out
}

fn digest_canon(dfg: &Dfg, schedule: &Schedule) -> String {
    let c = canonize(dfg, schedule);
    let mut h = Fnv::new();
    h.bytes(&c.encoding)
        .u32s(&c.op_perm)
        .u32s(&c.var_perm)
        .u32s(&c.var_inverse)
        .bytes(&[u8::from(c.bailed)])
        .bytes(render_dfg(&c.dfg).as_bytes())
        .u32s(c.schedule.as_slice());
    format!("{:016x}{}", h.0, if c.bailed { " bailed" } else { "" })
}

/// One design's golden line: its graph digest, then per module set the
/// list schedule's digest and the canonical digest under it, then (for
/// scheduled designs) the canonical digest under its own schedule.
fn design_line(name: &str, dfg: &Dfg, own: Option<&Schedule>) -> String {
    let mut line = format!(
        "{name} ops={} graph={:016x}",
        dfg.num_ops(),
        Fnv::new().bytes(render_dfg(dfg).as_bytes()).0
    );
    for set in MODULE_SETS {
        let modules: ModuleSet = set.parse().expect("a module set");
        match list_schedule(dfg, &modules) {
            Ok(s) => {
                let _ = write!(
                    line,
                    " [{set}] steps={} sched={:016x} canon={}",
                    s.max_step(),
                    Fnv::new().u32s(s.as_slice()).0,
                    digest_canon(dfg, &s)
                );
            }
            Err(e) => {
                let _ = write!(line, " [{set}] err={e}");
            }
        }
    }
    if let Some(schedule) = own {
        let _ = write!(line, " own={}", digest_canon(dfg, schedule));
    }
    line
}

/// `count` independent `a_i + b_i` operations in one step: refinement
/// cannot split them, so the canonizer individualizes; `count!` leaves.
fn symmetric(count: usize) -> (Dfg, Schedule) {
    let mut b = DfgBuilder::new();
    for i in 0..count {
        let x = b.input(&format!("a{i}"));
        let y = b.input(&format!("b{i}"));
        let s = b.op(OpKind::Add, &format!("s{i}"), Operand::Var(x), Operand::Var(y));
        b.mark_output(s);
    }
    let dfg = b.build().expect("a valid design");
    let schedule = Schedule::new(&dfg, vec![1; count]).expect("independent ops");
    (dfg, schedule)
}

fn shipped_designs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/designs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("designs/")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("a file name").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("a readable design");
            (name, text)
        })
        .collect()
}

fn design_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for size in (8..=64).step_by(8) {
        for kind in KINDS {
            let dfg = generate(kind, size, 1);
            let (twin, _, _) = permute_dfg(&dfg, 7);
            for (name, g) in [
                (format!("{}_n{size}_s1", kind.name()), dfg),
                (format!("{}_n{size}_s1_p7", kind.name()), twin),
            ] {
                let parsed = parse_unscheduled_dfg(&to_text_unscheduled(&g)).expect("corpus text parses");
                lines.push(design_line(&name, &parsed, None));
            }
        }
    }
    for bench in benchmarks::paper_suite() {
        let text = to_text(&bench.dfg, &bench.schedule);
        let (dfg, schedule) = parse_dfg(&text).expect("paper text parses");
        lines.push(design_line(&format!("paper/{}", bench.name), &dfg, Some(&schedule)));
    }
    for (name, text) in shipped_designs() {
        let dfg = parse_unscheduled_dfg(&text).expect("shipped designs parse");
        let own = parse_dfg(&text).ok().map(|(_, s)| s);
        lines.push(design_line(&format!("designs/{name}"), &dfg, own.as_ref()));
    }
    for seed in 0..6u64 {
        let cfg = RandomDfgConfig {
            num_ops: 12 + 6 * seed as usize,
            num_inputs: 3 + seed as usize,
            max_ops_per_step: 1 + seed as usize % 3,
            kinds: &[OpKind::Add, OpKind::Sub, OpKind::Mul],
        };
        let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
        lines.push(design_line(&format!("random/{seed}"), &dfg, Some(&schedule)));
    }
    for count in [4, 12] {
        let (dfg, schedule) = symmetric(count);
        lines.push(design_line(&format!("symmetric/{count}"), &dfg, Some(&schedule)));
    }
    lines
}

/// Fragments the mutator splices in: every statement shape, the
/// unscheduled parser's odd cases (`@` on `input` lines, a statement
/// starting with a non-ASCII letter, an `input`/`output` prefix glued
/// to an assignment), steps at the edges of the range, and stray
/// separators.
const FRAGMENTS: [&str; 40] = [
    "@", "@ 0", "@ 1", "@ 7", " @ 4294967295", "@ 4294967294", "#", "=", " ", "\n", "\r\n", "\r",
    "\t", "input ", "output ", "λ", "é", "_", "+", "-", "*", "/", "<", "&", "|", "^", "?", "9",
    "-3", "99999999999999999999", "x", "a", "s_op", "@@", "+5", "_op", "3 * ", " + 1", "#@", "@#",
];

const LINES: [&str; 24] = [
    "λ = a + b @ 3",
    "é1 = x + y @ 2",
    "inputx = a + b",
    "input z = q",
    "output y = z",
    "input a @ 2",
    "input q r @ 5 # c",
    "@ 3",
    "= a + b",
    "x = @",
    "x = a + b @",
    "x = a + b @ -1",
    "x = a + b @ 0",
    "input",
    "output",
    "_ = a * b",
    "  # just a comment @ 4",
    "zz = 3 * 4",
    "w = w + 1",
    "(x) = a + b @ 1",
    "v = a +",
    "v = a + b + c",
    "out_op = a - b",
    "output 1 @",
];

/// A seeded mutation of `base`: one to three edits, each a spliced
/// fragment, a deleted span, a duplicated, deleted or swapped line, a
/// replaced line, or a token copied from elsewhere in the text.
fn mutate(base: &str, rng: &mut u64) -> String {
    let mut text = base.to_owned();
    for _ in 0..1 + below(rng, 3) {
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
        let at = boundaries[below(rng, boundaries.len())];
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        match below(rng, 8) {
            0 => text.insert_str(at, FRAGMENTS[below(rng, FRAGMENTS.len())]),
            1 => {
                let end = boundaries.iter().copied().find(|&b| b > at).unwrap_or(at);
                let end = boundaries.iter().copied().filter(|&b| b >= end).nth(below(rng, 3)).unwrap_or(end);
                text.replace_range(at..end, "");
            }
            2 | 3 if !lines.is_empty() => {
                let i = below(rng, lines.len());
                match below(rng, 3) {
                    0 => {
                        let dup = lines[i].clone();
                        lines.insert(below(rng, lines.len() + 1), dup);
                    }
                    1 => {
                        lines.remove(i);
                    }
                    _ => {
                        let j = below(rng, lines.len());
                        lines.swap(i, j);
                    }
                }
                text = lines.join("\n");
                if below(rng, 2) == 0 {
                    text.push('\n');
                }
            }
            4 if !lines.is_empty() => {
                let i = below(rng, lines.len());
                lines[i] = LINES[below(rng, LINES.len())].to_owned();
                text = lines.join("\n");
                text.push('\n');
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

fn parse_outcome(text: &str) -> (bool, bool, String) {
    let scheduled = match parse_dfg(text) {
        Ok((dfg, schedule)) => {
            let h = Fnv::new()
                .bytes(render_dfg(&dfg).as_bytes())
                .u32s(schedule.as_slice())
                .0;
            format!("ok {h:016x}")
        }
        Err(e) => format!("err {e}"),
    };
    let unscheduled = match parse_unscheduled_dfg(text) {
        Ok(dfg) => format!("ok {:016x}", Fnv::new().bytes(render_dfg(&dfg).as_bytes()).0),
        Err(e) => format!("err {e}"),
    };
    let pair = format!("{scheduled}\n{unscheduled}\n");
    (scheduled.starts_with("ok"), unscheduled.starts_with("ok"), pair)
}

fn mutation_lines() -> Vec<String> {
    let mut bases: Vec<String> = shipped_designs().into_iter().map(|(_, t)| t).collect();
    for bench in benchmarks::paper_suite() {
        bases.push(to_text(&bench.dfg, &bench.schedule));
    }
    for kind in KINDS {
        let dfg = generate(kind, 8, 1);
        bases.push(to_text_unscheduled(&dfg));
    }
    let mut rng = 0x00f0_0d5e_ed00_0001u64;
    let mut lines = Vec::new();
    let (mut ok_scheduled, mut ok_unscheduled) = (0, 0);
    let mut block = Fnv::new();
    for i in 0..MUTATIONS {
        let base = &bases[below(&mut rng, bases.len())];
        let text = mutate(base, &mut rng);
        let (s, u, pair) = parse_outcome(&text);
        ok_scheduled += usize::from(s);
        ok_unscheduled += usize::from(u);
        block.bytes(text.as_bytes()).bytes(pair.as_bytes());
        if (i + 1) % BLOCK == 0 {
            lines.push(format!("mutations {}..{} {:016x}", i + 1 - BLOCK, i + 1, block.0));
            block = Fnv::new();
        }
    }
    lines.push(format!(
        "mutations ok: parse_dfg {ok_scheduled}, parse_unscheduled_dfg {ok_unscheduled} of {MUTATIONS}"
    ));
    lines
}

#[test]
fn frontend_golden() {
    let mut actual = design_lines();
    actual.extend(mutation_lines());
    let actual = actual.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/frontend/frontend.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().expect("a parent"))
            .expect("golden directory");
        std::fs::write(path, &actual).expect("golden written");
        return;
    }
    let expected = std::fs::read_to_string(path).expect("golden present (UPDATE_GOLDENS=1 writes it)");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden line count");
}
