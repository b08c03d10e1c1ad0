//! Output digests: an FNV-1a-64 over normalized result lines, so a run's
//! outputs can be compared with a checked-in golden digest.
//!
//! Normalization removes what legitimately differs between checkouts and
//! runs and nothing else: the directory part of design paths (the CLI
//! echoes paths as labels) and the daemon's per-connection request `id`.
//! Column padding is collapsed because it depends on the label length.

/// FNV-1a-64 of `bytes`, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a-64 offset basis.
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// A running digest over lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_BASIS)
    }
}

impl Digest {
    /// Folds one (already normalized) line in, newline-terminated.
    pub fn line(&mut self, line: &str) {
        self.0 = fnv1a(fnv1a(self.0, line.as_bytes()), b"\n");
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Normalizes one line of `lobist batch` output: whitespace runs become
/// one space and every token that is a path keeps only its file name
/// (a trailing `:` — the faultsim line's label — is kept).
pub fn normalize_cli_line(line: &str) -> String {
    line.split_whitespace()
        .map(|tok| match tok.rfind('/') {
            Some(i) => &tok[i + 1..],
            None => tok,
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Removes the daemon's `"id":N,` field from an event line.
pub fn strip_id(line: &str) -> String {
    let Some(start) = line.find("\"id\":") else {
        return line.to_owned();
    };
    let rest = &line[start + 5..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let mut end = start + 5 + digits;
    let mut start = start;
    if line[end..].starts_with(',') {
        end += 1;
    } else if line[..start].ends_with(',') {
        start -= 1;
    }
    format!("{}{}", &line[..start], &line[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.line("x");
        a.line("y");
        let mut b = Digest::default();
        b.line("x");
        b.line("y");
        assert_eq!(a, b);
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
        let mut c = Digest::default();
        c.line("y");
        c.line("x");
        assert_ne!(a, c);
        // Line boundaries count: "xy" is not "x" + "y".
        let mut d = Digest::default();
        d.line("xy");
        assert_ne!(a, d);
    }

    #[test]
    fn cli_lines_lose_directories_and_padding() {
        let a = "target/e2e/a-1/in/fir_n8_c0.dfg      9     4   1192   56    4.70%";
        let b = "/elsewhere/in/fir_n8_c0.dfg 9 4 1192 56 4.70%";
        assert_eq!(normalize_cli_line(a), normalize_cli_line(b));
        assert_eq!(
            normalize_cli_line("faultsim x/y/fir.dfg: M1 (+) 10 faults"),
            "faultsim fir.dfg: M1 (+) 10 faults"
        );
        assert_eq!(normalize_cli_line("no paths here"), "no paths here");
    }

    #[test]
    fn ids_are_stripped() {
        assert_eq!(
            strip_id(r#"{"event":"result","id":17,"point":{"latency":3}}"#),
            r#"{"event":"result","point":{"latency":3}}"#
        );
        assert_eq!(
            strip_id(r#"{"event":"pong","id":4}"#),
            r#"{"event":"pong"}"#
        );
        assert_eq!(strip_id(r#"{"event":"x"}"#), r#"{"event":"x"}"#);
    }
}
