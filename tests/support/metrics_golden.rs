//! Golden snapshots of the `--metrics` JSON, shared by the root, engine
//! and daemon golden tests (each includes this file with `#[path]`).
//!
//! A golden is the rendered JSON with its timing-dependent values
//! replaced by `_`; every other value stays literal, so the golden pins
//! the key paths, the key order and the deterministic counts. Masked
//! are the values of keys ending in `_micros` or `_micros_log2`, of
//! `utilization` and `coalesced`, every histogram inside a
//! `*_micros_log2_histograms` object (its keys stay), and the daemon's
//! `server.completed`, which a handler counts only after its terminal
//! event is on the wire (so a client's next request may or may not see
//! it).
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --workspace metrics_golden
//! ```

/// `json` with its timing-dependent values replaced by `_`.
pub fn mask(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let rest = value(json, "", "", &mut out);
    assert!(rest.is_empty(), "trailing text after the JSON value: {rest}");
    out
}

fn timing(key: &str, parent: &str) -> bool {
    key.ends_with("_micros")
        || key.ends_with("_micros_log2")
        || key == "utilization"
        || key == "coalesced"
        || parent.ends_with("_micros_log2_histograms")
        || (parent == "server" && key == "completed")
}

/// Copies (or masks) the value at the start of `s` into `out` and
/// returns the text after it.
fn value<'a>(s: &'a str, key: &str, parent: &str, out: &mut String) -> &'a str {
    if let Some(mut rest) = s.strip_prefix('{') {
        out.push('{');
        while let Some(after) = rest.strip_prefix('"') {
            let end = after.find('"').expect("unterminated key");
            let k = &after[..end];
            let after_key = after[end + 1..].strip_prefix(':').expect("key without a value");
            out.push_str(&format!("\"{k}\":"));
            rest = value(after_key, k, key, out);
            if let Some(after_comma) = rest.strip_prefix(',') {
                out.push(',');
                rest = after_comma;
            }
        }
        out.push('}');
        return rest.strip_prefix('}').expect("unterminated object");
    }
    let end = if s.starts_with('[') {
        s.find(']').expect("unterminated array") + 1
    } else if let Some(after) = s.strip_prefix('"') {
        after.find('"').expect("unterminated string") + 2
    } else {
        s.find([',', '}', ']']).unwrap_or(s.len())
    };
    out.push_str(if timing(key, parent) { "_" } else { &s[..end] });
    &s[end..]
}

/// Compares `rendered` (masked) with the golden at `path`, or rewrites
/// the golden under `UPDATE_GOLDENS=1`.
pub fn check(path: &str, rendered: &str) {
    let masked = format!("{}\n", mask(rendered));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, &masked).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDENS=1 to create it)"));
    assert_eq!(masked, golden, "{path}: metrics JSON diverged from its golden");
}
