//! Source tripwires for `minuet-core` (lint-style: reads the crate's own
//! non-test source). They keep the retry contract in one place — one
//! optimistic loop, one error conversion — and the panic audit's count
//! from growing. Each failure names the file and the helper to use.

use std::fs;
use std::path::Path;

/// `(file name, code lines)` of every module: the source up to its
/// `#[cfg(test)]`, comment lines dropped.
fn sources() -> Vec<(String, Vec<String>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let text = fs::read_to_string(&path).unwrap();
        let code = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .filter(|l| !l.trim_start().starts_with("//"))
            .map(str::to_owned)
            .collect();
        out.push((
            path.file_name().unwrap().to_string_lossy().into_owned(),
            code,
        ));
    }
    out.sort();
    out
}

fn count(code: &[String], needles: &[&str]) -> usize {
    code.iter()
        .filter(|l| needles.iter().any(|n| l.contains(n)))
        .count()
}

/// Whether `line` names the identifier `word` (not merely contains it).
fn names(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

#[test]
fn dyntx_errors_convert_in_one_place() {
    for (file, code) in sources() {
        let arms = count(&code, &["Err(TxError::"]);
        assert_eq!(
            arms, 0,
            "{file}: {arms} hand-written `Err(TxError::…)` arm(s). Return `Attempt<T>` and use \
             `?`: `impl From<TxError> for TxnError` in error.rs is the one conversion."
        );
    }
}

#[test]
fn one_optimistic_loop() {
    for (file, code) in sources() {
        // The runner, plus the batch planner's routing transaction
        // (`batch_attempt`: never committed; each group stages in a fork of
        // it and goes through `stage_commit` / `commit_many`).
        let (begins, commits) = match file.as_str() {
            "retry.rs" => (1, 1),
            "batch.rs" => (1, 0),
            _ => (0, 0),
        };
        let b = count(&code, &["DynTx::new(", "DynTx::with_piggyback("]);
        let c = count(&code, &[".commit()"]);
        assert!(
            b <= begins && c <= commits,
            "{file}: begins {b} (allowed {begins}) / commits {c} (allowed {commits}) dynamic \
             transactions by hand. Hand the body to `retry::run_tx` (or `Proxy::run_tx` / \
             `Proxy::run_op`) as a closure: the runner owns budget, deadline, backoff and \
             invalidation."
        );
    }
}

#[test]
fn tree_nodes_are_read_through_dyntx() {
    // The descent, the scan step and the batch read nodes through
    // `DynTx` (`read`, `dirty_read`, `read_many`), whose observations
    // validate or promote; a hand-built minitransaction bypasses both.
    for file in ["batch.rs", "scan.rs", "traverse.rs", "ops.rs", "proxy.rs"] {
        let (_, code) = sources().into_iter().find(|(f, _)| f == file).unwrap();
        let named = (code.iter())
            .filter(|l| {
                ["Minitransaction", "exec_many", "Outcome"]
                    .iter()
                    .any(|w| names(l, w))
            })
            .count();
        assert_eq!(
            named, 0,
            "{file} names `Minitransaction` / `exec_many` / `Outcome` on {named} line(s). Read \
             tree nodes through `DynTx` (`DynTx::read_many` for many at once)."
        );
    }
}

#[test]
fn panic_sites_do_not_grow() {
    // `unwrap()` / `.expect(` / `panic!` / `unreachable!` lines per file
    // (21 in all; 26 before node reads went through `Page`, the node
    // cursor read fixed-width fields without `unwrap` and `clone.rs`
    // retried a node that already names a copy; 35 before the catalog's
    // decoders read bounds-checked fields, 68 before the one optimistic
    // loop, 55 before `LeafOp`, 47 before the sibling-reading scan, 43
    // before the frozen-leaf cache, 40 before commits installed what
    // they wrote, 37 before bulk loads built levels from separators). Lower a
    // ceiling when you remove a site; to add one, first try a typed
    // `Error` (`Error::CorruptMeta`, `Error::Internal`, the `From` impls
    // in error.rs), and if it really is an invariant, comment it and
    // raise the ceiling in the same change.
    const CEILING: &[(&str, usize)] = &[
        ("alloc.rs", 6),
        ("migrate.rs", 3),
        ("node.rs", 4),
        ("scs.rs", 1),
        ("tree.rs", 7),
    ];
    for (file, code) in sources() {
        let sites = count(&code, &["unwrap()", ".expect(", "panic!", "unreachable!"]);
        let ceiling = CEILING
            .iter()
            .find(|(f, _)| *f == file)
            .map_or(0, |(_, n)| *n);
        assert!(
            sites <= ceiling,
            "{file}: {sites} unwrap/expect/panic!/unreachable! lines, ceiling {ceiling}. \
             Return a typed `Error` instead (see the note in this test)."
        );
    }
}

/// The code lines of `file`.
fn source(file: &str) -> Vec<String> {
    let found = sources().into_iter().find(|(f, _)| f == file);
    found.map(|(_, code)| code).unwrap_or_default()
}

#[test]
fn gc_decides_liveness_from_the_header() {
    // A full decode materialises every entry of a slot the sweep only
    // needs the magic, creation snapshot and descendant set of.
    let decodes = count(&source("gc.rs"), &["Node::decode"]);
    assert_eq!(
        decodes, 0,
        "gc.rs calls `Node::decode` on {decodes} line(s). Decide liveness from \
         `NodeHeader::decode`: node, free-segment and reservation magics differ, and freed \
         slots are tombstoned."
    );
}

#[test]
fn reads_take_nodes_as_pages() {
    // A descent, a scan, the node cache and the slot census read a node
    // where it lies; a full decode would allocate twice per entry.
    for file in ["traverse.rs", "scan.rs", "cache.rs", "stats.rs"] {
        let decodes = count(&source(file), &["Node::decode"]);
        assert_eq!(
            decodes, 0,
            "{file} calls `Node::decode` on {decodes} line(s). Read the image in place with \
             `Page::new` and its accessors; a write decodes its own copy with `Page::to_node`."
        );
    }
}

#[test]
fn scan_slots_reads_runs_of_slots() {
    let code = source("stats.rs");
    let start = code.iter().position(|l| l.contains("fn scan_slots("));
    let start = start.expect("stats.rs defines `scan_slots`");
    let len = code[start..].iter().position(|l| l == "}");
    let len = len.expect("`scan_slots` ends");
    let per_slot = count(&code[start..start + len], &["raw_obj("]);
    assert_eq!(
        per_slot, 0,
        "`scan_slots` calls `raw_obj` on {per_slot} line(s): one raw read per slot. Read a run \
         of slots with one `raw_read` and slice it (`decode_obj_shared`)."
    );
}
