//! Source tripwires for `minuet-obs` (lint-style: reads non-test source).
//! They keep an operation's per-thread state in one place — the one
//! `OpCtx` of `ctx.rs`, changed only through `OpScope` — and the trace and
//! registry decoders free of panic sites. Each failure names where to go instead.

use std::fs;
use std::path::{Path, PathBuf};

/// Code lines of one file: the source up to its `#[cfg(test)]`, comment
/// lines dropped.
fn code(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.trim_start().starts_with("//"))
        .map(str::to_owned)
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn count(code: &[String], needles: &[&str]) -> usize {
    code.iter()
        .filter(|l| needles.iter().any(|n| l.contains(n)))
        .count()
}

#[test]
fn one_thread_local() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let found: Vec<String> = files
        .iter()
        .filter(|f| count(&code(f), &["thread_local!"]) > 0)
        .map(|f| f.strip_prefix(&root).unwrap().display().to_string())
        .collect();
    assert_eq!(
        found,
        ["crates/obs/src/ctx.rs"],
        "`thread_local!` outside `obs/src/ctx.rs`. What an operation carries per thread — \
         deadline, network ledger, trace, jitter — is a field of its `OpCtx`, changed by \
         entering an `OpScope`; add the field there instead of a plane of its own."
    );
    let ctx = code(&root.join("crates/obs/src/ctx.rs"));
    assert_eq!(
        count(&ctx, &["static "]),
        1,
        "ctx.rs: one thread-local static, the `OpCtx` itself."
    );
}

#[test]
fn panic_sites_do_not_grow() {
    // `unwrap()` / `.expect(` / `panic!` / `unreachable!` lines per file:
    // `trace.rs` had 8 (seven fixed-width decodes, "active implies armed")
    // before `take` and the one context, `registry.rs` 3 before its
    // `Cur::array`. A decoder returns `None` on a short buffer; to add a
    // site anywhere, first try that.
    const CEILING: &[(&str, usize)] = &[("trace.rs", 0), ("ctx.rs", 0), ("registry.rs", 0)];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for (file, ceiling) in CEILING {
        let sites = count(
            &code(&dir.join(file)),
            &["unwrap()", ".expect(", "panic!", "unreachable!"],
        );
        assert!(
            sites <= *ceiling,
            "{file}: {sites} unwrap/expect/panic!/unreachable! lines, ceiling {ceiling}. \
             Return `None` (or a typed error) instead (see the note in this test)."
        );
    }
}
