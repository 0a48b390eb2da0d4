//! Source tripwires for `minuet-dyntx` (lint-style: reads the crate's own
//! non-test source). They keep "how a staged commit reaches its memnodes"
//! in one function — `txn::execute_staged` — so `commit`, `commit_many`
//! and the epoch service cannot drift apart again, batched reads in one
//! other — `DynTx::read_many` — and the panic audit's count from growing.
//! Each failure names the file and where to go.

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

/// The functions (`file::name`) whose bodies contain `needle`.
fn functions_naming(needle: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (file, code) in sources() {
        let mut current = String::from("<module>");
        for line in &code {
            let decl = line.trim_start().trim_start_matches("pub(crate) ");
            if let Some(rest) = decl.trim_start_matches("pub ").strip_prefix("fn ") {
                let name = rest.split(['(', '<']).next().unwrap_or(rest);
                current = format!("{file}::{name}");
            }
            if line.contains(needle) && !line.contains("struct ") && !found.contains(&current) {
                found.push(current.clone());
            }
        }
    }
    found
}

#[test]
fn one_executor() {
    // The membership gate, the replica fan-out, the batched execution and
    // the `Outcome -> CommitInfo` conversion: once each, all in one place.
    for needle in ["membership_guard(", "memnode_ids()", "CommitInfo {"] {
        assert_eq!(
            functions_naming(needle),
            ["txn.rs::execute_staged"],
            "`{needle}` belongs to `txn::execute_staged` alone: hand it a `StagedCommit` \
             (one member is a commit, many a batch, an epoch a batch with a wait) instead of \
             re-spelling a step of it."
        );
    }
}

#[test]
fn one_batched_read_one_batched_commit() {
    // A batch of minitransactions is either staged commits or the
    // members of one multi-object read.
    assert_eq!(
        functions_naming(".exec_many("),
        ["txn.rs::read_many", "txn.rs::execute_staged"],
        "`.exec_many(` belongs to `txn::execute_staged` (commits: hand it a `StagedCommit`) \
         and `DynTx::read_many` (reads and version pins: hand it `ReadItem`s) alone."
    );
}

#[test]
fn the_epoch_service_only_waits() {
    let (_, code) = sources()
        .into_iter()
        .find(|(file, _)| file == "epoch.rs")
        .unwrap();
    let named = count(&code, &["exec_many", "Minitransaction"]);
    assert_eq!(
        named, 0,
        "epoch.rs names `exec_many` / `Minitransaction` on {named} line(s). It keeps enrolment, \
         the full / expired decision and the hand-back of results; executing is \
         `txn::execute_staged`."
    );
}

#[test]
fn panic_sites_do_not_grow() {
    // `unwrap()` / `.expect(` / `panic!` / `unreachable!` lines per file
    // (7 before the one executor: `txn.rs` 3, `epoch.rs` 2, `object.rs`
    // 2). Lower a ceiling when you remove a site; to add one, first try a
    // typed `TxError`, and if it really is an invariant, comment it and
    // raise the ceiling in the same change.
    const CEILING: &[(&str, usize)] = &[("object.rs", 2)];
    for (file, code) in sources() {
        let sites = count(&code, &["unwrap()", ".expect(", "panic!", "unreachable!"]);
        let ceiling = CEILING
            .iter()
            .find(|(f, _)| *f == file)
            .map_or(0, |(_, n)| *n);
        assert!(
            sites <= ceiling,
            "{file}: {sites} unwrap/expect/panic!/unreachable! lines, ceiling {ceiling}. \
             Return a typed `TxError` instead (see the note in this test)."
        );
    }
}
