//! Source tripwires for `minuet-sinfonia` (lint-style: reads the crate's
//! own non-test source). They keep "what a log record does to a memnode"
//! in one place — `state.rs` — and the durable / in-memory fork behind the
//! journal seam of `memnode.rs`. Each failure names the file and the
//! function to go through instead.

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

#[test]
fn one_redo() {
    const MUTATIONS: &[&str] = &[
        "staged.insert(",
        "staged.remove(",
        "staged.clear(",
        "staged.retain(",
        "decided.insert(",
        "decided.remove(",
        "decided.clear(",
        "decided.retain(",
    ];
    for (file, code) in sources() {
        // `state.rs` gives records their effect; `checkpoint.rs` builds a
        // state from an image (one page write, one insert per set).
        let (writes, mutations) = match file.as_str() {
            "state.rs" => (1, 4),
            "checkpoint.rs" => (1, 2),
            _ => (0, 0),
        };
        let w = count(&code, &["space.write("]);
        let m = count(&code, MUTATIONS);
        assert!(
            w <= writes && m <= mutations,
            "{file}: {w} `PagedSpace::write` call(s) (allowed {writes}), {m} staged / decided \
             mutation(s) (allowed {mutations}). State changes only through `NodeState::redo` in \
             state.rs: build the `Record` and hand it to `Held::log` (live node) or `redo` \
             (replay)."
        );
    }
}

#[test]
fn execution_paths_do_not_fork_on_the_journal() {
    const PATHS: &[&str] = &[
        "exec_single",
        "try_write_fastpath",
        "prepare",
        "commit",
        "abort",
        "raw_write",
        "repl_apply",
    ];
    const FORKS: &[&str] = &[
        "self.dur",
        "self.backup",
        "wal.lock()",
        "Journal::",
        ".append(",
    ];
    let (_, code) = sources()
        .into_iter()
        .find(|(file, _)| file == "memnode.rs")
        .unwrap();
    let is_fn = |l: &String| l.starts_with("    fn ") || l.starts_with("    pub fn ");
    for name in PATHS {
        let start = code
            .iter()
            .position(|l| is_fn(l) && l.contains(&format!("fn {name}(")))
            .unwrap_or_else(|| panic!("memnode.rs: execution path `{name}` not found"));
        let len = code[start + 1..]
            .iter()
            .position(is_fn)
            .unwrap_or(code.len() - start - 1);
        let forks = count(&code[start..=start + len], FORKS);
        assert_eq!(
            forks, 0,
            "memnode.rs: `{name}` names the WAL or the mirror on {forks} line(s). Where the \
             second copy lives is `Journal`'s business: take `self.hold()` and `log` the record."
        );
    }
}

#[test]
fn panic_sites_do_not_grow() {
    // `unwrap()` / `.expect(` / `panic!` / `unreachable!` lines of the two
    // files that execute and replay records: 16 before the one `redo`,
    // 7 after (the durability directory, twice; in-bounds compare and read
    // items, asserted at entry; a raw read out of bounds; two injected
    // panics). The wire client keeps its two injected panics
    // (`faults::Action::Panic`); its retry loop returns on its last
    // attempt. To add one, first try a typed error — `OutOfBounds` through
    // `state::check`, `io::Error` through `recover` — and if it really is
    // an invariant, comment it and raise the ceiling in the same change.
    const CEILING: &[(&str, usize)] = &[
        ("client.rs", 2),
        ("memnode.rs", 7),
        ("recovery.rs", 0),
        ("state.rs", 0),
    ];
    for (file, code) in sources() {
        let Some((_, ceiling)) = CEILING.iter().find(|(f, _)| *f == file) else {
            continue;
        };
        let sites = count(&code, &["unwrap()", ".expect(", "panic!", "unreachable!"]);
        assert!(
            sites <= *ceiling,
            "{file}: {sites} unwrap/expect/panic!/unreachable! lines, ceiling {ceiling}. \
             Return a typed error instead (see the note in this test)."
        );
    }
}
