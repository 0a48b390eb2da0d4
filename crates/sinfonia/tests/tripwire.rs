//! Source tripwires for `minuet-sinfonia` (lint-style: reads the crate's
//! own non-test source). They keep "what a log record does to a memnode"
//! in one place — `state.rs` — and "where the log's bytes live" in another
//! — `wal.rs` — keep the crate's one `unsafe` in `crc.rs`, keep one memnode
//! handle that counts bytes from the frames it exchanged, and hold every
//! file to its panic-site ceiling. Each failure names the file and the
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
fn memnode_names_no_storage_medium() {
    // A memnode keeps one log, and whether its bytes are files or memory
    // is `wal.rs`'s business: no journal variant, no second copy, no file.
    const MEDIA: &[&str] = &[
        "Mirror", "Journal", "Store", "File", "Memory", "fs::", "Path", "dir",
    ];
    let (_, code) = sources()
        .into_iter()
        .find(|(file, _)| file == "memnode.rs")
        .unwrap();
    let named: Vec<&String> = code
        .iter()
        .filter(|l| MEDIA.iter().any(|m| l.contains(m)))
        .collect();
    assert!(
        named.is_empty(),
        "memnode.rs names a storage medium: {named:?}. Where the log's bytes live is \
         `Wal`'s business: take `self.hold()` and `log` the record, and recover through \
         `recovery::recover_node`."
    );
    // Every execution path logs through `Held::log`, never around it: an
    // append of its own would skip the check before it or the redo after.
    const PATHS: &[&str] = &[
        "exec_single",
        "try_write_fastpath",
        "prepare",
        "commit",
        "abort",
        "raw_write",
        "repl_apply",
    ];
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
        let around = count(&code[start..=start + len], &["wal.lock()", ".append("]);
        assert_eq!(
            around, 0,
            "memnode.rs: `{name}` takes the log's appender on {around} line(s). Take \
             `self.hold()` and `log` the record: check → append → redo."
        );
    }
    // `Held::log` is check → append → redo, with no branch on anything.
    let start = code
        .iter()
        .position(|l| l.contains("fn log("))
        .expect("memnode.rs: `Held::log` not found");
    let len = code[start..]
        .iter()
        .position(|l| l == "    }")
        .expect("memnode.rs: end of `Held::log` not found");
    let body = &code[start..start + len];
    assert_eq!(
        count(body, &["match "]),
        0,
        "`Held::log` branches: {body:#?}"
    );
}

#[test]
fn one_unsafe_in_crc() {
    // The crate's only `unsafe` is `crc32`'s call of the folding kernel,
    // behind the CPU-feature check that makes it sound. Anything else that
    // wants one is a safe API not yet found.
    let sites: Vec<(String, String)> = sources()
        .into_iter()
        .flat_map(|(file, code)| {
            code.into_iter()
                .filter(|l| l.contains("unsafe"))
                .map(move |l| (file.clone(), l))
        })
        .collect();
    assert!(
        sites.len() == 1 && sites[0].0 == "crc.rs",
        "`unsafe` must appear on exactly one non-test line, in crc.rs: {sites:?}"
    );
}

#[test]
fn one_memnode_handle() {
    // In process is the wire minus the socket: `RemoteNode` is the only
    // memnode handle, and the bytes a ledger counts are the frames it
    // exchanged — there is no second handle and no second way to price an
    // exchange.
    let sources = sources();
    // Lines that use `needle`, not the one that defines it.
    let sites = |needle: &str| -> Vec<(String, String)> {
        let definition = format!("fn {needle}");
        sources
            .iter()
            .flat_map(|(file, code)| {
                code.iter()
                    .filter(|l| l.contains(needle) && !l.contains(&definition))
                    .map(move |l| (file.clone(), l.trim().to_owned()))
            })
            .collect()
    };
    // The cluster stores the concrete `RemoteNode`; a `dyn` handle there
    // would be a second kind of memnode waiting to happen.
    let (_, cluster) = sources
        .iter()
        .find(|(file, _)| file == "cluster.rs")
        .expect("cluster.rs not found");
    let dyns: Vec<&String> = cluster.iter().filter(|l| l.contains("dyn ")).collect();
    assert!(
        dyns.is_empty(),
        "cluster.rs holds a `dyn` memnode handle: {dyns:?}. The memnode handle is the type \
         `RemoteNode`; an in-process memnode is a `RemoteNode::in_process`."
    );
    let booked = sites("record_wire_bytes(");
    assert!(
        !booked.is_empty() && booked.iter().all(|(file, _)| file == "client.rs"),
        "bytes are recorded only by the node handle in client.rs, from the frames it \
         exchanged: {booked:?}"
    );
}

#[test]
fn panic_sites_do_not_grow() {
    // `unwrap()` / `.expect(` / `panic!` / `unreachable!` lines, per file.
    // The memnode keeps five: two injected panics (`faults::Action::Panic`),
    // the in-bounds compare and read items asserted at entry, and a raw read
    // out of bounds; `wal.rs` and `checkpoint.rs` keep only their injected
    // panics, and the client its one (`wire.client.recv`: the send side's
    // is in `server::write_frame`, which both ends write through). To add
    // one, first try a typed error — `OutOfBounds` through `state::check`,
    // `io::Error` through `recover`, `None` from a `Cur` read — and if it
    // really is an invariant, comment it and raise the ceiling in the same
    // change.
    const CEILING: &[(&str, usize)] = &[
        ("addr.rs", 0),
        ("bytes.rs", 0),
        ("checkpoint.rs", 2),
        ("client.rs", 1),
        ("cluster.rs", 3),
        ("crc.rs", 0),
        ("deadline.rs", 0),
        ("error.rs", 0),
        ("exec.rs", 0),
        ("lib.rs", 0),
        ("lock.rs", 0),
        ("memnode.rs", 5),
        ("minitx.rs", 1),
        ("recovery.rs", 0),
        ("repl.rs", 1),
        ("server.rs", 3),
        ("space.rs", 0),
        ("state.rs", 0),
        ("transport.rs", 0),
        ("wal.rs", 3),
        ("wire.rs", 1),
    ];
    for (file, code) in sources() {
        let Some((_, ceiling)) = CEILING.iter().find(|(f, _)| *f == file) else {
            panic!("{file} has no panic-site ceiling: add it to `CEILING` at its count");
        };
        let sites = count(&code, &["unwrap()", ".expect(", "panic!", "unreachable!"]);
        assert!(
            sites <= *ceiling,
            "{file}: {sites} unwrap/expect/panic!/unreachable! lines, ceiling {ceiling}. \
             Return a typed error instead (see the note in this test)."
        );
    }
}
