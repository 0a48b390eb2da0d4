//! One naming scheme: every series a registry snapshot carries is a row of
//! the series table in ARCHITECTURE.md (the obs section). A workload that
//! reaches every exporting component runs on an in-process cluster; then
//! the client plane and each memnode's plane are snapshotted, and a name
//! the table does not list — or lists on the other plane, or as another
//! kind — fails here. To add a series, add its row first.

use minuet::obs::ObsSnapshot;
use minuet::{MinuetCluster, TreeConfig};

/// One row: the series name, or a family prefix (`wire.lat.` for
/// `wire.lat.*`); the plane that exports it; its kind.
struct Row {
    name: String,
    family: bool,
    plane: String,
    kind: String,
}

/// The rows of the table whose header is `| series | owner | kind |`.
fn table() -> Vec<Row> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md");
    let mut lines = doc
        .lines()
        .skip_while(|l| *l != "| series | owner | kind |");
    lines.nth(1).expect("the series table and its rule");
    lines
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            let [_, name, owner, kind, _] = cells[..] else {
                panic!("a series row has three cells: {l}");
            };
            let name = name.trim_matches('`');
            let (plane, _) = owner.split_once(':').expect("owner names its plane");
            Row {
                name: name.trim_end_matches('*').to_string(),
                family: name.ends_with(".*"),
                plane: plane.to_string(),
                kind: kind.to_string(),
            }
        })
        .collect()
}

fn row<'t>(table: &'t [Row], name: &str) -> Option<&'t Row> {
    table.iter().find(|r| {
        if r.family {
            name.starts_with(&r.name)
        } else {
            name == r.name
        }
    })
}

/// Every series of `snap` that the table does not list as `plane`'s, of
/// the kind it travels as.
fn unlisted(table: &[Row], snap: &ObsSnapshot, plane: &str) -> Vec<String> {
    let counters = snap.counters.iter().map(|(n, _)| (n, ["counter", "read"]));
    let hists = snap.hists.iter().map(|(n, _)| (n, ["histogram"; 2]));
    counters
        .chain(hists)
        .filter(|(name, kinds)| {
            !row(table, name).is_some_and(|r| r.plane == plane && kinds.contains(&r.kind.as_str()))
        })
        .map(|(name, kinds)| format!("{plane} {} `{name}`", kinds[0]))
        .collect()
}

#[test]
fn every_exported_series_is_in_the_table() {
    let table = table();
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.max_memnodes = 3;
    let mc = MinuetCluster::new(2, 1, cfg);
    let mut p = mc.proxy();
    let key = |i: u32| format!("k{i:05}").into_bytes();
    for i in 0..300 {
        p.put(0, key(i), vec![1]).unwrap();
    }
    for i in 0..300 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(vec![1]));
    }
    // A snapshot updates the tip on every memnode: a two-phase commit.
    let (sid, _) = mc.scs(0).create(&mut p, 0).unwrap();
    assert_eq!(p.scan_at(0, sid, b"", 10).unwrap().len(), 10);
    for node in mc.sinfonia.nodes_snapshot() {
        node.checkpoint().unwrap();
    }
    mc.add_memnode().unwrap();
    assert!(mc.rebalance().unwrap().moved > 0, "nothing migrated");

    let client = mc.sinfonia.obs().registry.snapshot();
    let nodes: Vec<ObsSnapshot> = mc
        .sinfonia
        .nodes_snapshot()
        .iter()
        .map(|n| n.obs_snapshot().unwrap())
        .collect();
    // The workload reached what it set out to.
    let total = |name| mc.sinfonia.memnode_total(name).unwrap();
    assert!(total("memnode.prepares") > 0 && total("wal.checkpoints") > 0);
    for name in ["scs.created", "migrate.completed", "cache.hits"] {
        assert!(client.counter(name).is_some_and(|n| n > 0), "{name}");
    }

    let mut bad = unlisted(&table, &client, "client");
    for snap in &nodes {
        bad.extend(unlisted(&table, snap, "memnode"));
    }
    bad.sort();
    bad.dedup();
    assert!(
        bad.is_empty(),
        "series missing from ARCHITECTURE.md's table: {bad:#?}"
    );
}

/// The names the benchmark's runner reads (`scorecard/README.md`, "What the
/// runner depends on") and those `minuet-stats` renders its `ops:` and
/// `wal:` lines from stay in the table.
#[test]
fn the_table_keeps_every_name_read_downstream() {
    let table = table();
    let read = [
        "net.round_trips",
        "net.bytes_out",
        "net.bytes_in",
        "cache.misses",
        "cache.evictions",
        "wire.breaker.open",
        "memnode.single_commits",
        "memnode.prepares",
        "memnode.commits",
        "memnode.aborts",
        "memnode.busy",
        "memnode.read_fastpath",
        "memnode.read_fastpath_misses",
        "memnode.write_fastpath",
        "memnode.write_fastpath_misses",
        "memnode.in_doubt",
        "wal.appends",
        "wal.bytes",
        "wal.fsyncs",
        "wal.retained_bytes",
        "wal.checkpoints",
        "wal.durable",
        "cache.frozen_hits",
        "cache.frozen_misses",
        "cache.installs",
        "memnode.handler_panics",
    ];
    for name in read {
        assert!(row(&table, name).is_some(), "`{name}` left the table");
    }
}
