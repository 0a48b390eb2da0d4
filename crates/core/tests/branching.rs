//! Tests for writable clones / branching versions (§5).

use minuet_core::{Error, MinuetCluster, Proxy, SnapshotId, TreeConfig, VersionMode};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn key(i: u64) -> Vec<u8> {
    format!("k{:08}", i).into_bytes()
}

fn val(tag: &str, i: u64) -> Vec<u8> {
    format!("{tag}-{i}").into_bytes()
}

fn branching_cfg(beta: usize) -> TreeConfig {
    TreeConfig {
        version_mode: VersionMode::Branching,
        beta,
        ..TreeConfig::small_nodes(4)
    }
}

#[test]
fn branching_disabled_in_linear_mode() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    let mut p = mc.proxy();
    let snap = p.create_snapshot(0).unwrap();
    assert!(matches!(
        p.create_branch(0, snap.frozen_sid),
        Err(Error::BranchingDisabled)
    ));
}

#[test]
fn branch_diverges_from_parent() {
    let mc = MinuetCluster::new(3, 1, branching_cfg(2));
    let mut p = mc.proxy();
    for i in 0..50 {
        p.put(0, key(i), val("base", i)).unwrap();
    }
    // Freeze the base; mainline moves on.
    let snap = p.create_snapshot(0).unwrap();
    let base = snap.frozen_sid;

    // Branch from the frozen base.
    let branch = p.create_branch(0, base).unwrap();

    // Diverge: mainline rewrites evens, branch rewrites odds.
    for i in (0..50).step_by(2) {
        p.put(0, key(i), val("main", i)).unwrap();
    }
    for i in (1..50).step_by(2) {
        p.put_branch(0, branch, key(i), val("br", i)).unwrap();
    }

    // The frozen base is untouched.
    for i in 0..50 {
        assert_eq!(p.get_at(0, base, &key(i)).unwrap(), Some(val("base", i)));
    }
    // Mainline sees its own writes only.
    for i in 0..50 {
        let expect = if i % 2 == 0 {
            val("main", i)
        } else {
            val("base", i)
        };
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(expect), "main key {i}");
    }
    // Branch sees its own writes only.
    for i in 0..50 {
        let expect = if i % 2 == 1 {
            val("br", i)
        } else {
            val("base", i)
        };
        assert_eq!(
            p.get_branch(0, branch, &key(i)).unwrap(),
            Some(expect),
            "branch key {i}"
        );
    }
}

#[test]
fn writes_to_frozen_snapshot_rejected() {
    let mc = MinuetCluster::new(2, 1, branching_cfg(2));
    let mut p = mc.proxy();
    p.put(0, key(1), val("a", 1)).unwrap();
    let snap = p.create_snapshot(0).unwrap();
    assert!(matches!(
        p.put_branch(0, snap.frozen_sid, key(2), val("b", 2)),
        Err(Error::SnapshotReadOnly(_))
    ));
}

#[test]
fn beta_limits_branches_per_snapshot() {
    let mc = MinuetCluster::new(2, 1, branching_cfg(2));
    let mut p = mc.proxy();
    p.put(0, key(1), val("a", 1)).unwrap();
    let snap = p.create_snapshot(0).unwrap();
    let base = snap.frozen_sid;
    // base already has one branch (the new mainline tip); one more is ok.
    let _b2 = p.create_branch(0, base).unwrap();
    // β = 2 exhausted.
    assert!(matches!(
        p.create_branch(0, base),
        Err(Error::BranchingFactorExceeded { .. })
    ));
}

/// Frozen snapshots, branch tips and the mainline of a version tree.
struct Versions {
    frozen: Vec<(SnapshotId, Model)>,
    branches: Vec<(SnapshotId, Model)>,
    main: Model,
}

/// Builds a version tree with enough branches sharing old nodes that
/// descendant sets overflow β and discretionary copies must happen.
fn version_tree_with_discretionary_copies(p: &mut Proxy) -> Versions {
    // Base data, untouched keys will be shared by every branch: the node
    // created at snapshot 0 accumulates copies from many branches.
    let n = 60u64;
    let mut main = BTreeMap::new();
    for i in 0..n {
        p.put(0, key(i), val("base", i)).unwrap();
        main.insert(key(i), val("base", i));
    }

    // Chain of snapshots; branch off each, writing in every branch so old
    // nodes get copied in many incomparable descendants.
    let mut frozen: Vec<(SnapshotId, Model)> = Vec::new();
    let mut branches: Vec<(SnapshotId, Model)> = Vec::new();

    for round in 0..6u64 {
        let snap = p.create_snapshot(0).unwrap();
        frozen.push((snap.frozen_sid, main.clone()));

        // Side branch from the frozen snapshot.
        let br = p.create_branch(0, snap.frozen_sid).unwrap();
        let mut br_model = main.clone();
        for i in 0..n {
            if i % 6 == round % 6 {
                let v = val(&format!("br{round}"), i);
                p.put_branch(0, br, key(i), v.clone()).unwrap();
                br_model.insert(key(i), v);
            }
        }
        branches.push((br, br_model));

        // Mainline writes.
        for i in 0..n {
            if i % 5 == round % 5 {
                let v = val(&format!("m{round}"), i);
                p.put(0, key(i), v.clone()).unwrap();
                main.insert(key(i), v);
            }
        }
    }
    assert!(
        p.stats.discretionary_copies > 0,
        "test must exercise discretionary copies (got {:?})",
        p.stats
    );
    Versions {
        frozen,
        branches,
        main,
    }
}

fn rows(model: &Model) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Verifies every version of a tree with discretionary copies against a
/// model.
#[test]
fn discretionary_copies_preserve_all_versions() {
    let mc = MinuetCluster::new(3, 1, branching_cfg(2));
    let mut p = mc.proxy();
    let v = version_tree_with_discretionary_copies(&mut p);

    // Every frozen snapshot matches its model.
    for (sid, model) in &v.frozen {
        let got = p.scan_at(0, *sid, b"", usize::MAX).unwrap();
        assert_eq!(got, rows(model), "snapshot {sid}");
    }
    // Every branch tip matches its model (validated reads).
    for (sid, model) in &v.branches {
        for (k, val) in model {
            assert_eq!(
                p.get_branch(0, *sid, k).unwrap().as_ref(),
                Some(val),
                "branch {sid}"
            );
        }
    }
    // Mainline matches.
    for (k, val) in &v.main {
        assert_eq!(p.get(0, k).unwrap().as_ref(), Some(val));
    }
}

/// Branching mode caches no frozen leaf: a scan there, which follows the
/// copy redirects the discretionary copies leave behind, reads every leaf
/// from the wire, equals the model, and fills nothing for the next scan.
#[test]
fn scans_through_redirects_fill_no_frozen_leaf() {
    let mc = MinuetCluster::new(3, 1, branching_cfg(2));
    let mut p = mc.proxy();
    let v = version_tree_with_discretionary_copies(&mut p);
    let mut q = mc.proxy();
    for round in 0..2 {
        for (sid, model) in &v.frozen {
            let got = q.scan_at(0, *sid, b"", usize::MAX).unwrap();
            assert_eq!(got, rows(model), "snapshot {sid}, round {round}");
        }
    }
    let counters = mc.sinfonia.obs().registry.snapshot();
    assert_eq!(counters.counter("cache.frozen_hits"), Some(0));
    assert!(counters.counter("cache.frozen_misses").unwrap_or(0) > 0);
}

#[test]
fn deep_branch_chains() {
    // Branch from a branch from a branch; each adds its own key.
    let mc = MinuetCluster::new(2, 1, branching_cfg(3));
    let mut p = mc.proxy();
    p.put(0, key(0), val("root", 0)).unwrap();

    let mut cur = {
        let s = p.create_snapshot(0).unwrap();
        s.frozen_sid
    };
    let mut tips = Vec::new();
    for d in 1..=5u64 {
        let b = p.create_branch(0, cur).unwrap();
        p.put_branch(0, b, key(d), val("depth", d)).unwrap();
        tips.push((b, d));
        // Freeze this branch so the next level can fork from it.
        let frozen = b;
        // Branching from a *writable* tip freezes it (first branch).
        cur = frozen;
    }
    // Each tip sees exactly keys 0..=its depth.
    for (tip, depth) in &tips {
        // Reads via snapshots (tips that got children became read-only).
        for d in 0..=*depth {
            let expect = if d == 0 {
                val("root", 0)
            } else {
                val("depth", d)
            };
            assert_eq!(
                p.get_at(0, *tip, &key(d)).unwrap(),
                Some(expect),
                "tip {tip} depth {d}"
            );
        }
        for d in *depth + 1..=5 {
            assert_eq!(p.get_at(0, *tip, &key(d)).unwrap(), None);
        }
    }
}

#[test]
fn concurrent_branch_writers() {
    let mc = MinuetCluster::new(3, 1, branching_cfg(4));
    let mut p = mc.proxy();
    for i in 0..40 {
        p.put(0, key(i), val("base", i)).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    let b1 = p.create_branch(0, snap.frozen_sid).unwrap();
    let b2 = p.create_branch(0, snap.frozen_sid).unwrap();

    let mut handles = Vec::new();
    for (branch, tag) in [(b1, "b1"), (b2, "b2")] {
        let mc = mc.clone();
        let tag = tag.to_string();
        handles.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            for i in 0..40u64 {
                p.put_branch(0, branch, key(i), val(&tag, i)).unwrap();
            }
        }));
    }
    // Mainline writer in parallel.
    handles.push(std::thread::spawn(move || {
        let mut p = mc.proxy();
        for i in 0..40u64 {
            p.put(0, key(i), val("main", i)).unwrap();
        }
    }));
    for h in handles {
        h.join().unwrap();
    }

    for i in 0..40 {
        assert_eq!(p.get_branch(0, b1, &key(i)).unwrap(), Some(val("b1", i)));
        assert_eq!(p.get_branch(0, b2, &key(i)).unwrap(), Some(val("b2", i)));
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val("main", i)));
        assert_eq!(
            p.get_at(0, snap.frozen_sid, &key(i)).unwrap(),
            Some(val("base", i))
        );
    }
}
