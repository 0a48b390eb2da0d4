//! Concurrency tests for the dynamic transaction layer: OCC correctness
//! under real thread interleavings.

use minuet_dyntx::{DynTx, ObjRef, ReplRef, TxError};
use minuet_sinfonia::{ClusterConfig, MemNodeId, SinfoniaCluster};
use std::sync::Arc;

fn cluster(n: usize) -> Arc<SinfoniaCluster> {
    SinfoniaCluster::new(ClusterConfig {
        memnodes: n,
        capacity_per_node: 1 << 20,
        ..Default::default()
    })
}

/// Classic OCC counter: N threads increment one object; no lost updates.
#[test]
fn occ_counter_has_no_lost_updates() {
    let c = cluster(2);
    let obj = ObjRef::new(MemNodeId(0), 0, 64);
    {
        let mut t = DynTx::new(&c);
        t.write(obj, 0u64.to_le_bytes().to_vec());
        t.commit().unwrap();
    }
    let threads = 6;
    let per = 150u64;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let c = c.clone();
        handles.push(std::thread::spawn(move || {
            let mut aborts = 0u64;
            for _ in 0..per {
                loop {
                    let mut t = DynTx::new(&c);
                    let v = u64::from_le_bytes(t.read(obj).unwrap().try_into().unwrap());
                    t.write(obj, (v + 1).to_le_bytes().to_vec());
                    match t.commit() {
                        Ok(_) => break,
                        Err(TxError::Validation) => aborts += 1,
                        Err(e) => panic!("{e:?}"),
                    }
                }
            }
            aborts
        }));
    }
    let total_aborts: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut t = DynTx::new(&c);
    let v = u64::from_le_bytes(t.read(obj).unwrap().try_into().unwrap());
    assert_eq!(v, threads * per);
    // On a loaded host the threads may serialize and produce few or no
    // conflicts; when conflicts do occur, every one must have been
    // retried (which the count equality above already proves).
    println!("validation aborts observed: {total_aborts}");
}

/// Write skew is prevented: two objects with invariant a + b >= 0 and
/// transactions that each check the invariant before decrementing one
/// side. Under serializability the invariant must hold at the end.
#[test]
fn no_write_skew() {
    let c = cluster(2);
    let a = ObjRef::new(MemNodeId(0), 0, 64);
    let b = ObjRef::new(MemNodeId(1), 0, 64);
    {
        let mut t = DynTx::new(&c);
        t.write(a, 100i64.to_le_bytes().to_vec());
        t.write(b, 100i64.to_le_bytes().to_vec());
        t.commit().unwrap();
    }
    let mut handles = Vec::new();
    for side in 0..2 {
        let c = c.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..200 {
                loop {
                    let mut t = DynTx::new(&c);
                    let va = i64::from_le_bytes(t.read(a).unwrap().try_into().unwrap());
                    let vb = i64::from_le_bytes(t.read(b).unwrap().try_into().unwrap());
                    if va + vb <= 0 {
                        return; // invariant boundary reached
                    }
                    // Decrement my side only if the combined balance allows.
                    if side == 0 {
                        t.write(a, (va - 1).to_le_bytes().to_vec());
                    } else {
                        t.write(b, (vb - 1).to_le_bytes().to_vec());
                    }
                    match t.commit() {
                        Ok(_) => break,
                        Err(TxError::Validation) => continue,
                        Err(e) => panic!("{e:?}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut t = DynTx::new(&c);
    let va = i64::from_le_bytes(t.read(a).unwrap().try_into().unwrap());
    let vb = i64::from_le_bytes(t.read(b).unwrap().try_into().unwrap());
    assert!(
        va + vb >= 0,
        "write skew violated the invariant: {va} + {vb}"
    );
}

/// Replicated objects stay replica-consistent under concurrent write-all
/// updates racing with read-any readers.
#[test]
fn replicated_objects_stay_consistent() {
    let c = cluster(3);
    let r = ReplRef::new(0, 64);
    {
        let mut t = DynTx::new(&c);
        t.write_repl(r, 0u64.to_le_bytes().to_vec());
        t.commit().unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let c = c.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut v = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                loop {
                    let mut t = DynTx::new(&c);
                    let _ = t.read_repl(r, MemNodeId((v % 3) as u16)).unwrap();
                    t.write_repl(r, (v + 1).to_le_bytes().to_vec());
                    match t.commit() {
                        Ok(_) => break,
                        Err(TxError::Validation) => continue,
                        Err(e) => panic!("{e:?}"),
                    }
                }
                v += 1;
            }
            v
        })
    };
    // Readers hopping across replicas must observe monotonically
    // non-decreasing values (write-all is atomic).
    let mut readers = Vec::new();
    for t0 in 0..2u16 {
        let c = c.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut last = 0u64;
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut t = DynTx::new(&c);
                let v = u64::from_le_bytes(
                    t.read_repl(r, MemNodeId((n % 3) as u16))
                        .unwrap()
                        .try_into()
                        .unwrap(),
                );
                assert!(v >= last, "replica went backwards: {v} < {last}");
                last = v;
                n += 1;
            }
            let _ = t0;
            n
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let final_v = writer.join().unwrap();
    for h in readers {
        assert!(h.join().unwrap() > 10);
    }
    // All replicas identical at the end.
    for mem in c.memnode_ids() {
        let mut t = DynTx::new(&c);
        let v = u64::from_le_bytes(t.read_repl(r, mem).unwrap().try_into().unwrap());
        assert_eq!(v, final_v);
    }
}

/// Dirty reads never poison unrelated transactions: heavy dirty-read
/// traffic on one object while it churns doesn't abort writers of other
/// objects.
#[test]
fn dirty_reads_do_not_create_conflicts() {
    let c = cluster(1);
    let hot = ObjRef::new(MemNodeId(0), 0, 64);
    let cold = ObjRef::new(MemNodeId(0), 64, 64);
    {
        let mut t = DynTx::new(&c);
        t.write(hot, vec![0]);
        t.write(cold, vec![0]);
        t.commit().unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churner = {
        let c = c.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u8;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut t = DynTx::new(&c);
                let _ = t.read(hot).unwrap();
                t.write(hot, vec![i]);
                let _ = t.commit();
                i = i.wrapping_add(1);
            }
        })
    };
    // This transaction dirty-reads the hot object every time but writes
    // only the cold one: it must never fail validation.
    for i in 0..250u8 {
        let mut t = DynTx::new(&c);
        let _ = t.dirty_read(hot).unwrap();
        let _ = t.read(cold).unwrap();
        t.write(cold, vec![i]);
        t.commit().expect("dirty read must not join the read set");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churner.join().unwrap();
}

/// Regression: draining the cluster to zero ready memnodes (every member
/// inside a join fence, the window a membership transition opens) must
/// surface the typed, retryable `NoReadyReplica` from commit — not panic
/// on an empty ready set or silently bind the replicated compare to a
/// node that holds no seeded replica. Clearing one fence makes the same
/// transaction commit again.
#[test]
fn all_nodes_joining_fails_commit_with_no_ready_replica() {
    let c = cluster(2);
    let r = ReplRef::new(0, 64);
    {
        let mut t = DynTx::new(&c);
        t.write_repl(r, 1u64.to_le_bytes().to_vec());
        t.commit().unwrap();
    }
    for id in c.memnode_ids().collect::<Vec<_>>() {
        c.node(id).set_joining(true).unwrap();
    }

    // The joining fence gates placement, not service: reads still work.
    let mut t = DynTx::new(&c);
    let v = u64::from_le_bytes(t.read_repl(r, MemNodeId(0)).unwrap().try_into().unwrap());
    assert_eq!(v, 1);
    t.write_repl(r, 2u64.to_le_bytes().to_vec());
    assert!(matches!(t.commit(), Err(TxError::NoReadyReplica)));

    // Blind replicated writes need no compare binding; they still commit.
    let mut t = DynTx::new(&c);
    t.write_repl(r, 3u64.to_le_bytes().to_vec());
    t.commit()
        .expect("write-only repl transactions bind no compare replica");

    // One node finishing its join reopens the commit path.
    c.node(MemNodeId(0)).set_joining(false).unwrap();
    let mut t = DynTx::new(&c);
    let v = u64::from_le_bytes(t.read_repl(r, MemNodeId(0)).unwrap().try_into().unwrap());
    assert_eq!(v, 3);
    t.write_repl(r, 4u64.to_le_bytes().to_vec());
    t.commit().expect("one ready memnode suffices to bind");
}
