//! Transport conformance: the same deterministic workload, executed once
//! on the in-process simulation and once over real Unix-domain sockets,
//! must be observably identical — every returned previous value, every
//! lookup, every snapshot scan, and the final tree contents. The socket
//! transport is selected purely through `ClusterConfig`; nothing above
//! the Sinfonia layer knows which one it got.

use minuet::core::{op_tag, MinuetCluster, TreeConfig};
use minuet::obs::{ObsConfig, SpanKind};
use minuet::sinfonia::wire::{AdminOp, AdminReply};
use minuet::sinfonia::{ClusterConfig, MemNodeId, RemoteNode, Transport, WireConfig};
use std::sync::Arc;

mod common;
#[path = "../crates/sinfonia/tests/model/mod.rs"]
mod model;

/// A tiny deterministic PRNG so both runs see the same operation stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn key(k: u64) -> Vec<u8> {
    format!("wire{k:06}").into_bytes()
}

fn val(seed: u64) -> Vec<u8> {
    seed.to_le_bytes().to_vec()
}

/// Runs the scripted workload and returns every observation it makes:
/// previous values from puts/removes, get results, snapshot scans, and
/// the final full scan.
fn run_script(mc: &Arc<MinuetCluster>) -> Vec<Vec<u8>> {
    let mut p = mc.proxy();
    let mut rng = Lcg(42);
    let mut observations: Vec<Vec<u8>> = Vec::new();
    let observe_opt = |tag: u8, v: Option<Vec<u8>>| {
        let mut o = vec![tag];
        if let Some(v) = v {
            o.push(1);
            o.extend_from_slice(&v);
        }
        o
    };

    let mut snapshots = Vec::new();
    for step in 0..900u64 {
        let k = rng.next() % 256;
        match step % 9 {
            0..=2 => {
                let prev = p.put(0, key(k), val(step)).unwrap();
                observations.push(observe_opt(b'p', prev));
            }
            3 | 4 => {
                let got = p.get(0, &key(k)).unwrap();
                observations.push(observe_opt(b'g', got));
            }
            5 => {
                let prev = p.remove(0, &key(k)).unwrap();
                observations.push(observe_opt(b'r', prev));
            }
            6 => {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..6)
                    .map(|i| (key((k + i * 17) % 256), val(step)))
                    .collect();
                let prevs = p.multi_put(0, &pairs).unwrap();
                for prev in prevs {
                    observations.push(observe_opt(b'm', prev));
                }
            }
            7 => {
                let rows = p.scan_with_snapshot(0, &key(k), 10).unwrap();
                for (rk, rv) in rows {
                    observations.push([b"s".as_slice(), &rk, &rv].concat());
                }
            }
            _ => {
                if step % 90 == 8 {
                    let info = p.create_snapshot(0).unwrap();
                    snapshots.push(info.frozen_sid);
                }
            }
        }
    }

    // Frozen snapshots must scan identically on both transports.
    for sid in snapshots {
        let rows = p.scan_at(0, sid, b"", 512).unwrap();
        for (rk, rv) in rows {
            observations.push([b"f".as_slice(), &rk, &rv].concat());
        }
    }

    // Final tree contents.
    let rows = p.scan_with_snapshot(0, b"", 1024).unwrap();
    for (rk, rv) in rows {
        observations.push([b"z".as_slice(), &rk, &rv].concat());
    }
    observations
}

#[test]
fn wire_and_inprocess_runs_are_observably_identical() {
    let cfg = TreeConfig::small_nodes(8);
    let inproc = MinuetCluster::new(3, 1, cfg.clone());
    let wired = common::wire_cluster(3, 1, cfg);

    let a = run_script(&inproc);
    let b = run_script(&wired);
    assert_eq!(
        a.len(),
        b.len(),
        "transports produced different numbers of observations"
    );
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "observation {i} differs between transports");
    }
}

#[test]
fn concurrent_writers_over_sockets_lose_no_updates() {
    let mc = common::wire_cluster(2, 1, TreeConfig::small_nodes(8));
    let threads = 4;
    let per_thread = 60;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mc = mc.clone();
            std::thread::spawn(move || {
                let mut p = mc.proxy();
                for i in 0..per_thread {
                    let k = key((t * per_thread + i) as u64);
                    p.put(0, k.clone(), val(i as u64)).unwrap();
                    assert_eq!(p.get(0, &k).unwrap(), Some(val(i as u64)));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut p = mc.proxy();
    let rows = p.scan_with_snapshot(0, b"", 2048).unwrap();
    assert_eq!(
        rows.len(),
        threads * per_thread,
        "updates lost over the wire"
    );
}

#[test]
fn snapshot_isolation_holds_over_sockets() {
    let mc = common::wire_cluster(2, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..64u64 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    for i in 0..64u64 {
        p.put(0, key(i), val(1000 + i)).unwrap();
    }
    let frozen = p.scan_at(0, snap.frozen_sid, b"", 128).unwrap();
    assert_eq!(frozen.len(), 64);
    for (i, (_, v)) in frozen.iter().enumerate() {
        assert_eq!(v, &val(i as u64), "snapshot saw a post-freeze write");
    }
}

#[test]
fn wire_byte_counters_report_real_frames() {
    let mc = common::wire_cluster(2, 1, TreeConfig::small_nodes(8));
    let before = mc.sinfonia.transport.stats.bytes_snapshot();
    let mut p = mc.proxy();
    p.put(0, key(1), val(1)).unwrap();
    let after = mc.sinfonia.transport.stats.bytes_snapshot();
    assert!(after.0 > before.0, "no request bytes recorded");
    assert!(after.1 > before.1, "no response bytes recorded");
}

/// The `Stats` admin RPC must report exactly what the daemon's own
/// counters say: fetch `NodeStats` over the wire and compare it
/// field-for-field against the served `MemNode`, and do the same for the
/// full registry snapshot behind the `ObsSnapshot` RPC.
#[test]
fn stat_rpc_matches_server_state_over_the_wire() {
    let cfg = TreeConfig::small_nodes(8);
    let capacity = MinuetCluster::required_node_capacity(&cfg, 1, 2);
    let (endpoints, nodes) = common::spawn_servers_with_nodes(2, capacity);
    let sin = ClusterConfig::with_memnodes(2).with_wire_transport(endpoints, WireConfig::default());
    let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);

    let mut p = mc.proxy();
    for i in 0..48u64 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for i in 0..48u64 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(i)));
    }
    p.remove(0, &key(7)).unwrap();
    drop(p);

    for (i, node) in nodes.iter().enumerate() {
        let handle = mc.sinfonia.node(MemNodeId(i as u16));
        let remote = handle.node_stats().expect("daemon is up");
        let local = node.node_stats();
        assert_eq!(remote, local, "wire NodeStats diverges on memnode {i}");
        assert!(
            local.single_commits > 0,
            "workload left no trace on memnode {i}"
        );

        let remote_snap = handle.obs_snapshot();
        let local_snap = node.obs.registry.snapshot();
        assert_eq!(
            remote_snap.counters, local_snap.counters,
            "ObsSnapshot counters diverge on memnode {i}"
        );
        assert_eq!(
            remote_snap.hists.len(),
            local_snap.hists.len(),
            "ObsSnapshot histograms diverge on memnode {i}"
        );
        assert!(
            remote_snap.counter("memnode.single_commits").unwrap_or(0) > 0,
            "snapshot missing memnode counters"
        );
    }
}

/// There is one implementation of every admin operation, so the same
/// sequence through the in-process handle and through a wire handle to the
/// same daemon must be answered identically — reply for reply.
#[test]
fn admin_ops_answer_alike_in_process_and_over_the_wire() {
    let cfg = TreeConfig::small_nodes(8);
    let capacity = MinuetCluster::required_node_capacity(&cfg, 1, 1);
    let (endpoints, nodes) = common::spawn_servers_with_nodes(1, capacity);
    let sin = ClusterConfig::with_memnodes(1).with_wire_transport(endpoints, WireConfig::default());
    let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);
    let mut p = mc.proxy();
    for i in 0..16u64 {
        p.put(0, key(i), val(i)).unwrap();
    }
    drop(p);

    let local = RemoteNode::in_process(nodes[0].clone(), Arc::new(Transport::new(None)));
    let remote = mc.sinfonia.node(MemNodeId(0));
    assert!(
        local
            .as_local()
            .is_some_and(|n| std::ptr::eq(n, nodes[0].as_ref())),
        "the in-process handle reaches the served node"
    );
    assert!(
        remote.as_local().is_none(),
        "second handle must be a wire client"
    );
    for op in [
        AdminOp::SetRetiring(true),
        AdminOp::Checkpoint,
        AdminOp::Stats,
        AdminOp::Meta,
    ] {
        let here = local.admin(op.clone()).expect("in-process");
        let there = remote.admin(op.clone()).expect("daemon is up");
        assert_eq!(here, there, "{} answered differently", op.kind_name());
    }
    assert!(matches!(
        remote.admin(AdminOp::Stats),
        Ok(AdminReply::Stats(s)) if s.single_commits > 0
    ));
    assert!(remote.is_retiring() && local.is_retiring());
}

/// A sampled put over real sockets yields one trace whose client-side
/// spans (route, rtt) and server-side spans (decode, exec, encode) are
/// stitched together, with the server stages nested inside the client's
/// measured round trips.
#[test]
fn traced_op_stitches_client_and_server_spans() {
    let cfg = TreeConfig::small_nodes(8);
    let capacity = MinuetCluster::required_node_capacity(&cfg, 1, 2);
    let endpoints = common::spawn_servers(2, capacity);
    let sin = ClusterConfig::with_memnodes(2)
        .with_wire_transport(endpoints, WireConfig::default())
        .with_obs(ObsConfig::sampled(1));
    let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);

    let mut p = mc.proxy();
    p.put(0, key(1), val(1)).unwrap();
    p.put(0, key(2), val(2)).unwrap();
    drop(p);

    let traces = mc.sinfonia.obs().recent(16);
    let put = traces
        .iter()
        .find(|t| t.op_tag == op_tag::PUT)
        .expect("sampled put left no trace");
    let has = |kind: SpanKind| put.spans.iter().any(|s| s.kind == kind as u8);
    assert!(has(SpanKind::Route), "missing client route span");
    assert!(has(SpanKind::Rtt), "missing client rtt span");
    assert!(has(SpanKind::SrvDecode), "missing stitched server decode");
    assert!(has(SpanKind::SrvExec), "missing stitched server exec");
    assert!(has(SpanKind::SrvEncode), "missing stitched server encode");
    assert!(put.total_ns > 0, "op total not measured");
    // Server time is a strict subset of the client's round trips.
    let rtt: u64 = put.kind_total_ns(SpanKind::Rtt);
    let srv: u64 = put.kind_total_ns(SpanKind::SrvExec);
    assert!(srv <= rtt, "server exec ({srv}ns) exceeds rtt ({rtt}ns)");
}

#[test]
fn raw_reads_agree_between_node_handles() {
    // The same offsets must read back identically through the wire client
    // and through a fresh in-process run of identical operations.
    let mc = common::wire_cluster(1, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..32u64 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let node = mc.sinfonia.node(MemNodeId(0));
    let b = node.raw_read(0, 4096).unwrap();
    assert_eq!(b.len(), 4096);
    // Spot-check against a second wire read: raw reads are stable when
    // the tree is quiescent.
    let b2 = node.raw_read(0, 4096).unwrap();
    assert_eq!(&*b, &*b2);
}

/// The per-commit control plane carries no membership probes: node flags
/// ride every reply's trailer byte, so a traced steady-state workload
/// must contain zero `Flags` RPCs in any per-op span tree — and a put
/// whose leaf is cached and still valid must commit in exactly one
/// round trip (the fused compare+write minitransaction at the leaf's
/// memnode), with no separate fetch.
#[test]
fn per_op_span_trees_have_no_flags_rpcs_and_fused_puts_are_one_rtt() {
    use minuet::sinfonia::wire::tag;

    let cfg = TreeConfig::small_nodes(8);
    let capacity = MinuetCluster::required_node_capacity(&cfg, 1, 2);
    let endpoints = common::spawn_servers(2, capacity);
    let sin = ClusterConfig::with_memnodes(2)
        .with_wire_transport(endpoints, WireConfig::default())
        .with_obs(ObsConfig::sampled(1));
    let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);

    let mut p = mc.proxy();
    for i in 0..48u64 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for i in 0..48u64 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(i)));
    }
    // Steady state: tip and leaf caches are warm. This put must fuse.
    p.put(0, key(7), val(1007)).unwrap();
    let fused = mc
        .sinfonia
        .obs()
        .recent(1)
        .pop()
        .expect("sampled put left no trace");
    drop(p);

    let traces = mc.sinfonia.obs().recent(512);
    assert!(traces.len() > 90, "sampling every op must trace every op");
    for t in &traces {
        let flags_rtts = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Rtt as u8 && s.tag == tag::FLAGS)
            .count();
        assert_eq!(
            flags_rtts,
            0,
            "op 0x{:02x} trace carries a Flags round trip:\n{}",
            t.op_tag,
            t.render()
        );
    }

    assert_eq!(fused.op_tag, op_tag::PUT);
    let rtts: Vec<u8> = fused
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Rtt as u8)
        .map(|s| s.tag)
        .collect();
    assert_eq!(
        rtts,
        vec![tag::EXEC_SINGLE],
        "cached-leaf put is not a single fused round trip:\n{}",
        fused.render()
    );
}

/// Both transports count the same bytes for the same exchanges: each
/// counts the frames it exchanged, answered on the caller's thread or
/// across a socket. One script, step by step —
/// including a failed compare, whose reply carries no read data, a batch
/// with a failing member, and a two-phase attempt cut short by its first
/// vote.
#[test]
fn byte_counters_agree_between_transports() {
    use minuet::sinfonia::{with_op_net, ItemRange, Minitransaction, OpNet};

    let run = |wire: bool| -> Vec<OpNet> {
        let c = common::sinfonia_cluster_on(2, 1 << 20, wire);
        let at = |mem: u16, off: u64, len: u32| ItemRange::new(MemNodeId(mem), off, len);
        let compare_and_read = |expected: u8| {
            let mut m = Minitransaction::new();
            m.compare(at(0, 0, 8), vec![expected; 8]);
            m.read(at(0, 4096, 4096));
            m
        };
        let write = |mem: u16, off: u64| {
            let mut m = Minitransaction::new();
            m.write(at(mem, off, 16), vec![3; 16]);
            m
        };
        let mut two_memnodes = write(0, 64);
        two_memnodes.write(at(1, 64, 16), vec![4; 16]);
        let mut failing_member = write(0, 256);
        failing_member.compare(at(0, 0, 8), vec![1; 8]);
        let batch = [
            write(0, 128),
            failing_member,
            compare_and_read(0),
            write(0, 512),
        ];
        // Sequential delivery: memnode 0 votes no, memnode 1 is never sent
        // its prepare (`messages` still counts the intended fan-out of 2).
        let mut first_votes_no = write(1, 64);
        first_votes_no.compare(at(0, 0, 8), vec![1; 8]);

        let mut steps = Vec::new();
        let (out, net) = with_op_net(|| c.execute(&compare_and_read(0)).unwrap());
        assert!(out.committed());
        steps.push(net);
        let (out, net) = with_op_net(|| c.execute(&compare_and_read(1)).unwrap());
        assert!(!out.committed());
        steps.push(net);
        let (out, net) = with_op_net(|| c.execute(&two_memnodes).unwrap());
        assert!(out.committed());
        steps.push(net);
        let (outs, net) = with_op_net(|| c.exec_many(&batch).unwrap());
        let committed: Vec<bool> = outs
            .iter()
            .map(|o| o.as_ref().unwrap().committed())
            .collect();
        assert_eq!(committed, [true, false, true, true]);
        steps.push(net);
        let (out, net) = with_op_net(|| c.execute(&first_votes_no).unwrap());
        assert!(!out.committed());
        steps.push(net);
        steps
    };

    let (modeled, measured) = (run(false), run(true));
    for (step, (a, b)) in modeled.iter().zip(&measured).enumerate() {
        assert_eq!(a, b, "step {step}: in-process vs wire");
    }
    // The failed compare's reply is a handful of bytes, not a 4 KiB read.
    assert!(measured[0].bytes_in > 4096 && measured[1].bytes_in < 64);
    assert_eq!((measured[2].round_trips, measured[2].messages), (2, 4));
    assert_eq!((measured[3].round_trips, measured[3].messages), (1, 4));
    assert!(measured[4].bytes_out < measured[2].bytes_out / 2);
}

/// What only the codec used to be asked about in process is now counted
/// from frames there too, so it reads the same on both transports, step by
/// step: a raw read and an admin call (exchanges outside any round trip),
/// and a traced put, whose frames carry the trace envelope out and the
/// server's spans back.
#[test]
fn raw_admin_and_traced_exchanges_count_alike_on_both_transports() {
    use minuet::sinfonia::{with_op_net, OpNet};

    let cfg = TreeConfig::small_nodes(8);
    let run = |wire: bool| -> (Vec<OpNet>, (u64, u64)) {
        let mut sin = ClusterConfig::with_memnodes(2).with_obs(ObsConfig::sampled(1));
        if wire {
            let capacity = MinuetCluster::required_node_capacity(&cfg, 1, 2);
            let endpoints = common::spawn_servers(2, capacity);
            sin = sin.with_wire_transport(endpoints, WireConfig::default());
        }
        let mc = MinuetCluster::with_cluster_config(sin, 1, cfg.clone());
        let mut p = mc.proxy();
        let node = mc.sinfonia.node(MemNodeId(0));
        let before = mc.sinfonia.transport.stats.bytes_snapshot();

        let mut steps = Vec::new();
        let (data, net) = with_op_net(|| node.raw_read(0, 64).unwrap());
        assert_eq!(data.len(), 64);
        steps.push(net);
        let (stats, net) = with_op_net(|| node.admin(AdminOp::Stats).unwrap());
        assert!(matches!(stats, AdminReply::Stats(_)), "wire={wire}");
        steps.push(net);
        let ((), net) = with_op_net(|| p.put(0, key(1), val(1)).map(drop).unwrap());
        steps.push(net);

        let after = mc.sinfonia.transport.stats.bytes_snapshot();
        let put = mc.sinfonia.obs().recent(16);
        let put = put.iter().find(|t| t.op_tag == op_tag::PUT);
        let stitched =
            put.is_some_and(|t| t.spans.iter().any(|s| s.kind == SpanKind::SrvExec as u8));
        assert!(stitched, "wire={wire}: the put's trace has no server span");
        (steps, (after.0 - before.0, after.1 - before.1))
    };

    let (here, there) = (run(false), run(true));
    let raw_read = OpNet {
        bytes_out: 21,
        bytes_in: 78,
        ..OpNet::default()
    };
    assert_eq!(there.0[0], raw_read, "a 64-byte raw read over the wire");
    for (step, (a, b)) in here.0.iter().zip(&there.0).enumerate() {
        assert_eq!(a, b, "step {step}: in-process vs wire");
    }
    assert_eq!(here.1, there.1, "global byte counters: in-process vs wire");
}

/// The seeded index-bookkeeping property of sinfonia's `atomicity` suite,
/// a fixed subset of it, with every share crossing a socket.
#[test]
fn indices_survive_sharding_over_sockets() {
    model::indices_survive_sharding(&common::sinfonia_cluster_on(3, 1 << 20, true), 3, 48);
}

/// A commit is a batch of one at no cost: `tx.commit()` and `commit_many`
/// of the same staged one-memnode transaction book the same exchange — one
/// round trip, one message, the `ExecSingle` request and its reply to the
/// byte (never a one-element `ExecBatch`) — on both transports, and two
/// members bound for one memnode still share one `ExecBatch` round trip.
#[test]
fn a_commit_is_a_batch_of_one_on_the_wire() {
    use minuet::dyntx::{commit_many, DynTx, ObjRef, OBJ_HEADER};
    use minuet::sinfonia::memnode::SingleResult;
    use minuet::sinfonia::wire::{seal_reply, NodeFlags, Request, Response, WireBatchItem};
    use minuet::sinfonia::{with_op_net, ItemRange, LockPolicy, Minitransaction, OpNet};

    const PAYLOAD: usize = 24;
    // What a commit of one `PAYLOAD`-byte blind write puts on the wire.
    let mut m = Minitransaction::new();
    let image = vec![0; OBJ_HEADER as usize + PAYLOAD];
    m.write(ItemRange::new(MemNodeId(0), 0, image.len() as u32), image);
    let item = WireBatchItem {
        txid: 0,
        policy: LockPolicy::AbortOnBusy,
        shard: m.shards()[0].1.clone(),
    };
    let committed = || Ok(SingleResult::Committed(Vec::new()));
    let sealed_len = |resp| seal_reply(&resp, NodeFlags::default()).len() as u64;
    let single = OpNet {
        round_trips: 1,
        messages: 1,
        bytes_out: Request::ExecSingle {
            txid: item.txid,
            policy: item.policy,
            shard: item.shard.clone(),
        }
        .encode()
        .len() as u64,
        bytes_in: sealed_len(Response::Single(SingleResult::Committed(Vec::new()))),
    };
    let batch_of_two = OpNet {
        round_trips: 1,
        messages: 2,
        bytes_out: Request::ExecBatch {
            items: vec![item.clone(), item],
        }
        .encode()
        .len() as u64,
        bytes_in: sealed_len(Response::Batch(vec![committed(), committed()])),
    };

    for wire in [false, true] {
        let c = common::sinfonia_cluster_on(2, 1 << 20, wire);
        let write = |slot: u64| {
            let mut tx = DynTx::new(&c);
            tx.write(ObjRef::new(MemNodeId(0), slot * 64, 64), vec![7; PAYLOAD]);
            tx
        };
        let (_, alone) = with_op_net(|| write(0).commit().unwrap());
        let (_, of_one) = with_op_net(|| commit_many(vec![write(1).stage_commit()]).unwrap());
        assert_eq!(alone, single, "wire={wire}: commit()");
        assert_eq!(of_one, single, "wire={wire}: commit_many of one");
        let (results, of_two) = with_op_net(|| {
            commit_many(vec![write(2).stage_commit(), write(3).stage_commit()]).unwrap()
        });
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(of_two, batch_of_two, "wire={wire}: commit_many of two");
    }
}
