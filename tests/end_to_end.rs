//! Cross-crate integration: the full stack from user API to simulated DRAM.
//!
//! These tests exercise paths that span `utlb-mem` → `utlb-nic` →
//! `utlb-core` → `utlb-vmmc`, asserting the paper's architectural claims on
//! the assembled system rather than on any single crate.

use utlb_core::{CacheConfig, Policy, TranslationMechanism, UtlbConfig};
use utlb_mem::{VirtAddr, PAGE_SIZE};
use utlb_nic::packet::Packet;
use utlb_vmmc::Cluster;

/// §1's headline: after warm-up, the common communication path contains no
/// system calls (pin ioctls) and no device interrupts.
#[test]
fn common_path_has_no_syscalls_and_no_interrupts() {
    let mut c = Cluster::new(2).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let rx = c.spawn_process(1).unwrap();
    let export = c
        .export(1, rx, VirtAddr::new(0x4000_2000), 2 * PAGE_SIZE)
        .unwrap();
    let import = c.import(0, tx, 1, export).unwrap();
    let src = VirtAddr::new(0x1000_6000);
    c.write_local(0, tx, src, &[9u8; 512]).unwrap();

    // Warm-up transfer.
    c.remote_store(0, tx, import, src, 0, 512).unwrap();
    c.run_until_quiet().unwrap();
    let warm_tx = c.node(0).unwrap().utlb().aggregate_stats();
    let warm_rx = c.node(1).unwrap().utlb().aggregate_stats();

    // A hundred steady-state transfers.
    for i in 0..100u64 {
        c.remote_store(0, tx, import, src, (i % 8) * 512, 512)
            .unwrap();
        c.run_until_quiet().unwrap();
    }
    let after_tx = c.node(0).unwrap().utlb().aggregate_stats();
    let after_rx = c.node(1).unwrap().utlb().aggregate_stats();

    assert_eq!(
        after_tx.pin_calls, warm_tx.pin_calls,
        "no ioctl on the data path"
    );
    assert_eq!(after_rx.pin_calls, warm_rx.pin_calls);
    assert_eq!(after_tx.interrupts, 0, "no device interrupts, ever");
    assert_eq!(after_rx.interrupts, 0);
    assert_eq!(after_tx.check_misses, warm_tx.check_misses);
    // The NIC caches stay warm too.
    assert_eq!(after_tx.ni_misses, warm_tx.ni_misses);
}

/// The garbage-page design (§4.2): a stale translation can at worst deliver
/// into an unused page — it can never corrupt another process' memory.
#[test]
fn garbage_page_protects_across_processes() {
    let mut c = Cluster::new(2).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let rx_a = c.spawn_process(1).unwrap();
    let rx_b = c.spawn_process(1).unwrap();

    // Both receiver processes export the *same* virtual address.
    let va = VirtAddr::new(0x4000_0000);
    let export_a = c.export(1, rx_a, va, PAGE_SIZE).unwrap();
    let _export_b = c.export(1, rx_b, va, PAGE_SIZE).unwrap();
    let import_a = c.import(0, tx, 1, export_a).unwrap();

    c.write_local(1, rx_b, va, b"process B's secret").unwrap();
    c.write_local(0, tx, VirtAddr::new(0x1000_0000), b"AAAAAAAA")
        .unwrap();
    c.remote_store(0, tx, import_a, VirtAddr::new(0x1000_0000), 0, 8)
        .unwrap();
    c.run_until_quiet().unwrap();

    // A landed in A's buffer; B's identical virtual address is untouched.
    let mut a = [0u8; 8];
    c.read_local(1, rx_a, va, &mut a).unwrap();
    assert_eq!(&a, b"AAAAAAAA");
    let mut b = [0u8; 18];
    c.read_local(1, rx_b, va, &mut b).unwrap();
    assert_eq!(&b, b"process B's secret");
}

/// Remote fetch (VMMC-2) composes with remote store: write-then-read-back
/// through two different nodes observes the stored data.
#[test]
fn store_then_fetch_roundtrip() {
    let mut c = Cluster::new(3).unwrap();
    let writer = c.spawn_process(0).unwrap();
    let owner = c.spawn_process(1).unwrap();
    let reader = c.spawn_process(2).unwrap();

    let buf = VirtAddr::new(0x4000_0000);
    let export = c.export(1, owner, buf, PAGE_SIZE).unwrap();
    let import_w = c.import(0, writer, 1, export).unwrap();
    let import_r = c.import(2, reader, 1, export).unwrap();

    c.write_local(0, writer, VirtAddr::new(0x1000_0000), b"through the middle")
        .unwrap();
    c.remote_store(0, writer, import_w, VirtAddr::new(0x1000_0000), 64, 18)
        .unwrap();
    c.run_until_quiet().unwrap();

    let dst = VirtAddr::new(0x2000_0000);
    c.remote_fetch(2, reader, import_r, dst, 64, 18).unwrap();
    c.run_until_quiet().unwrap();
    let mut got = [0u8; 18];
    c.read_local(2, reader, dst, &mut got).unwrap();
    assert_eq!(&got, b"through the middle");
}

/// A tiny Shared UTLB-Cache still yields correct transfers — misses cost
/// time, never correctness.
#[test]
fn correctness_is_cache_size_independent() {
    let cfg = UtlbConfig {
        cache: CacheConfig {
            entries: 2,
            associativity: utlb_core::Associativity::Direct,
            offsetting: true,
        },
        ..UtlbConfig::default()
    };
    let mut c = Cluster::with_config(2, cfg).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let rx = c.spawn_process(1).unwrap();
    let export = c
        .export(1, rx, VirtAddr::new(0x4000_0000), 8 * PAGE_SIZE)
        .unwrap();
    let import = c.import(0, tx, 1, export).unwrap();

    let data: Vec<u8> = (0..8 * PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
    c.write_local(0, tx, VirtAddr::new(0x1000_0000), &data)
        .unwrap();
    c.remote_store(
        0,
        tx,
        import,
        VirtAddr::new(0x1000_0000),
        0,
        data.len() as u64,
    )
    .unwrap();
    c.run_until_quiet().unwrap();

    let mut got = vec![0u8; data.len()];
    c.read_local(1, rx, VirtAddr::new(0x4000_0000), &mut got)
        .unwrap();
    assert_eq!(got, data);
    // And the cache really was thrashing.
    let s = c.node(0).unwrap().utlb().aggregate_stats();
    assert!(s.ni_misses > 0);
}

/// Node remapping (§4.1): after a port failure, traffic redirected to a
/// spare physical port keeps flowing without sender-visible changes.
#[test]
fn node_remapping_survives_port_failure() {
    let mut c = Cluster::new(3).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let _dead = c.spawn_process(1).unwrap();
    let spare = c.spawn_process(2).unwrap();

    // The spare node hosts the same export the sender believes lives on
    // node 1 (in a real failover the state is migrated; here we stage it).
    let va = VirtAddr::new(0x4000_0000);
    let _e1 = c.export(1, _dead, va, PAGE_SIZE).unwrap();
    let _e2 = c.export(2, spare, va, PAGE_SIZE).unwrap();
    let import = c.import(0, tx, 1, _e1).unwrap();

    // Kill the link to node 1; remap logical node 1 → physical node 2.
    c.inject_fault(Some(Box::new(|p: &Packet| p.dst.raw() == 1)));
    c.remap_node(1, 2).unwrap();

    c.write_local(0, tx, VirtAddr::new(0x1000_0000), b"failover")
        .unwrap();
    c.remote_store(0, tx, import, VirtAddr::new(0x1000_0000), 0, 8)
        .unwrap();
    c.run_until_quiet().unwrap();

    let mut got = [0u8; 8];
    c.read_local(2, spare, va, &mut got).unwrap();
    assert_eq!(&got, b"failover");
}

/// Eviction under memory pressure composes with live transfers: pages held
/// by outstanding sends are never unpinned mid-flight, and transfers remain
/// correct while the policy churns pins.
#[test]
fn memory_pressure_with_live_traffic_stays_correct() {
    let cfg = UtlbConfig {
        mem_limit_pages: Some(6),
        policy: Policy::Lru,
        ..UtlbConfig::default()
    };
    let mut c = Cluster::with_config(2, cfg).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let rx = c.spawn_process(1).unwrap();
    // Receiver exports 4 pages (pinned under its own limit).
    let export = c
        .export(1, rx, VirtAddr::new(0x4000_0000), 4 * PAGE_SIZE)
        .unwrap();
    let import = c.import(0, tx, 1, export).unwrap();

    // Sender cycles through 12 distinct source pages — double its limit.
    for i in 0..24u64 {
        let src = VirtAddr::new(0x1000_0000 + (i % 12) * PAGE_SIZE);
        let marker = [(i % 251) as u8; 16];
        c.write_local(0, tx, src, &marker).unwrap();
        c.remote_store(0, tx, import, src, (i % 4) * PAGE_SIZE, 16)
            .unwrap();
        c.run_until_quiet().unwrap();
        let mut got = [0u8; 16];
        c.read_local(
            1,
            rx,
            VirtAddr::new(0x4000_0000 + (i % 4) * PAGE_SIZE),
            &mut got,
        )
        .unwrap();
        assert_eq!(got, marker, "iteration {i}");
    }
    let s = c.node(0).unwrap().utlb().aggregate_stats();
    assert!(s.unpins > 0, "the limit must have forced unpinning");
    assert!(
        c.node(0).unwrap().host().driver().pins().pinned_pages(tx) <= 6,
        "limit respected"
    );
}

/// §1's pinning contract under live OS paging pressure: the OS reclaims
/// whatever it can between transfers; pinned communication buffers are
/// immune, reclaimed cold pages fault back transparently, and every
/// transfer stays byte-correct throughout.
#[test]
fn transfers_survive_os_paging_pressure() {
    let mut c = Cluster::new(2).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let rx = c.spawn_process(1).unwrap();
    let export = c
        .export(1, rx, VirtAddr::new(0x4000_0000), 4 * PAGE_SIZE)
        .unwrap();
    let import = c.import(0, tx, 1, export).unwrap();

    for round in 0..12u64 {
        let src = VirtAddr::new(0x1000_0000 + (round % 6) * PAGE_SIZE);
        let marker = [(round + 1) as u8; 64];
        c.write_local(0, tx, src, &marker).unwrap();
        c.remote_store(0, tx, import, src, (round % 4) * PAGE_SIZE, 64)
            .unwrap();
        c.run_until_quiet().unwrap();

        // The OS sweeps both hosts, reclaiming every page it may touch.
        for node in 0..2 {
            let n = c.node_mut(node).unwrap();
            let pids = n.host().process_ids();
            for pid in pids {
                let pages: Vec<_> = n
                    .host()
                    .process(pid)
                    .unwrap()
                    .space()
                    .resident_pages()
                    .map(|(p, _)| p)
                    .collect();
                for page in pages {
                    // Pinned pages refuse; everything else may go.
                    let _ = n.host_mut().reclaim_page(pid, page);
                }
            }
        }

        let mut got = [0u8; 64];
        c.read_local(
            1,
            rx,
            VirtAddr::new(0x4000_0000 + (round % 4) * PAGE_SIZE),
            &mut got,
        )
        .unwrap();
        assert_eq!(got, marker, "round {round}");
    }

    // The communication buffers stayed pinned through every sweep.
    let tx_node = c.node(0).unwrap();
    assert!(tx_node.host().driver().pins().pinned_pages(tx) > 0);
    assert_eq!(tx_node.utlb().aggregate_stats().interrupts, 0);
}
