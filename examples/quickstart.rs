//! Quickstart: the UTLB fast path in five minutes.
//!
//! Builds a two-node VMMC cluster, exports a receive buffer, and performs a
//! remote store twice — the first send pays demand pinning, the second runs
//! entirely on the user-level check + NIC cache fast path. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use utlb_core::TranslationMechanism;
use utlb_mem::VirtAddr;
use utlb_vmmc::Cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cluster = Cluster::new(2)?;
    let sender = cluster.spawn_process(0)?;
    let receiver = cluster.spawn_process(1)?;

    // The receiver exports a 4-page receive buffer; the sender imports it.
    let recv_buf = VirtAddr::new(0x4000_0000);
    let export = cluster.export(1, receiver, recv_buf, 4 * 4096)?;
    let import = cluster.import(0, sender, 1, export)?;

    // Stage a message in the sender's ordinary virtual memory.
    let send_buf = VirtAddr::new(0x1000_0000);
    let message = b"user-level DMA with no syscalls on the data path";
    cluster.write_local(0, sender, send_buf, message)?;

    // First remote store: the send buffer is pinned on demand.
    cluster.remote_store(0, sender, import, send_buf, 0, message.len() as u64)?;
    cluster.run_until_quiet()?;
    let first = cluster.node(0)?.utlb().aggregate_stats();
    println!(
        "first send : {} lookups, {} check misses, {} pages pinned, {} interrupts",
        first.lookups, first.check_misses, first.pins, first.interrupts
    );

    // Second remote store from the same buffer: the pure fast path.
    cluster.remote_store(0, sender, import, send_buf, 0, message.len() as u64)?;
    cluster.run_until_quiet()?;
    let second = cluster.node(0)?.utlb().aggregate_stats();
    println!(
        "second send: {} lookups, {} check misses, {} pages pinned, {} interrupts",
        second.lookups,
        second.check_misses - first.check_misses,
        second.pins - first.pins,
        second.interrupts
    );
    assert_eq!(second.pins, first.pins, "fast path pins nothing new");

    // The data really arrived.
    let mut landed = vec![0u8; message.len()];
    cluster.read_local(1, receiver, recv_buf, &mut landed)?;
    assert_eq!(&landed, message);
    println!("receiver sees: {:?}", String::from_utf8_lossy(&landed));

    // The whole point, in one line:
    println!(
        "interrupts taken across both sends: {}",
        cluster.node(0)?.board().intr.raised()
    );
    Ok(())
}
