//! Zero-copy messaging on top of VMMC — the high-level API the paper's
//! transfer redirection exists to enable (§4.1).
//!
//! Builds a two-endpoint channel with the `utlb-msg` fabric and shows:
//!
//! 1. the eager path: small messages through the exported ring, with
//!    credit-based flow control refreshed by a *remote fetch*,
//! 2. the rendezvous path: a large message whose receive buffer becomes
//!    the *redirected* landing zone of the bulk window — the payload's
//!    only movement is the wire transfer into its final location,
//! 3. that after warm-up, none of this touches the kernel or interrupts.
//!
//! Run with:
//!
//! ```text
//! cargo run --example messaging
//! ```

use utlb_core::TranslationMechanism;
use utlb_mem::VirtAddr;
use utlb_msg::{ChannelConfig, Fabric, RecvBuf};
use utlb_vmmc::Cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut fabric = Fabric::new(Cluster::new(2)?);
    let client = fabric.add_endpoint(0)?;
    let server = fabric.add_endpoint(1)?;
    let channel = fabric.connect(client, server, ChannelConfig::default())?;

    // --- eager request/response -----------------------------------------
    fabric.send(channel, client, b"GET /stats")?;
    let request = fabric.recv(channel, server)?;
    println!(
        "server got request: {:?}",
        String::from_utf8_lossy(&request)
    );
    fabric.send(channel, server, b"200 OK: utlb is fast")?;
    let response = fabric.recv(channel, client)?;
    println!(
        "client got response: {:?}",
        String::from_utf8_lossy(&response)
    );

    // --- rendezvous bulk transfer, zero-copy into the caller's buffer ----
    let blob: Vec<u8> = (0..32_000u32).map(|i| (i * 7 % 251) as u8).collect();
    fabric.send(channel, client, &blob)?;
    let target = VirtAddr::new(0x2000_0000); // the application's own buffer
    let n = fabric.recv_into(channel, server, target, blob.len() as u64)?;
    println!("server received {n} bytes by rendezvous, directly into its buffer");

    // Verify the payload landed intact.
    let dst_node = 1;
    let pids = {
        let c = fabric.cluster();
        c.node(dst_node)?.host().process_ids()
    };
    let mut got = vec![0u8; blob.len()];
    fabric
        .cluster_mut()
        .read_local(dst_node, pids[0], target, &mut got)?;
    assert_eq!(got, blob);

    // --- the whole point --------------------------------------------------
    // Steady state reuses one RecvBuf: `recv_reuse` lands every message in
    // the same simulated region and byte buffer, so the loop allocates
    // nothing per message — the discipline every hot receive path here
    // follows (the lookup path's OutcomeBuf, the request plane's frame
    // buffer).
    println!("\nsteady-state: 200 eager messages ...");
    let before = fabric.cluster().node(0)?.utlb().aggregate_stats();
    let mut inbox = RecvBuf::new();
    for i in 0..200u32 {
        fabric.send(channel, client, &i.to_le_bytes())?;
        fabric.recv_reuse(channel, server, &mut inbox)?;
        assert_eq!(inbox.as_slice(), i.to_le_bytes());
    }
    let after = fabric.cluster().node(0)?.utlb().aggregate_stats();
    println!(
        "pin ioctls during steady state: {}   interrupts: {}   NI misses: {}",
        after.pin_calls - before.pin_calls,
        after.interrupts,
        after.ni_misses - before.ni_misses,
    );
    Ok(())
}
