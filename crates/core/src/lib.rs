//! # User-managed TLB (UTLB)
//!
//! A faithful reimplementation of the address-translation mechanism of
//! *Chen, Bilas, Damianakis, Dubnicki, Li — "UTLB: A Mechanism for Address
//! Translation on Network Interfaces" (ASPLOS 1998)*, on top of the
//! simulated host ([`utlb_mem`]) and NIC ([`utlb_nic`]) substrates.
//!
//! User-level direct-path communication needs the NIC to translate virtual
//! buffer addresses to physical ones, and needs those buffers pinned while
//! DMA is in flight. UTLB does both without system calls or interrupts on
//! the common path:
//!
//! * **demand-driven page pinning** — a buffer is pinned through a driver
//!   `ioctl` the first time it is used and stays pinned, amortizing the
//!   ~27 µs/page pin cost over later transfers;
//! * **a protected translation table** per process that the NIC reads
//!   directly; entries are initialized with a pinned *garbage page* so the
//!   NIC never validates indices;
//! * **a fast user-level lookup structure** so the send path can tell with
//!   a couple of memory references whether pinning is needed at all.
//!
//! Four mechanisms are provided — the three UTLB variants of §3 plus the
//! interrupt-driven design of §6.2 — and all of them implement
//! [`TranslationMechanism`], so every runner, experiment, and contention
//! model drives any of them through one surface:
//!
//! | Mechanism | Engine | `kernel_pins` | Translation state |
//! |---|---|---|---|
//! | Per-process UTLB (§3.1) | [`PerProcessEngine`] | no | fixed table in NIC SRAM + user-level two-level [`UserLookupTree`]; never NI-misses |
//! | Shared UTLB-Cache (§3.2) | [`IndexedEngine`] | no | flat index-keyed tables in host DRAM, shared `(pid, index)`-tagged cache on the NIC |
//! | Hierarchical-UTLB (§3.3) | [`UtlbEngine`] | no | two-level [`HierTable`] keyed by virtual address + [`PinBitVector`] + shared cache |
//! | Interrupt baseline (§6.2) | [`IntrEngine`] | yes | NIC cache only; every miss interrupts the host, every cache eviction unpins |
//!
//! Each engine composes the shared [`PinCore`] — the per-process
//! [`PinnedSet`] + counters block and the demand-pin/unpin path — and adds
//! only its own translation structure on top. The measured cost constants
//! live in [`CostModel`]; replacement policies (§3.4) in
//! [`Policy`]/[`PinnedSet`].
//!
//! # Example
//!
//! ```
//! use utlb_core::{TranslationMechanism, UtlbConfig, UtlbEngine};
//! use utlb_mem::{Host, VirtAddr};
//! use utlb_nic::Board;
//!
//! # fn main() -> Result<(), utlb_core::UtlbError> {
//! let mut host = Host::new(1 << 16);
//! let mut board = Board::new();
//! let mut utlb = UtlbEngine::new(UtlbConfig::default());
//!
//! let pid = host.spawn_process();
//! utlb.register_process(&mut host, &mut board, pid)?;
//!
//! // First use of a buffer: pinned on demand, translations installed.
//! let pages = utlb.lookup_buffer(&mut host, &mut board, pid, VirtAddr::new(0x10_0000), 8192)?;
//! assert!(pages.iter().all(|p| p.check_miss));
//!
//! // Second use: pure fast path — no syscalls, no interrupts.
//! let pages = utlb.lookup_buffer(&mut host, &mut board, pid, VirtAddr::new(0x10_0000), 8192)?;
//! assert!(pages.iter().all(|p| !p.check_miss && !p.ni_miss));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod batch;
mod bitvec;
mod cache;
mod cost;
mod demand;
mod engine;
mod error;
mod hier;
mod indexed;
mod intr;
mod lookup;
mod mechanism;
pub mod obs;
mod perproc;
mod pincore;
mod policy;
mod stats;
mod table;

pub use batch::{LookupBatch, OutcomeBuf};
pub use bitvec::{CheckOutcome, DenseBits, PinBitVector};
pub use cache::{Associativity, CacheConfig, CacheStats, Evicted, SharedUtlbCache};
pub use cost::{CostModel, LookupRates};
pub use demand::{page_demands, page_demands_into, PageDemand};
pub use engine::{UtlbConfig, UtlbConfigBuilder, UtlbEngine};
pub use error::UtlbError;
pub use hier::{DirEntry, HierTable, DIR_ENTRIES, LEAF_ENTRIES};
pub use indexed::{IndexedConfig, IndexedEngine};
pub use intr::{IntrConfig, IntrEngine};
pub use lookup::{UserLookupTree, UtlbIndex};
pub use mechanism::{PageOutcome, TranslationMechanism};
pub use perproc::{PerProcessConfig, PerProcessEngine};
pub use pincore::PinCore;
pub use policy::{PinnedSet, Policy};
pub use stats::TranslationStats;
pub use table::PerProcessTable;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, UtlbError>;
