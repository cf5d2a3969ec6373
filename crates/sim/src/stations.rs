//! The shared discrete-event stations, and the walk that prices one
//! request's demands across a board's stations and them.
//!
//! Every board with stations (see [`board`](crate::board)) owns a firmware
//! station and a DMA engine — the private resources a physical NIC
//! carries — and walks its requests over one [`SharedStations`]: the I/O
//! bus and host interrupt service, plus, on a multi-board cluster, the host
//! memory system that pin work from every board funnels through.
//!
//! Uncontended, every station grant starts at the walking cursor (the
//! previous grant never ends later), so the walk reproduces the serial
//! clock's charge exactly — the determinism contract `tests/cluster.rs`,
//! `tests/cluster_frontend.rs` and `tests/des_equivalence.rs` pin.

use crate::des_runner::DesConfig;
use utlb_core::obs::{Event, Probe, SharedCollector, WaitResource};
use utlb_core::PageDemand;
use utlb_des::{DmaEngineModel, IntrServiceModel, IoBusModel, Resource, ResourceReport};
use utlb_mem::ProcessId;
use utlb_nic::Nanos;

/// The stations boards share: the I/O bus, host interrupt service and,
/// on a cluster, host memory.
pub(crate) struct SharedStations {
    /// The host memory system driver pin/unpin work funnels through. A
    /// single-board run has none: with one board nothing can queue there,
    /// so pin work advances the cursor directly, exactly as an always-free
    /// grant would.
    pub(crate) host_mem: Option<Resource>,
    /// The I/O bus all DMA data transfers cross.
    pub(crate) io_bus: IoBusModel,
    /// Host interrupt dispatch and service.
    pub(crate) intr_svc: IntrServiceModel,
}

impl SharedStations {
    /// The shared stations of one board under `des` timing: bus and
    /// interrupt service, no host-memory station.
    pub(crate) fn single_board(des: &DesConfig) -> Self {
        SharedStations {
            host_mem: None,
            io_bus: IoBusModel::new(des.bus),
            intr_svc: IntrServiceModel::new(des.intr_dispatch),
        }
    }

    /// The shared stations of a cluster under `des` timing.
    pub(crate) fn cluster(des: &DesConfig) -> Self {
        SharedStations {
            host_mem: Some(Resource::fifo("host_mem", 1)),
            ..SharedStations::single_board(des)
        }
    }

    /// Station reports in the result order every payload uses: host memory
    /// (when present), I/O bus, interrupt service.
    pub(crate) fn reports(&self) -> Vec<ResourceReport> {
        let mut reports: Vec<ResourceReport> = self.host_mem.iter().map(Resource::report).collect();
        reports.push(self.io_bus.report());
        reports.push(self.intr_svc.report());
        reports
    }
}

/// One board's accumulated queueing delays, by station.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StationWaits {
    /// Behind the board's own firmware processor.
    pub(crate) fw: Nanos,
    /// Behind the board's own DMA engine.
    pub(crate) dma: Nanos,
    /// This board's share of queueing behind the shared I/O bus.
    pub(crate) bus: Nanos,
    /// This board's share of queueing behind shared interrupt service.
    pub(crate) intr: Nanos,
    /// This board's share of queueing behind shared host memory.
    pub(crate) host_mem: Nanos,
}

/// Sends `event` to the board's collector, if it has one.
pub(crate) fn emit(probe: &mut Option<SharedCollector>, pid: ProcessId, event: Event) {
    if let Some(p) = probe {
        p.on_event(pid, event);
    }
}

/// Emits an [`Event::Wait`] to the board's collector, if it has one.
pub(crate) fn emit_wait(
    probe: &mut Option<SharedCollector>,
    pid: ProcessId,
    resource: WaitResource,
    wait: Nanos,
) {
    emit(
        probe,
        pid,
        Event::Wait {
            resource,
            ns: wait.as_nanos(),
        },
    );
}

/// Prices one request's page demands across the stations, starting at
/// `start` (the firmware grant instant): firmware compute advances the
/// cursor directly; driver pin work crosses to shared host memory (or
/// rides the interrupt occupancy when the mechanism pins from the kernel);
/// interrupts go to shared interrupt service; DMA descriptor programming
/// uses the board's private engine and the data crosses the shared bus.
/// Returns the cursor after the last demand — the firmware occupancy end.
///
/// Uncontended, every inner grant starts exactly at the cursor, so the
/// returned end equals the serial clock's charge for the same demands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn station_walk(
    start: Nanos,
    demands: &[PageDemand],
    kernel_pins: bool,
    pid: ProcessId,
    dma: &mut DmaEngineModel,
    shared: &mut SharedStations,
    waits: &mut StationWaits,
    probe: &mut Option<SharedCollector>,
) -> Nanos {
    let mut cursor = start;
    for d in demands {
        cursor += Nanos::from_nanos(d.firmware_ns());
        let mut intr_occupancy = d.intr_ns;
        if kernel_pins {
            intr_occupancy += d.pin_ns;
        } else if d.pin_ns > 0 {
            let pin = Nanos::from_nanos(d.pin_ns);
            match &mut shared.host_mem {
                Some(host_mem) => {
                    let g = host_mem.acquire(cursor, pin);
                    waits.host_mem += g.wait;
                    emit_wait(probe, pid, WaitResource::HostMem, g.wait);
                    cursor = g.end;
                }
                None => cursor += pin,
            }
        }
        if intr_occupancy > 0 {
            let g = shared
                .intr_svc
                .handle_for(cursor, Nanos::from_nanos(intr_occupancy));
            waits.intr += g.wait;
            emit_wait(probe, pid, WaitResource::IntrService, g.wait);
            cursor = g.end;
        }
        if d.dma_ns > 0 {
            // Engine programming, then the bus data phase: the two service
            // times sum to the serial DMA charge.
            let total = Nanos::from_nanos(d.dma_ns);
            let setup = dma.setup().min(total);
            let g1 = dma.program_for(cursor, setup);
            waits.dma += g1.wait;
            emit_wait(probe, pid, WaitResource::DmaEngine, g1.wait);
            let g2 = shared.io_bus.transfer(g1.end, total - setup);
            waits.bus += g2.wait;
            emit_wait(probe, pid, WaitResource::Bus, g2.wait);
            cursor = g2.end;
        }
    }
    cursor
}
