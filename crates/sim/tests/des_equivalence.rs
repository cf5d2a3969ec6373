//! The DES overlay must be a pure *addition* to the serial runner: at zero
//! contention the station network collapses to the serial recurrence, so
//! a `.des()` run must reproduce the plain run's `sim_time_ns` bit-exactly — and its
//! embedded serial half must be byte-identical `SimResult` JSON — on every
//! Table 4/5 workload and on arbitrary (app, seed, scale, geometry) points.
//! An observed contended run's wait accounting is pinned exactly as well.

use proptest::prelude::*;
use utlb_sim::{DesConfig, DesResult, Mechanism, Run, RunOutputExt, SimConfig, SimResult};
use utlb_trace::{gen, GenConfig, SplashApp, Trace};

fn run_mechanism(mech: Mechanism, trace: &Trace, cfg: &SimConfig) -> SimResult {
    Run::new(mech)
        .config(cfg)
        .execute(trace)
        .into_sim()
        .unwrap()
}

fn run_des_mechanism(
    mech: Mechanism,
    trace: &Trace,
    cfg: &SimConfig,
    des: &DesConfig,
) -> DesResult {
    Run::new(mech)
        .config(cfg)
        .des(*des)
        .execute(trace)
        .into_des()
        .unwrap()
}

fn table_cfg() -> GenConfig {
    GenConfig {
        seed: 7,
        scale: 0.04,
        app_processes: 4,
    }
}

/// The acceptance matrix: all seven applications under the Table 4
/// (infinite memory) and Table 5 (4 MB limit) configurations, all four
/// mechanisms. Zero-contention DES time must equal serial time exactly,
/// and the serial half of the DES run must be unperturbed.
#[test]
fn zero_contention_des_matches_serial_on_all_table45_workloads() {
    let gencfg = table_cfg();
    let des = DesConfig::zero_contention();
    for (app, trace) in SplashApp::ALL
        .iter()
        .map(|&app| (app, gen::generate_shared(app, &gencfg)))
    {
        for sim in [SimConfig::study(8192), SimConfig::study(8192).limit_mb(4)] {
            for mech in Mechanism::ALL {
                let serial = run_mechanism(mech, &trace, &sim);
                let r = run_des_mechanism(mech, &trace, &sim, &des);
                assert_eq!(
                    r.des_time_ns, serial.sim_time_ns,
                    "{app}/{mech} (limit {:?}): DES completion diverged from serial",
                    sim.mem_limit_pages
                );
                let serial_json = serde_json::to_string(&serial).unwrap();
                let base_json = serde_json::to_string(&r.base).unwrap();
                assert_eq!(
                    serial_json, base_json,
                    "{app}/{mech}: the DES overlay perturbed the serial replay"
                );
                // Uncontended, the nested devices never queue; only the
                // firmware FIFO (which the serial recurrence also models)
                // accumulates wait.
                assert_eq!(
                    r.dma_wait_ns + r.bus_wait_ns + r.intr_wait_ns,
                    0,
                    "{app}/{mech}: device waits at zero contention"
                );
                assert_eq!(r.latency_ns.count(), trace.records.len() as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zero-contention equivalence holds for any trace and cache geometry,
    /// not just the table configurations — for every mechanism.
    #[test]
    fn zero_contention_des_matches_serial_for_any_trace(
        seed in any::<u64>(),
        scale in 0.02f64..0.06,
        entries_log in 5u32..12,
        app_ix in 0usize..7,
        mech_ix in 0usize..4,
    ) {
        let app = SplashApp::ALL[app_ix];
        let cfg = GenConfig { seed, scale, app_processes: 4 };
        let trace = gen::generate(app, &cfg);
        let sim = SimConfig::study(1 << entries_log);
        let mech = Mechanism::ALL[mech_ix];
        let serial = run_mechanism(mech, &trace, &sim);
        let r = run_des_mechanism(mech, &trace, &sim, &DesConfig::zero_contention());
        prop_assert_eq!(r.des_time_ns, serial.sim_time_ns);
        prop_assert_eq!(r.base.stats, serial.stats);
        prop_assert_eq!(r.dma_wait_ns + r.bus_wait_ns + r.intr_wait_ns, 0);
    }
}

/// One line per observed quantity: the event-count total of `Wait`s, every
/// wait histogram as `count/sum/max`, and the station reports as
/// `name:arrivals/busy/wait`, in result order.
fn observed_des_fingerprint(mech: Mechanism) -> String {
    let trace = gen::generate(
        SplashApp::Water,
        &GenConfig {
            seed: 21,
            scale: 0.05,
            app_processes: 4,
        },
    );
    let (r, obs) = Run::new(mech)
        .config(&SimConfig::study(128))
        .des(DesConfig::contended(4.0))
        .observed_ring(32)
        .execute(&trace)
        .into_des_observed()
        .unwrap();
    let m = &obs.metrics;
    let hist =
        |h: &utlb_core::obs::Histogram| format!("{}/{}/{}", h.count(), h.sum_ns(), h.max_ns());
    let mut s = format!(
        "waits={} fw={} dma={} bus={} intr={} host_mem={}",
        m.counts.waits,
        hist(&m.fw_wait_ns),
        hist(&m.dma_wait_ns),
        hist(&m.bus_wait_ns),
        hist(&m.intr_wait_ns),
        hist(&m.host_mem_wait_ns),
    );
    for res in &r.resources {
        let st = &res.stats;
        s += &format!(
            " {}:{}/{}/{}",
            res.name, st.arrivals, st.busy_ns, st.wait_ns
        );
    }
    s
}

/// An observed `.des()` run's wait accounting is pinned exactly: the
/// `Wait` event count, every wait histogram (a single-board run has no
/// shared host-memory station, so that histogram stays empty), and the
/// four station reports in their fixed order. Any refactor of the station
/// walk that adds, drops or reorders a wait shows up here.
#[test]
fn observed_des_wait_accounting_is_pinned() {
    let expected = [
        (
            Mechanism::Utlb,
            "waits=1036 fw=424/4020284547/12909378 dma=94/0/0 bus=94/10756020/743256 intr=424/152592/8976 host_mem=0/0/0 \
             nic_firmware:424/14014420/4020284547 dma_engine:518/760424/3746064 io_bus:518/26693568/1371348636 intr_service:424/4240000/152592",
        ),
        (
            Mechanism::PerProc,
            "waits=848 fw=424/634495587/1992885 dma=0/0/0 bus=0/0/0 intr=424/152592/8976 host_mem=0/0/0 \
             nic_firmware:424/3089200/634495587 dma_engine:424/622432/3746064 io_bus:424/26690560/4708899096 intr_service:424/4240000/152592",
        ),
        (
            Mechanism::Indexed,
            "waits=1036 fw=424/4020157647/12909078 dma=94/0/0 bus=94/10783920/743556 intr=424/152592/8976 host_mem=0/0/0 \
             nic_firmware:424/14014120/4020157647 dma_engine:518/760424/3746064 io_bus:518/26693568/1371376536 intr_service:424/4240000/152592",
        ),
        (
            Mechanism::Intr,
            "waits=942 fw=424/5344553219/16833054 dma=0/0/0 bus=0/0/0 intr=518/14638988/788524 host_mem=0/0/0 \
             nic_firmware:424/17833596/5344553219 dma_engine:424/622432/14895064 io_bus:424/26690560/1360592616 intr_service:518/7248000/14638988",
        ),
    ];
    for (mech, want) in expected {
        assert_eq!(observed_des_fingerprint(mech), want, "{mech}");
    }
}
