//! The translation fast path end to end — the §5 "0.9 µs" measurement.
//!
//! One warm one-page `lookup_run`: a user-level bitmap check plus a NIC
//! cache hit. Also benches the cold path (pin + table install + cache
//! fill) and the three UTLB variants side by side.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use utlb_core::{
    CacheConfig, PerProcessConfig, PerProcessEngine, TranslationMechanism, UtlbConfig, UtlbEngine,
};
use utlb_mem::{Host, VirtPage};
use utlb_nic::Board;

fn bench_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");

    group.bench_function("hierarchical_warm", |b| {
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let mut engine = UtlbEngine::new(UtlbConfig::default());
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(7), 1)
            .unwrap();
        b.iter(|| {
            black_box(
                engine
                    .lookup_run(&mut host, &mut board, pid, VirtPage::new(7), 1)
                    .unwrap(),
            )
        })
    });

    group.bench_function("hierarchical_cold", |b| {
        // Cycle a 8192-page working set under a 4096-page pin limit: every
        // lookup is a genuine cold path (check miss + pin + LRU unpin)
        // without unbounded frame growth across criterion's iterations.
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let mut engine = UtlbEngine::new(UtlbConfig {
            cache: CacheConfig::direct(8192),
            mem_limit_pages: Some(4096),
            ..UtlbConfig::default()
        });
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        let mut next = 0u64;
        b.iter(|| {
            next = (next + 1) % 8192;
            black_box(
                engine
                    .lookup_run(&mut host, &mut board, pid, VirtPage::new(next), 1)
                    .unwrap(),
            )
        })
    });

    group.bench_function("perprocess_warm", |b| {
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let mut engine = PerProcessEngine::new(PerProcessConfig::default());
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(7), 1)
            .unwrap();
        b.iter(|| {
            black_box(
                engine
                    .lookup_run(&mut host, &mut board, pid, VirtPage::new(7), 1)
                    .unwrap(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fast_path);
criterion_main!(benches);
