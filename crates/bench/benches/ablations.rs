//! Criterion bench for the ablation axes called out in DESIGN.md: the
//! Karatsuba Bennett sweep (ABL-style design choice), the windowed window
//! size, and the T-factory search depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qre_arith::{
    multiplication_counts_with, KaratsubaConfig, MulAlgorithm, MulWorkloadConfig, WindowedConfig,
};
use qre_core::{PhysicalQubit, QecScheme, TFactoryBuilder};

fn bench_karatsuba_sweep_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("karatsuba_mode");
    group.sample_size(10);
    for (label, bennett) in [("bennett", true), ("dirty", false)] {
        group.bench_function(BenchmarkId::new(label, 512), |b| {
            let cfg = MulWorkloadConfig {
                karatsuba: KaratsubaConfig {
                    cutoff: 64,
                    bennett,
                },
                windowed: WindowedConfig::default(),
            };
            b.iter(|| multiplication_counts_with(MulAlgorithm::Karatsuba, 512, cfg))
        });
    }
    group.finish();
}

fn bench_window_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("windowed_window_size");
    group.sample_size(10);
    for window in [4usize, 8, 12] {
        group.bench_with_input(
            BenchmarkId::from_parameter(window),
            &window,
            |b, &window| {
                let cfg = MulWorkloadConfig {
                    karatsuba: KaratsubaConfig::default(),
                    windowed: WindowedConfig {
                        window: Some(window),
                    },
                };
                b.iter(|| multiplication_counts_with(MulAlgorithm::Windowed, 1024, cfg))
            },
        );
    }
    group.finish();
}

fn bench_factory_round_depth(c: &mut Criterion) {
    let qubit = PhysicalQubit::qubit_maj_ns_e4();
    let scheme = QecScheme::floquet_code();
    let mut group = c.benchmark_group("factory_search_depth");
    for rounds in [2usize, 3] {
        group.bench_with_input(
            BenchmarkId::from_parameter(rounds),
            &rounds,
            |b, &rounds| {
                let builder = TFactoryBuilder {
                    max_rounds: rounds,
                    ..TFactoryBuilder::default()
                };
                b.iter(|| builder.find_factory(&qubit, &scheme, 1e-10))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_karatsuba_sweep_modes,
    bench_window_sizes,
    bench_factory_round_depth
);
criterion_main!(benches);
