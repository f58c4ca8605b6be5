//! Criterion benches for the substrates: graph generation, analysis, the
//! simulator's round engine, and the lower-bound constructions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ule_core::broadcast::flood_broadcast;
use ule_graph::{analysis, clique_cycle::CliqueCycle, dumbbell, gen, gen::Family};
use ule_sim::SimConfig;

fn substrate_benches(c: &mut Criterion) {
    use rand::SeedableRng;

    let mut group = c.benchmark_group("graph/generate");
    group.bench_function("random_connected-1k-5k", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| black_box(gen::random_connected(1000, 5000, &mut rng).unwrap()));
    });
    group.bench_function("random_regular-1k-8", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        b.iter(|| black_box(gen::random_regular(1000, 8, &mut rng).unwrap()));
    });
    group.bench_function("dumbbell-clique-path", |b| {
        b.iter(|| black_box(dumbbell::clique_path_dumbbell(64, 512, 3, 17).unwrap()));
    });
    group.bench_function("clique-cycle-fig1", |b| {
        b.iter(|| black_box(CliqueCycle::build(1024, 64).unwrap()));
    });
    group.finish();

    let mut group = c.benchmark_group("graph/analysis");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let g = gen::random_connected(500, 2500, &mut rng).unwrap();
    group.bench_function("bfs-500", |b| {
        b.iter(|| black_box(analysis::bfs_distances(&g, 0)));
    });
    group.finish();

    // `diameter_exact` computes once per graph and then answers from its
    // memo. A clone of a graph that never computed it starts empty, so
    // timing it on a fresh clone times the computation; the all-pairs
    // reference gets the same clone. The four graphs are those of a
    // Table 1 workload at n = 512.
    let mut group = c.benchmark_group("graph/diameter");
    for family in [
        Family::Cycle,
        Family::Torus,
        Family::SparseRandom,
        Family::DenseRandom,
    ] {
        let g = gen::workload_graph(1, family, 512).unwrap();
        group.bench_with_input(BenchmarkId::new("exact", family.name()), &g, |b, g| {
            b.iter(|| black_box(analysis::diameter_exact(&g.clone())));
        });
        group.bench_with_input(BenchmarkId::new("all-pairs", family.name()), &g, |b, g| {
            b.iter(|| black_box(analysis::diameter_all_pairs(&g.clone())));
        });
    }
    group.finish();

    // Engine throughput: a full flood on graphs of growing size measures
    // per-message engine overhead.
    let mut group = c.benchmark_group("sim/flood-throughput");
    for n in [100usize, 400, 1600] {
        let side = (n as f64).sqrt() as usize;
        let g = gen::torus(side, side).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let cfg = SimConfig::seeded(0);
            b.iter(|| black_box(flood_broadcast(g, &cfg, 0)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = substrate_benches
}
criterion_main!(benches);
