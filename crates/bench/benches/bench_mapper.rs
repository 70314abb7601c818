//! Criterion bench: mapspace enumeration and mapper search.
//!
//! The search benches compare three pipelines over the same mapspace and
//! model:
//!
//! * `search_tight_unpruned` — the pre-streaming baseline: every
//!   candidate runs the full dense→sparse→uarch pipeline (no capacity
//!   precheck);
//! * `search_tight_pruned`   — streaming candidates through
//!   `Model::precheck`, skipping the 3-step pipeline for tiles that
//!   cannot fit (`Exec::Threads(Some(1))`, the sequential scan);
//! * `search_tight_parallel` — the pruned pipeline fanned out over all
//!   cores (`Exec::Threads(None)`) with the deterministic reduction.
//!
//! On a multi-core machine parallel vs unpruned is the
//! headline throughput ratio; on one core the pruning alone carries the
//! speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use sparseloop_core::{Model, Objective, Workload};
use sparseloop_designs::fig1;
use sparseloop_mapping::{factorizations, Exec, Mapper, Mapping, Mapspace};
use sparseloop_workloads::spmspm;

fn bench_mapper(c: &mut Criterion) {
    c.bench_function("factorizations_64_into_3", |b| {
        b.iter(|| factorizations(64, 3, None))
    });
    let layer = spmspm(16, 16, 16, 0.5, 0.5);
    let dp = fig1::bitmask_design(&layer.einsum);
    let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
    c.bench_function("enumerate_200", |b| b.iter(|| space.enumerate(200)));
    c.bench_function("iter_enumerate_200", |b| {
        b.iter(|| space.iter_enumerate(200).count())
    });
    let model = Model::new(
        Workload::new(layer.einsum.clone(), layer.densities.clone()),
        dp.arch.clone(),
        dp.safs.clone(),
    );
    let sequential = Exec::Threads(Some(1));
    c.bench_function("search_exhaustive_200", |b| {
        let mapper = Mapper::Exhaustive { limit: 200 };
        b.iter(|| model.search(&space, mapper, Objective::Edp, sequential))
    });

    // capacity-constrained space: most candidates have tiles that cannot
    // fit, which is where the precheck pays off — exactly the regime real
    // accelerator buffers put the mapper in (the shared scenario also
    // backs the BENCH_mapper.json record, so the numbers line up)
    let (model_big, space_big, mapper) = sparseloop_bench::tight_search_scenario();

    // baseline: full pipeline on every candidate (no precheck)
    c.bench_function("search_tight_unpruned", |b| {
        let unpruned = |m: &Mapping| model_big.evaluate(m).ok().map(|e| e.edp);
        b.iter(|| mapper.search(&space_big, &unpruned, sequential))
    });
    c.bench_function("search_tight_pruned", |b| {
        b.iter(|| model_big.search(&space_big, mapper, Objective::Edp, sequential))
    });
    c.bench_function("search_tight_parallel", |b| {
        b.iter(|| model_big.search(&space_big, mapper, Objective::Edp, Exec::Threads(None)))
    });
}

criterion_group!(benches, bench_mapper);
criterion_main!(benches);
