//! Mapper integration: searching mapspaces through the full model.

use sparseloop_core::{Model, Objective, Workload};
use sparseloop_designs::fig1;
use sparseloop_mapping::{Exec, Mapper, Mapspace};
use sparseloop_tensor::einsum::DimId;
use sparseloop_workloads::spmspm;

#[test]
fn searched_mapping_beats_naive_mapping() {
    let layer = spmspm(32, 32, 32, 0.25, 0.25);
    let dp = fig1::coordinate_list_design(&layer.einsum);
    let model = Model::new(
        Workload::new(layer.einsum.clone(), layer.densities.clone()),
        dp.arch.clone(),
        dp.safs.clone(),
    );
    // naive: everything in one big innermost nest
    let naive = sparseloop_mapping::MappingBuilder::new(2, 3)
        .temporal(1, DimId(0), 32)
        .temporal(1, DimId(1), 32)
        .temporal(1, DimId(2), 32)
        .build();
    let naive_eval = model.evaluate(&naive);
    let space =
        Mapspace::all_temporal(&layer.einsum, &dp.arch).with_spatial_dims(1, vec![DimId(1)]);
    let (_, best) = model
        .search(
            &space,
            Mapper::Hybrid {
                enumerate: 512,
                samples: 256,
                seed: 7,
                sampling: sparseloop_mapping::SampleStrategy::Uniform,
            },
            Objective::Edp,
            Exec::Threads(None),
        )
        .0
        .expect("search finds a mapping");
    if let Ok(n) = naive_eval {
        assert!(
            best.edp <= n.edp * 1.0001,
            "search should not lose to naive"
        );
    }
}

#[test]
fn capacity_constraints_prune_candidates() {
    // a tiny buffer invalidates large tiles; the mapper must still find
    // something valid (or correctly report nothing)
    let layer = spmspm(64, 64, 64, 1.0, 1.0);
    let arch = sparseloop_arch::ArchitectureBuilder::new("tiny")
        .level(
            sparseloop_arch::StorageLevel::new("DRAM")
                .with_class(sparseloop_arch::ComponentClass::Dram),
        )
        .level(sparseloop_arch::StorageLevel::new("Buf").with_capacity(512))
        .compute(sparseloop_arch::ComputeSpec::new("MAC", 1))
        .build()
        .unwrap();
    let model = Model::new(
        Workload::new(layer.einsum.clone(), layer.densities.clone()),
        arch,
        sparseloop_core::SafSpec::dense(),
    );
    let space = Mapspace::all_temporal(model.workload().einsum(), model.arch());
    let mapper = Mapper::Hybrid {
        enumerate: 1024,
        samples: 512,
        seed: 3,
        sampling: sparseloop_mapping::SampleStrategy::Uniform,
    };
    if let (Some((mapping, eval)), _) =
        model.search(&space, mapper, Objective::Edp, Exec::Threads(None))
    {
        // whatever wins must actually fit
        assert!(eval.uarch.valid);
        let lvl = &eval.uarch.levels[1];
        assert!(lvl.occupancy_words <= 512.0 + 1e-9);
        let _ = mapping;
    }
}

#[test]
fn random_and_exhaustive_agree_on_small_spaces() {
    let layer = spmspm(8, 8, 8, 0.5, 0.5);
    let dp = fig1::bitmask_design(&layer.einsum);
    let model = Model::new(
        Workload::new(layer.einsum.clone(), layer.densities.clone()),
        dp.arch.clone(),
        dp.safs.clone(),
    );
    let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
    let ex = model
        .search(
            &space,
            Mapper::Exhaustive { limit: 100_000 },
            Objective::Edp,
            Exec::Threads(None),
        )
        .0
        .unwrap()
        .1;
    let rnd = model
        .search(
            &space,
            Mapper::Random {
                samples: 4000,
                seed: 9,
            },
            Objective::Edp,
            Exec::Threads(None),
        )
        .0
        .unwrap()
        .1;
    // random sampling should get within 2x of the optimum on this space
    assert!(rnd.edp <= ex.edp * 2.0);
    assert!(ex.edp <= rnd.edp * 1.0001);
}
