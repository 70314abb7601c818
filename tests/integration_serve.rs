//! Serving-layer integration: results that flow through the
//! queue-driven service — sharded search, shared long-lived session,
//! concurrent workers — must be bit-identical to a direct
//! `Model::search`, and the session recycling policy must actually
//! bound the intern maps.

use sparseloop_core::{EvalJob, EvalSession, JobPlan, Model, Objective, Workload};
use sparseloop_designs::{MappingPolicy, ScenarioRegistry};
use sparseloop_mapping::{Exec, Mapper, Mapspace};
use sparseloop_serve::{EvalService, ServeConfig, ServeRequest, Ticket};
use sparseloop_workloads::spmspm;

/// Debug-mode scenario subset: small enough to keep `cargo test` fast,
/// covering fixed mappings (fig1, table7) and hybrid searches (table6).
/// The full registry is parity-checked in release by `serve_smoke`.
const SCENARIOS: [&str; 3] = [
    "fig1_format_tradeoff",
    "table6_validation_summary",
    "table7_eyeriss_rlc",
];

fn search_job(size: u64, density: f64, limit: usize) -> EvalJob {
    let layer = spmspm(size, size, size, density, density);
    let dp = sparseloop_designs::fig1::coordinate_list_design(&layer.einsum);
    let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
    EvalJob {
        workload: Workload::new(layer.einsum.clone(), layer.densities.clone()),
        arch: dp.arch.clone(),
        safs: dp.safs.clone(),
        plan: JobPlan::Search {
            space,
            mapper: Mapper::Exhaustive { limit },
            objective: Objective::Edp,
        },
    }
}

#[test]
fn search_sharded_matches_search_parallel_for_scenario_experiments() {
    // direct API parity on real registry experiments, at several shard
    // counts — including experiments whose mapper limit truncates the
    // space (the census path)
    let registry = ScenarioRegistry::standard();
    for name in SCENARIOS {
        let scenario = registry.expect(name);
        for exp in scenario.experiments().iter().take(4) {
            let MappingPolicy::Search {
                space,
                mapper,
                objective,
            } = &exp.policy
            else {
                continue;
            };
            let job = exp.job();
            let model = Model::new(job.workload, job.arch, job.safs);
            let (reference, ref_stats) =
                model.search(space, *mapper, *objective, Exec::Threads(Some(1)));
            for exec in [
                Exec::Threads(Some(2)),
                Exec::Shards(1),
                Exec::Shards(2),
                Exec::Shards(3),
                Exec::Shards(7),
            ] {
                let (got, stats) = model.search(space, *mapper, *objective, exec);
                let tag = format!("{name}/{} {exec:?}", exp.label);
                match (&got, &reference) {
                    (Some((mapping, eval)), Some((ref_mapping, ref_eval))) => {
                        assert_eq!(mapping, ref_mapping, "{tag}");
                        assert_eq!(eval.edp.to_bits(), ref_eval.edp.to_bits(), "{tag}");
                        assert_eq!(eval.cycles.to_bits(), ref_eval.cycles.to_bits(), "{tag}");
                        assert_eq!(
                            eval.energy_pj.to_bits(),
                            ref_eval.energy_pj.to_bits(),
                            "{tag}"
                        );
                        assert_eq!(stats, ref_stats, "{tag}");
                    }
                    (None, None) => {}
                    other => panic!("{tag}: modes disagree on validity: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn served_scenarios_match_direct_run_across_workers_and_shards() {
    let registry = ScenarioRegistry::standard();
    let session = EvalSession::new();
    let reference: Vec<_> = SCENARIOS
        .iter()
        .map(|name| registry.expect(name).run(&session, Some(2)))
        .collect();
    for (workers, shards) in [(2, 2), (3, 3)] {
        let service = EvalService::start(
            ServeConfig::default()
                .with_workers(workers)
                .with_shards(shards),
        );
        let tickets: Vec<Ticket> = SCENARIOS
            .iter()
            .map(|name| service.submit_scenario(*name).unwrap())
            .collect();
        for (ticket, direct) in tickets.into_iter().zip(&reference) {
            let reply = ticket.wait().unwrap().into_scenario();
            assert_eq!(reply.results.len(), direct.results.len());
            for (label, (served, reference)) in reply
                .labels
                .iter()
                .zip(reply.results.iter().zip(&direct.results))
            {
                let (served, reference) = (served.as_ref().unwrap(), reference.as_ref().unwrap());
                assert_eq!(
                    served.mapping, reference.mapping,
                    "{label} at {workers}w/{shards}s"
                );
                assert_eq!(served.eval.edp, reference.eval.edp, "{label}");
                assert_eq!(served.eval.cycles, reference.eval.cycles, "{label}");
                assert_eq!(served.eval.energy_pj, reference.eval.energy_pj, "{label}");
                assert_eq!(served.stats, reference.stats, "{label}");
            }
        }
        service.shutdown();
    }
}

#[test]
fn recycling_bounds_intern_slots_across_3x_budget_distinct_workloads() {
    // how many slots one of these jobs interns into a fresh session
    let per_job_slots = {
        let session = EvalSession::new();
        session
            .search_batch(&[search_job(8, 0.314, 200)], Exec::Threads(None), None)
            .pop()
            .unwrap()
            .unwrap();
        let s = session.stats();
        s.density_models + s.format_slots
    };
    assert!(per_job_slots > 0, "the probe job must intern something");

    let budget = 3 * per_job_slots;
    let distinct = 3 * budget; // >= 3x budget distinct workloads
    let service = EvalService::start(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(8)
            .with_recycle_slot_budget(budget),
    );
    for i in 0..distinct {
        // a unique density per job: every workload interns fresh slots
        let d = 0.05 + 0.9 * (i as f64) / (distinct as f64);
        let ticket = service
            .submit_blocking(ServeRequest::Job(Box::new(search_job(8, d, 200))))
            .unwrap();
        ticket.wait().unwrap().into_job().unwrap();
    }
    let stats = service.shutdown();
    assert!(
        stats.recycles >= 2,
        "{distinct} distinct workloads against a {budget}-slot budget recycled only {} times",
        stats.recycles
    );
    // the recycle check runs after each request, so the high-water mark
    // can exceed the budget by at most the batch of jobs in flight —
    // with 2 workers, two jobs' worth of interning
    assert!(
        stats.peak_slots < (budget + 2 * per_job_slots) as u64,
        "peak {} slots vs budget {budget} (+{per_job_slots}/job)",
        stats.peak_slots
    );
    assert!(
        stats.session_slots <= budget + 2 * per_job_slots,
        "live session kept {} slots",
        stats.session_slots
    );

    // contrast: without recycling the same stream grows without bound
    let unbounded = EvalService::start(ServeConfig::default().with_workers(2));
    for i in 0..distinct {
        let d = 0.05 + 0.9 * (i as f64) / (distinct as f64);
        let ticket = unbounded
            .submit_blocking(ServeRequest::Job(Box::new(search_job(8, d, 200))))
            .unwrap();
        ticket.wait().unwrap().into_job().unwrap();
    }
    let unbounded_stats = unbounded.shutdown();
    assert!(
        unbounded_stats.session_slots > budget,
        "without a budget the session should outgrow it ({} slots)",
        unbounded_stats.session_slots
    );
    assert_eq!(unbounded_stats.recycles, 0);
}

#[test]
fn service_backpressure_and_recovery_roundtrip() {
    // a queue-capacity service refuses overflow but keeps serving what
    // it admitted
    let service = EvalService::start(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
    );
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for i in 0..12 {
        match service.submit_job(search_job(8, 0.1 + 0.05 * i as f64, 2000)) {
            Ok(t) => accepted.push(t),
            Err(sparseloop_serve::SubmitError::QueueFull { depth, capacity }) => {
                assert_eq!(capacity, 2);
                assert_eq!(depth, 2, "refusal must report a full queue");
                rejected += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert_eq!(accepted.len() + rejected, 12);
    for t in accepted {
        t.wait().unwrap().into_job().unwrap();
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.completed, stats.submitted);
}
