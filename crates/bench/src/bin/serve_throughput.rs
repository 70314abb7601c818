//! Serving throughput record: drives the queue-driven evaluation
//! service with (a) every registered scenario and (b) a stream of
//! distinct workloads 3x larger than the session recycling budget, and
//! (c) every scenario through a multi-process worker fleet, then
//! splices a `"serve"` row — requests/sec, mappings/sec, recycling
//! evidence — a `"serve_multiproc"` row (fleet throughput through
//! real worker processes), and a `"serve_fleet_pooled"` row (long-lived
//! prewarmed pool vs tearing a fleet up and down per request) into
//! `BENCH_mapper.json` next to the search-throughput records written
//! by `table5_modeling_speed`.

use sparseloop_bench::{fnum, timed};
use sparseloop_core::{EvalJob, JobPlan, Objective, Workload};
use sparseloop_designs::ScenarioRegistry;
use sparseloop_mapping::{Exec, Mapper, Mapspace};
use sparseloop_serve::{
    EvalService, FleetPool, FleetPoolConfig, HostConfig, ProcessSpawner, ServeConfig, ServeRequest,
    ShardHost,
};
use sparseloop_workloads::spmspm;
use std::time::Duration;

/// Spec requests pushed through each arm of the pooled-vs-spawn phase.
const POOL_REQUESTS: usize = 8;

/// Intern-slot budget for the recycling phase.
const SLOT_BUDGET: usize = 24;
/// Distinct workloads pushed through the recycling phase (>= 3x the
/// budget, so the session must recycle several times).
const DISTINCT_WORKLOADS: usize = 3 * SLOT_BUDGET;

/// A search job over a unique workload statistic (distinct density per
/// index), so every job interns fresh session slots.
fn distinct_job(i: usize) -> EvalJob {
    let d = 0.05 + 0.9 * (i as f64) / (DISTINCT_WORKLOADS as f64);
    let layer = spmspm(16, 16, 16, d, d);
    let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
    let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
    EvalJob {
        workload: Workload::new(layer.einsum.clone(), layer.densities.clone()),
        arch: dp.arch.clone(),
        safs: dp.safs.clone(),
        plan: JobPlan::Search {
            space,
            mapper: Mapper::Exhaustive { limit: 400 },
            objective: Objective::Edp,
        },
    }
}

fn main() {
    // `--metrics-snapshot <path>`: run the service and the fleet
    // observed (one shared hub) and dump the final snapshot; without
    // the flag, the measured rows stay instrumentation-free
    let snapshot_path = sparseloop_bench::metrics_snapshot_arg();
    let hub = snapshot_path
        .as_ref()
        .map(|_| sparseloop_obs::ObsHub::new());
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 4);
    let shards = 2usize;
    let registry = ScenarioRegistry::standard();
    let names: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();

    // -- phase 1: scenario throughput through the queue --
    println!(
        "== serve throughput: {} scenarios, {workers} workers, {shards} shards ==",
        names.len()
    );
    let service = EvalService::start_with_registry_and_hub(
        ServeConfig::default()
            .with_workers(workers)
            .with_shards(shards)
            .with_queue_capacity(names.len().max(1)),
        ScenarioRegistry::standard(),
        hub.clone(),
    );
    let mut experiments = 0usize;
    let mut generated = 0usize;
    let (_, wall_s) = timed(|| {
        let tickets: Vec<_> = names
            .iter()
            .map(|n| {
                service
                    .submit_blocking(ServeRequest::Scenario(n.clone()))
                    .expect("admission")
            })
            .collect();
        for t in tickets {
            let reply = t.wait().expect("scenario reply").into_scenario();
            experiments += reply.results.len();
            generated += sparseloop_bench::results_generated(&reply.results);
        }
    });
    // refresh the session/queue gauges into the shared hub before the
    // service goes away (the rendered snapshot reflects end-of-phase)
    let _ = service.metrics_snapshot();
    let stats = service.shutdown();
    let requests_per_sec = names.len() as f64 / wall_s.max(1e-12);
    let mappings_per_sec = generated as f64 / wall_s.max(1e-12);
    println!(
        "{} requests ({experiments} experiments) in {:.3}s: {} requests/s, {} mappings/s",
        names.len(),
        wall_s,
        fnum(requests_per_sec),
        fnum(mappings_per_sec)
    );
    println!(
        "queue: {} submitted, {} completed, peak {} intern slots",
        stats.submitted, stats.completed, stats.peak_slots
    );

    // -- phase 2: session recycling under a slot budget --
    println!(
        "\n== recycling: {DISTINCT_WORKLOADS} distinct workloads, budget {SLOT_BUDGET} slots =="
    );
    let recycler = EvalService::start(
        ServeConfig::default()
            .with_workers(workers)
            .with_shards(shards)
            .with_queue_capacity(16)
            .with_recycle_slot_budget(SLOT_BUDGET),
    );
    let (_, recycle_wall_s) = timed(|| {
        let tickets: Vec<_> = (0..DISTINCT_WORKLOADS)
            .map(|i| {
                recycler
                    .submit_blocking(ServeRequest::Job(Box::new(distinct_job(i))))
                    .expect("admission")
            })
            .collect();
        for t in tickets {
            t.wait().expect("job reply").into_job().expect("job result");
        }
    });
    let recycle_stats = recycler.shutdown();
    println!(
        "{} recycles, peak {} slots (budget {SLOT_BUDGET}), live session {} slots, {:.3}s",
        recycle_stats.recycles,
        recycle_stats.peak_slots,
        recycle_stats.session_slots,
        recycle_wall_s
    );
    assert!(
        recycle_stats.recycles >= 2,
        "3x-budget distinct workloads must recycle the session repeatedly"
    );

    // -- phase 3: worker evaluation-pipeline delta --
    // the same batch of jobs through one shared session, scored by the
    // from-scratch reference pipeline vs the incremental worker pipeline
    // the serve workers actually run (bit-identical results; the cost
    // difference is the scratch-arena + prefix-caching win per worker)
    println!("\n== worker pipeline delta (sequential batch, shared session) ==");
    let jobs: Vec<EvalJob> = (0..8).map(distinct_job).collect();
    let session = sparseloop_core::EvalSession::new();
    let _ = session.search_batch(&jobs, Exec::Threads(Some(1)), None); // warm shared caches
    let (ref_results, ref_wall_s) = timed(|| session.search_batch_from_scratch(&jobs, Some(1)));
    let (inc_results, inc_wall_s) =
        timed(|| session.search_batch(&jobs, Exec::Threads(Some(1)), None));
    for (a, b) in ref_results.iter().zip(&inc_results) {
        let (a, b) = (a.as_ref().expect("job ok"), b.as_ref().expect("job ok"));
        assert_eq!(a.mapping, b.mapping, "pipeline parity");
        assert_eq!(a.eval.edp, b.eval.edp, "pipeline parity");
    }
    let pipeline_generated = sparseloop_bench::results_generated(&inc_results);
    let pipeline_ref_mps = pipeline_generated as f64 / ref_wall_s.max(1e-12);
    let pipeline_inc_mps = pipeline_generated as f64 / inc_wall_s.max(1e-12);
    println!(
        "{} candidates: {} -> {} mappings/s ({:.2}x)",
        pipeline_generated,
        fnum(pipeline_ref_mps),
        fnum(pipeline_inc_mps),
        pipeline_inc_mps / pipeline_ref_mps.max(1e-12)
    );

    // -- phase 4: multi-process fleet throughput --
    // the same scenario set through real worker processes under the
    // supervision tree — records what the process boundary (frame
    // codec, per-request spec compile in each worker, heartbeats)
    // costs relative to the in-process service above
    let worker = sparseloop_bench::shard_worker_bin().expect(
        "sparseloop-shard-worker not found next to this binary \
         (build it with `cargo build --bin sparseloop-shard-worker`)",
    );
    println!("\n== multi-process fleet: {shards} shards, real workers ==");
    let host_config = HostConfig::default()
        .with_shards(shards)
        .with_heartbeat(20, Duration::from_millis(1000))
        .with_retries(2, Duration::from_millis(5));
    let mut host = match &hub {
        Some(hub) => {
            ShardHost::new_observed(host_config, ProcessSpawner::new(&worker), hub.clone())
        }
        None => ShardHost::new(host_config, ProcessSpawner::new(&worker)),
    };
    let mut mp_generated = 0usize;
    let (_, mp_wall_s) = timed(|| {
        for scenario in registry.scenarios() {
            let reply = host.run_scenario(scenario).expect("fleet serves scenario");
            mp_generated += sparseloop_bench::results_generated(&reply.results);
        }
    });
    let host_stats = host.stats();
    drop(host);
    assert_eq!(
        host_stats.degraded, 0,
        "fleet must not fall back in-process"
    );
    assert_eq!(
        host_stats.restarts, 0,
        "no worker may die under a clean run"
    );
    let mp_requests_per_sec = names.len() as f64 / mp_wall_s.max(1e-12);
    let mp_mappings_per_sec = mp_generated as f64 / mp_wall_s.max(1e-12);
    println!(
        "{} requests in {:.3}s: {} requests/s, {} mappings/s ({} spawns, {} frames)",
        names.len(),
        mp_wall_s,
        fnum(mp_requests_per_sec),
        fnum(mp_mappings_per_sec),
        host_stats.spawns,
        host_stats.frames_received,
    );

    // -- phase 5: pooled fleet vs per-request spawn --
    // the same spec request stream served (a) by tearing a fresh fleet
    // up and down around every request — spawn, handshake, request,
    // kill — and (b) through one long-lived FleetPool that prewarns
    // its workers once and reuses them; the delta is what pooling
    // amortises (process spawn + prewarm handshake per request)
    println!("\n== pooled fleet vs per-request spawn: {POOL_REQUESTS} spec requests ==");
    let pool_text = sparseloop_bench::pool_delta_spec();
    let pool_host_config = HostConfig::default()
        .with_shards(shards)
        .with_heartbeat(20, Duration::from_millis(1000));
    let (_, spawn_wall_s) = timed(|| {
        for _ in 0..POOL_REQUESTS {
            let mut host = ShardHost::new(pool_host_config.clone(), ProcessSpawner::new(&worker));
            let reply = host.run_spec(&pool_text).expect("per-request host serves");
            assert!(reply.results.iter().all(|r| r.is_ok()), "clean replies");
        }
    });
    let pool = FleetPool::processes(
        FleetPoolConfig::default()
            .with_hosts(1)
            .with_host_config(pool_host_config),
        &worker,
    );
    let (_, pooled_wall_s) = timed(|| {
        for _ in 0..POOL_REQUESTS {
            let reply = pool.run_spec(&pool_text).expect("pool serves");
            assert!(reply.results.iter().all(|r| r.is_ok()), "clean replies");
        }
    });
    let pool_stats = pool.stats();
    let pool_host_stats = pool.host_stats();
    pool.shutdown();
    let spawn_rps = POOL_REQUESTS as f64 / spawn_wall_s.max(1e-12);
    let pooled_rps = POOL_REQUESTS as f64 / pooled_wall_s.max(1e-12);
    let pool_speedup = pooled_rps / spawn_rps.max(1e-12);
    println!(
        "per-request spawn: {} requests/s ({} spawns); pooled: {} requests/s \
         ({} spawns, {} checkouts) — {:.2}x",
        fnum(spawn_rps),
        POOL_REQUESTS * shards,
        fnum(pooled_rps),
        pool_host_stats.spawns,
        pool_stats.checkouts,
        pool_speedup,
    );
    assert_eq!(
        pool_host_stats.degraded, 0,
        "pooled fleet must not fall back in-process"
    );

    // -- record --
    let serve_json = format!(
        concat!(
            "\"serve\": {{\n",
            "    \"workers\": {},\n",
            "    \"shards\": {},\n",
            "    \"scenario_requests\": {},\n",
            "    \"experiments\": {},\n",
            "    \"wall_time_s\": {:.6},\n",
            "    \"requests_per_sec\": {:.2},\n",
            "    \"mappings_per_sec\": {:.1},\n",
            "    \"worker_pipeline\": {{\n",
            "      \"candidates\": {},\n",
            "      \"from_scratch_mappings_per_sec\": {:.1},\n",
            "      \"incremental_mappings_per_sec\": {:.1},\n",
            "      \"speedup\": {:.3}\n",
            "    }},\n",
            "    \"recycling\": {{\n",
            "      \"slot_budget\": {},\n",
            "      \"distinct_workloads\": {},\n",
            "      \"recycles\": {},\n",
            "      \"peak_slots\": {},\n",
            "      \"final_session_slots\": {},\n",
            "      \"wall_time_s\": {:.6}\n",
            "    }}\n",
            "  }},\n",
            "  \"serve_multiproc\": {{\n",
            "    \"shards\": {},\n",
            "    \"scenario_requests\": {},\n",
            "    \"wall_time_s\": {:.6},\n",
            "    \"requests_per_sec\": {:.2},\n",
            "    \"mappings_per_sec\": {:.1},\n",
            "    \"worker_spawns\": {},\n",
            "    \"frames_received\": {}\n",
            "  }},\n",
            "  \"serve_fleet_pooled\": {{\n",
            "    \"shards\": {},\n",
            "    \"spec_requests\": {},\n",
            "    \"per_request_spawn_requests_per_sec\": {:.2},\n",
            "    \"pooled_requests_per_sec\": {:.2},\n",
            "    \"pooled_speedup\": {:.3},\n",
            "    \"pooled_worker_spawns\": {},\n",
            "    \"per_request_worker_spawns\": {}\n",
            "  }}"
        ),
        workers,
        shards,
        names.len(),
        experiments,
        wall_s,
        requests_per_sec,
        mappings_per_sec,
        pipeline_generated,
        pipeline_ref_mps,
        pipeline_inc_mps,
        pipeline_inc_mps / pipeline_ref_mps.max(1e-12),
        SLOT_BUDGET,
        DISTINCT_WORKLOADS,
        recycle_stats.recycles,
        recycle_stats.peak_slots,
        recycle_stats.session_slots,
        recycle_wall_s,
        shards,
        names.len(),
        mp_wall_s,
        mp_requests_per_sec,
        mp_mappings_per_sec,
        host_stats.spawns,
        host_stats.frames_received,
        shards,
        POOL_REQUESTS,
        spawn_rps,
        pooled_rps,
        pool_speedup,
        pool_host_stats.spawns,
        POOL_REQUESTS * shards,
    );
    let path = "BENCH_mapper.json";
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => splice_serve_row(&existing, &serve_json),
        Err(_) => format!("{{\n  {serve_json}\n}}\n"),
    };
    std::fs::write(path, merged).expect("write BENCH_mapper.json");
    println!("\nwrote serve + serve_multiproc + serve_fleet_pooled throughput rows into {path}");

    if let (Some(path), Some(hub)) = (&snapshot_path, &hub) {
        sparseloop_bench::write_metrics_snapshot(path, &hub.snapshot());
    }
}

/// Splices the serve rows (`"serve"`, `"serve_multiproc"`, and
/// `"serve_fleet_pooled"`, written as one chunk) into an existing
/// `BENCH_mapper.json`: replaces the
/// previous rows if present (idempotent reruns), otherwise inserts
/// before the final closing brace.
fn splice_serve_row(existing: &str, serve_json: &str) -> String {
    let trimmed = existing.trim_end();
    let body = trimmed
        .strip_suffix('}')
        .expect("BENCH_mapper.json must be a JSON object");
    let body = match body.find("\"serve\":") {
        // drop everything from a previous serve row onward (the serve
        // rows are always the last keys this tool writes)
        Some(at) => body[..at].trim_end().trim_end_matches(','),
        None => body.trim_end(),
    };
    if body.trim() == "{" {
        // the serve row is the object's only key: no separating comma
        format!("{{\n  {serve_json}\n}}\n")
    } else {
        format!("{body},\n  {serve_json}\n}}\n")
    }
}
