//! # sparseloop-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see `DESIGN.md` §2 for the index and `EXPERIMENTS.md` for
//! recorded results), plus Criterion micro-benchmarks.
//!
//! Run an experiment with e.g.
//! `cargo run --release -p sparseloop-bench --bin fig01_format_tradeoff`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparseloop_core::{Model, Workload};
use sparseloop_mapping::{Mapper, Mapspace};
use sparseloop_tensor::einsum::TensorKind;
use sparseloop_tensor::{point::Shape, SparseTensor};
use sparseloop_workloads::Layer;
use std::time::Instant;

/// Nominal host clock used to convert wall time into "host cycles" for
/// the computes-per-host-cycle (CPHC) metric of Table 5. The paper's
/// metric is a ratio of simulated computes to host cycles; the *contrast*
/// between the analytical model and the per-element baseline is
/// frequency-independent.
pub const NOMINAL_HOST_HZ: f64 = 3.0e9;

/// Prints a table header row followed by a separator.
pub fn header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", line.join(" "));
    println!("{}", "-".repeat(17 * cols.len()));
}

/// Prints one row with 16-char right-aligned cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float compactly.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Relative error in percent.
pub fn rel_err_pct(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        (measured - reference).abs() / reference.abs() * 100.0
    }
}

/// Times a closure and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Computes-per-host-cycle from a compute count and wall seconds.
pub fn cphc(computes: f64, seconds: f64) -> f64 {
    computes / (seconds.max(1e-12) * NOMINAL_HOST_HZ)
}

/// Locates the `sparseloop-shard-worker` executable for the harness
/// binaries that spawn real worker processes: `SPARSELOOP_WORKER_BIN`
/// if set, otherwise the sibling of the current executable (cargo
/// places every workspace binary in the same profile directory).
/// `None` when neither exists — callers decide whether that skips the
/// phase or fails the run.
pub fn shard_worker_bin() -> Option<std::path::PathBuf> {
    if let Ok(path) = std::env::var("SPARSELOOP_WORKER_BIN") {
        return Some(std::path::PathBuf::from(path));
    }
    let sibling = std::env::current_exe()
        .ok()?
        .parent()?
        .join("sparseloop-shard-worker");
    sibling.exists().then_some(sibling)
}

/// Candidates drawn from the mapspace streams across a batch of job
/// results — fruitless searches included (their streams were walked
/// too), failed fixed-mapping evaluations excluded (nothing streamed).
/// Shared by the serving binaries' throughput accounting.
pub fn results_generated(
    results: &[Result<sparseloop_core::JobOutcome, sparseloop_core::JobError>],
) -> usize {
    results
        .iter()
        .map(|r| match r {
            Ok(o) => o.stats.generated,
            Err(sparseloop_core::JobError::NoValidCandidate { stats }) => stats.generated,
            Err(sparseloop_core::JobError::Eval(_)) | Err(sparseloop_core::JobError::Canceled) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_basics() {
        assert!((rel_err_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(rel_err_pct(0.0, 0.0), 0.0);
        assert_eq!(rel_err_pct(1.0, 0.0), 100.0);
    }

    #[test]
    fn cphc_scales() {
        let fast = cphc(1e9, 0.001);
        let slow = cphc(1e9, 1.0);
        assert!((fast / slow - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn fnum_forms() {
        assert_eq!(fnum(0.0), "0");
        assert!(fnum(1234567.0).contains('e'));
        assert_eq!(fnum(1.5), "1.500");
    }
}

/// Concrete random tensors matching a layer's statistical density specs
/// (inputs drawn uniformly at the spec's nominal density, outputs
/// empty), for driving the per-element reference simulator against the
/// analytical model. Shared by every validation binary.
pub fn concrete_tensors(layer: &Layer, seed: u64) -> Vec<SparseTensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    layer
        .einsum
        .tensors()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let shape = Shape::new(
                layer
                    .einsum
                    .tensor_shape(sparseloop_tensor::einsum::TensorId(i)),
            );
            if spec.kind == TensorKind::Output {
                SparseTensor::from_triplets(shape, &[])
            } else {
                let d = layer.densities[i].nominal_density(shape.extents());
                SparseTensor::gen_uniform(shape, d, &mut rng)
            }
        })
        .collect()
}

/// The fixed capacity-constrained search scenario used by both the
/// `bench_mapper` criterion benches and the `BENCH_mapper.json` record
/// written by `table5_modeling_speed` — one definition so the tracked
/// throughput trajectory always measures the same thing.
///
/// spMspM 64x64x64 at 50% density on the Fig. 1 bitmask design with the
/// buffer shrunk to 1024 words (a realistic on-chip size, so tiling
/// actually fights for capacity and the precheck has work to do).
pub fn tight_search_scenario() -> (Model, Mapspace, Mapper) {
    let layer = sparseloop_workloads::spmspm(64, 64, 64, 0.5, 0.5);
    let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
    let mut levels = dp.arch.levels().to_vec();
    levels[1].capacity_words = Some(1024);
    let arch = sparseloop_arch::Architecture::new("tight", levels, dp.arch.compute().clone());
    let model = Model::new(
        Workload::new(layer.einsum.clone(), layer.densities.clone()),
        arch.clone(),
        dp.safs.clone(),
    );
    let space = Mapspace::all_temporal(&layer.einsum, &arch);
    (model, space, Mapper::Exhaustive { limit: 4000 })
}

/// Candidate-scoring throughput of one scenario through the pruned
/// sequential evaluation pipeline, measured both ways: the from-scratch
/// reference (stateless, allocating — the pre-arena behavior) and the
/// incremental worker pipeline (scratch arenas + prefix caching).
///
/// The candidate streams are materialized first (with their change
/// depths), so the comparison isolates exactly what the arenas
/// optimize: per-candidate `precheck` + dense→sparse→uarch scoring. The
/// two pipelines are bit-identical in results (property-tested in
/// `sparseloop-core`); only their cost differs.
pub struct EvalDelta {
    /// Scenario name.
    pub name: String,
    /// Candidates scored per pipeline.
    pub candidates: usize,
    /// From-scratch pipeline throughput (mappings/sec).
    pub from_scratch_mps: f64,
    /// Incremental pipeline throughput (mappings/sec).
    pub incremental_mps: f64,
}

impl EvalDelta {
    /// `incremental / from_scratch` throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.incremental_mps / self.from_scratch_mps.max(1e-12)
    }
}

/// Measures [`EvalDelta`] for one registered scenario (best of `reps`
/// timings per pipeline; search experiments only).
pub fn measure_eval_delta(scenario: &sparseloop_designs::Scenario, reps: usize) -> EvalDelta {
    use sparseloop_core::{EvalSession, JobPlan};
    use sparseloop_mapping::CandidateEvaluator;

    let session = EvalSession::new();
    // (model, objective, delta-tagged candidates) per search experiment
    let mut work = Vec::new();
    for exp in &scenario.experiments() {
        let job = exp.job();
        if let JobPlan::Search {
            space,
            mapper,
            objective,
        } = &job.plan
        {
            let model = session.model(job.workload.clone(), job.arch.clone(), job.safs.clone());
            let candidates: Vec<_> = mapper.delta_candidates(space).collect();
            work.push((model, *objective, candidates));
        }
    }
    let candidates: usize = work.iter().map(|(_, _, c)| c.len()).sum();
    // warm the shared format/density caches once so both pipelines see
    // steady-state memo behavior
    for (model, objective, cands) in &work {
        let evaluator = model.evaluator(*objective);
        for (_, m) in cands {
            if evaluator.precheck(m) {
                std::hint::black_box(evaluator.evaluate(m));
            }
        }
    }
    let run = |from_scratch: bool| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..reps.max(1) {
            let (_, secs) = timed(|| {
                for (model, objective, cands) in &work {
                    let (reference, incremental);
                    let mut worker = if from_scratch {
                        reference = model.evaluator_from_scratch(*objective);
                        reference.worker()
                    } else {
                        incremental = model.evaluator(*objective);
                        incremental.worker()
                    };
                    for (depth, m) in cands {
                        if worker.precheck(m, *depth) {
                            std::hint::black_box(worker.evaluate(m, *depth));
                        }
                    }
                }
            });
            best = best.min(secs);
        }
        candidates as f64 / best.max(1e-12)
    };
    let from_scratch_mps = run(true);
    let incremental_mps = run(false);
    EvalDelta {
        name: scenario.name().to_string(),
        candidates,
        from_scratch_mps,
        incremental_mps,
    }
}

/// The spec text both arms of the pooled-vs-spawn comparison serve
/// (in `serve_throughput`, which writes the `serve_fleet_pooled`
/// baseline row, and in `throughput_gate`, which re-measures it): a
/// deliberately small search, so the per-request process spawn and
/// prewarm handshake — the cost pooling amortises — dominate the
/// request instead of the search itself.
pub fn pool_delta_spec() -> String {
    let scenario = sparseloop_designs::Scenario::new(
        "pool_delta",
        "small search for the pooled-vs-spawn comparison",
        || {
            let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
            vec![sparseloop_designs::Experiment::search(
                "pool@search",
                dp,
                layer,
                space,
            )]
        },
    );
    sparseloop_spec::emit_scenario(&scenario)
}

/// Parses `--metrics-snapshot <path>` out of the process arguments —
/// the shared flag the serving harness binaries use to dump their final
/// metrics snapshot as Prometheus-style text. `None` when absent; a
/// missing path value fails the run (a silent no-op would be worse).
pub fn metrics_snapshot_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics-snapshot" {
            match args.next() {
                Some(path) => return Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("--metrics-snapshot requires a path argument");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Writes a metrics snapshot as Prometheus-style text, failing the run
/// on I/O errors (harness binaries treat an unwritable snapshot as a
/// broken contract, not a warning).
pub fn write_metrics_snapshot(path: &std::path::Path, snap: &sparseloop_obs::MetricsSnapshot) {
    if let Err(e) = std::fs::write(path, snap.render_text()) {
        eprintln!("failed to write metrics snapshot {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("metrics snapshot written to {}", path.display());
}

/// A/B measurement of the serving layer's instrumentation cost: the
/// same request batch through an uninstrumented
/// [`EvalService`](sparseloop_serve::EvalService) and an
/// observed one (fresh [`ObsHub`](sparseloop_obs::ObsHub) per sample).
pub struct MetricsOverhead {
    /// Requests served per sample.
    pub requests: usize,
    /// Uninstrumented throughput (requests/sec, median sample).
    pub baseline_rps: f64,
    /// Instrumented throughput (requests/sec, median sample).
    pub observed_rps: f64,
    /// Median over the interleaved pairs of observed / baseline wall
    /// time.
    pub paired_ratio: f64,
}

impl MetricsOverhead {
    /// Instrumentation overhead in percent, from the median paired
    /// ratio (negative when the observed side happened to be faster —
    /// noise on a near-zero cost).
    pub fn overhead_pct(&self) -> f64 {
        (self.paired_ratio - 1.0) * 100.0
    }
}

/// Measures [`MetricsOverhead`] by serving `requests` small search jobs
/// through both service variants, one sample of each per rep. The jobs
/// repeat one workload, so session caches stay hot and the serve-layer
/// cost (queue, counters, metrics) dominates — the *conservative*
/// direction for an overhead gate.
///
/// The two samples of a rep run back to back, and the side that goes
/// first alternates: drift on the machine then hits both sides of a
/// pair alike, the per-pair ratio cancels it, and the median over
/// pairs ignores a pair a noise burst landed on. Size `requests` so
/// one sample takes at least ~50 ms; shorter samples make the verdict
/// swing with scheduler noise.
pub fn measure_metrics_overhead(requests: usize, reps: usize) -> MetricsOverhead {
    use sparseloop_core::{EvalJob, JobPlan, Objective};
    use sparseloop_serve::{EvalService, ServeConfig, ServeRequest};

    let job = || -> EvalJob {
        let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
        let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        EvalJob {
            workload: Workload::new(layer.einsum.clone(), layer.densities.clone()),
            arch: dp.arch,
            safs: dp.safs,
            plan: JobPlan::Search {
                space,
                mapper: Mapper::Exhaustive { limit: 200 },
                objective: Objective::Edp,
            },
        }
    };
    let config = ServeConfig::default()
        .with_workers(2)
        .with_queue_capacity(64);
    let sample = |observed: bool| -> f64 {
        let service = if observed {
            EvalService::start_observed(config, sparseloop_obs::ObsHub::new())
        } else {
            EvalService::start(config)
        };
        let (_, secs) = timed(|| {
            let tickets: Vec<_> = (0..requests)
                .map(|_| {
                    service
                        .submit_blocking(ServeRequest::Job(Box::new(job())))
                        .expect("service accepting")
                })
                .collect();
            for t in tickets {
                t.wait()
                    .expect("request resolves")
                    .into_job()
                    .expect("job ok");
            }
        });
        service.shutdown();
        secs
    };
    // wall seconds per rep, indexed by `observed`
    let pairs: Vec<[f64; 2]> = (0..reps.max(1))
        .map(|rep| {
            let observed_first = rep % 2 == 1;
            let mut pair = [0.0; 2];
            for observed in [observed_first, !observed_first] {
                pair[usize::from(observed)] = sample(observed).max(1e-12);
            }
            pair
        })
        .collect();
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    MetricsOverhead {
        requests,
        baseline_rps: requests as f64 / median(pairs.iter().map(|p| p[0]).collect()),
        observed_rps: requests as f64 / median(pairs.iter().map(|p| p[1]).collect()),
        paired_ratio: median(pairs.iter().map(|p| p[1] / p[0]).collect()),
    }
}

#[cfg(test)]
mod scenario_tests {
    use super::*;

    #[test]
    fn tight_scenario_prunes_candidates() {
        let (model, space, mapper) = tight_search_scenario();
        let objective = sparseloop_core::Objective::Edp;
        let sequential = sparseloop_mapping::Exec::Threads(Some(1));
        let (best, stats) = model.search(&space, mapper, objective, sequential);
        assert!(best.is_some(), "scenario must contain valid mappings");
        assert!(stats.pruned > 0, "the tight buffer must reject some tiles");
        assert!(stats.evaluated > 0);
    }
}
