//! The traced runs: the same requests as the end-to-end runs, replayed
//! layer by layer through each layer's public calls, with a span around
//! every call.
//!
//! Every replayed request must reproduce its reference outcome exactly
//! (winner, `Evaluation` bits, `SearchStats`), so the per-layer figures
//! describe the same program the end-to-end run measured. Each pass
//! replays the whole corpus twice, once recording spans and once with a
//! disabled recorder; the ratio of the two is the tracing overhead.
//! Every pass visits the corpus in the one order the seed picks, so the
//! program's thread-local arenas see the same sequence each time.
//! Figures are medians over passes; counts must repeat exactly from pass
//! to pass.

use crate::corpus::{self, pass_order};
use crate::e2e::{self, spec_reference, Fleet};
use crate::report::{ratio, Outcome, PER_LAYER};
use crate::spans::{layer_totals, write_tsv, Layer, LayerTotal, Recorder, SpanId};
use crate::{shard_worker_bin, stats, Args, Workload};
use sparseloop_core::{EvalJob, EvalSession, JobError, JobOutcome, JobPlan};
use sparseloop_designs::{Scenario, ScenarioOutcome, ScenarioRegistry};
use sparseloop_mapping::{merge_shard_results, Mapper, Mapping, SearchStats};
use sparseloop_obs::ObsHub;
use sparseloop_serve::protocol::{decode_payload, encode_payload, ExpResult};
use sparseloop_serve::{Frame, ServeReply, ServeRequest};
use sparseloop_spec::outcome_drift;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Where the first traced pass's spans are written, relative to the
/// working directory.
pub const TRACE_DIR: &str = ".bench_trace";

/// Shards of the fleet deployment.
const SHARDS: usize = 2;

/// Figures that are counts of work, or ratios of counts: they must be
/// identical in every pass of a run (and in every run of a seed).
const EXACT: [&str; 8] = [
    "mapping.candidates",
    "mapping.sample_yield",
    "mapping.allocs_per_candidate",
    "core.evaluations",
    "core.pruned_ratio",
    "core.allocs_per_evaluation",
    "core.format_cache_hit_ratio",
    "serve.frames_per_request",
];

/// One pass's figures by metric name.
type Figures = BTreeMap<&'static str, f64>;

/// Runs the workload of `args` traced.
///
/// # Errors
/// When the workload cannot be set up.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut out, passes, spans) = match args.workload {
        Workload::Table5Inproc => inproc(args, &corpus::TABLE5)?,
        Workload::ValidationInproc => inproc(args, &corpus::VALIDATION)?,
        Workload::FleetSpecs => fleet(args)?,
    };
    summarize(&mut out, &passes);
    let path = format!("{TRACE_DIR}/{}-seed{}.tsv", args.workload.name(), args.seed);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write_tsv(&mut w, &spans)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => out.notes.push(format!(
            "{} spans of the first traced pass in {path}",
            spans.len()
        )),
        Err(e) => out.problems.push(format!("cannot write {path}: {e}")),
    }
    out.notes.push(format!("{} traced passes", passes.len()));
    Ok(out)
}

/// Medians over passes of every per-layer metric (0 for a layer the
/// workload does not exercise); flags counts that did not repeat.
fn summarize(out: &mut Outcome, passes: &[Figures]) {
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        if EXACT.contains(&name) && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            out.problems
                .push(format!("{name} differs between passes: {values:?}"));
        }
        out.set(name, stats::median(&values));
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn total(totals: &BTreeMap<Layer, LayerTotal>, layer: Layer) -> LayerTotal {
    totals.get(&layer).copied().unwrap_or_default()
}

/// Work counted while replaying one pass.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    candidates: u64,
    pruned: u64,
    /// Full evaluations inside fleet shards (outside any span).
    shard_evaluations: u64,
    tail_requested: u64,
    tail_accepted: u64,
    format_hits: u64,
    format_queries: u64,
}

impl Counts {
    fn session(&mut self, session: &EvalSession) {
        let f = session.stats().format;
        self.format_hits += f.hits;
        self.format_queries += f.queries();
    }
}

/// Whether and how a job's mapper draws a sample tail: the enumerated
/// prefix's length and the samples requested when the tail runs.
#[derive(Debug, Default, Clone, Copy)]
struct TailPlan {
    prefix: u64,
    requested: u64,
}

impl TailPlan {
    /// Mirrors the candidate stream's rule: a Hybrid tail runs unless
    /// the enumerated prefix covered the whole space.
    fn of(job: &EvalJob) -> TailPlan {
        let JobPlan::Search { space, mapper, .. } = &job.plan else {
            return TailPlan::default();
        };
        match *mapper {
            Mapper::Exhaustive { .. } => TailPlan::default(),
            Mapper::Random { samples, .. } => TailPlan {
                prefix: 0,
                requested: samples as u64,
            },
            Mapper::Hybrid {
                enumerate, samples, ..
            } => {
                let mut prefix = space.iter_enumerate(enumerate);
                let mut len = 0;
                while prefix.next_delta().is_some() {
                    len += 1;
                }
                let covered = enumerate > 0 && prefix.space_exhausted();
                TailPlan {
                    prefix: len,
                    requested: if samples == 0 || covered {
                        0
                    } else {
                        samples as u64
                    },
                }
            }
        }
    }

    fn count(&self, result: &Result<JobOutcome, JobError>, counts: &mut Counts) {
        let generated = match result {
            Ok(o) => o.stats.generated,
            Err(JobError::NoValidCandidate { stats }) => stats.generated,
            Err(_) => 0,
        } as u64;
        if self.requested > 0 {
            counts.tail_requested += self.requested;
            counts.tail_accepted += generated.saturating_sub(self.prefix);
        }
    }
}

/// One job replayed layer by layer: `EvalSession::model`, the drained
/// `Mapper::delta_candidates` stream with a worker's precheck and
/// evaluate in stream order, and the winner's re-evaluation — the same
/// calls, in the same order, as a one-thread `search_batch`.
fn replay_job(
    rec: &mut Recorder,
    parent: Option<SpanId>,
    req: u32,
    session: &EvalSession,
    job: &EvalJob,
    counts: &mut Counts,
) -> Result<JobOutcome, JobError> {
    let model = rec.time(Layer::ModelBuild, parent, req, || {
        session.model(job.workload.clone(), job.arch.clone(), job.safs.clone())
    });
    let (space, mapper, objective) = match &job.plan {
        JobPlan::Fixed(mapping) => {
            return rec
                .time(Layer::Evaluate, parent, req, || model.evaluate(mapping))
                .map(|eval| JobOutcome {
                    mapping: mapping.clone(),
                    eval,
                    stats: SearchStats {
                        generated: 1,
                        evaluated: 1,
                        ..SearchStats::default()
                    },
                })
                .map_err(JobError::Eval);
        }
        JobPlan::Search {
            space,
            mapper,
            objective,
        } => (space, mapper, *objective),
    };
    let search = rec.open(Layer::Search, parent, req);
    let evaluator = model.evaluator(objective);
    let mut worker = sparseloop_mapping::CandidateEvaluator::worker(&evaluator);
    let mut stream = rec.time(Layer::Generate, search, req, || {
        mapper.delta_candidates(space)
    });
    let mut stats = SearchStats::default();
    let mut best: Option<(Mapping, f64)> = None;
    while let Some((depth, m)) = rec.time(Layer::Generate, search, req, || stream.next()) {
        stats.generated += 1;
        if !rec.time(Layer::Precheck, search, req, || worker.precheck(&m, depth)) {
            stats.pruned += 1;
            continue;
        }
        match rec.time(Layer::Evaluate, search, req, || worker.evaluate(&m, depth)) {
            Some(v) if !v.is_nan() => {
                stats.evaluated += 1;
                if best.as_ref().is_none_or(|(_, b)| v < *b) {
                    best = Some((m, v));
                }
            }
            _ => stats.invalid += 1,
        }
    }
    drop(stream);
    drop(worker);
    rec.close(search);
    counts.candidates += stats.generated as u64;
    counts.pruned += stats.pruned as u64;
    match best {
        Some((mapping, _)) => rec
            .time(Layer::Evaluate, parent, req, || model.evaluate(&mapping))
            .map(|eval| JobOutcome {
                mapping,
                eval,
                stats,
            })
            .map_err(JobError::Eval),
        None => Err(JobError::NoValidCandidate { stats }),
    }
}

/// Figures of the calls `replay_job` times: generation, precheck,
/// evaluation, model build, with their counts and allocations.
fn job_figures(figures: &mut Figures, totals: &BTreeMap<Layer, LayerTotal>, counts: &Counts) {
    let (generate, precheck, evaluate) = (
        total(totals, Layer::Generate),
        total(totals, Layer::Precheck),
        total(totals, Layer::Evaluate),
    );
    figures.insert(
        "core.model_build_ms",
        ms(total(totals, Layer::ModelBuild).self_nanos),
    );
    figures.insert(
        "core.format_cache_hit_ratio",
        ratio(counts.format_hits as f64, counts.format_queries as f64),
    );
    figures.insert("mapping.generate_ms", ms(generate.self_nanos));
    figures.insert("mapping.candidates", counts.candidates as f64);
    figures.insert(
        "mapping.sample_yield",
        ratio(counts.tail_accepted as f64, counts.tail_requested as f64),
    );
    figures.insert(
        "mapping.allocs_per_candidate",
        ratio(generate.allocs as f64, counts.candidates as f64),
    );
    figures.insert("core.precheck_ms", ms(precheck.self_nanos));
    figures.insert("core.evaluate_ms", ms(evaluate.self_nanos));
    figures.insert("core.evaluations", evaluate.calls as f64);
    figures.insert(
        "core.pruned_ratio",
        ratio(counts.pruned as f64, counts.candidates as f64),
    );
    figures.insert(
        "core.allocs_per_evaluation",
        ratio(
            (precheck.allocs + evaluate.allocs) as f64,
            evaluate.calls as f64,
        ),
    );
}

/// The replay's wall time, the part of it no layer span accounts for,
/// and the traced ÷ untraced replay ratio.
fn trace_figures(
    figures: &mut Figures,
    totals: &BTreeMap<Layer, LayerTotal>,
    traced: u64,
    plain: u64,
) {
    let layers: u64 = [
        Layer::SpecParse,
        Layer::SpecCompile,
        Layer::DesignsBuild,
        Layer::ModelBuild,
        Layer::Generate,
        Layer::Precheck,
        Layer::Evaluate,
        Layer::ShardSearch,
        Layer::Merge,
        Layer::Codec,
    ]
    .iter()
    .map(|&l| total(totals, l).self_nanos)
    .sum();
    figures.insert("trace.replay_ms", ms(traced));
    figures.insert("trace.remainder_ms", ms(traced.saturating_sub(layers)));
    figures.insert("trace.overhead_ratio", ratio(traced as f64, plain as f64));
}

/// A replayed request checked against its reference (and, when given,
/// the untraced run's own outcome).
fn check_replay(
    out: &mut Outcome,
    what: &str,
    replay: &ScenarioOutcome,
    refs: &[&ScenarioOutcome],
) {
    out.attempted += 1;
    if let Some(d) = refs.iter().find_map(|r| outcome_drift(r, replay)) {
        out.fail(format!("replay of {what} drifted: {d}"));
    }
}

/// One registry scenario replayed: experiments → jobs → per job the
/// session model, search and winner evaluation, on a cold session.
fn replay_scenario(
    rec: &mut Recorder,
    req: u32,
    scenario: &Scenario,
    plans: &[TailPlan],
    counts: &mut Counts,
) -> ScenarioOutcome {
    let root = rec.open(Layer::Request, None, req);
    let experiments = rec.time(Layer::DesignsBuild, root, req, || scenario.experiments());
    let session = EvalSession::new();
    let mut results = Vec::with_capacity(experiments.len());
    for (exp, plan) in experiments.iter().zip(plans) {
        let job = rec.time(Layer::DesignsBuild, root, req, || exp.job());
        let result = replay_job(rec, root, req, &session, &job, counts);
        plan.count(&result, counts);
        results.push(result);
    }
    counts.session(&session);
    rec.close(root);
    ScenarioOutcome {
        name: scenario.name().to_string(),
        experiments,
        results,
        wall_seconds: 0.0,
    }
}

type Traced = (Outcome, Vec<Figures>, Vec<crate::spans::Span>);

fn inproc(args: &Args, names: &[&str]) -> Result<Traced, String> {
    let registry = ScenarioRegistry::standard();
    let scenarios = corpus::scenarios(&registry, names)?;
    let mut out = Outcome::default();
    let references: Vec<ScenarioOutcome> = scenarios
        .iter()
        .map(|s| s.run_from_scratch(&EvalSession::new(), None))
        .collect();
    // the end-to-end call's own outcomes: the replay must match them too
    let untraced: Vec<ScenarioOutcome> = scenarios
        .iter()
        .map(|s| s.run(&EvalSession::new(), None))
        .collect();
    for (i, got) in untraced.iter().enumerate() {
        out.attempted += 1;
        if let Some(d) = outcome_drift(&references[i], got) {
            out.fail(format!("{}: {d}", names[i]));
        }
    }
    let plans: Vec<Vec<TailPlan>> = scenarios
        .iter()
        .map(|s| {
            s.experiments()
                .iter()
                .map(|e| TailPlan::of(&e.job()))
                .collect()
        })
        .collect();

    let mut traced = Recorder::new(true);
    let mut plain = Recorder::new(false);
    let replay_pass = |rec: &mut Recorder, out: &mut Outcome, order: &[usize]| {
        let mut counts = Counts::default();
        let mut nanos = 0u64;
        for (req, &i) in order.iter().enumerate() {
            let start = Instant::now();
            let got = replay_scenario(rec, req as u32, scenarios[i], &plans[i], &mut counts);
            nanos += start.elapsed().as_nanos() as u64;
            check_replay(out, names[i], &got, &[&references[i], &untraced[i]]);
        }
        (counts, nanos)
    };
    // warm-up: fills the thread's scratch pool, so allocation counts
    // are the steady state's in every measured pass
    let order = pass_order(scenarios.len(), args.seed, 0);
    replay_pass(&mut plain, &mut out, &order);

    let mut passes = Vec::new();
    let mut first_spans = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        traced.clear();
        let ((counts, traced_nanos), plain_nanos) = if passes.len() % 2 == 0 {
            let t = replay_pass(&mut traced, &mut out, &order);
            (t, replay_pass(&mut plain, &mut out, &order).1)
        } else {
            let p = replay_pass(&mut plain, &mut out, &order).1;
            (replay_pass(&mut traced, &mut out, &order), p)
        };
        let totals = layer_totals(traced.spans());
        let mut figures = Figures::new();
        figures.insert(
            "designs.build_ms",
            ms(total(&totals, Layer::DesignsBuild).self_nanos),
        );
        job_figures(&mut figures, &totals, &counts);
        trace_figures(&mut figures, &totals, traced_nanos, plain_nanos);
        if passes.is_empty() {
            first_spans = traced.spans().to_vec();
        }
        passes.push(figures);
    }
    Ok((out, passes, first_spans))
}

/// The traced fleet sends no heartbeats and runs no idle health sweeps
/// (the number of both depends on timing: a sweep's pongs would land in
/// whichever pass crosses the sweep interval, so frame counts would not
/// repeat); the silence timeout is stretched to match.
fn traced_fleet_config() -> sparseloop_serve::FleetPoolConfig {
    let base = e2e::fleet_config();
    let host = base
        .host
        .clone()
        .with_heartbeat(0, Duration::from_secs(120));
    base.with_host_config(host)
        .with_health_interval(Duration::from_secs(24 * 3600))
}

/// One spec replayed as the fleet splits it: parse, compile, and per
/// experiment the model build, each shard's search, the merge and the
/// winner's evaluation; plus the frames a request carries through the
/// codec. Returns the outcome and each shard's summed search time.
fn replay_spec(
    rec: &mut Recorder,
    req: u32,
    text: &str,
    counts: &mut Counts,
) -> Result<(ScenarioOutcome, [u64; SHARDS]), String> {
    let root = rec.open(Layer::Request, None, req);
    rec.time(Layer::SpecParse, root, req, || {
        sparseloop_spec::yaml::parse_document(text)
    })
    .map_err(|e| format!("{e:?}"))?;
    let compiled = rec
        .time(Layer::SpecCompile, root, req, || {
            sparseloop_spec::compile_str(text)
        })
        .map_err(|e| e.to_string())?;
    let session = EvalSession::new();
    let mut shard_nanos = [0u64; SHARDS];
    let mut frames: Vec<Vec<ExpResult>> = vec![Vec::new(); SHARDS];
    let mut results = Vec::with_capacity(compiled.experiments.len());
    for exp in &compiled.experiments {
        let job = rec.time(Layer::DesignsBuild, root, req, || exp.job());
        let model = rec.time(Layer::ModelBuild, root, req, || {
            session.model(job.workload.clone(), job.arch.clone(), job.safs.clone())
        });
        let JobPlan::Search {
            space,
            mapper,
            objective,
        } = &job.plan
        else {
            // fixed mappings never leave the parent
            for f in &mut frames {
                f.push(ExpResult::Skipped);
            }
            let JobPlan::Fixed(mapping) = &job.plan else {
                unreachable!("a plan is fixed or a search")
            };
            results.push(
                rec.time(Layer::Evaluate, root, req, || model.evaluate(mapping))
                    .map(|eval| JobOutcome {
                        mapping: mapping.clone(),
                        eval,
                        stats: SearchStats {
                            generated: 1,
                            evaluated: 1,
                            ..SearchStats::default()
                        },
                    })
                    .map_err(JobError::Eval),
            );
            continue;
        };
        let mut parts = Vec::with_capacity(SHARDS);
        for (shard, nanos) in shard_nanos.iter_mut().enumerate() {
            let part = rec.time(Layer::ShardSearch, root, req, || {
                model.search_shard_counted(space, *mapper, *objective, shard, SHARDS)
            });
            *nanos += rec.last_nanos();
            frames[shard].push(match &part {
                (Some((value, key, mapping)), stats) => ExpResult::Winner {
                    value: *value,
                    key: *key,
                    stats: *stats,
                    mapping: mapping.clone(),
                },
                (None, stats) => ExpResult::NoWinner { stats: *stats },
            });
            parts.push(part);
        }
        let (merged, stats) = rec.time(Layer::Merge, root, req, || merge_shard_results(parts));
        counts.candidates += stats.generated as u64;
        counts.pruned += stats.pruned as u64;
        counts.shard_evaluations += (stats.evaluated + stats.invalid) as u64;
        results.push(match merged {
            Some(r) => rec
                .time(Layer::Evaluate, root, req, || model.evaluate(&r.mapping))
                .map(|eval| JobOutcome {
                    mapping: r.mapping,
                    eval,
                    stats,
                })
                .map_err(JobError::Eval),
            None => Err(JobError::NoValidCandidate { stats }),
        });
    }
    counts.session(&session);
    for (shard, results) in frames.into_iter().enumerate() {
        let task = Frame::Task {
            id: 1,
            shard: shard as u32,
            shards: SHARDS as u32,
            heartbeat_ms: 20,
            spec: text.to_string(),
            want_stats: true,
            trace_request: 0,
            trace_parent: 0,
        };
        for frame in [task, Frame::TaskDone { id: 1, results }] {
            let decoded = rec.time(Layer::Codec, root, req, || {
                decode_payload(&encode_payload(&frame))
            });
            if decoded.as_ref().ok() != Some(&frame) {
                return Err(format!("frame codec round trip changed {frame:?}"));
            }
        }
    }
    rec.close(root);
    let outcome = ScenarioOutcome {
        name: compiled.name,
        experiments: compiled.experiments,
        results,
        wall_seconds: 0.0,
    };
    Ok((outcome, shard_nanos))
}

fn fleet(args: &Args) -> Result<Traced, String> {
    let worker = shard_worker_bin()?;
    let specs = corpus::read_specs()?;
    let hub = ObsHub::new();
    let observed = Fleet::start(traced_fleet_config(), &worker, Some(hub.clone()));
    // the same deployment without a hub: the A/B base of obs.overhead_ratio
    let unobserved = Fleet::start(traced_fleet_config(), &worker, None);
    let mut references = Vec::new();
    let mut shells = Vec::new();
    for (name, text) in &specs {
        let (reference, shell) = spec_reference(name, text)?;
        references.push(reference);
        shells.push(shell);
    }
    let mut out = Outcome::default();
    let mut traced = Recorder::new(true);
    let mut plain = Recorder::new(false);

    // (counts, replay nanos, per request the slowest shard's and all
    // shards' search nanos) of one replay pass
    let replay_pass = |rec: &mut Recorder, out: &mut Outcome, order: &[usize]| {
        let mut counts = Counts::default();
        let (mut nanos, mut shard_times) = (0u64, Vec::new());
        for (req, &i) in order.iter().enumerate() {
            let start = Instant::now();
            let replayed = replay_spec(rec, req as u32, &specs[i].1, &mut counts);
            nanos += start.elapsed().as_nanos() as u64;
            match replayed {
                Ok((got, shards)) => {
                    check_replay(out, &specs[i].0, &got, &[&references[i]]);
                    let max = shards.iter().copied().max().unwrap_or(0);
                    shard_times.push((max, shards.iter().sum::<u64>()));
                }
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("replay of {}: {e}", specs[i].0));
                }
            }
        }
        (counts, nanos, shard_times)
    };
    // one request of spec `i` straight to the observed pool, then through
    // both services in an order that alternates between requests
    let mut serve = |rec: &mut Recorder, out: &mut Outcome, req: u32, i: usize, flip: bool| {
        let (name, text) = &specs[i];
        out.attempted += 1;
        let reply = rec.time(Layer::FleetRoundTrip, None, req, || {
            observed.pool.run_spec(text)
        });
        let roundtrip = rec.last_nanos();
        let reply = reply.map(ServeReply::Scenario).map_err(|e| e.to_string());
        if let Err(e) = e2e::check_scenario_reply(&references[i], &mut shells[i], reply) {
            out.fail(format!("{name}: {e}"));
        }
        let mut served = [0u64; 2];
        for fleet in if flip { [1, 0] } else { [0, 1] } {
            let service = if fleet == 0 { &observed } else { &unobserved };
            out.attempted += 1;
            let start = Instant::now();
            let reply = service.submit(ServeRequest::Spec(text.clone()));
            let end = Instant::now();
            served[fleet] = (end - start).as_nanos() as u64;
            if fleet == 0 {
                rec.record(Layer::ServeRequest, None, req, start, end);
            }
            if let Err(e) = e2e::check_scenario_reply(&references[i], &mut shells[i], reply) {
                out.fail(format!("{name} through the service: {e}"));
            }
        }
        (roundtrip, served)
    };
    let order = pass_order(specs.len(), args.seed, 0);
    replay_pass(&mut plain, &mut out, &order);
    for (req, &i) in order.iter().enumerate() {
        serve(&mut plain, &mut out, req as u32, i, false);
    }

    let mut passes = Vec::new();
    let mut first_spans = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        traced.clear();
        let before = observed.pool.host_stats();
        let (mut roundtrip, mut inproc, mut served) = (0u64, 0u64, [0u64; 2]);
        let mut overhead = Vec::with_capacity(order.len());
        for (req, &i) in order.iter().enumerate() {
            let req = (order.len() + req) as u32;
            let flip = (passes.len() + req as usize) % 2 == 1;
            let (trip, through) = serve(&mut traced, &mut out, req, i, flip);
            roundtrip += trip;
            served[0] += through[0];
            served[1] += through[1];
            overhead.push(through[0] as f64 - trip as f64);
            let (name, text) = &specs[i];
            let local = traced.time(Layer::InprocRun, None, req, || {
                sparseloop_spec::compile_str(text)
                    .map(|c| c.into_scenario().run(&EvalSession::new(), None))
            });
            inproc += traced.last_nanos();
            out.attempted += 1;
            match local {
                Ok(got) => {
                    if let Some(d) = outcome_drift(&references[i], &got) {
                        out.fail(format!("{name} in process: {d}"));
                    }
                }
                Err(e) => out.fail(format!("{name}: {e}")),
            }
        }
        let after = observed.pool.host_stats();
        let rendered = traced.time(Layer::ObsRender, None, 0, || hub.snapshot().render_text());
        if rendered.is_empty() {
            out.problems
                .push("the metrics snapshot rendered empty".into());
        }
        let ((counts, traced_nanos, shard_times), plain_nanos) = if passes.len() % 2 == 0 {
            let t = replay_pass(&mut traced, &mut out, &order);
            (t, replay_pass(&mut plain, &mut out, &order).1)
        } else {
            let p = replay_pass(&mut plain, &mut out, &order).1;
            (replay_pass(&mut traced, &mut out, &order), p)
        };
        let totals = layer_totals(traced.spans());
        let mut figures = Figures::new();
        let parse = total(&totals, Layer::SpecParse).self_nanos;
        // compile_str parses before it compiles
        let compile = total(&totals, Layer::SpecCompile)
            .self_nanos
            .saturating_sub(parse);
        figures.insert("spec.parse_ms", ms(parse));
        figures.insert("spec.compile_ms", ms(compile));
        figures.insert(
            "designs.build_ms",
            ms(total(&totals, Layer::DesignsBuild).self_nanos),
        );
        figures.insert(
            "core.model_build_ms",
            ms(total(&totals, Layer::ModelBuild).self_nanos),
        );
        figures.insert(
            "core.format_cache_hit_ratio",
            ratio(counts.format_hits as f64, counts.format_queries as f64),
        );
        let evaluate = total(&totals, Layer::Evaluate);
        figures.insert("core.evaluate_ms", ms(evaluate.self_nanos));
        figures.insert(
            "core.evaluations",
            (evaluate.calls + counts.shard_evaluations) as f64,
        );
        figures.insert("mapping.candidates", counts.candidates as f64);
        figures.insert(
            "core.pruned_ratio",
            ratio(counts.pruned as f64, counts.candidates as f64),
        );
        let shard_max: u64 = shard_times.iter().map(|t| t.0).sum();
        let shard_sum: u64 = shard_times.iter().map(|t| t.1).sum();
        figures.insert("mapping.shard_max_ms", ms(shard_max));
        figures.insert(
            "mapping.shard_imbalance",
            ratio(shard_max as f64, shard_sum as f64 / SHARDS as f64),
        );
        figures.insert(
            "mapping.merge_ms",
            ms(total(&totals, Layer::Merge).self_nanos),
        );
        figures.insert("serve.fleet_roundtrip_ms", ms(roundtrip));
        figures.insert(
            "serve.fleet_vs_inproc",
            ratio(roundtrip as f64, inproc as f64),
        );
        figures.insert(
            "serve.frames_per_request",
            ratio(
                (after.frames_received - before.frames_received) as f64,
                (after.requests - before.requests) as f64,
            ),
        );
        let codec = total(&totals, Layer::Codec);
        figures.insert(
            "serve.codec_us_per_frame",
            ratio(codec.self_nanos as f64 / 1e3, codec.calls as f64),
        );
        figures.insert("serve.restarts", (after.restarts - before.restarts) as f64);
        figures.insert(
            "serve.fleet_fallbacks",
            (after.degraded - before.degraded) as f64,
        );
        figures.insert("serve.overhead_ms", stats::median(&overhead) / 1e6);
        figures.insert(
            "obs.render_ms",
            ms(total(&totals, Layer::ObsRender).self_nanos),
        );
        figures.insert(
            "obs.overhead_ratio",
            ratio(served[0] as f64, served[1] as f64),
        );
        trace_figures(&mut figures, &totals, traced_nanos, plain_nanos);
        if passes.is_empty() {
            first_spans = traced.spans().to_vec();
        }
        passes.push(figures);
    }
    for fleet in [&observed, &unobserved] {
        for _ in 0..fleet.fallbacks() {
            out.fail("a fleet request fell back to in-process evaluation");
        }
    }
    drop((observed, unobserved));
    Ok((out, passes, first_spans))
}
