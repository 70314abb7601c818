//! The end-to-end runs: every request goes through the public call a
//! user makes, with no spans and the system allocator; every reply is
//! checked against a reference computed before the measured phase.

use crate::corpus;
use crate::report::Outcome;
use crate::{peak_rss_mib, shard_worker_bin, stats, Args, SetupTimes, Workload};
use sparseloop_core::EvalSession;
use sparseloop_designs::{ScenarioOutcome, ScenarioRegistry};
use sparseloop_obs::ObsHub;
use sparseloop_serve::{
    EvalService, FleetPool, FleetPoolConfig, HostConfig, ServeConfig, ServeReply, ServeRequest,
};
use sparseloop_spec::outcome_drift;
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs the workload of `args` end to end.
///
/// # Errors
/// When the workload cannot be set up (missing corpus or worker binary).
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::Table5Inproc => inproc(args, &corpus::TABLE5),
        Workload::ValidationInproc => inproc(args, &corpus::VALIDATION),
        Workload::FleetSpecs => fleet(args),
    }
}

/// Sets the end-to-end metrics from the measured phase.
fn finish(
    out: &mut Outcome,
    setups: &SetupTimes,
    pass: usize,
    latencies_ms: &[f64],
    computes: f64,
    wall: Duration,
) -> Result<(), String> {
    let wall_s = wall.as_secs_f64();
    let (tail, block, blocks) = stats::block_tail(latencies_ms);
    out.notes.push(format!(
        "latency_tail_ms is p{:.3} ({} of {} samples beyond it), median over {blocks} block(s) of {} requests",
        block.percentile, block.beyond, block.samples, latencies_ms.len()
    ));
    let (setup_s, timed) = setups.median();
    out.notes
        .push(format!("setup_s is the median of {timed} set-ups"));
    out.set("setup_s", setup_s);
    out.set("requests_per_s", latencies_ms.len() as f64 / wall_s);
    out.set("latency_p50_ms", stats::pass_median(latencies_ms, pass));
    out.set("latency_tail_ms", tail);
    out.set("cphc", sparseloop_bench::cphc(computes, wall_s));
    out.set("peak_rss_mb", peak_rss_mib()?);
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Registry scenarios run in process, each on a cold session.
fn inproc(args: &Args, names: &[&str]) -> Result<Outcome, String> {
    let build = || {
        let registry = ScenarioRegistry::standard();
        corpus::scenarios(&registry, names)?;
        Ok(registry)
    };
    let mut setups = SetupTimes::default();
    let registry = setups.time(build)?;
    let scenarios = corpus::scenarios(&registry, names)?;
    let references: Vec<ScenarioOutcome> = scenarios
        .iter()
        .map(|s| s.run_from_scratch(&EvalSession::new(), None))
        .collect();

    let mut out = Outcome::default();
    let request = |out: &mut Outcome, i: usize| -> (f64, f64) {
        let start = Instant::now();
        let got = scenarios[i].run(&EvalSession::new(), None);
        let latency = ms(start.elapsed());
        out.attempted += 1;
        if let Some(d) = outcome_drift(&references[i], &got) {
            out.fail(format!("{}: {d}", names[i]));
        }
        (latency, got.modeled_computes())
    };
    for i in 0..scenarios.len() {
        request(&mut out, i);
    }

    let (mut latencies, mut computes) = (Vec::new(), 0.0);
    let (start, mut paused) = (Instant::now(), Duration::ZERO);
    let mut pass = 0;
    while pass == 0 || start.elapsed() < args.seconds {
        for i in corpus::pass_order(scenarios.len(), args.seed, pass) {
            let (latency, c) = request(&mut out, i);
            latencies.push(latency);
            computes += c;
        }
        pass += 1;
        let paused_at = Instant::now();
        setups.time(build)?;
        paused += paused_at.elapsed();
    }
    let wall = start.elapsed() - paused;
    out.notes
        .push(format!("{pass} passes over {} scenarios", scenarios.len()));
    finish(
        &mut out,
        &setups,
        scenarios.len(),
        &latencies,
        computes,
        wall,
    )?;
    Ok(out)
}

/// The fleet deployment: one host of two worker processes.
pub fn fleet_config() -> FleetPoolConfig {
    FleetPoolConfig::default()
        .with_hosts(1)
        .with_host_config(HostConfig::default().with_shards(2))
}

/// A started fleet-backed service; dropping it stops the service, then
/// kills and reaps the worker processes.
pub struct Fleet {
    /// The service requests are submitted to.
    pub service: EvalService,
    /// The pool the service dispatches to.
    pub pool: FleetPool,
}

impl Fleet {
    /// Spawns the pool's workers (reporting into `hub`, if any), waits
    /// until each answers a health probe, and starts the service over the
    /// pool.
    pub fn start(config: FleetPoolConfig, worker: &Path, hub: Option<ObsHub>) -> Fleet {
        let pool = match hub {
            Some(hub) => FleetPool::processes_observed(config, worker, hub),
            None => FleetPool::processes(config, worker),
        };
        pool.health_check_all();
        let service =
            EvalService::start_with_fleet(ServeConfig::default().with_workers(1), pool.clone());
        Fleet { service, pool }
    }

    /// Submits one request and waits for its reply.
    pub fn submit(&self, request: ServeRequest) -> Result<ServeReply, String> {
        self.service
            .submit(request)
            .map_err(|e| e.to_string())
            .and_then(|t| t.wait().map_err(|e| e.to_string()))
    }

    /// Requests the fleet machinery failed: service fallbacks to in-process
    /// evaluation plus host runs degraded to in-process.
    pub fn fallbacks(&self) -> u64 {
        self.service.stats().fleet_fallbacks + self.pool.host_stats().degraded
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// Compiles `text` and runs it in process: the fleet's reference.
///
/// # Errors
/// When the spec does not compile.
pub fn spec_reference(
    name: &str,
    text: &str,
) -> Result<(ScenarioOutcome, ScenarioOutcome), String> {
    let compiled = sparseloop_spec::compile_str(text).map_err(|e| format!("{name}: {e}"))?;
    let shell = ScenarioOutcome {
        name: compiled.name.clone(),
        experiments: compiled.experiments.clone(),
        results: Vec::new(),
        wall_seconds: 0.0,
    };
    let reference = compiled.into_scenario().run(&EvalSession::new(), None);
    Ok((reference, shell))
}

/// Checks a scenario reply against its reference, through `shell` (the
/// reference's experiments with no results yet).
pub fn check_scenario_reply(
    reference: &ScenarioOutcome,
    shell: &mut ScenarioOutcome,
    reply: Result<ServeReply, String>,
) -> Result<(), String> {
    let reply = match reply? {
        ServeReply::Scenario(r) => r,
        ServeReply::Job(_) => return Err("a job reply to a spec request".into()),
    };
    let labels: Vec<&str> = shell.experiments.iter().map(|e| e.label.as_str()).collect();
    let required: Vec<bool> = shell.experiments.iter().map(|e| e.required).collect();
    if reply.name != shell.name || reply.labels != labels || reply.required != required {
        return Err(format!(
            "reply {:?} does not describe {:?}",
            reply.name, shell.name
        ));
    }
    shell.results = reply.results;
    let drift = outcome_drift(reference, shell);
    shell.results.clear();
    drift.map_or(Ok(()), Err)
}

/// The 21 spec files submitted as text through the fleet-backed service.
fn fleet(args: &Args) -> Result<Outcome, String> {
    let worker = shard_worker_bin()?;
    let start_fleet = || {
        let specs = corpus::read_specs()?;
        Ok((
            specs,
            Fleet::start(fleet_config(), &worker, Some(ObsHub::new())),
        ))
    };
    let mut setups = SetupTimes::default();
    let (specs, fleet) = setups.time(start_fleet)?;
    let mut references = Vec::new();
    let mut shells = Vec::new();
    for (name, text) in &specs {
        let (reference, shell) = spec_reference(name, text)?;
        references.push(reference);
        shells.push(shell);
    }

    let mut out = Outcome::default();
    let mut request = |out: &mut Outcome, i: usize| -> f64 {
        let req = ServeRequest::Spec(specs[i].1.clone());
        let start = Instant::now();
        let reply = fleet.submit(req);
        let latency = ms(start.elapsed());
        out.attempted += 1;
        if let Err(e) = check_scenario_reply(&references[i], &mut shells[i], reply) {
            out.fail(format!("{}: {e}", specs[i].0));
        }
        latency
    };
    for i in 0..specs.len() {
        request(&mut out, i);
    }

    let (mut latencies, mut computes) = (Vec::new(), 0.0);
    let (start, mut paused) = (Instant::now(), Duration::ZERO);
    let mut pass = 0;
    while pass == 0 || start.elapsed() < args.seconds {
        for i in corpus::pass_order(specs.len(), args.seed, pass) {
            latencies.push(request(&mut out, i));
            computes += references[i].modeled_computes();
        }
        pass += 1;
        let paused_at = Instant::now();
        setups.time(start_fleet)?;
        paused += paused_at.elapsed();
    }
    let wall = start.elapsed() - paused;
    let fallbacks = fleet.fallbacks();
    for _ in 0..fallbacks {
        out.fail("a fleet request fell back to in-process evaluation");
    }
    drop(fleet);
    out.notes
        .push(format!("{pass} passes over {} specs", specs.len()));
    finish(&mut out, &setups, specs.len(), &latencies, computes, wall)?;
    Ok(out)
}
