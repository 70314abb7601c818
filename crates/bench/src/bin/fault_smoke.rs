//! Fault-injection smoke test for multi-process shard serving: spawns
//! **real** worker processes (`sparseloop-shard-worker`) under a
//! [`ShardHost`] and drives a deterministic failure matrix through
//! them —
//!
//! * parent-side SIGKILL at every frame offset 0..4,
//! * worker death at every checkpoint (startup / after handshake /
//!   after compute, before the result frame),
//! * a heartbeat stall, a corrupted result frame, a dropped result
//!   frame,
//! * deterministically slowed frames ([`WorkerFault::SlowFrames`]) —
//!   mild delays that must ride through untouched, plus a 1.5s
//!   straggler that must lose its shard to a hedged spare dispatch,
//! * seeded pseudo-random schedules ([`FaultPlan::from_seed`]) so CI
//!   sweeps failure combinations nobody hand-picked.
//!
//! Every request must still complete (no unresolved request, non-zero
//! exit otherwise) and its merged winners must be **bit-identical** to
//! the in-process `Scenario::run_exec` (`Exec::Shards`) reference. CI runs this in release
//! mode; a supervision regression that loses or changes a single
//! winner bit under any schedule cannot land.

use sparseloop_bench::{header, row, timed};
use sparseloop_core::{EvalSession, JobOutcome};
use sparseloop_designs::{Experiment, Scenario};
use sparseloop_mapping::{Exec, Mapspace};
use sparseloop_serve::{
    DiePoint, FaultPlan, HedgeConfig, HostConfig, HostStats, ProcessSpawner, ScenarioReply,
    ShardHost, WorkerFault,
};
use std::path::PathBuf;
use std::time::Duration;

/// Seeds for the pseudo-random schedules (ride along with the
/// hand-picked matrix; same seed, same schedule, every run).
const SEEDS: [u64; 3] = [1, 2, 3];

/// The small two-experiment scenario (one search, one fixed mapping)
/// every case serves. Small enough that a full matrix stays fast, real
/// enough that shard merging and parent-side fixed evaluation both run.
fn smoke_scenario() -> Scenario {
    Scenario::new("fault_smoke", "fault-injection smoke workload", || {
        let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
        let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        let search = Experiment::search("smoke@search", dp.clone(), layer.clone(), space);
        let fixed_mapping = Mapspace::all_temporal(&layer.einsum, &dp.arch)
            .enumerate(1)
            .remove(0);
        let fixed = Experiment::fixed("smoke@fixed", dp, layer, fixed_mapping);
        vec![search, fixed]
    })
}

/// The worker executable; the fault matrix is meaningless without real
/// processes, so a missing binary fails the run rather than skipping.
fn worker_bin() -> PathBuf {
    sparseloop_bench::shard_worker_bin().unwrap_or_else(|| {
        eprintln!(
            "fault smoke FAILED: sparseloop-shard-worker not found next to this \
             binary (build it with `cargo build --bin sparseloop-shard-worker`, \
             or point SPARSELOOP_WORKER_BIN at it)"
        );
        std::process::exit(1);
    })
}

fn host_config(shards: usize, plan: FaultPlan, hedged: bool) -> HostConfig {
    let config = HostConfig::default()
        .with_shards(shards)
        .with_heartbeat(20, Duration::from_millis(600))
        .with_retries(3, Duration::from_millis(5))
        .with_fault_plan(plan);
    if hedged {
        // hedging must beat the straggler, not the heartbeat audit: a
        // long timeout keeps the slow worker alive so only the hedge
        // can resolve its shard
        config
            .with_heartbeat(20, Duration::from_secs(10))
            .with_hedging(HedgeConfig::default())
    } else {
        config
    }
}

fn mismatch(got: &ScenarioReply, want: &ScenarioReply) -> Option<String> {
    if got.labels != want.labels {
        return Some("experiment labels differ".into());
    }
    for ((label, got), want) in got.labels.iter().zip(&got.results).zip(&want.results) {
        let why = match (got, want) {
            (Ok(g), Ok(w)) => job_mismatch(g, w),
            (Err(g), Err(w)) if g == w => None,
            (g, w) => Some(format!("outcome kind mismatch: {g:?} vs {w:?}")),
        };
        if let Some(why) = why {
            return Some(format!("{label}: {why}"));
        }
    }
    None
}

fn job_mismatch(got: &JobOutcome, want: &JobOutcome) -> Option<String> {
    if got.mapping != want.mapping {
        return Some("winning mapping differs".into());
    }
    if got.eval.edp.to_bits() != want.eval.edp.to_bits()
        || got.eval.cycles.to_bits() != want.eval.cycles.to_bits()
        || got.eval.energy_pj.to_bits() != want.eval.energy_pj.to_bits()
    {
        return Some(format!(
            "evaluation bits differ: ({}, {}, {}) vs ({}, {}, {})",
            got.eval.edp,
            got.eval.cycles,
            got.eval.energy_pj,
            want.eval.edp,
            want.eval.cycles,
            want.eval.energy_pj
        ));
    }
    if got.stats != want.stats {
        return Some(format!(
            "search counters differ: {:?} vs {:?}",
            got.stats, want.stats
        ));
    }
    None
}

/// One fault schedule plus the supervision evidence it must leave.
struct Case {
    name: String,
    shards: usize,
    plan: FaultPlan,
    /// The fleet must have survived at least one worker death.
    expect_restarts: bool,
    /// The death must have been detected by heartbeat silence.
    expect_heartbeat_timeout: bool,
    /// Hedged dispatch is enabled and a hedge must win the straggler's
    /// shard.
    expect_hedge_win: bool,
}

impl Case {
    fn new(name: impl Into<String>, shards: usize, plan: FaultPlan) -> Self {
        Case {
            name: name.into(),
            shards,
            plan,
            expect_restarts: false,
            expect_heartbeat_timeout: false,
            expect_hedge_win: false,
        }
    }

    fn restarts(mut self) -> Self {
        self.expect_restarts = true;
        self
    }

    fn heartbeat_timeout(mut self) -> Self {
        self.expect_heartbeat_timeout = true;
        self
    }

    fn hedged(mut self) -> Self {
        self.expect_hedge_win = true;
        self
    }

    fn check_stats(&self, stats: &HostStats) -> Option<String> {
        if stats.degraded != 0 {
            return Some("request degraded to in-process (workers never ran)".into());
        }
        if self.expect_restarts && stats.restarts == 0 {
            return Some("fault injected but no worker death was survived".into());
        }
        if self.expect_heartbeat_timeout && stats.deaths_heartbeat_timeout == 0 {
            return Some("silent worker was never timed out by heartbeat audit".into());
        }
        if self.expect_hedge_win {
            if stats.hedges_dispatched == 0 {
                return Some("straggler never got a hedge dispatched".into());
            }
            if stats.hedge_wins == 0 {
                return Some("hedge was dispatched but never won the shard".into());
            }
        }
        None
    }
}

/// Running totals of every [`HostStats`] field across the whole matrix —
/// the reconciliation reference for the shared metrics hub.
#[derive(Default)]
struct StatsTotals {
    requests: u64,
    spawns: u64,
    restarts: u64,
    redispatches: u64,
    deaths_eof: u64,
    deaths_heartbeat_timeout: u64,
    kills_injected: u64,
    degraded: u64,
    frames_received: u64,
    backoff_nanos_total: u64,
    deadline_exceeded: u64,
    breaker_trips: u64,
    breaker_probes: u64,
    hedges_dispatched: u64,
    hedge_wins: u64,
}

impl StatsTotals {
    fn absorb(&mut self, s: &HostStats) {
        self.requests += s.requests;
        self.spawns += s.spawns;
        self.restarts += s.restarts;
        self.redispatches += s.redispatches;
        self.deaths_eof += s.deaths_eof;
        self.deaths_heartbeat_timeout += s.deaths_heartbeat_timeout;
        self.kills_injected += s.kills_injected;
        self.degraded += s.degraded;
        self.frames_received += s.frames_received;
        self.backoff_nanos_total += s.backoff_nanos_total;
        self.deadline_exceeded += s.deadline_exceeded;
        self.breaker_trips += s.breaker_trips;
        self.breaker_probes += s.breaker_probes;
        self.hedges_dispatched += s.hedges_dispatched;
        self.hedge_wins += s.hedge_wins;
    }

    /// Every fleet counter in the shared hub must equal the sum of the
    /// per-case `HostStats` — each case's host attached its cells to the
    /// same registry, so any drift means double- or under-counting.
    fn reconcile(&self, snap: &sparseloop_obs::MetricsSnapshot) -> Vec<String> {
        type Check<'a> = (&'a str, &'a [(&'a str, &'a str)], u64);
        let counter = |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0);
        let expect: [Check; 15] = [
            ("sparseloop_fleet_requests_total", &[], self.requests),
            ("sparseloop_fleet_spawns_total", &[], self.spawns),
            ("sparseloop_fleet_restarts_total", &[], self.restarts),
            (
                "sparseloop_fleet_redispatches_total",
                &[],
                self.redispatches,
            ),
            (
                "sparseloop_fleet_deaths_total",
                &[("cause", "eof")],
                self.deaths_eof,
            ),
            (
                "sparseloop_fleet_deaths_total",
                &[("cause", "heartbeat_timeout")],
                self.deaths_heartbeat_timeout,
            ),
            (
                "sparseloop_fleet_kills_injected_total",
                &[],
                self.kills_injected,
            ),
            ("sparseloop_fleet_degraded_total", &[], self.degraded),
            ("sparseloop_fleet_frames_total", &[], self.frames_received),
            (
                "sparseloop_fleet_backoff_nanos_total",
                &[],
                self.backoff_nanos_total,
            ),
            (
                "sparseloop_fleet_deadline_exceeded_total",
                &[],
                self.deadline_exceeded,
            ),
            (
                "sparseloop_fleet_breaker_trips_total",
                &[],
                self.breaker_trips,
            ),
            (
                "sparseloop_fleet_breaker_probes_total",
                &[],
                self.breaker_probes,
            ),
            (
                "sparseloop_fleet_hedges_total",
                &[("kind", "dispatched")],
                self.hedges_dispatched,
            ),
            (
                "sparseloop_fleet_hedges_total",
                &[("kind", "wins")],
                self.hedge_wins,
            ),
        ];
        expect
            .iter()
            .filter(|(name, labels, want)| counter(name, labels) != *want as i128)
            .map(|(name, labels, want)| {
                format!(
                    "{name}{labels:?} = {}, host stats sum = {want}",
                    counter(name, labels)
                )
            })
            .collect()
    }
}

fn cases() -> Vec<Case> {
    let mut cases = vec![Case::new("baseline (no fault)", 2, FaultPlan::none())];
    for offset in 0..4u32 {
        cases.push(Case::new(
            format!("SIGKILL after {offset} frames (slot 0)"),
            2,
            FaultPlan::none().with(0, WorkerFault::KillAfterFrames(offset)),
        ));
    }
    for (die, tag) in [
        (DiePoint::Startup, "at startup"),
        (DiePoint::AfterHello, "after handshake"),
        (DiePoint::BeforeResult, "before result frame"),
    ] {
        for slot in [0u32, 1] {
            cases.push(
                Case::new(
                    format!("worker dies {tag} (slot {slot})"),
                    2,
                    FaultPlan::none().with(slot, WorkerFault::DieAt(die)),
                )
                .restarts(),
            );
        }
    }
    cases.push(
        Case::new(
            "heartbeat stall before result",
            2,
            FaultPlan::none().with(1, WorkerFault::StallBeforeResult),
        )
        .restarts()
        .heartbeat_timeout(),
    );
    cases.push(
        Case::new(
            "corrupted result frame",
            2,
            FaultPlan::none().with(0, WorkerFault::CorruptResult),
        )
        .restarts(),
    );
    cases.push(
        Case::new(
            "dropped result frame",
            2,
            FaultPlan::none().with(1, WorkerFault::DropResult),
        )
        .restarts()
        .heartbeat_timeout(),
    );
    for (slot, delay) in [(0u32, 15u64), (1, 30)] {
        cases.push(Case::new(
            format!("slow frames ({delay}ms, slot {slot})"),
            2,
            FaultPlan::none().with(slot, WorkerFault::SlowFrames { delay_ms: delay }),
        ));
    }
    cases.push(
        Case::new(
            "straggler hedged to a spare (1500ms slow frames, slot 1)",
            2,
            FaultPlan::none().with(1, WorkerFault::SlowFrames { delay_ms: 1500 }),
        )
        .hedged(),
    );
    for seed in SEEDS {
        cases.push(Case::new(
            format!("seeded schedule (seed {seed}, 3 shards)"),
            3,
            FaultPlan::from_seed(seed, 3),
        ));
    }
    cases
}

fn main() {
    let worker = worker_bin();
    let snapshot_path = sparseloop_bench::metrics_snapshot_arg();
    let text = sparseloop_spec::emit_scenario(&smoke_scenario());
    let cases = cases();
    println!(
        "== fault smoke: {} schedules against {} ==\n",
        cases.len(),
        worker.display()
    );

    // the determinism reference: in-process sharded execution at the
    // same shard counts the fleet uses
    let reference: std::collections::HashMap<usize, ScenarioReply> = [2usize, 3]
        .into_iter()
        .map(|shards| {
            let scenario = sparseloop_spec::compile_str(&text)
                .expect("smoke spec compiles")
                .into_scenario();
            let reply = sparseloop_serve::scenario_reply(scenario.run_exec(
                &EvalSession::new(),
                Exec::Shards(shards),
                None,
            ));
            (shards, reply)
        })
        .collect();

    // one hub shared by every case: each host attaches its counter cells
    // to the same registry, and the final snapshot must reconcile with
    // the summed per-case `HostStats`
    let hub = sparseloop_obs::ObsHub::new();
    let mut totals = StatsTotals::default();
    let mut failures: Vec<String> = Vec::new();
    header(&[
        "schedule",
        "restarts",
        "hb deaths",
        "eof deaths",
        "kills",
        "wall s",
        "verdict",
    ]);
    for case in &cases {
        let mut host = ShardHost::new_observed(
            host_config(case.shards, case.plan.clone(), case.expect_hedge_win),
            ProcessSpawner::new(&worker),
            hub.clone(),
        );
        let (outcome, wall_s) = timed(|| host.run_spec(&text));
        let stats = host.stats();
        drop(host);
        totals.absorb(&stats);
        let verdict = match outcome {
            Err(e) => Some(format!("request did not resolve: {e}")),
            Ok(reply) => mismatch(&reply, &reference[&case.shards])
                .map(|why| format!("NON-BIT-IDENTICAL: {why}"))
                .or_else(|| case.check_stats(&stats)),
        };
        row(&[
            case.name.clone(),
            stats.restarts.to_string(),
            stats.deaths_heartbeat_timeout.to_string(),
            stats.deaths_eof.to_string(),
            stats.kills_injected.to_string(),
            format!("{wall_s:.3}"),
            verdict.clone().unwrap_or_else(|| "ok".into()),
        ]);
        if let Some(why) = verdict {
            failures.push(format!("{}: {why}", case.name));
        }
    }

    let snap = hub.snapshot();
    for drift in totals.reconcile(&snap) {
        failures.push(format!("metrics drift: {drift}"));
    }
    if let Some(path) = snapshot_path {
        sparseloop_bench::write_metrics_snapshot(&path, &snap);
    }

    if !failures.is_empty() {
        eprintln!("\nfault smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nall {} schedules recovered bit-identically; fleet metrics reconcile",
        cases.len()
    );
}
