//! Overload-resilience smoke test for the service→fleet integration:
//! drives a synthetic burst across all three priorities through an
//! [`EvalService`] backed by a pooled worker-process fleet running a
//! seeded fault schedule, then forces a circuit-breaker trip and
//! recovery against a spawner that refuses its first spawns.
//!
//! CI gates on the structural guarantees, not on throughput numbers:
//!
//! * every admitted ticket resolves — nothing hangs under overload,
//! * shedding is strictly priority-ordered: interactive work is never
//!   shed, watermark refusals hit only background arrivals, and the
//!   burst actually sheds something (otherwise it proved nothing),
//! * the breaker opens after consecutive spawn failures (degrading to
//!   in-process execution, still bit-identical), probes after the
//!   cooldown, and closes once the fleet heals,
//! * the shared hub's counters reconcile with
//!   [`ServiceStats`](sparseloop_serve::ServiceStats) and
//!   [`HostStats`](sparseloop_serve::HostStats) — one record of events,
//!   two books, zero drift.

use sparseloop_core::EvalSession;
use sparseloop_mapping::Exec;
use sparseloop_obs::ObsHub;
use sparseloop_serve::proc::{WorkerEvent, WorkerHandle};
use sparseloop_serve::{
    scenario_reply, BreakerConfig, BreakerState, EvalService, FaultPlan, FleetPool,
    FleetPoolConfig, HostConfig, Priority, ScenarioReply, ServeConfig, ServeError, ServeReply,
    ServeRequest, ShardHost, SubmitError, ThreadSpawner, Ticket, WorkerSpawner,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const SHARDS: usize = 2;
const ROUNDS: usize = 10;

fn smoke_spec() -> String {
    let scenario = sparseloop_designs::Scenario::new(
        "overload_smoke",
        "small search for the overload matrix",
        || {
            let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = sparseloop_mapping::Mapspace::all_temporal(&layer.einsum, &dp.arch);
            vec![sparseloop_designs::Experiment::search(
                "overload@search",
                dp,
                layer,
                space,
            )]
        },
    );
    sparseloop_spec::emit_scenario(&scenario)
}

fn worker_bin() -> PathBuf {
    sparseloop_bench::shard_worker_bin().unwrap_or_else(|| {
        eprintln!(
            "overload smoke FAILED: sparseloop-shard-worker not found next to this \
             binary (build it with `cargo build --bin sparseloop-shard-worker`, \
             or point SPARSELOOP_WORKER_BIN at it)"
        );
        std::process::exit(1);
    })
}

fn reference_reply(text: &str) -> ScenarioReply {
    let scenario = sparseloop_spec::compile_str(text).unwrap().into_scenario();
    scenario_reply(scenario.run_exec(&EvalSession::new(), Exec::Shards(SHARDS), None))
}

fn reply_mismatch(got: &ScenarioReply, want: &ScenarioReply) -> Option<String> {
    if got.labels != want.labels {
        return Some("labels differ".into());
    }
    for ((label, got), want) in got.labels.iter().zip(&got.results).zip(&want.results) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                if g.mapping != w.mapping || g.eval.edp.to_bits() != w.eval.edp.to_bits() {
                    return Some(format!("{label}: winner differs"));
                }
            }
            (g, w) => return Some(format!("{label}: outcome kind mismatch: {g:?} vs {w:?}")),
        }
    }
    None
}

/// Refuses its first `failures` spawn attempts, then behaves like a
/// normal in-thread spawner — the deterministic way to trip the breaker
/// and then let a probe heal it.
struct FlakySpawner {
    failures_left: AtomicU32,
    inner: ThreadSpawner,
}

impl WorkerSpawner for FlakySpawner {
    fn spawn(
        &self,
        slot: u32,
        epoch: u64,
        fault: Option<sparseloop_serve::WorkerFault>,
        events: mpsc::Sender<WorkerEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>> {
        let refuse = self
            .failures_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if refuse {
            return Err(io::Error::other("injected spawn refusal"));
        }
        self.inner.spawn(slot, epoch, fault, events)
    }
}

#[derive(Default)]
struct PriorityLedger {
    admitted: u64,
    completed: u64,
    shed_tickets: u64,
    watermark_sheds: u64,
    queue_full: u64,
    other_errors: Vec<String>,
}

fn priority_name(p: Priority) -> &'static str {
    p.as_str()
}

fn main() {
    let snapshot_path = sparseloop_bench::metrics_snapshot_arg();
    let text = smoke_spec();
    let want = reference_reply(&text);
    let mut failures: Vec<String> = Vec::new();

    // -- phase 1: priority burst through a pooled process fleet with a
    // seeded fault schedule -------------------------------------------------
    let hub = ObsHub::new();
    let pool = FleetPool::processes_observed(
        FleetPoolConfig::default().with_hosts(1).with_host_config(
            HostConfig::default()
                .with_shards(SHARDS)
                .with_heartbeat(20, Duration::from_millis(600))
                .with_retries(3, Duration::from_millis(5))
                .with_fault_plan(FaultPlan::from_seed(1, SHARDS as u32)),
        ),
        worker_bin(),
        hub.clone(),
    );
    let service = EvalService::start_with_fleet(
        ServeConfig::default()
            .with_workers(2)
            .with_shards(SHARDS)
            .with_queue_capacity(4)
            .with_shed_watermark(3),
        pool.clone(),
    );

    let priorities = [
        Priority::Background,
        Priority::Background,
        Priority::Batch,
        Priority::Interactive,
    ];
    let mut tickets: Vec<(Priority, Ticket)> = Vec::new();
    let mut ledger = [
        PriorityLedger::default(),
        PriorityLedger::default(),
        PriorityLedger::default(),
    ];
    for _ in 0..ROUNDS {
        for &priority in &priorities {
            let book = &mut ledger[priority.index()];
            match service.submit_with_priority(ServeRequest::Spec(text.clone()), priority) {
                Ok(ticket) => {
                    book.admitted += 1;
                    tickets.push((priority, ticket));
                }
                Err(SubmitError::Shed { .. }) => book.watermark_sheds += 1,
                Err(SubmitError::QueueFull { .. }) => book.queue_full += 1,
                Err(other) => failures.push(format!(
                    "{}: unexpected admission error: {other}",
                    priority_name(priority)
                )),
            }
        }
    }
    for (priority, ticket) in tickets {
        let book = &mut ledger[priority.index()];
        match ticket.wait() {
            Ok(ServeReply::Scenario(reply)) => {
                book.completed += 1;
                if let Some(why) = reply_mismatch(&reply, &want) {
                    failures.push(format!("{}: {why}", priority_name(priority)));
                }
            }
            Ok(other) => failures.push(format!("unexpected reply shape: {other:?}")),
            Err(ServeError::Shed { .. }) => book.shed_tickets += 1,
            Err(other) => book
                .other_errors
                .push(format!("{}: {other}", priority_name(priority))),
        }
    }
    // the depth gauge is re-synced with an absolute set at every
    // admission, displacement and pop, so with every ticket resolved it
    // must read exactly zero *without* a gauge-refreshing snapshot call
    // — drift here means some displacement/shed path double-counted
    let drained_depth = hub
        .snapshot()
        .value("sparseloop_queue_depth", &[])
        .unwrap_or(-1);
    if drained_depth != 0 {
        failures.push(format!(
            "queue depth gauge reads {drained_depth} after the burst drained"
        ));
    }
    let stats = service.shutdown();
    pool.shutdown();

    sparseloop_bench::header(&[
        "priority",
        "admitted",
        "completed",
        "shed (queue)",
        "shed (watermark)",
        "queue full",
    ]);
    for priority in [Priority::Interactive, Priority::Batch, Priority::Background] {
        let book = &ledger[priority.index()];
        sparseloop_bench::row(&[
            priority_name(priority).into(),
            book.admitted.to_string(),
            book.completed.to_string(),
            book.shed_tickets.to_string(),
            book.watermark_sheds.to_string(),
            book.queue_full.to_string(),
        ]);
        for e in &book.other_errors {
            failures.push(format!("request failed outright: {e}"));
        }
    }

    let interactive = &ledger[Priority::Interactive.index()];
    let background = &ledger[Priority::Background.index()];
    if interactive.shed_tickets != 0 || interactive.watermark_sheds != 0 {
        failures.push("interactive work was shed — priority order inverted".into());
    }
    if ledger[Priority::Batch.index()].watermark_sheds != 0 {
        failures.push("watermark shed hit non-background work".into());
    }
    if background.shed_tickets + background.watermark_sheds == 0 {
        failures.push("burst never shed any background work — overload not exercised".into());
    }
    let resolved: u64 = ledger
        .iter()
        .map(|b| b.completed + b.shed_tickets + b.other_errors.len() as u64)
        .sum();
    let admitted: u64 = ledger.iter().map(|b| b.admitted).sum();
    if resolved != admitted {
        failures.push(format!(
            "{admitted} tickets admitted but only {resolved} resolved"
        ));
    }
    if stats.submitted != stats.completed + stats.panicked + stats.canceled + stats.shed {
        failures.push(format!(
            "stats do not partition: submitted {} != {}+{}+{}+{}",
            stats.submitted, stats.completed, stats.panicked, stats.canceled, stats.shed
        ));
    }
    let shed_tickets: u64 = ledger.iter().map(|b| b.shed_tickets).sum();
    if stats.shed != shed_tickets {
        failures.push(format!(
            "service counted {} sheds, tickets saw {shed_tickets}",
            stats.shed
        ));
    }
    let snap = hub.snapshot();
    let counter =
        |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0) as u64;
    for (label, want) in [
        ("submitted", stats.submitted),
        ("completed", stats.completed),
        ("shed", stats.shed),
        ("rejected", stats.rejected),
    ] {
        let got = counter("sparseloop_requests_total", &[("outcome", label)]);
        if got != want {
            failures.push(format!(
                "metrics drift: requests_total{{outcome={label}}} = {got}, stats say {want}"
            ));
        }
    }
    if counter("sparseloop_service_fleet_total", &[("kind", "dispatched")])
        != stats.fleet_dispatched
    {
        failures.push("metrics drift: fleet dispatch counter".into());
    }

    // -- phase 2: breaker trip and recovery ---------------------------------
    let breaker_hub = ObsHub::new();
    let mut host = ShardHost::new_observed(
        HostConfig::default()
            .with_shards(SHARDS)
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown_nanos: 50_000_000,
            }),
        FlakySpawner {
            // one refusal per request: request 1 counts a failure,
            // request 2 trips the breaker, the first probe re-trips,
            // the second probe heals
            failures_left: AtomicU32::new(3),
            inner: ThreadSpawner,
        },
        breaker_hub.clone(),
    );
    let mut trip_rows: Vec<(String, BreakerState)> = Vec::new();
    for phase in ["first refusal", "trip", "failed probe", "healing probe"] {
        if phase.contains("probe") {
            std::thread::sleep(Duration::from_millis(60));
        }
        match host.run_spec(&text) {
            Ok(reply) => {
                if let Some(why) = reply_mismatch(&reply, &want) {
                    failures.push(format!("breaker {phase}: degraded reply differs: {why}"));
                }
            }
            Err(e) => failures.push(format!("breaker {phase}: request failed: {e}")),
        }
        trip_rows.push((phase.into(), host.breaker_state()));
    }
    println!();
    sparseloop_bench::header(&["breaker phase", "state after"]);
    for (phase, state) in &trip_rows {
        sparseloop_bench::row(&[phase.clone(), state.as_str().into()]);
    }
    let host_stats = host.stats();
    if host_stats.breaker_trips < 2 {
        failures.push(format!(
            "expected the breaker to trip twice (threshold + failed probe), saw {}",
            host_stats.breaker_trips
        ));
    }
    if host_stats.breaker_probes < 2 {
        failures.push(format!(
            "expected two half-open probes, saw {}",
            host_stats.breaker_probes
        ));
    }
    if host.breaker_state() != BreakerState::Closed {
        failures.push(format!(
            "breaker never recovered: final state {}",
            host.breaker_state().as_str()
        ));
    }
    if host_stats.degraded == 0 {
        failures.push("breaker trips never degraded a request in-process".into());
    }
    let breaker_snap = breaker_hub.snapshot();
    let gauge = breaker_snap
        .value("sparseloop_fleet_breaker_state", &[])
        .unwrap_or(-1);
    if gauge != host.breaker_state().code() as i128 {
        failures.push(format!(
            "breaker gauge {gauge} drifted from state {}",
            host.breaker_state().as_str()
        ));
    }
    drop(host);

    if let Some(path) = snapshot_path {
        sparseloop_bench::write_metrics_snapshot(&path, &snap);
    }

    if !failures.is_empty() {
        eprintln!("\noverload smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\noverload burst shed strictly by priority, every ticket resolved, \
         breaker tripped and recovered; metrics reconcile"
    );
}
