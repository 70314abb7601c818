//! End-to-end smoke test for the dependency-free observability HTTP
//! server: an observed [`EvalService`] backed by a pooled in-thread
//! fleet running a seeded fault schedule, scraped over real loopback
//! TCP. CI gates on:
//!
//! * `GET /metrics` parses with [`MetricsSnapshot::parse_text`] and the
//!   scraped counters reconcile with
//!   [`ServiceStats`](sparseloop_serve::ServiceStats) and the
//!   in-process snapshot — the wire adds or loses nothing,
//! * the burst forces at least one displacement shed and the flight
//!   recorder serves it at `/traces` (and the span tree at
//!   `/traces/<id>`),
//! * `GET /healthz` flips `200 → 503` when the fleet circuit breaker is
//!   forced open by refused spawns, and back to `200` once a half-open
//!   probe heals it — the same hub gauge both sides read.

use sparseloop_obs::http::http_get;
use sparseloop_obs::{MetricsSnapshot, ObsHub};
use sparseloop_serve::proc::{WorkerEvent, WorkerHandle};
use sparseloop_serve::{
    BreakerConfig, BreakerState, EvalService, FaultPlan, FleetPool, FleetPoolConfig, HostConfig,
    Priority, ServeConfig, ServeError, ServeRequest, ShardHost, ThreadSpawner, WorkerSpawner,
};
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const SHARDS: usize = 2;

fn smoke_spec() -> String {
    let scenario = sparseloop_designs::Scenario::new(
        "obs_http_smoke",
        "small search for the HTTP observability smoke",
        || {
            let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = sparseloop_mapping::Mapspace::all_temporal(&layer.einsum, &dp.arch);
            vec![sparseloop_designs::Experiment::search(
                "obs_http@search",
                dp,
                layer,
                space,
            )]
        },
    );
    sparseloop_spec::emit_scenario(&scenario)
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

fn scrape(addr: std::net::SocketAddr, path: &str, failures: &mut Vec<String>) -> (u16, String) {
    match http_get(addr, path) {
        Ok(reply) => reply,
        Err(e) => {
            failures.push(format!("GET {path} failed on the wire: {e}"));
            (0, String::new())
        }
    }
}

fn main() {
    let mut failures: Vec<String> = Vec::new();
    let text = smoke_spec();

    let hub = ObsHub::new();
    let pool = FleetPool::with_spawners(
        FleetPoolConfig::default().with_hosts(1).with_host_config(
            HostConfig::default()
                .with_shards(SHARDS)
                .with_heartbeat(20, Duration::from_millis(600))
                .with_retries(3, Duration::from_millis(5))
                .with_fault_plan(FaultPlan::from_seed(5, SHARDS as u32)),
        ),
        |_| Box::new(ThreadSpawner),
        Some(hub.clone()),
    );
    let service = EvalService::start_with_fleet(
        ServeConfig::default()
            .with_workers(1)
            .with_shards(SHARDS)
            .with_queue_capacity(1)
            .with_obs_server("127.0.0.1:0".parse().expect("loopback addr")),
        pool.clone(),
    );
    let Some(addr) = service.obs_http_addr() else {
        eprintln!("obs http smoke FAILED: observability server did not bind");
        std::process::exit(1);
    };
    println!("observability server on http://{addr}");

    // -- phase 1: healthy traffic (the fleet heals its seeded faults) --------
    match service.submit_spec(text.clone()) {
        Ok(t) => {
            if let Err(e) = t.wait() {
                failures.push(format!("seeded-fault fleet request failed: {e}"));
            }
        }
        Err(e) => failures.push(format!("seeded-fault request refused: {e}")),
    }
    let (code, body) = scrape(addr, "/healthz", &mut failures);
    if code != 200 {
        failures.push(format!("healthz on a healthy service: {code} ({body})"));
    }

    // -- phase 2: force a displacement shed through the 1-slot queue --------
    let mut shed_seen = false;
    for _ in 0..50 {
        let mut queued = Vec::new();
        // stuff the queue with background work while the worker is busy...
        for _ in 0..3 {
            if let Ok(t) =
                service.submit_with_priority(ServeRequest::Spec(text.clone()), Priority::Background)
            {
                queued.push(t);
            }
        }
        // ...then outrank it: a full queue displaces the youngest
        // background entry, whose ticket resolves to Shed
        if let Ok(t) =
            service.submit_with_priority(ServeRequest::Spec(text.clone()), Priority::Interactive)
        {
            queued.push(t);
        }
        for t in queued {
            if matches!(t.wait(), Err(ServeError::Shed { .. })) {
                shed_seen = true;
            }
        }
        if shed_seen {
            break;
        }
    }
    if !shed_seen {
        failures.push("burst never displaced a background request".into());
    }

    // -- phase 3: scrape /metrics and reconcile both books ------------------
    let (code, scraped_text) = scrape(addr, "/metrics", &mut failures);
    if code != 200 {
        failures.push(format!("GET /metrics returned {code}"));
    }
    let stats = service.stats();
    match MetricsSnapshot::parse_text(&scraped_text) {
        Ok(scraped) => {
            let series = |o: &str| {
                scraped
                    .get(&format!("sparseloop_requests_total{{outcome=\"{o}\"}}"))
                    .unwrap_or(0.0) as u64
            };
            for (label, want) in [
                ("submitted", stats.submitted),
                ("completed", stats.completed),
                ("shed", stats.shed),
            ] {
                if series(label) != want {
                    failures.push(format!(
                        "scrape drift: requests_total{{outcome={label}}} = {}, stats say {want}",
                        series(label)
                    ));
                }
            }
            if stats.shed == 0 {
                failures.push("stats recorded no shed despite the displaced ticket".into());
            }
            let in_process = service.metrics_snapshot().expect("observed service");
            for name in [
                "sparseloop_fleet_requests_total",
                "sparseloop_service_fleet_total",
            ] {
                let wire = scraped.sum_of(name);
                let local = in_process.sum_of(name) as f64;
                if wire != local {
                    failures.push(format!(
                        "scrape drift: {name} reads {wire} on the wire, {local} in process"
                    ));
                }
            }
        }
        Err(e) => failures.push(format!("scraped /metrics does not parse: {e}")),
    }

    // -- phase 4: the flight recorder serves the shed over HTTP -------------
    let (code, traces) = scrape(addr, "/traces", &mut failures);
    if code != 200 || !traces.starts_with("# flight recorder:") {
        failures.push(format!("GET /traces returned {code}: {traces}"));
    }
    if !traces.contains("outcome=shed") {
        failures.push(format!(
            "shed request not retained by the recorder:\n{traces}"
        ));
    }
    if let Some(id) = traces
        .lines()
        .find_map(|l| l.strip_prefix("request=")?.split_whitespace().next())
    {
        let (code, tree) = scrape(addr, &format!("/traces/{id}"), &mut failures);
        if code != 200 || !tree.contains("outcome=") {
            failures.push(format!("GET /traces/{id} returned {code}: {tree}"));
        }
    } else if failures.is_empty() {
        failures.push("trace index has no retained entries to follow".into());
    }

    // -- phase 5: breaker open flips /healthz to 503, healing flips back ----
    // a standalone host on the same hub owns the breaker gauge the
    // service's health hook reads — trip it with refused spawns
    let mut host = ShardHost::new_observed(
        HostConfig::default()
            .with_shards(SHARDS)
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown_nanos: 50_000_000,
            }),
        FlakySpawner {
            // request 1 counts a failure, request 2 trips the breaker
            failures_left: AtomicU32::new(2),
            inner: ThreadSpawner,
        },
        hub.clone(),
    );
    for phase in ["first refusal", "trip"] {
        if let Err(e) = host.run_spec(&text) {
            failures.push(format!("breaker {phase}: request failed: {e}"));
        }
    }
    if host.breaker_state() != BreakerState::Open {
        failures.push(format!(
            "breaker did not open after refusals: {}",
            host.breaker_state().as_str()
        ));
    }
    let (code, body) = scrape(addr, "/healthz", &mut failures);
    if code != 503 || !body.contains("breaker") {
        failures.push(format!(
            "healthz with the breaker open: expected 503 mentioning the breaker, got {code} ({body})"
        ));
    }
    std::thread::sleep(Duration::from_millis(60));
    if let Err(e) = host.run_spec(&text) {
        failures.push(format!("breaker healing probe failed: {e}"));
    }
    if host.breaker_state() != BreakerState::Closed {
        failures.push(format!(
            "breaker never healed: {}",
            host.breaker_state().as_str()
        ));
    }
    let (code, body) = scrape(addr, "/healthz", &mut failures);
    if code != 200 {
        failures.push(format!("healthz after healing: {code} ({body})"));
    }
    drop(host);

    service.shutdown();
    pool.shutdown();

    if !failures.is_empty() {
        eprintln!("\nobs http smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "scrape reconciles with in-process books, shed retained at /traces, \
         healthz tracked the breaker open and healed"
    );
}
