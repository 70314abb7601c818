//! Observability smoke test: asserts the metric **cross-invariants**
//! that make the `/metrics`-style snapshot trustworthy, in three
//! phases —
//!
//! * **A (service)**: an observed [`EvalService`] serves successes,
//!   forced rejections (1-slot queue) and an expired-deadline cancel;
//!   every admitted request must land in exactly one outcome bucket
//!   (`submitted == completed + panicked + canceled` once drained), the
//!   counters must equal [`ServiceStats`](sparseloop_serve::ServiceStats),
//!   and the rendered text must round-trip through the snapshot parser.
//! * **B (fleet)**: an observed [`ShardHost`] over in-process
//!   [`ThreadSpawner`] workers — including one seeded
//!   [`FaultPlan`] schedule — must produce winners bit-identical to the
//!   in-process reference while every `sparseloop_fleet_*` counter
//!   reconciles with [`HostStats`](sparseloop_serve::HostStats).
//! * **C (overhead)**: instrumentation must cost at most
//!   `SPARSELOOP_METRICS_OVERHEAD_MAX_PCT` (default 5%) throughput
//!   versus the uninstrumented service on the same batch.
//!
//! Non-zero exit on any violation; CI runs this in release mode.

use sparseloop_bench::{header, measure_metrics_overhead, row, write_metrics_snapshot};
use sparseloop_core::EvalSession;
use sparseloop_mapping::Exec;
use sparseloop_obs::{MetricsSnapshot, ObsHub, SpanKind};
use sparseloop_serve::{
    EvalService, FaultPlan, HostConfig, ServeConfig, ServeRequest, ShardHost, SubmitError,
    ThreadSpawner,
};
use std::time::Duration;

/// Default ceiling on instrumentation overhead (percent); override with
/// `SPARSELOOP_METRICS_OVERHEAD_MAX_PCT` for noisy CI hosts.
const DEFAULT_OVERHEAD_MAX_PCT: f64 = 5.0;

fn overhead_limit_pct() -> f64 {
    std::env::var("SPARSELOOP_METRICS_OVERHEAD_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_OVERHEAD_MAX_PCT)
}

fn service_phase(failures: &mut Vec<String>) -> MetricsSnapshot {
    let service = EvalService::start_observed(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
        ObsHub::new(),
    );
    let registry = sparseloop_designs::ScenarioRegistry::standard();
    let spec = sparseloop_spec::emit_scenario(registry.expect("fig1_format_tradeoff"));
    let mut tickets = Vec::new();
    for _ in 0..5 {
        match service.submit_spec(spec.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(other) => {
                failures.push(format!("service: unexpected admission error: {other}"));
                break;
            }
        }
    }
    // a request admitted with an already-expired deadline: the worker's
    // dequeue-time probe must retire it as canceled, deterministically
    loop {
        match service.submit_with_deadline(
            ServeRequest::Scenario("fig1_format_tradeoff".into()),
            Duration::ZERO,
        ) {
            Ok(t) => {
                let _ = t.wait();
                break;
            }
            Err(SubmitError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(other) => {
                failures.push(format!("service: unexpected admission error: {other}"));
                break;
            }
        }
    }
    for t in tickets {
        if t.wait().is_err() {
            failures.push("service: a submitted request did not resolve Ok".into());
        }
    }
    let snap = service.metrics_snapshot().expect("observed service");
    let stats = service.stats();
    let outcome = |o: &str| {
        snap.value("sparseloop_requests_total", &[("outcome", o)])
            .unwrap_or(0) as u64
    };
    let checks: [(&str, u64, u64); 6] = [
        (
            "submitted counter vs stats",
            outcome("submitted"),
            stats.submitted,
        ),
        (
            "rejected counter vs stats",
            outcome("rejected"),
            stats.rejected,
        ),
        (
            "completed counter vs stats",
            outcome("completed"),
            stats.completed,
        ),
        (
            "canceled counter vs stats",
            outcome("canceled"),
            stats.canceled,
        ),
        (
            "panicked counter vs stats",
            outcome("panicked"),
            stats.panicked,
        ),
        (
            "submitted == completed + panicked + canceled",
            outcome("submitted"),
            outcome("completed") + outcome("panicked") + outcome("canceled"),
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            failures.push(format!("service: {what}: {got} != {want}"));
        }
    }
    if stats.canceled == 0 {
        failures.push("service: the expired deadline never produced a cancel".into());
    }
    if snap
        .value(
            "sparseloop_mapper_candidates_total",
            &[("stage", "evaluated")],
        )
        .unwrap_or(0)
        == 0
    {
        failures.push("service: mapper funnel counters never moved".into());
    }
    match MetricsSnapshot::parse_text(&snap.render_text()) {
        Ok(parsed) => {
            let want = snap.sum_of("sparseloop_requests_total") as f64;
            let got = parsed.sum_of("sparseloop_requests_total");
            if got != want {
                failures.push(format!("service: text round-trip drifted: {got} != {want}"));
            }
        }
        Err(e) => failures.push(format!("service: snapshot text unparseable: {e}")),
    }
    let hub = service.hub().expect("observed service").clone();
    let spans = hub.traces().events();
    for kind in [SpanKind::QueueWait, SpanKind::SessionEval] {
        if !spans.iter().any(|e| e.kind == kind) {
            failures.push(format!("service: no {} span recorded", kind.as_str()));
        }
    }
    // the snapshot self-identifies: one build-info series carrying the
    // crate version and the frame protocol, plus an uptime gauge
    if snap.sum_of("sparseloop_build_info") != 1 {
        failures.push("service: sparseloop_build_info gauge missing or duplicated".into());
    }
    if snap
        .value(
            "sparseloop_build_info",
            &[
                // the workspace crates version together, so the bench
                // crate's own version matches the one obs publishes
                ("version", env!("CARGO_PKG_VERSION")),
                ("protocol", &sparseloop_serve::PROTOCOL_VERSION.to_string()),
            ],
        )
        .unwrap_or(0)
        != 1
    {
        failures.push("service: build_info labels do not carry version + protocol".into());
    }
    if snap.value("sparseloop_uptime_seconds", &[]).is_none() {
        failures.push("service: sparseloop_uptime_seconds gauge missing".into());
    }
    service.shutdown();
    snap
}

fn fleet_phase(failures: &mut Vec<String>) -> MetricsSnapshot {
    let registry = sparseloop_designs::ScenarioRegistry::standard();
    let scenario = registry.expect("fig1_format_tradeoff");
    let text = sparseloop_spec::emit_scenario(scenario);
    let reference = sparseloop_serve::scenario_reply(scenario.run_exec(
        &EvalSession::new(),
        Exec::Shards(2),
        None,
    ));
    let hub = ObsHub::new();
    // a fault-free run plus one seeded schedule, both attached to the
    // same hub; expected counter values are the *sum* of each host's
    // own stats, so a series that drops or double-counts either host's
    // cells fails the run
    let mut expect_restarts = 0u64;
    let mut expect_deaths_eof = 0u64;
    let mut expect_deaths_hb = 0u64;
    let mut expect_kills = 0u64;
    let mut expect_degraded = 0u64;
    let mut expect_requests = 0u64;
    for (tag, plan) in [
        ("fault-free", FaultPlan::none()),
        ("seeded", FaultPlan::from_seed(7, 2)),
    ] {
        let mut host = ShardHost::new_observed(
            HostConfig::default()
                .with_shards(2)
                .with_heartbeat(20, Duration::from_millis(600))
                .with_retries(3, Duration::from_millis(5))
                .with_fault_plan(plan),
            ThreadSpawner,
            hub.clone(),
        );
        match host.run_spec(&text) {
            Err(e) => failures.push(format!("fleet({tag}): request did not resolve: {e}")),
            Ok(reply) => {
                for (label, (got, want)) in reply
                    .labels
                    .iter()
                    .zip(reply.results.iter().zip(&reference.results))
                {
                    let identical = match (got, want) {
                        (Ok(g), Ok(w)) => {
                            g.mapping == w.mapping
                                && g.eval.edp.to_bits() == w.eval.edp.to_bits()
                                && g.stats == w.stats
                        }
                        (Err(g), Err(w)) => g == w,
                        _ => false,
                    };
                    if !identical {
                        failures.push(format!("fleet({tag}): {label}: winner not bit-identical"));
                    }
                }
            }
        }
        let stats = host.stats();
        drop(host);
        expect_restarts += stats.restarts;
        expect_deaths_eof += stats.deaths_eof;
        expect_deaths_hb += stats.deaths_heartbeat_timeout;
        expect_kills += stats.kills_injected;
        expect_degraded += stats.degraded;
        expect_requests += stats.requests;
        let snap = hub.snapshot();
        let counter =
            |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0) as u64;
        type Check<'a> = (&'a str, &'a [(&'a str, &'a str)], u64);
        let fleet_checks: [Check; 6] = [
            ("sparseloop_fleet_requests_total", &[], expect_requests),
            ("sparseloop_fleet_restarts_total", &[], expect_restarts),
            (
                "sparseloop_fleet_deaths_total",
                &[("cause", "eof")],
                expect_deaths_eof,
            ),
            (
                "sparseloop_fleet_deaths_total",
                &[("cause", "heartbeat_timeout")],
                expect_deaths_hb,
            ),
            ("sparseloop_fleet_kills_injected_total", &[], expect_kills),
            ("sparseloop_fleet_degraded_total", &[], expect_degraded),
        ];
        for (name, labels, want) in fleet_checks {
            if counter(name, labels) != want {
                failures.push(format!(
                    "fleet({tag}): {name}{labels:?} = {}, HostStats sum = {want}",
                    counter(name, labels)
                ));
            }
        }
    }
    let snap = hub.snapshot();
    // worker phase timings must have crossed the frame protocol
    if snap.sum_of("sparseloop_worker_compile_nanos") == 0 {
        failures.push("fleet: no worker compile-phase timings arrived over the wire".into());
    }
    if snap.sum_of("sparseloop_worker_search_nanos") == 0 {
        failures.push("fleet: no worker search-phase timings arrived over the wire".into());
    }
    trace_tree_checks(&hub, failures);
    snap
}

/// Asserts the cross-process causal nesting for the last fleet request
/// (the seeded-fault one): worker phase spans echo their dispatch span
/// over the v3 frame trailer, dispatch spans parent under the round
/// trip — so `render_tree` shows a connected per-request timeline even
/// through retries.
fn trace_tree_checks(hub: &ObsHub, failures: &mut Vec<String>) {
    let events = hub.traces().events();
    let Some(rid) = events
        .iter()
        .rev()
        .find(|e| e.kind == SpanKind::WorkerRoundTrip)
        .map(|e| e.request_id)
    else {
        failures.push("trace: no worker_round_trip span recorded".into());
        return;
    };
    let req = hub.traces().events_for(rid);
    let roundtrips: Vec<u64> = req
        .iter()
        .filter(|e| e.kind == SpanKind::WorkerRoundTrip)
        .map(|e| e.span_id)
        .collect();
    let dispatches: Vec<_> = req
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::ShardDispatch | SpanKind::HedgeDispatch))
        .collect();
    if dispatches.is_empty() {
        failures.push(format!("trace: request {rid} has no dispatch spans"));
    }
    for d in &dispatches {
        if !roundtrips.contains(&d.parent_span_id) {
            failures.push(format!(
                "trace: {} span {} parents under {} instead of the round trip",
                d.kind.as_str(),
                d.span_id,
                d.parent_span_id
            ));
        }
    }
    let dispatch_ids: Vec<u64> = dispatches.iter().map(|e| e.span_id).collect();
    let phases: Vec<_> = req
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::WorkerCompile | SpanKind::WorkerSearch))
        .collect();
    if phases.is_empty() {
        failures.push(format!(
            "trace: request {rid} has no worker phase spans (stats trailer lost?)"
        ));
    }
    for p in &phases {
        if !dispatch_ids.contains(&p.parent_span_id) {
            failures.push(format!(
                "trace: {} span {} not parented under any dispatch span",
                p.kind.as_str(),
                p.span_id
            ));
        }
    }
    let tree = hub.traces().render_tree(rid);
    for needle in ["worker_round_trip", "shard_dispatch", "worker_compile"] {
        if !tree.contains(needle) {
            failures.push(format!(
                "trace: render_tree({rid}) is missing {needle}:\n{tree}"
            ));
        }
    }
}

fn main() {
    let snapshot_path = sparseloop_bench::metrics_snapshot_arg();
    let mut failures = Vec::new();

    println!("== metrics smoke: phase A (service invariants) ==");
    let service_snap = service_phase(&mut failures);

    println!("== metrics smoke: phase B (fleet reconciliation, seeded faults) ==");
    let fleet_snap = fleet_phase(&mut failures);

    println!("== metrics smoke: phase C (instrumentation overhead) ==");
    let overhead = measure_metrics_overhead(400, 15);
    let limit = overhead_limit_pct();
    header(&[
        "requests",
        "baseline r/s",
        "observed r/s",
        "overhead %",
        "limit %",
    ]);
    row(&[
        overhead.requests.to_string(),
        format!("{:.1}", overhead.baseline_rps),
        format!("{:.1}", overhead.observed_rps),
        format!("{:+.2}", overhead.overhead_pct()),
        format!("{limit:.2}"),
    ]);
    if overhead.overhead_pct() > limit {
        failures.push(format!(
            "overhead: instrumentation costs {:.2}% throughput (limit {limit:.2}%)",
            overhead.overhead_pct()
        ));
    }

    if let Some(path) = snapshot_path {
        // the service snapshot is the richer of the two; append the
        // fleet section so one file holds the whole catalog
        let mut text = service_snap.render_text();
        text.push_str(&fleet_snap.render_text());
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write metrics snapshot {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("metrics snapshot written to {}", path.display());
    } else {
        // keep the helper linked even when no path is given
        let _ = write_metrics_snapshot;
    }

    if !failures.is_empty() {
        eprintln!("\nmetrics smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nall metric invariants hold");
}
