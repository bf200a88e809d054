//! The traced run: the same operation sequence replayed down the
//! ladder `net → runtime → engine → protocol/store`, plus `wire`, with
//! a span around each call into a layer.
//!
//! * `engine` — `HypercubeIndex`, one span per call; also the oracle.
//! * `net` — two fresh clusters: one replays untraced (the rung's CPU
//!   and the divergence count), one traced; their throughput ratio is
//!   `trace.overhead`.
//! * `runtime` — `NodeRuntime` with the cluster's worker count over the
//!   channel transport. A set-up-only runtime's shutdown ledger is
//!   subtracted so its counters cover the timed phase alone.
//! * `protocol`/`store` — per-vertex store replicas under the shared
//!   coordinator; store spans nest under the protocol's.
//! * `wire` — every request and reply frame encoded and decoded.
//!
//! A rung's added cost is its CPU per operation minus the rung below.

use std::collections::BTreeMap;
use std::path::Path;

use hyperdex_runtime::{NodeRuntime, RuntimeConfig, ShutdownReport};

use crate::cluster;
use crate::engine;
use crate::pass;
use crate::protocol;
use crate::report::{ratio, Outcome};
use crate::stats::{percentile, tail};
use crate::trace::{self, Totals, Tracer};
use crate::wire;
use crate::workload::{Plan, R, WORKERS};

/// Runs the ladder for `plan`, writing the spans to `spans_path`.
///
/// # Errors
///
/// A cluster or runtime that cannot be started or loaded.
pub fn run(plan: &Plan, server_bin: &Path, spans_path: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let ops = plan.ops() as f64;
    let reads = plan.reads() as f64;

    let engine = engine::replay(plan, &mut tracer);

    // net: an untraced and a traced replay, each on a fresh cluster.
    let mut deployed = cluster::launch(plan.seed, server_bin)?;
    let idle_rss_mib = cluster::rss_mib(&deployed.servers)?;
    let setup = pass::load(&mut deployed.client, &plan.corpus[..plan.preload])?;
    let untraced = pass::run(
        &mut deployed.client,
        plan,
        &engine.expects,
        &deployed.servers,
        &mut Tracer::disabled(),
    );
    if let Err(e) = cluster::shutdown(deployed) {
        out.error(e);
    }
    let mut deployed = cluster::launch(plan.seed, server_bin)?;
    pass::load(&mut deployed.client, &plan.corpus[..plan.preload])?;
    let traced = pass::run(
        &mut deployed.client,
        plan,
        &engine.expects,
        &deployed.servers,
        &mut tracer,
    );
    if let Err(e) = cluster::shutdown(deployed) {
        out.error(e);
    }

    // runtime: subtract a set-up-only runtime's ledger.
    let config = RuntimeConfig::new(R, WORKERS).seed(plan.seed);
    let start = || NodeRuntime::start(config).map_err(|e| format!("runtime start: {e}"));
    let mut rt = start()?;
    pass::load(&mut rt, &plan.corpus[..plan.preload])?;
    let base = rt.shutdown();
    let mut rt = start()?;
    pass::load(&mut rt, &plan.corpus[..plan.preload])?;
    let rt_pass = pass::run(&mut rt, plan, &engine.expects, &[], &mut tracer);
    let rt_report = rt.shutdown();
    for report in [&base, &rt_report] {
        if let Err(e) = cluster::conserved(report) {
            out.error(format!("runtime: {e}"));
        }
    }

    let proto = protocol::replay(plan, &engine.expects, &mut tracer);
    let wire_run = wire::replay(plan, &engine.expects, &mut tracer);

    if let Err(e) = tracer.write_tsv(spans_path) {
        out.error(format!("writing spans: {e}"));
    }
    let spans = tracer.spans();
    let first_timed = plan.preload as u64;
    let timed = trace::totals(spans, |s| s.op >= first_timed);
    let all = trace::totals(spans, |_| true);
    let get =
        |m: &BTreeMap<&'static str, Totals>, name: &str| m.get(name).copied().unwrap_or_default();

    // store
    let scan = get(&all, protocol::SCAN);
    let store_pin = get(&all, protocol::PIN);
    let store_insert = get(&all, protocol::INSERT);
    out.metric(
        "store.scan_us_per_op",
        ratio((scan.total_ns + store_pin.total_ns) as f64 / 1e3, reads),
        "us",
    );
    out.metric(
        "store.scans_per_op",
        ratio((proto.visits + proto.pins) as f64, proto.reads as f64),
        "count",
    );
    out.metric(
        "store.sets_examined_per_scan",
        ratio(proto.sets_examined as f64, proto.visits as f64),
        "count",
    );
    out.metric(
        "store.match_ratio",
        ratio(proto.sets_matched as f64, proto.sets_examined as f64),
        "ratio",
    );
    out.metric("store.pin_ns", mean_ns(store_pin), "ns");
    out.metric("store.insert_ns", mean_ns(store_insert), "ns");
    out.metric(
        "store.bytes_per_object",
        ratio(proto.bytes_resident as f64, proto.objects as f64),
        "B-modelled",
    );

    // protocol
    let search = get(&all, protocol::SEARCH);
    out.metric(
        "protocol.self_us_per_search",
        ratio(search.self_ns as f64 / 1e3, proto.searches as f64),
        "us",
    );
    out.metric(
        "protocol.visits_per_search",
        ratio(proto.visits as f64, proto.searches as f64),
        "count",
    );
    out.metric(
        "protocol.useful_visit_ratio",
        ratio(proto.useful_visits as f64, proto.visits as f64),
        "ratio",
    );

    // engine
    let mut search_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == engine::SEARCH)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    search_us.sort_by(f64::total_cmp);
    let (search_p50, search_p99) = if search_us.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&search_us, 50.0), percentile(&search_us, 99.0))
    };
    if let Some(t) = tail(&search_us) {
        out.note(
            "engine_search_tail",
            format!("p{} = {:.1} us", t.pct, t.value),
        );
    }
    out.note("engine_search_samples", search_us.len());
    out.metric("engine.pin_us", mean_ns(get(&all, engine::PIN)) / 1e3, "us");
    out.metric("engine.search_us_p50", search_p50, "us");
    out.metric("engine.search_us_p99", search_p99, "us");
    out.metric(
        "engine.insert_us",
        mean_ns(get(&all, engine::INSERT)) / 1e3,
        "us",
    );
    out.metric(
        "engine.nodes_contacted_per_search",
        ratio(engine.search_visits as f64, engine.searches as f64),
        "count",
    );
    out.metric(
        "engine.entries_scanned_per_search",
        ratio(engine.search_entries as f64, engine.searches as f64),
        "count",
    );
    let engine_ns: u64 = [engine::PIN, engine::SEARCH, engine::INSERT]
        .iter()
        .map(|n| get(&timed, n).total_ns)
        .sum();
    let engine_us_per_op = ratio(engine_ns as f64 / 1e3, ops);

    // wire
    let frames = wire_run.frames as f64;
    out.metric(
        "wire.encode_ns_per_frame",
        ratio(get(&all, wire::ENCODE).total_ns as f64, frames),
        "ns",
    );
    out.metric(
        "wire.decode_ns_per_frame",
        ratio(get(&all, wire::DECODE).total_ns as f64, frames),
        "ns",
    );
    out.metric(
        "wire.bytes_per_op",
        ratio(wire_run.bytes as f64, wire_run.ops as f64),
        "B",
    );

    // runtime
    let delta = |f: fn(&ShutdownReport) -> u64| f(&rt_report).saturating_sub(f(&base)) as f64;
    let rt_cpu_us_per_op = ratio(rt_pass.cpu_ns() as f64 / 1e3, ops);
    out.metric("runtime.ops_per_s", ratio(ops, rt_pass.wall_s), "1/s");
    out.metric("runtime.read_p50_us", rt_pass.read_p50_us(), "us");
    out.metric("runtime.cpu_us_per_op", rt_cpu_us_per_op, "us");
    out.metric(
        "runtime.added_cpu_us_per_op",
        rt_cpu_us_per_op - engine_us_per_op,
        "us",
    );
    out.metric(
        "runtime.frames_per_op",
        ratio(delta(ShutdownReport::total_sent), ops),
        "frames",
    );
    let scans = delta(|r| r.workers.iter().map(|w| w.scans).sum());
    out.metric("runtime.scans_per_op", ratio(scans, ops), "count");
    out.metric(
        "runtime.overscan_ratio",
        ratio(scans, engine.read_visits as f64),
        "ratio",
    );
    out.metric(
        "runtime.backpressure_hits",
        delta(|r| r.workers.iter().map(|w| w.backpressure_hits).sum()),
        "count",
    );
    out.metric(
        "runtime.wakeups",
        delta(|r| r.workers.iter().map(|w| w.wakeups).sum()),
        "count",
    );

    // net
    let net_cpu_us_per_op = ratio(untraced.cpu_ns() as f64 / 1e3, ops);
    // The timed phase's barriers; the set-up's when it has none.
    let barriers = if untraced.flush_us.is_empty() {
        &setup.flush_us
    } else {
        &untraced.flush_us
    };
    let flush_us = barriers.iter().sum::<f64>() / barriers.len() as f64;
    out.metric(
        "net.added_cpu_us_per_op",
        net_cpu_us_per_op - rt_cpu_us_per_op,
        "us",
    );
    out.metric(
        "net.client_cpu_share",
        ratio(untraced.client_cpu_ns as f64, untraced.cpu_ns() as f64),
        "ratio",
    );
    out.metric("net.flush_us", flush_us, "us");
    out.metric("net.idle_rss_mib", idle_rss_mib, "MiB");
    out.metric(
        "trace.overhead",
        ratio(traced.wall_s, untraced.wall_s),
        "ratio",
    );
    out.metric(
        "oracle.threshold_divergence",
        untraced.diverged as f64,
        "count",
    );

    out.note("steal_share", format!("{:.4}", untraced.steal_share));
    out.note("engine_us_per_op", engine_us_per_op);
    out.note("net_cpu_us_per_op", net_cpu_us_per_op);
    out.note("net_ops_per_s", ratio(ops, untraced.wall_s));
    out.note("net_traced_divergence", traced.diverged);
    out.note("runtime_divergence", rt_pass.diverged);
    out.note("protocol_divergence", proto.diverged);
    out.note("spans", spans.len());
    for pass in [&untraced, &traced, &rt_pass] {
        pass.account(&mut out);
    }
    out.attempted += proto.reads + wire_run.ops;
    out.failed += proto.failed + wire_run.failed;
    for e in &proto.errors {
        out.error(format!("protocol: {e}"));
    }
    if wire_run.failed > 0 {
        out.error(format!(
            "wire: {} frames failed the round trip",
            wire_run.failed
        ));
    }
    Ok(out)
}

fn mean_ns(t: Totals) -> f64 {
    ratio(t.total_ns as f64, t.count as f64)
}
