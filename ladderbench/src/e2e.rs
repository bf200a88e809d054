//! The end-to-end run: tracing off, the deployed cluster only, every
//! reply checked against the engine.

use std::path::Path;
use std::time::Instant;

use crate::cluster;
use crate::engine;
use crate::pass::{self, Pass};
use crate::report::{ratio, Outcome};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workload::Plan;

/// Cluster set-ups per run, at least. One fresh cluster per replay
/// replays the timed phase; the rest only set up, and each is shut
/// down right after its barrier, its shutdown ledger giving the
/// set-up's frame count that `frames_per_op` subtracts. The set-up-only
/// clusters are spread between the replays, the first before any, so
/// the set-up figures sample the host over the whole run like the
/// timed ones. `setup_s` is the median over every set-up, and the
/// set-up load rate the median over every set-up's chunks. A set-up
/// takes well under a second, so it takes many to sample the host.
pub const SETUPS: usize = 16;

/// Runs `plan` end to end.
///
/// # Errors
///
/// A cluster that cannot be launched or loaded.
pub fn run(plan: &Plan, server_bin: &Path) -> Result<Outcome, String> {
    let engine = engine::replay(plan, &mut Tracer::disabled());
    let mut out = Outcome::default();
    let setup_only = SETUPS.saturating_sub(plan.replays).max(1);
    let mut setup_s = Vec::with_capacity(setup_only + plan.replays);
    let mut load_rate = Vec::new();
    let mut setup_frames = Vec::with_capacity(setup_only);
    let mut timed_frames = Vec::with_capacity(plan.replays);
    let mut rss_mib = Vec::with_capacity(plan.replays);
    let mut pass = Pass::default();
    for replays in schedule(setup_only, plan.replays) {
        let t0 = Instant::now();
        let mut deployed = cluster::launch(plan.seed, server_bin)?;
        let load = pass::load(&mut deployed.client, &plan.corpus[..plan.preload])?;
        setup_s.push(t0.elapsed().as_secs_f64());
        load_rate.extend(load.chunk_rates);
        if !replays {
            match cluster::shutdown(deployed) {
                Ok(report) => setup_frames.push(report.total_sent()),
                Err(e) => out.error(e),
            }
            continue;
        }
        let replay = pass::run(
            &mut deployed.client,
            plan,
            &engine.expects,
            &deployed.servers,
            &mut Tracer::disabled(),
        );
        rss_mib.push(cluster::rss_mib(&deployed.servers)?);
        match (cluster::shutdown(deployed), setup_frames.first()) {
            (Ok(report), Some(&setup)) => {
                timed_frames.push(report.total_sent().saturating_sub(setup))
            }
            (Ok(_), None) => {}
            (Err(e), _) => out.error(e),
        }
        pass.merge(replay);
    }
    // Frame counts are schedule-driven: the same operations on a fresh
    // cluster must send the same frames.
    if setup_frames.windows(2).any(|w| w[0] != w[1]) {
        out.error(format!(
            "set-up frames differ across set-ups: {setup_frames:?}"
        ));
    }
    if timed_frames.windows(2).any(|w| w[0] != w[1]) {
        out.error(format!(
            "timed frames differ across replays: {timed_frames:?}"
        ));
    }
    let frames = timed_frames.first().copied().unwrap_or(0);

    let ops = plan.ops() as f64;
    let insert_rate = if pass.insert_rates.is_empty() {
        median(&load_rate)
    } else {
        median(&pass.insert_rates)
    };
    note_read_tail(&pass, &mut out);
    out.metric("ops_per_s", pass.ops_per_s(), "1/s");
    out.metric("read_p50_us", pass.read_p50_us(), "us");
    out.metric("read_p99_us", pass.read_p99_us(), "us");
    out.metric("cpu_us_per_op", pass.cpu_us_per_op(), "us");
    out.metric("frames_per_op", ratio(frames as f64, ops), "frames");
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("server_rss_mib", median(&rss_mib), "MiB");
    out.metric("insert_objs_per_s", insert_rate, "1/s");
    out.note("timed_s", pass.wall_s);
    let replayed_ops = ops * plan.replays as f64;
    out.note("ops_per_s_whole", ratio(replayed_ops, pass.wall_s));
    out.note(
        "cpu_us_per_op_whole",
        ratio(pass.cpu_ns() as f64 / 1e3, replayed_ops),
    );
    let rates: Vec<String> = pass
        .rounds
        .iter()
        .map(|r| format!("{:.0}", ratio(r.ops as f64, r.wall_s)))
        .collect();
    out.note("round_ops_per_s", rates.join(" "));
    out.note("setup_s_each", format!("{setup_s:?}"));
    out.note("setup_frames", setup_frames.first().copied().unwrap_or(0));
    out.note("frames_timed", frames);
    out.note(
        "client_cpu_share",
        ratio(pass.client_cpu_ns as f64, pass.cpu_ns() as f64),
    );
    out.note("steal_share", format!("{:.4}", pass.steal_share));
    out.note(
        "threshold_divergence_per_replay",
        ratio(pass.diverged as f64, plan.replays as f64),
    );
    pass.account(&mut out);
    Ok(out)
}

/// The order of a run's set-ups, `true` for one that replays the timed
/// phase: `setup_only` set-up-only clusters spread as evenly as they go
/// between the `replays` replays, at least one before the first.
fn schedule(setup_only: usize, replays: usize) -> Vec<bool> {
    (0..replays)
        .flat_map(|i| {
            let before =
                (setup_only * (i + 1)).div_ceil(replays) - (setup_only * i).div_ceil(replays);
            std::iter::repeat_n(false, before).chain([true])
        })
        .collect()
}

/// Notes the read sample count and the highest percentile it
/// supports (at least 10 samples beyond it).
pub fn note_read_tail(pass: &Pass, out: &mut Outcome) {
    let lat = pass.read_latency_us();
    out.note("read_samples", lat.len());
    match tail(&lat) {
        Some(t) => out.note("read_tail", format!("p{} = {:.1} us", t.pct, t.value)),
        None => out.note("read_tail", "too few samples"),
    }
    if lat.is_empty() {
        out.error("no read completed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_setup_only_clusters_between_replays() {
        let (t, f) = (true, false);
        assert_eq!(schedule(3, 6), [f, t, t, f, t, t, f, t, t]);
        assert_eq!(
            schedule(13, 3),
            [&[f; 5][..], &[t], &[f; 4], &[t], &[f; 4], &[t]].concat()
        );
        for replays in 1..30 {
            let setup_only = SETUPS.saturating_sub(replays).max(1);
            let s = schedule(setup_only, replays);
            assert_eq!(s.len(), setup_only + replays);
            assert!(s.len() >= SETUPS);
            assert_eq!(s.iter().filter(|&&r| r).count(), replays);
            assert!(!s[0], "the first set-up gives the set-up frame count");
        }
    }
}
