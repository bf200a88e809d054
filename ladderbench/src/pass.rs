//! The timed phase, replayed through an executor that serves the
//! closed-loop batch interface: the TCP cluster's `NetClient` or the
//! in-process `NodeRuntime`.

use std::time::Instant;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_net::NetClient;
use hyperdex_runtime::{BatchResult, NodeRuntime, Request};

use crate::meter::{self, HostCpu};
use crate::oracle::{verdict, Expect, Verdict};
use crate::report::{ratio, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{Plan, Step, WINDOW};

/// Most requests handed to one `run_batch` call. The window drains at
/// the end of each call, which is also the end of a round when the
/// round's read step is shorter than this.
pub const BATCH: usize = 1024;

/// An executor the closed loop can drive.
pub trait Executor {
    /// Span around each `run_batch` call.
    const BATCH_SPAN: &'static str;
    /// Span around each insert.
    const INSERT_SPAN: &'static str;
    /// Span around each barrier.
    const FLUSH_SPAN: &'static str;
    /// Routes one insert.
    fn insert(&mut self, id: ObjectId, keywords: &KeywordSet) -> Result<(), String>;
    /// Drain barrier.
    fn flush(&mut self) -> Result<(), String>;
    /// Runs `requests` keeping `window` in flight.
    fn run_batch(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<BatchResult>, String>;
}

impl Executor for NetClient {
    const BATCH_SPAN: &'static str = "net.batch";
    const INSERT_SPAN: &'static str = "net.insert";
    const FLUSH_SPAN: &'static str = "net.flush";
    fn insert(&mut self, id: ObjectId, keywords: &KeywordSet) -> Result<(), String> {
        NetClient::insert(self, id, keywords.clone()).map_err(|e| e.to_string())
    }
    fn flush(&mut self) -> Result<(), String> {
        NetClient::flush(self).map_err(|e| e.to_string())
    }
    fn run_batch(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<BatchResult>, String> {
        NetClient::run_batch(self, requests, window).map_err(|e| e.to_string())
    }
}

impl Executor for NodeRuntime {
    const BATCH_SPAN: &'static str = "runtime.batch";
    const INSERT_SPAN: &'static str = "runtime.insert";
    const FLUSH_SPAN: &'static str = "runtime.flush";
    fn insert(&mut self, id: ObjectId, keywords: &KeywordSet) -> Result<(), String> {
        NodeRuntime::insert(self, id, keywords.clone()).map_err(|e| e.to_string())
    }
    fn flush(&mut self) -> Result<(), String> {
        NodeRuntime::flush(self);
        Ok(())
    }
    fn run_batch(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<BatchResult>, String> {
        Ok(NodeRuntime::run_batch(self, requests, window))
    }
}

/// Objects per set-up chunk: about the size of an `ingest_mixed` chunk,
/// so the set-up's insert rate and barrier wait are measured the way
/// that workload's are.
pub const LOAD_CHUNK: usize = 2048;

/// What loading a set-up measured.
#[derive(Debug, Default)]
pub struct Load {
    /// Each chunk's objects per second, its barrier included.
    pub chunk_rates: Vec<f64>,
    /// Each chunk's barrier wait, µs.
    pub flush_us: Vec<f64>,
}

/// Loads `entries` in equal chunks of at most [`LOAD_CHUNK`], each
/// followed by a barrier.
pub fn load<E: Executor>(exec: &mut E, entries: &[(ObjectId, KeywordSet)]) -> Result<Load, String> {
    let mut load = Load::default();
    let n = entries.len().div_ceil(LOAD_CHUNK);
    for c in 0..n {
        let chunk = &entries[entries.len() * c / n..entries.len() * (c + 1) / n];
        let t0 = Instant::now();
        for (id, keywords) in chunk {
            exec.insert(*id, keywords)?;
        }
        let t1 = Instant::now();
        exec.flush()?;
        load.flush_us.push(t1.elapsed().as_secs_f64() * 1e6);
        load.chunk_rates
            .push(ratio(chunk.len() as f64, t0.elapsed().as_secs_f64()));
    }
    Ok(load)
}

/// One round of the timed phase: a read step and the insert step
/// before it, if any. Rates are medians over rounds, so a burst of
/// interference on the host moves one round, not the reported figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Operations completed in it.
    pub ops: u64,
    /// Its wall time, seconds.
    pub wall_s: f64,
    /// CPU of every metered process over it, nanoseconds.
    pub cpu_ns: u64,
    /// Its reads' latencies, µs, ascending.
    pub read_latency_us: Vec<f64>,
}

/// Reads a stretch of rounds must hold before its p99 counts: p99 of
/// 1,000 samples leaves 10 beyond it.
const P99_STRETCH: usize = 1000;

/// What one replay of the timed phase measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole phase, seconds.
    pub wall_s: f64,
    /// CPU of the bench process over the phase, nanoseconds.
    pub client_cpu_ns: u64,
    /// CPU of the metered server processes over the phase, nanoseconds.
    pub server_cpu_ns: u64,
    /// Share of host CPU stolen by the hypervisor during the phase.
    pub steal_share: f64,
    /// Seconds spent inserting plus at the barrier after each chunk.
    pub insert_s: f64,
    /// Each barrier's wait, µs.
    pub flush_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong reply.
    pub failed: u64,
    /// Valid thresholded replies holding different objects than the
    /// engine's.
    pub diverged: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// The phase round by round.
    pub rounds: Vec<Round>,
    /// Each insert step's objects per second, barrier included.
    pub insert_rates: Vec<f64>,
}

impl Pass {
    /// Median over rounds of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.median_over_rounds(|r| ratio(r.ops as f64, r.wall_s))
    }

    /// Median over rounds of CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.median_over_rounds(|r| ratio(r.cpu_ns as f64 / 1e3, r.ops as f64))
    }

    /// Every completed read's send-to-completion latency, µs, ascending.
    pub fn read_latency_us(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.read_latency_us.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Median over rounds of the rounds' median read latency, µs.
    pub fn read_p50_us(&self) -> f64 {
        self.median_over_rounds(|r| {
            if r.read_latency_us.is_empty() {
                0.0
            } else {
                percentile(&r.read_latency_us, 50.0)
            }
        })
    }

    /// Median over stretches of consecutive rounds holding at least
    /// [`P99_STRETCH`] reads of each stretch's p99, µs. A short remainder
    /// joins the last stretch.
    pub fn read_p99_us(&self) -> f64 {
        let mut p99s = Vec::new();
        let mut stretch: Vec<f64> = Vec::new();
        let mut flush = |stretch: &mut Vec<f64>| {
            stretch.sort_by(f64::total_cmp);
            p99s.push(percentile(stretch, 99.0));
            stretch.clear();
        };
        let mut rest: usize = self.rounds.iter().map(|r| r.read_latency_us.len()).sum();
        for round in &self.rounds {
            stretch.extend(&round.read_latency_us);
            rest -= round.read_latency_us.len();
            if stretch.len() >= P99_STRETCH && rest >= P99_STRETCH {
                flush(&mut stretch);
            }
        }
        if !stretch.is_empty() {
            flush(&mut stretch);
        }
        if p99s.is_empty() {
            0.0
        } else {
            median(&p99s)
        }
    }

    fn median_over_rounds(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(f).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    }

    /// Total CPU over the phase, nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.client_cpu_ns + self.server_cpu_ns
    }

    /// Folds another replay of the same phase into this one: rounds
    /// and rates pool, totals add up.
    pub fn merge(&mut self, other: Pass) {
        let before = self.wall_s;
        self.wall_s += other.wall_s;
        self.steal_share = ratio(
            self.steal_share * before + other.steal_share * other.wall_s,
            self.wall_s,
        );
        self.client_cpu_ns += other.client_cpu_ns;
        self.server_cpu_ns += other.server_cpu_ns;
        self.insert_s += other.insert_s;
        self.flush_us.extend(other.flush_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.diverged += other.diverged;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.rounds.extend(other.rounds);
        self.insert_rates.extend(other.insert_rates);
    }

    /// Adds this pass's attempted and failed operations and its errors
    /// to `out`.
    pub fn account(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        for e in &self.errors {
            out.error(e);
        }
    }

    fn fail(&mut self, ops: usize, why: String) {
        self.failed += ops as u64;
        self.error(why);
    }

    /// Records an error that fails the run without failing an operation.
    fn error(&mut self, why: String) {
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Summed CPU of `pids`, nanoseconds. A process that cannot be metered
/// is an error of the pass, not a zero.
fn cpu_of(pids: &[u32], pass: &mut Pass) -> u64 {
    let mut total = 0;
    for &pid in pids {
        match meter::cpu_ns(pid) {
            Ok(ns) => total += ns,
            Err(e) => pass.error(format!("metering CPU of process {pid}: {e}")),
        }
    }
    total
}

/// Replays the timed phase of `plan` through `exec` and checks every
/// reply against the engine's `expects`. `servers` are the processes
/// metered besides this one. A batch error fails every operation of
/// the batch.
pub fn run<E: Executor>(
    exec: &mut E,
    plan: &Plan,
    expects: &[Vec<Expect>],
    servers: &[u32],
    tracer: &mut Tracer,
) -> Pass {
    let me = [std::process::id()];
    let all: Vec<u32> = me.iter().chain(servers).copied().collect();
    let mut pass = Pass::default();
    let mut replies: Vec<Option<Vec<BatchResult>>> = Vec::with_capacity(plan.steps.len());
    let host0 = HostCpu::read().ok();
    let (client0, server0) = (cpu_of(&me, &mut pass), cpu_of(servers, &mut pass));
    let t0 = Instant::now();
    let mut round = (Instant::now(), cpu_of(&all, &mut pass), 0u64);
    let mut op = plan.preload as u64;
    for step in &plan.steps {
        match step {
            Step::Insert(range) => {
                let ti = Instant::now();
                let mut outcome = Ok(());
                for (id, keywords) in &plan.corpus[range.clone()] {
                    let sp = tracer.begin(E::INSERT_SPAN, None, op);
                    outcome = exec.insert(*id, keywords);
                    tracer.end(sp);
                    op += 1;
                    if outcome.is_err() {
                        break;
                    }
                }
                let tf = Instant::now();
                if outcome.is_ok() {
                    let sp = tracer.begin(E::FLUSH_SPAN, None, op);
                    outcome = exec.flush();
                    tracer.end(sp);
                }
                pass.flush_us.push(tf.elapsed().as_secs_f64() * 1e6);
                let insert_s = ti.elapsed().as_secs_f64();
                pass.insert_s += insert_s;
                pass.insert_rates.push(ratio(range.len() as f64, insert_s));
                if let Err(e) = outcome {
                    pass.fail(range.len(), format!("insert chunk: {e}"));
                }
                pass.attempted += range.len() as u64;
                replies.push(None);
                round.2 += range.len() as u64;
            }
            Step::Read(reads) => {
                let mut results = Vec::with_capacity(reads.len());
                let mut ok = true;
                for chunk in reads.chunks(BATCH) {
                    // Requests own their keyword sets, so they are built
                    // as the loop issues them rather than all up front.
                    let requests: Vec<Request> = chunk.iter().map(|&r| plan.request(r)).collect();
                    let sp = tracer.begin(E::BATCH_SPAN, None, op);
                    let out = exec.run_batch(&requests, WINDOW);
                    tracer.end(sp);
                    op += chunk.len() as u64;
                    match out {
                        Ok(r) => results.extend(r),
                        Err(e) => {
                            // Unchecked replies count as failed too.
                            pass.fail(reads.len(), format!("batch: {e}"));
                            ok = false;
                            break;
                        }
                    }
                }
                pass.attempted += reads.len() as u64;
                replies.push(ok.then_some(results));
                let cpu = cpu_of(&all, &mut pass);
                pass.rounds.push(Round {
                    ops: round.2 + reads.len() as u64,
                    wall_s: round.0.elapsed().as_secs_f64(),
                    cpu_ns: cpu.saturating_sub(round.1),
                    read_latency_us: Vec::new(),
                });
                round = (Instant::now(), cpu, 0);
            }
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.client_cpu_ns = cpu_of(&me, &mut pass).saturating_sub(client0);
    pass.server_cpu_ns = cpu_of(servers, &mut pass).saturating_sub(server0);
    if let (Some(h0), Ok(h1)) = (host0, HostCpu::read()) {
        pass.steal_share = h1.steal_share_since(&h0);
    }
    check(plan, expects, &replies, &mut pass);
    pass
}

/// Checks every completed reply and collects read latencies.
fn check(
    plan: &Plan,
    expects: &[Vec<Expect>],
    replies: &[Option<Vec<BatchResult>>],
    pass: &mut Pass,
) {
    let mut indexed = plan.preload;
    let mut round = 0;
    for ((step, expects), replies) in plan.steps.iter().zip(expects).zip(replies) {
        match step {
            Step::Insert(range) => indexed = range.end,
            Step::Read(reads) => {
                round += 1;
                let Some(replies) = replies else { continue };
                let mut latency: Vec<f64> = replies
                    .iter()
                    .map(|r| r.latency.as_secs_f64() * 1e6)
                    .collect();
                latency.sort_by(f64::total_cmp);
                pass.rounds[round - 1].read_latency_us = latency;
                for ((&read, expect), reply) in reads.iter().zip(expects).zip(replies) {
                    match verdict(expect, plan.query(read), &reply.objects, |id| {
                        plan.indexed_keywords(indexed, id)
                    }) {
                        Verdict::Correct => {}
                        Verdict::Diverged => pass.diverged += 1,
                        Verdict::Wrong(why) => pass.fail(1, format!("{read:?}: {why}")),
                    }
                }
            }
        }
    }
}
