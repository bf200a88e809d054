//! The engine rung and the oracle: the plan replayed through the
//! direct engine (`core::cluster::HypercubeIndex`).
//!
//! The replay visits the index state every executor sees after each
//! flush barrier, so the answers it records are the expectations every
//! other rung's replies are checked against. With a recording tracer
//! each engine call gets its own span; the oracle's extra work (the
//! exhaustive match count a thresholded reply is held to) runs outside
//! them and is memoised per index state.

use std::collections::HashMap;
use std::sync::Arc;

use hyperdex_core::{HypercubeIndex, ObjectId, SupersetQuery};

use crate::oracle::{sorted, Expect};
use crate::trace::Tracer;
use crate::workload::{Plan, Read, Step, R};

/// Span names of this rung.
pub const INSERT: &str = "engine.insert";
pub const PIN: &str = "engine.pin";
pub const SEARCH: &str = "engine.search";

/// What the engine replay yields.
pub struct EngineRun {
    /// Per step: one expectation per read (empty for insert steps).
    pub expects: Vec<Vec<Expect>>,
    /// Vertices the engine contacted over every read (a pin contacts
    /// one).
    pub read_visits: u64,
    /// Vertices contacted by searches alone.
    pub search_visits: u64,
    /// Index entries scanned by searches.
    pub search_entries: u64,
    /// Searches replayed.
    pub searches: u64,
}

/// Replays `plan` through a fresh engine seeded like the cluster.
pub fn replay(plan: &Plan, tracer: &mut Tracer) -> EngineRun {
    let mut engine = HypercubeIndex::new(R, plan.seed).expect("valid dimension");
    for (op, (id, keywords)) in plan.corpus[..plan.preload].iter().enumerate() {
        let sp = tracer.begin(INSERT, None, op as u64);
        engine.insert(*id, keywords.clone()).expect("non-empty set");
        tracer.end(sp);
    }
    let mut run = EngineRun {
        expects: Vec::with_capacity(plan.steps.len()),
        read_visits: 0,
        search_visits: 0,
        search_entries: 0,
        searches: 0,
    };
    // Expectations for the current index state.
    let mut memo: HashMap<Read, (Expect, u64, u64)> = HashMap::new();
    let mut op = plan.preload as u64;
    for step in &plan.steps {
        match step {
            Step::Insert(range) => {
                for (id, keywords) in &plan.corpus[range.clone()] {
                    let sp = tracer.begin(INSERT, None, op);
                    engine.insert(*id, keywords.clone()).expect("non-empty set");
                    tracer.end(sp);
                    op += 1;
                }
                memo.clear();
                run.expects.push(Vec::new());
            }
            Step::Read(reads) => {
                let mut expects = Vec::with_capacity(reads.len());
                for &r in reads {
                    expects.push(read(&mut engine, plan, r, tracer, op, &mut memo, &mut run));
                    op += 1;
                }
                run.expects.push(expects);
            }
        }
    }
    run
}

/// One read through the engine: timed when tracing (every call runs),
/// memoised per index state otherwise.
fn read(
    engine: &mut HypercubeIndex,
    plan: &Plan,
    key: Read,
    tracer: &mut Tracer,
    op: u64,
    memo: &mut HashMap<Read, (Expect, u64, u64)>,
    run: &mut EngineRun,
) -> Expect {
    let (keywords, t) = match key {
        Read::Pin(k) => (plan.keywords(k), 0),
        Read::Search(k, t) => (plan.keywords(k), t),
    };
    if t == 0 {
        run.read_visits += 1;
    } else {
        run.searches += 1;
    }
    if !tracer.enabled() {
        if let Some((expect, visits, entries)) = memo.get(&key) {
            if t > 0 {
                run.read_visits += visits;
                run.search_visits += visits;
                run.search_entries += entries;
            }
            return expect.clone();
        }
    }
    let (expect, visits, entries) = if t == 0 {
        let sp = tracer.begin(PIN, None, op);
        let out = engine.pin_search(keywords);
        tracer.end(sp);
        (Expect::Exact(Arc::new(sorted(&out.results))), 0, 0)
    } else {
        let query = SupersetQuery::new(keywords.clone()).threshold(t);
        let sp = tracer.begin(SEARCH, None, op);
        let out = engine.superset_search(&query).expect("non-zero threshold");
        tracer.end(sp);
        let objects: Vec<ObjectId> = out.results.iter().map(|m| m.object).collect();
        let expect = if t == usize::MAX {
            Expect::Exact(Arc::new(sorted(&objects)))
        } else {
            let all = match memo.get(&key) {
                Some((Expect::Threshold { all, .. }, _, _)) => *all,
                _ => engine.matching_count(keywords),
            };
            Expect::Threshold {
                t,
                all,
                engine: Arc::new(sorted(&objects)),
            }
        };
        (expect, out.stats.nodes_contacted, out.stats.entries_scanned)
    };
    if t > 0 {
        run.read_visits += visits;
        run.search_visits += visits;
        run.search_entries += entries;
    }
    memo.insert(key, (expect.clone(), visits, entries));
    expect
}
