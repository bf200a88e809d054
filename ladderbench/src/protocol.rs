//! The protocol and store rungs: the plan replayed over per-vertex
//! store replicas (`core::store`), with searches driven by the shared
//! `core::protocol::SupersetCoordinator` over the hypercube's SBT
//! children. Each search is one `protocol.search` span; the store calls
//! it makes (`protocol::scan_store`) nest under it, so the protocol's
//! self time is the traversal bookkeeping alone.

use std::collections::HashMap;
use std::sync::Arc;

use hyperdex_core::protocol::{scan_store, Step as Visit, SupersetCoordinator};
use hyperdex_core::{KeywordHasher, KeywordSet, ObjectId, PostingStore, StoreBackend};
use hyperdex_hypercube::Vertex;

use crate::oracle::{verdict, Expect, Verdict};
use crate::trace::Tracer;
use crate::workload::{Plan, Read, Step, R};

/// Span names of these rungs.
pub const SEARCH: &str = "protocol.search";
pub const SCAN: &str = "store.scan";
pub const PIN: &str = "store.pin";
pub const INSERT: &str = "store.insert";

/// Counts the replay made.
#[derive(Debug, Default)]
pub struct ProtocolRun {
    /// Reads replayed.
    pub reads: u64,
    /// Searches replayed.
    pub searches: u64,
    /// Vertices the coordinators visited (one store scan each).
    pub visits: u64,
    /// Visits that returned at least one match.
    pub useful_visits: u64,
    /// Pin lookups served by a store.
    pub pins: u64,
    /// Keyword sets held at the scanned vertices.
    pub sets_examined: u64,
    /// Keyword sets that contributed a match to a scan.
    pub sets_matched: u64,
    /// Objects held once the replay ends.
    pub objects: usize,
    /// Modelled store footprint once the replay ends, bytes.
    pub bytes_resident: usize,
    /// Reads answered wrongly.
    pub failed: u64,
    /// Valid thresholded answers differing from the engine's.
    pub diverged: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

/// One posting store per occupied vertex.
struct Replicas {
    hasher: KeywordHasher,
    stores: HashMap<u64, PostingStore>,
}

impl Replicas {
    fn insert(&mut self, id: ObjectId, keywords: &KeywordSet) {
        let bits = self.hasher.vertex_for(keywords).bits();
        // The program's default backend: the store has no constructor
        // that picks one for itself.
        self.stores
            .entry(bits)
            .or_insert_with(|| PostingStore::new(StoreBackend::default()))
            .insert(keywords.clone(), id);
    }
}

/// Replays `plan` over fresh replicas and checks every answer against
/// the engine's `expects`.
pub fn replay(plan: &Plan, expects: &[Vec<Expect>], tracer: &mut Tracer) -> ProtocolRun {
    let hasher = KeywordHasher::new(R, plan.seed).expect("valid dimension");
    let mut replicas = Replicas {
        hasher,
        stores: HashMap::new(),
    };
    let mut run = ProtocolRun::default();
    for (op, (id, keywords)) in plan.corpus[..plan.preload].iter().enumerate() {
        tracer.span(INSERT, None, op as u64, || replicas.insert(*id, keywords));
    }
    let mut indexed = plan.preload;
    let mut op = plan.preload as u64;
    for (step, expects) in plan.steps.iter().zip(expects) {
        match step {
            Step::Insert(range) => {
                for (id, keywords) in &plan.corpus[range.clone()] {
                    tracer.span(INSERT, None, op, || replicas.insert(*id, keywords));
                    op += 1;
                }
                indexed = range.end;
            }
            Step::Read(reads) => {
                for (&read, expect) in reads.iter().zip(expects) {
                    let query = plan.query(read);
                    let got = match read {
                        Read::Pin(_) => pin(&replicas, query, tracer, op, &mut run),
                        Read::Search(_, t) => search(&replicas, query, t, tracer, op, &mut run),
                    };
                    run.reads += 1;
                    match verdict(expect, query, &got, |id| plan.indexed_keywords(indexed, id)) {
                        Verdict::Correct => {}
                        Verdict::Diverged => run.diverged += 1,
                        Verdict::Wrong(why) => {
                            run.failed += 1;
                            if run.errors.len() < 5 {
                                run.errors.push(format!("{read:?}: {why}"));
                            }
                        }
                    }
                    op += 1;
                }
            }
        }
    }
    for store in replicas.stores.values() {
        run.objects += store.object_count();
        run.bytes_resident += store.footprint().bytes_resident;
    }
    run
}

fn pin(
    replicas: &Replicas,
    keywords: &KeywordSet,
    tracer: &mut Tracer,
    op: u64,
    run: &mut ProtocolRun,
) -> Vec<ObjectId> {
    let store = replicas
        .stores
        .get(&replicas.hasher.vertex_for(keywords).bits());
    run.pins += 1;
    tracer.span(PIN, None, op, || {
        store.map_or_else(Vec::new, |s| s.objects_with(keywords).collect())
    })
}

fn search(
    replicas: &Replicas,
    keywords: &KeywordSet,
    threshold: usize,
    tracer: &mut Tracer,
    op: u64,
    run: &mut ProtocolRun,
) -> Vec<ObjectId> {
    let shape = replicas.hasher.shape();
    let root = replicas.hasher.vertex_for(keywords);
    let keywords = Arc::new(keywords.clone());
    run.searches += 1;
    let mut found = Vec::new();
    let outer = tracer.begin(SEARCH, None, op);
    let mut coord = SupersetCoordinator::new(root, Arc::clone(&keywords), threshold);
    while let Visit::Visit { bits, via_dim } = coord.next_step() {
        let store = replicas.stores.get(&bits);
        let remaining = coord.remaining();
        let matches = tracer.span(SCAN, Some(outer), op, || {
            scan_store(store, &keywords, remaining)
        });
        run.visits += 1;
        run.sets_examined += store.map_or(0, |s| s.keyword_set_count() as u64);
        if !matches.is_empty() {
            run.useful_visits += 1;
            // Matches arrive grouped by keyword set.
            run.sets_matched += 1 + matches
                .windows(2)
                .filter(|w| !Arc::ptr_eq(&w[0].keyword_set, &w[1].keyword_set))
                .count() as u64;
        }
        let vertex = Vertex::from_bits(shape, bits).expect("coordinator yields valid vertices");
        coord.record_visit(
            matches.len(),
            SupersetCoordinator::children_of(vertex, via_dim),
        );
        found.extend(matches.into_iter().map(|m| m.object));
    }
    tracer.end(outer);
    found
}
