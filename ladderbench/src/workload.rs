//! The three workloads: one corpus, one query log, three operation
//! sequences, all generated from the run's seed.
//!
//! Runs are sized by operation count, not by a clock, so the same seed
//! and seconds always replay the same operations. The requested seconds
//! set an operation budget, calibrated on a 2-core host so that the
//! end-to-end run's replays of the timed phase, each on a fresh
//! cluster, together take about that long. The budget is split into at
//! least [`MIN_REPLAYS`] replays of one timed phase:
//!
//! - `search_log`: the phase is a third of the budget, replayed three
//!   times.
//! - `pin_lookup`: the phase stops after one pass over the distinct
//!   indexed sets, so its keys never repeat; a larger budget replays it
//!   more times.
//! - `ingest_mixed`: the phase has a fixed size and mix (the streamed
//!   half of the corpus, a fixed read batch per chunk); the budget only
//!   sets how many times it is replayed.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_runtime::Request;
use hyperdex_simnet::rng::SimRng;
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// Hypercube dimension: the `r` Eq. 1 recommends for the full corpus.
pub const R: u8 = 10;
/// Requests the closed loop keeps in flight.
pub const WINDOW: usize = 8;
/// Server processes of the deployed cluster.
pub const SERVERS: u32 = 2;
/// Worker shards across the cluster (one per server).
pub const WORKERS: u32 = 2;
/// Threshold of the log's thresholded searches.
pub const SEARCH_T: usize = 32;
/// Every this-many-th `search_log` search is exhaustive (`t = ∞`).
pub const EXHAUSTIVE_EVERY: usize = 8;
/// Every this-many-th pin asks for a keyword set that is not indexed.
pub const ABSENT_EVERY: usize = 10;
/// Queries in one generated query day of the log.
const DAY_QUERIES: usize = 50;

/// Fresh-cluster replays of the timed phase in an end-to-end run, at
/// least.
pub const MIN_REPLAYS: usize = 3;
/// Read steps of the read-only workloads; each is one round of the
/// medians the end-to-end rates report.
const ROUNDS: usize = 40;
/// `pin_lookup` pins per requested second, over all replays.
const PINS_PER_SECOND: usize = 85_000;
/// `search_log` searches per requested second, over all replays.
const SEARCHES_PER_SECOND: usize = 300;
/// `ingest_mixed` operations per requested second, over all replays.
const INGEST_OPS_PER_SECOND: usize = 85_000;
/// `ingest_mixed`: chunks the streamed half is cut into.
const INGEST_CHUNKS: usize = 32;
/// `ingest_mixed`: t = 32 log searches in each chunk's read batch,
/// beside one pin of each distinct set the chunk inserted. Neither the
/// paper nor a measured trace gives a search-to-insert ratio (the paper
/// gives a query rate, 178,000 a day, but no insert rate), so this is a
/// design choice: it gives inserts, pins and searches comparable shares
/// of the cluster's CPU, so a change to any one path moves the figures.
const INGEST_SEARCHES_PER_CHUNK: usize = 12;

/// Seed salts, so the corpus, log, and samplers draw independent
/// streams from one run seed.
const LOG_SALT: u64 = 0x0106;
const PIN_SALT: u64 = 0x091A;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact-match pins over indexed keyword sets, 1 in 10 absent.
    PinLookup,
    /// The query-day log as top-down superset searches.
    SearchLog,
    /// Half the corpus streamed in beside pins and searches.
    IngestMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::PinLookup,
        Workload::SearchLog,
        Workload::IngestMixed,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PinLookup => "pin_lookup",
            Workload::SearchLog => "search_log",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where a read's keyword set lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// The set object `i` of the corpus is indexed under.
    Object(u32),
    /// Entry `i` of the plan's query pool.
    Pool(u32),
}

/// One read of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Read {
    /// Exact-match pin.
    Pin(Key),
    /// Superset search wanting up to `t` results (`usize::MAX` = all).
    Search(Key, usize),
}

/// One step of the timed phase.
#[derive(Debug, Clone)]
pub enum Step {
    /// Insert `corpus[range]`, then a flush barrier.
    Insert(Range<usize>),
    /// A closed-loop batch of reads.
    Read(Vec<Read>),
}

/// A workload's whole input: the corpus, how much of it setup loads,
/// and the timed operation sequence.
pub struct Plan {
    /// The run seed.
    pub seed: u64,
    /// Every object, in insertion order; object `i` has raw id `i`.
    pub corpus: Vec<(ObjectId, KeywordSet)>,
    /// Keyword sets reads name that no object is indexed under as a
    /// whole (log queries, absent pins).
    pub pool: Vec<KeywordSet>,
    /// Setup loads `corpus[..preload]`.
    pub preload: usize,
    /// The timed phase.
    pub steps: Vec<Step>,
    /// Fresh clusters the end-to-end run replays the timed phase on.
    pub replays: usize,
}

impl Plan {
    /// Generates the plan for `workload` from `seed`, sized for
    /// `seconds` of timed work on the reference host.
    pub fn build(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let seconds = seconds.max(1) as usize;
        let budget = match workload {
            Workload::PinLookup => PINS_PER_SECOND,
            Workload::SearchLog => SEARCHES_PER_SECOND,
            Workload::IngestMixed => INGEST_OPS_PER_SECOND,
        } * seconds;
        let generated = Corpus::generate(&CorpusConfig::pchome(), seed);
        let corpus: Vec<(ObjectId, KeywordSet)> = generated
            .indexable()
            .map(|(id, k)| (id, k.clone()))
            .collect();
        assert!(
            corpus
                .iter()
                .enumerate()
                .all(|(i, (id, _))| id.raw() == i as u64),
            "corpus ids are dense from 0"
        );
        let mut rng = SimRng::new(seed ^ PIN_SALT);
        let log_len = match workload {
            Workload::PinLookup => 0,
            Workload::SearchLog => budget / MIN_REPLAYS,
            Workload::IngestMixed => INGEST_CHUNKS * INGEST_SEARCHES_PER_CHUNK,
        };
        let (pool, log) = if log_len == 0 {
            (Vec::new(), Vec::new())
        } else {
            query_days(&generated, log_len, seed)
        };
        let (pool, preload, steps) = match workload {
            Workload::PinLookup => {
                let (absent, pins) = pins(&corpus, budget / MIN_REPLAYS, &mut rng);
                (absent, corpus.len(), rounds(pins))
            }
            Workload::SearchLog => {
                let searches = log
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| {
                        let t = if i % EXHAUSTIVE_EVERY == EXHAUSTIVE_EVERY - 1 {
                            usize::MAX
                        } else {
                            SEARCH_T
                        };
                        Read::Search(Key::Pool(q), t)
                    })
                    .collect();
                (pool, corpus.len(), rounds(searches))
            }
            Workload::IngestMixed => {
                let preload = corpus.len() / 2;
                let steps = ingest_steps(&corpus, preload, &log, &mut rng);
                (pool, preload, steps)
            }
        };
        let mut plan = Plan {
            seed,
            corpus,
            pool,
            preload,
            steps,
            replays: 0,
        };
        plan.replays = budget.div_ceil(plan.ops().max(1)).max(MIN_REPLAYS);
        plan
    }

    /// The keyword set `key` names.
    pub fn keywords(&self, key: Key) -> &KeywordSet {
        match key {
            Key::Object(i) => &self.corpus[i as usize].1,
            Key::Pool(i) => &self.pool[i as usize],
        }
    }

    /// The keyword set object `id` is indexed under while the first
    /// `indexed` objects of the corpus are in the index.
    pub fn indexed_keywords(&self, indexed: usize, id: ObjectId) -> Option<&KeywordSet> {
        let i = usize::try_from(id.raw()).ok()?;
        (i < indexed).then(|| &self.corpus[i].1)
    }

    /// The keyword set `read` asks about.
    pub fn query(&self, read: Read) -> &KeywordSet {
        match read {
            Read::Pin(key) | Read::Search(key, _) => self.keywords(key),
        }
    }

    /// The executor request for `read`.
    pub fn request(&self, read: Read) -> Request {
        match read {
            Read::Pin(key) => Request::Pin(self.keywords(key).clone()),
            Read::Search(key, threshold) => Request::Superset {
                keywords: self.keywords(key).clone(),
                threshold,
            },
        }
    }

    /// Reads in the timed phase.
    pub fn reads(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Read(reads) => reads.len(),
                Step::Insert(_) => 0,
            })
            .sum()
    }

    /// Inserts in the timed phase.
    pub fn inserts(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Insert(range) => range.len(),
                Step::Read(_) => 0,
            })
            .sum()
    }

    /// Operations in the timed phase (reads plus inserts).
    pub fn ops(&self) -> usize {
        self.reads() + self.inserts()
    }
}

/// A read-only timed phase as [`ROUNDS`] equal read steps.
fn rounds(reads: Vec<Read>) -> Vec<Step> {
    let per = reads.len().div_ceil(ROUNDS).max(1);
    reads.chunks(per).map(|c| Step::Read(c.to_vec())).collect()
}

/// `len` log queries as consecutive query days of [`DAY_QUERIES`],
/// each generated from its own seed with the paper's skew (top-10
/// distinct queries ≈ 60 % of the day). Returns the distinct queries
/// used and the sequence as indices into them.
///
/// One day's cost is dominated by its ten head queries, so a run
/// replays many days: the head changes from day to day and the mean
/// cost per search stops hinging on which ten queries one seed put on
/// top.
fn query_days(corpus: &Corpus, len: usize, seed: u64) -> (Vec<KeywordSet>, Vec<u32>) {
    let mut pool: Vec<KeywordSet> = Vec::new();
    let mut index: HashMap<KeywordSet, u32> = HashMap::new();
    let mut order = Vec::with_capacity(len);
    for day in 0..len.div_ceil(DAY_QUERIES) {
        let queries = DAY_QUERIES.min(len - order.len());
        let log = QueryLog::generate(
            &QueryLogConfig::pchome_day().with_queries(queries),
            corpus,
            seed ^ LOG_SALT ^ ((day as u64) << 32),
        );
        for q in log.iter() {
            let i = *index.entry(q.clone()).or_insert_with(|| {
                pool.push(q.clone());
                pool.len() as u32 - 1
            });
            order.push(i);
        }
    }
    (pool, order)
}

/// Up to `count` pins, each of a different keyword set: the distinct
/// indexed sets in a seeded order (no set favoured by how many objects
/// share it), with every [`ABSENT_EVERY`]-th pin one of a pool of
/// distinct sets that are not indexed. Stops when the indexed sets run
/// out, so no key repeats and a result cache is bypassed. Returns the
/// absent pool and the pins.
fn pins(
    corpus: &[(ObjectId, KeywordSet)],
    count: usize,
    rng: &mut SimRng,
) -> (Vec<KeywordSet>, Vec<Read>) {
    let mut seen: HashSet<&KeywordSet> = HashSet::new();
    let mut distinct: Vec<u32> = (0..corpus.len() as u32)
        .filter(|&i| seen.insert(&corpus[i as usize].1))
        .collect();
    rng.shuffle(&mut distinct);
    // n pins hold n - n / ABSENT_EVERY indexed ones; this is the
    // largest n whose indexed share fits the distinct sets.
    let count = count.min(distinct.len() + distinct.len() / (ABSENT_EVERY - 1));
    let absent = absent_pool(corpus, count / ABSENT_EVERY, rng);
    let (mut indexed, mut missing) = (distinct.into_iter(), 0..absent.len() as u32);
    let reads = (0..count)
        .map(|i| {
            let key = if i % ABSENT_EVERY == ABSENT_EVERY - 1 {
                missing.next().map(Key::Pool)
            } else {
                indexed.next().map(Key::Object)
            };
            Read::Pin(key.expect("pin count fits both pools"))
        })
        .collect();
    (absent, reads)
}

/// `count` distinct keyword sets no object is indexed under: an indexed
/// set plus one keyword of another record, redrawn until new and absent.
fn absent_pool(
    corpus: &[(ObjectId, KeywordSet)],
    count: usize,
    rng: &mut SimRng,
) -> Vec<KeywordSet> {
    let indexed: HashSet<&KeywordSet> = corpus.iter().map(|(_, k)| k).collect();
    let mut drawn: HashSet<KeywordSet> = HashSet::with_capacity(count);
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let base = &corpus[rng.gen_index(corpus.len())].1;
        let donor = &corpus[rng.gen_index(corpus.len())].1;
        let words: Vec<_> = donor.iter().filter(|w| !base.contains(w)).collect();
        if words.is_empty() {
            continue;
        }
        let mut set = base.clone();
        set.insert(words[rng.gen_index(words.len())].clone());
        if !indexed.contains(&set) && drawn.insert(set.clone()) {
            pool.push(set);
        }
    }
    pool
}

/// The streamed half in [`INGEST_CHUNKS`] chunks, each followed by a
/// read batch: one pin of each distinct set the chunk just inserted,
/// in a seeded order, then the next [`INGEST_SEARCHES_PER_CHUNK`]
/// t = 32 log searches.
///
/// The searches come after the pins. Interleaved, a pin queued behind a
/// search at a single-worker server waited out the search, and the
/// reads' p99 fell on the steep edge between pin and search latencies,
/// where it spread twice as much from run to run as the other figures.
fn ingest_steps(
    corpus: &[(ObjectId, KeywordSet)],
    preload: usize,
    log: &[u32],
    rng: &mut SimRng,
) -> Vec<Step> {
    let streamed = corpus.len() - preload;
    let mut log = log.iter();
    let mut steps = Vec::new();
    for c in 0..INGEST_CHUNKS {
        let range =
            preload + streamed * c / INGEST_CHUNKS..preload + streamed * (c + 1) / INGEST_CHUNKS;
        let mut seen: HashSet<&KeywordSet> = HashSet::new();
        let mut objects: Vec<u32> = range
            .clone()
            .filter(|&i| seen.insert(&corpus[i].1))
            .map(|i| i as u32)
            .collect();
        rng.shuffle(&mut objects);
        let mut reads: Vec<Read> = objects
            .into_iter()
            .map(|object| Read::Pin(Key::Object(object)))
            .collect();
        for _ in 0..INGEST_SEARCHES_PER_CHUNK {
            let q = log.next().expect("log sized for every chunk");
            reads.push(Read::Search(Key::Pool(*q), SEARCH_T));
        }
        steps.push(Step::Insert(range));
        steps.push(Step::Read(reads));
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    fn corpus(sets: &[String]) -> Vec<(ObjectId, KeywordSet)> {
        sets.iter()
            .enumerate()
            .map(|(i, words)| {
                let set = KeywordSet::parse(words).expect("valid keywords");
                (ObjectId::from_raw(i as u64), set)
            })
            .collect()
    }

    #[test]
    fn pins_never_repeat_a_key() {
        let words = ["a", "b", "c", "d", "e", "f"];
        let mut sets = Vec::new();
        for (i, x) in words.iter().enumerate() {
            for y in &words[i + 1..] {
                // Every pair twice: objects share sets.
                sets.push(format!("{x} {y}"));
                sets.push(format!("{x} {y}"));
            }
        }
        let corpus = corpus(&sets);
        let mut rng = SimRng::new(5);
        let (absent, reads) = pins(&corpus, usize::MAX, &mut rng);
        // 15 distinct pairs, plus one absent set after every nine.
        assert_eq!(reads.len(), 16);
        assert_eq!(absent.len(), 1);
        let keys: HashSet<&KeywordSet> = reads
            .iter()
            .map(|r| match *r {
                Read::Pin(Key::Object(i)) => &corpus[i as usize].1,
                Read::Pin(Key::Pool(i)) => &absent[i as usize],
                Read::Search(..) => unreachable!("pins only"),
            })
            .collect();
        assert_eq!(keys.len(), reads.len(), "a key repeats");
        let indexed: HashSet<&KeywordSet> = corpus.iter().map(|(_, k)| k).collect();
        assert!(absent.iter().all(|k| !indexed.contains(k)));
        assert_eq!(pins(&corpus, 7, &mut rng).1.len(), 7);
    }

    #[test]
    fn ingest_chunks_pin_each_new_set_once_beside_fixed_searches() {
        let sets: Vec<String> = (0..640)
            .map(|i| format!("w{} v{}", i % 97, i % 13))
            .collect();
        let corpus = corpus(&sets);
        let log: Vec<u32> = (0..(INGEST_CHUNKS * INGEST_SEARCHES_PER_CHUNK) as u32).collect();
        let steps = ingest_steps(&corpus, 320, &log, &mut SimRng::new(9));
        assert_eq!(steps.len(), 2 * INGEST_CHUNKS);
        for pair in steps.chunks(2) {
            let (Step::Insert(range), Step::Read(reads)) = (&pair[0], &pair[1]) else {
                panic!("insert then read");
            };
            let new: HashSet<&KeywordSet> = range.clone().map(|i| &corpus[i].1).collect();
            let mut pinned = HashSet::new();
            let mut searches = 0;
            for read in reads {
                match *read {
                    Read::Pin(Key::Object(i)) => {
                        assert!(range.contains(&(i as usize)));
                        assert!(pinned.insert(&corpus[i as usize].1), "set pinned twice");
                    }
                    Read::Search(Key::Pool(_), SEARCH_T) => searches += 1,
                    other => panic!("unexpected read {other:?}"),
                }
            }
            assert_eq!(pinned, new);
            assert_eq!(searches, INGEST_SEARCHES_PER_CHUNK);
            let pins = reads.len() - searches;
            assert!(
                reads[..pins].iter().all(|r| matches!(r, Read::Pin(_))),
                "pins first"
            );
        }
    }
}
