//! The wire rung: every operation's request frame and reply frame
//! (`runtime::wire::WireMsg`) encoded and decoded once, with the
//! engine's answer as the reply payload. A decode that does not give
//! back the encoded message is a failure.

use hyperdex_core::KeywordSet;
use hyperdex_runtime::wire::WireMsg;

use crate::oracle::Expect;
use crate::trace::Tracer;
use crate::workload::{Plan, Read, Step};

/// Span names of this rung; each covers all frames of one operation.
pub const ENCODE: &str = "wire.encode";
pub const DECODE: &str = "wire.decode";

/// Counts the replay made.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Operations replayed.
    pub ops: u64,
    /// Frames encoded and decoded.
    pub frames: u64,
    /// Encoded bytes over every frame.
    pub bytes: u64,
    /// Frames that did not survive the round trip.
    pub failed: u64,
}

/// Replays the timed phase's frames.
pub fn replay(plan: &Plan, expects: &[Vec<Expect>], tracer: &mut Tracer) -> WireRun {
    let mut run = WireRun::default();
    let mut indexed = plan.preload;
    let mut op = plan.preload as u64;
    for (step, expects) in plan.steps.iter().zip(expects) {
        match step {
            Step::Insert(range) => {
                for (id, keywords) in &plan.corpus[range.clone()] {
                    let msg = WireMsg::Insert {
                        object: id.raw(),
                        keywords: keywords.clone(),
                    };
                    round_trip(&[msg], tracer, op, &mut run);
                    run.ops += 1;
                    op += 1;
                }
                indexed = range.end;
            }
            Step::Read(reads) => {
                for (&read, expect) in reads.iter().zip(expects) {
                    let (req, reply) = frames(plan, indexed, op, read, expect);
                    round_trip(&[req, reply], tracer, op, &mut run);
                    run.ops += 1;
                    op += 1;
                }
            }
        }
    }
    run
}

/// The request a client sends for `request` and the reply carrying the
/// engine's answer.
fn frames(
    plan: &Plan,
    indexed: usize,
    query_id: u64,
    read: Read,
    expect: &Expect,
) -> (WireMsg, WireMsg) {
    let keywords = plan.query(read);
    let answer = match expect {
        Expect::Exact(objects) => objects,
        Expect::Threshold { engine, .. } => engine,
    };
    match read {
        Read::Pin(_) => (
            WireMsg::Pin {
                query_id,
                keywords: keywords.clone(),
            },
            WireMsg::PinResults {
                query_id,
                objects: answer.iter().map(|o| o.raw()).collect(),
            },
        ),
        Read::Search(_, threshold) => {
            let extra = |k: Option<&KeywordSet>| k.map_or(0, |k| (k.len() - keywords.len()) as u32);
            (
                WireMsg::Query {
                    query_id,
                    keywords: keywords.clone(),
                    threshold: threshold as u64,
                },
                WireMsg::QueryDone {
                    query_id,
                    objects: answer
                        .iter()
                        .map(|&o| (o.raw(), extra(plan.indexed_keywords(indexed, o))))
                        .collect(),
                },
            )
        }
    }
}

/// Encodes then decodes one operation's frames, one span for each
/// direction.
fn round_trip(msgs: &[WireMsg], tracer: &mut Tracer, op: u64, run: &mut WireRun) {
    let encoded: Vec<Vec<u8>> = tracer.span(ENCODE, None, op, || {
        msgs.iter().map(WireMsg::encode).collect()
    });
    let decoded: Vec<_> = tracer.span(DECODE, None, op, || {
        encoded.iter().map(|b| WireMsg::decode_exact(b)).collect()
    });
    for ((msg, bytes), back) in msgs.iter().zip(&encoded).zip(decoded) {
        run.frames += 1;
        run.bytes += bytes.len() as u64;
        if back.as_ref() != Ok(msg) {
            run.failed += 1;
        }
    }
}
