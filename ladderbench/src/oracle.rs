//! Reply checking against the direct engine.
//!
//! Pins and exhaustive searches (`t = ∞`) must be set-equal to the
//! engine's answer at the same index state. A thresholded search may
//! legitimately pick a different `t` objects than the engine (the
//! executors visit a level's vertices in different orders), so it is
//! checked for validity instead: no duplicates, every object indexed
//! under a superset of the query, and exactly `min(t, all matches)`
//! objects. A valid reply that differs from the engine's counts as a
//! *threshold divergence*, not as a failure.

use std::sync::Arc;

use hyperdex_core::{KeywordSet, ObjectId};

/// What a reply must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Pins and exhaustive searches: the engine's answer, sorted.
    Exact(Arc<Vec<ObjectId>>),
    /// A search stopped at `t` results.
    Threshold {
        /// Results wanted.
        t: usize,
        /// Every match in the index (the engine's exhaustive count).
        all: usize,
        /// The engine's own `t` objects, sorted.
        engine: Arc<Vec<ObjectId>>,
    },
}

/// Outcome of checking one reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Set-equal to the engine.
    Correct,
    /// A valid thresholded reply holding different objects than the
    /// engine's.
    Diverged,
    /// Wrong; the message says how.
    Wrong(String),
}

/// Sorted copy of a reply.
pub fn sorted(objects: &[ObjectId]) -> Vec<ObjectId> {
    let mut v = objects.to_vec();
    v.sort_unstable();
    v
}

/// Checks a reply to `query` against `expect`. `keywords_of` maps an
/// indexed object to its keyword set (`None` when not indexed).
pub fn verdict<'a>(
    expect: &Expect,
    query: &KeywordSet,
    got: &[ObjectId],
    keywords_of: impl Fn(ObjectId) -> Option<&'a KeywordSet>,
) -> Verdict {
    let got = sorted(got);
    match expect {
        Expect::Exact(want) => {
            if got == **want {
                Verdict::Correct
            } else {
                Verdict::Wrong(format!(
                    "{} objects where the engine has {}",
                    got.len(),
                    want.len()
                ))
            }
        }
        Expect::Threshold { t, all, engine } => {
            match check_threshold(&got, query, *t, *all, keywords_of) {
                Err(why) => Verdict::Wrong(why),
                Ok(()) if got == **engine => Verdict::Correct,
                Ok(()) => Verdict::Diverged,
            }
        }
    }
}

/// Validity of a thresholded reply (`got` sorted): no duplicates,
/// every object indexed under a superset of `query`, and exactly
/// `min(t, all)` objects.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check_threshold<'a>(
    got: &[ObjectId],
    query: &KeywordSet,
    t: usize,
    all: usize,
    keywords_of: impl Fn(ObjectId) -> Option<&'a KeywordSet>,
) -> Result<(), String> {
    if let Some(w) = got.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate object {}", w[0].raw()));
    }
    for &object in got {
        match keywords_of(object) {
            None => return Err(format!("object {} is not indexed", object.raw())),
            Some(k) if !k.is_superset(query) => {
                return Err(format!(
                    "object {} is not indexed under a superset of the query",
                    object.raw()
                ))
            }
            Some(_) => {}
        }
    }
    let want = t.min(all);
    if got.len() != want {
        return Err(format!(
            "{} objects where min(t = {t}, matches = {all}) = {want}",
            got.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(words: &str) -> KeywordSet {
        KeywordSet::parse(words).expect("valid keywords")
    }

    fn ids(raw: &[u64]) -> Vec<ObjectId> {
        raw.iter().map(|&r| ObjectId::from_raw(r)).collect()
    }

    /// Objects 0..4 indexed as: 0 {a b}, 1 {a c}, 2 {b c}, 3 {a b c}.
    fn index() -> Vec<KeywordSet> {
        vec![set("a b"), set("a c"), set("b c"), set("a b c")]
    }

    fn lookup<'a>(index: &'a [KeywordSet]) -> impl Fn(ObjectId) -> Option<&'a KeywordSet> {
        move |o| index.get(o.raw() as usize)
    }

    #[test]
    fn valid_threshold_reply_passes() {
        let idx = index();
        // Query {a}: matches 0, 1, 3 → t = 2 wants 2 of them.
        assert_eq!(
            check_threshold(&ids(&[0, 3]), &set("a"), 2, 3, lookup(&idx)),
            Ok(())
        );
        // t above the match count wants every match.
        assert_eq!(
            check_threshold(&ids(&[0, 1, 3]), &set("a"), 32, 3, lookup(&idx)),
            Ok(())
        );
    }

    #[test]
    fn threshold_checker_rejects_duplicates() {
        let idx = index();
        let err = check_threshold(&ids(&[0, 0]), &set("a"), 2, 3, lookup(&idx));
        assert!(err.expect_err("duplicate").contains("duplicate"));
    }

    #[test]
    fn threshold_checker_rejects_non_supersets() {
        let idx = index();
        // Object 2 is {b c}, not a superset of {a}.
        let err = check_threshold(&ids(&[0, 2]), &set("a"), 2, 3, lookup(&idx));
        assert!(err.expect_err("non-superset").contains("superset"));
        // An object the index does not hold is rejected too.
        let err = check_threshold(&ids(&[0, 9]), &set("a"), 2, 3, lookup(&idx));
        assert!(err.expect_err("unknown").contains("not indexed"));
    }

    #[test]
    fn threshold_checker_rejects_short_results() {
        let idx = index();
        let err = check_threshold(&ids(&[0]), &set("a"), 2, 3, lookup(&idx));
        assert!(err.expect_err("short").contains("min(t = 2"));
        // Fewer than all matches when t exceeds them is short as well.
        let err = check_threshold(&ids(&[0, 1]), &set("a"), 32, 3, lookup(&idx));
        assert!(err.is_err());
    }

    #[test]
    fn verdicts_separate_divergence_from_failure() {
        let idx = index();
        let expect = Expect::Threshold {
            t: 2,
            all: 3,
            engine: Arc::new(ids(&[0, 1])),
        };
        let q = set("a");
        assert_eq!(
            verdict(&expect, &q, &ids(&[1, 0]), lookup(&idx)),
            Verdict::Correct
        );
        assert_eq!(
            verdict(&expect, &q, &ids(&[3, 0]), lookup(&idx)),
            Verdict::Diverged
        );
        assert!(matches!(
            verdict(&expect, &q, &ids(&[3]), lookup(&idx)),
            Verdict::Wrong(_)
        ));
        let exact = Expect::Exact(Arc::new(ids(&[0, 3])));
        assert_eq!(
            verdict(&exact, &set("a b"), &ids(&[3, 0]), lookup(&idx)),
            Verdict::Correct
        );
        assert!(matches!(
            verdict(&exact, &set("a b"), &ids(&[0, 0, 3]), lookup(&idx)),
            Verdict::Wrong(_)
        ));
    }
}
