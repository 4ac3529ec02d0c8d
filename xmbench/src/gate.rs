//! Output correctness gate.
//!
//! During set-up, untimed, every query runs twice: under
//! `QueryOptions::baseline()` (the fully order-aware reference) and under
//! the options the workload times. The two must agree under the
//! differential oracle's rule — sequence equality when the timed plan runs
//! in `ordered` mode, bag equality when it runs `unordered`. For the
//! default seed the baseline serialization must also match the digest
//! pinned in `digests.txt`, so a fault that breaks both arms alike is
//! caught too. Every timed operation is then checked against its
//! reference; a query whose reference failed set-up fails every time it
//! runs.

use exrquy::frontend::OrderingMode;
use exrquy::result::{serialize_sequence, ResultItem};
use exrquy::{QueryOptions, Session};
use std::collections::BTreeMap;

/// The XMark seed whose baseline digests are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Pinned digests: `<scale> <seed> Q<n> <fnv1a64 of the baseline
/// serialization, hex>`, one per line.
pub const PINNED: &str = include_str!("../digests.txt");

/// The oracle's equivalence relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Sequence,
    Bag,
}

pub struct Reference {
    rule: Rule,
    /// Rendered items of the baseline arm, in its order.
    baseline: Vec<String>,
    baseline_digest: u64,
    /// The timed arm's serialization, already checked against the
    /// baseline. The engine is deterministic, so a timed run normally
    /// matches it byte for byte; only a differing run pays for the
    /// oracle comparison.
    pub expect: String,
    /// Set-up verdict; `Err` fails every timed run of the query.
    pub verdict: Result<(), String>,
}

impl Reference {
    /// Check an in-process result.
    pub fn accepts(&self, xml: &str, items: &[ResultItem]) -> bool {
        if self.verdict.is_err() {
            return false;
        }
        xml == self.expect || agree(self.rule, &self.baseline, &render(items))
    }

    /// Check a result that arrived serialized (the `serve` path). The
    /// daemon runs the same options as the in-process reference, and the
    /// serving path is specified byte-identical to direct execution.
    pub fn accepts_xml(&self, xml: &str) -> bool {
        self.verdict.is_ok() && xml == self.expect
    }
}

fn render(items: &[ResultItem]) -> Vec<String> {
    items.iter().map(ResultItem::render).collect()
}

fn agree(rule: Rule, reference: &[String], got: &[String]) -> bool {
    match rule {
        Rule::Sequence => reference == got,
        Rule::Bag => {
            let (mut a, mut b) = (reference.to_vec(), got.to_vec());
            a.sort_unstable();
            b.sort_unstable();
            a == b
        }
    }
}

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike the
/// standard library's hashers.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest pinned for `(scale, seed, query)` in `pinned`, if any.
fn pinned_digest(pinned: &str, scale: f64, seed: u64, query: usize) -> Option<u64> {
    let (scale, seed, query) = (scale.to_string(), seed.to_string(), format!("Q{query}"));
    pinned.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 4 && f[0] == scale && f[1] == seed && f[2] == query)
            .then(|| u64::from_str_radix(f[3], 16).ok())
            .flatten()
    })
}

/// Build the references for `queries` over the documents loaded in
/// `session`, checking the pinned digests when `seed` is pinned.
pub fn references(
    session: &Session,
    queries: &[usize],
    opts: &QueryOptions,
    scale: f64,
    seed: u64,
    pinned: &str,
) -> BTreeMap<usize, Reference> {
    queries
        .iter()
        .map(|&q| (q, reference(session, q, opts, scale, seed, pinned)))
        .collect()
}

fn reference(
    session: &Session,
    query: usize,
    opts: &QueryOptions,
    scale: f64,
    seed: u64,
    pinned: &str,
) -> Reference {
    let text = exrquy_xmark::query(query);
    let mut r = Reference {
        rule: Rule::Sequence,
        baseline: Vec::new(),
        baseline_digest: 0,
        expect: String::new(),
        verdict: Ok(()),
    };
    let base = match session.query_with(text, &QueryOptions::baseline()) {
        Ok(out) => out,
        Err(e) => {
            r.verdict = Err(format!("Q{query}: baseline arm failed: {e}"));
            return r;
        }
    };
    r.baseline = render(&base.items);
    r.baseline_digest = fnv1a64(base.to_xml().as_bytes());
    let timed = match session
        .prepare(text, opts)
        .and_then(|plan| Ok((plan.ordering, session.execute(&plan)?)))
    {
        Ok((ordering, out)) => {
            r.rule = match ordering {
                OrderingMode::Ordered => Rule::Sequence,
                OrderingMode::Unordered => Rule::Bag,
            };
            out
        }
        Err(e) => {
            r.verdict = Err(format!("Q{query}: timed arm failed: {e}"));
            return r;
        }
    };
    r.expect = serialize_sequence(&timed.items);
    if !agree(r.rule, &r.baseline, &render(&timed.items)) {
        r.verdict = Err(format!(
            "Q{query}: timed arm disagrees with the baseline under {:?} equality",
            r.rule
        ));
    } else if let Some(want) = pinned_digest(pinned, scale, seed, query) {
        if want != r.baseline_digest {
            r.verdict = Err(format!(
                "Q{query}: baseline digest {:016x} differs from the pinned {want:016x}",
                r.baseline_digest
            ));
        }
    } else if seed == DEFAULT_SEED {
        r.verdict = Err(format!("Q{query}: no digest pinned for scale {scale}"));
    }
    r
}

/// `digests.txt` lines for the default seed at `scale`.
pub fn digest_lines(session: &Session, scale: f64) -> Vec<String> {
    (1..=20)
        .map(|q| {
            let out = session
                .query_with(exrquy_xmark::query(q), &QueryOptions::baseline())
                .expect("baseline arm runs every XMark query");
            let digest = fnv1a64(out.to_xml().as_bytes());
            format!("{scale} {DEFAULT_SEED} Q{q} {digest:016x}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy::diag::Failpoints;
    use exrquy_xmark::{generate, XmarkConfig};

    const SCALE: f64 = 0.005;

    fn session() -> Session {
        let xml = generate(&XmarkConfig {
            scale: SCALE,
            seed: DEFAULT_SEED,
        });
        let mut s = Session::new();
        s.load_document("auction.xml", &xml).unwrap();
        s
    }

    fn all() -> Vec<usize> {
        (1..=20).collect()
    }

    #[test]
    fn clean_arms_pass_with_the_pinned_digests() {
        let s = session();
        let refs = references(
            &s,
            &all(),
            &QueryOptions::default(),
            SCALE,
            DEFAULT_SEED,
            PINNED,
        );
        for (q, r) in &refs {
            assert!(r.verdict.is_ok(), "{:?}", r.verdict);
            let out = s.query_with(exrquy_xmark::query(*q), &QueryOptions::default());
            let out = out.unwrap();
            assert!(r.accepts(&out.to_xml(), &out.items));
            assert!(r.accepts_xml(&out.to_xml()));
        }
    }

    #[test]
    fn bag_rule_accepts_a_permutation_and_rejects_a_wrong_item() {
        let items = |v: &[i64]| v.iter().map(|&i| ResultItem::Int(i)).collect::<Vec<_>>();
        let r = Reference {
            rule: Rule::Bag,
            baseline: render(&items(&[1, 2, 3])),
            baseline_digest: 0,
            expect: "1 2 3".into(),
            verdict: Ok(()),
        };
        assert!(r.accepts("3 1 2", &items(&[3, 1, 2])));
        assert!(!r.accepts("3 1 4", &items(&[3, 1, 4])));
        assert!(
            !r.accepts_xml("3 1 2"),
            "serialized results must match byte for byte"
        );
        let seq = Reference {
            rule: Rule::Sequence,
            ..r
        };
        assert!(!seq.accepts("3 1 2", &items(&[3, 1, 2])));
    }

    /// Planted fault 1: a corrupted pinned digest fails the query at
    /// set-up, and then every timed run of it.
    #[test]
    fn corrupted_digest_is_caught() {
        let s = session();
        let corrupted: String = PINNED
            .lines()
            .map(|line| {
                if line.starts_with(&format!("{SCALE} {DEFAULT_SEED} Q7 ")) {
                    format!("{SCALE} {DEFAULT_SEED} Q7 0000000000000000\n")
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let refs = references(
            &s,
            &all(),
            &QueryOptions::default(),
            SCALE,
            DEFAULT_SEED,
            &corrupted,
        );
        let failed: Vec<usize> = refs
            .iter()
            .filter(|(_, r)| r.verdict.is_err())
            .map(|(q, _)| *q)
            .collect();
        assert_eq!(failed, [7]);
        let q7 = &refs[&7];
        let out = s
            .query_with(exrquy_xmark::query(7), &QueryOptions::default())
            .unwrap();
        assert!(!q7.accepts(&out.to_xml(), &out.items));
    }

    /// Planted fault 2: the optimizer's `rule-perturb:weaken-criteria`
    /// failpoint drops real order criteria. Timed runs of the perturbed
    /// plans are checked against clean references and must be caught,
    /// and building references with the perturbed arm fails set-up.
    #[test]
    fn perturbed_optimizer_rule_is_caught() {
        let s = session();
        let ordered = QueryOptions {
            ordering: Some(OrderingMode::Ordered),
            ..QueryOptions::default()
        };
        let perturbed = ordered
            .clone()
            .with_failpoints(Failpoints::parse("rule-perturb:weaken-criteria").unwrap());
        let clean = references(&s, &all(), &ordered, SCALE, DEFAULT_SEED, PINNED);
        assert!(clean.values().all(|r| r.verdict.is_ok()));
        let mut caught = 0;
        for (q, r) in &clean {
            let out = s.query_with(exrquy_xmark::query(*q), &perturbed).unwrap();
            if !r.accepts(&out.to_xml(), &out.items) {
                caught += 1;
            }
        }
        assert!(caught > 0, "the planted fault changed no timed output");
        let faulty = references(&s, &all(), &perturbed, SCALE, DEFAULT_SEED, PINNED);
        assert_eq!(
            faulty.values().filter(|r| r.verdict.is_err()).count(),
            caught
        );
    }
}
