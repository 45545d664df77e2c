//! Erased termination predicates: *what it means for a run to be done*,
//! as data attached to each registry family.
//!
//! The simulator itself is agnostic — the round loop stops when every
//! node's `node_done()` holds (or the cap is hit). What the runner used
//! to hard-code was the *post-condition*: a completed run was asserted to
//! have disseminated all `k` tokens to every node. That assumption is
//! exactly right for the paper's dissemination families and exactly
//! wrong for the quorum family, whose goal is a watermark threshold over
//! `max_rounds` state and which owns no tokens at all.
//!
//! [`TerminationPredicate`] erases that post-condition the same way the
//! registry erases each protocol behind its cell: the runner asks the
//! spec for its predicate and verifies the final [`KnowledgeView`]
//! against it.
//! [`TOKEN_COMPLETION`] reproduces the historical check bit for bit —
//! token families keep the identical success criterion (locked by the
//! committed campaign baselines), and non-token families plug in their
//! own meaning of done.

use dyncode_dynet::adversary::KnowledgeView;

/// A family's termination post-condition, checked against the final
/// knowledge view of a **completed** run (a capped run has nothing to
/// verify). `k` is the instance's token count — predicates that do not
/// deal in tokens ignore it.
pub trait TerminationPredicate: Sync {
    /// Short registry label, e.g. `all-tokens-decoded` (what the
    /// `protocols` listing prints in its termination column).
    fn name(&self) -> &'static str;

    /// Checks the post-condition; `Err` carries the first violation.
    fn verify(&self, view: &KnowledgeView, k: usize) -> Result<(), String>;
}

/// The historical default: every node can enumerate all `k` tokens.
pub struct TokenCompletion;

/// The shared token-completion predicate instance.
pub static TOKEN_COMPLETION: TokenCompletion = TokenCompletion;

impl TerminationPredicate for TokenCompletion {
    fn name(&self) -> &'static str {
        "all-tokens-decoded"
    }

    fn verify(&self, view: &KnowledgeView, k: usize) -> Result<(), String> {
        for (u, tokens) in view.tokens.iter().enumerate() {
            if tokens.len() != k {
                return Err(format!(
                    "node {u} holds {}/{k} tokens at completion",
                    tokens.len()
                ));
            }
        }
        Ok(())
    }
}

/// The quorum family's post-condition: every node's local termination
/// flag holds — its goal watermark (`max_round⁺` or the 4f+1
/// `max_round`) reached the configured round. The watermarks are
/// monotone, so a set flag can never have rolled back by run end.
pub struct QuorumDecision;

/// The shared quorum-threshold predicate instance.
pub static QUORUM_DECISION: QuorumDecision = QuorumDecision;

impl TerminationPredicate for QuorumDecision {
    fn name(&self) -> &'static str {
        "quorum-threshold"
    }

    fn verify(&self, view: &KnowledgeView, _k: usize) -> Result<(), String> {
        for (u, &done) in view.done.iter().enumerate() {
            if !done {
                return Err(format!("node {u} has not reached its quorum goal"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_dynet::bitset::BitSet;

    fn view(token_counts: &[usize], k: usize, done: &[bool]) -> KnowledgeView {
        KnowledgeView {
            tokens: token_counts
                .iter()
                .map(|&c| {
                    let mut b = BitSet::new(k);
                    for i in 0..c {
                        b.insert(i);
                    }
                    b
                })
                .collect(),
            dims: token_counts.to_vec(),
            done: done.to_vec(),
        }
    }

    #[test]
    fn token_completion_requires_all_k_everywhere() {
        let ok = view(&[3, 3], 3, &[true, true]);
        assert!(TOKEN_COMPLETION.verify(&ok, 3).is_ok());
        let bad = view(&[3, 2], 3, &[true, true]);
        let err = TOKEN_COMPLETION.verify(&bad, 3).unwrap_err();
        assert!(err.contains("node 1") && err.contains("2/3"), "{err}");
    }

    #[test]
    fn quorum_decision_ignores_tokens_and_reads_done_flags() {
        // No tokens at all: fine for the quorum predicate, fatal for the
        // token one — the exact asymmetry the erasure exists for.
        let v = view(&[0, 0], 4, &[true, true]);
        assert!(QUORUM_DECISION.verify(&v, 4).is_ok());
        assert!(TOKEN_COMPLETION.verify(&v, 4).is_err());
        let undecided = view(&[0, 0], 4, &[true, false]);
        let err = QUORUM_DECISION.verify(&undecided, 4).unwrap_err();
        assert!(err.contains("node 1"), "{err}");
    }
}
