//! Correctness gate.
//!
//! Every answer the server returns must equal what the in-process model
//! computes for the same payload: `StagedNetwork::classify` truncated at
//! the depth the server reports. Compiled plans, kernel tiers and fused
//! batches are all bitwise-identical to that layer walk, so the check is
//! exact, confidence included. Every sent tag must also be accounted for
//! exactly once: answered, rejected or left unanswered, never twice, and
//! no answer may name a tag that was never sent.

use eugene_nn::StageOutput;

/// What the in-process model says about one payload.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `(predicted, confidence)` after each stage.
    pub stages: Vec<(usize, f32)>,
    /// Stages the runtime runs before its early-exit rule stops it.
    pub exit_depth: usize,
    /// Ground-truth label (for an untrained model: the full-depth
    /// prediction, so accuracy only checks that nothing changed).
    pub label: usize,
}

impl Reference {
    /// Builds the reference from `classify` outputs, applying the
    /// runtime's early-exit rule (`confidence >= threshold`).
    pub fn new(outputs: &[StageOutput], threshold: f32, label: usize) -> Self {
        let stages: Vec<(usize, f32)> = outputs
            .iter()
            .map(|o| (o.predicted, o.confidence))
            .collect();
        let exit_depth = stages
            .iter()
            .position(|&(_, c)| c >= threshold)
            .map_or(stages.len(), |i| i + 1);
        Self {
            stages,
            exit_depth,
            label,
        }
    }
}

/// One terminal answer as it arrived on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// A `Final` frame.
    Final {
        predicted: Option<u64>,
        confidence: Option<f32>,
        stages: u32,
        expired: bool,
        degraded: bool,
        server_us: u64,
    },
    /// A `Reject` frame: admission control (or a lost shard) refused it.
    Rejected,
}

/// Checks one answer against the reference of the payload it was for.
pub fn check_answer(reference: &Reference, answer: &Answer) -> Result<(), String> {
    let Answer::Final {
        predicted,
        confidence,
        stages,
        expired,
        degraded,
        ..
    } = *answer
    else {
        return Ok(());
    };
    let depth = stages as usize;
    match predicted {
        None => {
            if depth != 0 || confidence.is_some() {
                return Err(format!(
                    "answer without a prediction reports {depth} stages"
                ));
            }
            if !expired {
                return Err("zero-stage answer not marked expired".to_owned());
            }
            Ok(())
        }
        Some(predicted) => {
            if depth == 0 || depth > reference.exit_depth {
                return Err(format!(
                    "served {depth} stages, early exit is at {}",
                    reference.exit_depth
                ));
            }
            if !expired && !degraded && depth != reference.exit_depth {
                return Err(format!(
                    "full answer at depth {depth}, early exit is at {}",
                    reference.exit_depth
                ));
            }
            let (want, want_conf) = reference.stages[depth - 1];
            if predicted != want as u64 {
                return Err(format!(
                    "predicted {predicted} at depth {depth}, reference says {want}"
                ));
            }
            match confidence {
                Some(c) if c.to_bits() == want_conf.to_bits() => Ok(()),
                other => Err(format!(
                    "confidence {other:?} at depth {depth}, reference says {want_conf}"
                )),
            }
        }
    }
}

/// Exactly-once accounting of every answer against the sent tags.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Tags answered with a `Final`.
    pub answered: usize,
    /// Tags answered with a `Reject`.
    pub rejected: usize,
    /// Sent tags that never got an answer.
    pub unanswered: usize,
    /// Second (or later) answers to an already-answered tag.
    pub duplicates: usize,
    /// Answers naming a tag that was never sent.
    pub unknown: usize,
}

impl Ledger {
    /// Assigns each answer to its tag (`0..sent`). Returns the ledger and,
    /// per tag, the index into `tags` of its first answer.
    pub fn reconcile(
        sent: usize,
        tags: impl IntoIterator<Item = (u64, bool)>,
    ) -> (Self, Vec<Option<usize>>) {
        let mut ledger = Ledger::default();
        let mut first: Vec<Option<usize>> = vec![None; sent];
        for (i, (tag, rejected)) in tags.into_iter().enumerate() {
            match usize::try_from(tag).ok().and_then(|t| first.get_mut(t)) {
                None => ledger.unknown += 1,
                Some(Some(_)) => ledger.duplicates += 1,
                Some(slot) => {
                    *slot = Some(i);
                    if rejected {
                        ledger.rejected += 1;
                    } else {
                        ledger.answered += 1;
                    }
                }
            }
        }
        ledger.unanswered = first.iter().filter(|s| s.is_none()).count();
        (ledger, first)
    }

    /// Whether the accounting is exactly-once.
    pub fn exactly_once(&self) -> bool {
        self.duplicates == 0 && self.unknown == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference {
            stages: vec![(3, 0.6), (4, 0.95), (4, 0.99)],
            exit_depth: 2,
            label: 4,
        }
    }

    fn full(predicted: u64, confidence: f32, stages: u32) -> Answer {
        Answer::Final {
            predicted: Some(predicted),
            confidence: Some(confidence),
            stages,
            expired: false,
            degraded: false,
            server_us: 100,
        }
    }

    #[test]
    fn early_exit_depth_follows_the_threshold() {
        let outputs: Vec<StageOutput> = [(1, 0.5f32), (2, 0.91), (2, 0.97)]
            .iter()
            .enumerate()
            .map(|(stage, &(predicted, confidence))| StageOutput {
                stage,
                probs: Vec::new(),
                predicted,
                confidence,
            })
            .collect();
        assert_eq!(Reference::new(&outputs, 0.9, 0).exit_depth, 2);
        assert_eq!(Reference::new(&outputs, 1.0, 0).exit_depth, 3);
        assert_eq!(Reference::new(&outputs, 0.1, 0).exit_depth, 1);
    }

    #[test]
    fn matching_answers_pass() {
        let r = reference();
        assert_eq!(check_answer(&r, &full(4, 0.95, 2)), Ok(()));
        assert_eq!(check_answer(&r, &Answer::Rejected), Ok(()));
        let degraded = Answer::Final {
            predicted: Some(3),
            confidence: Some(0.6),
            stages: 1,
            expired: false,
            degraded: true,
            server_us: 100,
        };
        assert_eq!(check_answer(&r, &degraded), Ok(()));
        let starved = Answer::Final {
            predicted: None,
            confidence: None,
            stages: 0,
            expired: true,
            degraded: false,
            server_us: 100,
        };
        assert_eq!(check_answer(&r, &starved), Ok(()));
    }

    #[test]
    fn a_wrong_prediction_fails() {
        assert!(check_answer(&reference(), &full(7, 0.95, 2)).is_err());
    }

    #[test]
    fn a_wrong_confidence_fails() {
        assert!(check_answer(&reference(), &full(4, 0.951, 2)).is_err());
    }

    #[test]
    fn a_full_answer_at_the_wrong_depth_fails() {
        // Ran past the early exit.
        assert!(check_answer(&reference(), &full(4, 0.99, 3)).is_err());
        // Stopped short without saying it was degraded.
        assert!(check_answer(&reference(), &full(3, 0.6, 1)).is_err());
    }

    #[test]
    fn a_degraded_answer_must_match_its_served_depth() {
        let wrong = Answer::Final {
            predicted: Some(4),
            confidence: Some(0.6),
            stages: 1,
            expired: false,
            degraded: true,
            server_us: 100,
        };
        assert!(check_answer(&reference(), &wrong).is_err());
    }

    #[test]
    fn ledger_counts_each_tag_once() {
        let (ledger, first) = Ledger::reconcile(4, [(0, false), (2, true), (1, false)]);
        assert_eq!(
            ledger,
            Ledger {
                answered: 2,
                rejected: 1,
                unanswered: 1,
                duplicates: 0,
                unknown: 0
            }
        );
        assert!(ledger.exactly_once());
        assert_eq!(first, vec![Some(0), Some(2), Some(1), None]);
    }

    #[test]
    fn ledger_flags_duplicates_and_unknown_tags() {
        let (ledger, _) = Ledger::reconcile(2, [(0, false), (0, false), (9, false)]);
        assert_eq!(ledger.duplicates, 1);
        assert_eq!(ledger.unknown, 1);
        assert!(!ledger.exactly_once());
    }
}
