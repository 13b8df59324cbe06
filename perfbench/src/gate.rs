//! The correctness gate: every verdict the benchmark times is checked, and
//! a run with a wrong verdict or a generation regression reports
//! `correct: false` and exits non-zero.

use nm_common::frame::ResponseFrame;
use nm_common::MatchResult;

/// What the gate saw. A failure is a wrong verdict, a request no resend got
/// answered, or a generation regression; only unanswered requests leave the
/// run correct (a lost datagram is load, not a wrong answer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    pub unanswered: u64,
    pub regressions: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.wrong + self.unanswered + self.regressions
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.regressions == 0
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.unanswered += other.unanswered;
        self.regressions += other.regressions;
    }
}

/// Element-wise verdict comparison: the tally of `got` against `want`.
pub fn compare(got: &[Option<MatchResult>], want: &[Option<MatchResult>]) -> Tally {
    assert_eq!(got.len(), want.len(), "compare: verdict slices differ in length");
    let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count() as u64;
    Tally { attempted: got.len() as u64, wrong, ..Tally::default() }
}

/// Checks served responses against precomputed verdicts and the rule that
/// generations never go backwards within one client's response stream.
///
/// A request the client sent again ([`ResponseGate::mark_resent`]) may be
/// answered twice; every answer is still checked, but only the first counts
/// as its answer. A second answer to a request sent once is wrong.
pub struct ResponseGate<'a> {
    expected: &'a [Option<MatchResult>],
    answered: Vec<bool>,
    resent: Vec<bool>,
    answered_count: u64,
    /// Further answers to resent requests.
    pub duplicates: u64,
    highest_generation: u64,
    pub tally: Tally,
}

impl<'a> ResponseGate<'a> {
    /// `requests` ids will be sent; request `id` carries key
    /// `id % expected.len()`.
    pub fn new(expected: &'a [Option<MatchResult>], requests: usize) -> Self {
        Self {
            expected,
            answered: vec![false; requests],
            resent: vec![false; requests],
            answered_count: 0,
            duplicates: 0,
            highest_generation: 0,
            tally: Tally { attempted: requests as u64, ..Tally::default() },
        }
    }

    /// Checks one response; returns whether it is a fresh, correct answer.
    pub fn check(&mut self, frame: &ResponseFrame) -> bool {
        let Some(slot) = usize::try_from(frame.id).ok().and_then(|i| self.answered.get_mut(i))
        else {
            self.tally.wrong += 1; // an id never sent
            return false;
        };
        let id = frame.id as usize;
        let mut ok = true;
        if std::mem::replace(slot, true) {
            if self.resent[id] {
                self.duplicates += 1;
            } else {
                self.tally.wrong += 1; // a second answer to a request sent once
            }
            ok = false;
        } else {
            self.answered_count += 1;
        }
        if frame.generation < self.highest_generation {
            self.tally.regressions += 1;
            ok = false;
        }
        self.highest_generation = self.highest_generation.max(frame.generation);
        if frame.verdict != self.expected[id % self.expected.len()] {
            self.tally.wrong += 1;
            ok = false;
        }
        ok
    }

    /// Whether request `id` has had its answer.
    pub fn is_answered(&self, id: usize) -> bool {
        self.answered[id]
    }

    /// Records that request `id` was sent again.
    pub fn mark_resent(&mut self, id: usize) {
        self.resent[id] = true;
    }

    /// Requests answered so far.
    pub fn answered(&self) -> u64 {
        self.answered_count
    }

    /// Closes the gate: every request without an answer is a failure.
    pub fn finish(mut self) -> Tally {
        self.tally.unanswered = self.tally.attempted - self.answered_count;
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u64, rule: u32, generation: u64) -> ResponseFrame {
        ResponseFrame { id, verdict: Some(MatchResult::new(rule, rule)), generation }
    }

    #[test]
    fn matching_answers_pass() {
        let want = [Some(MatchResult::new(1, 1)), Some(MatchResult::new(2, 2))];
        let mut gate = ResponseGate::new(&want, 4);
        for id in 0..4 {
            assert!(gate.check(&frame(id, 1 + (id as u32 % 2), 3)));
        }
        let t = gate.finish();
        assert!(t.correct());
        assert_eq!(t.failed(), 0);
    }

    #[test]
    fn a_wrong_expected_verdict_fails_the_gate() {
        // The server answers rule 7, but the expected table says rule 8.
        let want = [Some(MatchResult::new(8, 8))];
        let mut gate = ResponseGate::new(&want, 1);
        assert!(!gate.check(&frame(0, 7, 1)));
        let t = gate.finish();
        assert!(!t.correct());
        assert_eq!(t.wrong, 1);

        let got = [Some(MatchResult::new(7, 7)), None];
        let t = compare(&got, &[Some(MatchResult::new(8, 8)), None]);
        assert!(!t.correct());
        assert_eq!((t.attempted, t.wrong), (2, 1));
    }

    #[test]
    fn generation_regression_and_missing_answers_count() {
        let want = [Some(MatchResult::new(1, 1))];
        let mut gate = ResponseGate::new(&want, 3);
        assert!(gate.check(&frame(0, 1, 5)));
        assert!(!gate.check(&frame(1, 1, 4)));
        assert!(!gate.check(&frame(1, 1, 5)), "duplicate answer");
        let t = gate.finish();
        assert_eq!((t.regressions, t.wrong, t.unanswered), (1, 1, 1));
        assert!(!t.correct());
    }

    #[test]
    fn a_resent_request_may_be_answered_twice_but_every_answer_is_checked() {
        let want = [Some(MatchResult::new(1, 1))];
        let mut gate = ResponseGate::new(&want, 2);
        gate.mark_resent(0);
        assert!(gate.check(&frame(0, 1, 2)));
        assert!(!gate.check(&frame(0, 1, 2)), "the second answer is not a fresh one");
        assert_eq!((gate.duplicates, gate.answered()), (1, 1));
        assert_eq!(gate.tally.failed(), 0);
        // A wrong or older second answer still fails the gate.
        assert!(!gate.check(&frame(0, 2, 2)));
        assert!(!gate.check(&frame(0, 1, 1)));
        assert!(gate.check(&frame(1, 1, 2)));
        let t = gate.finish();
        assert_eq!((t.wrong, t.regressions, t.unanswered), (1, 1, 0));
        assert!(!t.correct());
    }
}
