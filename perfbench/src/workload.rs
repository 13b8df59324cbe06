//! The workloads: which rule-set, and why each exists.

use nm_classbench::{generate, stanford_fib, AppKind};
use nm_common::{RuleSet, TraceBuf};
use nm_trace::uniform_trace;

/// How a workload's rule-set is generated.
#[derive(Clone, Copy, Debug)]
pub enum Rules {
    /// `stanford_fib(n, seed)`: one field, destination-prefix rules.
    Fib(usize),
    /// `generate(AppKind::Acl, n, seed)`: five-tuple ACL rules.
    Acl(usize),
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub rules: Rules,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fib-uniform",
        // 100K single-field prefixes partition into few large iSets (about
        // 92% coverage), and uniform keys have no reuse, so every key pays
        // its rule-array accesses: the RQ-RMI/iSet layer does the most work.
        why: "100K-prefix FIB, uniform keys: the iSet/RQ-RMI layer does the most work and no key is reused",
        rules: Rules::Fib(100_000),
    },
    Workload {
        name: "serve-churn",
        // A small classifier makes the wire path dominate (classify is a
        // few percent of wire p50); most of the run is served, with
        // modify transactions and retrains published beside pinned readers.
        why: "10K-rule ACL served over UDP loopback under modify and retrain churn: the wire path and handle publish dominate",
        rules: Rules::Acl(10_000),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. `Tiny` exists for the smoke tests only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    fn rules(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Tiny => (n / 50).max(500),
        }
    }

    /// Keys in the in-process trace.
    pub fn trace_len(self) -> usize {
        match self {
            Scale::Full => 1_000_000,
            Scale::Tiny => 20_000,
        }
    }

    /// Open-loop rates (low, high) in requests per second.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Scale::Full => (20_000.0, 100_000.0),
            Scale::Tiny => (2_000.0, 5_000.0),
        }
    }
}

/// Seed of every workload's rule-set. The rule-set is fixed per workload
/// because its structure is discrete: on `stanford_fib(100_000, s)` one
/// seed yields one large iSet and the next two, halving or doubling the
/// index and moving lookup cost with it. `--seed` drives everything that
/// flows through the fixed rules: the keys, the send schedule and the
/// churn.
const RULES_SEED: u64 = 1;

/// A workload's generated inputs.
pub struct Inputs {
    pub set: RuleSet,
    /// Uniform keys: each targets a uniformly chosen rule, so no key is
    /// reused and every lookup pays its rule-array accesses.
    pub trace: TraceBuf,
}

impl Workload {
    /// Generates the rule-set and trace (same seed, same inputs).
    pub fn inputs(&self, scale: Scale, seed: u64) -> Inputs {
        let set = match self.rules {
            Rules::Fib(n) => stanford_fib(scale.rules(n), RULES_SEED),
            Rules::Acl(n) => generate(AppKind::Acl, scale.rules(n), RULES_SEED),
        };
        let trace = uniform_trace(&set, scale.trace_len(), seed ^ 0x7ace_0000_0000_0001);
        Inputs { set, trace }
    }
}
