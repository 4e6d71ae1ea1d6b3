//! The four workloads: their input pools (generated from a seed), the
//! reference answers, and one job of each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cq::{ConjunctiveQuery, Instance};
use distribution::{
    DistributionPolicy, HypercubePolicy, IteratedFixpoint, MultiRoundEngine, OneRoundEngine,
    RoundSchedule, Transport, TransportError,
};
use logic::{Pi2Qbf, Pi3Qbf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reductions::Pi2Reduction;

use crate::cpus::Spread;
use crate::trace::{time_in, PolicyCounts, Recorder, TracedPolicy};

/// Jobs per pool: inputs of a distributed workload, or mixes of `decide`.
/// Jobs cycle through the pool, and per-job counts are averaged over it.
pub(crate) const POOL_SIZE: usize = 4;

/// Round cap of the transitive-closure runs: far above the 4–5 rounds the
/// pooled inputs need, so every run reaches its fixpoint.
const MAX_ROUNDS: usize = 64;

/// Hypercube buckets per query variable (64 nodes for three variables).
const BUCKETS: usize = 4;

/// Evaluation workers (transport pool threads or worker processes).
pub(crate) const WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One Hypercube round of the triangle query over `ProcessTransport`.
    HypercubeTriangle,
    /// Transitive closure to the fixpoint, full re-evaluation, in memory.
    TcDenseMemory,
    /// Transitive closure, semi-naive rounds, over `ProcessTransport`.
    TcSparseSeminaiveProcess,
    /// A fixed mix of the paper's decision procedures.
    Decide,
}

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 4] = [
        Workload::HypercubeTriangle,
        Workload::TcDenseMemory,
        Workload::TcSparseSeminaiveProcess,
        Workload::Decide,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HypercubeTriangle => "hypercube-triangle",
            Workload::TcDenseMemory => "tc-dense-memory",
            Workload::TcSparseSeminaiveProcess => "tc-sparse-seminaive-process",
            Workload::Decide => "decide",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's rounds run in worker processes.
    pub fn uses_processes(self) -> bool {
        matches!(
            self,
            Workload::HypercubeTriangle | Workload::TcSparseSeminaiveProcess
        )
    }

    /// The instance spec of pool entry `index` under `seed` (the spec
    /// carries its own derived generator seed).
    fn instance_spec(self, seed: u64, index: usize) -> Option<String> {
        let sub = derive_seed(seed, index as u64);
        match self {
            Workload::HypercubeTriangle => Some(format!("zipf:1000:20000:110:{sub}")),
            Workload::TcDenseMemory => Some(format!("random:60:300:{sub}")),
            // Mean degree 0.5: well below the giant-component threshold,
            // so the closure size (and the round count, 5) barely varies
            // between seeds.
            Workload::TcSparseSeminaiveProcess => Some(format!("random:12000:6000:{sub}")),
            Workload::Decide => None,
        }
    }
}

/// A well-mixed seed for pool entry `index` (splitmix64 finaliser).
pub(crate) fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fingerprint of an instance's facts, stable across processes and
/// builds (FNV-1a over the printed facts, in order).
pub(crate) fn fingerprint(instance: &Instance) -> u64 {
    let text: String = instance.facts().map(|f| format!("{f}\n")).collect();
    distribution::fnv1a(text.as_bytes(), 0)
}

/// One pooled input of a distributed workload.
pub struct Input {
    /// The generator spec, e.g. `random:60:300:<seed>`.
    pub spec: String,
    /// The generated facts.
    pub instance: Instance,
}

/// The shape shared by the three distributed workloads.
pub struct JoinPool {
    /// The query every job evaluates.
    pub query: ConjunctiveQuery,
    /// The Hypercube policy of `query`.
    pub policy: HypercubePolicy,
    /// `None` for one round; `Some(semi_naive)` for a transitive closure.
    pub closure: Option<bool>,
    /// The pooled inputs.
    pub inputs: Vec<Input>,
}

/// The decision a `decide` case makes.
pub enum Decision {
    /// `check_parallel_correctness` on a Π₂-QBF reduction.
    Pc(Box<Pi2Reduction>),
    /// `check_parallel_correctness_on_instance` on a Π₂-QBF reduction.
    Pci(Box<Pi2Reduction>),
    /// `check_transfer` on the query pair of a Π₃-QBF reduction.
    TransferQbf(Box<(ConjunctiveQuery, ConjunctiveQuery)>),
    /// `check_transfer` on every pair of `TRANSFER_PAIRS`.
    Pairs(Vec<(ConjunctiveQuery, ConjunctiveQuery)>),
    /// `hypercube_parallel_correct` on every pair of `HYPERCUBE_PAIRS`.
    Hypercube(Vec<(ConjunctiveQuery, ConjunctiveQuery)>),
}

/// The formula behind a reduction, kept for the reference verdict.
pub enum Formula {
    /// A Π₂-QBF (parallel-correctness reductions).
    Pi2(Pi2Qbf),
    /// A Π₃-QBF (transfer reductions).
    Pi3(Pi3Qbf),
    /// No formula: the verdicts are pinned in `TRANSFER_PAIRS` and
    /// `HYPERCUBE_PAIRS`.
    Pinned,
}

/// One decision of the `decide` mix.
pub struct DecideCase {
    /// A short label, e.g. `pc#1`.
    pub label: String,
    /// What the case decides.
    pub decision: Decision,
    /// Where its expected verdict comes from.
    pub formula: Formula,
}

/// A workload's generated inputs.
pub enum Pool {
    /// Inputs of a distributed workload.
    Join(Box<JoinPool>),
    /// The jobs of `decide`: each decides a whole mix of cases.
    Decide(Vec<Vec<DecideCase>>),
}

/// Cases per `decide` job of each formula-driven kind. A job decides the
/// whole mix, about 0.55 s of work, so its time moves with every kind of
/// decision. With one case per job, the median job would be one kind's
/// typical case, and a change to the other kinds would not move it.
const PC_CASES: usize = 8;
const PCI_CASES: usize = 5;
const TRANSFER_CASES: usize = 8;

/// Query pairs with pinned transfer verdicts: `(from, to, transfers)`.
/// The first five are the boundaries of `workloads::named_query_sequence`.
pub(crate) const TRANSFER_PAIRS: [(&str, &str, bool); 7] = [
    // relax: dropping the R(y, y) constraint transfers ...
    (
        "T(x, z) :- R(x, y), R(y, z), R(y, y).",
        "T(x, z) :- R(x, y), R(y, z).",
        true,
    ),
    // ... re-adding it does not.
    (
        "T(x, z) :- R(x, y), R(y, z).",
        "T(x, z) :- R(x, y), R(y, z), R(y, y).",
        false,
    ),
    // projections: a projection of the join transfers ...
    (
        "T(x, y, z) :- R(x, y), S(y, z).",
        "U(x, y) :- R(x, y).",
        true,
    ),
    // ... an extension over a fresh relation does not.
    (
        "U(x, y) :- R(x, y).",
        "U(x, y, z, w) :- R(x, y), S(y, z), V(z, w).",
        false,
    ),
    // selfloop: the self-loop restriction of the identity copy transfers.
    ("T(x, y) :- R(x, y).", "U(x) :- R(x, x).", true),
    // chains: a longer full chain covers the shorter one ...
    (
        "T(x0, x1, x2, x3) :- R(x0, x1), R(x1, x2), R(x2, x3).",
        "T(x0, x2) :- R(x0, x1), R(x1, x2).",
        true,
    ),
    // ... but not the other way round.
    (
        "T(x0, x2) :- R(x0, x1), R(x1, x2).",
        "T(x0, x3) :- R(x0, x1), R(x1, x2), R(x2, x3).",
        false,
    ),
];

/// Query pairs with pinned Hypercube-family verdicts (Corollary 5.8):
/// `(query, query', parallel-correct)`.
pub(crate) const HYPERCUBE_PAIRS: [(&str, &str, bool); 5] = [
    (
        "T(x, y, z) :- E(x, y), E(y, z), E(z, x).",
        "U(x, y) :- E(x, y).",
        true,
    ),
    (
        "T(x, y, z) :- E(x, y), E(y, z), E(z, x).",
        "U(x, z) :- E(x, y), E(y, z).",
        true,
    ),
    (
        "T(x, y, z) :- E(x, y), E(y, z), E(z, x).",
        "U(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x).",
        false,
    ),
    (
        "T(x, y, z) :- R(x, y), S(y, z).",
        "U(y) :- R(x, y), S(y, z).",
        true,
    ),
    (
        "T(x, y, z) :- R(x, y), S(y, z).",
        "U(x, z) :- R(x, y), R(y, z).",
        false,
    ),
];

fn parse_query(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).expect("the benchmark's pinned queries are well-formed")
}

impl Pool {
    /// Generates the pool of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Result<Pool, String> {
        if workload == Workload::Decide {
            let jobs = (0..POOL_SIZE)
                .map(|index| decide_mix(seed, index))
                .collect();
            return Ok(Pool::Decide(jobs));
        }
        let (query, closure) = match workload {
            Workload::HypercubeTriangle => (workloads::triangle_query(), None),
            Workload::TcDenseMemory => (workloads::chain_query(2), Some(false)),
            _ => (workloads::chain_query(2), Some(true)),
        };
        let policy = HypercubePolicy::uniform(&query, BUCKETS).map_err(|e| e.to_string())?;
        let schema = query.schema();
        let inputs = (0..POOL_SIZE)
            .map(|index| {
                let spec = workload
                    .instance_spec(seed, index)
                    .expect("distributed workloads have instance specs");
                let instance = workloads::named_instance(&spec, &schema)?;
                Ok(Input { spec, instance })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Pool::Join(Box::new(JoinPool {
            query,
            policy,
            closure,
            inputs,
        })))
    }

    /// Number of distinct jobs in one cycle through the pool.
    pub fn len(&self) -> usize {
        match self {
            Pool::Join(pool) => pool.inputs.len(),
            Pool::Decide(jobs) => jobs.len(),
        }
    }

    /// Whether the pool is empty (never, for a generated pool).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fingerprints of the pooled inputs, in pool order.
    pub fn fingerprints(&self) -> Vec<u64> {
        match self {
            Pool::Join(pool) => pool
                .inputs
                .iter()
                .map(|i| fingerprint(&i.instance))
                .collect(),
            Pool::Decide(jobs) => jobs
                .iter()
                .map(|cases| {
                    let text: String = cases
                        .iter()
                        .map(|case| match &case.decision {
                            Decision::Pc(r) | Decision::Pci(r) => {
                                format!("{} | {}\n", r.query, r.instance)
                            }
                            Decision::TransferQbf(pair) => format!("{} | {}\n", pair.0, pair.1),
                            Decision::Pairs(pairs) | Decision::Hypercube(pairs) => {
                                pairs.iter().map(|(a, b)| format!("{a} | {b}\n")).collect()
                            }
                        })
                        .collect();
                    distribution::fnv1a(text.as_bytes(), 0)
                })
                .collect(),
        }
    }

    /// One line per pooled input: its spec or label and its size.
    pub fn describe(&self) -> Vec<String> {
        match self {
            Pool::Join(pool) => pool
                .inputs
                .iter()
                .map(|i| format!("{} ({} facts)", i.spec, i.instance.len()))
                .collect(),
            Pool::Decide(jobs) => jobs
                .iter()
                .enumerate()
                .map(|(index, cases)| {
                    let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
                    format!("mix#{index}: {}", labels.join(" "))
                })
                .collect(),
        }
    }
}

/// The cases of `decide` job `index`.
fn decide_mix(seed: u64, index: usize) -> Vec<DecideCase> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1_000 + index as u64));
    let mut cases = Vec::new();
    // `pc` cases get true Π₂-QBF formulas ∀x₄ ∃y₄ over 8 clauses: the
    // decision then examines every minimal valuation, its worst case, and
    // takes 40–65 ms. On a false formula it stops at the first
    // counterexample, whose position varies the cost by 20×; with x₅ the
    // cost of true formulas varies by 3×.
    let mut pc = 0;
    while pc < PC_CASES {
        let qbf = logic::random_pi2_qbf(&mut rng, 4, 4, 8);
        if !qbf.is_true() {
            continue;
        }
        cases.push(DecideCase {
            label: format!("pc#{pc}"),
            decision: Decision::Pc(Box::new(reductions::pi2_to_pc(&qbf))),
            formula: Formula::Pi2(qbf),
        });
        pc += 1;
    }
    // `pci` cases (1–4 ms) take ∀x₅ ∃y₄ formulas as they come, so both
    // verdicts occur.
    for k in 0..PCI_CASES {
        let qbf = logic::random_pi2_qbf(&mut rng, 5, 4, 8);
        cases.push(DecideCase {
            label: format!("pci#{k}"),
            decision: Decision::Pci(Box::new(reductions::pi2_to_pci(&qbf))),
            formula: Formula::Pi2(qbf),
        });
    }
    // Transfer cases take Π₃-QBF formulas ∀x₁ ∃y₁ ∀z₁ over one term:
    // 20–30 ms per decision, whatever the verdict. Larger formulas vary
    // by 50× with the formula (y₂: 2–170 ms; y₂ and two terms: 0.04–1.4 s;
    // one more z variable on top: 13 s).
    for k in 0..TRANSFER_CASES {
        let qbf = logic::random_pi3_qbf(&mut rng, 1, 1, 1, 1);
        let reduction = reductions::pi3_to_transfer(&qbf);
        cases.push(DecideCase {
            label: format!("transfer#{k}"),
            decision: Decision::TransferQbf(Box::new((reduction.from, reduction.to))),
            formula: Formula::Pi3(qbf),
        });
    }
    let parse_pairs = |pairs: &[(&str, &str, bool)]| {
        pairs
            .iter()
            .map(|(a, b, _)| (parse_query(a), parse_query(b)))
            .collect()
    };
    cases.push(DecideCase {
        label: "pairs".to_string(),
        decision: Decision::Pairs(parse_pairs(&TRANSFER_PAIRS)),
        formula: Formula::Pinned,
    });
    cases.push(DecideCase {
        label: "hypercube".to_string(),
        decision: Decision::Hypercube(parse_pairs(&HYPERCUBE_PAIRS)),
        formula: Formula::Pinned,
    });
    cases
}

/// The reference answer for one pooled job.
pub enum Reference {
    /// `cq::evaluate` of the one-round query.
    OneRound(Instance),
    /// The centralized fixpoint of the transitive closure.
    Fixpoint(IteratedFixpoint),
    /// The expected verdicts of a `decide` job, in decision order.
    Verdicts(Vec<bool>),
}

impl Pool {
    /// Computes one reference per pooled job, with the time each took.
    pub fn references(&self) -> Vec<(Reference, Duration)> {
        match self {
            Pool::Join(pool) => pool
                .inputs
                .iter()
                .map(|input| {
                    let start = Instant::now();
                    let reference = match pool.closure {
                        None => Reference::OneRound(cq::evaluate(&pool.query, &input.instance)),
                        Some(_) => Reference::Fixpoint(
                            closure_engine(&pool.policy, false)
                                .reference_fixpoint(&pool.query, &input.instance),
                        ),
                    };
                    (reference, start.elapsed())
                })
                .collect(),
            Pool::Decide(jobs) => jobs
                .iter()
                .map(|cases| {
                    let start = Instant::now();
                    let verdicts = cases
                        .iter()
                        .flat_map(|case| match (&case.formula, &case.decision) {
                            (Formula::Pi2(qbf), _) => vec![qbf.is_true()],
                            (Formula::Pi3(qbf), _) => vec![qbf.is_true()],
                            (Formula::Pinned, Decision::Hypercube(_)) => {
                                HYPERCUBE_PAIRS.iter().map(|p| p.2).collect()
                            }
                            (Formula::Pinned, _) => TRANSFER_PAIRS.iter().map(|p| p.2).collect(),
                        })
                        .collect();
                    (Reference::Verdicts(verdicts), start.elapsed())
                })
                .collect(),
        }
    }
}

fn closure_engine(policy: &dyn DistributionPolicy, semi_naive: bool) -> MultiRoundEngine<'_> {
    MultiRoundEngine::new(RoundSchedule::repeat(policy))
        .rounds(MAX_ROUNDS)
        .feedback_into("R")
        .semi_naive(semi_naive)
}

/// What one job did, as the program reported it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobCounts {
    /// Communication rounds run.
    pub rounds: u64,
    /// `(fact, node)` assignments shipped over all rounds.
    pub comm_facts: u64,
    /// Bytes the transport serialized, both directions.
    pub comm_bytes: u64,
    /// The largest chunk of any round.
    pub max_node_facts: u64,
    /// Sum of every node's output over all rounds.
    pub node_output_facts: u64,
    /// Distinct facts in the job's answer.
    pub answer_facts: u64,
    /// Index-cache hits and misses reported by the decision procedures.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// The answer of one job.
pub enum Answer {
    /// The distributed result (and, for closures, rounds and convergence).
    Facts { result: Instance, converged: bool },
    /// The verdicts of a decision job.
    Verdicts(Vec<bool>),
}

/// Runs one job of a distributed workload through `policy` and `transport`.
pub(crate) fn run_join(
    pool: &JoinPool,
    policy: &dyn DistributionPolicy,
    transport: &mut dyn Transport,
    input: &Instance,
) -> Result<(Answer, JobCounts), TransportError> {
    match pool.closure {
        None => {
            let outcome =
                OneRoundEngine::new(policy).evaluate_via(transport, 0, &pool.query, input)?;
            let counts = JobCounts {
                rounds: 1,
                comm_facts: outcome.stats.total_assigned as u64,
                comm_bytes: outcome.comm_bytes,
                max_node_facts: outcome.stats.max_load as u64,
                node_output_facts: outcome.per_node_output.values().sum::<usize>() as u64,
                answer_facts: outcome.result.len() as u64,
                ..JobCounts::default()
            };
            let answer = Answer::Facts {
                result: outcome.result,
                converged: true,
            };
            Ok((answer, counts))
        }
        Some(semi_naive) => {
            let outcome =
                closure_engine(policy, semi_naive).evaluate_via(transport, &pool.query, input)?;
            let counts = JobCounts {
                rounds: outcome.rounds_run() as u64,
                comm_facts: outcome.total_comm_volume() as u64,
                comm_bytes: outcome.total_comm_bytes(),
                max_node_facts: outcome.max_load() as u64,
                node_output_facts: outcome
                    .rounds
                    .iter()
                    .flat_map(|r| r.per_node_output.values())
                    .sum::<usize>() as u64,
                answer_facts: outcome.result.len() as u64,
                ..JobCounts::default()
            };
            let answer = Answer::Facts {
                result: outcome.result,
                converged: outcome.converged,
            };
            Ok((answer, counts))
        }
    }
}

/// Whether a distributed answer matches its reference (same facts, a
/// converged run, and for closures the reference's round count).
pub(crate) fn join_matches(answer: &Answer, counts: &JobCounts, reference: &Reference) -> bool {
    match (answer, reference) {
        (Answer::Facts { result, converged }, Reference::OneRound(expected)) => {
            *converged && result == expected
        }
        (Answer::Facts { result, converged }, Reference::Fixpoint(expected)) => {
            *converged && result == &expected.result && counts.rounds == expected.rounds as u64
        }
        _ => false,
    }
}

/// The layer a decision exercises, for its span name.
fn decision_span(decision: &Decision) -> &'static str {
    match decision {
        Decision::Pc(_) => "core.pc",
        Decision::Pci(_) => "core.pci",
        Decision::TransferQbf(_) | Decision::Pairs(_) => "core.transfer",
        Decision::Hypercube(_) => "core.hypercube",
    }
}

/// Runs one `decide` job: every case in order, each timed in `recorder`
/// under its layer's span when there is one. Consecutive cases run on
/// different CPUs (see `cpus`).
pub(crate) fn run_decisions(
    cases: &[DecideCase],
    recorder: Option<&Recorder>,
) -> (Answer, JobCounts) {
    let mut counts = JobCounts::default();
    let mut verdicts = Vec::new();
    let spread = Spread::new();
    for (step, case) in cases.iter().enumerate() {
        spread.step(step);
        let decision = &case.decision;
        verdicts.extend(time_in(recorder, decision_span(decision), || {
            decide(decision, &mut counts)
        }));
    }
    (Answer::Verdicts(verdicts), counts)
}

/// Runs one decision, adding what it reports to `counts`.
fn decide(decision: &Decision, counts: &mut JobCounts) -> Vec<bool> {
    match decision {
        Decision::Pc(r) => {
            let report = pc_core::check_parallel_correctness(&r.query, &r.policy);
            let cache = report.cache_stats();
            counts.cache_hits += cache.hits;
            counts.cache_misses += cache.misses;
            vec![report.is_correct()]
        }
        Decision::Pci(r) => {
            // The check runs one distributed round; the counting wrapper
            // reports what that round reshuffled.
            let shipped = PolicyCounts::default();
            let policy = TracedPolicy::counting(&r.policy, &shipped);
            let report =
                pc_core::check_parallel_correctness_on_instance(&r.query, &policy, &r.instance);
            let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
            counts.rounds += load(&shipped.reshuffles);
            counts.comm_facts += load(&shipped.assigned);
            counts.max_node_facts = counts.max_node_facts.max(load(&shipped.max_chunk));
            vec![report.is_correct()]
        }
        Decision::TransferQbf(pair) => {
            let report = pc_core::check_transfer(&pair.0, &pair.1);
            let cache = report.cache_stats();
            counts.cache_hits += cache.hits;
            counts.cache_misses += cache.misses;
            vec![report.transfers()]
        }
        Decision::Pairs(pairs) => pairs
            .iter()
            .map(|(from, to)| {
                let report = pc_core::check_transfer(from, to);
                let cache = report.cache_stats();
                counts.cache_hits += cache.hits;
                counts.cache_misses += cache.misses;
                report.transfers()
            })
            .collect(),
        Decision::Hypercube(pairs) => pairs
            .iter()
            .map(|(q, q_prime)| pc_core::hypercube_parallel_correct(q, q_prime).parallel_correct)
            .collect(),
    }
}
