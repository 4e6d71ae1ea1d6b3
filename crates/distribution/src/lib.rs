//! # distribution — distribution policies and one-round evaluation
//!
//! This crate implements the data-distribution side of
//! *"Parallel-Correctness and Transferability for Conjunctive Queries"*
//! (PODS 2015):
//!
//! * [`Node`]s and [`Network`]s of computing nodes,
//! * the [`DistributionPolicy`] trait — a total function mapping facts to
//!   sets of nodes (Section 2 of the paper), with finite, explicitly
//!   enumerated policies ([`ExplicitPolicy`], the class `Pfin`),
//! * the declarative, rule-based specification formalism of Section 5.2
//!   ([`RuleBasedPolicy`], [`DistributionRule`]) with `bucket`/`bucket*`
//!   predicates realized as [`HashScheme`]s,
//! * [`HypercubePolicy`] and [`HypercubeFamily`] — the Hypercube
//!   distributions of Section 5.2,
//! * [`ChunkStream`] — the reshuffle of an instance (`dist_P(I)`) as
//!   borrowed per-node fact slices, routed fact by fact through
//!   [`DistributionPolicy::route`] with load and replication statistics
//!   counted on the way (owned chunks are built one at a time, on demand),
//!   and [`Distribution`] — the same reshuffle with every chunk
//!   materialized,
//! * [`OneRoundEngine`] — the simulated one-round evaluation algorithm:
//!   reshuffle (optionally sharded over threads), evaluate locally at every
//!   node (optionally on a bounded worker pool), union the results,
//! * [`MultiRoundEngine`] — the iterated (MPC-style multi-round) algorithm:
//!   distribute→evaluate cycles under a per-round [`RoundSchedule`], with
//!   an optional feedback relation, fixpoint detection and a round cap;
//!   [`MultiRoundEngine::semi_naive`] switches the rounds to **incremental
//!   mode** — only the facts new since the previous round are reshuffled
//!   (`Transport::send_delta`), nodes keep their accumulated state across
//!   rounds, and local evaluation is one semi-naive differential pass
//!   instead of a full re-evaluation,
//! * [`Transport`] — the pluggable chunk-shipping seam between the engines
//!   and wherever local evaluation happens: [`InMemoryTransport`] is the
//!   classic in-process path refactored behind the trait, and
//!   `wire::ProcessTransport` ships binary-encoded chunks to
//!   `pcq-analyze worker` subprocesses over stdio.
//!
//! ## Example
//!
//! ```
//! use cq::{ConjunctiveQuery, parse_instance, evaluate};
//! use distribution::{HypercubePolicy, OneRoundEngine};
//!
//! let q = ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
//! let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, d). E(d, a).").unwrap();
//!
//! let policy = HypercubePolicy::uniform(&q, 2).unwrap();
//! let engine = OneRoundEngine::new(&policy);
//! let outcome = engine.evaluate(&q, &i);
//!
//! // Hypercube distributions are parallel-correct for their query:
//! assert_eq!(outcome.result, evaluate(&q, &i));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribute;
mod engine;
mod explicit;
mod hash;
mod hypercube;
mod network;
mod policy;
mod rounds;
mod rules;
mod transport;

pub use distribute::{ChunkStream, Distribution, DistributionStats};
pub use engine::{OneRoundEngine, OneRoundOutcome};
pub use explicit::ExplicitPolicy;
pub use hash::{fnv1a, HashScheme};
pub use hypercube::{HypercubeFamily, HypercubePolicy};
pub use network::{Network, Node};
pub use policy::{DistributionPolicy, FinitePolicy};
pub use rounds::{
    IteratedFixpoint, MultiQueryOutcome, MultiRoundEngine, MultiRoundOutcome, RoundSchedule,
    TransferOracle,
};
pub use rules::{AddressTerm, DistributionRule, RuleBasedPolicy, RulePolicyError};
pub use transport::{InMemoryTransport, NodeResult, Transport, TransportError};
