//! The distribution-policy abstraction.
//!
//! A policy answers one question, `P(f)`: which nodes receive fact `f`.
//! [`DistributionPolicy::nodes_for`] answers it as an owned set, for the
//! decision procedures. [`DistributionPolicy::route`] answers it into a
//! buffer the caller reuses, for the reshuffle, which asks it once per
//! fact. Rule-based and Hypercube policies override `route` with their
//! compiled form (see the `rules` module): a row-major node table indexed
//! by the mixed-radix address, so routing a fact allocates nothing.
//! Every reshuffle, [`DistributionPolicy::distribute`] included, is one
//! [`ChunkStream`] of borrowed per-node fact slices built from `route`.

use std::collections::BTreeSet;

use cq::{Fact, Instance};

use crate::distribute::{ChunkStream, Distribution};
use crate::network::{Network, Node};

/// A distribution policy `P` for a database schema and a network: a total
/// function mapping facts to sets of nodes (Section 2 of the paper).
///
/// Policies may *skip* facts by mapping them to the empty set of nodes (as
/// Hypercube distributions do for facts irrelevant to their query).
///
/// Policies are required to be [`Sync`]: the reshuffle phase shards
/// [`route`] calls across worker threads ([`distribute_stream`]) and the
/// evaluation engine shares the policy with its worker pool.
///
/// Every reshuffle goes through one implementation, [`ChunkStream::build`]:
/// it routes each fact into a reused buffer, sorts and dedups the nodes,
/// and records borrowed per-node fact slices plus the counts its
/// [`ChunkStream::stats`] report. `distribute` and `distribute_parallel`
/// are that stream with its chunks materialized.
///
/// [`route`]: DistributionPolicy::route
/// [`distribute_stream`]: DistributionPolicy::distribute_stream
pub trait DistributionPolicy: Sync {
    /// The network the policy distributes over.
    fn network(&self) -> &Network;

    /// The set of nodes responsible for `fact` (`P(f)`).
    fn nodes_for(&self, fact: &Fact) -> BTreeSet<Node>;

    /// Routes `fact`: clears `out` and fills it with the nodes of `P(f)`,
    /// in any order and possibly with repeats. This is the reshuffle's
    /// per-fact call; the caller reuses one buffer for every fact, so a
    /// policy that overrides it (the compiled [`RuleBasedPolicy`] and
    /// [`HypercubePolicy`]) routes without allocating. The default copies
    /// [`DistributionPolicy::nodes_for`].
    ///
    /// [`RuleBasedPolicy`]: crate::RuleBasedPolicy
    /// [`HypercubePolicy`]: crate::HypercubePolicy
    fn route(&self, fact: &Fact, out: &mut Vec<Node>) {
        out.clear();
        out.extend(self.nodes_for(fact));
    }

    /// Distributes an instance: computes `dist_P(I)`, the function mapping
    /// every node to its data chunk. This is the streaming reshuffle
    /// ([`DistributionPolicy::distribute_stream`]) with every chunk
    /// materialized.
    fn distribute(&self, instance: &Instance) -> Distribution {
        self.distribute_stream(instance, 1).materialize()
    }

    /// Like [`DistributionPolicy::distribute`], but shards the routing over
    /// up to `workers` scoped threads (see [`ChunkStream::build`]). The
    /// resulting distribution is identical; only the reshuffle wall-clock
    /// changes.
    fn distribute_parallel(&self, instance: &Instance, workers: usize) -> Distribution {
        self.distribute_stream(instance, workers).materialize()
    }

    /// The reshuffle: computes `dist_P(I)` as borrowed per-node fact slices
    /// (see [`ChunkStream`]), from which callers build each node's owned
    /// chunk only when they need it. With `workers > 1` the routing is
    /// sharded over that many threads.
    fn distribute_stream<'a>(&self, instance: &'a Instance, workers: usize) -> ChunkStream<'a> {
        ChunkStream::build(self, instance, workers)
    }

    /// The data chunk of a single node, computed without materializing (or
    /// even visiting) any other node's chunk: the lazy counterpart of
    /// `distribute(instance).chunk(node)`.
    fn for_node_lazy(&self, instance: &Instance, node: Node) -> Instance {
        let mut nodes = Vec::new();
        Instance::from_sorted_facts(
            instance
                .facts()
                .filter(|f| {
                    self.route(f, &mut nodes);
                    nodes.contains(&node)
                })
                .cloned(),
        )
    }

    /// Whether all facts required by a set meet at some node:
    /// `⋂_{f ∈ facts} P(f) ≠ ∅`.
    fn facts_meet(&self, facts: &Instance) -> bool {
        self.meeting_nodes(facts).is_some_and(|s| !s.is_empty())
    }

    /// The nodes at which all `facts` meet, or `None` when `facts` is empty
    /// (in which case they trivially meet everywhere).
    fn meeting_nodes(&self, facts: &Instance) -> Option<BTreeSet<Node>> {
        let mut iter = facts.facts();
        let first = iter.next()?;
        let mut nodes = self.nodes_for(first);
        for fact in iter {
            if nodes.is_empty() {
                break;
            }
            let next = self.nodes_for(fact);
            nodes = nodes.intersection(&next).copied().collect();
        }
        Some(nodes)
    }
}

/// A distribution policy with a finite, known fact universe (`Pfin` in the
/// paper): `facts(P)` — the facts `f` with `P(f) ≠ ∅` — can be enumerated.
pub trait FinitePolicy: DistributionPolicy {
    /// The fact universe `facts(P)`.
    fn fact_universe(&self) -> Instance;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitPolicy;

    #[test]
    fn meeting_nodes_intersects_assignments() {
        let network = Network::with_size(3);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let mut policy = ExplicitPolicy::new(network);
        policy.assign(f1.clone(), [Node::numbered(0), Node::numbered(1)]);
        policy.assign(f2.clone(), [Node::numbered(1), Node::numbered(2)]);

        let both = Instance::from_facts([f1.clone(), f2.clone()]);
        let nodes = policy.meeting_nodes(&both).unwrap();
        assert_eq!(nodes, [Node::numbered(1)].into_iter().collect());
        assert!(policy.facts_meet(&both));

        let empty = Instance::new();
        assert!(policy.meeting_nodes(&empty).is_none());
    }

    #[test]
    fn distribute_builds_chunks_per_node() {
        let network = Network::with_size(2);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let mut policy = ExplicitPolicy::new(network);
        policy.assign(f1.clone(), [Node::numbered(0)]);
        policy.assign(f2.clone(), [Node::numbered(0), Node::numbered(1)]);

        let inst = Instance::from_facts([f1.clone(), f2.clone()]);
        let dist = policy.distribute(&inst);
        assert_eq!(dist.chunk(Node::numbered(0)).len(), 2);
        assert_eq!(dist.chunk(Node::numbered(1)).len(), 1);
        assert!(dist.chunk(Node::numbered(1)).contains(&f2));
    }
}
