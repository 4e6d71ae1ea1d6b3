//! Results of distributing an instance over a network: the fully
//! materialized [`Distribution`] and the borrowed, streaming
//! [`ChunkStream`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cq::{Fact, Instance};

use crate::network::{Network, Node};
use crate::policy::DistributionPolicy;

/// The result of reshuffling an instance under a policy: `dist_P(I)`, the
/// mapping from nodes to their data chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    chunks: BTreeMap<Node, Instance>,
}

impl Distribution {
    /// An empty distribution over `network` (every node gets an empty chunk).
    pub fn empty(network: &Network) -> Distribution {
        Distribution {
            chunks: network.nodes().map(|n| (n, Instance::new())).collect(),
        }
    }

    /// Assigns `fact` to `node` (adding the node if it was unknown).
    pub fn assign(&mut self, node: Node, fact: Fact) {
        self.chunks.entry(node).or_default().insert(fact);
    }

    /// The data chunk of `node` (empty if the node is unknown).
    pub fn chunk(&self, node: Node) -> &Instance {
        static EMPTY: std::sync::OnceLock<Instance> = std::sync::OnceLock::new();
        self.chunks
            .get(&node)
            .unwrap_or_else(|| EMPTY.get_or_init(Instance::new))
    }

    /// Iterates over `(node, chunk)` pairs in node order.
    pub fn chunks(&self) -> impl Iterator<Item = (Node, &Instance)> + '_ {
        self.chunks.iter().map(|(&n, i)| (n, i))
    }

    /// The nodes of the distribution.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.chunks.keys().copied()
    }

    /// The union of all chunks (the facts that were not skipped).
    pub fn union_of_chunks(&self) -> Instance {
        let mut out = Instance::new();
        for chunk in self.chunks.values() {
            out.extend(chunk.facts().cloned());
        }
        out
    }

    /// Communication and balance statistics of the distribution against
    /// `original`: `skipped` counts the facts of `original` that reached no
    /// chunk, so the numbers are well-defined for any `original`.
    pub fn stats(&self, original: &Instance) -> DistributionStats {
        let total_assigned: usize = self.chunks.values().map(Instance::len).sum();
        let max_load = self.chunks.values().map(Instance::len).max().unwrap_or(0);
        let assigned: BTreeSet<&Fact> = self.chunks.values().flat_map(Instance::facts).collect();
        let skipped = original.facts().filter(|f| !assigned.contains(f)).count();
        DistributionStats::new(
            self.chunks.len(),
            total_assigned,
            assigned.len(),
            max_load,
            skipped,
        )
    }
}

/// The result of reshuffling an instance under a policy **without**
/// materializing per-node [`Instance`] chunks: every node maps to a vector
/// of facts *borrowed* from the original instance, in the instance's
/// (ascending) order.
///
/// This is the one reshuffle of the crate: the engines build each node's
/// owned chunk from its slice only when they ship or evaluate it, and
/// [`DistributionPolicy::distribute`] is this stream materialized. A
/// materialized [`Distribution`] clones every fact once per receiving node,
/// so its peak memory scales with `nodes × facts` (broadcast being the
/// worst case). A `ChunkStream` stores only references; an owned chunk for
/// a node is built on demand by [`ChunkStream::for_node_lazy`] and can be
/// dropped as soon as the node's local evaluation finishes, so with a
/// bounded worker pool the peak number of owned chunks is the pool size, not
/// the network size.
#[derive(Clone, Debug)]
pub struct ChunkStream<'a> {
    assignments: BTreeMap<Node, Vec<&'a Fact>>,
    /// Facts of the instance the stream was built from.
    facts_in: usize,
    /// Of those, the facts routed to at least one node.
    routed: usize,
}

/// One shard's routing: per-network-node fact slices (indexed like the
/// sorted network), facts routed to nodes outside the network, and how
/// many facts reached some node.
struct Shard<'a> {
    slots: Vec<Vec<&'a Fact>>,
    strays: BTreeMap<Node, Vec<&'a Fact>>,
    routed: usize,
}

impl<'a> ChunkStream<'a> {
    /// Reshuffles `instance` under `policy`, recording borrowed per-node
    /// fact slices. Each fact is [routed](DistributionPolicy::route) into
    /// one reused buffer whose nodes are sorted and deduplicated, so a fact
    /// lands at most once per node and the build allocates only the slices
    /// themselves. With `workers > 1` the routing is sharded over that many
    /// scoped threads (bounded by the fact count); the result is identical
    /// to the sequential build because each shard routes a contiguous
    /// subrange of the instance's deterministic fact order and shards are
    /// merged in shard order (the one-shard case skips the thread spawn).
    pub fn build<P: DistributionPolicy + ?Sized>(
        policy: &P,
        instance: &'a Instance,
        workers: usize,
    ) -> ChunkStream<'a> {
        let network: Vec<Node> = policy.network().nodes().collect();
        // One OS thread per shard: cap the shard count at twice the
        // machine's parallelism (CPU-bound work gains nothing beyond that,
        // and an oversized --distribute-workers must not exhaust OS thread
        // limits), and never more shards than facts.
        let hw_cap = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .saturating_mul(2);
        let workers = workers.min(hw_cap).clamp(1, instance.len().max(1));
        let shard_len = instance.len().div_ceil(workers).max(1);
        let shards = instance.len().div_ceil(shard_len).max(1);
        let route_shard = |shard: usize| {
            let mut part = Shard {
                slots: vec![Vec::new(); network.len()],
                strays: BTreeMap::new(),
                routed: 0,
            };
            let mut nodes = Vec::new();
            for fact in instance.facts().skip(shard * shard_len).take(shard_len) {
                policy.route(fact, &mut nodes);
                nodes.sort_unstable();
                nodes.dedup();
                part.routed += usize::from(!nodes.is_empty());
                for &node in &nodes {
                    match network.binary_search(&node) {
                        Ok(slot) => part.slots[slot].push(fact),
                        Err(_) => part.strays.entry(node).or_default().push(fact),
                    }
                }
            }
            part
        };
        let parts: Vec<Shard<'a>> = if shards > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|shard| scope.spawn(move || route_shard(shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("distribute shard panicked"))
                    .collect()
            })
        } else {
            vec![route_shard(0)]
        };
        let mut parts = parts.into_iter();
        let mut merged = parts.next().expect("at least one shard");
        for mut part in parts {
            merged.routed += part.routed;
            for (slot, refs) in merged.slots.iter_mut().zip(&mut part.slots) {
                slot.append(refs);
            }
            for (node, mut refs) in part.strays {
                merged.strays.entry(node).or_default().append(&mut refs);
            }
        }
        let mut assignments: BTreeMap<Node, Vec<&'a Fact>> =
            network.into_iter().zip(merged.slots).collect();
        assignments.extend(merged.strays);
        ChunkStream {
            assignments,
            facts_in: instance.len(),
            routed: merged.routed,
        }
    }

    /// The nodes of the stream in node order (every network node, plus any
    /// node the policy assigned facts to).
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.assignments.keys().copied()
    }

    /// The borrowed facts assigned to `node`, in ascending order (empty if
    /// the node is unknown).
    pub fn facts_for(&self, node: Node) -> &[&'a Fact] {
        self.assignments
            .get(&node)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The load of `node` (its chunk size) without materializing the chunk.
    pub fn len_of(&self, node: Node) -> usize {
        self.facts_for(node).len()
    }

    /// Number of node entries in the stream.
    pub fn chunk_count(&self) -> usize {
        self.assignments.len()
    }

    /// Materializes the owned chunk of a single node on demand — the
    /// streaming counterpart of [`Distribution::chunk`]. The caller decides
    /// the chunk's lifetime, so a worker pool keeps at most one owned chunk
    /// alive per worker, and a transport round builds each chunk just
    /// before shipping it.
    pub fn for_node_lazy(&self, node: Node) -> Instance {
        Instance::from_sorted_facts(self.facts_for(node).iter().map(|&f| f.clone()))
    }

    /// Materializes the whole stream into a [`Distribution`].
    pub fn materialize(&self) -> Distribution {
        Distribution {
            chunks: self
                .nodes()
                .map(|node| (node, self.for_node_lazy(node)))
                .collect(),
        }
    }

    /// Communication and balance statistics of the reshuffle against the
    /// instance it was built from, taken from the counts the build kept:
    /// the values equal [`Distribution::stats`] of the materialized stream
    /// against that instance, without visiting a single fact.
    pub fn stats(&self) -> DistributionStats {
        let loads = self.assignments.values().map(Vec::len);
        DistributionStats::new(
            self.assignments.len(),
            loads.clone().sum(),
            self.routed,
            loads.max().unwrap_or(0),
            self.facts_in - self.routed,
        )
    }
}

/// Load and communication statistics for one distribution of an instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionStats {
    /// Number of nodes in the network.
    pub nodes: usize,
    /// Total number of (fact, node) assignments — the communication volume.
    pub total_assigned: usize,
    /// Number of distinct facts that reached at least one node.
    pub distinct_assigned: usize,
    /// Size of the largest chunk — the bottleneck node's load.
    pub max_load: usize,
    /// Facts of the original instance that were skipped (sent nowhere).
    pub skipped: usize,
    /// `total_assigned / distinct_assigned`: average copies per distributed fact.
    pub replication_factor: f64,
}

impl DistributionStats {
    /// The statistics of a reshuffle with these counts; the replication
    /// factor is derived (0 when nothing was assigned).
    fn new(
        nodes: usize,
        total_assigned: usize,
        distinct_assigned: usize,
        max_load: usize,
        skipped: usize,
    ) -> DistributionStats {
        DistributionStats {
            nodes,
            total_assigned,
            distinct_assigned,
            max_load,
            skipped,
            replication_factor: if distinct_assigned == 0 {
                0.0
            } else {
                total_assigned as f64 / distinct_assigned as f64
            },
        }
    }
}

impl fmt::Display for DistributionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} total={} distinct={} max_load={} skipped={} replication={:.2}",
            self.nodes,
            self.total_assigned,
            self.distinct_assigned,
            self.max_load,
            self.skipped,
            self.replication_factor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_chunk() {
        let network = Network::with_size(2);
        let mut d = Distribution::empty(&network);
        let f = Fact::from_names("R", &["a", "b"]);
        d.assign(Node::numbered(0), f.clone());
        assert!(d.chunk(Node::numbered(0)).contains(&f));
        assert!(d.chunk(Node::numbered(1)).is_empty());
        assert!(d.chunk(Node::new("unknown")).is_empty());
    }

    #[test]
    fn union_of_chunks_deduplicates() {
        let network = Network::with_size(2);
        let mut d = Distribution::empty(&network);
        let f = Fact::from_names("R", &["a", "b"]);
        d.assign(Node::numbered(0), f.clone());
        d.assign(Node::numbered(1), f.clone());
        assert_eq!(d.union_of_chunks().len(), 1);
    }

    #[test]
    fn stats_measure_replication_and_skipped() {
        let network = Network::with_size(2);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let f3 = Fact::from_names("R", &["c", "d"]);
        let original = Instance::from_facts([f1.clone(), f2.clone(), f3.clone()]);

        let mut d = Distribution::empty(&network);
        d.assign(Node::numbered(0), f1.clone());
        d.assign(Node::numbered(1), f1.clone());
        d.assign(Node::numbered(0), f2.clone());
        // f3 skipped

        let stats = d.stats(&original);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.total_assigned, 3);
        assert_eq!(stats.distinct_assigned, 2);
        assert_eq!(stats.max_load, 2);
        assert_eq!(stats.skipped, 1);
        assert!((stats.replication_factor - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nodes_outside_the_network_keep_their_facts() {
        // A default node the network does not list still receives facts,
        // whichever shard routes them.
        let outside = Node::new("outside");
        let policy = crate::ExplicitPolicy::new(Network::with_size(1)).with_default([outside]);
        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["b", "c"]);
        let i = Instance::from_facts([f1.clone(), f2.clone()]);
        for workers in [1, 2] {
            let stream = policy.distribute_stream(&i, workers);
            assert_eq!(stream.facts_for(outside), [&f1, &f2]);
            assert_eq!(stream.stats().nodes, 2);
            assert_eq!(stream.stats(), stream.materialize().stats(&i));
        }
    }
}
