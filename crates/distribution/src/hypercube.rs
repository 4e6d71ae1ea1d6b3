//! Hypercube distribution policies (Section 5.2 of the paper).
//!
//! For a conjunctive query `Q` with variables `x₁, …, x_k`, a *hypercube*
//! `H = (h₁, …, h_k)` of hash functions determines a policy `P_H`: the
//! address space is `img(h₁) × … × img(h_k)`, and for every valuation `V`
//! and atom `A` of `Q`, the fact `V(A)` is sent to every node whose address
//! agrees with `h_i(V(x_i))` on the dimensions of the variables occurring in
//! `A` (and is arbitrary on the other dimensions).
//!
//! [`HypercubePolicy`] realizes `P_H` as a [`RuleBasedPolicy`] with one rule
//! per body atom, exactly as in the declarative specification of the paper.
//! [`HypercubeFamily`] represents the family `H_Q` of all hypercube policies
//! of a query, which Lemma 5.7 shows to be `Q`-generous and `Q`-scattered.

use std::collections::BTreeSet;

use cq::{ConjunctiveQuery, Fact, Instance, Variable};

use crate::hash::HashScheme;
use crate::network::{Network, Node};
use crate::policy::DistributionPolicy;
use crate::rules::{AddressTerm, DistributionRule, RuleBasedPolicy, RulePolicyError};

/// A concrete Hypercube distribution policy `P_H` for a query.
#[derive(Clone, Debug)]
pub struct HypercubePolicy {
    query: ConjunctiveQuery,
    dimensions: Vec<Variable>,
    inner: RuleBasedPolicy,
}

impl HypercubePolicy {
    /// Builds the policy for `query` from one hash scheme per query variable
    /// (in the order of [`ConjunctiveQuery::variables`]).
    pub fn new(
        query: &ConjunctiveQuery,
        schemes: Vec<HashScheme>,
    ) -> Result<HypercubePolicy, RulePolicyError> {
        let dimensions = query.variables();
        assert_eq!(
            schemes.len(),
            dimensions.len(),
            "one hash scheme per query variable is required"
        );
        let rules = query
            .body()
            .iter()
            .map(|atom| DistributionRule {
                atom: atom.clone(),
                address: dimensions
                    .iter()
                    .map(|&dim| {
                        if atom.contains(dim) {
                            AddressTerm::HashOfVar(dim)
                        } else {
                            AddressTerm::AnyBucket
                        }
                    })
                    .collect(),
            })
            .collect();
        Ok(HypercubePolicy {
            query: query.clone(),
            dimensions,
            inner: RuleBasedPolicy::new(rules, schemes)?,
        })
    }

    /// The policy with `buckets` buckets in every dimension, using seeded
    /// FNV hash functions (a "typical" Hypercube instantiation).
    pub fn uniform(
        query: &ConjunctiveQuery,
        buckets: usize,
    ) -> Result<HypercubePolicy, RulePolicyError> {
        let dims = query.variables().len();
        HypercubePolicy::new(
            query,
            (0..dims)
                .map(|i| HashScheme::Modulo {
                    buckets,
                    seed: i as u64,
                })
                .collect(),
        )
    }

    /// The policy with a per-dimension bucket count.
    pub fn with_buckets(
        query: &ConjunctiveQuery,
        buckets: &[usize],
    ) -> Result<HypercubePolicy, RulePolicyError> {
        HypercubePolicy::new(
            query,
            buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| HashScheme::Modulo {
                    buckets: b,
                    seed: i as u64,
                })
                .collect(),
        )
    }

    /// The `(Q, I)`-scattered member of the family used in the proof of
    /// Lemma 5.7: every dimension uses the identity hash over `adom(I)`, so
    /// each node receives facts from at most one valuation.
    pub fn scattered_for(
        query: &ConjunctiveQuery,
        instance: &Instance,
    ) -> Result<HypercubePolicy, RulePolicyError> {
        let adom: Vec<_> = instance.adom().into_iter().collect();
        let dims = query.variables().len();
        HypercubePolicy::new(
            query,
            (0..dims)
                .map(|_| HashScheme::IdentityOver(adom.clone()))
                .collect(),
        )
    }

    /// The query the policy was built for.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The dimension order (query variables).
    pub fn dimensions(&self) -> &[Variable] {
        &self.dimensions
    }

    /// The underlying rule-based policy (the declarative specification).
    pub fn as_rules(&self) -> &RuleBasedPolicy {
        &self.inner
    }

    /// The node addressed by the hashes of the values of a valuation, i.e.
    /// the node `(h₁(V(x₁)), …, h_k(V(x_k)))` used in the `Q`-generous
    /// argument of Lemma 5.7. Returns `None` if some hash is undefined.
    pub fn node_for_valuation(&self, valuation: &cq::Valuation) -> Option<Node> {
        let mut address = Vec::with_capacity(self.dimensions.len());
        for (dim, scheme) in self.dimensions.iter().zip(self.inner.schemes()) {
            let value = valuation.get(*dim)?;
            address.push(scheme.bucket_of(value)?);
        }
        self.inner.node_at(&address)
    }
}

impl DistributionPolicy for HypercubePolicy {
    fn network(&self) -> &Network {
        self.inner.network()
    }

    fn nodes_for(&self, fact: &Fact) -> BTreeSet<Node> {
        self.inner.nodes_for(fact)
    }

    fn route(&self, fact: &Fact, out: &mut Vec<Node>) {
        self.inner.route(fact, out);
    }
}

/// The family `H_Q` of all Hypercube distribution policies of a query.
///
/// The family itself is infinite (one member per choice of hash functions);
/// this type provides the distinguished members needed by the paper's
/// arguments and by randomized validation.
#[derive(Clone, Debug)]
pub struct HypercubeFamily {
    query: ConjunctiveQuery,
}

impl HypercubeFamily {
    /// The Hypercube family of `query`.
    pub fn new(query: &ConjunctiveQuery) -> HypercubeFamily {
        HypercubeFamily {
            query: query.clone(),
        }
    }

    /// The query of the family.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The uniform member with `buckets` buckets per dimension.
    pub fn uniform_member(&self, buckets: usize) -> Result<HypercubePolicy, RulePolicyError> {
        HypercubePolicy::uniform(&self.query, buckets)
    }

    /// The `(Q, I)`-scattered member for `instance` (Lemma 5.7).
    pub fn scattered_member(
        &self,
        instance: &Instance,
    ) -> Result<HypercubePolicy, RulePolicyError> {
        HypercubePolicy::scattered_for(&self.query, instance)
    }

    /// A small set of structurally different members (different bucket
    /// counts), used by randomized validation of family-level properties.
    pub fn representative_members(
        &self,
        max_buckets: usize,
    ) -> Result<Vec<HypercubePolicy>, RulePolicyError> {
        (1..=max_buckets.max(1))
            .map(|b| self.uniform_member(b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{evaluate, parse_instance, satisfying_valuations};

    fn triangle() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap()
    }

    fn chain() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), S(y, z).").unwrap()
    }

    #[test]
    fn network_size_is_bucket_product() {
        let q = triangle();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        assert_eq!(p.network().len(), 8); // 2^3
        let p2 = HypercubePolicy::with_buckets(&q, &[2, 3, 1]).unwrap();
        assert_eq!(p2.network().len(), 6);
    }

    #[test]
    fn facts_of_unrelated_relations_are_skipped() {
        let q = chain();
        let p = HypercubePolicy::uniform(&q, 2).unwrap();
        assert!(p.nodes_for(&Fact::from_names("U", &["a", "b"])).is_empty());
        assert!(!p.nodes_for(&Fact::from_names("R", &["a", "b"])).is_empty());
    }

    #[test]
    fn hypercube_is_generous_for_every_satisfying_valuation() {
        // Lemma 5.7 (Q-generous): for every valuation V there is a node that
        // receives all facts of V(body_Q).
        let q = triangle();
        let i = parse_instance("E(a, b). E(b, c). E(c, a). E(a, a). E(b, d). E(d, b).").unwrap();
        for buckets in 1..=3 {
            let p = HypercubePolicy::uniform(&q, buckets).unwrap();
            for v in satisfying_valuations(&q, &i) {
                let required = v.required_facts(&q);
                let node = p
                    .node_for_valuation(&v)
                    .expect("modulo hashes are total, the node must exist");
                let nodes = p.meeting_nodes(&required).unwrap();
                assert!(
                    nodes.contains(&node),
                    "facts {required} do not meet at {node}"
                );
            }
        }
    }

    #[test]
    fn one_round_union_equals_centralized_result() {
        // Parallel-correctness of Q under its own hypercube policies,
        // checked directly on a concrete instance.
        let q = triangle();
        let i = parse_instance(
            "E(a, b). E(b, c). E(c, a). E(b, d). E(d, b). E(d, d). E(c, d). E(d, a).",
        )
        .unwrap();
        let expected = evaluate(&q, &i);
        for buckets in 1..=3 {
            let p = HypercubePolicy::uniform(&q, buckets).unwrap();
            let dist = p.distribute(&i);
            let mut union = Instance::new();
            for (_, chunk) in dist.chunks() {
                union.extend(evaluate(&q, chunk).facts().cloned());
            }
            assert_eq!(union, expected, "buckets={buckets}");
        }
    }

    #[test]
    fn scattered_member_puts_only_one_valuation_per_node() {
        // Lemma 5.7 (Q-scattered): with identity hashes over adom(I), each
        // node's chunk is contained in V(body_Q) for some valuation V.
        let q = chain();
        let i = parse_instance("R(a, b). R(b, c). S(b, c). S(c, a).").unwrap();
        let p = HypercubePolicy::scattered_for(&q, &i).unwrap();
        let dist = p.distribute(&i);
        for (node, chunk) in dist.chunks() {
            if chunk.is_empty() {
                continue;
            }
            // find a valuation (over adom) whose required facts cover the chunk
            let adom: Vec<_> = i.adom().into_iter().collect();
            let vars = q.variables();
            let assignments = cq::all_assignments(vars.len(), adom.len());
            let covered = assignments.iter().any(|assignment| {
                let v = cq::Valuation::from_pairs(
                    vars.iter()
                        .zip(assignment.iter())
                        .map(|(&var, &ai)| (var, adom[ai])),
                );
                let req = v.required_facts(&q);
                chunk.facts().all(|f| req.contains(f))
            });
            assert!(covered, "chunk at {node} mixes valuations: {chunk}");
        }
    }

    #[test]
    fn replication_grows_with_broadcast_dimensions() {
        // In a chain query R(x,y), S(y,z), hashing on 3 dimensions means each
        // R-fact is broadcast along the z dimension and each S-fact along x.
        let q = chain();
        let b = 3usize;
        let p = HypercubePolicy::uniform(&q, b).unwrap();
        let r_fact = Fact::from_names("R", &["a", "b"]);
        let s_fact = Fact::from_names("S", &["b", "c"]);
        assert_eq!(p.nodes_for(&r_fact).len(), b);
        assert_eq!(p.nodes_for(&s_fact).len(), b);
    }

    #[test]
    fn family_members_share_the_query() {
        let q = triangle();
        let family = HypercubeFamily::new(&q);
        let members = family.representative_members(3).unwrap();
        assert_eq!(members.len(), 3);
        for m in &members {
            assert_eq!(m.query(), &q);
        }
        assert_eq!(family.query(), &q);
    }

    #[test]
    fn single_bucket_hypercube_is_the_single_node_policy() {
        let q = chain();
        let p = HypercubePolicy::uniform(&q, 1).unwrap();
        assert_eq!(p.network().len(), 1);
        let f = Fact::from_names("R", &["a", "b"]);
        assert_eq!(p.nodes_for(&f).len(), 1);
    }
}
