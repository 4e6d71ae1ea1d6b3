//! Declarative, rule-based distribution policies (Section 5.2 of the paper).
//!
//! A policy is specified by rules of the form
//!
//! ```text
//! T_R(z₁, …, z_k; y₁, …, y_m) ← R(y₁, …, y_m), B₁, …, B_k
//! ```
//!
//! where each `B_i` is either `bucket_i(x_i, z_i)` — the i-th address
//! component is the hash of the value bound to `x_i` — or `bucket*_i(z_i)` —
//! the i-th address component ranges over all buckets. A fact matching the
//! rule body is sent to every node whose address satisfies the constraints.
//!
//! ## Compiled routing
//!
//! [`RuleBasedPolicy::new`] compiles each rule once: its relation and
//! arity, the pairs of argument positions a repeated variable forces equal,
//! and per address dimension either the argument position it hashes or
//! "any bucket". The nodes live in a row-major table indexed by the
//! mixed-radix address `a₁·stride₁ + … + a_k·stride_k`, where the last
//! dimension varies fastest. [`DistributionPolicy::route`] then sends a
//! fact by comparing a few positions, hashing one value per hashed
//! dimension, adding strides, and pushing table entries for every bucket of
//! the `bucket*` dimensions into a buffer the caller reuses — no binding
//! map, no address vectors, no allocation per fact.

use std::collections::BTreeSet;
use std::fmt;

use cq::{Atom, Fact, Symbol, Variable};

use crate::hash::HashScheme;
use crate::network::{Network, Node};
use crate::policy::DistributionPolicy;

/// One component of a rule's node address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddressTerm {
    /// `bucket_i(x, z_i)`: the address component is the hash of the value
    /// bound to the variable `x` (which must occur in the rule's atom).
    HashOfVar(Variable),
    /// `bucket*_i(z_i)`: the address component is unconstrained.
    AnyBucket,
}

/// A single distribution rule: facts matching `atom` are sent to all nodes
/// whose address satisfies the `address` constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistributionRule {
    /// The guard atom `R(y₁, …, y_m)`; repeated variables require equal values.
    pub atom: Atom,
    /// One address term per dimension of the address space.
    pub address: Vec<AddressTerm>,
}

/// Errors raised when constructing a [`RuleBasedPolicy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RulePolicyError {
    /// A rule's address has a different number of components than the policy
    /// has hash schemes (dimensions).
    DimensionMismatch {
        /// Index of the offending rule.
        rule: usize,
        /// Number of address components in the rule.
        found: usize,
        /// Number of dimensions of the policy.
        expected: usize,
    },
    /// A `HashOfVar` component refers to a variable that does not occur in
    /// the rule's atom, so no value would be available to hash.
    UnboundAddressVariable {
        /// Index of the offending rule.
        rule: usize,
        /// The unbound variable.
        variable: Variable,
    },
    /// The address space (product of bucket counts) is empty or too large to
    /// materialize as a network.
    AddressSpaceTooLarge {
        /// The product of bucket counts.
        size: usize,
        /// The maximum supported network size.
        limit: usize,
    },
}

impl fmt::Display for RulePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RulePolicyError::DimensionMismatch {
                rule,
                found,
                expected,
            } => write!(
                f,
                "rule {rule} has {found} address components, expected {expected}"
            ),
            RulePolicyError::UnboundAddressVariable { rule, variable } => write!(
                f,
                "rule {rule} hashes variable {variable} which does not occur in its atom"
            ),
            RulePolicyError::AddressSpaceTooLarge { size, limit } => {
                write!(f, "address space of size {size} exceeds the limit {limit}")
            }
        }
    }
}

impl std::error::Error for RulePolicyError {}

/// Maximum number of nodes a rule-based policy will materialize.
const MAX_NETWORK_SIZE: usize = 1 << 20;

/// A rule compiled for routing: everything [`RuleBasedPolicy::route`]
/// needs, resolved from variables to argument positions once, when the
/// policy is built.
#[derive(Clone, Debug)]
struct CompiledRule {
    relation: Symbol,
    arity: usize,
    /// Pairs of argument positions that must carry equal values, one per
    /// repeated occurrence of a variable (paired with its first occurrence).
    equal: Vec<(usize, usize)>,
    /// Per address dimension: the argument position whose value it hashes,
    /// or `None` for `bucket*` (any bucket).
    dimensions: Vec<Option<usize>>,
}

impl CompiledRule {
    fn compile(rule: &DistributionRule) -> CompiledRule {
        let args = &rule.atom.args;
        let first = |var: Variable| {
            args.iter()
                .position(|&a| a == var)
                .expect("address variables are checked to occur in the atom")
        };
        CompiledRule {
            relation: rule.atom.relation,
            arity: args.len(),
            equal: args
                .iter()
                .enumerate()
                .filter_map(|(position, &var)| {
                    let first = first(var);
                    (first != position).then_some((first, position))
                })
                .collect(),
            dimensions: rule
                .address
                .iter()
                .map(|term| match term {
                    AddressTerm::HashOfVar(var) => Some(first(*var)),
                    AddressTerm::AnyBucket => None,
                })
                .collect(),
        }
    }

    /// Whether `fact` matches the rule's atom: same relation and arity, and
    /// equal values wherever the atom repeats a variable.
    fn matches(&self, fact: &Fact) -> bool {
        self.relation == fact.relation
            && self.arity == fact.arity()
            && self
                .equal
                .iter()
                .all(|&(i, j)| fact.values[i] == fact.values[j])
    }
}

/// A distribution policy defined by declarative rules over a hashed address
/// space (the specification formalism of Section 5.2). Its routing is
/// compiled when it is built (see the module docs).
#[derive(Clone, Debug)]
pub struct RuleBasedPolicy {
    rules: Vec<DistributionRule>,
    schemes: Vec<HashScheme>,
    network: Network,
    compiled: Vec<CompiledRule>,
    /// Per dimension, the distance in `nodes` between adjacent buckets.
    strides: Vec<usize>,
    /// Every node, in row-major address order.
    nodes: Vec<Node>,
}

impl RuleBasedPolicy {
    /// Builds a policy from rules and one hash scheme per address dimension.
    pub fn new(
        rules: Vec<DistributionRule>,
        schemes: Vec<HashScheme>,
    ) -> Result<RuleBasedPolicy, RulePolicyError> {
        for (i, rule) in rules.iter().enumerate() {
            if rule.address.len() != schemes.len() {
                return Err(RulePolicyError::DimensionMismatch {
                    rule: i,
                    found: rule.address.len(),
                    expected: schemes.len(),
                });
            }
            for term in &rule.address {
                if let AddressTerm::HashOfVar(v) = term {
                    if !rule.atom.contains(*v) {
                        return Err(RulePolicyError::UnboundAddressVariable {
                            rule: i,
                            variable: *v,
                        });
                    }
                }
            }
        }
        let size = schemes
            .iter()
            .try_fold(1usize, |size, scheme| size.checked_mul(scheme.buckets()))
            .unwrap_or(usize::MAX);
        if size == 0 || size > MAX_NETWORK_SIZE {
            return Err(RulePolicyError::AddressSpaceTooLarge {
                size,
                limit: MAX_NETWORK_SIZE,
            });
        }
        let mut strides = vec![1; schemes.len()];
        for d in (0..schemes.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * schemes[d + 1].buckets();
        }
        let mut address = vec![0; schemes.len()];
        let mut nodes = Vec::with_capacity(size);
        for index in 0..size {
            for (d, scheme) in schemes.iter().enumerate() {
                address[d] = index / strides[d] % scheme.buckets();
            }
            nodes.push(Node::from_address(&address));
        }
        Ok(RuleBasedPolicy {
            compiled: rules.iter().map(CompiledRule::compile).collect(),
            network: nodes.iter().copied().collect(),
            rules,
            schemes,
            strides,
            nodes,
        })
    }

    /// The rules of the policy.
    pub fn rules(&self) -> &[DistributionRule] {
        &self.rules
    }

    /// The hash schemes (one per address dimension).
    pub fn schemes(&self) -> &[HashScheme] {
        &self.schemes
    }

    /// The node for an explicit address, if it exists.
    pub fn node_at(&self, address: &[usize]) -> Option<Node> {
        if address.len() != self.schemes.len() {
            return None;
        }
        let mut index = 0;
        for ((&bucket, scheme), stride) in address.iter().zip(&self.schemes).zip(&self.strides) {
            if bucket >= scheme.buckets() {
                return None;
            }
            index += bucket * stride;
        }
        self.nodes.get(index).copied()
    }

    /// Pushes the table entry of every address that extends `offset` (the
    /// rule's hashed dimensions, already added up) over all buckets of the
    /// rule's `bucket*` dimensions from `dimension` on.
    fn push_addresses(
        &self,
        rule: &CompiledRule,
        dimension: usize,
        offset: usize,
        out: &mut Vec<Node>,
    ) {
        match rule.dimensions.get(dimension) {
            None => out.push(self.nodes[offset]),
            Some(Some(_)) => self.push_addresses(rule, dimension + 1, offset, out),
            Some(None) => {
                let stride = self.strides[dimension];
                for bucket in 0..self.schemes[dimension].buckets() {
                    self.push_addresses(rule, dimension + 1, offset + bucket * stride, out);
                }
            }
        }
    }

    /// Routes `fact` under one compiled rule, appending to `out`.
    fn route_rule(&self, rule: &CompiledRule, fact: &Fact, out: &mut Vec<Node>) {
        if !rule.matches(fact) {
            return;
        }
        let mut offset = 0;
        for (d, position) in rule.dimensions.iter().enumerate() {
            if let Some(position) = *position {
                match self.schemes[d].bucket_of(fact.values[position]) {
                    Some(bucket) => offset += bucket * self.strides[d],
                    // hash undefined on this value: the rule does not fire
                    None => return,
                }
            }
        }
        self.push_addresses(rule, 0, offset, out);
    }
}

impl DistributionPolicy for RuleBasedPolicy {
    fn network(&self) -> &Network {
        &self.network
    }

    fn nodes_for(&self, fact: &Fact) -> BTreeSet<Node> {
        let mut nodes = Vec::new();
        self.route(fact, &mut nodes);
        nodes.into_iter().collect()
    }

    fn route(&self, fact: &Fact, out: &mut Vec<Node>) {
        out.clear();
        for rule in &self.compiled {
            self.route_rule(rule, fact, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{Instance, Value};

    fn rule(atom: Atom, address: Vec<AddressTerm>) -> DistributionRule {
        DistributionRule { atom, address }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::AnyBucket],
        );
        let err = RuleBasedPolicy::new(
            vec![r],
            vec![
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 0,
                },
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 1,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RulePolicyError::DimensionMismatch { .. }));
    }

    #[test]
    fn unbound_hash_variable_is_rejected() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("z"))],
        );
        let err = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 2,
                seed: 0,
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RulePolicyError::UnboundAddressVariable { .. }
        ));
    }

    #[test]
    fn single_dimension_hash_partitioning() {
        // One rule: R(x, y) hashed on x over 2 buckets.
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 2,
                seed: 0,
            }],
        )
        .unwrap();
        assert_eq!(p.network().len(), 2);

        let f1 = Fact::from_names("R", &["a", "b"]);
        let f2 = Fact::from_names("R", &["a", "c"]);
        let f3 = Fact::from_names("S", &["a", "b"]);
        // facts with the same join key go to the same single node
        assert_eq!(p.nodes_for(&f1).len(), 1);
        assert_eq!(p.nodes_for(&f1), p.nodes_for(&f2));
        // facts of other relations are skipped
        assert!(p.nodes_for(&f3).is_empty());
    }

    #[test]
    fn any_bucket_broadcasts_along_that_dimension() {
        let r = rule(
            Atom::from_names("R", &["x"]),
            vec![
                AddressTerm::HashOfVar(Variable::new("x")),
                AddressTerm::AnyBucket,
            ],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 0,
                },
                HashScheme::Modulo {
                    buckets: 3,
                    seed: 1,
                },
            ],
        )
        .unwrap();
        assert_eq!(p.network().len(), 6);
        let f = Fact::from_names("R", &["a"]);
        // constrained in dim 0, broadcast over the 3 buckets of dim 1
        assert_eq!(p.nodes_for(&f).len(), 3);
    }

    #[test]
    fn repeated_variables_require_equal_values() {
        let r = rule(
            Atom::from_names("R", &["x", "x"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 4,
                seed: 0,
            }],
        )
        .unwrap();
        assert_eq!(p.nodes_for(&Fact::from_names("R", &["a", "a"])).len(), 1);
        assert!(p.nodes_for(&Fact::from_names("R", &["a", "b"])).is_empty());
    }

    #[test]
    fn partial_hash_functions_skip_unknown_values() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::IdentityOver(vec![Value::new("a")])],
        )
        .unwrap();
        assert_eq!(p.nodes_for(&Fact::from_names("R", &["a", "b"])).len(), 1);
        assert!(p.nodes_for(&Fact::from_names("R", &["z", "b"])).is_empty());
    }

    #[test]
    fn multiple_rules_accumulate_nodes() {
        // Two rules for the same relation hashed on different attributes
        // (this is what a Hypercube policy for R(x,y), S(y,z) looks like on R).
        let r1 = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![
                AddressTerm::HashOfVar(Variable::new("x")),
                AddressTerm::AnyBucket,
            ],
        );
        let r2 = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![
                AddressTerm::AnyBucket,
                AddressTerm::HashOfVar(Variable::new("y")),
            ],
        );
        let p = RuleBasedPolicy::new(
            vec![r1, r2],
            vec![
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 0,
                },
                HashScheme::Modulo {
                    buckets: 2,
                    seed: 1,
                },
            ],
        )
        .unwrap();
        let f = Fact::from_names("R", &["a", "b"]);
        let nodes = p.nodes_for(&f);
        // rule 1 contributes a row of the grid (2 nodes), rule 2 a column (2 nodes),
        // overlapping in at most one node: between 3 and 4 nodes in total.
        assert!(nodes.len() >= 3 && nodes.len() <= 4, "got {}", nodes.len());
    }

    #[test]
    fn distribute_covers_all_matching_facts() {
        let r = rule(
            Atom::from_names("R", &["x", "y"]),
            vec![AddressTerm::HashOfVar(Variable::new("x"))],
        );
        let p = RuleBasedPolicy::new(
            vec![r],
            vec![HashScheme::Modulo {
                buckets: 3,
                seed: 0,
            }],
        )
        .unwrap();
        let inst = Instance::from_facts([
            Fact::from_names("R", &["a", "b"]),
            Fact::from_names("R", &["b", "c"]),
            Fact::from_names("R", &["c", "d"]),
            Fact::from_names("S", &["ignored"]),
        ]);
        let dist = p.distribute(&inst);
        let stats = dist.stats(&inst);
        assert_eq!(stats.distinct_assigned, 3);
        assert_eq!(stats.skipped, 1);
    }
}
