//! Property-based tests for distribution policies and the one-round and
//! multi-round engines, including the differential suites: parallel and
//! streaming reshuffle must agree exactly with the materialized
//! single-threaded `distribute`, and a one-round-capped `MultiRoundEngine`
//! must agree exactly with `OneRoundEngine`.

use std::collections::{BTreeMap, BTreeSet};

use cq::{Atom, ConjunctiveQuery, Fact, Instance, Value, Variable};
use distribution::{
    AddressTerm, Distribution, DistributionPolicy, DistributionRule, ExplicitPolicy, HashScheme,
    HypercubePolicy, MultiRoundEngine, Network, Node, OneRoundEngine, RoundSchedule,
    RuleBasedPolicy,
};
use proptest::prelude::*;

/// The four policy shapes of the differential suites over a binary `R`
/// (broadcast, round-robin, single-key hash, hypercube), built for the
/// given instance and query.
fn policy_zoo(
    i: &Instance,
    q: &ConjunctiveQuery,
    nodes: usize,
    buckets: usize,
) -> Vec<(&'static str, Box<dyn DistributionPolicy>)> {
    let network = Network::with_size(nodes);
    // single-key hash: buckets on the first variable only, 1 elsewhere
    let dims = q.variables().len();
    let mut hash_buckets = vec![1usize; dims];
    hash_buckets[0] = buckets.max(1);
    vec![
        (
            "broadcast",
            Box::new(ExplicitPolicy::broadcast(&network, i)) as Box<dyn DistributionPolicy>,
        ),
        (
            "round_robin",
            Box::new(ExplicitPolicy::round_robin(&network, i)),
        ),
        (
            "hash",
            Box::new(HypercubePolicy::with_buckets(q, &hash_buckets).unwrap()),
        ),
        (
            "hypercube",
            Box::new(HypercubePolicy::uniform(q, buckets.max(1)).unwrap()),
        ),
    ]
}

/// `dist_P(I)` built the plain way, one `nodes_for` call and one insert
/// per (fact, node): the reference the reshuffle paths are checked against.
fn per_fact_distribution(policy: &dyn DistributionPolicy, i: &Instance) -> Distribution {
    let mut dist = Distribution::empty(policy.network());
    for fact in i.facts() {
        for node in policy.nodes_for(fact) {
            dist.assign(node, fact.clone());
        }
    }
    dist
}

/// Raw draws for one address dimension: scheme kind, bucket count, seed.
type RawScheme = (usize, usize, u64);
/// Raw draws for one rule: relation, argument variables, address picks.
type RawRule = (usize, Vec<usize>, Vec<usize>);
/// Raw draws for one fact: relation and values.
type RawFact = (usize, Vec<usize>);

fn relation(index: usize) -> &'static str {
    ["R", "S"][index % 2]
}

/// A rule-based policy from raw draws. Dimensions are total `Modulo`
/// hashes or partial `IdentityOver` hashes defined on a window of the
/// domain `d0…d5`, so some values fall outside them and their rules skip
/// the fact. Rule atoms draw variables from `v0…v2`, so repeats are
/// common; each address term hashes one of the atom's variables or is
/// `bucket*` (any bucket).
fn rule_policy(schemes: &[RawScheme], rules: &[RawRule]) -> RuleBasedPolicy {
    let schemes: Vec<HashScheme> = schemes
        .iter()
        .map(|&(kind, buckets, seed)| {
            if kind < 2 {
                HashScheme::Modulo { buckets, seed }
            } else {
                let start = seed as usize % 6;
                HashScheme::IdentityOver(
                    (0..buckets)
                        .map(|j| Value::indexed("d", start + j))
                        .collect(),
                )
            }
        })
        .collect();
    let rules = rules
        .iter()
        .map(|(rel, vars, picks)| {
            let args: Vec<Variable> = vars.iter().map(|&v| Variable::indexed("v", v)).collect();
            let address = picks[..schemes.len()]
                .iter()
                .map(|&pick| match args.get(pick) {
                    Some(&var) => AddressTerm::HashOfVar(var),
                    None => AddressTerm::AnyBucket,
                })
                .collect();
            DistributionRule {
                atom: Atom::new(relation(*rel), args),
                address,
            }
        })
        .collect();
    RuleBasedPolicy::new(rules, schemes).expect("drawn policies are well-formed")
}

/// Facts over `R`/`S` of arity 1–3 with values from `d0…d5`.
fn raw_instance(facts: &[RawFact]) -> Instance {
    Instance::from_facts(facts.iter().map(|(rel, values)| {
        Fact::new(
            relation(*rel),
            values.iter().map(|&v| Value::indexed("d", v)).collect(),
        )
    }))
}

/// `P(f)` under the rule semantics of Section 5.2, spelled out the plain
/// way: unify the atom with the fact into a variable binding, collect the
/// allowed buckets per dimension, and enumerate their cartesian product,
/// naming every address's node after it.
fn oracle_nodes(policy: &RuleBasedPolicy, fact: &Fact) -> BTreeSet<Node> {
    let mut nodes = BTreeSet::new();
    'rules: for rule in policy.rules() {
        if rule.atom.relation != fact.relation || rule.atom.arity() != fact.arity() {
            continue;
        }
        let mut binding = BTreeMap::new();
        for (&var, &value) in rule.atom.args.iter().zip(&fact.values) {
            if *binding.entry(var).or_insert(value) != value {
                continue 'rules;
            }
        }
        let mut addresses: Vec<Vec<usize>> = vec![Vec::new()];
        for (term, scheme) in rule.address.iter().zip(policy.schemes()) {
            let allowed: Vec<usize> = match term {
                AddressTerm::HashOfVar(var) => match scheme.bucket_of(binding[var]) {
                    Some(bucket) => vec![bucket],
                    None => continue 'rules,
                },
                AddressTerm::AnyBucket => (0..scheme.buckets()).collect(),
            };
            addresses = addresses
                .iter()
                .flat_map(|prefix| {
                    allowed.iter().map(move |&b| {
                        let mut address = prefix.clone();
                        address.push(b);
                        address
                    })
                })
                .collect();
        }
        for address in addresses {
            let node = Node::from_address(&address);
            assert_eq!(
                policy.node_at(&address),
                Some(node),
                "node table at {address:?}"
            );
            nodes.insert(node);
        }
    }
    nodes
}

/// A strategy for small instances over one binary relation `R`.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    let fact = (0..6usize, 0..6usize);
    proptest::collection::vec(fact, 0..30).prop_map(|facts| {
        Instance::from_facts(
            facts
                .into_iter()
                .map(|(a, b)| Fact::new("R", vec![Value::indexed("d", a), Value::indexed("d", b)])),
        )
    })
}

/// A strategy for a small query over `R` (chain of length 1..4 with a random
/// number of head variables).
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (1usize..4, 0usize..3).prop_map(|(len, head)| {
        let var = |i: usize| cq::Variable::indexed("x", i);
        let body: Vec<cq::Atom> = (0..len)
            .map(|i| cq::Atom::new("R", vec![var(i), var(i + 1)]))
            .collect();
        let head_vars: Vec<cq::Variable> = (0..=len).take(head + 1).map(var).collect();
        ConjunctiveQuery::new(cq::Atom::new("T", head_vars), body).unwrap()
    })
}

proptest! {
    // Bounded and explicitly seeded: 48 deterministic cases per property so
    // `cargo test -q` is reproducible and fast.
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0xD157_5EED))]

    /// A policy only ever assigns facts to nodes of its own network, and the
    /// distributed chunks partition-with-replication the non-skipped facts.
    #[test]
    fn distribution_respects_the_network(i in instance_strategy(), buckets in 1usize..4, q in query_strategy()) {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        for fact in i.facts() {
            for node in policy.nodes_for(fact) {
                prop_assert!(policy.network().contains(node));
            }
        }
        let dist = policy.distribute(&i);
        let stats = dist.stats(&i);
        prop_assert_eq!(stats.distinct_assigned + stats.skipped, i.len());
        prop_assert!(stats.max_load <= stats.total_assigned);
        prop_assert!(dist.union_of_chunks().len() <= i.len());
    }

    /// Hypercube generosity (Lemma 5.7): the required facts of every
    /// satisfying valuation meet at the node addressed by the valuation.
    #[test]
    fn hypercube_generosity(i in instance_strategy(), buckets in 1usize..4, q in query_strategy()) {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        for v in cq::satisfying_valuations(&q, &i).into_iter().take(25) {
            let node = policy.node_for_valuation(&v).unwrap();
            let meeting = policy.meeting_nodes(&v.required_facts(&q)).unwrap();
            prop_assert!(meeting.contains(&node));
        }
    }

    /// One-round evaluation is monotone in the policy: broadcasting gives the
    /// exact answer, any explicit sub-policy gives a subset of it.
    #[test]
    fn one_round_results_are_bounded_by_the_centralized_answer(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..5,
        seedmask in 0u64..u64::MAX,
    ) {
        let expected = cq::evaluate(&q, &i);
        let network = Network::with_size(nodes);

        let broadcast = ExplicitPolicy::broadcast(&network, &i);
        let b = OneRoundEngine::new(&broadcast).evaluate(&q, &i);
        prop_assert_eq!(&b.result, &expected);

        // A deterministic "random" single-assignment policy from the seed mask.
        let mut single = ExplicitPolicy::new(network.clone());
        for (k, fact) in i.facts().enumerate() {
            let node = Node::numbered(((seedmask >> (k % 32)) as usize ^ k) % nodes);
            single.assign(fact.clone(), [node]);
        }
        let s = OneRoundEngine::new(&single).evaluate(&q, &i);
        prop_assert!(expected.contains_all(&s.result));
    }

    /// The engine's per-node outputs are consistent with the union result.
    #[test]
    fn per_node_outputs_are_consistent(i in instance_strategy(), q in query_strategy(), buckets in 1usize..3) {
        let policy = HypercubePolicy::uniform(&q, buckets).unwrap();
        let outcome = OneRoundEngine::new(&policy).evaluate(&q, &i);
        let total: usize = outcome.per_node_output.values().sum();
        prop_assert!(outcome.result.len() <= total || outcome.result.is_empty());
        prop_assert!(outcome.max_node_output() <= outcome.result.len() || outcome.result.is_empty());
    }

    /// Differential: parallel and streaming reshuffle agree chunk-for-chunk
    /// with the materialized single-threaded `distribute`, across all four
    /// policy shapes.
    #[test]
    fn reshuffle_modes_agree_with_materialized_distribute(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
        workers in 2usize..5,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let reference = per_fact_distribution(policy.as_ref(), &i);
            prop_assert_eq!(&reference, &policy.distribute(&i), "distribute diverged for {}", name);
            let parallel = policy.distribute_parallel(&i, workers);
            prop_assert_eq!(&reference, &parallel, "parallel distribute diverged for {}", name);

            let stream = policy.distribute_stream(&i, workers);
            prop_assert_eq!(
                &reference, &stream.materialize(),
                "streamed chunks diverged for {}", name
            );
            prop_assert_eq!(
                reference.stats(&i), stream.stats(),
                "stream stats diverged for {}", name
            );
            for (node, chunk) in reference.chunks() {
                prop_assert_eq!(
                    chunk, &stream.for_node_lazy(node),
                    "lazy chunk of {} diverged for {}", node, name
                );
                prop_assert_eq!(chunk, &policy.for_node_lazy(&i, node));
            }
        }
    }

    /// Differential: the streaming engine path produces the same outcome as
    /// the materialized path (modulo timings and the allocation proxy).
    #[test]
    fn streaming_engine_agrees_with_materialized_engine(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
        workers in 1usize..4,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let materialized = OneRoundEngine::new(policy.as_ref()).evaluate(&q, &i);
            let streamed = OneRoundEngine::new(policy.as_ref())
                .workers(workers)
                .distribute_workers(workers)
                .streaming(true)
                .evaluate(&q, &i);
            prop_assert_eq!(&materialized.result, &streamed.result, "result diverged for {}", name);
            prop_assert_eq!(&materialized.per_node_load, &streamed.per_node_load);
            prop_assert_eq!(&materialized.per_node_output, &streamed.per_node_output);
            prop_assert_eq!(materialized.stats, streamed.stats);
            prop_assert!(streamed.peak_chunks <= workers.max(1));
        }
    }

    /// Differential: a `MultiRoundEngine` capped at one round is exactly a
    /// `OneRoundEngine`, across all four policy shapes.
    #[test]
    fn single_round_multi_round_is_one_round(
        i in instance_strategy(),
        q in query_strategy(),
        nodes in 1usize..4,
        buckets in 1usize..4,
    ) {
        for (name, policy) in policy_zoo(&i, &q, nodes, buckets) {
            let one = OneRoundEngine::new(policy.as_ref()).evaluate(&q, &i);
            let multi = MultiRoundEngine::new(RoundSchedule::repeat(policy.as_ref()))
                .rounds(1)
                .evaluate(&q, &i);
            prop_assert_eq!(multi.rounds_run(), 1);
            prop_assert_eq!(&multi.result, &one.result, "result diverged for {}", name);
            let round = &multi.rounds[0];
            prop_assert_eq!(&round.per_node_load, &one.per_node_load);
            prop_assert_eq!(&round.per_node_output, &one.per_node_output);
            prop_assert_eq!(round.stats, one.stats);
            prop_assert_eq!(round.workers, one.workers);
            prop_assert_eq!(multi.total_comm_volume(), one.stats.total_assigned);
        }
    }

    /// Compiled routing equals the unify-and-enumerate semantics of the
    /// rules on random rule-based policies (repeated variables, `bucket*`
    /// dimensions, partial hashes that skip facts), and the reshuffle's
    /// count-based stats equal the stats of its materialized chunks.
    #[test]
    fn compiled_routing_matches_the_rule_semantics(
        schemes in proptest::collection::vec((0usize..3, 1usize..4, 0u64..64), 1..4),
        rules in proptest::collection::vec(
            (
                0usize..2,
                proptest::collection::vec(0usize..3, 1..4),
                proptest::collection::vec(0usize..4, 3..4),
            ),
            1..4,
        ),
        facts in proptest::collection::vec(
            (0usize..2, proptest::collection::vec(0usize..6, 1..4)),
            0..24,
        ),
    ) {
        let policy = rule_policy(&schemes, &rules);
        let i = raw_instance(&facts);
        let mut routed = Vec::new();
        for fact in i.facts() {
            let expected = oracle_nodes(&policy, fact);
            policy.route(fact, &mut routed);
            routed.sort_unstable();
            routed.dedup();
            prop_assert_eq!(
                &routed, &expected.iter().copied().collect::<Vec<_>>(),
                "route diverged on {}", fact
            );
            prop_assert_eq!(&policy.nodes_for(fact), &expected);
        }
        for workers in [1, 3] {
            let stream = policy.distribute_stream(&i, workers);
            let materialized = stream.materialize();
            prop_assert_eq!(stream.stats(), materialized.stats(&i), "workers={}", workers);
            prop_assert_eq!(&materialized, &per_fact_distribution(&policy, &i));
        }
    }
}
