//! Benchmark-side tracing: an in-memory span recorder and the two wrappers
//! that time calls across the seams the engines already take as arguments —
//! a [`Transport`] and a [`DistributionPolicy`].
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer; nothing inside the program is instrumented. A span's parent is the
//! span open on the recorder when it starts, and its self-time is its
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cq::{ConjunctiveQuery, EvalOptions, Fact, Instance};
use distribution::{
    ChunkStream, Distribution, DistributionPolicy, Network, Node, NodeResult, Transport,
    TransportError,
};

/// One timed call.
#[derive(Clone, Debug)]
struct Span {
    /// `layer.operation`, e.g. `transport.barrier`.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start and end, relative to the recorder's creation.
    start: Duration,
    end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct State {
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Keeps every span in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Closes its span when dropped, so a call that panics still closes the
/// spans it was timed in.
struct Close<'a> {
    recorder: &'a Recorder,
    index: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let mut state = self.recorder.lock();
        state.spans[self.index].end = self.recorder.epoch.elapsed();
        state.open.pop();
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The lock is never held across a timed call, so a panic cannot
        // leave the state half-updated.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Times `f` as a span named `name`, nested in whichever span is open.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut state = self.lock();
            let parent = state.open.last().copied();
            let index = state.spans.len();
            let start = self.epoch.elapsed();
            state.spans.push(Span {
                name,
                parent,
                start,
                end: start,
            });
            state.open.push(index);
            index
        };
        let _close = Close {
            recorder: self,
            index,
        };
        f()
    }

    fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Total self-time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_time) {
            *totals.entry(span.name).or_insert(Duration::ZERO) +=
                span.duration().saturating_sub(children);
        }
        totals
    }
}

/// Times `f` as a span named `name` in `recorder`, if there is one.
pub fn time_in<R>(recorder: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match recorder {
        Some(recorder) => recorder.time(name, f),
        None => f(),
    }
}

/// Counts kept by the [`TracedPolicy`].
#[derive(Default)]
pub struct PolicyCounts {
    /// Reshuffles run (one per communication round).
    pub reshuffles: AtomicU64,
    /// Facts handed to the reshuffles.
    pub facts_in: AtomicU64,
    /// Facts assigned to nodes (with replication).
    pub assigned: AtomicU64,
    /// The largest chunk any reshuffle made.
    pub max_chunk: AtomicU64,
}

/// A [`DistributionPolicy`] that delegates every method to `inner` and
/// counts the reshuffles the engines call; built with [`TracedPolicy::new`]
/// it also times them.
pub struct TracedPolicy<'a> {
    inner: &'a dyn DistributionPolicy,
    recorder: Option<&'a Recorder>,
    counts: &'a PolicyCounts,
}

impl<'a> TracedPolicy<'a> {
    /// Wraps `inner`, recording into `recorder` and `counts`.
    pub fn new(
        inner: &'a dyn DistributionPolicy,
        recorder: &'a Recorder,
        counts: &'a PolicyCounts,
    ) -> TracedPolicy<'a> {
        TracedPolicy {
            inner,
            recorder: Some(recorder),
            counts,
        }
    }

    /// Wraps `inner`, only counting into `counts`.
    pub fn counting(
        inner: &'a dyn DistributionPolicy,
        counts: &'a PolicyCounts,
    ) -> TracedPolicy<'a> {
        TracedPolicy {
            inner,
            recorder: None,
            counts,
        }
    }

    fn reshuffle<R>(&self, f: impl FnOnce() -> R) -> R {
        time_in(self.recorder, "distribution.reshuffle", f)
    }

    fn count(&self, facts_in: usize, chunks: impl Iterator<Item = usize>) {
        let (assigned, max_chunk) =
            chunks.fold((0, 0), |(sum, max), len| (sum + len, max.max(len)));
        let counts = self.counts;
        counts.reshuffles.fetch_add(1, Ordering::Relaxed);
        counts
            .facts_in
            .fetch_add(facts_in as u64, Ordering::Relaxed);
        counts
            .assigned
            .fetch_add(assigned as u64, Ordering::Relaxed);
        counts
            .max_chunk
            .fetch_max(max_chunk as u64, Ordering::Relaxed);
    }
}

impl DistributionPolicy for TracedPolicy<'_> {
    fn network(&self) -> &Network {
        self.inner.network()
    }

    fn nodes_for(&self, fact: &Fact) -> BTreeSet<Node> {
        self.inner.nodes_for(fact)
    }

    fn distribute(&self, instance: &Instance) -> Distribution {
        let dist = self.reshuffle(|| self.inner.distribute(instance));
        self.count(instance.len(), dist.chunks().map(|(_, c)| c.len()));
        dist
    }

    fn distribute_parallel(&self, instance: &Instance, workers: usize) -> Distribution {
        let dist = self.reshuffle(|| self.inner.distribute_parallel(instance, workers));
        self.count(instance.len(), dist.chunks().map(|(_, c)| c.len()));
        dist
    }

    fn distribute_stream<'i>(&self, instance: &'i Instance, workers: usize) -> ChunkStream<'i> {
        let stream = self.reshuffle(|| self.inner.distribute_stream(instance, workers));
        self.count(instance.len(), stream.nodes().map(|n| stream.len_of(n)));
        stream
    }

    fn for_node_lazy(&self, instance: &Instance, node: Node) -> Instance {
        self.inner.for_node_lazy(instance, node)
    }

    fn facts_meet(&self, facts: &Instance) -> bool {
        self.inner.facts_meet(facts)
    }

    fn meeting_nodes(&self, facts: &Instance) -> Option<BTreeSet<Node>> {
        self.inner.meeting_nodes(facts)
    }
}

/// Counts kept by the [`TracedTransport`].
#[derive(Default, Debug)]
pub struct TransportCounts {
    /// Calls into the transport, of every kind.
    pub calls: u64,
    /// Bytes the transport reported shipped.
    pub bytes_shipped: u64,
    /// Sum of the per-node `eval_time`s received.
    pub eval_time: Duration,
    /// Sum of the per-node output sizes received.
    pub node_output_facts: u64,
    /// The codec replay's frames, with the fact count each holds, and the
    /// time spent encoding them.
    pub frames: Vec<(Vec<u8>, usize)>,
    pub encode_time: Duration,
}

/// A [`Transport`] that delegates every method to `inner` and times each
/// call. Built with [`TracedTransport::replaying_codec`], it also encodes
/// every chunk it carries (in both directions) with the wire codec; that
/// replay has a cost of its own, so the benchmark runs it in a separate,
/// untimed job.
pub struct TracedTransport<'a> {
    inner: &'a mut dyn Transport,
    recorder: &'a Recorder,
    replay_codec: bool,
    /// What the wrapper has seen so far.
    pub counts: TransportCounts,
}

impl<'a> TracedTransport<'a> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: &'a mut dyn Transport, recorder: &'a Recorder) -> TracedTransport<'a> {
        TracedTransport {
            inner,
            recorder,
            replay_codec: false,
            counts: TransportCounts::default(),
        }
    }

    /// Wraps `inner` like [`TracedTransport::new`], and encodes every chunk
    /// carried into `counts.frames`.
    pub fn replaying_codec(
        inner: &'a mut dyn Transport,
        recorder: &'a Recorder,
    ) -> TracedTransport<'a> {
        TracedTransport {
            replay_codec: true,
            ..TracedTransport::new(inner, recorder)
        }
    }

    fn encode(&mut self, facts: &Instance) {
        if !self.replay_codec {
            return;
        }
        let start = Instant::now();
        let frame = wire::encode_frame(facts);
        self.counts.encode_time += start.elapsed();
        self.counts.frames.push((frame, facts.len()));
    }

    fn received(&mut self, result: &NodeResult) {
        self.counts.eval_time += result.eval_time;
        self.counts.node_output_facts += result.output.len() as u64;
        self.encode(&result.output);
    }
}

impl Transport for TracedTransport<'_> {
    fn begin_round(
        &mut self,
        round: usize,
        query: &ConjunctiveQuery,
        options: EvalOptions,
    ) -> Result<(), TransportError> {
        self.counts.calls += 1;
        let inner = &mut *self.inner;
        self.recorder.time("transport.send", || {
            inner.begin_round(round, query, options)
        })
    }

    fn send_chunk(&mut self, node: Node, chunk: Instance) -> Result<(), TransportError> {
        self.counts.calls += 1;
        self.encode(&chunk);
        let inner = &mut *self.inner;
        self.recorder
            .time("transport.send", || inner.send_chunk(node, chunk))
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.counts.calls += 1;
        let inner = &mut *self.inner;
        self.recorder.time("transport.barrier", || inner.barrier())
    }

    fn recv_chunk(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.counts.calls += 1;
        let inner = &mut *self.inner;
        let result = self
            .recorder
            .time("transport.recv", || inner.recv_chunk(node))?;
        self.received(&result);
        Ok(result)
    }

    fn send_resident(&mut self, node: Node) -> Result<(), TransportError> {
        self.counts.calls += 1;
        let inner = &mut *self.inner;
        self.recorder
            .time("transport.send", || inner.send_resident(node))
    }

    fn send_delta(&mut self, node: Node, delta: Instance) -> Result<(), TransportError> {
        self.counts.calls += 1;
        self.encode(&delta);
        let inner = &mut *self.inner;
        self.recorder
            .time("transport.send", || inner.send_delta(node, delta))
    }

    fn recv_delta(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.counts.calls += 1;
        let inner = &mut *self.inner;
        let result = self
            .recorder
            .time("transport.recv", || inner.recv_delta(node))?;
        self.received(&result);
        Ok(result)
    }

    fn take_bytes_shipped(&mut self) -> u64 {
        let bytes = self.inner.take_bytes_shipped();
        self.counts.bytes_shipped += bytes;
        bytes
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn index_cache_stats(&self) -> (u64, u64) {
        self.inner.index_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distribution::{HypercubePolicy, InMemoryTransport};
    use std::panic::AssertUnwindSafe;

    fn two_hop() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap()
    }

    fn edges() -> Instance {
        cq::parse_instance("R(a, b). R(b, c). R(c, d). R(d, a).").unwrap()
    }

    #[test]
    fn the_policy_wrapper_reshuffles_like_its_inner_policy() {
        let inner = HypercubePolicy::uniform(&two_hop(), 2).unwrap();
        let recorder = Recorder::new();
        let counts = PolicyCounts::default();
        let traced = TracedPolicy::new(&inner, &recorder, &counts);
        let i = edges();
        assert_eq!(
            traced.distribute(&i).union_of_chunks(),
            inner.distribute(&i).union_of_chunks()
        );
        let a = traced.distribute_stream(&i, 2);
        let b = inner.distribute_stream(&i, 2);
        for node in b.nodes() {
            assert_eq!(a.for_node_lazy(node), b.for_node_lazy(node));
        }
        assert_eq!(counts.reshuffles.load(Ordering::Relaxed), 2);
        assert_eq!(counts.facts_in.load(Ordering::Relaxed), 2 * i.len() as u64);
        let largest = inner.distribute(&i).chunks().map(|(_, c)| c.len()).max();
        assert_eq!(
            Some(counts.max_chunk.load(Ordering::Relaxed) as usize),
            largest
        );
        let names: Vec<_> = recorder.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["distribution.reshuffle"; 2]);
    }

    #[test]
    fn the_transport_wrapper_forwards_resident_and_delta_rounds() {
        let q = two_hop();
        let recorder = Recorder::new();
        let mut inner = InMemoryTransport::new(1);
        let node = Node::numbered(0);
        let mut traced = TracedTransport::replaying_codec(&mut inner, &recorder);
        traced.begin_round(0, &q, EvalOptions::default()).unwrap();
        traced.send_delta(node, edges()).unwrap();
        traced.barrier().unwrap();
        let delta = traced.recv_delta(node).unwrap();
        assert_eq!(delta.output, cq::evaluate(&q, &edges()));
        traced.begin_round(0, &q, EvalOptions::default()).unwrap();
        traced.send_resident(node).unwrap();
        traced.barrier().unwrap();
        assert_eq!(traced.recv_chunk(node).unwrap().output, delta.output);
        assert_eq!(traced.take_bytes_shipped(), 0);
        assert_eq!(traced.parallelism(), 1);
        assert_eq!(traced.counts.calls, 8);
        // One frame per delta sent and per result received.
        assert_eq!(traced.counts.frames.len(), 3);

        // Without the codec replay, the wrapper encodes nothing.
        let mut plain = TracedTransport::new(&mut inner, &recorder);
        plain.begin_round(0, &q, EvalOptions::default()).unwrap();
        plain.send_chunk(node, edges()).unwrap();
        plain.barrier().unwrap();
        plain.recv_chunk(node).unwrap();
        assert!(plain.counts.frames.is_empty());
        assert_eq!(plain.counts.encode_time, Duration::ZERO);
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let recorder = Recorder::new();
        recorder.time("job", || {
            recorder.time("child", || std::thread::sleep(Duration::from_millis(20)))
        });
        let times = recorder.self_times();
        assert!(times["child"] >= Duration::from_millis(20));
        assert!(times["job"] < Duration::from_millis(20));
    }

    #[test]
    fn a_panic_inside_a_span_still_closes_it() {
        let recorder = Recorder::new();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            recorder.time("job", || recorder.time("child", || panic!("inside a span")))
        }));
        assert!(panicked.is_err());
        recorder.time("next", || ());
        let parents: Vec<_> = recorder.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None]);
    }
}
