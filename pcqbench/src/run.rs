//! One benchmark run: set-up, references, a warm-up job, and the closed
//! loop — one client that sends the next job only when the previous one
//! has returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cq::{EvalOptions, Instance};
use distribution::{InMemoryTransport, Node, Transport};
use wire::ProcessTransport;

use crate::cpus::SpreadRounds;
use crate::stats::{median, tail, Tail};
use crate::trace::{time_in, PolicyCounts, Recorder, TracedPolicy, TracedTransport};
use crate::workload::{
    join_matches, run_decisions, run_join, Answer, JobCounts, Pool, Reference, Workload, WORKERS,
};

/// A run sets up `MIN_SETUPS` times before its jobs, and once more at the
/// start of every later pool cycle; `setup_s` is the median. The host's
/// speed changes from one second to the next: set-ups that all ran in the
/// run's first moments would time only the speed of those moments.
pub(crate) const MIN_SETUPS: usize = 5;

/// A job timing needs this many jobs beyond it to count as the tail.
pub(crate) const TAIL_BEYOND: usize = 10;

/// The program a `ProcessTransport` spawns as its workers.
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    /// The executable.
    pub program: PathBuf,
    /// Its arguments (it must then serve the worker protocol on stdio).
    pub args: Vec<String>,
}

/// The time one set-up took, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTime {
    /// Input generation.
    pub gen: Duration,
    /// Worker spawn and handshake (zero without worker processes).
    pub spawn: Duration,
}

/// A workload's transport, if it runs one.
type Workers = Option<Box<dyn Transport>>;

/// Builds the workload's transport: worker processes (spawned and
/// handshaken) or the in-memory pool. `decide` runs no transport.
pub(crate) fn make_transport(
    workload: Workload,
    pool: &Pool,
    worker: &WorkerCommand,
) -> Result<Workers, String> {
    let Pool::Join(join) = pool else {
        return Ok(None);
    };
    if !workload.uses_processes() {
        return Ok(Some(Box::new(InMemoryTransport::new(WORKERS))));
    }
    let mut transport =
        ProcessTransport::spawn_command(worker.program.clone(), &worker.args, WORKERS)
            .map_err(|e| format!("spawning workers failed: {e}"))?;
    // Handshake: one empty chunk per worker, answered through a barrier,
    // so set-up ends only when every worker is serving.
    let handshake = (|| {
        transport.begin_round(0, &join.query, EvalOptions::default())?;
        for node in 0..WORKERS {
            transport.send_chunk(Node::numbered(node), Instance::new())?;
        }
        transport.barrier()?;
        for node in 0..WORKERS {
            transport.recv_chunk(Node::numbered(node))?;
        }
        transport.take_bytes_shipped();
        Ok::<(), distribution::TransportError>(())
    })();
    handshake.map_err(|e| format!("worker handshake failed: {e}"))?;
    Ok(Some(Box::new(transport)))
}

/// One set-up: input generation, then worker spawn and handshake.
fn set_up(
    workload: Workload,
    seed: u64,
    worker: &WorkerCommand,
) -> Result<(SetupTime, Pool, Workers), String> {
    let start = Instant::now();
    let pool = Pool::generate(workload, seed)?;
    let gen = start.elapsed();
    let start = Instant::now();
    let transport = make_transport(workload, &pool, worker)?;
    let spawn = start.elapsed();
    Ok((SetupTime { gen, spawn }, pool, transport))
}

/// One job as the closed loop saw it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Index into the pool.
    pub slot: usize,
    /// Wall time of the call into the program.
    pub seconds: f64,
    /// Whether the answer matched the reference (and, on a repeat, the
    /// counts matched the slot's first run).
    pub correct: bool,
    /// Whether the job ran through the tracing wrappers.
    pub traced: bool,
    /// What the program reported (`None` after an error or a panic).
    pub counts: Option<JobCounts>,
}

/// Sums over the traced jobs, kept by the traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Traced jobs run.
    pub jobs: u64,
    /// Transport calls.
    pub calls: u64,
    /// Bytes the transport reported shipped.
    pub bytes_shipped: u64,
    /// Sum of the per-node local evaluation times.
    pub eval_time: Duration,
    /// Sum of per-node outputs and of distinct answer facts.
    pub node_output_facts: u64,
    pub answer_facts: u64,
    /// Encoded frame bytes of the codec replay, and its encode and decode
    /// times.
    pub frame_bytes: u64,
    pub encode_time: Duration,
    pub decode_time: Duration,
    /// Index-cache hits and misses.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// A set-up workload, ready to run jobs.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    seed: u64,
    worker: WorkerCommand,
    /// Fingerprints of the pooled inputs; every set-up must repeat them.
    fingerprints: Vec<u64>,
    /// Its generated inputs.
    pub pool: Pool,
    transport: Workers,
    references: Vec<Reference>,
    /// Time each reference took.
    pub reference_times: Vec<Duration>,
    /// Every set-up's time, in order.
    pub setups: Vec<SetupTime>,
    /// Counts of each slot's first run (the repeatable per-job counts).
    pub slot_counts: Vec<Option<JobCounts>>,
    /// The traced pass's spans.
    recorder: Recorder,
    /// The traced pass's reshuffle counts.
    pub policy_counts: PolicyCounts,
    /// The traced pass's sums.
    pub layers: LayerTotals,
    /// Codec replay jobs that answered wrong, and frames it failed to
    /// decode back to the same size.
    pub replay_errors: u64,
    /// Every job run, warm-up included.
    pub jobs: Vec<JobRecord>,
}

impl Bench {
    /// Sets the workload up (generation, then worker spawn and handshake)
    /// `MIN_SETUPS` times, keeps the first set-up, and computes the
    /// references.
    pub fn setup(workload: Workload, seed: u64, worker: &WorkerCommand) -> Result<Bench, String> {
        let (time, pool, transport) = set_up(workload, seed, worker)?;
        let (references, reference_times) = pool.references().into_iter().unzip();
        let mut bench = Bench {
            workload,
            seed,
            worker: worker.clone(),
            fingerprints: pool.fingerprints(),
            slot_counts: vec![None; pool.len()],
            pool,
            transport,
            references,
            reference_times,
            setups: vec![time],
            recorder: Recorder::new(),
            policy_counts: PolicyCounts::default(),
            layers: LayerTotals::default(),
            replay_errors: 0,
            jobs: Vec::new(),
        };
        for _ in 1..MIN_SETUPS {
            bench.repeat_setup()?;
        }
        Ok(bench)
    }

    /// Sets the workload up once more, timed, checks that it generated the
    /// same inputs, and shuts it down again.
    fn repeat_setup(&mut self) -> Result<(), String> {
        let (time, pool, _transport) = set_up(self.workload, self.seed, &self.worker)?;
        if pool.fingerprints() != self.fingerprints {
            return Err("one seed generated two different input pools".to_string());
        }
        self.setups.push(time);
        Ok(())
    }

    /// Runs one job on pool slot `slot`, checks it, and records it.
    pub fn run_job(&mut self, slot: usize, traced: bool) -> JobRecord {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.call(slot, traced)));
        let (seconds, counts, correct) = match outcome {
            Ok((seconds, Some((answer, counts)))) => {
                let correct = self.check(slot, &answer, &counts);
                (seconds, Some(counts), correct)
            }
            Ok((seconds, None)) => (seconds, None, false),
            Err(_) => (start.elapsed().as_secs_f64(), None, false),
        };
        let record = JobRecord {
            slot,
            seconds,
            correct,
            traced,
            counts,
        };
        self.jobs.push(record.clone());
        record
    }

    /// The call into the program, traced or not: its wall time, and its
    /// answer (`None` after a transport error). Checking and the codec
    /// replay happen outside the timed call.
    fn call(&mut self, slot: usize, traced: bool) -> (f64, Option<(Answer, JobCounts)>) {
        match &self.pool {
            Pool::Join(pool) => {
                let transport = self
                    .transport
                    .as_deref_mut()
                    .expect("distributed workloads have a transport");
                // In memory, each round's coordinator work runs on the
                // next CPU (see `cpus`).
                let mut spread;
                let transport: &mut dyn Transport = if self.workload.uses_processes() {
                    transport
                } else {
                    spread = SpreadRounds::new(transport);
                    &mut spread
                };
                let input = &pool.inputs[slot].instance;
                if !traced {
                    let start = Instant::now();
                    let result = run_join(pool, &pool.policy, transport, input);
                    return (start.elapsed().as_secs_f64(), result.ok());
                }
                let (seconds, result) = {
                    let policy =
                        TracedPolicy::new(&pool.policy, &self.recorder, &self.policy_counts);
                    let mut wrapped = TracedTransport::new(&mut *transport, &self.recorder);
                    let (hits, misses) = wrapped.index_cache_stats();
                    let start = Instant::now();
                    let result = self
                        .recorder
                        .time("job", || run_join(pool, &policy, &mut wrapped, input));
                    let seconds = start.elapsed().as_secs_f64();
                    let (hits_after, misses_after) = wrapped.index_cache_stats();
                    let seen = &wrapped.counts;
                    let layers = &mut self.layers;
                    layers.jobs += 1;
                    layers.calls += seen.calls;
                    layers.bytes_shipped += seen.bytes_shipped;
                    layers.eval_time += seen.eval_time;
                    layers.node_output_facts += seen.node_output_facts;
                    layers.cache_hits += hits_after - hits;
                    layers.cache_misses += misses_after - misses;
                    (seconds, result)
                };
                // The codec replay: the same job once more, untimed, through
                // a wrapper that encodes every chunk it carries; then every
                // frame is decoded back. Its answer is checked too.
                let scratch = Recorder::new();
                let mut replay = TracedTransport::replaying_codec(transport, &scratch);
                let replayed = run_join(pool, &pool.policy, &mut replay, input);
                let seen = std::mem::take(&mut replay.counts);
                let replay_wrong = replayed.map_or(true, |(answer, counts)| {
                    !join_matches(&answer, &counts, &self.references[slot])
                });
                let start = Instant::now();
                let undecodable = seen
                    .frames
                    .iter()
                    .filter(|(frame, facts)| {
                        wire::decode_frame::<Instance>(frame).map_or(true, |i| i.len() != *facts)
                    })
                    .count();
                let layers = &mut self.layers;
                layers.decode_time += start.elapsed();
                layers.encode_time += seen.encode_time;
                layers.frame_bytes += seen.frames.iter().map(|(f, _)| f.len() as u64).sum::<u64>();
                self.replay_errors += undecodable as u64 + u64::from(replay_wrong);
                let Ok((answer, counts)) = result else {
                    return (seconds, None);
                };
                self.layers.answer_facts += counts.answer_facts;
                (seconds, Some((answer, counts)))
            }
            Pool::Decide(jobs) => {
                let recorder = traced.then_some(&self.recorder);
                let start = Instant::now();
                let (answer, counts) =
                    time_in(recorder, "job", || run_decisions(&jobs[slot], recorder));
                let seconds = start.elapsed().as_secs_f64();
                if traced {
                    self.layers.jobs += 1;
                    self.layers.cache_hits += counts.cache_hits;
                    self.layers.cache_misses += counts.cache_misses;
                }
                (seconds, Some((answer, counts)))
            }
        }
    }

    /// Checks an answer against the slot's reference, and the counts
    /// against the slot's first run.
    fn check(&mut self, slot: usize, answer: &Answer, counts: &JobCounts) -> bool {
        let matches = match (&self.references[slot], answer) {
            (Reference::Verdicts(expected), Answer::Verdicts(verdicts)) => expected == verdicts,
            (reference, answer) => join_matches(answer, counts, reference),
        };
        let repeat = |a: &JobCounts| (a.rounds, a.comm_facts, a.max_node_facts, a.answer_facts);
        let repeats = match &self.slot_counts[slot] {
            Some(first) => repeat(first) == repeat(counts),
            None => {
                self.slot_counts[slot] = Some(counts.clone());
                true
            }
        };
        matches && repeats
    }

    /// One untimed, checked job, so lazy set-up in the program and in the
    /// workers has finished before timing starts.
    pub fn warm_up(&mut self) {
        self.run_job(0, false);
    }

    /// The closed loop: cycles through the pool until `seconds` have
    /// passed, with one untimed set-up between cycles (see `MIN_SETUPS`).
    /// With `trace`, whole cycles alternate between untraced and traced,
    /// and the loop runs until each kind has at least one cycle. Fails
    /// only if a set-up fails.
    pub fn measure(&mut self, seconds: f64, trace: bool) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let len = self.pool.len();
        let min_jobs = if trace { 2 * len } else { 1 };
        for i in 0.. {
            if i > 0 && i % len == 0 {
                self.repeat_setup()?;
            }
            let traced = trace && (i / len) % 2 == 1;
            self.run_job(i % len, traced);
            if Instant::now() >= deadline && i + 1 >= min_jobs {
                break;
            }
        }
        Ok(())
    }

    /// Per-job counts averaged over the pool's slots (each slot's counts
    /// repeat exactly, so the average does not depend on how many jobs the
    /// loop managed).
    pub fn mean_counts(&self) -> MeanCounts {
        let known: Vec<&JobCounts> = self.slot_counts.iter().flatten().collect();
        let mean = |f: fn(&JobCounts) -> u64| {
            if known.is_empty() {
                0.0
            } else {
                known.iter().map(|c| f(c) as f64).sum::<f64>() / known.len() as f64
            }
        };
        MeanCounts {
            rounds: mean(|c| c.rounds),
            comm_facts: mean(|c| c.comm_facts),
            comm_bytes: mean(|c| c.comm_bytes),
            max_node_facts: mean(|c| c.max_node_facts),
        }
    }

    /// Span self-times over the traced jobs, in seconds per traced job.
    pub fn layer_seconds(&self) -> impl Fn(&str) -> f64 {
        let totals = self.recorder.self_times();
        let jobs = self.layers.jobs.max(1) as f64;
        move |name| totals.get(name).map_or(0.0, |d| d.as_secs_f64() / jobs)
    }

    /// Facts handed to the traced reshuffles, and the assignments made.
    pub fn reshuffle_counts(&self) -> (u64, u64) {
        (
            self.policy_counts.facts_in.load(Ordering::Relaxed),
            self.policy_counts.assigned.load(Ordering::Relaxed),
        )
    }
}

/// Per-job counts, averaged over the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanCounts {
    pub rounds: f64,
    pub comm_facts: f64,
    pub comm_bytes: f64,
    pub max_node_facts: f64,
}

/// Timing summary of a set of jobs.
#[derive(Clone, Copy, Debug)]
pub struct Timings {
    /// Jobs in the set.
    pub jobs: usize,
    /// Median job wall time.
    pub p50: f64,
    /// The tail percentile.
    pub tail: Tail,
    /// Correct jobs per second of time spent in job calls.
    pub jobs_per_s: f64,
}

/// Summarises `jobs`.
pub(crate) fn timings<'a>(jobs: impl IntoIterator<Item = &'a JobRecord>) -> Timings {
    let jobs: Vec<&JobRecord> = jobs.into_iter().collect();
    let seconds: Vec<f64> = jobs.iter().map(|j| j.seconds).collect();
    let busy: f64 = seconds.iter().sum();
    let correct = jobs.iter().filter(|j| j.correct).count();
    Timings {
        jobs: jobs.len(),
        p50: median(&seconds),
        tail: tail(&seconds, TAIL_BEYOND),
        jobs_per_s: if busy > 0.0 {
            correct as f64 / busy
        } else {
            0.0
        },
    }
}
