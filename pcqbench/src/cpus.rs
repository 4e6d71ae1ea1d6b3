//! Spreads a single-threaded job's steps over the machine's first CPUs.
//!
//! On a shared host each CPU's speed drifts on its own, by up to 1.5× and
//! for minutes at a time. A single-threaded job that runs on one CPU reads
//! that CPU's speed of the moment. Moving the client thread to the next CPU
//! before each step of a job makes every job run on each CPU in turn, so
//! its time reads the CPUs' mean speed, which drifts about half as much.
//! Threads spawned while the client is pinned inherit the pin, so a job is
//! spread only where it spawns none: `decide` case by case, and the
//! in-memory closure round by round, free during the barrier that spawns
//! its pool threads. The process workloads are left alone: their worker
//! processes already run on both CPUs, and their transport spawns a thread
//! per worker to drive each round.

use std::sync::OnceLock;

use cq::{ConjunctiveQuery, EvalOptions, Instance};
use distribution::{Node, NodeResult, Transport, TransportError};

use crate::workload::WORKERS;

/// A CPU mask as the kernel takes it (`cpu_set_t`: 1024 bits).
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The thread's own CPU mask, and the first `WORKERS` CPUs in it.
struct Placement {
    all: Mask,
    cpus: Vec<usize>,
}

fn placement() -> &'static Placement {
    static PLACEMENT: OnceLock<Placement> = OnceLock::new();
    PLACEMENT.get_or_init(|| {
        let all = current_mask().unwrap_or([0; 16]);
        let cpus = (0..all.len() * 64)
            .filter(|&cpu| all[cpu / 64] & (1 << (cpu % 64)) != 0)
            .take(WORKERS)
            .collect();
        Placement { all, cpus }
    })
}

#[cfg(target_os = "linux")]
fn current_mask() -> Option<Mask> {
    let mut mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (status == 0).then_some(mask)
}

#[cfg(not(target_os = "linux"))]
fn current_mask() -> Option<Mask> {
    None
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of the size passed. A failure
    // leaves the thread where it was, which only loses the spreading.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &Mask) {}

/// The CPUs a job's steps rotate over: none where the thread's CPUs
/// cannot be read, and then nothing moves.
pub fn cpus() -> &'static [usize] {
    &placement().cpus
}

/// Keeps the calling thread on one CPU per step of a job; when dropped
/// (also when the job panics), lets it run on all its CPUs again.
pub(crate) struct Spread(());

impl Spread {
    pub(crate) fn new() -> Spread {
        Spread(())
    }

    /// Moves the calling thread to the CPU of step `step`.
    pub(crate) fn step(&self, step: usize) {
        let cpus = cpus();
        if cpus.len() > 1 {
            let cpu = cpus[step % cpus.len()];
            let mut mask = [0; 16];
            mask[cpu / 64] = 1 << (cpu % 64);
            set_mask(&mask);
        }
    }

    /// Lets the calling thread run on all its CPUs until the next step.
    pub(crate) fn pause(&self) {
        if cpus().len() > 1 {
            set_mask(&placement().all);
        }
    }
}

impl Drop for Spread {
    fn drop(&mut self) {
        self.pause();
    }
}

/// A [`Transport`] that delegates every method to `inner` and spreads the
/// rounds of a job: each round's coordinator work (sending, receiving,
/// assembly and the next reshuffle) runs on the next CPU. During
/// `barrier`, where an in-memory transport spawns its pool threads, the
/// calling thread may run anywhere, so the pool threads do too.
pub(crate) struct SpreadRounds<'a> {
    inner: &'a mut dyn Transport,
    spread: Spread,
    round: usize,
}

impl<'a> SpreadRounds<'a> {
    pub(crate) fn new(inner: &'a mut dyn Transport) -> SpreadRounds<'a> {
        SpreadRounds {
            inner,
            spread: Spread::new(),
            round: 0,
        }
    }
}

impl Transport for SpreadRounds<'_> {
    fn begin_round(
        &mut self,
        round: usize,
        query: &ConjunctiveQuery,
        options: EvalOptions,
    ) -> Result<(), TransportError> {
        self.round += 1;
        self.spread.step(self.round);
        self.inner.begin_round(round, query, options)
    }

    fn send_chunk(&mut self, node: Node, chunk: Instance) -> Result<(), TransportError> {
        self.inner.send_chunk(node, chunk)
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.spread.pause();
        let result = self.inner.barrier();
        self.spread.step(self.round);
        result
    }

    fn recv_chunk(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.inner.recv_chunk(node)
    }

    fn send_resident(&mut self, node: Node) -> Result<(), TransportError> {
        self.inner.send_resident(node)
    }

    fn send_delta(&mut self, node: Node, delta: Instance) -> Result<(), TransportError> {
        self.inner.send_delta(node, delta)
    }

    fn recv_delta(&mut self, node: Node) -> Result<NodeResult, TransportError> {
        self.inner.recv_delta(node)
    }

    fn take_bytes_shipped(&mut self) -> u64 {
        self.inner.take_bytes_shipped()
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn index_cache_stats(&self) -> (u64, u64) {
        self.inner.index_cache_stats()
    }
}
