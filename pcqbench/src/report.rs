//! The metrics a run reports, and the record that tags them with the
//! machine and the inputs.

use std::time::Duration;

use wire::JsonValue;

use crate::run::{timings, Bench, Timings};
use crate::stats::median;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("jobs_per_s", "1/s"),
    ("comm_facts_per_job", "count"),
    ("rounds_per_job", "count"),
    ("max_node_facts", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. Times and
/// counts are per traced job unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("workloads.gen_s", "s"),
    ("wire.spawn_s", "s"),
    ("distribution.reshuffle_s", "s"),
    ("distribution.facts_in", "count"),
    ("distribution.replication", "ratio"),
    ("transport.send_s", "s"),
    ("transport.barrier_s", "s"),
    ("transport.recv_s", "s"),
    ("transport.calls", "count"),
    ("transport.bytes_shipped", "B"),
    ("cq.join_s", "s"),
    ("cq.output_dedup_ratio", "ratio"),
    ("cq.central_eval_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.frame_bytes", "B"),
    ("rounds.coordinator_s", "s"),
    ("delta.index_cache_hit_ratio", "ratio"),
    ("core.pc_s", "s"),
    ("core.pci_s", "s"),
    ("core.transfer_s", "s"),
    ("core.hypercube_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Where and with what the run was made.
pub(crate) struct MachineTag {
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
    pub rustc: &'static str,
}

impl MachineTag {
    /// Reads the tag from the running system. The commit is read from a
    /// `.git` directory in the working directory, if there is one.
    pub fn detect() -> MachineTag {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        MachineTag {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PCQBENCH_RUSTC"),
        }
    }

    fn json(&self) -> JsonValue {
        JsonValue::object([
            ("nproc", JsonValue::from(self.nproc)),
            ("cpu", JsonValue::from(self.cpu.as_str())),
            ("commit", JsonValue::from(self.commit.as_str())),
            ("rustc", JsonValue::from(self.rustc)),
        ])
    }
}

fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|c| c.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// The peak resident set (`VmHWM`) of this process plus that of each of
/// its live child processes (the worker processes), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    let own = std::process::id().to_string();
    let children: f64 = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter_map(|pid| {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
            (status_field(&status, "PPid:")? == own).then(|| peak_kib(&status))
        })
        .sum();
    let own_peak = std::fs::read_to_string("/proc/self/status").map_or(0.0, |s| peak_kib(&s));
    (own_peak + children) / 1024.0
}

fn status_field<'s>(status: &'s str, key: &str) -> Option<&'s str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
}

fn peak_kib(status: &str) -> f64 {
    status_field(status, "VmHWM:")
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

/// Everything one run measured.
pub struct Measured {
    /// `(name, value)` for every metric the run prints.
    pub metrics: Vec<(&'static str, f64)>,
    /// Metrics kept out of the result line: zero on a correct program or on
    /// in-memory workloads, so they go only into the record.
    pub extra: Vec<(&'static str, f64)>,
    /// The timed jobs' summary.
    pub timed: Timings,
    /// All jobs run (warm-up included) and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
}

/// Computes the end-to-end metrics of an untraced run.
pub fn end_to_end(bench: &Bench, timed_from: usize) -> Measured {
    let timed = timings(&bench.jobs[timed_from..]);
    let setup: Vec<f64> = bench
        .setups
        .iter()
        .map(|s| (s.gen + s.spawn).as_secs_f64())
        .collect();
    let counts = bench.mean_counts();
    let (attempted, failed) = attempts(bench);
    Measured {
        metrics: vec![
            ("setup_s", median(&setup)),
            ("job_s_p50", timed.p50),
            ("job_s_tail", timed.tail.value),
            ("jobs_per_s", timed.jobs_per_s),
            ("comm_facts_per_job", counts.comm_facts),
            ("rounds_per_job", counts.rounds),
            ("max_node_facts", counts.max_node_facts),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        extra: vec![
            ("error_rate", failed as f64 / attempted.max(1) as f64),
            ("comm_bytes_per_job", counts.comm_bytes),
        ],
        timed,
        attempted,
        failed,
    }
}

/// Computes the per-layer metrics of a traced run.
pub fn per_layer(bench: &Bench, timed_from: usize) -> Measured {
    let jobs = &bench.jobs[timed_from..];
    let timed = timings(jobs);
    let traced = timings(jobs.iter().filter(|j| j.traced));
    let untraced = timings(jobs.iter().filter(|j| !j.traced));
    let layer = bench.layer_seconds();
    let per_job = |total: u64| total as f64 / bench.layers.jobs.max(1) as f64;
    let per_job_s = |total: Duration| total.as_secs_f64() / bench.layers.jobs.max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (facts_in, assigned) = bench.reshuffle_counts();
    let layers = &bench.layers;
    let gen: Vec<f64> = bench.setups.iter().map(|s| s.gen.as_secs_f64()).collect();
    let spawn: Vec<f64> = bench.setups.iter().map(|s| s.spawn.as_secs_f64()).collect();
    let central: Vec<f64> = bench
        .reference_times
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    let central_eval_s = match bench.pool {
        crate::workload::Pool::Join(_) => central.iter().sum::<f64>() / central.len().max(1) as f64,
        crate::workload::Pool::Decide(_) => 0.0,
    };
    let (attempted, failed) = attempts(bench);
    Measured {
        metrics: vec![
            ("workloads.gen_s", median(&gen)),
            ("wire.spawn_s", median(&spawn)),
            ("distribution.reshuffle_s", layer("distribution.reshuffle")),
            ("distribution.facts_in", per_job(facts_in)),
            ("distribution.replication", ratio(assigned, facts_in)),
            ("transport.send_s", layer("transport.send")),
            ("transport.barrier_s", layer("transport.barrier")),
            ("transport.recv_s", layer("transport.recv")),
            ("transport.calls", per_job(layers.calls)),
            ("transport.bytes_shipped", per_job(layers.bytes_shipped)),
            ("cq.join_s", per_job_s(layers.eval_time)),
            (
                "cq.output_dedup_ratio",
                ratio(layers.answer_facts, layers.node_output_facts),
            ),
            ("cq.central_eval_s", central_eval_s),
            ("wire.encode_s", per_job_s(layers.encode_time)),
            ("wire.decode_s", per_job_s(layers.decode_time)),
            ("wire.frame_bytes", per_job(layers.frame_bytes)),
            ("rounds.coordinator_s", layer("job")),
            (
                "delta.index_cache_hit_ratio",
                ratio(layers.cache_hits, layers.cache_hits + layers.cache_misses),
            ),
            ("core.pc_s", layer("core.pc")),
            ("core.pci_s", layer("core.pci")),
            ("core.transfer_s", layer("core.transfer")),
            ("core.hypercube_s", layer("core.hypercube")),
            ("trace.overhead", traced.p50 / untraced.p50 - 1.0),
        ],
        extra: vec![
            ("job_s_p50_traced", traced.p50),
            ("job_s_p50_untraced", untraced.p50),
            ("traced_jobs", traced.jobs as f64),
            ("replay_errors", bench.replay_errors as f64),
        ],
        timed,
        attempted,
        failed,
    }
}

/// Jobs run (warm-up included), and how many failed; a frame the codec
/// replay could not decode counts as a failure too.
fn attempts(bench: &Bench) -> (usize, usize) {
    let failed = bench.jobs.iter().filter(|j| !j.correct).count() + bench.replay_errors as usize;
    (bench.jobs.len(), failed)
}

fn number(value: f64) -> JsonValue {
    JsonValue::fixed(value, 12)
}

/// The record line: machine tag, seed, inputs, and every measured value.
pub fn record(
    bench: &Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    measured: &Measured,
) -> JsonValue {
    let inputs = bench
        .pool
        .describe()
        .into_iter()
        .zip(bench.pool.fingerprints())
        .enumerate()
        .map(|(slot, (what, print))| {
            let seconds: Vec<f64> = bench
                .jobs
                .iter()
                .filter(|j| j.slot == slot)
                .map(|j| j.seconds)
                .collect();
            JsonValue::object([
                ("input", JsonValue::from(what)),
                ("fingerprint", JsonValue::from(format!("{print:016x}"))),
                ("job_s_p50", number(median(&seconds))),
            ])
        });
    let values = measured
        .metrics
        .iter()
        .chain(&measured.extra)
        .map(|&(name, value)| (name, number(value)));
    let tail = measured.timed.tail;
    JsonValue::object([(
        "record",
        JsonValue::object([
            ("workload", JsonValue::from(bench.workload.name())),
            ("seed", JsonValue::from(seed)),
            ("seconds", number(seconds)),
            ("trace", JsonValue::from(trace)),
            ("machine", MachineTag::detect().json()),
            (
                "client_cpus",
                JsonValue::array(crate::cpus::cpus().iter().map(|&c| JsonValue::from(c))),
            ),
            ("inputs", JsonValue::array(inputs)),
            (
                "jobs",
                JsonValue::object([
                    ("attempted", JsonValue::from(measured.attempted)),
                    ("failed", JsonValue::from(measured.failed)),
                    ("timed", JsonValue::from(measured.timed.jobs)),
                ]),
            ),
            (
                "job_s_tail",
                JsonValue::object([
                    ("percentile", JsonValue::from(u64::from(tail.percentile))),
                    ("jobs_beyond", JsonValue::from(tail.beyond)),
                    ("jobs", JsonValue::from(measured.timed.jobs)),
                ]),
            ),
            ("values", JsonValue::object(values)),
        ]),
    )])
}

/// The result line, printed last: `correct`, `attempted`, `failed` and the
/// metrics with their units.
pub fn result_line(measured: &Measured, units: &[(&str, &str)]) -> JsonValue {
    let metrics = measured.metrics.iter().map(|&(name, value)| {
        let unit = units
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u);
        (
            name,
            JsonValue::object([("value", number(value)), ("unit", JsonValue::from(unit))]),
        )
    });
    JsonValue::object([
        ("correct", JsonValue::from(measured.failed == 0)),
        ("attempted", JsonValue::from(measured.attempted)),
        ("failed", JsonValue::from(measured.failed)),
        ("metrics", JsonValue::object(metrics)),
    ])
}
