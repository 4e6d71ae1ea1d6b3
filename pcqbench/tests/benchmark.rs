//! The benchmark's own checks: seeds fix the inputs, counts repeat exactly,
//! the traced pass answers like the untraced one, and `BENCHMARK.json`
//! names what the program prints.

use std::path::PathBuf;
use std::process::Command;

use pcqbench::report::{END_TO_END, PER_LAYER};
use pcqbench::run::{Bench, WorkerCommand};
use pcqbench::workload::{JobCounts, Pool, Workload};
use wire::JsonValue;

fn worker() -> WorkerCommand {
    WorkerCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_pcqbench")),
        args: vec!["worker".to_string()],
    }
}

/// The counts that must repeat exactly for one input.
fn exact(counts: &JobCounts) -> (u64, u64, u64, u64) {
    (
        counts.rounds,
        counts.comm_facts,
        counts.max_node_facts,
        counts.answer_facts,
    )
}

/// A set-up bench that has run every pool slot once, untraced.
fn warmed(workload: Workload, seed: u64) -> Bench {
    let mut bench = Bench::setup(workload, seed, &worker()).expect("set-up succeeds");
    for slot in 0..bench.pool.len() {
        bench.run_job(slot, false);
    }
    assert!(
        bench.jobs.iter().all(|j| j.correct),
        "{}: every job matches its reference",
        workload.name()
    );
    bench
}

fn slot_counts(bench: &Bench) -> Vec<(u64, u64, u64, u64)> {
    bench
        .slot_counts
        .iter()
        .map(|c| exact(c.as_ref().expect("every slot ran")))
        .collect()
}

#[test]
fn one_seed_fixes_the_inputs_and_another_seed_changes_them() {
    for workload in Workload::ALL {
        let first = Pool::generate(workload, 11).unwrap().fingerprints();
        let again = Pool::generate(workload, 11).unwrap().fingerprints();
        let other = Pool::generate(workload, 12).unwrap().fingerprints();
        assert_eq!(first, again, "{}", workload.name());
        assert_ne!(first, other, "{}", workload.name());
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for workload in [Workload::TcDenseMemory, Workload::Decide] {
        let a = slot_counts(&warmed(workload, 5));
        let b = slot_counts(&warmed(workload, 5));
        assert_eq!(a, b, "{}", workload.name());
    }
}

#[test]
fn traced_and_untraced_passes_agree() {
    for workload in Workload::ALL {
        let mut bench = warmed(workload, 3);
        let untraced = slot_counts(&bench);
        for (slot, expected) in untraced.iter().enumerate() {
            let traced = bench.run_job(slot, true);
            assert!(traced.correct, "{} slot {slot}", workload.name());
            let counts = traced.counts.expect("the traced job returned");
            assert_eq!(&exact(&counts), expected, "{} slot {slot}", workload.name());
        }
        assert_eq!(bench.replay_errors, 0, "{}", workload.name());
    }
}

#[test]
fn spread_jobs_leave_the_thread_free_to_run_on_all_its_cpus() {
    let before = std::thread::available_parallelism().unwrap();
    for workload in [Workload::Decide, Workload::TcDenseMemory] {
        warmed(workload, 4);
        assert_eq!(
            std::thread::available_parallelism().unwrap(),
            before,
            "{}",
            workload.name()
        );
    }
    assert!(pcqbench::cpus::cpus().len() <= before.get());
}

#[test]
fn a_missing_worker_program_fails_the_set_up() {
    let missing = WorkerCommand {
        program: PathBuf::from("no-such-pcqbench-worker"),
        args: vec!["worker".to_string()],
    };
    assert!(Bench::setup(Workload::HypercubeTriangle, 1, &missing).is_err());
}

fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json lists the metrics")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn the_command_prints_the_result_line_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcqbench"))
        .args(["--workload", "decide", "--seed", "2", "--seconds", "0.5"])
        .args(["--trace", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = JsonValue::parse(stdout.lines().last().unwrap()).unwrap();
    assert!(matches!(last.get("correct"), Some(JsonValue::Bool(true))));
    let metrics = last.get("metrics").unwrap();
    for (name, unit) in PER_LAYER {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} printed"));
        assert_eq!(metric.get("unit").and_then(JsonValue::as_str), Some(unit));
    }
    let pc_s = metrics.get("core.pc_s").and_then(|m| m.get("value"));
    assert!(matches!(pc_s, Some(JsonValue::Fixed { value, .. }) if *value > 0.0));

    let usage = Command::new(env!("CARGO_BIN_EXE_pcqbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .unwrap();
    assert!(!usage.status.success());
    assert!(usage.stdout.is_empty());
}
