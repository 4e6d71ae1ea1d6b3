//! `pcqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload and prints a record line and, last, the result line. `pcqbench worker` serves the wire worker protocol on
//! stdio: the benchmark spawns itself as its worker processes.

use std::io::Write;
use std::process::ExitCode;

use pcqbench::report::{self, END_TO_END, PER_LAYER};
use pcqbench::run::{Bench, WorkerCommand};
use pcqbench::workload::Workload;

const USAGE: &str = "usage: pcqbench --workload <hypercube-triangle|tc-dense-memory|\
tc-sparse-seminaive-process|decide> --seed <n> --seconds <s> --trace <0|1>\n       \
pcqbench worker";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let raw = value()?;
                seed = Some(raw.parse().map_err(|_| format!("bad seed '{raw}'"))?);
            }
            "--seconds" => {
                let raw = value()?;
                let s: f64 = raw.parse().map_err(|_| format!("bad seconds '{raw}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got '{raw}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let worker = WorkerCommand {
        program: std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark executable: {e}"))?,
        args: vec!["worker".to_string()],
    };
    let mut bench = Bench::setup(args.workload, args.seed, &worker)?;
    bench.warm_up();
    let timed_from = bench.jobs.len();
    bench.measure(args.seconds, args.trace)?;
    let (measured, units) = if args.trace {
        (report::per_layer(&bench, timed_from), &PER_LAYER[..])
    } else {
        (report::end_to_end(&bench, timed_from), &END_TO_END[..])
    };
    let record = report::record(&bench, args.seed, args.seconds, args.trace, &measured);
    // Shut the workers down (and wait for them) before reporting.
    drop(bench);
    let mut out = std::io::stdout().lock();
    writeln!(out, "{record}")
        .and_then(|()| writeln!(out, "{}", report::result_line(&measured, units)))
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write the result: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return match wire::run_worker(std::io::stdin().lock(), std::io::stdout().lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pcqbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&args).and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pcqbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
