//! `tqsim-perf` — the repo's benchmark. See `perf/README.md`.
//!
//! `tqsim-perf --workload W --seed N --trace 0|1` runs one workload in this
//! process and prints its result object as the last line of standard
//! output. Without `--workload` it runs every workload, each in a process
//! of its own (clean `VmHWM`); `--selfcheck` does that twice and compares
//! the two passes. How long a run measures is fixed here, by each
//! workload's rep count, never by the caller and never by how fast the
//! code is: `--seconds` is accepted only with the value `BENCHMARK.json`
//! gives as `run_seconds`.
//!
//! Everything is measured from outside the program, through the stable
//! surface listed in the README.

mod gen;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads {
    pub mod dist;
    pub mod engine;
    pub mod service_mix;
    pub mod tree;
}

use report::{Metrics, Ops};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tqsim::{metrics as fidelity, DcpConfig, Strategy, Tqsim};
use tqsim_densmat::DensityMatrix;
use tqsim_json::Value;
use tqsim_noise::NoiseModel;
use trace::Tracer;

/// The workloads, in the order the all-workloads mode runs them.
const WORKLOADS: [&str; 8] = [
    "paper_suite",
    "paper_mc",
    "paper_engine",
    "wide_state",
    "seam_fanout",
    "service_mix",
    "dist_cluster",
    "dist_shard",
];

/// The seed a run uses when none is given. Seed 7919 is held out: nobody
/// tunes against it, later claims are checked on it.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`: about what the timed reps of a
/// workload take on the host the rep counts were sized on.
const RUN_SECONDS: u64 = 10;
/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub trace: bool,
    selfcheck: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            trace: false,
            selfcheck: false,
        };
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    if value()?.parse() != Ok(RUN_SECONDS) {
                        return Err(format!(
                            "the run length is fixed by the benchmark: --seconds must be {RUN_SECONDS}"
                        ));
                    }
                }
                "--trace" => args.trace = value()? == "1",
                "--selfcheck" => args.selfcheck = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }
}

/// Set up with `build` [`SETUPS`] times and keep the last: the set-up and
/// the median of the times it took. Each one is dropped before the next is
/// built, so its processes and ports are gone by then.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS is at least 1"), stats::median(&times))
}

/// The independent oracle: trajectory sampling must reproduce the exact
/// density-matrix distribution of a small noisy circuit.
fn oracle(seed: u64, ops: &mut Ops, m: &mut Metrics) {
    let circuit = tqsim_circuit::generators::bv(6);
    let noise = NoiseModel::depolarizing(0.01, 0.05);
    let exact = DensityMatrix::run_noisy(&circuit, &noise).probabilities();
    let sampled = Tqsim::new(&circuit)
        .noise(noise)
        .shots(8000)
        .strategy(Strategy::Dynamic(DcpConfig::default()))
        .seed(gen::sim_seed(seed, 0x0AC1E))
        .run()
        .expect("oracle circuit plans");
    let f = fidelity::state_fidelity(&exact, &sampled.counts.to_distribution());
    m.set("densmat.oracle_fidelity", f);
    ops.op(f > 0.99, || {
        format!("oracle: state fidelity {f:.5} against the density matrix")
    });
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let mut tracer = Tracer::new();
    oracle(args.seed, &mut ops, &mut m);
    use workloads::{dist, engine, service_mix, tree};
    let tree_spec = match name {
        "paper_suite" => Some(&tree::PAPER_SUITE),
        "paper_mc" => Some(&tree::PAPER_MC),
        "wide_state" => Some(&tree::WIDE_STATE),
        "seam_fanout" => Some(&tree::SEAM_FANOUT),
        _ => None,
    };
    match (name, tree_spec) {
        (_, Some(spec)) => tree::run(spec, args, &mut ops, &mut m, &mut tracer),
        ("paper_engine", _) => engine::run(args, &mut ops, &mut m),
        ("service_mix", _) => service_mix::run(args, &mut ops, &mut m, &mut tracer),
        ("dist_cluster", _) => dist::run_cluster(args, &mut ops, &mut m, &mut tracer),
        ("dist_shard", _) => dist::run_shard(args, &mut ops, &mut m, &mut tracer),
        _ => {
            eprintln!("unknown workload {name}; one of {WORKLOADS:?}");
            return ExitCode::from(2);
        }
    }
    m.set("peak_rss_mb", layers::peak_rss_mb());

    println!(
        "# {name} seed={} trace={} available_parallelism={}",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    // Everything this run measured, whichever table the result line takes.
    for (metric, value, unit) in m.rows() {
        println!("{metric} = {value} {unit}");
    }
    println!("ops_attempted = {} count", ops.attempted);
    println!("ops_failed = {} count", ops.failed);

    let result = report::result_json(&ops, &m, args.trace).to_json();
    let out = std::path::Path::new("perf/out");
    let written = std::fs::create_dir_all(out).and_then(|()| {
        if args.trace {
            std::fs::write(
                out.join(format!("trace-{name}.json")),
                tracer.to_json().to_json(),
            )?;
            std::fs::write(out.join(format!("{name}.layers.json")), &result)
        } else {
            std::fs::write(out.join(format!("{name}.json")), &result)
        }
    });
    if let Err(e) = written {
        eprintln!("cannot write under {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process; its result object, if it exited 0.
fn run_child(name: &str, args: &Args) -> Option<Value> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!("{name}: exited with {}", output.status);
        return None;
    }
    tqsim_json::parse(stdout.lines().last()?).ok()
}

/// `(name, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let spec = tqsim_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Value::as_str);
            let bound = metric.get("bound").and_then(Value::as_f64);
            name.map(String::from)
                .zip(bound)
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, each in its own process; with `--selfcheck` twice, and
/// the two passes must agree on every end-to-end metric within its bound.
fn run_all(args: &Args) -> ExitCode {
    let passes = if args.selfcheck { 2 } else { 1 };
    let mut ok = true;
    let mut results: Vec<Vec<Option<Value>>> = Vec::new();
    for _ in 0..passes {
        let pass: Vec<Option<Value>> = WORKLOADS.iter().map(|w| run_child(w, args)).collect();
        ok &= pass.iter().all(Option::is_some);
        results.push(pass);
    }
    if args.selfcheck && !args.trace {
        let bounds = match bounds() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("# selfcheck: second pass against the first");
        for (i, workload) in WORKLOADS.iter().enumerate() {
            let (Some(a), Some(b)) = (&results[0][i], &results[1][i]) else {
                continue;
            };
            for (metric, bound) in &bounds {
                let (Some(x), Some(y)) = (metric_value(a, metric), metric_value(b, metric)) else {
                    println!("{workload} {metric}: missing");
                    ok = false;
                    continue;
                };
                let diff = (y - x).abs() / x;
                let verdict = if diff <= *bound { "ok" } else { "BEYOND BOUND" };
                println!("{workload} {metric}: {x} -> {y} ({diff:.4} of {bound}) {verdict}");
                ok &= diff <= *bound;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: tqsim-perf [--workload W] [--seed N] [--seconds {RUN_SECONDS}] [--trace 0|1] [--selfcheck]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_builds_three_times_and_reports_the_median() {
        let mut built = 0;
        let (last, median_s) = set_up(|| {
            built += 1;
            std::thread::sleep(std::time::Duration::from_millis(built));
            built
        });
        assert_eq!((last, built), (SETUPS as u64, SETUPS as u64));
        // Sleeps of 1, 2 and 3 ms: a sleep never ends early, so the median
        // is the 2 ms one and not the 1 ms one.
        assert!(median_s >= 0.002, "{median_s}");
    }

    /// `BENCHMARK.json` and the program list the same metrics and workloads.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = tqsim_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("list present")
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                })
                .collect()
        };
        let names = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table.iter().map(|t| [t.0, t.1][i].to_string()).collect()
        };
        assert_eq!(listed("end_to_end", "name"), names(report::END_TO_END, 0));
        assert_eq!(listed("end_to_end", "unit"), names(report::END_TO_END, 1));
        assert_eq!(listed("per_layer", "name"), names(report::PER_LAYER, 0));
        assert_eq!(listed("per_layer", "unit"), names(report::PER_LAYER, 1));
        assert_eq!(listed("workloads", "name"), WORKLOADS);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
    }
}
