//! The GPS benchmark: `benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--quick]`.
//!
//! One run generates its inputs from the seed, sets the system up, drives
//! one workload for the given time, checks every output against an oracle,
//! and prints every metric by name with its unit.  The last line of standard
//! output is the result as one JSON object.  With `--trace 1` the workload
//! is repeated through decorators and replays that record spans from this
//! package's own files, and the per-layer metrics are printed instead.

mod alloc;
mod durable;
mod gen;
mod metrics;
mod oracle;
mod service;
mod shadow;
mod stats;
mod trace;
mod traced;
mod workload;

use durable::{LeftBehind, ScratchDir};
use metrics::{END_TO_END, PER_LAYER};
use service::{configure, render, Fallible, RealService, Service};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Corpus, Driver, Kind, Samples, Stream, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--quick]";
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Fallible<Args> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::named(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(render)?,
            "--seconds" => seconds = value()?.parse().map_err(render)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be within (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload: if quick { workload.quick() } else { workload },
        // `--quick` is a smoke run, never compared with a full record.
        seconds: if quick { seconds / 20.0 } else { seconds },
        seed,
        trace,
        quick,
    })
}

/// Where build outputs already go: `<target dir>/gps-bench`, next to the
/// directory this executable was built into.  Scratch stores and trace files
/// live there, inside the checkout and ignored by git.
fn output_root() -> Fallible<PathBuf> {
    let exe = std::env::current_exe().map_err(render)?;
    let target = exe
        .ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|name| name == "release" || name == "debug")
        })
        .and_then(|profile| profile.parent())
        .ok_or("the executable is not inside a cargo target directory")?;
    Ok(target.join("gps-bench"))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or("unknown".to_string(), |hash| hash.trim().to_string())
}

/// The machine and configuration stamp every output carries.
fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"nproc\": {nproc}, \"os\": \"{}\", \"arch\": \"{}\", \"commit\": \"{}\", \
         \"nodes\": {}, \"edges_per_node\": {}, \"configuration\": \"eval_mode=Frontier \
         max_interactions=24 strategy=InformativePaths(3) answer_cache=1024 words_cache=8 \
         checkpoint_every=32 telemetry=disabled clients=1\"}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        std::env::consts::OS,
        std::env::consts::ARCH,
        commit(),
        args.workload.nodes,
        args.workload.edges_per_node,
    )
}

/// One set-up, from nothing: generate the inputs, build the service, run
/// the warm-up head of the stream.
fn set_up(
    workload: &Workload,
    seed: u64,
    store_dir: Option<PathBuf>,
) -> Fallible<Driver<RealService>> {
    let corpus = Corpus::generate(workload);
    let stream = Stream::new(workload, &corpus, seed);
    let service = match (corpus, store_dir) {
        (Corpus::Graph(graph), Some(dir)) => {
            let (manager, report) =
                gps_core::SessionManager::open_durable(&dir, configure(graph)).map_err(render)?;
            if !report.created {
                return Err("the scratch store directory was not fresh".to_string());
            }
            RealService::durable(manager, dir)
        }
        (Corpus::Csr(csr), None) => {
            let core = configure(gps_graph::Graph::new()).build_core_over(csr);
            RealService::in_memory(gps_core::SessionManager::new(core))
        }
        _ => unreachable!("only the live workload is durable, and it generates a Graph"),
    };
    let mut driver = Driver::new(*workload, service, stream);
    driver.warm_up();
    Ok(driver)
}

/// Sets up `workload.setups` times, each from nothing, and keeps the last.
/// Returns the seconds each took.
fn set_up_repeatedly(
    workload: &Workload,
    seed: u64,
    scratch: Option<&ScratchDir>,
) -> Fallible<(Driver<RealService>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut driver = None;
    for round in 0..workload.setups {
        drop(driver.take()); // free the previous set-up before timing the next
        let started = Instant::now();
        let dir = scratch.map(|scratch| scratch.path().join(format!("store-{round}")));
        driver = Some(set_up(workload, seed, dir)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((driver.expect("at least one set-up"), times))
}

/// The measured run on the library's own service.  `diagnose` sees the
/// service once the time box has closed, before anything is dropped.
/// Returns what the run recorded and the set-up times.
fn measured_run(
    args: &Args,
    seconds: f64,
    diagnose: impl FnOnce(&RealService, &Stream),
) -> Fallible<(Samples, Vec<f64>)> {
    let workload = &args.workload;
    let scratch = (workload.kind == Kind::LiveDurable)
        .then(|| ScratchDir::create(&output_root()?, args.seed))
        .transpose()?;
    let (mut driver, setup_s) = set_up_repeatedly(workload, args.seed, scratch.as_ref())?;
    driver.measure(seconds);

    let snapshot = driver.service().snapshot();
    let (service, stream, mut samples) = driver.finish();
    diagnose(&service, &stream);
    if let Some(scratch) = &scratch {
        let left = LeftBehind {
            dir: scratch
                .path()
                .join(format!("store-{}", workload.setups - 1)),
            epoch: snapshot.epoch(),
            snapshot_bytes: gps_store::encode_snapshot(&snapshot),
        };
        drop(service); // releases the directory lock: the "crash"
        durable::recoveries(&left, scratch.path(), workload.recoveries, &mut samples);
    }
    Ok((samples, setup_s))
}

fn run() -> Fallible<bool> {
    let args = parse_args()?;
    println!("stamp: {}", stamp(&args));
    let (samples, report, table) = if args.trace {
        let (samples, report) = traced::traced_run(&args)?;
        (samples, report, PER_LAYER)
    } else {
        let (samples, setup_s) = measured_run(&args, args.seconds, |_, _| {})?;
        let mut report = metrics::end_to_end(&samples, &setup_s);
        metrics::requests(&samples, &mut report);
        (samples, report, END_TO_END)
    };
    println!(
        "operations: attempted {} failed {} (sessions {}, updates {}, evaluations {}, recoveries {})",
        samples.attempted,
        samples.failed,
        samples.sessions,
        samples.updates,
        samples.eval_ms.len(),
        samples.recovery_ms.len(),
    );
    for failure in &samples.failures {
        println!("failure: {failure}");
    }
    metrics::print_spread(&samples);
    metrics::print_rows(&report, table, false);
    if !args.trace {
        // The requests behind the operation, by the names the traced run
        // decomposes them under.
        metrics::print_rows(&report, PER_LAYER, true);
    }
    println!("{}", metrics::result_line(&samples, &report, table));
    Ok(samples.failed == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("benchmark: {error}");
            std::process::exit(2);
        }
    }
}
