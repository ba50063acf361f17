//! Wall-clock benchmark of the saav workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo-stepped|fleet-sweep|city-dense> --seed <n> \
//!     --seconds <s> --trace <0|1> [--width <threads>]
//! ```
//!
//! Each run builds its inputs from `--seed`, measures whole passes of the
//! workload for about `--seconds`, checks the simulated outputs, and
//! prints a detail line (host record, sample counts, ratio bases, checks)
//! followed by the result line: `correct`, `attempted`, `failed` and the
//! metrics. `--trace 0` gives the end-to-end metrics from untraced passes;
//! `--trace 1` alternates untraced and traced passes and gives the
//! per-layer metrics, read from spans around the benchmark's calls into
//! each layer and from the program's mounted wall-clock telemetry.
//! `--width` sets the thread width of the parallel layers (default: the
//! host's core count).

mod bench;
mod city;
mod common;
mod digest;
mod fleet;
mod report;
mod solo;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::bench::drive;
use crate::common::Ctx;
use crate::report::json_str;

const USAGE: &str = "usage: perfbench --workload <solo-stepped|fleet-sweep|city-dense> --seed <n> --seconds <s> --trace <0|1> [--width <threads>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    width: Option<usize>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut width) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--width" => width = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if width == Some(0) {
        return Err("--width must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        width,
    })
}

/// The commit of the checkout, when it is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The benchmark's own files live beside its executable, inside the
    // build directory.
    let work_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-work")))
        .unwrap_or_else(|| PathBuf::from("perfbench-work"));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        width: args.width.unwrap_or(nproc),
        work_dir,
    };
    // Every layer is given its width explicitly; the variable names the
    // same width to `FleetRunner::new`, which resolves a default first and
    // otherwise probes the host's core count through procfs and cgroup
    // files on every call. That probe took 15 or 23 µs at random here, more
    // than the rest of `fleet-sweep`'s set-up, and it slowed under a
    // neighbour's load about twice as much as the timed phase did.
    std::env::set_var(saav_core::fleet::THREADS_ENV, ctx.width.to_string());
    let outcome = match args.workload.as_str() {
        "solo-stepped" => drive(&ctx, &solo::Solo),
        "fleet-sweep" => drive(&ctx, &fleet::Fleet),
        "city-dense" => drive(&ctx, &city::City),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = outcome.report;
    report.detail(
        "host",
        format!(
            "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            json_str(&cpu_model()),
            json_str(&rustc_version()),
            json_str(&git_commit())
        ),
    );
    report.detail(
        "run",
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace as u8
        ),
    );
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    report.print(
        &catalogue,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
    );
    ExitCode::SUCCESS
}
