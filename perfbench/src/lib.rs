//! The repository benchmark: three closed-loop workloads driven through
//! the workspace's public API.
//!
//! `perfbench` (system allocator, no spans) measures the end-to-end
//! metrics; `perfbench-traced` (counting allocator, spans around every
//! layer call) replays the same requests layer by layer and measures the
//! per-layer metrics. `perfbench/run.py` builds both and picks one from
//! `--trace`. See `perfbench/NOTES.md`.

pub mod alloc;
#[cfg(test)]
mod contract;
pub mod corpus;
pub mod e2e;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;

use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 13 Table 5 registry scenarios, in process.
    Table5Inproc,
    /// The other 8 registry scenarios, in process.
    ValidationInproc,
    /// The 21 spec files through the service over a process fleet.
    FleetSpecs,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(Workload, &'static str); 3] = [
        (Workload::Table5Inproc, "table5_inproc"),
        (Workload::ValidationInproc, "validation_inproc"),
        (Workload::FleetSpecs, "fleet_specs"),
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, n)| *n)
            .expect("every workload is listed")
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the inputs.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
///
/// # Errors
/// Describes the first missing or malformed flag.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(_, n)| *n == value)
                        .map(|(w, _)| *w)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Entry point of both binaries; `traced` tells which one is running.
/// Exits 0 only when every output was correct; exits 2 without a result
/// line when the run could not start.
pub fn main(traced: bool) {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if args.trace != traced {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        std::process::exit(2);
    }
    let run = if traced { traced::run } else { e2e::run };
    let (outcome, defs) = match run(&args) {
        Ok(outcome) => (
            outcome,
            if traced {
                &report::PER_LAYER[..]
            } else {
                &report::END_TO_END[..]
            },
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    outcome.print(defs);
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
/// When the kernel does not report it.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "the process status has no VmHWM line".to_string())
}

/// The `sparseloop-shard-worker` equivalent built beside this binary.
///
/// # Errors
/// When it is missing (the package was not built with `--bins`).
pub fn shard_worker_bin() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let bin = exe.with_file_name("perfbench-shard-worker");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} is missing; build with --bins", bin.display()))
    }
}

/// Set-up timings of one run. The first set-up is the one the measured
/// phase uses; more are timed between the measured phase's passes and
/// torn down untimed. The machine's speed drifts over seconds, so a
/// figure taken in the first milliseconds alone would not describe the
/// same machine as the run's other figures; the median over the run does.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one set-up.
    ///
    /// # Errors
    /// The set-up's own error.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let value = f()?;
        self.0.push(start.elapsed().as_secs_f64());
        Ok(value)
    }

    /// The median set-up time in seconds, and how many were timed.
    pub fn median(&self) -> (f64, usize) {
        (stats::median(&self.0), self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet_specs --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FleetSpecs);
        assert_eq!((a.seed, a.trace), (7, true));
        assert_eq!(a.seconds, Duration::from_secs(10));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet_specs --seed 1 --seconds 1").is_err());
        assert!(args("--workload fleet_specs --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fleet_specs --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet_specs --seed 1 --seconds 0 --trace 0").is_err());
    }
}
