//! Host-time benchmark of the FlashAbacus reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload hetero_campaign --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the environment, the workload's digest of simulated results,
//! every metric with its unit and sample count, and as the last line one
//! JSON object: `--trace 0` gives the end-to-end metrics, `--trace 1` the
//! per-layer ones. See `README.md` beside this crate.

mod bench;
mod churn;
mod device;
mod hetero;
mod openloop;
mod replay;
mod report;
mod trace;

use bench::Workload;
use std::process::ExitCode;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["hetero_campaign", "gc_churn", "openloop_burst"];

/// Data-set divisor of every workload: the harness default.
const DATA_SCALE: u64 = 16;

/// Variables the program reads for itself; a stray one would silently
/// measure a different program.
const REFUSED_ENV: [&str; 5] = [
    "FA_SHARDS",
    "FA_FAULTS",
    "FA_THREADS",
    "FA_DATA_SCALE",
    "FA_ARRIVALS",
];

/// Full size, or the small size the smoke tests run.
fn make(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match (name, smoke) {
        ("hetero_campaign", false) => Box::new(hetero::Hetero::new(DATA_SCALE, 14)),
        ("hetero_campaign", true) => Box::new(hetero::Hetero::new(512, 1)),
        ("gc_churn", false) => Box::new(churn::Churn::new(60_000)),
        ("gc_churn", true) => Box::new(churn::Churn::new(600)),
        ("openloop_burst", false) => Box::new(openloop::OpenLoop::new(DATA_SCALE, 2000)),
        ("openloop_burst", true) => Box::new(openloop::OpenLoop::new(256, 48)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0xFA10,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=60.0).contains(&out.seconds) {
                    return Err(bad(&"must lie in 0..=60"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn environment(args: &Args) -> String {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env nproc={nproc} available_parallelism={parallelism} rustc=\"{}\" commit={} \
         data_scale=1/{DATA_SCALE} seed={} seconds={} trace={}",
        env!("HOSTBENCH_RUSTC"),
        git_commit(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "hostbench: refusing to run with {} set: unset it to measure the default program",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    println!("{}", environment(&args));
    let mut w = make(&args.workload, false).expect("parse_args checked the name");
    let result = bench::run(
        &args.workload,
        w.as_mut(),
        args.seed,
        args.seconds,
        args.trace,
    );
    for line in &result.lines {
        println!("{line}");
    }
    println!("{}", result.outcome.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload gc_churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload gc_churn --trace 2").is_err());
        assert!(args("--workload gc_churn --seconds").is_err());
        assert!(args("--workload gc_churn --seconds 61").is_err());
    }

    fn smoke(name: &str, traced: bool) {
        let mut w = make(name, true).unwrap();
        let r = bench::run(name, w.as_mut(), 3, 0.0, traced);
        assert!(r.outcome.correct, "{name}: {:?}", r.lines);
        assert_eq!(r.outcome.failed, 0);
        assert!(r.outcome.attempted >= 2);
        let defs = if traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let names: Vec<&str> = r.outcome.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        for m in &r.outcome.metrics {
            assert!(m.value.is_finite(), "{name}: {m:?}");
            if !traced {
                assert!(m.value > 0.0, "{name}: end-to-end {m:?} is never 0");
            }
        }
        for d in defs {
            let json = r.outcome.json();
            assert!(json.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(r.lines.iter().any(|l| l.starts_with("digest ")));
        assert!(r.lines.iter().any(|l| l.contains("fail_rate")));
    }

    #[test]
    fn hetero_campaign_smoke() {
        smoke("hetero_campaign", false);
        smoke("hetero_campaign", true);
    }

    #[test]
    fn gc_churn_smoke() {
        smoke("gc_churn", false);
        smoke("gc_churn", true);
    }

    #[test]
    fn openloop_burst_smoke() {
        smoke("openloop_burst", false);
        smoke("openloop_burst", true);
    }

    #[test]
    fn the_churn_seed_changes_inputs_and_results_repeat() {
        let digest = |seed| {
            let mut w = make("gc_churn", true).unwrap();
            w.setup(seed);
            w.pass(&mut trace::Tracer::new(false)).digest
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }
}
