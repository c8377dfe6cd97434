//! The repository benchmark: one named workload from a seed, checked
//! outputs, and one JSON result line. Normally started through
//! `python3 perfbench/run.py`, which builds this binary and the CLI
//! first; see README.md in this directory.
//!
//! ```text
//! pacman-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  --cli <path to pacman-cli> --out <output dir>
//! ```

mod daemon;
mod inproc;
mod probes;
mod report;
mod stats;
mod stream;

use std::path::PathBuf;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, as named in BENCHMARK.json.
pub const WORKLOADS: [&str; 3] = ["oracle_campaign", "brute_window", "daemon_tenants"];

/// One run's arguments.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `pacman-cli` binary.
    pub cli: PathBuf,
    /// Directory for the run's files (references, daemon state, spans).
    pub out: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{key} needs a value"))
    };
    let num = |key: &str| -> Result<f64, String> {
        get(key)?.parse::<f64>().map_err(|_| format!("{key} is not a number"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {WORKLOADS:?})"));
    }
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Ctx {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "--seed is not an integer".to_string())?,
        seconds,
        trace,
        cli: PathBuf::from(get("--cli")?),
        out: PathBuf::from(get("--out")?),
    })
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    Ok(match (ctx.workload.as_str(), ctx.trace) {
        ("oracle_campaign", false) => inproc::end_to_end(ctx, inproc::Kind::Oracle),
        ("oracle_campaign", true) => inproc::traced(ctx, inproc::Kind::Oracle),
        ("brute_window", false) => inproc::end_to_end(ctx, inproc::Kind::Brute),
        ("brute_window", true) => inproc::traced(ctx, inproc::Kind::Brute),
        (_, false) => daemon::end_to_end(ctx)?,
        (_, true) => daemon::traced(ctx)?,
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&ctx) {
        Ok(report) => {
            for c in &report.check_failures {
                eprintln!("perfbench: check failed: {c}");
            }
            let catalogue = if ctx.trace { PER_LAYER } else { END_TO_END };
            print!("{}", report.line(catalogue));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
