//! `pacman-cli` — drive the PACMAN reproduction from the command line.
//!
//! Run `pacman-cli --help` for the commands and their options; each
//! command is declared once, in `commands::COMMANDS`.
//!
//! Every command speaks JSONL when `--json` or `--metrics-out` is given.
//! `reproduce` regenerates the paper's artefacts
//! (`pacman_bench::experiments::EXPERIMENTS`) into `results/`; `verify`
//! loads a directory of `BENCH_<id>.json` artefacts, diffs each field
//! against the paper's claims with per-metric tolerance bands (see
//! `pacman_bench::claims`), prints the pass/fail matrix, and exits
//! nonzero if anything is out of tolerance or missing.

mod args;
mod commands;
mod jobctx;
mod service;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run 'pacman-cli --help' for usage");
            std::process::exit(2);
        }
    };
    if parsed.flag("help") || parsed.command.is_none() {
        print!("{}", commands::usage());
        return;
    }
    let code = match commands::dispatch(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    };
    std::process::exit(code);
}
