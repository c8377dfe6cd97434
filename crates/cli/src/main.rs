//! `pacman-cli` — drive the PACMAN reproduction from the command line.
//!
//! Each command and each of its options is declared once, in
//! `commands::COMMANDS`: `Args::parse` range-checks every option against
//! its declaration before any command runs, and `pacman-cli --help` is
//! rendered from the same table. Every command speaks JSONL when
//! `--json` or `--metrics-out` is given. `reproduce` regenerates the
//! paper's artefacts into `results/`; `verify` diffs them against the
//! paper's claims (`pacman_bench::claims`) and exits nonzero if anything
//! is out of tolerance or missing.

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
