//! The one-experiment-per-boot harness.

use crate::env::BareMetal;

/// Result of one experiment run.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ExperimentReport {
    /// Experiment name.
    pub name: &'static str,
    /// Human-readable result lines.
    pub lines: Vec<String>,
    /// Simulated cycles the experiment consumed.
    pub cycles: u64,
    /// Whether the experiment's own invariants held.
    pub ok: bool,
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[PacmanOS] {} ({} cycles, {})",
            self.name,
            self.cycles,
            if self.ok { "ok" } else { "FAILED" }
        )?;
        for l in &self.lines {
            writeln!(f, "    {l}")?;
        }
        Ok(())
    }
}

/// A single bare-metal experiment. PacmanOS boots, runs exactly one of
/// these, and reports — mirroring the paper's "runs a single experiment
/// directly on the bare hardware".
pub trait Experiment {
    /// Stable experiment name.
    fn name(&self) -> &'static str;
    /// Runs against the bare machine, appending result lines.
    fn run(&mut self, os: &mut BareMetal, lines: &mut Vec<String>) -> bool;
}

/// Boots + runs experiments, quiescing the machine before each.
#[derive(Debug)]
pub struct Runner {
    os: BareMetal,
}

impl Runner {
    /// Wraps a booted environment.
    pub fn new(os: BareMetal) -> Self {
        Self { os }
    }

    /// Runs one experiment from a quiesced machine.
    pub fn run(&mut self, experiment: &mut dyn Experiment) -> ExperimentReport {
        self.os.quiesce();
        let before = self.os.machine.cycles;
        let mut lines = Vec::new();
        let ok = experiment.run(&mut self.os, &mut lines);
        ExperimentReport {
            name: experiment.name(),
            lines,
            cycles: self.os.machine.cycles - before,
            ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Trivial;
    impl Experiment for Trivial {
        fn name(&self) -> &'static str {
            "trivial"
        }
        fn run(&mut self, os: &mut BareMetal, lines: &mut Vec<String>) -> bool {
            let page = os.alloc_pages(1);
            let cold = os.timed_load(page).expect("mapped");
            lines.push(format!("cold load: {cold} cycles"));
            cold > 0
        }
    }

    #[test]
    fn runner_reports_cycles_and_lines() {
        let mut runner = Runner::new(BareMetal::boot_default());
        let report = runner.run(&mut Trivial);
        assert!(report.ok);
        assert_eq!(report.name, "trivial");
        assert_eq!(report.lines.len(), 1);
        assert!(report.cycles > 0);
        assert!(report.to_string().contains("cold load"));
    }
}
