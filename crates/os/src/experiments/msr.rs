//! The MSR inventory experiment.

use pacman_isa::SysReg;

use crate::env::{BareMetal, MsrAccess};
use crate::experiment::Experiment;

/// Probes every modelled system register at EL1 and records access and
/// value. On the real M1 this is how undocumented registers (like
/// Apple's `PMC0`/`PMCR0`) were mapped out.
#[derive(Debug, Default)]
pub struct MsrInventory {
    results: Vec<(SysReg, MsrAccess)>,
}

impl MsrInventory {
    /// Creates the experiment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The probe results of the last run.
    pub fn results(&self) -> &[(SysReg, MsrAccess)] {
        &self.results
    }
}

impl Experiment for MsrInventory {
    fn name(&self) -> &'static str {
        "msr-inventory"
    }

    fn run(&mut self, os: &mut BareMetal, lines: &mut Vec<String>) -> bool {
        self.results.clear();
        for reg in SysReg::ALL {
            let access = os.probe_msr(reg);
            match access {
                MsrAccess::Readable(v) => lines.push(format!("{reg:<18} readable, value {v:#x}")),
                MsrAccess::Inaccessible => lines.push(format!("{reg:<18} inaccessible")),
            }
            self.results.push((reg, access));
        }
        // At EL1 everything modelled should be readable, and CNTFRQ must
        // report the paper's 24 MHz.
        self.results.iter().all(|(_, a)| matches!(a, MsrAccess::Readable(_)))
            && self
                .results
                .iter()
                .any(|(r, a)| *r == SysReg::CntfrqEl0 && *a == MsrAccess::Readable(24_000_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_every_register() {
        let mut os = BareMetal::boot_default();
        let mut exp = MsrInventory::new();
        let report = os.run(&mut exp);
        assert!(report.ok, "{report}");
        assert_eq!(exp.results().len(), SysReg::ALL.len());
        assert_eq!(report.lines.len(), SysReg::ALL.len());
    }
}
