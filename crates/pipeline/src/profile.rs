//! Host-time profile of the cycle loop's stages, compiled in only with
//! the `profile` cargo feature.
//!
//! Each stage of [`Cpu::step`](crate::Cpu::step) adds its wall time to
//! one accumulator. The profile covers the same span as the run
//! counters: [`Cpu::reset_metrics`](crate::Cpu::reset_metrics) clears
//! it, so after a warmup it describes the measured phase only. Read it
//! with [`Cpu::stage_profile`](crate::Cpu::stage_profile).

use std::time::Duration;

/// Host time spent in each stage of the cycle loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Register file models' `begin_cycle` (port budgets, bus transfers).
    pub begin_cycle: Duration,
    /// Execute events: memory execute stages and completions.
    pub process_events: Duration,
    /// Commit from the reorder-buffer head.
    pub commit: Duration,
    /// Write-back through the register file write ports.
    pub writeback: Duration,
    /// Wakeup and the issue scan.
    pub issue: Duration,
    /// Decode and rename.
    pub dispatch: Duration,
    /// Fetch, including pulling instructions from the trace.
    pub fetch: Duration,
}

impl StageProfile {
    /// The stages in cycle-loop order, as `(name, time)` pairs.
    pub fn stages(&self) -> [(&'static str, Duration); 7] {
        [
            ("begin_cycle", self.begin_cycle),
            ("process_events", self.process_events),
            ("commit", self.commit),
            ("writeback", self.writeback),
            ("issue", self.issue),
            ("dispatch", self.dispatch),
            ("fetch", self.fetch),
        ]
    }
}
