//! [`DesTransport`] — the discrete-event simulator as a verified test
//! double.
//!
//! The DES backend does not re-implement message passing: inside the
//! simulator the transport seam already exists as
//! [`dde_netsim::Context`] (sends, timers, clock) and the engine's event
//! loop. `DesTransport` is the *scenario-level* counterpart of
//! [`crate::run_cluster_tcp`]: one scenario in, one report out, from
//! `dde_core::engine::run_scenario*` — the oracle every committed
//! artifact (traces, `RunReport`s, the determinism suites) is pinned to.
//!
//! Use the DES backend for anything that must be reproducible — CI
//! regression baselines, ablation sweeps, trace diffs. Use the TCP
//! backend ([`crate::run_cluster_tcp`]) to run the same scenario on real
//! sockets; the equivalence suite holds the two to the same decision
//! outcomes and attributed byte totals.

use dde_core::{RunOptions, RunReport};
use dde_obs::Sink;
use dde_workload::scenario::Scenario;

/// The deterministic cluster backend: one [`Scenario`] in, one
/// [`RunReport`] out, via the simulator.
#[derive(Debug, Clone)]
pub struct DesTransport {
    options: RunOptions,
}

impl DesTransport {
    /// A DES backend running every scenario under `options`.
    pub fn new(options: RunOptions) -> DesTransport {
        DesTransport { options }
    }

    /// The options every run of this backend uses.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Runs `scenario` to quiescence, unobserved (no trace overhead, no
    /// ledger).
    pub fn run(&self, scenario: &Scenario) -> RunReport {
        dde_core::run_scenario(scenario, self.options.clone())
    }

    /// Runs `scenario` with the full event lifecycle streamed into
    /// `sink` and a live cost ledger folded into the report.
    pub fn run_observed(&self, scenario: &Scenario, sink: Box<dyn Sink>) -> RunReport {
        dde_core::run_scenario_observed(scenario, self.options.clone(), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_core::Strategy;
    use dde_workload::scenario::ScenarioConfig;

    #[test]
    fn des_transport_is_observationally_identical_to_the_engine() {
        // The acceptance criterion in miniature: running through the new
        // API must reproduce the direct engine call exactly — full
        // RunReport equality, not just summary fields.
        let scenario = Scenario::build(ScenarioConfig::small().with_seed(11));
        let options = RunOptions::new(Strategy::Lvf);
        let direct = dde_core::run_scenario(&scenario, options.clone());
        let via_transport = DesTransport::new(options).run(&scenario);
        assert_eq!(direct, via_transport);
    }
}
