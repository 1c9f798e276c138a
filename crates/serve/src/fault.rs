//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a declarative description of the faults a server
//! run should suffer: worker panics on the Nth batch, artificially slow
//! forward passes, and NaN-poisoned predictions. Plans are injected
//! through `ServerBuilder::fault_plan` and compiled once at server start
//! into per-worker [`WorkerFaults`] tables; a server started without a
//! plan carries `None` and the hot path never consults the subsystem at
//! all.
//!
//! Determinism is the point: the chaos battery replays the *same* worker
//! kills at the *same* batch ordinals on every run, so "the server healed
//! and answered bit-exactly" is a reproducible assertion, not a flake.
//!
//! Batch ordinals count over a worker's whole lifetime (respawns do not
//! reset them), so a [`FaultPlan::panic_worker`] entry fires exactly once.

use std::time::Duration;

/// A deterministic description of the faults to inject into a serving
/// run, built with the fluent methods from [`FaultPlan::default`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    panics: Vec<(usize, u64)>,
    nans: Vec<(usize, u64)>,
    slow: Option<Duration>,
    backoff: Option<Duration>,
}

impl FaultPlan {
    /// Worker `worker` panics when it picks up its `batch`th batch
    /// (1-based, counted over the worker's lifetime across respawns).
    pub fn panic_worker(mut self, worker: usize, batch: u64) -> Self {
        self.panics.push((worker, batch));
        self
    }

    /// Worker `worker` overwrites its `batch`th batch's predictions with
    /// NaN (exercises the non-finite drift counters downstream).
    pub fn nan_worker(mut self, worker: usize, batch: u64) -> Self {
        self.nans.push((worker, batch));
        self
    }

    /// Every forward pass sleeps this long before running.
    pub fn slow_predict(mut self, delay: Duration) -> Self {
        self.slow = Some(delay);
        self
    }

    /// Override the supervisor's initial respawn backoff (tests use a large
    /// value to hold a worker down long enough to observe `/readyz` 503).
    pub fn respawn_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// The supervisor backoff override, if any.
    pub(crate) fn backoff_override(&self) -> Option<Duration> {
        self.backoff
    }

    /// Compile the plan into one fault table per worker. Out-of-range
    /// worker indices are ignored (a 2-worker deployment of a
    /// `panic_worker(7, 1)` plan simply never fires it).
    pub(crate) fn compile(&self, workers: usize) -> Vec<WorkerFaults> {
        let mut faults = vec![WorkerFaults::default(); workers];
        for &(worker, batch) in &self.panics {
            if let Some(f) = faults.get_mut(worker) {
                f.panic_on.push(batch);
            }
        }
        for &(worker, batch) in &self.nans {
            if let Some(f) = faults.get_mut(worker) {
                f.nan_on.push(batch);
            }
        }
        for f in &mut faults {
            f.slow = self.slow;
            f.panic_on.sort_unstable();
            f.panic_on.dedup();
            f.nan_on.sort_unstable();
            f.nan_on.dedup();
        }
        faults
    }
}

/// One worker's compiled fault table. `Default` (all empty) injects
/// nothing; the worker loop only consults it through an `Option`, so a
/// server without a plan pays nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerFaults {
    /// 1-based lifetime batch ordinals at which this worker panics.
    pub panic_on: Vec<u64>,
    /// 1-based lifetime batch ordinals whose predictions get NaN-poisoned.
    pub nan_on: Vec<u64>,
    /// Sleep before every forward pass.
    pub slow: Option<Duration>,
}

impl WorkerFaults {
    pub(crate) fn is_empty(&self) -> bool {
        self.panic_on.is_empty() && self.nan_on.is_empty() && self.slow.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_ignores_out_of_range_workers_and_dedups_ordinals() {
        let plan = FaultPlan::default()
            .panic_worker(7, 1)
            .panic_worker(0, 2)
            .panic_worker(0, 2)
            .nan_worker(9, 1);
        let faults = plan.compile(2);
        assert_eq!(faults[0].panic_on, vec![2]);
        assert!(faults[1].is_empty());
    }
}
