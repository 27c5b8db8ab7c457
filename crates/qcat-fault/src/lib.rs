#![deny(missing_docs)]

//! Resource governance and fault injection for the qcat workspace.
//!
//! The paper bounds the *user's* effort (Eq. 1/2 information-overload
//! cost); this crate bounds the *system's*. It has two halves that
//! share one design: a thread-scoped "current" handle over an optional
//! process global, exactly like `qcat_obs`'s recorder, so the disabled
//! path is one thread-local `Cell` read plus one relaxed atomic load.
//!
//! - [`budget`]: a declarative [`Budget`] (wall-clock deadline via a
//!   monotonic clock, caps on result rows / tree nodes / labels / an
//!   estimated heap) started into a running [`Gas`] that pipeline
//!   stages charge against. Exhaustion is *sticky* and cooperative:
//!   the first failed charge trips a flag, every later checkpoint sees
//!   it, and callers unwind to a serial point where they can return a
//!   structured error (`qcat-exec`) or a degraded prefix tree
//!   (`core`). See `docs/ROBUSTNESS.md` for the degradation ladder.
//! - [`fault`]: deterministic, seedable fault points. Library code
//!   calls [`fault::point`]`("exec.scan")`; a binary opts in with
//!   `QCAT_FAULT=exec.scan:error:p=0.5:seed=7` (see the grammar on
//!   [`fault::FaultPlan::parse`]) and the site then injects errors,
//!   delays, panics, or allocation pressure with a per-rule
//!   splitmix64 stream. With no plan installed every site is a no-op
//!   flag read.
//!
//! Both halves report through `qcat-obs` (`budget.exceeded`,
//! `fault.injected` counters); events are left to the serving layer so
//! worker threads never write to the single-threaded trace stream.

pub mod budget;
pub mod fault;

pub use budget::{current_gas, with_budget, Budget, BudgetExceeded, Gas};
pub use fault::{current_plan, init_from_env, install_global, point, with_plan, Fault, FaultPlan};

/// Everything a worker thread needs to observe the caller's fault and
/// budget context: the current [`FaultPlan`] and [`Gas`], captured on
/// the spawning thread and re-installed inside the worker via
/// [`Propagation::scope`]. `qcat-pool` uses this the same way it
/// forwards the `qcat-obs` recorder.
#[derive(Clone, Debug, Default)]
pub struct Propagation {
    plan: Option<FaultPlan>,
    gas: Option<Gas>,
}

/// Capture the calling thread's current fault plan and gas.
pub fn capture() -> Propagation {
    Propagation {
        plan: current_plan(),
        gas: current_gas(),
    }
}

impl Propagation {
    /// True when there is nothing to propagate (the common case).
    pub fn is_empty(&self) -> bool {
        self.plan.is_none() && self.gas.is_none()
    }

    /// The captured gas, if any.
    pub fn gas(&self) -> Option<&Gas> {
        self.gas.as_ref()
    }

    /// Run `f` with the captured context installed as this thread's
    /// current fault plan and budget. Restores the previous context
    /// even if `f` panics.
    pub fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        match (&self.plan, &self.gas) {
            (None, None) => f(),
            (Some(p), None) => with_plan(p, f),
            (None, Some(g)) => with_budget(g, f),
            (Some(p), Some(g)) => with_plan(p, || with_budget(g, f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_propagation_is_transparent() {
        let ctx = capture();
        assert!(ctx.is_empty());
        assert_eq!(ctx.scope(|| 7), 7);
    }

    #[test]
    fn propagation_carries_plan_and_gas() {
        let plan = FaultPlan::parse("test.site:error").unwrap();
        let budget = Budget::default().with_max_rows(10);
        let gas = budget.start();
        let ctx = with_plan(&plan, || with_budget(&gas, capture));
        assert!(!ctx.is_empty());
        ctx.scope(|| {
            assert!(point("test.site").is_some());
            assert!(current_gas().is_some());
        });
        // Outside the scope both are gone again.
        assert!(point("test.site").is_none());
        assert!(current_gas().is_none());
    }
}
