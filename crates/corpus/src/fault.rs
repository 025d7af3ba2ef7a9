//! Seeded fault injection for the parallel harness.
//!
//! A [`FaultPlan`] names corpus apps whose evaluation worker should panic
//! mid-run.  [`crate::table2_parallel`] consults the plan inside
//! each worker thread: a planned (or genuine) panic is caught with
//! `catch_unwind` and converted into a placeholder [`crate::Table2Row`]
//! carrying one `ICE0001` diagnostic, so one crashing app can never abort
//! the rest of the suite.  The plan is deterministic in its seed, which is
//! what lets the robustness tests assert the exact set of degraded rows.

use std::collections::BTreeSet;

/// The diagnostic code for an internal harness error (a worker panic).
pub const ICE_CODE: &str = "ICE0001";

/// A deterministic plan of which apps' evaluation workers panic.
///
/// The default ([`FaultPlan::none`]) injects nothing and is the plan every
/// production entry point runs under.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panic_apps: BTreeSet<String>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A seeded plan panicking the workers of `count` distinct apps, chosen
    /// deterministically from the corpus by `seed`.
    pub fn seeded(seed: u64, count: usize) -> Self {
        let mut rng = test_rng::Rng::new(seed | 1);
        let mut names: Vec<String> =
            crate::apps::all().iter().map(|a| a.name.to_string()).collect();
        let mut panic_apps = BTreeSet::new();
        for _ in 0..count.min(names.len()) {
            let i = rng.below(names.len() as u64) as usize;
            panic_apps.insert(names.swap_remove(i));
        }
        FaultPlan { panic_apps }
    }

    /// Adds one app by name to the panic set.
    pub fn with_app(mut self, name: &str) -> Self {
        self.panic_apps.insert(name.to_string());
        self
    }

    /// Whether this plan injects a panic into `app`'s worker.
    pub fn panics_for(&self, app: &str) -> bool {
        self.panic_apps.contains(app)
    }

    /// The planned app names, in sorted order.
    pub fn apps(&self) -> impl Iterator<Item = &str> {
        self.panic_apps.iter().map(String::as_str)
    }

    /// Number of apps the plan will panic.
    pub fn len(&self) -> usize {
        self.panic_apps.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_apps.is_empty()
    }
}

/// Extracts a printable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let a = FaultPlan::seeded(7, 2);
        let b = FaultPlan::seeded(7, 2);
        assert_eq!(a.apps().collect::<Vec<_>>(), b.apps().collect::<Vec<_>>());
        assert_eq!(a.len(), 2);
        let corpus: BTreeSet<String> =
            crate::apps::all().iter().map(|x| x.name.to_string()).collect();
        for name in a.apps() {
            assert!(corpus.contains(name), "planned app {name} is not in the corpus");
        }
    }

    #[test]
    fn empty_plan_panics_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for app in crate::apps::all() {
            assert!(!plan.panics_for(app.name));
        }
    }
}
