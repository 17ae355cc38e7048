//! Conflict budgets for bounded solving.
//!
//! A [`Budget`] caps how many conflicts one `solve` call may analyze
//! before giving up with [`SolveResult::Unknown`](crate::SolveResult::Unknown).
//! Exhaustion is not failure: the solver keeps every clause it learnt and
//! stays at decision level 0, so the caller can retry with a larger
//! budget, add constraints, or walk away with a partial result. The
//! attack engine bounds each step this way and degrades gracefully when
//! the bound trips. Conflicts are counted, not time, so a budgeted run
//! takes the same path on every machine.

/// The conflict limit of one
/// [`Solver::solve_limited`](crate::Solver::solve_limited) call. `None`
/// means unlimited.
///
/// The limit is *per call*: it counts conflicts analyzed by this call
/// only, not lifetime totals, so a warm incremental solver can be driven
/// through many equally-bounded calls.
///
/// # Example
///
/// ```
/// use satsolver::Budget;
///
/// let b = Budget::new().with_conflicts(10_000);
/// assert!(!b.is_unlimited());
/// assert!(Budget::new().is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum conflicts this call may analyze.
    pub conflicts: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub fn new() -> Budget {
        Budget::default()
    }

    /// Caps the number of conflicts.
    #[must_use]
    pub fn with_conflicts(mut self, conflicts: u64) -> Budget {
        self.conflicts = Some(conflicts);
        self
    }

    /// Whether the call is unlimited (it can never return `Unknown`).
    pub fn is_unlimited(&self) -> bool {
        self.conflicts.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_fields() {
        let b = Budget::new().with_conflicts(5);
        assert_eq!(b.conflicts, Some(5));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn default_is_unlimited() {
        assert!(Budget::new().is_unlimited());
        assert!(Budget::default().is_unlimited());
    }
}
