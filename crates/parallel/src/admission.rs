//! Admission control: a machine-wide budget of worker tokens.
//!
//! The persistent pool makes workers shared; admission control makes them
//! *rationed*. An [`Admission`] controller holds a fixed budget of tokens,
//! each standing for one pool worker a query phase may enlist beyond its
//! own calling thread. Every parallel phase acquires a grant before fanning
//! out and releases it (by dropping the [`AdmissionGrant`]) when the phase
//! ends, so N concurrent queries share one thread allotment instead of
//! oversubscribing the machine N-fold.
//!
//! There is one acquisition mode, [`try_acquire`](Admission::try_acquire):
//! it never blocks and returns whatever is available, down to an empty
//! grant. An empty grant means "run sequentially on your own thread" —
//! graceful degradation rather than queuing (the calling thread exists
//! anyway, so total thread pressure stays bounded by callers + budget).
//! Queuing belongs to the serving tier, whose fixed set of serving threads
//! bounds how many requests execute at once; a served request holds no
//! token of its own, so every token stays available to query phases.

use std::sync::{Arc, Mutex, OnceLock};

use crate::pool::lock_clean;

/// Admission metric cells (`blend_admission_*`), resolved once and shared
/// by every controller in the process.
struct AdmissionMetrics {
    /// Tokens currently held by live grants.
    tokens_in_use: Arc<blend_obs::Gauge>,
    /// Non-empty grants handed out.
    grants: Arc<blend_obs::Counter>,
}

fn admission_metrics() -> &'static AdmissionMetrics {
    static METRICS: OnceLock<AdmissionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        AdmissionMetrics {
            tokens_in_use: r.gauge("blend_admission_tokens_in_use"),
            grants: r.counter("blend_admission_grants_total"),
        }
    })
}

/// Environment variable overriding the process-wide admission budget (the
/// maximum number of concurrently granted helper-worker tokens). Defaults
/// to `threads - 1` of the shared context, i.e. the whole pool.
pub const GRANTS_ENV: &str = "BLEND_MAX_CONCURRENT_GRANTS";

/// A token-bucket admission controller. Cheap to share (`Arc`); one
/// instance per thread budget — the process-shared context owns one sized
/// from the environment, tests build their own to force contention.
#[derive(Debug)]
pub struct Admission {
    budget: usize,
    available: Mutex<usize>,
}

impl Admission {
    /// Controller with `budget` grantable tokens.
    pub fn new(budget: usize) -> Arc<Admission> {
        Arc::new(Admission {
            budget,
            available: Mutex::new(budget),
        })
    }

    /// The total token budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Tokens not currently granted (a snapshot; immediately stale under
    /// concurrency — tests use it only at quiescent points).
    pub fn available(&self) -> usize {
        *lock_clean(&self.available)
    }

    /// Take up to `desired` tokens without blocking. The grant may be
    /// empty; callers must then fall back to sequential execution.
    pub fn try_acquire(self: &Arc<Self>, desired: usize) -> AdmissionGrant {
        if desired == 0 || self.budget == 0 {
            return AdmissionGrant::empty();
        }
        let mut available = lock_clean(&self.available);
        let tokens = (*available).min(desired);
        *available -= tokens;
        drop(available);
        if tokens > 0 {
            let m = admission_metrics();
            m.tokens_in_use.add(tokens as i64);
            m.grants.inc();
        }
        AdmissionGrant {
            admission: (tokens > 0).then(|| self.clone()),
            tokens,
        }
    }

    fn release(&self, tokens: usize) {
        admission_metrics().tokens_in_use.add(-(tokens as i64));
        let mut available = lock_clean(&self.available);
        *available += tokens;
        debug_assert!(*available <= self.budget, "token over-release");
    }
}

/// RAII token grant: holds `tokens` helper-worker tokens until dropped.
#[derive(Debug)]
pub struct AdmissionGrant {
    /// `None` for empty grants, which hold nothing and release nothing.
    admission: Option<Arc<Admission>>,
    tokens: usize,
}

impl AdmissionGrant {
    /// A grant of zero tokens (the sequential-fallback signal).
    pub fn empty() -> AdmissionGrant {
        AdmissionGrant {
            admission: None,
            tokens: 0,
        }
    }

    /// Number of helper-worker tokens held.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// True when no tokens were granted.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }
}

impl Drop for AdmissionGrant {
    fn drop(&mut self) {
        if let Some(admission) = self.admission.take() {
            admission.release(self.tokens);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_acquire_degrades_to_empty() {
        let adm = Admission::new(3);
        let g1 = adm.try_acquire(2);
        assert_eq!(g1.tokens(), 2);
        let g2 = adm.try_acquire(2);
        assert_eq!(g2.tokens(), 1, "partial grant under pressure");
        let g3 = adm.try_acquire(2);
        assert!(g3.is_empty(), "exhausted budget grants nothing");
        drop(g1);
        assert_eq!(adm.available(), 2);
        drop((g2, g3));
        assert_eq!(adm.available(), 3);
    }

    #[test]
    fn zero_budget_never_blocks() {
        let adm = Admission::new(0);
        assert!(adm.try_acquire(4).is_empty());
        assert!(adm.try_acquire(0).is_empty());
        assert_eq!(adm.available(), 0);
    }

    #[test]
    fn desired_is_capped_by_budget() {
        let adm = Admission::new(2);
        let g = adm.try_acquire(100);
        assert_eq!(g.tokens(), 2);
        drop(g);
        assert_eq!(adm.available(), 2);
    }
}
