//! The three algorithms under evaluation.

use serde::{Deserialize, Serialize};
use std::fmt;
use wsan_core::{
    NoReuse, ReuseAggressively, ReuseConservatively, ReuseTrigger, RhoReset, Scheduler,
};

/// One of the evaluated scheduling algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Standard WirelessHART: no channel reuse.
    Nr,
    /// Aggressive reuse at fixed hop distance `rho`.
    Ra {
        /// The fixed reuse hop distance (paper: 2).
        rho: u32,
    },
    /// Conservative reuse with floor `rho_t` (the paper's contribution).
    Rc {
        /// The minimum reuse hop distance (paper: 2).
        rho_t: u32,
    },
    /// RC with the pseudocode's per-flow `ρ` reset — ablation variant.
    RcPerFlow {
        /// The minimum reuse hop distance.
        rho_t: u32,
    },
    /// RC without the laxity heuristic (reuse only on certain deadline
    /// miss) — ablation variant quantifying what Eq. 1 buys.
    RcLite {
        /// The minimum reuse hop distance.
        rho_t: u32,
    },
}

impl Algorithm {
    /// The paper's comparison suite: NR, RA(ρ=2), RC(ρ_t=2).
    pub fn paper_suite() -> Vec<Algorithm> {
        vec![Algorithm::Nr, Algorithm::Ra { rho: 2 }, Algorithm::Rc { rho_t: 2 }]
    }

    /// The smallest hop distance at which the algorithm may let two
    /// transmissions share a cell, or `None` if it never reuses (NR).
    pub fn reuse_floor(&self) -> Option<u32> {
        match *self {
            Algorithm::Nr => None,
            Algorithm::Ra { rho } => Some(rho),
            Algorithm::Rc { rho_t }
            | Algorithm::RcLite { rho_t }
            | Algorithm::RcPerFlow { rho_t } => Some(rho_t),
        }
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler + Send + Sync> {
        match *self {
            Algorithm::Nr => Box::new(NoReuse::new()),
            Algorithm::Ra { rho } => Box::new(ReuseAggressively::new(rho)),
            Algorithm::Rc { rho_t } => Box::new(ReuseConservatively::new(rho_t)),
            Algorithm::RcPerFlow { rho_t } => {
                Box::new(ReuseConservatively::new(rho_t).with_reset(RhoReset::PerFlow))
            }
            Algorithm::RcLite { rho_t } => Box::new(
                ReuseConservatively::new(rho_t).with_trigger(ReuseTrigger::DeadlineMissOnly),
            ),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Nr => write!(f, "NR"),
            Algorithm::Ra { .. } => write!(f, "RA"),
            Algorithm::Rc { .. } => write!(f, "RC"),
            Algorithm::RcPerFlow { .. } => write!(f, "RC/flow"),
            Algorithm::RcLite { .. } => write!(f, "RC-lite"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_is_nr_ra_rc() {
        let names: Vec<String> = Algorithm::paper_suite().iter().map(|a| a.to_string()).collect();
        assert_eq!(names, vec!["NR", "RA", "RC"]);
    }

    #[test]
    fn build_produces_named_schedulers() {
        assert_eq!(Algorithm::Nr.build().name(), "NR");
        assert_eq!(Algorithm::Ra { rho: 2 }.build().name(), "RA");
        assert_eq!(Algorithm::Rc { rho_t: 2 }.build().name(), "RC");
        assert_eq!(Algorithm::RcPerFlow { rho_t: 2 }.build().name(), "RC");
    }

    #[test]
    fn reuse_floor_is_the_smallest_reuse_distance() {
        assert_eq!(Algorithm::Nr.reuse_floor(), None);
        assert_eq!(Algorithm::Ra { rho: 3 }.reuse_floor(), Some(3));
        for rc in [
            Algorithm::Rc { rho_t: 4 },
            Algorithm::RcLite { rho_t: 4 },
            Algorithm::RcPerFlow { rho_t: 4 },
        ] {
            assert_eq!(rc.reuse_floor(), Some(4), "{rc}");
        }
    }
}
