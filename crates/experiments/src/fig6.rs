//! Figure 6: PT-Guard slowdown vs. the unprotected baseline, with per-
//! workload LLC-MPKI, over the 25 SPEC/GAP workloads.

use ptguard::PtGuardConfig;
use simx::{simulate_workload, Protection};
use workloads::ALL_WORKLOADS;

use crate::report::{amean, gmean, pct, Table};
use crate::{salted, Scale};

/// One workload's row of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub name: String,
    /// Normalized IPC (`IPC_ptguard / IPC_baseline`; 1.0 = no slowdown).
    pub normalized_ipc: f64,
    /// LLC misses per kilo-instruction (baseline run).
    pub mpki: f64,
}

/// The full Figure 6 data set.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Per-workload rows, paper order.
    pub rows: Vec<Fig6Row>,
    /// Geometric-mean normalized IPC.
    pub gmean_ipc: f64,
    /// Arithmetic-mean normalized IPC.
    pub amean_ipc: f64,
}

impl Fig6Result {
    /// Mean slowdown (1 − GMEAN normalized IPC).
    #[must_use]
    pub fn mean_slowdown(&self) -> f64 {
        1.0 - self.gmean_ipc
    }

    /// The worst (minimum) normalized IPC and its workload.
    #[must_use]
    pub fn worst(&self) -> (&str, f64) {
        self.rows
            .iter()
            .min_by(|a, b| a.normalized_ipc.total_cmp(&b.normalized_ipc))
            .map(|r| (r.name.as_str(), r.normalized_ipc))
            .expect("non-empty")
    }
}

/// Runs Figure 6 at the given scale with a specific PT-Guard configuration,
/// with a sweep seed mixed into every workload's RNG stream.
#[must_use]
pub fn run_with_seed(scale: Scale, guard: PtGuardConfig, sweep_seed: u64) -> Fig6Result {
    run_designs(scale, &[guard], sweep_seed)
        .pop()
        .expect("one design")
}

/// [`run_with_seed`] for each of `guards`, in order. A workload's
/// unprotected baseline does not depend on the guard and the simulation is
/// deterministic, so it is simulated once and shared by every design.
#[must_use]
pub fn run_designs(scale: Scale, guards: &[PtGuardConfig], sweep_seed: u64) -> Vec<Fig6Result> {
    let instrs = scale.instructions();
    let mut rows = vec![Vec::with_capacity(ALL_WORKLOADS.len()); guards.len()];
    for (i, w) in ALL_WORKLOADS.iter().enumerate() {
        let seed = salted(0x600d + i as u64, sweep_seed);
        let base = simulate_workload(*w, Protection::None, instrs, seed);
        for (rows, &guard) in rows.iter_mut().zip(guards) {
            let guarded = simulate_workload(*w, Protection::PtGuard(guard), instrs, seed);
            rows.push(Fig6Row {
                name: w.name.to_string(),
                normalized_ipc: guarded.ipc() / base.ipc(),
                mpki: base.mpki,
            });
        }
    }
    rows.into_iter()
        .map(|rows| {
            let ipcs: Vec<f64> = rows.iter().map(|r| r.normalized_ipc).collect();
            Fig6Result {
                gmean_ipc: gmean(&ipcs),
                amean_ipc: amean(&ipcs),
                rows,
            }
        })
        .collect()
}

/// Renders the figure as a table.
#[must_use]
pub fn render(r: &Fig6Result) -> String {
    let mut t = Table::new(vec!["workload", "IPC/IPC_b", "slowdown", "LLC MPKI"]);
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            format!("{:.4}", row.normalized_ipc),
            pct(1.0 - row.normalized_ipc),
            format!("{:.1}", row.mpki),
        ]);
    }
    let (worst_name, worst_ipc) = r.worst();
    format!(
        "Figure 6: PT-Guard normalized IPC and LLC MPKI\n{}\nGMEAN normalized IPC = {:.4} (slowdown {}),  AMEAN = {:.4}\nworst: {} at {}\n",
        t.render(),
        r.gmean_ipc,
        pct(r.mean_slowdown()),
        r.amean_ipc,
        worst_name,
        pct(1.0 - worst_ipc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_fig6_has_paper_shape() {
        let r = run_with_seed(Scale::Trial, PtGuardConfig::default(), 0);
        assert_eq!(r.rows.len(), 25);
        // Slowdown is bounded and grows with MPKI: the highest-MPKI
        // workload must be among the slowest.
        for row in &r.rows {
            assert!(
                row.normalized_ipc > 0.85 && row.normalized_ipc <= 1.001,
                "{row:?}"
            );
        }
        let (worst, _) = r.worst();
        let worst_mpki = r.rows.iter().find(|x| x.name == worst).unwrap().mpki;
        let max_mpki = r.rows.iter().map(|x| x.mpki).fold(0.0, f64::max);
        assert!(
            worst_mpki > 0.4 * max_mpki,
            "worst slowdown should be memory-intensive"
        );
        // Mean slowdown lands in the paper's low-single-percent regime.
        assert!(
            r.mean_slowdown() < 0.05,
            "mean slowdown {}",
            r.mean_slowdown()
        );
        assert!(
            r.mean_slowdown() > 0.0005,
            "mean slowdown {} suspiciously low",
            r.mean_slowdown()
        );
    }
}
