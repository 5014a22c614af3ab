//! Output checks, computed apart from the pipeline model, and the tally of
//! attempted and failed operations.
//!
//! Every check returns the problems it found instead of panicking; the
//! caller hands them to [`Tally::record`], which counts the operation as
//! failed when any problem was found, and the run carries on.

use elf_core::{Metrics, SimStats};
use elf_trace::{Oracle, Program};
use std::sync::Arc;

/// Branch-class counts over a stretch of the committed path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounts {
    pub branches: u64,
    pub cond: u64,
    pub taken: u64,
    pub returns: u64,
}

impl BranchCounts {
    /// Walks a fresh oracle over sequence numbers `[start, start + n)` and
    /// classifies each instruction from the static program image: the
    /// reference the simulator's retired counts must match.
    #[must_use]
    pub fn walk(prog: &Arc<Program>, seed: u64, start: u64, n: u64) -> BranchCounts {
        let mut oracle = Oracle::new(Arc::clone(prog), seed);
        let mut c = BranchCounts::default();
        for seq in start..start + n {
            let e = oracle.entry(seq);
            oracle.release_before(seq);
            let Some(kind) = prog.inst_at(e.pc).and_then(|i| i.branch_kind()) else {
                continue;
            };
            c.branches += 1;
            c.taken += u64::from(e.taken);
            c.cond += u64::from(kind.is_conditional());
            c.returns += u64::from(kind.is_return());
        }
        c
    }

    /// The same counts as the simulator reports them.
    #[must_use]
    pub fn of_stats(s: &SimStats) -> BranchCounts {
        BranchCounts {
            branches: s.branches,
            cond: s.cond_branches,
            taken: s.taken_branches,
            returns: s.returns,
        }
    }
}

/// (a) The window's retired branch counts equal the oracle walk's.
pub fn oracle_counts(expected: &BranchCounts, s: &SimStats, out: &mut Vec<String>) {
    let got = BranchCounts::of_stats(s);
    if got != *expected {
        out.push(format!(
            "retired branch counts {got:?} differ from the oracle walk {expected:?}"
        ));
    }
}

/// (b) and (c): a repeat of the same window returns bit-identical stats.
pub fn identical(what: &str, reference: &SimStats, s: &SimStats, out: &mut Vec<String>) {
    if reference != s {
        out.push(format!(
            "{what}: stats differ from the reference run \
             (cycles {} vs {}, retired {} vs {})",
            s.cycles, reference.cycles, s.retired, reference.retired
        ));
    }
}

/// (d) The nine fetch-cycle buckets sum to the window's cycle count.
pub fn partition(m: &Metrics, s: &SimStats, out: &mut Vec<String>) {
    let sum = m.total_fetch_cycles();
    if sum != s.cycles {
        out.push(format!(
            "fetch-cycle buckets sum to {sum}, window has {} cycles",
            s.cycles
        ));
    }
}

/// (e) A window retires at least its target and at most one commit
/// group past it, at an IPC no higher than the commit width.
pub fn window_bounds(target: u64, commit_width: usize, s: &SimStats, out: &mut Vec<String>) {
    let width = commit_width as u64;
    if s.retired < target || s.retired > target + width {
        out.push(format!(
            "retired {} outside [{target}, {}]",
            s.retired,
            target + width
        ));
    }
    if s.ipc() > commit_width as f64 {
        out.push(format!("IPC {} above commit width {commit_width}", s.ipc()));
    }
}

/// Counts operations and the ones that failed, keeping the first few
/// failure messages for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// Failure messages kept (the counts stay exact past this).
const KEPT_MESSAGES: usize = 20;

impl Tally {
    /// Records one operation; it failed when `problems` is not empty.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if problems.is_empty() {
            return;
        }
        self.failed += 1;
        for p in problems {
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(format!("{op}: {p}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_core::{SimConfig, Simulator};
    use elf_frontend::FetchArch;
    use elf_trace::{synthesize, workloads};

    const WARMUP: u64 = 2_000;
    const WINDOW: u64 = 5_000;

    /// A real `n`-instruction window after a short warm-up, plus the
    /// oracle walk over the range it retired.
    fn window(n: u64) -> (SimStats, BranchCounts) {
        let w = workloads::by_name("641.leela").expect("registry workload");
        let prog = Arc::new(synthesize(&w.spec));
        let cfg = SimConfig::baseline(FetchArch::Dcf);
        let mut sim = Simulator::try_from_program(cfg, Arc::clone(&prog), 3).expect("valid");
        let warm = sim.warm_up(WARMUP).expect("warm-up runs").retired;
        let stats = sim.run(n).expect("window runs");
        let walk = BranchCounts::walk(&prog, 3, warm, stats.retired);
        (stats, walk)
    }

    /// Applies checks (a) and (e) to a window that targeted `WINDOW`.
    fn checked(tally: &mut Tally, walk: &BranchCounts, s: &SimStats) {
        let width = SimConfig::baseline(FetchArch::Dcf).backend.commit_width;
        let mut p = Vec::new();
        oracle_counts(walk, s, &mut p);
        window_bounds(WINDOW, width, s, &mut p);
        tally.record("window", p);
    }

    #[test]
    fn a_correct_window_passes() {
        let (stats, walk) = window(WINDOW);
        let mut tally = Tally::default();
        checked(&mut tally, &walk, &stats);
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.messages
        );
    }

    #[test]
    fn a_wrong_branch_count_is_a_failed_operation() {
        let (mut stats, walk) = window(WINDOW);
        stats.taken_branches += 1;
        let mut tally = Tally::default();
        checked(&mut tally, &walk, &stats);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(
            tally.messages[0].contains("oracle walk"),
            "{:?}",
            tally.messages
        );
    }

    #[test]
    fn a_window_stopped_short_is_a_failed_operation() {
        let (short, walk) = window(WINDOW / 2);
        let mut tally = Tally::default();
        checked(&mut tally, &walk, &short);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(
            tally.messages[0].contains("outside"),
            "{:?}",
            tally.messages
        );
    }

    #[test]
    fn a_changed_repeat_and_a_broken_partition_fail() {
        let (stats, _) = window(WINDOW);
        let mut other = stats.clone();
        other.cycles += 1;
        let mut tally = Tally::default();
        let mut p = Vec::new();
        identical("repeat", &stats, &other, &mut p);
        tally.record("window", p);
        let mut m = Metrics::new();
        m.fetch_cycles[0] = stats.cycles - 1;
        let mut p = Vec::new();
        partition(&m, &stats, &mut p);
        tally.record("traced window", p);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }
}
