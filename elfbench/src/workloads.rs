//! The benchmark's workloads: a registry program, the fetch architectures
//! run on it, and the warm-up and window lengths.

use elf_core::check::ALL_ARCHS;
use elf_frontend::{ElfVariant, FetchArch};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Benchmark-level name (`--workload`).
    pub name: &'static str,
    /// Registry program (`elf_trace::workloads::by_name`).
    pub program: &'static str,
    /// Architectures simulated, each with its own warm-up and windows.
    pub archs: &'static [FetchArch],
    /// Warm-up instructions, timed from freshly built state.
    pub warmup: u64,
    /// Measured-window instructions, repeated from one checkpoint.
    pub window: u64,
    /// Timed `synthesize` + construction samples per architecture per round.
    pub setups_per_round: usize,
    /// Timed snapshot round trips per architecture per round.
    pub trips_per_round: usize,
    /// Why this workload is in the benchmark (one line).
    pub why: &'static str,
}

const DCF_UELF: &[FetchArch] = &[FetchArch::Dcf, FetchArch::Elf(ElfVariant::U)];

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "branchy",
        program: "641.leela",
        archs: &ALL_ARCHS,
        warmup: 200_000,
        window: 200_000,
        setups_per_round: 8,
        trips_per_round: 8,
        why: "641.leela on all 7 fetch architectures: highest MPKI, frequent flushes, \
              the per-tick frontend and backend kernel does nearly all the work",
    },
    WorkloadDef {
        name: "bigcode",
        program: "server1_subtest1",
        archs: DCF_UELF,
        warmup: 300_000,
        window: 300_000,
        setups_per_round: 3,
        trips_per_round: 1,
        why: "server1_subtest1 (587k static insts) on DCF and U-ELF: BTB, L1I and \
              prefetch bound, with large set-up, snapshot and resident memory",
    },
    WorkloadDef {
        name: "memstall",
        program: "605.mcf",
        archs: DCF_UELF,
        warmup: 200_000,
        window: 200_000,
        setups_per_round: 8,
        trips_per_round: 8,
        why: "605.mcf on DCF and U-ELF: about 85% of cycles are idle-skipped, so skip \
              analysis and the data-side memory system do the work",
    },
];

/// Looks a workload up by its benchmark name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
