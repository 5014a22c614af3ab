//! The untraced run: every end-to-end metric of one workload.
//!
//! Work is done in whole rounds. One round, for each architecture of the
//! workload, builds the simulator from scratch (timed set-up), runs the
//! warm-up from that cold state (timed), takes snapshot round trips of
//! the warmed machine (timed) and runs the measured window from the
//! workload's one warmed checkpoint (timed). Every window therefore
//! simulates exactly the same instructions, so the spread between them is
//! host noise alone; each metric is a median over the rounds.

use crate::checks::{self, BranchCounts, Tally};
use crate::report::{self, median_secs, Metrics};
use crate::workloads::WorkloadDef;
use elf_core::{SimConfig, SimError, SimStats, Simulator, Snapshot};
use elf_frontend::FetchArch;
use elf_trace::{synthesize, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds made however short `--seconds` is, so every median has samples.
pub const MIN_ROUNDS: usize = 3;

/// Times `synthesize` plus validated construction: the set-up a user pays
/// before the first simulated cycle. The oracle is seeded with `seed`.
pub fn build(w: &Workload, cfg: SimConfig, seed: u64) -> Result<(Simulator, Duration), SimError> {
    let t = Instant::now();
    let prog = Arc::new(synthesize(&w.spec));
    let sim = Simulator::try_from_program(cfg, prog, seed)?;
    Ok((sim, t.elapsed()))
}

/// Reference results of one architecture, fixed by its first round.
pub struct Reference {
    /// The warmed checkpoint every window restores.
    pub snap: Snapshot,
    /// Statistics of the cold warm-up.
    pub warm: SimStats,
    /// Statistics of the first window and the oracle walk over the range
    /// it retired (set by [`Reference::check_window`]).
    pub window: Option<(SimStats, BranchCounts)>,
}

impl Reference {
    /// Checkpoints a simulator just warmed up with statistics `warm`.
    pub fn new(sim: &Simulator, warm: SimStats) -> Reference {
        Reference {
            snap: sim.checkpoint(),
            warm,
            window: None,
        }
    }

    /// Checks (a), (b) and (e) on one window's statistics. The first
    /// window checked becomes the reference for later repeats.
    pub fn check_window(&mut self, def: &WorkloadDef, seed: u64, s: &SimStats) -> Vec<String> {
        let (first, walk) = self.window.get_or_insert_with(|| {
            let walk = BranchCounts::walk(&self.snap.prog, seed, self.warm.retired, s.retired);
            (s.clone(), walk)
        });
        let mut p = Vec::new();
        checks::oracle_counts(walk, s, &mut p);
        checks::identical("window repeat", first, s, &mut p);
        checks::window_bounds(def.window, self.snap.cfg.backend.commit_width, s, &mut p);
        p
    }

    /// Checks a cold warm-up against the first one: (b) and (e).
    pub fn check_warm_up(&self, def: &WorkloadDef, s: &SimStats) -> Vec<String> {
        let mut p = Vec::new();
        checks::identical("warm-up repeat", &self.warm, s, &mut p);
        checks::window_bounds(def.warmup, self.snap.cfg.backend.commit_width, s, &mut p);
        p
    }

    /// Restores the warmed checkpoint and times one window on it.
    pub fn timed_window(
        &self,
        def: &WorkloadDef,
    ) -> Result<(Duration, SimStats, Simulator), SimError> {
        let mut sim = Simulator::restore(&self.snap)?;
        let t = Instant::now();
        let s = sim.run(def.window)?;
        Ok((t.elapsed(), s, sim))
    }
}

/// Per-architecture samples.
struct ArchRun {
    arch: FetchArch,
    reference: Option<Reference>,
    setup: Vec<Duration>,
    cold: Vec<Duration>,
    trips: Vec<Duration>,
    windows: Vec<Duration>,
}

/// One snapshot round trip — checkpoint, `to_bytes`, `from_bytes`,
/// restore — timed whole. Returns the time and the restored simulator.
fn round_trip(sim: &Simulator) -> Result<(Duration, Simulator), SimError> {
    let t = Instant::now();
    let bytes = sim.checkpoint().to_bytes();
    let restored = Snapshot::from_bytes(&bytes)?.restore()?;
    Ok((t.elapsed(), restored))
}

/// The round trip lost nothing: the restored machine checkpoints to the
/// same state bytes as the reference checkpoint.
pub fn lossless(reference: &Snapshot, restored: &Simulator) -> Vec<String> {
    if restored.checkpoint().state == reference.state {
        Vec::new()
    } else {
        vec!["restored state differs from the warmed checkpoint".to_owned()]
    }
}

/// One architecture's instruction counts, median times and sizes.
struct Figures {
    window_insts: f64,
    window_s: f64,
    warm_insts: f64,
    cold_s: f64,
    setup_s: f64,
    trip_s: f64,
    snapshot_bytes: f64,
}

impl ArchRun {
    /// The architecture's figures, or `None` when a part produced no
    /// samples (its failures are already tallied).
    fn figures(&self) -> Option<Figures> {
        let r = self.reference.as_ref()?;
        let (window, _) = r.window.as_ref()?;
        if self.windows.is_empty() || self.trips.is_empty() {
            return None;
        }
        Some(Figures {
            window_insts: window.retired as f64,
            window_s: median_secs(&self.windows),
            warm_insts: r.warm.retired as f64,
            cold_s: median_secs(&self.cold),
            setup_s: median_secs(&self.setup),
            trip_s: median_secs(&self.trips),
            snapshot_bytes: r.snap.to_bytes().len() as f64,
        })
    }

    /// One round of this architecture. Failed operations are tallied and
    /// the round moves on; it stops early only when a later step has
    /// nothing to work on.
    fn round(&mut self, w: &Workload, def: &WorkloadDef, seed: u64, tally: &mut Tally) {
        let mut built = None;
        for _ in 0..def.setups_per_round {
            match build(w, SimConfig::baseline(self.arch), seed) {
                Ok((sim, t)) => {
                    self.setup.push(t);
                    built = Some(sim);
                }
                Err(e) => {
                    tally.record("cold warm-up", vec![format!("set-up: {e}")]);
                    return;
                }
            }
        }
        let Some(mut sim) = built else { return };

        let t = Instant::now();
        let warm = match sim.warm_up(def.warmup) {
            Ok(warm) => warm,
            Err(e) => {
                tally.record("cold warm-up", vec![e.to_string()]);
                return;
            }
        };
        self.cold.push(t.elapsed());
        let reference = self
            .reference
            .get_or_insert_with(|| Reference::new(&sim, warm.clone()));
        tally.record("cold warm-up", reference.check_warm_up(def, &warm));

        for _ in 0..def.trips_per_round {
            match round_trip(&sim) {
                Ok((t, restored)) => {
                    self.trips.push(t);
                    tally.record("snapshot round trip", lossless(&reference.snap, &restored));
                }
                Err(e) => tally.record("snapshot round trip", vec![e.to_string()]),
            }
        }
        drop(sim);

        match reference.timed_window(def) {
            Ok((t, s, _)) => {
                self.windows.push(t);
                tally.record("window", reference.check_window(def, seed, &s));
            }
            Err(e) => tally.record("window", vec![e.to_string()]),
        }
    }
}

/// Runs the untraced rounds for `seconds` (at least [`MIN_ROUNDS`]) and
/// returns the end-to-end metrics.
pub fn run(def: &WorkloadDef, w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let mut runs: Vec<ArchRun> = def
        .archs
        .iter()
        .map(|&arch| ArchRun {
            arch,
            reference: None,
            setup: Vec::new(),
            cold: Vec::new(),
            trips: Vec::new(),
            windows: Vec::new(),
        })
        .collect();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for r in &mut runs {
            r.round(w, def, seed, tally);
        }
        rounds += 1;
    }

    let mut m = Metrics::default();
    let Some(figures) = runs
        .iter()
        .map(ArchRun::figures)
        .collect::<Option<Vec<_>>>()
    else {
        tally.record(
            "workload",
            vec!["an architecture produced no samples".to_owned()],
        );
        return m;
    };
    let n = figures.len() as f64;
    let sum = |f: fn(&Figures) -> f64| figures.iter().map(f).sum::<f64>();
    m.push(
        "mips",
        sum(|f| f.window_insts) / sum(|f| f.window_s) / 1e6,
        "MIPS",
    );
    m.push(
        "cold_mips",
        sum(|f| f.warm_insts) / sum(|f| f.cold_s) / 1e6,
        "MIPS",
    );
    m.push("setup_s", sum(|f| f.setup_s) / n, "s");
    match report::peak_rss_mb() {
        Ok(v) => m.push("peak_rss_mb", v, "MB"),
        Err(e) => tally.record("workload", vec![e]),
    }
    m.push("snapshot_mb", sum(|f| f.snapshot_bytes) / n / 1e6, "MB");
    m.push("snapshot_ms", sum(|f| f.trip_s) / n * 1e3, "ms");
    m
}
