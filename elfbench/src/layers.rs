//! The traced run: per-layer metrics of one workload.
//!
//! Three parts, each in whole rounds:
//!
//! 1. Windows. Each architecture runs the same window from two warmed
//!    checkpoints, one with `SimConfig::metrics` off and one with it on,
//!    alternating. The untraced side gives the simulated counts and the
//!    ns per ticked cycle; the traced side gives the fetch-cycle causes;
//!    the two times give the tracing overhead.
//! 2. Snapshot stages: checkpoint, encode, decode and restore, each timed.
//! 3. Replays. The workload's committed path, read from its own `Oracle`,
//!    is fed to each layer's public functions (`Oracle::entry`,
//!    `Tage`/`Ittage` predict and train, `BtbHierarchy` lookup and
//!    install, `MemorySystem` fetch, load and store), timed per call.
//!    Wrong-path traffic is not replayed.

use crate::checks::{self, Tally};
use crate::measure::{build, lossless, Reference, MIN_ROUNDS};
use crate::report::{median, median_secs, ratio, Metrics};
use crate::workloads::WorkloadDef;
use elf_btb::{BtbBuilder, BtbEntry, BtbHierarchy};
use elf_core::{SimConfig, SimStats, Simulator, Snapshot};
use elf_frontend::{FetchArch, FetchCycleCause};
use elf_mem::MemorySystem;
use elf_predictors::{Ittage, Tage};
use elf_trace::{synthesize, Oracle, Program, Workload};
use elf_types::{Addr, InstClass, SnapReader, SnapWriter, MAX_BLOCK_INSTS};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on alternating windows, then on snapshot
/// stages; the rest goes to replays.
const WINDOW_SHARE: f64 = 0.5;
const SNAPSHOT_SHARE: f64 = 0.65;

/// I-cache line size the replayed fetch stream is cut at.
const LINE_BYTES: u64 = 64;

/// One architecture's traced and untraced references and samples.
struct ArchTrace {
    plain: Reference,
    traced: Reference,
    /// Idle-skipped cycles counted by the end of the untraced warm-up.
    skipped_warm: u64,
    /// Idle-skipped cycles of the untraced window.
    skipped: u64,
    /// Fetch-cycle buckets of the traced window.
    buckets: [u64; 9],
    plain_times: Vec<Duration>,
    traced_times: Vec<Duration>,
    checkpoint: Vec<Duration>,
    encode: Vec<Duration>,
    decode: Vec<Duration>,
    restore: Vec<Duration>,
}

impl ArchTrace {
    fn new(w: &Workload, def: &WorkloadDef, arch: FetchArch, seed: u64) -> Result<Self, String> {
        let warmed = |metrics: bool| -> Result<(Reference, u64), String> {
            let mut cfg = SimConfig::baseline(arch);
            cfg.metrics = metrics;
            let (mut sim, _) = build(w, cfg, seed).map_err(|e| e.to_string())?;
            let warm = sim.warm_up(def.warmup).map_err(|e| e.to_string())?;
            Ok((Reference::new(&sim, warm), sim.skipped_cycles()))
        };
        let (plain, skipped_warm) = warmed(false)?;
        Ok(ArchTrace {
            plain,
            traced: warmed(true)?.0,
            skipped_warm,
            skipped: 0,
            buckets: [0; 9],
            plain_times: Vec::new(),
            traced_times: Vec::new(),
            checkpoint: Vec::new(),
            encode: Vec::new(),
            decode: Vec::new(),
            restore: Vec::new(),
        })
    }

    /// One untraced and one traced window, checked (a) to (e).
    fn windows(&mut self, def: &WorkloadDef, seed: u64, tally: &mut Tally) {
        let plain = match self.plain.timed_window(def) {
            Ok((t, s, sim)) => {
                self.plain_times.push(t);
                self.skipped = sim.skipped_cycles() - self.skipped_warm;
                tally.record("window", self.plain.check_window(def, seed, &s));
                Some(s)
            }
            Err(e) => {
                tally.record("window", vec![e.to_string()]);
                None
            }
        };
        match self.traced.timed_window(def) {
            Ok((t, s, sim)) => {
                self.traced_times.push(t);
                let mut p = self.traced.check_window(def, seed, &s);
                if let Some(plain) = &plain {
                    checks::identical("traced vs untraced", plain, &s, &mut p);
                }
                match sim.metrics() {
                    Some(m) => {
                        checks::partition(m, &s, &mut p);
                        self.buckets = m.fetch_cycles;
                    }
                    None => p.push("metrics registry missing".to_owned()),
                }
                tally.record("traced window", p);
            }
            Err(e) => tally.record("traced window", vec![e.to_string()]),
        }
    }

    /// One snapshot round trip of the untraced warmed state, each stage
    /// timed apart.
    fn snapshot_stages(&mut self, tally: &mut Tally) {
        let sim = match Simulator::restore(&self.plain.snap) {
            Ok(s) => s,
            Err(e) => return tally.record("snapshot round trip", vec![e.to_string()]),
        };
        let t = Instant::now();
        let snap = sim.checkpoint();
        let t_check = t.elapsed();
        let t = Instant::now();
        let bytes = snap.to_bytes();
        let t_enc = t.elapsed();
        let t = Instant::now();
        let decoded = Snapshot::from_bytes(&bytes);
        let t_dec = t.elapsed();
        let t = Instant::now();
        let restored = decoded.and_then(|d| d.restore());
        let t_res = t.elapsed();
        match restored {
            Ok(r) => {
                self.checkpoint.push(t_check);
                self.encode.push(t_enc);
                self.decode.push(t_dec);
                self.restore.push(t_res);
                tally.record("snapshot round trip", lossless(&self.plain.snap, &r));
            }
            Err(e) => tally.record("snapshot round trip", vec![e.to_string()]),
        }
    }

    fn plain_window(&self) -> &SimStats {
        &self
            .plain
            .window
            .as_ref()
            .expect("checked before metrics")
            .0
    }
}

/// A BTB replay step, in committed-path order.
enum BtbEvent {
    Lookup(Addr),
    Install(BtbEntry),
}

/// A memory-system replay step, in committed-path order.
enum MemEvent {
    Fetch(Addr),
    Load(Addr, Addr),
    Store(Addr),
}

/// One layer's replay input: a warm-up prefix that trains the structure
/// untimed, then the timed part.
struct Replay<T> {
    warm: Vec<T>,
    timed: Vec<T>,
}

impl<T> Replay<T> {
    fn new() -> Self {
        Replay {
            warm: Vec::new(),
            timed: Vec::new(),
        }
    }

    fn push(&mut self, timed: bool, e: T) {
        if timed {
            self.timed.push(e);
        } else {
            self.warm.push(e);
        }
    }
}

/// The committed path cut into every layer's replay input.
struct Streams {
    /// Conditional branches: (pc, taken, global history).
    cond: Replay<(Addr, bool, u128)>,
    /// Non-return indirect branches: (pc, target, global history).
    indirect: Replay<(Addr, Addr, u128)>,
    btb: Replay<BtbEvent>,
    mem: Replay<MemEvent>,
}

impl Streams {
    /// Reads `warmup + window` committed instructions from a fresh oracle.
    /// Fetch blocks start after a taken branch or after
    /// `MAX_BLOCK_INSTS` sequential instructions; each looks the BTB up
    /// and fetches each I-cache line it touches. BTB entries are built at
    /// retirement by `BtbBuilder`, as the front-end does.
    fn read(prog: &Arc<Program>, seed: u64, warmup: u64, window: u64) -> Streams {
        let mut s = Streams {
            cond: Replay::new(),
            indirect: Replay::new(),
            btb: Replay::new(),
            mem: Replay::new(),
        };
        let mut oracle = Oracle::new(Arc::clone(prog), seed);
        let mut builder = BtbBuilder::new();
        let mut hist: u128 = 0;
        let mut block_len = MAX_BLOCK_INSTS;
        let mut line = u64::MAX;
        for seq in 0..warmup + window {
            let timed = seq >= warmup;
            let e = oracle.entry(seq);
            oracle.release_before(seq);
            let inst = prog.inst_or_nop(e.pc);
            if block_len == MAX_BLOCK_INSTS {
                s.btb.push(timed, BtbEvent::Lookup(e.pc));
                block_len = 0;
            }
            if e.pc / LINE_BYTES != line {
                line = e.pc / LINE_BYTES;
                s.mem.push(timed, MemEvent::Fetch(e.pc));
            }
            block_len += 1;
            match (inst.class, e.mem_addr) {
                (InstClass::Load, Some(a)) => s.mem.push(timed, MemEvent::Load(e.pc, a)),
                (InstClass::Store, Some(a)) => s.mem.push(timed, MemEvent::Store(a)),
                _ => {}
            }
            let kind = inst.branch_kind();
            if let Some(k) = kind {
                if k.is_conditional() {
                    s.cond.push(timed, (e.pc, e.taken, hist));
                    hist = (hist << 1) | u128::from(e.taken);
                } else if k.is_indirect() && !k.is_return() {
                    s.indirect.push(timed, (e.pc, e.next_pc, hist));
                    hist = (hist << 1) | u128::from(Ittage::target_bit(e.next_pc));
                }
                if e.taken {
                    block_len = MAX_BLOCK_INSTS;
                    line = u64::MAX;
                }
            }
            for entry in builder.on_retire(e.pc, kind, e.taken, inst.target) {
                s.btb.push(timed, BtbEvent::Install(entry));
            }
        }
        s
    }
}

/// ns per item of a timed span; zero items give zero.
fn ns_per(t: Duration, n: usize) -> f64 {
    ratio(t.as_nanos() as f64, n as f64)
}

fn replay_oracle(prog: &Arc<Program>, seed: u64, n: u64) -> (Duration, Vec<String>) {
    let t = Instant::now();
    let mut oracle = Oracle::new(Arc::clone(prog), seed);
    let mut breaks = 0u64;
    let mut next = prog.entry();
    for seq in 0..n {
        let e = black_box(oracle.entry(seq));
        oracle.release_before(seq.saturating_sub(1));
        breaks += u64::from(e.pc != next);
        next = e.next_pc;
    }
    let t = t.elapsed();
    let p = if breaks == 0 {
        Vec::new()
    } else {
        vec![format!(
            "{breaks} oracle entries do not follow their predecessor"
        )]
    };
    (t, p)
}

/// Replays one pass of conditional branches on a copy of a trained TAGE;
/// returns the time and the mispredictions (which every pass must repeat).
fn replay_tage(trained: &Tage, cond: &[(Addr, bool, u128)]) -> (Duration, u64) {
    let mut tage = trained.clone();
    let mut wrong = 0u64;
    let t = Instant::now();
    for &(pc, taken, hist) in cond {
        wrong += u64::from(black_box(tage.predict_with_hist(pc, hist)).taken != taken);
        tage.train_with_hist(pc, taken, hist);
    }
    (t.elapsed(), wrong)
}

fn replay_ittage(trained: &Ittage, ind: &[(Addr, Addr, u128)]) -> (Duration, u64) {
    let mut ittage = trained.clone();
    let mut wrong = 0u64;
    let t = Instant::now();
    for &(pc, target, hist) in ind {
        wrong += u64::from(black_box(ittage.predict_with_hist(pc, hist)) != Some(target));
        ittage.train_with_hist(pc, target, hist);
    }
    (t.elapsed(), wrong)
}

fn replay_btb(btb: &mut BtbHierarchy, events: &[BtbEvent]) {
    for e in events {
        match e {
            BtbEvent::Lookup(pc) => {
                black_box(btb.lookup(*pc));
            }
            BtbEvent::Install(entry) => btb.install(*entry),
        }
    }
}

fn replay_mem(mem: &mut MemorySystem, events: &[MemEvent]) {
    for (now, e) in (0u64..).zip(events) {
        black_box(match *e {
            MemEvent::Fetch(pc) => mem.fetch(pc, now),
            MemEvent::Load(pc, a) => mem.load(pc, a, now),
            MemEvent::Store(a) => mem.store(a, now),
        });
    }
}

/// A copy of a memory system, through its own checkpoint format.
fn copy_mem(mem: &MemorySystem) -> Result<MemorySystem, String> {
    let mut w = SnapWriter::new();
    mem.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut copy = MemorySystem::new(mem.config().clone());
    copy.load_state(&mut SnapReader::new(&bytes))
        .map_err(|e| e.to_string())?;
    Ok(copy)
}

/// The replays of one workload: the streams, the layer structures
/// trained on their warm-up part, and one sample per layer per round.
struct Replays {
    prog: Arc<Program>,
    seed: u64,
    /// Instructions the oracle replay reads (warm-up plus window).
    insts: u64,
    streams: Streams,
    tage: Tage,
    ittage: Ittage,
    btb: BtbHierarchy,
    mem: MemorySystem,
    /// Mispredictions of the first predictor pass; every pass repeats them.
    predictor_wrong: Option<(u64, u64)>,
    synth: Vec<Duration>,
    oracle: Vec<f64>,
    tage_ns: Vec<f64>,
    ittage_ns: Vec<f64>,
    btb_ns: Vec<f64>,
    mem_ns: Vec<f64>,
}

impl Replays {
    fn new(prog: Arc<Program>, seed: u64, def: &WorkloadDef) -> Replays {
        let streams = Streams::read(&prog, seed, def.warmup, def.window);
        let mut tage = Tage::paper();
        for &(pc, taken, hist) in &streams.cond.warm {
            tage.train_with_hist(pc, taken, hist);
        }
        let mut ittage = Ittage::paper();
        for &(pc, target, hist) in &streams.indirect.warm {
            ittage.train_with_hist(pc, target, hist);
        }
        let mut btb = BtbHierarchy::paper();
        replay_btb(&mut btb, &streams.btb.warm);
        btb.reset_stats();
        let mut mem = MemorySystem::paper();
        replay_mem(&mut mem, &streams.mem.warm);
        mem.reset_stats();
        Replays {
            prog,
            seed,
            insts: def.warmup + def.window,
            streams,
            tage,
            ittage,
            btb,
            mem,
            predictor_wrong: None,
            synth: Vec::new(),
            oracle: Vec::new(),
            tage_ns: Vec::new(),
            ittage_ns: Vec::new(),
            btb_ns: Vec::new(),
            mem_ns: Vec::new(),
        }
    }

    /// One round: synthesis, then every layer's replay once, each checked.
    fn round(&mut self, w: &Workload, tally: &mut Tally) {
        let t = Instant::now();
        black_box(synthesize(&w.spec));
        self.synth.push(t.elapsed());

        let (t, p) = replay_oracle(&self.prog, self.seed, self.insts);
        self.oracle.push(ns_per(t, self.insts as usize));
        tally.record("replay", p);

        let s = &self.streams;
        let (tt, tage_wrong) = replay_tage(&self.tage, &s.cond.timed);
        let (ti, ittage_wrong) = replay_ittage(&self.ittage, &s.indirect.timed);
        self.tage_ns.push(ns_per(tt, s.cond.timed.len()));
        self.ittage_ns.push(ns_per(ti, s.indirect.timed.len()));
        let wrong = (tage_wrong, ittage_wrong);
        let first = *self.predictor_wrong.get_or_insert(wrong);
        let mut p = Vec::new();
        if first != wrong {
            p.push(format!(
                "predictor replay mispredictions {wrong:?} differ from the first pass {first:?}"
            ));
        }
        tally.record("replay", p);

        let mut btb = self.btb.clone();
        let t = Instant::now();
        replay_btb(&mut btb, &s.btb.timed);
        let t = t.elapsed();
        let lookups = s
            .btb
            .timed
            .iter()
            .filter(|e| matches!(e, BtbEvent::Lookup(_)))
            .count();
        self.btb_ns.push(ns_per(t, lookups));
        let st = btb.stats();
        let mut p = Vec::new();
        if st.lookups != lookups as u64 || st.installs != (s.btb.timed.len() - lookups) as u64 {
            p.push(format!(
                "BTB counted {} lookups and {} installs for {} events",
                st.lookups,
                st.installs,
                s.btb.timed.len()
            ));
        }
        tally.record("replay", p);

        let mut mem = match copy_mem(&self.mem) {
            Ok(m) => m,
            Err(e) => return tally.record("replay", vec![e]),
        };
        let t = Instant::now();
        replay_mem(&mut mem, &s.mem.timed);
        self.mem_ns.push(ns_per(t.elapsed(), s.mem.timed.len()));
        let st = mem.stats();
        let counted = st.ifetches + st.loads + st.stores;
        let mut p = Vec::new();
        if counted != s.mem.timed.len() as u64 {
            p.push(format!(
                "memory system counted {counted} accesses for {} events",
                s.mem.timed.len()
            ));
        }
        tally.record("replay", p);
    }
}

/// Runs the traced run for `seconds` and returns the per-layer metrics.
pub fn run(def: &WorkloadDef, w: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut archs = Vec::new();
    for &arch in def.archs {
        match ArchTrace::new(w, def, arch, seed) {
            Ok(a) => archs.push(a),
            Err(e) => tally.record("cold warm-up", vec![e]),
        }
    }
    // Each part runs whole rounds until its share of `seconds` is spent.
    let phase = |share: f64, rounds: usize| {
        rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds * share
    };

    let mut rounds = 0;
    while phase(WINDOW_SHARE, rounds) {
        for a in &mut archs {
            a.windows(def, seed, tally);
        }
        rounds += 1;
    }
    let mut rounds = 0;
    while phase(SNAPSHOT_SHARE, rounds) {
        for a in &mut archs {
            a.snapshot_stages(tally);
        }
        rounds += 1;
    }

    let mut replays = Replays::new(Arc::new(synthesize(&w.spec)), seed, def);
    let mut rounds = 0;
    while phase(1.0, rounds) {
        replays.round(w, tally);
        rounds += 1;
    }

    let complete = archs.len() == def.archs.len()
        && archs.iter().all(|a| {
            a.plain.window.is_some() && !a.traced_times.is_empty() && !a.checkpoint.is_empty()
        });
    if !complete || replays.mem_ns.is_empty() {
        tally.record("workload", vec!["a layer produced no samples".to_owned()]);
        return Metrics::default();
    }
    metrics(&archs, &replays)
}

fn metrics(archs: &[ArchTrace], r: &Replays) -> Metrics {
    let sum = |f: &dyn Fn(&ArchTrace) -> f64| archs.iter().map(f).sum::<f64>();
    let stat = |f: &dyn Fn(&SimStats) -> u64| sum(&|a| f(a.plain_window()) as f64);
    let n = archs.len() as f64;
    let retired = stat(&|s| s.retired);
    let cycles = stat(&|s| s.cycles);
    let skipped = sum(&|a| a.skipped as f64);
    let plain_s = sum(&|a| median_secs(&a.plain_times));

    let mut m = Metrics::default();
    m.push("sim.ticked_cycles", cycles - skipped, "count");
    m.push("sim.skipped_cycles", skipped, "count");
    m.push(
        "sim.ns_per_ticked_cycle",
        ratio(plain_s * 1e9, cycles - skipped),
        "ns",
    );
    m.push("sim.cycles", cycles, "count");
    m.push("sim.ipc", ratio(retired, cycles), "inst/cycle");

    let dispatched = stat(&|s| s.backend.dispatched);
    m.push("backend.dispatched", dispatched, "count");
    m.push("backend.squashed", stat(&|s| s.backend.squashed), "count");
    m.push("backend.useful_ratio", ratio(retired, dispatched), "ratio");
    m.push(
        "backend.flushes",
        stat(&|s| {
            s.backend.mispredict_flushes + s.backend.raw_flushes + s.backend.watchdog_flushes
        }),
        "count",
    );
    m.push(
        "backend.rob_full_cycles",
        stat(&|s| s.backend.rob_full_cycles),
        "count",
    );
    m.push("backend.forwards", stat(&|s| s.backend.forwards), "count");

    for cause in FetchCycleCause::ALL {
        m.push(
            format!("frontend.cycles.{}", cause.key()),
            sum(&|a| a.buckets[cause.index()] as f64),
            "count",
        );
    }
    m.push(
        "frontend.coupled_cycles",
        stat(&|s| s.frontend.coupled_cycles),
        "count",
    );
    m.push(
        "frontend.decode_resteers",
        stat(&|s| s.frontend.decode_resteers),
        "count",
    );
    m.push(
        "frontend.divergences",
        stat(&|s| s.frontend.divergences_dcf + s.frontend.divergences_fetcher),
        "count",
    );

    m.push(
        "predictors.cond_mpki",
        ratio(stat(&|s| s.cond_mispredicts) * 1e3, retired),
        "MPKI",
    );
    m.push("predictors.tage_ns_per_branch", median(&r.tage_ns), "ns");
    m.push(
        "predictors.ittage_ns_per_indirect",
        median(&r.ittage_ns),
        "ns",
    );

    m.push("btb.lookups", stat(&|s| s.btb.lookups), "count");
    m.push("btb.l2_misses", stat(&|s| s.btb.misses), "count");
    m.push("btb.ns_per_lookup", median(&r.btb_ns), "ns");

    m.push(
        "mem.l0i_mpki",
        ratio(stat(&|s| s.mem.l0i_misses) * 1e3, retired),
        "MPKI",
    );
    m.push("mem.l1i_misses", stat(&|s| s.mem.l1i_misses), "count");
    m.push("mem.l1d_misses", stat(&|s| s.mem.l1d_misses), "count");
    let issued = stat(&|s| s.mem.ipf_issued);
    m.push("mem.ipf_issued", issued, "count");
    m.push(
        "mem.ipf_useful_ratio",
        ratio(issued, issued + stat(&|s| s.mem.ipf_dropped)),
        "ratio",
    );
    m.push("mem.ns_per_access", median(&r.mem_ns), "ns");

    m.push("trace.synth_ms", median_secs(&r.synth) * 1e3, "ms");
    m.push("trace.code_insts", r.prog.len_insts() as f64, "count");
    m.push("trace.oracle_ns_per_inst", median(&r.oracle), "ns");

    let ms = |f: &dyn Fn(&ArchTrace) -> &[Duration]| sum(&|a| median_secs(f(a))) / n * 1e3;
    m.push("snapshot.checkpoint_ms", ms(&|a| &a.checkpoint), "ms");
    m.push("snapshot.encode_ms", ms(&|a| &a.encode), "ms");
    m.push("snapshot.decode_ms", ms(&|a| &a.decode), "ms");
    m.push("snapshot.restore_ms", ms(&|a| &a.restore), "ms");
    m.push(
        "snapshot.state_bytes",
        sum(&|a| a.plain.snap.state.len() as f64) / n,
        "bytes",
    );

    m.push(
        "metrics.traced_slowdown",
        ratio(sum(&|a| median_secs(&a.traced_times)), plain_s),
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::BranchCounts;

    #[test]
    fn streams_split_at_the_warm_up_and_cover_the_path() {
        let w = elf_trace::workloads::by_name("641.leela").expect("registry workload");
        let prog = Arc::new(elf_trace::synthesize(&w.spec));
        let s = Streams::read(&prog, 5, 1_000, 2_000);
        let walk = BranchCounts::walk(&prog, 5, 1_000, 2_000);
        assert_eq!(s.cond.timed.len() as u64, walk.cond);
        assert!(!s.cond.warm.is_empty() && !s.btb.warm.is_empty());
        let lookups = s
            .btb
            .timed
            .iter()
            .filter(|e| matches!(e, BtbEvent::Lookup(_)))
            .count();
        // Every taken branch ends a fetch block, so blocks are at least
        // as many as taken branches in the timed part (give or take the
        // block straddling the split).
        assert!(
            lookups as u64 + 1 >= walk.taken,
            "{lookups} vs {}",
            walk.taken
        );
    }
}
