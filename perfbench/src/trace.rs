//! Outside-in tracing: the benchmark times the calls it makes into each
//! module's public functions and leaves the program's own `dsa_obs`
//! spans off.
//!
//! Two thin wrappers carry the timing into the worker pool:
//! [`Timed`] around a typed [`EncounterSim`] (handed to
//! `pra::performance_phase` and `pra::tournament_rates`) and
//! [`TimedDomain`] around a registered [`DynDomain`] (handed to
//! `AttackSweep::compute` and `empirical_matrix`). Each engine call is
//! recorded with its thread, mode and duration. Calls the benchmark makes
//! on its own thread (cache loads and stores, analysis, attribution) are
//! recorded through [`Tracer::leaf`], and the fork-join regions they wait
//! on through [`Tracer::phase`]. With the tracer off, both are a branch
//! and a direct call, and the wrappers are not constructed at all.

use dsa_core::domain::{DynDomain, Effort};
use dsa_core::pra::PraConfig;
use dsa_core::results::PraResults;
use dsa_core::sim::EncounterSim;
use dsa_core::space::DesignSpace;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The three simulation engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// File swarming (`dsa-swarm`).
    Swarm,
    /// Gossip dissemination (`dsa-gossip`).
    Gossip,
    /// Reputation-mediated sharing (`dsa-reputation`).
    Rep,
}

impl Engine {
    /// All engines, in report order.
    pub const ALL: [Engine; 3] = [Engine::Swarm, Engine::Rep, Engine::Gossip];

    /// The engine's registered domain name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Swarm => "swarm",
            Self::Gossip => "gossip",
            Self::Rep => "rep",
        }
    }

    /// The entry modes the engine is driven through by some workload.
    pub fn modes(self) -> &'static [Mode] {
        match self {
            Self::Swarm => &[Mode::Homog, Mode::Encounter],
            Self::Gossip | Self::Rep => &Mode::ALL,
        }
    }
}

/// The entry point an engine call came through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_homogeneous`: one protocol.
    Homog,
    /// `run_encounter`: two groups.
    Encounter,
    /// `run_encounter_churn`: two groups under identity churn.
    Churn,
    /// `run_mixed`: any number of groups.
    Mixed,
}

impl Mode {
    /// All modes, in report order.
    pub const ALL: [Mode; 4] = [Mode::Homog, Mode::Encounter, Mode::Churn, Mode::Mixed];

    /// The mode's metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Self::Homog => "homog",
            Self::Encounter => "encounter",
            Self::Churn => "churn",
            Self::Mixed => "mixed",
        }
    }
}

/// A timed call that does work itself (no other recorded call runs on
/// its thread while it runs), so leaf times on one thread never overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// One engine simulation.
    Engine(Engine, Mode),
    /// A stamped-cache load (`*::load`: stamp check, read, parse).
    CacheLoad,
    /// A stamped-cache store (`*::store`: serialize, write, rename).
    CacheStore,
    /// `DesignMatrix::build`.
    Design,
    /// `attribute_surface`.
    Fit,
    /// `dsa_evolution::analyze`.
    Analyze,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    leaf: Leaf,
    thread: u32,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Phase {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Log {
    events: Vec<Event>,
    phases: Vec<Phase>,
    cache_hit: u64,
    cache_miss: u64,
    bytes_read: u64,
    bytes_written: u64,
    pairings: u64,
    schedule_ns: u64,
}

/// The in-memory trace of one job: every leaf call and fork-join phase,
/// plus the cache and schedule counters.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    log: Mutex<Log>,
}

/// A small per-thread id, cheaper to record than `ThreadId`.
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }

    /// Whether calls are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("a traced call panicked")
    }

    fn record(&self, leaf: Leaf, start: Instant, end: Instant) {
        let event = Event {
            leaf,
            thread: thread_id(),
            start_ns: nanos(start.duration_since(self.epoch)),
            dur_ns: nanos(end.duration_since(start)),
        };
        self.log().events.push(event);
    }

    /// Runs `f` as a leaf call, timed when the tracer is on.
    pub fn leaf<R>(&self, leaf: Leaf, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(leaf, start, Instant::now());
        out
    }

    /// Runs `f` as a fork-join phase (the caller waits on the worker
    /// pool), timed when the tracer is on.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.log().phases.push(Phase {
            name,
            start_ns: nanos(start.duration_since(self.epoch)),
            end_ns: nanos(end.duration_since(self.epoch)),
        });
        out
    }

    /// Counts one load of the cache file at `path`: a hit adds the
    /// file's size to the bytes read.
    pub fn cache_load(&self, path: &Path, hit: bool) {
        if self.on {
            let bytes = if hit { file_len(path) } else { 0 };
            let mut log = self.log();
            if hit {
                log.cache_hit += 1;
            } else {
                log.cache_miss += 1;
            }
            log.bytes_read += bytes;
        }
    }

    /// Counts the bytes of the cache file just stored at `path`.
    pub fn cache_store(&self, path: &Path) {
        if self.on {
            let bytes = file_len(path);
            self.log().bytes_written += bytes;
        }
    }

    /// Counts one tournament schedule: its pairings and build time.
    pub fn schedule(&self, pairings: usize, took: std::time::Duration) {
        if self.on {
            let mut log = self.log();
            log.pairings += pairings as u64;
            log.schedule_ns += nanos(took);
        }
    }

    /// Derives the per-layer metrics of the recorded job, whose timed
    /// region took `wall_s` with `workers` pool threads.
    pub fn layers(&self, wall_s: f64, workers: usize) -> BTreeMap<String, f64> {
        let log = self.log();
        let mut out = BTreeMap::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        let sum_leaf = |want: Leaf| -> u64 {
            log.events
                .iter()
                .filter(|e| e.leaf == want)
                .map(|e| e.dur_ns)
                .sum()
        };

        for engine in Engine::ALL {
            for &mode in engine.modes() {
                let mut us: Vec<f64> = log
                    .events
                    .iter()
                    .filter(|e| e.leaf == Leaf::Engine(engine, mode))
                    .map(|e| e.dur_ns as f64 / 1e3)
                    .collect();
                us.sort_by(f64::total_cmp);
                let key = |stat: &str| format!("{}.{}.{stat}", engine.name(), mode.name());
                out.insert(key("calls"), us.len() as f64);
                out.insert(key("us_p50"), percentile(&us, 0.50));
                out.insert(key("us_p99"), percentile(&us, 0.99));
            }
        }

        let phase_s = |name: &str| -> f64 {
            log.phases
                .iter()
                .filter(|p| p.name == name)
                .map(|p| (p.end_ns - p.start_ns) as f64 / 1e9)
                .sum()
        };
        for name in PHASES {
            let (metric, scale) = match *name {
                "evolution.matrix" => ("evolution.matrix_ms".to_string(), 1e3),
                attack if attack.starts_with("attacks.") => (format!("{attack}.sweep_s"), 1.0),
                pra => (format!("{pra}_s"), 1.0),
            };
            out.insert(metric, phase_s(name) * scale);
        }
        out.insert("tournament.schedule_ms".into(), ms(log.schedule_ns));
        out.insert("tournament.pairings".into(), log.pairings as f64);

        let pool = pool_stats(&log, workers);
        out.insert("parallel.workers".into(), workers as f64);
        out.insert("parallel.busy_frac".into(), pool.busy_frac);
        out.insert("parallel.imbalance".into(), pool.imbalance);
        out.insert("parallel.idle_s".into(), pool.idle_s);

        let mut loads: Vec<f64> = log
            .events
            .iter()
            .filter(|e| e.leaf == Leaf::CacheLoad)
            .map(|e| ms(e.dur_ns))
            .collect();
        loads.sort_by(f64::total_cmp);
        out.insert("cache.store_ms".into(), ms(sum_leaf(Leaf::CacheStore)));
        out.insert("cache.load_ms_p50".into(), percentile(&loads, 0.50));
        out.insert("cache.load_ms_p99".into(), percentile(&loads, 0.99));
        out.insert("cache.bytes_read".into(), log.bytes_read as f64);
        out.insert("cache.bytes_written".into(), log.bytes_written as f64);
        out.insert("cache.hit".into(), log.cache_hit as f64);
        out.insert("cache.miss".into(), log.cache_miss as f64);

        out.insert("evolution.analyze_ms".into(), ms(sum_leaf(Leaf::Analyze)));
        out.insert("attribution.design_ms".into(), ms(sum_leaf(Leaf::Design)));
        out.insert("attribution.fit_ms".into(), ms(sum_leaf(Leaf::Fit)));

        let leaf_s: f64 = log.events.iter().map(|e| e.dur_ns as f64 / 1e9).sum();
        let capacity = wall_s * workers as f64;
        out.insert(
            "trace.coverage".into(),
            if capacity > 0.0 {
                leaf_s / capacity
            } else {
                0.0
            },
        );
        out
    }
}

/// The fork-join phases the benchmark records, by name.
pub const PHASES: &[&str] = &[
    "pra.performance",
    "pra.robustness",
    "pra.aggressiveness",
    "attacks.sybil",
    "attacks.collusion",
    "attacks.whitewash",
    "attacks.adaptive",
    "evolution.matrix",
];

/// Nearest-rank percentile of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct PoolStats {
    busy_frac: f64,
    imbalance: f64,
    idle_s: f64,
}

/// Worker-pool load over the recorded fork-join phases.
///
/// Engine calls inside a phase ran on pool threads. The threads of one
/// fork-join overlap in time and those of consecutive fork-joins do not
/// (the caller joins every worker before the next region starts), so
/// grouping a phase's threads by overlapping activity recovers each
/// fork-join's workers; its imbalance is max over mean worker busy time.
fn pool_stats(log: &Log, workers: usize) -> PoolStats {
    let mut capacity = 0.0f64;
    let mut busy = 0.0f64;
    let mut max_sum = 0.0f64;
    let mut mean_sum = 0.0f64;
    for phase in &log.phases {
        capacity += (phase.end_ns - phase.start_ns) as f64 / 1e9 * workers as f64;
        // thread -> (first start, last end, busy)
        let mut threads: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
        for e in log.events.iter().filter(|e| {
            matches!(e.leaf, Leaf::Engine(..))
                && e.start_ns >= phase.start_ns
                && e.start_ns < phase.end_ns
        }) {
            let t = threads
                .entry(e.thread)
                .or_insert((e.start_ns, e.start_ns + e.dur_ns, 0));
            t.0 = t.0.min(e.start_ns);
            t.1 = t.1.max(e.start_ns + e.dur_ns);
            t.2 += e.dur_ns;
        }
        let mut spans: Vec<(u64, u64, u64)> = threads.into_values().collect();
        spans.sort_unstable();
        let mut i = 0;
        while i < spans.len() {
            let mut end = spans[i].1;
            let mut j = i;
            while j < spans.len() && spans[j].0 < end {
                end = end.max(spans[j].1);
                j += 1;
            }
            let group = &spans[i..j.max(i + 1)];
            let group_busy: u64 = group.iter().map(|s| s.2).sum();
            busy += group_busy as f64 / 1e9;
            max_sum += group.iter().map(|s| s.2).max().unwrap_or(0) as f64;
            mean_sum += group_busy as f64 / group.len() as f64;
            i = j.max(i + 1);
        }
    }
    PoolStats {
        busy_frac: if capacity > 0.0 { busy / capacity } else { 0.0 },
        imbalance: if mean_sum > 0.0 {
            max_sum / mean_sum
        } else {
            0.0
        },
        idle_s: (capacity - busy).max(0.0),
    }
}

/// A typed simulator whose every call is recorded on a [`Tracer`].
pub struct Timed<'a, S> {
    /// The wrapped simulator.
    pub inner: &'a S,
    /// Which engine it is.
    pub engine: Engine,
    /// Where calls are recorded.
    pub tracer: &'a Tracer,
}

impl<S: EncounterSim> EncounterSim for Timed<'_, S> {
    type Protocol = S::Protocol;

    fn run_homogeneous(&self, protocol: &Self::Protocol, seed: u64) -> f64 {
        let start = Instant::now();
        let out = self.inner.run_homogeneous(protocol, seed);
        self.tracer.record(
            Leaf::Engine(self.engine, Mode::Homog),
            start,
            Instant::now(),
        );
        out
    }

    fn run_encounter(
        &self,
        a: &Self::Protocol,
        b: &Self::Protocol,
        fraction_a: f64,
        seed: u64,
    ) -> (f64, f64) {
        let start = Instant::now();
        let out = self.inner.run_encounter(a, b, fraction_a, seed);
        self.tracer.record(
            Leaf::Engine(self.engine, Mode::Encounter),
            start,
            Instant::now(),
        );
        out
    }
}

/// A registered domain whose engine entry points are recorded on a
/// [`Tracer`]; every other method delegates unchanged.
pub struct TimedDomain<'a> {
    /// The wrapped domain.
    pub inner: &'a dyn DynDomain,
    /// Which engine backs it.
    pub engine: Engine,
    /// Where calls are recorded.
    pub tracer: &'a Tracer,
}

impl TimedDomain<'_> {
    fn timed<R>(&self, mode: Mode, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.tracer
            .record(Leaf::Engine(self.engine, mode), start, Instant::now());
        out
    }
}

impl DynDomain for TimedDomain<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &DesignSpace {
        self.inner.space()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn space_hash(&self) -> u64 {
        self.inner.space_hash()
    }

    fn code(&self, index: usize) -> String {
        self.inner.code(index)
    }

    fn describe(&self, index: usize) -> String {
        self.inner.describe(index)
    }

    fn parse(&self, token: &str) -> Result<usize, String> {
        self.inner.parse(token)
    }

    fn presets(&self) -> Vec<(String, usize)> {
        self.inner.presets()
    }

    fn attackers(&self) -> Vec<(String, usize)> {
        self.inner.attackers()
    }

    fn whitewasher(&self) -> Option<usize> {
        self.inner.whitewasher()
    }

    fn supports_churn(&self) -> bool {
        self.inner.supports_churn()
    }

    fn population(&self, effort: Effort) -> usize {
        self.inner.population(effort)
    }

    fn supports_mixed(&self) -> bool {
        self.inner.supports_mixed()
    }

    fn run_mixed(&self, groups: &[(usize, usize)], effort: Effort, seed: u64) -> Vec<f64> {
        self.timed(Mode::Mixed, || self.inner.run_mixed(groups, effort, seed))
    }

    fn sim_signature(&self, effort: Effort) -> String {
        self.inner.sim_signature(effort)
    }

    fn simulate_report(&self, index: usize, effort: Effort, churn: f64, seed: u64) -> String {
        self.inner.simulate_report(index, effort, churn, seed)
    }

    fn run_homogeneous(&self, index: usize, effort: Effort, seed: u64) -> f64 {
        self.timed(Mode::Homog, || {
            self.inner.run_homogeneous(index, effort, seed)
        })
    }

    fn run_encounter(
        &self,
        a: usize,
        b: usize,
        fraction_a: f64,
        effort: Effort,
        seed: u64,
    ) -> (f64, f64) {
        self.timed(Mode::Encounter, || {
            self.inner.run_encounter(a, b, fraction_a, effort, seed)
        })
    }

    fn run_encounter_churn(
        &self,
        a: usize,
        b: usize,
        fraction_a: f64,
        effort: Effort,
        churn: f64,
        seed: u64,
    ) -> (f64, f64) {
        self.timed(Mode::Churn, || {
            self.inner
                .run_encounter_churn(a, b, fraction_a, effort, churn, seed)
        })
    }

    fn quantify(&self, indices: &[usize], effort: Effort, config: &PraConfig) -> PraResults {
        self.inner.quantify(indices, effort, config)
    }

    fn quantify_all(&self, effort: Effort, config: &PraConfig) -> PraResults {
        self.inner.quantify_all(effort, config)
    }

    fn codes(&self) -> Vec<String> {
        self.inner.codes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn pool_stats_split_sequential_fork_joins() {
        // Two fork-joins inside one phase: threads 0,1 then threads 2,3.
        let ev = |thread, start_ns, dur_ns| Event {
            leaf: Leaf::Engine(Engine::Rep, Mode::Encounter),
            thread,
            start_ns,
            dur_ns,
        };
        let log = Log {
            events: vec![
                ev(0, 0, 100),
                ev(1, 0, 50),
                ev(2, 200, 100),
                ev(3, 200, 100),
            ],
            phases: vec![Phase {
                name: "attacks.sybil",
                start_ns: 0,
                end_ns: 300,
            }],
            ..Log::default()
        };
        let s = pool_stats(&log, 2);
        // busy 350 ns of 600 ns capacity
        assert!((s.busy_frac - 350.0 / 600.0).abs() < 1e-12);
        // (100 + 100) / (75 + 100)
        assert!((s.imbalance - 200.0 / 175.0).abs() < 1e-12);
    }
}
