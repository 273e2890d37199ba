//! The benchmark's jobs: what each workload computes and reloads, built
//! from the public functions of the pipeline's modules.

use crate::checks::{stamped_digest, Checks, Digests};
use crate::trace::{Engine, Leaf, Timed, TimedDomain, Tracer, PHASES};
use dsa_attacks::model::AttackModel;
use dsa_attacks::sweep::{AttackConfig, AttackSweep};
use dsa_attribution::{
    attack_surface, attribute_surface, evolution_surface, fingerprint, pra_surface, AttribTable,
    DesignMatrix, ResponseKind, ResponseSurface,
};
use dsa_bench::Scale;
use dsa_core::cache::{DomainSweep, SweepKey};
use dsa_core::domain::{fnv1a, fnv1a_continue, Domain, DynDomain};
use dsa_core::pra::{performance_phase, tournament_rates, PraConfig};
use dsa_core::results::PraResults;
use dsa_core::sim::EncounterSim;
use dsa_core::tournament::{schedule, OpponentSampling};
use dsa_evolution::payoff::{empirical_matrix, EvoConfig};
use dsa_evolution::{analyze, default_candidates, EvoSweep};
use dsa_workloads::seeds::SeedSeq;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A scale preset with the workload seed and the explicit worker count.
pub fn scale(base: Scale, seed: u64, workers: usize) -> Scale {
    let mut s = base;
    s.pra.seed = seed;
    s.pra.threads = workers;
    s
}

/// Tournament pairings per tournament, as `tournament::schedule` builds
/// them.
pub fn pairings(n: usize, sampling: OpponentSampling) -> usize {
    match sampling {
        OpponentSampling::Exhaustive => n * n.saturating_sub(1),
        OpponentSampling::Sampled(k) => n * k.min(n.saturating_sub(1)),
    }
}

/// Engine runs of one PRA sweep: the performance runs plus both
/// tournaments' encounter runs.
pub fn pra_runs(n: usize, c: &PraConfig) -> usize {
    n * c.performance_runs.max(1) + 2 * pairings(n, c.sampling) * c.encounter_runs.max(1)
}

/// One cache entry as a reload pass read it back.
pub enum Loaded {
    /// A PRA sweep.
    Pra(DomainSweep),
    /// An attack sweep.
    Attack(AttackSweep),
    /// An evolution payoff matrix.
    Evo(EvoSweep),
    /// An attribution table, as cached and as re-fitted this pass.
    Attrib(AttribTable, AttribTable),
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// An FNV-style hash over values without formatting them, one multiply
/// per float: cheap enough to digest every reload pass. NaNs hash alike
/// whatever their payload bits, as they print alike in the cache files.
struct ValueHash(u64);

impl ValueHash {
    fn new() -> Self {
        Self(fnv1a(b""))
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0 = fnv1a_continue(self.0, b);
        self.0 = fnv1a_continue(self.0, &(b.len() as u64).to_le_bytes());
        self
    }

    fn strs(&mut self, xs: &[String]) -> &mut Self {
        for x in xs {
            self.bytes(x.as_bytes());
        }
        self
    }

    fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        for &x in xs {
            let bits = if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            };
            self.0 = fnv1a_continue(self.0, &bits.to_le_bytes());
        }
        self
    }
}

fn attrib_values(t: &AttribTable) -> u64 {
    let mut h = ValueHash::new();
    h.bytes(t.key.meta_line().as_bytes());
    for axis in &t.axes {
        h.bytes(axis.axis.as_bytes())
            .f64s(&[axis.n as f64, axis.r2, axis.adj_r2]);
        for d in &axis.dims {
            h.bytes(d.name.as_bytes()).f64s(&[
                d.levels as f64,
                d.eta_sq,
                d.partial_eta_sq,
                d.f_stat,
                d.p_value,
            ]);
        }
    }
    h.0
}

impl Loaded {
    /// The cache file the entry came from.
    pub fn file(&self) -> String {
        let here = Path::new("");
        file_name(&match self {
            Self::Pra(s) => s.key.cache_path(here),
            Self::Attack(s) => s.path(here),
            Self::Evo(s) => s.path(here),
            Self::Attrib(cached, _) => cached.path(here),
        })
    }

    /// The digest of the entry re-serialized with its stamp: equal to
    /// the file's digest when the load parsed every byte back.
    pub fn file_digest(&self) -> u64 {
        match self {
            Self::Pra(s) => stamped_digest(&s.key.meta_line(), &s.results.to_csv(Some(&s.names))),
            Self::Attack(s) => stamped_digest(&s.key.meta_line(), &s.to_csv()),
            Self::Evo(s) => stamped_digest(&s.key.meta_line(), &s.to_csv()),
            Self::Attrib(cached, _) => stamped_digest(&cached.key.meta_line(), &cached.to_csv()),
        }
    }

    /// A digest of the loaded values and stamp, without serializing.
    pub fn value_digest(&self) -> u64 {
        let mut h = ValueHash::new();
        match self {
            Self::Pra(s) => {
                let r = &s.results;
                h.bytes(s.key.meta_line().as_bytes())
                    .strs(&s.names)
                    .f64s(&r.performance_raw)
                    .f64s(&r.performance)
                    .f64s(&r.robustness)
                    .f64s(&r.aggressiveness);
            }
            Self::Attack(s) => {
                h.bytes(s.key.meta_line().as_bytes())
                    .strs(&s.names)
                    .f64s(&s.budgets);
                for row in &s.robustness {
                    h.f64s(row);
                }
            }
            Self::Evo(s) => {
                h.bytes(s.key.meta_line().as_bytes()).strs(&s.matrix.names);
                for row in &s.matrix.payoff {
                    h.f64s(row);
                }
            }
            Self::Attrib(cached, _) => return attrib_values(cached),
        }
        h.0
    }

    /// Checks the model invariants; for an attribution table, also that
    /// the fits re-run this pass reproduce the cached table.
    pub fn check(&self, checks: &mut Checks) {
        match self {
            Self::Pra(s) => checks.pra(&self.file(), &s.results),
            Self::Attack(s) => checks.robustness(&self.file(), &s.robustness),
            Self::Evo(s) => checks.payoffs(&self.file(), &s.matrix.payoff),
            Self::Attrib(cached, fresh) => {
                checks.check(attrib_values(cached) == attrib_values(fresh), || {
                    format!(
                        "{}: re-fitted attribution differs from the cache",
                        self.file()
                    )
                });
            }
        }
    }
}

/// File name → digest over a reload pass's entries, by `digest`.
pub fn digests(loaded: &[Loaded], digest: impl Fn(&Loaded) -> u64) -> Digests {
    loaded.iter().map(|l| (l.file(), digest(l))).collect()
}

/// A timed, counted cache load of the file at `path`.
fn probe<T>(
    tr: &Tracer,
    path: &Path,
    load: impl FnOnce() -> Result<Option<T>, String>,
) -> Result<Option<T>, String> {
    let found = tr.leaf(Leaf::CacheLoad, load)?;
    tr.cache_load(path, found.is_some());
    Ok(found)
}

/// A cache load that must hit.
fn reload_one<T>(
    tr: &Tracer,
    path: &Path,
    load: impl FnOnce() -> Result<Option<T>, String>,
) -> Result<T, String> {
    probe(tr, path, load)?.ok_or_else(|| format!("{}: no valid cache", path.display()))
}

/// A cold job's cache probe, which must miss.
fn miss<T>(
    tr: &Tracer,
    path: &Path,
    load: impl FnOnce() -> Result<Option<T>, String>,
) -> Result<(), String> {
    match probe(tr, path, load)? {
        None => Ok(()),
        Some(_) => Err(format!("{}: cold job found a cache", path.display())),
    }
}

/// A timed, counted cache store.
fn store(tr: &Tracer, store: impl FnOnce() -> Result<PathBuf, String>) -> Result<(), String> {
    let path = tr.leaf(Leaf::CacheStore, store)?;
    tr.cache_store(&path);
    Ok(())
}

/// One domain's PRA sweep with its inputs prepared: the typed simulator
/// and protocol list, display codes and cache key.
pub struct PraJob<S: EncounterSim> {
    engine: Engine,
    sim: S,
    protocols: Vec<S::Protocol>,
    names: Vec<String>,
    key: SweepKey,
    config: PraConfig,
}

impl<S: EncounterSim> PraJob<S> {
    /// Prepares the sweep of `domain` (typed) / `erased` at a scale.
    pub fn new<D: Domain<Sim = S>>(
        domain: &D,
        erased: &dyn DynDomain,
        engine: Engine,
        scale: &Scale,
    ) -> Self {
        let effort = scale.effort();
        Self {
            engine,
            sim: domain.sim(effort, 0.0),
            protocols: (0..erased.size()).map(|i| domain.protocol(i)).collect(),
            names: erased.codes(),
            key: SweepKey::of(erased, scale.name, effort, &scale.pra),
            config: scale.pra,
        }
    }

    /// Protocols in the swept space.
    pub fn protocols(&self) -> usize {
        self.protocols.len()
    }

    /// Engine runs of one sweep.
    pub fn runs(&self) -> usize {
        pra_runs(self.protocols.len(), &self.config)
    }

    /// The cold sweep: a cache probe that misses, the three PRA phases
    /// (as `pra::quantify` runs them) and the cache write, as
    /// `DomainSweep::load_or_compute` does.
    pub fn run(&self, dir: &Path, tr: &Tracer) -> Result<(), String> {
        miss(tr, &self.key.cache_path(dir), || {
            DomainSweep::load(&self.key, dir)
        })?;
        let results = if tr.on() {
            let timed = Timed {
                inner: &self.sim,
                engine: self.engine,
                tracer: tr,
            };
            quantify(&timed, &self.protocols, &self.config, tr)
        } else {
            quantify(&self.sim, &self.protocols, &self.config, tr)
        };
        let sweep = DomainSweep {
            key: self.key.clone(),
            names: self.names.clone(),
            results,
            from_cache: false,
        };
        store(tr, || sweep.store(dir))
    }

    /// Builds both tournaments' schedules once more, outside the timed
    /// job, to time `tournament::schedule` (the PRA phases build them
    /// inside `tournament_rates`, where the benchmark cannot see).
    pub fn time_schedules(&self, tr: &Tracer) {
        let seed = SeedSeq::new(self.config.seed).child(99).seed();
        for _ in 0..2 {
            let start = Instant::now();
            let pairings = schedule(self.protocols.len(), self.config.sampling, seed);
            tr.schedule(std::hint::black_box(pairings).len(), start.elapsed());
        }
    }

    /// Reloads the cached sweep.
    pub fn reload(&self, dir: &Path, tr: &Tracer) -> Result<DomainSweep, String> {
        reload_one(tr, &self.key.cache_path(dir), || {
            DomainSweep::load(&self.key, dir)
        })
    }
}

/// `pra::quantify`, phase by phase, so each phase is timed from outside.
fn quantify<S: EncounterSim>(
    sim: &S,
    protocols: &[S::Protocol],
    config: &PraConfig,
    tr: &Tracer,
) -> PraResults {
    let raw = tr.phase("pra.performance", || {
        performance_phase(sim, protocols, config)
    });
    let performance = dsa_stats::describe::normalize_by_max(&raw);
    let robustness = tr.phase("pra.robustness", || {
        tournament_rates(sim, protocols, config.robustness_share, config, 1)
    });
    let aggressiveness = tr.phase("pra.aggressiveness", || {
        tournament_rates(sim, protocols, config.aggressiveness_share, config, 2)
    });
    PraResults::new(raw, performance, robustness, aggressiveness)
}

/// One attack model's sweep, with its cache key and phase name.
struct AttackJob {
    model: Arc<dyn AttackModel>,
    key: SweepKey,
    phase: &'static str,
}

/// Everything the pipeline computes for one domain: its PRA sweep, the
/// four attack sweeps and the evolution payoff matrix.
pub struct DomainJobs<S: EncounterSim> {
    pra: PraJob<S>,
    domain: Arc<dyn DynDomain>,
    scale: Scale,
    attack: AttackConfig,
    attacks: Vec<AttackJob>,
    evo: EvoConfig,
    evo_key: SweepKey,
    candidates: Vec<usize>,
    /// The evolution response surface, analysed once when the caches are
    /// built; reload passes re-fit it without re-running the analysis.
    evo_surface: Option<ResponseSurface>,
}

impl<S: EncounterSim> DomainJobs<S> {
    /// Prepares every input and cache key of the domain's pipeline.
    pub fn new<D: Domain<Sim = S>>(
        typed: &D,
        domain: Arc<dyn DynDomain>,
        engine: Engine,
        scale: &Scale,
    ) -> Self {
        let effort = scale.effort();
        let attack = dsa_bench::attackfig::attack_config(scale, None);
        let attacks = dsa_attacks::register_builtin()
            .into_iter()
            .map(|model| {
                let phase = PHASES
                    .iter()
                    .copied()
                    .find(|p| p.strip_prefix("attacks.") == Some(model.name()))
                    .expect("every built-in attack model has a phase name");
                AttackJob {
                    key: attack.key(&*domain, &*model, scale.name, effort),
                    model,
                    phase,
                }
            })
            .collect();
        let evo = dsa_bench::evofig::evo_config(scale);
        let candidates = default_candidates(&*domain);
        Self {
            pra: PraJob::new(typed, &*domain, engine, scale),
            evo_key: EvoSweep::key(&*domain, &candidates, scale.name, effort, &evo),
            candidates,
            evo_surface: None,
            evo,
            attack,
            attacks,
            scale: scale.clone(),
            domain,
        }
    }

    /// Engine runs of the domain's pipeline: PRA runs, one run per attack
    /// cell and run, one per payoff-matrix cell and run.
    pub fn runs(&self) -> usize {
        let n = self.domain.size();
        let k = self.candidates.len();
        self.pra.runs()
            + self.attacks.len() * self.attack.budgets.len() * n * self.attack.encounter_runs.max(1)
            + k * (k + 1) / 2 * self.evo.encounter_runs.max(1)
    }

    /// The cold pipeline: PRA sweep, attack sweeps, payoff matrix and its
    /// analysis, each written to the cache.
    pub fn run(&self, dir: &Path, tr: &Tracer) -> Result<(), String> {
        self.pra.run(dir, tr)?;
        let timed = TimedDomain {
            inner: &*self.domain,
            engine: self.pra.engine,
            tracer: tr,
        };
        let domain: &dyn DynDomain = if tr.on() { &timed } else { &*self.domain };
        let (name, scale, effort) = (self.domain.name(), self.scale.name, self.scale.effort());
        for job in &self.attacks {
            let model = job.model.name();
            miss(
                tr,
                &AttackSweep::cache_path(dir, name, model, scale),
                || AttackSweep::load(&job.key, model, &self.attack.budgets, dir),
            )?;
            let sweep = tr.phase(job.phase, || {
                AttackSweep::compute(domain, &*job.model, effort, &self.attack, scale)
            });
            store(tr, || sweep.store(dir))?;
        }

        miss(tr, &EvoSweep::cache_path(dir, name, scale), || {
            EvoSweep::load(&self.evo_key, &*self.domain, &self.candidates, effort, dir)
        })?;
        let matrix = tr.phase("evolution.matrix", || {
            empirical_matrix(domain, &self.candidates, effort, &self.evo)
        });
        let sweep = EvoSweep {
            key: self.evo_key.clone(),
            matrix,
            from_cache: false,
        };
        store(tr, || sweep.store(dir))?;
        let analysis = tr.leaf(Leaf::Analyze, || analyze(&sweep.matrix, &self.evo));
        std::hint::black_box(analysis);
        Ok(())
    }

    /// Times the tournament schedules of the domain's PRA sweep.
    pub fn time_schedules(&self, tr: &Tracer) {
        self.pra.time_schedules(tr);
    }

    /// Builds every stamped cache kind (pra, attack, evo, attrib) the way
    /// `experiments attribution` does on an empty directory: through the
    /// response-surface builders' `load_or_compute` paths. Keeps the
    /// evolution surface for the reload passes.
    pub fn build_caches(&mut self, dir: &Path) -> Result<(), String> {
        let d = &*self.domain;
        let effort = self.scale.effort();
        let models: Vec<Arc<dyn AttackModel>> =
            self.attacks.iter().map(|j| Arc::clone(&j.model)).collect();
        let surfaces = [
            pra_surface(d, effort, &self.scale.pra, self.scale.name, dir)?,
            attack_surface(d, &models, effort, &self.attack, self.scale.name, dir)?,
            evolution_surface(d, &self.candidates, effort, &self.evo, self.scale.name, dir)?,
        ];
        for surface in &surfaces {
            AttribTable::load_or_compute(d, surface, self.scale.pra.threads, dir)?;
        }
        let [_, _, evo] = surfaces;
        self.evo_surface = Some(evo);
        Ok(())
    }

    /// One warm reload of the domain's caches: every stamp re-validated
    /// and every body parsed; with `attribution`, the attribution tables
    /// too, after re-running the design matrix and the fits over the
    /// reloaded PRA and attack surfaces and the kept evolution surface.
    pub fn reload(
        &self,
        dir: &Path,
        tr: &Tracer,
        attribution: bool,
        loaded: &mut Vec<Loaded>,
    ) -> Result<(), String> {
        let (name, scale, effort) = (self.domain.name(), self.scale.name, self.scale.effort());
        let pra = self.pra.reload(dir, tr)?;
        let mut attacks = Vec::with_capacity(self.attacks.len());
        for job in &self.attacks {
            let model = job.model.name();
            attacks.push(reload_one(
                tr,
                &AttackSweep::cache_path(dir, name, model, scale),
                || AttackSweep::load(&job.key, model, &self.attack.budgets, dir),
            )?);
        }
        let evo = reload_one(tr, &EvoSweep::cache_path(dir, name, scale), || {
            EvoSweep::load(&self.evo_key, &*self.domain, &self.candidates, effort, dir)
        })?;

        if attribution {
            let evo_surface = self
                .evo_surface
                .as_ref()
                .ok_or("reload pass before the caches were built")?;
            let surfaces = [
                &surface_of_pra(&pra),
                &surface_of_attacks(&self.attacks[0].key, self.domain.size(), &attacks),
                evo_surface,
            ];
            for surface in surfaces {
                let key = surface.base.clone().with_attrib(fingerprint(surface));
                let path = AttribTable::cache_path(dir, name, &surface.response, scale);
                let cached = reload_one(tr, &path, || {
                    AttribTable::load(&key, &surface.response, dir)
                })?;
                let dm = tr.leaf(Leaf::Design, || {
                    DesignMatrix::build(self.domain.space(), &surface.rows, self.scale.pra.threads)
                });
                let axes = tr.leaf(Leaf::Fit, || attribute_surface(&dm, surface));
                loaded.push(Loaded::Attrib(
                    cached,
                    AttribTable::from_axes(surface, &axes),
                ));
            }
        }
        loaded.push(Loaded::Pra(pra));
        loaded.extend(attacks.into_iter().map(Loaded::Attack));
        loaded.push(Loaded::Evo(evo));
        Ok(())
    }
}

/// The PRA response surface of a reloaded sweep, as
/// `dsa_attribution::pra_surface` builds it. The reload pass builds its
/// surfaces itself because the crate's builders load through
/// `load_or_compute`, which would hide each cache load from the timing.
fn surface_of_pra(sweep: &DomainSweep) -> ResponseSurface {
    let mut base = sweep.key.clone();
    base.attack = 0;
    base.evo = 0;
    base.attrib = 0;
    let r = &sweep.results;
    ResponseSurface {
        response: ResponseKind::Pra.name().to_string(),
        rows: (0..r.len()).collect(),
        axes: vec![
            ("performance".into(), r.performance.clone()),
            ("robustness".into(), r.robustness.clone()),
            ("aggressiveness".into(), r.aggressiveness.clone()),
        ],
        sources: sweep.key.meta_line(),
        base,
        from_cache: true,
    }
}

/// The attack response surface of reloaded sweeps (one axis per model:
/// mean survival over the budget grid), as
/// `dsa_attribution::attack_surface` builds it.
fn surface_of_attacks(first: &SweepKey, n: usize, sweeps: &[AttackSweep]) -> ResponseSurface {
    let mut base = first.clone();
    base.attack = 0;
    let mut sources = Vec::with_capacity(sweeps.len());
    let mut axes = Vec::with_capacity(sweeps.len());
    for sweep in sweeps {
        sources.push(sweep.key.meta_line());
        let budgets = sweep.robustness.len().max(1) as f64;
        let mut mean = vec![0.0f64; n];
        for row in &sweep.robustness {
            for (m, &r) in mean.iter_mut().zip(row) {
                *m += r / budgets;
            }
        }
        axes.push((sweep.model.clone(), mean));
    }
    ResponseSurface {
        response: ResponseKind::Attack.name().to_string(),
        rows: (0..n).collect(),
        axes,
        base,
        sources: sources.join("\n"),
        from_cache: true,
    }
}

/// The rep and gossip pipelines at one scale.
pub struct RepGossip {
    /// The reputation domain.
    pub rep: DomainJobs<dsa_reputation::RepSim>,
    /// The gossip domain.
    pub gossip: DomainJobs<dsa_gossip::GossipSim>,
}

impl RepGossip {
    /// Prepares both domains' pipelines.
    pub fn new(scale: &Scale) -> Self {
        Self {
            rep: DomainJobs::new(
                &dsa_reputation::RepDomain,
                dsa_reputation::adapter::register(),
                Engine::Rep,
                scale,
            ),
            gossip: DomainJobs::new(
                &dsa_gossip::GossipDomain,
                dsa_gossip::adapter::register(),
                Engine::Gossip,
                scale,
            ),
        }
    }

    /// Engine runs of both pipelines.
    pub fn runs(&self) -> usize {
        self.rep.runs() + self.gossip.runs()
    }

    /// Runs both cold pipelines.
    pub fn run(&self, dir: &Path, tr: &Tracer) -> Result<(), String> {
        self.rep.run(dir, tr)?;
        self.gossip.run(dir, tr)
    }

    /// Times both domains' tournament schedules.
    pub fn time_schedules(&self, tr: &Tracer) {
        self.rep.time_schedules(tr);
        self.gossip.time_schedules(tr);
    }

    /// Builds every cache kind for both domains.
    pub fn build_caches(&mut self, dir: &Path) -> Result<(), String> {
        self.rep.build_caches(dir)?;
        self.gossip.build_caches(dir)
    }

    /// One reload pass over both domains.
    pub fn reload(
        &self,
        dir: &Path,
        tr: &Tracer,
        attribution: bool,
        loaded: &mut Vec<Loaded>,
    ) -> Result<(), String> {
        self.rep.reload(dir, tr, attribution, loaded)?;
        self.gossip.reload(dir, tr, attribution, loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::digest_dir;

    /// The reference pass re-serializes what it loaded and compares it
    /// with the file digests taken when the job ended: one byte flipped
    /// in between is one failed check.
    #[test]
    fn a_flipped_byte_in_a_cache_file_is_counted() {
        let dir = std::env::temp_dir().join(format!("perfbench-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = SweepKey {
            domain: "toy".into(),
            space_hash: 1,
            scale: "smoke".into(),
            params: 2,
            seed: 3,
            len: 2,
            attack: 0,
            evo: 0,
            attrib: 0,
        };
        let sweep = DomainSweep {
            key: key.clone(),
            names: vec!["a".into(), "b".into()],
            results: PraResults::new(
                vec![2.0, 1.0],
                vec![1.0, 0.5],
                vec![0.25, 0.75],
                vec![0.5, 0.5],
            ),
            from_cache: false,
        };
        let path = sweep.store(&dir).expect("store the cache");
        let files = digest_dir(&dir).expect("digest the cache");
        let reload = |checks: &mut Checks| {
            let loaded = DomainSweep::load(&key, &dir)
                .expect("parse the cache")
                .expect("the stamp still matches");
            let got = digests(&[Loaded::Pra(loaded)], Loaded::file_digest);
            checks.same_digests("reload", &files, &got);
        };

        let mut checks = Checks::default();
        reload(&mut checks);
        assert_eq!((checks.attempted, checks.failed), (1, 0));

        // 0.75 becomes 0.74: still a valid cache, but not the one written.
        let mut bytes = std::fs::read(&path).expect("read the cache");
        let at = bytes
            .windows(4)
            .position(|w| w == b"0.75")
            .expect("the robustness value")
            + 3;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("plant the flipped byte");
        reload(&mut checks);
        std::fs::remove_dir_all(&dir).expect("remove the test directory");
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }
}
