//! End-to-end and per-layer benchmark of the DSA sweep pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pra-swarm|pipeline-rep-gossip|reload-warm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root; outputs go to `.bench_work/` there and
//! are removed at exit. The last line of standard output is one JSON
//! object: `correct`, `attempted` and `failed` (output checks) and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod checks;
mod trace;
mod workloads;

use checks::{digest_dir, Checks, Digests};
use dsa_bench::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Engine, Tracer};
use workloads::{digests, pra_runs, Loaded, PraJob, RepGossip};

/// Reload passes behind each latency percentile set: p90 of 100 passes
/// has 10 samples beyond it.
const PASSES: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const COLD_SETUPS: usize = 51;
const WARM_SETUPS: usize = 3;

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("reload_ms_p50", "ms"),
    ("reload_ms_p90", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = checks::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: want a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["pra-swarm", "pipeline-rep-gossip", "reload-warm"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (pra-swarm|pipeline-rep-gossip|reload-warm)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A workload with its inputs prepared.
enum Bench {
    /// Cold PRA sweep of the swarm space at smoke effort.
    Swarm(PraJob<dsa_swarm::SwarmSim>),
    /// Cold rep + gossip PRA, attack and evolution pipeline at lab effort.
    Pipeline(RepGossip),
    /// Warm reload of every rep + gossip cache kind (built at smoke
    /// effort in set-up).
    Reload(RepGossip),
}

impl Bench {
    /// Prepares the workload's inputs; `reload-warm` also builds its
    /// caches in `dir`.
    fn setup(workload: &str, seed: u64, workers: usize, dir: &Path) -> Result<Self, String> {
        Ok(match workload {
            "pra-swarm" => {
                let scale = workloads::scale(Scale::smoke(), seed, workers);
                let erased = dsa_swarm::adapter::register();
                Self::Swarm(PraJob::new(
                    &dsa_swarm::SwarmDomain,
                    &*erased,
                    Engine::Swarm,
                    &scale,
                ))
            }
            "pipeline-rep-gossip" => Self::Pipeline(RepGossip::new(&workloads::scale(
                Scale::lab(),
                seed,
                workers,
            ))),
            _ => {
                let mut jobs = RepGossip::new(&workloads::scale(Scale::smoke(), seed, workers));
                jobs.build_caches(dir)?;
                Self::Reload(jobs)
            }
        })
    }

    fn cold(&self) -> bool {
        !matches!(self, Self::Reload(_))
    }

    /// One cold job into the empty `dir`.
    fn job(&self, dir: &Path, tr: &Tracer) -> Result<(), String> {
        match self {
            Self::Swarm(job) => job.run(dir, tr),
            Self::Pipeline(jobs) => jobs.run(dir, tr),
            Self::Reload(_) => Err("reload-warm has no cold job".into()),
        }
    }

    /// Units of work in one job: engine runs of a cold job, reload passes
    /// of a warm one.
    fn runs_per_job(&self) -> usize {
        match self {
            Self::Swarm(job) => job.runs(),
            Self::Pipeline(jobs) => jobs.runs(),
            Self::Reload(_) => PASSES,
        }
    }

    /// One warm reload pass over what the workload writes.
    fn pass(&self, dir: &Path, tr: &Tracer) -> Result<Vec<Loaded>, String> {
        let mut loaded = Vec::new();
        match self {
            Self::Swarm(job) => loaded.push(Loaded::Pra(job.reload(dir, tr)?)),
            Self::Pipeline(jobs) => jobs.reload(dir, tr, false, &mut loaded)?,
            Self::Reload(jobs) => jobs.reload(dir, tr, true, &mut loaded)?,
        }
        Ok(loaded)
    }

    /// For `pra-swarm`: the engine runs of the same sweep at paper scale
    /// (`Scale::paper`: §4.3's 500 rounds, 100 performance runs, 10 runs
    /// per encounter, exhaustive opponents) and its rounds per run over
    /// the measured smoke scale's.
    fn paper_runs(&self) -> Option<(usize, f64)> {
        let Self::Swarm(job) = self else {
            return None;
        };
        let (paper, smoke) = (Scale::paper(), Scale::smoke());
        Some((
            pra_runs(job.protocols(), &paper.pra),
            paper.sim.rounds as f64 / smoke.sim.rounds as f64,
        ))
    }

    fn time_schedules(&self, tr: &Tracer) {
        match self {
            Self::Swarm(job) => job.time_schedules(tr),
            Self::Pipeline(jobs) => jobs.time_schedules(tr),
            Self::Reload(_) => {}
        }
    }
}

/// Process user + system CPU seconds, from `/proc/self/stat` (fields 14
/// and 15, in clock ticks of 1/100 s).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok(ticks(11)? + ticks(12)?)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    trace::percentile(&v, 0.5)
}

/// Nanoseconds per `Xoshiro256pp::next_u64`: the median of 201 timings
/// of the `rng_1k_draws` bench loop. A machine-speed sentinel.
fn ns_per_draw() -> f64 {
    let mut rng = dsa_workloads::rng::Xoshiro256pp::seed_from_u64(1);
    let mut samples = Vec::with_capacity(201);
    for _ in 0..201 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        std::hint::black_box(acc);
        samples.push(start.elapsed().as_nanos() as f64 / 1000.0);
    }
    median(&samples)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// One timed job: its wall-clock and (for a warm job) the pass latencies.
struct JobTiming {
    wall_s: f64,
    pass_ms: Vec<f64>,
}

/// Everything a run measured.
struct Run {
    setup_s: Vec<f64>,
    /// User + system CPU per job: the timed region's over its job count.
    cpu_per_job: f64,
    runs_per_job: usize,
    /// Engine runs of a paper-scale sweep and its rounds per run relative
    /// to the measured one (`pra-swarm` only).
    paper_runs: Option<(usize, f64)>,
    ns_per_draw: f64,
    jobs: Vec<JobTiming>,
    pass_ms: Vec<f64>,
    checks: Checks,
    layers: BTreeMap<String, f64>,
}

/// Runs a cold job into a fresh `dir`; returns its timing and the
/// digests of the files it wrote.
fn cold_job(bench: &Bench, dir: &Path, tr: &Tracer) -> Result<(JobTiming, Digests), String> {
    fresh_dir(dir)?;
    let start = Instant::now();
    bench.job(dir, tr)?;
    let wall_s = start.elapsed().as_secs_f64();
    let timing = JobTiming {
        wall_s,
        pass_ms: Vec::new(),
    };
    Ok((timing, digest_dir(dir)?))
}

/// The untimed reference pass over a cache directory: every entry must
/// re-serialize to its file's bytes and meet the model invariants.
/// Returns the value digests later passes must reproduce.
fn reference_pass(
    bench: &Bench,
    dir: &Path,
    files: &Digests,
    checks: &mut Checks,
) -> Result<Digests, String> {
    let loaded = bench.pass(dir, &Tracer::new(false))?;
    checks.same_digests("reload", files, &digests(&loaded, Loaded::file_digest));
    for l in &loaded {
        l.check(checks);
    }
    Ok(digests(&loaded, Loaded::value_digest))
}

/// `count` timed reload passes, each checked against the reference.
fn passes(
    bench: &Bench,
    dir: &Path,
    tr: &Tracer,
    count: usize,
    reference: &Digests,
    checks: &mut Checks,
) -> Result<JobTiming, String> {
    let mut pass_ms = Vec::with_capacity(count);
    let start = Instant::now();
    for _ in 0..count {
        let t0 = Instant::now();
        let loaded = bench.pass(dir, tr)?;
        pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        checks.same_digests("pass", reference, &digests(&loaded, Loaded::value_digest));
        for l in &loaded {
            l.check(checks);
        }
    }
    Ok(JobTiming {
        wall_s: start.elapsed().as_secs_f64(),
        pass_ms,
    })
}

fn run(args: &Args, workers: usize, work: &Path) -> Result<Run, String> {
    let mut checks = Checks::default();
    let data = work.join("data");

    // Set-up, several times; the last one's inputs (and, for
    // reload-warm, caches) are used.
    let setups = if args.workload == "reload-warm" {
        WARM_SETUPS
    } else {
        COLD_SETUPS
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench = None;
    for _ in 0..setups {
        drop(bench.take());
        fresh_dir(&data)?;
        let start = Instant::now();
        let b = Bench::setup(&args.workload, args.seed, workers, &data)?;
        setup_s.push(start.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    let off = Tracer::new(false);
    let mut jobs = Vec::new();
    let mut pass_ms = Vec::new();
    let mut layers = BTreeMap::new();
    let mut cpu_per_job = 0.0;
    // The files a reload pass reads: set-up's caches (warm) or what the
    // cold jobs wrote, which every cold job must write alike.
    let mut files = digest_dir(&data)?;
    let mut reference = if bench.cold() {
        Digests::new()
    } else {
        reference_pass(&bench, &data, &files, &mut checks)?
    };

    if args.trace {
        // One untraced and one traced job: their wall-clock ratio is the
        // tracing overhead, and their outputs must be equal. Warm passes
        // are each compared with the untraced reference pass.
        let tr = Tracer::new(true);
        let (untraced, traced) = if bench.cold() {
            let (u, written) = cold_job(&bench, &data, &off)?;
            files = written;
            reference_pass(&bench, &data, &files, &mut checks)?;
            let (t, traced_files) = cold_job(&bench, &work.join("traced"), &tr)?;
            checks.same_digests("traced vs untraced", &files, &traced_files);
            (u, t)
        } else {
            let u = passes(&bench, &data, &off, PASSES, &reference, &mut checks)?;
            let t = passes(&bench, &data, &tr, PASSES, &reference, &mut checks)?;
            (u, t)
        };
        bench.time_schedules(&tr);
        layers = tr.layers(traced.wall_s, workers);
        let coverage = layers["trace.coverage"];
        checks.check(coverage <= 1.0, || {
            format!("trace.coverage {coverage} exceeds 1.0: layer times double-count")
        });
        layers.insert(
            "trace.overhead_frac".into(),
            traced.wall_s / untraced.wall_s - 1.0,
        );
        jobs.push(untraced);
    } else {
        // Whole jobs until the time is up, at least one. CPU time is read
        // around the whole loop: /proc ticks are too coarse for one job.
        let start = Instant::now();
        let cpu0 = cpu_seconds()?;
        loop {
            let job = if bench.cold() {
                let (job, written) = cold_job(&bench, &data, &off)?;
                if !jobs.is_empty() {
                    checks.same_digests("job vs job", &files, &written);
                }
                files = written;
                job
            } else {
                let job = passes(&bench, &data, &off, PASSES, &reference, &mut checks)?;
                pass_ms.extend_from_slice(&job.pass_ms);
                job
            };
            jobs.push(job);
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        cpu_per_job = (cpu_seconds()? - cpu0) / jobs.len() as f64;
        if bench.cold() {
            // Then the warm reload of what the last job wrote.
            reference = reference_pass(&bench, &data, &files, &mut checks)?;
            pass_ms = passes(&bench, &data, &off, PASSES, &reference, &mut checks)?.pass_ms;
        }
    }
    let ns_per_draw = ns_per_draw();
    if args.trace {
        layers.insert("rng.ns_per_draw".into(), ns_per_draw);
    }
    checks.pinned(&args.workload, args.seed, &files);
    Ok(Run {
        setup_s,
        cpu_per_job,
        runs_per_job: bench.runs_per_job(),
        paper_runs: bench.paper_runs(),
        ns_per_draw,
        jobs,
        pass_ms,
        checks,
        layers,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, workers, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(r) => report(&args, workers, &r),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.contains("_ms_") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains(".us_") {
        "us"
    } else if name.ends_with("ns_per_draw") {
        "ns"
    } else if name.contains("bytes_") {
        "bytes"
    } else if name.ends_with("_frac") || name.ends_with("coverage") || name.ends_with("imbalance") {
        "ratio"
    } else {
        "count"
    }
}

/// Prints the human-readable report and, last, the JSON result line.
fn report(args: &Args, workers: usize, r: &Run) {
    let wall: Vec<f64> = r.jobs.iter().map(|j| j.wall_s).collect();
    let wall_s = median(&wall);
    let cpu_s = r.cpu_per_job;
    let mut pass_ms = r.pass_ms.clone();
    pass_ms.sort_by(f64::total_cmp);
    let rss_mib = dsa_obs::mem::read_rss().map_or(0.0, |s| s.rss_peak_bytes as f64 / 1048576.0);
    let e2e = [
        median(&r.setup_s),
        wall_s,
        cpu_s,
        r.runs_per_job as f64 / wall_s,
        rss_mib,
        trace::percentile(&pass_ms, 0.5),
        trace::percentile(&pass_ms, 0.9),
    ];

    println!(
        "perfbench {}  seed={}  workers={}  trace={}",
        args.workload,
        args.seed,
        workers,
        u8::from(args.trace)
    );
    println!(
        "  {} set-up(s), {} job(s) of {} {}, {} timed reload pass(es)",
        r.setup_s.len(),
        r.jobs.len(),
        r.runs_per_job,
        if args.workload == "reload-warm" {
            "reload passes"
        } else {
            "engine runs"
        },
        r.pass_ms.len()
    );
    if args.trace {
        println!("  untraced job     {:>14.6} s", wall_s);
        println!("  (per-layer times are totals over the traced job)");
    } else {
        for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
            println!("  {name:<16} {value:>14.6} {unit}");
        }
    }
    println!(
        "  {:<16} {:>14.6}      ({} of {} output checks failed)",
        "failed_frac",
        r.checks.failed_frac(),
        r.checks.failed,
        r.checks.attempted
    );
    for note in &r.checks.notes {
        println!("  FAILED: {note}");
    }
    println!(
        "  {:<16} {:>14.6} ns (machine-speed sentinel)",
        "rng.ns_per_draw", r.ns_per_draw
    );
    if let Some((runs, rounds_factor)) = r.paper_runs {
        if !args.trace {
            let hours = runs as f64 * cpu_s / r.runs_per_job as f64 * rounds_factor / 3600.0;
            println!(
                "  extrapolation, not measured and not gated: a paper-scale swarm sweep \
                 ({runs} engine runs of {rounds_factor:.3}x the rounds) needs about \
                 {hours:.0} CPU-hours on this machine"
            );
        }
    }
    for (name, value) in &r.layers {
        println!("  {name:<34} {:>16.6} {}", value + 0.0, layer_unit(name));
    }

    let metrics: Vec<String> = if args.trace {
        r.layers
            .iter()
            .map(|(name, v)| json_metric(name, *v, layer_unit(name)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), v)| json_metric(name, v, unit))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.checks.failed == 0,
        r.checks.attempted,
        r.checks.failed,
        metrics.join(", ")
    );
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity: a non-finite reading is reported as
    // 0. Adding 0.0 turns the -0.0 of an empty sum into 0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let mut layers = Tracer::new(true).layers(1.0, 2);
        layers.insert("trace.overhead_frac".into(), 0.0);
        layers.insert("rng.ns_per_draw".into(), 0.0);
        let printed: Vec<(&str, &str)> = END_TO_END
            .iter()
            .copied()
            .chain(layers.keys().map(|n| (n.as_str(), layer_unit(n))))
            .collect();
        for (name, unit) in &printed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 3;
        assert_eq!(
            spec.matches("\"name\": ").count(),
            workloads + printed.len()
        );
    }

    #[test]
    fn cpu_seconds_reads_proc() {
        let cpu = cpu_seconds().expect("/proc/self/stat");
        assert!(cpu >= 0.0 && cpu.is_finite());
    }
}
