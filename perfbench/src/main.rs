//! The benchmark's layer tracer: times calls into each layer's public
//! functions from outside the program, over one campaign plan.
//!
//! ```text
//! layers plan  [CAMPAIGN]            prints {"runs": N}
//! layers trace --work DIR [CAMPAIGN] prints one JSON object of per-layer metrics
//! CAMPAIGN = <name>... | all  [--quick] [--insts N] [--warmup N] [--seed N] [--sweep FILE]...
//! ```
//!
//! `CAMPAIGN` means what it means to `experiments`, so both plan the same
//! runs. `trace` runs one serial traced pass: it plans, simulates every
//! run with trace generation and the cycle loop timed apart, assembles
//! and renders the reports (written to `DIR/report/stdout.txt`,
//! `DIR/report/csv` and `DIR/report/json`, for the caller to compare byte
//! for byte with the `experiments` output), and times the metrics codec, the result cache
//! and journal appends over the same results. A sample of the runs also
//! goes through the plain `RunSpec::run`, outside the traced time, to
//! measure the tracing overhead and to check that tracing changed no
//! result.
//!
//! Exit status: 0 with the metrics on stdout, 1 when a run panicked or a
//! check failed (reason on stderr, `{"failed_runs": K}` on stdout), 2 on
//! a usage error.

use rfcache_sim::core::RegFileConfig;
use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::isa::TraceInst;
use rfcache_sim::metrics_codec::{CampaignHeader, ShardRecord};
use rfcache_sim::pipeline::{Cpu, SimMetrics};
use rfcache_sim::transport::{JournalReader, JournalWriter};
use rfcache_sim::workload::{family_member, TraceGenerator};
use rfcache_sim::{
    campaign_fingerprint, flatten_plans, harmonic_mean, run_campaign_from_parts, write_csv,
    write_json, Cache, Registry, RunResult, RunSpec, Scenario, SweepDef, WorkloadSource,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Instructions generated per timed batch. Two clock reads per batch
/// keep the timer's own cost well under 0.1% of generation time.
const GEN_BATCH: usize = 256;

/// About this many runs, evenly spaced over the plan, are simulated a
/// second time untraced to measure the tracing overhead (a full second
/// pass would double the traced run).
const OVERHEAD_SAMPLES: usize = 48;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().unwrap_or_else(|| usage("missing command"));
    let mut work: Option<PathBuf> = None;
    let mut campaign_args: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--work" {
            work = Some(PathBuf::from(it.next().unwrap_or_else(|| usage("--work needs DIR"))));
        } else {
            campaign_args.push(arg.clone());
        }
    }
    let campaign = Campaign::parse(&campaign_args).unwrap_or_else(|e| usage(&e));
    match command.as_str() {
        "plan" => {
            let planned = campaign.plan().unwrap_or_else(|e| fail(e.into()));
            println!("{{\"runs\": {}}}", planned.plans.iter().map(Vec::len).sum::<usize>());
        }
        "trace" => {
            let work = work.unwrap_or_else(|| usage("trace needs --work DIR"));
            let metrics = trace(&campaign, &work).unwrap_or_else(|e| fail(e));
            println!("{}", render_metrics(&metrics));
        }
        other => usage(&format!("unknown command {other}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("layers: {msg}\nusage: layers plan|trace [--work DIR] <name>...|all [--quick] [--insts N] [--warmup N] \
         [--seed N] [--sweep FILE]...");
    std::process::exit(2);
}

/// Why a traced pass failed, and how many runs panicked (0 when a
/// check failed: then the caller fails the whole pass).
struct Failure {
    runs: usize,
    reason: String,
}

impl From<String> for Failure {
    fn from(reason: String) -> Self {
        Failure { runs: 0, reason }
    }
}

/// A failed run or check: the caller counts it, never skips it.
fn fail(failure: Failure) -> ! {
    eprintln!("layers: {}", failure.reason);
    println!("{{\"failed_runs\": {}}}", failure.runs);
    std::process::exit(1);
}

/// A campaign as `experiments` takes it on the command line.
struct Campaign {
    names: Vec<String>,
    sweep_files: Vec<String>,
    opts: ExperimentOpts,
}

/// A planned campaign: what every executor derives before running.
struct Planned {
    registry: Registry,
    plans: Vec<Vec<RunSpec>>,
}

impl Campaign {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut campaign = Campaign {
            names: Vec::new(),
            sweep_files: Vec::new(),
            opts: ExperimentOpts::default(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value =
                |flag: &str| it.next().cloned().ok_or_else(|| format!("missing value for {flag}"));
            match arg.as_str() {
                "--quick" => campaign.opts.quick = true,
                flag @ ("--insts" | "--warmup" | "--seed") => {
                    let text = value(flag)?;
                    let n = text.parse().map_err(|_| format!("invalid value {text} for {flag}"))?;
                    match flag {
                        "--insts" => campaign.opts.insts = n,
                        "--warmup" => campaign.opts.warmup = n,
                        _ => campaign.opts.seed = n,
                    }
                }
                "--sweep" => campaign.sweep_files.push(value("--sweep")?),
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                name => campaign.names.push(name.to_string()),
            }
        }
        if campaign.names.is_empty() && campaign.sweep_files.is_empty() {
            return Err("no campaign named".to_string());
        }
        Ok(campaign)
    }

    /// Plans exactly as `experiments` does: sweep files join the
    /// registry, and their names join the selection unless `all` is
    /// named.
    fn plan(&self) -> Result<Planned, String> {
        let defs = self
            .sweep_files
            .iter()
            .map(|path| SweepDef::load(path))
            .collect::<Result<Vec<_>, _>>()?;
        let registry = Registry::with_sweeps(defs)?;
        let plans = {
            let selected = self.select(&registry)?;
            selected.iter().map(|s| s.plan(&self.opts)).collect()
        };
        Ok(Planned { registry, plans })
    }

    fn select<'r>(&self, registry: &'r Registry) -> Result<Vec<&'r Scenario>, String> {
        if self.names.iter().any(|n| n == "all") {
            return Ok(registry.iter().collect());
        }
        let mut names = self.names.clone();
        for sweep in registry.sweeps() {
            if !names.contains(&sweep.name) {
                names.push(sweep.name.clone());
            }
        }
        registry.resolve(&names)
    }
}

/// A trace source that generates in timed batches and counts what the
/// CPU pulls (wrong path included).
struct TimedTrace<I> {
    inner: I,
    batch: VecDeque<TraceInst>,
    gen_time: Duration,
    generated: u64,
    pulled: u64,
}

impl<I: Iterator<Item = TraceInst>> TimedTrace<I> {
    fn new(inner: I) -> Self {
        TimedTrace {
            inner,
            batch: VecDeque::with_capacity(GEN_BATCH),
            gen_time: Duration::ZERO,
            generated: 0,
            pulled: 0,
        }
    }
}

impl<I: Iterator<Item = TraceInst>> Iterator for TimedTrace<I> {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        if self.batch.is_empty() {
            let start = Instant::now();
            self.batch.extend(self.inner.by_ref().take(GEN_BATCH));
            self.gen_time += start.elapsed();
            self.generated += self.batch.len() as u64;
        }
        let inst = self.batch.pop_front()?;
        self.pulled += 1;
        Some(inst)
    }
}

/// What one traced run measured.
struct TracedRun {
    metrics: SimMetrics,
    total: Duration,
    gen_time: Duration,
    generated: u64,
    pulled: u64,
    /// Cycles simulated, warmup included (host work, not a model result).
    cycles: u64,
    /// Instructions committed, warmup included.
    committed: u64,
}

impl TracedRun {
    fn pipeline_time(&self) -> Duration {
        self.total.saturating_sub(self.gen_time)
    }
}

/// `RunSpec::run`, with the trace source wrapped in [`TimedTrace`]. The
/// workload-to-generator mapping mirrors `RunSpec::run`; the byte
/// comparison of the assembled reports with `experiments` output and the
/// metric comparison with the untraced pass both catch any drift.
fn traced_run(spec: &RunSpec) -> TracedRun {
    match &spec.workload {
        WorkloadSource::Synthetic(p) => measure(spec, TraceGenerator::new(*p, spec.seed)),
        WorkloadSource::Family { base, member } => {
            let seed = spec.seed ^ u64::from(*member).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            measure(spec, TraceGenerator::new(family_member(base, *member), seed))
        }
        WorkloadSource::Trace(t) => measure(spec, t.insts.iter().cycle().cloned()),
    }
}

fn measure<I: Iterator<Item = TraceInst>>(spec: &RunSpec, source: I) -> TracedRun {
    let mut trace = TimedTrace::new(source);
    let start = Instant::now();
    let mut cpu = Cpu::new(spec.pipeline, spec.rf, &mut trace);
    let mut committed = 0;
    if spec.warmup > 0 {
        committed += cpu.run(spec.warmup).committed;
        cpu.reset_metrics();
    }
    let metrics = cpu.run(spec.insts);
    let cycles = cpu.now();
    drop(cpu);
    let total = start.elapsed();
    committed += metrics.committed;
    TracedRun {
        metrics,
        total,
        gen_time: trace.gen_time,
        generated: trace.generated,
        pulled: trace.pulled,
        cycles,
        committed,
    }
}

/// The identity of a run's instruction stream: runs with equal keys
/// pull prefixes of one and the same sequence.
fn stream_key(spec: &RunSpec) -> String {
    match &spec.workload {
        WorkloadSource::Synthetic(p) => format!("{p:?} seed {}", spec.seed),
        WorkloadSource::Family { base, member } => format!("{base:?}~{member} seed {}", spec.seed),
        WorkloadSource::Trace(t) => format!("trace {:016x}", t.content),
    }
}

fn rf_kind(rf: &RegFileConfig) -> &'static str {
    match rf {
        RegFileConfig::Single(_) => "single",
        RegFileConfig::Cache(_) => "cache",
        RegFileConfig::Replicated(_) => "replicated",
        RegFileConfig::OneLevel(_) => "onelevel",
    }
}

type Metrics = Vec<(String, f64)>;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Per-operation mean in microseconds.
fn per_op_us(total: Duration, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e6 / ops as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn trace(campaign: &Campaign, work: &Path) -> Result<Metrics, Failure> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut out: Metrics = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let traced_start = Instant::now();

    // scenario: registry, sweep parsing, planning and flattening.
    let start = Instant::now();
    let planned = campaign.plan()?;
    let selected = campaign.select(&planned.registry)?;
    let flat = flatten_plans(&planned.plans);
    let plan_time = start.elapsed();
    let unique: BTreeSet<String> = flat.iter().map(|spec| format!("{spec:?}")).collect();
    put("scenario.plan_s", secs(plan_time));
    put("scenario.runs", flat.len() as f64);
    put("scenario.unique_runs", unique.len() as f64);
    put("scenario.dup_frac", 1.0 - ratio(unique.len() as f64, flat.len() as f64));

    // workload + pipeline + core: the serial traced pass. Sampled runs
    // also run untraced, next to their traced twin (first on even
    // samples, second on odd ones, so warm-cache effects cancel); that
    // time is kept out of the traced wall time.
    let stride = (flat.len() / OVERHEAD_SAMPLES).max(1);
    let (mut traced_sample, mut plain_sample) = (Duration::ZERO, Duration::ZERO);
    let mut runs: Vec<TracedRun> = Vec::with_capacity(flat.len());
    let mut failed: Vec<String> = Vec::new();
    for (index, spec) in flat.iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if !index.is_multiple_of(stride) {
                return (traced_run(spec), None);
            }
            let plain = || {
                let start = Instant::now();
                let result = spec.run();
                (start.elapsed(), result.metrics)
            };
            if (index / stride).is_multiple_of(2) {
                let plain = plain();
                (traced_run(spec), Some(plain))
            } else {
                let run = traced_run(spec);
                (run, Some(plain()))
            }
        }));
        match outcome {
            Ok((run, plain)) => {
                if let Some((time, metrics)) = plain {
                    if metrics != run.metrics {
                        return Err(
                            format!("run {index}: traced and untraced metrics differ").into()
                        );
                    }
                    plain_sample += time;
                    traced_sample += run.total;
                }
                runs.push(run);
            }
            Err(panic) => {
                let reason = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                let first_line = reason.lines().next().unwrap_or("panic");
                failed.push(format!(
                    "run {index} ({} seed {} on {:?}): {first_line}",
                    spec.workload.label(),
                    spec.seed,
                    spec.rf
                ));
            }
        }
    }
    if !failed.is_empty() {
        return Err(Failure { runs: failed.len(), reason: failed.join("\n") });
    }
    let gen_time: Duration = runs.iter().map(|r| r.gen_time).sum();
    let generated: u64 = runs.iter().map(|r| r.generated).sum();
    let pulled: u64 = runs.iter().map(|r| r.pulled).sum();
    let mut stream_len: BTreeMap<String, u64> = BTreeMap::new();
    for (spec, run) in flat.iter().zip(&runs) {
        let longest = stream_len.entry(stream_key(spec)).or_default();
        *longest = (*longest).max(run.pulled);
    }
    put("workload.gen_s", secs(gen_time));
    put("workload.gen_insts", pulled as f64);
    put("workload.gen_ns_per_inst", ratio(secs(gen_time) * 1e9, generated as f64));
    put("workload.unique_streams", stream_len.len() as f64);
    put("workload.regen_factor", ratio(pulled as f64, stream_len.values().sum::<u64>() as f64));

    let pipeline_time: Duration = runs.iter().map(TracedRun::pipeline_time).sum();
    let cycles: u64 = runs.iter().map(|r| r.cycles).sum();
    let committed: u64 = runs.iter().map(|r| r.committed).sum();
    put("pipeline.run_s", secs(pipeline_time));
    put("pipeline.cycles", cycles as f64);
    put("pipeline.ns_per_cycle", ratio(secs(pipeline_time) * 1e9, cycles as f64));
    put("pipeline.ns_per_inst", ratio(secs(pipeline_time) * 1e9, committed as f64));
    for kind in ["single", "cache", "replicated", "onelevel"] {
        let (time, cycles) = flat
            .iter()
            .zip(&runs)
            .filter(|(spec, _)| rf_kind(&spec.rf) == kind)
            .fold((0.0, 0u64), |(t, c), (_, run)| (t + secs(run.pipeline_time()), c + run.cycles));
        put(&format!("core.{kind}.ns_per_cycle"), ratio(time * 1e9, cycles as f64));
    }
    put("executor.serial_run_s", secs(runs.iter().map(|r| r.total).sum()));

    // sim: assembly and rendering, exactly what `experiments` prints
    // and exports.
    let results: Vec<RunResult> = flat
        .iter()
        .zip(&runs)
        .map(|(spec, run)| RunResult {
            bench: spec.workload.label(),
            fp: spec.workload.fp(),
            metrics: run.metrics.clone(),
        })
        .collect();
    let start = Instant::now();
    let reports =
        run_campaign_from_parts(&selected, &campaign.opts, &planned.plans, results.clone());
    let assemble_time = start.elapsed();
    let start = Instant::now();
    let report_dir = work.join("report");
    let mut text = String::new();
    for (scenario, report) in selected.iter().zip(&reports) {
        text.push_str(&format!("{report}\n"));
        let table = report.to_table();
        write_csv(report_dir.join("csv"), &scenario.name, &table)
            .map_err(|e| format!("csv: {e}"))?;
        write_json(report_dir.join("json"), &scenario.name, &table)
            .map_err(|e| format!("json: {e}"))?;
    }
    std::fs::write(report_dir.join("stdout.txt"), &text).map_err(|e| format!("reports: {e}"))?;
    let render_time = start.elapsed();
    put("sim.assemble_s", secs(assemble_time));
    put("sim.render_s", secs(render_time));

    // metrics_codec, cache, transport: the per-record costs of the
    // sharded, distributed and service paths, over the same results.
    let names = selected.iter().map(|s| s.name.clone()).collect();
    let io = io_layers(campaign, &planned, names, &flat, &results, work)?;
    let io_time = io.encode + io.decode + io.store + io.lookup + io.append;
    let n = results.len();
    put("metrics_codec.encode_us", per_op_us(io.encode, n));
    put("metrics_codec.decode_us", per_op_us(io.decode, n));
    put("metrics_codec.record_bytes", ratio(io.record_bytes as f64, n as f64));
    put("cache.store_us", per_op_us(io.store, n));
    put("cache.lookup_us", per_op_us(io.lookup, n));
    put("cache.hit_frac", ratio(io.hits as f64, n as f64));
    put("cache.bytes", io.cache_bytes as f64);
    put("transport.journal_append_us", per_op_us(io.append, n));
    put("transport.journal_bytes", io.journal_bytes as f64);
    let traced_wall = traced_start.elapsed().saturating_sub(plain_sample);

    // Accounting: layer self times against the traced pass's wall time.
    let accounted = plan_time + gen_time + pipeline_time + assemble_time + render_time + io_time;
    put("trace.wall_s", secs(traced_wall));
    put("trace.accounted_frac", ratio(secs(accounted), secs(traced_wall)));
    put("trace.overhead_frac", ratio(secs(traced_sample), secs(plain_sample)) - 1.0);

    // Simulated counts: outputs of the model, identical on every host.
    let measured: Vec<&SimMetrics> = runs.iter().map(|r| &r.metrics).collect();
    let sum = |f: &dyn Fn(&SimMetrics) -> u64| measured.iter().map(|m| f(m)).sum::<u64>() as f64;
    let ipcs: Vec<f64> = measured.iter().map(|m| m.ipc()).collect();
    let hit_rates: Vec<f64> = measured.iter().filter_map(|m| m.dcache_hit_rate).collect();
    put("pipeline.model_cycles", sum(&|m| m.cycles));
    put("pipeline.ipc_hmean", harmonic_mean(&ipcs).unwrap_or(0.0));
    put("pipeline.commit_idle_cycles", sum(&|m| m.commit_idle_cycles));
    put(
        "pipeline.dispatch_stalls",
        sum(&|m| {
            m.stall_rob_full
                + m.stall_window_full
                + m.stall_no_phys_reg
                + m.stall_lsq_full
                + m.stall_branch_limit
        }),
    );
    put("frontend.mispredicts", sum(&|m| m.fetch.mispredicted_branches));
    put("mem.dcache_hit_rate", ratio(hit_rates.iter().sum(), hit_rates.len() as f64));
    put("core.read_port_stalls", sum(&|m| m.rf_int.read_port_stalls + m.rf_fp.read_port_stalls));
    put("core.write_port_stalls", sum(&|m| m.rf_int.write_port_stalls + m.rf_fp.write_port_stalls));
    put("core.upper_miss_stalls", sum(&|m| m.rf_int.upper_miss_stalls + m.rf_fp.upper_miss_stalls));
    put("core.demand_transfers", sum(&|m| m.rf_int.demand_transfers + m.rf_fp.demand_transfers));
    Ok(out)
}

/// Timings and sizes of the per-record layers.
struct IoLayers {
    encode: Duration,
    decode: Duration,
    record_bytes: usize,
    store: Duration,
    lookup: Duration,
    hits: usize,
    cache_bytes: u64,
    append: Duration,
    journal_bytes: u64,
}

fn io_layers(
    campaign: &Campaign,
    planned: &Planned,
    names: Vec<String>,
    flat: &[&RunSpec],
    results: &[RunResult],
    work: &Path,
) -> Result<IoLayers, String> {
    let records: Vec<ShardRecord> = flat
        .iter()
        .zip(results)
        .enumerate()
        .map(|(index, (spec, result))| ShardRecord::from_result(index, spec.fingerprint(), result))
        .collect();
    let start = Instant::now();
    let lines: Vec<String> = records.iter().map(ShardRecord::to_line).collect();
    let encode = start.elapsed();
    let start = Instant::now();
    let decoded = lines.iter().map(|line| ShardRecord::parse(line)).collect::<Result<Vec<_>, _>>();
    let decode = start.elapsed();
    if decoded.map_err(|e| format!("codec: {e}"))? != records {
        return Err("codec: a record did not survive encode + decode".to_string());
    }
    let record_bytes = lines.iter().map(|line| line.len() + 1).sum();

    // A fresh cache: stores, then lookups that must all hit.
    let dir = work.join("cache");
    if dir.exists() {
        return Err(format!("{} already exists; the cache must start empty", dir.display()));
    }
    let cache = Cache::open(&dir).map_err(|e| format!("cache: {e}"))?;
    let mut store = Duration::ZERO;
    for (spec, result) in flat.iter().zip(results) {
        let start = Instant::now();
        cache.store(spec, result).map_err(|e| format!("cache store: {e}"))?;
        store += start.elapsed();
    }
    let (mut lookup, mut hits) = (Duration::ZERO, 0);
    for (spec, result) in flat.iter().zip(results) {
        let start = Instant::now();
        let hit = cache.lookup(spec);
        lookup += start.elapsed();
        match hit {
            Some(hit) if hit.metrics == result.metrics => hits += 1,
            Some(_) => return Err("cache: a lookup returned different metrics".to_string()),
            None => {}
        }
    }
    let cache_bytes = dir_bytes(&dir.join("objects"));

    // The journal: `JournalWriter::create` writes and syncs the header;
    // appends are crate-private, so the records are appended with the
    // writer's own syscalls at the `experiments serve` default cadence
    // (`--journal-sync 1`: one `write` and one `sync_data` per record)
    // and read back with `JournalReader`.
    let path = work.join("campaign.journal");
    let header = CampaignHeader::new(names, &campaign.opts, 0, 1, flat.len())
        .with_sweeps(planned.registry.sweep_texts().to_vec());
    drop(
        JournalWriter::create(&path, &header, campaign_fingerprint(flat), 1)
            .map_err(|e| format!("journal: {e}"))?,
    );
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| format!("journal: {e}"))?;
    let mut append = Duration::ZERO;
    for line in &lines {
        let start = Instant::now();
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        file.write_all(framed.as_bytes()).map_err(|e| format!("journal: {e}"))?;
        file.sync_data().map_err(|e| format!("journal: {e}"))?;
        append += start.elapsed();
    }
    file.sync_data().map_err(|e| format!("journal: {e}"))?;
    let replayed = JournalReader::read(&path).map_err(|e| format!("journal: {e}"))?;
    if replayed.records != records {
        return Err("journal: the records read back differ from those appended".to_string());
    }
    let journal_bytes = std::fs::metadata(&path).map_err(|e| format!("journal: {e}"))?.len();
    Ok(IoLayers {
        encode,
        decode,
        record_bytes,
        store,
        lookup,
        hits,
        cache_bytes,
        append,
        journal_bytes,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn render_metrics(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {value:?}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
