//! The diic benchmark: three workloads that time calls into the public
//! diic crates from outside, verify every output, and print one JSON
//! result line.
//!
//! ```text
//! bash diicbench/run.sh --workload full_chip|library|edit_service \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `BENCHMARK.json` at the repository root is the metric catalogue: a
//! run with `--trace 0` prints every `end_to_end` metric, a run with
//! `--trace 1` every `per_layer` metric, with the units declared there.
//! See `diicbench/README.md` for what each metric means per workload.

pub mod edit_service;
pub mod full_chip;
pub mod http;
pub mod library;
pub mod obs;
pub mod verify;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is absent (README.md names the held-out
/// seed).
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["full_chip", "library", "edit_service"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a workload hands back: its metrics, keyed by the names in
/// `BENCHMARK.json`, and each verifier's tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
    /// Verifier name to (outputs checked, outputs that failed).
    checks: BTreeMap<&'static str, (u64, u64)>,
    /// Human-readable notes for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts `attempted` outputs checked by `verifier`, `failed` of
    /// which were wrong (or non-2xx); `why` explains a failure.
    pub fn check(&mut self, verifier: &'static str, attempted: u64, failed: u64, why: String) {
        let tally = self.checks.entry(verifier).or_default();
        tally.0 += attempted;
        tally.1 += failed;
        if failed > 0 {
            self.notes
                .push(format!("FAILED ×{failed} ({verifier}): {why}"));
        }
    }

    /// Outputs checked, over every verifier.
    pub fn attempted(&self) -> u64 {
        self.checks.values().map(|c| c.0).sum()
    }

    /// Outputs that failed, over every verifier.
    pub fn failed(&self) -> u64 {
        self.checks.values().map(|c| c.1).sum()
    }

    /// The lowest pass fraction of any verifier, each against its own
    /// denominator, so one wrong output shows however many outputs
    /// another verifier checked.
    pub fn ok_frac(&self) -> f64 {
        self.checks
            .values()
            .map(|&(a, f)| (1.0 - f as f64 / a.max(1) as f64).max(0.0))
            .fold(1.0, f64::min)
    }
}

/// Worker count the workloads run the engine with: every core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-up is timed in slices of about this many seconds, each
/// repeating set-up at least once.
pub const SETUP_SLICE_SECS: f64 = 0.2;
/// Slices before the measured window.
pub const SETUP_SLICES: usize = 4;
/// Slices after each measured operation, in the workloads whose set-up
/// is short.
pub const SETUP_SLICES_BETWEEN: usize = 2;
/// Groups the slices are dealt into, round robin.
const SETUP_GROUPS: usize = 4;

/// Set-up times of one run. Set-up is timed in slices before the
/// measured window and between measured operations, and the slices are
/// dealt round robin into [`SETUP_GROUPS`] groups; `setup_s` is the
/// median of the groups' mean set-up times. Host speed switches between
/// two levels about 1.6× apart within seconds: single repeats of a
/// millisecond set-up fall into two clusters, and their median jumps
/// between them from run to run. Each group spans the whole run, so its
/// mean moves smoothly with the share of time spent at each level, as
/// the measured operations do.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Total set-up seconds and repeats of each slice, in order.
    slices: Vec<(f64, usize)>,
}

impl SetupTimes {
    /// Times `slices` slices of set-up, each running `make` repeatedly
    /// (disposing of the previous result with `dispose`, untimed) for
    /// [`SETUP_SLICE_SECS`] and at least once; returns the last result.
    pub fn sample<T, E>(
        &mut self,
        slices: usize,
        mut make: impl FnMut() -> Result<T, E>,
        mut dispose: impl FnMut(T) -> Result<(), E>,
    ) -> Result<T, E> {
        let mut last = None;
        for _ in 0..slices.max(1) {
            let start = Instant::now();
            let mut total = 0.0;
            let mut reps = 0;
            while reps == 0 || start.elapsed().as_secs_f64() < SETUP_SLICE_SECS {
                if let Some(prev) = last.take() {
                    dispose(prev)?;
                }
                let t0 = Instant::now();
                let v = make()?;
                total += t0.elapsed().as_secs_f64();
                reps += 1;
                last = Some(v);
            }
            self.slices.push((total, reps));
        }
        // invariant: every slice ran `make` at least once.
        Ok(last.expect("at least one set-up"))
    }

    /// Mean set-up seconds of each group.
    fn group_means(&self) -> Vec<f64> {
        (0..SETUP_GROUPS.min(self.slices.len()))
            .map(|g| {
                let (total, reps) = self
                    .slices
                    .iter()
                    .skip(g)
                    .step_by(SETUP_GROUPS)
                    .fold((0.0, 0), |(t, r), &(st, sr)| (t + st, r + sr));
                total / reps as f64
            })
            .collect()
    }

    /// Median group mean, in seconds.
    pub fn median(&self) -> f64 {
        median(&self.group_means())
    }

    /// A note on the repeats: counts and group means in milliseconds.
    pub fn note(&self) -> String {
        let reps: usize = self.slices.iter().map(|s| s.1).sum();
        let means: Vec<f64> = self
            .group_means()
            .iter()
            .map(|m| (m * 1e5).round() / 1e2)
            .collect();
        format!(
            "set-up: {reps} repeats in {} slices, group means {means:?} ms",
            self.slices.len()
        )
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`) in MB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().strip_suffix("kB"))
                    .and_then(|n| n.trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// An [`std::io::Write`] that keeps only an FNV-1a digest and a byte
/// count: two reports are byte-identical when their digests are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnvWriter {
    /// Running FNV-1a hash.
    pub hash: u64,
    /// Bytes written.
    pub bytes: u64,
}

impl Default for FnvWriter {
    fn default() -> Self {
        FnvWriter {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl std::io::Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The digest of `bytes`.
pub fn digest(bytes: &[u8]) -> FnvWriter {
    let mut w = FnvWriter::default();
    std::io::Write::write_all(&mut w, bytes).expect("hashing cannot fail");
    w
}

/// A metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Declared {
    /// Metric name.
    name: String,
    /// Unit string.
    unit: String,
}

/// Reads the metric catalogue for one mode from `BENCHMARK.json`.
fn declared_metrics(root: &Path, traced: bool) -> Result<Vec<Declared>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let list = json
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json {key} entry without {k}"))
            };
            Ok(Declared {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// metric. An end-to-end metric the workload did not produce is an
/// error; a per-layer metric of a layer the workload does not exercise
/// reads 0.
fn result_line(outcome: &Outcome, declared: &[Declared], traced: bool) -> Result<String, String> {
    use serde_json::Value;
    let mut fields = Vec::with_capacity(declared.len());
    for d in declared {
        let value = match outcome.metrics.get(&d.name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("workload produced no value for {}", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is not finite: {value}", d.name));
        }
        let metric = Value::object([
            ("value", Value::from(value)),
            ("unit", Value::from(d.unit.as_str())),
        ]);
        fields.push((d.name.clone(), metric));
    }
    for name in outcome.metrics.keys() {
        if !declared.iter().any(|d| &d.name == name) && !traced {
            return Err(format!("{name} is not declared in BENCHMARK.json"));
        }
    }
    let attempted = outcome.attempted();
    let failed = outcome.failed();
    Ok(Value::object([
        ("correct", Value::from(failed == 0 && attempted > 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::object(fields)),
    ])
    .to_string())
}

/// The provenance stamp printed with every result.
fn stamp(root: &Path, args: &Args, workers: usize) -> Vec<(&'static str, String)> {
    // The ceiling keeps git from reading a repository above `root`.
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", commit),
        ("source_fnv", format!("{:016x}", source_digest(root))),
        ("nproc", nproc().to_string()),
        ("workers", workers.to_string()),
        ("rustc", env!("DIICBENCH_RUSTC").to_string()),
    ]
}

/// FNV digest over the program's sources (`crates/`, sorted by path):
/// identifies the code under test in a checkout without git metadata,
/// where `commit` reads `none`.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "deck")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut w = FnvWriter::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            let _ = std::io::Write::write_all(&mut w, rel.to_string_lossy().as_bytes());
            let _ = std::io::Write::write_all(&mut w, &bytes);
        }
    }
    w.hash
}

/// Directory (inside the working directory) for traces and spill
/// files.
fn out_dir(root: &Path) -> PathBuf {
    root.join(".bench_out")
}

/// Entry point shared by both binaries. `counting_alloc` says whether
/// the calling binary installed [`obs::CountingAlloc`]; only that
/// binary accepts `--trace 1`.
pub fn run_main(counting_alloc: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diicbench: {e}");
            return 2;
        }
    };
    if counting_alloc {
        obs::count_allocations();
    }
    if args.trace != counting_alloc {
        eprintln!(
            "diicbench: --trace {} needs the {} binary (run through run.sh)",
            u8::from(args.trace),
            if args.trace {
                "diicbench-traced"
            } else {
                "diicbench"
            }
        );
        return 2;
    }
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("diicbench: no working directory: {e}");
            return 2;
        }
    };
    let declared = match declared_metrics(&root, args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("diicbench: {e}");
            return 2;
        }
    };
    // Spill files of both the benchmark and the service land in the
    // working directory, not the system temp directory.
    let tmp = out_dir(&root).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("diicbench: cannot create {}: {e}", tmp.display());
        return 2;
    }
    // No other thread exists yet, so changing the environment is safe.
    std::env::set_var("TMPDIR", &tmp);

    let workers = nproc();
    let stamp = stamp(&root, &args, workers);
    let run_id = format!(
        "{}-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    eprintln!(
        "diicbench: {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let t0 = Instant::now();
    let outcome = match args.workload.as_str() {
        "full_chip" => full_chip::run(&args, workers),
        "library" => library::run(&args),
        "edit_service" => edit_service::run(&args, workers),
        _ => unreachable!("Args::parse admits only known workloads"),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diicbench: {} failed: {e}", args.workload);
            return 1;
        }
    };
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set("ok_frac", outcome.ok_frac());
    if args.trace {
        let spans = obs::stop();
        let meta: Vec<(&str, String)> = stamp.iter().map(|(k, v)| (*k, v.clone())).collect();
        let path = out_dir(&root).join(format!("trace-{run_id}.json"));
        match std::fs::write(&path, obs::chrome_trace(&spans, &run_id, &meta)) {
            Ok(()) => {
                outcome
                    .notes
                    .push(format!("trace: {} ({} spans)", path.display(), spans.len()))
            }
            Err(e) => {
                eprintln!("diicbench: cannot write {}: {e}", path.display());
                return 1;
            }
        }
    }
    for note in &outcome.notes {
        eprintln!("diicbench: {note}");
    }
    for (name, value) in &outcome.metrics {
        let unit = declared
            .iter()
            .find(|d| &d.name == name)
            .map_or("", |d| d.unit.as_str());
        eprintln!("diicbench:   {name:<36} {value:>14.6} {unit}");
    }
    eprintln!(
        "diicbench: {} attempted, {} failed (failed_frac {:.6}) in {:.1}s",
        outcome.attempted(),
        outcome.failed(),
        outcome.failed() as f64 / outcome.attempted().max(1) as f64,
        t0.elapsed().as_secs_f64()
    );
    let line = match result_line(&outcome, &declared, args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("diicbench: {e}");
            return 1;
        }
    };
    let stamp_json = serde_json::Value::object(
        stamp
            .iter()
            .map(|(k, v)| (*k, serde_json::Value::from(v.as_str()))),
    );
    println!("{}", serde_json::Value::object([("stamp", stamp_json)]));
    println!("{line}");
    0
}

/// `heap.peak_mb` (the counting allocator's high-water mark) and
/// `heap.rss_gap_mb` (peak resident set minus that: allocator
/// fragmentation and non-heap memory).
pub fn heap_metrics(out: &mut Outcome) {
    let heap = obs::heap_high_bytes() as f64 / 1e6;
    out.set("heap.peak_mb", heap);
    out.set("heap.rss_gap_mb", peak_rss_mb() - heap);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One wrong output lowers `ok_frac` by its own verifier's share,
    /// however many outputs another verifier checked.
    #[test]
    fn ok_frac_counts_each_verifier_against_its_own_outputs() {
        let mut out = Outcome::default();
        out.check("many", 1_000_000, 0, String::new());
        out.check("few", 4, 0, String::new());
        assert_eq!(out.ok_frac(), 1.0);
        out.check("few", 0, 1, "planted".into());
        assert_eq!(out.ok_frac(), 0.75);
        assert_eq!((out.attempted(), out.failed()), (1_000_004, 1));
    }
}
