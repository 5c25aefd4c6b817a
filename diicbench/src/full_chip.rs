//! `full_chip`: a chip designer's sign-off run.
//!
//! A 135×135 inverter array with 20 injected errors of each of the nine
//! kinds (about 5.1×10⁵ flattened elements, 180 errors) is checked with
//! the built-in NMOS deck, ERC on, tiled interactions and every core.
//! The sorted report goes through a [`SpillingSink`] whose budget is a
//! quarter of the report, so the merge has several runs. One check is
//! timed from CIF text to the last sorted report byte.

use crate::obs::{self, Span};
use crate::{
    median, verify, Args, FnvWriter, Outcome, SetupTimes, SETUP_SLICES, SETUP_SLICES_BETWEEN,
};
use diic_core::{
    check_with_engine, check_with_sink, CheckContext, CheckOptions, CheckReport, PipelineStage,
    SpillStats, SpillingSink, StageEngine,
};
use diic_gen::{generate, ChipSpec, ErrorKind, GeneratedChip};
use diic_tech::Technology;
use std::time::Instant;

/// Inverters per side.
const SIDE: usize = 135;
/// Injected errors of each [`ErrorKind`].
const ERRORS_PER_KIND: usize = 20;
/// Distance (database units) within which a violation witnesses an
/// injected error.
pub const TOLERANCE: i64 = 800;
/// Timed checks per run, at least (a slow machine still gets a median;
/// the traced run alternates untraced and traced checks and needs two
/// of each).
const MIN_CHECKS: usize = 3;
const MIN_CHECKS_TRACED: usize = 4;

/// The Fig. 10 stage names, in pipeline order.
pub const STAGES: [&str; 7] = [
    "instantiate",
    "elements",
    "primitives",
    "connections",
    "netlist",
    "interactions",
    "composition",
];

/// A `side`×`side` array with `per_kind` injected errors of each kind.
pub fn spec(side: usize, per_kind: usize, seed: u64) -> ChipSpec {
    let errors: Vec<ErrorKind> = ErrorKind::ALL
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, per_kind))
        .collect();
    ChipSpec {
        demo_cells: false,
        golden_netlist: false,
        ..ChipSpec::with_errors(side, side, errors, seed)
    }
}

/// A timing decorator: runs the wrapped stage inside a span of the
/// same name.
struct Timed(Box<dyn PipelineStage>);

impl PipelineStage for Timed {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn stage(&self) -> Option<diic_core::CheckStage> {
        self.0.stage()
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        obs::span(self.0.name(), || self.0.run(ctx));
    }
}

/// The Fig. 10 pipeline with every stage wrapped in [`Timed`].
pub fn timed_engine() -> StageEngine {
    use diic_core::engine::{
        CompositionStage, ConnectionsStage, ElementsStage, InstantiateStage, InteractionsStage,
        NetgenStage, PrimitivesStage,
    };
    let stages: [Box<dyn PipelineStage>; 7] = [
        Box::new(InstantiateStage),
        Box::new(ElementsStage),
        Box::new(PrimitivesStage),
        Box::new(ConnectionsStage),
        Box::new(NetgenStage),
        Box::new(InteractionsStage),
        Box::new(CompositionStage),
    ];
    let mut engine = StageEngine::new();
    for s in stages {
        engine.register(Box::new(Timed(s)));
    }
    engine
}

/// The built-in NMOS deck, compiled.
pub fn nmos() -> Technology {
    diic_deck::compile_str(diic_deck::NMOS_DECK).expect("the built-in deck compiles")
}

struct Reference {
    digest: FnvWriter,
    violations: usize,
    elements: usize,
}

/// The 1-worker buffered check the N-worker reports must equal, with
/// its ground-truth accounting.
fn reference(chip: &GeneratedChip, tech: &Technology, out: &mut Outcome) -> Reference {
    let options = CheckOptions {
        parallelism: 1,
        ..CheckOptions::default()
    };
    let layout = diic_cif::parse(&chip.cif).expect("generated chips parse");
    let report = check_with_engine(&timed_engine(), &layout, tech, &options);
    let (digest, sorted) = verify::render_canonical(report.violations);
    let regions = diic_core::account(&sorted, &chip.injected(), TOLERANCE);
    out.check(
        "ground truth",
        regions.injected as u64,
        verify::ground_truth_failures(&regions),
        "reference report does not account for the injected errors".into(),
    );
    out.notes.push(format!(
        "reference (1 worker): {} elements, {} violations, {} bytes; \
         injected {} flagged {} unchecked {} false {}",
        report.element_count,
        sorted.len(),
        digest.bytes,
        regions.injected,
        regions.real_flagged,
        regions.unchecked,
        regions.false_errors
    ));
    Reference {
        digest,
        violations: sorted.len(),
        elements: report.element_count,
    }
}

/// A timed check: wall time, report digest, spill statistics.
struct CheckRun {
    secs: f64,
    digest: FnvWriter,
    spill: SpillStats,
    report: CheckReport,
}

/// One timed sign-off check, CIF text to sorted report bytes, inside a
/// span named `name`.
fn timed_check(
    name: &str,
    cif: &str,
    tech: &Technology,
    options: &CheckOptions,
    engine: &StageEngine,
    budget: usize,
) -> Result<CheckRun, String> {
    let t0 = Instant::now();
    obs::span(name, || {
        let layout = obs::span("cif.parse", || diic_cif::parse(cif))
            .map_err(|e| format!("CIF parse: {e}"))?;
        let mut sink = SpillingSink::new(FnvWriter::default(), budget);
        let report = check_with_sink(engine, &layout, tech, options, &mut sink);
        let (digest, spill) = obs::span("report.finish", || sink.finish())
            .map_err(|e| format!("report spill: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        Ok(CheckRun {
            secs,
            digest,
            spill,
            report,
        })
    })
}

/// Runs the workload.
pub fn run(args: &Args, workers: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    let make = || Ok::<_, String>((generate(&spec(SIDE, ERRORS_PER_KIND, args.seed)), nmos()));
    let (chip, tech) = setup.sample(SETUP_SLICES, make, |_| Ok(()))?;
    out.notes.push(format!(
        "chip {SIDE}x{SIDE}, {} injected errors, {} bytes of CIF",
        chip.ground_truth.len(),
        chip.cif.len()
    ));

    // The traced run records spans only once the process is warm: the
    // reference and one N-worker check run with the recorder paused.
    if args.trace {
        obs::start();
        obs::set_paused(true);
    }
    let reference = reference(&chip, &tech, &mut out);
    let budget = (reference.violations / 4).max(1);
    let options = CheckOptions {
        parallelism: workers,
        ..CheckOptions::default()
    };
    let engine = timed_engine();

    let verified = |out: &mut Outcome, t: CheckRun| {
        out.check(
            "N-worker spilled report",
            1,
            verify::digest_mismatch(t.digest, reference.digest),
            format!(
                "spilled report differs from the 1-worker buffered report \
                 ({} vs {} bytes)",
                t.digest.bytes, reference.digest.bytes
            ),
        );
        t
    };

    if args.trace {
        let t = timed_check("check", &chip.cif, &tech, &options, &engine, budget)?;
        verified(&mut out, t);
        obs::set_paused(false);
        let serial = CheckOptions {
            parallelism: 1,
            ..options.clone()
        };
        let t = timed_check("check_1w", &chip.cif, &tech, &serial, &engine, budget)?;
        verified(&mut out, t);
    }

    // The traced run alternates untraced (recorder paused) and traced
    // checks; `trace.overhead_s` compares their medians.
    let min_checks = if args.trace {
        MIN_CHECKS_TRACED
    } else {
        MIN_CHECKS
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut secs = Vec::new();
    let mut untraced = Vec::new();
    let mut last = None;
    while secs.len() + untraced.len() < min_checks || Instant::now() < deadline {
        drop(last.take());
        let paused = args.trace && untraced.len() <= secs.len();
        obs::set_paused(paused);
        let t = timed_check("check", &chip.cif, &tech, &options, &engine, budget)?;
        obs::set_paused(false);
        let t = verified(&mut out, t);
        if paused {
            untraced.push(t.secs);
        } else {
            secs.push(t.secs);
        }
        last = Some(t);
        setup.sample(SETUP_SLICES_BETWEEN, make, |_| Ok(()))?;
    }
    out.set("setup_s", setup.median());
    out.notes.push(setup.note());
    // invariant: the loop ran at least MIN_CHECKS times.
    let last = last.expect("at least one timed check");
    out.notes.push(format!(
        "{} checks at {workers} workers: {:?} s; spill runs {}",
        secs.len(),
        secs.iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        last.spill.runs
    ));

    let p50 = median(&secs);
    out.set("latency_p50_ms", p50 * 1e3);
    out.set("latency_p99_ms", crate::quantile(&secs, 0.99) * 1e3);
    out.set("throughput_per_s", reference.elements as f64 / p50);

    if args.trace {
        per_layer(&mut out, &obs::snapshot(), &last, &reference);
        out.set("trace.overhead_s", p50 - median(&untraced));
    }
    Ok(out)
}

fn per_layer(out: &mut Outcome, spans: &[Span], last: &CheckRun, reference: &Reference) {
    const MB: f64 = 1e6;
    let med = |parent: &str, name: &str, f: fn(&Span) -> f64| {
        median(
            &obs::children(spans, parent, name)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let secs_of: fn(&Span) -> f64 = Span::secs;
    out.set("cif.parse_s", med("check", "cif.parse", secs_of));
    for stage in STAGES {
        let s = med("check", stage, secs_of);
        let s1 = med("check_1w", stage, secs_of);
        out.set(&format!("{stage}.s"), s);
        out.set(&format!("{stage}.s_1w"), s1);
        out.set(
            &format!("{stage}.speedup"),
            if s > 0.0 { s1 / s } else { 0.0 },
        );
        out.set(
            &format!("{stage}.alloc_mb"),
            med("check", stage, |s| s.alloc_peak as f64 / MB),
        );
    }
    let live = |stage| med("check", stage, |s| s.live_delta as f64);
    out.set("instantiate.live_mb", live("instantiate") / MB);
    out.set(
        "view.bytes_per_element",
        live("instantiate") / reference.elements.max(1) as f64,
    );
    out.set("netlist.live_mb", live("netlist") / MB);

    let st = &last.report.interact_stats;
    out.set("interactions.candidate_pairs", st.candidate_pairs as f64);
    out.set(
        "interactions.ns_per_pair",
        med("check", "interactions", secs_of) * 1e9 / st.candidate_pairs.max(1) as f64,
    );
    out.set("interactions.distance_checks", st.distance_checks as f64);
    let lookups = st.cache_hits + st.cache_misses;
    out.set(
        "interactions.cache_hit_ratio",
        st.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.set("interactions.violations", st.violations as f64);
    out.set("report.finish_s", med("check", "report.finish", secs_of));
    out.set("report.spill_runs", last.spill.runs as f64);
    out.set("report.bytes", last.digest.bytes as f64);
    crate::heap_metrics(out);
}
