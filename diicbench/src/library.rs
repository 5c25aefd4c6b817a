//! `library`: batch verification of a cell library.
//!
//! 10⁴ cells of 2–4 inverters each (half share their definition
//! content, one in five carries an injected error) are checked as one
//! `check_library_in` batch over a fresh `LibrarySession`, cells spread
//! over every core. One batch is timed from the cells' CIF text to every
//! cell's verdict; rendering the canonical per-cell report lines (what
//! `POST /library` returns) is timed separately as the report step.

use crate::full_chip::{nmos, STAGES, TOLERANCE};
use crate::obs;
use crate::{
    median, quantile, verify, Args, FnvWriter, Outcome, SetupTimes, SETUP_SLICES,
    SETUP_SLICES_BETWEEN,
};
use diic_core::{
    check, check_library_in, DiagnosticSink, LibraryOptions, LibraryReport, LibrarySession,
};
use diic_gen::{cell_library_with, GeneratedLibrary, LibrarySpec};
use diic_tech::Technology;
use std::time::Instant;

/// Cells per batch.
const CELLS: usize = 10_000;
/// Timed batches per run, at least (the traced run alternates untraced
/// and traced batches and needs two of each).
const MIN_BATCHES: usize = 3;
const MIN_BATCHES_TRACED: usize = 4;

/// One timed batch: CIF text to verdicts, then the report step.
struct Batch {
    secs: f64,
    report_secs: f64,
    digests: Vec<FnvWriter>,
    report: LibraryReport<DiagnosticSink>,
}

fn batch(
    lib: &GeneratedLibrary,
    tech: &Technology,
    options: &LibraryOptions,
) -> Result<Batch, String> {
    obs::span("batch", || {
        let t0 = Instant::now();
        let layouts = obs::span("cif.parse", || {
            lib.cells
                .iter()
                .map(|c| diic_cif::parse(&c.cif))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("CIF parse: {e}"))?;
        let session = LibrarySession::new(tech);
        let report = obs::span("check_library_in", || {
            check_library_in(&session, &layouts, tech, options, |_| DiagnosticSink::new())
        });
        let secs = t0.elapsed().as_secs_f64();
        let r0 = Instant::now();
        let digests = obs::span("report.render", || {
            report
                .reports
                .iter()
                .map(|r| render_lines(&r.violations))
                .collect()
        });
        let report_secs = r0.elapsed().as_secs_f64();
        Ok(Batch {
            secs,
            report_secs,
            digests,
            report,
        })
    })
}

/// A cell's canonical report lines as `POST /library` renders them.
fn render_lines(violations: &[diic_core::Violation]) -> FnvWriter {
    let mut sorted = violations.to_vec();
    diic_core::canonical_sort(&mut sorted);
    let mut w = FnvWriter::default();
    for v in &sorted {
        let line = diic_api::wire::render_violation(v);
        std::io::Write::write_all(&mut w, line.as_bytes()).expect("hashing cannot fail");
        std::io::Write::write_all(&mut w, b"\n").expect("hashing cannot fail");
    }
    w
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    let make = || {
        Ok::<_, String>((
            cell_library_with(&LibrarySpec::new(CELLS, args.seed)),
            nmos(),
        ))
    };
    let (lib, tech) = setup.sample(SETUP_SLICES, make, |_| Ok(()))?;
    out.notes.push(format!(
        "{CELLS} cells, {} sharing content, {} faulted",
        lib.shared_cells, lib.faulted_cells
    ));
    let options = LibraryOptions {
        parallelism: 0,
        ..LibraryOptions::default()
    };

    // Every later batch's per-cell report lines must equal the first
    // batch's; the last batch is checked against standalone checks
    // below.
    let mut first: Option<Vec<FnvWriter>> = None;
    let mut verified = |out: &mut Outcome, b: Batch| {
        match &first {
            None => first = Some(b.digests.clone()),
            Some(first) => {
                let differ = first
                    .iter()
                    .zip(&b.digests)
                    .map(|(a, b)| verify::digest_mismatch(*b, *a))
                    .sum();
                out.check(
                    "batch repeatability",
                    CELLS as u64,
                    differ,
                    "cell reports differ between batches".into(),
                );
            }
        }
        b
    };

    // The traced run warms up with one untraced batch first.
    let mut batch_1w = None;
    if args.trace {
        verified(&mut out, batch(&lib, &tech, &options)?);
        obs::start();
        let serial = LibraryOptions {
            parallelism: 1,
            ..options.clone()
        };
        let b = obs::span("batch_1w", || batch(&lib, &tech, &serial))?;
        batch_1w = Some(verified(&mut out, b).secs);
    }

    // The traced run alternates untraced (recorder paused) and traced
    // batches; `trace.overhead_s` compares their medians.
    let min_batches = if args.trace {
        MIN_BATCHES_TRACED
    } else {
        MIN_BATCHES
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut secs = Vec::new();
    let mut untraced = Vec::new();
    let mut report_secs = Vec::new();
    let mut last = None;
    while secs.len() + untraced.len() < min_batches || Instant::now() < deadline {
        drop(last.take());
        let paused = args.trace && untraced.len() <= secs.len();
        obs::set_paused(paused);
        let b = batch(&lib, &tech, &options);
        obs::set_paused(false);
        let b = verified(&mut out, b?);
        if paused {
            untraced.push(b.secs);
        } else {
            secs.push(b.secs);
            report_secs.push(b.report_secs);
        }
        last = Some(b);
        setup.sample(SETUP_SLICES_BETWEEN, make, |_| Ok(()))?;
    }
    out.set("setup_s", setup.median());
    out.notes.push(setup.note());
    // invariant: the loop ran at least MIN_BATCHES times.
    let last = last.expect("at least one timed batch");

    // Outside the timed window: every cell against a standalone check,
    // and every injected error flagged.
    let t0 = Instant::now();
    let mut mismatched = 0;
    let mut injected = 0;
    let mut missed = 0;
    let mut unexpected_violations = 0usize;
    let mut unexpected_cells = 0usize;
    obs::span("standalone_loop", || {
        for (cell, batch_report) in lib.cells.iter().zip(&last.report.reports) {
            let layout = diic_cif::parse(&cell.cif).expect("generated cells parse");
            let standalone = check(&layout, &tech, &options.cell);
            mismatched += verify::cell_mismatch(batch_report, &standalone);
            let regions = diic_core::account(&standalone.violations, &cell.injected(), TOLERANCE);
            injected += regions.injected as u64;
            missed += regions.unchecked as u64;
            unexpected_violations += regions.false_errors;
            unexpected_cells += usize::from(regions.false_errors > 0);
        }
    });
    let loop_s = t0.elapsed().as_secs_f64();
    out.check(
        "standalone check",
        CELLS as u64,
        mismatched,
        "batch cell reports differ from standalone checks".into(),
    );
    out.check(
        "ground truth",
        injected,
        missed,
        "injected errors not flagged".into(),
    );
    out.notes.push(format!(
        "{} batches: {:?} s; ledger mismatch: {unexpected_violations} unexpected \
         violations in {unexpected_cells} cells",
        secs.len(),
        secs.iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));

    let p50 = median(&secs);
    out.set("latency_p50_ms", p50 * 1e3);
    out.set("latency_p99_ms", quantile(&secs, 0.99) * 1e3);
    out.set("throughput_per_s", CELLS as f64 / p50);

    if args.trace {
        let spans = obs::snapshot();
        let parse: Vec<f64> = obs::children(&spans, "batch", "cif.parse")
            .map(obs::Span::secs)
            .collect();
        out.set("cif.parse_s", median(&parse));
        let stats = &last.report.stats;
        let lookups = stats.shared_cache_hits + stats.shared_cache_misses;
        out.set(
            "library.cache_hit_ratio",
            stats.shared_cache_hits as f64 / lookups.max(1) as f64,
        );
        out.set(
            "library.interner_compactions",
            stats.interner_compactions as f64,
        );
        out.set(
            "library.interner_peak_mb",
            stats.interner_peak_bytes as f64 / 1e6,
        );
        let profile = &last.report.profile;
        out.set("library.cell_p50_ms", crate::ms(profile.p50()));
        out.set("library.cell_p99_ms", crate::ms(profile.p99()));
        for stage in STAGES {
            let total = profile
                .stage_totals
                .iter()
                .find(|(n, _)| n == stage)
                .map_or(0.0, |(_, d)| d.as_secs_f64());
            out.set(&format!("library.{stage}.s"), total);
        }
        out.set("report.render_ms", median(&report_secs) * 1e3);
        out.set("library.loop_s", loop_s);
        out.set("library.speedup_vs_loop", loop_s / p50);
        out.set(
            "library.unexpected_violations",
            unexpected_violations as f64,
        );
        out.set("library.unexpected_cells", unexpected_cells as f64);
        if let Some(b1) = batch_1w {
            out.set("library.batch_s_1w", b1);
        }
        crate::heap_metrics(&mut out);
        out.set("trace.overhead_s", p50 - median(&untraced));
    }
    Ok(out)
}
