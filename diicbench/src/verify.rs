//! Output verifiers. Each returns the number of failures it found, so a
//! workload adds them to its `failed` count instead of stopping.

use crate::FnvWriter;
use diic_core::{canonical_sort, CheckReport, ErrorRegions, Violation};

/// Canonically sorts `violations` and renders them as report lines
/// (one `Debug` line each, as every report sink writes them); returns
/// the digest of the bytes and the sorted violations.
pub fn render_canonical(mut violations: Vec<Violation>) -> (FnvWriter, Vec<Violation>) {
    canonical_sort(&mut violations);
    let mut w = FnvWriter::default();
    let mut line = String::new();
    for v in &violations {
        use std::fmt::Write as _;
        line.clear();
        let _ = writeln!(line, "{v:?}");
        std::io::Write::write_all(&mut w, line.as_bytes()).expect("hashing cannot fail");
    }
    (w, violations)
}

/// 1 when two report digests differ.
pub fn digest_mismatch(got: FnvWriter, want: FnvWriter) -> u64 {
    u64::from(got != want)
}

/// Injected errors the report missed plus violations that match no
/// injected error.
pub fn ground_truth_failures(regions: &ErrorRegions) -> u64 {
    (regions.unchecked + regions.false_errors) as u64
}

/// 1 when a batch cell's report differs from its standalone check.
pub fn cell_mismatch(batch: &CheckReport, standalone: &CheckReport) -> u64 {
    u64::from(
        batch.violations != standalone.violations
            || batch.netlist != standalone.netlist
            || batch.interact_stats != standalone.interact_stats
            || batch.element_count != standalone.element_count
            || batch.device_count != standalone.device_count,
    )
}

/// 1 when an edit response's delta differs from the oracle's.
pub fn delta_mismatch(got: &(Vec<String>, Vec<String>), want: &(Vec<String>, Vec<String>)) -> u64 {
    u64::from(got != want)
}

#[cfg(test)]
mod tests {
    //! Each verifier must count one planted dropped violation.

    use super::*;
    use crate::full_chip::{nmos, spec, TOLERANCE};
    use diic_core::{check, CheckOptions};

    #[test]
    fn full_chip_verifier_counts_a_dropped_violation() {
        let chip = diic_gen::generate(&spec(12, 1, 7));
        let layout = diic_cif::parse(&chip.cif).unwrap();
        let report = check(&layout, &nmos(), &CheckOptions::default());
        let (want, sorted) = render_canonical(report.violations.clone());
        let (same, _) = render_canonical(report.violations);
        assert_eq!(digest_mismatch(same, want), 0);
        let mut dropped = sorted.clone();
        dropped.remove(dropped.len() / 2);
        let (got, _) = render_canonical(dropped);
        assert_eq!(digest_mismatch(got, want), 1);
    }

    #[test]
    fn ground_truth_verifier_counts_a_dropped_witness() {
        // Injected errors whose only witness is dropped become
        // unchecked.
        let chip = diic_gen::generate(&spec(12, 1, 3));
        let layout = diic_cif::parse(&chip.cif).unwrap();
        let report = check(&layout, &nmos(), &CheckOptions::default());
        let injected = chip.injected();
        let clean = diic_core::account(&report.violations, &injected, TOLERANCE);
        let base = ground_truth_failures(&clean);
        let single = (0..report.violations.len()).find(|&i| {
            let mut vs = report.violations.clone();
            vs.remove(i);
            let r = diic_core::account(&vs, &injected, TOLERANCE);
            r.unchecked > clean.unchecked
        });
        let i = single.expect("some injected error has exactly one witness");
        let mut vs = report.violations.clone();
        vs.remove(i);
        let r = diic_core::account(&vs, &injected, TOLERANCE);
        assert!(ground_truth_failures(&r) > base);
    }

    #[test]
    fn library_verifier_counts_a_dropped_violation() {
        let lib = diic_gen::cell_library(12, 5);
        let tech = nmos();
        let layouts: Vec<_> = lib
            .cells
            .iter()
            .map(|c| diic_cif::parse(&c.cif).unwrap())
            .collect();
        let opts = diic_core::LibraryOptions::default();
        let session = diic_core::LibrarySession::new(&tech);
        let batch = diic_core::check_library_in(&session, &layouts, &tech, &opts, |_| {
            diic_core::DiagnosticSink::new()
        });
        let mut planted = batch.reports.clone();
        let victim = planted
            .iter()
            .position(|r| !r.violations.is_empty())
            .expect("a faulted cell");
        planted[victim].violations.pop();
        let mut failed = 0;
        for ((b, p), layout) in batch.reports.iter().zip(&planted).zip(&layouts) {
            let standalone = check(layout, &tech, &opts.cell);
            assert_eq!(cell_mismatch(b, &standalone), 0);
            failed += cell_mismatch(p, &standalone);
        }
        assert_eq!(failed, 1);
    }
}
