//! Fixture corpus for the detlint rules (introduced with detlint-v5;
//! the D5 confinement pair landed with detlint-v6 and was retargeted to
//! the pool-only sanction in detlint-v7).
//!
//! Every rule D1–D7 has a violating and a clean fixture under
//! `tests/fixtures/`. The violating snippet must fire exactly the
//! expected findings at a path where the rule applies; the clean snippet
//! shows the sanctioned idiom and must stay silent. On top of the
//! per-rule checks, the full corpus is snapshot-tested: the human
//! (`Display`) rendering and the stable JSON form are compared byte for
//! byte against checked-in goldens, so any change to rule messages,
//! finding layout, or the report schema is a reviewed diff, not an
//! accident. Regenerate the goldens with `DETLINT_BLESS=1 cargo test -p
//! analysis --test fixtures`.

use analysis::{scan_source, ScanReport, Violation, RULESET_VERSION};
use std::fs;
use std::path::PathBuf;

/// Rule id → (crate, workspace-relative path) where the rule applies.
const RULE_SITES: &[(&str, &str, &str)] = &[
    ("D1", "sched", "crates/sched/src/fixture.rs"),
    ("D2", "sched", "crates/sched/src/fixture.rs"),
    ("D3", "oversub", "crates/oversub/src/engine/fixture.rs"),
    ("D4", "metrics", "crates/metrics/src/fixture.rs"),
    ("D5", "sched", "crates/sched/src/fixture.rs"),
    ("D6", "oversub", "crates/oversub/src/engine/fixture.rs"),
    ("D7", "locks", "crates/locks/src/fixture.rs"),
];

/// Findings each violating fixture must produce (rule fired, count).
const EXPECTED_COUNTS: &[(&str, usize)] = &[
    ("D1", 3),
    ("D2", 1),
    ("D3", 2),
    ("D4", 2),
    ("D5", 1),
    ("D6", 1),
    ("D7", 1),
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> String {
    let p = fixture_dir().join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("fixture {}: {e}", p.display()))
}

fn site(rule: &str) -> (&'static str, &'static str) {
    RULE_SITES
        .iter()
        .find(|(r, _, _)| *r == rule)
        .map(|&(_, c, p)| (c, p))
        .unwrap_or_else(|| panic!("no site for rule {rule}"))
}

/// Scan one fixture at its rule's site, keeping only that rule's findings
/// (a fixture placed on an engine path may incidentally satisfy other
/// rules' applicability, but must not trip them — asserted separately).
fn scan_fixture(rule: &str, name: &str) -> Vec<Violation> {
    let (crate_name, rel_path) = site(rule);
    scan_source(crate_name, rel_path, &read_fixture(name))
}

#[test]
fn violating_fixtures_fire_exactly_their_rule() {
    for &(rule, count) in EXPECTED_COUNTS {
        let name = format!("{}_violating.rs", rule.to_lowercase());
        let found = scan_fixture(rule, &name);
        let of_rule = found.iter().filter(|v| v.rule == rule).count();
        assert_eq!(
            of_rule, count,
            "{name}: expected {count} {rule} findings, got {found:?}"
        );
        assert_eq!(
            of_rule,
            found.len(),
            "{name}: fixture tripped foreign rules: {found:?}"
        );
    }
}

/// D5 confinement (detlint-v7): host-thread creation is sanctioned at
/// exactly one library file, the deterministic worker pool. The
/// worker-spawn snippet must be silent there and fire D5 anywhere else
/// in the crate — including `crates/simcore/src/shard.rs`, the former
/// intra-run shard executor, whose sanction detlint-v7 revoked.
#[test]
fn d5_confinement_permits_only_the_pool() {
    let d5_count = |path: &str, fixture: &str| {
        let found = scan_source("simcore", path, &read_fixture(fixture));
        found.iter().filter(|v| v.rule == "D5").count()
    };
    assert_eq!(
        d5_count("crates/simcore/src/pool.rs", "d5_shard_clean.rs"),
        0,
        "the pool's sanctioned spawn site tripped D5"
    );
    for (path, fixture) in [
        ("crates/simcore/src/shard.rs", "d5_shard_clean.rs"),
        ("crates/simcore/src/lanes.rs", "d5_shard_violating.rs"),
    ] {
        assert_eq!(
            d5_count(path, fixture),
            1,
            "{path}: unsanctioned spawn site must fire D5 exactly once"
        );
    }
}

#[test]
fn clean_fixtures_stay_silent() {
    for &(rule, _) in EXPECTED_COUNTS {
        let name = format!("{}_clean.rs", rule.to_lowercase());
        let found = scan_fixture(rule, &name);
        assert!(found.is_empty(), "{name}: false positives {found:?}");
    }
}

/// Build the corpus-wide report in fixture order: deterministic input for
/// the snapshots below.
fn corpus_report() -> ScanReport {
    let mut report = ScanReport::default();
    for &(rule, _) in EXPECTED_COUNTS {
        for kind in ["violating", "clean"] {
            let name = format!("{}_{kind}.rs", rule.to_lowercase());
            report.files_scanned += 1;
            report.violations.extend(scan_fixture(rule, &name));
        }
    }
    report
}

fn check_snapshot(name: &str, rendered: &str) {
    let path = fixture_dir().join(name);
    if std::env::var_os("DETLINT_BLESS").is_some() {
        fs::write(&path, rendered).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with DETLINT_BLESS=1", name));
    assert_eq!(
        golden, rendered,
        "snapshot {name} drifted; if intentional, re-bless with DETLINT_BLESS=1"
    );
}

#[test]
fn human_output_matches_snapshot() {
    let report = corpus_report();
    let mut out = String::new();
    out.push_str(&format!("ruleset {RULESET_VERSION}\n"));
    for v in &report.violations {
        out.push_str(&format!("{v}\n"));
    }
    check_snapshot("expected_human.txt", &out);
}

#[test]
fn json_output_matches_snapshot() {
    let report = corpus_report();
    let mut out = report.to_json().to_string_compact();
    out.push('\n');
    // The stable JSON is itself stable across calls.
    assert_eq!(out.trim_end(), report.to_json().to_string_compact());
    check_snapshot("expected_json.txt", &out);
}
