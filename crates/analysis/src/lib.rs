//! Determinism lints for the simulator workspace (`detlint`).
//!
//! The repo's value rests on bit-reproducible runs; nothing in `cargo
//! test` stops a contributor from reintroducing a default-hasher
//! `HashMap` whose iteration order leaks into simulation state, a
//! wall-clock read, or a panic on an engine path that was deliberately
//! converted to graceful degradation. This crate is a small, hermetic
//! (no external dependencies) workspace scanner enforcing seven rules:
//!
//! | rule | what it flags | where |
//! |------|---------------|-------|
//! | D1 | `HashMap` / `HashSet` (iteration order can reach sim state) | sim crates |
//! | D2 | wall-clock / ambient entropy (`Instant::now`, `SystemTime`, `thread_rng`, …) | everywhere except `bench` / `criterion` |
//! | D3 | `unwrap` / `expect` / `panic!` / `unreachable!` on engine hot paths | `oversub/src/engine/*`, `oversub/src/exec.rs`, `oversub/src/mechanism/*`, `task/src/state.rs`, `task/src/table.rs`, `sched/src/rq.rs`, `metrics/src/digest.rs` |
//! | D4 | mutable / public statics and `thread_local!` (state escaping seeding) | everywhere |
//! | D5 | ad-hoc host threads (`thread::spawn` / `thread::scope` / `thread::Builder`) | everywhere except `simcore/src/pool.rs` and `bench` / `criterion` |
//! | D6 | `SimRng::new` outside the engine root (RNG provenance: one seeded root per run, streams derived by `fork`) | sim crates except `simcore` |
//! | D7 | `min_by` / `max_by` / `min_by_key` / `max_by_key` (first-wins tie-break makes the pick iteration-order-dependent) | sim crates |
//!
//! Violations can be suppressed with a justified entry in `detlint.toml`
//! (rule + path + pattern + reason); unused entries are themselves
//! failures in `--check` mode so the allowlist never rots. The scanner is
//! token-based over comment- and string-stripped source (the repo bans
//! external crates, so a `syn` AST pass is not an option) with
//! `#[cfg(test)]` regions skipped — test code may use hash maps freely.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use oversub_metrics::json::{obj, JsonValue};

/// Version stamp of the rule set, printed by `detlint` and recorded in
/// bench JSON headers so artifacts say which invariants were in force.
/// Bump when a rule is added, removed, or materially changed.
pub const RULESET_VERSION: &str = "detlint-v7";

/// Crates whose containers can reach simulation state: a nondeterministic
/// iteration order here can change scheduling decisions and break the
/// golden bit-identity tests.
const SIM_CRATES: &[&str] = &[
    "simcore",
    "sched",
    "ksync",
    "locks",
    "oversub",
    "bwd",
    "workloads",
    "task",
];

/// Crates allowed to read wall clocks (they measure the host, not the
/// simulation).
const TIME_EXEMPT_CRATES: &[&str] = &["bench", "criterion"];

/// The one library file allowed to create host threads: the deterministic
/// worker pool every parallel code path must go through (D5).
const THREAD_POOL_FILE: &str = "crates/simcore/src/pool.rs";

/// One lint rule: id, searched tokens, and a description.
struct Rule {
    id: &'static str,
    tokens: &'static [&'static str],
    message: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        id: "D1",
        tokens: &["HashMap", "HashSet"],
        message: "default-hasher container in a sim crate; iteration order can reach \
                  simulation state — use BTreeMap/BTreeSet or sorted iteration, or add a \
                  justified allow entry",
    },
    Rule {
        id: "D2",
        tokens: &[
            "Instant::now",
            "SystemTime",
            "thread_rng",
            "rand::random",
            "getrandom",
            "RandomState",
        ],
        message: "wall-clock or ambient-entropy source outside bench/criterion; all \
                  simulator randomness must flow from the seeded SimRng",
    },
    Rule {
        id: "D3",
        tokens: &[
            ".unwrap(",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
        ],
        message: "panicking construct on an engine hot path; these paths degrade \
                  gracefully via structured diagnostics — return or push_diagnostic \
                  instead",
    },
    Rule {
        id: "D4",
        tokens: &["static mut", "thread_local!", "pub static"],
        message: "mutable or public static state escapes per-run seeding; thread run \
                  state through the engine so every run starts identical",
    },
    Rule {
        id: "D5",
        tokens: &["thread::spawn", "thread::scope", "thread::Builder"],
        message: "ad-hoc host thread outside the deterministic worker pool; route \
                  parallel work through simcore::pool / oversub::sweep so results \
                  merge in submission order and stay byte-identical at any jobs \
                  count",
    },
    Rule {
        id: "D6",
        tokens: &["SimRng::new("],
        message: "root RNG constructed outside the engine; every run has exactly one \
                  seeded root (Engine::try_new) and all other streams derive from it \
                  via fork, so two constructions of the same seed cannot silently \
                  correlate — take a forked stream instead, or add a justified allow \
                  entry",
    },
    Rule {
        id: "D7",
        tokens: &["min_by(", "max_by(", "min_by_key(", "max_by_key("],
        message: "first-wins extremum over an iterator: on ties the pick depends on \
                  iteration order, which the schedule-robustness certifier permutes — \
                  select with an order-independent total key (tuple with a stable \
                  index) or justify why ties are impossible",
    },
];

/// Is `crate_name` subject to `rule` for a file at `rel_path`?
fn rule_applies(rule: &Rule, crate_name: &str, rel_path: &str) -> bool {
    match rule.id {
        "D1" => SIM_CRATES.contains(&crate_name),
        "D2" => !TIME_EXEMPT_CRATES.contains(&crate_name),
        "D3" => {
            rel_path.starts_with("crates/oversub/src/engine/")
                // Mechanism hooks run inside the engine's event loop —
                // a panic there takes down the whole run (detlint-v4).
                || rel_path.starts_with("crates/oversub/src/mechanism/")
                || rel_path == "crates/oversub/src/exec.rs"
                // Per-event hot state: the task columns and the runqueue
                // are touched on every pick/stop/wake, so they degrade
                // via diagnostics like the engine proper (detlint-v3).
                || rel_path == "crates/task/src/state.rs"
                || rel_path == "crates/task/src/table.rs"
                || rel_path == "crates/sched/src/rq.rs"
                // The exact latency digest records on every request
                // completion and merges on the sweep pool's join path
                // (detlint-v4).
                || rel_path == "crates/metrics/src/digest.rs"
        }
        "D4" => true,
        "D5" => rel_path != THREAD_POOL_FILE && !TIME_EXEMPT_CRATES.contains(&crate_name),
        // simcore is exempt from D6: it defines SimRng, and its doc
        // examples and helpers are the construction reference.
        "D6" => SIM_CRATES.contains(&crate_name) && crate_name != "simcore",
        "D7" => SIM_CRATES.contains(&crate_name),
        _ => false,
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule id (`D1`..`D7`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending (stripped) source line, trimmed.
    pub excerpt: String,
    /// The rule's message.
    pub message: &'static str,
    /// The allow entry's reason, when suppressed.
    pub allowed_by: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: `{}`",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// One `[[allow]]` entry from `detlint.toml`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative path (exact match).
    pub path: String,
    /// Substring the offending line must contain.
    pub pattern: String,
    /// Why this use is sound. Required — an allow without a justification
    /// is rejected at parse time.
    pub reason: String,
}

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Violations not covered by an allow entry.
    pub violations: Vec<Violation>,
    /// Violations matched (and suppressed) by an allow entry.
    pub allowed: Vec<Violation>,
    /// Allow entries that matched nothing — stale, and a `--check`
    /// failure so the allowlist cannot rot.
    pub unused_allows: Vec<AllowEntry>,
}

impl ScanReport {
    /// True when `--check` should exit zero.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allows.is_empty()
    }

    /// Stable JSON form (sorted scan order; key order fixed).
    pub fn to_json(&self) -> JsonValue {
        let viol = |v: &Violation| {
            obj(vec![
                ("rule", JsonValue::Str(v.rule.to_string())),
                ("file", JsonValue::Str(v.file.clone())),
                ("line", JsonValue::UInt(v.line as u128)),
                ("excerpt", JsonValue::Str(v.excerpt.clone())),
                (
                    "allowed_by",
                    match &v.allowed_by {
                        Some(r) => JsonValue::Str(r.clone()),
                        None => JsonValue::Null,
                    },
                ),
            ])
        };
        obj(vec![
            ("ruleset", JsonValue::Str(RULESET_VERSION.to_string())),
            ("files_scanned", JsonValue::UInt(self.files_scanned as u128)),
            (
                "violations",
                JsonValue::Array(self.violations.iter().map(viol).collect()),
            ),
            (
                "allowed",
                JsonValue::Array(self.allowed.iter().map(viol).collect()),
            ),
            (
                "unused_allows",
                JsonValue::Array(
                    self.unused_allows
                        .iter()
                        .map(|a| {
                            obj(vec![
                                ("rule", JsonValue::Str(a.rule.clone())),
                                ("path", JsonValue::Str(a.path.clone())),
                                ("pattern", JsonValue::Str(a.pattern.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Allowlist (minimal TOML subset: `[[allow]]` tables of string pairs)
// ---------------------------------------------------------------------

/// Parse `detlint.toml`. Only the subset the allowlist needs is accepted:
/// comments, blank lines, `[[allow]]` headers, and `key = "value"` string
/// pairs with keys `rule`/`path`/`pattern`/`reason`.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    let mut cur: Option<[Option<String>; 4]> = None;
    let finish =
        |slot: Option<[Option<String>; 4]>, entries: &mut Vec<AllowEntry>| -> Result<(), String> {
            let Some([rule, path, pattern, reason]) = slot else {
                return Ok(());
            };
            let entry = AllowEntry {
                rule: rule.ok_or("allow entry missing `rule`")?,
                path: path.ok_or("allow entry missing `path`")?,
                pattern: pattern.ok_or("allow entry missing `pattern`")?,
                reason: reason.ok_or("allow entry missing `reason`")?,
            };
            if !RULES.iter().any(|r| r.id == entry.rule) {
                return Err(format!("allow entry names unknown rule `{}`", entry.rule));
            }
            if entry.reason.trim().is_empty() {
                return Err(format!(
                    "allow entry for {}:{} has an empty reason — every allow must be justified",
                    entry.rule, entry.path
                ));
            }
            entries.push(entry);
            Ok(())
        };
    for (i, raw) in text.lines().enumerate() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            finish(cur.take(), &mut entries)?;
            cur = Some([None, None, None, None]);
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("detlint.toml line {}: unrecognized syntax", i + 1));
        };
        let key = k.trim();
        let val = v.trim();
        let unq = val
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("detlint.toml line {}: value must be a quoted string", i + 1))?;
        let slot = cur
            .as_mut()
            .ok_or_else(|| format!("detlint.toml line {}: key outside [[allow]]", i + 1))?;
        let idx = match key {
            "rule" => 0,
            "path" => 1,
            "pattern" => 2,
            "reason" => 3,
            other => {
                return Err(format!(
                    "detlint.toml line {}: unknown key `{other}`",
                    i + 1
                ))
            }
        };
        slot[idx] = Some(unq.to_string());
    }
    finish(cur.take(), &mut entries)?;
    Ok(entries)
}

/// Drop a `#`-to-end-of-line comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

// ---------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------

/// Blank out comments and string literals, preserving line structure, so
/// token matching cannot fire on prose or on rule names quoted in
/// messages. Handles nested block comments and `r"…"` / `r#"…"#` raw
/// strings; character literals are left alone (no rule token fits in
/// one, and lifetimes share the quote).
pub fn strip_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (any hash count).
        if c == 'r' && matches!(b.get(i + 1), Some(&'"') | Some(&'#')) {
            let mut j = i + 1;
            let mut hashes = 0;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                j += 1;
                'raw: while j < b.len() {
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut h = 0;
                        while h < hashes && b.get(k) == Some(&'#') {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            j = k;
                            break 'raw;
                        }
                    }
                    if b[j] == '\n' {
                        out.push('\n');
                    }
                    j += 1;
                }
                out.push(' ');
                i = j;
                continue;
            }
        }
        // Ordinary string literal.
        if c == '"' {
            i += 1;
            while i < b.len() {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        out.push('\n');
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.push(' ');
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Per-line flags for `#[cfg(test)]` regions: the attribute line, then
/// the following item's braces. Test code is exempt from every rule.
pub fn test_region_mask(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut li = 0;
    while li < lines.len() {
        if !lines[li].contains("#[cfg(test)]") {
            li += 1;
            continue;
        }
        mask[li] = true;
        // Find the opening brace of the annotated item, then match it.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut lj = li;
        'outer: while lj < lines.len() {
            mask[lj] = true;
            for c in lines[lj].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
                if opened && depth == 0 {
                    break 'outer;
                }
            }
            lj += 1;
        }
        li = lj + 1;
    }
    mask
}

// ---------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------

/// Scan one file's content. `crate_name` decides which rules apply;
/// `rel_path` is recorded in findings and matched against the allowlist.
pub fn scan_source(crate_name: &str, rel_path: &str, src: &str) -> Vec<Violation> {
    let stripped = strip_source(src);
    let mask = test_region_mask(&stripped);
    let mut out = Vec::new();
    for rule in RULES {
        if !rule_applies(rule, crate_name, rel_path) {
            continue;
        }
        for (ln, line) in stripped.lines().enumerate() {
            if mask.get(ln).copied().unwrap_or(false) {
                continue;
            }
            if rule.tokens.iter().any(|t| line.contains(t)) {
                out.push(Violation {
                    rule: rule.id,
                    file: rel_path.to_string(),
                    line: ln + 1,
                    excerpt: line.trim().to_string(),
                    message: rule.message,
                    allowed_by: None,
                });
            }
        }
    }
    out
}

/// Walk `crates/*/src` (plus the root package's `src/`) under `root`,
/// scan every `.rs` file, and split findings by the allowlist.
pub fn scan_workspace(root: &Path, allows: &[AllowEntry]) -> io::Result<ScanReport> {
    let mut files: Vec<(String, PathBuf)> = Vec::new(); // (crate name, path)
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        collect_rs(&dir.join("src"), &name, &mut files)?;
    }
    collect_rs(&root.join("src"), "thread-oversub", &mut files)?;
    files.sort();

    let mut report = ScanReport::default();
    let mut used = vec![false; allows.len()];
    for (crate_name, path) in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        report.files_scanned += 1;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        for mut v in scan_source(crate_name, &rel, &src) {
            let hit = allows.iter().enumerate().find(|(_, a)| {
                a.rule == v.rule && a.path == v.file && v.excerpt.contains(&a.pattern)
            });
            match hit {
                Some((idx, a)) => {
                    used[idx] = true;
                    v.allowed_by = Some(a.reason.clone());
                    report.allowed.push(v);
                }
                None => report.violations.push(v),
            }
        }
    }
    for (i, a) in allows.iter().enumerate() {
        if !used[i] {
            report.unused_allows.push(a.clone());
        }
    }
    Ok(report)
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, crate_name: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, crate_name, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((crate_name.to_string(), p));
        }
    }
    Ok(())
}

/// Locate the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// cargo, else walk up from the current directory to the first directory
/// holding both `Cargo.toml` and `crates/`.
pub fn find_workspace_root() -> Option<PathBuf> {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(md);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            if root.join("crates").is_dir() {
                return Some(root.to_path_buf());
            }
        }
    }
    let mut cur = std::env::current_dir().ok()?;
    loop {
        if cur.join("Cargo.toml").is_file() && cur.join("crates").is_dir() {
            return Some(cur);
        }
        if !cur.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_comments_and_strings() {
        let src = "let a = 1; // HashMap in a comment\nlet b = \"HashMap\"; /* HashMap\nHashMap */ let c = 2;\n";
        let s = strip_source(src);
        assert!(!s.contains("HashMap"), "{s}");
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings_and_nesting() {
        let src =
            "let r = r#\"Instant::now\"#;\n/* outer /* inner */ still comment */ let x = 1;\n";
        let s = strip_source(src);
        assert!(!s.contains("Instant::now"));
        assert!(s.contains("let x = 1;"));
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\nfn g() {}\n";
        let v = scan_source("sched", "crates/sched/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn d1_fires_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan_source("sched", "crates/sched/src/x.rs", src).len(), 1);
        assert!(scan_source("metrics", "crates/metrics/src/x.rs", src).is_empty());
    }

    #[test]
    fn d2_exempts_bench_and_criterion() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(scan_source("sched", "crates/sched/src/x.rs", src).len(), 1);
        assert!(scan_source("bench", "crates/bench/src/x.rs", src).is_empty());
        assert!(scan_source("criterion", "crates/criterion/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_scopes_to_engine_hot_paths() {
        let src = "x.unwrap();\n";
        assert_eq!(
            scan_source("oversub", "crates/oversub/src/engine/events.rs", src).len(),
            1
        );
        assert_eq!(
            scan_source("oversub", "crates/oversub/src/exec.rs", src).len(),
            1
        );
        assert!(scan_source("oversub", "crates/oversub/src/config.rs", src).is_empty());
        // Per-event hot state outside the engine crate is covered too.
        assert_eq!(
            scan_source("task", "crates/task/src/state.rs", src).len(),
            1
        );
        assert_eq!(
            scan_source("task", "crates/task/src/table.rs", src).len(),
            1
        );
        assert_eq!(scan_source("sched", "crates/sched/src/rq.rs", src).len(), 1);
        // detlint-v4: mechanism hooks and the exact latency digest run on
        // per-event / per-request paths.
        assert_eq!(
            scan_source("oversub", "crates/oversub/src/mechanism/neighbour.rs", src).len(),
            1
        );
        assert_eq!(
            scan_source("metrics", "crates/metrics/src/digest.rs", src).len(),
            1
        );
        assert!(scan_source("metrics", "crates/metrics/src/hist.rs", src).is_empty());
        assert!(scan_source("task", "crates/task/src/program.rs", src).is_empty());
        // unwrap_or_else is not the panicking form.
        assert!(scan_source(
            "oversub",
            "crates/oversub/src/exec.rs",
            "x.unwrap_or_else(|| 3);\n"
        )
        .is_empty());
    }

    #[test]
    fn d5_confines_host_threads_to_the_pool() {
        let src = "std::thread::spawn(|| {});\n";
        // Fires in sim and support crates alike…
        assert_eq!(
            scan_source("oversub", "crates/oversub/src/sweep.rs", src).len(),
            1
        );
        assert_eq!(
            scan_source("metrics", "crates/metrics/src/x.rs", src).len(),
            1
        );
        // …but not in the pool itself or the host-measuring crates.
        assert!(scan_source("simcore", "crates/simcore/src/pool.rs", src).is_empty());
        assert!(scan_source("bench", "crates/bench/src/bin/x.rs", src).is_empty());
        assert!(scan_source("criterion", "crates/criterion/src/x.rs", src).is_empty());
        // Scoped spawns and named builders are the same hazard.
        assert_eq!(
            scan_source(
                "sched",
                "crates/sched/src/x.rs",
                "std::thread::scope(|s| {});\n"
            )
            .len(),
            1
        );
        assert_eq!(
            scan_source(
                "sched",
                "crates/sched/src/x.rs",
                "thread::Builder::new();\n"
            )
            .len(),
            1
        );
        // available_parallelism is a read, not a thread, and stays legal.
        assert!(scan_source(
            "oversub",
            "crates/oversub/src/sweep.rs",
            "std::thread::available_parallelism();\n"
        )
        .is_empty());
    }

    #[test]
    fn d6_confines_root_rng_to_sim_crates_outside_simcore() {
        let src = "let rng = SimRng::new(seed);\n";
        // Fires in sim crates that should fork from the engine's root…
        assert_eq!(
            scan_source("oversub", "crates/oversub/src/faults.rs", src).len(),
            1
        );
        assert_eq!(
            scan_source("workloads", "crates/workloads/src/admission.rs", src).len(),
            1
        );
        // …but not in simcore (the defining crate) or non-sim crates.
        assert!(scan_source("simcore", "crates/simcore/src/rng.rs", src).is_empty());
        assert!(scan_source("bench", "crates/bench/src/x.rs", src).is_empty());
        assert!(scan_source("analysis", "crates/analysis/src/lib.rs", src).is_empty());
        // Forked streams are the sanctioned derivation.
        assert!(scan_source(
            "oversub",
            "crates/oversub/src/faults.rs",
            "let s = base.fork(STREAM);\n"
        )
        .is_empty());
    }

    #[test]
    fn d7_flags_first_wins_extrema_in_sim_crates() {
        for call in [
            "xs.iter().min_by_key(|x| x.t);\n",
            "xs.iter().max_by_key(|x| x.t);\n",
            "xs.iter().min_by(|a, b| a.cmp(b));\n",
            "xs.iter().max_by(|a, b| a.cmp(b));\n",
        ] {
            assert_eq!(
                scan_source("sched", "crates/sched/src/x.rs", call).len(),
                1,
                "{call}"
            );
        }
        // Non-sim crates may select freely (their outputs are host-side).
        assert!(scan_source(
            "metrics",
            "crates/metrics/src/x.rs",
            "xs.iter().min_by_key(|x| x.t);\n"
        )
        .is_empty());
        // Plain min()/max() on totally ordered keys are not flagged.
        assert!(scan_source("sched", "crates/sched/src/x.rs", "xs.iter().min();\n").is_empty());
    }

    #[test]
    fn d4_flags_statics_everywhere() {
        let src = "static mut COUNTER: u64 = 0;\n";
        assert_eq!(
            scan_source("metrics", "crates/metrics/src/x.rs", src).len(),
            1
        );
    }

    #[test]
    fn allowlist_round_trip() {
        let toml = r##"
# a comment
[[allow]]
rule = "D1"
path = "crates/simcore/src/events.rs"  # trailing comment
pattern = "HashSet"
reason = "probe-only set; never iterated"
"##;
        let entries = parse_allowlist(toml).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "D1");
        assert_eq!(entries[0].pattern, "HashSet");
    }

    #[test]
    fn allowlist_rejects_missing_reason_and_unknown_rules() {
        assert!(
            parse_allowlist("[[allow]]\nrule = \"D1\"\npath = \"p\"\npattern = \"x\"\n").is_err()
        );
        assert!(parse_allowlist(
            "[[allow]]\nrule = \"D9\"\npath = \"p\"\npattern = \"x\"\nreason = \"r\"\n"
        )
        .is_err());
        assert!(parse_allowlist("rule = \"D1\"\n").is_err());
    }

    #[test]
    fn report_json_is_stable() {
        let mut r = ScanReport {
            files_scanned: 2,
            ..ScanReport::default()
        };
        r.violations.push(Violation {
            rule: "D1",
            file: "crates/sched/src/x.rs".into(),
            line: 3,
            excerpt: "use std::collections::HashMap;".into(),
            message: "m",
            allowed_by: None,
        });
        let a = r.to_json().to_string_compact();
        let b = r.to_json().to_string_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"ruleset\":\"detlint-v7\""));
        assert!(!r.is_clean());
    }
}
