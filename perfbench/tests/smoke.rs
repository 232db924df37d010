//! Smoke test: every workload at a tiny size, traced and untraced. The
//! last output line must be the result object, with every metric that
//! `BENCHMARK.json` names, each with its unit, and every name and unit
//! must fit the benchmark's grammar.

use std::collections::BTreeMap;
use std::process::{Command, Output};

/// A minimal JSON value: enough to read `BENCHMARK.json` and the result
/// line.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected '{}' at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        assert!(m.insert(k, self.value()).is_none(), "duplicate key");
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                if self.peek() != b']' {
                    loop {
                        v.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// (name, unit) of every metric in one `BENCHMARK.json` list.
fn listed(bench: &Json, list: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = bench.get(list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark on the default code path (no `OVERSUB_*` set).
fn run(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OVERSUB_") {
            cmd.env_remove(key);
        }
    }
    cmd.args(args).output().expect("benchmark binary runs")
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let Json::Arr(workloads) = bench.get("workloads") else {
        panic!("workloads is not a list");
    };
    for w in workloads {
        let name = w.get("name").str();
        assert!(name_ok(name), "workload name {name}");
        for trace in ["0", "1"] {
            let out = run(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--scale",
                "0.01",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} trace={trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Parser::parse(stdout.lines().last().expect("output"));
            let Json::Obj(top) = &result else {
                panic!("result is not an object");
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{name}: {stdout}");
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let expected = listed(
                &bench,
                if trace == "0" {
                    "end_to_end"
                } else {
                    "per_layer"
                },
            );
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{name} trace={trace}: metric count"
            );
            for (metric, unit) in &expected {
                assert!(name_ok(metric), "metric name {metric}");
                assert!(unit_ok(unit), "unit {unit}");
                let m = result.get("metrics").get(metric);
                assert_eq!(m.get("unit").str(), unit, "{name}: unit of {metric}");
                assert!(m.get("value").num().is_finite(), "{name}: {metric}");
                // The readable summary prints the same metric with its unit.
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.trim_start().starts_with(&format!("{metric} "))
                            && l.ends_with(unit.as_str())),
                    "{name}: summary line for {metric}"
                );
            }
            if trace == "0" {
                for (metric, _) in &expected {
                    let v = result.get("metrics").get(metric).get("value").num();
                    assert!(v > 0.0, "{name}: end-to-end {metric} must never be 0");
                }
            }
        }
    }
}

#[test]
fn refuses_to_run_on_an_overridden_code_path() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "spin-bwd",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("OVERSUB_JOBS", "1")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("OVERSUB_JOBS"));
}

#[test]
fn rejects_unknown_workloads_and_bad_arguments() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "spin-bwd",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "spin-bwd", "--seconds", "1", "--trace", "0"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
