//! Self-tests of the benchmark's definition: `BENCHMARK.json` names
//! exactly the metrics and workloads this package measures, every name
//! is well formed, and the interaction table (`interactions.json`) cites
//! only those names.

use crate::report::{END_TO_END, PER_LAYER};
use crate::Workload;
use std::collections::{BTreeMap, BTreeSet};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const INTERACTIONS: &str = include_str!("../interactions.json");

/// A parsed JSON value: just the objects, arrays, strings and numbers
/// the two files above use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            _ => panic!("not an object when looking up {key:?}"),
        }
    }
    fn keys(&self) -> BTreeSet<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
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
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
    fn strs(&self) -> Vec<&str> {
        self.arr().iter().map(Json::str).collect()
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing text after the JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in an object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in an array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(
                        self.s[self.i], b'\\',
                        "escapes are not needed in these files"
                    );
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn name_rules() {
    assert!(valid_name("mapping.allocs_per_candidate"));
    assert!(valid_name("setup_s"));
    assert!(!valid_name("_hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_unit("computes/cycle"));
    assert!(!valid_unit("way-too-long-unit-name"));
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let b = parse(BENCHMARK);
    let keys: Vec<&str> = b.keys().into_iter().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let secs = b.get("run_seconds").num();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    let command = b.get("command").strs();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in &command {
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths = b.get("paths").strs();
    assert!((1..=16).contains(&paths.len()));
    for p in &paths {
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/')));
    }
    // the command names no repository file outside the benchmark's paths
    for part in command.iter().filter(|p| p.contains('/')) {
        assert!(
            paths.iter().any(|p| part.starts_with(&format!("{p}/"))),
            "{part}"
        );
    }
    assert!(BENCHMARK.len() <= 64 * 1024);
}

#[test]
fn metric_names_are_valid_unique_and_within_limits() {
    let b = parse(BENCHMARK);
    let e2e = b.get("end_to_end").arr();
    let layer = b.get("per_layer").arr();
    assert!(
        (1..=16).contains(&e2e.len()),
        "end-to-end metrics: {}",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layer.len()),
        "per-layer metrics: {}",
        layer.len()
    );
    let mut seen = BTreeSet::new();
    for w in b.get("workloads").arr() {
        let keys: Vec<&str> = w.keys().into_iter().collect();
        assert_eq!(keys, ["name", "why"]);
        let why = w.get("why").str();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(valid_name(w.get("name").str()));
        assert!(seen.insert(w.get("name").str().to_string()));
    }
    assert!((2..=8).contains(&seen.len()));
    for m in e2e {
        let keys: Vec<&str> = m.keys().into_iter().collect();
        assert_eq!(keys, ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    for m in layer {
        let keys: Vec<&str> = m.keys().into_iter().collect();
        assert_eq!(keys, ["better", "name", "unit"]);
    }
    for m in e2e.iter().chain(layer) {
        let name = m.get("name").str();
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(m.get("unit").str()), "{name}");
        assert!(
            matches!(m.get("better").str(), "higher" | "lower"),
            "{name}"
        );
        assert!(seen.insert(name.to_string()), "{name} is used twice");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
    let largest = e2e.iter().map(|m| m.get("bound").num()).fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        largest,
        "setup_s has the largest bound"
    );
}

#[test]
fn benchmark_json_lists_what_the_binaries_print() {
    let b = parse(BENCHMARK);
    let listed = |key: &str| -> Vec<(String, String)> {
        b.get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    let printed = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), printed(&END_TO_END));
    assert_eq!(listed("per_layer"), printed(&PER_LAYER));
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|(_, n)| *n).collect();
    assert_eq!(workloads, known);
}

#[test]
fn interaction_table_cites_only_benchmark_names() {
    let b = parse(BENCHMARK);
    let names = |key: &str| -> BTreeSet<String> {
        b.get(key)
            .arr()
            .iter()
            .map(|m| m.get("name").str().to_string())
            .collect()
    };
    let (workloads, e2e, layer) = (names("workloads"), names("end_to_end"), names("per_layer"));
    let table = parse(INTERACTIONS);
    let mut covered = BTreeSet::new();
    for row in table.get("rows").arr() {
        let what = row.get("layer").str();
        for m in row.get("metrics").strs() {
            assert!(layer.contains(m), "{what}: {m} is not a per-layer metric");
            assert!(covered.insert(m.to_string()), "{m} is in two rows");
        }
        for w in row
            .get("measured_on")
            .strs()
            .into_iter()
            .chain(row.get("unchanged_on").strs())
        {
            assert!(workloads.contains(w), "{what}: unknown workload {w}");
        }
        for mv in row.get("moves").arr() {
            assert!(e2e.contains(mv.get("metric").str()), "{what}: {mv:?}");
            assert!(
                workloads.contains(mv.get("workload").str()),
                "{what}: {mv:?}"
            );
        }
        row.get("calls").strs();
        row.get("note").str();
    }
    assert_eq!(covered, layer, "every per-layer metric has a row");
}
