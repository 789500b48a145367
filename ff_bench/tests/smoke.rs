//! Runs the whole benchmark once with one-second windows and holds its
//! output against `BENCHMARK.json`: every workload and metric named there
//! appears exactly once with a finite value and the stated unit, nothing
//! unnamed appears, and every correctness check passed.
//!
//! Run with `cargo test --release --manifest-path ff_bench/Cargo.toml`
//! from the repository root (about a minute: fourteen child runs).

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for the two documents this test reads.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Json>),
    /// Keys in document order; a repeated key stays visible.
    Object(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.bytes[self.at], byte, "at offset {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_space();
        self.bytes[self.at]
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    fn text(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.bytes[self.at] != b'"' {
            assert_ne!(self.bytes[self.at], b'\\', "escapes are not expected here");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.bytes[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut entries = Vec::new();
                while self.peek() != b'}' {
                    let key = self.text();
                    self.eat(b':');
                    entries.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Object(entries)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::List(items)
            }
            b'"' => Json::Text(self.text()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8");
                Json::Number(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(parser.at, text.len(), "trailing bytes after the document");
    value
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        let Json::Object(entries) = self else {
            panic!("{key}: not an object: {self:?}")
        };
        let mut found = entries.iter().filter(|(name, _)| name == key);
        let value = found.next().unwrap_or_else(|| panic!("no key {key}"));
        assert!(found.next().is_none(), "key {key} appears twice");
        &value.1
    }

    fn keys(&self) -> Vec<&str> {
        let Json::Object(entries) = self else {
            panic!("not an object: {self:?}")
        };
        entries.iter().map(|(name, _)| name.as_str()).collect()
    }

    fn list(&self) -> &[Json] {
        let Json::List(items) = self else {
            panic!("not a list: {self:?}")
        };
        items
    }

    fn text(&self) -> &str {
        let Json::Text(text) = self else {
            panic!("not a string: {self:?}")
        };
        text
    }

    fn number(&self) -> f64 {
        let Json::Number(number) = self else {
            panic!("not a number: {self:?}")
        };
        *number
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `name -> unit` of one sheet of `BENCHMARK.json`, checking its shape.
fn sheet(contract: &Json, key: &str, entry_keys: &[&str]) -> BTreeMap<String, String> {
    let mut units = BTreeMap::new();
    for entry in contract.get(key).list() {
        assert_eq!(entry.keys(), entry_keys, "{key} entry keys");
        let name = entry.get("name").text();
        assert!(well_formed(name), "{name}");
        assert!(matches!(entry.get("better").text(), "lower" | "higher"));
        let unit = entry.get("unit").text();
        assert!(
            units.insert(name.to_string(), unit.to_string()).is_none(),
            "{name} twice"
        );
    }
    units
}

/// Checks one result line against one sheet.
fn check_result(workload: &str, result: &Json, units: &BTreeMap<String, String>, positive: bool) {
    assert_eq!(
        result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: a check failed"
    );
    assert!(result.get("attempted").number() >= 1.0);
    assert_eq!(result.get("failed").number(), 0.0, "{workload}: failed ops");
    let metrics = result.get("metrics");
    let mut names = metrics.keys();
    names.sort_unstable();
    let expected: Vec<&str> = units.keys().map(String::as_str).collect();
    assert_eq!(
        names, expected,
        "{workload}: metric names differ from BENCHMARK.json"
    );
    for (name, unit) in units {
        let metric = metrics.get(name);
        assert_eq!(metric.keys(), ["value", "unit"], "{workload}/{name}");
        assert_eq!(metric.get("unit").text(), unit, "{workload}/{name}: unit");
        let value = metric.get("value").number();
        assert!(value.is_finite(), "{workload}/{name} = {value}");
        assert!(
            !positive || value > 0.0,
            "{workload}/{name} = {value} must not be 0"
        );
    }
}

#[test]
fn output_matches_the_contract() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let contract = parse(
        &std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("read BENCHMARK.json"),
    );
    assert_eq!(
        contract.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let end_to_end = sheet(
        &contract,
        "end_to_end",
        &["name", "unit", "better", "bound"],
    );
    let per_layer = sheet(&contract, "per_layer", &["name", "unit", "better"]);
    assert_eq!(end_to_end.get("setup_s").map(String::as_str), Some("s"));
    for entry in contract.get("end_to_end").list() {
        let bound = entry.get("bound").number();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let workloads: Vec<&str> = contract
        .get("workloads")
        .list()
        .iter()
        .map(|workload| {
            assert_eq!(workload.keys(), ["name", "why"]);
            assert!(workload.get("why").text().len() <= 200);
            workload.get("name").text()
        })
        .collect();
    assert!((2..=8).contains(&workloads.len()));

    let exe = env!("CARGO_BIN_EXE_ff_bench");
    let output = Command::new(exe)
        .args(["--seed", "3", "--seconds", "1"])
        .output()
        .expect("run ff_bench");
    assert!(
        output.status.success(),
        "ff_bench exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let document = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(
        document.get("workloads").keys(),
        workloads,
        "workload names"
    );
    for workload in workloads {
        let results = document.get("workloads").get(workload);
        check_result(workload, results.get("end_to_end"), &end_to_end, true);
        check_result(workload, results.get("per_layer"), &per_layer, false);
        let spans = std::path::Path::new(exe).with_file_name(format!("trace_{workload}.json"));
        let spans = parse(&std::fs::read_to_string(&spans).expect("span file"));
        assert!(
            !spans.get("spans").list().is_empty(),
            "{workload}: no spans"
        );
    }

    // An unknown workload is refused before anything runs.
    let refused = Command::new(exe)
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run ff_bench");
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty());
}
