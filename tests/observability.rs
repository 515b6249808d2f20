//! Shape validation for the observability surface:
//!
//! * `spillopt stats --json` follows its documented schema, and its
//!   per-phase breakdown is well-formed;
//! * `spillopt stats --trace FILE` writes valid Chrome Trace Event JSON
//!   (loadable by Perfetto / `chrome://tracing`) with spans for every
//!   core pipeline phase and counters for arena hits and misses and
//!   solver fixpoint iterations;
//! * `spillopt optimize --trace FILE` records a one-shot run.
//!
//! The workspace is dependency-free, so the checks parse JSON with the
//! minimal recursive-descent parser below instead of `serde_json`. All
//! trace-content assertions are *presence* checks (never exact counts):
//! the recorder is process-global and a concurrently running test may
//! add events to an active recording — it can never remove them.

use spillopt_driver::cli::run;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Minimal JSON parser (object/array/string/number/bool/null, the string
// escapes the workspace's writers emit).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(HashMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("missing key `{key}` in {self:?}")),
            other => panic!("`{key}` looked up on non-object {other:?}"),
        }
    }

    fn has(&self, key: &str) -> bool {
        matches!(self, Value::Obj(map) if map.contains_key(key))
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_json(text: &str) -> Value {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    v
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).expect("unexpected end of JSON")
    }

    fn eat(&mut self, b: u8) {
        assert_eq!(
            self.peek(),
            b,
            "expected `{}` at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Value {
        self.skip_ws();
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Value::Str(self.string()),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Value {
        assert!(
            self.bytes[self.pos..].starts_with(lit.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += lit.len();
        v
    }

    fn number(&mut self) -> Value {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Value::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number `{text}`")),
        )
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.peek() {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            out.push(char::from_u32(code).expect("bad code point"));
                        }
                        other => panic!("unknown escape `\\{}`", other as char),
                    }
                }
                _ => {
                    // Multibyte UTF-8 passes through byte by byte; the
                    // final String::from_utf8 via as_bytes stays valid
                    // because we only split at ASCII delimiters.
                    let start = self.pos;
                    while !matches!(self.peek(), b'"' | b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn array(&mut self) -> Value {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == b']' {
            self.pos += 1;
            return Value::Arr(items);
        }
        loop {
            items.push(self.value());
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Value::Arr(items);
                }
                other => panic!("expected `,` or `]`, got `{}`", other as char),
            }
        }
    }

    fn object(&mut self) -> Value {
        self.eat(b'{');
        let mut map = HashMap::new();
        self.skip_ws();
        if self.peek() == b'}' {
            self.pos += 1;
            return Value::Obj(map);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.skip_ws();
            self.eat(b':');
            map.insert(key, self.value());
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Value::Obj(map);
                }
                other => panic!("expected `,` or `}}`, got `{}`", other as char),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn run_cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    run(&args, &mut buf).unwrap_or_else(|e| panic!("cli failed on {args:?}: {e:?}"));
    String::from_utf8(buf).expect("utf8 cli output")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("spillopt-observability-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Spans every pipeline run must record: the per-function umbrella, the
/// eager analyses, the lazy analyses, the solver, one placement
/// technique per strategy, and validation.
const CORE_PHASES: &[&str] = &[
    "function",
    "allocate",
    "cfg",
    "liveness",
    "callee_saved_usage",
    "sccs",
    "pst",
    "derived_cfg",
    "solver_fixpoint",
    "place_entry_exit",
    "place_chow",
    "place_hier_exec",
    "place_hier_jump",
    "validate",
];

/// Validates the Chrome Trace Event envelope and returns (span names,
/// final counter values — last `C` event per name wins, matching how
/// trace viewers display counter tracks).
fn check_chrome_trace(trace: &Value) -> (Vec<String>, HashMap<String, f64>) {
    let events = trace.get("traceEvents").arr();
    assert!(!events.is_empty(), "empty traceEvents");
    assert_eq!(trace.get("displayTimeUnit").str(), "ms");
    let mut spans = Vec::new();
    let mut counters = HashMap::new();
    for event in events {
        let ph = event.get("ph").str();
        let name = event.get("name").str().to_string();
        event.get("pid").num();
        event.get("tid").num();
        match ph {
            "X" => {
                assert!(event.get("ts").num() >= 0.0);
                assert!(event.get("dur").num() >= 0.0);
                spans.push(name);
            }
            "C" => {
                assert!(event.get("ts").num() >= 0.0);
                let value = event.get("args").get("value").num();
                counters.insert(name, value);
            }
            "M" => assert!(event.has("args"), "metadata event without args"),
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    (spans, counters)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// The `stats --json` schema: envelope, phase table, counters, arena
/// ledger, pool workers; and the `--trace` file of the same run: valid
/// Chrome Trace Event JSON with every core phase and the arena/solver
/// counters.
#[test]
fn stats_json_schema() {
    let trace_path = temp_path("stats.trace.json");
    let out = run_cli(&[
        "stats",
        "--bench",
        "mcf",
        "--threads",
        "1",
        "--json",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    let stats = parse_json(&out);
    assert_eq!(stats.get("report").str(), "stats");
    assert_eq!(stats.get("schema_version").num(), 1.0);
    assert_eq!(stats.get("module").str(), "mcf");
    assert_eq!(stats.get("target").str(), "pa-risc-like");
    assert_eq!(stats.get("runs").num(), 3.0);
    let functions = stats.get("functions").num();
    assert!(functions > 0.0);
    assert!(stats.get("elapsed_ms").num() > 0.0);

    let phases = stats.get("phases").arr();
    for phase in ["function", "cfg", "liveness", "solver_fixpoint", "validate"] {
        assert!(
            phases.iter().any(|p| p.get("phase").str() == phase),
            "stats has no `{phase}` phase"
        );
    }
    for phase in phases {
        for key in ["phase", "count", "total_ms", "p50_ms", "p95_ms", "max_ms"] {
            assert!(phase.has(key), "phase entry missing `{key}`: {phase:?}");
        }
        assert!(phase.get("count").num() >= 1.0);
        assert!(phase.get("max_ms").num() >= phase.get("p50_ms").num());
    }

    // The trace file of the same run.
    let trace = parse_json(&std::fs::read_to_string(&trace_path).expect("trace written"));
    let (spans, counters) = check_chrome_trace(&trace);
    for phase in CORE_PHASES {
        assert!(
            spans.iter().any(|s| s == phase),
            "trace has no `{phase}` span (spans: {spans:?})"
        );
    }
    for counter in ["arena_hit", "arena_miss", "solver_fixpoint_iters"] {
        let value = counters
            .get(counter)
            .unwrap_or_else(|| panic!("trace has no `{counter}` counter: {counters:?}"));
        assert!(*value > 0.0, "counter `{counter}` is zero");
    }

    // Cold + warm + drifted through the arena: the ledger must show a
    // full warm pass (hits >= functions), no more misses than cold
    // lookups, and an incremental re-fold of strictly fewer regions
    // than the whole-function total on the drifted pass.
    let hits = stats.get("arena").get("hits").num();
    let misses = stats.get("arena").get("misses").num();
    assert!(hits >= functions, "warm pass missed the arena: {out}");
    assert!(misses <= functions, "too many cold misses: {out}");
    assert!(stats.get("counters").get("arena_hit").num() >= functions);
    assert!(stats.get("counters").get("solver_fixpoint_iters").num() > 0.0);
    assert!(
        stats.get("arena").get("incremental").num() > 0.0,
        "drifted pass skipped the incremental path: {out}"
    );
    let refolded = stats.get("arena").get("regions_refolded").num();
    let total = stats.get("arena").get("regions_total").num();
    assert!(
        refolded > 0.0 && refolded < total,
        "dirty-region ledger not partial ({refolded}/{total}): {out}"
    );

    // threads=1 runs inline: no persistent pool workers.
    assert_eq!(stats.get("pool_workers").arr().len(), 0);
}

/// The drifted pass validates and prices too: every incremental re-fold
/// opens one `validate` span (both hierarchical placements, checked with
/// the structure's checker) and one `price` span, on top of the cold
/// pass's one each per placed function. crafty places every function,
/// so the cold pass alone accounts for exactly `functions` of each.
#[test]
fn stats_counts_the_drifted_pass_validation() {
    let out = run_cli(&["stats", "--bench", "crafty", "--threads", "1", "--json"]);
    let stats = parse_json(&out);
    let functions = stats.get("functions").num();
    let count = |name: &str| -> f64 {
        stats
            .get("phases")
            .arr()
            .iter()
            .find(|p| p.get("phase").str() == name)
            .map_or(0.0, |p| p.get("count").num())
    };
    let cold = count("place_entry_exit");
    let refolds = count("place_incremental");
    assert_eq!(cold, functions, "crafty places every function: {out}");
    assert!(
        refolds > 0.0,
        "drifted pass skipped the incremental path: {out}"
    );
    for phase in ["validate", "price"] {
        assert_eq!(count(phase), cold + refolds, "`{phase}` count: {out}");
        assert!(count(phase) > functions, "`{phase}` count: {out}");
    }
}

/// `stats` with a worker pool reports per-worker activity.
#[test]
fn stats_json_reports_pool_workers() {
    let out = run_cli(&["stats", "--bench", "mcf", "--threads", "2", "--json"]);
    let stats = parse_json(&out);
    let workers = stats.get("pool_workers").arr();
    assert_eq!(workers.len(), 2, "expected 2 workers: {out}");
    for w in workers {
        for key in ["items", "busy_ms", "idle_ms"] {
            assert!(w.has(key), "worker entry missing `{key}`: {w:?}");
        }
    }
    let items: f64 = workers.iter().map(|w| w.get("items").num()).sum();
    assert!(
        items >= stats.get("functions").num(),
        "workers processed fewer items than one run's functions: {out}"
    );
}

/// A one-shot `optimize --trace` records the run: the trace validates
/// and covers the analysis phases.
#[test]
fn optimize_trace_records_the_pipeline() {
    let trace_path = temp_path("optimize.trace.json");
    let ir_path = temp_path("optimize.out.ir");
    run_cli(&[
        "optimize",
        "--bench",
        "mcf",
        "--threads",
        "1",
        "--trace",
        trace_path.to_str().unwrap(),
        "--out",
        ir_path.to_str().unwrap(),
    ]);
    let trace = parse_json(&std::fs::read_to_string(&trace_path).expect("trace written"));
    let (spans, _) = check_chrome_trace(&trace);
    for phase in ["function", "cfg", "liveness", "validate"] {
        assert!(
            spans.iter().any(|s| s == phase),
            "optimize trace has no `{phase}` span"
        );
    }
}
