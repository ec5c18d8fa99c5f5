//! Self-tests of the benchmark's own machinery: span self time, the
//! percentile rule, metric names, the declared-versus-emitted contract
//! with `BENCHMARK.json`, and the `/proc` parsers.

use probenet_perfbench::args::{self, Workload};
use probenet_perfbench::metrics::{result_json, Metrics, END_TO_END, PER_LAYER};
use probenet_perfbench::procfs::{snmp_field, status_field};
use probenet_perfbench::stats::{median, percentile, percentile_sorted_u64};
use probenet_perfbench::trace::{self, Span, Tracer};
use serde::Value;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        task: 0,
        thread: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)), // overlaps `a`: covered once
        span("a.inner", 15, 20, Some(1)),
        span("late", 90, 130, Some(0)), // clipped to the parent's end
    ];
    let selfs = trace::self_times(&spans);
    assert_eq!(selfs, vec![100 - 50 - 10, 30 - 5, 30, 5, 40]);
    assert_eq!(trace::self_secs(&spans, &selfs, "a") * 1e9, 25.0);
    assert_eq!(trace::thread_self_secs(&spans, &selfs, 0) * 1e9, 140.0);
}

#[test]
fn tracer_links_nested_spans_to_their_parent() {
    let tr = Tracer::new();
    tr.span("outer", 7, || {
        tr.span("inner", 8, || std::hint::black_box(1 + 1));
        tr.span("inner", 9, || ());
    });
    tr.span("next", 10, || ());
    let spans = tr.into_spans();
    let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), Some(0), None]);
    assert_eq!(spans[1].task, 8);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    let selfs = trace::self_times(&spans);
    let inner: u64 = spans[1].duration_ns() + spans[2].duration_ns();
    assert_eq!(selfs[0], spans[0].duration_ns() - inner);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(5.0));
    assert_eq!(percentile(&xs, 99.0), Some(10.0));
    assert_eq!(percentile(&xs, 90.0), Some(9.0));
    assert_eq!(percentile(&xs, 10.0), Some(1.0));
    assert_eq!(percentile(&xs, 0.0), Some(1.0));
    assert_eq!(percentile(&xs, 100.0), Some(10.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(percentile_sorted_u64(&[1, 2, 3, 4], 75.0), Some(3));
    assert_eq!(percentile_sorted_u64(&[], 75.0), None);
}

/// Is `name` a legal metric or workload name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit?
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a legal unit: 1 to 16 characters from `[A-Za-z0-9_/%.-]`?
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The first name that is invalid or repeated in `names`, if any.
fn first_bad_name<'a>(names: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut seen = std::collections::BTreeSet::new();
    names
        .into_iter()
        .find(|&n| !valid_name(n) || !seen.insert(n))
}

#[test]
fn metric_names_follow_the_grammar_and_are_unique() {
    for ok in ["wall_s", "sim.events_per_s", "a-b.c_d", "9lives"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/y",
        "µs",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    assert_eq!(first_bad_name(["a", "b", "a"]), Some("a"));
    assert_eq!(first_bad_name(["a", "b c"]), Some("b c"));
    let all = END_TO_END.iter().chain(PER_LAYER);
    assert_eq!(first_bad_name(all.clone().map(|(n, _)| *n)), None);
    assert!(all.clone().all(|(_, u)| valid_unit(u)));
    assert!(Workload::ALL.iter().all(|w| valid_name(w.name())));
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
    array(v, key)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_and_every_emitted_one_declared() {
    let bench = benchmark_json();
    assert_eq!(declared(&bench, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = array(&bench, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    for w in &workloads {
        assert!(Workload::from_name(w).is_some(), "unknown workload {w}");
    }

    // The gate every run passes through refuses extras and gaps.
    let mut m = Metrics::new();
    for (name, _) in END_TO_END {
        m.set(name, 1.5);
    }
    let out = m.finish(END_TO_END).expect("complete set");
    assert_eq!(out.len(), END_TO_END.len());
    assert!(
        m.finish(PER_LAYER).is_err(),
        "end-to-end names are not per-layer"
    );
    let mut partial = Metrics::new();
    partial.set("wall_s", 1.0);
    assert!(partial.finish(END_TO_END).is_err(), "missing setup_s");
    m.set("wall_s", f64::NAN);
    assert!(
        m.finish(END_TO_END).is_err(),
        "non-finite values are refused"
    );

    let line = result_json(true, 3, 0, &out);
    let parsed = serde_json::parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = match &parsed {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn layer_table_covers_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let table =
        serde_json::parse(&std::fs::read_to_string(path).expect("layers.json")).expect("JSON");
    let linked: Vec<&str> = array(&table, "links")
        .iter()
        .map(|l| string(l, "metric"))
        .collect();
    for (name, _) in PER_LAYER {
        assert!(linked.contains(name), "{name} has no row in layers.json");
    }
    for l in array(&table, "links") {
        let moves = string(l, "moves");
        assert!(
            moves
                .split(", ")
                .all(|m| END_TO_END.iter().any(|(n, _)| *n == m)),
            "{moves} names an undeclared end-to-end metric"
        );
    }
    let Some(Value::Object(workloads)) = table.get("workloads") else {
        panic!("layers.json has no workload table");
    };
    for w in Workload::ALL {
        assert!(
            workloads.iter().any(|(k, _)| k == w.name()),
            "{} missing",
            w.name()
        );
    }
}

#[test]
fn proc_parsers_read_fixtures_and_report_missing_fields() {
    let status = "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   65432 kB\n\
                  voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
    assert_eq!(status_field(status, "VmHWM"), Some(65432));
    assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
    assert_eq!(status_field(status, "VmSwap"), None);
    assert_eq!(status_field("VmHWM:\tlots kB\n", "VmHWM"), None);
    assert_eq!(status_field("", "VmHWM"), None);

    let snmp = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
                Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n\
                Udp: 100 2 7 90 5 0\n";
    assert_eq!(snmp_field(snmp, "Udp", "RcvbufErrors"), Some(5));
    assert_eq!(snmp_field(snmp, "Udp", "InDatagrams"), Some(100));
    assert_eq!(snmp_field(snmp, "Udp", "MemErrors"), None);
    assert_eq!(snmp_field(snmp, "Tcp", "RcvbufErrors"), None);
    assert_eq!(
        snmp_field("Udp: RcvbufErrors\n", "Udp", "RcvbufErrors"),
        None
    );
    assert_eq!(
        snmp_field("Udp: A RcvbufErrors\nUdp: 1\n", "Udp", "RcvbufErrors"),
        None
    );
}

#[test]
fn bad_arguments_are_errors_not_panics() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = args::parse(&argv(
        "--workload fleet-merge --seed 7 --seconds 3 --trace 1",
    ))
    .expect("valid");
    assert_eq!(ok.workload, Workload::FleetMerge);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
    for bad in [
        "--workload nope --seed 1",
        "--workload paper-sweep --seed -1",
        "--workload paper-sweep --seed x",
        "--workload paper-sweep --seed 18446744073709551616",
        "--workload paper-sweep",
        "--seed 1",
        "--workload paper-sweep --seed 1 --seconds 0",
        "--workload paper-sweep --seed 1 --trace 2",
        "--workload paper-sweep --seed 1 --frobnicate",
        "--workload",
    ] {
        assert!(args::parse(&argv(bad)).is_err(), "{bad}");
    }
}
