//! The benchmark's declaration and its code agree: every metric the code
//! can print is declared in `BENCHMARK.json` with the same unit and
//! direction (and nothing else is), names are well formed, and every
//! per-layer metric names the end-to-end metric and workload it should
//! move.

use desim::json::Value;
use perfbench::metrics::{lookup, valid_name, Kind, Values, METRICS, WORKLOADS};

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(decl: &'a Value, key: &str) -> &'a [Value] {
    decl.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// `(name, unit, better)` of every registered metric of one kind.
fn registered(per_layer: bool) -> Vec<(&'static str, &'static str, &'static str)> {
    METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::PerLayer { .. }) == per_layer)
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect()
}

fn declared<'a>(decl: &'a Value, key: &str) -> Vec<(&'a str, &'a str, &'a str)> {
    entries(decl, key)
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect()
}

#[test]
fn declaration_has_exactly_the_contract_keys() {
    let decl = declaration();
    let keys: Vec<&str> = decl
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = entries(&decl, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in entries(&decl, "workloads") {
        let why = field(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {}: {why}",
            field(w, "name")
        );
    }
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let decl = declaration();
    assert_eq!(declared(&decl, "end_to_end"), registered(false));
    assert_eq!(declared(&decl, "per_layer"), registered(true));
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    for (i, m) in METRICS.iter().enumerate() {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(
            METRICS[..i].iter().all(|o| o.name != m.name),
            "{} twice",
            m.name
        );
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit of {}: {}",
            m.name,
            m.unit
        );
    }
}

#[test]
fn every_layer_metric_names_what_it_moves_and_where() {
    for m in METRICS {
        let Kind::PerLayer { moves } = m.kind else {
            continue;
        };
        assert!(!moves.is_empty(), "{} moves nothing", m.name);
        for &(target, workload) in moves {
            let t = lookup(target).unwrap_or_else(|| panic!("{} moves unknown {target}", m.name));
            assert_eq!(
                t.kind,
                Kind::EndToEnd,
                "{} moves {target}, a layer metric",
                m.name
            );
            assert!(
                WORKLOADS.contains(&workload),
                "{} names unknown workload {workload}",
                m.name
            );
        }
    }
}

#[test]
fn end_to_end_bounds_are_in_range_and_setup_has_the_largest() {
    let decl = declaration();
    let bound = |e: &Value| e.get("bound").and_then(Value::as_f64).unwrap();
    let e2e = entries(&decl, "end_to_end");
    assert!(e2e.iter().all(|e| bound(e) > 0.0 && bound(e) <= 0.25));
    let setup = e2e
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s declared");
    assert!(e2e.iter().all(|e| bound(e) <= bound(setup)));
}

#[test]
#[should_panic(expected = "not registered")]
fn an_undeclared_metric_cannot_be_recorded() {
    Values::default().put("undeclared.metric", 1.0);
}
