//! JSON out. The document model and the parser are `ds_obs::json`'s;
//! this adds the one thing that module lacks, a writer.

use ds_bench::report::escape;
pub use ds_obs::json::{parse, Value};

/// Renders `v` as compact JSON. Numbers print with every digit Rust's
/// shortest round-trip formatting gives; non-finite numbers, which
/// JSON cannot carry, become `null`.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if !n.is_finite() => out.push_str("null"),
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
            out.push_str(&format!("{}", *n as i64))
        }
        Value::Num(n) => out.push_str(&format!("{n:?}")),
        Value::Str(s) => out.push_str(&escape(s)),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&escape(k));
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

/// Renders `v` with one top-level member (or element) per line — what
/// the files under `benchmark/out/` use, so they diff and grep well.
pub fn render_lines(v: &Value) -> String {
    let (open, close, items): (char, char, Vec<String>) = match v {
        Value::Obj(members) => (
            '{',
            '}',
            members
                .iter()
                .map(|(k, item)| format!("{}:{}", escape(k), render(item)))
                .collect(),
        ),
        Value::Arr(items) => ('[', ']', items.iter().map(render).collect()),
        other => return render(other),
    };
    format!("{open}\n{}\n{close}\n", items.join(",\n"))
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// A number value.
pub fn n(x: impl Into<f64>) -> Value {
    Value::Num(x.into())
}

/// A count as a number value (exact below 2^53, which every count the
/// benchmark reports is).
pub fn count(x: u64) -> Value {
    Value::Num(x as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_repo_parser() {
        let doc = obj([
            ("name", s("li.ds2.bus \"quoted\" \\ \n\t\u{1}")),
            ("int", count(1_500_006)),
            ("float", n(0.000_123_456_789_012_3)),
            ("neg", n(-2.5)),
            ("tiny", n(1e-9)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "list",
                Value::Arr(vec![n(1.0), s("x"), obj([("k", n(3.25))])]),
            ),
            ("empty", obj::<String>([])),
        ]);
        for text in [render(&doc), render_lines(&doc)] {
            assert_eq!(parse(&text).expect("writer emits valid JSON"), doc);
        }
        assert_eq!(
            render(&count(7)),
            "7",
            "whole numbers print without a fraction"
        );
        assert_eq!(render(&n(f64::NAN)), "null");
    }
}
