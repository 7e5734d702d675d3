//! Property-based tests: print∘parse identity over arbitrary documents, and
//! the bit-exactness law of the streaming [`Writer`] against the recursive
//! printers it replaced.

use crate::{parse, Number, Value, Writer};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Strategy generating arbitrary JSON values of bounded depth/size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|u| Value::Num(Number::UInt(u))),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        // Finite floats only; non-finite are not representable in JSON.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(|f| Value::Num(Number::Float(f))),
        "[ -~]{0,24}".prop_map(Value::Str), // printable ASCII
        "\\PC{0,8}".prop_map(Value::Str),   // arbitrary printable unicode
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| { Value::Object(m.into_iter().collect()) }),
        ]
    })
}

/// Numbers compare equal through a round trip even when the integer/float
/// representation changes (e.g. a `u64` above 2^53 may come back as float).
fn approx_same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => match (x, y) {
            (Number::UInt(u), Number::UInt(v)) => u == v,
            (Number::Int(u), Number::Int(v)) => u == v,
            _ => x.as_f64() == y.as_f64() || (x.as_f64().is_nan() && y.as_f64().is_nan()),
        },
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| approx_same(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && approx_same(va, vb))
        }
        _ => a == b,
    }
}

/// The recursive compact printer the streaming writer replaced, kept
/// verbatim as the oracle of `writer_is_bit_exact_with_the_recursive_printers`.
fn write_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

/// The recursive pretty printer the streaming writer replaced (oracle).
fn write_pretty(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, indent + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn push_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_number(n: Number, out: &mut String) {
    match n {
        Number::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Number::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Number::Float(f) => {
            if !f.is_finite() {
                out.push_str("null");
                return;
            }
            if f == f.trunc() && f.abs() < 1e15 {
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Characters the escaping has to get right: every control character below
/// 0x20, the quote and backslash, DEL, plain ASCII and multi-byte UTF-8 of
/// every width (including U+2028, which JSON allows unescaped).
fn tricky_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '"', '\\', '/', '\u{7f}', 'a', 'Z', ' ', '0', 'é', 'ü', '€', '\u{2028}', '😀',
    ]);
    chars
}

/// Floats at the format's edges: signed zeros, subnormals, huge and tiny
/// magnitudes, 2^53 ± 1, integral values either side of the 1e15 switch
/// from `{:.1}` to `{}`, and the non-finite values that print as `null`.
const EDGE_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308,
    1e300,
    -1e300,
    1e-300,
    1e-7,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_993.0,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    1e15,
    -1e15,
    1_000_000_000_000_001.0,
    2e15,
    0.1,
    100.0,
    1.5,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Arbitrary documents whose leaves stress the writer: escaped strings
/// (also as object keys), edge and arbitrary floats (non-finite included),
/// and the integer extremes.
fn arb_edge_value() -> impl Strategy<Value = Value> {
    let tricky = || {
        let chars = tricky_chars();
        prop::collection::vec(0..chars.len(), 0..12)
            .prop_map(move |ix| ix.into_iter().map(|i| chars[i]).collect::<String>())
    };
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        tricky().prop_map(Value::Str),
        "\\PC{0,8}".prop_map(Value::Str),
        (0..EDGE_FLOATS.len()).prop_map(|i| Value::Num(Number::Float(EDGE_FLOATS[i]))),
        any::<f64>().prop_map(|f| Value::Num(Number::Float(f))),
        (-1e17f64..1e17).prop_map(|f| Value::Num(Number::Float(f.trunc()))),
        prop_oneof![
            Just(0u64),
            Just(1),
            Just(9),
            Just(10),
            Just(u64::MAX),
            any::<u64>()
        ]
        .prop_map(|u| Value::Num(Number::UInt(u))),
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(-1i64),
            Just(0),
            any::<i64>()
        ]
        .prop_map(|i| Value::Num(Number::Int(i))),
    ];
    leaf.prop_recursive(4, 64, 6, move |inner| {
        prop_oneof![
            Just(Value::Array(Vec::new())),
            Just(Value::Object(Vec::new())),
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::vec((tricky(), inner), 0..6).prop_map(Value::Object),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Bit-exactness law of the streaming writer: for any document, the
    /// writer's compact output and its pretty output at any starting indent
    /// are byte-identical to the recursive printers it replaced.
    #[test]
    fn writer_is_bit_exact_with_the_recursive_printers(
        v in arb_edge_value(),
        indent in 0usize..4,
    ) {
        let mut want = String::new();
        write_compact(&v, &mut want);
        let mut w = Writer::compact();
        w.value(&v);
        prop_assert_eq!(w.as_str(), want.as_str());
        prop_assert_eq!(v.to_string_compact(), want);

        let mut want = String::new();
        write_pretty(&v, indent, &mut want);
        let mut w = Writer::pretty(indent);
        w.value(&v);
        prop_assert_eq!(w.as_str(), want.as_str());
        if indent == 0 {
            prop_assert_eq!(v.to_string_pretty(), want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_print_parse_identity(v in arb_value()) {
        let text = v.to_string_compact();
        let back = parse(&text).unwrap();
        prop_assert!(approx_same(&v, &back), "{v:?} -> {text} -> {back:?}");
    }

    #[test]
    fn pretty_print_parse_identity(v in arb_value()) {
        let text = v.to_string_pretty();
        let back = parse(&text).unwrap();
        prop_assert!(approx_same(&v, &back));
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = parse(&s);
    }

    #[test]
    fn float_round_trip_exact(f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
        let v: Value = f.into();
        let back = parse(&v.to_string_compact()).unwrap();
        prop_assert_eq!(back.as_f64().unwrap(), f);
    }
}
