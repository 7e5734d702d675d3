//! The streaming JSON writer: the one encoder behind every printed document.
//!
//! [`Writer`] appends compact or pretty JSON to a `String` as the caller
//! walks its data, so a typed record (an estimation result, a sweep item)
//! renders straight to text without first building a [`Value`] tree.
//! [`Value::to_string_compact`] and [`Value::to_string_pretty`] are walks of
//! a `Value` over the same writer, so every path produces the same bytes.
//!
//! ## Number format
//!
//! * Integers ([`Number::UInt`], [`Number::Int`]) print as plain decimals.
//! * A finite integral float below 10¹⁵ in magnitude prints with one
//!   decimal place (`100.0`, `-0.0`), so it reads back as a float (duration
//!   fields stay floats through a round trip).
//! * Every other finite float prints with std's `{}` formatting: the
//!   shortest decimal that round-trips the `f64`, **never** in exponent
//!   notation. `1e300` prints as a `1` followed by 300 zeros, `1e-7` as
//!   `0.0000001`, and `2e15` as `2000000000000000` (which parses back as an
//!   integer of the same value).
//! * NaN and ±∞ cannot be written in JSON (the parser rejects them); the
//!   writer prints `null` rather than emit an invalid document.

use std::fmt::Write as _;

use crate::value::{Number, Value};

/// A type that renders itself through a [`Writer`].
///
/// Record types implement this once, as the single definition of their
/// field order; their `Value` form, where one is needed, is derived from it
/// with [`to_value`].
pub trait WriteJson {
    /// Write `self` as one JSON value.
    fn write_json(&self, w: &mut Writer);
}

/// Parse back what `item` writes: the [`Value`] form of a [`WriteJson`]
/// type, for callers that inspect documents rather than print them.
///
/// Integral floats of magnitude 10¹⁵ or more print without a decimal point
/// and so come back as integers; they print back identically.
pub fn to_value<T: WriteJson + ?Sized>(item: &T) -> Value {
    let mut w = Writer::compact();
    item.write_json(&mut w);
    crate::parse(w.as_str()).expect("the writer emits valid JSON")
}

/// Streaming JSON writer over an owned `String` buffer.
///
/// Values are written in document order: scalars with [`Writer::value`],
/// containers with [`Writer::begin_object`] / [`Writer::end_object`] (or the
/// [`Writer::object`] closure form) and their arrays alike, object members
/// with [`Writer::key`] or [`Writer::field`]. The writer inserts commas,
/// colons and, in pretty mode, newlines and two-space indentation.
///
/// ```
/// use qre_json::Writer;
///
/// let mut w = Writer::compact();
/// w.object(|w| {
///     w.field("name", "surface_code");
///     w.field("distances", [3u64, 5].as_slice());
/// });
/// assert_eq!(w.as_str(), r#"{"name":"surface_code","distances":[3,5]}"#);
/// ```
#[derive(Debug)]
pub struct Writer {
    out: String,
    /// Indent level of the top-level value in pretty mode; `None` is compact.
    pretty: Option<usize>,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has no element yet.
    empty: bool,
    /// A key was written; the next value is its member value.
    after_key: bool,
}

impl Writer {
    fn with_mode(pretty: Option<usize>) -> Self {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// A single-line writer: no whitespace between tokens.
    pub fn compact() -> Self {
        Self::with_mode(None)
    }

    /// A pretty writer with two-space indentation, as if the value sat
    /// `indent` levels deep inside a larger document: continuation lines are
    /// indented accordingly and the first line carries no leading indent.
    pub fn pretty(indent: usize) -> Self {
        Self::with_mode(Some(indent))
    }

    /// Reserve room for at least `additional` more bytes.
    pub fn with_capacity(mut self, additional: usize) -> Self {
        self.out.reserve(additional);
        self
    }

    /// The text written so far (or since the last [`Writer::drain_to`]).
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Finish, returning the text.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Write the buffered text to `sink` with one `write_all` and empty the
    /// buffer. The document state is kept, so a large document can be
    /// streamed out piece by piece while staying byte-identical to writing
    /// it in one go.
    pub fn drain_to(&mut self, sink: &mut dyn std::io::Write) -> std::io::Result<()> {
        sink.write_all(self.out.as_bytes())?;
        self.out.clear();
        Ok(())
    }

    /// Write `value` (a scalar, a [`Value`], or any [`WriteJson`] type): an
    /// array element, an object member's value after [`Writer::key`], or
    /// the top-level value.
    pub fn value(&mut self, value: impl WriteJson) {
        value.write_json(self);
    }

    /// Write one object member.
    pub fn field(&mut self, key: &str, value: impl WriteJson) {
        self.key(key);
        value.write_json(self);
    }

    /// Write one object member when `value` is `Some`; skip it otherwise.
    pub fn field_opt(&mut self, key: &str, value: Option<impl WriteJson>) {
        if let Some(value) = value {
            self.field(key, value);
        }
    }

    /// Write an object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.push_string(key);
        self.out
            .push_str(if self.pretty.is_some() { ": " } else { ":" });
        self.after_key = true;
    }

    /// Write an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.begin_object();
        members(self);
        self.end_object();
    }

    /// Write an array whose elements `elements` writes.
    pub fn array(&mut self, elements: impl FnOnce(&mut Self)) {
        self.begin_array();
        elements(self);
        self.end_array();
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    pub fn uint(&mut self, n: u64) {
        self.separate();
        self.push_u64(n);
    }

    /// Write a signed integer.
    pub fn int(&mut self, n: i64) {
        self.separate();
        if n < 0 {
            self.out.push('-');
        }
        self.push_u64(n.unsigned_abs());
    }

    /// Write a float (see the module docs for the format).
    pub fn float(&mut self, f: f64) {
        self.separate();
        if !f.is_finite() {
            self.out.push_str("null");
        } else if f == f.trunc() && f.abs() < 1e15 {
            // Exactly `{f:.1}`, without the exact-precision formatter: below
            // 1e15 (< 2^53) the magnitude converts to `u64` exactly, and the
            // sign check keeps `-0.0`.
            if f.is_sign_negative() {
                self.out.push('-');
            }
            self.push_u64(f.abs() as u64);
            self.out.push_str(".0");
        } else {
            let _ = write!(self.out, "{f}");
        }
    }

    /// Write a string, escaped.
    pub fn string(&mut self, s: &str) {
        self.separate();
        self.push_string(s);
    }

    /// Emit whatever precedes a value: nothing after a key or at the top
    /// level, else the element separator (and, in pretty mode, the newline
    /// and indentation).
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        if let Some(base) = self.pretty {
            self.newline(base + self.depth);
        }
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        debug_assert!(self.depth > 0, "close without a matching open");
        self.depth -= 1;
        if !self.empty {
            if let Some(base) = self.pretty {
                self.newline(base + self.depth);
            }
        }
        self.out.push(bracket);
        // The closed container was an element of its parent.
        self.empty = false;
    }

    fn newline(&mut self, level: usize) {
        self.out.push('\n');
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }

    fn push_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    /// Quote and escape `s`, copying each unescaped run with one
    /// `push_str`. Escapes only ever replace ASCII bytes, which never occur
    /// inside a multi-byte UTF-8 sequence, so every run boundary is a char
    /// boundary.
    fn push_string(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0x00..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            run = i + 1;
            if escape.is_empty() {
                self.out.push_str("\\u00");
                self.out.push(char::from(HEX[usize::from(b >> 4)]));
                self.out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

impl WriteJson for Value {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Num(Number::UInt(u)) => w.uint(*u),
            Value::Num(Number::Int(i)) => w.int(*i),
            Value::Num(Number::Float(f)) => w.float(*f),
            Value::Str(s) => w.string(s),
            Value::Array(items) => w.array(|w| {
                for item in items {
                    item.write_json(w);
                }
            }),
            Value::Object(pairs) => w.object(|w| {
                for (k, v) in pairs {
                    w.field(k, v);
                }
            }),
        }
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(|w| {
            for item in self {
                item.write_json(w);
            }
        });
    }
}

impl WriteJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl WriteJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.float(*self);
    }
}

impl WriteJson for u64 {
    fn write_json(&self, w: &mut Writer) {
        w.uint(*self);
    }
}

impl WriteJson for u32 {
    fn write_json(&self, w: &mut Writer) {
        w.uint(u64::from(*self));
    }
}

impl WriteJson for usize {
    fn write_json(&self, w: &mut Writer) {
        w.uint(*self as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse, ObjectBuilder, Value, Writer};

    #[test]
    fn compact_round_trip() {
        let v = ObjectBuilder::new()
            .field("int", 12u64)
            .field("neg", -5i64)
            .field("float", 0.015625f64)
            .field("sci", 1.12e11f64)
            .field("s", "line\nbreak\t\"quote\"")
            .field("arr", vec![1u64, 2, 3])
            .field("nested", ObjectBuilder::new().field("x", true).build())
            .build();
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_round_trip_and_shape() {
        let v = ObjectBuilder::new()
            .field("a", Vec::<u64>::new())
            .field("b", vec![1u64])
            .build();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\"a\": []"));
        assert!(pretty.contains("\"b\": [\n"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integral_float_keeps_decimal_point() {
        let text = |f: f64| Value::from(f).to_string_compact();
        assert_eq!(text(100.0), "100.0");
        assert_eq!(text(-0.0), "-0.0");
        // std's `{}` never switches to exponent notation: large and tiny
        // magnitudes print every digit.
        assert_eq!(text(1e300), format!("1{}", "0".repeat(300)));
        assert_eq!(text(1e-7), "0.0000001");
        // At 1e15 and above an integral float loses its ".0" and reads back
        // as an integer.
        assert_eq!(text(2e15), "2000000000000000");
        assert_eq!(parse(&text(1e300)).unwrap().as_f64(), Some(1e300));
    }

    #[test]
    fn non_finite_degrades_to_null() {
        let v: Value = f64::NAN.into();
        assert_eq!(v.to_string_compact(), "null");
        let v: Value = f64::INFINITY.into();
        assert_eq!(v.to_string_compact(), "null");
    }

    #[test]
    fn control_characters_escaped() {
        let v: Value = "\u{0001}\u{001f}".into();
        assert_eq!(v.to_string_compact(), "\"\\u0001\\u001f\"");
        let round = parse(&v.to_string_compact()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn unicode_passes_through() {
        let v: Value = "héllo 😀".into();
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("héllo"));
    }

    #[test]
    fn integer_extremes() {
        assert_eq!(
            Value::from(u64::MAX).to_string_compact(),
            "18446744073709551615"
        );
        assert_eq!(
            Value::from(i64::MIN).to_string_compact(),
            "-9223372036854775808"
        );
        assert_eq!(Value::from(0u64).to_string_compact(), "0");
    }

    #[test]
    fn drained_document_matches_one_shot() {
        let v = ObjectBuilder::new()
            .field("status", "success")
            .field("items", vec![1u64, 2, 3])
            .build();
        let mut w = Writer::pretty(0);
        let mut sink = Vec::new();
        w.begin_object();
        w.field("status", "success");
        w.key("items");
        w.begin_array();
        for i in 1..=3u64 {
            w.value(i);
            w.drain_to(&mut sink).unwrap();
        }
        w.end_array();
        w.end_object();
        w.drain_to(&mut sink).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), v.to_string_pretty());
    }
}
