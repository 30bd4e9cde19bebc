//! Offline stand-in for `serde` (+ the JSON data model shared with the
//! `serde_json` stand-in).
//!
//! The real serde is a zero-copy framework generic over data formats; this
//! workspace only ever serializes plain config/model/database structs to
//! JSON, so the stand-in collapses the design to a concrete JSON tree:
//! [`Serialize`] renders a value into a [`Json`] node, [`Deserialize`]
//! rebuilds a value from one. `#[derive(Serialize, Deserialize)]` (from the
//! sibling `serde_derive` crate) generates those impls for structs with
//! named fields and fieldless enums — the only shapes the repo uses — and
//! honours `#[serde(default)]` / `#[serde(default = "path")]`.
//!
//! Integers are carried as `i128` so `u64` stage signatures round-trip
//! exactly (a plain `f64` tree would corrupt them above 2^53).

use std::collections::HashMap;

pub use serde_derive::{Deserialize, Serialize};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number (no decimal point or exponent).
    Int(i128),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// A required field was absent from the object.
    pub fn missing_field(name: &str) -> Error {
        Error(format!("missing field `{name}`"))
    }

    /// A node had the wrong JSON type.
    pub fn expected(what: &str, got: &Json) -> Error {
        let kind = match got {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        };
        Error(format!("expected {what}, got {kind}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl Json {
    /// Looks up a field of an object node.
    pub fn get_field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the node as compact or pretty JSON text.
    pub fn render(&self, pretty: bool) -> String {
        let mut out = String::new();
        self.write(&mut out, if pretty { Some(0) } else { None });
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is the shortest representation that round-trips.
                    let s = format!("{f:?}");
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                if !items.is_empty() {
                    newline_indent(out, indent);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    write_escaped(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent.map(|d| d + 1));
                }
                if !fields.is_empty() {
                    newline_indent(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error(format!("expected '{kw}' at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|_| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape {:?}", other.map(|b| b as char))))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (already valid — input is &str).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number text");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| Error(format!("bad number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| Error(format!("bad number '{text}'")))
        }
    }
}

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// Renders a value into a JSON tree.
pub trait Serialize {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Rebuilds a value from a JSON tree.
pub trait Deserialize: Sized {
    /// Parses `self` from a JSON node.
    fn from_json(v: &Json) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, Error> {
                match v {
                    Json::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error(format!("integer {i} out of range"))),
                    other => Err(Error::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, u128, i128);

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Float(f) => Ok(*f),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(Error::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_json(v: &Json) -> Result<Self, Error> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+ ; $len:expr) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, Error> {
                match v {
                    Json::Arr(items) if items.len() == $len => {
                        Ok(($($name::from_json(&items[$idx])?,)+))
                    }
                    other => Err(Error::expected(concat!($len, "-tuple array"), other)),
                }
            }
        }
    };
}

impl_tuple!(A:0; 1);
impl_tuple!(A:0, B:1; 2);
impl_tuple!(A:0, B:1, C:2; 3);
impl_tuple!(A:0, B:1, C:2, D:3; 4);
impl_tuple!(A:0, B:1, C:2, D:3, E:4; 5);
impl_tuple!(A:0, B:1, C:2, D:3, E:4, F:5; 6);

/// Types usable as JSON object keys (serialized through strings, the way
/// `serde_json` stringifies integer map keys).
pub trait JsonKey: Sized {
    /// The string form of the key.
    fn to_key(&self) -> String;
    /// Parses a key back from its string form.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_string())
    }
}

macro_rules! impl_json_key_int {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse().map_err(|_| Error(format!("bad integer key '{s}'")))
            }
        }
    )*};
}

impl_json_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K, V, S> Serialize for HashMap<K, V, S>
where
    K: JsonKey + Eq + std::hash::Hash,
    V: Serialize,
    S: std::hash::BuildHasher,
{
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_json()))
            .collect();
        // Deterministic output regardless of hash-map iteration order.
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(fields)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: JsonKey + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Obj(fields) => {
                let mut out = HashMap::with_capacity_and_hasher(fields.len(), S::default());
                for (k, val) in fields {
                    out.insert(K::from_key(k)?, V::from_json(val)?);
                }
                Ok(out)
            }
            other => Err(Error::expected("object", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_renders_roundtrip() {
        let text =
            r#"{"a": [1, -2.5, true, null], "b": "x\n\"y\"", "c": {"k": 18446744073709551615}}"#;
        let v = Json::parse(text).unwrap();
        let rendered = v.render(false);
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // u64::MAX survives as an exact integer.
        let c = v.get_field("c").unwrap().get_field("k").unwrap();
        assert_eq!(*c, Json::Int(u64::MAX as i128));
    }

    #[test]
    fn pretty_render_parses_back() {
        let v = Json::Obj(vec![
            ("x".into(), Json::Arr(vec![Json::Int(1), Json::Float(0.5)])),
            ("y".into(), Json::Obj(vec![])),
        ]);
        let pretty = v.render(true);
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_json(&(42u64).to_json()).unwrap(), 42);
        assert_eq!(f64::from_json(&(1.25f64).to_json()).unwrap(), 1.25);
        assert_eq!(
            Vec::<i64>::from_json(&vec![-1i64, 2].to_json()).unwrap(),
            vec![-1, 2]
        );
        assert_eq!(Option::<u32>::from_json(&Json::Null).unwrap(), None);
        let m: HashMap<u64, String> = [(7u64, "x".to_string())].into_iter().collect();
        let back: HashMap<u64, String> = Deserialize::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tuples_roundtrip() {
        let t = (1u64, "a".to_string(), true);
        let back: (u64, String, bool) = Deserialize::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(Json::parse("[1,").is_err());
        assert!(u64::from_json(&Json::Str("x".into())).is_err());
        assert!(u8::from_json(&Json::Int(300)).is_err());
    }
}
