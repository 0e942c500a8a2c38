//! A small JSON writer for the CLI's `--format json` and the experiment
//! reports.
//!
//! There is one layout: values nest one line per array element or object
//! field, indented two spaces per level, with `": "` after keys; an empty
//! array or object stays `[]` / `{}`. Non-finite floats render as `null`.
//! Structs with named fields get their [`ToJson`] impl from
//! [`impl_to_json!`](crate::impl_to_json), which writes the fields in the
//! order it lists them.
//!
//! ```
//! use qbs_graph::json::ToJson;
//!
//! struct Row {
//!     name: String,
//!     hits: Vec<u32>,
//! }
//! qbs_graph::impl_to_json!(Row: name, hits);
//!
//! let row = Row { name: "a\"b".into(), hits: vec![1] };
//! assert_eq!(row.to_json(), "{\n  \"name\": \"a\\\"b\",\n  \"hits\": [\n    1\n  ]\n}");
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A value that can be written as JSON.
pub trait ToJson {
    /// Appends `self` to `out`, nested `depth` levels deep (the depth only
    /// sets the indentation of lines after the first).
    fn write_json(&self, out: &mut String, depth: usize);

    /// `self` as a JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }
}

/// A JSON object whose fields are written in the given order.
pub struct Object<'a>(pub &'a [(&'a str, &'a dyn ToJson)]);

impl ToJson for Object<'_> {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_block(
            out,
            depth,
            ['{', '}'],
            self.0.iter().map(|&(k, v)| (Some(k), v)),
        );
    }
}

/// Implements [`ToJson`] for a struct with named fields, as an object with
/// one key per field in the listed order: `impl_to_json!(Row: name, hits);`.
/// Every field must be listed: the impl destructures the struct without
/// `..`.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident: $($field:ident),+ $(,)?) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, depth: usize) {
                let $ty { $($field),+ } = self;
                let fields = [$((stringify!($field), $field as &dyn $crate::json::ToJson)),+];
                $crate::json::ToJson::write_json(&$crate::json::Object(&fields), out, depth);
            }
        }
    };
}

/// Writes `items` between `brackets`, one per line at `depth + 1`, each
/// preceded by its quoted key when it has one.
fn write_block<'a>(
    out: &mut String,
    depth: usize,
    brackets: [char; 2],
    items: impl IntoIterator<Item = (Option<&'a str>, &'a dyn ToJson)>,
) {
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, depth + 1);
        if let Some(key) = key {
            key.write_json(out, depth + 1);
            out.push_str(": ");
        }
        value.write_json(out, depth + 1);
    }
    if !empty {
        newline(out, depth);
    }
    out.push(brackets[1]);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn write_array<'a>(
    out: &mut String,
    depth: usize,
    items: impl IntoIterator<Item = &'a dyn ToJson>,
) {
    write_block(out, depth, ['[', ']'], items.into_iter().map(|v| (None, v)));
}

macro_rules! integer_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String, _depth: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_to_json!(u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _depth: usize) {
        if self.is_finite() {
            // `{:?}` is the shortest form that reads back as the same f64.
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _depth: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _depth: usize) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_str().write_json(out, depth);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            Some(value) => value.write_json(out, depth),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_array(out, depth, self.iter().map(|v| v as &dyn ToJson));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        self.as_slice().write_json(out, depth);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_array(out, depth, [&self.0 as &dyn ToJson, &self.1]);
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_array(out, depth, [&self.0 as &dyn ToJson, &self.1, &self.2]);
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String, depth: usize) {
        let fields = self
            .iter()
            .map(|(k, v)| (Some(k.as_str()), v as &dyn ToJson));
        write_block(out, depth, ['{', '}'], fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_every_control_character_quote_and_backslash() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        let expected = concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
            r#"\u0008\t\n\u000b\u000c\r\u000e\u000f"#,
            r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
            r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f""#,
        );
        assert_eq!(all_controls.to_json(), expected);
        assert_eq!("say \"hi\" C:\\q".to_json(), r#""say \"hi\" C:\\q""#);
        // Non-ASCII and DEL pass through unescaped.
        assert_eq!("d⊤ ünï 🦀 \u{7f}".to_json(), "\"d⊤ ünï 🦀 \u{7f}\"");
    }

    #[test]
    fn scalars() {
        assert_eq!(0u32.to_json(), "0");
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(1.0f64.to_json(), "1.0");
        assert_eq!(0.1f64.to_json(), "0.1");
        assert_eq!(1e-7f64.to_json(), "1e-7");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(f64::NEG_INFINITY.to_json(), "null");
        assert_eq!(true.to_json(), "true");
        assert_eq!(None::<u32>.to_json(), "null");
        assert_eq!(Some(3u32).to_json(), "3");
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(Vec::<u32>::new().to_json(), "[]");
        assert_eq!(BTreeMap::<String, u32>::new().to_json(), "{}");
        assert_eq!(Object(&[]).to_json(), "{}");
        assert_eq!(Some(Vec::<(u32, u32)>::new()).to_json(), "[]");
    }

    struct Inner {
        label: String,
        pairs: Vec<(u32, u32)>,
        empty: Vec<u32>,
    }
    crate::impl_to_json!(Inner: label, pairs, empty);

    struct Outer {
        id: usize,
        inner: Vec<Inner>,
        by_name: BTreeMap<String, (u32, f64, bool)>,
    }
    crate::impl_to_json!(Outer: id, inner, by_name);

    #[test]
    fn nesting_indents_two_spaces_per_level() {
        let value = Outer {
            id: 1,
            inner: vec![Inner {
                label: "x".into(),
                pairs: vec![(0, 1)],
                empty: Vec::new(),
            }],
            by_name: BTreeMap::from([
                ("b".to_string(), (2, 0.5, false)),
                ("a".into(), (1, f64::NAN, true)),
            ]),
        };
        let expected = r#"{
  "id": 1,
  "inner": [
    {
      "label": "x",
      "pairs": [
        [
          0,
          1
        ]
      ],
      "empty": []
    }
  ],
  "by_name": {
    "a": [
      1,
      null,
      true
    ],
    "b": [
      2,
      0.5,
      false
    ]
  }
}"#;
        assert_eq!(value.to_json(), expected);
    }
}
