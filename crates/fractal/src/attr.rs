//! Attribute values exposed by the attribute controller.
//!
//! "An attribute is a configurable property of a component" (paper §3.1).
//! The wrapper reflects attribute writes onto the legacy configuration
//! artifact (e.g. the `port` attribute of an Apache component is reflected
//! into `httpd.conf`, §3.2).

use std::fmt;

/// A dynamically typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// UTF-8 string.
    Str(String),
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    /// String view, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view; `Int` only (no silent coercion).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float view; accepts `Int` too (widening is lossless in practice for
    /// configuration-scale numbers).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Float(x) => Some(*x),
            AttrValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Renders the value the way a configuration file would show it.
    pub fn render(&self) -> String {
        match self {
            AttrValue::Str(s) => s.clone(),
            AttrValue::Int(i) => i.to_string(),
            AttrValue::Float(x) => format!("{x}"),
            AttrValue::Bool(b) => b.to_string(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}
impl From<u16> for AttrValue {
    fn from(i: u16) -> Self {
        AttrValue::Int(i as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(x: f64) -> Self {
        AttrValue::Float(x)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_views() {
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from(7i64).as_int(), Some(7));
        assert_eq!(AttrValue::from(7i64).as_float(), Some(7.0));
        assert_eq!(AttrValue::from(2.5).as_float(), Some(2.5));
        assert_eq!(AttrValue::from("x").as_int(), None);
        assert_eq!(AttrValue::from(1i64).as_str(), None);
    }

    #[test]
    fn render_matches_config_file_syntax() {
        assert_eq!(AttrValue::from(8098i64).render(), "8098");
        assert_eq!(AttrValue::from("node3").render(), "node3");
        assert_eq!(AttrValue::from(false).render(), "false");
        assert_eq!(format!("{}", AttrValue::from(1.5)), "1.5");
    }
}
