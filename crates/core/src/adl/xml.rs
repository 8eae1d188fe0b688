//! A minimal XML subset parser for the ADL.
//!
//! The paper's architecture descriptions are "XML documents" interpreted
//! by the deployer (§3.3). To avoid an external dependency the repository
//! parses the subset the ADL needs: nested elements, double-quoted
//! attributes, text nodes, comments, and self-closing tags. No namespaces,
//! DTDs, CDATA or processing instructions.

use std::fmt;

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
    /// Concatenated text content directly inside this element.
    pub text: String,
}

impl XmlElement {
    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given tag.
    pub fn child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with the given tag.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Deepest element nesting a document may have. The ADL uses two levels;
/// the bound keeps hostile input from exhausting the stack, since the
/// parser recurses once per level.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_comments_and_ws(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                match self.src[self.pos..].windows(3).position(|w| w == b"-->") {
                    Some(rel) => self.pos += rel + 3,
                    None => return self.err("unterminated comment"),
                }
            } else if self.starts_with("<?") {
                match self.src[self.pos..].windows(2).position(|w| w == b"?>") {
                    Some(rel) => self.pos += rel + 2,
                    None => return self.err("unterminated processing instruction"),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn parse_attributes(&mut self) -> Result<Vec<(String, String)>, XmlError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(attrs),
                _ => {}
            }
            let key = self.parse_name()?;
            self.skip_ws();
            if self.peek() != Some(b'=') {
                return self.err(format!("expected '=' after attribute '{key}'"));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return self.err("expected quoted attribute value"),
            };
            self.pos += 1;
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == quote {
                    break;
                }
                self.pos += 1;
            }
            if self.peek() != Some(quote) {
                return self.err("unterminated attribute value");
            }
            let value = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.pos += 1;
            attrs.push((key, unescape(&value)));
        }
    }

    /// Parses the element at the cursor, which sits `depth` levels deep
    /// (the root is level 1).
    fn parse_element(&mut self, depth: usize) -> Result<XmlElement, XmlError> {
        if depth > MAX_DEPTH {
            return self.err(format!("elements nested deeper than {MAX_DEPTH} levels"));
        }
        if self.peek() != Some(b'<') {
            return self.err("expected '<'");
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let attributes = self.parse_attributes()?;
        let mut element = XmlElement {
            name,
            attributes,
            children: Vec::new(),
            text: String::new(),
        };
        if self.starts_with("/>") {
            self.pos += 2;
            return Ok(element);
        }
        if self.peek() != Some(b'>') {
            return self.err("expected '>' or '/>'");
        }
        self.pos += 1;
        loop {
            // Text until next markup.
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'<' {
                    break;
                }
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                if !element.text.is_empty() {
                    element.text.push(' ');
                }
                element.text.push_str(&unescape(trimmed));
            }
            if self.peek().is_none() {
                return self.err(format!("unterminated element <{}>", element.name));
            }
            if self.starts_with("<!--") {
                self.skip_comments_and_ws()?;
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != element.name {
                    return self.err(format!(
                        "mismatched closing tag: expected </{}>, found </{close}>",
                        element.name
                    ));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return self.err("expected '>' after closing tag");
                }
                self.pos += 1;
                return Ok(element);
            }
            element.children.push(self.parse_element(depth + 1)?);
        }
    }
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Parses a document, returning its root element.
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    let mut p = Parser {
        src: input.as_bytes(),
        pos: 0,
    };
    p.skip_comments_and_ws()?;
    let root = p.parse_element(1)?;
    p.skip_comments_and_ws()?;
    if p.pos != p.src.len() {
        return p.err("trailing content after the root element");
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"
            <?xml version="1.0"?>
            <!-- the paper's ADL -->
            <j2ee name="rubis">
                <tier kind="application" replicas="2"/>
                <tier kind="database" replicas="1">
                    <param key="read-policy" value="least-pending"/>
                </tier>
            </j2ee>
        "#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "j2ee");
        assert_eq!(root.attr("name"), Some("rubis"));
        assert_eq!(root.children.len(), 2);
        let db = root
            .children_named("tier")
            .find(|t| t.attr("kind") == Some("database"))
            .unwrap();
        assert_eq!(
            db.child("param").unwrap().attr("value"),
            Some("least-pending")
        );
    }

    #[test]
    fn parses_text_and_entities() {
        let root = parse("<a note='x &amp; y'>hello <b/> world</a>").unwrap();
        assert_eq!(root.text, "hello world");
        assert_eq!(root.attr("note"), Some("x & y"));
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse("<a><b/>").is_err());
        assert!(parse("<a attr=>").is_err());
        assert!(parse("<a attr='x>").is_err());
    }

    #[test]
    fn rejects_nesting_beyond_the_depth_bound() {
        let nested = |levels: usize| "<a>".repeat(levels) + &"</a>".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // Deep enough to overflow the stack of an unbounded descent.
        assert!(parse(&nested(100_000)).is_err());
    }

    #[test]
    fn self_closing_and_quotes() {
        let root = parse(r#"<x a="1" b='2'/>"#).unwrap();
        assert_eq!(root.attr("a"), Some("1"));
        assert_eq!(root.attr("b"), Some("2"));
        assert!(root.children.is_empty());
    }
}
