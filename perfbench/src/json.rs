//! A minimal JSON value for the result lines (the benchmark depends on
//! nothing outside the repository).

use std::fmt;

#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{}` on f64 prints the shortest string that round-trips:
            // every digit the measurement has. Non-finite values have no
            // JSON spelling and are written as null.
            J::Num(x) if x.is_finite() => write!(f, "{x}"),
            J::Num(_) => f.write_str("null"),
            J::Int(n) => write!(f, "{n}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => escape(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}
