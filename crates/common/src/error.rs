//! Workspace-wide error type.
//!
//! Every layer (parser, binder, optimizer, engine, publisher) reports
//! failures through [`Error`]; the variants record which layer raised the
//! problem so end-to-end callers get actionable messages without each crate
//! defining its own error enum.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type shared by all crates in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexing/parsing failure in the SQL front end. Carries a message and a
    /// 1-based (line, column) position when available.
    Parse { message: String, line: usize, column: usize },
    /// Name resolution or semantic analysis failure (unknown table/column,
    /// ambiguous reference, misuse of aggregates, ...).
    Bind(String),
    /// A logical plan failed validation (schema mismatch, per-group query
    /// containing a disallowed operator, ...).
    Plan(String),
    /// Runtime evaluation failure (type mismatch at execution, division by
    /// zero under strict mode, missing parameter binding, ...).
    Execution(String),
    /// Catalog-level failure (duplicate or missing table).
    Catalog(String),
    /// A problem in the XML publishing layer (view definition, XQuery
    /// translation, or tagging).
    Xml(String),
    /// Feature intentionally outside the reproduced subset.
    Unsupported(String),
    /// The service shed the request at admission (queue full): nothing
    /// was executed, and retrying after a backoff is safe.
    Busy(String),
}

impl Error {
    /// Shorthand constructor for execution errors.
    pub fn exec(msg: impl Into<String>) -> Self {
        Error::Execution(msg.into())
    }

    /// Shorthand constructor for binder errors.
    pub fn bind(msg: impl Into<String>) -> Self {
        Error::Bind(msg.into())
    }

    /// Shorthand constructor for plan validation errors.
    pub fn plan(msg: impl Into<String>) -> Self {
        Error::Plan(msg.into())
    }

    /// Shorthand constructor for parse errors without position info.
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse { message: msg.into(), line: 0, column: 0 }
    }

    /// Shorthand constructor for parse errors with a source position.
    pub fn parse_at(msg: impl Into<String>, line: usize, column: usize) -> Self {
        Error::Parse { message: msg.into(), line, column }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { message, line, column } => {
                if *line == 0 {
                    write!(f, "parse error: {message}")
                } else {
                    write!(f, "parse error at {line}:{column}: {message}")
                }
            }
            Error::Bind(m) => write!(f, "bind error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Xml(m) => write!(f, "xml error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Busy(m) => write!(f, "busy: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_layer() {
        assert_eq!(Error::bind("no such column x").to_string(), "bind error: no such column x");
        assert_eq!(Error::exec("boom").to_string(), "execution error: boom");
        assert_eq!(Error::plan("bad").to_string(), "plan error: bad");
        assert_eq!(Error::Catalog("dup".into()).to_string(), "catalog error: dup");
        assert_eq!(Error::Xml("tag".into()).to_string(), "xml error: tag");
        assert_eq!(Error::Unsupported("cube".into()).to_string(), "unsupported: cube");
        assert_eq!(Error::Busy("queue full".into()).to_string(), "busy: queue full");
    }

    #[test]
    fn parse_error_positions() {
        let e = Error::parse_at("unexpected ','", 3, 14);
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected ','");
        let e = Error::parse("eof");
        assert_eq!(e.to_string(), "parse error: eof");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::bind("x"), Error::bind("x"));
        assert_ne!(Error::bind("x"), Error::plan("x"));
    }
}
