//! Errors for CIF parsing and layout validation.

use std::fmt;

/// An error produced while lexing, parsing, or validating extended CIF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CifError {
    /// 1-based line number where the problem was detected (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub kind: CifErrorKind,
}

/// The kinds of CIF errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CifErrorKind {
    /// An unexpected character in the input stream.
    UnexpectedChar(char),
    /// A number was expected.
    ExpectedNumber(String),
    /// A semicolon was expected before the next command.
    ExpectedSemicolon(String),
    /// An unknown command letter.
    UnknownCommand(char),
    /// `DS` nested inside another `DS`.
    NestedDefinition,
    /// `DF` without a matching `DS`.
    UnmatchedEnd,
    /// A `DS` was never closed by `DF`.
    UnclosedDefinition(u32),
    /// A symbol id was defined twice.
    DuplicateSymbol(u32),
    /// A call references an undefined symbol id.
    UndefinedSymbol(u32),
    /// Calls form a cycle through the named symbol id.
    RecursiveSymbol(u32),
    /// A rotation direction that is not one of the four axis directions.
    NonManhattanRotation(i64, i64),
    /// A wire/polygon had too few points, a bad width, etc.
    MalformedShape(String),
    /// A `9…` extension command was malformed.
    MalformedExtension(String),
    /// A `9N` / `9L` net name uses the reserved `#` prefix
    /// ([`crate::is_reserved_name`]).
    ReservedNetName(String),
    /// A device declaration (`9D`) outside a symbol definition.
    DeviceOutsideSymbol,
    /// Unclosed comment parenthesis.
    UnclosedComment,
    /// Layer command with no layer name.
    MissingLayer,
    /// An element appeared before any `L` layer selection.
    NoCurrentLayer,
}

impl CifError {
    pub(crate) fn new(line: usize, kind: CifErrorKind) -> Self {
        CifError { line, kind }
    }
}

impl fmt::Display for CifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.kind)
        } else {
            write!(f, "{}", self.kind)
        }
    }
}

impl fmt::Display for CifErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CifErrorKind::*;
        match self {
            UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ExpectedNumber(ctx) => write!(f, "expected a number in {ctx}"),
            ExpectedSemicolon(ctx) => write!(f, "expected ';' after {ctx}"),
            UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            NestedDefinition => write!(f, "DS inside DS: symbol definitions cannot nest"),
            UnmatchedEnd => write!(f, "DF without matching DS"),
            UnclosedDefinition(id) => write!(f, "symbol {id} never closed with DF"),
            DuplicateSymbol(id) => write!(f, "symbol {id} defined twice"),
            UndefinedSymbol(id) => write!(f, "call references undefined symbol {id}"),
            RecursiveSymbol(id) => write!(f, "recursive calls through symbol {id}"),
            NonManhattanRotation(a, b) => write!(
                f,
                "rotation direction ({a}, {b}) is not an axis direction (DIIC layouts are Manhattan)"
            ),
            MalformedShape(msg) => write!(f, "malformed shape: {msg}"),
            MalformedExtension(msg) => write!(f, "malformed extension: {msg}"),
            ReservedNetName(name) => write!(
                f,
                "net name {name:?} starts with '#', which is reserved for the checker's own keys"
            ),
            DeviceOutsideSymbol => write!(f, "9D device declaration outside a symbol definition"),
            UnclosedComment => write!(f, "unclosed comment"),
            MissingLayer => write!(f, "L command with no layer name"),
            NoCurrentLayer => write!(f, "element before any L layer selection"),
        }
    }
}

impl std::error::Error for CifError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = CifError::new(42, CifErrorKind::UnknownCommand('Q'));
        assert_eq!(e.to_string(), "line 42: unknown command 'Q'");
        let e0 = CifError::new(0, CifErrorKind::UndefinedSymbol(7));
        assert_eq!(e0.to_string(), "call references undefined symbol 7");
    }
}
