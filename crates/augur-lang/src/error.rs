use std::error::Error;
use std::fmt;

use crate::token::Span;

/// Error produced by the modeling-language frontend (lexing, parsing, or
/// type checking).
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// Which phase rejected the program.
    pub phase: Phase,
    /// Human-readable message.
    pub message: String,
    /// Source location, when known.
    pub span: Option<Span>,
}

/// The frontend phase an error originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Parsing.
    Parse,
    /// Type checking and model restrictions.
    Type,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Type => "type",
        })
    }
}

impl LangError {
    /// Creates a lexer error.
    pub fn lex(message: impl Into<String>, span: Span) -> Self {
        LangError { phase: Phase::Lex, message: message.into(), span: Some(span) }
    }

    /// Creates a parser error.
    pub fn parse(message: impl Into<String>, span: Span) -> Self {
        LangError { phase: Phase::Parse, message: message.into(), span: Some(span) }
    }

    /// Creates a type error.
    pub fn ty(message: impl Into<String>, span: Option<Span>) -> Self {
        LangError { phase: Phase::Type, message: message.into(), span }
    }

    /// Renders the error with a line/column position resolved against the
    /// original source.
    pub fn render(&self, src: &str) -> String {
        match self.span {
            Some(span) => {
                let (line, col) = span.line_col(src);
                format!("{} error at {line}:{col}: {}", self.phase, self.message)
            }
            None => format!("{} error: {}", self.phase, self.message),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => {
                write!(
                    f,
                    "{} error at bytes {}..{}: {}",
                    self.phase, span.start, span.end, self.message
                )
            }
            None => write!(f, "{} error: {}", self.phase, self.message),
        }
    }
}

impl Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn render_reports_line_and_column() {
        let src = "(a) => {\n  param x ~ Normal(a, 1.0) ;\n  param x ~ Normal(a, 1.0) ;\n}";
        let err = crate::typecheck(&parse(src).unwrap()).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("type error at 3:"), "{rendered}");
        assert!(rendered.contains("declared twice"), "{rendered}");
    }

    #[test]
    fn display_without_span_is_phase_prefixed() {
        let e = LangError::ty("something odd", None);
        assert_eq!(format!("{e}"), "type error: something odd");
        assert_eq!(e.render("ignored"), "type error: something odd");
    }

    #[test]
    fn parse_error_renders_position() {
        let src = "(a) => {\n  param x ~ Normal(a 1.0) ;\n}";
        let err = parse(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("parse error at 2:"), "{rendered}");
    }
}
