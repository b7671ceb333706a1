use crate::error::LangError;
use crate::token::{Span, Token, TokenKind};

/// Tokenizes the modeling-language source.
///
/// Supports `//` line comments. Numbers with a `.` or exponent are reals;
/// others are integers.
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push_simple(&mut tokens, TokenKind::LParen, &mut i),
            ')' => push_simple(&mut tokens, TokenKind::RParen, &mut i),
            '{' => push_simple(&mut tokens, TokenKind::LBrace, &mut i),
            '}' => push_simple(&mut tokens, TokenKind::RBrace, &mut i),
            '[' => push_simple(&mut tokens, TokenKind::LBracket, &mut i),
            ']' => push_simple(&mut tokens, TokenKind::RBracket, &mut i),
            ',' => push_simple(&mut tokens, TokenKind::Comma, &mut i),
            ';' => push_simple(&mut tokens, TokenKind::Semi, &mut i),
            '~' => push_simple(&mut tokens, TokenKind::Tilde, &mut i),
            '+' => push_simple(&mut tokens, TokenKind::Plus, &mut i),
            '*' => push_simple(&mut tokens, TokenKind::Star, &mut i),
            '/' => push_simple(&mut tokens, TokenKind::Slash, &mut i),
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token { kind: TokenKind::FatArrow, span: Span::new(i, i + 2) });
                    i += 2;
                } else {
                    push_simple(&mut tokens, TokenKind::Eq, &mut i);
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    tokens.push(Token { kind: TokenKind::LeftArrow, span: Span::new(i, i + 2) });
                    i += 2;
                } else {
                    return Err(LangError::lex("expected `<-`".to_owned(), Span::new(i, i + 1)));
                }
            }
            '-' => push_simple(&mut tokens, TokenKind::Minus, &mut i),
            '0'..='9' => {
                let mut j = i;
                let mut is_real = false;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && bytes.get(j + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_real = true;
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k].is_ascii_digit() {
                        is_real = true;
                        j = k;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = &src[i..j];
                let span = Span::new(i, j);
                let kind = if is_real {
                    TokenKind::Real(text.parse().map_err(|_| {
                        LangError::lex(format!("malformed real literal `{text}`"), span)
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        LangError::lex(format!("integer literal `{text}` out of range"), span)
                    })?)
                };
                tokens.push(Token { kind, span });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let text = &src[i..j];
                let kind = match text {
                    "param" => TokenKind::Param,
                    "data" => TokenKind::Data,
                    "let" => TokenKind::Let,
                    "for" => TokenKind::For,
                    "until" => TokenKind::Until,
                    _ => TokenKind::Ident(text.to_owned()),
                };
                tokens.push(Token { kind, span: Span::new(i, j) });
                i = j;
            }
            other => {
                return Err(LangError::lex(
                    format!("unexpected character `{other}`"),
                    Span::new(start, start + other.len_utf8()),
                ));
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, span: Span::new(src.len(), src.len()) });
    Ok(tokens)
}

fn push_simple(tokens: &mut Vec<Token>, kind: TokenKind, i: &mut usize) {
    tokens.push(Token { kind, span: Span::new(*i, *i + 1) });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_fig1_fragment() {
        let ks = kinds("param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;");
        assert_eq!(ks[0], TokenKind::Param);
        assert_eq!(ks[1], TokenKind::Ident("mu".into()));
        assert_eq!(ks[2], TokenKind::LBracket);
        assert!(ks.contains(&TokenKind::Tilde));
        assert!(ks.contains(&TokenKind::LeftArrow));
        assert!(ks.contains(&TokenKind::Until));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn distinguishes_int_and_real() {
        assert_eq!(kinds("3"), vec![TokenKind::Int(3), TokenKind::Eof]);
        assert_eq!(kinds("3.5"), vec![TokenKind::Real(3.5), TokenKind::Eof]);
        assert_eq!(kinds("1e3"), vec![TokenKind::Real(1000.0), TokenKind::Eof]);
        assert_eq!(kinds("1.5e-2"), vec![TokenKind::Real(0.015), TokenKind::Eof]);
    }

    #[test]
    fn arrow_tokens() {
        assert_eq!(
            kinds("=> <- = -"),
            vec![
                TokenKind::FatArrow,
                TokenKind::LeftArrow,
                TokenKind::Eq,
                TokenKind::Minus,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment with ~ symbols\nb"),
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_stray_character() {
        let err = lex("a $ b").unwrap_err();
        assert!(err.message.contains('$'));
    }

    #[test]
    fn lone_less_than_is_an_error() {
        assert!(lex("a < b").is_err());
    }

    #[test]
    fn minus_then_number_stays_separate() {
        // unary minus is handled by the parser
        assert_eq!(kinds("-3"), vec![TokenKind::Minus, TokenKind::Int(3), TokenKind::Eof]);
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert_eq!(kinds("for"), vec![TokenKind::For, TokenKind::Eof]);
        assert_eq!(kinds("fore"), vec![TokenKind::Ident("fore".into()), TokenKind::Eof]);
    }
}
