use augur_dist::DistKind;

use crate::ast::{BinOp, Builtin, Decl, DeclRhs, DeclRole, DistCall, Expr, Gen, Ident, Model};
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses a complete model from source text.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first lexical or syntactic
/// problem, with a span into `src`.
///
/// # Example
///
/// ```
/// let m = augur_lang::parse("(K) => { param p ~ Beta(1.0, 1.0) ; }")?;
/// assert_eq!(m.args.len(), 1);
/// # Ok::<(), augur_lang::LangError>(())
/// ```
pub fn parse(src: &str) -> Result<Model, LangError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let model = p.model()?;
    p.expect(&TokenKind::Eof)?;
    Ok(model)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, LangError> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            let t = self.peek();
            Err(LangError::parse(format!("expected {kind}, found {}", t.kind), t.span))
        }
    }

    fn ident(&mut self) -> Result<Ident, LangError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Ident(name) => Ok(Ident { name, span: t.span }),
            other => Err(LangError::parse(format!("expected identifier, found {other}"), t.span)),
        }
    }

    /// model := '(' ident,* ')' '=>' '{' decl* '}'
    fn model(&mut self) -> Result<Model, LangError> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                args.push(self.ident()?);
                if self.check(&TokenKind::RParen) {
                    break;
                }
                self.expect(&TokenKind::Comma)?;
            }
        }
        self.expect(&TokenKind::FatArrow)?;
        self.expect(&TokenKind::LBrace)?;
        let mut decls = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            decls.push(self.decl()?);
        }
        Ok(Model { args, decls })
    }

    /// decl := ('param'|'data') ident sub* '~' dist gens? ';'
    ///       | 'let' ident sub* '=' expr gens? ';'
    fn decl(&mut self) -> Result<Decl, LangError> {
        let t = self.advance();
        let role = match t.kind {
            TokenKind::Param => DeclRole::Param,
            TokenKind::Data => DeclRole::Data,
            TokenKind::Let => DeclRole::Det,
            other => {
                return Err(LangError::parse(
                    format!("expected `param`, `data`, or `let`, found {other}"),
                    t.span,
                ))
            }
        };
        let lhs = self.ident()?;
        let mut subscripts = Vec::new();
        while self.check(&TokenKind::LBracket) {
            subscripts.push(self.ident()?);
            self.expect(&TokenKind::RBracket)?;
        }
        let rhs = if role == DeclRole::Det {
            self.expect(&TokenKind::Eq)?;
            DeclRhs::Det(self.expr()?)
        } else {
            self.expect(&TokenKind::Tilde)?;
            DeclRhs::Dist(self.dist_call()?)
        };
        let mut gens = Vec::new();
        if self.check(&TokenKind::For) {
            loop {
                let var = self.ident()?;
                self.expect(&TokenKind::LeftArrow)?;
                let lo = self.expr()?;
                self.expect(&TokenKind::Until)?;
                let hi = self.expr()?;
                gens.push(Gen { var, lo, hi });
                if !self.check(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Decl { role, lhs, subscripts, rhs, gens })
    }

    fn dist_call(&mut self) -> Result<DistCall, LangError> {
        let name = self.ident()?;
        let dist: DistKind = name.name.parse().map_err(|_| {
            LangError::parse(format!("unknown distribution `{}`", name.name), name.span)
        })?;
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if self.check(&TokenKind::RParen) {
                    break;
                }
                self.expect(&TokenKind::Comma)?;
            }
        }
        let end = self.tokens[self.pos - 1].span;
        Ok(DistCall { dist, args, span: name.span.to(end) })
    }

    /// expr := term (('+'|'-') term)*
    fn expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.term()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binop(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    /// term := factor (('*'|'/') factor)*
    fn term(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.factor()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binop(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    /// factor := '-' factor | atom ('[' expr ']')*
    fn factor(&mut self) -> Result<Expr, LangError> {
        if self.peek().kind == TokenKind::Minus {
            let t = self.advance();
            let inner = self.factor()?;
            let span = t.span.to(inner.span());
            return Ok(Expr::Neg(Box::new(inner), span));
        }
        let mut e = self.atom()?;
        while self.check(&TokenKind::LBracket) {
            let idx = self.expr()?;
            let close = self.expect(&TokenKind::RBracket)?;
            let span = e.span().to(close.span);
            e = Expr::Index(Box::new(e), Box::new(idx), span);
        }
        Ok(e)
    }

    /// atom := literal | ident | builtin '(' expr,* ')' | '(' expr ')'
    fn atom(&mut self) -> Result<Expr, LangError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Int(v) => Ok(Expr::Int(v, t.span)),
            TokenKind::Real(v) => Ok(Expr::Real(v, t.span)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.peek().kind == TokenKind::LParen {
                    let builtin = Builtin::from_name(&name).ok_or_else(|| {
                        LangError::parse(format!("unknown function `{name}`"), t.span)
                    })?;
                    self.advance(); // (
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.check(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(&TokenKind::Comma)?;
                        }
                    }
                    let end = self.tokens[self.pos - 1].span;
                    if args.len() != builtin.arity() {
                        return Err(LangError::parse(
                            format!(
                                "`{name}` expects {} argument(s), got {}",
                                builtin.arity(),
                                args.len()
                            ),
                            t.span.to(end),
                        ));
                    }
                    Ok(Expr::Call(builtin, args, t.span.to(end)))
                } else {
                    Ok(Expr::Var(Ident { name, span: t.span }))
                }
            }
            other => Err(LangError::parse(format!("expected expression, found {other}"), t.span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GMM: &str = r#"
        (K, N, mu_0, Sigma_0, pis, Sigma) => {
          param mu[k] ~ MvNormal(mu_0, Sigma_0)
            for k <- 0 until K ;
          param z[n] ~ Categorical(pis)
            for n <- 0 until N ;
          data x[n] ~ MvNormal(mu[z[n]], Sigma)
            for n <- 0 until N ;
        }"#;

    #[test]
    fn parses_fig1_gmm() {
        let m = parse(GMM).unwrap();
        assert_eq!(m.args.len(), 6);
        assert_eq!(m.decls.len(), 3);
        assert_eq!(m.decls[0].lhs.name, "mu");
        assert_eq!(m.decls[0].role, DeclRole::Param);
        assert_eq!(m.decls[2].role, DeclRole::Data);
        assert_eq!(m.decls[0].gens.len(), 1);
        // x[n] ~ MvNormal(mu[z[n]], Sigma): first arg indexes through z
        match &m.decls[2].rhs {
            DeclRhs::Dist(call) => {
                assert_eq!(call.dist, DistKind::MvNormal);
                assert!(call.args[0].mentions("z"));
            }
            DeclRhs::Det(_) => panic!("expected stochastic decl"),
        }
    }

    #[test]
    fn parses_lda_with_ragged_nested_comprehension() {
        let src = r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#;
        let m = parse(src).unwrap();
        assert_eq!(m.decls[2].subscripts.len(), 2);
        assert_eq!(m.decls[2].gens.len(), 2);
        assert!(m.decls[2].gens[1].hi.mentions("len"));
    }

    #[test]
    fn parses_hlr_with_builtins() {
        let src = r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param b ~ Normal(0.0, sigma2) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
        }"#;
        let m = parse(src).unwrap();
        assert_eq!(m.decls.len(), 4);
        match &m.decls[3].rhs {
            DeclRhs::Dist(call) => {
                assert!(matches!(call.args[0], Expr::Call(Builtin::Sigmoid, ..)));
            }
            DeclRhs::Det(_) => panic!(),
        }
    }

    #[test]
    fn parses_det_declaration() {
        let src = "(a, b) => { let c = a * b + 1.0 ; param x ~ Normal(c, 1.0) ; }";
        let m = parse(src).unwrap();
        assert_eq!(m.decls[0].role, DeclRole::Det);
        assert!(matches!(m.decls[0].rhs, DeclRhs::Det(_)));
    }

    #[test]
    fn precedence_mul_binds_tighter() {
        let m = parse("(a, b, c) => { let d = a + b * c ; }").unwrap();
        match &m.decls[0].rhs {
            DeclRhs::Det(Expr::Binop(BinOp::Add, _, rhs, _)) => {
                assert!(matches!(**rhs, Expr::Binop(BinOp::Mul, ..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus() {
        let m = parse("(a) => { let d = -a * 2.0 ; }").unwrap();
        match &m.decls[0].rhs {
            // -a * 2.0 parses as (-a) * 2.0
            DeclRhs::Det(Expr::Binop(BinOp::Mul, lhs, _, _)) => {
                assert!(matches!(**lhs, Expr::Neg(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_on_unknown_distribution() {
        let err = parse("(a) => { param x ~ Cauchy(a) ; }").unwrap_err();
        assert!(err.message.contains("Cauchy"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse("(a) => { param x ~ Normal(a, 1.0) }").unwrap_err();
        assert!(err.message.contains("`;`"), "{}", err.message);
    }

    #[test]
    fn error_on_wrong_builtin_arity() {
        let err = parse("(a) => { let d = dot(a) ; }").unwrap_err();
        assert!(err.message.contains("expects 2"));
    }

    #[test]
    fn empty_arg_list_allowed() {
        let m = parse("() => { param x ~ Normal(0.0, 1.0) ; }").unwrap();
        assert!(m.args.is_empty());
    }

    #[test]
    fn parenthesized_expression() {
        let m = parse("(a, b) => { let c = (a + b) / 2.0 ; }").unwrap();
        match &m.decls[0].rhs {
            DeclRhs::Det(Expr::Binop(BinOp::Div, lhs, _, _)) => {
                assert!(matches!(**lhs, Expr::Binop(BinOp::Add, ..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
