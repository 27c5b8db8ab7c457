//! Recursive-descent parser for the SQL subset.

use crate::ast::{Expr, Literal, OrderItem, Projection, SelectQuery};
use crate::error::ParseError;
use crate::lexer::tokenize;
use crate::token::{Keyword, Token, TokenKind};

/// Parse one `SELECT` statement. The whole input must be consumed.
pub fn parse_select(sql: &str) -> Result<SelectQuery, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.select()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek().position)
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        match &self.peek().kind {
            TokenKind::Keyword(k) if *k == kw => {
                self.advance();
                Ok(())
            }
            other => Err(self.err_here(format!(
                "expected {}, found {}",
                kw.as_str(),
                other.describe()
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(&self.peek().kind, TokenKind::Keyword(k) if *k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        match &self.peek().kind {
            TokenKind::Eof => Ok(()),
            other => Err(self.err_here(format!(
                "unexpected trailing input: {} (OR and GROUP BY are outside the \
                 supported subset)",
                other.describe()
            ))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.advance();
                Ok(name)
            }
            other => Err(self.err_here(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn select(&mut self) -> Result<SelectQuery, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let projection = self.projection()?;
        self.expect_keyword(Keyword::From)?;
        let table = self.ident("table name")?;
        let predicate = if self.eat_keyword(Keyword::Where) {
            Some(self.conjunction()?)
        } else {
            None
        };
        let order_by = if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            let mut items = vec![self.order_item()?];
            while matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
                items.push(self.order_item()?);
            }
            items
        } else {
            Vec::new()
        };
        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.advance().kind {
                TokenKind::IntLit(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(ParseError::new(
                        format!(
                            "LIMIT takes a non-negative integer, found {}",
                            other.describe()
                        ),
                        self.tokens[self.pos.saturating_sub(1)].position,
                    ))
                }
            }
        } else {
            None
        };
        Ok(SelectQuery {
            projection,
            table,
            predicate,
            order_by,
            limit,
        })
    }

    fn order_item(&mut self) -> Result<OrderItem, ParseError> {
        let attr = self.ident("ORDER BY attribute")?;
        let descending = if self.eat_keyword(Keyword::Desc) {
            true
        } else {
            self.eat_keyword(Keyword::Asc);
            false
        };
        Ok(OrderItem { attr, descending })
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        if matches!(self.peek().kind, TokenKind::Star) {
            self.advance();
            return Ok(Projection::Star);
        }
        let mut cols = vec![self.ident("column name")?];
        while matches!(self.peek().kind, TokenKind::Comma) {
            self.advance();
            cols.push(self.ident("column name")?);
        }
        Ok(Projection::Columns(cols))
    }

    fn conjunction(&mut self) -> Result<Expr, ParseError> {
        let first = self.condition()?;
        let mut rest = Vec::new();
        while self.eat_keyword(Keyword::And) {
            rest.push(self.condition()?);
        }
        Ok(if rest.is_empty() {
            first
        } else {
            let mut parts = vec![first];
            parts.append(&mut rest);
            Expr::And(parts)
        })
    }

    fn condition(&mut self) -> Result<Expr, ParseError> {
        // Parenthesized sub-conjunction.
        if matches!(self.peek().kind, TokenKind::LParen) {
            self.advance();
            let inner = self.conjunction()?;
            if !matches!(self.peek().kind, TokenKind::RParen) {
                return Err(self.err_here("expected `)`"));
            }
            self.advance();
            return Ok(inner);
        }
        let attr = self.ident("attribute name")?;
        match self.advance().kind {
            TokenKind::Op(op) => {
                let literal = self.literal()?;
                Ok(Expr::Compare { attr, op, literal })
            }
            TokenKind::Keyword(Keyword::In) => {
                if !matches!(self.peek().kind, TokenKind::LParen) {
                    return Err(self.err_here("expected `(` after IN"));
                }
                self.advance();
                let mut list = vec![self.literal()?];
                while matches!(self.peek().kind, TokenKind::Comma) {
                    self.advance();
                    list.push(self.literal()?);
                }
                if !matches!(self.peek().kind, TokenKind::RParen) {
                    return Err(self.err_here("expected `)` to close IN list"));
                }
                self.advance();
                Ok(Expr::InList { attr, list })
            }
            TokenKind::Keyword(Keyword::Between) => {
                let lo = self.literal()?;
                self.expect_keyword(Keyword::And)?;
                let hi = self.literal()?;
                Ok(Expr::Between { attr, lo, hi })
            }
            other => Err(ParseError::new(
                format!(
                    "expected comparison, IN, or BETWEEN after `{attr}`, found {}",
                    other.describe()
                ),
                self.tokens[self.pos.saturating_sub(1)].position,
            )),
        }
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        match &self.peek().kind {
            TokenKind::IntLit(i) => {
                let v = *i;
                self.advance();
                Ok(Literal::Int(v))
            }
            TokenKind::FloatLit(x) => {
                let v = *x;
                self.advance();
                Ok(Literal::Float(v))
            }
            TokenKind::StrLit(s) => {
                let v = s.clone();
                self.advance();
                Ok(Literal::Str(v))
            }
            other => Err(self.err_here(format!("expected literal, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::CompareOp;
    use qcat_datagen::{prop, Rng};

    #[test]
    fn parses_the_homes_query() {
        let q = parse_select(
            "SELECT * FROM listproperty WHERE neighborhood IN ('Redmond', 'Bellevue', \
             'Issaquah') AND price >= 200000 AND price <= 300000",
        )
        .unwrap();
        assert_eq!(q.table, "listproperty");
        assert_eq!(q.projection, Projection::Star);
        let conj = q.predicate.as_ref().unwrap().conjuncts();
        assert_eq!(conj.len(), 3);
        assert!(
            matches!(conj[0], Expr::InList { attr, list } if attr == "neighborhood" && list.len() == 3)
        );
    }

    #[test]
    fn parses_between_and_projection() {
        let q =
            parse_select("select neighborhood, price from homes where price between 100 and 200")
                .unwrap();
        assert_eq!(
            q.projection,
            Projection::Columns(vec!["neighborhood".into(), "price".into()])
        );
        assert!(matches!(
            q.predicate.unwrap(),
            Expr::Between { attr, lo: Literal::Int(100), hi: Literal::Int(200) } if attr == "price"
        ));
    }

    #[test]
    fn parses_no_where() {
        let q = parse_select("SELECT * FROM homes").unwrap();
        assert!(q.predicate.is_none());
    }

    #[test]
    fn parses_parenthesized_conjunction() {
        let q = parse_select("SELECT * FROM t WHERE (a = 1 AND b = 2) AND c = 3").unwrap();
        assert_eq!(q.predicate.unwrap().conjuncts().len(), 3);
    }

    #[test]
    fn comparison_ops() {
        for (sql, op) in [
            ("a = 1", CompareOp::Eq),
            ("a < 1", CompareOp::Lt),
            ("a <= 1", CompareOp::Le),
            ("a > 1", CompareOp::Gt),
            ("a >= 1", CompareOp::Ge),
        ] {
            let q = parse_select(&format!("SELECT * FROM t WHERE {sql}")).unwrap();
            assert!(
                matches!(q.predicate.unwrap(), Expr::Compare { op: o, .. } if o == op),
                "{sql}"
            );
        }
    }

    #[test]
    fn trailing_input_rejected_with_hint() {
        let err = parse_select("SELECT * FROM t WHERE a = 1 GROUP").unwrap_err();
        assert!(err.message.contains("trailing"), "{}", err.message);
        // ORDER without BY is a parse error, not trailing garbage.
        let err = parse_select("SELECT * FROM t WHERE a = 1 ORDER").unwrap_err();
        assert!(err.message.contains("BY"), "{}", err.message);
    }

    #[test]
    fn parses_order_by_and_limit() {
        let q =
            parse_select("SELECT * FROM t WHERE a = 1 ORDER BY price DESC, beds ASC, zip LIMIT 25")
                .unwrap();
        assert_eq!(q.order_by.len(), 3);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert!(!q.order_by[2].descending);
        assert_eq!(q.limit, Some(25));
        // LIMIT without ORDER BY.
        let q = parse_select("SELECT * FROM t LIMIT 5").unwrap();
        assert!(q.order_by.is_empty());
        assert_eq!(q.limit, Some(5));
        // Bad limit.
        assert!(parse_select("SELECT * FROM t LIMIT 'x'").is_err());
        assert!(parse_select("SELECT * FROM t LIMIT -1").is_err());
    }

    #[test]
    fn error_positions_are_plausible() {
        let err = parse_select("SELECT * FROM").unwrap_err();
        assert_eq!(err.position, 13);
        let err = parse_select("SELECT * FROM t WHERE price IN 3").unwrap_err();
        assert!(err.message.contains("expected `(`"));
    }

    #[test]
    fn empty_in_list_rejected() {
        assert!(parse_select("SELECT * FROM t WHERE a IN ()").is_err());
    }

    #[test]
    fn missing_and_in_between_rejected() {
        let err = parse_select("SELECT * FROM t WHERE a BETWEEN 1 2").unwrap_err();
        assert!(err.message.contains("AND"));
    }

    #[test]
    fn keywords_cannot_be_table_names() {
        assert!(parse_select("SELECT * FROM where").is_err());
    }

    // --- display/parse round-trip property ---------------------------------

    /// A string of `min..=max` characters drawn from `alphabet`.
    fn arb_string(rng: &mut Rng, alphabet: &str, min: usize, max: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        prop::vec(rng, min, max, |rng| chars[rng.gen_range(0..chars.len())])
            .into_iter()
            .collect()
    }

    /// Any character but a newline, most of them ASCII (`.` of a regex).
    fn arb_char(rng: &mut Rng) -> char {
        loop {
            let c = if rng.gen_bool(0.75) {
                char::from(rng.gen_range(0..128u32) as u8)
            } else {
                char::from_u32(rng.gen_range(128..0x11_0000u32)).unwrap_or('\u{fffd}')
            };
            if c != '\n' {
                return c;
            }
        }
    }

    fn arb_literal(rng: &mut Rng) -> Literal {
        match rng.gen_range(0..3) {
            0 => Literal::Int(rng.gen_range(i32::MIN as i64..=i32::MAX as i64)),
            1 => Literal::Float(rng.gen_range(-1.0e6..1.0e6)),
            _ => {
                let letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
                let head = arb_string(rng, &format!("{letters} '"), 1, 1);
                Literal::Str(head + &arb_string(rng, &format!("{letters}0123456789 '"), 0, 10))
            }
        }
    }

    fn arb_attr(rng: &mut Rng) -> String {
        loop {
            let head = arb_string(rng, "abcdefghijklmnopqrstuvwxyz", 1, 1);
            let attr = head + &arb_string(rng, "abcdefghijklmnopqrstuvwxyz0123456789_", 0, 8);
            if crate::token::Keyword::from_ident(&attr).is_none() {
                return attr;
            }
        }
    }

    fn arb_condition(rng: &mut Rng) -> Expr {
        match rng.gen_range(0..3) {
            0 => Expr::Compare {
                attr: arb_attr(rng),
                op: CompareOp::Le,
                literal: arb_literal(rng),
            },
            1 => Expr::InList {
                attr: arb_attr(rng),
                list: prop::vec(rng, 1, 3, arb_literal),
            },
            _ => Expr::Between {
                attr: arb_attr(rng),
                lo: arb_literal(rng),
                hi: arb_literal(rng),
            },
        }
    }

    /// Fuzz: the front-end never panics on arbitrary input — it parses
    /// or returns a positioned error.
    #[test]
    fn prop_parser_total_on_garbage() {
        prop::check("parser_total_on_garbage", 64, 160, |rng, size| {
            let input: String = prop::vec(rng, 0, size, arb_char).into_iter().collect();
            match parse_select(&input) {
                Ok(q) => {
                    // Anything that parses must re-render and re-parse.
                    let again = parse_select(&q.to_string()).unwrap();
                    assert_eq!(again, q, "{input:?}");
                }
                Err(e) => assert!(e.position <= input.len(), "{input:?}: {e}"),
            }
            Ok(())
        });
    }

    /// Fuzz with SQL-shaped fragments for deeper grammar coverage.
    #[test]
    fn prop_parser_total_on_sqlish() {
        let fragments = [
            "SELECT", "FROM", "WHERE", "AND", "IN", "BETWEEN", "*", "(", ")", ",", "<=", "'x'",
            "42", "2.5", "price", "t",
        ];
        prop::check("parser_total_on_sqlish", 64, 23, |rng, size| {
            let pieces = prop::vec(rng, 0, size, |rng| {
                fragments[rng.gen_range(0..fragments.len())]
            });
            let _ = parse_select(&pieces.join(" ")); // must not panic
            Ok(())
        });
    }

    /// Rendering any query to SQL and re-parsing yields the same AST.
    #[test]
    fn prop_display_parse_roundtrip() {
        prop::check("display_parse_roundtrip", 64, 4, |rng, size| {
            let table = arb_attr(rng);
            let mut conds = prop::vec(rng, 0, size, arb_condition);
            let order_by = prop::vec(rng, 0, size.min(2), |rng| crate::ast::OrderItem {
                attr: arb_attr(rng),
                descending: rng.gen_bool(0.5),
            });
            let limit = rng.gen_bool(0.5).then(|| rng.gen_range(0..1000u64));
            let predicate = match conds.len() {
                0 => None,
                1 => conds.pop(),
                _ => Some(Expr::And(conds)),
            };
            let q = SelectQuery {
                projection: Projection::Star,
                table,
                predicate,
                order_by,
                limit,
            };
            let sql = q.to_string();
            let back = parse_select(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(back, q, "{sql}");
            Ok(())
        });
    }
}
