//! Parser for RDL/CompRDL type annotation strings.
//!
//! This understands the textual signature language the paper writes
//! annotations in, e.g.
//!
//! ```text
//! (String, String) -> %bool
//! (t<:Symbol) -> «if t.is_a?(Singleton) then ... end»
//! («schema_type(tself)») -> Boolean
//! () -> { info: Array<String>, title: String }
//! (k) -> v
//! () { (a) -> b } -> Array<b>
//! ```
//!
//! Comp-type segments are delimited by `«` and `»` (the ASCII spellings
//! `<<<` and `>>>` are also accepted) and contain Ruby-subset expressions
//! parsed with [`ruby_syntax`].  A comp segment may be followed by
//! `/ Type` giving the static bound used in plain-RDL mode, mirroring the
//! `(a<:e1/A1) → e2/A2` form of λC.

use crate::sig::{CompSpec, MethodSig, ParamSig, TypeExpr};
use crate::ty::{HashKey, SingVal, Type};
use std::fmt;
use std::sync::Arc;

/// An error produced while parsing an annotation string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigParseError {
    /// Description of what went wrong.
    pub message: String,
    /// Character offset in the annotation string.
    pub offset: usize,
}

impl SigParseError {
    /// The offset rendered as a one-character [`diagnostics::Span`] into the
    /// annotation string (annotations are single-line).
    pub fn span(&self) -> diagnostics::Span {
        diagnostics::Span::new(self.offset, self.offset + 1, 1)
    }
}

impl fmt::Display for SigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "annotation parse error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SigParseError {}

impl From<SigParseError> for diagnostics::Diagnostic {
    fn from(e: SigParseError) -> Self {
        diagnostics::Diagnostic::error("SIG0001", e.message.clone())
            .with_label(e.span(), "in this annotation")
            .with_note("the span is relative to the annotation string, not the Ruby source")
    }
}

type SResult<T> = Result<T, SigParseError>;

/// Parses a method signature annotation such as `"(String) -> %bool"`.
///
/// # Errors
///
/// Returns a [`SigParseError`] if the annotation is malformed.
///
/// # Examples
///
/// ```
/// let sig = rdl_types::parse_method_sig("(String, ?Integer) -> Array<String>").unwrap();
/// assert_eq!(sig.params.len(), 2);
/// assert_eq!(sig.required_arity(), 1);
/// ```
pub fn parse_method_sig(src: &str) -> SResult<MethodSig> {
    let mut p = SigParser::new(src);
    let sig = p.parse_sig()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after signature"));
    }
    Ok(sig)
}

/// Parses a single type annotation such as `"Array<String>"`.
///
/// # Errors
///
/// Returns a [`SigParseError`] if the annotation is malformed.
///
/// # Examples
///
/// ```
/// use rdl_types::TypeExpr;
/// let t = rdl_types::parse_type_expr("Integer or String").unwrap();
/// assert!(matches!(t, TypeExpr::Union(_)));
/// ```
pub fn parse_type_expr(src: &str) -> SResult<TypeExpr> {
    let mut p = SigParser::new(src);
    let t = p.parse_union()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after type"));
    }
    Ok(t)
}

struct SigParser {
    chars: Vec<char>,
    pos: usize,
}

impl SigParser {
    fn new(src: &str) -> Self {
        SigParser { chars: src.chars().collect(), pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.chars.get(self.pos + n).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn error(&self, message: &str) -> SigParseError {
        SigParseError { message: message.to_string(), offset: self.pos }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> SResult<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{c}`")))
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        let want: Vec<char> = s.chars().collect();
        if self.chars[self.pos.min(self.chars.len())..].starts_with(&want) {
            self.pos += want.len();
            true
        } else {
            false
        }
    }

    fn parse_word(&mut self) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '?' || c == '!' {
                out.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        out
    }

    // ---- signatures -----------------------------------------------------

    fn parse_sig(&mut self) -> SResult<MethodSig> {
        let source: String = self.chars.iter().collect();
        self.skip_ws();
        self.expect('(')?;
        let mut params = Vec::new();
        self.skip_ws();
        if self.peek() != Some(')') {
            loop {
                params.push(self.parse_param()?);
                self.skip_ws();
                if !self.eat(',') {
                    break;
                }
            }
        }
        self.expect(')')?;
        // Optional block signature `{ (...) -> ... }`.
        self.skip_ws();
        let block = if self.peek() == Some('{') && self.block_follows() {
            self.expect('{')?;
            let inner = self.parse_sig()?;
            self.expect('}')?;
            Some(Box::new(inner))
        } else {
            None
        };
        // Arrow: `->` or `→`.
        self.skip_ws();
        if !self.eat_str("->") && !self.eat_str("→") {
            return Err(self.error("expected `->` in method signature"));
        }
        let ret = self.parse_union()?;
        Ok(MethodSig {
            params,
            ret,
            block,
            term: Default::default(),
            purity: Default::default(),
            source,
            typecheck_label: None,
        })
    }

    /// Distinguishes a block signature `{ (..) -> .. }` from a finite hash
    /// return type by looking for `(` as the first non-space char inside.
    fn block_follows(&self) -> bool {
        let mut i = self.pos + 1;
        while let Some(c) = self.chars.get(i) {
            if c.is_whitespace() {
                i += 1;
            } else {
                return *c == '(';
            }
        }
        false
    }

    fn parse_param(&mut self) -> SResult<ParamSig> {
        self.skip_ws();
        // `binder <: type`
        if matches!(self.peek(), Some(c) if c.is_lowercase() || c == '_') {
            // Look ahead for `<:` after the identifier.
            let save = self.pos;
            let word = self.parse_word();
            self.skip_ws();
            if self.peek() == Some('<') && self.peek_at(1) == Some(':') {
                self.pos += 2;
                let ty = self.parse_union()?;
                return Ok(ParamSig { binder: Some(word), ty });
            }
            self.pos = save;
        }
        let ty = self.parse_union()?;
        Ok(ParamSig { binder: None, ty })
    }

    // ---- types ----------------------------------------------------------

    fn parse_union(&mut self) -> SResult<TypeExpr> {
        let mut parts = vec![self.parse_postfix_type()?];
        loop {
            let save = self.pos;
            self.skip_ws();
            let word_start = self.pos;
            if self.peek() == Some('o') && self.peek_at(1) == Some('r') {
                self.pos += 2;
                // make sure `or` is a standalone word
                if matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
                    self.pos = save;
                    break;
                }
                parts.push(self.parse_postfix_type()?);
            } else {
                self.pos = word_start.min(save.max(word_start));
                self.pos = save;
                break;
            }
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("non-empty"))
        } else {
            Ok(TypeExpr::Union(parts))
        }
    }

    fn parse_postfix_type(&mut self) -> SResult<TypeExpr> {
        let t = self.parse_primary_type()?;
        Ok(t)
    }

    fn parse_primary_type(&mut self) -> SResult<TypeExpr> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("expected a type")),
            Some('«') => {
                self.bump();
                self.parse_comp('»')
            }
            Some('<') if self.peek_at(1) == Some('<') && self.peek_at(2) == Some('<') => {
                self.pos += 3;
                self.parse_comp_ascii()
            }
            Some('?') => {
                self.bump();
                let t = self.parse_primary_type()?;
                Ok(TypeExpr::Optional(Box::new(t)))
            }
            Some('*') => {
                self.bump();
                let t = self.parse_primary_type()?;
                Ok(TypeExpr::Vararg(Box::new(t)))
            }
            Some('%') => {
                self.bump();
                let word = self.parse_word();
                match word.as_str() {
                    "any" => Ok(TypeExpr::Simple(Type::Top)),
                    "bot" => Ok(TypeExpr::Simple(Type::Bot)),
                    "bool" => Ok(TypeExpr::Simple(Type::Bool)),
                    "dyn" => Ok(TypeExpr::Simple(Type::Dynamic)),
                    other => Err(self.error(&format!("unknown special type `%{other}`"))),
                }
            }
            Some(':') => {
                self.bump();
                let word = self.parse_word();
                if word.is_empty() {
                    return Err(self.error("expected symbol name after `:`"));
                }
                Ok(TypeExpr::Simple(Type::sym(word)))
            }
            // `${User}` — the singleton type of the class object `User`.
            Some('$') if self.peek_at(1) == Some('{') => {
                self.pos += 2;
                let name = self.parse_word();
                if name.is_empty() {
                    return Err(self.error("expected class name in `${...}`"));
                }
                self.expect('}')?;
                Ok(TypeExpr::Simple(Type::class_of(name)))
            }
            Some('"') | Some('\'') => {
                let quote = self.bump().expect("peeked");
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string in annotation")),
                        Some(c) if c == quote => break,
                        Some(c) => s.push(c),
                    }
                }
                Ok(TypeExpr::ConstString(s))
            }
            Some('[') => {
                self.bump();
                let mut elems = Vec::new();
                self.skip_ws();
                if self.peek() != Some(']') {
                    loop {
                        elems.push(self.parse_union()?);
                        if !self.eat(',') {
                            break;
                        }
                    }
                }
                self.expect(']')?;
                Ok(TypeExpr::Tuple(elems))
            }
            Some('{') => {
                self.bump();
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() != Some('}') {
                    loop {
                        self.skip_ws();
                        let key = self.parse_hash_key()?;
                        let value = self.parse_union()?;
                        entries.push((key, value));
                        if !self.eat(',') {
                            break;
                        }
                    }
                }
                self.expect('}')?;
                Ok(TypeExpr::FiniteHash(entries))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let mut text = String::new();
                if c == '-' {
                    text.push(c);
                    self.bump();
                }
                while matches!(self.peek(), Some(d) if d.is_ascii_digit() || d == '.') {
                    text.push(self.bump().expect("peeked"));
                }
                if text.contains('.') {
                    let f: f64 =
                        text.parse().map_err(|_| self.error(&format!("invalid float `{text}`")))?;
                    Ok(TypeExpr::Simple(Type::Singleton(SingVal::float(f))))
                } else {
                    let i: i64 = text
                        .parse()
                        .map_err(|_| self.error(&format!("invalid integer `{text}`")))?;
                    Ok(TypeExpr::Simple(Type::int(i)))
                }
            }
            Some(c) if c.is_uppercase() => {
                let mut name = self.parse_word();
                while self.peek() == Some(':') && self.peek_at(1) == Some(':') {
                    self.pos += 2;
                    name.push_str("::");
                    name.push_str(&self.parse_word());
                }
                // Generic arguments.
                if self.peek() == Some('<') {
                    self.bump();
                    let mut args = Vec::new();
                    loop {
                        args.push(self.parse_union()?);
                        if !self.eat(',') {
                            break;
                        }
                    }
                    self.skip_ws();
                    self.expect('>')?;
                    return Ok(TypeExpr::Generic(name.into(), args));
                }
                match name.as_str() {
                    "Boolean" => Ok(TypeExpr::Simple(Type::Bool)),
                    "TrueClass" => Ok(TypeExpr::Simple(Type::Singleton(SingVal::True))),
                    "FalseClass" => Ok(TypeExpr::Simple(Type::Singleton(SingVal::False))),
                    "NilClass" => Ok(TypeExpr::Simple(Type::nil())),
                    _ => Ok(TypeExpr::nominal(&name)),
                }
            }
            Some(c) if c.is_lowercase() || c == '_' => {
                let word = self.parse_word();
                match word.as_str() {
                    "nil" => Ok(TypeExpr::Simple(Type::nil())),
                    "true" => Ok(TypeExpr::Simple(Type::Singleton(SingVal::True))),
                    "false" => Ok(TypeExpr::Simple(Type::Singleton(SingVal::False))),
                    "self" => Ok(TypeExpr::Simple(Type::Var("self".into()))),
                    _ => Ok(TypeExpr::Simple(Type::Var(word.into()))),
                }
            }
            Some(other) => Err(self.error(&format!("unexpected character `{other}` in type"))),
        }
    }

    fn parse_hash_key(&mut self) -> SResult<HashKey> {
        self.skip_ws();
        match self.peek() {
            Some('"') | Some('\'') => {
                let quote = self.bump().expect("peeked");
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string key")),
                        Some(c) if c == quote => break,
                        Some(c) => s.push(c),
                    }
                }
                self.skip_ws();
                if !self.eat_str("=>") {
                    return Err(self.error("expected `=>` after string key"));
                }
                Ok(HashKey::Str(s.into()))
            }
            Some(c) if c.is_ascii_digit() => {
                let mut text = String::new();
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    text.push(self.bump().expect("peeked"));
                }
                self.skip_ws();
                if !self.eat_str("=>") {
                    return Err(self.error("expected `=>` after integer key"));
                }
                Ok(HashKey::Int(text.parse().map_err(|_| self.error("invalid integer key"))?))
            }
            _ => {
                let word = self.parse_word();
                if word.is_empty() {
                    return Err(self.error("expected hash key"));
                }
                self.skip_ws();
                self.expect(':')?;
                Ok(HashKey::Sym(word.into()))
            }
        }
    }

    fn parse_comp(&mut self, close: char) -> SResult<TypeExpr> {
        let mut depth = 1usize;
        let mut body = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated «…» comp type")),
                Some('«') => {
                    depth += 1;
                    body.push('«');
                }
                Some(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    body.push(c);
                }
                Some(c) => body.push(c),
            }
        }
        self.finish_comp(body)
    }

    fn parse_comp_ascii(&mut self) -> SResult<TypeExpr> {
        // `<<< ruby-code >>>`
        let mut body = String::new();
        loop {
            if self.peek() == Some('>')
                && self.peek_at(1) == Some('>')
                && self.peek_at(2) == Some('>')
            {
                self.pos += 3;
                break;
            }
            match self.bump() {
                None => return Err(self.error("unterminated <<<…>>> comp type")),
                Some(c) => body.push(c),
            }
        }
        self.finish_comp(body)
    }

    fn finish_comp(&mut self, body: String) -> SResult<TypeExpr> {
        let source = body.trim().to_string();
        let expr = ruby_syntax::parse_expr(&source).map_err(|e| SigParseError {
            message: format!("invalid type-level expression: {e}"),
            offset: self.pos,
        })?;
        // Optional `/ Bound` static bound after the comp segment.
        let bound = {
            let save = self.pos;
            if self.eat('/') {
                Box::new(self.parse_primary_type()?)
            } else {
                self.pos = save;
                Box::new(TypeExpr::Simple(Type::Top))
            }
        };
        Ok(TypeExpr::Comp(CompSpec { expr: Arc::new(expr), source, bound }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TypeStore;

    #[test]
    fn parses_basic_signature() {
        let sig = parse_method_sig("(String, String) -> %bool").unwrap();
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.ret, TypeExpr::Simple(Type::Bool));
        assert!(!sig.is_comp());
    }

    #[test]
    fn parses_unicode_arrow_and_boolean() {
        let sig = parse_method_sig("(Integer) → Boolean").unwrap();
        assert_eq!(sig.ret, TypeExpr::Simple(Type::Bool));
    }

    #[test]
    fn parses_comp_types_with_binder() {
        let sig = parse_method_sig(
            "(t<:Symbol) -> «if t.is_a?(Singleton) then schema_type(t) else Nominal.new(Table) end»",
        )
        .unwrap();
        assert_eq!(sig.params.len(), 1);
        assert_eq!(sig.params[0].binder.as_deref(), Some("t"));
        assert!(sig.is_comp());
        match &sig.ret {
            TypeExpr::Comp(spec) => assert!(spec.source.contains("is_a?")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comp_argument_with_bound() {
        let sig =
            parse_method_sig("(«schema_type(tself)» / Hash<Symbol, Object>) -> Boolean").unwrap();
        match &sig.params[0].ty {
            TypeExpr::Comp(spec) => {
                assert_eq!(spec.source, "schema_type(tself)");
                assert_eq!(
                    *spec.bound,
                    TypeExpr::Generic(
                        "Hash".into(),
                        vec![TypeExpr::nominal("Symbol"), TypeExpr::nominal("Object")]
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_ascii_comp_delimiters() {
        let sig = parse_method_sig("(<<< schema_type(tself) >>>) -> Boolean").unwrap();
        assert!(sig.is_comp());
    }

    #[test]
    fn parses_finite_hash_and_tuple_types() {
        let sig = parse_method_sig("() -> { info: Array<String>, title: String }").unwrap();
        let mut store = TypeStore::new();
        let t = sig.ret.instantiate(&mut store);
        assert!(matches!(t, Type::FiniteHash(_)));

        let t = parse_type_expr("[Integer, String]").unwrap();
        assert!(matches!(t, TypeExpr::Tuple(ref ts) if ts.len() == 2));
    }

    #[test]
    fn parses_unions_optionals_and_varargs() {
        let sig = parse_method_sig("(?Integer, *String) -> Integer or String or nil").unwrap();
        assert!(sig.params[0].is_optional());
        assert!(sig.params[1].is_vararg());
        assert!(matches!(sig.ret, TypeExpr::Union(ref ts) if ts.len() == 3));
        assert!(sig.accepts_arity(0));
        assert!(sig.accepts_arity(7));
    }

    #[test]
    fn parses_type_variables_and_generics() {
        let sig = parse_method_sig("(k) -> v").unwrap();
        assert_eq!(sig.params[0].ty, TypeExpr::Simple(Type::Var("k".into())));
        assert_eq!(sig.ret, TypeExpr::Simple(Type::Var("v".into())));

        let t = parse_type_expr("Hash<Symbol, Array<String>>").unwrap();
        let mut store = TypeStore::new();
        assert_eq!(
            t.instantiate(&mut store),
            Type::hash(Type::nominal("Symbol"), Type::array(Type::nominal("String")))
        );
    }

    #[test]
    fn parses_block_signatures() {
        let sig = parse_method_sig("() { (a) -> b } -> Array<b>").unwrap();
        let block = sig.block.as_ref().expect("block sig");
        assert_eq!(block.params.len(), 1);
        assert_eq!(block.ret, TypeExpr::Simple(Type::Var("b".into())));
    }

    #[test]
    fn parses_singletons_and_const_strings() {
        assert_eq!(parse_type_expr(":model").unwrap(), TypeExpr::Simple(Type::sym("model")));
        assert_eq!(parse_type_expr("42").unwrap(), TypeExpr::Simple(Type::int(42)));
        assert_eq!(parse_type_expr("nil").unwrap(), TypeExpr::Simple(Type::nil()));
        assert_eq!(
            parse_type_expr("'SELECT 1'").unwrap(),
            TypeExpr::ConstString("SELECT 1".into())
        );
        assert_eq!(
            parse_type_expr("3.5").unwrap(),
            TypeExpr::Simple(Type::Singleton(SingVal::float(3.5)))
        );
    }

    #[test]
    fn parses_table_type() {
        let t = parse_type_expr("Table<{ id: Integer, username: String }>").unwrap();
        let mut store = TypeStore::new();
        let ty = t.instantiate(&mut store);
        match ty {
            Type::Generic { base, args } => {
                assert_eq!(base, "Table");
                assert!(matches!(args[0], Type::FiniteHash(_)));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parses_string_hash_keys() {
        let t = parse_type_expr("{ 'a' => Integer, 2 => String }").unwrap();
        match t {
            TypeExpr::FiniteHash(entries) => {
                assert_eq!(entries[0].0, HashKey::Str("a".into()));
                assert_eq!(entries[1].0, HashKey::Int(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_annotations() {
        assert!(parse_method_sig("String -> Integer").is_err());
        assert!(parse_method_sig("(String)").is_err());
        assert!(parse_type_expr("%frob").is_err());
        assert!(parse_type_expr("Array<String").is_err());
        assert!(parse_type_expr("«1 +»").is_err());
        assert!(parse_type_expr("").is_err());
    }

    #[test]
    fn error_display_mentions_offset() {
        let err = parse_type_expr("%frob").unwrap_err();
        assert!(err.to_string().contains("annotation parse error"));
    }
}
