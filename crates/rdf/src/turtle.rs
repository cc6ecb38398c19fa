//! A parser and serialiser for N-Triples plus a pragmatic subset of Turtle.
//!
//! Supported syntax: `@prefix` declarations, IRIs in angle brackets,
//! prefixed names, the `a` keyword, blank-node labels (`_:x`), string
//! literals with `\`-escapes and optional `@lang` / `^^datatype`
//! annotations, bare integers (typed as `xsd:integer`), and the `.` / `;`
//! / `,` statement punctuation. Collections and quoted triples are not
//! supported — the paper's data never needs them.

use crate::error::RdfError;
use crate::graph::Graph;
use crate::namespace::{vocab, PrefixMap};
use crate::term::{Iri, Literal, Term};
use crate::triple::{IdTriple, Triple};

/// How many parsed triples accumulate before the loader flushes them
/// through [`Graph::insert_batch`]. Large enough that bulk loads take
/// the sorted-run batch path (one sort per chunk instead of per-triple
/// tail pushes), small enough that the buffer stays cache-friendly.
const LOAD_CHUNK: usize = 4096;

/// Accumulates parsed triples and feeds the graph in
/// [`LOAD_CHUNK`]-sized batches. Terms are interned as they are parsed
/// (the dictionary is idempotent), only the store insertion is
/// deferred.
struct BatchLoader<'g> {
    graph: &'g mut Graph,
    buf: Vec<IdTriple>,
}

impl<'g> BatchLoader<'g> {
    fn new(graph: &'g mut Graph) -> Self {
        BatchLoader {
            graph,
            buf: Vec::with_capacity(LOAD_CHUNK),
        }
    }

    fn push(&mut self, t: &Triple) {
        let s = self.graph.intern(t.subject());
        let p = self.graph.intern(t.predicate());
        let o = self.graph.intern(t.object());
        self.buf.push(IdTriple::new(s, p, o));
        if self.buf.len() >= LOAD_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.graph.insert_batch(self.buf.drain(..));
        }
    }
}

/// Parses a Turtle-lite document into a fresh [`Graph`].
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    let mut graph = Graph::new();
    parse_into(input, &mut graph)?;
    Ok(graph)
}

/// Parses a Turtle-lite document, inserting triples into an existing
/// graph through the chunked batch path ([`Graph::insert_batch`],
/// `LOAD_CHUNK` triples at a time), so bulk loads pay one sort per
/// chunk instead of per-triple tail maintenance. On a parse error the
/// graph keeps the chunks flushed before the offending statement.
pub fn parse_into(input: &str, graph: &mut Graph) -> Result<PrefixMap, RdfError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: PrefixMap::new(),
    };
    parser.document(graph)?;
    Ok(parser.prefixes)
}

/// Serialises a graph as N-Triples, one triple per line, in SPO order.
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph.iter() {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

/// Serialises a graph as Turtle-lite using the given prefix map: `@prefix`
/// headers followed by one (possibly shrunk) triple per line.
pub fn to_turtle(graph: &Graph, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (p, ns) in prefixes.iter() {
        out.push_str(&format!("@prefix {p}: <{ns}> .\n"));
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }
    let render = |term: &Term| -> String {
        if let Term::Iri(iri) = term {
            if let Some(short) = prefixes.shrink(iri) {
                return short;
            }
        }
        term.to_string()
    };
    for t in graph.iter() {
        out.push_str(&format!(
            "{} {} {} .\n",
            render(t.subject()),
            render(t.predicate()),
            render(t.object())
        ));
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Iri(String),
    PName(String),
    Blank(String),
    Literal {
        lexical: String,
        lang: Option<String>,
        datatype: Option<Box<Token>>,
    },
    Integer(String),
    A,
    Dot,
    Semi,
    Comma,
    PrefixDecl,
}

#[derive(Debug, Clone)]
struct Spanned {
    token: Token,
    line: usize,
}

fn tokenize(input: &str) -> Result<Vec<Spanned>, RdfError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    let mut line = 1usize;

    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            ch if ch.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for ch in chars.by_ref() {
                    if ch == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '<' => {
                chars.next();
                let mut iri = String::new();
                loop {
                    match chars.next() {
                        Some('>') => break,
                        Some('\n') | None => {
                            return Err(RdfError::parse(line, "unterminated IRI"));
                        }
                        Some(ch) => iri.push(ch),
                    }
                }
                tokens.push(Spanned {
                    token: Token::Iri(iri),
                    line,
                });
            }
            '"' => {
                chars.next();
                let mut lex = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => lex.push('"'),
                            Some('\\') => lex.push('\\'),
                            Some('n') => lex.push('\n'),
                            Some('r') => lex.push('\r'),
                            Some('t') => lex.push('\t'),
                            other => {
                                return Err(RdfError::parse(
                                    line,
                                    format!("bad escape: \\{:?}", other),
                                ))
                            }
                        },
                        Some('\n') | None => {
                            return Err(RdfError::parse(line, "unterminated string literal"));
                        }
                        Some(ch) => lex.push(ch),
                    }
                }
                // Optional @lang or ^^datatype.
                let mut lang = None;
                let mut datatype = None;
                if chars.peek() == Some(&'@') {
                    chars.next();
                    let mut tag = String::new();
                    while let Some(&ch) = chars.peek() {
                        if ch.is_ascii_alphanumeric() || ch == '-' {
                            tag.push(ch);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    if tag.is_empty() {
                        return Err(RdfError::parse(line, "empty language tag"));
                    }
                    lang = Some(tag);
                } else if chars.peek() == Some(&'^') {
                    chars.next();
                    if chars.next() != Some('^') {
                        return Err(RdfError::parse(line, "expected ^^ before datatype"));
                    }
                    if chars.peek() == Some(&'<') {
                        chars.next();
                        let mut iri = String::new();
                        loop {
                            match chars.next() {
                                Some('>') => break,
                                Some('\n') | None => {
                                    return Err(RdfError::parse(line, "unterminated datatype IRI"));
                                }
                                Some(ch) => iri.push(ch),
                            }
                        }
                        datatype = Some(Box::new(Token::Iri(iri)));
                    } else {
                        let name = read_name(&mut chars);
                        if !name.contains(':') {
                            return Err(RdfError::parse(line, "expected datatype after ^^"));
                        }
                        datatype = Some(Box::new(Token::PName(name)));
                    }
                }
                tokens.push(Spanned {
                    token: Token::Literal {
                        lexical: lex,
                        lang,
                        datatype,
                    },
                    line,
                });
            }
            '.' => {
                chars.next();
                tokens.push(Spanned {
                    token: Token::Dot,
                    line,
                });
            }
            ';' => {
                chars.next();
                tokens.push(Spanned {
                    token: Token::Semi,
                    line,
                });
            }
            ',' => {
                chars.next();
                tokens.push(Spanned {
                    token: Token::Comma,
                    line,
                });
            }
            '_' => {
                chars.next();
                if chars.next() != Some(':') {
                    return Err(RdfError::parse(line, "expected _: for blank node"));
                }
                let label = read_name(&mut chars);
                if label.is_empty() {
                    return Err(RdfError::parse(line, "empty blank node label"));
                }
                tokens.push(Spanned {
                    token: Token::Blank(label),
                    line,
                });
            }
            ch if ch.is_ascii_digit() || ch == '-' || ch == '+' => {
                let mut num = String::new();
                num.push(ch);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        num.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Spanned {
                    token: Token::Integer(num),
                    line,
                });
            }
            '@' => {
                chars.next();
                let word = read_name(&mut chars);
                if word == "prefix" {
                    tokens.push(Spanned {
                        token: Token::PrefixDecl,
                        line,
                    });
                } else {
                    return Err(RdfError::parse(line, format!("unknown directive @{word}")));
                }
            }
            _ => {
                let name = read_name(&mut chars);
                if name.is_empty() {
                    return Err(RdfError::parse(line, format!("unexpected character {c:?}")));
                }
                if name == "a" {
                    tokens.push(Spanned {
                        token: Token::A,
                        line,
                    });
                } else {
                    tokens.push(Spanned {
                        token: Token::PName(name),
                        line,
                    });
                }
            }
        }
    }
    Ok(tokens)
}

/// Reads a prefixed-name-ish token: letters, digits, `:`, `_`, `-`.
///
/// Dots are never part of a name here, so `e:s.` tokenises as the name
/// `e:s` followed by a statement-terminating `Dot`. Locals containing dots
/// must be written in full `<...>` form.
fn read_name(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> String {
    let mut name = String::new();
    while let Some(&ch) = chars.peek() {
        if ch.is_alphanumeric() || ch == ':' || ch == '_' || ch == '-' {
            name.push(ch);
            chars.next();
        } else {
            break;
        }
    }
    name
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    prefixes: PrefixMap,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The line of the next token; at the end of the input, the line
    /// of the last one (an error there points at where the text
    /// stopped, never at line 0).
    fn line(&self) -> usize {
        self.peek().or(self.tokens.last()).map_or(1, |s| s.line)
    }

    fn document(&mut self, graph: &mut Graph) -> Result<(), RdfError> {
        let mut loader = BatchLoader::new(graph);
        while let Some(spanned) = self.peek() {
            match &spanned.token {
                Token::PrefixDecl => {
                    self.next();
                    self.prefix_decl()?;
                }
                _ => self.statement(&mut loader)?,
            }
        }
        loader.flush();
        Ok(())
    }

    fn prefix_decl(&mut self) -> Result<(), RdfError> {
        let line = self.line();
        let Some(Spanned {
            token: Token::PName(pname),
            ..
        }) = self.next()
        else {
            return Err(RdfError::parse(line, "expected prefix name after @prefix"));
        };
        let prefix = pname
            .strip_suffix(':')
            .ok_or_else(|| RdfError::parse(line, "prefix declaration must end with ':'"))?;
        let Some(Spanned {
            token: Token::Iri(ns),
            ..
        }) = self.next()
        else {
            return Err(RdfError::parse(line, "expected namespace IRI in @prefix"));
        };
        match self.next() {
            Some(Spanned {
                token: Token::Dot, ..
            }) => {
                self.prefixes.insert(prefix, ns);
                Ok(())
            }
            _ => Err(RdfError::parse(line, "expected '.' after @prefix")),
        }
    }

    fn statement(&mut self, loader: &mut BatchLoader<'_>) -> Result<(), RdfError> {
        let line = self.line();
        let subject = self.term()?;
        loop {
            let predicate = self.term()?;
            loop {
                let object = self.term()?;
                let t = Triple::new(subject.clone(), predicate.clone(), object)
                    .map_err(|e| RdfError::parse(line, e.to_string()))?;
                loader.push(&t);
                match self.peek().map(|s| &s.token) {
                    Some(Token::Comma) => {
                        self.next();
                    }
                    _ => break,
                }
            }
            match self.next() {
                Some(Spanned {
                    token: Token::Semi, ..
                }) => {
                    // Allow trailing ';' before '.'.
                    if matches!(self.peek().map(|s| &s.token), Some(Token::Dot)) {
                        self.next();
                        return Ok(());
                    }
                    continue;
                }
                Some(Spanned {
                    token: Token::Dot, ..
                }) => return Ok(()),
                other => {
                    return Err(RdfError::parse(
                        other.map(|s| s.line).unwrap_or(line),
                        "expected '.', ';' or ',' after object",
                    ))
                }
            }
        }
    }

    fn term(&mut self) -> Result<Term, RdfError> {
        let line = self.line();
        match self.next() {
            Some(Spanned {
                token: Token::Iri(iri),
                ..
            }) => Ok(Term::Iri(Iri::new(iri))),
            Some(Spanned {
                token: Token::PName(name),
                ..
            }) => Ok(Term::Iri(self.prefixes.expand(&name)?)),
            Some(Spanned {
                token: Token::Blank(label),
                ..
            }) => Ok(Term::blank(label)),
            Some(Spanned {
                token: Token::A, ..
            }) => Ok(Term::iri(vocab::RDF_TYPE)),
            Some(Spanned {
                token: Token::Integer(num),
                ..
            }) => Ok(Term::Literal(Literal::typed(
                num,
                Iri::new(format!("{}integer", vocab::XSD_NS)),
            ))),
            Some(Spanned {
                token:
                    Token::Literal {
                        lexical,
                        lang,
                        datatype,
                    },
                ..
            }) => {
                let lit = match (lang, datatype) {
                    (Some(tag), _) => Literal::lang(lexical, tag),
                    (None, Some(dt)) => {
                        let iri = match *dt {
                            Token::Iri(iri) => Iri::new(iri),
                            Token::PName(name) => self.prefixes.expand(&name)?,
                            _ => unreachable!("tokenizer only emits Iri/PName datatypes"),
                        };
                        Literal::typed(lexical, iri)
                    }
                    (None, None) => Literal::plain(lexical),
                };
                Ok(Term::Literal(lit))
            }
            other => Err(RdfError::parse(
                other.map(|s| s.line).unwrap_or(line),
                "expected a term",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ntriples() {
        let g = parse("<http://e/s> <http://e/p> <http://e/o> .\n").unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/p"),
                Term::iri("http://e/o")
            )
            .unwrap()
        ));
    }

    #[test]
    fn parse_prefixes_and_a() {
        let src = "@prefix ex: <http://e/> .\nex:s a ex:Film .\n";
        let g = parse(src).unwrap();
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://e/s"),
                Term::iri(vocab::RDF_TYPE),
                Term::iri("http://e/Film")
            )
            .unwrap()
        ));
    }

    #[test]
    fn parse_semicolons_and_commas() {
        let src = "@prefix e: <http://e/> .\n\
                   e:s e:p e:a , e:b ;\n\
                      e:q e:c .\n";
        let g = parse(src).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn parse_literals() {
        let src = r#"@prefix e: <http://e/> .
e:s e:name "Spider\"man" .
e:s e:label "film"@en .
e:s e:age "39"^^<http://www.w3.org/2001/XMLSchema#integer> .
e:s e:year 2002 .
"#;
        let g = parse(src).unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/name"),
                Term::Literal(Literal::plain("Spider\"man"))
            )
            .unwrap()
        ));
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/label"),
                Term::Literal(Literal::lang("film", "en"))
            )
            .unwrap()
        ));
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://e/s"),
                Term::iri("http://e/year"),
                Term::Literal(Literal::typed(
                    "2002",
                    Iri::new("http://www.w3.org/2001/XMLSchema#integer")
                ))
            )
            .unwrap()
        ));
    }

    #[test]
    fn parse_blank_nodes() {
        let src = "_:x <http://e/p> _:y .\n";
        let g = parse(src).unwrap();
        assert!(g.contains(
            &Triple::new(Term::blank("x"), Term::iri("http://e/p"), Term::blank("y")).unwrap()
        ));
    }

    #[test]
    fn comments_ignored() {
        let src = "# a comment\n<http://e/s> <http://e/p> <http://e/o> . # trailing\n";
        let g = parse(src).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("<http://e/s> <http://e/p>\n<unterminated").unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_at_end_of_input_names_the_last_line() {
        let err = parse("<http://e/s> <http://e/p> <http://e/o> .\n<http://e/s> <http://e/p>")
            .unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        assert!(matches!(
            parse("nope:s nope:p nope:o .\n"),
            Err(RdfError::UnknownPrefix(_))
        ));
    }

    #[test]
    fn literal_subject_is_an_error() {
        assert!(parse("\"lit\" <http://e/p> <http://e/o> .\n").is_err());
    }

    #[test]
    fn ntriples_roundtrip() {
        let src = "@prefix e: <http://e/> .\ne:s e:p e:o .\ne:s e:p \"v\"@en .\n_:b e:p 42 .\n";
        let g = parse(src).unwrap();
        let nt = to_ntriples(&g);
        let g2 = parse(&nt).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn turtle_serialisation_shrinks() {
        let mut prefixes = PrefixMap::new();
        prefixes.insert("e", "http://e/");
        let g = parse("<http://e/s> <http://e/p> <http://e/o> .\n").unwrap();
        let ttl = to_turtle(&g, &prefixes);
        assert!(ttl.contains("@prefix e: <http://e/> ."));
        assert!(ttl.contains("e:s e:p e:o ."));
        let g2 = parse(&ttl).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn trailing_semicolon_before_dot() {
        let src = "@prefix e: <http://e/> .\ne:s e:p e:o ; .\n";
        let g = parse(src).unwrap();
        assert_eq!(g.len(), 1);
    }
}
