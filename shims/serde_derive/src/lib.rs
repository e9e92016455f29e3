//! In-tree stand-in for `serde_derive`: `#[derive(Serialize)]` for the item
//! shapes the seagull crates use, written against the bare `proc_macro` API
//! (no `syn` / `quote`), re-exported by the `serde` stand-in. The generated
//! impls name `::serde`, the name every crate here imports that stand-in
//! under.
//!
//! Supported: structs with named fields, tuple and unit structs, and enums
//! with unit, tuple and struct variants; no generics. The one attribute
//! honoured is `#[serde(transparent)]` on a struct; any other `#[serde(..)]`
//! is ignored. The emitted JSON shapes are serde's defaults (see the `serde`
//! stand-in).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// The field names.
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
        transparent: bool,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// The words inside every `#[serde(...)]` among the attributes at `*i`,
/// which is advanced past all attributes.
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut serde_args = Vec::new();
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(attr)) = tokens.get(*i + 1) {
            let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
            if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
                (inner.first(), inner.get(1))
            {
                if id.to_string() == "serde" {
                    serde_args.push(args.stream().to_string());
                }
            }
        }
        *i += 2;
    }
    serde_args
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Splits at commas that are outside `<...>` (groups are single tokens).
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0i32;
    for token in tokens {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("never empty").push(token);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn parse_named(group: TokenStream) -> Vec<String> {
    split_commas(group.into_iter().collect())
        .into_iter()
        .map(|tokens| {
            let mut i = 0;
            take_attrs(&tokens, &mut i);
            skip_visibility(&tokens, &mut i);
            match tokens.get(i) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("serde stand-in: expected a field name, found {other:?}"),
            }
        })
        .collect()
}

fn parse_shape(token: Option<&TokenTree>) -> Shape {
    match token {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(split_commas(g.stream().into_iter().collect()).len())
        }
        _ => Shape::Unit,
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let args = take_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let keyword = tokens[i].to_string();
    let name = tokens[i + 1].to_string();
    if let Some(TokenTree::Punct(p)) = tokens.get(i + 2) {
        if p.as_char() == '<' {
            panic!("serde stand-in: generic type {name} is not supported");
        }
    }
    match keyword.as_str() {
        "struct" => Item::Struct {
            name,
            shape: parse_shape(tokens.get(i + 2)),
            transparent: args.iter().any(|a| a.trim() == "transparent"),
        },
        "enum" => {
            let Some(TokenTree::Group(body)) = tokens.get(i + 2) else {
                panic!("serde stand-in: enum {name} has no body");
            };
            let variants = split_commas(body.stream().into_iter().collect())
                .into_iter()
                .map(|tokens| {
                    let mut i = 0;
                    take_attrs(&tokens, &mut i);
                    Variant {
                        name: tokens[i].to_string(),
                        shape: parse_shape(tokens.get(i + 1)),
                    }
                })
                .collect();
            Item::Enum { name, variants }
        }
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    }
}

/// `Value` expression serializing named fields reachable as `{prefix}{name}`.
fn ser_named(fields: &[String], prefix: &str) -> String {
    let mut out = String::from("{ let mut __m = ::serde::Map::new();");
    for f in fields {
        out += &format!(
            "__m.insert(\"{0}\".to_string(), ::serde::__private::ser::<_, __S::Error>(&{1}{0})?);",
            f, prefix
        );
    }
    out + "::serde::Value::Object(__m) }"
}

/// `Value` expression serializing the tuple fields bound to `names`.
fn ser_tuple(names: &[String]) -> String {
    if names.len() == 1 {
        return format!("::serde::__private::ser::<_, __S::Error>({})?", names[0]);
    }
    let items: Vec<String> = names
        .iter()
        .map(|n| format!("::serde::__private::ser::<_, __S::Error>({n})?"))
        .collect();
    format!("::serde::Value::Array(vec![{}])", items.join(","))
}

fn bindings(len: usize) -> Vec<String> {
    (0..len).map(|i| format!("__f{i}")).collect()
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct {
            name,
            shape,
            transparent,
        } => {
            let value = match &shape {
                Shape::Named(fields) if transparent => {
                    format!(
                        "::serde::__private::ser::<_, __S::Error>(&self.{})?",
                        fields[0]
                    )
                }
                Shape::Named(fields) => ser_named(fields, "self."),
                Shape::Tuple(len) => {
                    let names: Vec<String> = (0..*len).map(|i| format!("&self.{i}")).collect();
                    ser_tuple(&names)
                }
                Shape::Unit => "::serde::Value::Null".to_string(),
            };
            (name, format!("let __value = {value};"))
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                arms += &match &v.shape {
                    Shape::Unit => {
                        format!("{name}::{vn} => ::serde::Value::String(\"{vn}\".to_string()),")
                    }
                    Shape::Tuple(len) => {
                        let names = bindings(*len);
                        format!(
                            "{name}::{vn}({}) => ::serde::__private::tagged(\"{vn}\", {}),",
                            names.join(","),
                            ser_tuple(&names)
                        )
                    }
                    Shape::Named(fields) => {
                        format!(
                            "{name}::{vn} {{ {} }} => ::serde::__private::tagged(\"{vn}\", {}),",
                            fields.join(","),
                            ser_named(fields, "")
                        )
                    }
                };
            }
            (name, format!("let __value = match self {{ {arms} }};"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(&self, __s: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{
                {body}
                __s.serialize_value(__value)
            }}
        }}"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}
