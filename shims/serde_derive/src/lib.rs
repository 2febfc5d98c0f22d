//! Offline stand-in for `serde_derive` (see `shims/README.md`).
//!
//! Hand-rolled token parsing (no `syn`/`quote` — the registry is
//! unreachable). Supports exactly the type shapes the workspace derives:
//! non-generic named-field structs, tuple structs, unit structs, and enums
//! with unit/tuple/struct variants, plus the container-level
//! `#[serde(untagged)]` attribute and the field-level
//! `#[serde(skip_serializing)]` and
//! `#[serde(skip_serializing_if = "path")]` attributes. Anything else
//! panics at compile time with a clear message rather than silently
//! mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (shim data model: `fn serialize(&self, w:
/// &mut serde::Writer)`, which writes JSON as it walks the value).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    render_serialize(&item)
        .parse()
        .expect("serde_derive shim: generated code must parse")
}

struct Field {
    name: String,
    /// Predicate path from `#[serde(skip_serializing_if = "path")]`: when
    /// it returns true for the field's value, the key is omitted entirely.
    skip_if: Option<String>,
}

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    untagged: bool,
    shape: Shape,
}

/// Skip a run of outer attributes; return whether any was `#[serde(untagged)]`.
fn skip_attrs(tokens: &[TokenTree], idx: &mut usize) -> bool {
    let mut untagged = false;
    while let Some(TokenTree::Punct(p)) = tokens.get(*idx) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = tokens.get(*idx + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if let Some(TokenTree::Ident(name)) = inner.first() {
                if name.to_string() == "serde" {
                    if let Some(TokenTree::Group(args)) = inner.get(1) {
                        if args.stream().into_iter().any(
                            |t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "untagged"),
                        ) {
                            untagged = true;
                        } else {
                            panic!(
                                "serde_derive shim: unsupported #[serde(...)] attribute \
                                 (only `untagged` is implemented): {args}"
                            );
                        }
                    }
                }
            }
            *idx += 2;
        } else {
            break;
        }
    }
    untagged
}

/// What a field's `#[serde(...)]` attribute asks of the serializer.
enum FieldAttr {
    /// No serde attribute: always emit the key.
    Emit,
    /// `#[serde(skip_serializing)]`: never emit the key.
    Skip,
    /// `#[serde(skip_serializing_if = "path")]`: omit when `path` is true.
    SkipIf(String),
}

/// Skip a run of field-level attributes; return what the `#[serde(...)]`
/// one among them, if any, asked for.
fn skip_field_attrs(tokens: &[TokenTree], idx: &mut usize) -> FieldAttr {
    let mut attr = FieldAttr::Emit;
    while let Some(TokenTree::Punct(p)) = tokens.get(*idx) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = tokens.get(*idx + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if let Some(TokenTree::Ident(name)) = inner.first() {
                if name.to_string() == "serde" {
                    if let Some(TokenTree::Group(args)) = inner.get(1) {
                        attr = parse_field_attr(args.stream());
                    }
                }
            }
            *idx += 2;
        } else {
            break;
        }
    }
    attr
}

/// Parse `skip_serializing` or `skip_serializing_if = "path"` — the only
/// field-level serde attributes the shim implements.
fn parse_field_attr(stream: TokenStream) -> FieldAttr {
    let args: Vec<TokenTree> = stream.clone().into_iter().collect();
    match (args.first(), args.get(1), args.get(2), args.len()) {
        (Some(TokenTree::Ident(key)), None, None, 1) if key.to_string() == "skip_serializing" => {
            FieldAttr::Skip
        }
        (
            Some(TokenTree::Ident(key)),
            Some(TokenTree::Punct(eq)),
            Some(TokenTree::Literal(path)),
            3,
        ) if key.to_string() == "skip_serializing_if" && eq.as_char() == '=' => {
            FieldAttr::SkipIf(path.to_string().trim_matches('"').to_string())
        }
        _ => panic!(
            "serde_derive shim: unsupported field #[serde(...)] attribute (only \
             `skip_serializing` and `skip_serializing_if = \"...\"` are \
             implemented): {stream}"
        ),
    }
}

/// Skip an optional `pub` / `pub(crate)` visibility.
fn skip_vis(tokens: &[TokenTree], idx: &mut usize) {
    if matches!(tokens.get(*idx), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *idx += 1;
        if matches!(tokens.get(*idx), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *idx += 1;
        }
    }
}

/// Count depth-0 fields of a tuple body (commas outside angle brackets).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut angle = 0i32;
    let mut fields = 0usize;
    let mut any = false;
    for t in stream {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    fields += 1;
                    any = false;
                    continue;
                }
                _ => {}
            }
        }
        any = true;
    }
    if any {
        fields += 1;
    }
    fields
}

/// Parse the names (and per-field serde attributes) of named fields from
/// a brace-group body.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut idx = 0;
    let mut names = Vec::new();
    while idx < tokens.len() {
        let attr = skip_field_attrs(&tokens, &mut idx);
        skip_vis(&tokens, &mut idx);
        let name = match tokens.get(idx) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected field name, found {other:?}"),
        };
        idx += 1;
        match tokens.get(idx) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => idx += 1,
            other => {
                panic!("serde_derive shim: expected ':' after field `{name}`, found {other:?}")
            }
        }
        // Skip the type: consume until a depth-0 comma.
        let mut angle = 0i32;
        while let Some(t) = tokens.get(idx) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                }
            }
            idx += 1;
        }
        idx += 1; // the comma (or past-the-end)
        let skip_if = match attr {
            FieldAttr::Skip => continue,
            FieldAttr::SkipIf(pred) => Some(pred),
            FieldAttr::Emit => None,
        };
        names.push(Field { name, skip_if });
    }
    names
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut idx = 0;
    let mut variants = Vec::new();
    while idx < tokens.len() {
        skip_attrs(&tokens, &mut idx);
        let name = match tokens.get(idx) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected variant name, found {other:?}"),
        };
        idx += 1;
        let fields = match tokens.get(idx) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                idx += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                idx += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        match tokens.get(idx) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => idx += 1,
            None => {}
            other => panic!(
                "serde_derive shim: expected ',' after variant `{name}` \
                 (discriminants are unsupported), found {other:?}"
            ),
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut idx = 0;
    let untagged = skip_attrs(&tokens, &mut idx);
    skip_vis(&tokens, &mut idx);
    let kind = match tokens.get(idx) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, found {other:?}"),
    };
    idx += 1;
    let name = match tokens.get(idx) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected type name, found {other:?}"),
    };
    idx += 1;
    if matches!(tokens.get(idx), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(idx) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(Fields::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Struct(Fields::Tuple(count_tuple_fields(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Struct(Fields::Unit),
            other => panic!("serde_derive shim: malformed struct `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(idx) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: malformed enum `{name}`: {other:?}"),
        },
        other => panic!("serde_derive shim: `{other}` items are not supported"),
    };
    Item {
        name,
        untagged,
        shape,
    }
}

/// Statements writing `values` (expressions that are references) as one
/// array, or as the bare value when there is exactly one.
fn write_tuple(values: &[String]) -> String {
    if let [value] = values {
        return format!("::serde::Serialize::serialize({value}, __w);");
    }
    let items: String = values.iter().map(|v| format!("__w.item({v});")).collect();
    format!("__w.begin_array(); {items} __w.end_array();")
}

/// Statements writing a named-field object. `prefix` is how a field is
/// reached (`"&self."` for structs, `""` for enum-variant bindings, which
/// are already references under match ergonomics); a `skip_if` field is
/// written only when its predicate is false.
fn write_named(fields: &[Field], prefix: &str) -> String {
    let members: String = fields
        .iter()
        .map(|f| {
            let name = &f.name;
            let write = format!("__w.field(\"{name}\", {prefix}{name});");
            match &f.skip_if {
                Some(pred) => format!("if !{pred}({prefix}{name}) {{ {write} }}"),
                None => write,
            }
        })
        .collect();
    format!("__w.begin_object(); {members} __w.end_object();")
}

fn render_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Fields::Unit) => "__w.null();".to_string(),
        Shape::Struct(Fields::Tuple(n)) => {
            let values: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            write_tuple(&values)
        }
        Shape::Struct(Fields::Named(fields)) => write_named(fields, "&self."),
        Shape::Enum(variants) => {
            let mut arms = Vec::new();
            for v in variants {
                let vname = &v.name;
                let (pattern, inner) = match &v.fields {
                    Fields::Unit => (format!("{name}::{vname}"), None),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let pattern = format!("{name}::{vname}({})", binds.join(", "));
                        (pattern, Some(write_tuple(&binds)))
                    }
                    Fields::Named(fields) => {
                        // `..` covers `skip_serializing` fields, which are not bound.
                        let mut binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        binds.push("..");
                        let pattern = format!("{name}::{vname} {{ {} }}", binds.join(", "));
                        (pattern, Some(write_named(fields, "")))
                    }
                };
                let write = match (inner, item.untagged) {
                    (None, false) => format!("__w.str(\"{vname}\");"),
                    (None, true) => "__w.null();".to_string(),
                    (Some(inner), true) => inner,
                    (Some(inner), false) => format!(
                        "__w.begin_object(); __w.key(\"{vname}\"); {inner} __w.end_object();"
                    ),
                };
                arms.push(format!("{pattern} => {{ {write} }}"));
            }
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}\n\
         }}"
    )
}
