//! Vendored offline stand-in for `serde_derive`.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a minimal derive that targets the simplified data
//! model in `shims/serde` (`to_value`/`from_value` over a JSON-like
//! `Value`). It parses the item's token stream by hand — no `syn`/`quote`
//! — and supports exactly the shapes this repository uses:
//!
//! * structs with named fields (honouring `#[serde(default)]`,
//!   `#[serde(alias = "old_name")]` and
//!   `#[serde(skip_serializing_if = "path")]` per field)
//! * tuple structs (newtype or wider)
//! * enums whose variants are all unit variants
//!
//! Anything else (generics, data-carrying enum variants) produces a
//! `compile_error!` so unsupported usage fails loudly at build time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    NamedStruct { name: String, fields: Vec<Field> },
    TupleStruct { name: String, arity: usize },
    UnitEnum { name: String, variants: Vec<String> },
}

struct Field {
    name: String,
    /// `#[serde(default)]` was present on the field.
    default: bool,
    /// Extra keys `#[serde(alias = "...")]` accepts when deserializing.
    aliases: Vec<String>,
    /// `#[serde(skip_serializing_if = "...")]`: the predicate whose
    /// `true` leaves the field out when serializing.
    skip_if: Option<String>,
}

/// The per-field options one `#[serde(...)]` attribute spells.
#[derive(Default)]
struct FieldAttrs {
    default: bool,
    aliases: Vec<String>,
    skip_if: Option<String>,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(msg) => error(&msg),
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(msg) => error(&msg),
    }
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let kind = match &toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match &toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: expected item name".into()),
    };
    i += 1;
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generic item `{name}` is unsupported"
        ));
    }
    match kind.as_str() {
        "struct" => match &toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok(Item::NamedStruct {
                    name,
                    fields: parse_named_fields(g.stream())?,
                })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                })
            }
            _ => Err(format!(
                "serde shim derive: unsupported struct body for `{name}`"
            )),
        },
        "enum" => match &toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::UnitEnum {
                name: name.clone(),
                variants: parse_unit_variants(g.stream(), &name)?,
            }),
            _ => Err(format!(
                "serde shim derive: expected enum body for `{name}`"
            )),
        },
        _ => Err("serde shim derive: expected `struct` or `enum`".into()),
    }
}

/// Skip outer `#[...]` attributes and a `pub` / `pub(...)` visibility prefix.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => *i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => break,
        }
    }
}

/// Fold the options of one field attribute group into `attrs`: `default`,
/// `alias = "..."` and `skip_serializing_if = "..."` inside `serde(...)`;
/// other attributes are ignored.
fn read_serde_attr(stream: TokenStream, attrs: &mut FieldAttrs) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let inner: Vec<TokenTree> = match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) if id.to_string() == "serde" => {
            g.stream().into_iter().collect()
        }
        _ => return,
    };
    for (j, t) in inner.iter().enumerate() {
        let TokenTree::Ident(w) = t else { continue };
        let value = match (inner.get(j + 1), inner.get(j + 2)) {
            (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
                Some(lit.to_string().trim_matches('"').to_string())
            }
            _ => None,
        };
        match (w.to_string().as_str(), value) {
            ("default", None) => attrs.default = true,
            ("alias", Some(v)) => attrs.aliases.push(v),
            ("skip_serializing_if", Some(v)) => attrs.skip_if = Some(v),
            _ => {}
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut attrs = FieldAttrs::default();
        while let Some(TokenTree::Punct(p)) = toks.get(i) {
            if p.as_char() != '#' {
                break;
            }
            if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
                read_serde_attr(g.stream(), &mut attrs);
            }
            i += 2;
        }
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => {
                return Err(format!(
                    "serde shim derive: expected field name, got `{other}`"
                ))
            }
        };
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => {
                return Err(format!(
                    "serde shim derive: expected `:` after field `{name}`"
                ))
            }
        }
        // Skim the type: skip token trees until a comma at angle-bracket
        // depth zero (commas inside `<...>` belong to generic arguments;
        // commas inside `(...)` are hidden inside a single Group tree).
        let mut depth = 0i32;
        while let Some(t) = toks.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field {
            name,
            default: attrs.default,
            aliases: attrs.aliases,
            skip_if: attrs.skip_if,
        });
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut arity = 0usize;
    let mut saw_any = false;
    for t in stream {
        match t {
            TokenTree::Punct(ref p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(ref p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(ref p) if p.as_char() == ',' && depth == 0 => arity += 1,
            _ => saw_any = true,
        }
    }
    if saw_any {
        arity + 1
    } else {
        0
    }
}

fn parse_unit_variants(stream: TokenStream, enum_name: &str) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => {
                return Err(format!(
                    "serde shim derive: expected variant name, got `{other}`"
                ))
            }
        };
        i += 1;
        if matches!(toks.get(i), Some(TokenTree::Group(_))) {
            return Err(format!(
                "serde shim derive: enum `{enum_name}` has data-carrying variant `{name}`, \
                 only unit variants are supported"
            ));
        }
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(name);
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    let push = format!(
                        "__fields.push(({n:?}.to_string(), ::serde::Serialize::to_value(&self.{n})));\n",
                        n = f.name
                    );
                    match &f.skip_if {
                        Some(pred) => format!("if !{pred}(&self.{n}) {{ {push} }}\n", n = f.name),
                        None => push,
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                         {pushes}\
                         ::serde::Value::Obj(__fields)\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                "::serde::Serialize::to_value(&self.0)".to_string()
            } else {
                let elems: Vec<String> = (0..*arity)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect();
                format!("::serde::Value::Arr(vec![{}])", elems.join(", "))
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::UnitEnum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},\n"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Str(match self {{ {arms} }}.to_string())\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let inits: String = fields
                .iter()
                .map(|f| {
                    let missing = if f.default {
                        "::std::default::Default::default()".to_string()
                    } else {
                        format!(
                            "return ::std::result::Result::Err(::serde::DeError::missing({:?}, {:?}))",
                            f.name, name
                        )
                    };
                    let lookup: String = f.aliases.iter().fold(
                        format!("::serde::obj_get(__obj, {:?})", f.name),
                        |found, alias| format!("{found}.or_else(|| ::serde::obj_get(__obj, {alias:?}))"),
                    );
                    format!(
                        "{n}: match {lookup} {{\n\
                             ::std::option::Option::Some(__x) => ::serde::Deserialize::from_value(__x)?,\n\
                             ::std::option::Option::None => {missing},\n\
                         }},\n",
                        n = f.name
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         let __obj = __v.as_obj().ok_or_else(|| ::serde::DeError::expected(\"object\", {name:?}))?;\n\
                         ::std::result::Result::Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Item::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
            } else {
                let elems: Vec<String> = (0..*arity)
                    .map(|i| format!("::serde::Deserialize::from_value(&__arr[{i}])?"))
                    .collect();
                format!(
                    "let __arr = __v.as_arr().ok_or_else(|| ::serde::DeError::expected(\"array\", {name:?}))?;\n\
                     if __arr.len() != {arity} {{\n\
                         return ::std::result::Result::Err(::serde::DeError::expected(\"array of length {arity}\", {name:?}));\n\
                     }}\n\
                     ::std::result::Result::Ok({name}({elems}))",
                    elems = elems.join(", ")
                )
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
                 }}"
            )
        }
        Item::UnitEnum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         let __s = __v.as_str().ok_or_else(|| ::serde::DeError::expected(\"string\", {name:?}))?;\n\
                         match __s {{\n\
                             {arms}\
                             __other => ::std::result::Result::Err(::serde::DeError::unknown_variant(__other, {name:?})),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
