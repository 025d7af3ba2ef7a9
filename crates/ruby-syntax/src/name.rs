//! Shared names.
//!
//! Every name the parser reads — a class, a method, a local, a symbol, a
//! constant — is a [`Name`]: an immutable string behind an [`Arc`].  One
//! parse makes one `Name` per distinct name of its file, so every
//! occurrence in the AST shares one allocation, and the checker, the type
//! language (`rdl-types`, whose type names are `Name`s too) and the
//! analyses clone it, which copies a reference count, not the string.
//! Types cross threads in the parallel checker, hence `Arc`.  There is no
//! global interner: each parse's table is dropped when the parse ends, and
//! two equal names from two parses (or built separately) are two
//! allocations that compare equal.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloned string naming a class, a method, a
/// variable, a type variable, a symbol or a hash key.
///
/// It derefs to `str`, compares with `str`, `&str` and `String`, hashes and
/// orders as its string does, and prints under `Display` and `Debug`
/// exactly as a `String` holding the same text.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

/// Formats the arguments: a `format_args!` passed where a `Name` is taken
/// is formatted only if the callee converts it.
impl From<fmt::Arguments<'_>> for Name {
    fn from(args: fmt::Arguments<'_>) -> Self {
        Name::from(fmt::format(args))
    }
}

impl From<Name> for String {
    fn from(n: Name) -> Self {
        n.0.to_string()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == &*other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn prints_and_compares_as_its_string() {
        for text in ["emails", "ActiveRecord::Base", "quote\"d", "tab\t", ""] {
            let name = Name::from(text);
            let string = text.to_string();
            assert_eq!(format!("{name}"), format!("{string}"));
            assert_eq!(format!("{name:?}"), format!("{string:?}"));
            assert_eq!(format!("{name:>12}|{name:<3}"), format!("{string:>12}|{string:<3}"));
            assert!(name == text && name == *text && name == string);
            assert!(text == name && *text == name && string == name);
        }
        assert_eq!(Name::from("a").cmp(&Name::from("b")), "a".cmp("b"));
    }

    #[test]
    fn clones_share_the_text_and_maps_probe_by_str() {
        let name = Name::from(String::from("users"));
        let copy = name.clone();
        assert!(std::ptr::eq(name.as_str(), copy.as_str()));
        let mut map = HashMap::new();
        map.insert(name, 1);
        assert_eq!(map.get("users"), Some(&1));
    }
}
