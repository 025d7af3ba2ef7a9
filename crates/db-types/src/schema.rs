//! The database schema and association registry.
//!
//! This is the stand-in for a real RDBMS: CompRDL's query comp types only
//! ever consult the *schema* (which tables exist, which columns they have
//! and their types) and the declared Rails associations, never the data, so
//! an in-memory registry exercises exactly the same type-level code paths
//! the paper's `RDL.db_schema` table does.

use rdl_types::{Fingerprint, Type};
use sql_tc::{SqlSchema, SqlType};
use std::collections::BTreeMap;

/// The type of a database column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Integer columns (primary keys, foreign keys, counters).
    Integer,
    /// String / text columns.
    String,
    /// Boolean columns.
    Boolean,
    /// Floating point columns.
    Float,
    /// Timestamps (modelled as strings at the Ruby level).
    DateTime,
}

impl ColumnType {
    /// The RDL type of values stored in such a column.
    pub fn to_rdl_type(self) -> Type {
        match self {
            ColumnType::Integer => Type::nominal("Integer"),
            ColumnType::String => Type::nominal("String"),
            ColumnType::Boolean => Type::Bool,
            ColumnType::Float => Type::nominal("Float"),
            ColumnType::DateTime => Type::nominal("String"),
        }
    }

    /// The SQL type used by the raw-SQL checker.
    pub fn to_sql_type(self) -> SqlType {
        match self {
            ColumnType::Integer => SqlType::Integer,
            ColumnType::String => SqlType::Text,
            ColumnType::Boolean => SqlType::Boolean,
            ColumnType::Float => SqlType::Float,
            ColumnType::DateTime => SqlType::Text,
        }
    }
}

/// An association between two model classes (`has_many` / `belongs_to`),
/// which Rails requires before two tables may be joined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Association {
    /// The model class declaring the association.
    pub from_class: String,
    /// The association name (the symbol passed to `joins`).
    pub name: String,
    /// The target table.
    pub target_table: String,
}

/// The schema + association registry (the analogue of `RDL.db_schema`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbRegistry {
    tables: BTreeMap<String, Vec<(String, ColumnType)>>,
    models: BTreeMap<String, String>,
    associations: Vec<Association>,
}

impl DbRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DbRegistry::default()
    }

    /// Declares a table and its columns.
    pub fn add_table(&mut self, name: &str, columns: &[(&str, ColumnType)]) {
        self.tables
            .insert(name.to_string(), columns.iter().map(|(c, t)| (c.to_string(), *t)).collect());
    }

    /// Declares a model class backed by `table`.
    pub fn add_model(&mut self, class: &str, table: &str) {
        self.models.insert(class.to_string(), table.to_string());
    }

    /// Declares an association from `class` under `name` targeting `table`.
    pub fn add_association(&mut self, class: &str, name: &str, table: &str) {
        self.associations.push(Association {
            from_class: class.to_string(),
            name: name.to_string(),
            target_table: table.to_string(),
        });
    }

    /// True if `class` declared an association named `name`.
    pub fn has_association(&self, class: &str, name: &str) -> bool {
        self.associations.iter().any(|a| a.from_class == class && a.name == name)
    }

    /// The table name backing a model class, using the declared mapping or
    /// a simple pluralization (the paper notes Rails knows `person` →
    /// `people`).
    pub fn table_for_class(&self, class: &str) -> String {
        if let Some(t) = self.models.get(class) {
            return t.clone();
        }
        pluralize(&class.to_lowercase())
    }

    /// The table name for an association symbol (`:emails` → `emails`).
    pub fn table_for_symbol(&self, sym: &str) -> String {
        if self.tables.contains_key(sym) {
            return sym.to_string();
        }
        pluralize(sym)
    }

    /// The columns of a table, if known.
    pub fn columns(&self, table: &str) -> Option<&[(String, ColumnType)]> {
        self.tables.get(table).map(|v| v.as_slice())
    }

    /// True if the table exists.
    pub fn has_table(&self, table: &str) -> bool {
        self.tables.contains_key(table)
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// All registered model class names.
    pub fn model_names(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// A digest of everything the DB helpers read: every table with its
    /// column names and types, the model → table map and the associations.
    /// It is stable across processes (the tables and models are kept in
    /// `BTreeMap`s, the associations in declaration order), so the helpers'
    /// cache keys can cover it.
    pub fn digest(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.write_usize(self.tables.len());
        for (table, columns) in &self.tables {
            h.write_str(table);
            h.write_usize(columns.len());
            for (column, ty) in columns {
                h.write_str(column);
                h.write_u8(*ty as u8);
            }
        }
        h.write_usize(self.models.len());
        for (class, table) in &self.models {
            h.write_str(class);
            h.write_str(table);
        }
        h.write_usize(self.associations.len());
        for a in &self.associations {
            h.write_str(&a.from_class);
            h.write_str(&a.name);
            h.write_str(&a.target_table);
        }
        h.finish()
    }

    /// Converts the registry into the schema format used by the raw-SQL
    /// checker.
    pub fn to_sql_schema(&self) -> SqlSchema {
        let mut schema = SqlSchema::new();
        for (table, columns) in &self.tables {
            let cols: Vec<(&str, SqlType)> =
                columns.iter().map(|(c, t)| (c.as_str(), t.to_sql_type())).collect();
            schema.add_table(table, &cols);
        }
        schema
    }
}

/// A (deliberately simple) English pluralizer covering the nouns used by the
/// corpus apps; Rails' inflector is far richer but only the mapping matters.
pub fn pluralize(word: &str) -> String {
    match word {
        "person" => "people".to_string(),
        "child" => "children".to_string(),
        _ => {
            if word.ends_with('y') && !word.ends_with("ay") && !word.ends_with("ey") {
                format!("{}ies", &word[..word.len() - 1])
            } else if word.ends_with('s') || word.ends_with("ch") || word.ends_with('x') {
                format!("{word}es")
            } else {
                format!("{word}s")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::{HashKey, TypeStore};

    fn sample() -> DbRegistry {
        let mut db = DbRegistry::new();
        db.add_table(
            "users",
            &[
                ("id", ColumnType::Integer),
                ("username", ColumnType::String),
                ("staged", ColumnType::Boolean),
            ],
        );
        db.add_table(
            "emails",
            &[
                ("id", ColumnType::Integer),
                ("email", ColumnType::String),
                ("user_id", ColumnType::Integer),
            ],
        );
        db.add_model("User", "users");
        db.add_association("User", "emails", "emails");
        db
    }

    #[test]
    fn table_and_model_lookup() {
        let db = sample();
        assert!(db.has_table("users"));
        assert_eq!(db.table_for_class("User"), "users");
        assert_eq!(db.table_for_class("Email"), "emails");
        assert_eq!(db.table_for_symbol("emails"), "emails");
        assert_eq!(db.table_for_symbol("email"), "emails");
        assert!(db.has_association("User", "emails"));
        assert!(!db.has_association("User", "apartments"));
    }

    #[test]
    fn pluralization() {
        assert_eq!(pluralize("user"), "users");
        assert_eq!(pluralize("person"), "people");
        assert_eq!(pluralize("topic"), "topics");
        assert_eq!(pluralize("category"), "categories");
        assert_eq!(pluralize("box"), "boxes");
    }

    /// Evaluates `schema_type(t)` for the class singleton `class`, as the
    /// checker does at a query's call site.
    fn schema_type(env: &comprdl::CompRdl, store: &mut TypeStore, class: &str) -> Type {
        let expr = ruby_syntax::parse_expr("schema_type(t)").unwrap();
        let bindings = [("t".to_string(), comprdl::TlcValue::Type(Type::class_of(class)))].into();
        comprdl::eval_comp_type(store, &env.classes, &env.helpers, bindings, &expr).unwrap()
    }

    #[test]
    fn schema_type_makes_every_column_optional() {
        let mut env = comprdl::CompRdl::new();
        crate::helpers::register_helpers(&mut env, std::sync::Arc::new(sample()));
        let mut store = TypeStore::new();
        let Type::FiniteHash(id) = schema_type(&env, &mut store, "User") else { panic!() };
        let data = store.finite_hash(id);
        let optional = |name: &str| Type::Optional(Box::new(Type::nominal(name)));
        assert_eq!(data.entries.len(), 3);
        assert_eq!(data.get(&HashKey::Sym("id".into())), Some(&optional("Integer")));
        assert_eq!(data.get(&HashKey::Sym("username".into())), Some(&optional("String")));
        assert_eq!(
            data.get(&HashKey::Sym("staged".into())),
            Some(&Type::Optional(Box::new(Type::Bool)))
        );
        let no_table = schema_type(&env, &mut store, "Widget");
        assert_eq!(no_table, Type::hash(Type::nominal("Symbol"), Type::object()));
    }

    #[test]
    fn sql_schema_conversion() {
        let db = sample();
        let sql = db.to_sql_schema();
        assert!(sql.has_table("users"));
        assert_eq!(sql.column_type(&["users".to_string()], "username"), Some(SqlType::Text));
        assert_eq!(sql.column_type(&["users".to_string()], "id"), Some(SqlType::Integer));
    }

    #[test]
    fn column_type_conversions() {
        assert_eq!(ColumnType::Integer.to_rdl_type(), Type::nominal("Integer"));
        assert_eq!(ColumnType::Boolean.to_rdl_type(), Type::Bool);
        assert_eq!(ColumnType::DateTime.to_sql_type(), SqlType::Text);
    }
}
