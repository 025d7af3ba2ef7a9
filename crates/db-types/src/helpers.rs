//! Native type-level helper methods for the database query DSLs.
//!
//! These are the helpers the paper's Figure 1b relies on (`schema_type`,
//! `RDL.db_schema`) plus the raw-SQL checker entry point of §2.3
//! (`sql_typecheck`) and the association check mentioned in §2.1.

use crate::schema::DbRegistry;
use comprdl::{CompRdl, TlcError, TlcValue};
use rdl_types::{SingVal, Type};
use sql_tc::SqlType;
use std::sync::Arc;

/// Registers the DB helpers into `env`, capturing the schema registry.
/// The registry is shared via [`Arc`] so the helpers stay `Send + Sync`
/// and the assembled environment can be used from parallel checking runs.
/// Every helper that reads the registry is registered with its
/// [`DbRegistry::digest`], so a schema edit moves the cache keys of the
/// methods that reach it.
pub fn register_helpers(env: &mut CompRdl, db: Arc<DbRegistry>) {
    let schema = db.digest();
    // schema_type(t) — Figure 1b: Table<T> → T; a class or symbol singleton
    // → the finite hash type of its table's columns (all keys optional, so
    // query hashes may mention any subset of columns); anything else →
    // Hash<Symbol, Object>.
    let registry = db.clone();
    env.helpers.register_native_with_state("schema_type", schema, move |ctx, args| {
        let t = expect_type(args, 0)?;
        let resolved = ctx.store.resolve(&t);
        match resolved {
            Type::Generic { base, args } if base == "Table" && !args.is_empty() => {
                Ok(TlcValue::Type(args[0].clone()))
            }
            Type::FiniteHash(_) => Ok(TlcValue::Type(resolved)),
            Type::Singleton(SingVal::Class(class)) => {
                let table = registry.table_for_class(&class);
                schema_hash(&registry, &table, ctx)
            }
            Type::Singleton(SingVal::Sym(sym)) => {
                let table = registry.table_for_symbol(&sym);
                schema_hash(&registry, &table, ctx)
            }
            _ => Ok(TlcValue::Type(Type::hash(Type::nominal("Symbol"), Type::object()))),
        }
    });

    // db_schema(name) — the raw `RDL.db_schema` lookup used by helper code.
    let registry = db.clone();
    env.helpers.register_native_with_state("db_schema", schema, move |ctx, args| {
        let name = match args.first() {
            Some(TlcValue::Sym(s)) => s.clone(),
            Some(TlcValue::Str(s)) => s.clone(),
            Some(TlcValue::Type(Type::Singleton(SingVal::Sym(s)))) => s.to_string(),
            _ => return Err(TlcError::new("db_schema expects a table name symbol")),
        };
        schema_hash(&registry, &registry.table_for_symbol(&name), ctx)
    });

    // table_of(t) — Table<schema_type(t)>.
    let registry = db.clone();
    env.helpers.register_native_with_state("table_of", schema, move |ctx, args| {
        let t = expect_type(args, 0)?;
        let resolved = ctx.store.resolve(&t);
        let schema = match resolved {
            Type::Generic { base, args } if base == "Table" && !args.is_empty() => args[0].clone(),
            Type::Singleton(SingVal::Class(class)) => {
                let table = registry.table_for_class(&class);
                match schema_hash(&registry, &table, ctx)? {
                    TlcValue::Type(t) => t,
                    _ => Type::hash(Type::nominal("Symbol"), Type::object()),
                }
            }
            Type::FiniteHash(_) => resolved,
            _ => Type::hash(Type::nominal("Symbol"), Type::object()),
        };
        Ok(TlcValue::Type(Type::table(schema)))
    });

    // row_type(t) — the type of a single fetched row: the model class for a
    // class-singleton receiver, otherwise a generic attribute hash.
    env.register_helper_native("row_type", move |ctx, args| {
        let t = expect_type(args, 0)?;
        match ctx.store.resolve(&t) {
            Type::Singleton(SingVal::Class(class)) => Ok(TlcValue::Type(Type::nominal(class))),
            _ => Ok(TlcValue::Type(Type::hash(Type::nominal("Symbol"), Type::object()))),
        }
    });

    // joins_type(tself, t) — Figure 1b's `joins` computation, extended with
    // the association check: joining is only allowed when the receiver model
    // declared an association with the argument's name.
    let registry = db.clone();
    env.helpers.register_native_with_state("joins_type", schema, move |ctx, args| {
        let tself = expect_type(args, 0)?;
        let t = expect_type(args, 1)?;
        let t = ctx.store.resolve(&t);
        let Type::Singleton(SingVal::Sym(assoc)) = &t else {
            // Fallback case: a non-singleton argument yields a bare Table.
            return Ok(TlcValue::Type(Type::nominal("Table")));
        };
        // Association check (only when the receiver is a model class).
        if let Type::Singleton(SingVal::Class(class)) = ctx.store.resolve(&tself) {
            if !registry.has_association(&class, assoc) {
                return Err(TlcError::new(format!(
                    "cannot join: {class} has no declared association `{assoc}`"
                )));
            }
        }
        let own_schema = call_schema_type(ctx, &tself)?;
        let assoc_schema = call_schema_type(ctx, &t)?;
        let joined = match (own_schema, &assoc_schema) {
            (Type::FiniteHash(id), _) => {
                let mut entries = ctx.store.finite_hash(id).entries.to_vec();
                entries.push((
                    rdl_types::HashKey::Sym(assoc.clone()),
                    Type::Optional(Box::new(assoc_schema)),
                ));
                ctx.store.new_finite_hash(entries)
            }
            (other, _) => other,
        };
        Ok(TlcValue::Type(Type::table(joined)))
    });

    // sql_typecheck(tself, t) — §2.3: completes and type checks a raw SQL
    // fragment against the schema; a well-typed fragment simply has type
    // String, a mistyped one aborts type checking with a detailed message.
    let registry = db;
    env.helpers.register_native_with_state("sql_typecheck", schema, move |ctx, args| {
        let t = expect_type(args, 1)?;
        let fragment = match ctx.store.resolve(&t) {
            Type::ConstString(id) => match ctx.store.const_string_value(id) {
                Some(s) => s.to_string(),
                None => return Ok(TlcValue::Type(Type::nominal("String"))),
            },
            _ => return Ok(TlcValue::Type(Type::nominal("String"))),
        };
        let tables = registry.table_names();
        let schema = registry.to_sql_schema();
        // Placeholder argument types are not tracked through the vararg
        // parameters, so they check as Unknown (compatible with anything).
        let errors = sql_tc::check_fragment(&schema, &tables, &fragment, &[SqlType::Unknown; 8]);
        if errors.is_empty() {
            Ok(TlcValue::Type(Type::nominal("String")))
        } else {
            let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            // `check_fragment` maps spans back into fragment coordinates;
            // hand the first located one to the checker so the diagnostic
            // can point inside the Ruby string literal.
            let mut err =
                TlcError::new(format!("SQL type error in {fragment:?}: {}", msgs.join("; ")));
            if let Some(located) = errors.iter().find(|e| !e.span.is_dummy()) {
                err = err.with_sql_span(located.span);
            }
            Err(err)
        }
    });
}

fn expect_type(args: &[TlcValue], i: usize) -> Result<Type, TlcError> {
    match args.get(i) {
        Some(TlcValue::Type(t)) => Ok(t.clone()),
        Some(TlcValue::ClassRef(c)) => Ok(Type::class_of(c.clone())),
        Some(TlcValue::Sym(s)) => Ok(Type::sym(s.clone())),
        other => Err(TlcError::new(format!("expected a type argument, got {other:?}"))),
    }
}

fn schema_hash(
    registry: &DbRegistry,
    table: &str,
    ctx: &mut comprdl::TlcCtx<'_>,
) -> Result<TlcValue, TlcError> {
    match registry.columns(table) {
        Some(columns) => {
            let entries = columns
                .iter()
                .map(|(name, ty)| {
                    (
                        rdl_types::HashKey::Sym(name.into()),
                        Type::Optional(Box::new(ty.to_rdl_type())),
                    )
                })
                .collect();
            Ok(TlcValue::Type(ctx.store.new_finite_hash(entries)))
        }
        None => Ok(TlcValue::Type(Type::hash(Type::nominal("Symbol"), Type::object()))),
    }
}

fn call_schema_type(ctx: &mut comprdl::TlcCtx<'_>, t: &Type) -> Result<Type, TlcError> {
    match ctx.call_helper("schema_type", &[TlcValue::Type(t.clone())])? {
        TlcValue::Type(t) => Ok(t),
        other => Err(TlcError::new(format!("schema_type returned a non-type {other:?}"))),
    }
}
