//! # ruby-interp
//!
//! A tree-walking interpreter for the Ruby subset defined in
//! [`ruby_syntax`], with:
//!
//! * a faithful-enough object model (classes, inheritance, instance and
//!   class-level state, blocks and closures, attr accessors),
//! * native implementations of the core library methods that CompRDL
//!   annotates with comp types (Array, Hash, String, Integer, Float, ...),
//! * a [`DynamicCheckHook`] interface through which the CompRDL rewriter
//!   attaches run-time checks to library call sites, so the evaluation
//!   harness can run subject-program test suites with and without checks
//!   (paper Table 2, "Test Time No Chk" vs "w/Chk").
//!
//! ## Resolving and dispatch
//!
//! [`ResolvedProgram::new`] turns a program, once, into the tree the
//! interpreter walks; the AST itself is never walked or copied.  Resolving
//! moves the classes and methods into an immutable method table and keeps
//! the top-level expressions.  It gives every local a slot in its scope (a
//! method body or the top level; blocks share their defining scope's
//! slots), so frames hold slot vectors and no local read or write hashes a
//! name.  Symbol literals, instance-variable names and constant paths
//! become `Rc<str>` handles, so evaluating one copies no string.
//! Interpreters can share one resolved program
//! ([`Interpreter::with_program`]); [`Interpreter::new`] resolves its own.
//!
//! The table holds per-class instance and singleton method maps and
//! `attr_*` declarations.  A user-object or class receiver searches its
//! ancestors in a fixed order: the class, its superclass chain (at most 64
//! steps, so a cycle ends the walk), `Numeric` for `Integer` and `Float`,
//! then `Object`.  A builtin receiver (`3`, `"s"`, `[]`, ...) sees only
//! methods that user code defines on its own class.  A call no user method
//! matches goes to the native core library.  No lookup allocates.  The
//! native Array, Hash and String methods borrow their receiver; only the
//! block-taking ones iterate over a copy, because the block may mutate the
//! receiver.  Closures share their resolved block with the program (`Rc`)
//! instead of copying it.  A `break` in a block literal ends the call the
//! block was passed to, with `nil` as that call's value.  Fuel counts one
//! unit per AST node evaluated (plus one per `while` iteration and block
//! call), so a suite's fuel is a deterministic measure of its work.
//!
//! ## Quick start
//!
//! ```
//! use ruby_interp::{Interpreter, Value};
//!
//! let prog = ruby_syntax::parse_program_strict(
//!     "def fib(n)\n  if n < 2 then n else fib(n - 1) + fib(n - 2) end\nend\nfib(10)",
//! ).unwrap();
//! let interp = Interpreter::new(prog);
//! assert_eq!(interp.eval_program().unwrap(), Value::Int(55));
//! ```

#![warn(missing_docs)]

pub mod contracts;
mod corelib;
pub mod error;
mod interp;
mod resolve;
mod value;

pub use contracts::DynamicCheckHook;
pub use error::{Control, ErrorKind, EvalResult, RubyError};
pub use interp::Interpreter;
pub use resolve::ResolvedProgram;
pub use value::Value;
