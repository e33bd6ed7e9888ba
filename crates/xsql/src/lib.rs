//! # xsql — the query language of the SIGMOD'92 paper
//!
//! Parser, resolver, evaluator and typing system for XSQL, the
//! object-oriented query language of *Kifer, Kim & Sagiv, "Querying
//! Object-Oriented Databases" (SIGMOD 1992)*.
//!
//! The front door is [`Session`]:
//!
//! ```
//! use oodb::Database;
//! use xsql::{Outcome, Session};
//!
//! let mut s = Session::new(Database::new());
//! s.run_script(
//!     "CREATE CLASS Person;
//!      ALTER CLASS Person ADD SIGNATURE Name => String;
//!      ALTER CLASS Person ADD SIGNATURE Age => Numeral;
//!      CREATE OBJECT ada CLASS Person SET Name = 'Ada', Age = 36;",
//! )?;
//! let answer = s.query("SELECT X FROM Person X WHERE X.Age > 30")?;
//! assert_eq!(answer.len(), 1);
//!
//! // The §6 typing system, via EXPLAIN:
//! let Outcome::Explained { report } =
//!     s.run("EXPLAIN SELECT X FROM Person X WHERE X.Age > 30")?
//! else { unreachable!() };
//! assert!(report.contains("strictly well-typed"));
//! # Ok::<(), xsql::XsqlError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod error;
mod lexer;
mod parser;
mod resolve;
pub mod token;

pub use dump::dump_script;
pub use error::{XsqlError, XsqlResult};
pub use eval::{
    eval_select, eval_select_ranged, CancelFlag, EvalBudget, EvalOptions, Ranges, Strategy,
};
pub use lexer::lex;
pub use parser::{parse, parse_script, parses_on_this_thread};
pub use resolve::resolve_stmt;
pub use session::{Outcome, RecoveryInfo, Session};
pub use unparse::{unparse_query, unparse_stmt};
mod dump;
pub mod eval;
pub mod plan;
mod prepared;
mod session;
pub mod typing;
mod unparse;
