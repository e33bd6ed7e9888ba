//! # oodb — object-oriented database engine
//!
//! A from-scratch implementation of the object-oriented data model of
//! *Kifer, Kim & Sagiv, "Querying Object-Oriented Databases", SIGMOD 1992*
//! (§2): logical object ids (including id-terms built from explicit
//! id-functions, \[KW89\]), classes-as-objects organized in an acyclic IS-A
//! DAG, tuple-objects with scalar and set-valued k-ary methods (attributes
//! are 0-ary methods), the *defined / undefined / inapplicable* trichotomy,
//! behavioral inheritance with overriding and Meyer-style explicit conflict
//! resolution, structural (covariant) inheritance of signatures, and a
//! system catalogue that is part of the class hierarchy (`Object`, `Class`,
//! `Method`, plus the value classes `Numeral`, `String`, `Boolean`).
//!
//! The XSQL query language itself lives in the `xsql` crate; this crate is
//! the substrate it queries and updates.
//!
//! ```
//! use oodb::DbBuilder;
//!
//! let mut b = DbBuilder::new();
//! b.class("Person");
//! b.attr("Person", "Name", "String");
//! b.set_attr("Person", "FamMembers", "Person");
//! let mary = b.obj("mary123", "Person");
//! b.set_str(mary, "Name", "Mary");
//! let db = b.build();
//!
//! let name = db.oids().find_sym("Name").unwrap();
//! let v = db.value(mary, name, &[]).unwrap().unwrap();
//! assert_eq!(db.oids().as_str(v.as_scalar().unwrap()), Some("Mary"));
//! ```

#![warn(missing_docs)]

mod attr_index;
mod builder;
mod cow;
mod database;
mod epoch;
mod error;
mod extent;
mod oid;
mod redo;
mod schema;
mod snapshot;
mod undo;
mod value;

pub use attr_index::{AttrIndex, AttrStats, ValueKey};
pub use builder::DbBuilder;
pub use cow::{ChunkMap, ChunkSet};
pub use database::{Database, MethodImpl, RebuiltAttrIndex, MAX_INVOKE_DEPTH};
pub use epoch::{EpochCell, EpochDb};
pub use error::{DbError, DbResult};
pub use extent::{Extent, ExtentIter};
pub use oid::{Oid, OidData, OidTable};
pub use redo::RedoOp;
pub use schema::{Builtins, ClassInfo, Signature};
pub use snapshot::{ClassEntry, DbSnapshot};
pub use undo::{Savepoint, UndoLog};
pub use value::{Val, ValIter};
