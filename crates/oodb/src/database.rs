//! The object-oriented database engine.
//!
//! A [`Database`] holds the OID interner, the class hierarchy (classes are
//! objects), the instance-of relation, explicitly stored method values
//! (tuple-object state), and computed methods (methods whose
//! implementation is a query, §5). It implements the semantic judgments
//! the paper relies on:
//!
//! * *defined / undefined / inapplicable* for attributes and methods (§2);
//! * behavioral inheritance with overriding and explicit conflict
//!   resolution (§2 "Inheritance", §6.1);
//! * structural inheritance — signatures closed over the IS-A DAG (§6.1);
//! * the active domain enumerations used by the naive query semantics of
//!   §3.4 (individual-, class- and method-variables range over the three
//!   sub-universes of objects).

use crate::attr_index::{AttrIndex, AttrStats, ValueKey};
use crate::cow::{ChunkMap, ChunkSet};
use crate::error::{DbError, DbResult};
use crate::extent::Extent;
use crate::oid::{Oid, OidData, OidTable};
use crate::redo::RedoOp;
use crate::schema::{Builtins, ClassInfo, Schema, Signature};
use crate::snapshot::{ClassEntry, DbSnapshot};
use crate::undo::{Savepoint, UndoLog, UndoOp};
use crate::value::Val;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Maximum depth of nested computed-method invocation; guards against
/// accidental recursion in user-defined methods. Each level re-enters
/// the query evaluator, so the bound is conservative to keep well clear
/// of the thread stack.
pub const MAX_INVOKE_DEPTH: usize = 24;

/// Implementation of a computed method (§5: methods are defined similarly
/// to queries). The XSQL crate installs query-backed implementations;
/// native Rust closures can be installed too.
pub trait MethodImpl: Send + Sync {
    /// Invokes the method in the scope of `recv` with `args`. Returns
    /// `Ok(None)` when the method is *undefined* on these arguments (a
    /// null, not an error). `depth` is the current invocation depth.
    fn invoke(&self, db: &Database, recv: Oid, args: &[Oid], depth: usize)
        -> DbResult<Option<Val>>;

    /// Invocation for update methods, which may change database state
    /// (§5, `RaiseMngrSalary`). Defaults to the read-only path.
    fn invoke_mut(
        &self,
        db: &mut Database,
        recv: Oid,
        args: &[Oid],
        depth: usize,
    ) -> DbResult<Option<Val>> {
        self.invoke(db, recv, args, depth)
    }

    /// True if this method has side effects and must go through
    /// [`Database::invoke_update`].
    fn is_update(&self) -> bool {
        false
    }
}

type StateKey = (Oid, Oid, Vec<Oid>);

/// The ordered-index oracle: method -> typed key -> receivers, as
/// rebuilt from the stored state by [`Database::rebuilt_attr_index`].
pub type RebuiltAttrIndex = HashMap<Oid, BTreeMap<ValueKey, BTreeSet<Oid>>>;

/// True for the classes whose extent closure the database keeps: every
/// class but the catalogue ones, whose instances come from elsewhere
/// (the active domain, the class list, the method catalogue).
fn keeps_closure(b: &Builtins, c: Oid) -> bool {
    c != b.object && c != b.class && c != b.method
}

/// A lower bound below every posting of `method` in the ordered index
/// (`Num(0)` is the smallest typed key).
fn first_posting(method: Oid) -> Bound<(Oid, ValueKey, Oid)> {
    Bound::Included((method, ValueKey::Num(0), Oid::MIN))
}

/// True when `k` lies beyond the upper bound `end`.
fn past_end(end: Bound<&ValueKey>, k: &ValueKey) -> bool {
    match end {
        Bound::Included(hi) => k > hi,
        Bound::Excluded(hi) => k >= hi,
        Bound::Unbounded => false,
    }
}

/// An in-memory object-oriented database.
///
/// Cloning is cheap and the clones are independent: every large part is
/// a [`ChunkMap`] or [`ChunkSet`] (see the `cow` module), so a clone
/// copies one small directory per collection, and a later write copies
/// only the bounded chunks it touches, plus the schema on a
/// definitional change.
#[derive(Clone)]
pub struct Database {
    oids: OidTable,
    schema: Arc<Schema>,
    /// Direct classes of each registered object.
    instance_of: ChunkMap<Oid, BTreeSet<Oid>>,
    /// Direct extent of each class (the inverse of `instance_of`).
    extent: ChunkMap<Oid, ChunkSet<Oid>>,
    /// Extent closure of each class: its instances, directly or through
    /// IS-A (the range of `FROM C X`, §3.4). The union of the direct
    /// extents of the class and its subclasses, kept for every class
    /// but `Object`, `Class` and `Method` ([`keeps_closure`]), and
    /// maintained where those change: `add_membership` /
    /// `remove_membership` (which undo, redo and purges go through),
    /// IS-A edits (`edit_hierarchy`) and snapshot import.
    /// [`Database::extent_closure_divergence`] checks it against a
    /// rebuild.
    closure: ChunkMap<Oid, ChunkSet<Oid>>,
    /// Active domain of individual objects (registered individuals plus
    /// every literal that has appeared in stored state).
    individuals: ChunkSet<Oid>,
    /// Explicit tuple-object state: (receiver, method, args) -> value.
    state: ChunkMap<StateKey, Val>,
    /// Inverted index: `(method, receiver)` for every receiver with any
    /// stored entry for the method (class-objects included — their
    /// instances inherit the default), so one method's receivers are one
    /// contiguous run. The paper's own reference point is \[BERT89\],
    /// "Indexing Techniques for Queries on Nested Objects".
    by_method: ChunkSet<(Oid, Oid)>,
    /// Ordered secondary index: `(method, typed value key, receiver)`
    /// postings (see [`crate::attr_index`]). Numeral members collapse
    /// onto one numeric key, so equality probes are numeral-insensitive
    /// and range predicates scan a contiguous key run.
    by_method_key: AttrIndex,
    /// Active undo log; `Some` while a transaction is open, in which
    /// case every mutating entry point records its inverse here.
    undo: Option<UndoLog>,
    /// Redo buffer; `Some` while redo recording is enabled, in which
    /// case every mutating entry point appends its image here (see
    /// `crate::redo`). Collected by the durability layer.
    redo: Option<Vec<RedoOp>>,
    /// Monotonic counter of *definitional* changes: class definitions,
    /// IS-A edges, signatures, computed-method installs, inheritance
    /// resolutions — and, conservatively, any rollback (which may have
    /// reverted one of those). Prepared statements record this value
    /// when they are resolved, so a schema change instantly invalidates
    /// every statement resolved against the old schema (see
    /// `docs/PREPARED.md`). Not persisted: a freshly opened database
    /// starts at 0.
    schema_epoch: u64,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("oids", &self.oids.len())
            .field("classes", &self.schema.class_order.len())
            .field("individuals", &self.individuals.len())
            .field("state_entries", &self.state.len())
            .field("computed_methods", &self.schema.computed_order.len())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates a database with the builtin catalogue: `Object` (root of
    /// all individuals) with value subclasses `Numeral`, `String`,
    /// `Boolean`, plus the meta-classes `Class` and `Method` that make
    /// the system catalogue part of the class hierarchy (§2).
    pub fn new() -> Self {
        let mut oids = OidTable::new();
        let object = oids.sym("Object");
        let class = oids.sym("Class");
        let method = oids.sym("Method");
        let numeral = oids.sym("Numeral");
        let string = oids.sym("String");
        let boolean = oids.sym("Boolean");
        let nil = oids.nil();
        let mut schema = Schema::new(Builtins {
            object,
            class,
            method,
            numeral,
            string,
            boolean,
            nil,
        });
        for (c, supers) in [
            (object, vec![]),
            (class, vec![]),
            (method, vec![]),
            (numeral, vec![object]),
            (string, vec![object]),
            (boolean, vec![object]),
        ] {
            schema.classes.insert(
                c,
                ClassInfo {
                    supers,
                    ..ClassInfo::default()
                },
            );
            schema.class_order.push(c);
        }
        for (c, sups) in [(object, vec![numeral, string, boolean])] {
            for s in sups {
                schema.classes.get_mut(&c).unwrap().subs.push(s);
            }
        }
        schema.recompute_closure();
        Database::with_parts(oids, schema)
    }

    /// A database with the given interner and schema and nothing else.
    fn with_parts(oids: OidTable, schema: Schema) -> Database {
        Database {
            oids,
            schema: Arc::new(schema),
            instance_of: ChunkMap::new(),
            extent: ChunkMap::new(),
            closure: ChunkMap::new(),
            individuals: ChunkSet::new(),
            state: ChunkMap::new(),
            by_method: ChunkSet::new(),
            by_method_key: ChunkSet::new(),
            undo: None,
            redo: None,
            schema_epoch: 0,
        }
    }

    /// The schema, unshared for a definitional change.
    fn schema_mut(&mut self) -> &mut Schema {
        Arc::make_mut(&mut self.schema)
    }

    /// Applies an edit of the IS-A graph (classes or edges), recomputes
    /// the IS-A closure, and rebuilds the extent closure of every class
    /// that gained or lost a populated descendant.
    fn edit_hierarchy(&mut self, edit: impl FnOnce(&mut Schema)) {
        let before = self.schema.ancestors.clone();
        let schema = self.schema_mut();
        edit(schema);
        schema.recompute_closure();
        let after = &self.schema.ancestors;
        let empty = BTreeSet::new();
        let mut stale = BTreeSet::new();
        for d in before.keys().chain(after.keys()) {
            let (old, new) = (
                before.get(d).unwrap_or(&empty),
                after.get(d).unwrap_or(&empty),
            );
            if old != new && self.extent.contains_key(d) {
                stale.extend(old.symmetric_difference(new).copied());
            }
        }
        for a in stale {
            self.rebuild_closure(a);
        }
    }

    /// Recomputes the extent closure of `a` from the direct extents.
    fn rebuild_closure(&mut self, a: Oid) {
        let mut members = BTreeSet::new();
        if self.is_class(a) && keeps_closure(&self.schema.builtins, a) {
            for (&d, ext) in self.extent.iter() {
                if self.is_subclass(d, a) {
                    members.extend(ext.iter().copied());
                }
            }
        }
        if members.is_empty() {
            self.closure.remove(&a);
        } else {
            self.closure.insert(a, ChunkSet::from_sorted(members));
        }
    }

    // ------------------------------------------------------------------
    // OID access
    // ------------------------------------------------------------------

    /// Read access to the OID interner.
    pub fn oids(&self) -> &OidTable {
        &self.oids
    }

    /// Write access to the OID interner (interning never invalidates
    /// existing handles).
    pub fn oids_mut(&mut self) -> &mut OidTable {
        &mut self.oids
    }

    /// The builtin catalogue classes.
    pub fn builtins(&self) -> Builtins {
        self.schema.builtins
    }

    /// Renders an OID for messages/results.
    pub fn render(&self, o: Oid) -> String {
        self.oids.render(o)
    }

    // ------------------------------------------------------------------
    // Transactions (undo log; see `crate::undo`)
    // ------------------------------------------------------------------

    /// Opens an undo log (if none is open) and returns a [`Savepoint`]
    /// at the current position. While the log is open every mutating
    /// entry point records its inverse, so the span up to the returned
    /// mark can be unwound with [`Database::rollback_to`].
    pub fn begin(&mut self) -> Savepoint {
        let log = self.undo.get_or_insert_with(UndoLog::default);
        Savepoint(log.ops.len())
    }

    /// A [`Savepoint`] at the current position of the open log
    /// (opening one if necessary — equivalent to [`Database::begin`];
    /// the separate name marks intent at call sites: `begin` starts a
    /// span, `savepoint` subdivides one).
    pub fn savepoint(&mut self) -> Savepoint {
        self.begin()
    }

    /// Undoes every mutation recorded after `sp`, in reverse order. The
    /// log stays open (an enclosing span can still be rolled back
    /// further). Rolling back to a *stale* mark — one taken before the
    /// last [`Database::commit`], or beyond an earlier rollback — is an
    /// error ([`DbError::StaleSavepoint`]): the log no longer reaches
    /// that position, so honoring it silently would be a lie.
    pub fn rollback_to(&mut self, sp: Savepoint) -> DbResult<()> {
        let tail = match &mut self.undo {
            Some(log) if log.ops.len() >= sp.0 => log.ops.split_off(sp.0),
            _ => return Err(DbError::StaleSavepoint),
        };
        // Conservative: the reverted span may have contained definitional
        // changes, and re-deriving that from the tail is not worth the
        // complexity — a rollback is rare enough that one spurious plan
        // recompile does not matter.
        if !tail.is_empty() {
            self.bump_schema_epoch();
        }
        for op in tail.into_iter().rev() {
            self.apply_undo(op);
        }
        Ok(())
    }

    /// Closes the undo log, making everything recorded since
    /// [`Database::begin`] permanent. Recording stops until the next
    /// `begin`/`savepoint`; outstanding savepoints become stale.
    pub fn commit(&mut self) {
        self.undo = None;
    }

    /// True while an undo log is open.
    pub fn in_transaction(&self) -> bool {
        self.undo.is_some()
    }

    /// The current schema epoch: bumped by every definitional change
    /// (class/IS-A/signature/computed-method) and conservatively by
    /// every rollback. Prepared statements record this value when they
    /// are resolved, so a stale statement can never execute (see
    /// `docs/PREPARED.md`).
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch
    }

    /// Marks a definitional change. Called from every schema mutator,
    /// including the redo-replay paths, so the epoch moves identically
    /// under live execution and crash recovery.
    fn bump_schema_epoch(&mut self) {
        self.schema_epoch += 1;
    }

    /// Number of inverse operations recorded so far (0 when no log is
    /// open). Exposed for tests and diagnostics.
    pub fn undo_depth(&self) -> usize {
        self.undo.as_ref().map_or(0, |l| l.len())
    }

    fn record(&mut self, op: UndoOp) {
        if let Some(log) = &mut self.undo {
            log.ops.push(op);
        }
    }

    // ------------------------------------------------------------------
    // Redo recording (durability; see `crate::redo`)
    // ------------------------------------------------------------------

    /// Enables or disables redo recording. While enabled, every mutating
    /// entry point appends its image to the redo buffer; the durability
    /// layer drains the buffer per committed statement with
    /// [`Database::take_redo_from`]. Disabling drops any buffered ops.
    pub fn set_redo_logging(&mut self, on: bool) {
        if on {
            if self.redo.is_none() {
                self.redo = Some(Vec::new());
            }
        } else {
            self.redo = None;
        }
    }

    /// True while redo recording is enabled.
    pub fn redo_logging(&self) -> bool {
        self.redo.is_some()
    }

    /// Number of redo ops buffered so far (0 when recording is off).
    /// Callers mark this before a statement and drain or truncate back
    /// to the mark afterwards.
    pub fn redo_len(&self) -> usize {
        self.redo.as_ref().map_or(0, |b| b.len())
    }

    /// Discards every redo op recorded at or after `mark` (used when a
    /// statement fails: the undo log already rolled the state back, so
    /// the redo span is void). No-op when recording is off.
    pub fn truncate_redo(&mut self, mark: usize) {
        if let Some(buf) = &mut self.redo {
            buf.truncate(mark);
        }
    }

    /// Removes and returns every redo op recorded at or after `mark`
    /// (the image of one committed statement). Empty when recording is
    /// off or nothing was recorded.
    pub fn take_redo_from(&mut self, mark: usize) -> Vec<RedoOp> {
        match &mut self.redo {
            Some(buf) if buf.len() > mark => buf.split_off(mark),
            _ => Vec::new(),
        }
    }

    fn emit(&mut self, op: RedoOp) {
        if let Some(buf) = &mut self.redo {
            buf.push(op);
        }
    }

    /// True when [`Database::emit`] would record; call sites guard
    /// op construction with this when building the op clones data.
    fn redo_on(&self) -> bool {
        self.redo.is_some()
    }

    /// Applies one redo image. Works on the raw fields (plus the
    /// derived-index helpers), so nothing here records into either log;
    /// every variant is idempotent, so replaying a log twice is safe.
    /// Structural preconditions (referenced classes exist) are checked
    /// because recovery feeds this from disk.
    pub fn apply_redo(&mut self, op: &RedoOp) -> DbResult<()> {
        // Definitional redo ops move the schema epoch exactly like their
        // live counterparts, so prepared statements stay sound under WAL
        // replay.
        if matches!(
            op,
            RedoOp::DefineClass { .. }
                | RedoOp::AddIsA { .. }
                | RedoOp::AddSignature { .. }
                | RedoOp::AddMethodObject(_)
                | RedoOp::SetResolution { .. }
        ) {
            self.bump_schema_epoch();
        }
        match op {
            RedoOp::DefineClass { class, supers } => {
                if self.schema.classes.contains_key(class) {
                    return Ok(());
                }
                for s in supers {
                    if !self.schema.classes.contains_key(s) {
                        return Err(DbError::UnknownClass(self.render(*s)));
                    }
                }
                self.edit_hierarchy(|schema| {
                    schema.classes.insert(
                        *class,
                        ClassInfo {
                            supers: supers.clone(),
                            ..ClassInfo::default()
                        },
                    );
                    schema.class_order.push(*class);
                    for s in supers {
                        schema.classes.get_mut(s).unwrap().subs.push(*class);
                    }
                });
            }
            RedoOp::AddIsA { sub, sup } => {
                for c in [sub, sup] {
                    if !self.schema.classes.contains_key(c) {
                        return Err(DbError::UnknownClass(self.render(*c)));
                    }
                }
                if !self.schema.classes[sub].supers.contains(sup) {
                    self.edit_hierarchy(|schema| {
                        schema.classes.get_mut(sub).unwrap().supers.push(*sup);
                        schema.classes.get_mut(sup).unwrap().subs.push(*sub);
                    });
                }
            }
            RedoOp::PutState { key, val } => {
                let (recv, method) = (key.0, key.1);
                if let Some(old) = self.state.insert(key.clone(), val.clone()) {
                    self.index_remove(recv, method, &old);
                }
                self.index_insert(recv, method, val);
            }
            RedoOp::RemoveState { key } => {
                if let Some(old) = self.state.remove(key) {
                    self.index_remove(key.0, key.1, &old);
                }
            }
            RedoOp::AddIndividual(o) => {
                self.individuals.insert(*o);
            }
            RedoOp::RemoveIndividual(o) => {
                self.individuals.remove(o);
            }
            RedoOp::AddMembership { o, class } => {
                self.add_membership(*o, *class);
            }
            RedoOp::RemoveMembership { o, class } => {
                self.remove_membership(*o, *class);
            }
            RedoOp::AddMethodObject(m) => {
                self.schema_mut().method_objects.insert(*m);
            }
            RedoOp::AddSignature { class, sig } => {
                let info = self
                    .schema_mut()
                    .classes
                    .get_mut(class)
                    .ok_or_else(|| DbError::UnknownClass(format!("{class:?}")))?;
                if !info.sigs.contains(sig) {
                    info.sigs.push(sig.clone());
                }
            }
            RedoOp::SetResolution {
                class,
                method,
                from,
            } => {
                let info = self
                    .schema_mut()
                    .classes
                    .get_mut(class)
                    .ok_or_else(|| DbError::UnknownClass(format!("{class:?}")))?;
                info.resolutions.insert(*method, *from);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshots (durability; see `crate::snapshot`)
    // ------------------------------------------------------------------

    /// Exports the complete persistent state as plain data. Computed
    /// methods are not included (see [`DbSnapshot`]); neither log is.
    pub fn export_snapshot(&self) -> DbSnapshot {
        let classes = self
            .schema
            .class_order
            .iter()
            .map(|&c| {
                let info = &self.schema.classes[&c];
                let mut resolutions: Vec<(Oid, Oid)> =
                    info.resolutions.iter().map(|(&m, &f)| (m, f)).collect();
                resolutions.sort();
                ClassEntry {
                    class: c,
                    supers: info.supers.clone(),
                    sigs: info.sigs.clone(),
                    resolutions,
                }
            })
            .collect();
        let mut instance_of: Vec<(Oid, Vec<Oid>)> = self
            .instance_of
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(&o, s)| (o, s.iter().copied().collect()))
            .collect();
        instance_of.sort_by_key(|e| e.0);
        DbSnapshot {
            oids: self.oids.entries().cloned().collect(),
            classes,
            instance_of,
            individuals: self.individuals.iter().copied().collect(),
            method_objects: self.schema.method_objects.iter().copied().collect(),
            state: self
                .state
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Rebuilds a live database from a snapshot, recomputing every
    /// derived index (IS-A closure, extents, method indexes). The
    /// resulting database has no computed methods and no open logs;
    /// callers replay definitional statements afterwards.
    pub fn import_snapshot(snap: DbSnapshot) -> DbResult<Database> {
        let mut oids = OidTable::from_entries(snap.oids);
        let mut schema = Schema::new(Builtins {
            object: oids.sym("Object"),
            class: oids.sym("Class"),
            method: oids.sym("Method"),
            numeral: oids.sym("Numeral"),
            string: oids.sym("String"),
            boolean: oids.sym("Boolean"),
            nil: oids.nil(),
        });
        schema.method_objects = snap.method_objects.into_iter().collect();
        for ce in snap.classes {
            schema.classes.insert(
                ce.class,
                ClassInfo {
                    supers: ce.supers,
                    subs: Vec::new(),
                    sigs: ce.sigs,
                    resolutions: ce.resolutions.into_iter().collect(),
                },
            );
            schema.class_order.push(ce.class);
        }
        // Rebuild direct-subclass lists from the supers edges, then the
        // IS-A closure. Iterating class_order keeps the order
        // deterministic.
        let order = schema.class_order.clone();
        for &c in &order {
            for s in schema.classes[&c].supers.clone() {
                schema
                    .classes
                    .get_mut(&s)
                    .ok_or_else(|| DbError::UnknownClass(format!("{s:?}")))?
                    .subs
                    .push(c);
            }
        }
        schema.recompute_closure();
        let mut db = Database::with_parts(oids, schema);
        // Every collection is built in one ordered pass (`from_sorted`);
        // the image lists objects and state entries in key order.
        db.individuals = ChunkSet::from_sorted(snap.individuals);
        let mut extents: BTreeMap<Oid, Vec<Oid>> = BTreeMap::new();
        let mut instance_of = Vec::with_capacity(snap.instance_of.len());
        for (o, classes) in snap.instance_of {
            for &c in &classes {
                if !db.schema.classes.contains_key(&c) {
                    return Err(DbError::UnknownClass(db.render(c)));
                }
                extents.entry(c).or_default().push(o);
            }
            if !classes.is_empty() {
                instance_of.push((o, classes.into_iter().collect::<BTreeSet<Oid>>()));
            }
        }
        db.instance_of = ChunkMap::from_sorted(instance_of);
        let mut closures: HashMap<Oid, Vec<Oid>> = HashMap::new();
        for (&c, members) in &extents {
            for &a in &db.schema.ancestors[&c] {
                if keeps_closure(&db.schema.builtins, a) {
                    closures.entry(a).or_default().extend(members);
                }
            }
        }
        db.closure = ChunkMap::from_sorted(closures.into_iter().map(|(a, mut members)| {
            members.sort_unstable();
            members.dedup();
            (a, ChunkSet::from_sorted(members))
        }));
        db.extent = ChunkMap::from_sorted(
            extents
                .into_iter()
                .map(|(c, members)| (c, ChunkSet::from_sorted(members))),
        );
        // The method indexes, gathered in state order and sorted once by
        // `from_sorted`.
        let mut by_method = Vec::with_capacity(snap.state.len());
        let mut by_key = Vec::with_capacity(snap.state.len());
        for ((recv, method, _), val) in &snap.state {
            by_method.push((*method, *recv));
            for m in val.members() {
                by_key.push((*method, ValueKey::of(&db.oids, m), *recv));
            }
        }
        db.by_method = ChunkSet::from_sorted(by_method);
        db.by_method_key = ChunkSet::from_sorted(by_key);
        db.state = ChunkMap::from_sorted(snap.state);
        Ok(db)
    }

    /// Applies one inverse operation. Works on the raw fields (plus the
    /// derived-index helpers), so nothing here records into the log.
    fn apply_undo(&mut self, op: UndoOp) {
        match op {
            UndoOp::UndefineClass(c) => {
                if self.is_class(c) {
                    self.edit_hierarchy(|schema| {
                        let info = schema.classes.remove(&c).expect("checked above");
                        schema.class_order.retain(|&x| x != c);
                        for s in info.supers {
                            if let Some(si) = schema.classes.get_mut(&s) {
                                si.subs.retain(|&x| x != c);
                            }
                        }
                    });
                    self.closure.remove(&c);
                }
            }
            UndoOp::RemoveIsA { sub, sup } => {
                self.edit_hierarchy(|schema| {
                    if let Some(i) = schema.classes.get_mut(&sub) {
                        i.supers.retain(|&x| x != sup);
                    }
                    if let Some(i) = schema.classes.get_mut(&sup) {
                        i.subs.retain(|&x| x != sub);
                    }
                });
            }
            UndoOp::RestoreState { key, old } => {
                let (recv, method) = (key.0, key.1);
                if let Some(cur) = self.state.remove(&key) {
                    self.index_remove(recv, method, &cur);
                }
                if let Some(v) = old {
                    self.state.insert(key, v.clone());
                    self.index_insert(recv, method, &v);
                }
            }
            UndoOp::RestoreIndividual { o, present } => {
                if present {
                    self.individuals.insert(o);
                } else {
                    self.individuals.remove(&o);
                }
            }
            UndoOp::RestoreMembership { o, class, present } => {
                if present {
                    self.add_membership(o, class);
                } else {
                    self.remove_membership(o, class);
                }
            }
            UndoOp::RestoreMethodObject { m, present } => {
                let objects = &mut self.schema_mut().method_objects;
                if present {
                    objects.insert(m);
                } else {
                    objects.remove(&m);
                }
            }
            UndoOp::RemoveSignature { class, sig } => {
                if let Some(i) = self.schema_mut().classes.get_mut(&class) {
                    if let Some(pos) = i.sigs.iter().rposition(|s| *s == sig) {
                        i.sigs.remove(pos);
                    }
                }
            }
            UndoOp::RestoreResolution { class, method, old } => {
                if let Some(i) = self.schema_mut().classes.get_mut(&class) {
                    match old {
                        Some(from) => {
                            i.resolutions.insert(method, from);
                        }
                        None => {
                            i.resolutions.remove(&method);
                        }
                    }
                }
            }
            UndoOp::RestoreComputed { key, old } => {
                let schema = self.schema_mut();
                match old {
                    Some(imp) => {
                        schema.computed.insert(key, imp);
                    }
                    None => {
                        schema.computed.remove(&key);
                        if let Some(pos) = schema.computed_order.iter().rposition(|k| *k == key) {
                            schema.computed_order.remove(pos);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Schema: classes and IS-A
    // ------------------------------------------------------------------

    /// Defines a new class. With no superclasses it is placed directly
    /// under `Object`, so every class of individuals reaches the root
    /// (the paper's `Object` "contains all individual objects").
    pub fn define_class(&mut self, name: &str, supers: &[Oid]) -> DbResult<Oid> {
        let c = self.oids.sym(name);
        if self.schema.classes.contains_key(&c) {
            return Err(DbError::DuplicateClass(name.to_string()));
        }
        let supers = if supers.is_empty() {
            vec![self.schema.builtins.object]
        } else {
            supers.to_vec()
        };
        for s in &supers {
            if !self.schema.classes.contains_key(s) {
                return Err(DbError::UnknownClass(self.render(*s)));
            }
        }
        self.edit_hierarchy(|schema| {
            schema.classes.insert(
                c,
                ClassInfo {
                    supers: supers.clone(),
                    ..ClassInfo::default()
                },
            );
            schema.class_order.push(c);
            for &s in &supers {
                schema.classes.get_mut(&s).unwrap().subs.push(c);
            }
        });
        self.record(UndoOp::UndefineClass(c));
        self.emit(RedoOp::DefineClass { class: c, supers });
        self.bump_schema_epoch();
        Ok(c)
    }

    /// Adds an IS-A edge `sub -> sup`, rejecting cycles (§2: IS-A is
    /// acyclic).
    pub fn add_is_a(&mut self, sub: Oid, sup: Oid) -> DbResult<()> {
        for c in [sub, sup] {
            if !self.schema.classes.contains_key(&c) {
                return Err(DbError::UnknownClass(self.render(c)));
            }
        }
        if sub == sup || self.is_subclass(sup, sub) {
            return Err(DbError::IsACycle {
                sub: self.render(sub),
                sup: self.render(sup),
            });
        }
        if !self.schema.classes[&sub].supers.contains(&sup) {
            self.edit_hierarchy(|schema| {
                schema.classes.get_mut(&sub).unwrap().supers.push(sup);
                schema.classes.get_mut(&sup).unwrap().subs.push(sub);
            });
            self.record(UndoOp::RemoveIsA { sub, sup });
            self.emit(RedoOp::AddIsA { sub, sup });
            self.bump_schema_epoch();
        }
        Ok(())
    }

    /// True if `o` is a class-object.
    pub fn is_class(&self, o: Oid) -> bool {
        self.schema.classes.contains_key(&o)
    }

    /// True if `o` is a method-object (appears as a method/attribute
    /// name anywhere in the schema or state).
    pub fn is_method_object(&self, o: Oid) -> bool {
        self.schema.method_objects.contains(&o)
    }

    /// Reflexive subclass test: `sub` ⊑ `sup`.
    pub fn is_subclass(&self, sub: Oid, sup: Oid) -> bool {
        self.schema
            .ancestors
            .get(&sub)
            .is_some_and(|a| a.contains(&sup))
    }

    /// The *strict* `subclassOf` relation of query (4): `Cl subclassOf
    /// Cl` is always false.
    pub fn is_strict_subclass(&self, sub: Oid, sup: Oid) -> bool {
        sub != sup && self.is_subclass(sub, sup)
    }

    /// All (non-strict) ancestors of a class, including itself.
    pub fn ancestors_of(&self, c: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.schema.ancestors.get(&c).into_iter().flatten().copied()
    }

    /// All strict descendants of a class (excluding itself), in
    /// deterministic order.
    pub fn strict_descendants(&self, c: Oid) -> Vec<Oid> {
        self.schema
            .class_order
            .iter()
            .copied()
            .filter(|&d| self.is_strict_subclass(d, c))
            .collect()
    }

    /// Deterministic enumeration of all class-objects (the range of
    /// class variables, §3.1 query (4)).
    pub fn classes(&self) -> impl Iterator<Item = Oid> + '_ {
        self.schema.class_order.iter().copied()
    }

    /// Deterministic enumeration of all method-objects (the range of
    /// method variables, §3.1 query (3)).
    pub fn method_objects(&self) -> impl Iterator<Item = Oid> + '_ {
        self.schema.method_objects.iter().copied()
    }

    /// Direct superclasses of a class.
    pub fn direct_supers(&self, c: Oid) -> &[Oid] {
        self.schema
            .classes
            .get(&c)
            .map(|i| i.supers.as_slice())
            .unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Schema: signatures (structural inheritance)
    // ------------------------------------------------------------------

    /// Declares a signature `method : args ~> result` in the scope of
    /// `class`. The method name becomes a method-object.
    pub fn add_signature(
        &mut self,
        class: Oid,
        method: &str,
        args: &[Oid],
        result: Oid,
        set_valued: bool,
    ) -> DbResult<Oid> {
        if !self.schema.classes.contains_key(&class) {
            return Err(DbError::UnknownClass(self.render(class)));
        }
        for a in args.iter().chain(std::iter::once(&result)) {
            if !self.schema.classes.contains_key(a) {
                return Err(DbError::UnknownClass(self.render(*a)));
            }
        }
        let m = self.oids.sym(method);
        let sig = Signature {
            method: m,
            args: args.to_vec(),
            result,
            set_valued,
        };
        if !self.schema.classes[&class].sigs.contains(&sig) {
            let info = self.schema_mut().classes.get_mut(&class).unwrap();
            info.sigs.push(sig.clone());
            self.emit(RedoOp::AddSignature {
                class,
                sig: sig.clone(),
            });
            self.record(UndoOp::RemoveSignature { class, sig });
        }
        self.note_method_object(m);
        self.bump_schema_epoch();
        Ok(m)
    }

    /// Signatures declared *directly* in `class`.
    pub fn direct_signatures(&self, class: Oid) -> &[Signature] {
        self.schema
            .classes
            .get(&class)
            .map(|i| i.sigs.as_slice())
            .unwrap_or(&[])
    }

    /// Structural inheritance (§6.1): the set of signatures of `class`
    /// consists of all signatures declared in the class and all its
    /// ancestors — types are always inherited and never overwritten.
    pub fn all_signatures(&self, class: Oid) -> Vec<(Oid, Signature)> {
        let mut out = Vec::new();
        if let Some(anc) = self.schema.ancestors.get(&class) {
            // Iterate in class_order for determinism.
            for c in &self.schema.class_order {
                if anc.contains(c) {
                    for s in &self.schema.classes[c].sigs {
                        out.push((*c, s.clone()));
                    }
                }
            }
        }
        out
    }

    /// Every `(defining class, signature)` pair for `method` of the
    /// given arity anywhere in the schema — the candidate type
    /// expressions for a type assignment (§6.2).
    pub fn signatures_of_method(&self, method: Oid, arity: usize) -> Vec<(Oid, Signature)> {
        let mut out = Vec::new();
        for c in &self.schema.class_order {
            for s in &self.schema.classes[c].sigs {
                if s.method == method && s.arity() == arity {
                    out.push((*c, s.clone()));
                }
            }
        }
        out
    }

    /// Declares that `class` resolves the multiple-inheritance conflict
    /// for `method` in favor of the definition in `from_super` (Meyer's
    /// explicit-choice rule, §6.1).
    pub fn resolve_inheritance(
        &mut self,
        class: Oid,
        method: Oid,
        from_super: Oid,
    ) -> DbResult<()> {
        if !self.schema.classes.contains_key(&class) {
            return Err(DbError::UnknownClass(self.render(class)));
        }
        if !self.is_subclass(class, from_super) {
            return Err(DbError::WrongSort {
                oid: self.render(from_super),
                expected: "superclass of the resolving class",
            });
        }
        let old = self
            .schema_mut()
            .classes
            .get_mut(&class)
            .unwrap()
            .resolutions
            .insert(method, from_super);
        self.record(UndoOp::RestoreResolution { class, method, old });
        self.emit(RedoOp::SetResolution {
            class,
            method,
            from: from_super,
        });
        self.bump_schema_epoch();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Instances
    // ------------------------------------------------------------------

    /// Creates a new named individual object, an instance of each class
    /// in `classes`.
    pub fn new_individual(&mut self, name: &str, classes: &[Oid]) -> DbResult<Oid> {
        let o = self.oids.sym(name);
        self.register_individual(o, classes)?;
        Ok(o)
    }

    /// Registers an existing OID (e.g. an id-term produced by a view's
    /// id-function, §4.1) as an individual instance of the given classes.
    pub fn register_individual(&mut self, o: Oid, classes: &[Oid]) -> DbResult<()> {
        for c in classes {
            if !self.schema.classes.contains_key(c) {
                return Err(DbError::UnknownClass(self.render(*c)));
            }
        }
        if self.individuals.insert(o) {
            self.record(UndoOp::RestoreIndividual { o, present: false });
            self.emit(RedoOp::AddIndividual(o));
        }
        for &c in classes {
            if self.add_membership(o, c) {
                self.record(UndoOp::RestoreMembership {
                    o,
                    class: c,
                    present: false,
                });
                self.emit(RedoOp::AddMembership { o, class: c });
            }
        }
        Ok(())
    }

    /// Adds `obj` to the direct extent of `class`.
    pub fn add_instance(&mut self, obj: Oid, class: Oid) -> DbResult<()> {
        self.register_individual(obj, &[class])
    }

    /// Removes `obj` from the direct extent of `class` (the converse of
    /// [`Database::add_instance`]; the paper's model lets class
    /// membership change over time, §2 "Classes").
    pub fn remove_instance(&mut self, obj: Oid, class: Oid) {
        if self.remove_membership(obj, class) {
            self.record(UndoOp::RestoreMembership {
                o: obj,
                class,
                present: true,
            });
            self.emit(RedoOp::RemoveMembership { o: obj, class });
        }
    }

    /// Enters `o` into the direct extent of `class` (both directions of
    /// the relation). True if `o` was not yet a direct instance.
    fn add_membership(&mut self, o: Oid, class: Oid) -> bool {
        let fresh = !self.instance_of.get(&o).is_some_and(|s| s.contains(&class));
        if fresh {
            self.instance_of
                .get_or_insert_with(o, BTreeSet::new)
                .insert(class);
        }
        if self.extent.insert_member(class, o) {
            // `o` now belongs to the closure of every ancestor.
            let b = &self.schema.builtins;
            for &a in self.schema.ancestors.get(&class).into_iter().flatten() {
                if keeps_closure(b, a) {
                    self.closure.insert_member(a, o);
                }
            }
        }
        fresh
    }

    /// Drops `o` from the direct extent of `class` (both directions).
    /// True if either direction held it.
    fn remove_membership(&mut self, o: Oid, class: Oid) -> bool {
        let held = self.instance_of.get(&o).is_some_and(|s| s.contains(&class));
        if held {
            let classes = self.instance_of.get_mut(&o).expect("held");
            classes.remove(&class);
            if classes.is_empty() {
                self.instance_of.remove(&o);
            }
        }
        let in_extent = self.extent.remove_member(&class, &o);
        if in_extent {
            // `o` leaves the closure of each ancestor that none of its
            // remaining direct classes is under.
            let schema = &self.schema;
            let rest = self.instance_of.get(&o);
            for &a in schema.ancestors.get(&class).into_iter().flatten() {
                let kept = rest
                    .into_iter()
                    .flatten()
                    .any(|d| schema.ancestors.get(d).is_some_and(|anc| anc.contains(&a)));
                if keeps_closure(&schema.builtins, a) && !kept {
                    self.closure.remove_member(&a, &o);
                }
            }
        }
        in_extent || held
    }

    /// Direct classes of an object, including the implied builtin class
    /// of literal objects (a numeral is an instance of `Numeral`, etc.).
    pub fn direct_classes(&self, o: Oid) -> Vec<Oid> {
        let mut out: Vec<Oid> = self
            .instance_of
            .get(&o)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        match self.oids.get(o) {
            OidData::Int(_) | OidData::Real(_) => out.push(self.schema.builtins.numeral),
            OidData::Str(_) => out.push(self.schema.builtins.string),
            OidData::Bool(_) => out.push(self.schema.builtins.boolean),
            _ => {}
        }
        out
    }

    /// The instance-of judgment, closed under IS-A: an instance of `C`
    /// belongs to every superclass of `C` (§2 "Classes"). Class-objects
    /// are instances of the catalogue class `Class`; method-objects of
    /// `Method`; `nil` only of `Object`.
    pub fn is_instance_of(&self, o: Oid, class: Oid) -> bool {
        if class == self.schema.builtins.class {
            return self.is_class(o);
        }
        if class == self.schema.builtins.method {
            return self.is_method_object(o);
        }
        if class == self.schema.builtins.object
            && (self.oids.is_nil(o) || self.individuals.contains(&o))
        {
            return true;
        }
        self.direct_classes(o)
            .iter()
            .any(|&d| self.is_subclass(d, class))
    }

    /// The full extent of `class`: all individuals that are instances of
    /// it (directly or via IS-A), in OID order (the catalogue class
    /// `Class` in definition order). A handle on the kept extent closure:
    /// nothing is collected, except for a class that holds literals (the
    /// builtin value classes and their superclasses), whose literals in
    /// the active domain are gathered per call.
    pub fn instances_of(&self, class: Oid) -> Extent<'_> {
        let b = &self.schema.builtins;
        if class == b.object {
            return Extent::kept(&self.individuals);
        }
        if class == b.class {
            return Extent::classes(&self.schema.class_order);
        }
        if class == b.method {
            return Extent::methods(&self.schema.method_objects);
        }
        let kept = self.closure.get(&class);
        if [b.numeral, b.string, b.boolean]
            .iter()
            .any(|&v| self.is_subclass(v, class))
        {
            let mut out: BTreeSet<Oid> = kept.into_iter().flat_map(|s| s.iter().copied()).collect();
            for &o in self.individuals.iter() {
                if self.is_instance_of(o, class) {
                    out.insert(o);
                }
            }
            return Extent::from_sorted(out.into_iter().collect());
        }
        kept.map_or_else(Extent::empty, Extent::kept)
    }

    /// The active domain of individual objects (range of individual
    /// variables under the naive semantics of §3.4).
    pub fn individuals(&self) -> impl Iterator<Item = Oid> + '_ {
        self.individuals.iter().copied()
    }

    /// Number of individuals in the active domain.
    pub fn individual_count(&self) -> usize {
        self.individuals.len()
    }

    // ------------------------------------------------------------------
    // State: explicitly stored method values
    // ------------------------------------------------------------------

    fn note_domain(&mut self, o: Oid) {
        // Literals entering the state become part of the active domain;
        // symbols/id-terms must be registered explicitly to avoid
        // treating class- or method-objects as individuals.
        if matches!(
            self.oids.get(o),
            OidData::Int(_) | OidData::Real(_) | OidData::Str(_) | OidData::Bool(_)
        ) && self.individuals.insert(o)
        {
            self.record(UndoOp::RestoreIndividual { o, present: false });
            self.emit(RedoOp::AddIndividual(o));
        }
    }

    /// Catalogues `m` as a method-object, recording the inverse. A known
    /// method-object leaves the shared schema untouched.
    fn note_method_object(&mut self, m: Oid) {
        if !self.schema.method_objects.contains(&m) {
            self.schema_mut().method_objects.insert(m);
            self.record(UndoOp::RestoreMethodObject { m, present: false });
            self.emit(RedoOp::AddMethodObject(m));
        }
    }

    /// Records the pre-image of the state entry at `key` (done before
    /// the entry is touched, so the slot can be restored exactly).
    fn record_state(&mut self, key: &StateKey) {
        if self.undo.is_some() {
            let old = self.state.get(key).cloned();
            self.record(UndoOp::RestoreState {
                key: key.clone(),
                old,
            });
        }
    }

    fn index_insert(&mut self, recv: Oid, method: Oid, val: &Val) {
        self.by_method.insert((method, recv));
        for m in val.members() {
            self.by_method_key
                .insert((method, ValueKey::of(&self.oids, m), recv));
        }
    }

    fn index_remove(&mut self, recv: Oid, method: Oid, old: &Val) {
        // Ordered index: a (key, recv) posting dies only when no
        // remaining stored entry of (recv, method) witnesses the key —
        // the state map already reflects the post-change value at every
        // call site, so the check is against what survives. Keys are
        // collected first (members of `old` can collapse onto one key,
        // e.g. `2` and `2.0`), then the postings are dropped, so the live
        // structure stays equal to a fresh rebuild
        // (`attr_index_divergence`).
        let mut dead: Vec<ValueKey> = Vec::new();
        for m in old.members() {
            let key = ValueKey::of(&self.oids, m);
            if dead.contains(&key) {
                continue;
            }
            let witnessed = self
                .stored_entries_for(recv, method)
                .any(|(_, v)| v.members().any(|x| ValueKey::of(&self.oids, x) == key));
            if !witnessed {
                dead.push(key);
            }
        }
        for key in dead {
            self.by_method_key.remove(&(method, key, recv));
        }
        // recv stays in by_method iff another entry for (recv, method)
        // remains (a different argument tuple).
        let still = self.stored_entries_for(recv, method).next().is_some();
        if !still {
            self.by_method.remove(&(method, recv));
        }
    }

    /// Stores a scalar value for `(recv, method, args)`.
    pub fn set_scalar(&mut self, recv: Oid, method: Oid, args: &[Oid], value: Oid) -> DbResult<()> {
        self.note_method_object(method);
        self.note_domain(value);
        for &a in args {
            self.note_domain(a);
        }
        let key = (recv, method, args.to_vec());
        self.record_state(&key);
        let new = Val::Scalar(value);
        if self.redo_on() {
            self.emit(RedoOp::PutState {
                key: key.clone(),
                val: new.clone(),
            });
        }
        let old = self.state.insert(key, new.clone());
        if let Some(old) = old {
            self.index_remove(recv, method, &old);
        }
        self.index_insert(recv, method, &new);
        Ok(())
    }

    /// Stores a set value for `(recv, method, args)`.
    pub fn set_set<I: IntoIterator<Item = Oid>>(
        &mut self,
        recv: Oid,
        method: Oid,
        args: &[Oid],
        values: I,
    ) -> DbResult<()> {
        self.note_method_object(method);
        let set: BTreeSet<Oid> = values.into_iter().collect();
        for &v in &set {
            self.note_domain(v);
        }
        for &a in args {
            self.note_domain(a);
        }
        let key = (recv, method, args.to_vec());
        self.record_state(&key);
        let new = Val::Set(set);
        if self.redo_on() {
            self.emit(RedoOp::PutState {
                key: key.clone(),
                val: new.clone(),
            });
        }
        let old = self.state.insert(key, new.clone());
        if let Some(old) = old {
            self.index_remove(recv, method, &old);
        }
        self.index_insert(recv, method, &new);
        Ok(())
    }

    /// Adds one member to a set-valued entry, creating it if absent.
    pub fn insert_into_set(
        &mut self,
        recv: Oid,
        method: Oid,
        args: &[Oid],
        value: Oid,
    ) -> DbResult<()> {
        self.note_method_object(method);
        self.note_domain(value);
        let key = (recv, method, args.to_vec());
        // Pre-image recorded up front: the error branch below fires
        // after `note_*` already mutated, so the caller must be able to
        // roll the whole call back.
        self.record_state(&key);
        if let Some(Val::Scalar(_)) = self.state.get(&key) {
            return Err(DbError::ArityOrKindMismatch {
                method: self.oids.render(method),
                detail: "cannot insert into a scalar-valued entry".into(),
            });
        }
        match self.state.get_mut(&key) {
            Some(Val::Set(s)) => {
                s.insert(value);
            }
            _ => {
                self.state.insert(key, Val::set([value]));
            }
        }
        self.index_insert(recv, method, &Val::Scalar(value));
        if self.redo_on() {
            // Log the full resulting set so replay never depends on the
            // pre-state of the entry.
            let key = (recv, method, args.to_vec());
            let cur = self.state.get(&key).cloned().expect("entry just written");
            self.emit(RedoOp::PutState { key, val: cur });
        }
        Ok(())
    }

    /// Removes the stored entry for `(recv, method, args)`, making the
    /// method undefined there (a null).
    pub fn remove_value(&mut self, recv: Oid, method: Oid, args: &[Oid]) {
        let key = (recv, method, args.to_vec());
        if let Some(old) = self.state.remove(&key) {
            if self.redo_on() {
                self.emit(RedoOp::RemoveState { key: key.clone() });
            }
            self.record(UndoOp::RestoreState {
                key,
                old: Some(old.clone()),
            });
            self.index_remove(recv, method, &old);
        }
    }

    /// The candidate receivers on which `method` may be *defined*: the
    /// indexed receivers with stored entries, plus the instances of any
    /// class-object holding a default for it, plus the instances of
    /// classes with a computed definition. A sound superset of the
    /// objects for which [`Database::value`] is `Some` — the evaluator
    /// uses it to avoid scanning the whole domain for head-unbound path
    /// expressions (cf. \[BERT89\]).
    pub fn candidates_with_method(&self, method: Oid) -> BTreeSet<Oid> {
        self.expand_receivers(method, self.method_receivers(method))
    }

    /// The receivers with any stored entry for `method`, ascending.
    fn method_receivers(&self, method: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.by_method
            .range((method, Oid::MIN)..=(method, Oid::MAX))
            .map(|&(_, r)| r)
    }

    /// The `(key, receiver)` postings of `method` in key order, from the
    /// posting `from` on.
    fn postings(
        &self,
        method: Oid,
        from: Bound<(Oid, ValueKey, Oid)>,
    ) -> impl Iterator<Item = (&ValueKey, Oid)> + '_ {
        self.by_method_key
            .range((from, Bound::Unbounded))
            .take_while(move |(m, _, _)| *m == method)
            .map(|(_, k, r)| (k, *r))
    }

    /// As [`Database::candidates_with_method`], further anchored on a
    /// known value member: a sound superset of the objects `o` with a
    /// member equal to `value` in `o.method(…)`. The lookup goes
    /// through the typed index, so it is numeral-insensitive: `2` and
    /// `2.0` find the same receivers.
    pub fn candidates_with_method_value(&self, method: Oid, value: Oid) -> BTreeSet<Oid> {
        let key = ValueKey::of(&self.oids, value);
        let recvs = self.attr_receivers_eq(method, &key);
        self.expand_receivers(method, recvs.into_iter())
    }

    /// The objects on which `method` may be defined through `recvs`:
    /// each receiver itself, plus, for class-object receivers (stored
    /// defaults), their instances and subclass class-objects; plus the
    /// instances of classes with a computed definition of `method`.
    fn expand_receivers(&self, method: Oid, recvs: impl Iterator<Item = Oid>) -> BTreeSet<Oid> {
        let mut out = BTreeSet::new();
        for r in recvs {
            if self.is_class(r) {
                out.extend(self.instances_of(r).iter());
                // Subclass class-objects inherit the default too.
                out.extend(self.strict_descendants(r));
            }
            out.insert(r);
        }
        for &(c, m, _) in &self.schema.computed_order {
            if m == method {
                out.extend(self.instances_of(c).iter());
            }
        }
        out
    }

    /// Receivers whose stored value for `method` contains a member with
    /// exactly this typed key (numeral-insensitive): the planner's
    /// equality probe (see [`crate::attr_index`]; treating a probe as a
    /// *complete* candidate set additionally needs
    /// [`Database::attr_index_complete`]).
    pub fn attr_receivers_eq(&self, method: Oid, key: &ValueKey) -> BTreeSet<Oid> {
        self.postings(method, Bound::Included((method, key.clone(), Oid::MIN)))
            .take_while(|(k, _)| *k == key)
            .map(|(_, r)| r)
            .collect()
    }

    /// Receivers whose stored value for `method` contains a member with
    /// a key in the given range (a single ordered scan; the typed key
    /// families are contiguous runs, so a numeric range never visits
    /// string or object keys).
    pub fn attr_receivers_range<R>(&self, method: Oid, range: R) -> BTreeSet<Oid>
    where
        R: std::ops::RangeBounds<ValueKey>,
    {
        let from = match range.start_bound().cloned() {
            Bound::Included(k) => Bound::Included((method, k, Oid::MIN)),
            Bound::Excluded(k) => Bound::Excluded((method, k, Oid::MAX)),
            Bound::Unbounded => first_posting(method),
        };
        self.postings(method, from)
            .take_while(|(k, _)| !past_end(range.end_bound(), k))
            .map(|(_, r)| r)
            .collect()
    }

    /// Index sizes for the planner's cost model: distinct keys and
    /// total postings stored under `method`. `None` when the method has
    /// no stored entries.
    pub fn attr_stats(&self, method: Oid) -> Option<AttrStats> {
        let mut stats = AttrStats {
            distinct_keys: 0,
            postings: 0,
        };
        let mut last = None;
        for (k, _) in self.postings(method, first_posting(method)) {
            stats.postings += 1;
            if last != Some(k) {
                stats.distinct_keys += 1;
                last = Some(k);
            }
        }
        (stats.postings > 0).then_some(stats)
    }

    /// True when the stored state of `method` tells the whole story:
    /// no computed definition exists for it at any arity, and no
    /// class-object holds a stored default for it (which instances
    /// would inherit without appearing in the index themselves). Under
    /// this condition, `value(o, method, args)` is exactly the stored
    /// entry (or undefined), so an index probe plus an extent
    /// intersection is a sound candidate set for attribute predicates.
    pub fn attr_index_complete(&self, method: Oid) -> bool {
        if self
            .schema
            .computed_order
            .iter()
            .any(|&(_, m, _)| m == method)
        {
            return false;
        }
        !self.method_receivers(method).any(|r| self.is_class(r))
    }

    /// Rebuilds the ordered secondary index from scratch by scanning
    /// the stored state — the oracle [`Database::attr_index_divergence`]
    /// compares the live structure against.
    pub fn rebuilt_attr_index(&self) -> RebuiltAttrIndex {
        let mut out = RebuiltAttrIndex::new();
        for ((recv, method, _args), val) in self.state.iter() {
            for m in val.members() {
                out.entry(*method)
                    .or_default()
                    .entry(ValueKey::of(&self.oids, m))
                    .or_default()
                    .insert(*recv);
            }
        }
        out
    }

    /// Differences between the live ordered index and a fresh rebuild
    /// from the stored state, rendered one per line. Empty means the
    /// incremental maintenance (including undo/redo application) left
    /// the index bit-identical to the rebuild — the invariant the
    /// transaction-interleaving proptests assert.
    pub fn attr_index_divergence(&self) -> Vec<String> {
        let rebuilt = self.rebuilt_attr_index();
        let mut live = RebuiltAttrIndex::new();
        for (m, k, r) in self.by_method_key.iter() {
            live.entry(*m)
                .or_default()
                .entry(k.clone())
                .or_default()
                .insert(*r);
        }
        let mut out = Vec::new();
        let mut methods: BTreeSet<Oid> = live.keys().copied().collect();
        methods.extend(rebuilt.keys().copied());
        for m in methods {
            let name = self.render(m);
            match (live.get(&m), rebuilt.get(&m)) {
                (Some(l), Some(w)) => {
                    let lk: BTreeSet<&ValueKey> = l.keys().collect();
                    let wk: BTreeSet<&ValueKey> = w.keys().collect();
                    for k in lk.symmetric_difference(&wk) {
                        out.push(format!("{name}: key {k:?} present on one side only"));
                    }
                    for k in lk.intersection(&wk) {
                        if l[*k] != w[*k] {
                            out.push(format!("{name}: key {k:?} receiver sets differ"));
                        }
                    }
                }
                (Some(_), None) => out.push(format!("{name}: stale index (no stored state)")),
                (None, Some(_)) => out.push(format!("{name}: missing index entries")),
                (None, None) => unreachable!("method came from one of the two maps"),
            }
        }
        out
    }

    /// Differences between the kept direct extents and extent closures
    /// and a fresh rebuild from the per-object class lists, rendered one
    /// per line. Empty means every membership change, IS-A edit, undo,
    /// redo replay and import left them exactly as a rebuild would: the
    /// counterpart of [`Database::attr_index_divergence`] for
    /// [`Database::instances_of`].
    pub fn extent_closure_divergence(&self) -> Vec<String> {
        let mut extents: BTreeMap<Oid, BTreeSet<Oid>> = BTreeMap::new();
        for (&o, classes) in self.instance_of.iter() {
            for &c in classes {
                extents.entry(c).or_default().insert(o);
            }
        }
        let mut closures: BTreeMap<Oid, BTreeSet<Oid>> = BTreeMap::new();
        for &a in &self.schema.class_order {
            if !keeps_closure(&self.schema.builtins, a) {
                continue;
            }
            for (&d, members) in &extents {
                if self.is_subclass(d, a) {
                    closures.entry(a).or_default().extend(members);
                }
            }
        }
        let mut out = Vec::new();
        for (what, live, want) in [
            ("extent", &self.extent, extents),
            ("closure", &self.closure, closures),
        ] {
            let mut classes: BTreeSet<Oid> = live.keys().copied().collect();
            classes.extend(want.keys().copied());
            for c in classes {
                let l: Vec<Oid> = live
                    .get(&c)
                    .into_iter()
                    .flat_map(|s| s.iter().copied())
                    .collect();
                let w: Vec<Oid> = want.get(&c).into_iter().flatten().copied().collect();
                if l != w {
                    out.push(format!(
                        "{what} of {}: kept {} members, rebuilt {}",
                        self.render(c),
                        l.len(),
                        w.len()
                    ));
                }
            }
        }
        out
    }

    /// How much of its storage this database still shares with `other`:
    /// `(chunks, unshared)`, the number of storage chunks of every
    /// collection (OID data and index, class lists, extents and
    /// closures, active domain, state, both method indexes) and how many
    /// of them are not pointer-equal to a chunk of `other`. For tests
    /// that pin what a write after a copy copies.
    #[doc(hidden)]
    pub fn chunk_sharing(&self, other: &Database) -> (usize, usize) {
        fn ptrs(db: &Database) -> Vec<*const ()> {
            fn at<T>(chunk: &[T]) -> *const () {
                chunk.as_ptr() as *const ()
            }
            let mut out: Vec<*const ()> = db.oids.chunk_ptrs().collect();
            out.extend(db.instance_of.chunks().map(at));
            for sets in [&db.extent, &db.closure] {
                out.extend(sets.chunks().map(at));
                out.extend(sets.values().flat_map(|s| s.chunks()).map(at));
            }
            out.extend(db.individuals.chunks().map(at));
            out.extend(db.state.chunks().map(at));
            out.extend(db.by_method.chunks().map(at));
            out.extend(db.by_method_key.chunks().map(at));
            out
        }
        let theirs: std::collections::HashSet<*const ()> = ptrs(other).into_iter().collect();
        let mine = ptrs(self);
        let unshared = mine.iter().filter(|p| !theirs.contains(p)).count();
        (mine.len(), unshared)
    }

    /// Removes an object entirely: its stored state (as receiver), its
    /// class memberships, and its presence in the active domain.
    /// References to it from *other* objects' values are left in place —
    /// like the paper's logical OIDs, the id keeps denoting the (now
    /// description-less) object.
    pub fn purge_object(&mut self, o: Oid) {
        let keys: Vec<(Oid, Vec<Oid>)> = self
            .state
            .range((o, Oid::MIN, Vec::new())..)
            .take_while(|((r, _, _), _)| *r == o)
            .map(|((_, m, a), _)| (*m, a.clone()))
            .collect();
        for (m, a) in keys {
            self.remove_value(o, m, &a);
        }
        let classes: Vec<Oid> = self
            .instance_of
            .get(&o)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        for c in classes {
            self.remove_membership(o, c);
            self.record(UndoOp::RestoreMembership {
                o,
                class: c,
                present: true,
            });
            self.emit(RedoOp::RemoveMembership { o, class: c });
        }
        if self.individuals.remove(&o) {
            self.record(UndoOp::RestoreIndividual { o, present: true });
            self.emit(RedoOp::RemoveIndividual(o));
        }
    }

    /// The raw stored value, without inheritance or computed methods.
    pub fn stored_value(&self, recv: Oid, method: Oid, args: &[Oid]) -> Option<&Val> {
        self.state.get(&(recv, method, args.to_vec()))
    }

    /// Iterates all stored state entries (used by the F-logic model
    /// extraction and by schema browsing).
    pub fn state_entries(&self) -> impl Iterator<Item = (Oid, Oid, &[Oid], &Val)> + '_ {
        self.state
            .iter()
            .map(|((r, m, a), v)| (*r, *m, a.as_slice(), v))
    }

    /// Iterates the stored entries of one `(receiver, method)` pair —
    /// the argument tuples for which the method has an explicit value.
    /// Used to enumerate unbound method arguments in path expressions.
    pub fn stored_entries_for(
        &self,
        recv: Oid,
        method: Oid,
    ) -> impl Iterator<Item = (&[Oid], &Val)> + '_ {
        self.state
            .range((recv, method, Vec::new())..)
            .take_while(move |((r, m, _), _)| *r == recv && *m == method)
            .map(|((_, _, a), v)| (a.as_slice(), v))
    }

    // ------------------------------------------------------------------
    // Computed methods
    // ------------------------------------------------------------------

    /// Installs a computed method implementation for `(class, method,
    /// arity)`. Subclasses inherit it behaviorally; redefinition in a
    /// subclass overrides (§6.1).
    pub fn define_method(
        &mut self,
        class: Oid,
        method: Oid,
        arity: usize,
        imp: Arc<dyn MethodImpl>,
    ) -> DbResult<()> {
        if !self.schema.classes.contains_key(&class) {
            return Err(DbError::UnknownClass(self.render(class)));
        }
        self.note_method_object(method);
        let key = (class, method, arity);
        if !self.schema.computed.contains_key(&key) {
            self.schema_mut().computed_order.push(key);
        }
        let old = self.schema_mut().computed.insert(key, imp);
        self.record(UndoOp::RestoreComputed { key, old });
        self.bump_schema_epoch();
        Ok(())
    }

    /// True if a computed method exists for exactly `(class, method,
    /// arity)`.
    pub fn has_computed(&self, class: Oid, method: Oid, arity: usize) -> bool {
        self.schema.computed.contains_key(&(class, method, arity))
    }

    /// Finds the computed-method implementation inherited by `recv` for
    /// `(method, arity)` under behavioral inheritance with overriding:
    /// among the defining classes that `recv` belongs to, keep the most
    /// specific ones; a unique survivor wins; several incomparable
    /// survivors require an explicit resolution on one of `recv`'s
    /// direct classes, otherwise it is an inheritance conflict (§6.1).
    fn resolve_computed(
        &self,
        recv: Oid,
        method: Oid,
        arity: usize,
    ) -> DbResult<Option<&Arc<dyn MethodImpl>>> {
        let mut defining: Vec<Oid> = Vec::new();
        for &(c, m, k) in &self.schema.computed_order {
            if m == method && k == arity && self.is_instance_of(recv, c) {
                defining.push(c);
            }
        }
        if defining.is_empty() {
            return Ok(None);
        }
        // Keep most specific classes only (overriding).
        let minimal: Vec<Oid> = defining
            .iter()
            .copied()
            .filter(|&c| {
                !defining
                    .iter()
                    .any(|&d| d != c && self.is_strict_subclass(d, c))
            })
            .collect();
        let chosen = if minimal.len() == 1 {
            minimal[0]
        } else {
            // Look for an explicit resolution on a direct class of recv.
            let mut pick = None;
            for dc in self.direct_classes(recv) {
                if let Some(info) = self.schema.classes.get(&dc) {
                    if let Some(&from) = info.resolutions.get(&method) {
                        if minimal.contains(&from) {
                            pick = Some(from);
                            break;
                        }
                    }
                }
            }
            match pick {
                Some(c) => c,
                None => {
                    return Err(DbError::InheritanceConflict {
                        object: self.render(recv),
                        method: self.render(method),
                        candidates: minimal.iter().map(|&c| self.render(c)).collect(),
                    })
                }
            }
        };
        Ok(self.schema.computed.get(&(chosen, method, arity)))
    }

    // ------------------------------------------------------------------
    // The defined/undefined/inapplicable judgments
    // ------------------------------------------------------------------

    /// The value of `method` on `recv` with `args`, under full lookup:
    /// explicit state, then behavioral inheritance of default values
    /// from class-objects (footnote 5: default attributes are inherited
    /// from superclasses), then computed methods. `Ok(None)` means
    /// *undefined* (null). Inapplicability is *not* checked here — the
    /// naive semantics of §3.4 simply finds no satisfying path; use
    /// [`Database::is_applicable`] for the type-error judgment.
    pub fn value(&self, recv: Oid, method: Oid, args: &[Oid]) -> DbResult<Option<Val>> {
        self.value_at_depth(recv, method, args, 0)
    }

    /// As [`Database::value`], at an explicit invocation depth (computed
    /// methods evaluating path expressions pass their own depth + 1).
    pub fn value_at_depth(
        &self,
        recv: Oid,
        method: Oid,
        args: &[Oid],
        depth: usize,
    ) -> DbResult<Option<Val>> {
        if depth > MAX_INVOKE_DEPTH {
            return Err(DbError::RecursionLimit {
                method: self.render(method),
            });
        }
        // 1. Explicit state on the receiver itself.
        if let Some(v) = self.stored_value(recv, method, args) {
            return Ok(Some(v.clone()));
        }
        // 2. Inherited default value: the value the method has on the
        //    most specific class-object(s) the receiver belongs to; for
        //    a class receiver, on its superclasses.
        if let Some(v) = self.inherited_default(recv, method, args)? {
            return Ok(Some(v));
        }
        // 3. Computed method (behavioral inheritance with overriding).
        if let Some(imp) = self.resolve_computed(recv, method, args.len())? {
            let imp = Arc::clone(imp);
            return imp.invoke(self, recv, args, depth + 1);
        }
        Ok(None)
    }

    /// Behavioral inheritance of stored (default) values: if the method
    /// has an explicit value on a class the receiver belongs to, the
    /// receiver inherits the value of the most specific such class;
    /// incomparable candidates with distinct values are a conflict
    /// unless explicitly resolved.
    fn inherited_default(&self, recv: Oid, method: Oid, args: &[Oid]) -> DbResult<Option<Val>> {
        // Classes to search: for an individual, all classes it belongs
        // to; for a class-object, its strict ancestors.
        let search: Vec<Oid> = if self.is_class(recv) {
            self.ancestors_of(recv).filter(|&c| c != recv).collect()
        } else {
            let mut cs = BTreeSet::new();
            for d in self.direct_classes(recv) {
                cs.extend(self.ancestors_of(d));
            }
            cs.into_iter().collect()
        };
        let holders: Vec<Oid> = search
            .iter()
            .copied()
            .filter(|&c| self.state.contains_key(&(c, method, args.to_vec())))
            .collect();
        if holders.is_empty() {
            return Ok(None);
        }
        let minimal: Vec<Oid> = holders
            .iter()
            .copied()
            .filter(|&c| {
                !holders
                    .iter()
                    .any(|&d| d != c && self.is_strict_subclass(d, c))
            })
            .collect();
        if minimal.len() == 1 {
            return Ok(self.stored_value(minimal[0], method, args).cloned());
        }
        // Distinct incomparable defaults: identical values are fine,
        // otherwise require an explicit resolution.
        let vals: Vec<&Val> = minimal
            .iter()
            .map(|&c| self.stored_value(c, method, args).unwrap())
            .collect();
        if vals.windows(2).all(|w| w[0] == w[1]) {
            return Ok(Some(vals[0].clone()));
        }
        for dc in self.direct_classes(recv) {
            if let Some(info) = self.schema.classes.get(&dc) {
                if let Some(&from) = info.resolutions.get(&method) {
                    if let Some(c) = minimal.iter().copied().find(|&c| c == from) {
                        return Ok(self.stored_value(c, method, args).cloned());
                    }
                }
            }
        }
        Err(DbError::InheritanceConflict {
            object: self.render(recv),
            method: self.render(method),
            candidates: minimal.iter().map(|&c| self.render(c)).collect(),
        })
    }

    /// Invokes an update method (one whose implementation mutates the
    /// database, §5). Read-only methods may also be invoked this way.
    pub fn invoke_update(&mut self, recv: Oid, method: Oid, args: &[Oid]) -> DbResult<Option<Val>> {
        if let Some(v) = self.stored_value(recv, method, args) {
            return Ok(Some(v.clone()));
        }
        let imp = match self.resolve_computed(recv, method, args.len())? {
            Some(i) => Arc::clone(i),
            None => return Ok(None),
        };
        imp.invoke_mut(self, recv, args, 1)
    }

    /// The applicability judgment (§2): `method` is applicable to `recv`
    /// on `args` iff some declared signature covers them — i.e. the
    /// method *possesses* a type whose receiver class contains `recv`
    /// and whose argument classes contain the respective `args`. Used by
    /// the typing system; inapplicability is the paper's type error.
    pub fn is_applicable(&self, recv: Oid, method: Oid, args: &[Oid]) -> bool {
        for c in &self.schema.class_order {
            if !self.is_instance_of(recv, *c) {
                continue;
            }
            for s in &self.schema.classes[c].sigs {
                if s.method == method
                    && s.arity() == args.len()
                    && args
                        .iter()
                        .zip(&s.args)
                        .all(|(&a, &cl)| self.is_instance_of(a, cl))
                {
                    return true;
                }
            }
        }
        false
    }

    /// Checks that the stored state conforms to the declared signatures:
    /// every entry `(recv, m, args) -> v` must be covered by a signature
    /// applicable to `(recv, args)` whose result class contains every
    /// member of `v`, with matching scalar/set kind. Returns the
    /// violations (empty = conformant). Theorem 6.1's range restriction
    /// is sound exactly on conformant databases — the paper assumes data
    /// respects the schema.
    pub fn check_conformance(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (recv, m, args, v) in self.state_entries() {
            let mut covered = false;
            let mut kind_ok = false;
            'sigs: for c in &self.schema.class_order {
                if !self.is_instance_of(recv, *c) {
                    continue;
                }
                for s in &self.schema.classes[c].sigs {
                    if s.method != m
                        || s.arity() != args.len()
                        || !args
                            .iter()
                            .zip(&s.args)
                            .all(|(&a, &cl)| self.is_instance_of(a, cl))
                    {
                        continue;
                    }
                    covered = true;
                    if s.set_valued == v.is_set()
                        && v.members().all(|o| self.is_instance_of(o, s.result))
                    {
                        kind_ok = true;
                        break 'sigs;
                    }
                }
            }
            if !covered {
                out.push(format!(
                    "no applicable signature for `{}` on `{}`",
                    self.render(m),
                    self.render(recv)
                ));
            } else if !kind_ok {
                out.push(format!(
                    "value of `{}` on `{}` violates every applicable signature",
                    self.render(m),
                    self.render(recv)
                ));
            }
        }
        out
    }

    /// All method names of the given arity that could be *defined* on
    /// `recv` — candidates when a method variable must be enumerated
    /// (query (3): `X."Y.City`). Sources: explicit state on the
    /// receiver, inheritable defaults on its classes, and computed
    /// methods it inherits.
    pub fn methods_defined_on(&self, recv: Oid, arity: usize) -> BTreeSet<Oid> {
        let mut out = BTreeSet::new();
        for ((r, m, a), _) in self.state.range((recv, Oid::MIN, Vec::new())..) {
            if *r != recv {
                break;
            }
            if a.len() == arity {
                out.insert(*m);
            }
        }
        // Defaults on classes the receiver belongs to.
        let classes: BTreeSet<Oid> = if self.is_class(recv) {
            self.ancestors_of(recv).filter(|&c| c != recv).collect()
        } else {
            let mut cs = BTreeSet::new();
            for d in self.direct_classes(recv) {
                cs.extend(self.ancestors_of(d));
            }
            cs
        };
        for &c in &classes {
            for ((r, m, a), _) in self.state.range((c, Oid::MIN, Vec::new())..) {
                if *r != c {
                    break;
                }
                if a.len() == arity {
                    out.insert(*m);
                }
            }
        }
        for &(c, m, k) in &self.schema.computed_order {
            if k == arity && self.is_instance_of(recv, c) {
                out.insert(m);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Database {
        let mut db = Database::new();
        let person = db.define_class("Person", &[]).unwrap();
        let string = db.builtins().string;
        db.add_signature(person, "Name", &[], string, false)
            .unwrap();
        db
    }

    #[test]
    fn conformance_flags_uncovered_and_ill_kinded_state() {
        let mut db = small();
        let person = db.oids().find_sym("Person").unwrap();
        let p = db.new_individual("p1", &[person]).unwrap();
        let name = db.oids().find_sym("Name").unwrap();
        let v = db.oids_mut().str("Pat");
        db.set_scalar(p, name, &[], v).unwrap();
        assert!(db.check_conformance().is_empty());
        // A value of the wrong kind (set where scalar declared).
        db.set_set(p, name, &[], [v]).unwrap();
        assert_eq!(db.check_conformance().len(), 1);
        db.set_scalar(p, name, &[], v).unwrap();
        // A method with no signature anywhere.
        let ghost = db.oids_mut().sym("Ghost");
        db.set_scalar(p, ghost, &[], v).unwrap();
        assert_eq!(db.check_conformance().len(), 1);
        // A value outside the declared result class.
        let n = db.oids_mut().int(5);
        db.remove_value(p, ghost, &[]);
        db.set_scalar(p, name, &[], n).unwrap();
        assert_eq!(db.check_conformance().len(), 1);
    }

    #[test]
    fn clone_is_independent() {
        let mut db = small();
        let person = db.oids().find_sym("Person").unwrap();
        let p = db.new_individual("p1", &[person]).unwrap();
        let name = db.oids().find_sym("Name").unwrap();
        let v = db.oids_mut().str("Pat");
        db.set_scalar(p, name, &[], v).unwrap();
        let snapshot = db.clone();
        db.remove_value(p, name, &[]);
        assert!(db.value(p, name, &[]).unwrap().is_none());
        assert!(snapshot.value(p, name, &[]).unwrap().is_some());
    }

    #[test]
    fn remove_instance_shrinks_extent() {
        let mut db = small();
        let person = db.oids().find_sym("Person").unwrap();
        let p = db.new_individual("p1", &[person]).unwrap();
        assert_eq!(db.instances_of(person).len(), 1);
        db.remove_instance(p, person);
        assert!(db.instances_of(person).is_empty());
        // Still an individual (in the active domain) until fully purged.
        assert!(db.is_instance_of(p, db.builtins().object));
    }

    #[test]
    fn methods_defined_on_includes_all_sources() {
        let mut db = small();
        let person = db.oids().find_sym("Person").unwrap();
        let p = db.new_individual("p1", &[person]).unwrap();
        let name = db.oids().find_sym("Name").unwrap();
        let v = db.oids_mut().str("Pat");
        // Explicit state.
        db.set_scalar(p, name, &[], v).unwrap();
        // Class default.
        let hobby = db.oids_mut().sym("Hobby");
        db.set_scalar(person, hobby, &[], v).unwrap();
        let defined = db.methods_defined_on(p, 0);
        assert!(defined.contains(&name));
        assert!(defined.contains(&hobby));
    }
}

#[cfg(test)]
mod purge_tests {
    use super::*;

    #[test]
    fn purge_removes_state_membership_and_domain() {
        let mut db = Database::new();
        let c = db.define_class("Thing", &[]).unwrap();
        let a = db.new_individual("a", &[c]).unwrap();
        let b = db.new_individual("b", &[c]).unwrap();
        let m = db.oids_mut().sym("Link");
        db.set_scalar(a, m, &[], b).unwrap();
        db.set_scalar(b, m, &[], a).unwrap();
        db.purge_object(a);
        assert!(db.value(a, m, &[]).unwrap().is_none());
        assert!(!db.is_instance_of(a, c));
        assert!(!db.individuals().any(|o| o == a));
        // Dangling reference from b keeps denoting the id (logical OIDs).
        let v = db.value(b, m, &[]).unwrap().unwrap();
        assert_eq!(v.as_scalar(), Some(a));
        // Index no longer lists a as a receiver.
        assert!(!db.candidates_with_method(m).contains(&a));
    }

    #[test]
    fn value_anchored_candidates() {
        let mut db = Database::new();
        let c = db.define_class("Thing", &[]).unwrap();
        let a = db.new_individual("a", &[c]).unwrap();
        let b = db.new_individual("b", &[c]).unwrap();
        let m = db.oids_mut().sym("Tag");
        let red = db.oids_mut().str("red");
        let blue = db.oids_mut().str("blue");
        db.set_scalar(a, m, &[], red).unwrap();
        db.set_scalar(b, m, &[], blue).unwrap();
        let got = db.candidates_with_method_value(m, red);
        assert!(got.contains(&a) && !got.contains(&b));
        // Class defaults expand to instances.
        let other = db.define_class("Other", &[]).unwrap();
        let o1 = db.new_individual("o1", &[other]).unwrap();
        db.set_scalar(other, m, &[], red).unwrap();
        let got = db.candidates_with_method_value(m, red);
        assert!(got.contains(&o1));
        // Overwriting one argument tuple keeps the receiver anchored
        // while another tuple of the same method still holds the value.
        let (one, two) = (db.oids_mut().int(1), db.oids_mut().int(2));
        db.set_scalar(b, m, &[one], red).unwrap();
        db.set_scalar(b, m, &[two], red).unwrap();
        db.set_scalar(b, m, &[one], blue).unwrap();
        assert!(db.candidates_with_method_value(m, red).contains(&b));
        // Numeral lookups are insensitive to the Int/Real spelling.
        let three = db.oids_mut().int(3);
        let three_real = db.oids_mut().real(3.0);
        db.set_scalar(a, m, &[two], three).unwrap();
        assert!(db.candidates_with_method_value(m, three_real).contains(&a));
        assert!(db.attr_index_divergence().is_empty());
    }
}
