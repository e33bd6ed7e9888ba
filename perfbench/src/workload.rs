//! The three workloads: the database each runs over, the requests one
//! operation sends, and the check every reply must pass.
//!
//! * `wire_scan` — one PREPAREd two-variable Employee theta join per
//!   operation; a large reply on an unchanging database.
//! * `point_update` — one operation is a single-attribute UPDATE
//!   followed by four index-probed point reads of salaries; the first
//!   read is the client's read of its own write on the new epoch.
//! * `path_walk` — one operation walks eleven planner-declined path
//!   statements (attribute and class variables, set-valued steps,
//!   quantified comparisons), each its own request.
//!
//! Expected replies come from the naive §3.4 engine, evaluated once
//! on a private copy of the generated database before any timing, or,
//! for salaries, from a model of every value the client has written.

use datagen::{figure1_scaled, Figure1Params};
use net::{Client, Response};
use oodb::Database;
use std::time::{Duration, Instant};
use xsql::{EvalOptions, Outcome, Session};

/// The workload names. `path_walk` runs and is checked like the others
/// but is not a `BENCHMARK.json` workload (see `perfbench/README.md`).
pub const NAMES: [&str; 3] = ["wire_scan", "point_update", "path_walk"];

/// The E10/E16 employee join, without its `X.Age < Y.Age` conjunct:
/// that conjunct makes the row count a rank-discordance count that
/// swings ±10% between seeds, while `X.Salary > Y.Salary` alone keeps
/// it at C(n, 2) minus salary ties for every seed.
const SCAN_BODY: &str = "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary";

/// Name the scan is prepared under.
const SCAN_NAME: &str = "scan";

/// Point reads after each commit in `point_update` (the first is the
/// read of the client's own write).
const POINT_READS: usize = 4;

/// splitmix64: the seeded source of every statement literal.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a request does on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A read on an epoch the connection has read before.
    Read,
    /// The first read after the client's own commit.
    FreshRead,
    /// An auto-commit write.
    Commit,
}

/// One request of an operation, as the client saw it.
pub struct Req {
    pub kind: ReqKind,
    /// What the server's reader session runs for it.
    pub run_src: String,
    /// The statement itself (the SELECT behind a prepared EXECUTE).
    pub body: String,
    pub start: Instant,
    pub end: Instant,
    /// The reply; `None` when the server answered with an error.
    pub response: Option<Response>,
}

impl Req {
    pub fn latency(&self) -> Duration {
        self.end - self.start
    }
}

/// One closed-loop operation: its requests, whether every reply was
/// correct, and its wall-clock span.
pub struct Op {
    pub reqs: Vec<Req>,
    pub ok: bool,
    pub start: Instant,
    pub end: Instant,
}

/// A reply the naive engine computed.
struct Expected {
    columns: Vec<String>,
    /// Rows in the oracle's order (the server's order on a match).
    rows: Vec<Vec<String>>,
    sorted: Vec<Vec<String>>,
}

impl Expected {
    fn matches(&self, r: &Response) -> bool {
        if r.columns != self.columns || r.rows.len() != self.rows.len() {
            return false;
        }
        if r.rows == self.rows {
            return true;
        }
        let mut got = r.rows.clone();
        got.sort();
        got == self.sorted
    }
}

/// Evaluates `src` with the naive engine on a private copy of `db`.
fn naive(db: &Database, src: &str) -> Result<Expected, String> {
    let opts = EvalOptions {
        use_planner: false,
        use_vm: false,
        ..EvalOptions::naive()
    };
    let mut s = Session::with_options(db.clone(), opts);
    let rel = match s.run(src).map_err(|e| format!("oracle on `{src}`: {e}"))? {
        Outcome::Relation(rel) => rel,
        o => return Err(format!("oracle on `{src}` gave {o:?}")),
    };
    let rows: Vec<Vec<String>> = rel
        .iter()
        .map(|t| t.iter().map(|o| s.db().oids().render(*o)).collect())
        .collect();
    let mut sorted = rows.clone();
    sorted.sort();
    Ok(Expected {
        columns: rel.columns().to_vec(),
        rows,
        sorted,
    })
}

/// The client's model of every employee salary: the generated values,
/// then each value it commits.
#[derive(Clone)]
struct Salaries {
    /// (object name, `Name` literal, salary) per employee.
    emps: Vec<(String, String, i64)>,
    rng: Rng,
}

impl Salaries {
    fn of(db: &Database, seed: u64) -> Result<Salaries, String> {
        let mut s = Session::new(db.clone());
        let rel = s
            .query("SELECT X, X.Name, X.Salary FROM Employee X")
            .map_err(|e| format!("salary model: {e}"))?;
        let mut emps = Vec::with_capacity(rel.len());
        for t in rel.iter() {
            let cell = |i: usize| s.db().oids().render(t[i]);
            let salary = cell(2)
                .parse::<i64>()
                .map_err(|e| format!("salary `{}`: {e}", cell(2)))?;
            emps.push((cell(0), cell(1), salary));
        }
        if emps.is_empty() {
            return Err("no employees".into());
        }
        Ok(Salaries {
            emps,
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(7)),
        })
    }

    /// One write-then-read iteration: a single-attribute UPDATE of a
    /// random employee to a new salary, then `reads` point reads — the
    /// updated employee first, then random others — each checked
    /// against the model.
    fn iteration(&mut self, client: &mut Client, reads: usize) -> Op {
        let start = Instant::now();
        let e = self.rng.below(self.emps.len());
        let old = self.emps[e].2;
        let mut salary = old;
        while salary == old {
            salary = 20_000 + self.rng.below(180_001) as i64;
        }
        let update = format!(
            "UPDATE CLASS Employee SET {}.Salary = {salary}",
            self.emps[e].0
        );
        let (commit, ok_commit) = request(
            ReqKind::Commit,
            update.clone(),
            update,
            |src| client.execute(src),
            |r| r.info.starts_with("updated 1 "),
        );
        let mut ok = ok_commit;
        if ok_commit {
            self.emps[e].2 = salary;
        }
        let mut reqs = vec![commit];
        for i in 0..reads {
            let who = if i == 0 {
                e
            } else {
                self.rng.below(self.emps.len())
            };
            let (_, name, expect) = &self.emps[who];
            let src = format!("SELECT X.Salary FROM Employee X WHERE X.Name = {name}");
            let expect = expect.to_string();
            let kind = if i == 0 {
                ReqKind::FreshRead
            } else {
                ReqKind::Read
            };
            let (req, good) = request(
                kind,
                src.clone(),
                src,
                |s| client.execute(s),
                |r| r.rows.len() == 1 && r.rows[0].len() == 1 && r.rows[0][0] == expect,
            );
            ok &= good;
            reqs.push(req);
        }
        Op {
            reqs,
            ok,
            start,
            end: Instant::now(),
        }
    }
}

/// Sends one request and checks its reply.
fn request(
    kind: ReqKind,
    run_src: String,
    body: String,
    send: impl FnOnce(&str) -> Result<Response, net::NetError>,
    check: impl FnOnce(&Response) -> bool,
) -> (Req, bool) {
    let start = Instant::now();
    let result = send(&run_src);
    let end = Instant::now();
    let (response, ok) = match result {
        Ok(r) => {
            let ok = check(&r);
            (Some(r), ok)
        }
        Err(e) => {
            eprintln!("request failed: {e}: {run_src}");
            (None, false)
        }
    };
    let req = Req {
        kind,
        run_src,
        body,
        start,
        end,
        response,
    };
    (req, ok)
}

/// The eleven `path_walk` statements, with literals drawn from `rng`.
/// Each has one individual variable plus attribute (`"A`) or class
/// (`#C`) variables: the planner declines them, and the naive engine
/// stays cheap enough to check them (a second individual variable
/// costs it ~10 s per statement at this size).
fn walk_statements(rng: &mut Rng, companies: usize, cities: usize) -> Vec<String> {
    let mut city = || format!("city{}", rng.below(cities));
    let c = [city(), city(), city(), city()];
    vec![
        format!(
            "SELECT X FROM Company X WHERE X.Divisions.Employees.FamMembers.\"A.City['{}']",
            c[0]
        ),
        format!("SELECT A FROM Employee X WHERE X.\"A.City['{}']", c[1]),
        format!(
            "SELECT #C FROM #C E WHERE E.HPpower > {}",
            300 + rng.below(80)
        ),
        format!(
            "SELECT X, A FROM Division X WHERE X.\"A.Salary > {}",
            170_000 + 1000 * rng.below(25)
        ),
        format!(
            "SELECT X FROM Employee X WHERE X.FamMembers.\"A.City =all X.Residence.City \
             and X.Salary > {}",
            180_000 + 1000 * rng.below(15)
        ),
        format!(
            "SELECT X FROM Company X WHERE X.Divisions.Employees.\"A some> {}",
            190_000 + 1000 * rng.below(9)
        ),
        format!(
            "SELECT X FROM Division X WHERE X.Manager.\"A.City['{}']",
            c[2]
        ),
        format!(
            "SELECT X, A FROM Company X WHERE X.President.\"A.Drivetrain.Engine.HPpower > {}",
            250 + rng.below(100)
        ),
        format!(
            "SELECT #C FROM #C X WHERE X.Manufacturer.Name['Company {}']",
            rng.below(companies)
        ),
        format!(
            "SELECT X FROM Person X WHERE X.\"A.City['{}'] and X.Age < {}",
            c[3],
            18 + rng.below(10)
        ),
        format!(
            "SELECT X FROM Employee X WHERE X.OwnedVehicles.\"A.Engine.HPpower > {}",
            350 + rng.below(45)
        ),
    ]
}

enum Kind {
    Scan(Expected),
    Point,
    Walk(Vec<(String, Expected)>),
}

/// One workload, ready to run against any number of fresh stacks.
pub struct Workload {
    pub name: &'static str,
    pub params: Figure1Params,
    kind: Kind,
    /// The salary model as generated (restored before each set-up).
    initial: Salaries,
    /// The live salary model: `point_update`'s operations and every
    /// workload's write probe update it.
    salaries: Salaries,
}

impl Workload {
    /// Generates the workload's database from `seed` and computes every
    /// expected reply.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        // `wire_scan` is sized for a reply near the E10/E16 read's
        // (~4,000 rows). `point_update` runs at ~1,630 objects, not the
        // ~5,650 of `path_walk`: there its database copies made it
        // memory-bound, and over ten 40 s runs its op p50 spread 32%
        // (9.6-13.9 ms) as the host's load shifted, against 8% here.
        let (name, objects) = match name {
            "wire_scan" => ("wire_scan", 150),
            "point_update" => ("point_update", 500),
            "path_walk" => ("path_walk", 2000),
            other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
        };
        let params = Figure1Params {
            seed,
            ..Figure1Params::with_total_objects(objects)
        };
        let db = figure1_scaled(&params);
        let mut rng = Rng::new(seed);
        let kind = match name {
            "wire_scan" => Kind::Scan(naive(&db, SCAN_BODY)?),
            "point_update" => Kind::Point,
            _ => Kind::Walk(
                walk_statements(&mut rng, params.companies, params.cities)
                    .into_iter()
                    .map(|s| naive(&db, &s).map(|e| (s, e)))
                    .collect::<Result<_, _>>()?,
            ),
        };
        let initial = Salaries::of(&db, seed)?;
        Ok(Workload {
            name,
            params,
            kind,
            salaries: initial.clone(),
            initial,
        })
    }

    /// A tag naming the generated base database in the store.
    pub fn base_tag(&self) -> String {
        format!("figure1-{}-seed{}", self.params.companies, self.params.seed)
    }

    /// Operations run after connecting and before timing starts.
    pub fn warmup_ops(&self) -> usize {
        match self.kind {
            Kind::Scan(_) => 3,
            Kind::Point => 3,
            Kind::Walk(_) => 1,
        }
    }

    /// Restores the salary model: each set-up starts from the
    /// generated database.
    pub fn reset(&mut self) {
        self.salaries = self.initial.clone();
    }

    /// Per-connection preparation (the PREPARE of `wire_scan`).
    pub fn prepare(&self, client: &mut Client) -> Result<(), String> {
        if let Kind::Scan(_) = self.kind {
            client
                .prepare(SCAN_NAME, SCAN_BODY)
                .map_err(|e| format!("prepare: {e}"))?;
        }
        Ok(())
    }

    /// The PREPARE statement a replaying session needs, if any.
    pub fn prepare_src(&self) -> Option<String> {
        match self.kind {
            Kind::Scan(_) => Some(format!("PREPARE {SCAN_NAME} AS {SCAN_BODY}")),
            _ => None,
        }
    }

    /// Runs one operation and checks every reply.
    pub fn op(&mut self, client: &mut Client) -> Op {
        let start = Instant::now();
        let (reqs, ok) = match &self.kind {
            Kind::Scan(exp) => {
                let (req, ok) = request(
                    ReqKind::Read,
                    format!("EXECUTE {SCAN_NAME}"),
                    SCAN_BODY.to_string(),
                    |_| client.execute_prepared(SCAN_NAME, &[]),
                    |r| exp.matches(r),
                );
                (vec![req], ok)
            }
            Kind::Point => return self.salaries.iteration(client, POINT_READS),
            Kind::Walk(stmts) => {
                let mut ok = true;
                let reqs = stmts
                    .iter()
                    .map(|(src, exp)| {
                        let (req, good) = request(
                            ReqKind::Read,
                            src.clone(),
                            src.clone(),
                            |s| client.execute(s),
                            |r| exp.matches(r),
                        );
                        ok &= good;
                        req
                    })
                    .collect();
                (reqs, ok)
            }
        };
        Op {
            reqs,
            ok,
            start,
            end: Instant::now(),
        }
    }

    /// One commit and its read-back, for measuring the write path at
    /// this workload's database size (every workload ends its traced
    /// run with a few of these).
    pub fn probe_write(&mut self, client: &mut Client) -> Op {
        self.salaries.iteration(client, 1)
    }
}
