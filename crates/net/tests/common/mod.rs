//! Checks shared by the serving and replication suites.

use net::{Client, ErrorCode, NetError, Response};

/// Checks, on a connection where `q` is prepared as
/// `SELECT X FROM Person X WHERE X.Age > ?1 AND X.Age < ?2` over `mary`
/// (31) and `john` (44), that a `Prepare` or `ExecutePrepared` frame
/// field holding more than one part is refused with a typed statement
/// error, and that the connection keeps serving after each refusal.
pub fn assert_frame_fields_are_whole(c: &mut Client) {
    let serves = |c: &mut Client| {
        let r = c
            .execute_prepared("q", &["30", "40"])
            .expect("the connection keeps serving");
        assert_eq!(r.rows, vec![vec!["mary".to_string()]]);
    };
    serves(c);
    type Request = fn(&mut Client) -> Result<Response, NetError>;
    let bad: [(&str, Request); 4] = [
        ("one argument `30, 40`", |c| {
            c.execute_prepared("q", &["30, 40"])
        }),
        ("the name `q (30, 50)`", |c| {
            c.execute_prepared("q (30, 50)", &[])
        }),
        ("the name `a b`", |c| {
            c.prepare("a b", "SELECT X FROM Person X")
        }),
        ("the name `w AS … UNION`", |c| {
            c.prepare(
                "w AS SELECT X FROM Person X UNION",
                "SELECT X FROM Person X",
            )
        }),
    ];
    for (what, request) in bad {
        match request(c) {
            Err(NetError::Server {
                code: ErrorCode::Stmt,
                ..
            }) => {}
            other => panic!("{what}: expected a statement error, got {other:?}"),
        }
        serves(c);
    }
}
