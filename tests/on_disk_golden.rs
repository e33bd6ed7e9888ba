//! On-disk byte goldens: the checkpoint snapshot and the WAL payload of
//! one UPDATE commit unit, pinned by their CRC-32.
//!
//! Both images are derived from in-memory structures (the snapshot from
//! `Database::export_snapshot`, the WAL payload from the redo ops and
//! the OID table), so a change to how those structures are stored or
//! iterated must leave these checksums untouched. A mismatch means the
//! persistent format moved, which needs an explicit format change, not
//! an edit of the constant.

use datagen::{figure1_scaled, Figure1Params};
use std::path::Path;
use storage::codec::decode_commit;
use storage::fault::FaultFs;
use storage::snapshot::{decode_snapshot, encode_snapshot};
use storage::wal::{crc32, scan};
use storage::{SnapshotFile, StorageFs};
use xsql::{EvalOptions, Session};

/// CRC-32 of the encoded checkpoint snapshot of the 150-object scaled
/// Figure 1 database at seed 7.
const SNAPSHOT_CRC: u32 = 3_720_521_775;
/// Byte length of that snapshot (reported alongside the CRC so a
/// mismatch says whether the image grew or only reordered).
const SNAPSHOT_LEN: usize = 29_618;
/// CRC-32 of the WAL payload of `UPDATE CLASS Employee SET
/// emp0_0_0.Salary = 123457` on the same database.
const UPDATE_PAYLOAD_CRC: u32 = 234_548_603;
const UPDATE_PAYLOAD_LEN: usize = 66;

fn base() -> oodb::Database {
    figure1_scaled(&Figure1Params {
        seed: 7,
        ..Figure1Params::with_total_objects(150)
    })
}

#[test]
fn checkpoint_snapshot_bytes_are_pinned() {
    let snap = SnapshotFile {
        base_tag: "golden".into(),
        last_seq: 3,
        anon_counter: 5,
        catalog: vec!["CREATE VIEW v AS SELECT X FROM Employee X".into()],
        db: base().export_snapshot(),
    };
    let bytes = encode_snapshot(&snap);
    assert_eq!(
        (crc32(0, &bytes), bytes.len()),
        (SNAPSHOT_CRC, SNAPSHOT_LEN),
        "checkpoint snapshot bytes changed"
    );
    // The image still decodes to what was encoded.
    let back = decode_snapshot(&bytes).expect("golden snapshot decodes");
    assert_eq!(back.db, snap.db);
}

#[test]
fn update_commit_payload_is_pinned() {
    let fs = FaultFs::new();
    let dir = Path::new("/db");
    let mut s = Session::open_dir(
        Box::new(fs.clone()),
        dir,
        base(),
        "golden",
        EvalOptions::default(),
    )
    .expect("open store");
    s.run("UPDATE CLASS Employee SET emp0_0_0.Salary = 123457")
        .expect("update commits");
    // The last record of the last segment is the UPDATE's unit.
    let segment = (1..100)
        .rev()
        .map(|i| dir.join(format!("wal.{i:06}")))
        .find(|p| fs.exists(p))
        .expect("a WAL segment exists");
    let wal = scan(&fs.peek(&segment).expect("segment readable"));
    let (_, payload) = wal.records.last().expect("one commit record");
    assert_eq!(
        (crc32(0, payload), payload.len()),
        (UPDATE_PAYLOAD_CRC, UPDATE_PAYLOAD_LEN),
        "UPDATE commit payload bytes changed"
    );
    let mut oids = s.db().oids().clone();
    decode_commit(payload, &mut oids).expect("golden payload decodes");
}
