//! E4 — schema exploration via attribute variables (§3.1 point 1).
//!
//! An attribute-variable query (`X."Y.City[c]`) against the equivalent
//! hand-expanded fixed-attribute query, and the cost of enumerating
//! candidate methods as the schema grows (extra decoy attributes).
//! Expected shape: the attribute-variable query pays a per-object
//! method-enumeration overhead that grows with the number of defined
//! attributes, while the fixed query is flat — the price of not knowing
//! the schema.

use bench::{compile, scaled_db};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xsql::{eval_select, EvalOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4_schema_browsing");
    let opts = EvalOptions::default();

    let mut db = scaled_db(4);
    let qv = compile(&mut db, "SELECT Y FROM Person X WHERE X.\"Y.City['city3']");
    let qf = compile(
        &mut db,
        "SELECT X FROM Person X WHERE X.Residence.City['city3']",
    );
    group.bench_function("attribute_variable", |b| {
        b.iter(|| black_box(eval_select(&db, &qv, &opts).unwrap()))
    });
    group.bench_function("fixed_attribute", |b| {
        b.iter(|| black_box(eval_select(&db, &qf, &opts).unwrap()))
    });

    // Grow the number of attributes defined on each person.
    for extra in [0usize, 8, 32] {
        let mut db = scaled_db(2);
        {
            let person = db.oids().find_sym("Person").unwrap();
            // Collected: the loop below writes to `db`.
            let people: Vec<_> = db.instances_of(person).into_iter().collect();
            for i in 0..extra {
                let m = db.oids_mut().sym(&format!("Decoy{i}"));
                let v = db.oids_mut().int(i as i64);
                for &p in &people {
                    db.set_scalar(p, m, &[], v).unwrap();
                }
            }
        }
        let q = compile(&mut db, "SELECT Y FROM Person X WHERE X.\"Y.City['city3']");
        group.bench_with_input(
            BenchmarkId::new("attribute_variable_decoys", extra),
            &extra,
            |b, _| b.iter(|| black_box(eval_select(&db, &q, &opts).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
