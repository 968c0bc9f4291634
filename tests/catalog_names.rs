//! Golden list of every lock name the binaries accept, and of names they
//! refuse.
//!
//! The catalog serves three views. `lock` holds the exclusive keys that
//! every figure binary takes. `rw` holds the `rw.*` reader-writer twins,
//! which `rwbench` takes alongside the `lock` names. `async` holds the
//! `async.*` keys that `asyncbench`, `loadgen` and `kvserver` take. For each
//! accepted spelling (key, alias or display name, in any ASCII case) the
//! table pins the canonical key, the display name, the `size_of` of the
//! statically dispatched type, and the `try_lock` / `abortable` / `rw` bits.
//!
//! The two tables are the contract. Only the lookup shim in
//! `catalog_names/lookup.rs` follows the catalog's API.

#[path = "catalog_names/lookup.rs"]
mod lookup;

use lookup::{keys, resolve};

/// `(view, name, key, display name, size_of on 64-bit targets, try_lock,
/// abortable, rw)`.
type Golden = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    usize,
    bool,
    bool,
    bool,
);

#[rustfmt::skip]
const ACCEPTED: &[Golden] = &[
    ("lock", "hemlock", "hemlock", "Hemlock", 8, true, true, false),
    ("lock", "hemlock.ctr", "hemlock", "Hemlock", 8, true, true, false),
    ("lock", "Hemlock", "hemlock", "Hemlock", 8, true, true, false),
    ("lock", "hemlock.naive", "hemlock.naive", "Hemlock-", 8, true, true, false),
    ("lock", "hemlock-", "hemlock.naive", "Hemlock-", 8, true, true, false),
    ("lock", "Hemlock-", "hemlock.naive", "Hemlock-", 8, true, true, false),
    ("lock", "hemlock.overlap", "hemlock.overlap", "Hemlock+Overlap", 8, true, true, false),
    ("lock", "Hemlock+Overlap", "hemlock.overlap", "Hemlock+Overlap", 8, true, true, false),
    ("lock", "hemlock.ah", "hemlock.ah", "Hemlock+AH", 8, true, true, false),
    ("lock", "Hemlock+AH", "hemlock.ah", "Hemlock+AH", 8, true, true, false),
    ("lock", "hemlock.v1", "hemlock.v1", "Hemlock+HOV1", 8, true, true, false),
    ("lock", "hemlock.hov1", "hemlock.v1", "Hemlock+HOV1", 8, true, true, false),
    ("lock", "Hemlock+HOV1", "hemlock.v1", "Hemlock+HOV1", 8, true, true, false),
    ("lock", "hemlock.v2", "hemlock.v2", "Hemlock+HOV2", 8, true, true, false),
    ("lock", "hemlock.hov2", "hemlock.v2", "Hemlock+HOV2", 8, true, true, false),
    ("lock", "Hemlock+HOV2", "hemlock.v2", "Hemlock+HOV2", 8, true, true, false),
    ("lock", "hemlock.parking", "hemlock.parking", "Hemlock+CV", 8, true, true, false),
    ("lock", "hemlock.cv", "hemlock.parking", "Hemlock+CV", 8, true, true, false),
    ("lock", "Hemlock+CV", "hemlock.parking", "Hemlock+CV", 8, true, true, false),
    ("lock", "hemlock.chain", "hemlock.chain", "Hemlock+Chain", 8, true, true, false),
    ("lock", "Hemlock+Chain", "hemlock.chain", "Hemlock+Chain", 8, true, true, false),
    ("lock", "hemlock.instr", "hemlock.instr", "Hemlock(instr)", 8, true, true, false),
    ("lock", "hemlock.instrumented", "hemlock.instr", "Hemlock(instr)", 8, true, true, false),
    ("lock", "Hemlock(instr)", "hemlock.instr", "Hemlock(instr)", 8, true, true, false),
    ("lock", "obs.hemlock", "obs.hemlock", "Hemlock(obs)", 8, true, true, false),
    ("lock", "hemlock.obs", "obs.hemlock", "Hemlock(obs)", 8, true, true, false),
    ("lock", "Hemlock(obs)", "obs.hemlock", "Hemlock(obs)", 8, true, true, false),
    ("lock", "mcs", "mcs", "MCS", 16, true, true, false),
    ("lock", "MCS", "mcs", "MCS", 16, true, true, false),
    ("lock", "clh", "clh", "CLH", 16, false, false, false),
    ("lock", "CLH", "clh", "CLH", 16, false, false, false),
    ("lock", "ticket", "ticket", "Ticket", 16, true, true, false),
    ("lock", "Ticket", "ticket", "Ticket", 16, true, true, false),
    ("lock", "tas", "tas", "TAS", 1, true, true, false),
    ("lock", "TAS", "tas", "TAS", 1, true, true, false),
    ("lock", "ttas", "ttas", "TTAS", 1, true, true, false),
    ("lock", "TTAS", "ttas", "TTAS", 1, true, true, false),
    ("lock", "anderson", "anderson", "Anderson", 8320, false, false, false),
    ("lock", "Anderson", "anderson", "Anderson", 8320, false, false, false),
    ("rw", "rw.hemlock", "rw.hemlock", "HemlockRw", 1152, true, true, true),
    ("rw", "hemlockrw", "rw.hemlock", "HemlockRw", 1152, true, true, true),
    ("rw", "hemlock.rw", "rw.hemlock", "HemlockRw", 1152, true, true, true),
    ("rw", "HemlockRw", "rw.hemlock", "HemlockRw", 1152, true, true, true),
    ("rw", "rw.hemlock.naive", "rw.hemlock.naive", "RW-Hemlock-", 16, true, true, true),
    ("rw", "RW-Hemlock-", "rw.hemlock.naive", "RW-Hemlock-", 16, true, true, true),
    ("rw", "rw.hemlock.overlap", "rw.hemlock.overlap", "RW-Hemlock+Overlap", 16, true, true, true),
    ("rw", "RW-Hemlock+Overlap", "rw.hemlock.overlap", "RW-Hemlock+Overlap", 16, true, true, true),
    ("rw", "rw.hemlock.ah", "rw.hemlock.ah", "RW-Hemlock+AH", 16, true, true, true),
    ("rw", "RW-Hemlock+AH", "rw.hemlock.ah", "RW-Hemlock+AH", 16, true, true, true),
    ("rw", "rw.hemlock.v1", "rw.hemlock.v1", "RW-Hemlock+HOV1", 16, true, true, true),
    ("rw", "RW-Hemlock+HOV1", "rw.hemlock.v1", "RW-Hemlock+HOV1", 16, true, true, true),
    ("rw", "rw.hemlock.v2", "rw.hemlock.v2", "RW-Hemlock+HOV2", 16, true, true, true),
    ("rw", "RW-Hemlock+HOV2", "rw.hemlock.v2", "RW-Hemlock+HOV2", 16, true, true, true),
    ("rw", "rw.hemlock.parking", "rw.hemlock.parking", "RW-Hemlock+CV", 16, true, true, true),
    ("rw", "RW-Hemlock+CV", "rw.hemlock.parking", "RW-Hemlock+CV", 16, true, true, true),
    ("rw", "rw.hemlock.chain", "rw.hemlock.chain", "RW-Hemlock+Chain", 16, true, true, true),
    ("rw", "RW-Hemlock+Chain", "rw.hemlock.chain", "RW-Hemlock+Chain", 16, true, true, true),
    ("rw", "rw.hemlock.instr", "rw.hemlock.instr", "RW-Hemlock(instr)", 16, true, true, true),
    ("rw", "RW-Hemlock(instr)", "rw.hemlock.instr", "RW-Hemlock(instr)", 16, true, true, true),
    ("rw", "rw.obs.hemlock", "rw.obs.hemlock", "RW-Hemlock(obs)", 16, true, true, true),
    ("rw", "rw.hemlock.obs", "rw.obs.hemlock", "RW-Hemlock(obs)", 16, true, true, true),
    ("rw", "RW-Hemlock(obs)", "rw.obs.hemlock", "RW-Hemlock(obs)", 16, true, true, true),
    ("rw", "rw.mcs", "rw.mcs", "RW-MCS", 24, true, true, true),
    ("rw", "RW-MCS", "rw.mcs", "RW-MCS", 24, true, true, true),
    ("rw", "rw.clh", "rw.clh", "RW-CLH", 24, false, false, true),
    ("rw", "RW-CLH", "rw.clh", "RW-CLH", 24, false, false, true),
    ("rw", "rw.ticket", "rw.ticket", "RW-Ticket", 24, true, true, true),
    ("rw", "RW-Ticket", "rw.ticket", "RW-Ticket", 24, true, true, true),
    ("rw", "rw.tas", "rw.tas", "RW-TAS", 16, true, true, true),
    ("rw", "RW-TAS", "rw.tas", "RW-TAS", 16, true, true, true),
    ("rw", "rw.ttas", "rw.ttas", "RW-TTAS", 16, true, true, true),
    ("rw", "RW-TTAS", "rw.ttas", "RW-TTAS", 16, true, true, true),
    ("rw", "rw.anderson", "rw.anderson", "RW-Anderson", 8448, false, false, true),
    ("rw", "RW-Anderson", "rw.anderson", "RW-Anderson", 8448, false, false, true),
    ("async", "async.hemlock", "async.hemlock", "Hemlock", 8, true, true, false),
    ("async", "async.hemlock.ctr", "async.hemlock", "Hemlock", 8, true, true, false),
    ("async", "async.hemlock.naive", "async.hemlock.naive", "Hemlock-", 8, true, true, false),
    ("async", "async.hemlock.overlap", "async.hemlock.overlap", "Hemlock+Overlap", 8, true, true, false),
    ("async", "async.hemlock.ah", "async.hemlock.ah", "Hemlock+AH", 8, true, true, false),
    ("async", "async.hemlock.v1", "async.hemlock.v1", "Hemlock+HOV1", 8, true, true, false),
    ("async", "async.hemlock.v2", "async.hemlock.v2", "Hemlock+HOV2", 8, true, true, false),
    ("async", "async.hemlock.parking", "async.hemlock.parking", "Hemlock+CV", 8, true, true, false),
    ("async", "async.hemlock.chain", "async.hemlock.chain", "Hemlock+Chain", 8, true, true, false),
    ("async", "async.hemlock.instr", "async.hemlock.instr", "Hemlock(instr)", 8, true, true, false),
    ("async", "async.obs.hemlock", "async.obs.hemlock", "Hemlock(obs)", 8, true, true, false),
    ("async", "async.hemlock.obs", "async.obs.hemlock", "Hemlock(obs)", 8, true, true, false),
    ("async", "async.mcs", "async.mcs", "MCS", 16, true, true, false),
    ("async", "async.ticket", "async.ticket", "Ticket", 16, true, true, false),
    ("async", "async.tas", "async.tas", "TAS", 1, true, true, false),
    ("async", "async.ttas", "async.ttas", "TTAS", 1, true, true, false),
];

/// `(view, name)` pairs that the view must refuse.
const REJECTED: &[(&str, &str)] = &[
    // CLH and Anderson waiters cannot withdraw, so they have no async twin.
    ("async", "async.clh"),
    ("async", "async.anderson"),
    // Exclusive names and display names are not async names.
    ("async", "hemlock"),
    ("async", "MCS"),
    ("async", "async.hemlock-"),
    ("async", "rw.mcs"),
    // Twin names are not exclusive names.
    ("lock", "rw.mcs"),
    ("lock", "RW-MCS"),
    ("lock", "hemlock.rw"),
    ("lock", "HemlockRw"),
    ("lock", "async.mcs"),
    // The rw view holds only the twins; exclusive aliases do not carry over.
    ("rw", "mcs"),
    ("rw", "hemlock"),
    ("rw", "rw.hemlock.ctr"),
    ("rw", "rw.hemlock-"),
    ("rw", "async.mcs"),
    // Unknown everywhere.
    ("lock", "bogus"),
    ("rw", "rw.bogus"),
    ("async", "async.bogus"),
];

/// What one name resolves to.
#[derive(Debug, PartialEq)]
struct Resolved {
    key: &'static str,
    display: &'static str,
    size: usize,
    try_lock: bool,
    abortable: bool,
    rw: bool,
}

impl Resolved {
    fn golden(row: &Golden) -> Self {
        let &(_, _, key, display, size, try_lock, abortable, rw) = row;
        Resolved {
            key,
            display,
            size,
            try_lock,
            abortable,
            rw,
        }
    }
}

// ------------------------------------------------------------------ tests

const VIEWS: [&str; 3] = ["lock", "rw", "async"];

#[test]
fn every_accepted_name_resolves_to_its_golden_row() {
    for row in ACCEPTED {
        let (view, name) = (row.0, row.1);
        let mut want = Resolved::golden(row);
        for spelling in [name.to_string(), name.to_ascii_uppercase()] {
            let mut got = resolve(view, &spelling)
                .unwrap_or_else(|| panic!("{view} view refuses {spelling:?}"));
            if cfg!(not(target_pointer_width = "64")) {
                // Sizes are recorded for 64-bit targets.
                (got.size, want.size) = (0, 0);
            }
            assert_eq!(got, want, "{view} view, name {spelling:?}");
        }
    }
}

#[test]
fn rejected_names_stay_rejected() {
    for &(view, name) in REJECTED {
        assert!(
            resolve(view, name).is_none(),
            "{view} view must refuse {name:?}"
        );
    }
}

#[test]
fn golden_table_lists_every_key_in_catalog_order() {
    for view in VIEWS {
        let golden: Vec<&str> = ACCEPTED
            .iter()
            .filter(|r| r.0 == view && r.1 == r.2)
            .map(|r| r.2)
            .collect();
        assert_eq!(keys(view), golden, "{view} view keys");
    }
    let count = |view: &str| {
        ACCEPTED
            .iter()
            .filter(|r| r.0 == view && r.1 == r.2)
            .count()
    };
    assert_eq!((count("lock"), count("rw"), count("async")), (16, 16, 14));
    let aliases = ACCEPTED.iter().filter(|r| r.1 != r.2 && r.1 != r.3).count();
    assert_eq!(aliases, 12);
}
