//! The golden name test's lookup shim: resolves a `(view, name)` pair
//! through the lock catalog's API.

use super::Resolved;
use hemlock_core::raw::RawLock;
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor, View};

struct SizeOf;

impl LockVisitor for SizeOf {
    type Output = usize;
    fn visit<L: RawLock + 'static>(self, _: &'static CatalogEntry) -> usize {
        core::mem::size_of::<L>()
    }
}

fn view_of(view: &str) -> View {
    match view {
        "lock" => View::Lock,
        "rw" => View::Rw,
        "async" => View::Async,
        _ => unreachable!("unknown view {view}"),
    }
}

pub(super) fn resolve(view: &str, name: &str) -> Option<Resolved> {
    let e = catalog::find(view_of(view), name)?;
    Some(Resolved {
        key: e.key,
        display: e.meta.name,
        size: catalog::with_lock_type(e, SizeOf),
        try_lock: e.meta.try_lock,
        abortable: e.meta.abortable,
        rw: e.meta.rw,
    })
}

pub(super) fn keys(view: &str) -> Vec<&'static str> {
    catalog::keys(view_of(view))
}
