//! Identifier newtypes.
//!
//! Small `u32`/`u64` wrappers so that a table id can never be confused with
//! a transaction id at compile time. All are `Copy` and order by their
//! numeric value, which the scheduler relies on (TE order, batch order).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Wrap a raw id.
            pub const fn new(v: $inner) -> Self {
                Self(v)
            }
            /// Unwrap to the raw integer.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifies a table, stream, or window in the catalog.
    TableId, u32, "t"
);
id_type!(
    /// Identifies a stored procedure in the procedure registry.
    ProcId, u32, "sp"
);
id_type!(
    /// Identifies one transaction execution (TE). Monotone per partition;
    /// commit order equals id order under serial execution.
    TxnId, u64, "txn"
);
id_type!(
    /// Identifies an input batch flowing through a workflow. The S-Store
    /// transaction model keys everything on (procedure, batch).
    BatchId, u64, "b"
);
id_type!(
    /// Identifies a logical partition (site). Standalone instances are
    /// partition 0 (the paper's single-sited demo); the cluster runtime
    /// assigns one id per worker and threads it through `PeConfig`,
    /// `PeStats`, and the cluster metrics.
    PartitionId, u32, "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        let a = TxnId::new(1);
        let b = TxnId::new(2);
        assert!(a < b);
        assert_eq!(b.raw(), 2);
        assert_eq!(a.to_string(), "txn1");
        assert_eq!(TableId::new(7).to_string(), "t7");
        assert_eq!(BatchId::new(3).to_string(), "b3");
    }

    #[test]
    fn ids_hash_and_convert() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ProcId::from(4u32));
        assert!(s.contains(&ProcId::new(4)));
        assert_eq!(PartitionId::new(0).raw(), 0);
    }
}
