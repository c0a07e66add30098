//! The copy counter itself: every deep copy through `Bytes` bumps
//! `deep_copy_count` exactly once.
//!
//! This lives in its own test binary because it deliberately copies: the
//! zero-copy tests beside `Bytes` read the same process-global counter, and a
//! copy from this test running concurrently would turn their zero-delta
//! assertions flaky.

use bytes::{deep_copy_count, Bytes};

#[test]
fn bytes_deep_copies_are_counted() {
    let base = Bytes::from(vec![9u8; 32]);
    let before = deep_copy_count();
    let _ = base.to_vec();
    let copied = Bytes::copy_from_slice(&base);
    assert_eq!(copied, base);
    assert!(!copied.ptr_eq(&base));
    let gathered = Bytes::gather(&[base.slice(..16), base.slice(16..)]);
    assert_eq!(gathered.len(), 32);
    assert_eq!(deep_copy_count(), before + 3);
    // Single-part gather is a no-op clone.
    assert!(Bytes::gather(std::slice::from_ref(&base)).ptr_eq(&base));
    assert_eq!(deep_copy_count(), before + 3);
}
