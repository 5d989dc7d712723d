//! Cross-crate integration tests.
//!
//! The repository-root `tests/` files are registered as this crate's
//! integration tests (see `Cargo.toml`); the library itself is empty.
