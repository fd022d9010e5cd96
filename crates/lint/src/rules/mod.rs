//! The nine rule families of `rebootlint`.

pub mod alloc;
pub mod channel;
pub mod determinism;
pub mod eventloop;
pub mod families;
pub mod freeze;
pub mod home;
pub mod locks;
pub mod panics;
