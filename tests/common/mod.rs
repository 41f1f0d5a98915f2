//! Helpers shared by the root integration suites; a suite pulls them in
//! with `mod common;`. Each suite uses only some of them.
#![allow(dead_code)]

pub mod multipass;
pub mod synthetic;
