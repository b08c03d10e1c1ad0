//! `lobist serve`: a persistent synthesis daemon in front of the
//! engine and its durable result store.
//!
//! The daemon keeps one [`lobist_engine::Engine`] alive across
//! requests, so the in-memory result cache and the on-disk
//! content-addressed store ([`lobist_store`]) amortize synthesis work
//! across clients *and* across daemon restarts: the same design
//! submitted twice is answered from memory the second time, and after
//! a restart from disk — byte-identically, because the `result` wire
//! event is rendered purely from the stored job result.
//!
//! The wire protocol is line-delimited JSON over TCP and/or a Unix
//! socket ([`proto`] documents the schema). Everything is `std`-only:
//! hand-rolled JSON, `std::net` + `std::os::unix::net` listeners, a
//! `Mutex`/`Condvar` admission gate.
//!
//! ```no_run
//! use lobist_server::{client, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! let addr = server.tcp_addr().expect("tcp enabled").to_string();
//! let handle = server.handle();
//! std::thread::spawn(move || server.run());
//! let events = client::submit(&client::Endpoint::Tcp(addr), r#"{"cmd":"ping"}"#)?;
//! assert!(events[0].contains("pong"));
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod exec;
pub mod json;
pub mod proto;
mod server;

pub use client::{submit, submit_with, Endpoint};
pub use server::{Server, ServerConfig, ServerHandle};
