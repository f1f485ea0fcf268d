//! # bt-core — the Bracha-Toueg resilient consensus protocols
//!
//! Implementation of the protocols of Bracha & Toueg, *Resilient Consensus
//! Protocols* (PODC 1983), on top of the [`simnet`] asynchronous
//! message-passing substrate:
//!
//! * [`FailStop`] — the Figure 1 protocol, `⌊(n−1)/2⌋`-resilient against
//!   fail-stop (crash) faults, built on message cardinalities and
//!   *witnesses*;
//! * [`Malicious`] — the Figure 2 protocol, `⌊(n−1)/3⌋`-resilient against
//!   Byzantine faults, built on the initial/echo authenticated-broadcast
//!   primitive (the ancestor of Bracha's reliable broadcast);
//! * [`Simple`] — the §4.1 majority variant the paper's Markov-chain
//!   performance analysis models;
//! * [`InitiallyDead`] — a reconstruction of the §5 footnote protocol
//!   tolerating initially-dead processes under the intermediate
//!   interpretation of bivalence.
//!
//! Both resilience bounds are tight: Theorem 1 (no `⌊n/2⌋`-resilient
//! fail-stop protocol) and Theorem 3 (no `⌊n/3⌋`-resilient malicious
//! protocol). [`Config`]'s checked constructors enforce them; the
//! `modelcheck` crate demonstrates them executably and the `adversary`
//! crate supplies the fault behaviours the protocols are exercised against.
//!
//! ## Quickstart
//!
//! ```
//! use bt_core::{Config, FailStop};
//! use simnet::{Role, Sim, Value};
//!
//! // Seven processes, up to three of which may crash.
//! let config = Config::fail_stop(7, 3)?;
//! let mut b = Sim::builder();
//! for i in 0..7 {
//!     b.process(
//!         Box::new(FailStop::new(config, Value::from(i % 2 == 0))),
//!         Role::Correct,
//!     );
//! }
//! let report = b.seed(42).build().run();
//! assert!(report.agreement());
//! assert!(report.all_correct_decided());
//! # Ok::<(), bt_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broadcast;
mod config;
pub mod failstop;
pub mod initially_dead;
pub mod malicious;
mod messages;
pub mod multivalued;
pub mod simple;
mod tally;
mod wire;

pub use config::{Config, ConfigError, Threshold};
pub use failstop::FailStop;
pub use initially_dead::{DeadMsg, DecisionRule, InitiallyDead};
pub use malicious::{Malicious, Termination};
pub use messages::{FailStopMsg, MaliciousKind, MaliciousMsg, Phase, SimpleMsg};
pub use multivalued::{MultiMsg, MultiValued};
pub use simple::Simple;
