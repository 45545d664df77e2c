//! # dyncode-gf
//!
//! Finite-field arithmetic and linear algebra for random linear network
//! coding (RLNC), as used by the reproduction of Haeupler & Karger,
//! *"Faster Information Dissemination in Dynamic Networks via Network
//! Coding"* (PODC 2011).
//!
//! The paper (Section 5.1) represents each d-bit token as a vector over a
//! finite field F_q and sends random linear combinations of such vectors.
//! This crate provides:
//!
//! * [`Field`] — the field abstraction, with implementations
//!   [`Gf2`] (the paper's default, "one can choose q = 2 ... and replace
//!   linear combinations by XORs"), [`Gf256`] (the classic byte field used
//!   by practical RLNC implementations), and [`GfP`] const-generic prime
//!   fields up to [`Mersenne61`] (q = 2^61 − 1, the stand-in for the
//!   "large field" regime of the derandomization results, Section 6).
//! * Dense vectors over any [`Field`] and their row operations
//!   ([`vector`]).
//! * [`Subspace`] — an incrementally maintained basis in RREF, the core
//!   data structure of every coding node: inserting a received vector
//!   reports whether it was *innovative* (increased the dimension).
//! * [`Gf2Vec`] / [`Gf2Basis`] — bit-packed GF(2) specializations used on
//!   the protocol hot path (64 coordinates per machine word).
//!
//! # Quick example
//!
//! ```
//! use dyncode_gf::{Field, Gf256, Subspace};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // Three tokens of four symbols each, headers prepended (unit vectors).
//! let k = 3;
//! let tokens: Vec<Vec<Gf256>> = (0..k)
//!     .map(|i| {
//!         let mut v = vec![Gf256::ZERO; k + 4];
//!         v[i] = Gf256::ONE;
//!         for s in v[k..].iter_mut() { *s = Gf256::random(&mut rng); }
//!         v
//!     })
//!     .collect();
//! let mut space = Subspace::new(k + 4);
//! for t in &tokens { assert!(space.insert(t.clone())); }
//! let decoded = space.decode(k).expect("full rank");
//! assert_eq!(decoded, tokens.iter().map(|t| t[k..].to_vec()).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod field;
pub mod gf2;
pub mod gf256;
pub mod gfp;
pub mod pack;
pub mod subspace;
pub mod vector;

pub use bits::{
    limb_get, limb_leading_one, limb_prefix_ones, limb_set, limb_xor, limbs_for, Gf2Basis, Gf2Vec,
};
pub use field::Field;
pub use gf2::Gf2;
pub use gf256::Gf256;
pub use gfp::{Gf257, Gf65537, GfP, Mersenne61};
pub use subspace::Subspace;
