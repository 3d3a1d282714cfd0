//! Reference model for the bit-identity tests: the token encoder and the
//! bytewise CRC32 kernel exactly as they were before the encoder stopped
//! allocating per token and the kernel moved to slice-by-8. Every encoding
//! and every stored checksum in the workspace must stay byte-for-byte what
//! this model produces.
//!
//! The `Writer` and the CRC functions are verbatim copies; `RefWire` carries
//! the encode half of the `Wire` impls for the types the tests generate.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// Serializes values into the token stream.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    fn sep(&mut self) {
        if !self.out.is_empty() {
            self.out.push(' ');
        }
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        self.out.push_str(&v.to_string());
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        self.sep();
        self.out.push_str(&v.to_string());
    }

    /// Writes a float as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.sep();
        self.out.push_str(&format!("x{:016x}", v.to_bits()));
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.out.push(if v { '1' } else { '0' });
    }

    /// Writes a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push_str(&s.len().to_string());
        self.out.push(':');
        self.out.push_str(s);
    }

    /// Finishes and returns the encoded buffer.
    pub fn finish(self) -> String {
        self.out
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Folds `bytes` into a running CRC32 state. Start from
/// [`CRC32_INIT`] and finish with [`crc32_finish`]; or use [`crc32`] for a
/// one-shot hash.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ CRC32_TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The initial CRC32 state.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Finalizes a running CRC32 state.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, bytes))
}

/// Encodes a value with a CRC32 frame: the first token is the checksum of
/// the encoded payload that follows.
pub fn to_string_checksummed<T: RefWire>(value: &T) -> String {
    let payload = to_string(value);
    let mut framed = String::with_capacity(payload.len() + 11);
    framed.push_str(&crc32(payload.as_bytes()).to_string());
    framed.push(' ');
    framed.push_str(&payload);
    framed
}

/// The encode half of `dmps_wire::Wire`, against the reference writer.
pub trait RefWire {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut Writer);
}

/// Encodes a value to a string.
pub fn to_string<T: RefWire>(value: &T) -> String {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.finish()
}

macro_rules! wire_unsigned {
    ($($t:ty),*) => {$(
        impl RefWire for $t {
            fn encode(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
    )*};
}

wire_unsigned!(u8, u16, u32, u64, usize);

macro_rules! wire_signed {
    ($($t:ty),*) => {$(
        impl RefWire for $t {
            fn encode(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
    )*};
}

wire_signed!(i8, i16, i32, i64, isize);

impl RefWire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl RefWire for bool {
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl RefWire for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl RefWire for Duration {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.as_secs());
        w.u64(self.subsec_nanos() as u64);
    }
}

impl<T: RefWire> RefWire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.bool(true);
                v.encode(w);
            }
            None => w.bool(false),
        }
    }
}

impl<T: RefWire> RefWire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: RefWire> RefWire for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: RefWire + Ord> RefWire for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<K: RefWire + Ord, V: RefWire> RefWire for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: RefWire),+> RefWire for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
