//! Identifier newtypes for the FaaS platform.

use std::fmt;

/// An OpenWhisk invoker (worker). In HPC-Whisk each invoker lives inside
/// one pilot job; callers key invokers by the pilot's job id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvokerId(pub u64);

/// A deployed function (OpenWhisk "action").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

/// One function invocation (OpenWhisk "activation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivationId(pub u64);

impl fmt::Display for InvokerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv{}", self.0)
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

impl fmt::Display for ActivationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "act{}", self.0)
    }
}

/// A deterministic integer hash (Fibonacci hashing), used for
/// home-invoker routing so that "the target invoker is determined based
/// on the hashed name of the function" (paper §II).
pub fn stable_hash(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(InvokerId(1).to_string(), "inv1");
        assert_eq!(FunctionId(2).to_string(), "fn2");
        assert_eq!(ActivationId(3).to_string(), "act3");
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreading() {
        assert_eq!(stable_hash(7), stable_hash(7));
        // Consecutive inputs land far apart.
        let a = stable_hash(1) % 97;
        let b = stable_hash(2) % 97;
        assert_ne!(a, b);
    }
}
