//! Per-column string interning.

use std::collections::HashMap;
use std::sync::Arc;

/// An append-only string dictionary mapping categorical values to dense
/// `u32` codes.
///
/// Codes are assigned in first-seen order and are stable for the life
/// of the dictionary. All categorical set logic in the categorizer
/// (IN-clause overlap, single-value categories) works on codes; strings
/// are only touched when rendering labels.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its code (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.codes.get(s) {
            return code;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = self.values.len() as u32;
        self.values.push(arc.clone());
        self.codes.insert(arc, code);
        code
    }

    /// Code for `s` if already interned.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// The string for `code`, if in range.
    pub fn value(&self, code: u32) -> Option<&Arc<str>> {
        self.values.get(code as usize)
    }

    /// The string for `code`; panics on an out-of-range code (codes
    /// produced by this dictionary are always in range).
    pub fn value_unchecked(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no values have been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned values in code order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcat_datagen::prop;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("Bellevue");
        let b = d.intern("Redmond");
        assert_eq!(d.intern("Bellevue"), a);
        assert_eq!(d.intern("Redmond"), b);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn codes_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for (i, s) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(d.intern(s), i as u32);
        }
    }

    #[test]
    fn lookup_and_value_roundtrip() {
        let mut d = Dictionary::new();
        let code = d.intern("Issaquah");
        assert_eq!(d.lookup("Issaquah"), Some(code));
        assert_eq!(d.lookup("Sammamish"), None);
        assert_eq!(d.value(code).unwrap().as_ref(), "Issaquah");
        assert_eq!(d.value(999), None);
        assert_eq!(d.value_unchecked(code), "Issaquah");
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(d.values().is_empty());
    }

    /// Interning any sequence of strings round-trips: every string maps
    /// to a code whose stored value equals the string.
    #[test]
    fn prop_roundtrip() {
        prop::check("dictionary_roundtrip", 64, 63, |rng, size| {
            // Short strings of any characters, half from a tiny
            // alphabet so that repeats are common.
            let strings = prop::vec(rng, 0, size, |rng| {
                prop::vec(rng, 0, 12, |rng| {
                    if rng.gen_bool(0.5) {
                        ['a', 'b', ' '][rng.gen_range(0..3usize)]
                    } else {
                        char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}')
                    }
                })
                .into_iter()
                .collect::<String>()
            });
            let mut d = Dictionary::new();
            let codes: Vec<u32> = strings.iter().map(|s| d.intern(s)).collect();
            for (s, c) in strings.iter().zip(&codes) {
                assert_eq!(d.value_unchecked(*c), s.as_str());
                assert_eq!(d.lookup(s), Some(*c), "{s:?}");
            }
            // Distinct strings get distinct codes.
            let uniq: std::collections::HashSet<_> = strings.iter().collect();
            assert_eq!(d.len(), uniq.len(), "{strings:?}");
            Ok(())
        });
    }
}
