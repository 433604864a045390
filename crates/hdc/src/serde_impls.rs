//! Serde implementations (enabled with the `serde` feature).
//!
//! Hypervectors and associative memories are the durable artifacts of an
//! HD system — a trained model *is* its set of class hypervectors — so
//! they serialize. The bit-packed representation round-trips through a
//! `(len, words)` pair.

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::am::{AssociativeMemory, ClassId};
use crate::bitvec::BitVec;
use crate::hypervector::{Dimension, Distance, Hypervector};

#[derive(Serialize, Deserialize)]
struct BitVecRepr {
    len: usize,
    words: Vec<u64>,
}

impl Serialize for BitVec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        BitVecRepr {
            len: self.len(),
            words: self.as_words().to_vec(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for BitVec {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = BitVecRepr::deserialize(deserializer)?;
        if repr.words.len() != repr.len.div_ceil(64) {
            return Err(D::Error::custom("bit vector word count mismatch"));
        }
        // Rebuild through the public API so the tail invariant holds even
        // for adversarial input.
        let mut v = BitVec::zeros(repr.len);
        for i in 0..repr.len {
            if (repr.words[i / 64] >> (i % 64)) & 1 == 1 {
                v.set(i, true);
            }
        }
        Ok(v)
    }
}

impl Serialize for Hypervector {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_bitvec().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Hypervector {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bits = BitVec::deserialize(deserializer)?;
        Hypervector::from_bitvec(bits).map_err(|e| D::Error::custom(e.to_string()))
    }
}

impl Serialize for Dimension {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.get().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Dimension {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let raw = usize::deserialize(deserializer)?;
        Dimension::new(raw).map_err(|e| D::Error::custom(e.to_string()))
    }
}

impl Serialize for Distance {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_usize().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Distance {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Distance::new(usize::deserialize(deserializer)?))
    }
}

#[derive(Serialize, Deserialize)]
struct MemoryRepr {
    dim: Dimension,
    labels: Vec<String>,
    rows: Vec<Hypervector>,
}

impl Serialize for AssociativeMemory {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut labels = Vec::with_capacity(self.len());
        let mut rows = Vec::with_capacity(self.len());
        for (_, label, row) in self.iter() {
            labels.push(label.to_owned());
            rows.push(row);
        }
        MemoryRepr {
            dim: self.dim(),
            labels,
            rows,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for AssociativeMemory {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = MemoryRepr::deserialize(deserializer)?;
        if repr.labels.len() != repr.rows.len() {
            return Err(D::Error::custom("label/row count mismatch"));
        }
        // Rebuild through `insert` so every row is validated against the
        // declared space (and the packed matrix is reconstructed).
        let mut memory = AssociativeMemory::new(repr.dim);
        for (label, row) in repr.labels.into_iter().zip(repr.rows) {
            memory
                .insert(label, row)
                .map_err(|e| D::Error::custom(e.to_string()))?;
        }
        Ok(memory)
    }
}

impl Serialize for ClassId {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for ClassId {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(ClassId(usize::deserialize(deserializer)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_round_trips_through_json() {
        let v = BitVec::from_bits((0..130).map(|i| i % 3 == 0));
        let json = serde_json::to_string(&v).unwrap();
        let back: BitVec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn hypervector_round_trips() {
        let dim = Dimension::new(1_000).unwrap();
        let hv = Hypervector::random(dim, 7);
        let json = serde_json::to_string(&hv).unwrap();
        let back: Hypervector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, hv);
    }

    #[test]
    fn corrupt_word_count_is_rejected() {
        let bad = r#"{"len": 130, "words": [0]}"#;
        assert!(serde_json::from_str::<BitVec>(bad).is_err());
    }

    #[test]
    fn zero_dimension_hypervector_is_rejected() {
        let bad = r#"{"len": 0, "words": []}"#;
        assert!(serde_json::from_str::<Hypervector>(bad).is_err());
        assert!(serde_json::from_str::<Dimension>("0").is_err());
    }

    #[test]
    fn associative_memory_round_trips_and_validates() {
        let dim = Dimension::new(300).unwrap();
        let mut am = AssociativeMemory::new(dim);
        for s in 0..4u64 {
            am.insert(format!("lang-{s}"), Hypervector::random(dim, s))
                .unwrap();
        }
        let json = serde_json::to_string(&am).unwrap();
        let back: AssociativeMemory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dim(), am.dim());
        assert_eq!(back.len(), am.len());
        for (class, label, row) in am.iter() {
            assert_eq!(back.label(class), Some(label));
            assert_eq!(back.row(class), Some(row));
        }
        // The packed search matrix was rebuilt, not just the views.
        let hit = back.search(&am.row(ClassId(2)).unwrap()).unwrap();
        assert_eq!(hit.class, ClassId(2));

        // A row from another space is rejected at deserialization.
        let mut bad: serde_json::Value = serde_json::from_str(&json).unwrap();
        bad["dim"] = serde_json::Value::from(400u64);
        assert!(serde_json::from_str::<AssociativeMemory>(&bad.to_string()).is_err());
    }

    #[test]
    fn scalar_newtypes_round_trip() {
        let d: Distance = serde_json::from_str("42").unwrap();
        assert_eq!(d, Distance::new(42));
        assert_eq!(serde_json::to_string(&d).unwrap(), "42");
        let c: ClassId = serde_json::from_str("3").unwrap();
        assert_eq!(c, ClassId(3));
        let dim: Dimension = serde_json::from_str("10000").unwrap();
        assert_eq!(dim.get(), 10_000);
    }
}
