//! Error type for index construction, persistence and queries.

use std::fmt;

/// Errors surfaced by the QbS index.
#[derive(Debug)]
pub enum QbsError {
    /// A requested vertex does not exist in the indexed graph.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: u64,
        /// Number of vertices in the indexed graph.
        num_vertices: u64,
    },
    /// The landmark configuration is unusable (empty, duplicated or out of
    /// range landmarks).
    InvalidLandmarks(String),
    /// A serialised index could not be decoded.
    Corrupt(String),
    /// The graph has more arcs than an index file's `u32` row bounds
    /// address (2³² − 1).
    GraphTooLarge {
        /// Directed arcs of the graph (twice its edges).
        num_arcs: u64,
    },
    /// A label distance exceeds 65 534, the longest an index file's
    /// two-byte label slot holds.
    LabelDistanceTooLarge {
        /// The first distance that does not fit.
        distance: u32,
    },
    /// A landmark-to-landmark distance is so long that a sketch's sums of
    /// two label distances and it reach the 32-bit lanes' "no entry"
    /// value (`crate::sketch`).
    MetaDistanceTooLarge {
        /// The longest finite landmark-to-landmark distance.
        distance: u32,
    },
    /// The batch query engine's thread pool could not be created or was
    /// misconfigured.
    ThreadPool(String),
    /// Underlying I/O failure while persisting or loading an index.
    Io(std::io::Error),
}

impl fmt::Display for QbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QbsError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for indexed graph with {num_vertices} vertices"
            ),
            QbsError::InvalidLandmarks(msg) => write!(f, "invalid landmark set: {msg}"),
            QbsError::Corrupt(msg) => write!(f, "corrupt index data: {msg}"),
            QbsError::GraphTooLarge { num_arcs } => write!(
                f,
                "graph has {num_arcs} arcs; an index file addresses fewer than 2^32"
            ),
            QbsError::LabelDistanceTooLarge { distance } => write!(
                f,
                "a label distance of {distance} does not fit an index file's label slots \
                 (at most 65534)"
            ),
            QbsError::MetaDistanceTooLarge { distance } => write!(
                f,
                "a landmark-to-landmark distance of {distance} is too long for the sketch's \
                 32-bit label lanes"
            ),
            QbsError::ThreadPool(msg) => write!(f, "thread pool error: {msg}"),
            QbsError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for QbsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QbsError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for QbsError {
    fn from(err: std::io::Error) -> Self {
        QbsError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QbsError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 4,
        };
        assert!(e.to_string().contains("vertex 9"));
        let e = QbsError::InvalidLandmarks("empty".into());
        assert!(e.to_string().contains("empty"));
        let e = QbsError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = QbsError::GraphTooLarge { num_arcs: 1 << 32 };
        assert!(e.to_string().contains("4294967296 arcs"));
        let e = QbsError::LabelDistanceTooLarge { distance: 65_535 };
        assert!(e.to_string().contains("label distance of 65535"));
        let e = QbsError::MetaDistanceTooLarge { distance: 1 << 30 };
        assert!(e.to_string().contains("distance of 1073741824"));
        let e = QbsError::ThreadPool("no threads".into());
        assert!(e.to_string().contains("thread pool"));
    }

    #[test]
    fn io_conversion_keeps_source() {
        let e: QbsError = std::io::Error::other("disk").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
