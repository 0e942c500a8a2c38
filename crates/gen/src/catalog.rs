//! Scaled-down stand-ins for the 12 datasets of Table 1.
//!
//! The paper's evaluation uses 12 public real-world networks ranging from
//! Douban (0.2 M vertices) to ClueWeb09 (1.7 B vertices, 7.8 B edges). Those
//! graphs cannot be shipped or processed here, so each dataset is replaced
//! by a synthetic stand-in whose *qualitative* structure matches the
//! property the paper's analysis attributes to it:
//!
//! | Dataset | Paper characteristics | Stand-in generator |
//! |---|---|---|
//! | Douban | sparse social network, avg deg 4.2 | Barabási–Albert, m = 2 |
//! | DBLP | co-authorship, local clustering, avg deg 6.6 | Watts–Strogatz, k = 3 |
//! | Youtube | social, extreme hubs (max deg 28 754) | power law, γ = 2.2 |
//! | WikiTalk | communication, very skewed, avg deg 3.9 | power law, γ = 2.05 |
//! | Skitter | computer topology, avg deg 13 | Barabási–Albert, m = 6 |
//! | Baidu | web graph, skewed, avg deg 16 | power law, γ = 2.1 |
//! | LiveJournal | social with communities, avg deg 17.8 | planted partition |
//! | Orkut | dense social, avg deg 76 | Barabási–Albert, m = 20 |
//! | Twitter | extreme hubs (max deg ≈ 3 M), avg deg 57.7 | power law, γ = 1.95 |
//! | Friendster | even degree distribution, avg deg 55 | Erdős–Rényi |
//! | uk2007 | web graph, avg deg 62.8 | power law, γ = 2.1 |
//! | ClueWeb09 | huge sparse web crawl, avg deg 9.3, larger diameter | power law, γ = 2.4 |
//!
//! The densest datasets use a reduced average degree (documented per spec)
//! so that the full experiment suite stays laptop-friendly; the *relative*
//! ordering of dataset sizes and densities is preserved. Every stand-in is
//! restricted to its largest connected component, matching the paper's
//! assumption of a connected graph (§2).

use qbs_graph::components::largest_component;
use qbs_graph::Graph;

use crate::barabasi_albert::{self, BarabasiAlbertConfig};
use crate::community::{self, PlantedPartitionConfig};
use crate::erdos_renyi::{self, ErdosRenyiConfig};
use crate::power_law::{self, PowerLawConfig};
use crate::rng::derive_seed;
use crate::watts_strogatz::{self, WattsStrogatzConfig};

/// Identifier of one of the 12 paper datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum DatasetId {
    Douban,
    Dblp,
    Youtube,
    WikiTalk,
    Skitter,
    Baidu,
    LiveJournal,
    Orkut,
    Twitter,
    Friendster,
    Uk2007,
    ClueWeb09,
}

impl DatasetId {
    /// All 12 datasets in the order of Table 1.
    pub const ALL: [DatasetId; 12] = [
        DatasetId::Douban,
        DatasetId::Dblp,
        DatasetId::Youtube,
        DatasetId::WikiTalk,
        DatasetId::Skitter,
        DatasetId::Baidu,
        DatasetId::LiveJournal,
        DatasetId::Orkut,
        DatasetId::Twitter,
        DatasetId::Friendster,
        DatasetId::Uk2007,
        DatasetId::ClueWeb09,
    ];

    /// The two-letter abbreviation used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            DatasetId::Douban => "DO",
            DatasetId::Dblp => "DB",
            DatasetId::Youtube => "YT",
            DatasetId::WikiTalk => "WK",
            DatasetId::Skitter => "SK",
            DatasetId::Baidu => "BA",
            DatasetId::LiveJournal => "LJ",
            DatasetId::Orkut => "OR",
            DatasetId::Twitter => "TW",
            DatasetId::Friendster => "FR",
            DatasetId::Uk2007 => "UK",
            DatasetId::ClueWeb09 => "CW",
        }
    }

    /// Human-readable dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Douban => "Douban",
            DatasetId::Dblp => "DBLP",
            DatasetId::Youtube => "Youtube",
            DatasetId::WikiTalk => "WikiTalk",
            DatasetId::Skitter => "Skitter",
            DatasetId::Baidu => "Baidu",
            DatasetId::LiveJournal => "LiveJournal",
            DatasetId::Orkut => "Orkut",
            DatasetId::Twitter => "Twitter",
            DatasetId::Friendster => "Friendster",
            DatasetId::Uk2007 => "uk2007",
            DatasetId::ClueWeb09 => "ClueWeb09",
        }
    }

    /// The network type column of Table 1.
    pub fn network_type(self) -> &'static str {
        match self {
            DatasetId::Douban
            | DatasetId::Youtube
            | DatasetId::LiveJournal
            | DatasetId::Orkut
            | DatasetId::Twitter
            | DatasetId::Friendster => "social",
            DatasetId::Dblp => "co-authorship",
            DatasetId::WikiTalk => "communication",
            DatasetId::Skitter | DatasetId::ClueWeb09 => "computer",
            DatasetId::Baidu | DatasetId::Uk2007 => "web",
        }
    }
}

/// Size scale for the generated stand-ins.
///
/// The relative vertex-count multipliers of the 12 datasets are preserved
/// within a scale, so "ClueWeb09 is the largest, Douban the smallest" holds
/// at every scale exactly as in Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~0.3–3 k vertices per dataset; fast enough for unit tests.
    Tiny,
    /// ~1.5–15 k vertices; the default for `cargo test`-time experiments.
    Small,
    /// ~6–60 k vertices; used by the benchmark harness.
    Medium,
    /// ~25–250 k vertices; full experiment runs.
    Large,
}

impl Scale {
    /// Base vertex count multiplied by each dataset's relative size factor.
    pub fn base_vertices(self) -> usize {
        match self {
            Scale::Tiny => 300,
            Scale::Small => 1_500,
            Scale::Medium => 6_000,
            Scale::Large => 25_000,
        }
    }
}

/// The generative model backing a dataset stand-in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GeneratorKind {
    /// Barabási–Albert preferential attachment with `m` edges per vertex.
    BarabasiAlbert {
        /// Edges attached per new vertex.
        edges_per_vertex: usize,
    },
    /// Chung–Lu power-law model.
    PowerLaw {
        /// Average degree target.
        avg_degree: f64,
        /// Power-law exponent.
        exponent: f64,
    },
    /// Watts–Strogatz small world.
    WattsStrogatz {
        /// Lattice neighbours per side.
        neighbors: usize,
        /// Rewiring probability.
        rewire: f64,
    },
    /// Erdős–Rényi `G(n, m)` with the given average degree.
    ErdosRenyi {
        /// Average degree target.
        avg_degree: f64,
    },
    /// Planted partition model.
    Community {
        /// Number of communities (vertices are split evenly).
        communities: usize,
        /// Expected intra-community degree.
        intra_degree: f64,
        /// Expected inter-community degree.
        inter_degree: f64,
    },
}

/// Full description of one dataset stand-in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Which Table 1 dataset this stands in for.
    pub id: DatasetId,
    /// Relative size factor (Douban = 1.0, ClueWeb09 the largest).
    pub size_factor: f64,
    /// The generator used.
    pub generator: GeneratorKind,
    /// Base RNG seed (combined with the scale for the final seed).
    pub seed: u64,
}

impl DatasetSpec {
    /// Number of vertices the stand-in will have (before restriction to the
    /// largest connected component) at the given scale.
    pub fn target_vertices(&self, scale: Scale) -> usize {
        ((scale.base_vertices() as f64) * self.size_factor).round() as usize
    }

    /// Generates the stand-in graph at the given scale, restricted to its
    /// largest connected component.
    pub fn generate(&self, scale: Scale) -> Graph {
        let n = self.target_vertices(scale).max(8);
        let seed = derive_seed(self.seed, scale.base_vertices() as u64);
        let raw = match self.generator {
            GeneratorKind::BarabasiAlbert { edges_per_vertex } => {
                barabasi_albert::generate(&BarabasiAlbertConfig {
                    vertices: n,
                    edges_per_vertex,
                    seed,
                })
            }
            GeneratorKind::PowerLaw {
                avg_degree,
                exponent,
            } => power_law::generate(&PowerLawConfig {
                vertices: n,
                edges: ((n as f64) * avg_degree / 2.0).round() as usize,
                exponent,
                seed,
            }),
            GeneratorKind::WattsStrogatz { neighbors, rewire } => {
                watts_strogatz::generate(&WattsStrogatzConfig {
                    vertices: n,
                    neighbors,
                    rewire_probability: rewire,
                    seed,
                })
            }
            GeneratorKind::ErdosRenyi { avg_degree } => erdos_renyi::generate(&ErdosRenyiConfig {
                vertices: n,
                edges: ((n as f64) * avg_degree / 2.0).round() as usize,
                seed,
            }),
            GeneratorKind::Community {
                communities,
                intra_degree,
                inter_degree,
            } => community::generate(&PlantedPartitionConfig {
                communities,
                community_size: (n / communities).max(1),
                intra_degree,
                inter_degree,
                seed,
            }),
        };
        largest_component(&raw).0
    }
}

/// The catalog of all 12 dataset stand-ins.
#[derive(Clone, Debug)]
pub struct Catalog {
    specs: Vec<DatasetSpec>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::paper_table1()
    }
}

impl Catalog {
    /// The catalog mirroring Table 1 of the paper.
    ///
    /// Size factors follow the relative |V| ordering of Table 1 (compressed
    /// into a 1×–12× range so every scale stays laptop-friendly); dense
    /// datasets use a reduced average degree, as documented in the module
    /// docs and DESIGN.md.
    pub fn paper_table1() -> Self {
        use DatasetId::*;
        use GeneratorKind::*;
        let specs = vec![
            DatasetSpec {
                id: Douban,
                size_factor: 1.0,
                generator: BarabasiAlbert {
                    edges_per_vertex: 2,
                },
                seed: 0xD0,
            },
            DatasetSpec {
                id: Dblp,
                size_factor: 1.5,
                generator: WattsStrogatz {
                    neighbors: 3,
                    rewire: 0.15,
                },
                seed: 0xDB,
            },
            DatasetSpec {
                id: Youtube,
                size_factor: 3.5,
                generator: PowerLaw {
                    avg_degree: 5.3,
                    exponent: 2.2,
                },
                seed: 0x17,
            },
            DatasetSpec {
                id: WikiTalk,
                size_factor: 4.5,
                generator: PowerLaw {
                    avg_degree: 3.9,
                    exponent: 2.05,
                },
                seed: 0x3A,
            },
            DatasetSpec {
                id: Skitter,
                size_factor: 4.0,
                generator: BarabasiAlbert {
                    edges_per_vertex: 6,
                },
                seed: 0x5C,
            },
            DatasetSpec {
                id: Baidu,
                size_factor: 4.2,
                generator: PowerLaw {
                    avg_degree: 15.9,
                    exponent: 2.1,
                },
                seed: 0xBA,
            },
            DatasetSpec {
                id: LiveJournal,
                size_factor: 5.0,
                generator: Community {
                    communities: 24,
                    intra_degree: 14.0,
                    inter_degree: 4.0,
                },
                seed: 0x13,
            },
            DatasetSpec {
                id: Orkut,
                size_factor: 4.5,
                generator: BarabasiAlbert {
                    edges_per_vertex: 20,
                },
                seed: 0x08,
            },
            DatasetSpec {
                id: Twitter,
                size_factor: 7.0,
                generator: PowerLaw {
                    avg_degree: 28.0,
                    exponent: 1.95,
                },
                seed: 0x7E,
            },
            DatasetSpec {
                id: Friendster,
                size_factor: 8.0,
                generator: ErdosRenyi { avg_degree: 24.0 },
                seed: 0xF2,
            },
            DatasetSpec {
                id: Uk2007,
                size_factor: 9.0,
                generator: PowerLaw {
                    avg_degree: 26.0,
                    exponent: 2.1,
                },
                seed: 0x07,
            },
            DatasetSpec {
                id: ClueWeb09,
                size_factor: 12.0,
                generator: PowerLaw {
                    avg_degree: 9.3,
                    exponent: 2.4,
                },
                seed: 0xC9,
            },
        ];
        Catalog { specs }
    }

    /// A reduced catalog with one representative per structural family
    /// (hub-dominated, clustered, community, even-degree), used by fast
    /// tests and ablations.
    pub fn representative() -> Self {
        let full = Self::paper_table1();
        let keep = [
            DatasetId::Douban,
            DatasetId::Dblp,
            DatasetId::LiveJournal,
            DatasetId::Friendster,
        ];
        Catalog {
            specs: full
                .specs
                .into_iter()
                .filter(|s| keep.contains(&s.id))
                .collect(),
        }
    }

    /// All specs in Table 1 order.
    pub fn specs(&self) -> &[DatasetSpec] {
        &self.specs
    }

    /// Looks up a dataset by id.
    pub fn get(&self, id: DatasetId) -> Option<&DatasetSpec> {
        self.specs.iter().find(|s| s.id == id)
    }

    /// Number of datasets in the catalog.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::components::is_connected;

    #[test]
    fn catalog_has_all_twelve_datasets_in_order() {
        let c = Catalog::paper_table1();
        assert_eq!(c.len(), 12);
        let ids: Vec<_> = c.specs().iter().map(|s| s.id).collect();
        assert_eq!(ids, DatasetId::ALL.to_vec());
        assert!(!c.is_empty());
    }

    #[test]
    fn abbreviations_match_the_paper() {
        assert_eq!(DatasetId::Douban.abbrev(), "DO");
        assert_eq!(DatasetId::ClueWeb09.abbrev(), "CW");
        assert_eq!(DatasetId::Uk2007.name(), "uk2007");
        assert_eq!(DatasetId::WikiTalk.network_type(), "communication");
    }

    #[test]
    fn size_ordering_follows_table1() {
        let c = Catalog::paper_table1();
        let douban = c.get(DatasetId::Douban).unwrap();
        let clueweb = c.get(DatasetId::ClueWeb09).unwrap();
        assert!(clueweb.size_factor > douban.size_factor);
        assert!(clueweb.target_vertices(Scale::Tiny) > douban.target_vertices(Scale::Tiny));
        assert!(douban.target_vertices(Scale::Large) > douban.target_vertices(Scale::Tiny));
    }

    #[test]
    fn every_tiny_standin_is_connected_and_nonempty() {
        for spec in Catalog::paper_table1().specs() {
            let g = spec.generate(Scale::Tiny);
            assert!(
                g.num_vertices() > 50,
                "{:?} too small: {}",
                spec.id,
                g.num_vertices()
            );
            assert!(is_connected(&g), "{:?} not connected", spec.id);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let c = Catalog::paper_table1();
        let spec = c.get(DatasetId::Youtube).unwrap();
        assert_eq!(spec.generate(Scale::Tiny), spec.generate(Scale::Tiny));
    }

    #[test]
    fn hub_datasets_have_bigger_hubs_than_friendster() {
        let c = Catalog::paper_table1();
        let twitter = c.get(DatasetId::Twitter).unwrap().generate(Scale::Tiny);
        let friendster = c.get(DatasetId::Friendster).unwrap().generate(Scale::Tiny);
        // Normalise by average degree: Twitter's hubs dominate, Friendster's
        // degrees are even — the §6.3 contrast the experiments rely on.
        let twitter_skew = twitter.max_degree() as f64 / twitter.avg_degree();
        let friendster_skew = friendster.max_degree() as f64 / friendster.avg_degree();
        assert!(
            twitter_skew > 3.0 * friendster_skew,
            "twitter skew {twitter_skew:.1} vs friendster {friendster_skew:.1}"
        );
    }

    #[test]
    fn representative_catalog_is_a_subset() {
        let rep = Catalog::representative();
        assert_eq!(rep.len(), 4);
        let full = Catalog::paper_table1();
        for s in rep.specs() {
            assert!(full.get(s.id).is_some());
        }
    }

    #[test]
    fn get_returns_none_for_missing_dataset() {
        let rep = Catalog::representative();
        assert!(rep.get(DatasetId::Twitter).is_none());
    }
}
