//! Repeated flattening without repeated work: the [`Flattener`].
//!
//! [`VariantSystem::flatten`] is correct but pays per call: it re-resolves every
//! port binding by name, re-checks name uniqueness for every merged node
//! (`O(nodes² )` scans), re-formats every prefixed node name and re-validates the
//! whole result graph. Enumerating a variant space multiplies that by the number
//! of combinations.
//!
//! A [`Flattener`] hoists all of that out of the loop. Building one:
//!
//! * validates the system once (graph, clusters, bindings, selection rules);
//! * clones the common part once into a reusable **skeleton**;
//! * pre-renames every cluster graph with its `"{interface}/{cluster}/"` prefix;
//! * resolves every port binding to a skeleton [`ChannelId`] once;
//! * proves all node-name sets disjoint once, unlocking the unchecked
//!   [`SpiGraph::merge_disjoint`] fast path.
//!
//! Per variant, [`Flattener::flatten`] then only clones the skeleton and splices
//! the chosen pre-renamed clusters into it. The `variant_space` benches measure
//! this at several times the throughput of the legacy clone-per-variant path.
//!
//! ```rust
//! use spi_variants::Flattener;
//! # use spi_model::{ChannelKind, GraphBuilder, Interval};
//! # use spi_variants::{Cluster, Interface, VariantSystem, VariantType};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut b = GraphBuilder::new("doc");
//! # let pa = b.process("PA").latency(Interval::point(1)).build()?;
//! # let cin = b.channel("CIn", ChannelKind::Queue)?;
//! # let cout = b.channel("COut", ChannelKind::Queue)?;
//! # b.connect_output(pa, cin, Interval::point(1))?;
//! # let mut interface = Interface::new("if1");
//! # interface.add_input_port("i");
//! # interface.add_output_port("o");
//! # for name in ["v1", "v2"] {
//! #     let mut cb = GraphBuilder::new(name);
//! #     cb.process("P").latency(Interval::point(2)).build()?;
//! #     let mut cluster = Cluster::new(name, cb.finish()?);
//! #     cluster.add_input_port("i", "P", Interval::point(1))?;
//! #     cluster.add_output_port("o", "P", Interval::point(1))?;
//! #     interface.add_cluster(cluster)?;
//! # }
//! # let mut system = VariantSystem::new(b.finish()?);
//! # let att = system.attach_interface(interface, VariantType::Production)?;
//! # system.bind_input(att, "i", "CIn")?;
//! # system.bind_output(att, "o", "COut")?;
//! let flattener = Flattener::new(&system)?;
//! for choice in flattener.space().choices_iter() {
//!     let graph = flattener.flatten(&choice)?;
//!     assert!(graph.validate().is_ok());
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use spi_model::{
    BuildSymHasher, ChannelId, GraphWatermark, Interval, ModelError, ProcessId, ProductionSpec,
    SpiGraph, Sym, TagSet,
};

use crate::cluster::PortDirection;
use crate::error::VariantError;
use crate::space::{VariantChoice, VariantSpace};
use crate::system::VariantSystem;
use crate::Result;

/// Pre-resolved wiring of one cluster port.
#[derive(Debug, Clone)]
struct PortPlan {
    direction: PortDirection,
    /// Channel of the skeleton the port is bound to (ids survive skeleton clones).
    channel: ChannelId,
    /// Process inside the pre-renamed cluster graph that drives the port.
    process: ProcessId,
    rate: Interval,
    tags: TagSet,
}

/// One cluster of one interface, ready to splice.
#[derive(Debug, Clone)]
struct ClusterPlan {
    cluster: Sym,
    /// The cluster graph with `"{interface}/{cluster}/"` already prefixed onto
    /// every node name; splicing is a rename-free disjoint merge.
    renamed: SpiGraph,
    ports: Vec<PortPlan>,
}

/// All clusters of one attached interface.
#[derive(Debug, Clone)]
struct AttachmentPlan {
    interface: Sym,
    clusters: Vec<ClusterPlan>,
    /// Cluster name → position in `clusters`: the `O(1)` axis resolution of
    /// the flattening hot loop (and the digit ↔ plan mapping of the delta
    /// path, whose positions match the variant space's axis cluster order).
    cluster_index: HashMap<Sym, u32, BuildSymHasher>,
}

/// Reusable flattening machine for one [`VariantSystem`]; see the module docs.
#[derive(Debug, Clone)]
pub struct Flattener {
    skeleton: SpiGraph,
    space: VariantSpace,
    plans: Vec<AttachmentPlan>,
}

impl Flattener {
    /// Builds the flattener: validates `system`, clones the common skeleton and
    /// precomputes every splice plan.
    ///
    /// # Errors
    ///
    /// Returns any validation error of the system, or
    /// [`VariantError::Validation`] if node names of different clusters (or of a
    /// cluster and the common part) would collide after prefixing — the same
    /// collisions the checked per-variant merge would report, found once instead
    /// of per combination.
    pub fn new(system: &VariantSystem) -> Result<Self> {
        system.validate()?;
        let skeleton = system.common().clone();

        // Every node name that may appear in a flattened graph, mapped to the
        // attachment that contributes it (usize::MAX = the common part). Only
        // names from *different* origins can co-occur in one combination.
        let mut origins: HashMap<String, usize> = skeleton
            .processes()
            .map(|p| (p.name().to_string(), usize::MAX))
            .chain(
                skeleton
                    .channels()
                    .map(|c| (c.name().to_string(), usize::MAX)),
            )
            .collect();

        let mut plans = Vec::with_capacity(system.attachment_count());
        for (attachment_index, attachment) in system.attachments().iter().enumerate() {
            let interface = attachment.interface();
            let mut clusters = Vec::with_capacity(interface.cluster_count());
            for cluster in interface.clusters() {
                let prefix = format!("{}/{}/", interface.name(), cluster.name());
                let mut renamed = SpiGraph::new(cluster.graph().name());
                let rename_map = renamed.merge(cluster.graph(), &prefix)?;

                for node_name in renamed
                    .processes()
                    .map(|p| p.name())
                    .chain(renamed.channels().map(|c| c.name()))
                {
                    match origins.get(node_name) {
                        Some(&origin) if origin != attachment_index => {
                            return Err(VariantError::Validation(format!(
                                "node name `{node_name}` of cluster `{}` collides with {}",
                                cluster.name(),
                                if origin == usize::MAX {
                                    "the common part".to_string()
                                } else {
                                    format!("interface `{}`", plans_name(system, origin))
                                }
                            )));
                        }
                        _ => {
                            origins.insert(node_name.to_string(), attachment_index);
                        }
                    }
                }

                let mut ports = Vec::with_capacity(cluster.ports().len());
                for port in cluster.ports() {
                    let binding = match port.direction() {
                        PortDirection::Input => attachment.input_binding(port.name()),
                        PortDirection::Output => attachment.output_binding(port.name()),
                    };
                    let Some(channel_name) = binding else {
                        return Err(VariantError::UnboundPort {
                            interface: interface.name().to_string(),
                            port: port.name().to_string(),
                        });
                    };
                    let channel = skeleton
                        .channel_by_name(channel_name)
                        .ok_or_else(|| VariantError::UnknownName(channel_name.to_string()))?
                        .id();
                    let process = rename_map.processes[&port.process()];
                    ports.push(PortPlan {
                        direction: port.direction(),
                        channel,
                        process,
                        rate: port.rate(),
                        tags: port.tags().clone(),
                    });
                }

                clusters.push(ClusterPlan {
                    cluster: Sym::intern(cluster.name()),
                    renamed,
                    ports,
                });
            }
            let cluster_index = clusters
                .iter()
                .enumerate()
                .map(|(position, plan)| (plan.cluster, position as u32))
                .collect();
            plans.push(AttachmentPlan {
                interface: Sym::intern(interface.name()),
                clusters,
                cluster_index,
            });
        }

        Ok(Flattener {
            skeleton,
            space: system.variant_space(),
            plans,
        })
    }

    /// The variant space of the underlying system (cached at construction).
    pub fn space(&self) -> &VariantSpace {
        &self.space
    }

    /// The common-part skeleton every flattened graph starts from.
    pub fn skeleton(&self) -> &SpiGraph {
        &self.skeleton
    }

    /// Every process name a flattened graph of this system can contain: the
    /// common part's, then each cluster's with its `"{interface}/{cluster}/"`
    /// prefix — the process half of the name universe [`new`](Self::new)
    /// proves collision-free, so no name repeats. A table keyed by these
    /// symbols (per-task synthesis parameters, say) can be built once per
    /// system instead of once per variant.
    pub fn process_names(&self) -> impl Iterator<Item = Sym> + '_ {
        self.skeleton
            .processes()
            .chain(
                self.plans
                    .iter()
                    .flat_map(|plan| &plan.clusters)
                    .flat_map(|cluster| cluster.renamed.processes()),
            )
            .map(|process| process.name_sym())
    }

    /// Flattens one combination into a fresh graph.
    ///
    /// # Errors
    ///
    /// * [`VariantError::IncompleteChoice`] if `choice` misses an interface;
    /// * [`VariantError::UnknownName`] if it names a cluster the interface lacks.
    pub fn flatten(&self, choice: &VariantChoice) -> Result<SpiGraph> {
        let mut graph = SpiGraph::new("");
        self.flatten_into(choice, &mut graph)?;
        Ok(graph)
    }

    /// Flattens one combination into `graph`, replacing its previous contents —
    /// the allocation-reusing form of [`flatten`](Self::flatten) for tight
    /// enumeration loops.
    ///
    /// # Errors
    ///
    /// Same as [`flatten`](Self::flatten).
    pub fn flatten_into(&self, choice: &VariantChoice, graph: &mut SpiGraph) -> Result<()> {
        graph.clone_from(&self.skeleton);
        for plan in &self.plans {
            let cluster = choice.cluster_sym_for(plan.interface).ok_or_else(|| {
                VariantError::IncompleteChoice(plan.interface.as_str().to_string())
            })?;
            let cluster_plan = plan
                .cluster_index
                .get(&cluster)
                .map(|&position| &plan.clusters[position as usize])
                .ok_or_else(|| VariantError::UnknownName(cluster.as_str().to_string()))?;
            let map = graph.merge_disjoint(&cluster_plan.renamed);
            for port in &cluster_plan.ports {
                let process = map.processes[&port.process];
                match port.direction {
                    PortDirection::Input => {
                        graph.set_reader(port.channel, process)?;
                        graph
                            .process_mut(process)
                            .expect("process was just merged")
                            .set_default_consumption(port.channel, port.rate);
                    }
                    PortDirection::Output => {
                        graph.set_writer(port.channel, process)?;
                        graph
                            .process_mut(process)
                            .expect("process was just merged")
                            .set_default_production(
                                port.channel,
                                ProductionSpec::tagged(port.rate, port.tags.clone()),
                            );
                    }
                }
            }
        }
        Ok(())
    }

    /// Flattens the combination at `index` of the variant space (mixed-radix
    /// order, matching [`VariantSpace::choice_at`]) — the entry point for
    /// sharded/strided exploration.
    ///
    /// # Errors
    ///
    /// Returns [`VariantError::UnknownName`] if `index` is out of range, else as
    /// [`flatten`](Self::flatten).
    pub fn flatten_at(&self, index: usize) -> Result<(VariantChoice, SpiGraph)> {
        let choice = self
            .space
            .choice_at(index)
            .ok_or_else(|| VariantError::UnknownName(format!("variant index {index}")))?;
        let graph = self.flatten(&choice)?;
        Ok((choice, graph))
    }
}

/// Incremental flattening: patches the previous flat graph instead of
/// rebuilding it — O(changed cluster) amortized over a Gray-order walk.
///
/// The combination digits are spliced in **axis order**: the last axis is the
/// least significant of the mixed radix, so under the Gray-order enumeration of
/// [`VariantSpace::choices_delta_iter`](crate::VariantSpace::choices_delta_iter)
/// the clusters that change most frequently sit last in the slab. Moving from
/// one combination to the next then only has to
///
/// 1. detach the port wirings of the axes at and above the first changed one
///    (they point at skeleton channels *below* the rollback mark, so the
///    truncation alone would leave them dangling),
/// 2. [`truncate_to`](SpiGraph::truncate_to) the changed axis's recorded
///    watermark, undoing exactly the suffix splices, and
/// 3. re-splice the suffix via the offset-shift
///    [`merge_disjoint_shifted`](SpiGraph::merge_disjoint_shifted) append.
///
/// Because the splice order, the appended node content and the port wirings
/// are exactly those of [`Flattener::flatten_into`] on a fresh skeleton clone,
/// the patched graph is **bit-identical** to [`Flattener::flatten_at`] at
/// every index — same slabs, same ids, same iteration order, same digests
/// (pinned by the differential test suite).
///
/// Any flattening error leaves the instance unprimed; the next call falls back
/// to a full rebuild, so errors are never sticky.
#[derive(Debug, Clone)]
pub struct DeltaFlattener<'a> {
    flattener: &'a Flattener,
    /// The current flat graph; matches `digits` when `primed`.
    graph: SpiGraph,
    /// Cluster position currently spliced, per axis.
    digits: Vec<u32>,
    /// Decode scratch for the requested combination.
    target: Vec<u32>,
    /// `watermarks[axis]` is the slab mark just *below* that axis's splice:
    /// truncating to it removes the splices of every axis at or above.
    watermarks: Vec<GraphWatermark>,
    /// False until a combination is fully spliced (and after any error).
    primed: bool,
    /// Patch/rebuild accounting (see [`FlattenStats`]).
    stats: FlattenStats,
}

/// Cumulative patch-vs-rebuild accounting of one [`DeltaFlattener`] — the
/// observability counters behind the `flatten.*` metrics: how often the
/// incremental path actually patched, how often it paid a full skeleton
/// rebuild, and how large the last splice was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlattenStats {
    /// Incremental applies: the previous graph was truncated to a watermark
    /// and only the changed suffix re-spliced (includes no-op applies where
    /// the requested combination was already primed).
    pub patches: u64,
    /// Full applies: the graph was rebuilt from the skeleton (the first
    /// flatten, and every recovery after an error or [`DeltaFlattener::reset`]).
    pub rebuilds: u64,
    /// The subset of `rebuilds` forced by a slab-integrity refusal mid-patch
    /// (see [`DeltaFlattener::rebuild_fallbacks`]).
    pub rebuild_fallbacks: u64,
    /// Processes spliced by the most recent apply — the per-apply sample for
    /// the patched-nodes histogram (0 for a no-op apply, the whole variant's
    /// cluster processes for a rebuild).
    pub last_patched_processes: u64,
}

impl<'a> DeltaFlattener<'a> {
    /// Creates an unprimed delta flattener; the first
    /// [`flatten_index`](Self::flatten_index) pays one full flatten.
    pub fn new(flattener: &'a Flattener) -> Self {
        // The delta path maps mixed-radix digits to cluster plans by
        // *position*; `Flattener::new` builds both the space and the plans
        // from the attachments in order, so the correspondence is structural.
        debug_assert!(flattener.space.axes().iter().zip(&flattener.plans).all(
            |((interface, clusters), plan)| {
                *interface == plan.interface
                    && clusters.len() == plan.clusters.len()
                    && clusters
                        .iter()
                        .zip(&plan.clusters)
                        .all(|(sym, cluster)| *sym == cluster.cluster)
            }
        ));
        debug_assert!(flattener
            .plans
            .iter()
            .flat_map(|plan| &plan.clusters)
            .all(|cluster| cluster.renamed.is_dense()));
        DeltaFlattener {
            flattener,
            graph: SpiGraph::new(""),
            digits: Vec::new(),
            target: Vec::new(),
            watermarks: Vec::new(),
            primed: false,
            stats: FlattenStats::default(),
        }
    }

    /// The underlying shared flattener.
    pub fn flattener(&self) -> &'a Flattener {
        self.flattener
    }

    /// The current flat graph, if a combination is primed.
    pub fn graph(&self) -> Option<&SpiGraph> {
        self.primed.then_some(&self.graph)
    }

    /// Drops the primed state: the next flatten rebuilds from the skeleton.
    /// (The result is unaffected — this only forfeits the incremental credit.)
    pub fn reset(&mut self) {
        self.primed = false;
    }

    /// How many patches were abandoned for a full skeleton rebuild because a
    /// slab operation refused (a [`ModelError::SlabIntegrity`] from
    /// `truncate_to` / `merge_disjoint_shifted`). Nonzero means the
    /// incremental state went bad and was safely discarded — results stayed
    /// correct, only the incremental credit was forfeited.
    pub fn rebuild_fallbacks(&self) -> u64 {
        self.stats.rebuild_fallbacks
    }

    /// Cumulative patch-vs-rebuild accounting since construction.
    pub fn stats(&self) -> FlattenStats {
        self.stats
    }

    /// Test hook: corrupts the recorded watermarks so the next patch attempt
    /// trips the slab-integrity checks and must fall back to a full rebuild.
    /// Exists so the fallback path is testable in *release* builds, where the
    /// old `debug_assert!`-only preconditions silently corrupted the slabs.
    #[doc(hidden)]
    pub fn corrupt_watermarks_for_test(&mut self) {
        for mark in &mut self.watermarks {
            mark.processes = u32::MAX;
            mark.channels = u32::MAX;
        }
    }

    /// Flattens the combination at lexicographic `index` of the variant space
    /// by patching the previous graph, and returns it. Bit-identical to
    /// [`Flattener::flatten_at`] at the same index.
    ///
    /// # Errors
    ///
    /// Returns [`VariantError::UnknownName`] if `index` is out of range, else
    /// as [`Flattener::flatten`].
    pub fn flatten_index(&mut self, index: usize) -> Result<&SpiGraph> {
        if !self.flattener.space.digits_at(index, &mut self.target) {
            return Err(VariantError::UnknownName(format!("variant index {index}")));
        }
        self.apply_target()?;
        Ok(&self.graph)
    }

    /// Flattens the `rank`-th combination of the Gray-order walk (see
    /// [`VariantSpace::gray_index_at`](crate::VariantSpace::gray_index_at))
    /// and returns its canonical lexicographic index alongside the graph —
    /// the entry point for Gray-rank-strided shard runs, where consecutive
    /// ranks of a walk change one axis and patch in O(one cluster).
    ///
    /// # Errors
    ///
    /// Returns [`VariantError::UnknownName`] if `rank` is out of range, else
    /// as [`Flattener::flatten`].
    pub fn flatten_gray_rank(&mut self, rank: usize) -> Result<(usize, &SpiGraph)> {
        let Some(index) = self.flattener.space.gray_digits_at(rank, &mut self.target) else {
            return Err(VariantError::UnknownName(format!("gray rank {rank}")));
        };
        self.apply_target()?;
        Ok((index, &self.graph))
    }

    /// Patches `graph` from `digits` to `target`: truncate to the first
    /// changed axis's watermark, re-splice the suffix. A slab-integrity
    /// refusal during an *incremental* patch self-invalidates the instance
    /// and transparently retries as a full skeleton rebuild — the same
    /// recovery `reset` offers, applied automatically, so a corrupted patch
    /// state degrades to slower-but-correct instead of failing the variant.
    fn apply_target(&mut self) -> Result<()> {
        let was_primed = self.primed;
        match self.try_apply_target() {
            Err(VariantError::Model(ModelError::SlabIntegrity(_))) if was_primed => {
                // Discard the incremental state and retry down the
                // full-rebuild path; a failure there is a real error.
                self.primed = false;
                self.stats.rebuild_fallbacks += 1;
                self.try_apply_target()
            }
            outcome => outcome,
        }
    }

    fn try_apply_target(&mut self) -> Result<()> {
        let plans = &self.flattener.plans;
        debug_assert_eq!(self.target.len(), plans.len());
        let was_patch = self.primed;
        let first_changed = if self.primed {
            match (0..plans.len()).find(|&axis| self.digits[axis] != self.target[axis]) {
                // The combination is already spliced.
                None => {
                    self.stats.patches += 1;
                    self.stats.last_patched_processes = 0;
                    return Ok(());
                }
                Some(axis) => axis,
            }
        } else {
            0
        };

        if self.primed {
            // Detach the suffix's port wirings: they live in edge slots of
            // skeleton channels (below every watermark), where truncation
            // cannot reach them.
            for (axis, plan) in plans.iter().enumerate().skip(first_changed) {
                let outgoing = &plan.clusters[self.digits[axis] as usize];
                for port in &outgoing.ports {
                    match port.direction {
                        PortDirection::Input => self.graph.clear_reader(port.channel),
                        PortDirection::Output => self.graph.clear_writer(port.channel),
                    };
                }
            }
            self.graph.truncate_to(self.watermarks[first_changed])?;
        } else {
            self.graph.clone_from(&self.flattener.skeleton);
            self.digits.clear();
            self.digits.resize(plans.len(), 0);
            self.watermarks.clear();
            self.watermarks
                .resize(plans.len(), GraphWatermark::default());
        }

        // Unprimed while splicing: a wiring error must not leave a
        // half-spliced graph claiming to be a combination.
        self.primed = false;
        let mut spliced_processes = 0u64;
        for (axis, plan) in plans.iter().enumerate().skip(first_changed) {
            let digit = self.target[axis];
            let incoming = &plan.clusters[digit as usize];
            spliced_processes += incoming.renamed.process_count() as u64;
            self.watermarks[axis] = self.graph.watermark();
            let (process_offset, _) = self.graph.merge_disjoint_shifted(&incoming.renamed)?;
            for port in &incoming.ports {
                let process = ProcessId::new(process_offset + port.process.index());
                match port.direction {
                    PortDirection::Input => {
                        self.graph.set_reader(port.channel, process)?;
                        self.graph
                            .process_mut(process)
                            .expect("process was just spliced")
                            .set_default_consumption(port.channel, port.rate);
                    }
                    PortDirection::Output => {
                        self.graph.set_writer(port.channel, process)?;
                        self.graph
                            .process_mut(process)
                            .expect("process was just spliced")
                            .set_default_production(
                                port.channel,
                                ProductionSpec::tagged(port.rate, port.tags.clone()),
                            );
                    }
                }
            }
            self.digits[axis] = digit;
        }
        self.primed = true;
        if was_patch {
            self.stats.patches += 1;
        } else {
            self.stats.rebuilds += 1;
        }
        self.stats.last_patched_processes = spliced_processes;
        Ok(())
    }
}

fn plans_name(system: &VariantSystem, attachment_index: usize) -> String {
    system
        .attachments()
        .get(attachment_index)
        .map(|a| a.interface().name().to_string())
        .unwrap_or_else(|| format!("attachment#{attachment_index}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::figure2_like_system;

    #[test]
    fn flattener_matches_legacy_flatten_on_every_choice() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        for choice in system.variant_space().choices_iter() {
            let legacy = system.flatten(&choice).unwrap();
            let fast = flattener.flatten(&choice).unwrap();
            assert_eq!(legacy, fast);
            assert!(fast.validate().is_ok());
        }
    }

    #[test]
    fn process_names_cover_every_flattened_process_once() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        let universe: Vec<Sym> = flattener.process_names().collect();
        let distinct: std::collections::BTreeSet<Sym> = universe.iter().copied().collect();
        assert_eq!(distinct.len(), universe.len(), "no name repeats");
        for choice in flattener.space().choices_iter() {
            let graph = flattener.flatten(&choice).unwrap();
            assert!(graph.processes().all(|p| distinct.contains(&p.name_sym())));
        }
    }

    #[test]
    fn flatten_into_reuses_the_buffer() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        let mut scratch = SpiGraph::new("");
        let mut counts = Vec::new();
        for choice in flattener.space().choices_iter() {
            flattener.flatten_into(&choice, &mut scratch).unwrap();
            counts.push(scratch.process_count());
        }
        assert_eq!(counts, vec![2 + 2, 2 + 3]);
    }

    #[test]
    fn flatten_at_decodes_the_space_index() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        let (choice0, graph0) = flattener.flatten_at(0).unwrap();
        assert_eq!(choice0.cluster_for("interface1"), Some("cluster1"));
        assert_eq!(graph0.process_count(), 4);
        assert!(matches!(
            flattener.flatten_at(99),
            Err(VariantError::UnknownName(_))
        ));
    }

    #[test]
    fn incomplete_and_unknown_choices_are_rejected() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        assert!(matches!(
            flattener.flatten(&VariantChoice::new()),
            Err(VariantError::IncompleteChoice(_))
        ));
        assert!(matches!(
            flattener.flatten(&VariantChoice::new().with("interface1", "ghost")),
            Err(VariantError::UnknownName(_))
        ));
    }

    #[test]
    fn delta_flattener_matches_flatten_at_on_every_index() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        let mut delta = DeltaFlattener::new(&flattener);
        for index in 0..flattener.space().count() {
            let (_, full) = flattener.flatten_at(index).unwrap();
            let patched = delta.flatten_index(index).unwrap();
            assert_eq!(patched, &full, "index {index}");
        }
    }

    #[test]
    fn delta_flattener_walks_gray_ranks() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        let mut delta = DeltaFlattener::new(&flattener);
        let mut seen = Vec::new();
        for rank in 0..flattener.space().count() {
            let expected_index = flattener.space().gray_index_at(rank).unwrap();
            let (index, patched) = delta.flatten_gray_rank(rank).unwrap();
            assert_eq!(index, expected_index);
            let (_, full) = flattener.flatten_at(index).unwrap();
            assert_eq!(patched, &full);
            seen.push(index);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..flattener.space().count()).collect::<Vec<_>>());
        assert!(matches!(
            delta.flatten_gray_rank(flattener.space().count()),
            Err(VariantError::UnknownName(_))
        ));
    }

    #[test]
    fn delta_flattener_survives_resets_and_rejects_bad_indices() {
        let system = figure2_like_system();
        let flattener = Flattener::new(&system).unwrap();
        let mut delta = DeltaFlattener::new(&flattener);
        assert!(delta.graph().is_none());
        assert!(matches!(
            delta.flatten_index(usize::MAX),
            Err(VariantError::UnknownName(_))
        ));
        delta.flatten_index(1).unwrap();
        assert!(delta.graph().is_some());
        delta.reset();
        assert!(delta.graph().is_none());
        let (_, full) = flattener.flatten_at(1).unwrap();
        assert_eq!(delta.flatten_index(1).unwrap(), &full);
        // Re-requesting the primed combination is a no-op, not a rebuild.
        assert_eq!(delta.flatten_index(1).unwrap(), &full);
    }

    #[test]
    fn construction_validates_the_system() {
        let mut system = figure2_like_system();
        let id = system.attachment_by_name("interface1").unwrap();
        system.attachment_mut(id).unwrap().clear_bindings_for_test();
        assert!(matches!(
            Flattener::new(&system),
            Err(VariantError::UnboundPort { .. })
        ));
    }
}
