//! The incremental re-check subsystem: edit sessions, dirty-halo
//! scoping, and report patching.
//!
//! The paper pitches layout verification as part of the *design loop* —
//! designers re-check after every edit, not once at tapeout. A
//! [`CheckSession`] makes that loop cheap: it owns the [`Layout`] and a
//! cached, canonically ordered [`CheckReport`], accepts a typed
//! [`EditSet`] (add / remove / move top-level items, replace a cell
//! definition), and re-checks only the disturbed neighbourhood — yet the
//! patched report is **byte-identical** to a from-scratch run
//! ([`canonical_check`]) on the edited layout.
//!
//! # How the patch stays exact
//!
//! Per edit the session computes a **dirty core**: the union of the
//! old and new footprints of every structurally changed element (edited
//! top-level items; every instance of a replaced definition, found
//! through the call-graph closure). From there:
//!
//! * **cheap global stages re-run in full** — layer binding, element
//!   (per-definition width) checks, primitive-symbol checks, ERC and
//!   net-list comparison. Their violations replace the cached ones
//!   wholesale; they are a small fraction of a full run.
//! * **the chip view is patched** — untouched top-level items keep
//!   their instantiated element/device runs (ids and device indices are
//!   renumbered in place); only dirty items re-instantiate. Auto net
//!   keys are records of element identity (path, layer, local bbox,
//!   duplicate ordinal) hash-consed in a table the session keeps, so
//!   reuse does not rename distant nets and a re-walked element with an
//!   unchanged identity keeps its node.
//! * **connections are patched** — a connection verdict is a pure pair
//!   function, and its anchor (the bbox overlap) touches both elements,
//!   so pairs among the *seed set* (dirty elements plus everything
//!   whose bbox touches the dirty core) re-check while every other
//!   pair's cached verdict and merge survive.
//! * **the net graph is patched, the net list reassembled** — net keys
//!   are stable integer nodes (interned strings or auto-key records,
//!   [`crate::netgen::NetParts`]); the edit swaps the dirty rows and
//!   re-folds the graph through the same canonical
//!   [`diic_netlist::assemble_netlist`] a full build uses. Cost is
//!   integer union-find plus net construction, not string re-interning.
//! * **net-wide effects are caught by a name diff** — connectivity is
//!   global (one added strap merges two nets chip-wide), so after
//!   reassembly every surviving element whose net's canonical name
//!   changed, and every device whose terminal-net names changed, adds
//!   its footprint to the dirty core. A merge or split always renames
//!   at least one side (the canonical name is the minimum alias), so
//!   every pair whose same-net/relatedness verdict could have flipped
//!   now has a dirty endpoint.
//! * **interactions re-run inside the halo only** — the dirty core is
//!   inflated by the technology's rule reach
//!   ([`crate::interact::max_rule_range`], the same reach that sizes
//!   [`crate::interact::interaction_cell_size`]) and handed to
//!   [`crate::interact::check_interactions_clipped`]. Spacing markers
//!   are tight gap boxes (within the pair's gap of *both* elements), so
//!   cached violations whose marker misses the halo are provably
//!   unchanged and are kept; everything anchored inside the halo is
//!   retracted and re-found fresh. The patched list is re-sorted with
//!   [`crate::report::canonical_sort`], which is the order
//!   [`canonical_check`] reports in — hence byte equality.
//!
//! What is *not* invalidated incrementally: the net list and ERC are
//! recomputed every edit (the graph patch makes that cheap), and
//! per-definition checks re-run in full. `tests/incremental.rs` holds
//! the differential oracle: random edit sequences where the session
//! report must equal a from-scratch check at every step, serial and
//! parallel.
//!
//! # Example
//!
//! ```
//! use diic_core::incremental::{CheckSession, EditSet};
//! use diic_core::CheckOptions;
//! use diic_geom::Rect;
//! use diic_tech::nmos::nmos_technology;
//!
//! let tech = nmos_technology();
//! let layout = diic_cif::parse("L NM; B 2000 750 1000 375; E").unwrap();
//! let options = CheckOptions { erc: false, ..CheckOptions::default() };
//! let mut session = CheckSession::new(layout, &tech, &options);
//! assert!(session.report().violations.is_empty());
//!
//! // Drop a too-close metal stub next to the wire and re-check.
//! let mut edits = EditSet::new();
//! edits.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
//! session.apply(&edits).unwrap();
//! assert_eq!(session.report().violations.len(), 1);
//! assert_eq!(
//!     session.report().violations,
//!     session.full_check().violations
//! );
//! ```

use crate::binding::{
    assign_auto_net_keys, instantiate_item, instantiate_sharded, ChipView, LayerBinding, NetKey,
};
use crate::checker::{check, CheckOptions, CheckReport};
use crate::connect::check_connections_among;
use crate::element_checks::check_elements;
use crate::engine::{composition_violations, DiagnosticSink, Sink};
use crate::interact::{check_interactions, check_same_mask, max_rule_range};
use crate::netgen::{element_is_netted, BindIndex, NetParts, NetgenResult};
use crate::primitive_checks::check_primitive_symbols;
use crate::report::{canonical_sort, merge_canonical};
use crate::violations::{CheckStage, Violation};
use diic_cif::{Call, Element, Item, Layout, NetLabel, Shape, SymbolId};
use diic_geom::{Rect, Region, Transform, Vector};
use diic_tech::{LayerId, Technology};
use std::collections::HashSet;

/// One edit against the top level of a layout or its symbol table.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Append a primitive element at top level. The layer is named by
    /// its CIF name (interned on application; unknown names are
    /// reported by layer binding exactly as a full check would).
    AddElement {
        /// CIF layer name (e.g. `NM`).
        cif_layer: String,
        /// The geometry.
        shape: Shape,
        /// Optional declared net (`9N`).
        net: Option<String>,
    },
    /// Instantiate an existing symbol at top level (a new placement of
    /// a cell the layout already defines).
    AddCall {
        /// The symbol to instantiate.
        symbol: SymbolId,
        /// The placement transform.
        transform: Transform,
        /// Instance name (the CIF parser auto-names parsed calls
        /// `i<n>`; edit-added calls pick their own, which becomes the
        /// leading component of the instance's context paths).
        name: String,
    },
    /// Remove the top-level item at this index (element or call; later
    /// items shift down, exactly as in the layout itself).
    RemoveItem {
        /// Index into the current `Layout::top_items`.
        index: usize,
    },
    /// Translate the top-level item at this index (an element's shape,
    /// or a call's placement transform).
    MoveItem {
        /// Index into the current `Layout::top_items`.
        index: usize,
        /// Translation vector.
        by: Vector,
    },
    /// Replace a symbol definition's body items. Every instance of the
    /// symbol (and of symbols that call it, transitively) is
    /// invalidated.
    ReplaceSymbol {
        /// The definition to replace.
        symbol: SymbolId,
        /// The new body.
        items: Vec<Item>,
    },
}

/// An ordered batch of edits, applied sequentially (each edit sees the
/// indices left by the previous one).
#[derive(Debug, Clone, Default)]
pub struct EditSet {
    /// The edits, in application order.
    pub edits: Vec<Edit>,
}

impl EditSet {
    /// An empty edit set.
    pub fn new() -> Self {
        EditSet::default()
    }

    /// True if the set contains no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Convenience: append a box element.
    pub fn add_box(&mut self, cif_layer: &str, rect: Rect, net: Option<&str>) -> &mut Self {
        self.edits.push(Edit::AddElement {
            cif_layer: cif_layer.to_string(),
            shape: Shape::Box(rect),
            net: net.map(str::to_string),
        });
        self
    }

    /// Convenience: append an instance of an existing symbol.
    pub fn add_call(&mut self, symbol: SymbolId, transform: Transform, name: &str) -> &mut Self {
        self.edits.push(Edit::AddCall {
            symbol,
            transform,
            name: name.to_string(),
        });
        self
    }

    /// Convenience: remove a top-level item.
    pub fn remove(&mut self, index: usize) -> &mut Self {
        self.edits.push(Edit::RemoveItem { index });
        self
    }

    /// Convenience: move a top-level item.
    pub fn translate(&mut self, index: usize, dx: i64, dy: i64) -> &mut Self {
        self.edits.push(Edit::MoveItem {
            index,
            by: Vector::new(dx, dy),
        });
        self
    }

    /// Convenience: replace a symbol's body.
    pub fn replace_symbol(&mut self, symbol: SymbolId, items: Vec<Item>) -> &mut Self {
        self.edits.push(Edit::ReplaceSymbol { symbol, items });
        self
    }
}

/// Why an [`EditSet`] was rejected (the session is left untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// An item index was out of bounds at its point in the sequence.
    ItemOutOfBounds {
        /// The offending index.
        index: usize,
        /// The top-item count at that point.
        len: usize,
    },
    /// A replaced symbol id does not exist.
    UnknownSymbol(SymbolId),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::ItemOutOfBounds { index, len } => {
                write!(f, "top-level item index {index} out of bounds (len {len})")
            }
            EditError::UnknownSymbol(s) => write!(f, "unknown symbol id {}", s.0),
        }
    }
}

impl std::error::Error for EditError {}

/// What one [`CheckSession::apply`] did — the observability handle the
/// `fig_incremental` bench and the e17 experiment table read.
#[derive(Debug, Clone, Copy, Default)]
pub struct EditStats {
    /// Top-level items re-instantiated (dirty).
    pub dirty_items: usize,
    /// Elements belonging to dirty items (structurally dirty).
    pub dirty_elements: usize,
    /// Elements whose net changed identity in the name diff.
    pub net_dirty_elements: usize,
    /// Seed elements the scoped connection pass examined.
    pub seed_elements: usize,
    /// Candidate pairs the scoped interaction pass evaluated.
    pub rechecked_pairs: u64,
    /// Cached violations retracted from the report.
    pub retracted: usize,
    /// Fresh violations spliced into the report (patched stages only).
    pub spliced: usize,
    /// True when the edit dirtied so much of the chip that the session
    /// fell back to a full rebuild (still byte-identical — just not
    /// faster than a from-scratch check).
    pub full_rebuild: bool,
    /// True when the edit was *net-neutral* — the patched net graph
    /// proved bit-identical to the cached one (same nodes, edges, and
    /// bindings), so the cached net list was reused without
    /// reassembly. Moving geometry with declared nets, or whole
    /// instances (auto keys are instance-local), typically qualifies.
    pub netlist_reused: bool,
    /// True when this apply compacted the session's persistent spatial
    /// index ([`diic_geom::GridIndex::compact`]) — tombstones from
    /// edit churn had come to outnumber the live elements.
    pub index_compacted: bool,
    /// Wall clock of the view patch (apply + instantiate dirty items).
    pub t_view: std::time::Duration,
    /// Wall clock of the scoped connection pass.
    pub t_conn: std::time::Duration,
    /// Wall clock of the net-graph patch + reassembly + name diff.
    pub t_net: std::time::Duration,
    /// Wall clock of the scoped interaction pass.
    pub t_interact: std::time::Duration,
    /// Wall clock of the full-re-run global stages (binding, elements,
    /// primitives, composition).
    pub t_global: std::time::Duration,
    /// Wall clock of the report retract/splice/sort.
    pub t_patch: std::time::Duration,
}

/// Per-item instantiation run lengths (the unit of view reuse).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ItemRun {
    elems: usize,
    devices: usize,
}

/// A slot in the edited top-item list: where it came from and whether
/// it must re-instantiate.
#[derive(Debug, Clone, Copy)]
struct Slot {
    origin: Option<usize>,
    dirty: bool,
}

/// An element's entry in the session's persistent spatial index: a
/// session-unique tag (the index payload) and the grid handle for
/// removal.
#[derive(Debug, Clone, Copy)]
struct ElemTag {
    tag: u32,
    handle: u32,
}

/// An edit session: a layout under interactive editing with its cached,
/// canonically ordered check report and the artefacts needed to re-check
/// incrementally. See the module docs for the invalidation model.
#[derive(Debug)]
pub struct CheckSession {
    layout: Layout,
    tech: Technology,
    options: CheckOptions,
    halo: i64,
    binding: LayerBinding,
    labels: Vec<(NetLabel, Option<LayerId>)>,
    view: ChipView,
    runs: Vec<ItemRun>,
    merges: Vec<(usize, usize)>,
    parts: NetParts,
    element_net: Vec<Option<diic_netlist::NetId>>,
    device_terminal_nets: Vec<Vec<diic_netlist::NetId>>,
    /// Persistent spatial index over element bboxes (the
    /// [`diic_geom::GridIndex`] incremental-update path): dirty-region
    /// queries cost the neighbourhood, not a whole-chip scan.
    elem_index: diic_geom::GridIndex<u32>,
    elem_tags: Vec<ElemTag>,
    next_tag: u32,
    /// Tag → current element id. Stale (removed) tags keep garbage
    /// values; only live tags — which the index queries return — are
    /// ever read.
    tag_owner: Vec<usize>,
    report: CheckReport,
}

impl CheckSession {
    /// Opens a session: runs a full check and caches every artefact.
    /// The session owns the layout; edits go through
    /// [`CheckSession::apply`].
    pub fn new(layout: Layout, tech: &Technology, options: &CheckOptions) -> CheckSession {
        let tech = tech.clone();
        let options = options.clone();
        let halo = max_rule_range(&tech);

        let (binding, bind_violations) = LayerBinding::bind(&layout, &tech);
        // Sharded instantiation: the per-item walks the session's view
        // patching is built on are exactly the shard jobs, so opening a
        // session parallelises like an engine run.
        let (mut view, run_lens) =
            instantiate_sharded(&layout, &tech, &binding, options.effective_parallelism());
        let runs: Vec<ItemRun> = run_lens
            .into_iter()
            .map(|(elems, devices)| ItemRun { elems, devices })
            .collect();
        assign_auto_net_keys(&mut view, None);
        let mut instantiate_violations = std::mem::take(&mut view.violations);
        // The patch path cannot regenerate *clean* items' instantiation
        // violations (it never re-walks them), which is sound today only
        // because the walk produces none. If `ChipView::violations` ever
        // gains a producer, teach the session to cache them per item run
        // before relying on report patching.
        debug_assert!(
            instantiate_violations.is_empty(),
            "instantiate-time violations are not cached per item run yet; \
             CheckSession::apply would silently drop them for clean items"
        );

        let mut elem_index =
            diic_geom::GridIndex::new(crate::interact::interaction_cell_size(&tech));
        let mut elem_tags = Vec::with_capacity(view.elements.len());
        let mut next_tag = 0u32;
        for &bbox in view.elements.bboxes() {
            let tag = next_tag;
            next_tag += 1;
            let handle = elem_index.insert(bbox, tag);
            elem_tags.push(ElemTag { tag, handle });
        }

        // The open-time stages emit through the Sink trait like any
        // engine run; a session just buffers (it must own its canonical
        // report — patching retracts and splices against it).
        let mut sink = DiagnosticSink::new();
        sink.absorb(bind_violations);
        sink.append(&mut instantiate_violations);
        sink.absorb(check_elements(&layout, &tech, &binding));
        let prim = check_primitive_symbols(&layout, &tech, &binding);
        let waived_devices = prim.waived;
        sink.absorb(prim.violations);

        // The session opens with the same parallel connection scan and
        // netgen union phase an engine run uses (both byte-identical to
        // serial); the patch paths below stay serial — they are
        // edit-sized.
        let conn = crate::connect::check_connections_parallel(
            &view,
            &tech,
            options.effective_parallelism(),
        );
        sink.absorb(conn.violations);

        let labels: Vec<(NetLabel, Option<LayerId>)> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let parts = NetParts::build_parallel(
            &mut view,
            &tech,
            &conn.merges,
            &labels,
            options.effective_parallelism(),
        );
        let mut nets = parts.assemble(&view, options.effective_parallelism());
        sink.append(&mut nets.violations);

        let interact_options = options.interact_options();
        let (ivs, stats) = check_interactions(&view, &tech, &nets, &layout, &interact_options);
        sink.absorb(ivs);

        sink.absorb(composition_violations(&nets.netlist, &tech, &options));
        let mut violations = sink.into_violations();
        canonical_sort(&mut violations);

        let NetgenResult {
            netlist,
            element_net,
            device_terminal_nets,
            ..
        } = nets;
        let report = CheckReport {
            violations,
            netlist,
            interact_stats: stats,
            timings: Default::default(),
            stage_profile: Vec::new(),
            waived_devices,
            element_count: view.elements.len(),
            device_count: view.devices.len(),
        };

        CheckSession {
            layout,
            tech,
            options,
            halo,
            binding,
            labels,
            view,
            runs,
            merges: conn.merges,
            parts,
            element_net,
            device_terminal_nets,
            elem_index,
            elem_tags,
            next_tag,
            tag_owner: (0..next_tag as usize).collect(),
            report,
        }
    }

    /// The layout in its current (edited) state.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The cached report for the current layout, in canonical order —
    /// violations, net list and counts are byte-identical to
    /// [`CheckSession::full_check`]. `interact_stats` and timings
    /// describe the *incremental* work of the last apply, not a full
    /// run.
    pub fn report(&self) -> &CheckReport {
        &self.report
    }

    /// A from-scratch check of the current layout, canonically sorted —
    /// the oracle [`CheckSession::report`] must match.
    pub fn full_check(&self) -> CheckReport {
        canonical_check(&self.layout, &self.tech, &self.options)
    }

    /// Applies an edit batch and patches the cached report. On error
    /// the session (including the layout) is untouched.
    pub fn apply(&mut self, edits: &EditSet) -> Result<EditStats, EditError> {
        let t_start = std::time::Instant::now();
        // -- Phase A: validate and simulate slot bookkeeping. ---------
        let n_old = self.layout.top_items().len();
        let mut slots: Vec<Slot> = (0..n_old)
            .map(|i| Slot {
                origin: Some(i),
                dirty: false,
            })
            .collect();
        let mut removed_origins: Vec<usize> = Vec::new();
        let mut replaced: Vec<SymbolId> = Vec::new();
        for edit in &edits.edits {
            match edit {
                Edit::AddElement { .. } => slots.push(Slot {
                    origin: None,
                    dirty: true,
                }),
                Edit::AddCall { symbol, .. } => {
                    if symbol.0 as usize >= self.layout.symbols().len() {
                        return Err(EditError::UnknownSymbol(*symbol));
                    }
                    slots.push(Slot {
                        origin: None,
                        dirty: true,
                    });
                }
                Edit::RemoveItem { index } => {
                    if *index >= slots.len() {
                        return Err(EditError::ItemOutOfBounds {
                            index: *index,
                            len: slots.len(),
                        });
                    }
                    if let Some(o) = slots.remove(*index).origin {
                        removed_origins.push(o);
                    }
                }
                Edit::MoveItem { index, .. } => {
                    if *index >= slots.len() {
                        return Err(EditError::ItemOutOfBounds {
                            index: *index,
                            len: slots.len(),
                        });
                    }
                    slots[*index].dirty = true;
                }
                Edit::ReplaceSymbol { symbol, .. } => {
                    if symbol.0 as usize >= self.layout.symbols().len() {
                        return Err(EditError::UnknownSymbol(*symbol));
                    }
                    replaced.push(*symbol);
                }
            }
        }

        // Dirty-symbol closure: a replaced definition invalidates every
        // symbol that (transitively) calls it. Ancestry edges come from
        // *other* symbols' bodies, which no edit touches, so the closure
        // is the same before and after application.
        let dirty_symbols = dirty_symbol_closure(&self.layout, &replaced);
        for slot in &mut slots {
            let Some(o) = slot.origin else { continue };
            if let Item::Call(c) = &self.layout.top_items()[o] {
                if dirty_symbols.contains(&c.target) {
                    slot.dirty = true;
                }
            }
        }

        // Degradation guard: when the edit dirties a large fraction of
        // the chip (a definition instantiated everywhere, a shuffled
        // floorplan), patching costs more than recomputing — the halo
        // covers everything and every cache misses. Rebuild instead;
        // the result is the same canonical report either way.
        let total_old = self.view.elements.len();
        let dirty_old: usize = removed_origins
            .iter()
            .copied()
            .chain(slots.iter().filter(|s| s.dirty).filter_map(|s| s.origin))
            .map(|o| self.runs[o].elems)
            .sum();
        if total_old > 0 && dirty_old * 10 >= total_old * 3 {
            let dirty_items = slots.iter().filter(|s| s.dirty).count();
            apply_layout_edits(&mut self.layout, edits);
            let layout = std::mem::take(&mut self.layout);
            *self = CheckSession::new(layout, &self.tech, &self.options);
            return Ok(EditStats {
                dirty_items,
                dirty_elements: dirty_old,
                full_rebuild: true,
                t_view: t_start.elapsed(),
                ..EditStats::default()
            });
        }

        // -- Phase B: old footprints (from the cached view's runs), and
        // eviction of the stale entries from the persistent element
        // index (survivor entries stay put — their bboxes are
        // unchanged).
        let mut stats = EditStats::default();
        // Removed items never reach the new view's dirty loop below, but
        // their evicted footprints drive retraction and halo re-checks
        // all the same — count them as dirty work.
        stats.dirty_items += removed_origins.len();
        stats.dirty_elements += removed_origins
            .iter()
            .map(|&o| self.runs[o].elems)
            .sum::<usize>();
        let old_offsets = run_offsets(&self.runs);
        let mut foot: Vec<Rect> = Vec::new();
        for o in removed_origins
            .iter()
            .copied()
            .chain(slots.iter().filter(|s| s.dirty).filter_map(|s| s.origin))
        {
            let (e0, _) = old_offsets[o];
            let run_bboxes = &self.view.elements.bboxes()[e0..e0 + self.runs[o].elems];
            for (&bbox, t) in run_bboxes
                .iter()
                .zip(&self.elem_tags[e0..e0 + self.runs[o].elems])
            {
                foot.push(bbox);
                self.elem_index.remove(t.handle);
            }
        }

        // -- Phase C: apply the edits to the layout. ------------------
        apply_layout_edits(&mut self.layout, edits);
        debug_assert_eq!(slots.len(), self.layout.top_items().len());

        // -- Phase D: re-bind layers (the name set may have grown). ---
        let (binding, bind_violations) = LayerBinding::bind(&self.layout, &self.tech);

        // -- Phase E: patch the view, reusing clean runs. -------------
        let mut old_view = std::mem::take(&mut self.view);
        let old_runs = std::mem::take(&mut self.runs);
        let old_tags = std::mem::take(&mut self.elem_tags);
        let old_element_count = old_view.elements.len();
        // The interner survives the patch: it is append-only, so the
        // reused runs' `Istr` handles stay valid and fresh items intern
        // into the same table (stale strings simply stop being
        // referenced — compaction is not worth a whole-view rewrite per
        // edit, and the rebuild fallback resets the table anyway).
        let strings = std::mem::take(&mut old_view.strings);
        let auto_keys = std::mem::take(&mut old_view.auto_keys);
        // Survivor element runs copy across as whole column runs (ids
        // renumber implicitly to their new positions); devices still
        // move one record at a time for the back-reference rewrite.
        let old_cols = old_view.elements;
        let mut old_devs: Vec<Option<crate::binding::DeviceInstance>> =
            old_view.devices.into_iter().map(Some).collect();

        let mut view = ChipView {
            strings,
            auto_keys,
            ..ChipView::default()
        };
        let mut tags: Vec<ElemTag> = Vec::with_capacity(old_element_count);
        let mut runs: Vec<ItemRun> = Vec::with_capacity(slots.len());
        let mut old_to_new: Vec<Option<usize>> = vec![None; old_element_count];
        // Device alignment for the terminal-net diff: new device id →
        // old device id (survivor runs only).
        let mut dev_old_of_new: Vec<Option<usize>> = Vec::new();
        for (k, slot) in slots.iter().enumerate() {
            let (e0, d0) = (view.elements.len(), view.devices.len());
            match (slot.dirty, slot.origin) {
                (false, Some(o)) => {
                    let (oe, od) = old_offsets[o];
                    let run = old_runs[o];
                    view.elements.append_run_from(
                        &old_cols,
                        oe..oe + run.elems,
                        d0 as i64 - od as i64,
                    );
                    for t in 0..run.elems {
                        old_to_new[oe + t] = Some(e0 + t);
                        tags.push(old_tags[oe + t]);
                    }
                    for t in 0..run.devices {
                        // invariant: each old device index belongs to
                        // exactly one reused run, so it is taken once.
                        let mut dv = old_devs[od + t].take().expect("runs are disjoint");
                        for id in dv.element_ids.iter_mut() {
                            *id = *id - oe + e0;
                        }
                        dev_old_of_new.push(Some(od + t));
                        view.devices.push(dv);
                    }
                    runs.push(run);
                }
                _ => {
                    stats.dirty_items += 1;
                    instantiate_item(
                        &self.layout,
                        &self.tech,
                        &binding,
                        &self.layout.top_items()[k],
                        &mut view,
                    );
                    for &bbox in &view.elements.bboxes()[e0..] {
                        let tag = self.next_tag;
                        self.next_tag += 1;
                        let handle = self.elem_index.insert(bbox, tag);
                        tags.push(ElemTag { tag, handle });
                    }
                    dev_old_of_new.extend(std::iter::repeat_n(None, view.devices.len() - d0));
                    runs.push(ItemRun {
                        elems: view.elements.len() - e0,
                        devices: view.devices.len() - d0,
                    });
                }
            }
        }
        let mut fresh_instantiate_violations = std::mem::take(&mut view.violations);

        // New footprints + dirty element flags.
        let n_new = view.elements.len();
        let mut dirty_elem = vec![false; n_new];
        let new_offsets = run_offsets(&runs);
        for (slot, (&(e0, _), run)) in slots.iter().zip(new_offsets.iter().zip(&runs)) {
            if slot.dirty {
                let run_bboxes = &view.elements.bboxes()[e0..e0 + run.elems];
                for (&bbox, dirty) in run_bboxes.iter().zip(&mut dirty_elem[e0..e0 + run.elems]) {
                    foot.push(bbox);
                    *dirty = true;
                    stats.dirty_elements += 1;
                }
            }
        }
        let d_conn = Region::from_rects(foot.iter().copied());
        let cell = crate::interact::interaction_cell_size(&self.tech);
        let d_conn_grid = region_grid(&d_conn, cell);
        // Refresh the tag → element-id map (stale tags are never read:
        // the index only returns live ones).
        self.tag_owner.resize(self.next_tag as usize, usize::MAX);
        for (id, t) in tags.iter().enumerate() {
            self.tag_owner[t.tag as usize] = id;
        }
        let tag_owner = &self.tag_owner;
        // Seed set: dirty elements plus everything touching the dirty
        // footprints — the elements whose pair verdicts, duplicate-key
        // ordinals, or bindings could have changed. Queried from the
        // persistent index: cost follows the edit, not the chip.
        let mut seed = dirty_elem.clone();
        for r in d_conn.rects() {
            for &tag in self.elem_index.query(r) {
                seed[tag_owner[tag as usize]] = true;
            }
        }
        // Auto net keys: re-derive only identity groups with a changed
        // member (the seed mask covers removed duplicates — they share
        // their bbox with their survivors by definition).
        let rekeyed = assign_auto_net_keys(&mut view, Some(&seed));
        stats.t_view = t_start.elapsed();

        // -- Phase F: patch connections. ------------------------------
        let t0 = std::time::Instant::now();
        let seeds: Vec<usize> = (0..n_new).filter(|&i| seed[i]).collect();
        stats.seed_elements = seeds.len();
        let scoped_conn = check_connections_among(&view, &self.tech, &seeds);
        let mut merges: Vec<(usize, usize)> = self
            .merges
            .iter()
            .filter_map(|&(i, j)| {
                let (Some(ni), Some(nj)) = (old_to_new[i], old_to_new[j]) else {
                    return None;
                };
                // Pairs fully inside the seed set are the scoped pass's
                // verdicts; everything else is provably unchanged.
                (!(seed[ni] && seed[nj])).then_some((ni, nj))
            })
            .collect();
        merges.extend_from_slice(&scoped_conn.merges);
        merges.sort_unstable();
        stats.t_conn = t0.elapsed();

        // -- Phase G: patch the net graph and reassemble. -------------
        let t0 = std::time::Instant::now();
        let old_element_node = std::mem::take(&mut self.parts.element_node);
        let mut element_node: Vec<Option<u32>> = vec![None; n_new];
        for (old, new) in old_to_new.iter().enumerate() {
            if let Some(new) = new {
                element_node[*new] = old_element_node[old];
            }
        }
        // Nodes are the view's net keys, so patching them is a column
        // read — no key is ever re-interned here.
        for &id in &rekeyed {
            // Re-keyed survivors keep their netted-ness; fresh elements
            // are handled below.
            if element_node[id].is_some() {
                element_node[id] = Some(view.elements.net_keys()[id].node());
            }
        }
        for id in 0..n_new {
            if dirty_elem[id] {
                element_node[id] =
                    element_is_netted(&view, id).then(|| view.elements.net_keys()[id].node());
            }
        }
        // Net-neutral fast-path candidate: an edit that provably leaves
        // the net graph bit-identical (same item structure, no re-keyed
        // elements, every dirty element kept its node, and — checked
        // below — identical connection edges and device/label rows)
        // reuses the cached net list instead of reassembling it. A
        // moved instance (auto keys are instance-local) or a dragged
        // declared-net wire in free space is the common hit.
        let aligned = slots.len() == old_runs.len()
            && slots.iter().enumerate().all(|(i, s)| s.origin == Some(i))
            && runs == old_runs;
        let mut net_neutral = aligned
            && rekeyed.is_empty()
            && (0..n_new)
                .filter(|&i| dirty_elem[i])
                .all(|i| element_node[i] == old_element_node[i]);
        self.parts.element_node = element_node;
        let old_conn_edges = net_neutral.then(|| self.parts.conn_edges.clone());
        self.parts.set_conn_edges(&merges);
        if let Some(old_edges) = &old_conn_edges {
            net_neutral &= *old_edges == self.parts.conn_edges;
        }

        // Rebinding region: geometry changes plus re-keyed elements
        // (their interned node changed even though nothing moved). With
        // no surviving re-keys it is exactly the connection dirty
        // region, whose grid already exists.
        let d_bind_grid_wide = rekeyed.iter().any(|&id| !dirty_elem[id]).then(|| {
            let mut rects = foot.clone();
            rects.extend(rekeyed.iter().map(|&id| view.elements.bboxes()[id]));
            region_grid(&Region::from_rects(rects), cell)
        });
        let d_bind_grid = d_bind_grid_wide.as_ref().unwrap_or(&d_conn_grid);
        let rekeyed_flags = {
            let mut f = vec![false; n_new];
            for &id in &rekeyed {
                f[id] = true;
            }
            f
        };

        // Decide which devices and labels re-bind. A binding (point →
        // covering elements) can only have changed if geometry inside
        // the point's bbox changed — i.e. the point touches `d_bind`;
        // a device also re-rows when one of its own elements was
        // re-keyed (its join/bind edges reference the stale node).
        let point_rect = |p: diic_geom::Point| Rect::new(p.x, p.y, p.x, p.y);
        let rerow: Vec<bool> = (0..view.devices.len())
            .map(|di| {
                let dev = &view.devices[di];
                dev_old_of_new[di].is_none()
                    || dev.element_ids.iter().any(|&eid| rekeyed_flags[eid])
                    || dev
                        .terminals
                        .iter()
                        .any(|(_, _, p)| d_bind_grid.touches_any(&point_rect(*p)))
            })
            .collect();
        let relabel: Vec<bool> = self
            .labels
            .iter()
            .map(|(label, _)| d_bind_grid.touches_any(&point_rect(label.position)))
            .collect();

        // The scoped bind index must be complete at **every** re-bound
        // point — a device re-rows all of its terminals even when only
        // one sits in the dirty region, so the scope is the union of
        // the re-bound points themselves (an element can only bind if
        // its bbox covers the point).
        let bind: Option<BindIndex> = if rerow.iter().any(|&b| b) || relabel.iter().any(|&b| b) {
            let mut pts: Vec<Rect> = Vec::new();
            for (di, &r) in rerow.iter().enumerate() {
                if r {
                    for (_, _, p) in &view.devices[di].terminals {
                        // 1-unit pad: Region drops zero-area rects.
                        pts.push(Rect::new(p.x - 1, p.y - 1, p.x + 1, p.y + 1));
                    }
                }
            }
            for ((label, _), &r) in self.labels.iter().zip(&relabel) {
                if r {
                    let p = label.position;
                    pts.push(Rect::new(p.x - 1, p.y - 1, p.x + 1, p.y + 1));
                }
            }
            let mut ids: Vec<usize> = Vec::new();
            for r in Region::from_rects(pts).rects() {
                ids.extend(
                    self.elem_index
                        .query(r)
                        .into_iter()
                        .map(|&tag| tag_owner[tag as usize]),
                );
            }
            ids.sort_unstable();
            ids.dedup();
            ids.retain(|&id| element_is_netted(&view, id));
            Some(BindIndex::build_among(&view, &self.tech, &ids))
        } else {
            None
        };

        // Device rows: reuse survivors, recompute the rest.
        let mut old_rows: Vec<Option<crate::netgen::DeviceParts>> =
            std::mem::take(&mut self.parts.devices)
                .into_iter()
                .map(Some)
                .collect();
        let mut new_rows: Vec<crate::netgen::DeviceParts> = Vec::with_capacity(view.devices.len());
        for di in 0..view.devices.len() {
            let reusable = if rerow[di] {
                None
            } else {
                dev_old_of_new[di].and_then(|od| old_rows[od].take())
            };
            match reusable {
                Some(row) => new_rows.push(row),
                None => {
                    // invariant: the bind index is built up front
                    // whenever any row is marked for re-derivation.
                    let b = bind
                        .as_ref()
                        .expect("bind index built when anything re-rows");
                    let row = self.parts.device_parts(&mut view, di, b);
                    if net_neutral {
                        // Under `aligned`, device di corresponds to old
                        // device di.
                        net_neutral = old_rows
                            .get(di)
                            .and_then(|r| r.as_ref())
                            .is_some_and(|old| *old == row);
                    }
                    new_rows.push(row);
                }
            }
        }
        self.parts.devices = new_rows;

        // Label rows: re-bind those whose point sits in the rebinding
        // region.
        for (li, (label, layer)) in self.labels.iter().enumerate() {
            if relabel[li] {
                // invariant: same up-front construction as the device
                // rows — relabel[li] implies the index exists.
                let b = bind
                    .as_ref()
                    .expect("bind index built when anything re-binds");
                let row = self.parts.label_parts(&mut view, label, *layer, b);
                net_neutral &= self.parts.labels[li] == row;
                self.parts.labels[li] = row;
            }
        }

        let nets_new = if net_neutral {
            stats.netlist_reused = true;
            NetgenResult {
                netlist: std::mem::take(&mut self.report.netlist),
                element_net: std::mem::take(&mut self.element_net),
                device_terminal_nets: std::mem::take(&mut self.device_terminal_nets),
                violations: Vec::new(),
            }
        } else {
            self.parts.assemble(&view, 1)
        };

        // -- Phase H: net-identity diff extends the dirty core. -------
        let mut int_foot = foot;
        if !net_neutral {
            let old_name = |id: Option<diic_netlist::NetId>| -> Option<&str> {
                id.map(|id| self.report.netlist.net(id).name.as_str())
            };
            let new_name = |id: Option<diic_netlist::NetId>| -> Option<&str> {
                id.map(|id| nets_new.netlist.net(id).name.as_str())
            };
            for (old, new) in old_to_new.iter().enumerate() {
                let Some(new) = *new else { continue };
                if old_name(self.element_net[old]) != new_name(nets_new.element_net[new]) {
                    int_foot.push(view.elements.bboxes()[new]);
                    stats.net_dirty_elements += 1;
                }
            }
            for (di, old_di) in dev_old_of_new.iter().enumerate() {
                let Some(old_di) = *old_di else { continue };
                let old_terms = &self.device_terminal_nets[old_di];
                let new_terms = &nets_new.device_terminal_nets[di];
                let same = old_terms.len() == new_terms.len()
                    && old_terms
                        .iter()
                        .zip(new_terms)
                        .all(|(&o, &n)| old_name(Some(o)) == new_name(Some(n)));
                if !same {
                    for &eid in &view.devices[di].element_ids {
                        int_foot.push(view.elements.bboxes()[eid]);
                    }
                }
            }
        }
        let d_halo = Region::from_rects(int_foot).inflate(self.halo);
        // One grid serves both the scoped search's marker filter and
        // Phase K's retraction predicate — they must agree bit for bit.
        let d_halo_grid = region_grid(&d_halo, cell);
        stats.t_net = t0.elapsed();

        // -- Phase I: scoped interactions inside the halo. ------------
        let t0 = std::time::Instant::now();
        let interact_options = self.options.interact_options();
        // Candidate elements (one rule reach around the halo) from the
        // persistent index: bbox ⊕ reach touches the halo ⇔ bbox
        // touches a halo rect ⊕ reach.
        let mut halo_ids: Vec<usize> = Vec::new();
        for r in d_halo.rects() {
            if let Some(q) = r.inflate(self.halo) {
                halo_ids.extend(
                    self.elem_index
                        .query(&q)
                        .into_iter()
                        .map(|&tag| tag_owner[tag as usize]),
                );
            }
        }
        halo_ids.sort_unstable();
        halo_ids.dedup();
        let (ivs, istats) = crate::interact::check_interactions_among_clipped(
            &view,
            &self.tech,
            &nets_new,
            &interact_options,
            &halo_ids,
            &d_halo_grid,
        );
        stats.rechecked_pairs = istats.candidate_pairs;
        stats.t_interact = t0.elapsed();

        // -- Phase J: global stages re-run in full, emitted through the
        // Sink trait like any engine run. -----------------------------
        let t0 = std::time::Instant::now();
        let mut fresh_sink = DiagnosticSink::new();
        fresh_sink.absorb(bind_violations);
        fresh_sink.append(&mut fresh_instantiate_violations);
        fresh_sink.absorb(check_elements(&self.layout, &self.tech, &binding));
        let prim = check_primitive_symbols(&self.layout, &self.tech, &binding);
        let waived_devices = prim.waived;
        fresh_sink.absorb(prim.violations);
        fresh_sink.absorb(nets_new.violations.to_vec());
        fresh_sink.absorb(composition_violations(
            &nets_new.netlist,
            &self.tech,
            &self.options,
        ));
        stats.t_global = t0.elapsed();

        // -- Phase K: patch the report by merge-splice. ---------------
        let t0 = std::time::Instant::now();
        let anchored_in = |v: &Violation, grid: &diic_geom::GridIndex<()>| -> bool {
            v.location.is_none_or(|l| grid.touches_any(&l))
        };
        // The kept violations are a subsequence of the cached canonical
        // report, hence already canonically sorted.
        let mut kept: Vec<Violation> = Vec::with_capacity(self.report.violations.len());
        for v in &self.report.violations {
            let keep = match v.stage {
                CheckStage::Connections => !anchored_in(v, &d_conn_grid),
                // Mask odd cycles are a global (conflict-graph) verdict:
                // an edit anywhere can open or close a cycle whose
                // witness marker lies far outside the halo, so they are
                // always retracted and recomputed from scratch below.
                CheckStage::Interactions => {
                    !matches!(
                        v.kind,
                        crate::violations::ViolationKind::MaskOddCycle { .. }
                    ) && !anchored_in(v, &d_halo_grid)
                }
                _ => false, // replaced wholesale by the fresh global runs
            };
            if keep {
                kept.push(v.clone());
            }
        }
        stats.retracted = self.report.violations.len() - kept.len();
        fresh_sink.absorb(
            scoped_conn
                .violations
                .into_iter()
                .filter(|v| anchored_in(v, &d_conn_grid))
                .collect(),
        );
        fresh_sink.absorb(ivs);
        // Global recompute of the same-mask conflict graph (the scoped
        // interaction pass above discards its clip-local edges): free
        // when the technology declares no same_mask rules.
        fresh_sink.absorb(check_same_mask(&view, &self.tech, &interact_options));
        let mut fresh = fresh_sink.into_violations();
        stats.spliced = fresh.len();
        // Only the fresh side pays a sort; the combined list is a
        // linear merge of the two sorted halves instead of re-sorting
        // everything each edit.
        canonical_sort(&mut fresh);
        #[cfg(debug_assertions)]
        let sort_oracle = {
            let mut all = kept.clone();
            all.extend(fresh.iter().cloned());
            canonical_sort(&mut all);
            all
        };
        let violations = merge_canonical(kept, fresh);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            violations, sort_oracle,
            "merge-splice diverged from canonical_sort"
        );
        stats.t_patch = t0.elapsed();

        // -- Phase L: commit. -----------------------------------------
        self.binding = binding;
        self.view = view;
        self.runs = runs;
        self.elem_tags = tags;
        self.merges = merges;
        let NetgenResult {
            netlist,
            element_net,
            device_terminal_nets,
            ..
        } = nets_new;
        self.element_net = element_net;
        self.device_terminal_nets = device_terminal_nets;
        self.report = CheckReport {
            violations,
            netlist,
            interact_stats: istats,
            timings: Default::default(),
            stage_profile: Vec::new(),
            waived_devices,
            element_count: self.view.elements.len(),
            device_count: self.view.devices.len(),
        };

        // -- Phase M: compact the spatial index after heavy churn. ----
        // Tombstones and cell bookkeeping grow monotonically under
        // edits; once the dead slots outnumber the live elements (with
        // a floor so small sessions never bother), rebuild the index
        // and remap the retained handles. Queries return identical
        // results before and after, so no downstream state is touched.
        if self.elem_index.tombstones() > self.elem_index.len().max(64) {
            stats.index_compacted = self.compact_spatial_index();
        }
        Ok(stats)
    }

    /// Rebuilds the spatial index without its tombstones and remaps
    /// the retained handles. True if anything was dropped.
    fn compact_spatial_index(&mut self) -> bool {
        if self.elem_index.tombstones() == 0 {
            return false;
        }
        let remap = self.elem_index.compact();
        for t in &mut self.elem_tags {
            // invariant: compaction only drops tombstoned handles,
            // and every tag references a live element.
            t.handle = remap[t.handle as usize].expect("live elements keep live handles");
        }
        true
    }

    /// Streams the cached canonical report through any
    /// [`Sink`] — pair it with a
    /// [`StreamingSink`](crate::engine::StreamingSink) to export a
    /// session's report without materialising a second copy, or with a
    /// [`SpillingSink`](crate::engine::SpillingSink) to bound even the
    /// export's sort buffer when the report outgrows RAM. (The
    /// session keeps its own canonical buffer: report patching retracts
    /// and splices against it.)
    pub fn emit_report(&self, sink: &mut dyn Sink) {
        for v in &self.report.violations {
            sink.push(v.clone());
        }
    }

    /// The options the session checks under.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// The technology the session checks against.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// An estimate of the session's resident heap, in bytes: the
    /// columnar element store, the string and auto-key tables, device
    /// instances, the
    /// persistent net graph, the cached canonical report, and the
    /// spatial-index bookkeeping. Payload bytes, not allocator-exact —
    /// the number a session *pool* budgets and evicts against (and the
    /// denominator of the e21 sessions-per-GB figure).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let elements = self.view.elements.heap_bytes();
        let strings = self.view.strings.heap_bytes() + self.view.auto_keys.heap_bytes();
        let devices: usize = self
            .view
            .devices
            .iter()
            .map(|d| {
                size_of_val(d)
                    + d.terminals.len()
                        * size_of::<(String, diic_tech::LayerId, diic_geom::Point)>()
                    + d.element_ids.len() * size_of::<usize>()
            })
            .sum();
        let graph = self.parts.element_node.len() * size_of::<Option<u32>>()
            + self.parts.conn_edges.len() * size_of::<(u32, u32)>()
            + self
                .parts
                .devices
                .iter()
                .map(|d| {
                    size_of_val(d)
                        + d.terms.iter().map(|(t, _)| t.len() + 28).sum::<usize>()
                        + d.edges.len() * size_of::<(u32, u32)>()
                })
                .sum::<usize>()
            + self
                .parts
                .labels
                .iter()
                .map(|l| size_of_val(l) + l.edges.len() * size_of::<(u32, u32)>())
                .sum::<usize>();
        let report: usize = self
            .report
            .violations
            .iter()
            .map(|v| size_of_val(v) + v.context.len())
            .sum();
        let index = self.elem_tags.len() * (size_of::<ElemTag>() + size_of::<(Rect, u32)>());
        elements + strings + devices + graph + report + index
    }

    /// Compacts the session's long-lived memory in place: rebuilds the
    /// spatial index without tombstones ([`diic_geom::GridIndex::compact`])
    /// and evicts the auto-key records and interner strings orphaned by
    /// edit churn ([`crate::binding::StringInterner::compact`] and its
    /// auto-key counterpart — removed elements and replaced definitions
    /// leave dead identities, paths and net keys behind), remapping
    /// every live handle: the element columns, the device instances,
    /// and the net graph's nodes. The session pool fires this on
    /// eviction pressure; rendered reports before and after are
    /// byte-identical (`service_sessions_survive_compaction` in
    /// `tests/api.rs` and [`mod@self`]'s own unit test pin it).
    pub fn compact_memory(&mut self) -> SessionCompaction {
        let index_compacted = self.compact_spatial_index();
        let strings_before = self.view.strings.len();
        let bytes_before = self.view.strings.heap_bytes();
        let autos_before = self.view.auto_keys.len();
        let auto_bytes_before = self.view.auto_keys.heap_bytes();

        // The keep sets: every key the view or the net graph still
        // references, plus the paths of the surviving auto keys.
        // Everything else is churn garbage.
        let mut keep = vec![false; strings_before];
        let mut keep_auto = vec![false; autos_before];
        let mut mark = |node: u32| match NetKey::from_node(node).as_auto() {
            Some(a) => keep_auto[a as usize] = true,
            None => keep[node as usize] = true,
        };
        for k in self.view.elements.net_keys() {
            mark(k.node());
        }
        for h in self.view.elements.paths() {
            mark(h.index());
        }
        for d in &self.view.devices {
            mark(d.path.index());
            mark(d.device_type.index());
        }
        for node in self.parts.element_node.iter().flatten() {
            mark(*node);
        }
        for (a, b) in &self.parts.conn_edges {
            mark(*a);
            mark(*b);
        }
        for d in &self.parts.devices {
            for (_, node) in &d.terms {
                mark(*node);
            }
            for (a, b) in &d.edges {
                mark(*a);
                mark(*b);
            }
        }
        for l in &self.parts.labels {
            if let Some(node) = l.node {
                mark(node);
            }
            for (a, b) in &l.edges {
                mark(*a);
                mark(*b);
            }
        }
        for (id, _) in keep_auto.iter().enumerate().filter(|(_, &k)| k) {
            keep[self.view.auto_keys.get(id as u32).path.index() as usize] = true;
        }

        let remap = self.view.strings.compact(|id, _| keep[id.index() as usize]);
        let auto_remap = self.view.auto_keys.compact(&keep_auto, &remap);
        self.view.elements.remap_keys(&remap, &auto_remap);
        for d in &mut self.view.devices {
            // invariant: device handles were marked above.
            d.path = remap[d.path.index() as usize].expect("device path survives compaction");
            d.device_type =
                remap[d.device_type.index() as usize].expect("device type survives compaction");
        }
        self.parts.remap_nodes(&remap, &auto_remap);

        SessionCompaction {
            index_compacted,
            strings_evicted: strings_before - self.view.strings.len(),
            string_bytes_freed: bytes_before.saturating_sub(self.view.strings.heap_bytes()),
            auto_keys_evicted: autos_before - self.view.auto_keys.len(),
            auto_key_bytes_freed: auto_bytes_before
                .saturating_sub(self.view.auto_keys.heap_bytes()),
        }
    }
}

/// What one [`CheckSession::compact_memory`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCompaction {
    /// True if the spatial index had tombstones to drop.
    pub index_compacted: bool,
    /// Interner strings evicted as unreferenced.
    pub strings_evicted: usize,
    /// Interner heap bytes freed by the eviction.
    pub string_bytes_freed: usize,
    /// Auto-key records evicted as unreferenced.
    pub auto_keys_evicted: usize,
    /// Auto-key table bytes (records and index) freed by the eviction.
    pub auto_key_bytes_freed: usize,
}

/// A from-scratch [`check`] with the violations brought into canonical
/// order — the oracle an incremental session's patched report must equal
/// byte for byte.
pub fn canonical_check(layout: &Layout, tech: &Technology, options: &CheckOptions) -> CheckReport {
    let mut report = check(layout, tech, options);
    canonical_sort(&mut report.violations);
    report
}

/// Applies an edit batch to a layout (indices must already be
/// validated).
fn apply_layout_edits(layout: &mut Layout, edits: &EditSet) {
    for edit in &edits.edits {
        match edit {
            Edit::AddElement {
                cif_layer,
                shape,
                net,
            } => {
                let layer = layout.intern_layer(cif_layer);
                layout.push_top(Item::Element(Element {
                    layer,
                    shape: shape.clone(),
                    net: net.clone(),
                }));
            }
            Edit::AddCall {
                symbol,
                transform,
                name,
            } => {
                layout.push_top(Item::Call(Call {
                    target: *symbol,
                    transform: *transform,
                    name: name.clone(),
                }));
            }
            Edit::RemoveItem { index } => {
                layout.remove_top(*index);
            }
            Edit::MoveItem { index, by } => {
                let t = Transform::translate(*by);
                match layout.top_item_mut(*index) {
                    Item::Element(el) => el.shape = el.shape.transformed(&t),
                    Item::Call(c) => c.transform = t.after(&c.transform),
                }
            }
            Edit::ReplaceSymbol { symbol, items } => {
                layout.symbol_mut(*symbol).items = items.clone();
            }
        }
    }
}

/// A uniform grid over a region's rects, for fast "does this bbox touch
/// the dirty region" predicates (a whole-chip dirty region can hold
/// thousands of rects; the linear scan in [`Region::touches_rect`] is
/// the wrong tool for per-element loops).
fn region_grid(region: &Region, cell: i64) -> diic_geom::GridIndex<()> {
    let mut grid = diic_geom::GridIndex::new(cell);
    for r in region.rects() {
        grid.insert(*r, ());
    }
    grid
}

/// Prefix sums of the per-item runs: `(element_start, device_start)`.
fn run_offsets(runs: &[ItemRun]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(runs.len());
    let (mut e, mut d) = (0usize, 0usize);
    for r in runs {
        out.push((e, d));
        e += r.elems;
        d += r.devices;
    }
    out
}

/// The replaced symbols plus everything that transitively calls them.
fn dirty_symbol_closure(layout: &Layout, replaced: &[SymbolId]) -> HashSet<SymbolId> {
    let mut callers: Vec<Vec<SymbolId>> = vec![Vec::new(); layout.symbols().len()];
    for (si, sym) in layout.symbols().iter().enumerate() {
        for call in sym.calls() {
            callers[call.target.0 as usize].push(SymbolId(si as u32));
        }
    }
    let mut dirty: HashSet<SymbolId> = HashSet::new();
    let mut queue: Vec<SymbolId> = replaced.to_vec();
    while let Some(s) = queue.pop() {
        if dirty.insert(s) {
            queue.extend(callers[s.0 as usize].iter().copied());
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn options() -> CheckOptions {
        CheckOptions {
            erc: false,
            ..CheckOptions::default()
        }
    }

    fn assert_matches_full(session: &CheckSession) {
        let full = session.full_check();
        assert_eq!(
            session.report().violations,
            full.violations,
            "patched report diverged from from-scratch check"
        );
        assert_eq!(session.report().netlist, full.netlist);
        assert_eq!(session.report().element_count, full.element_count);
        assert_eq!(session.report().device_count, full.device_count);
        assert_eq!(session.report().waived_devices, full.waived_devices);
    }

    #[test]
    fn empty_edit_set_changes_nothing() {
        let layout = parse("L NM; B 2000 750 1000 375; B 2000 750 1000 1625; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.clone();
        let stats = session.apply(&EditSet::new()).unwrap();
        assert_eq!(stats.dirty_items, 0);
        assert_eq!(stats.retracted, 0);
        assert_eq!(session.report().violations, before);
        assert_matches_full(&session);
    }

    #[test]
    fn add_then_remove_roundtrips() {
        let layout = parse("L NM; B 2000 750 1000 375; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());

        let mut add = EditSet::new();
        add.add_box("NM", Rect::new(0, 1250, 2000, 2000), None); // 500 gap, rule 750
        session.apply(&add).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);

        let mut remove = EditSet::new();
        remove.remove(1);
        session.apply(&remove).unwrap();
        assert!(
            session.report().violations.is_empty(),
            "{:?}",
            session.report().violations
        );
        assert_matches_full(&session);
    }

    #[test]
    fn move_element_relocates_violation() {
        let layout = parse("L NM; B 2000 750 1000 375; B 2000 750 1000 1625; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert_eq!(session.report().violations.len(), 1); // 500 gap

        let mut away = EditSet::new();
        away.translate(1, 0, 5000);
        session.apply(&away).unwrap();
        assert!(session.report().violations.is_empty());
        assert_matches_full(&session);

        let mut back = EditSet::new();
        back.translate(1, 0, -5000);
        session.apply(&back).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn out_of_bounds_edit_leaves_session_untouched() {
        let layout = parse("L NM; B 2000 750 1000 375; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.clone();
        let mut bad = EditSet::new();
        bad.remove(7);
        let err = session.apply(&bad).unwrap_err();
        assert_eq!(err, EditError::ItemOutOfBounds { index: 7, len: 1 });
        assert_eq!(session.report().violations, before);
        assert_matches_full(&session);
    }

    #[test]
    fn replace_symbol_invalidates_instances() {
        let layout = parse(
            "DS 1; L NM; B 2000 750 1000 375; DF;
             C 1 T 0 0; C 1 T 6000 0; E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());

        // New body: two wires 500 apart inside the definition — every
        // instance now carries an internal spacing violation.
        let sym = session.layout().symbol_by_cif_id(1).unwrap();
        let broken = parse("DS 9; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF; E").unwrap();
        let body = broken.symbols()[0].items.clone();
        let mut edits = EditSet::new();
        edits.replace_symbol(sym, body);
        session.apply(&edits).unwrap();
        assert_eq!(session.report().violations.len(), 2, "one per instance");
        assert_matches_full(&session);
    }

    #[test]
    fn added_call_is_instantiated_and_checked() {
        let layout = parse("DS 1; L NM; B 2000 750 1000 375; DF; C 1 T 0 0; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());

        // A second placement 1250 above the first: the two instances'
        // wires end up 500 apart (rule 750) — cross-instance violation.
        let sym = session.layout().symbol_by_cif_id(1).unwrap();
        let mut edits = EditSet::new();
        edits.add_call(sym, Transform::translate(Vector::new(0, 1250)), "added");
        session.apply(&edits).unwrap();
        assert_eq!(
            session.report().violations.len(),
            1,
            "{:?}",
            session.report().violations
        );
        assert_matches_full(&session);

        // The added instance behaves like any other item: move it away
        // and the violation disappears.
        let mut away = EditSet::new();
        away.translate(1, 0, 8000);
        session.apply(&away).unwrap();
        assert!(session.report().violations.is_empty());
        assert_matches_full(&session);
    }

    #[test]
    fn add_call_unknown_symbol_rejected() {
        let layout = parse("DS 1; L NM; B 2000 750 1000 375; DF; C 1 T 0 0; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.clone();
        let mut bad = EditSet::new();
        bad.add_call(SymbolId(99), Transform::IDENTITY, "x");
        let err = session.apply(&bad).unwrap_err();
        assert_eq!(err, EditError::UnknownSymbol(SymbolId(99)));
        assert_eq!(session.report().violations, before);
        assert_matches_full(&session);
    }

    #[test]
    fn moved_call_is_rechecked() {
        let layout = parse(
            "DS 1; L NM; B 2000 750 1000 375; DF;
             C 1 T 0 0; C 1 T 6000 0; E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());
        // Slide the second instance next to the first: cross-instance
        // metal spacing violation.
        let mut edits = EditSet::new();
        edits.translate(1, -3500, 0); // gap becomes 500
        session.apply(&edits).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn moved_instance_keeps_its_auto_key_nodes() {
        // Auto keys are instance-local records: moving an instance
        // through free space re-walks it into the same records, so the
        // patched net graph is bit-identical and the cached net list is
        // reused.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 3375; DF;\n");
        for i in 0..6 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 10_000));
        }
        cif.push('E');
        let layout = parse(&cif).unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let records = session.view.auto_keys.len();
        let mut edits = EditSet::new();
        edits.translate(5, 0, 20_000);
        let stats = session.apply(&edits).unwrap();
        assert!(!stats.full_rebuild, "one instance of six stays incremental");
        assert!(stats.netlist_reused, "same records, same nodes: {stats:?}");
        assert_eq!(session.view.auto_keys.len(), records, "no new record");
        assert_matches_full(&session);
    }

    #[test]
    fn net_merge_far_from_edit_is_caught() {
        // Two parallel metal wires 500 apart on different nets: one
        // spacing violation. A far-away strap connecting them makes the
        // pair same-net — the violation must vanish even though the
        // close pair is far outside the edit's geometric dirty region.
        let layout = parse(
            "L NM; 9N A; B 20000 750 10000 375;
             L NM; 9N B; B 20000 750 10000 1625;
             E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert_eq!(session.report().violations.len(), 1);

        let mut strap = EditSet::new();
        // Overlapping both rails at the far right end (x ≈ 19k): merges
        // nets A and B into one.
        strap.add_box("NM", Rect::new(19000, 0, 19750, 2000), Some("A"));
        session.apply(&strap).unwrap();
        assert_matches_full(&session);

        let mut unstrap = EditSet::new();
        unstrap.remove(2);
        session.apply(&unstrap).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn heavy_churn_compacts_the_index_and_stays_exact() {
        // A chip big enough that moving one 8-element cell stays under
        // the full-rebuild threshold (8 of 48 elements dirty); each
        // move evicts and re-inserts the cell's elements, leaving 8
        // tombstones per apply, so the threshold (dead > live, floored
        // at 64) trips within a handful of edits. Check byte equality
        // with the full run at every compaction boundary.
        let mut cif = String::from("DS 1;\n");
        for i in 0..8 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push_str("DF;\n");
        for i in 0..40 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push_str("C 1 T 50000 0;\nE");
        let layout = parse(&cif).unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());
        let mut compactions = 0;
        for step in 0..30 {
            let mut churn = EditSet::new();
            churn.translate(40, if step % 2 == 0 { 2500 } else { -2500 }, 0);
            let stats = session.apply(&churn).unwrap();
            assert!(!stats.full_rebuild, "churn edits must stay incremental");
            if stats.index_compacted {
                compactions += 1;
                assert_matches_full(&session);
            }
            if step % 10 == 0 {
                assert_matches_full(&session);
            }
        }
        assert!(
            compactions >= 2,
            "30 churn applies must trip the compaction threshold repeatedly \
             (got {compactions})"
        );
        // The session keeps working (and can compact again) afterwards.
        let mut after = EditSet::new();
        after.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
        session.apply(&after).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn compact_memory_evicts_churn_garbage_and_stays_exact() {
        // Add-then-remove churn leaves both kinds of garbage behind:
        // orphaned interner strings (declared net keys, instance paths)
        // and orphaned auto-key records (each added element at a
        // distinct bbox or path keys a fresh record). Removing the first
        // two items then orphans an early string and the first record,
        // so compaction must renumber the survivors — element keys and
        // paths, the records' own paths, and the net graph's nodes —
        // and leave the rendered report and the edit loop byte-identical.
        // The base chip is wide enough that the churn stays under the
        // full-rebuild threshold (a rebuild resets the tables and would
        // hide the garbage this test is about).
        let mut cif = String::from(
            "DS 1; L NM; B 2000 750 1000 375; B 2000 750 5000 375; DF;\n\
             L NM; 9N first; B 2000 750 1000 375;\n\
             L NM; B 2000 750 1000 3375;\n\
             C 1 T 10000 0;\n",
        );
        // The first rail is declared: its key is interned after the
        // early items' strings, so their eviction renumbers it.
        cif.push_str("9N rail; ");
        for i in 0..40 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 6375 + i * 3000));
        }
        cif.push('E');
        let layout = parse(&cif).unwrap();
        let tech = nmos_technology();
        use crate::binding::Istr;
        let mut session = CheckSession::new(layout, &tech, &options());
        let sym = session.layout().symbol_by_cif_id(1).unwrap();
        let (live_strings, live_autos) = (session.view.strings.len(), session.view.auto_keys.len());
        for step in 0..24i64 {
            let y = 10_000 + step * 3000;
            let mut add = EditSet::new();
            add.add_box("NM", Rect::new(50_000, y, 52_000, y + 750), None)
                .add_box(
                    "NM",
                    Rect::new(60_000, y, 62_000, y + 750),
                    Some(&format!("n{step}")),
                )
                .add_call(
                    sym,
                    Transform::translate(Vector::new(70_000, y)),
                    &format!("c{step}"),
                );
            let stats = session.apply(&add).unwrap();
            assert!(!stats.full_rebuild, "churn edits must stay incremental");
            let mut remove = EditSet::new();
            remove.remove(43).remove(43).remove(43);
            session.apply(&remove).unwrap();
        }
        // Per round: one declared key and one path string; one record
        // for the box and two for the call's boxes.
        assert_eq!(session.view.strings.len(), live_strings + 48);
        assert_eq!(session.view.auto_keys.len(), live_autos + 72);
        let mut early = EditSet::new();
        early.remove(1).remove(0);
        let stats = session.apply(&early).unwrap();
        assert!(!stats.full_rebuild, "two early items stay incremental");

        let rendered =
            |s: &CheckSession| format!("{:?}", (&s.report().violations, &s.report().netlist));
        let key_texts = |s: &CheckSession| -> Vec<(String, String)> {
            s.view
                .elements
                .iter()
                .map(|e| {
                    (
                        s.view.net_key_str(e.net_key()).into_owned(),
                        s.view.str(e.path()).to_string(),
                    )
                })
                .collect()
        };
        let before_text = rendered(&session);
        let before_keys = key_texts(&session);
        let before_handles: Vec<(NetKey, Istr)> = session
            .view
            .elements
            .iter()
            .map(|e| (e.net_key(), e.path()))
            .collect();
        let before = session.memory_bytes();
        let compaction = session.compact_memory();
        assert_eq!(
            compaction.strings_evicted, 49,
            "24 rounds orphan 48 strings, the early removal one more: {compaction:?}"
        );
        assert!(compaction.string_bytes_freed > 0);
        assert_eq!(
            compaction.auto_keys_evicted, 73,
            "24 rounds orphan 72 auto keys, the early removal one more: {compaction:?}"
        );
        assert!(compaction.auto_key_bytes_freed > 0);
        assert_eq!(session.view.strings.len(), live_strings - 1);
        assert_eq!(
            session.view.auto_keys.len(),
            live_autos - 1,
            "the table shrinks to the live keys"
        );
        assert!(session.memory_bytes() < before);
        // Every surviving handle moved (the early evictions shift both
        // spaces), yet each element renders exactly as before.
        let after_handles: Vec<(NetKey, Istr)> = session
            .view
            .elements
            .iter()
            .map(|e| (e.net_key(), e.path()))
            .collect();
        let moved = |f: fn(&(NetKey, Istr)) -> bool| {
            before_handles
                .iter()
                .zip(&after_handles)
                .any(|(b, a)| f(b) && b != a)
        };
        assert!(
            moved(|h| h.0.as_auto().is_some()),
            "auto records renumbered"
        );
        assert!(
            moved(|h| h.0.as_auto().is_none()),
            "interned keys renumbered"
        );
        assert!(
            before_handles
                .iter()
                .zip(&after_handles)
                .any(|(b, a)| b.1 != a.1),
            "instance paths renumbered"
        );
        assert_eq!(key_texts(&session), before_keys);
        assert_eq!(
            rendered(&session),
            before_text,
            "compaction changes no rendered byte"
        );
        assert_matches_full(&session);

        // The compacted session keeps editing (and re-keying) fine: a
        // box 500 above the first rail adds one spacing violation.
        let violations = session.report().violations.len();
        let mut add = EditSet::new();
        add.add_box("NM", Rect::new(0, 7250, 2000, 8000), None);
        session.apply(&add).unwrap();
        assert_eq!(session.report().violations.len(), violations + 1);
        assert_matches_full(&session);
        let again = session.compact_memory();
        assert_eq!(again.strings_evicted, 0, "nothing orphaned since");
        assert_eq!(again.auto_keys_evicted, 0, "nothing orphaned since");
        assert_matches_full(&session);
    }

    #[test]
    fn removing_the_first_duplicate_renames_the_survivors() {
        // Three exact-duplicate undeclared boxes: keys `…`, `…:1`, `…:2`.
        // Removing the first one shifts the survivors' ordinals down —
        // the patched report and net list must equal a from-scratch
        // check of the edited layout.
        let mut cif = String::new();
        for _ in 0..3 {
            cif.push_str("L NM; B 1000 1000 0 0;\n");
        }
        for i in 0..20 {
            cif.push_str(&format!("L NM; B 2000 750 10000 {};\n", 375 + i * 3000));
        }
        cif.push('E');
        let layout = parse(&cif).unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let keys = |s: &CheckSession| -> Vec<String> {
            (0..3)
                .map(|id| {
                    s.view
                        .net_key_str(s.view.elements.net_keys()[id])
                        .into_owned()
                })
                .collect()
        };
        let base = "#:3:-500,-500,500,500";
        assert_eq!(
            keys(&session),
            [base.to_string(), format!("{base}:1"), format!("{base}:2")]
        );
        let mut edits = EditSet::new();
        edits.remove(0);
        let stats = session.apply(&edits).unwrap();
        assert!(!stats.full_rebuild, "one box of 23 stays incremental");
        assert_eq!(keys(&session)[..2], [base.to_string(), format!("{base}:1")]);
        // full_check is canonical_check of the edited layout.
        assert_matches_full(&session);
    }

    #[test]
    fn whole_chip_dirty_rail_edit() {
        // Moving a chip-spanning rail dirties everything; the patch
        // machinery must still agree with the full check.
        let layout = parse(
            "L NM; 9N VDD; B 30000 750 15000 375;
             L NM; B 2000 750 1000 1625;
             L NM; B 2000 750 8000 1625;
             E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.len();
        assert!(before > 0);
        let mut edits = EditSet::new();
        edits.translate(0, 0, -200); // rail slides closer to the stubs
        session.apply(&edits).unwrap();
        assert_matches_full(&session);
    }
}
