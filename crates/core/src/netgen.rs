//! Stage 5 — "generate hierarchical net list".
//!
//! "While parsing the design, each element in the design is assigned a
//! unique net identifier using a dot notation to reference elements in an
//! instance from a higher level in the hierarchy. With this hierarchical
//! net list available, it is now possible to check electrical construction
//! rules or to check the net list against an input net list for
//! consistency."
//!
//! # One key space, end to end
//!
//! The net graph's node ids **are** the view's [`NetKey`]s
//! ([`NetKey::node`]): an element's node is its `net_key` — an interned
//! declared key or an auto-key record, told apart by a tag bit — and
//! the fresh keys this stage creates — terminal keys (`i0.G`),
//! joining-device keys (`i0.#`), label nets — are interned into
//! [`ChipView::strings`]. No key is ever copied into a second table,
//! and "same identity ⇒ same node" holds across the whole pipeline,
//! which is what keeps an edit session's cached rows valid. Node ids
//! therefore depend on interning history (a from-scratch build and a
//! patched session may number them differently) — which is fine,
//! because [`assemble_netlist`] canonicalises by key *strings*: net
//! identity, aliases, and ordering never see the raw ids (an interned
//! and an auto key that render alike tie-break by the tag bit alone).
//! Auto keys are rendered to text exactly once, by
//! [`NetParts::assemble`], and the text moves into the net list.
//!
//! # Parallelism
//!
//! Net-list generation splits into a **per-scope union phase** and a
//! serial canonical assembly. The element-node map is a read-only
//! column sweep (`net_key` handle + device class per element), so it
//! fans out over the worker pool, as does the netted filter behind
//! [`BindIndex::build_parallel`] — the last serial build steps. The
//! terminal/label union phase — binding each device's terminals and
//! each label's point to the elements covering them — is a pure
//! function per device/label of the (read-only) view and the shared
//! [`BindIndex`], so it fans out too
//! ([`crate::parallel::run_chunked`]) as symbolic **draft rows**: the
//! covering element ids plus the fresh key *strings* a serial build
//! would intern, in intern order. The serial fold then interns the
//! drafts in device/label order — exactly the order a serial
//! [`NetParts::build`] interns in — so the int-keyed graph is numbered
//! identically and the assembled net list is **byte-identical for any
//! worker count** ([`NetParts::build_parallel`], driven by
//! [`CheckOptions::parallelism`](crate::CheckOptions::parallelism); the
//! seventh differential-oracle leg in `tests/differential.rs` pins it).
//! The assembly ([`NetParts::assemble`] → [`assemble_netlist`]) renders
//! the live auto keys on the pool too; the fold itself stays serial: it
//! is a global union-find plus canonical naming, the same fold the
//! incremental session re-runs after patching rows.

use crate::binding::{dotted, remap_key, ChipView, Istr, NetKey, StringInterner};
use crate::connect::is_joining_class;
use crate::parallel::run_chunked;
use crate::violations::Violation;
use diic_cif::NetLabel;
use diic_geom::{GridIndex, Point};
use diic_netlist::{assemble_netlist, AssembleDevice, NetId, Netlist};
use diic_tech::{DeviceClass, LayerId, Technology};
use std::borrow::Cow;

/// Output of net-list generation.
#[derive(Debug, Clone)]
pub struct NetgenResult {
    /// The extracted net list.
    pub netlist: Netlist,
    /// Net of each element (index = element id); `None` for un-netted
    /// device internals (gates, resistor bodies).
    pub element_net: Vec<Option<NetId>>,
    /// Terminal nets per device instance (index = device id).
    pub device_terminal_nets: Vec<Vec<NetId>>,
    /// Violations (currently none are produced here; reserved for
    /// extraction anomalies).
    pub violations: Vec<Violation>,
}

/// True if the element carries a net: interconnect and joining
/// (contact-class) device geometry. A transistor's un-netted parts must
/// not become phantom zero-terminal nets.
pub fn element_is_netted(view: &ChipView, id: usize) -> bool {
    match view.elements.get(id).device() {
        None => true,
        Some(d) => is_joining_class(view.devices[d].class),
    }
}

/// Spatial index over the bindable (netted) elements, for terminal and
/// label point binding. Cells are sized from the technology's rule reach
/// rather than a magic constant.
#[derive(Debug)]
pub struct BindIndex {
    index: GridIndex<usize>,
}

impl BindIndex {
    /// Indexes every netted element of the view, serially —
    /// [`BindIndex::build_parallel`] with one worker.
    pub fn build(view: &ChipView, tech: &Technology) -> BindIndex {
        BindIndex::build_parallel(view, tech, 1)
    }

    /// [`BindIndex::build`] with the netted filter — a device-column
    /// and class sweep per element — fanned out over `workers` scoped
    /// threads. The chunked results flatten in id order, so the index
    /// insertion order (and every ascending-id query answer) is
    /// byte-identical for any worker count.
    pub fn build_parallel(view: &ChipView, tech: &Technology, workers: usize) -> BindIndex {
        let ids: Vec<usize> = run_chunked(view.elements.len(), workers, |id| {
            element_is_netted(view, id).then_some(id)
        })
        .into_iter()
        .flatten()
        .collect();
        BindIndex::build_among(view, tech, &ids)
    }

    /// Indexes only the given elements (the incremental checker's scoped
    /// variant — callers must pass netted elements; only they can bind).
    pub fn build_among(view: &ChipView, tech: &Technology, ids: &[usize]) -> BindIndex {
        let mut index: GridIndex<usize> =
            GridIndex::new(crate::interact::interaction_cell_size(tech));
        let bboxes = view.elements.bboxes();
        for &id in ids {
            index.insert(bboxes[id], id);
        }
        BindIndex { index }
    }

    /// Ids (ascending) of netted elements covering point `p` on `layer`.
    pub fn elements_at(&self, view: &ChipView, layer: LayerId, p: Point) -> Vec<usize> {
        self.index
            .query(&diic_geom::Rect::new(p.x, p.y, p.x, p.y))
            .into_iter()
            .copied()
            .filter(|&id| {
                let e = view.elements.get(id);
                e.layer() == layer && e.rects().iter().any(|r| r.contains_point(p))
            })
            .collect()
    }
}

/// One device's rows in the net graph: its terminal `(name, node)` pairs
/// and the connection edges its geometry/bindings contribute. Rows are
/// position-independent (they reference interned nodes, not element
/// ids), which is what lets an edit session splice cached rows of
/// untouched devices into a patched graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceParts {
    /// `(terminal-name, node)` pairs, in terminal order.
    pub terms: Vec<(String, u32)>,
    /// Node-pair edges (device join edges or terminal bindings).
    pub edges: Vec<(u32, u32)>,
}

/// One label's rows: its net node (None if the label's layer is unknown)
/// and its binding edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelParts {
    /// The label net's node.
    pub node: Option<u32>,
    /// Label-to-covering-element edges.
    pub edges: Vec<(u32, u32)>,
}

/// The int-keyed net graph behind net-list generation.
///
/// Nodes are **the owning view's [`NetKey`]s** (raw indices into
/// [`ChipView::strings`] or, tagged, into [`ChipView::auto_keys`]) —
/// there is no second key table, so net node keys are never
/// re-interned, and both tables' append-only contract makes nodes
/// **stable across edits** (stale keys simply stop being referenced).
/// The element/device/label rows record which nodes are live and how
/// they connect. [`NetParts::assemble`] folds the graph through
/// [`assemble_netlist`] — the same canonicalisation the
/// [`diic_netlist::NetlistBuilder`] uses, keyed on the node's
/// *strings* — so a graph patched incrementally by a
/// [`crate::incremental::CheckSession`] produces a net list
/// byte-identical to a from-scratch build even where the two interned
/// the keys in different orders.
#[derive(Debug, Clone, Default)]
pub struct NetParts {
    /// Node per element id; `None` for un-netted device internals.
    pub element_node: Vec<Option<u32>>,
    /// Node-pair edges from the connection stage's merges.
    pub conn_edges: Vec<(u32, u32)>,
    /// Per-device rows, aligned with `ChipView::devices`.
    pub devices: Vec<DeviceParts>,
    /// Per-label rows, aligned with the label list given to
    /// [`NetParts::build`].
    pub labels: Vec<LabelParts>,
}

impl NetParts {
    /// Remaps every node through an interner compaction map
    /// ([`crate::binding::StringInterner::compact`]) and an auto-key
    /// compaction map ([`crate::binding::AutoKeys::compact`]): nodes
    /// are the view's keys, so when its tables are compacted (a
    /// long-lived service session shedding edit-churn garbage) the
    /// whole graph renumbers with them. The caller must keep every node
    /// key alive in the compactions — the remaps are dense and
    /// order-preserving, so the graph stays isomorphic and
    /// [`NetParts::assemble`] (which canonicalises by the node
    /// *strings*) produces byte-identical net lists.
    pub(crate) fn remap_nodes(&mut self, strings: &[Option<Istr>], autos: &[Option<u32>]) {
        let map = |n: u32| -> u32 { remap_key(NetKey::from_node(n), strings, autos).node() };
        for node in self.element_node.iter_mut().flatten() {
            *node = map(*node);
        }
        for (a, b) in &mut self.conn_edges {
            *a = map(*a);
            *b = map(*b);
        }
        for device in &mut self.devices {
            for (_, node) in &mut device.terms {
                *node = map(*node);
            }
            for (a, b) in &mut device.edges {
                *a = map(*a);
                *b = map(*b);
            }
        }
        for label in &mut self.labels {
            if let Some(node) = &mut label.node {
                *node = map(*node);
            }
            for (a, b) in &mut label.edges {
                *a = map(*a);
                *b = map(*b);
            }
        }
    }

    /// Builds the full graph for a view, serially —
    /// [`NetParts::build_parallel`] with one worker.
    ///
    /// Needs the view mutably: fresh terminal / joining-device / label
    /// keys intern into the view's own table (the graph has no key
    /// store of its own).
    pub fn build(
        view: &mut ChipView,
        tech: &Technology,
        merges: &[(usize, usize)],
        labels: &[(NetLabel, Option<LayerId>)],
    ) -> NetParts {
        NetParts::build_parallel(view, tech, merges, labels, 1)
    }

    /// [`NetParts::build`] with the element-node map, the
    /// [`BindIndex`] filter, and the per-device / per-label union phase
    /// fanned out over `workers` scoped threads.
    ///
    /// The parallel jobs are read-only: the element-node map is a
    /// column sweep (an element's node is its `net_key` handle index),
    /// and the device/label jobs compute symbolic `DeviceDraft` /
    /// `LabelDraft` rows (covering-element ids plus fresh key strings
    /// in intern order). The serial fold then interns the drafts into
    /// the **view's** interner in device/label order — the same
    /// first-occurrence order a serial build interns in — so node
    /// numbering, rows, and the assembled net list are **byte-identical
    /// for any worker count**.
    pub fn build_parallel(
        view: &mut ChipView,
        tech: &Technology,
        merges: &[(usize, usize)],
        labels: &[(NetLabel, Option<LayerId>)],
        workers: usize,
    ) -> NetParts {
        let mut parts = NetParts::default();
        // Element nodes: a parallel read-only sweep of the net-key and
        // device columns. The node *is* the element's key — no interner
        // traffic at all.
        let ro: &ChipView = view;
        parts.element_node = run_chunked(ro.elements.len(), workers, |id| {
            element_is_netted(ro, id).then(|| ro.elements.net_keys()[id].node())
        });
        parts.set_conn_edges(merges);
        let bind = BindIndex::build_parallel(ro, tech, workers);
        // Union phase: chunked draft jobs over the device and label
        // lists (one contiguous chunk per job keeps run_ordered's
        // per-job overhead off the per-device scale).
        let dev_drafts = run_chunked(ro.devices.len(), workers, |di| device_draft(ro, di, &bind));
        let label_drafts = run_chunked(labels.len(), workers, |li| {
            let (label, layer) = &labels[li];
            label_draft(ro, label, *layer, &bind)
        });
        // Serial fold: intern fresh keys into the view's table in
        // device/label order.
        for draft in dev_drafts {
            let row = parts.intern_device_draft(&mut view.strings, draft);
            parts.devices.push(row);
        }
        for draft in label_drafts {
            let row = parts.intern_label_draft(&mut view.strings, draft);
            parts.labels.push(row);
        }
        parts
    }

    /// Recomputes the connection-merge edges from element-id pairs.
    pub fn set_conn_edges(&mut self, merges: &[(usize, usize)]) {
        self.conn_edges.clear();
        self.conn_edges.reserve(merges.len());
        for &(i, j) in merges {
            let (Some(a), Some(b)) = (self.element_node[i], self.element_node[j]) else {
                debug_assert!(false, "merge endpoints must be netted");
                continue;
            };
            self.conn_edges.push((a, b));
        }
    }

    /// Computes one device's row (used for initial build and for
    /// re-binding a device whose neighbourhood changed) — the draft
    /// computation plus an immediate intern into the view's table, so
    /// the incremental session's re-rows and the parallel build share
    /// one emission order.
    pub fn device_parts(
        &mut self,
        view: &mut ChipView,
        di: usize,
        bind: &BindIndex,
    ) -> DeviceParts {
        let draft = device_draft(view, di, bind);
        self.intern_device_draft(&mut view.strings, draft)
    }

    /// Computes one label's row (see [`NetParts::device_parts`]).
    pub fn label_parts(
        &mut self,
        view: &mut ChipView,
        label: &NetLabel,
        layer: Option<LayerId>,
        bind: &BindIndex,
    ) -> LabelParts {
        let draft = label_draft(view, label, layer, bind);
        self.intern_label_draft(&mut view.strings, draft)
    }

    /// Resolves a symbolic device draft against the view interner and
    /// the element-node map, in the draft's recorded intern order.
    /// Fresh keys are interned **by move** — a miss keeps the draft's
    /// own allocation instead of copying it.
    fn intern_device_draft(
        &mut self,
        strings: &mut StringInterner,
        draft: DeviceDraft,
    ) -> DeviceParts {
        let nodes: Vec<u32> = draft
            .keys
            .into_iter()
            .map(|k| NetKey::named(strings.intern_owned(k.into())).node())
            .collect();
        DeviceParts {
            terms: draft
                .terms
                .into_iter()
                .map(|(tname, ki)| (tname, nodes[ki]))
                .collect(),
            edges: draft
                .edges
                .into_iter()
                .map(|(ki, eid)| {
                    // invariant: drafts only reference elements the
                    // union phase netted (message supplied per draft).
                    let node = self.element_node[eid].expect(draft.expect);
                    (nodes[ki], node)
                })
                .collect(),
        }
    }

    /// Resolves a symbolic label draft (see
    /// [`NetParts::intern_device_draft`]).
    fn intern_label_draft(
        &mut self,
        strings: &mut StringInterner,
        draft: LabelDraft,
    ) -> LabelParts {
        let Some(draft) = draft.0 else {
            return LabelParts::default();
        };
        let node = NetKey::named(strings.intern_owned(draft.key.into())).node();
        LabelParts {
            node: Some(node),
            edges: draft
                .bound
                .into_iter()
                .map(|id| {
                    // invariant: a label binds only to elements the
                    // union phase assigned a node.
                    let elem = self.element_node[id].expect("bindable elements are netted");
                    (node, elem)
                })
                .collect(),
        }
    }

    /// Assembles the canonical net list and per-element / per-terminal
    /// resolutions from the current graph. Node keys render through the
    /// view: interned keys borrow their string, and each live auto key
    /// is formatted once — on `workers` threads — with the text moving
    /// into the net list's aliases.
    pub fn assemble(&self, view: &ChipView, workers: usize) -> NetgenResult {
        // Live nodes: whatever the element/device/label rows reference,
        // numbered in node order (interned keys first: the tag bit is
        // the top bit) by a mark-and-scan over each key space's dense
        // node → position map.
        const DEAD: u32 = u32::MAX;
        let mut named_pos = vec![DEAD; view.strings.len()];
        let mut auto_pos = vec![DEAD; view.auto_keys.len()];
        let nodes = (self.element_node.iter().flatten())
            .chain(
                self.devices
                    .iter()
                    .flat_map(|d| d.terms.iter().map(|(_, n)| n)),
            )
            .chain(self.labels.iter().flat_map(|l| &l.node));
        for &n in nodes {
            match NetKey::from_node(n).as_auto() {
                Some(a) => auto_pos[a as usize] = 0,
                None => named_pos[n as usize] = 0,
            }
        }
        let mut live: Vec<NetKey> = Vec::new();
        let spaces = [
            (&mut named_pos, NetKey::from_node as fn(u32) -> NetKey),
            (&mut auto_pos, NetKey::auto),
        ];
        for (positions, key) in spaces {
            for (i, p) in positions.iter_mut().enumerate() {
                if *p != DEAD {
                    *p = live.len() as u32;
                    live.push(key(i as u32));
                }
            }
        }
        let pos = |n: u32| -> u32 {
            match NetKey::from_node(n).as_auto() {
                Some(a) => auto_pos[a as usize],
                None => named_pos[n as usize],
            }
        };
        let names: Vec<Cow<'_, str>> =
            run_chunked(live.len(), workers, |p| view.net_key_str(live[p]));

        let mut edges: Vec<(u32, u32)> = self.conn_edges.clone();
        for d in &self.devices {
            edges.extend_from_slice(&d.edges);
        }
        for l in &self.labels {
            edges.extend_from_slice(&l.edges);
        }
        for (a, b) in &mut edges {
            (*a, *b) = (pos(*a), pos(*b));
        }

        let devices: Vec<AssembleDevice<'_>> = view
            .devices
            .iter()
            .zip(&self.devices)
            .map(|(dev, row)| AssembleDevice {
                name: view.str(dev.path),
                device_type: view.str(dev.device_type),
                class: dev.class.unwrap_or(DeviceClass::Capacitor),
                terminals: row
                    .terms
                    .iter()
                    .map(|(t, n)| (t.as_str(), pos(*n)))
                    .collect(),
            })
            .collect();

        let (netlist, node_nets) = assemble_netlist(names, &edges, &devices);
        let net_of = |n: u32| node_nets[pos(n) as usize];
        let element_net: Vec<Option<NetId>> =
            self.element_node.iter().map(|n| n.map(net_of)).collect();
        let device_terminal_nets: Vec<Vec<NetId>> = self
            .devices
            .iter()
            .map(|row| row.terms.iter().map(|&(_, n)| net_of(n)).collect())
            .collect();

        NetgenResult {
            netlist,
            element_net,
            device_terminal_nets,
            violations: Vec::new(),
        }
    }
}

/// One device's symbolic row before interning: the fresh node keys in
/// the exact order a serial build interns them, with terminals and
/// edges referencing key indices and covering-element ids. Pure data —
/// computable on any worker without touching the shared interner.
#[derive(Debug, Clone, Default)]
struct DeviceDraft {
    /// Fresh node keys, in serial intern order (one for a joining
    /// device, one per terminal otherwise).
    keys: Vec<String>,
    /// `(terminal-name, key index)` pairs, in terminal order.
    terms: Vec<(String, usize)>,
    /// `(key index, element id)` edges, in serial emission order.
    edges: Vec<(usize, usize)>,
    /// The element-node expectation message (differs between joining
    /// and terminal-separated rows).
    expect: &'static str,
}

/// One label's symbolic row before interning; `None` when the label's
/// layer is unknown.
#[derive(Debug, Clone, Default)]
struct LabelDraft(Option<LabelDraftInner>);

#[derive(Debug, Clone)]
struct LabelDraftInner {
    key: String,
    bound: Vec<usize>,
}

/// Computes one device's symbolic draft row (read-only — the parallel
/// union phase's job body).
fn device_draft(view: &ChipView, di: usize, bind: &BindIndex) -> DeviceDraft {
    let dev = &view.devices[di];
    let mut draft = DeviceDraft::default();
    if is_joining_class(dev.class) {
        // One net for the whole device.
        draft.expect = "joining device geometry is netted";
        draft.keys.push(dotted(view.str(dev.path), "#"));
        for &eid in &dev.element_ids {
            draft.edges.push((0, eid));
        }
        for (tname, _, _) in &dev.terminals {
            draft.terms.push((tname.clone(), 0));
        }
        if dev.terminals.is_empty() {
            // Still a device on its single net.
            draft.terms.push(("A".to_string(), 0));
        }
    } else {
        // Terminal-separated device: each terminal is its own key,
        // bound to covering elements.
        draft.expect = "bindable elements are netted";
        for (tname, layer, pos) in &dev.terminals {
            let ki = draft.keys.len();
            draft.keys.push(dotted(view.str(dev.path), tname));
            for id in bind.elements_at(view, *layer, *pos) {
                draft.edges.push((ki, id));
            }
            draft.terms.push((tname.clone(), ki));
        }
    }
    draft
}

/// Computes one label's symbolic draft row (read-only).
fn label_draft(
    view: &ChipView,
    label: &NetLabel,
    layer: Option<LayerId>,
    bind: &BindIndex,
) -> LabelDraft {
    let Some(layer) = layer else {
        return LabelDraft(None);
    };
    LabelDraft(Some(LabelDraftInner {
        key: label.net.clone(),
        bound: bind.elements_at(view, layer, label.position),
    }))
}

/// Generates the hierarchical net list, serially —
/// [`generate_netlist_parallel`] with one worker.
///
/// * interconnect elements get their declared (`9N`, path-qualified) or
///   auto net keys;
/// * stage-4 merges unify keys;
/// * contact-class devices join all their elements and terminals into one
///   net; transistors/resistors expose per-terminal nets that bind to any
///   element covering the terminal point on the terminal's layer;
/// * `9L` labels name the net of the element covering the labelled point.
///
/// The view is mutable because the stage's fresh keys (terminal,
/// joining-device, and label nets) intern into the view's own string
/// table — the graph shares that one interner end to end.
///
/// This is [`NetParts::build`] + [`NetParts::assemble`]; an edit session
/// keeps the [`NetParts`] graph alive and patches it instead of
/// rebuilding.
pub fn generate_netlist(
    view: &mut ChipView,
    tech: &Technology,
    merges: &[(usize, usize)],
    labels: &[(NetLabel, Option<LayerId>)],
) -> NetgenResult {
    generate_netlist_parallel(view, tech, merges, labels, 1)
}

/// [`generate_netlist`] with the per-scope union phase and the auto-key
/// rendering fanned out over `workers` scoped threads
/// ([`NetParts::build_parallel`], [`NetParts::assemble`]) — the fold
/// stays serial and canonical, so any worker count produces a
/// byte-identical [`NetgenResult`].
pub fn generate_netlist_parallel(
    view: &mut ChipView,
    tech: &Technology,
    merges: &[(usize, usize)],
    labels: &[(NetLabel, Option<LayerId>)],
    workers: usize,
) -> NetgenResult {
    NetParts::build_parallel(view, tech, merges, labels, workers).assemble(view, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn extract(cif: &str) -> (NetgenResult, ChipView) {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let mut view = instantiate(&layout, &tech, &binding);
        let conn = check_connections(&view, &tech);
        let labels: Vec<(NetLabel, Option<LayerId>)> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let r = generate_netlist(&mut view, &tech, &conn.merges, &labels);
        (r, view)
    }

    #[test]
    fn connected_wires_share_a_net() {
        let (r, _) = extract("L NM; 9N A; B 2000 750 1000 375; 9N B; B 2000 750 2200 375; E");
        let a = r.netlist.net_by_name("A").unwrap();
        let b = r.netlist.net_by_name("B").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn transistor_terminals_bind_to_covering_wires() {
        // Enhancement transistor with poly gate wire and diff S/D wires
        // covering its terminal points.
        let (r, _) = extract(
            "DS 1; 9 tr; 9D NMOS_ENH;
             9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
             L NP; B 1500 500 250 0;
             L ND; B 500 2500 250 0;
             DF;
             C 1 T 0 0;
             L NP; 9N in; W 500 -375 0 -3000 0;
             L ND; 9N gnd; W 500 250 -1000 250 -4000;
             L ND; 9N out; W 500 250 1000 250 4000;
             E",
        );
        assert_eq!(r.netlist.device_count(), 1);
        let dev = &r.netlist.devices()[0];
        assert_eq!(dev.device_type, "NMOS_ENH");
        let g = r.netlist.net_by_name("in").unwrap();
        let s = r.netlist.net_by_name("gnd").unwrap();
        let d = r.netlist.net_by_name("out").unwrap();
        let find = |t: &str| dev.terminals.iter().find(|(n, _)| n == t).unwrap().1;
        assert_eq!(find("G"), g);
        assert_eq!(find("S"), s);
        assert_eq!(find("D"), d);
        // Three distinct nets (no shorting through the channel!).
        assert_ne!(s, d);
        assert_ne!(g, s);
    }

    #[test]
    fn contact_joins_layers_into_one_net() {
        let (r, _) = extract(
            "DS 1; 9D CONTACT_D; 9T A NM 0 0; 9T B ND 0 0;
             L NC; B 500 500 0 0; L ND; B 1000 1000 0 0; L NM; B 1000 1000 0 0; DF;
             C 1 T 0 0;
             L NM; 9N up; W 750 0 0 4000 0;
             L ND; 9N down; W 500 0 0 -4000 0;
             E",
        );
        let up = r.netlist.net_by_name("up").unwrap();
        let down = r.netlist.net_by_name("down").unwrap();
        assert_eq!(up, down, "contact must join metal and diffusion nets");
    }

    #[test]
    fn labels_name_nets() {
        let (r, _) = extract("L NM; B 2000 750 1000 375; 9L VDD NM 1000 375; E");
        assert!(r.netlist.net_by_name("VDD").is_some());
        // The rail element's net carries the VDD alias.
        let vdd = r.netlist.net_by_name("VDD").unwrap();
        assert!(r.netlist.net(vdd).aliases.iter().any(|a| a == "VDD"));
        assert!(r.element_net[0] == Some(vdd));
    }

    #[test]
    fn hierarchical_dot_notation_nets() {
        let (r, _) = extract(
            "DS 1; L NM; 9N out; B 2000 750 1000 375; DF;
             C 1 T 0 0; C 1 T 10000 0; E",
        );
        assert!(r.netlist.net_by_name("i0.out").is_some());
        assert!(r.netlist.net_by_name("i1.out").is_some());
        assert_ne!(
            r.netlist.net_by_name("i0.out"),
            r.netlist.net_by_name("i1.out"),
            "instances must get distinct nets"
        );
    }

    #[test]
    fn transistor_internals_unnetted() {
        let (r, view) = extract(
            "DS 1; 9D NMOS_ENH; L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF; C 1; E",
        );
        for id in 0..view.elements.len() {
            assert!(r.element_net[id].is_none());
        }
    }

    #[test]
    fn node_keys_live_in_the_view_interner() {
        // The graph has no key table of its own: terminal keys and the
        // element nodes alike must resolve through the view's interner.
        let (_, view) = extract(
            "DS 1; 9D CONTACT_D; 9T A NM 0 0;
             L NC; B 500 500 0 0; L NM; B 1000 1000 0 0; DF;
             C 1 T 0 0; E",
        );
        assert!(
            view.strings.lookup("i0.#").is_some(),
            "joining-device key interned into the view table"
        );
    }
}
