//! Binding a parsed layout to a technology, and the instantiated chip view.
//!
//! Stages 3–6 of the pipeline work on *instantiated* elements — but unlike
//! a flat checker, every instantiated element keeps its topology: the
//! symbol it came from, the device instance it belongs to, its net key, and
//! its skeleton. "The information about what symbol the piece of geometry
//! came from is never lost."
//!
//! # The view's memory floor: interned strings, auto-key records, columnar elements
//!
//! The [`ChipView`] is the pipeline's one intentionally O(chip) artefact
//! (it *is* the chip), so its per-element cost is the resident-set floor
//! at million-element scale. Three storage decisions squeeze that floor
//! without changing a byte of rendered output:
//!
//! * **Interned strings.** The topology strings that are massively
//!   shared — instance `path`s (every element of an instance repeats
//!   its path), declared net keys, device types — are stored once in a
//!   [`StringInterner`]; elements and [`DeviceInstance`]s carry 4-byte
//!   [`Istr`] handles. Handles from one view compare equal iff the
//!   strings are equal; render them with [`ChipView::str`]. The walk
//!   interns an instance's path once per call, not once per element.
//!
//! * **Auto-key records.** An undeclared element's net identity is its
//!   instance path, layer, definition-local bounding box and duplicate
//!   ordinal — a fixed-width [`AutoKey`] record, hash-consed in the
//!   view's [`AutoKeys`] table, never a string. Element and net-graph
//!   node ids span both spaces through one tagged `u32`, the
//!   [`NetKey`]. The text `#path:layer:x1,y1,x2,y2` (plus `:n` for a
//!   duplicate's ordinal n > 0) exists only where someone reads it:
//!   [`ChipView::net_key_str`], and the net list's aliases, which
//!   [`crate::netgen::NetParts::assemble`] renders once per live key.
//!
//! * **Columnar elements.** Elements live in [`ElementColumns`] — a
//!   struct-of-arrays store with one dense, fixed-width column per
//!   field (`layer`, `bbox`, `net_key`, `path`, sentinel-encoded device
//!   / source indices) and the variable-length geometry (covered
//!   rectangles, skeleton rectangles) packed into two shared arenas
//!   addressed by `(offset, len)` ranges. An element's id is its
//!   position — the walk, the shard stitch, and the incremental
//!   session's run splicing all preserve position, so no id column is
//!   stored at all. Hot stages sweep the dense columns (the
//!   [`diic_geom::batch`] kernels); anything that wants one element's
//!   fields together borrows a zero-cost [`ElementRef`] view.
//!
//! The boxed record form, [`ChipElement`], remains as the staging and
//! materialisation type: the instantiation walk builds one per element
//! and [`ElementColumns::push`] scatters it into the columns;
//! [`ElementRef::to_element`] gathers one back out. Round-tripping
//! through the boxed form is lossless — the eighth differential-oracle
//! leg (`tests/differential.rs`) pins it on generated chips.

use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::{Item, LayerRef, Layout, Shape, SymbolId};
use diic_geom::skeleton::Skeleton;
use diic_geom::{Point, Rect, Region, Transform};
use diic_tech::{DeviceClass, LayerId, Technology};
use std::collections::HashMap;

/// A `u32`-keyed handle into a [`StringInterner`]: the interned form of
/// an element's `path` and declared net key and a [`DeviceInstance`]'s
/// `path` / `device_type`. Two handles from the **same** interner are
/// equal iff their strings are equal (the interner deduplicates), so
/// hot paths compare and hash 4-byte ids instead of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Istr(u32);

impl Istr {
    /// The raw index into the owning interner.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// An append-only hash-consing table: each distinct string is stored
/// exactly once and addressed by a stable [`Istr`] handle.
///
/// Lookup is by hash bucket with a full-string compare (no second copy
/// of the key inside a map), so unique strings cost one `Box<str>` plus
/// bucket bookkeeping, while
/// shared strings (instance paths, device types) collapse to one entry
/// however many elements reference them. Handles are never invalidated:
/// an edit session keeps one interner alive across applies and stale
/// strings simply stop being referenced.
#[derive(Debug, Clone, Default)]
pub struct StringInterner {
    strings: Vec<Box<str>>,
    /// String hash → first id with that hash. Full-`u64` collisions are
    /// vanishingly rare, so the common case costs one flat map entry
    /// per distinct string; the rare extra ids live in `overflow`.
    first: HashMap<u64, u32>,
    /// `(hash, id)` pairs beyond the first per hash — scanned only when
    /// the first id's string mismatches.
    overflow: Vec<(u64, u32)>,
    /// Current usage epoch (see [`StringInterner::advance_epoch`]).
    epoch: u32,
    /// Epoch each string was last interned in, parallel to `strings` —
    /// the liveness signal [`StringInterner::compact_stale`] retains by.
    last_used: Vec<u32>,
}

impl StringInterner {
    fn hash_of(s: &str) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// Interns a string, returning the stable handle of its single
    /// stored copy.
    pub fn intern(&mut self, s: &str) -> Istr {
        let id = match self.find_or_reserve(s) {
            Ok(id) => id,
            Err(id) => {
                self.strings.push(s.into());
                id
            }
        };
        self.touch(id);
        id
    }

    /// [`StringInterner::intern`] taking ownership — a miss moves the
    /// box into the table instead of re-allocating it (the shard-stitch
    /// path, where every shard's strings migrate into the merged view).
    pub fn intern_owned(&mut self, s: Box<str>) -> Istr {
        let id = match self.find_or_reserve(&s) {
            Ok(id) => id,
            Err(id) => {
                self.strings.push(s);
                id
            }
        };
        self.touch(id);
        id
    }

    /// Stamps a handle as used in the current epoch (growing the stamp
    /// column for a fresh push).
    fn touch(&mut self, id: Istr) {
        let i = id.0 as usize;
        if self.last_used.len() <= i {
            self.last_used.resize(i + 1, self.epoch);
        } else {
            self.last_used[i] = self.epoch;
        }
    }

    /// Below this many strings the table stays index-free (pure linear
    /// scan): the sharded instantiation walk creates one interner per
    /// top-level item, and a typical cell interns a couple of dozen
    /// strings — a hash map per shard would dominate the very memory
    /// the interner exists to save.
    const LINEAR_LIMIT: usize = 32;

    /// `Ok(existing)` on a hit; on a miss, records the next id in the
    /// hash tables and returns it as `Err` — the caller must push the
    /// string.
    fn find_or_reserve(&mut self, s: &str) -> Result<Istr, Istr> {
        if self.strings.len() < Self::LINEAR_LIMIT && self.first.is_empty() {
            for (i, t) in self.strings.iter().enumerate() {
                if &**t == s {
                    return Ok(Istr(i as u32));
                }
            }
            return Err(Istr(self.strings.len() as u32));
        }
        // Hash mode: index the linear backlog on first entry.
        if self.first.is_empty() {
            for i in 0..self.strings.len() as u32 {
                let h = Self::hash_of(&self.strings[i as usize]);
                match self.first.entry(h) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(i);
                    }
                    std::collections::hash_map::Entry::Occupied(_) => {
                        // Strings are distinct by construction, so an
                        // occupied slot is a true hash collision.
                        self.overflow.push((h, i));
                    }
                }
            }
        }
        let h = Self::hash_of(s);
        let id = self.strings.len() as u32;
        match self.first.entry(h) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = *e.get();
                if &*self.strings[first as usize] == s {
                    return Ok(Istr(first));
                }
                for &(oh, oid) in &self.overflow {
                    if oh == h && &*self.strings[oid as usize] == s {
                        return Ok(Istr(oid));
                    }
                }
                self.overflow.push((h, id));
            }
        }
        Err(Istr(id))
    }

    /// The string behind a handle.
    pub fn get(&self, id: Istr) -> &str {
        &self.strings[id.0 as usize]
    }

    /// The handle a string is already interned under, if any (read-only
    /// — [`StringInterner::intern`] to insert).
    pub fn lookup(&self, s: &str) -> Option<Istr> {
        if self.first.is_empty() {
            return self
                .strings
                .iter()
                .position(|t| &**t == s)
                .map(|i| Istr(i as u32));
        }
        let h = Self::hash_of(s);
        let first = *self.first.get(&h)?;
        if &*self.strings[first as usize] == s {
            return Some(Istr(first));
        }
        self.overflow
            .iter()
            .find(|&&(oh, oid)| oh == h && &*self.strings[oid as usize] == s)
            .map(|&(_, oid)| Istr(oid))
    }

    /// Number of distinct strings stored.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Reserves room for `n` more distinct strings.
    fn reserve(&mut self, n: usize) {
        self.strings.reserve(n);
        self.last_used.reserve(n);
        if self.strings.len() + n >= Self::LINEAR_LIMIT {
            self.first.reserve(n);
        }
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Heap bytes held by the stored strings themselves (the payload the
    /// e18 memory table compares against per-element `String` copies;
    /// excludes bucket bookkeeping).
    pub fn heap_bytes(&self) -> usize {
        self.strings.iter().map(|s| s.len()).sum()
    }

    /// Drains the stored strings (the shard-stitch path: a shard's
    /// distinct strings move into the merged view's table).
    pub(crate) fn take_strings(&mut self) -> Vec<Box<str>> {
        self.first.clear();
        self.overflow.clear();
        self.last_used.clear();
        std::mem::take(&mut self.strings)
    }

    /// The current usage epoch. Epochs segment interner traffic into
    /// generations: a long-lived session (one interner across many
    /// checked cells) advances the epoch at each cell boundary, every
    /// [`StringInterner::intern`] stamps its handle with the epoch it
    /// ran in, and [`StringInterner::compact_stale`] evicts strings
    /// whose last use fell out of the recent-epoch window.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Starts the next usage epoch (see [`StringInterner::epoch`]).
    pub fn advance_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Rebuilds the table keeping only the strings `keep` approves,
    /// renumbering the survivors densely **in their original order**,
    /// and returns the old-handle → new-handle map — `None` for evicted
    /// strings (the [`diic_geom::GridIndex::compact`] remap pattern).
    /// Any caller still holding handles must remap them; handles of
    /// evicted strings are dead.
    ///
    /// Epoch stamps survive compaction, so repeated
    /// [`StringInterner::compact_stale`] calls age strings correctly.
    pub fn compact<F>(&mut self, mut keep: F) -> Vec<Option<Istr>>
    where
        F: FnMut(Istr, &str) -> bool,
    {
        let old_strings = std::mem::take(&mut self.strings);
        let old_used = std::mem::take(&mut self.last_used);
        self.first.clear();
        self.overflow.clear();
        let mut map = vec![None; old_strings.len()];
        for (old_id, s) in old_strings.into_iter().enumerate() {
            if keep(Istr(old_id as u32), &s) {
                // invariant: the table was emptied above, so every kept
                // string is a miss and ids come out dense in old order.
                let id = self.intern_owned(s);
                self.last_used[id.0 as usize] = old_used[old_id];
                map[old_id] = Some(id);
            }
        }
        map
    }

    /// [`StringInterner::compact`] keeping strings used within the last
    /// `keep_epochs` epochs (0 = only the current epoch). The batch
    /// library driver fires this between cells once the table outgrows
    /// its budget: strings the recent cells actually re-interned (shared
    /// paths, net names, device types) survive as a warm dictionary,
    /// one-off keys from older cells are evicted.
    pub fn compact_stale(&mut self, keep_epochs: u32) -> Vec<Option<Istr>> {
        let cutoff = self.epoch.saturating_sub(keep_epochs);
        let used = self.last_used.clone();
        self.compact(|id, _| used[id.index() as usize] >= cutoff)
    }
}

/// An element's net identity, and a node of the net graph: either a
/// declared key interned in the view's [`StringInterner`] or an
/// undeclared element's record in the view's [`AutoKeys`] table.
///
/// One `u32` covers both spaces: the top bit tags an auto key, the low
/// 31 bits index the space. Net-graph nodes are these raw values
/// ([`NetKey::node`]), so graph rows stay plain integer pairs, and
/// every interned node orders before every auto node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetKey(u32);

impl NetKey {
    const AUTO: u32 = 1 << 31;

    /// The column value of an undeclared element the walk has recorded
    /// but [`assign_auto_net_keys`] has not keyed yet.
    const PENDING: NetKey = NetKey(u32::MAX);

    /// A declared key.
    pub fn named(s: Istr) -> NetKey {
        assert!(s.0 < Self::AUTO, "string table exceeds the net-key space");
        NetKey(s.0)
    }

    /// An auto key.
    pub(crate) fn auto(id: u32) -> NetKey {
        assert!(
            id < Self::AUTO - 1,
            "auto-key table exceeds the net-key space"
        );
        NetKey(id | Self::AUTO)
    }

    /// The interned string of a declared key.
    pub fn as_named(self) -> Option<Istr> {
        (self.0 & Self::AUTO == 0).then_some(Istr(self.0))
    }

    /// The [`AutoKeys`] index of an undeclared element's key.
    pub fn as_auto(self) -> Option<u32> {
        (self.0 & Self::AUTO != 0).then_some(self.0 & !Self::AUTO)
    }

    /// The net-graph node id (the raw tagged value).
    pub fn node(self) -> u32 {
        self.0
    }

    /// Rebuilds a key from a net-graph node id.
    pub(crate) fn from_node(node: u32) -> NetKey {
        NetKey(node)
    }
}

/// An undeclared element's net identity: instance path, layer,
/// definition-local bounding box, and the ordinal that tells exact
/// duplicates apart (0 for the first in element order).
///
/// The identity never depends on the element's position, so adding or
/// removing an element elsewhere renames nothing, and moving an
/// instance renames none of its internals (the box is local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AutoKey {
    /// Instance path, interned in the owning view.
    pub(crate) path: Istr,
    /// Technology layer.
    pub(crate) layer: LayerId,
    /// Duplicate ordinal.
    pub(crate) ordinal: u32,
    /// Bounding box in the defining symbol's coordinates.
    pub(crate) bbox: Rect,
}

impl AutoKey {
    /// FxHash-style mix of the fields (the table indexes by the high
    /// bits, which this multiply-rotate spreads well).
    fn mix(&self) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let words = [
            u64::from(self.path.0) | u64::from(self.layer.0) << 32,
            u64::from(self.ordinal),
            self.bbox.x1 as u64,
            self.bbox.y1 as u64,
            self.bbox.x2 as u64,
            self.bbox.y2 as u64,
        ];
        words
            .iter()
            .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(K))
    }
}

/// The hash-consed table of [`AutoKey`] records behind a view's auto
/// [`NetKey`]s: each distinct record is stored once, addressed by a
/// stable index. An edit session keeps the table across applies, so a
/// re-walked element with an unchanged identity finds its old record —
/// and its old net-graph node.
#[derive(Debug, Clone, Default)]
pub struct AutoKeys {
    records: Vec<AutoKey>,
    /// Open-addressing index: a power-of-two slot array of record ids
    /// (`u32::MAX` = empty), linear probing, at most half full.
    slots: Vec<u32>,
    /// Definition-local bboxes of the elements whose column holds
    /// [`NetKey::PENDING`], in element order — what the walk records
    /// for [`assign_auto_net_keys`] to key.
    pending: Vec<Rect>,
}

impl AutoKeys {
    const EMPTY: u32 = u32::MAX;

    /// Number of distinct records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no record is stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record behind an index.
    pub(crate) fn get(&self, id: u32) -> &AutoKey {
        &self.records[id as usize]
    }

    /// Heap bytes of the records and their index.
    pub fn heap_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<AutoKey>()
            + self.slots.len() * std::mem::size_of::<u32>()
    }

    /// The index of `key`'s stored record, adding it on a miss.
    pub(crate) fn intern(&mut self, key: AutoKey) -> u32 {
        if (self.records.len() + 1) * 2 > self.slots.len() {
            self.reindex((self.records.len() + 1) * 2);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(&key);
        loop {
            match self.slots[slot] {
                Self::EMPTY => {
                    // invariant: `EMPTY` is never an id.
                    let id = u32::try_from(self.records.len())
                        .ok()
                        .filter(|&id| id != Self::EMPTY)
                        .expect("auto-key table exceeds u32 ids");
                    self.records.push(key);
                    self.slots[slot] = id;
                    return id;
                }
                id if self.records[id as usize] == key => return id,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn home(&self, key: &AutoKey) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.mix() >> (64 - bits)) as usize
    }

    /// Rebuilds the index with room for `need` slots (rounded up to a
    /// power of two, at least 16).
    fn reindex(&mut self, need: usize) {
        self.slots = vec![Self::EMPTY; need.next_power_of_two().max(16)];
        let mask = self.slots.len() - 1;
        for (id, key) in self.records.iter().enumerate() {
            let mut slot = self.home(key);
            while self.slots[slot] != Self::EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    /// The record's text: `#path:layer:x1,y1,x2,y2`, plus `:n` for
    /// ordinal n > 0.
    pub(crate) fn render(&self, id: u32, strings: &StringInterner) -> String {
        let k = self.get(id);
        // The numeric tail `:layer:x1,y1,x2,y2[:n]`, written backwards
        // into a stack buffer: six fields of at most 20 characters and
        // a separator each. Rendering every live key is on the net-list
        // path, so this skips the formatting machinery.
        let mut buf = [0u8; 128];
        let mut at = buf.len();
        let mut put = |v: i64, sep: u8| {
            let mut u = v.unsigned_abs();
            loop {
                at -= 1;
                buf[at] = b'0' + (u % 10) as u8;
                u /= 10;
                if u == 0 {
                    break;
                }
            }
            if v < 0 {
                at -= 1;
                buf[at] = b'-';
            }
            at -= 1;
            buf[at] = sep;
        };
        if k.ordinal > 0 {
            put(i64::from(k.ordinal), b':');
        }
        put(k.bbox.y2, b',');
        put(k.bbox.x2, b',');
        put(k.bbox.y1, b',');
        put(k.bbox.x1, b':');
        put(i64::from(k.layer.0), b':');
        // invariant: the tail holds ASCII digits and separators only.
        let tail = std::str::from_utf8(&buf[at..]).expect("ASCII tail");
        let path = strings.get(k.path);
        // Sized exactly: the text lives on as a net-list alias.
        let mut s = String::with_capacity(1 + path.len() + tail.len());
        s.push('#');
        s.push_str(path);
        s.push_str(tail);
        s
    }

    /// Keeps the records `keep` approves, renumbered densely in their
    /// original order, with their paths remapped through an interner
    /// compaction map ([`StringInterner::compact`]); returns the old →
    /// new index map (`None` for evicted records). The caller must keep
    /// every surviving record's path alive in that compaction.
    pub(crate) fn compact(&mut self, keep: &[bool], paths: &[Option<Istr>]) -> Vec<Option<u32>> {
        debug_assert!(
            self.pending.is_empty(),
            "compaction between walk and keying"
        );
        let mut map = vec![None; self.records.len()];
        let mut kept = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        for (old, mut key) in self.records.drain(..).enumerate() {
            if keep[old] {
                // invariant: the caller kept every surviving path.
                key.path = paths[key.path.index() as usize].expect("live auto-key paths survive");
                map[old] = Some(kept.len() as u32);
                kept.push(key);
            }
        }
        self.records = kept;
        self.reindex(self.records.len() * 2);
        map
    }
}

/// Maps layout layer references to technology layers.
#[derive(Debug, Clone)]
pub struct LayerBinding {
    map: Vec<Option<LayerId>>,
}

impl LayerBinding {
    /// Builds the binding; unknown CIF layer names produce violations.
    pub fn bind(layout: &Layout, tech: &Technology) -> (LayerBinding, Vec<Violation>) {
        let mut map = Vec::with_capacity(layout.layer_names().len());
        let mut violations = Vec::new();
        for name in layout.layer_names() {
            let id = tech.layer_by_cif(name);
            if id.is_none() {
                violations.push(Violation {
                    stage: CheckStage::Elements,
                    kind: ViolationKind::UnknownLayer {
                        cif_name: name.clone(),
                    },
                    location: None,
                    context: String::new(),
                });
            }
            map.push(id);
        }
        (LayerBinding { map }, violations)
    }

    /// Resolves a layout layer reference.
    pub fn layer(&self, r: LayerRef) -> Option<LayerId> {
        self.map.get(r.0 as usize).copied().flatten()
    }
}

/// An instantiated element in boxed record form — the staging type the
/// instantiation walk builds and the materialisation type
/// [`ElementRef::to_element`] gathers back out of the columns. The
/// pipeline's resident storage is [`ElementColumns`]; this struct
/// exists at the edges (construction, diagnostics, differential tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipElement {
    /// Index in [`ChipView::elements`] (equal to the element's column
    /// position — ids are implicit in the columnar store).
    pub id: usize,
    /// Technology layer.
    pub layer: LayerId,
    /// Exact covered rectangles in chip coordinates (boxes, Manhattan
    /// wires, rectilinear polygons).
    pub rects: Vec<Rect>,
    /// Bounding box in chip coordinates.
    pub bbox: Rect,
    /// Skeleton for connectivity checking (`None` when the element is
    /// under-width — already a width violation).
    pub skeleton: Option<Skeleton>,
    /// Net key: the declared net qualified by instance path, or an
    /// auto key. Resolves in the owning view — render with
    /// [`ChipView::net_key_str`].
    pub net_key: NetKey,
    /// Instance path of the enclosing scope, interned in the owning view
    /// (the big sharing win: every element of an instance repeats it).
    pub path: Istr,
    /// Index into [`ChipView::devices`] if the element lives inside a
    /// device symbol instance.
    pub device: Option<usize>,
    /// The symbol definition the element came from (None = top level).
    pub source: Option<SymbolId>,
}

impl ChipElement {
    /// True if the net was declared via `9N` (vs auto-generated).
    pub fn net_declared(&self) -> bool {
        self.net_key.as_named().is_some()
    }
}

/// Sentinel for "no device" / "no source" in the fixed-width columns
/// (a `u32` index column beats `Vec<Option<usize>>` by 12 bytes per
/// element and keeps the column densely comparable).
const NONE_U32: u32 = u32::MAX;

/// Struct-of-arrays storage for the instantiated elements.
///
/// One dense, fixed-width column per element field, with the
/// variable-length geometry packed into two shared arenas:
///
/// ```text
/// layer        Vec<LayerId>      2 B   dense column
/// bbox         Vec<Rect>        32 B   dense column (the hot sweep)
/// net_key      Vec<NetKey>       4 B   interner handle or auto-key index
/// path         Vec<Istr>         4 B   interner handle
/// device       Vec<u32>          4 B   u32::MAX = none
/// source       Vec<u32>          4 B   SymbolId index, u32::MAX = none
/// rect_range   Vec<(u32, u32)>   8 B   (offset, len) into `rects`
/// skel_range   Vec<(u32, u32)>   8 B   (offset, len) into `skel`; len 0 = no skeleton
/// rects        Vec<Rect>               shared arena, chip coordinates
/// skel         Vec<Rect>               shared arena, scaled skeleton grid
/// ```
///
/// An element's **id is its position** — every producer preserves
/// position (the serial walk appends, the shard stitch concatenates in
/// item order, the incremental session splices whole per-item runs), so
/// no id column is stored. `len == 0` skeleton ranges encode "no
/// skeleton" exactly (no constructor produces an empty skeleton —
/// [`Skeleton::from_scaled_rects`] returns `None` for an empty run).
///
/// Hot consumers iterate the columns directly ([`ElementColumns::bboxes`]
/// with the [`diic_geom::batch`] kernels); per-element field access goes
/// through the borrowed [`ElementRef`] view, which renders reports
/// byte-identically to the old boxed storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElementColumns {
    layer: Vec<LayerId>,
    bbox: Vec<Rect>,
    net_key: Vec<NetKey>,
    path: Vec<Istr>,
    device: Vec<u32>,
    source: Vec<u32>,
    rect_range: Vec<(u32, u32)>,
    skel_range: Vec<(u32, u32)>,
    rects: Vec<Rect>,
    skel: Vec<Rect>,
}

impl ElementColumns {
    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.bbox.len()
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.bbox.is_empty()
    }

    /// Borrowed view of one element's fields. Panics if `id` is out of
    /// bounds.
    pub fn get(&self, id: usize) -> ElementRef<'_> {
        assert!(id < self.len(), "element id {id} out of bounds");
        ElementRef { cols: self, id }
    }

    /// Iterates the elements as [`ElementRef`] views, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ElementRef<'_>> + Clone {
        (0..self.len()).map(move |id| ElementRef { cols: self, id })
    }

    /// The dense bounding-box column — the sweep surface for grid
    /// insertion, tile filtering ([`diic_geom::batch::touching_in_run`])
    /// and halo probes.
    pub fn bboxes(&self) -> &[Rect] {
        &self.bbox
    }

    /// The dense layer column.
    pub fn layers(&self) -> &[LayerId] {
        &self.layer
    }

    /// The dense net-key column.
    pub fn net_keys(&self) -> &[NetKey] {
        &self.net_key
    }

    /// The dense path column (interner handles).
    pub fn paths(&self) -> &[Istr] {
        &self.path
    }

    /// Remaps the `net_key` / `path` columns through an interner
    /// compaction map ([`StringInterner::compact`]) and an auto-key
    /// compaction map ([`AutoKeys::compact`]). The caller must have
    /// built both keep sets from these very columns, so every stored
    /// handle survives.
    pub(crate) fn remap_keys(&mut self, strings: &[Option<Istr>], autos: &[Option<u32>]) {
        for k in &mut self.net_key {
            *k = remap_key(*k, strings, autos);
        }
        for p in &mut self.path {
            // invariant: column handles are in the compaction keep set.
            *p = strings[p.index() as usize].expect("live column handles survive compaction");
        }
    }

    /// One element's covered rectangles (a contiguous arena run).
    pub fn rects_of(&self, id: usize) -> &[Rect] {
        let (off, len) = self.rect_range[id];
        &self.rects[off as usize..off as usize + len as usize]
    }

    /// One element's skeleton rectangles in the scaled grid (empty =
    /// no skeleton; see [`Skeleton::scaled_rects`]).
    pub fn skeleton_of(&self, id: usize) -> &[Rect] {
        let (off, len) = self.skel_range[id];
        &self.skel[off as usize..off as usize + len as usize]
    }

    /// Total rectangles across both shared arenas (footprint
    /// accounting for the e18 memory table).
    pub fn arena_rects(&self) -> (usize, usize) {
        (self.rects.len(), self.skel.len())
    }

    /// Payload bytes of the columnar store: every dense column plus the
    /// two arenas (excludes `Vec` growth slack — this is the number the
    /// e18 table compares against the boxed layout's bytes/element).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.layer.len() * size_of::<LayerId>()
            + self.bbox.len() * size_of::<Rect>()
            + self.net_key.len() * size_of::<NetKey>()
            + self.path.len() * size_of::<Istr>()
            + self.device.len() * size_of::<u32>()
            + self.source.len() * size_of::<u32>()
            + self.rect_range.len() * size_of::<(u32, u32)>()
            + self.skel_range.len() * size_of::<(u32, u32)>()
            + self.rects.len() * size_of::<Rect>()
            + self.skel.len() * size_of::<Rect>()
    }

    /// Appends one element, scattering the boxed record into the
    /// columns. The record's `id` must equal the current length — ids
    /// are positions.
    pub fn push(&mut self, el: ChipElement) {
        debug_assert_eq!(el.id, self.len(), "element ids are column positions");
        self.layer.push(el.layer);
        self.bbox.push(el.bbox);
        self.net_key.push(el.net_key);
        self.path.push(el.path);
        self.device.push(el.device.map_or(NONE_U32, |d| d as u32));
        self.source.push(el.source.map_or(NONE_U32, |s| s.0));
        let r0 = self.rects.len() as u32;
        self.rects.extend_from_slice(&el.rects);
        self.rect_range.push((r0, el.rects.len() as u32));
        let s0 = self.skel.len() as u32;
        let mut s_len = 0u32;
        if let Some(sk) = el.skeleton {
            let scaled = sk.into_scaled_rects();
            s_len = scaled.len() as u32;
            self.skel.extend(scaled);
        }
        self.skel_range.push((s0, s_len));
    }

    /// Builds columns from boxed records in order (ids must be
    /// positions). The inverse of [`ElementColumns::to_elements`].
    pub fn from_elements(elements: impl IntoIterator<Item = ChipElement>) -> ElementColumns {
        let mut cols = ElementColumns::default();
        for el in elements {
            cols.push(el);
        }
        cols
    }

    /// Materialises every element back into boxed record form — the
    /// differential oracle's round-trip surface; not used by the
    /// pipeline itself.
    pub fn to_elements(&self) -> Vec<ChipElement> {
        self.iter().map(|e| e.to_element()).collect()
    }

    /// Reserves exactly enough room to append `shards`: grown by
    /// doubling instead, each column and arena would hold up to half
    /// its capacity as slack for the rest of the check.
    fn reserve_for(&mut self, shards: &[ChipView]) {
        let total = |f: fn(&ElementColumns) -> usize| -> usize {
            shards.iter().map(|s| f(&s.elements)).sum()
        };
        let (n, rects, skel) = (
            total(ElementColumns::len),
            total(|c| c.rects.len()),
            total(|c| c.skel.len()),
        );
        self.layer.reserve_exact(n);
        self.bbox.reserve_exact(n);
        self.net_key.reserve_exact(n);
        self.path.reserve_exact(n);
        self.device.reserve_exact(n);
        self.source.reserve_exact(n);
        self.rect_range.reserve_exact(n);
        self.skel_range.reserve_exact(n);
        self.rects.reserve_exact(rects);
        self.skel.reserve_exact(skel);
    }

    /// Appends a whole shard's columns, offsetting device indices by
    /// `d_off` and remapping interner handles through `remap` — the
    /// sharded-instantiation stitch, one column `extend` at a time
    /// instead of one push per element.
    pub(crate) fn append_remapped(&mut self, shard: ElementColumns, d_off: usize, remap: &[Istr]) {
        self.layer.extend_from_slice(&shard.layer);
        self.bbox.extend_from_slice(&shard.bbox);
        self.net_key.extend(shard.net_key.iter().map(|&k| {
            k.as_named()
                .map_or(k, |s| NetKey::named(remap[s.0 as usize]))
        }));
        self.path
            .extend(shard.path.iter().map(|p| remap[p.0 as usize]));
        self.device.extend(shard.device.iter().map(|&d| {
            if d == NONE_U32 {
                NONE_U32
            } else {
                d + d_off as u32
            }
        }));
        self.source.extend_from_slice(&shard.source);
        let r0 = self.rects.len() as u32;
        self.rects.extend_from_slice(&shard.rects);
        self.rect_range
            .extend(shard.rect_range.iter().map(|&(o, l)| (o + r0, l)));
        let s0 = self.skel.len() as u32;
        self.skel.extend_from_slice(&shard.skel);
        self.skel_range
            .extend(shard.skel_range.iter().map(|&(o, l)| (o + s0, l)));
    }

    /// Copies a contiguous run of elements from `other` (the incremental
    /// session's view patch: untouched per-item runs splice across by
    /// column copy, with ids renumbering implicitly to their new
    /// positions). Device indices shift by `device_delta`; arena runs
    /// re-pack contiguously.
    pub(crate) fn append_run_from(
        &mut self,
        other: &ElementColumns,
        range: std::ops::Range<usize>,
        device_delta: i64,
    ) {
        self.layer.extend_from_slice(&other.layer[range.clone()]);
        self.bbox.extend_from_slice(&other.bbox[range.clone()]);
        self.net_key
            .extend_from_slice(&other.net_key[range.clone()]);
        self.path.extend_from_slice(&other.path[range.clone()]);
        self.device
            .extend(other.device[range.clone()].iter().map(|&d| {
                if d == NONE_U32 {
                    NONE_U32
                } else {
                    (d as i64 + device_delta) as u32
                }
            }));
        self.source.extend_from_slice(&other.source[range.clone()]);
        for i in range {
            let r0 = self.rects.len() as u32;
            let run = other.rects_of(i);
            self.rects.extend_from_slice(run);
            self.rect_range.push((r0, run.len() as u32));
            let s0 = self.skel.len() as u32;
            let srun = other.skeleton_of(i);
            self.skel.extend_from_slice(srun);
            self.skel_range.push((s0, srun.len() as u32));
        }
    }
}

impl<'a> IntoIterator for &'a ElementColumns {
    type Item = ElementRef<'a>;
    type IntoIter =
        std::iter::Map<std::ops::Range<usize>, Box<dyn FnMut(usize) -> ElementRef<'a> + 'a>>;

    fn into_iter(self) -> Self::IntoIter {
        (0..self.len()).map(Box::new(move |id| ElementRef { cols: self, id }))
    }
}

/// A borrowed view of one element inside [`ElementColumns`] — two words
/// (columns pointer + id), `Copy`, with accessor methods named after
/// the old struct fields so call sites read the same.
#[derive(Clone, Copy)]
pub struct ElementRef<'a> {
    cols: &'a ElementColumns,
    id: usize,
}

impl<'a> ElementRef<'a> {
    /// The element's id (its column position).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Technology layer.
    pub fn layer(&self) -> LayerId {
        self.cols.layer[self.id]
    }

    /// Bounding box in chip coordinates.
    pub fn bbox(&self) -> Rect {
        self.cols.bbox[self.id]
    }

    /// Covered rectangles (a contiguous arena run).
    pub fn rects(&self) -> &'a [Rect] {
        self.cols.rects_of(self.id)
    }

    /// Skeleton rectangles in the scaled grid; empty means the element
    /// is under-width and has no skeleton. Feed pairs of these runs to
    /// [`diic_geom::batch::any_overlap`] for the legal-connection test.
    pub fn skeleton(&self) -> &'a [Rect] {
        self.cols.skeleton_of(self.id)
    }

    /// True if the element has a skeleton (is at least minimum width).
    pub fn has_skeleton(&self) -> bool {
        !self.skeleton().is_empty()
    }

    /// Net key (render with [`ChipView::net_key_str`]).
    pub fn net_key(&self) -> NetKey {
        self.cols.net_key[self.id]
    }

    /// True if the net was declared via `9N` (vs auto-generated).
    pub fn net_declared(&self) -> bool {
        self.net_key().as_named().is_some()
    }

    /// Interned instance path.
    pub fn path(&self) -> Istr {
        self.cols.path[self.id]
    }

    /// Index into [`ChipView::devices`] if the element lives inside a
    /// device symbol instance.
    pub fn device(&self) -> Option<usize> {
        let d = self.cols.device[self.id];
        (d != NONE_U32).then_some(d as usize)
    }

    /// The symbol definition the element came from (None = top level).
    pub fn source(&self) -> Option<SymbolId> {
        let s = self.cols.source[self.id];
        (s != NONE_U32).then_some(SymbolId(s))
    }

    /// Gathers the element back into boxed record form.
    pub fn to_element(&self) -> ChipElement {
        ChipElement {
            id: self.id,
            layer: self.layer(),
            rects: self.rects().to_vec(),
            bbox: self.bbox(),
            skeleton: Skeleton::from_scaled_rects(self.skeleton().to_vec()),
            net_key: self.net_key(),
            path: self.path(),
            device: self.device(),
            source: self.source(),
        }
    }
}

impl std::fmt::Debug for ElementRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementRef")
            .field("id", &self.id)
            .field("layer", &self.layer())
            .field("bbox", &self.bbox())
            .finish_non_exhaustive()
    }
}

/// An instantiated device (one per call of a device symbol).
#[derive(Debug, Clone)]
pub struct DeviceInstance {
    /// Instance path (dot notation), interned in the owning view.
    pub path: Istr,
    /// The device symbol.
    pub symbol: SymbolId,
    /// Declared `9D` type, interned in the owning view (one entry per
    /// distinct type however many instances share it).
    pub device_type: Istr,
    /// Archetype class if the technology knows the type.
    pub class: Option<DeviceClass>,
    /// Immunity flag (`9C`).
    pub checked: bool,
    /// Terminals in chip coordinates.
    pub terminals: Vec<(String, LayerId, Point)>,
    /// Ids of this instance's elements in [`ChipView::elements`].
    pub element_ids: Vec<usize>,
    /// Placement transform (chip ← symbol).
    pub transform: Transform,
}

/// The instantiated chip: all elements and device instances, topology
/// intact.
#[derive(Debug, Clone, Default)]
pub struct ChipView {
    /// All instantiated elements, in columnar storage.
    pub elements: ElementColumns,
    /// All device instances.
    pub devices: Vec<DeviceInstance>,
    /// Violations discovered during instantiation (unknown layers on
    /// terminals, non-rectilinear polygons treated as bboxes, …).
    pub violations: Vec<Violation>,
    /// The interner behind every [`Istr`] in `elements`, `devices` and
    /// `auto_keys` — and, once the netgen stage has run, behind the net
    /// graph's interned node keys too (one table end to end; see
    /// [`crate::netgen::NetParts`]).
    pub strings: StringInterner,
    /// The records behind every auto [`NetKey`].
    pub auto_keys: AutoKeys,
}

impl ChipView {
    /// Renders an interned string of this view.
    pub fn str(&self, s: Istr) -> &str {
        self.strings.get(s)
    }

    /// Renders a net key of this view: a declared key borrows its
    /// interned string, an auto key formats its record as
    /// `#path:layer:x1,y1,x2,y2`, plus `:n` for a duplicate's ordinal
    /// n > 0.
    pub fn net_key_str(&self, k: NetKey) -> std::borrow::Cow<'_, str> {
        match k.as_named() {
            Some(s) => self.str(s).into(),
            // invariant: a key is either named or auto.
            None => {
                let id = k.as_auto().expect("unnamed keys are auto");
                self.auto_keys.render(id, &self.strings).into()
            }
        }
    }

    /// Borrowed view of one element (see [`ElementColumns::get`]).
    pub fn element(&self, id: usize) -> ElementRef<'_> {
        self.elements.get(id)
    }
}

/// A net key through interner and auto-key compaction maps (both keep
/// sets must hold the key).
pub(crate) fn remap_key(k: NetKey, strings: &[Option<Istr>], autos: &[Option<u32>]) -> NetKey {
    // invariant: callers build the keep sets from every live key.
    match k.as_named() {
        Some(s) => NetKey::named(strings[s.index() as usize].expect("live net keys survive")),
        None => NetKey::auto(
            autos[k.as_auto().expect("unnamed keys are auto") as usize]
                .expect("live auto keys survive"),
        ),
    }
}

/// Instantiates the layout against a technology.
///
/// Elements on unknown layers are skipped (the binding already reported
/// them). Device symbols instantiate a [`DeviceInstance`] per call;
/// elements inside them are tagged with it. Serial —
/// [`instantiate_parallel`] with one worker.
pub fn instantiate(layout: &Layout, tech: &Technology, binding: &LayerBinding) -> ChipView {
    instantiate_parallel(layout, tech, binding, 1)
}

/// [`instantiate`] with the per-top-item shard walks spread across
/// `workers` scoped threads — the sharded front end that lets
/// [`ChipView`] construction parallelise like the rest of the pipeline.
///
/// Each top-level item is one shard job: a pure walk of that item into
/// a private [`ChipView`] with shard-local ids. The shards are stitched
/// in item order by concatenating their columns — which renumbers
/// element positions (= ids) exactly as a serial walk would — while
/// offsetting device indices and the device → element back-references,
/// so any worker count yields a byte-identical view. Auto net keys are
/// assigned over the stitched columns (they are global: duplicate
/// ordinals may span shards).
pub fn instantiate_parallel(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    workers: usize,
) -> ChipView {
    instantiate_parallel_seeded(layout, tech, binding, workers, StringInterner::default())
}

/// [`instantiate_parallel`] with the view's string table **seeded** from
/// an existing interner — the library batch driver's warm-dictionary
/// path: a worker's session interner (carrying the shared paths, net
/// names, and device types of the cells it already checked) becomes the
/// base table, so repeated strings re-intern into existing entries
/// instead of re-allocating per cell. Handle *values* then differ from a
/// cold run, which is invisible in rendered output: violations carry
/// resolved strings and the net-list assembly canonicalises purely by
/// key strings ([`crate::netgen`]).
pub(crate) fn instantiate_parallel_seeded(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    workers: usize,
    seed: StringInterner,
) -> ChipView {
    let (mut view, _) = instantiate_sharded_seeded(layout, tech, binding, workers, seed);
    assign_auto_net_keys(&mut view, None);
    view
}

/// The sharded walk behind [`instantiate_parallel`]: builds the view
/// one top-level item at a time on the worker pool and returns, along
/// with the stitched view, the per-item `(elements, devices)` run
/// lengths — the unit of reuse the incremental session's view patching
/// is built on. Auto net keys are **not** assigned here.
pub(crate) fn instantiate_sharded(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    workers: usize,
) -> (ChipView, Vec<(usize, usize)>) {
    instantiate_sharded_seeded(layout, tech, binding, workers, StringInterner::default())
}

/// [`instantiate_sharded`] stitching into a **seeded** string table
/// (see [`instantiate_parallel_seeded`]).
pub(crate) fn instantiate_sharded_seeded(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    workers: usize,
    seed: StringInterner,
) -> (ChipView, Vec<(usize, usize)>) {
    let items = layout.top_items();
    let shards: Vec<ChipView> = crate::parallel::run_ordered(items.len(), workers, |k| {
        let mut shard = ChipView::default();
        instantiate_item(layout, tech, binding, &items[k], &mut shard);
        shard
    });
    let mut view = ChipView {
        strings: seed,
        ..ChipView::default()
    };
    let mut runs = Vec::with_capacity(shards.len());
    view.elements.reserve_for(&shards);
    view.strings
        .reserve(shards.iter().map(|s| s.strings.len()).sum());
    view.devices
        .reserve_exact(shards.iter().map(|s| s.devices.len()).sum());
    view.auto_keys
        .pending
        .reserve_exact(shards.iter().map(|s| s.auto_keys.pending.len()).sum());
    for mut shard in shards {
        let (e_off, d_off) = (view.elements.len(), view.devices.len());
        runs.push((shard.elements.len(), shard.devices.len()));
        view.violations.append(&mut shard.violations);
        // Each shard interned into a private table; its distinct
        // strings **move** into the stitched view's table (no string is
        // re-allocated — only duplicates already present are dropped)
        // and the handles are remapped. The stitch is sequential in
        // item order, so the merged numbering — like everything else
        // here — is independent of the worker count. Auto keys are
        // still pending: their local bboxes concatenate in element
        // order, unhashed.
        let remap: Vec<Istr> = shard
            .strings
            .take_strings()
            .into_iter()
            .map(|s| view.strings.intern_owned(s))
            .collect();
        view.elements.append_remapped(shard.elements, d_off, &remap);
        view.auto_keys.pending.append(&mut shard.auto_keys.pending);
        for mut dv in shard.devices {
            for id in &mut dv.element_ids {
                *id += e_off;
            }
            dv.path = remap[dv.path.0 as usize];
            dv.device_type = remap[dv.device_type.0 as usize];
            view.devices.push(dv);
        }
    }
    (view, runs)
}

/// Instantiates a single top-level item, appending its elements and
/// device instances to `view` (a shard job, and the incremental
/// checker's entry point for regenerating one dirty item's run). Auto
/// net keys are **not** assigned here — run [`assign_auto_net_keys`]
/// over the assembled view afterwards.
pub(crate) fn instantiate_item(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    item: &Item,
    view: &mut ChipView,
) {
    let top = Scope {
        path: "",
        t: Transform::IDENTITY,
        device: None,
        source: None,
    };
    match item {
        Item::Element(e) => {
            let path = view.strings.intern("");
            walk_element(tech, binding, e, &top, path, view);
        }
        Item::Call(c) => walk_call(layout, tech, binding, c, &top, view),
    }
}

/// Keys the auto (undeclared) net keys over the finished element
/// columns and returns the ids of previously keyed elements whose key
/// changed.
///
/// An undeclared element's key is its [`AutoKey`] identity: instance
/// path, layer, definition-local bounding box, and an ordinal that
/// counts earlier exact duplicates in element order. The walk left
/// [`NetKey::PENDING`] in the column and the local bbox in
/// `view.auto_keys`; this pass hash-conses each identity into the
/// view's [`AutoKeys`] table. It never looks at text.
///
/// `changed` (when given) marks the elements whose identity may have
/// changed since keys were last assigned — only identity groups with a
/// changed member are re-derived, so an edit session pays for the edit,
/// not for the chip. The mask must cover every pending element and
/// every element sharing a (chip) bounding box with changed or removed
/// geometry: duplicate ordinals shift only within one identity group,
/// and duplicates by definition share path, layer, and bbox.
pub(crate) fn assign_auto_net_keys(view: &mut ChipView, changed: Option<&[bool]>) -> Vec<usize> {
    use std::collections::HashSet;
    let ChipView {
        elements,
        auto_keys,
        ..
    } = view;
    let pending = std::mem::take(&mut auto_keys.pending);
    if auto_keys.is_empty() {
        // A fresh view keys every undeclared element: size the table
        // once (duplicates aside, one record each).
        auto_keys.records.reserve_exact(pending.len());
        auto_keys.reindex(pending.len() * 2);
    }
    // Pre-filter: the (layer, chip bbox) cells of changed undeclared
    // elements — a superset of the affected identity groups (exact
    // grouping is by record below; a spurious match just re-derives
    // an unchanged key). A column sweep: layer/bbox/key reads only.
    let hot: Option<HashSet<(LayerId, Rect)>> = changed.map(|mask| {
        (0..elements.len())
            .filter(|&id| mask[id] && elements.net_key[id].as_auto().is_some())
            .map(|id| (elements.layer[id], elements.bbox[id]))
            .collect()
    });
    if hot.as_ref().is_some_and(|h| h.is_empty()) {
        debug_assert!(pending.is_empty(), "pending elements are changed");
        return Vec::new();
    }
    // First occurrence of each ordinal-0 record in this pass; the rare
    // later duplicates count on in `dups`.
    let mut seen: Vec<u64> = Vec::new();
    let mut dups: HashMap<u32, u32> = HashMap::new();
    let mut pending = pending.into_iter();
    let mut rekeyed = Vec::new();
    for id in 0..elements.len() {
        let current = elements.net_key[id];
        let bbox = if current == NetKey::PENDING {
            // invariant: the walk records one bbox per pending element.
            pending.next().expect("a local bbox per pending element")
        } else {
            let Some(auto) = current.as_auto() else {
                continue;
            };
            if let Some(h) = &hot {
                if !h.contains(&(elements.layer[id], elements.bbox[id])) {
                    continue;
                }
            }
            auto_keys.get(auto).bbox
        };
        let mut key = AutoKey {
            path: elements.path[id],
            layer: elements.layer[id],
            ordinal: 0,
            bbox,
        };
        let base = auto_keys.intern(key);
        let (w, bit) = (base as usize / 64, 1u64 << (base % 64));
        if w >= seen.len() {
            seen.resize(w + 1, 0);
        }
        let auto = if seen[w] & bit == 0 {
            seen[w] |= bit;
            base
        } else {
            let n = dups.entry(base).or_insert(1);
            key.ordinal = *n;
            *n += 1;
            auto_keys.intern(key)
        };
        let key = NetKey::auto(auto);
        if key != current {
            if current != NetKey::PENDING {
                rekeyed.push(id);
            }
            elements.net_key[id] = key;
        }
    }
    debug_assert!(pending.next().is_none(), "every pending element keyed");
    rekeyed
}

/// `path.name` — a declared or terminal net key — allocated at its
/// exact length, so moving it into the interner as a `Box<str>` does not
/// reallocate it.
pub(crate) fn dotted(path: &str, name: &str) -> String {
    let mut key = String::with_capacity(path.len() + 1 + name.len());
    key.push_str(path);
    key.push('.');
    key.push_str(name);
    key
}

/// Where the walk is: the enclosing instance path, the chip ← local
/// transform, and the device / symbol the elements belong to.
struct Scope<'a> {
    path: &'a str,
    t: Transform,
    device: Option<usize>,
    source: Option<SymbolId>,
}

/// Instantiates one element in `scope`, whose path is interned as
/// `path`.
fn walk_element(
    tech: &Technology,
    binding: &LayerBinding,
    e: &diic_cif::Element,
    scope: &Scope<'_>,
    path: Istr,
    view: &mut ChipView,
) {
    let Some(layer) = binding.layer(e.layer) else {
        return; // unknown layer, already reported
    };
    let shape = e.shape.transformed(&scope.t);
    let rects: Vec<Rect> = match &shape {
        Shape::Box(r) => vec![*r],
        Shape::Wire(w) => w.to_rects(),
        Shape::Polygon(p) => match p.to_rects() {
            Ok(rs) => rs,
            Err(_) => vec![p.bbox()], // non-rectilinear: bbox cover
        },
    };
    let bbox = shape.bbox();
    let half = tech.layer(layer).half_min_width();
    let skeleton = match &shape {
        Shape::Box(r) => Skeleton::of_rect(r, half),
        Shape::Wire(w) => Skeleton::of_wire(w, half),
        Shape::Polygon(_) => Skeleton::of_region(&Region::from_rects(rects.iter().copied()), half),
    };
    let id = view.elements.len();
    let net_key = match &e.net {
        Some(n) if scope.path.is_empty() => NetKey::named(view.strings.intern(n)),
        Some(n) => NetKey::named(view.strings.intern_owned(dotted(scope.path, n).into())),
        None => {
            // The identity's box is *local* (definition) coordinates:
            // stable under instance moves, so dragging a call does not
            // rename its internal nets. `assign_auto_net_keys` keys it
            // once the element list is complete.
            view.auto_keys.pending.push(e.shape.bbox());
            NetKey::PENDING
        }
    };
    view.elements.push(ChipElement {
        id,
        layer,
        rects,
        bbox,
        skeleton,
        net_key,
        path,
        device: scope.device,
        source: scope.source,
    });
    if let Some(d) = scope.device {
        view.devices[d].element_ids.push(id);
    }
}

/// Instantiates a call made from `scope`: its device instance (if the
/// symbol declares one) and every item of the called symbol.
fn walk_call(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    c: &diic_cif::Call,
    scope: &Scope<'_>,
    view: &mut ChipView,
) {
    let sym = layout.symbol(c.target);
    let child_path = if scope.path.is_empty() {
        c.name.clone()
    } else {
        format!("{}.{}", scope.path, c.name)
    };
    let child_t = scope.t.after(&c.transform);
    // The child path is interned once per call, on first use.
    let mut path_id: Option<Istr> = None;
    let child_device = if let Some(decl) = &sym.device {
        // A nested device inside a device keeps the outermost
        // instance (the paper's primitive symbols contain only
        // geometry; nesting is reported by primitive checks).
        if scope.device.is_some() {
            scope.device
        } else {
            let idx = view.devices.len();
            let terminals = decl
                .terminals
                .iter()
                .filter_map(|term| {
                    let layer = binding.layer(term.layer)?;
                    Some((term.name.clone(), layer, child_t.apply_point(term.position)))
                })
                .collect();
            let path = *path_id.get_or_insert_with(|| view.strings.intern(&child_path));
            view.devices.push(DeviceInstance {
                path,
                symbol: c.target,
                device_type: view.strings.intern(&decl.device_type),
                class: tech.device(&decl.device_type).map(|a| a.class),
                checked: decl.checked,
                terminals,
                element_ids: Vec::new(),
                transform: child_t,
            });
            Some(idx)
        }
    } else {
        scope.device
    };
    let child = Scope {
        path: &child_path,
        t: child_t,
        device: child_device,
        source: Some(c.target),
    };
    for item in &sym.items {
        match item {
            Item::Element(e) => {
                let path = *path_id.get_or_insert_with(|| view.strings.intern(&child_path));
                walk_element(tech, binding, e, &child, path, view);
            }
            Item::Call(cc) => walk_call(layout, tech, binding, cc, &child, view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn view_of(cif: &str) -> (ChipView, Vec<Violation>) {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, v) = LayerBinding::bind(&layout, &tech);
        (instantiate(&layout, &tech, &binding), v)
    }

    #[test]
    fn unknown_layer_reported_and_skipped() {
        let (view, v) = view_of("L XX; B 500 500 0 0; E");
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].kind, ViolationKind::UnknownLayer { .. }));
        assert!(view.elements.is_empty());
    }

    #[test]
    fn elements_get_nets_and_skeletons() {
        let (view, v) = view_of("L NM; 9N VDD; B 1000 750 0 0; B 100 100 5000 5000; E");
        assert!(v.is_empty());
        assert_eq!(view.elements.len(), 2);
        let rail = view.elements.get(0);
        assert_eq!(view.net_key_str(rail.net_key()), "VDD");
        assert!(rail.net_declared());
        assert!(rail.has_skeleton());
        let tiny = view.elements.get(1);
        assert!(!tiny.net_declared());
        assert!(!tiny.has_skeleton()); // under metal min width 750
    }

    #[test]
    fn exact_duplicates_get_ordinal_suffixes() {
        // Three identical undeclared boxes in one instance share path,
        // layer and local bbox: the first keeps the bare key, the later
        // ones count up in element order. A fourth box elsewhere in the
        // instance and a declared box stay out of the group.
        let cif = "
        DS 1; L NM; B 1000 1000 0 0; B 1000 1000 0 0; 9N out; B 1000 1000 0 0;
        B 1000 1000 0 0; B 1000 750 3000 0; DF;
        C 1 T 500 500; E";
        let (view, _) = view_of(cif);
        let keys: Vec<String> = view
            .elements
            .iter()
            .map(|e| view.net_key_str(e.net_key()).into_owned())
            .collect();
        assert_eq!(
            keys,
            [
                "#i0:3:-500,-500,500,500",
                "#i0:3:-500,-500,500,500:1",
                "i0.out",
                "#i0:3:-500,-500,500,500:2",
                "#i0:3:2500,-375,3500,375",
            ]
        );
        assert_eq!(view.auto_keys.len(), 4, "one record per undeclared element");
    }

    #[test]
    fn render_matches_the_formatted_text_at_the_extremes() {
        let mut strings = StringInterner::default();
        let mut keys = AutoKeys::default();
        let path = strings.intern("i7.i0");
        for (bbox, ordinal) in [
            (Rect::new(i64::MIN, -1, 0, i64::MAX), 0),
            (Rect::new(-500, -500, 500, 500), 1),
            (Rect::new(0, 0, 0, 0), u32::MAX),
        ] {
            let layer = LayerId(u16::MAX);
            let id = keys.intern(AutoKey {
                path,
                layer,
                ordinal,
                bbox,
            });
            let mut want = format!(
                "#i7.i0:{}:{},{},{},{}",
                layer.0, bbox.x1, bbox.y1, bbox.x2, bbox.y2
            );
            if ordinal > 0 {
                want += &format!(":{ordinal}");
            }
            let got = keys.render(id, &strings);
            assert_eq!(got, want);
            assert_eq!(got.capacity(), got.len(), "sized exactly");
        }
    }

    #[test]
    fn device_instances_created_per_call() {
        let cif = "
        DS 1; 9 ct; 9D CONTACT_D; 9T A NM 250 250; 9T B ND 250 250;
        L NC; B 500 500 250 250; L ND; B 1000 1000 250 250; L NM; B 1000 1000 250 250; DF;
        C 1 T 0 0; C 1 T 5000 0; E";
        let (view, v) = view_of(cif);
        assert!(v.is_empty());
        assert_eq!(view.devices.len(), 2);
        assert_eq!(view.str(view.devices[0].path), "i0");
        assert_eq!(view.str(view.devices[1].path), "i1");
        assert_eq!(view.devices[0].element_ids.len(), 3);
        // Terminal transformed to chip coords.
        let (name, _, pos) = &view.devices[1].terminals[0];
        assert_eq!(name, "A");
        assert_eq!(*pos, Point::new(5250, 250));
        // Elements tagged with the device.
        for &eid in &view.devices[1].element_ids {
            assert_eq!(view.elements.get(eid).device(), Some(1));
        }
    }

    #[test]
    fn nested_instance_paths() {
        let cif = "
        DS 1; L NM; 9N out; B 1000 750 0 0; DF;
        DS 2; C 1 T 0 0; DF;
        C 2 T 0 0; E";
        let (view, _) = view_of(cif);
        assert_eq!(view.elements.len(), 1);
        assert_eq!(view.str(view.elements.get(0).path()), "i0.i0");
        assert_eq!(
            view.net_key_str(view.elements.get(0).net_key()),
            "i0.i0.out"
        );
    }

    #[test]
    fn sharded_instantiation_is_byte_identical() {
        // Mixed top level (device calls, nested calls, loose geometry,
        // duplicate shapes whose auto-key ordinals span shards): the
        // stitched parallel view must equal the serial walk exactly —
        // ids, device indices, back-references, net keys.
        let cif = "
        DS 1; 9 ct; 9D CONTACT_D; 9T A NM 250 250; 9T B ND 250 250;
        L NC; B 500 500 250 250; L ND; B 1000 1000 250 250; L NM; B 1000 1000 250 250; DF;
        DS 2; C 1 T 0 0; L NM; B 1000 750 3000 0; DF;
        C 1 T 0 0; C 2 T 8000 0; C 1 T 16000 0;
        L NM; B 1000 750 24000 0; L NM; B 1000 750 24000 0;
        E";
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let serial = instantiate(&layout, &tech, &binding);
        assert!(!serial.elements.is_empty() && !serial.devices.is_empty());
        for workers in [2usize, 3, 8] {
            let par = instantiate_parallel(&layout, &tech, &binding, workers);
            // The whole columnar store must be identical — ids are
            // positions, so column equality covers the id contract.
            assert_eq!(par.elements, serial.elements, "workers={workers}");
            for (a, b) in serial.elements.iter().zip(par.elements.iter()) {
                // Handles come from per-run interners: compare the
                // rendered strings too (the stitch numbering must also
                // be worker-count independent).
                assert_eq!(
                    serial.net_key_str(a.net_key()),
                    par.net_key_str(b.net_key()),
                    "workers={workers}"
                );
                assert_eq!(serial.str(a.path()), par.str(b.path()), "workers={workers}");
            }
            assert_eq!(par.devices.len(), serial.devices.len());
            for (a, b) in serial.devices.iter().zip(&par.devices) {
                assert_eq!(serial.str(a.path), par.str(b.path), "workers={workers}");
                assert_eq!(a.element_ids, b.element_ids, "workers={workers}");
            }
        }
    }

    #[test]
    fn columns_round_trip_through_boxed_records() {
        // Scatter → gather → scatter must be lossless: materialised
        // boxed records rebuild identical columns, and every accessor
        // agrees with its boxed field.
        let cif = "
        DS 1; 9 ct; 9D CONTACT_D; 9T A NM 250 250;
        L NC; B 500 500 250 250; L NM; B 1000 1000 250 250; DF;
        C 1 T 0 0;
        L NM; 9N out; W 750 0 0 5000 0;
        L NM; B 100 100 9000 9000;
        E";
        let (view, _) = view_of(cif);
        let boxed = view.elements.to_elements();
        let rebuilt = ElementColumns::from_elements(boxed.clone());
        assert_eq!(rebuilt, view.elements);
        for (el, r) in boxed.iter().zip(view.elements.iter()) {
            assert_eq!(el.id, r.id());
            assert_eq!(el.layer, r.layer());
            assert_eq!(el.bbox, r.bbox());
            assert_eq!(el.rects.as_slice(), r.rects());
            assert_eq!(el.net_key, r.net_key());
            assert_eq!(el.net_declared(), r.net_declared());
            assert_eq!(el.path, r.path());
            assert_eq!(el.device, r.device());
            assert_eq!(el.source, r.source());
            match &el.skeleton {
                Some(sk) => assert_eq!(sk.scaled_rects(), r.skeleton()),
                None => assert!(!r.has_skeleton()),
            }
        }
    }

    #[test]
    fn interner_dedups_across_the_linear_to_hash_transition() {
        // The table starts index-free (per-shard interners stay tiny)
        // and builds its hash index past LINEAR_LIMIT strings; handles
        // must stay stable and deduplication exact through the switch.
        let mut t = StringInterner::default();
        let first = t.intern("s0");
        let ids: Vec<Istr> = (0..100).map(|i| t.intern(&format!("s{i}"))).collect();
        assert_eq!(ids[0], first, "re-interning must hit the stored copy");
        assert_eq!(t.len(), 100);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.get(id), format!("s{i}"));
            assert_eq!(t.lookup(&format!("s{i}")), Some(id));
            assert_eq!(t.intern(&format!("s{i}")), id, "no duplicate entry");
        }
        assert_eq!(t.lookup("never-interned"), None);
        assert_eq!(t.intern_owned("s7".into()), ids[7], "owned hit dedups");
        let owned = t.intern_owned("fresh".into());
        assert_eq!(t.get(owned), "fresh");
        assert!(t.heap_bytes() >= 100 * 2);
    }

    #[test]
    fn interner_compact_remaps_handles_and_keeps_order() {
        // The GridIndex::compact shape: survivors renumber densely in
        // original order, the returned map translates old handles, and
        // evicted handles come back None.
        let mut t = StringInterner::default();
        let ids: Vec<Istr> = (0..50).map(|i| t.intern(&format!("k{i}"))).collect();
        let map = t.compact(|_, s| !s.ends_with('3'));
        assert_eq!(map.len(), 50);
        let mut expect_new = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            if format!("k{i}").ends_with('3') {
                assert_eq!(map[id.index() as usize], None);
            } else {
                let new = map[id.index() as usize].expect("survivor remaps");
                assert_eq!(new.index(), expect_new, "dense, in original order");
                assert_eq!(t.get(new), format!("k{i}"));
                expect_new += 1;
            }
        }
        assert_eq!(t.len(), expect_new as usize);
        // The rebuilt index still dedups: re-interning a survivor hits
        // its new handle, an evicted string re-enters fresh.
        assert_eq!(t.intern("k0"), map[ids[0].index() as usize].unwrap());
        assert_eq!(t.lookup("k3"), None);
        let back = t.intern("k3");
        assert_eq!(back.index(), expect_new);
    }

    #[test]
    fn interner_compact_stale_evicts_by_epoch() {
        // Session shape: one epoch per checked cell. Strings re-interned
        // in recent epochs survive compaction; one-off keys from old
        // epochs are evicted — and the stamps survive the rebuild, so a
        // second compaction keeps ageing correctly.
        let mut t = StringInterner::default();
        t.intern("shared");
        t.intern("old-only");
        t.advance_epoch();
        t.intern("shared");
        t.intern("recent");
        let map = t.compact_stale(0); // keep only the current epoch
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("old-only"), None);
        let shared = t.lookup("shared").expect("recently used survives");
        assert_eq!(map[0], Some(shared));
        assert_eq!(map[1], None);
        assert_eq!(t.get(t.lookup("recent").unwrap()), "recent");
        // Nothing re-interned since: advancing twice ages both out.
        t.advance_epoch();
        t.advance_epoch();
        t.compact_stale(1);
        assert!(t.is_empty());
        assert_eq!(t.epoch(), 3);
    }

    #[test]
    fn class_resolved_from_technology() {
        let cif = "
        DS 1; 9D NMOS_ENH; L NP; B 1500 500 0 0; L ND; B 500 2000 0 0; DF;
        C 1; E";
        let (view, _) = view_of(cif);
        assert_eq!(view.devices[0].class, Some(DeviceClass::MosEnhancement));
        let cif2 = "DS 1; 9D FROB; L NP; B 500 500 0 0; DF; C 1; E";
        let (view2, _) = view_of(cif2);
        assert_eq!(view2.devices[0].class, None);
    }
}
