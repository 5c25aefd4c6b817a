//! The hierarchical layout model.
//!
//! "The key difference between the approach described here and that of most
//! other design rule checkers is that the chip is not treated purely as a
//! collection of geometry; the chip is never fully instantiated; the
//! information about what symbol the piece of geometry came from is never
//! lost." — the paper, §"Some Techniques".

use diic_geom::{Point, Polygon, Rect, Transform, Wire};
use std::collections::HashMap;

/// Index of a symbol within a [`Layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

/// Interned layer name reference (index into [`Layout::layer_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerRef(pub u16);

/// True if `name` starts with `#`, the prefix reserved for the
/// checker's own net keys (an undeclared element's auto key renders as
/// `#path:layer:x1,y1,x2,y2`). A declared net (`9N`), net label (`9L`)
/// or instance name with this prefix could spell an auto key and merge
/// two unrelated nets, so the parser and the service reject it.
pub fn is_reserved_name(name: &str) -> bool {
    name.starts_with('#')
}

/// A primitive geometric element with the paper's net-identifier extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// The mask layer the element is drawn on.
    pub layer: LayerRef,
    /// The geometry.
    pub shape: Shape,
    /// Optional net identifier (`9N`), the paper's topological extension.
    pub net: Option<String>,
}

/// Primitive geometry of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// An axis-aligned box (`B`).
    Box(Rect),
    /// A wire (`W`).
    Wire(Wire),
    /// A polygon (`P`).
    Polygon(Polygon),
}

impl Shape {
    /// Bounding rectangle of the shape.
    pub fn bbox(&self) -> Rect {
        match self {
            Shape::Box(r) => *r,
            Shape::Wire(w) => w.bbox(),
            Shape::Polygon(p) => p.bbox(),
        }
    }

    /// The covered rectangles (exact for boxes/Manhattan wires/rectilinear
    /// polygons; a polygon that is not rectilinear returns its bbox —
    /// callers needing exactness must check [`Polygon::is_rectilinear`]).
    pub fn rects(&self) -> Vec<Rect> {
        match self {
            Shape::Box(r) => vec![*r],
            Shape::Wire(w) => w.to_rects(),
            Shape::Polygon(p) => p.to_rects().unwrap_or_else(|_| vec![p.bbox()]),
        }
    }

    /// Applies a transform, producing a new shape.
    pub fn transformed(&self, t: &Transform) -> Shape {
        match self {
            Shape::Box(r) => Shape::Box(t.apply_rect(r)),
            Shape::Wire(w) => Shape::Wire(
                Wire::new(
                    w.width(),
                    w.points().iter().map(|&p| t.apply_point(p)).collect(),
                )
                .expect("transform preserves wire validity"),
            ),
            Shape::Polygon(p) => Shape::Polygon(t.apply_polygon(p)),
        }
    }
}

/// A call (instantiation) of a symbol under a Manhattan transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The instantiated symbol.
    pub target: SymbolId,
    /// Placement transform.
    pub transform: Transform,
    /// Instance name for hierarchical net paths (`a.b` dot notation). The
    /// parser assigns `i<n>` by call order; APIs may set meaningful names.
    pub name: String,
}

/// An item in a symbol body or at top level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A primitive element.
    Element(Element),
    /// A symbol call.
    Call(Call),
}

/// The paper's device-type extension for a primitive symbol (`9D`), plus
/// the immunity flag (`9C`) and declared terminals (`9T`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDecl {
    /// Device type name (e.g. `NMOS_ENH`, `CONTACT`, `RESISTOR`).
    pub device_type: String,
    /// True if the device is marked *checked* (immunity flag): its internal
    /// rules are waived — used for special devices that intentionally break
    /// the rules.
    pub checked: bool,
    /// Declared terminals.
    pub terminals: Vec<Terminal>,
}

/// A named device terminal at a local point on a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Terminal {
    /// Terminal name (e.g. `G`, `S`, `D`).
    pub name: String,
    /// The layer the terminal connects on.
    pub layer: LayerRef,
    /// Local position within the symbol.
    pub position: Point,
}

/// A net label (`9L`): names the net of whatever element covers the point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLabel {
    /// The net name (e.g. `VDD`, `GND`, `BUS_A`).
    pub net: String,
    /// The layer to bind on.
    pub layer: LayerRef,
    /// The labelled point (top-level coordinates).
    pub position: Point,
}

/// A symbol definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The CIF `DS` numeric id.
    pub cif_id: u32,
    /// Optional human name (`9 <name>`).
    pub name: Option<String>,
    /// Device declaration if this is a primitive device symbol.
    pub device: Option<DeviceDecl>,
    /// Body items.
    pub items: Vec<Item>,
}

impl Symbol {
    /// Display name: the `9` name if present, else `S<cif_id>`.
    pub fn display_name(&self) -> String {
        self.name
            .clone()
            .unwrap_or_else(|| format!("S{}", self.cif_id))
    }

    /// True if this symbol is a declared primitive device.
    pub fn is_device(&self) -> bool {
        self.device.is_some()
    }

    /// Iterator over the primitive elements in the body.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.items.iter().filter_map(|i| match i {
            Item::Element(e) => Some(e),
            Item::Call(_) => None,
        })
    }

    /// Iterator over the calls in the body.
    pub fn calls(&self) -> impl Iterator<Item = &Call> {
        self.items.iter().filter_map(|i| match i {
            Item::Call(c) => Some(c),
            Item::Element(_) => None,
        })
    }
}

/// A parsed extended-CIF layout: symbol table plus top-level items.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    symbols: Vec<Symbol>,
    by_cif_id: HashMap<u32, SymbolId>,
    layer_names: Vec<String>,
    top: Vec<Item>,
    labels: Vec<NetLabel>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Layout::default()
    }

    /// All symbols, indexable by [`SymbolId`].
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Looks up a symbol by id.
    pub fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// Looks up a symbol id by its CIF numeric id.
    pub fn symbol_by_cif_id(&self, cif_id: u32) -> Option<SymbolId> {
        self.by_cif_id.get(&cif_id).copied()
    }

    /// Looks up a symbol id by display name.
    pub fn symbol_by_name(&self, name: &str) -> Option<SymbolId> {
        self.symbols
            .iter()
            .position(|s| s.display_name() == name)
            .map(|i| SymbolId(i as u32))
    }

    /// Top-level items (the chip).
    pub fn top_items(&self) -> &[Item] {
        &self.top
    }

    /// Net labels.
    pub fn labels(&self) -> &[NetLabel] {
        &self.labels
    }

    /// The interned layer names.
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// The name of a layer reference.
    pub fn layer_name(&self, l: LayerRef) -> &str {
        &self.layer_names[l.0 as usize]
    }

    /// Interns a layer name, returning its reference.
    pub fn intern_layer(&mut self, name: &str) -> LayerRef {
        if let Some(i) = self.layer_names.iter().position(|n| n == name) {
            LayerRef(i as u16)
        } else {
            self.layer_names.push(name.to_string());
            LayerRef((self.layer_names.len() - 1) as u16)
        }
    }

    /// Adds a symbol; returns its id.
    ///
    /// Duplicate CIF ids are the parser's job to reject; this method
    /// overwrites the id mapping if abused programmatically.
    pub fn add_symbol(&mut self, symbol: Symbol) -> SymbolId {
        let id = SymbolId(self.symbols.len() as u32);
        self.by_cif_id.insert(symbol.cif_id, id);
        self.symbols.push(symbol);
        id
    }

    /// Mutable access to a symbol (for programmatic construction).
    pub fn symbol_mut(&mut self, id: SymbolId) -> &mut Symbol {
        &mut self.symbols[id.0 as usize]
    }

    /// Adds a top-level item.
    pub fn push_top(&mut self, item: Item) {
        self.top.push(item);
    }

    /// Removes and returns the top-level item at `index` (later items
    /// shift down — element identity in checkers is positional, which is
    /// why edit sessions track runs per item).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove_top(&mut self, index: usize) -> Item {
        self.top.remove(index)
    }

    /// Mutable access to a top-level item (for programmatic edits).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn top_item_mut(&mut self, index: usize) -> &mut Item {
        &mut self.top[index]
    }

    /// Adds a net label.
    pub fn push_label(&mut self, label: NetLabel) {
        self.labels.push(label);
    }

    /// Total element count across all symbol bodies and the top level
    /// (not multiplied by instantiation).
    pub fn element_count(&self) -> usize {
        self.symbols
            .iter()
            .map(|s| s.elements().count())
            .sum::<usize>()
            + self
                .top
                .iter()
                .filter(|i| matches!(i, Item::Element(_)))
                .count()
    }

    /// Total call count across all symbol bodies and the top level.
    pub fn call_count(&self) -> usize {
        self.symbols
            .iter()
            .map(|s| s.calls().count())
            .sum::<usize>()
            + self
                .top
                .iter()
                .filter(|i| matches!(i, Item::Call(_)))
                .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_geom::Vector;

    fn boxy(layer: LayerRef, r: Rect) -> Item {
        Item::Element(Element {
            layer,
            shape: Shape::Box(r),
            net: None,
        })
    }

    #[test]
    fn intern_layer_is_idempotent() {
        let mut l = Layout::new();
        let a = l.intern_layer("NP");
        let b = l.intern_layer("ND");
        let a2 = l.intern_layer("NP");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(l.layer_name(a), "NP");
    }

    #[test]
    fn add_symbol_and_lookup() {
        let mut l = Layout::new();
        let np = l.intern_layer("NP");
        let id = l.add_symbol(Symbol {
            cif_id: 5,
            name: Some("inv".into()),
            device: None,
            items: vec![boxy(np, Rect::new(0, 0, 20, 60))],
        });
        assert_eq!(l.symbol_by_cif_id(5), Some(id));
        assert_eq!(l.symbol_by_name("inv"), Some(id));
        assert_eq!(l.symbol(id).display_name(), "inv");
        assert_eq!(l.element_count(), 1);
    }

    #[test]
    fn display_name_fallback() {
        let s = Symbol {
            cif_id: 9,
            name: None,
            device: None,
            items: vec![],
        };
        assert_eq!(s.display_name(), "S9");
    }

    #[test]
    fn shape_transform_box() {
        let s = Shape::Box(Rect::new(0, 0, 10, 20));
        let t = Transform::translate(Vector::new(100, 0));
        assert_eq!(s.transformed(&t).bbox(), Rect::new(100, 0, 110, 20));
    }

    #[test]
    fn counts() {
        let mut l = Layout::new();
        let np = l.intern_layer("NP");
        let dev = l.add_symbol(Symbol {
            cif_id: 1,
            name: None,
            device: Some(DeviceDecl {
                device_type: "CONTACT".into(),
                checked: false,
                terminals: vec![],
            }),
            items: vec![boxy(np, Rect::new(0, 0, 20, 20))],
        });
        l.push_top(Item::Call(Call {
            target: dev,
            transform: Transform::IDENTITY,
            name: "i0".into(),
        }));
        l.push_top(boxy(np, Rect::new(0, 0, 100, 20)));
        assert_eq!(l.element_count(), 2);
        assert_eq!(l.call_count(), 1);
        assert!(l.symbol(dev).is_device());
    }
}
