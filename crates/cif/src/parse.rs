//! CIF parser: token stream → [`Layout`].

use crate::error::{CifError, CifErrorKind};
use crate::layout::{
    Call, DeviceDecl, Element, Item, LayerRef, Layout, NetLabel, Shape, Symbol, SymbolId, Terminal,
};
use crate::token::{lex, Spanned, Token};
use diic_geom::{Coord, Orientation, Point, Polygon, Rect, Transform, Vector, Wire};

/// Parses extended-CIF text into a validated [`Layout`].
///
/// Validation performed here: syntax, duplicate/undefined symbol ids,
/// non-Manhattan rotations, malformed shapes and extensions, and call
/// cycles. Geometry/design-rule checking is the job of `diic-core`.
///
/// # Errors
///
/// [`CifError`] with a line number and a specific [`CifErrorKind`].
pub fn parse(input: &str) -> Result<Layout, CifError> {
    let tokens = lex(input)?;
    Parser::new(tokens).run()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    layout: Layout,
    /// Symbol currently being defined, with its scale numerator/denominator.
    current: Option<(Symbol, Coord, Coord, usize)>, // (symbol, a, b, start_line)
    /// Net identifier pending for the next primitive element.
    pending_net: Option<String>,
    /// Current layer, per CIF (persists across symbol boundaries).
    current_layer: Option<LayerRef>,
    /// Per-scope instance counters for generated call names.
    top_calls: usize,
    /// Calls store the *CIF id* in `SymbolId` until resolution.
    done: bool,
}

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Self {
        Parser {
            tokens,
            pos: 0,
            layout: Layout::new(),
            current: None,
            pending_net: None,
            current_layer: None,
            top_calls: 0,
            done: false,
        }
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, kind: CifErrorKind) -> CifError {
        CifError::new(self.line(), kind)
    }

    fn expect_number(&mut self, ctx: &str) -> Result<i64, CifError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            _ => Err(CifError::new(
                self.line(),
                CifErrorKind::ExpectedNumber(ctx.into()),
            )),
        }
    }

    fn expect_semi(&mut self, ctx: &str) -> Result<(), CifError> {
        match self.next() {
            Some(Token::Semi) => Ok(()),
            _ => Err(CifError::new(
                self.line(),
                CifErrorKind::ExpectedSemicolon(ctx.into()),
            )),
        }
    }

    fn scale(&self, v: i64) -> Coord {
        match &self.current {
            Some((_, a, b, _)) => v * a / b,
            None => v,
        }
    }

    fn run(mut self) -> Result<Layout, CifError> {
        while let Some(tok) = self.next() {
            if self.done {
                break;
            }
            match tok {
                Token::Semi => {} // empty command
                Token::Letter('D') => match self.next() {
                    Some(Token::Letter('S')) => self.cmd_ds()?,
                    Some(Token::Letter('F')) => self.cmd_df()?,
                    Some(Token::Letter('D')) => {
                        // "DD n;" (delete definitions) — accepted and ignored.
                        while !matches!(self.peek(), Some(Token::Semi) | None) {
                            self.next();
                        }
                        self.expect_semi("DD")?;
                    }
                    _ => return Err(self.err(CifErrorKind::UnknownCommand('D'))),
                },
                Token::Letter('C') => self.cmd_call()?,
                Token::Letter('L') => self.cmd_layer()?,
                Token::Letter('B') => self.cmd_box()?,
                Token::Letter('W') => self.cmd_wire()?,
                Token::Letter('P') => self.cmd_polygon()?,
                Token::Letter('E') => {
                    self.done = true;
                }
                Token::Letter(c) => return Err(self.err(CifErrorKind::UnknownCommand(c))),
                Token::Extension(digit, body) => {
                    self.cmd_extension(digit, &body)?;
                    self.expect_semi("extension")?;
                }
                Token::Number(_) => {
                    return Err(self.err(CifErrorKind::ExpectedSemicolon("command".into())))
                }
            }
        }
        if let Some((sym, _, _, line)) = self.current.take() {
            return Err(CifError::new(
                line,
                CifErrorKind::UnclosedDefinition(sym.cif_id),
            ));
        }
        self.resolve_calls()?;
        crate::hierarchy::check_acyclic(&self.layout)?;
        Ok(self.layout)
    }

    fn cmd_ds(&mut self) -> Result<(), CifError> {
        if self.current.is_some() {
            return Err(self.err(CifErrorKind::NestedDefinition));
        }
        let line = self.line();
        let id = self.expect_number("DS id")? as u32;
        if self.layout.symbol_by_cif_id(id).is_some() {
            return Err(self.err(CifErrorKind::DuplicateSymbol(id)));
        }
        let (a, b) = match self.peek() {
            Some(Token::Number(_)) => {
                let a = self.expect_number("DS scale a")?;
                let b = self.expect_number("DS scale b")?;
                if a <= 0 || b <= 0 {
                    return Err(self.err(CifErrorKind::MalformedShape(
                        "DS scale factors must be positive".into(),
                    )));
                }
                (a, b)
            }
            _ => (1, 1),
        };
        self.expect_semi("DS")?;
        self.current = Some((
            Symbol {
                cif_id: id,
                name: None,
                device: None,
                items: Vec::new(),
            },
            a,
            b,
            line,
        ));
        Ok(())
    }

    fn cmd_df(&mut self) -> Result<(), CifError> {
        let Some((symbol, _, _, _)) = self.current.take() else {
            return Err(self.err(CifErrorKind::UnmatchedEnd));
        };
        self.expect_semi("DF")?;
        self.layout.add_symbol(symbol);
        Ok(())
    }

    fn cmd_call(&mut self) -> Result<(), CifError> {
        let target = self.expect_number("C symbol id")? as u32;
        let mut t = Transform::IDENTITY;
        loop {
            match self.peek() {
                Some(Token::Letter('T')) => {
                    self.next();
                    let x = self.expect_number("T x")?;
                    let y = self.expect_number("T y")?;
                    let op = Transform::translate(Vector::new(self.scale(x), self.scale(y)));
                    t = op.after(&t);
                }
                Some(Token::Letter('M')) => {
                    self.next();
                    let axis = self.next();
                    let op = match axis {
                        Some(Token::Letter('X')) => Transform::new(Orientation::MR0, Vector::ZERO),
                        Some(Token::Letter('Y')) => {
                            Transform::new(Orientation::MR180, Vector::ZERO)
                        }
                        _ => return Err(self.err(CifErrorKind::UnknownCommand('M'))),
                    };
                    t = op.after(&t);
                }
                Some(Token::Letter('R')) => {
                    self.next();
                    let a = self.expect_number("R a")?;
                    let b = self.expect_number("R b")?;
                    let Some(orient) = Orientation::from_cif_direction(a, b) else {
                        return Err(self.err(CifErrorKind::NonManhattanRotation(a, b)));
                    };
                    let op = Transform::new(orient, Vector::ZERO);
                    t = op.after(&t);
                }
                Some(Token::Semi) => {
                    self.next();
                    break;
                }
                _ => return Err(self.err(CifErrorKind::ExpectedSemicolon("call".into()))),
            }
        }
        let name = match &mut self.current {
            Some((sym, ..)) => format!("i{}", sym.calls().count()),
            None => {
                let n = format!("i{}", self.top_calls);
                self.top_calls += 1;
                n
            }
        };
        // Store the raw CIF id; resolve_calls patches it to a SymbolId.
        let call = Item::Call(Call {
            target: SymbolId(target),
            transform: t,
            name,
        });
        self.push_item(call);
        Ok(())
    }

    fn cmd_layer(&mut self) -> Result<(), CifError> {
        let mut name = String::new();
        loop {
            match self.peek() {
                Some(Token::Letter(c)) => {
                    name.push(*c);
                    self.next();
                }
                Some(Token::Number(n)) if !name.is_empty() => {
                    name.push_str(&n.to_string());
                    self.next();
                }
                _ => break,
            }
        }
        if name.is_empty() {
            return Err(self.err(CifErrorKind::MissingLayer));
        }
        self.expect_semi("L")?;
        self.current_layer = Some(self.layout.intern_layer(&name));
        Ok(())
    }

    fn take_net(&mut self) -> Option<String> {
        self.pending_net.take()
    }

    fn current_layer(&self) -> Result<LayerRef, CifError> {
        self.current_layer
            .ok_or_else(|| self.err(CifErrorKind::NoCurrentLayer))
    }

    fn cmd_box(&mut self) -> Result<(), CifError> {
        let layer = self.current_layer()?;
        let length = self.expect_number("B length")?;
        let length = self.scale(length);
        let width = self.expect_number("B width")?;
        let width = self.scale(width);
        let cx = self.expect_number("B cx")?;
        let cx = self.scale(cx);
        let cy = self.expect_number("B cy")?;
        let cy = self.scale(cy);
        if length <= 0 || width <= 0 {
            return Err(self.err(CifErrorKind::MalformedShape(format!(
                "box dimensions must be positive, got {length}x{width}"
            ))));
        }
        // Optional direction: rotates the length axis.
        let (length, width) = match self.peek() {
            Some(Token::Number(_)) => {
                let dx = self.expect_number("B direction x")?;
                let dy = self.expect_number("B direction y")?;
                match Orientation::from_cif_direction(dx, dy) {
                    Some(Orientation::R0) | Some(Orientation::R180) => (length, width),
                    Some(Orientation::R90) | Some(Orientation::R270) => (width, length),
                    _ => return Err(self.err(CifErrorKind::NonManhattanRotation(dx, dy))),
                }
            }
            _ => (length, width),
        };
        self.expect_semi("B")?;
        let net = self.take_net();
        self.push_item(Item::Element(Element {
            layer,
            shape: Shape::Box(Rect::from_center(Point::new(cx, cy), length, width)),
            net,
        }));
        Ok(())
    }

    fn cmd_wire(&mut self) -> Result<(), CifError> {
        let layer = self.current_layer()?;
        let width = self.expect_number("W width")?;
        let width = self.scale(width);
        let mut pts = Vec::new();
        while let Some(Token::Number(_)) = self.peek() {
            let x = self.expect_number("W x")?;
            let y = self.expect_number("W y")?;
            pts.push(Point::new(self.scale(x), self.scale(y)));
        }
        self.expect_semi("W")?;
        let wire = Wire::new(width, pts)
            .map_err(|e| self.err(CifErrorKind::MalformedShape(e.to_string())))?;
        let net = self.take_net();
        self.push_item(Item::Element(Element {
            layer,
            shape: Shape::Wire(wire),
            net,
        }));
        Ok(())
    }

    fn cmd_polygon(&mut self) -> Result<(), CifError> {
        let layer = self.current_layer()?;
        let mut pts = Vec::new();
        while let Some(Token::Number(_)) = self.peek() {
            let x = self.expect_number("P x")?;
            let y = self.expect_number("P y")?;
            pts.push(Point::new(self.scale(x), self.scale(y)));
        }
        self.expect_semi("P")?;
        let poly =
            Polygon::new(pts).map_err(|e| self.err(CifErrorKind::MalformedShape(e.to_string())))?;
        let net = self.take_net();
        self.push_item(Item::Element(Element {
            layer,
            shape: Shape::Polygon(poly),
            net,
        }));
        Ok(())
    }

    fn cmd_extension(&mut self, digit: char, body: &str) -> Result<(), CifError> {
        if digit != '9' {
            return Ok(()); // other user extensions are ignored
        }
        if let Some(rest) = body.strip_prefix(' ') {
            // `9 <name>` — symbol name.
            let name = rest.trim();
            if name.is_empty() {
                return Err(self.err(CifErrorKind::MalformedExtension(
                    "9 <name> requires a name".into(),
                )));
            }
            if let Some((sym, ..)) = &mut self.current {
                sym.name = Some(name.to_string());
            }
            return Ok(());
        }
        let mut chars = body.chars();
        let sub = chars.next().unwrap_or(' ');
        let rest = chars.as_str().trim();
        match sub {
            'N' => {
                if rest.is_empty() {
                    return Err(self.err(CifErrorKind::MalformedExtension(
                        "9N requires a net name".into(),
                    )));
                }
                if crate::is_reserved_name(rest) {
                    return Err(self.err(CifErrorKind::ReservedNetName(rest.to_string())));
                }
                self.pending_net = Some(rest.to_string());
            }
            'D' => {
                if rest.is_empty() {
                    return Err(self.err(CifErrorKind::MalformedExtension(
                        "9D requires a device type".into(),
                    )));
                }
                let Some((sym, ..)) = &mut self.current else {
                    return Err(self.err(CifErrorKind::DeviceOutsideSymbol));
                };
                match &mut sym.device {
                    Some(d) => d.device_type = rest.to_string(),
                    None => {
                        sym.device = Some(DeviceDecl {
                            device_type: rest.to_string(),
                            checked: false,
                            terminals: Vec::new(),
                        })
                    }
                }
            }
            'C' => {
                let Some((sym, ..)) = &mut self.current else {
                    return Err(self.err(CifErrorKind::DeviceOutsideSymbol));
                };
                match &mut sym.device {
                    Some(d) => d.checked = true,
                    None => {
                        return Err(self.err(CifErrorKind::MalformedExtension(
                            "9C must follow a 9D device declaration".into(),
                        )))
                    }
                }
            }
            'T' => {
                // 9T <name> <layer> <x> <y>
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [name, layer, x, y] = parts.as_slice() else {
                    return Err(self.err(CifErrorKind::MalformedExtension(
                        "9T wants: name layer x y".into(),
                    )));
                };
                let (x, y) = (parse_int(x, self)?, parse_int(y, self)?);
                let layer = self.layout.intern_layer(layer);
                let Some((sym, ..)) = &mut self.current else {
                    return Err(self.err(CifErrorKind::DeviceOutsideSymbol));
                };
                match &mut sym.device {
                    Some(d) => d.terminals.push(Terminal {
                        name: name.to_string(),
                        layer,
                        position: Point::new(x, y),
                    }),
                    None => {
                        return Err(self.err(CifErrorKind::MalformedExtension(
                            "9T must follow a 9D device declaration".into(),
                        )))
                    }
                }
            }
            'L' => {
                // 9L <net> <layer> <x> <y> — top-level net label.
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [net, layer, x, y] = parts.as_slice() else {
                    return Err(self.err(CifErrorKind::MalformedExtension(
                        "9L wants: net layer x y".into(),
                    )));
                };
                if crate::is_reserved_name(net) {
                    return Err(self.err(CifErrorKind::ReservedNetName(net.to_string())));
                }
                let (x, y) = (parse_int(x, self)?, parse_int(y, self)?);
                let layer = self.layout.intern_layer(layer);
                self.layout.push_label(NetLabel {
                    net: net.to_string(),
                    layer,
                    position: Point::new(x, y),
                });
            }
            other => {
                return Err(self.err(CifErrorKind::MalformedExtension(format!(
                    "unknown 9{other} extension"
                ))));
            }
        }
        Ok(())
    }

    fn push_item(&mut self, item: Item) {
        match &mut self.current {
            Some((sym, ..)) => sym.items.push(item),
            None => self.layout.push_top(item),
        }
    }

    /// Rewrites `Call.target` from raw CIF ids to [`SymbolId`]s.
    fn resolve_calls(&mut self) -> Result<(), CifError> {
        let map: Vec<(u32, SymbolId)> = self
            .layout
            .symbols()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.cif_id, SymbolId(i as u32)))
            .collect();
        let lookup = |cif: u32| -> Result<SymbolId, CifError> {
            map.iter()
                .find(|(c, _)| *c == cif)
                .map(|(_, id)| *id)
                .ok_or(CifError::new(0, CifErrorKind::UndefinedSymbol(cif)))
        };
        let n = self.layout.symbols().len();
        for i in 0..n {
            let sym = self.layout.symbol_mut(SymbolId(i as u32));
            for item in &mut sym.items {
                if let Item::Call(c) = item {
                    c.target = lookup(c.target.0)?;
                }
            }
        }
        // Top-level items: rebuild in place.
        let mut top: Vec<Item> = self.layout.top_items().to_vec();
        for item in &mut top {
            if let Item::Call(c) = item {
                c.target = lookup(c.target.0)?;
            }
        }
        // Replace the top list.
        let layout = std::mem::take(&mut self.layout);
        self.layout = rebuild_with_top(layout, top);
        Ok(())
    }
}

fn rebuild_with_top(layout: Layout, top: Vec<Item>) -> Layout {
    let mut out = Layout::new();
    for name in layout.layer_names() {
        out.intern_layer(name);
    }
    for sym in layout.symbols() {
        out.add_symbol(sym.clone());
    }
    for item in top {
        out.push_top(item);
    }
    for label in layout.labels() {
        out.push_label(label.clone());
    }
    out
}

fn parse_int(s: &str, p: &Parser) -> Result<i64, CifError> {
    s.parse::<i64>().map_err(|_| {
        p.err(CifErrorKind::ExpectedNumber(format!(
            "extension field {s:?}"
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_box() {
        let l = parse("L NM; B 40 20 20,10; E").unwrap();
        assert_eq!(l.top_items().len(), 1);
        let Item::Element(e) = &l.top_items()[0] else {
            panic!("expected element")
        };
        assert_eq!(e.shape.bbox(), Rect::new(0, 0, 40, 20));
        assert_eq!(l.layer_name(e.layer), "NM");
    }

    #[test]
    fn box_with_direction() {
        let l = parse("L NM; B 40 20 0 0 0 1; E").unwrap();
        let Item::Element(e) = &l.top_items()[0] else {
            panic!()
        };
        // Rotated 90°: length axis vertical.
        assert_eq!(e.shape.bbox(), Rect::new(-10, -20, 10, 20));
    }

    #[test]
    fn wire_and_polygon() {
        let l = parse("L NP; W 20 0 0 100 0 100 100; P 0 0 50 0 0 50; E").unwrap();
        assert_eq!(l.top_items().len(), 2);
        let Item::Element(w) = &l.top_items()[0] else {
            panic!()
        };
        assert!(matches!(w.shape, Shape::Wire(_)));
        let Item::Element(p) = &l.top_items()[1] else {
            panic!()
        };
        assert!(matches!(p.shape, Shape::Polygon(_)));
    }

    #[test]
    fn symbol_definition_and_call() {
        let l = parse("DS 1 1 1; 9 cell; L ND; B 20 20 10 10; DF; C 1 T 100 0; E").unwrap();
        assert_eq!(l.symbols().len(), 1);
        assert_eq!(l.symbol_by_name("cell"), Some(SymbolId(0)));
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        assert_eq!(c.target, SymbolId(0));
        assert_eq!(c.transform.offset, Vector::new(100, 0));
        assert_eq!(c.name, "i0");
    }

    #[test]
    fn ds_scale_applies() {
        // Scale 2/1 doubles all coordinates in the symbol.
        let l = parse("DS 1 2 1; L ND; B 10 10 5 5; DF; C 1; E").unwrap();
        let sym = l.symbol(SymbolId(0));
        let e = sym.elements().next().unwrap();
        assert_eq!(e.shape.bbox(), Rect::new(0, 0, 20, 20));
    }

    #[test]
    fn transform_order_mirror_then_translate() {
        // CIF: ops apply left to right: MX then T.
        let l = parse("DS 1 1 1; L ND; B 2 2 5 0; DF; C 1 MX T 100 0; E").unwrap();
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        // Point (5,0) -> MX -> (-5,0) -> T -> (95,0).
        assert_eq!(c.transform.apply_point(Point::new(5, 0)), Point::new(95, 0));
    }

    #[test]
    fn rotation_must_be_manhattan() {
        let err = parse("DS 1 1 1; DF; C 1 R 1 1; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::NonManhattanRotation(1, 1)));
    }

    #[test]
    fn forward_reference_resolved() {
        let l = parse("C 2 T 0 0; DS 2 1 1; L ND; B 2 2 0 0; DF; E").unwrap();
        let Item::Call(c) = &l.top_items()[0] else {
            panic!()
        };
        assert_eq!(c.target, SymbolId(0));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let err = parse("C 42; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::UndefinedSymbol(42)));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let err = parse("DS 1; DF; DS 1; DF; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::DuplicateSymbol(1)));
    }

    #[test]
    fn nested_ds_rejected() {
        let err = parse("DS 1; DS 2; DF; DF; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::NestedDefinition));
    }

    #[test]
    fn unclosed_ds_rejected() {
        let err = parse("DS 1; L ND; B 2 2 0 0; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::UnclosedDefinition(1)));
    }

    #[test]
    fn recursion_rejected() {
        let err = parse("DS 1; C 2; DF; DS 2; C 1; DF; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::RecursiveSymbol(_)));
    }

    #[test]
    fn net_extension_binds_next_element() {
        let l = parse("L NM; 9N VDD; B 40 20 20 10; B 40 20 20 50; E").unwrap();
        let Item::Element(e1) = &l.top_items()[0] else {
            panic!()
        };
        let Item::Element(e2) = &l.top_items()[1] else {
            panic!()
        };
        assert_eq!(e1.net.as_deref(), Some("VDD"));
        assert_eq!(e2.net, None);
    }

    #[test]
    fn device_declaration() {
        let l = parse(
            "DS 1; 9 tr; 9D NMOS_ENH; 9T G NP 10 10; 9T S ND 0 10; 9C; L NP; B 20 60 10 30; DF; E",
        )
        .unwrap();
        let sym = l.symbol(SymbolId(0));
        let dev = sym.device.as_ref().unwrap();
        assert_eq!(dev.device_type, "NMOS_ENH");
        assert!(dev.checked);
        assert_eq!(dev.terminals.len(), 2);
        assert_eq!(dev.terminals[0].name, "G");
        assert_eq!(dev.terminals[0].position, Point::new(10, 10));
    }

    #[test]
    fn device_outside_symbol_rejected() {
        let err = parse("9D NMOS;").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::DeviceOutsideSymbol));
    }

    #[test]
    fn label_extension() {
        let l = parse("9L VDD NM 50 100; E").unwrap();
        assert_eq!(l.labels().len(), 1);
        assert_eq!(l.labels()[0].net, "VDD");
        assert_eq!(l.labels()[0].position, Point::new(50, 100));
    }

    #[test]
    fn reserved_net_names_rejected_with_their_line() {
        // `#` opens the checker's auto-key space: a declared net spelling
        // an undeclared box's key would merge the two nets.
        let err =
            parse("L NM;\nB 1000 1000 0 0;\n9N #:3:-500,-500,500,500;\nB 1000 1000 1500 0;\nE")
                .unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(
            err.kind,
            CifErrorKind::ReservedNetName("#:3:-500,-500,500,500".into())
        );
        let err = parse("L NM; B 1000 1000 0 0;\n\n9L #x NM 0 0; E").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, CifErrorKind::ReservedNetName("#x".into()));
        // `#` elsewhere in a name is an ordinary character.
        assert!(parse("L NM; 9N a#b; B 2 2 0 0; 9L c#d NM 0 0; E").is_ok());
    }

    #[test]
    fn element_without_layer_rejected() {
        let err = parse("B 2 2 0 0; E").unwrap_err();
        assert!(matches!(err.kind, CifErrorKind::NoCurrentLayer));
    }

    #[test]
    fn text_after_e_ignored() {
        let l = parse("L NM; B 2 2 0 0; E this is trailing junk !!!").unwrap();
        assert_eq!(l.top_items().len(), 1);
    }

    #[test]
    fn comments_anywhere() {
        let l = parse("(header) L NM; (mid) B 2 2 0 0; (tail) E").unwrap();
        assert_eq!(l.top_items().len(), 1);
    }

    #[test]
    fn instance_names_sequential_per_scope() {
        let l = parse("DS 1; DF; DS 2; C 1; C 1; DF; C 2; C 2; C 2; E").unwrap();
        let parent = l.symbol(SymbolId(1));
        let names: Vec<&str> = parent.calls().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["i0", "i1"]);
        let tops: Vec<&str> = l
            .top_items()
            .iter()
            .filter_map(|i| match i {
                Item::Call(c) => Some(c.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(tops, vec!["i0", "i1", "i2"]);
    }
}
