//! Skeletal connectivity (paper Fig. 11).
//!
//! The *skeleton* of an element is the element shrunk by half the minimum
//! width of its layer. Two elements are **legally connected** iff their
//! skeletons touch, overlap, or one encloses the other. The payoff (paper,
//! §"Some Techniques"): if two elements are each of legal width and are
//! skeletally connected, then their union is of legal width — so connected
//! interconnect never needs a general polygon width check.
//!
//! ## Representation
//!
//! A minimum-width element's skeleton is *degenerate* (a line or point), so
//! skeletons cannot live in the measure-semantics [`Region`]. We store the
//! skeleton in a **doubled coordinate grid, inflated by one half-unit**:
//! every skeleton rectangle `[a,b]×[c,d]` (original units, possibly
//! degenerate) becomes `[2a-1, 2b+1]×[2c-1, 2d+1]`. Because all element
//! coordinates are integers, two closed skeletons share a point **iff**
//! their inflated doubled rectangles share interior area — an exact
//! reduction of closed-set touching to positive-measure overlap.

use crate::{Coord, Rect, Region, Wire};

/// The skeleton of a layout element, ready for connectivity tests.
///
/// # Example
///
/// ```
/// use diic_geom::{Rect, skeleton::Skeleton};
/// // Boxes on a layer with min width 20, overlapped by a full min width:
/// let a = Skeleton::of_rect(&Rect::new(0, 0, 100, 20), 10).unwrap();
/// let b = Skeleton::of_rect(&Rect::new(80, 0, 180, 20), 10).unwrap();
/// assert!(a.connected_to(&b)); // skeletons touch at (90, 10)
///
/// // Merely *butted* boxes are NOT skeletally connected — the paper's
/// // Fig. 15 self-sufficiency rule: overlap symbols, don't butt them.
/// let c = Skeleton::of_rect(&Rect::new(100, 0, 200, 20), 10).unwrap();
/// assert!(!a.connected_to(&c));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skeleton {
    /// Rectangles in the doubled-and-inflated coordinate system.
    scaled: Vec<Rect>,
}

impl Skeleton {
    /// Skeleton of a box element: the box inset by `half_min_width` on every
    /// side. Returns `None` if the box is narrower than the minimum width
    /// (such a box is a width violation and has no skeleton).
    pub fn of_rect(r: &Rect, half_min_width: Coord) -> Option<Skeleton> {
        let h = half_min_width;
        if r.width() < 2 * h || r.height() < 2 * h {
            return None;
        }
        Some(Skeleton {
            scaled: vec![scale_inflate(&Rect::new(
                r.x1 + h,
                r.y1 + h,
                r.x2 - h,
                r.y2 - h,
            ))],
        })
    }

    /// Skeleton of a Manhattan wire: the wire shrunk by `half_min_width`;
    /// for a minimum-width wire this is the centre line. Returns `None` if
    /// the wire is narrower than the minimum width.
    pub fn of_wire(w: &Wire, half_min_width: Coord) -> Option<Skeleton> {
        let rects = w.skeleton_rects(half_min_width);
        if rects.is_empty() {
            return None;
        }
        Some(Skeleton {
            scaled: rects.iter().map(scale_inflate).collect(),
        })
    }

    /// Skeleton of a polygonal element given as a [`Region`]: the orthogonal
    /// shrink by `half_min_width`, computed in the doubled grid so that
    /// degenerate (exactly-minimum-width) parts are retained. Returns `None`
    /// if the whole polygon is narrower than the minimum width.
    pub fn of_region(region: &Region, half_min_width: Coord) -> Option<Skeleton> {
        if region.is_empty() {
            return None;
        }
        // Work in the doubled grid: scale rects by 2, shrink by 2h - 1.
        // A point at L∞ distance exactly 2h from the complement (the true
        // degenerate skeleton) survives as a width-2 strip; parts strictly
        // narrower than minimum width disappear (distance <= 2h - 2 < 2h-1).
        let doubled = Region::from_rects(
            region
                .rects()
                .iter()
                .map(|r| Rect::new(2 * r.x1, 2 * r.y1, 2 * r.x2, 2 * r.y2)),
        );
        let d = 2 * half_min_width - 1;
        let shrunk =
            crate::size::shrink(&doubled, d.max(0)).expect("non-negative shrink cannot fail");
        if shrunk.is_empty() {
            return None;
        }
        Some(Skeleton {
            scaled: shrunk.rects().to_vec(),
        })
    }

    /// True if the two skeletons touch, overlap, or one encloses the other —
    /// the paper's legal-connection criterion.
    pub fn connected_to(&self, other: &Skeleton) -> bool {
        crate::batch::any_overlap(&self.scaled, &other.scaled)
    }

    /// The raw rectangles in the doubled-and-inflated grid — the packed
    /// form a columnar store keeps in its shared arena. Two scaled runs
    /// are connected iff [`crate::batch::any_overlap`] holds between
    /// them (exactly what [`Skeleton::connected_to`] evaluates).
    pub fn scaled_rects(&self) -> &[Rect] {
        &self.scaled
    }

    /// Consumes the skeleton into its scaled rectangles (never empty —
    /// every constructor returns `None` instead of an empty skeleton,
    /// so a zero-length arena run can encode "no skeleton").
    pub fn into_scaled_rects(self) -> Vec<Rect> {
        self.scaled
    }

    /// Rebuilds a skeleton from scaled rectangles previously obtained
    /// via [`Skeleton::scaled_rects`] / [`Skeleton::into_scaled_rects`].
    /// Returns `None` for an empty run, mirroring the constructors'
    /// "no skeleton" convention.
    pub fn from_scaled_rects(scaled: Vec<Rect>) -> Option<Skeleton> {
        if scaled.is_empty() {
            None
        } else {
            Some(Skeleton { scaled })
        }
    }

    /// The skeleton rectangles, mapped back to original coordinates
    /// (deflated; possibly degenerate). Mainly for diagnostics.
    pub fn rects(&self) -> Vec<Rect> {
        self.scaled
            .iter()
            .map(|r| {
                Rect::new(
                    (r.x1 + 1).div_euclid(2),
                    (r.y1 + 1).div_euclid(2),
                    (r.x2 - 1).div_euclid(2),
                    (r.y2 - 1).div_euclid(2),
                )
            })
            .collect()
    }
}

fn scale_inflate(r: &Rect) -> Rect {
    let lo = |c: Coord| c.saturating_mul(2).saturating_sub(1);
    let hi = |c: Coord| c.saturating_mul(2).saturating_add(1);
    Rect::new(lo(r.x1), lo(r.y1), hi(r.x2), hi(r.y2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    const H: Coord = 10; // half of a 20-unit minimum width

    #[test]
    fn fig11_touching_skeletons_connected() {
        // Boxes overlapped end-to-end by exactly one minimum width: the
        // skeleton segments meet at a point -> connected.
        let a = Skeleton::of_rect(&Rect::new(0, 0, 100, 20), H).unwrap();
        let b = Skeleton::of_rect(&Rect::new(80, 0, 180, 20), H).unwrap();
        assert!(a.connected_to(&b));
        assert!(b.connected_to(&a));
    }

    #[test]
    fn fig15_butted_boxes_not_connected() {
        // Merely butted boxes: geometry abuts but skeletons are min-width
        // apart -> NOT legally connected. This is what forces the paper's
        // self-sufficiency usage rule (overlap symbols, don't butt them).
        let a = Skeleton::of_rect(&Rect::new(0, 0, 100, 20), H).unwrap();
        let b = Skeleton::of_rect(&Rect::new(100, 0, 200, 20), H).unwrap();
        assert!(!a.connected_to(&b));
    }

    #[test]
    fn fig11_overlapping_skeletons_connected() {
        let a = Skeleton::of_rect(&Rect::new(0, 0, 100, 20), H).unwrap();
        let b = Skeleton::of_rect(&Rect::new(50, 0, 150, 20), H).unwrap();
        assert!(a.connected_to(&b));
    }

    #[test]
    fn fig11_enclosed_skeleton_connected() {
        let big = Skeleton::of_rect(&Rect::new(0, 0, 200, 200), H).unwrap();
        let small = Skeleton::of_rect(&Rect::new(50, 50, 150, 150), H).unwrap();
        assert!(big.connected_to(&small));
    }

    #[test]
    fn fig11_corner_overlap_only_not_connected() {
        // Boxes overlap only at an area smaller than half-min-width in each
        // direction: elements overlap, skeletons do not reach each other.
        let a = Rect::new(0, 0, 100, 20);
        let b = Rect::new(95, 15, 195, 35);
        assert!(a.overlaps(&b)); // geometry overlaps...
        let sa = Skeleton::of_rect(&a, H).unwrap();
        let sb = Skeleton::of_rect(&b, H).unwrap();
        assert!(!sa.connected_to(&sb)); // ...but not skeletally connected
    }

    #[test]
    fn fig11_abutting_sideways_not_connected() {
        // Side-by-side min-width boxes share a long edge; skeleton centre
        // lines are 20 apart -> not skeletally connected (the butted-halves
        // pathology of Fig. 15).
        let a = Skeleton::of_rect(&Rect::new(0, 0, 100, 20), H).unwrap();
        let b = Skeleton::of_rect(&Rect::new(0, 20, 100, 40), H).unwrap();
        assert!(!a.connected_to(&b));
    }

    #[test]
    fn under_width_elements_have_no_skeleton() {
        assert!(Skeleton::of_rect(&Rect::new(0, 0, 100, 19), H).is_none());
        assert!(Skeleton::of_rect(&Rect::new(0, 0, 19, 100), H).is_none());
    }

    #[test]
    fn exact_min_width_box_has_degenerate_skeleton() {
        let s = Skeleton::of_rect(&Rect::new(0, 0, 20, 20), H).unwrap();
        let back = s.rects();
        assert_eq!(back, vec![Rect::new(10, 10, 10, 10)]);
    }

    #[test]
    fn wire_skeletons_connect_through_bends() {
        let w1 = Wire::new(20, vec![Point::new(0, 0), Point::new(100, 0)]).unwrap();
        let w2 = Wire::new(20, vec![Point::new(100, 0), Point::new(100, 100)]).unwrap();
        let s1 = Skeleton::of_wire(&w1, H).unwrap();
        let s2 = Skeleton::of_wire(&w2, H).unwrap();
        assert!(s1.connected_to(&s2));
    }

    #[test]
    fn wire_to_box_connection() {
        // A wire ending inside a contact-sized box.
        let w = Wire::new(20, vec![Point::new(0, 10), Point::new(110, 10)]).unwrap();
        let b = Rect::new(100, 0, 140, 40);
        let sw = Skeleton::of_wire(&w, H).unwrap();
        let sb = Skeleton::of_rect(&b, H).unwrap();
        assert!(sw.connected_to(&sb));
    }

    #[test]
    fn region_skeleton_of_l_shape() {
        // L-shaped min-width path as a region: skeleton must stay connected
        // around the corner.
        let l = Region::from_rects([Rect::new(0, 0, 100, 20), Rect::new(80, 0, 100, 100)]);
        let s = Skeleton::of_region(&l, H).unwrap();
        // Single connected piece: every scaled rect connects transitively.
        // (Weaker check: it is non-empty and connects to itself.)
        assert!(s.connected_to(&s));
        // And it must connect to a wire whose centre line reaches into the
        // arm far enough for the skeletons to meet (y = 80 reaches the arm
        // skeleton, which ends at y = 90).
        let w = Wire::new(20, vec![Point::new(90, 80), Point::new(90, 200)]).unwrap();
        let sw = Skeleton::of_wire(&w, H).unwrap();
        assert!(s.connected_to(&sw));
        // A wire merely abutting the arm's top edge is NOT connected.
        let abut = Wire::new(20, vec![Point::new(90, 110), Point::new(90, 200)]).unwrap();
        let s_abut = Skeleton::of_wire(&abut, H).unwrap();
        assert!(!s.connected_to(&s_abut));
    }

    #[test]
    fn region_skeleton_none_for_underwidth() {
        let thin = Region::from_rect(Rect::new(0, 0, 100, 10));
        assert!(Skeleton::of_region(&thin, H).is_none());
    }

    #[test]
    fn region_and_rect_skeletons_agree() {
        // For a plain box, of_region and of_rect must give the same verdicts.
        let r = Rect::new(0, 0, 60, 20);
        let s_rect = Skeleton::of_rect(&r, H).unwrap();
        let s_region = Skeleton::of_region(&Region::from_rect(r), H).unwrap();
        let probe = Skeleton::of_rect(&Rect::new(50, 0, 160, 20), H).unwrap();
        assert_eq!(s_rect.connected_to(&probe), s_region.connected_to(&probe));
        let far = Skeleton::of_rect(&Rect::new(80, 0, 200, 20), H).unwrap();
        assert_eq!(s_rect.connected_to(&far), s_region.connected_to(&far));
    }

    #[test]
    fn diagonal_skeleton_touch_counts() {
        // Skeleton segments meeting corner-to-corner: closed sets share a
        // point -> connected.
        let a = Skeleton::of_rect(&Rect::new(0, 0, 20, 20), H).unwrap(); // point (10,10)
        let b = Skeleton::of_rect(&Rect::new(10, 10, 30, 30), H).unwrap(); // point (20,20)
        assert!(!a.connected_to(&b));
        let c = Skeleton::of_rect(&Rect::new(0, 0, 20, 20), H).unwrap();
        let d = Skeleton::of_rect(&Rect::new(-10, -10, 10, 10), H).unwrap(); // point (0,0)
        assert!(!c.connected_to(&d));
        // Same point skeletons:
        let e = Skeleton::of_rect(&Rect::new(0, 0, 20, 20), H).unwrap();
        let f = Skeleton::of_rect(&Rect::new(0, 0, 20, 20), H).unwrap();
        assert!(e.connected_to(&f));
    }
}
