//! Axis-aligned rectangles.

use crate::{Coord, Point, Vector};
use std::fmt;

/// A closed axis-aligned rectangle `[x1, x2] × [y1, y2]`.
///
/// Degenerate rectangles (`x1 == x2` and/or `y1 == y2`) are permitted: they
/// arise naturally as the *skeletons* of minimum-width elements (paper
/// Fig. 11) and participate in touch/overlap predicates like any other
/// rectangle.
///
/// # Example
///
/// ```
/// use diic_geom::Rect;
/// let r = Rect::new(0, 0, 40, 20);
/// assert_eq!(r.width(), 40);
/// assert_eq!(r.height(), 20);
/// assert_eq!(r.area(), 800);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x1: Coord,
    /// Bottom edge.
    pub y1: Coord,
    /// Right edge (`>= x1`).
    pub x2: Coord,
    /// Top edge (`>= y1`).
    pub y2: Coord,
}

impl Rect {
    /// Creates a rectangle, normalising the corner order.
    pub fn new(x1: Coord, y1: Coord, x2: Coord, y2: Coord) -> Self {
        Rect {
            x1: x1.min(x2),
            y1: y1.min(y2),
            x2: x1.max(x2),
            y2: y1.max(y2),
        }
    }

    /// Creates a rectangle from a centre point and full side lengths
    /// (the CIF `B length width center` convention).
    ///
    /// Odd lengths are truncated toward the centre (CIF layouts use even
    /// dimensions in practice).
    pub fn from_center(center: Point, length: Coord, width: Coord) -> Self {
        Rect::new(
            center.x - length / 2,
            center.y - width / 2,
            center.x - length / 2 + length,
            center.y - width / 2 + width,
        )
    }

    /// Creates the rectangle spanning two corner points.
    pub fn from_points(a: Point, b: Point) -> Self {
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Horizontal extent.
    pub fn width(&self) -> Coord {
        self.x2 - self.x1
    }

    /// Vertical extent.
    pub fn height(&self) -> Coord {
        self.y2 - self.y1
    }

    /// The smaller of width and height — the quantity checked by minimum
    /// width rules on box elements.
    pub fn min_side(&self) -> Coord {
        self.width().min(self.height())
    }

    /// Area in square database units (`i128`: cannot overflow).
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// True if the rectangle has zero area (a segment or point).
    pub fn is_degenerate(&self) -> bool {
        self.x1 == self.x2 || self.y1 == self.y2
    }

    /// Centre point (rounded toward negative infinity on odd extents).
    pub fn center(&self) -> Point {
        Point::new(self.x1 + self.width() / 2, self.y1 + self.height() / 2)
    }

    /// Bottom-left corner.
    pub fn lower_left(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Top-right corner.
    pub fn upper_right(&self) -> Point {
        Point::new(self.x2, self.y2)
    }

    /// The four corner points, counter-clockwise from bottom-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.x1, self.y1),
            Point::new(self.x2, self.y1),
            Point::new(self.x2, self.y2),
            Point::new(self.x1, self.y2),
        ]
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains_point(&self, p: Point) -> bool {
        self.x1 <= p.x && p.x <= self.x2 && self.y1 <= p.y && p.y <= self.y2
    }

    /// True if `p` lies strictly inside.
    pub fn contains_point_strict(&self, p: Point) -> bool {
        self.x1 < p.x && p.x < self.x2 && self.y1 < p.y && p.y < self.y2
    }

    /// True if `other` lies entirely within `self` (boundaries may touch).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x1 <= other.x1 && other.x2 <= self.x2 && self.y1 <= other.y1 && other.y2 <= self.y2
    }

    /// True if the closed rectangles share at least one point
    /// (touching edges or corners count).
    pub fn touches(&self, other: &Rect) -> bool {
        self.x1 <= other.x2 && other.x1 <= self.x2 && self.y1 <= other.y2 && other.y1 <= self.y2
    }

    /// True if the rectangles share interior area (touching does not count).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x1 < other.x2 && other.x1 < self.x2 && self.y1 < other.y2 && other.y1 < self.y2
    }

    /// Intersection of the closed rectangles, if non-empty
    /// (may be degenerate when they merely touch).
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.touches(other) {
            return None;
        }
        Some(Rect {
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
            x2: self.x2.min(other.x2),
            y2: self.y2.min(other.y2),
        })
    }

    /// Smallest rectangle containing both.
    pub fn bounding_union(&self, other: &Rect) -> Rect {
        Rect {
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
            x2: self.x2.max(other.x2),
            y2: self.y2.max(other.y2),
        }
    }

    /// Expands (positive `d`) or shrinks (negative `d`) every side by `d`.
    ///
    /// Shrinking below zero extent returns `None`. Sides saturate at the
    /// coordinate range instead of overflowing, so a non-negative `d`
    /// always returns `Some`.
    pub fn inflate(&self, d: Coord) -> Option<Rect> {
        let r = Rect {
            x1: self.x1.saturating_sub(d),
            y1: self.y1.saturating_sub(d),
            x2: self.x2.saturating_add(d),
            y2: self.y2.saturating_add(d),
        };
        if r.x1 <= r.x2 && r.y1 <= r.y2 {
            Some(r)
        } else {
            None
        }
    }

    /// Translates the rectangle by `v`.
    pub fn translate(&self, v: Vector) -> Rect {
        Rect {
            x1: self.x1 + v.x,
            y1: self.y1 + v.y,
            x2: self.x2 + v.x,
            y2: self.y2 + v.y,
        }
    }

    /// Component-wise gap to `other`: `(dx, dy)` are the separations along
    /// each axis (zero when the projections overlap).
    ///
    /// From these, any metric distance follows:
    /// L2² = dx² + dy², L∞ = max(dx, dy), L1 = dx + dy.
    pub fn gap(&self, other: &Rect) -> (Coord, Coord) {
        let dx = (other.x1 - self.x2).max(self.x1 - other.x2).max(0);
        let dy = (other.y1 - self.y2).max(self.y1 - other.y2).max(0);
        (dx, dy)
    }

    /// Squared Euclidean distance between the closed rectangles
    /// (zero when they touch or overlap).
    pub fn dist_sq(&self, other: &Rect) -> i128 {
        let (dx, dy) = self.gap(other);
        dx as i128 * dx as i128 + dy as i128 * dy as i128
    }

    /// Chebyshev (L∞) distance between the closed rectangles.
    pub fn dist_linf(&self, other: &Rect) -> Coord {
        let (dx, dy) = self.gap(other);
        dx.max(dy)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} .. {},{}]", self.x1, self.y1, self.x2, self.y2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        let r = Rect::new(10, 20, 0, 0);
        assert_eq!(r, Rect::new(0, 0, 10, 20));
    }

    #[test]
    fn from_center_matches_cif_convention() {
        // CIF: B 40 20 10,10 — length(x)=40, width(y)=20, centred at (10,10).
        let r = Rect::from_center(Point::new(10, 10), 40, 20);
        assert_eq!(r, Rect::new(-10, 0, 30, 20));
    }

    #[test]
    fn containment_and_touching() {
        let big = Rect::new(0, 0, 100, 100);
        let small = Rect::new(10, 10, 20, 20);
        assert!(big.contains_rect(&small));
        assert!(!small.contains_rect(&big));
        let adjacent = Rect::new(100, 0, 200, 100);
        assert!(big.touches(&adjacent));
        assert!(!big.overlaps(&adjacent));
        let corner = Rect::new(100, 100, 120, 120);
        assert!(big.touches(&corner));
        let apart = Rect::new(101, 0, 200, 100);
        assert!(!big.touches(&apart));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        let edge = Rect::new(10, 0, 20, 10);
        let i = a.intersection(&edge).unwrap();
        assert!(i.is_degenerate());
        assert_eq!(i, Rect::new(10, 0, 10, 10));
        assert_eq!(a.intersection(&Rect::new(20, 20, 30, 30)), None);
    }

    #[test]
    fn gap_and_distances() {
        let a = Rect::new(0, 0, 10, 10);
        let right = Rect::new(13, 0, 20, 10);
        assert_eq!(a.gap(&right), (3, 0));
        assert_eq!(a.dist_sq(&right), 9);
        assert_eq!(a.dist_linf(&right), 3);
        // Diagonal gap: corner-to-corner.
        let diag = Rect::new(13, 14, 20, 20);
        assert_eq!(a.gap(&diag), (3, 4));
        assert_eq!(a.dist_sq(&diag), 25);
        assert_eq!(a.dist_linf(&diag), 4);
        // Overlapping rectangles have zero distance.
        let over = Rect::new(5, 5, 15, 15);
        assert_eq!(a.dist_sq(&over), 0);
    }

    #[test]
    fn inflate_and_shrink() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.inflate(5), Some(Rect::new(-5, -5, 15, 15)));
        assert_eq!(r.inflate(-5), Some(Rect::new(5, 5, 5, 5)));
        assert_eq!(r.inflate(-6), None);
    }

    #[test]
    fn inflate_saturates_at_the_coordinate_range() {
        let r = Rect::new(Coord::MAX - 10, Coord::MIN + 10, Coord::MAX - 5, 0);
        assert_eq!(
            r.inflate(100),
            Some(Rect::new(Coord::MAX - 110, Coord::MIN, Coord::MAX, 100))
        );
        let whole = Rect::new(Coord::MIN, Coord::MIN, Coord::MAX, Coord::MAX);
        assert_eq!(whole.inflate(Coord::MAX), Some(whole));
    }

    #[test]
    fn degenerate_skeleton_touch() {
        // A minimum-width box shrinks to a degenerate segment; touching
        // skeletons must still be detected (paper Fig. 11).
        let seg_a = Rect::new(0, 5, 10, 5);
        let seg_b = Rect::new(10, 5, 20, 5);
        assert!(seg_a.touches(&seg_b));
        assert!(seg_a.is_degenerate());
    }

    #[test]
    fn area_min_side() {
        let r = Rect::new(0, 0, 30, 20);
        assert_eq!(r.area(), 600);
        assert_eq!(r.min_side(), 20);
        assert_eq!(r.center(), Point::new(15, 10));
    }
}
