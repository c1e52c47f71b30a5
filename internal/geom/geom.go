// Package geom provides the integer geometry primitives shared by the
// placement and routing phases of the schematic diagram generator: points,
// rectangles, closed intervals, axis directions, module sides, and the
// right-angle orientations used when rotating module symbols.
//
// All coordinates are integers. The paper (Koster & Stok, EUT 89-E-219)
// works on an integer track grid; one unit is one routing track.
package geom

import "fmt"

// Point is an integer grid coordinate. Y grows upward, matching the
// paper's "lower left coordinate" convention.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) int { return Abs(p.X-q.X) + Abs(p.Y-q.Y) }

// SqDist returns the squared Euclidean distance between p and q.
// The placement phase compares squared distances (PLACE_BOX in §4.6.5),
// avoiding floating point entirely.
func (p Point) SqDist(q Point) int {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Abs returns the absolute value of x.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Min returns the smaller of a and b.
func Min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Rect is an axis-aligned rectangle with inclusive Min and exclusive Max
// corner semantics for area purposes, i.e. it covers grid cells
// Min.X <= x < Max.X, Min.Y <= y < Max.Y. A module of size (w,h) placed
// at lower-left (x,y) occupies Rect{Pt(x,y), Pt(x+w, y+h)}.
type Rect struct {
	Min, Max Point
}

// R is shorthand for a rectangle from (x0,y0) to (x1,y1). It normalizes
// the corners so Min is component-wise <= Max.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// Dx returns the width of r.
func (r Rect) Dx() int { return r.Max.X - r.Min.X }

// Dy returns the height of r.
func (r Rect) Dy() int { return r.Max.Y - r.Min.Y }

// Empty reports whether r covers no cells.
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Area returns the number of cells covered by r.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Dx() * r.Dy()
}

// Contains reports whether p lies inside r (Min inclusive, Max exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Overlaps reports whether r and s share at least one cell.
func (r Rect) Overlaps(s Rect) bool {
	return !r.Empty() && !s.Empty() &&
		r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// Union returns the smallest rectangle containing both r and s. Empty
// rectangles are treated as the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Point{Min(r.Min.X, s.Min.X), Min(r.Min.Y, s.Min.Y)},
		Point{Max(r.Max.X, s.Max.X), Max(r.Max.Y, s.Max.Y)},
	}
}

// Intersect returns the largest rectangle contained in both r and s.
// If they do not overlap the result is empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Point{Max(r.Min.X, s.Min.X), Max(r.Min.Y, s.Min.Y)},
		Point{Min(r.Max.X, s.Max.X), Min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.Min.Add(d), r.Max.Add(d)}
}

// Inset returns r shrunk by n cells on every side (grown when n is
// negative). The result may be empty.
func (r Rect) Inset(n int) Rect {
	return Rect{Point{r.Min.X + n, r.Min.Y + n}, Point{r.Max.X - n, r.Max.Y - n}}
}

// Center returns the integer center of r (rounded toward Min).
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v-%v]", r.Min, r.Max)
}

// Interval is a closed integer interval [Lo, Hi]. Routing segments use
// closed intervals: a segment at index i covering x..y touches every
// track cell between x and y inclusive (the paper's (i, x, y) triples).
type Interval struct {
	Lo, Hi int
}

// Iv is shorthand for Interval{lo, hi}, normalized so Lo <= Hi.
func Iv(lo, hi int) Interval {
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{lo, hi}
}

// Len returns the number of cells covered by the closed interval.
func (iv Interval) Len() int { return iv.Hi - iv.Lo + 1 }

// Valid reports whether Lo <= Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether v lies within the closed interval.
func (iv Interval) Contains(v int) bool { return v >= iv.Lo && v <= iv.Hi }

// Overlaps reports whether two closed intervals share a point.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the common part of two closed intervals. The result
// is invalid (Lo > Hi) when they do not overlap.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Max(iv.Lo, o.Lo), Min(iv.Hi, o.Hi)}
}

// Subtract removes o from iv and returns the up-to-two remaining pieces.
func (iv Interval) Subtract(o Interval) []Interval {
	if !iv.Overlaps(o) {
		return []Interval{iv}
	}
	var out []Interval
	if o.Lo > iv.Lo {
		out = append(out, Interval{iv.Lo, o.Lo - 1})
	}
	if o.Hi < iv.Hi {
		out = append(out, Interval{o.Hi + 1, iv.Hi})
	}
	return out
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d..%d]", iv.Lo, iv.Hi) }

// Dir is one of the four axis directions used for expansion and for
// terminal sides.
type Dir int

// The four axis directions. The zero value is Left so that the paper's
// {left, right, up, down} enumeration maps onto 0..3.
const (
	Left Dir = iota
	Right
	Up
	Down
)

// Dirs lists all four directions, useful for range loops.
var Dirs = [4]Dir{Left, Right, Up, Down}

// Opposite returns the direction pointing the other way.
func (d Dir) Opposite() Dir {
	switch d {
	case Left:
		return Right
	case Right:
		return Left
	case Up:
		return Down
	default:
		return Up
	}
}

// Horizontal reports whether d is Left or Right.
func (d Dir) Horizontal() bool { return d == Left || d == Right }

// Delta returns the unit step vector of d.
func (d Dir) Delta() Point {
	switch d {
	case Left:
		return Point{-1, 0}
	case Right:
		return Point{1, 0}
	case Up:
		return Point{0, 1}
	default:
		return Point{0, -1}
	}
}

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Left:
		return "left"
	case Right:
		return "right"
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// Orient is a right-angle orientation of a module symbol: the number of
// counter-clockwise quarter turns applied to it. The module placement
// phase rotates modules so that the terminal connected to the previous
// string element faces left (§4.6.4).
type Orient int

// The four orientations.
const (
	R0   Orient = iota // as drawn in the library
	R90                // 90° counter-clockwise
	R180               // 180°
	R270               // 270° counter-clockwise (= 90° clockwise)
)

// String implements fmt.Stringer.
func (o Orient) String() string {
	switch o {
	case R0:
		return "R0"
	case R90:
		return "R90"
	case R180:
		return "R180"
	case R270:
		return "R270"
	default:
		return fmt.Sprintf("Orient(%d)", int(o))
	}
}

// Add composes two rotations.
func (o Orient) Add(p Orient) Orient { return Orient((int(o) + int(p)) % 4) }

// RotateSize returns the size of a (w,h) module after rotation.
func (o Orient) RotateSize(w, h int) (int, int) {
	if o == R90 || o == R270 {
		return h, w
	}
	return w, h
}

// RotatePoint maps a point given relative to the lower-left corner of an
// unrotated (w,h) module onto its position relative to the lower-left
// corner of the rotated module.
func (o Orient) RotatePoint(p Point, w, h int) Point {
	switch o {
	case R90: // (x,y) -> (h-y, x)  ... lower-left preserved after CCW turn
		return Point{h - p.Y, p.X}
	case R180:
		return Point{w - p.X, h - p.Y}
	case R270:
		return Point{p.Y, w - p.X}
	default:
		return p
	}
}

// ccw is one CCW quarter turn: left->down, down->right, right->up,
// up->left.
var ccw = [...]Dir{Left: Down, Down: Right, Right: Up, Up: Left}

// RotateDir maps a side/direction through the rotation.
func (o Orient) RotateDir(d Dir) Dir {
	for i := 0; i < int(o); i++ {
		d = ccw[d]
	}
	return d
}

// OrientTaking returns the orientation that maps side `from` onto side
// `to`. It is used to rotate a module so the side holding a given
// terminal faces a desired direction.
func OrientTaking(from, to Dir) Orient {
	for _, o := range []Orient{R0, R90, R180, R270} {
		if o.RotateDir(from) == to {
			return o
		}
	}
	return R0 // unreachable: the four rotations cover all mappings
}
