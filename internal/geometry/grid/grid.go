// Package grid is a uniform spatial-hash index over point-anchored
// items with a bounded reach. It is the geometry layer behind O(n + m +
// edges) incidence construction: deployment and utility assembly used
// to test every sensor against every target (O(n·m) distance checks);
// with the index, a coverage query inspects only the 3×3 cell
// neighbourhood of the query point.
//
// The package is deliberately dependency-free (its Point is
// structurally identical to geometry.Point, so callers convert with a
// plain type conversion). The contract is *candidate generation*, not
// containment: Candidates(p) returns a superset of every item whose
// footprint can contain p, and the caller applies its exact
// Contains/Covers predicate to the candidates. Because the filter is
// exact, the index can be conservative at floating-point boundaries
// without ever changing a result — the differential tests in this
// package and in internal/wsn hold the filtered incidence to *exact*
// equality with the brute-force scan.
//
// Layout: one counting-sorted bucket array (CSR-style Offs/ids pair,
// the same discipline as submodular.CSR) over a cols×rows cell grid
// whose cell side is at least the maximum item reach, so a query never
// needs to look beyond the neighbouring cell in each direction. Within
// a cell, item IDs are ascending (the counting sort is stable over the
// ascending input enumeration), and CandidatesInto sorts the ≤ 9
// visited buckets into one ascending ID list with zero allocations.
package grid

import (
	"math"
	"slices"
)

// Point is a location in the plane. It is structurally identical to
// geometry.Point; convert with grid.Point(p).
type Point struct {
	X, Y float64
}

// Item is one indexed object: an anchor position and a reach. The
// item's footprint must be contained in the axis-aligned square
// [Pos.X±Reach] × [Pos.Y±Reach]; for a sensing disk the anchor is the
// center and the reach the radius, for an arbitrary footprint the
// reach is the Chebyshev distance from the anchor to the farthest
// corner of the footprint's bounding box.
type Item struct {
	Pos   Point
	Reach float64
}

// Index is the spatial-hash index built by Build. The bucket CSR is
// immutable; Insert adds items to a small dynamic overlay scanned
// linearly by every query, so perturbation-scale additions (new
// deployment batches between replans) never rebuild the bucket array.
// Queries stay exact-superset and ascending either way; rebuild with
// Build when the overlay grows to a meaningful fraction of the index.
type Index struct {
	ox, oy     float64 // origin: min corner of the anchor bounding box
	invX, invY float64 // 1 / cell side per axis (0 for a 1-cell axis)
	winX, winY float64 // query half-window in cell units: maxReach·inv + slack
	maxReach   float64 // max reach of the gridded population at Build time
	cols, rows int

	// start/ids is the counting-sorted bucket CSR: cell (c, r)'s items
	// are ids[start[r*cols+c]:start[r*cols+c+1]], ascending.
	start []int32
	ids   []int32

	// overflow holds items that cannot be placed in a finite cell
	// (non-finite anchor or reach). They are candidates for every
	// query, keeping Candidates a true superset without error paths.
	overflow []int32

	// The dynamic overlay: items added by Insert, in insertion order
	// (their IDs continue past the built population, so the overlay is
	// one ascending run). dynCX/dynCY hold the item's clamped cell, or
	// -1 when the item cannot be placed safely under the built geometry
	// (anchor outside the built bounding box, reach beyond the built
	// maxReach, or non-finite) — such items are candidates for every
	// query, like overflow.
	dynIDs []int32
	dynCX  []int32
	dynCY  []int32

	n int
}

// slack widens the query window by a relative epsilon so that anchors
// lying exactly on a cell boundary can never be missed through
// floating-point rounding of the cell arithmetic. The exact
// Contains-filter on the caller's side makes the extra candidates
// harmless.
const slack = 1.0000001

// maxCellsPerAxis bounds the grid resolution so the bucket array stays
// O(n) even when reaches are tiny relative to the field extent.
func maxCellsPerAxis(n int) int {
	limit := int(math.Ceil(math.Sqrt(float64(4*n + 1))))
	if limit < 1 {
		limit = 1
	}
	return limit
}

// Build indexes the items. It never fails: items whose anchor or reach
// is not finite fall into an overflow list that every query returns,
// so the candidate-superset contract holds for arbitrary input. The
// index holds no reference to the items slice.
func Build(items []Item) *Index {
	ix := &Index{n: len(items)}
	// Pass 1: classify items, find the anchor bounding box and the
	// maximum reach of the gridded population.
	var (
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		maxReach   float64
		gridded    int
	)
	finite := itemFinite
	for _, it := range items {
		if !finite(it) {
			continue
		}
		gridded++
		minX = math.Min(minX, it.Pos.X)
		maxX = math.Max(maxX, it.Pos.X)
		minY = math.Min(minY, it.Pos.Y)
		maxY = math.Max(maxY, it.Pos.Y)
		if it.Reach > maxReach {
			maxReach = it.Reach // negative reaches degrade to 0
		}
	}
	if gridded == 0 {
		ix.cols, ix.rows = 1, 1
		ix.start = make([]int32, 2)
		for i, it := range items {
			if !finite(it) {
				ix.overflow = append(ix.overflow, int32(i))
			}
		}
		return ix
	}
	ix.ox, ix.oy = minX, minY
	ix.maxReach = maxReach
	limit := maxCellsPerAxis(gridded)
	ix.cols, ix.invX = axisCells(maxX-minX, maxReach, limit)
	ix.rows, ix.invY = axisCells(maxY-minY, maxReach, limit)
	// The query half-window, in cell units: a covering item's anchor
	// lies within maxReach of the query on each axis, i.e. within
	// maxReach·inv fractional cells; slack absorbs boundary rounding.
	// When the cell side is ≥ maxReach (the normal regime) this is ≤ 1
	// + slack, so a query visits at most a 3×3 neighbourhood; clamped
	// single-cell axes may exceed 1 but degenerate to scanning the axis.
	ix.winX = maxReach*ix.invX + slack
	ix.winY = maxReach*ix.invY + slack

	// Pass 2: counting sort into buckets. Enumerating items in
	// ascending ID order makes every bucket ascending (stable sort).
	ncells := ix.cols * ix.rows
	ix.start = make([]int32, ncells+1)
	cellOf := make([]int32, len(items))
	for i, it := range items {
		if !finite(it) {
			cellOf[i] = -1
			ix.overflow = append(ix.overflow, int32(i))
			continue
		}
		c := ix.clampCell((it.Pos.X-ix.ox)*ix.invX, ix.cols)
		r := ix.clampCell((it.Pos.Y-ix.oy)*ix.invY, ix.rows)
		cell := int32(r*ix.cols + c)
		cellOf[i] = cell
		ix.start[cell+1]++
	}
	for c := 0; c < ncells; c++ {
		ix.start[c+1] += ix.start[c]
	}
	ix.ids = make([]int32, gridded)
	cursor := make([]int32, ncells)
	for i := range items {
		cell := cellOf[i]
		if cell < 0 {
			continue
		}
		ix.ids[ix.start[cell]+cursor[cell]] = int32(i)
		cursor[cell]++
	}
	return ix
}

// itemFinite reports whether the item can be placed in a finite cell.
func itemFinite(it Item) bool {
	return !math.IsNaN(it.Pos.X) && !math.IsInf(it.Pos.X, 0) &&
		!math.IsNaN(it.Pos.Y) && !math.IsInf(it.Pos.Y, 0) &&
		!math.IsNaN(it.Reach) && !math.IsInf(it.Reach, 0)
}

// axisCells picks the cell count and inverse cell side for one axis of
// extent w. The cell side is kept ≥ the maximum reach (so a covering
// item's anchor is at most one cell away from the query's cell) and
// the cell count is capped at limit (so the bucket array stays O(n)).
func axisCells(w, maxReach float64, limit int) (cells int, inv float64) {
	if !(w > 0) || math.IsInf(w, 0) {
		return 1, 0 // degenerate axis: every anchor shares one cell
	}
	cells = limit
	if maxReach > 0 {
		// cells ≤ w/maxReach ⇒ cell side w/cells ≥ maxReach.
		if byReach := int(math.Floor(w / maxReach)); byReach < cells {
			cells = byReach
		}
	}
	if cells < 1 {
		cells = 1
	}
	inv = float64(cells) / w
	if math.IsInf(inv, 0) || math.IsNaN(inv) {
		return 1, 0 // w denormal: cell arithmetic would overflow
	}
	return cells, inv
}

// clampCell converts a fractional cell coordinate to an in-range index.
// Anchors landing exactly on the far boundary (coordinate == cells)
// clamp into the last cell; the query window's slack covers the shift.
func (ix *Index) clampCell(a float64, cells int) int {
	if !(a > 0) { // also catches NaN defensively
		return 0
	}
	if a >= float64(cells) {
		return cells - 1
	}
	return int(a)
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return ix.n }

// Columns returns the number of cell columns along the x axis. The
// column boundaries are the natural cut lines for geometric sharding:
// the cell side is at least the maximum item reach, so an item whose
// anchor is more than one column away from a cut can never have a
// footprint crossing it.
func (ix *Index) Columns() int { return ix.cols }

// ColumnOf returns the cell column an x coordinate falls in, clamped to
// [0, Columns()). Non-finite coordinates clamp to column 0, mirroring
// the defensive NaN handling of the bucket assignment.
func (ix *Index) ColumnOf(x float64) int {
	return ix.clampCell((x-ix.ox)*ix.invX, ix.cols)
}

// ColumnLeft returns the x coordinate of column c's left boundary
// (c may equal Columns(), giving the right edge of the last column).
// On a degenerate single-cell axis every boundary collapses to the
// origin.
func (ix *Index) ColumnLeft(c int) float64 {
	if ix.invX == 0 {
		return ix.ox
	}
	return ix.ox + float64(c)/ix.invX
}

// Dims returns the cell-grid dimensions (cols, rows).
func (ix *Index) Dims() (int, int) { return ix.cols, ix.rows }

// Overflow returns how many items were not gridded (non-finite anchor
// or reach) and are therefore returned by every query.
func (ix *Index) Overflow() int { return len(ix.overflow) }

// Candidates returns the IDs of every item whose footprint may contain
// p, in ascending order with no duplicates. It allocates a fresh
// slice; use CandidatesInto on hot paths.
func (ix *Index) Candidates(p Point) []int32 {
	return ix.CandidatesInto(nil, p)
}

// CandidatesInto appends the candidate IDs for p to buf[:0] and
// returns the extended slice, ascending and duplicate-free. When buf
// has sufficient capacity the query performs no allocations. The
// result is a superset of the items covering p: an item covering p has
// |Pos.X−p.X| ≤ Reach and |Pos.Y−p.Y| ≤ Reach (the Item contract), so
// its anchor cell lies within the ±win window around p's fractional
// cell coordinate that cellRange scans.
func (ix *Index) CandidatesInto(buf []int32, p Point) []int32 {
	return ix.queryInto(buf, p, 0)
}

// WithinInto appends to buf[:0] a superset of every item whose
// footprint square [Pos±Reach] intersects the query square [p±reach],
// ascending and duplicate-free, and returns the extended slice. With
// reach = 0 it is exactly CandidatesInto. The incremental incidence
// path uses it in the reversed orientation: a grid over point targets
// (Reach 0), queried with a new sensor's position and reach, yields
// every target the sensor's footprint could contain. Like
// CandidatesInto it performs no allocations when buf has capacity.
func (ix *Index) WithinInto(buf []int32, p Point, reach float64) []int32 {
	return ix.queryInto(buf, p, reach)
}

// queryInto is the shared query body: an intersecting item's anchor
// lies within reach + Reach ≤ reach + maxReach of p on each axis, i.e.
// within reach·inv + win fractional cells of p's cell coordinate
// (win = maxReach·inv + slack), so scanning that window plus the
// overflow and overlay lists keeps the superset contract. A negative
// query reach degrades to 0; a NaN or infinite one scans every cell
// (cellRange degrades non-finite windows to the full axis).
func (ix *Index) queryInto(buf []int32, p Point, reach float64) []int32 {
	buf = buf[:0]
	if ix.n == 0 {
		return buf
	}
	buf = append(buf, ix.overflow...)
	wx, wy := ix.winX, ix.winY
	if reach > 0 {
		wx += reach * ix.invX
		wy += reach * ix.invY
	} else if math.IsNaN(reach) {
		wx, wy = math.NaN(), math.NaN()
	}
	cLo, cHi, ok := cellRange((p.X-ix.ox)*ix.invX, wx, ix.cols)
	rLo, rHi, okY := 0, -1, false
	if ok {
		rLo, rHi, okY = cellRange((p.Y-ix.oy)*ix.invY, wy, ix.rows)
	}
	if ok && okY {
		for r := rLo; r <= rHi; r++ {
			base := r * ix.cols
			lo, hi := ix.start[base+cLo], ix.start[base+cHi+1]
			buf = append(buf, ix.ids[lo:hi]...)
		}
	}
	// Dynamic overlay: inserted items are tested against the same cell
	// window their bucket placement would have used; unplaceable ones
	// (cell -1) are candidates for every query, like overflow.
	for k, id := range ix.dynIDs {
		cx := int(ix.dynCX[k])
		if cx < 0 {
			buf = append(buf, id)
			continue
		}
		if ok && okY && cx >= cLo && cx <= cHi {
			if cy := int(ix.dynCY[k]); cy >= rLo && cy <= rHi {
				buf = append(buf, id)
			}
		}
	}
	// The buffer is a concatenation of ascending runs (overflow, one
	// per visited bucket — ascending by the stable counting sort — and
	// the overlay's ascending insertion order). Runs from adjacent cells
	// interleave in ID, so the sort is O(c log c) in the candidate count
	// c = O(local density + overlay size); slices.Sort is
	// allocation-free.
	slices.Sort(buf)
	return buf
}

// Insert adds an item to the index's dynamic overlay and returns its
// ID (continuing the built population's numbering). The bucket CSR is
// not rebuilt: the item is assigned the cell its anchor falls in and
// tested per query, so an insert is O(1) and — after Grow has
// reserved capacity — allocation-free. Items the built geometry cannot
// place safely (anchor outside the built bounding box, reach beyond
// the built maximum, or non-finite coordinates) become candidates for
// every query: conservative, never wrong, exactly like Build's
// overflow bucket.
func (ix *Index) Insert(it Item) int {
	id := ix.n
	ix.n++
	cx, cy := int32(-1), int32(-1)
	if itemFinite(it) && it.Reach <= ix.maxReach {
		fx := (it.Pos.X - ix.ox) * ix.invX
		fy := (it.Pos.Y - ix.oy) * ix.invY
		// The built slack covers anchors landing exactly on the far
		// boundary (fx == cols), same as Build's clamp; anything beyond
		// the box would shift by more than slack and could be missed.
		if fx >= 0 && fx <= float64(ix.cols) && fy >= 0 && fy <= float64(ix.rows) {
			cx = int32(ix.clampCell(fx, ix.cols))
			cy = int32(ix.clampCell(fy, ix.rows))
		}
	}
	ix.dynIDs = append(ix.dynIDs, int32(id))
	ix.dynCX = append(ix.dynCX, cx)
	ix.dynCY = append(ix.dynCY, cy)
	return id
}

// Grow reserves overlay capacity for extra future Inserts so each one
// performs no allocations.
func (ix *Index) Grow(extra int) {
	if extra <= 0 {
		return
	}
	need := len(ix.dynIDs) + extra
	if cap(ix.dynIDs) < need {
		ids := make([]int32, len(ix.dynIDs), need)
		copy(ids, ix.dynIDs)
		ix.dynIDs = ids
	}
	if cap(ix.dynCX) < need {
		cs := make([]int32, len(ix.dynCX), need)
		copy(cs, ix.dynCX)
		ix.dynCX = cs
	}
	if cap(ix.dynCY) < need {
		cs := make([]int32, len(ix.dynCY), need)
		copy(cs, ix.dynCY)
		ix.dynCY = cs
	}
}

// Dynamic returns how many items live in the post-Build overlay.
func (ix *Index) Dynamic() int { return len(ix.dynIDs) }

// cellRange maps a fractional cell coordinate to the closed cell index
// window [lo, hi] a query must scan: win cells either side (floor
// monotonicity — every anchor within ±win of a lands in a cell of
// [⌊a−win⌋, ⌊a+win⌋]). ok is false when the window misses the grid
// entirely (query far outside the indexed area). A non-finite
// coordinate (overflowing or degenerate axis arithmetic, e.g. ∞·0)
// degrades to the full axis — returning extra candidates is always
// legal, missing one never is.
func cellRange(a, win float64, cells int) (lo, hi int, ok bool) {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return 0, cells - 1, true
	}
	loF := math.Floor(a - win)
	hiF := math.Floor(a + win)
	if hiF < 0 || loF >= float64(cells) {
		return 0, -1, false
	}
	lo = 0
	if loF > 0 {
		lo = int(loF)
	}
	hi = cells - 1
	if hiF < float64(cells-1) {
		hi = int(hiF)
	}
	return lo, hi, true
}
