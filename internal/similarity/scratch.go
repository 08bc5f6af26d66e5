package similarity

// Scratch holds the reusable working buffers of the character-matching
// measures: the matched-flag arrays of Jaro, Monge-Elkan's column maxima,
// and the pattern-mask tables and block state of the Myers bit-parallel
// edit distance. A pair scan evaluates millions of similarity calls; without
// scratch every call allocates its working set anew, and that allocation —
// not the arithmetic — dominates the profile. One Scratch serves one
// goroutine; callers fanning out keep one per worker. A nil *Scratch is
// valid everywhere and falls back to per-call allocation.
type Scratch struct {
	flagA, flagB []bool
	// rowF is Monge-Elkan's per-column running maxima.
	rowF []float64

	// Myers single-block state: ASCII pattern-mask table plus a spillover
	// map for runes >= 128. The table is wiped entry-by-entry after each
	// call (only the pattern's runes), so it is always clean on entry.
	peqASCII [asciiTableSize]uint64
	peqOver  map[rune]uint64

	// Myers multi-block state: per-block vertical deltas, the rune -> mask
	// rows map, and the arena the rows are carved from.
	blockVP, blockVN []uint64
	peqBlocks        map[rune][]uint64
	peqArena         []uint64
}

// asciiTableSize bounds the direct-indexed pattern-mask table; runes at or
// above it go through the spillover map.
const asciiTableSize = 128

// NewScratch returns an empty scratch; buffers grow on demand and are
// retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// myersSingleTables returns the single-block pattern-mask tables: the
// ASCII-indexed array and the (possibly nil) spillover map. Both are clean:
// myersSingle wipes exactly the entries it set before returning. A nil
// scratch gets fresh per-call storage.
func (s *Scratch) myersSingleTables() (*[asciiTableSize]uint64, map[rune]uint64) {
	if s == nil {
		return new([asciiTableSize]uint64), nil
	}
	return &s.peqASCII, s.peqOver
}

// retainMyersOverflow keeps a spillover map allocated inside myersSingle so
// later non-ASCII patterns reuse it.
func (s *Scratch) retainMyersOverflow(over map[rune]uint64) {
	if s != nil && over != nil {
		s.peqOver = over
	}
}

// myersBlockState returns the multi-block working set for w blocks: the
// VP/VN vectors (contents unspecified; the caller initializes them), the
// rune -> mask-rows map (clean), and resets the row arena.
func (s *Scratch) myersBlockState(w int) (vp, vn []uint64, peq map[rune][]uint64) {
	if s == nil {
		return make([]uint64, w), make([]uint64, w), make(map[rune][]uint64, 32)
	}
	if cap(s.blockVP) < w {
		s.blockVP = make([]uint64, w)
		s.blockVN = make([]uint64, w)
	}
	if s.peqBlocks == nil {
		s.peqBlocks = make(map[rune][]uint64, 32)
	}
	s.peqArena = s.peqArena[:0]
	return s.blockVP[:w], s.blockVN[:w], s.peqBlocks
}

// carveRow hands out a zeroed w-word mask row, from the arena when a
// scratch is present (growing it as needed) so steady state allocates
// nothing.
func (s *Scratch) carveRow(w int) []uint64 {
	if s == nil {
		return make([]uint64, w)
	}
	if cap(s.peqArena)-len(s.peqArena) < w {
		grow := cap(s.peqArena)*2 + 16*w
		next := make([]uint64, len(s.peqArena), grow)
		copy(next, s.peqArena)
		s.peqArena = next
	}
	n := len(s.peqArena)
	s.peqArena = s.peqArena[: n+w : n+w]
	row := s.peqArena[n : n+w]
	for i := range row {
		row[i] = 0
	}
	return row
}

// boolRows returns two zeroed bool rows of lengths na and nb (Jaro's
// matched-character flags).
func (s *Scratch) boolRows(na, nb int) (fa, fb []bool) {
	if s == nil {
		return make([]bool, na), make([]bool, nb)
	}
	if cap(s.flagA) < na {
		s.flagA = make([]bool, na)
	}
	if cap(s.flagB) < nb {
		s.flagB = make([]bool, nb)
	}
	fa, fb = s.flagA[:na], s.flagB[:nb]
	for i := range fa {
		fa[i] = false
	}
	for i := range fb {
		fb[i] = false
	}
	return fa, fb
}

// floatRow returns a zeroed float64 row of length n (Monge-Elkan's column
// maxima).
func (s *Scratch) floatRow(n int) []float64 {
	if s == nil || cap(s.rowF) < n {
		return s.growFloatRow(n)
	}
	r := s.rowF[:n]
	clear(r)
	return r
}

// growFloatRow is floatRow's allocating slow path: a fresh row for a nil
// scratch, a larger retained one otherwise. It stays out of line so the
// allocation is confined to it and the kernels calling floatRow have no
// heap escapes of their own.
//
//go:noinline
func (s *Scratch) growFloatRow(n int) []float64 {
	r := make([]float64, n)
	if s != nil {
		s.rowF = r
	}
	return r
}
