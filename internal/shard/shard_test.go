package shard

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
)

// TestPartitionDisjointCovering pins the partitioner's contract: at every
// K, the shards are ascending, pairwise disjoint, and cover [0, n).
func TestPartitionDisjointCovering(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 7, 1000} {
			parts := Partition(n, k)
			if len(parts) != k {
				t.Fatalf("Partition(%d,%d): %d shards", n, k, len(parts))
			}
			seen := make([]bool, n)
			for s, rows := range parts {
				prev := int32(-1)
				for _, r := range rows {
					if r <= prev {
						t.Fatalf("k=%d shard %d not ascending at row %d", k, s, r)
					}
					prev = r
					if seen[r] {
						t.Fatalf("k=%d row %d in two shards", k, r)
					}
					seen[r] = true
					if Assign(r, k) != s {
						t.Fatalf("k=%d row %d in shard %d but Assign says %d", k, r, s, Assign(r, k))
					}
				}
			}
			for r, ok := range seen {
				if !ok {
					t.Fatalf("k=%d row %d unassigned", k, r)
				}
			}
		}
	}
}

// TestAssignStable pins the hash: the same (row, k) maps identically on
// every call — the property that lets any process place any record.
func TestAssignStable(t *testing.T) {
	for r := int32(0); r < 1000; r++ {
		for _, k := range []int{1, 2, 8} {
			a, b := Assign(r, k), Assign(r, k)
			if a != b || a < 0 || a >= k {
				t.Fatalf("Assign(%d,%d) unstable or out of range: %d, %d", r, k, a, b)
			}
		}
	}
}

func TestChoose(t *testing.T) {
	cases := []struct {
		configured, rows, want int
	}{
		{1, 10_000_000, 1},  // explicit single
		{-3, 10_000_000, 1}, // negative = single
		{4, 10, 4},          // explicit K honored even when tiny
		{0, 1000, 1},        // auto, small table
		{0, AutoThresholdRows - 1, 1},
		{0, 400_000, 4},      // auto: ~100k rows per shard
		{0, 100_000_000, 64}, // auto capped
	}
	for _, c := range cases {
		if got := Choose(c.configured, c.rows); got != c.want {
			t.Errorf("Choose(%d, %d) = %d, want %d", c.configured, c.rows, got, c.want)
		}
	}
}

func TestMergeInt32(t *testing.T) {
	lists := [][]int32{{0, 3, 9}, {1, 4}, {}, {2, 5, 6, 7, 8}}
	got := MergeInt32(nil, lists)
	for i, v := range got {
		if int32(i) != v {
			t.Fatalf("merge[%d] = %d", i, v)
		}
	}
	if len(got) != 10 {
		t.Fatalf("merged %d ids, want 10", len(got))
	}
}

func TestMergePairs(t *testing.T) {
	lists := [][]record.Pair{
		{record.P(0, 1), record.P(1, 0)},
		{record.P(0, 0), record.P(0, 2), record.P(2, 0)},
		nil,
	}
	want := []record.Pair{record.P(0, 0), record.P(0, 1), record.P(0, 2), record.P(1, 0), record.P(2, 0)}
	got := MergePairs(nil, lists)
	if len(got) != len(want) {
		t.Fatalf("merged %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// featureByKind returns the index of the first feature with the given
// measure kind, or -1.
func featureByKind(ex *feature.Extractor, kind string) int {
	for i, f := range ex.Features() {
		if f.Kind == kind {
			return i
		}
	}
	return -1
}

// TestGroupCandidatesCompleteness pins the sharded index against the
// single index: for every probe, the merged per-shard candidate set must
// contain every single-index candidate that can actually qualify (both are
// supersets of the truth; they may differ in over-approximation, so the
// check verifies the true survivors are covered, not raw equality).
func TestGroupCandidatesCompleteness(t *testing.T) {
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, 0.01))
	ex := feature.NewExtractor(ds)
	f := featureByKind(ex, "jaccard_w")
	if f < 0 {
		t.Fatal("no jaccard_w feature")
	}
	profA, profB := ex.Profiles(f)
	theta := 0.4
	for _, k := range []int{1, 2, 3, 8} {
		g := BuildGroup(simindex.JaccardWords, profB, k)
		if g.K() != k {
			t.Fatalf("K() = %d, want %d", g.K(), k)
		}
		sc := NewGroupScratch(k)
		for a := 0; a < len(profA); a++ {
			cand := g.Candidates(profA[a], theta, sc)
			// Ascending, no duplicates.
			for i := 1; i < len(cand); i++ {
				if cand[i] <= cand[i-1] {
					t.Fatalf("k=%d probe %d: candidates not strictly ascending", k, a)
				}
			}
			// Complete: every row whose similarity truly exceeds theta is
			// in the candidate set.
			inCand := make(map[int32]bool, len(cand))
			for _, b := range cand {
				inCand[b] = true
			}
			for b := 0; b < len(profB); b++ {
				if ex.Compute(f, record.P(a, b)) > theta && !inCand[int32(b)] {
					t.Fatalf("k=%d: true candidate (%d,%d) missing", k, a, b)
				}
			}
		}
		if k > 1 {
			if g.MaxShardFootprint() >= g.TotalFootprint() {
				t.Errorf("k=%d: max shard footprint %d not below total %d",
					k, g.MaxShardFootprint(), g.TotalFootprint())
			}
		}
	}
}

// Test-only Group helpers: probe every shard of a group and merge the
// per-shard candidate lists, so the completeness test can compare a
// group's candidates with a single index's.

// MergeInt32 merges k ascending, pairwise-disjoint id lists into dst
// (cleared first), preserving ascending order. The linear head scan beats
// a heap for the small k the planner chooses.
func MergeInt32(dst []int32, lists [][]int32) []int32 {
	dst = dst[:0]
	heads := make([]int, len(lists))
	for {
		best, bestList := int32(0), -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if v := l[heads[i]]; bestList < 0 || v < best {
				best, bestList = v, i
			}
		}
		if bestList < 0 {
			return dst
		}
		heads[bestList]++
		dst = append(dst, best)
	}
}

// GroupScratch carries one goroutine's probe state across a Group: the
// shared simindex scratch, per-shard candidate buffers, and the merge
// output buffer.
type GroupScratch struct {
	is     *simindex.Scratch
	per    [][]int32
	merged []int32
}

// NewGroupScratch returns an empty scratch for k shards.
func NewGroupScratch(k int) *GroupScratch {
	return &GroupScratch{is: simindex.NewScratch(), per: make([][]int32, k)}
}

// Candidates probes every shard and returns the merged ascending global
// candidate ids. The returned slice aliases the scratch and is valid until
// the next call.
func (g *Group) Candidates(probe *similarity.Profile, theta float64, sc *GroupScratch) []int32 {
	for s, sh := range g.shards {
		sc.per[s] = sh.Candidates(probe, theta, sc.is, sc.per[s][:0])
	}
	sc.merged = MergeInt32(sc.merged, sc.per)
	return sc.merged
}
